//! `loadgen` — one load generator and one ledger for the supervised KOSR
//! fleet. See `README.md` for the workloads, the metrics and the layer →
//! metric → workload table.
//!
//! ```text
//! loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run, JSON last line
//! loadgen all   [--seed <n>] [--seconds <s>] [--smoke]               # every workload, both runs
//! loadgen aa    [--seed <n>] [--seconds <s>] [--smoke]               # the full set twice, compared
//! loadgen --smoke                                                    # `all --smoke`
//! ```

mod answers;
mod e2e;
mod http;
mod report;
mod sched;
mod stats;
mod trace;
mod world;

use std::process::ExitCode;

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Command {
    /// One workload, one run kind — the benchmark driver's form.
    One { workload: String, trace: bool },
    /// Every workload, end-to-end and traced.
    All,
    /// The full set twice on this build, compared against the bounds.
    Aa,
}

#[derive(Debug, PartialEq)]
struct Args {
    command: Command,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

const USAGE: &str = "usage: loadgen [all|aa] [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut command = None;
    let (mut workload, mut trace) = (None, false);
    let (mut seed, mut seconds, mut smoke) = (1u64, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "all" => command = Some(Command::All),
            "aa" => command = Some(Command::Aa),
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let command = match (command, workload) {
        (None, Some(workload)) => {
            if world::spec_named(&workload).is_none() {
                return Err(format!("unknown workload {workload:?}"));
            }
            Command::One { workload, trace }
        }
        (Some(c), None) => c,
        (None, None) if smoke => Command::All,
        (None, None) => return Err("nothing to do".into()),
        (Some(_), Some(_)) => return Err("--workload runs alone, not with all/aa".into()),
    };
    Ok(Args {
        command,
        seed,
        // Smoke: all four workloads, both runs, within ten seconds.
        seconds: seconds.unwrap_or(if smoke { 0.6 } else { world::NOMINAL_SECONDS }),
        smoke,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.command {
        Command::One { workload, trace } => {
            let spec = world::spec_named(workload).expect("validated by parse_args");
            report::run_one(&spec, args.seed, args.seconds, *trace, args.smoke)
        }
        Command::All => report::run_all(args.seed, args.seconds, args.smoke).map(|_| true),
        Command::Aa => report::run_aa(args.seed, args.seconds, args.smoke),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let a = parse("--workload edge_hot --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                command: Command::One {
                    workload: "edge_hot".into(),
                    trace: true
                },
                seed: 7,
                seconds: 20.0,
                smoke: false,
            }
        );
    }

    #[test]
    fn subcommands_and_smoke() {
        assert_eq!(parse("all --seed 3").unwrap().command, Command::All);
        assert_eq!(parse("aa").unwrap().command, Command::Aa);
        let smoke = parse("--smoke").unwrap();
        assert_eq!(smoke.command, Command::All);
        assert!(smoke.seconds < 1.0);
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2 --workload edge_hot").is_err());
        assert!(parse("all --workload edge_hot").is_err());
        assert!(parse("frobnicate").is_err());
    }
}
