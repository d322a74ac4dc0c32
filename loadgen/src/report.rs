//! Output: the human-readable report, the one-line JSON result the
//! benchmark driver reads, and the A/A comparison.

use std::collections::BTreeMap;
use std::io;

use crate::world::{specs, Spec};
use crate::{e2e, trace};

/// Regression bound per end-to-end metric, as in `BENCHMARK.json`; the
/// A/A run holds two runs of one build to the same numbers.
pub const BOUNDS: [(&str, f64); 11] = [
    ("setup_s", 0.25),
    ("route_p50_ms", 0.25),
    ("route_p95_ms", 0.25),
    ("max_qps", 0.15),
    ("connect_p50_ms", 0.2),
    ("update_p50_ms", 0.15),
    ("update_p90_ms", 0.15),
    ("update_per_s", 0.25),
    ("delta_lag_p50_ms", 0.15),
    ("delta_lag_p90_ms", 0.2),
    ("rss_mib", 0.25),
];

fn lower_is_better(metric: &str) -> bool {
    !matches!(metric, "max_qps" | "update_per_s")
}

/// One line per CPU fact a reader needs to place the numbers.
fn host_descriptor(seed: u64, seconds: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: cores={cores} cpu=\"{cpu}\" rustc=\"{}\" commit={} seed={seed} seconds={seconds}",
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> io::Result<String> {
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            return Err(io::Error::other(format!("metric {name} was not measured")));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn print_e2e(spec: &Spec, r: &e2e::Report) {
    println!(
        "== {} (end to end, {} rounds) — {}",
        spec.name, r.rounds, spec.why
    );
    println!(
        "set-ups (s): {:?}; last: gen {:.3} ch {:.3} index {:.3} (labels {:.3}, inverted {:.3}) partition {:.1} ms shard set {:.3}",
        r.setups_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        r.timings.gen_s,
        r.timings.ch_s,
        r.timings.index_s,
        r.timings.label_s,
        r.timings.inverted_s,
        r.timings.partition_ms,
        r.timings.shardset_s,
    );
    for p in &r.phases {
        println!(
            "  phase {:<46} sent {:>6} ok {:>6} failed {:>3}  {}",
            p.name, p.sent, p.ok, p.failed, p.note
        );
    }
    println!(
        "  replica cache hit ratio over read phases {:.4}; generator lag p99 {:.4} ms; oracle {:.3} s; error_share {} ({} / {})",
        r.read_cache_hit_ratio,
        r.lag_p99_ms,
        r.oracle_s,
        r.error_share(),
        r.failed,
        r.attempted
    );
    for (name, unit) in e2e::METRICS {
        println!(
            "  {name:<20} {:>14.4} {unit}",
            r.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
}

fn print_trace(spec: &Spec, r: &trace::Report) {
    println!("== {} (traced) — per-layer ledger", spec.name);
    let ladder = |names: [&str; 5], rungs: &[f64; 5]| {
        let mut below = 0.0;
        let parts: Vec<String> = names
            .iter()
            .zip(rungs)
            .map(|(n, r)| {
                let s = format!("{n} {r:.1} (self {:.1})", r - below);
                below = *r;
                s
            })
            .collect();
        parts.join(" → ")
    };
    println!(
        "  read ladder p50 µs:  {}",
        ladder(
            ["core", "service", "inproc", "router", "http"],
            &r.read_rungs_us
        )
    );
    println!(
        "  write ladder p50 µs: {}",
        ladder(
            ["index", "apply", "publish", "publish+hub", "http-update"],
            &r.write_rungs_us
        )
    );
    println!(
        "  search (core rung) is {:.1} % of the HTTP p50 and {:.1} % of the HTTP rung's total time",
        100.0 * r.read_rungs_us[0] / r.read_rungs_us[4],
        100.0 * r.core_time_share
    );
    for s in &r.steps {
        println!(
            "  open loop {:>6}/s: route p95 {:.3} ms, backlog {}, generator lag p99 {:.4} ms",
            s.rate,
            s.p95_ms,
            if s.backlog_grew { "GROWING" } else { "steady" },
            s.lag_p99_ms
        );
    }
    println!(
        "  {} spans → {}; attempted {} failed {}",
        r.spans,
        r.trace_file.display(),
        r.attempted,
        r.failed
    );
    for (name, unit) in trace::METRICS {
        println!(
            "  {name:<36} {:>16.4} {unit}",
            r.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
}

fn setups(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        e2e::SETUPS
    }
}

/// One workload, one run kind; the JSON result is the last line printed.
/// `Ok(false)` when the outputs were not all correct.
pub fn run_one(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> io::Result<bool> {
    let (line, correct) = if traced {
        let r = trace::run(spec, seed, seconds)?;
        print_trace(spec, &r);
        let correct = r.failed == 0;
        (
            json_line(correct, r.attempted, r.failed, trace::METRICS, &r.metrics)?,
            correct,
        )
    } else {
        let r = e2e::run(spec, seed, seconds, setups(smoke))?;
        print_e2e(spec, &r);
        let correct = r.failed == 0;
        (
            json_line(correct, r.attempted, r.failed, &e2e::METRICS, &r.metrics)?,
            correct,
        )
    };
    println!("{line}");
    Ok(correct)
}

/// The metrics of one run, as its JSON result line reported them.
type Measured = BTreeMap<String, f64>;

/// Runs one workload in a process of its own — exactly what the benchmark
/// driver does, and the only way `rss_mib` means anything once an earlier
/// workload has grown this process's heap — forwards its report, and
/// returns the metrics of its JSON result line.
fn run_child(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> io::Result<Measured> {
    let mut command = std::process::Command::new(std::env::current_exe()?);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.stderr(std::process::Stdio::inherit()).output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, result) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "{} ({}) failed: {} — {result}",
            spec.name,
            if traced { "traced" } else { "end to end" },
            output.status
        )));
    }
    let parsed = kosr_gateway::json::parse(result.as_bytes())
        .map_err(|e| io::Error::other(format!("{}: unreadable result line: {e}", spec.name)))?;
    let names: &[(&str, &str)] = if traced {
        trace::METRICS
    } else {
        &e2e::METRICS
    };
    names
        .iter()
        .map(|(name, _)| {
            parsed
                .get("metrics")
                .and_then(|m| m.get(name)?.get("value")?.as_f64())
                .map(|v| (name.to_string(), v))
                .ok_or_else(|| io::Error::other(format!("{}: result lacks {name}", spec.name)))
        })
        .collect()
}

/// One full set: every workload's end-to-end and traced run, each in its
/// own process. A smoke set checks every workload end to end but walks
/// the traced pass on the first workload only — the pass is the same code
/// for all four and its fixed costs alone would triple the smoke time.
pub fn run_all(
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> io::Result<Vec<(Spec, Measured, Option<Measured>)>> {
    println!("{}", host_descriptor(seed, seconds));
    let mut out = Vec::new();
    for (i, spec) in specs().into_iter().enumerate() {
        let e = run_child(&spec, seed, seconds, false, smoke)?;
        let t = if smoke && i > 0 {
            None
        } else {
            Some(run_child(&spec, seed, seconds, true, smoke)?)
        };
        out.push((spec, e, t));
    }
    println!("all workloads done; every answer checked was correct");
    Ok(out)
}

/// Runs the full set twice on this build and compares every end-to-end
/// metric × workload against its bound, and every exact count for
/// equality. `Ok(false)` when any pair disagrees beyond its bound.
pub fn run_aa(seed: u64, seconds: f64, smoke: bool) -> io::Result<bool> {
    let first = run_all(seed, seconds, smoke)?;
    let second = run_all(seed, seconds, smoke)?;
    println!("== A/A: two runs of one build, seed {seed}");
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for ((spec, e1, t1), (_, e2, t2)) in first.iter().zip(&second) {
        for (metric, bound) in BOUNDS {
            let (a, b) = (e1[metric], e2[metric]);
            // Worsening of the second run relative to the first, signed
            // so that positive is worse.
            let worse = if lower_is_better(metric) {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let verdict = if worse.abs() > bound { "  EXCEEDS" } else { "" };
            agree &= worse.abs() <= bound;
            println!(
                "{:<18} {:<18} {a:>12.4} {b:>12.4} {:>8.2}% {:>6.0}%{verdict}",
                spec.name,
                metric,
                100.0 * worse,
                100.0 * bound
            );
        }
        for count in trace::EXACT_COUNTS {
            let value = |t: &Option<Measured>| t.as_ref().map(|t| t[*count]);
            let (a, b) = (value(t1), value(t2));
            if a != b {
                agree = false;
                println!(
                    "{:<18} {count:<36} {a:?} != {b:?}  COUNT DIFFERS",
                    spec.name
                );
            }
        }
    }
    println!(
        "A/A {}",
        if agree {
            "agrees within every bound; all counts identical"
        } else {
            "DISAGREES"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.25);
        values.insert("max_qps", 1234.5);
        let line = json_line(
            true,
            10,
            0,
            &[("setup_s", "s"), ("max_qps", "1/s")],
            &values,
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"max_qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        let parsed = kosr_gateway::json::parse(line.as_bytes()).expect("valid JSON");
        assert_eq!(parsed.get("attempted").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn an_unmeasured_metric_is_an_error_not_a_zero() {
        let values = BTreeMap::new();
        assert!(json_line(true, 1, 0, &[("setup_s", "s")], &values).is_err());
        let mut nan = BTreeMap::new();
        nan.insert("setup_s", f64::NAN);
        assert!(json_line(true, 1, 0, &[("setup_s", "s")], &nan).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; the lists in the code
    /// are what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read(path).expect("BENCHMARK.json at the repository root");
        let doc = kosr_gateway::json::parse(&text).expect("valid JSON");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(|n| n.as_str())
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            list(key, "name")
                .into_iter()
                .zip(list(key, "unit"))
                .collect()
        };
        let own = |m: &[(&str, &str)]| -> Vec<(String, String)> {
            m.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&e2e::METRICS));
        assert_eq!(pairs("per_layer"), own(trace::METRICS));
        let declared: Vec<(String, String)> = list("workloads", "name")
            .into_iter()
            .zip(list("workloads", "why"))
            .collect();
        let defined: Vec<(String, String)> = specs()
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(declared, defined);
        for (m, (name, bound)) in doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .zip(BOUNDS)
        {
            assert_eq!(
                m.get("bound").and_then(|b| b.as_f64()),
                Some(bound),
                "{name}"
            );
            let better = m.get("better").and_then(|b| b.as_str()).unwrap();
            assert_eq!(better == "lower", lower_is_better(name), "{name}");
        }
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(crate::world::NOMINAL_SECONDS)
        );
    }

    #[test]
    fn bounds_cover_the_end_to_end_metrics_in_order() {
        let names: Vec<&str> = e2e::METRICS.iter().map(|m| m.0).collect();
        let bounded: Vec<&str> = BOUNDS.iter().map(|b| b.0).collect();
        assert_eq!(names, bounded);
        assert!(BOUNDS.iter().all(|b| b.1 > 0.0 && b.1 <= 0.25));
    }
}
