//! `repro` — regenerates every table and figure of the paper's evaluation
//! (§V-B) on the synthetic scenario suite.
//!
//! ```text
//! repro <experiment> [--scale X] [--instances N] [--budget-ms B] [--limit L]
//!
//! experiments:
//!   table7   dataset sizes                     table9   index preprocessing
//!   fig3     overall: time / examined / NN     fig3d    effect of k (FLA)
//!   fig3e    effect of k (CAL)                 fig3f    effect of |C| (FLA)
//!   fig3g    effect of |C| (CAL)               fig3h    effect of |Ci| (FLA)
//!   fig4     small k (CAL & FLA)               fig5     SK search space/level
//!   fig6     zipfian factor (FLA)              fig7     OSR (k=1) incl. GSP
//!   table10  PK vs SK time breakdown (FLA)     ablate   design ablations
//!   all      everything above
//! ```
//!
//! Absolute numbers differ from the paper (different hardware, scaled
//! graphs); the *shapes* — who wins, by how much, where INF appears — are
//! the reproduction targets. They are not yet recorded or asserted
//! anywhere; item 2a of ROADMAP.md tracks that.

use std::collections::HashMap;
use std::time::Duration;

use kosr_bench::harness::{
    format_count, format_ms, measure, measure_gsp, measure_served_sk, measure_sk_db, to_query,
    Limits, PointResult, Prepared, TextTable,
};
use kosr_core::{pruning_kosr, star_kosr, Method};
use kosr_index::disk::DiskIndex;
use kosr_index::{LabelNn, LabelTarget};
use kosr_workloads::{assign_uniform, assign_zipf, gen_queries, QuerySpec, Scenario, ScenarioName};

struct Ctx {
    scale: f64,
    instances: usize,
    limits: Limits,
    prepared: HashMap<ScenarioName, Prepared>,
    disk_dir: std::path::PathBuf,
}

impl Ctx {
    fn new(scale: f64, instances: usize, limits: Limits) -> Ctx {
        let disk_dir = std::env::temp_dir().join(format!("kosr_repro_{}", std::process::id()));
        std::fs::create_dir_all(&disk_dir).expect("temp dir");
        Ctx {
            scale,
            instances,
            limits,
            prepared: HashMap::new(),
            disk_dir,
        }
    }

    fn prep(&mut self, name: ScenarioName) -> &Prepared {
        let scale = self.scale;
        self.prepared.entry(name).or_insert_with(|| {
            eprintln!("[prep] building {} (scale {scale}) ...", name.as_str());
            let p = Prepared::build(Scenario::new(name).with_scale(scale));
            eprintln!(
                "[prep] {}: |V|={} |E|={} labels={} entries",
                name.as_str(),
                p.ig.graph.num_vertices(),
                p.ig.graph.num_edges(),
                p.ig.labels.num_entries()
            );
            p
        })
    }

    fn queries(&mut self, name: ScenarioName, c_len: usize, k: usize, seed: u64) -> Vec<QuerySpec> {
        let instances = self.instances;
        let prep = self.prep(name);
        gen_queries(&prep.ig.graph, instances, c_len, k, seed)
    }

    fn disk_index_for(&mut self, name: ScenarioName) -> DiskIndex {
        let path = self.disk_dir.join(format!("{}.idx", name.as_str()));
        if !path.exists() {
            let prep = self.prep(name);
            prep.ig.write_disk_index(&path).expect("write disk index");
        }
        DiskIndex::open(&path).expect("open disk index")
    }
}

/// Default |C| = 6, k = 30 (Table VIII bold values).
const DEF_C: usize = 6;
const DEF_K: usize = 30;

fn methods_row(
    ctx: &mut Ctx,
    name: ScenarioName,
    queries: &[QuerySpec],
    with_db: bool,
) -> Vec<PointResult> {
    let limits = ctx.limits;
    let mut out = Vec::new();
    for m in Method::ALL {
        let prep = ctx.prep(name);
        out.push(measure(prep, queries, m, limits));
    }
    if with_db {
        let disk = ctx.disk_index_for(name);
        out.push(measure_sk_db(&disk, queries, limits));
    }
    out
}

fn table7(ctx: &mut Ctx) {
    println!("\n== Table VII: graphs (scaled synthetic analogues) ==");
    let mut t = TextTable::new(vec!["Dataset", "|V|", "|E|", "#categories", "#memberships"]);
    for name in ScenarioName::ALL {
        let p = ctx.prep(name);
        t.row(vec![
            name.as_str().to_string(),
            p.ig.graph.num_vertices().to_string(),
            p.ig.graph.num_edges().to_string(),
            p.ig.graph.categories().num_categories().to_string(),
            p.ig.graph.categories().num_memberships().to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn table9(ctx: &mut Ctx) {
    println!("\n== Table IX: preprocessing (label + inverted label indexes) ==");
    let mut t = TextTable::new(vec![
        "Graph",
        "CH [ms]",
        "PLL [ms]",
        "Avg |Lin|",
        "Avg |Lout|",
        "Label MB",
        "IL [ms]",
        "Avg |IL(Ci)|",
        "Avg |IL(v)|",
        "IL MB",
    ]);
    for name in ScenarioName::ALL {
        let p = ctx.prep(name);
        let ls = &p.ig.label_stats;
        let is = &p.ig.inverted_stats;
        t.row(vec![
            name.as_str().to_string(),
            format_ms(p.ch_build.as_secs_f64() * 1e3),
            format_ms(ls.build_time.as_secs_f64() * 1e3),
            format!("{:.2}", p.ig.labels.avg_lin_size()),
            format!("{:.2}", p.ig.labels.avg_lout_size()),
            format!("{:.2}", p.ig.labels.size_bytes() as f64 / 1e6),
            format_ms(is.build_time.as_secs_f64() * 1e3),
            format!("{:.1}", is.avg_entries_per_category),
            format!("{:.2}", is.avg_list_len),
            format!("{:.2}", is.size_bytes as f64 / 1e6),
        ]);
    }
    print!("{}", t.render());
}

fn fig3(ctx: &mut Ctx) {
    println!("\n== Figure 3(a-c): all methods x all graphs (|C|={DEF_C}, k={DEF_K}) ==");
    let mut rows: Vec<(ScenarioName, Vec<PointResult>)> = Vec::new();
    for name in ScenarioName::ALL {
        let queries = ctx.queries(name, DEF_C, DEF_K, 0xF163A);
        rows.push((name, methods_row(ctx, name, &queries, true)));
    }
    let headers: Vec<String> = std::iter::once("Graph".to_string())
        .chain(rows[0].1.iter().map(|r| r.method.clone()))
        .collect();

    println!("\n-- Figure 3(a): mean query time [ms] --");
    let mut t = TextTable::new(headers.clone());
    for (name, results) in &rows {
        let mut cells = vec![name.as_str().to_string()];
        cells.extend(results.iter().map(|r| r.time_cell()));
        t.row(cells);
    }
    print!("{}", t.render());

    println!("\n-- Figure 3(b): mean # examined routes --");
    let mut t = TextTable::new(headers.clone());
    for (name, results) in &rows {
        let mut cells = vec![name.as_str().to_string()];
        cells.extend(results.iter().map(|r| r.count_cell(r.mean_examined)));
        t.row(cells);
    }
    print!("{}", t.render());

    println!("\n-- Figure 3(c): mean # NN queries --");
    let mut t = TextTable::new(headers);
    for (name, results) in &rows {
        let mut cells = vec![name.as_str().to_string()];
        cells.extend(results.iter().map(|r| r.count_cell(r.mean_nn)));
        t.row(cells);
    }
    print!("{}", t.render());
}

fn sweep_k(ctx: &mut Ctx, name: ScenarioName, ks: &[usize], label: &str) {
    println!(
        "\n== {label}: effect of k on {} (|C|={DEF_C}) ==",
        name.as_str()
    );
    let mut t = TextTable::new(vec![
        "k", "KPNE-Dij", "PK-Dij", "SK-Dij", "KPNE", "PK", "SK", "SK-DB",
    ]);
    for &k in ks {
        let queries = ctx.queries(name, DEF_C, k, 0xF163D + k as u64);
        let results = methods_row(ctx, name, &queries, true);
        let mut cells = vec![k.to_string()];
        cells.extend(results.iter().map(|r| r.time_cell()));
        t.row(cells);
    }
    print!("{}", t.render());
}

fn sweep_c(ctx: &mut Ctx, name: ScenarioName, label: &str) {
    println!(
        "\n== {label}: effect of |C| on {} (k={DEF_K}) ==",
        name.as_str()
    );
    let mut t = TextTable::new(vec![
        "|C|", "KPNE-Dij", "PK-Dij", "SK-Dij", "KPNE", "PK", "SK", "SK-DB",
    ]);
    for c_len in [2usize, 4, 6, 8, 10] {
        let max_c = ctx.prep(name).ig.graph.categories().num_categories();
        let c_len = c_len.min(max_c);
        let queries = ctx.queries(name, c_len, DEF_K, 0xF163F + c_len as u64);
        let results = methods_row(ctx, name, &queries, true);
        let mut cells = vec![c_len.to_string()];
        cells.extend(results.iter().map(|r| r.time_cell()));
        t.row(cells);
    }
    print!("{}", t.render());
}

fn fig3h(ctx: &mut Ctx) {
    println!("\n== Figure 3(h): effect of |Ci| on FLA (|C|={DEF_C}, k={DEF_K}) ==");
    let sizes: Vec<usize> = [100usize, 200, 300, 400]
        .iter()
        .map(|&s| ((s as f64) * ctx.scale).round().max(4.0) as usize)
        .collect();
    let limits = ctx.limits;
    let instances = ctx.instances;
    let base = ctx.prep(ScenarioName::Fla);
    let mut t = TextTable::new(vec![
        "|Ci|", "KPNE-Dij", "PK-Dij", "SK-Dij", "KPNE", "PK", "SK",
    ]);
    let variants: Vec<(usize, Prepared)> = sizes
        .iter()
        .map(|&s| {
            (
                s,
                base.with_categories(|g| {
                    assign_uniform(g, 20, s.min(g.num_vertices()), 0xC1 + s as u64)
                }),
            )
        })
        .collect();
    for (s, prep) in &variants {
        let queries = gen_queries(&prep.ig.graph, instances, DEF_C, DEF_K, 0xF1631 + *s as u64);
        let mut cells = vec![s.to_string()];
        for m in Method::ALL {
            cells.push(measure(prep, &queries, m, limits).time_cell());
        }
        t.row(cells);
    }
    print!("{}", t.render());
}

fn fig4(ctx: &mut Ctx) {
    for name in [ScenarioName::Cal, ScenarioName::Fla] {
        println!(
            "\n== Figure 4: small k on {} (|C|={DEF_C}) ==",
            name.as_str()
        );
        let mut t = TextTable::new(vec![
            "k", "KPNE-Dij", "PK-Dij", "SK-Dij", "KPNE", "PK", "SK", "SK-DB",
        ]);
        for k in [1usize, 2, 3, 4, 5, 10] {
            let queries = ctx.queries(name, DEF_C, k, 0xF1640 + k as u64);
            let results = methods_row(ctx, name, &queries, true);
            let mut cells = vec![k.to_string()];
            cells.extend(results.iter().map(|r| r.time_cell()));
            t.row(cells);
        }
        print!("{}", t.render());
    }
}

fn fig5(ctx: &mut Ctx) {
    println!("\n== Figure 5: SK examined routes per category level (|C|={DEF_C}, k={DEF_K}) ==");
    let mut t = TextTable::new(vec![
        "Graph", "L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7(t)",
    ]);
    for name in ScenarioName::ALL {
        let queries = ctx.queries(name, DEF_C, DEF_K, 0xF1650);
        let limits = ctx.limits;
        let prep = ctx.prep(name);
        let r = measure(prep, &queries, Method::Sk, limits);
        let mut cells = vec![name.as_str().to_string()];
        cells.extend(r.mean_per_level.iter().map(|&c| format_count(c)));
        t.row(cells);
    }
    print!("{}", t.render());
    println!("(rises while estimates are loose, then shrinks toward the destination — Fig. 2(c))");
}

fn fig6(ctx: &mut Ctx) {
    println!("\n== Figure 6: zipfian category factor f on FLA (|C|={DEF_C}, k={DEF_K}) ==");
    let total = 20
        * Scenario::new(ScenarioName::Fla)
            .with_scale(ctx.scale)
            .default_category_size();
    let limits = ctx.limits;
    let instances = ctx.instances;
    let base = ctx.prep(ScenarioName::Fla);
    let mut t = TextTable::new(vec!["f", "KPNE", "PK", "SK"]);
    for f10 in [12u32, 14, 16, 18] {
        let f = f10 as f64 / 10.0;
        let prep = base.with_categories(|g| assign_zipf(g, 20, total, f, 0x21F + f10 as u64));
        let queries = gen_queries(
            &prep.ig.graph,
            instances,
            DEF_C,
            DEF_K,
            0xF1660 + f10 as u64,
        );
        let mut cells = vec![format!("{f:.1}")];
        for m in [Method::Kpne, Method::Pk, Method::Sk] {
            cells.push(measure(&prep, &queries, m, limits).time_cell());
        }
        t.row(cells);
    }
    print!("{}", t.render());
}

fn fig7(ctx: &mut Ctx) {
    println!("\n== Figure 7: OSR queries (k = 1, |C|={DEF_C}) incl. GSP ==");
    let mut t = TextTable::new(vec![
        "Graph", "KPNE-Dij", "PK-Dij", "SK-Dij", "KPNE", "PK", "SK", "SK-DB", "GSP", "GSP-Dij",
    ]);
    for name in ScenarioName::ALL {
        let queries = ctx.queries(name, DEF_C, 1, 0xF1670);
        let mut results = methods_row(ctx, name, &queries, true);
        let limits = ctx.limits;
        let prep = ctx.prep(name);
        results.push(measure_gsp(prep, &queries, true, limits));
        results.push(measure_gsp(prep, &queries, false, limits));
        let mut cells = vec![name.as_str().to_string()];
        cells.extend(results.iter().map(|r| r.time_cell()));
        t.row(cells);
    }
    print!("{}", t.render());
}

fn table10(ctx: &mut Ctx) {
    println!("\n== Table X: query-time distribution on FLA [ms] (|C|={DEF_C}, k={DEF_K}) ==");
    let queries = ctx.queries(ScenarioName::Fla, DEF_C, DEF_K, 0xF1610);
    let limits = ctx.limits;
    let prep = ctx.prep(ScenarioName::Fla);
    let pk = measure(prep, &queries, Method::Pk, limits);
    let sk = measure(prep, &queries, Method::Sk, limits);
    let served = measure_served_sk(prep, &queries, limits);
    let mut t = TextTable::new(vec!["Component", "PK", "SK", "SK (served)"]);
    let cols = [&pk, &sk, &served];
    let mut row = |name: &str, ms: &dyn Fn(&PointResult) -> f64| {
        let mut cells = vec![name.to_string()];
        cells.extend(cols.iter().map(|r| format_ms(ms(r))));
        t.row(cells);
    };
    row("Overall query time", &|r| r.mean_ms);
    row("NN query time", &|r| r.breakdown_ms[0]);
    row("Priority queue maintenance", &|r| r.breakdown_ms[1]);
    row("Estimation time", &|r| r.breakdown_ms[2]);
    row("Others", &|r| r.breakdown_ms[3]);
    print!("{}", t.render());
    println!(
        "SK (served): canonical top-k with exact label potentials; its \
         estimation time includes the potentials' backward pass."
    );
}

fn ablate(ctx: &mut Ctx) {
    println!("\n== Ablations (beyond the paper) ==");

    println!("\n-- dominance pruning: examined routes, KPNE (no dominance) vs PK --");
    let mut t = TextTable::new(vec!["Graph", "KPNE", "PK", "ratio"]);
    for name in ScenarioName::ALL {
        let queries = ctx.queries(name, DEF_C, DEF_K, 0xAB1);
        let limits = ctx.limits;
        let prep = ctx.prep(name);
        let kp = measure(prep, &queries, Method::Kpne, limits);
        let pk = measure(prep, &queries, Method::Pk, limits);
        let ratio = if kp.inf {
            format!(
                ">{}",
                format_count(limits.examined_limit as f64 / pk.mean_examined.max(1.0))
            )
        } else {
            format!("{:.1}x", kp.mean_examined / pk.mean_examined.max(1.0))
        };
        t.row(vec![
            name.as_str().to_string(),
            kp.count_cell(kp.mean_examined),
            pk.count_cell(pk.mean_examined),
            ratio,
        ]);
    }
    print!("{}", t.render());

    println!("\n-- A* estimation: examined routes, PK (no heuristic) vs SK --");
    let mut t = TextTable::new(vec!["Graph", "PK", "SK", "ratio"]);
    for name in ScenarioName::ALL {
        let queries = ctx.queries(name, DEF_C, DEF_K, 0xAB2);
        let limits = ctx.limits;
        let prep = ctx.prep(name);
        let pk = measure(prep, &queries, Method::Pk, limits);
        let sk = measure(prep, &queries, Method::Sk, limits);
        t.row(vec![
            name.as_str().to_string(),
            pk.count_cell(pk.mean_examined),
            sk.count_cell(sk.mean_examined),
            format!("{:.1}x", pk.mean_examined / sk.mean_examined.max(1.0)),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- hub ordering: PLL label entries, degree order vs CH-rank order --");
    let mut t = TextTable::new(vec!["Graph", "degree", "CH-rank", "ratio"]);
    for name in ScenarioName::ALL {
        let prep = ctx.prep(name);
        let deg = kosr_hoplabel::build(&prep.ig.graph, &kosr_hoplabel::HubOrder::Degree);
        let ch_entries = prep.ig.labels.num_entries();
        t.row(vec![
            name.as_str().to_string(),
            deg.num_entries().to_string(),
            ch_entries.to_string(),
            format!(
                "{:.2}x",
                deg.num_entries() as f64 / ch_entries.max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- correctness spot-check: PK and SK agree on CAL --");
    let queries = ctx.queries(ScenarioName::Cal, 4, 10, 0xAB3);
    let prep = ctx.prep(ScenarioName::Cal);
    let mut agree = 0;
    for spec in queries.iter().take(10) {
        let q = to_query(spec);
        let a = pruning_kosr(
            &q,
            LabelNn::new(&prep.ig.labels, &prep.ig.inverted),
            LabelTarget::new(&prep.ig.labels, q.target),
        );
        let b = star_kosr(
            &q,
            LabelNn::new(&prep.ig.labels, &prep.ig.inverted),
            LabelTarget::new(&prep.ig.labels, q.target),
        );
        assert_eq!(a.costs(), b.costs(), "PK and SK disagree on {q:?}");
        agree += 1;
    }
    println!("{agree}/10 queries: identical top-k cost vectors");
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <table7|table9|fig3|fig3d|fig3e|fig3f|fig3g|fig3h|fig4|fig5|fig6|fig7|table10|ablate|all> \
         [--scale X] [--instances N] [--budget-ms B] [--limit L]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].clone();
    let mut scale = 1.0f64;
    let mut instances = 50usize;
    let mut limits = Limits::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args[i + 1].parse().expect("--scale f64");
                i += 2;
            }
            "--instances" => {
                instances = args[i + 1].parse().expect("--instances usize");
                i += 2;
            }
            "--budget-ms" => {
                limits.budget =
                    Duration::from_millis(args[i + 1].parse().expect("--budget-ms u64"));
                i += 2;
            }
            "--limit" => {
                limits.examined_limit = args[i + 1].parse().expect("--limit u64");
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let mut ctx = Ctx::new(scale, instances, limits);
    let t0 = std::time::Instant::now();
    match experiment.as_str() {
        "table7" => table7(&mut ctx),
        "table9" => table9(&mut ctx),
        "fig3" | "fig3a" | "fig3b" | "fig3c" => fig3(&mut ctx),
        "fig3d" => sweep_k(
            &mut ctx,
            ScenarioName::Fla,
            &[10, 20, 30, 40, 50],
            "Figure 3(d)",
        ),
        "fig3e" => sweep_k(
            &mut ctx,
            ScenarioName::Cal,
            &[10, 20, 30, 40, 50],
            "Figure 3(e)",
        ),
        "fig3f" => sweep_c(&mut ctx, ScenarioName::Fla, "Figure 3(f)"),
        "fig3g" => sweep_c(&mut ctx, ScenarioName::Cal, "Figure 3(g)"),
        "fig3h" => fig3h(&mut ctx),
        "fig4" => fig4(&mut ctx),
        "fig5" => fig5(&mut ctx),
        "fig6" => fig6(&mut ctx),
        "fig7" => fig7(&mut ctx),
        "table10" => table10(&mut ctx),
        "ablate" => ablate(&mut ctx),
        "all" => {
            table7(&mut ctx);
            table9(&mut ctx);
            fig3(&mut ctx);
            sweep_k(
                &mut ctx,
                ScenarioName::Fla,
                &[10, 20, 30, 40, 50],
                "Figure 3(d)",
            );
            sweep_k(
                &mut ctx,
                ScenarioName::Cal,
                &[10, 20, 30, 40, 50],
                "Figure 3(e)",
            );
            sweep_c(&mut ctx, ScenarioName::Fla, "Figure 3(f)");
            sweep_c(&mut ctx, ScenarioName::Cal, "Figure 3(g)");
            fig3h(&mut ctx);
            fig4(&mut ctx);
            fig5(&mut ctx);
            fig6(&mut ctx);
            fig7(&mut ctx);
            table10(&mut ctx);
            ablate(&mut ctx);
        }
        _ => usage(),
    }
    eprintln!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
    std::fs::remove_dir_all(&ctx.disk_dir).ok();
}
