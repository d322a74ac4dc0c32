//! Measurement harness shared by the `repro` binary and the Criterion
//! benches: prepares indexed scenarios, runs 50-instance query batches per
//! the paper's protocol (§V-A), and aggregates the three evaluation
//! criteria — query run-time, # examined routes, # NN queries — plus the
//! Figure 5 per-level counts and the Table X time decomposition.

use std::time::{Duration, Instant};

use kosr_core::{
    gsp, kpne_bounded, pruning_kosr_bounded, run_sk_db, star_kosr_bounded, GspEngine, IndexedGraph,
    KosrOutcome, Method, Query,
};
use kosr_graph::Graph;
use kosr_hoplabel::HubOrder;
use kosr_index::disk::DiskIndex;
use kosr_index::{BoundTables, CategoryIndexSet, DijkstraNn, DijkstraTarget, LabelNn, LabelTarget};
use kosr_workloads::{QuerySpec, Scenario, ScenarioName};

/// A scenario with all indexes built, ready for measurement.
pub struct Prepared {
    /// The scenario parameters that produced this graph.
    pub scenario: Scenario,
    /// Graph + label + inverted indexes.
    pub ig: IndexedGraph,
    /// The contraction hierarchy (hub ordering + the GSP engine).
    pub ch: kosr_ch::ContractionHierarchy,
    /// CH preprocessing time.
    pub ch_build: Duration,
}

impl Prepared {
    /// Builds everything for `scenario`.
    pub fn build(scenario: Scenario) -> Prepared {
        let graph = scenario.build();
        let t0 = Instant::now();
        let ch = kosr_ch::build(&graph);
        let ch_build = t0.elapsed();
        let ig = IndexedGraph::build(graph, &HubOrder::from_ch(&ch));
        Prepared {
            scenario,
            ig,
            ch,
            ch_build,
        }
    }

    /// Display name (paper spelling).
    pub fn name(&self) -> &'static str {
        self.scenario.name.as_str()
    }

    /// Rebuilds only the category-dependent parts (category table +
    /// inverted index) on top of the existing graph and labels — the cheap
    /// path for the |Ci| and zipf sweeps, whose label index is unchanged.
    pub fn with_categories(&self, assign: impl FnOnce(&mut Graph)) -> Prepared {
        let mut graph = self.ig.graph.clone();
        assign(&mut graph);
        let (inverted, inverted_stats) =
            CategoryIndexSet::build_with_stats(&self.ig.labels, graph.categories());
        Prepared {
            scenario: self.scenario.clone(),
            ig: IndexedGraph {
                graph,
                labels: self.ig.labels.clone(),
                inverted,
                label_stats: self.ig.label_stats,
                inverted_stats,
                bounds: BoundTables::default(),
            },
            ch: self.ch.clone(),
            ch_build: self.ch_build,
        }
    }
}

/// Converts a workload query spec into a core query.
pub fn to_query(spec: &QuerySpec) -> Query {
    Query::new(spec.source, spec.target, spec.categories.clone(), spec.k)
}

/// Aggregated measurement of one (method, parameter point) cell.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Method display name.
    pub method: String,
    /// Instances completed within budget and limit.
    pub completed: usize,
    /// Instances attempted.
    pub attempted: usize,
    /// `true` when the cell should be reported as the paper's "INF"
    /// (budget exhausted or searches truncated).
    pub inf: bool,
    /// Mean query time over completed instances, milliseconds.
    pub mean_ms: f64,
    /// Mean examined routes.
    pub mean_examined: f64,
    /// Mean NN queries.
    pub mean_nn: f64,
    /// Mean examined routes per witness level (Figure 5).
    pub mean_per_level: Vec<f64>,
    /// Mean (nn, queue, estimation, other) milliseconds (Table X).
    pub breakdown_ms: [f64; 4],
}

impl PointResult {
    fn from_outcomes(
        method: String,
        outcomes: &[KosrOutcome],
        attempted: usize,
        inf: bool,
    ) -> Self {
        let n = outcomes.len().max(1) as f64;
        let mean = |f: &dyn Fn(&KosrOutcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
        let levels = outcomes
            .iter()
            .map(|o| o.stats.examined_per_level.len())
            .max()
            .unwrap_or(0);
        let mut mean_per_level = vec![0.0; levels];
        for o in outcomes {
            for (i, &c) in o.stats.examined_per_level.iter().enumerate() {
                mean_per_level[i] += c as f64 / n;
            }
        }
        PointResult {
            method,
            completed: outcomes.len(),
            attempted,
            inf,
            mean_ms: mean(&|o| o.stats.time.total.as_secs_f64() * 1e3),
            mean_examined: mean(&|o| o.stats.examined_routes as f64),
            mean_nn: mean(&|o| o.stats.nn_queries as f64),
            mean_per_level,
            breakdown_ms: [
                mean(&|o| o.stats.time.nn.as_secs_f64() * 1e3),
                mean(&|o| o.stats.time.queue.as_secs_f64() * 1e3),
                mean(&|o| o.stats.time.estimation.as_secs_f64() * 1e3),
                mean(&|o| o.stats.time.other.as_secs_f64() * 1e3),
            ],
        }
    }

    /// The time cell as the paper prints it.
    pub fn time_cell(&self) -> String {
        if self.inf {
            "INF".to_string()
        } else {
            format_ms(self.mean_ms)
        }
    }

    /// A count cell (examined routes / NN queries).
    pub fn count_cell(&self, count: f64) -> String {
        if self.inf {
            "INF".to_string()
        } else {
            format_count(count)
        }
    }
}

/// Execution limits standing in for the paper's 3,600-second cutoff.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Per-(method, point) wall-clock budget across all instances.
    pub budget: Duration,
    /// Per-query examined-routes cap.
    pub examined_limit: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            budget: Duration::from_secs(8),
            examined_limit: 2_000_000,
        }
    }
}

/// Runs one method over a batch of query instances.
pub fn measure(
    prep: &Prepared,
    queries: &[QuerySpec],
    method: Method,
    limits: Limits,
) -> PointResult {
    let ig = &prep.ig;
    measure_with(method.name(), queries, limits, |q| match method {
        Method::Kpne => kpne_bounded(
            q,
            LabelNn::new(&ig.labels, &ig.inverted),
            LabelTarget::new(&ig.labels, q.target),
            limits.examined_limit,
        ),
        Method::Pk => pruning_kosr_bounded(
            q,
            LabelNn::new(&ig.labels, &ig.inverted),
            LabelTarget::new(&ig.labels, q.target),
            limits.examined_limit,
        ),
        Method::Sk => star_kosr_bounded(
            q,
            LabelNn::new(&ig.labels, &ig.inverted),
            LabelTarget::new(&ig.labels, q.target),
            limits.examined_limit,
        ),
        Method::KpneDij => kpne_bounded(
            q,
            DijkstraNn::new(&ig.graph),
            DijkstraTarget::new(&ig.graph, q.target),
            limits.examined_limit,
        ),
        Method::PkDij => pruning_kosr_bounded(
            q,
            DijkstraNn::new(&ig.graph),
            DijkstraTarget::new(&ig.graph, q.target),
            limits.examined_limit,
        ),
        Method::SkDij => star_kosr_bounded(
            q,
            DijkstraNn::new(&ig.graph),
            DijkstraTarget::new(&ig.graph, q.target),
            limits.examined_limit,
        ),
    })
}

/// Runs StarKOSR as the service does — canonical top-k, exact label
/// potentials when `|C| ≥ 2` — under the profiled clock, so the time
/// decomposition's `estimation` carries the potentials' backward pass.
pub fn measure_served_sk(prep: &Prepared, queries: &[QuerySpec], limits: Limits) -> PointResult {
    measure_with("SK (served)", queries, limits, |q| {
        prep.ig.run_canonical(q, Method::Sk, limits.examined_limit)
    })
}

fn measure_with(
    name: &str,
    queries: &[QuerySpec],
    limits: Limits,
    run: impl Fn(&Query) -> KosrOutcome,
) -> PointResult {
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(queries.len());
    let mut attempted = 0;
    let mut truncated = false;
    for spec in queries {
        if start.elapsed() > limits.budget {
            break;
        }
        attempted += 1;
        let out = run(&to_query(spec));
        if out.stats.truncated {
            truncated = true;
            break;
        }
        outcomes.push(out);
    }
    let inf = truncated || outcomes.len() < queries.len().min(3);
    PointResult::from_outcomes(name.to_string(), &outcomes, attempted, inf)
}

/// Runs SK-DB (disk-resident StarKOSR) over a batch.
pub fn measure_sk_db(disk: &DiskIndex, queries: &[QuerySpec], limits: Limits) -> PointResult {
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(queries.len());
    let mut attempted = 0;
    for spec in queries {
        if start.elapsed() > limits.budget {
            break;
        }
        attempted += 1;
        match run_sk_db(disk, &to_query(spec)) {
            Ok(out) => outcomes.push(out),
            Err(_) => break,
        }
    }
    let inf = outcomes.len() < queries.len().min(3);
    PointResult::from_outcomes("SK-DB".to_string(), &outcomes, attempted, inf)
}

/// Runs GSP (k = 1) over a batch; `use_ch` picks the engine.
pub fn measure_gsp(
    prep: &Prepared,
    queries: &[QuerySpec],
    use_ch: bool,
    limits: Limits,
) -> PointResult {
    let start = Instant::now();
    let mut times = Vec::with_capacity(queries.len());
    let mut attempted = 0;
    for spec in queries {
        if start.elapsed() > limits.budget {
            break;
        }
        attempted += 1;
        let engine = if use_ch {
            GspEngine::Ch(&prep.ch)
        } else {
            GspEngine::Dijkstra
        };
        let (_, stats) = gsp(
            &prep.ig.graph,
            spec.source,
            spec.target,
            &spec.categories,
            &engine,
        );
        times.push(stats.total.as_secs_f64() * 1e3);
    }
    let n = times.len().max(1) as f64;
    PointResult {
        method: if use_ch {
            "GSP".into()
        } else {
            "GSP-Dij".into()
        },
        completed: times.len(),
        attempted,
        inf: times.len() < queries.len().min(3),
        mean_ms: times.iter().sum::<f64>() / n,
        mean_examined: 0.0,
        mean_nn: 0.0,
        mean_per_level: Vec::new(),
        breakdown_ms: [0.0; 4],
    }
}

/// Formats milliseconds compactly (`0.42`, `13.5`, `1.2e3`).
pub fn format_ms(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.2}e3", ms / 1e3)
    } else if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// Formats large counts compactly (`312`, `4.1k`, `2.3M`).
pub fn format_count(c: f64) -> String {
    if c >= 1e6 {
        format!("{:.2}M", c / 1e6)
    } else if c >= 1e4 {
        format!("{:.1}k", c / 1e3)
    } else {
        format!("{c:.0}")
    }
}

/// A minimal aligned-column text table for the repro output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure_row = |widths: &mut Vec<usize>, row: &[String]| {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        };
        measure_row(&mut widths, &self.header);
        for r in &self.rows {
            measure_row(&mut widths, r);
        }
        let fmt_row = |row: &[String]| {
            let mut line = String::new();
            for (i, &width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let pad = width.saturating_sub(cell.chars().count());
                line.push_str(cell);
                line.push_str(&" ".repeat(pad + 2));
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Convenience used across experiments: prepares one scenario at `scale`.
pub fn prepare_scenario(name: ScenarioName, scale: f64) -> Prepared {
    Prepared::build(Scenario::new(name).with_scale(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_workloads::gen_queries;

    #[test]
    fn measure_smoke_on_tiny_scenario() {
        let prep = prepare_scenario(ScenarioName::Col, 0.03);
        let queries = gen_queries(&prep.ig.graph, 4, 3, 5, 7);
        let limits = Limits::default();
        let sk = measure(&prep, &queries, Method::Sk, limits);
        assert_eq!(sk.completed, 4);
        assert!(!sk.inf);
        assert!(sk.mean_examined > 0.0);
        let pk = measure(&prep, &queries, Method::Pk, limits);
        assert!(pk.mean_examined >= sk.mean_examined);
        // GSP runs too.
        let g = measure_gsp(&prep, &queries, false, limits);
        assert_eq!(g.completed, 4);
        let gch = measure_gsp(&prep, &queries, true, limits);
        assert_eq!(gch.completed, 4);
    }

    #[test]
    fn tiny_budget_reports_inf() {
        let prep = prepare_scenario(ScenarioName::Col, 0.03);
        let queries = gen_queries(&prep.ig.graph, 10, 3, 5, 7);
        let limits = Limits {
            budget: Duration::from_nanos(1),
            examined_limit: u64::MAX,
        };
        let r = measure(&prep, &queries, Method::Sk, limits);
        assert!(r.inf);
        assert_eq!(r.time_cell(), "INF");
    }

    #[test]
    fn with_categories_rebuilds_inverted_only() {
        let prep = prepare_scenario(ScenarioName::Fla, 0.03);
        let resized = prep.with_categories(|g| {
            kosr_workloads::assign_uniform(g, 20, 5, 123);
        });
        assert_eq!(
            resized
                .ig
                .graph
                .categories()
                .category_size(kosr_graph::CategoryId(0)),
            5
        );
        // Labels are shared, only categories/inverted changed.
        assert_eq!(
            resized.ig.labels.num_entries(),
            prep.ig.labels.num_entries()
        );
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        assert!(s.contains("a    bbbb"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(format_ms(0.1234), "0.123");
        assert_eq!(format_ms(5.25), "5.2");
        assert_eq!(format_ms(150.0), "150");
        assert_eq!(format_ms(12_000.0), "12.00e3");
        assert_eq!(format_count(312.0), "312");
        assert_eq!(format_count(41_000.0), "41.0k");
        assert_eq!(format_count(2_300_000.0), "2.30M");
    }
}
