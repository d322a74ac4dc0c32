//! The bound-pruned query hot path: each search method with and without
//! the inter-category lower-bound tables, at two world sizes, over a
//! mixed-traffic batch (hot pairs + uniform tails, mixed `k` and `|C|`).
//!
//! * `kpne_*` / `pruning_*` — the bound-ordered queue (`cost +
//!   rem[level]`) focuses expansion toward completable sequences; the
//!   table lookup happens once per query (`seq_bounds`), inside the
//!   measured window, so the speedup shown is net of that cost.
//! * `star_*` — canonical StarKOSR keeps its estimate-ordered queue (the
//!   sibling chain requires it; see `kosr-core::star`) and, for `|C| ≥ 2`,
//!   estimates with exact label potentials, whose backward pass runs
//!   inside the measured window. The potentials already prove any
//!   infeasible query at the root, so the table adds only its own lookup:
//!   `star_bounds` at parity with `star_plain` is the expected result.
//!
//! Worlds: `1x` is the repo's standard 16×16 grid bench world; `10x` is a
//! 50×51 grid (~10× the vertices) to show the gap scaling with size.
//!
//! Every `*_plain` / `*_bounds` row runs the served entry
//! (`run_canonical_clocked::<NoClock>`, no per-operation clock reads).
//! `star_bounds_profiled/10x` runs the same batch as `star_bounds/10x`
//! under `WallClock`, the clock of the profiled entry `run_canonical_opt`
//! (Table X's decomposition), so the two medians price the stopwatch.

use criterion::{criterion_group, criterion_main, Criterion};

use kosr_core::{Clock, IndexedGraph, Method, NoClock, Query, WallClock};
use kosr_workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};

fn world(w: u32, h: u32, seed: u64) -> IndexedGraph {
    let mut g = road_grid_directed(w, h, seed);
    assign_uniform(&mut g, 6, 20, 5);
    IndexedGraph::build_default(g)
}

/// Runs the batch under clock `C`, with or without per-query sequence
/// bounds; returns the examined-routes total.
fn run_batch<C: Clock>(ig: &IndexedGraph, queries: &[Query], method: Method, bounds: bool) -> u64 {
    let mut examined = 0u64;
    for q in queries {
        let sb = bounds.then(|| ig.seq_bounds(q));
        examined += ig
            .run_canonical_clocked::<C>(q, method, u64::MAX, sb.as_ref())
            .stats
            .examined_routes;
    }
    criterion::black_box(examined)
}

fn query_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_hot_path");
    group.sample_size(12);

    for (label, w, h, batch) in [("1x", 16u32, 16u32, 48usize), ("10x", 50, 51, 16)] {
        let ig = world(w, h, 13);
        let queries: Vec<Query> = gen_mixed_traffic(&ig.graph, batch, &TrafficMix::default(), 29)
            .iter()
            .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
            .collect();

        for (mname, method) in [
            ("kpne", Method::Kpne),
            ("pruning", Method::Pk),
            ("star", Method::Sk),
        ] {
            group.bench_function(format!("{mname}_plain/{label}"), |b| {
                b.iter(|| run_batch::<NoClock>(&ig, &queries, method, false));
            });
            group.bench_function(format!("{mname}_bounds/{label}"), |b| {
                b.iter(|| run_batch::<NoClock>(&ig, &queries, method, true));
            });
        }
        if label == "10x" {
            group.bench_function("star_bounds_profiled/10x", |b| {
                b.iter(|| run_batch::<WallClock>(&ig, &queries, Method::Sk, true));
            });
        }
    }

    group.finish();
}

criterion_group!(benches, query_hot_path);
criterion_main!(benches);
