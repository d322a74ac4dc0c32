//! The serving layer end to end: a mixed 1,200-query traffic stream pushed
//! through `kosr-service` on a multi-worker pool, cross-checked
//! bit-for-bit against the single-threaded `IndexedGraph::run` baseline.
//!
//! Demonstrates the whole subsystem: per-query planning (watch the method
//! mix in the output), the canonical-key LRU result cache soaking up the
//! hot set, admission control, and the aggregate `ServiceStats` (QPS,
//! p50/p99 latency, cache hit rate).
//!
//! ```text
//! cargo run --release --example service
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use kosr::core::{IndexedGraph, Query};
use kosr::service::{KosrService, QueryPlanner, ServiceConfig};
use kosr::workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};

fn main() {
    // A directed road grid with 8 categories of 40 POIs each.
    let mut g = road_grid_directed(28, 28, 42);
    assign_uniform(&mut g, 8, 40, 7);
    println!(
        "world: {} vertices, {} edges, {} categories",
        g.num_vertices(),
        g.num_edges(),
        g.categories().num_categories()
    );

    let t0 = std::time::Instant::now();
    let ig = Arc::new(IndexedGraph::build_default(g));
    println!("index build: {:.2?}\n", t0.elapsed());

    // A 1,200-query stream mixing four shape classes; half the traffic
    // revisits a hot set of 8 popular queries.
    let stream = gen_mixed_traffic(&ig.graph, 1200, &TrafficMix::default(), 9);
    let queries: Vec<Query> = stream
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect();

    // Serve it on 4 workers.
    let service = KosrService::new(
        Arc::clone(&ig),
        ServiceConfig {
            workers: 4,
            queue_capacity: 2048,
            cache_capacity: 1024,
            ..Default::default()
        },
    );
    println!(
        "serving {} queries on {} workers ...",
        queries.len(),
        service.num_workers()
    );
    let responses = service.run_batch(&queries);

    // What did the planner decide?
    let mut methods: HashMap<&'static str, usize> = HashMap::new();
    for q in &queries {
        *methods.entry(service.plan(q).method.name()).or_default() += 1;
    }
    let mut mix: Vec<_> = methods.into_iter().collect();
    mix.sort();
    println!(
        "planner mix: {}",
        mix.iter()
            .map(|(m, n)| format!("{m}×{n}"))
            .collect::<Vec<_>>()
            .join("  ")
    );

    // Cross-check every response against the sequential canonical baseline
    // under the same plans: concurrency and caching must not change a
    // single route.
    let planner = QueryPlanner::default();
    let mut checked = 0usize;
    for (q, resp) in queries.iter().zip(&responses) {
        let resp = resp.as_ref().expect("workload admits and completes");
        let plan = planner.plan(&ig, q);
        let seq = ig.run_canonical(q, plan.method, plan.examined_budget);
        assert_eq!(resp.outcome.costs(), seq.costs(), "costs diverged");
        assert_eq!(
            resp.outcome
                .witnesses
                .iter()
                .map(|w| &w.vertices)
                .collect::<Vec<_>>(),
            seq.witnesses
                .iter()
                .map(|w| &w.vertices)
                .collect::<Vec<_>>(),
            "routes diverged"
        );
        checked += 1;
    }
    println!(
        "verified: {checked}/{} responses bit-identical to sequential runs\n",
        queries.len()
    );

    // The aggregate snapshot now includes per-method latency counters:
    // how often the planner's rule picked each method, and what it cost.
    println!("{}", service.stats());
    let per_method = service.method_stats();
    let executed: u64 = per_method.iter().map(|m| m.completed).sum();
    for m in &per_method {
        println!(
            "per-method: {:>8} observed {} runs at p50 {:?} (planner picked it for {:.0}% of executed queries)",
            m.method.name(),
            m.completed,
            m.latency_p50,
            100.0 * m.completed as f64 / executed as f64,
        );
    }
}
