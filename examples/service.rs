//! The serving layer end to end: a mixed 1,200-query traffic stream pushed
//! through `kosr-service` on a multi-worker pool, cross-checked
//! bit-for-bit against the single-threaded `IndexedGraph::run` baseline.
//!
//! Demonstrates the whole subsystem: per-query planning (StarKOSR serves
//! every query; the example fails if another method executes), the
//! canonical-key LRU result cache soaking up the hot set, admission
//! control, and the aggregate `ServiceStats` (QPS, p50/p99 latency, cache
//! hit rate).
//!
//! ```text
//! cargo run --release --example service
//! ```

use std::sync::Arc;

use kosr::core::{IndexedGraph, Method, Query};
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

    // Cross-check every response against the sequential canonical baseline
    // under the same plans: concurrency and caching must not change a
    // single route.
    let planner = QueryPlanner::default();
    let mut checked = 0usize;
    for (q, resp) in queries.iter().zip(&responses) {
        let resp = resp.as_ref().expect("workload admits and completes");
        let plan = planner.plan(q);
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

    // The aggregate snapshot includes per-method latency counters. The
    // planner serves every query with StarKOSR: any other method among the
    // executed completions means a second served path came back.
    println!("{}", service.stats());
    let per_method = service.method_stats();
    assert!(
        per_method.iter().any(|m| m.completed > 0),
        "the cold misses executed"
    );
    for m in &per_method {
        assert_eq!(
            m.method,
            Method::Sk,
            "{} executed {} queries; StarKOSR serves every query",
            m.method.name(),
            m.completed
        );
    }
}
