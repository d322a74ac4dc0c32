//! Concurrent-correctness net for `kosr-service`: many threads hammering
//! one shared service must produce exactly the answers the single-threaded
//! `IndexedGraph::run` baseline produces, and the cache must never change
//! an answer — only its latency.

use std::sync::Arc;
use std::thread;

use kosr_core::{IndexedGraph, Query};
use kosr_service::{KosrService, QueryPlanner, ServiceConfig};
use kosr_workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};

fn build_world() -> (Arc<IndexedGraph>, Vec<Query>) {
    let mut g = road_grid_directed(14, 14, 21);
    assign_uniform(&mut g, 6, 18, 33);
    let ig = Arc::new(IndexedGraph::build_default(g));
    let stream = gen_mixed_traffic(
        &ig.graph,
        200,
        &TrafficMix {
            hot_fraction: 0.4,
            ..Default::default()
        },
        77,
    );
    let queries: Vec<Query> = stream
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect();
    (ig, queries)
}

/// Sequential ground truth with the same per-query plans the service uses.
fn baseline(ig: &IndexedGraph, queries: &[Query]) -> Vec<Vec<u64>> {
    let planner = QueryPlanner::default();
    queries
        .iter()
        .map(|q| {
            let plan = planner.plan(q);
            ig.run(q, plan.method).costs()
        })
        .collect()
}

#[test]
fn n_threads_agree_with_single_threaded_runner() {
    let (ig, queries) = build_world();
    let want = baseline(&ig, &queries);

    let service = Arc::new(KosrService::new(
        Arc::clone(&ig),
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
    ));

    const THREADS: usize = 6;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            thread::spawn(move || {
                // Each submitter walks the workload from a different offset
                // so interleavings differ across threads.
                let n = queries.len();
                let mut got = vec![Vec::new(); n];
                for i in 0..n {
                    let idx = (i + t * 31) % n;
                    let resp = service
                        .submit(queries[idx].clone())
                        .expect("workload fits queue")
                        .wait()
                        .expect("workload completes");
                    got[idx] = resp.outcome.costs();
                }
                got
            })
        })
        .collect();

    for h in handles {
        let got = h.join().expect("submitter thread");
        for (i, costs) in got.into_iter().enumerate() {
            assert_eq!(costs, want[i], "query {i} diverged from sequential run");
        }
    }

    let stats = service.stats();
    assert_eq!(stats.completed, (THREADS * queries.len()) as u64);
    assert_eq!(stats.submitted, stats.completed);
    // 6 threads × a 40%-hot stream over one shared cache: most work is
    // answered from cache, all of it correctly.
    assert!(
        stats.cache_hits > stats.completed / 2,
        "cache hits {} of {}",
        stats.cache_hits,
        stats.completed
    );
    assert!(stats.latency_p50 <= stats.latency_p99);
    assert!(stats.qps > 0.0);
}

#[test]
fn cached_and_uncached_responses_are_bit_identical() {
    let (ig, queries) = build_world();
    let service = KosrService::new(
        Arc::clone(&ig),
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
    );

    // First pass: all cold. Second pass: all hot (same canonical keys).
    let cold = service.run_batch(&queries[..50]);
    let hot = service.run_batch(&queries[..50]);
    let mut hits = 0;
    for (a, b) in cold.iter().zip(&hot) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.outcome.costs(), b.outcome.costs());
        let va: Vec<_> = a.outcome.witnesses.iter().map(|w| &w.vertices).collect();
        let vb: Vec<_> = b.outcome.witnesses.iter().map(|w| &w.vertices).collect();
        assert_eq!(va, vb, "cache must return identical routes");
        hits += b.cached as usize;
    }
    assert_eq!(hits, 50, "second pass must be served from cache");
}

#[test]
fn disabled_cache_still_agrees() {
    let (ig, queries) = build_world();
    let want = baseline(&ig, &queries[..40]);
    let service = KosrService::new(
        Arc::clone(&ig),
        ServiceConfig {
            workers: 4,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let out = service.run_batch(&queries[..40]);
    for (resp, want) in out.iter().zip(&want) {
        let resp = resp.as_ref().unwrap();
        assert!(!resp.cached);
        assert_eq!(&resp.outcome.costs(), want);
    }
    assert_eq!(service.stats().cache_hits, 0);
}
