//! The paper-semantics counters, pinned. `IndexedGraph::run` is the paper's
//! top-k search (stop at the k-th route, `dis(·, t)` as StarKOSR's
//! estimate); §V's figures are read off its counters. This test fixes the
//! exact `examined_routes`, `examined_per_level`, `nn_queries` and
//! `dominated_routes` of KPNE, PruningKOSR and StarKOSR over one mixed
//! traffic batch (the `query_hot_path` bench's 1x world), so a change to
//! the served search cannot move the reproduction's numbers unnoticed.

use kosr::core::{IndexedGraph, Method, Query, QueryStats};
use kosr::workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};

/// Per-method totals over the batch, plus a digest of every query's own
/// counters so that offsetting changes between queries still show.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    examined: u64,
    per_level: Vec<u64>,
    nn: u64,
    dominated: u64,
    digest: u64,
}

/// FNV-1a over the per-query counters, in batch order.
fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= byte as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn pin(all: &[QueryStats]) -> Pinned {
    let mut p = Pinned {
        examined: 0,
        per_level: Vec::new(),
        nn: 0,
        dominated: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for s in all {
        p.examined += s.examined_routes;
        p.nn += s.nn_queries;
        p.dominated += s.dominated_routes;
        if p.per_level.len() < s.examined_per_level.len() {
            p.per_level.resize(s.examined_per_level.len(), 0);
        }
        for (acc, &n) in p.per_level.iter_mut().zip(&s.examined_per_level) {
            *acc += n;
        }
        for word in [s.examined_routes, s.nn_queries, s.dominated_routes]
            .into_iter()
            .chain(s.examined_per_level.iter().copied())
        {
            fold(&mut p.digest, word);
        }
    }
    p
}

#[test]
fn paper_counters_are_pinned() {
    let mut g = road_grid_directed(16, 16, 13);
    assign_uniform(&mut g, 6, 20, 5);
    let ig = IndexedGraph::build_default(g);
    let queries: Vec<Query> = gen_mixed_traffic(&ig.graph, 48, &TrafficMix::default(), 29)
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect();

    let measure = |m: Method| {
        let stats: Vec<QueryStats> = queries.iter().map(|q| ig.run(q, m).stats).collect();
        pin(&stats)
    };
    let want = [
        (
            Method::Kpne,
            Pinned {
                examined: 10182,
                per_level: vec![48, 640, 2662, 3898, 2814, 120],
                nn: 5861,
                dominated: 0,
                digest: 6707597241165425610,
            },
        ),
        (
            Method::Pk,
            Pinned {
                examined: 6187,
                per_level: vec![48, 640, 2765, 1733, 881, 120],
                nn: 5874,
                dominated: 4152,
                digest: 4443708270209914232,
            },
        ),
        (
            Method::Sk,
            Pinned {
                examined: 1017,
                per_level: vec![48, 164, 317, 233, 135, 120],
                nn: 3687,
                dominated: 192,
                digest: 10315901570886814129,
            },
        ),
    ];
    for (m, pinned) in want {
        assert_eq!(measure(m), pinned, "{}", m.name());
    }
}
