//! Property suite for the inter-category lower-bound tables and every
//! consumer of them:
//!
//! * the tables are **exact** (not merely admissible) minima over member
//!   pairs on arbitrary random worlds — including after seeded live-update
//!   schedules (membership churn and edge inserts);
//! * bound-pruned searches answer **bit-identically** to the unpruned
//!   canonical oracle for all six methods, on random worlds *and* on the
//!   mixed-traffic grid that once exposed a StarKOSR sibling-chain
//!   ordering bug (kept here as a permanent regression);
//! * a sharded fleet whose router skips chain-infeasible shards still
//!   answers bit-identically to an unsharded run.

use std::sync::Arc;

use kosr_core::{IndexedGraph, Method, Query};
use kosr_graph::{CategoryId, GraphBuilder, Partition, VertexId, Weight};
use kosr_service::ServiceConfig;
use kosr_shard::{ShardRouter, ShardSet};
use kosr_workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};
use proptest::prelude::*;

const CATS: u32 = 3;

/// A world from proptest-driven raw material (see the flat-arena fuzz
/// suite): self-loops and duplicate memberships fall out naturally.
fn world(n: usize, edges: &[(u32, u32, u64)], members: &[(u32, u32)]) -> IndexedGraph {
    let mut b = GraphBuilder::new(n);
    for &(a, t, w) in edges {
        let (a, t) = (a % n as u32, t % n as u32);
        if a != t {
            b.add_edge(VertexId(a), VertexId(t), w % 50 + 1);
        }
    }
    b.categories_mut().ensure_categories(CATS as usize);
    for &(v, c) in members {
        b.categories_mut()
            .insert(VertexId(v % n as u32), CategoryId(c % CATS));
    }
    IndexedGraph::build_default(b.build())
}

/// Brute-force `min { dis(u, v) : u ∈ ci, v ∈ cj }` straight off the
/// labels — the definition the table must reproduce bit for bit.
fn brute_pair(ig: &IndexedGraph, ci: CategoryId, cj: CategoryId) -> Weight {
    let mut best = kosr_graph::INFINITY;
    for &u in ig.graph.categories().vertices_of(ci) {
        for &v in ig.graph.categories().vertices_of(cj) {
            best = best.min(ig.labels.distance(u, v));
        }
    }
    best
}

fn brute_to(ig: &IndexedGraph, v: VertexId, c: CategoryId) -> Weight {
    ig.graph
        .categories()
        .vertices_of(c)
        .iter()
        .map(|&m| ig.labels.distance(v, m))
        .min()
        .unwrap_or(kosr_graph::INFINITY)
}

fn brute_from(ig: &IndexedGraph, c: CategoryId, v: VertexId) -> Weight {
    ig.graph
        .categories()
        .vertices_of(c)
        .iter()
        .map(|&m| ig.labels.distance(m, v))
        .min()
        .unwrap_or(kosr_graph::INFINITY)
}

fn assert_tables_exact(ig: &IndexedGraph) {
    for i in 0..CATS {
        for j in 0..CATS {
            let (ci, cj) = (CategoryId(i), CategoryId(j));
            assert_eq!(ig.bound_tables().pair(ci, cj), brute_pair(ig, ci, cj));
        }
        let c = CategoryId(i);
        for v in ig.graph.vertices() {
            assert_eq!(
                ig.bound_tables().to_category(&ig.labels, v, c),
                brute_to(ig, v, c)
            );
            assert_eq!(
                ig.bound_tables().from_category(&ig.labels, c, v),
                brute_from(ig, c, v)
            );
        }
    }
}

/// All six methods, pruned vs. unpruned, must agree witness for witness.
fn assert_pruned_matches(ig: &IndexedGraph, q: &Query) {
    let sb = ig.seq_bounds(q);
    for m in Method::ALL {
        let base = ig.run_canonical(q, m, u64::MAX);
        let opt = ig.run_canonical_opt(q, m, u64::MAX, Some(&sb));
        assert_eq!(base.witnesses, opt.witnesses, "method {m:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The offline build produces exact tables on arbitrary worlds.
    #[test]
    fn tables_are_exact_on_random_worlds(
        n in 2usize..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12, 1u64..50), 1..36),
        members in proptest::collection::vec((0u32..12, 0u32..CATS), 0..18),
    ) {
        let ig = world(n, &edges, &members);
        assert_tables_exact(&ig);
    }

    /// Incremental maintenance keeps the tables exact through membership
    /// churn and edge inserts — never just admissible, always the true
    /// minima of the post-update world.
    #[test]
    fn tables_stay_exact_under_update_schedules(
        n in 3usize..10,
        edges in proptest::collection::vec((0u32..10, 0u32..10, 1u64..40), 2..24),
        members in proptest::collection::vec((0u32..10, 0u32..CATS), 1..12),
        ops in proptest::collection::vec((0u8..3, 0u32..10, 0u32..CATS, 1u64..20), 1..10),
    ) {
        let mut ig = world(n, &edges, &members);
        for &(kind, v, c, w) in &ops {
            let v = VertexId(v % n as u32);
            let c = CategoryId(c % CATS);
            match kind {
                0 => { ig.insert_membership(v, c); }
                1 => { ig.remove_membership(v, c); }
                _ => {
                    let u = VertexId((v.0 + 1) % n as u32);
                    let _ = ig.insert_edge(v, u, w);
                }
            }
            assert_tables_exact(&ig);
        }
    }

    /// Bound-pruned searches are bit-identical to the unpruned canonical
    /// oracle on random worlds, for every method — including infeasible
    /// sequences (both sides must return empty).
    #[test]
    fn pruned_searches_match_the_unpruned_oracle(
        n in 3usize..10,
        edges in proptest::collection::vec((0u32..10, 0u32..10, 1u64..40), 2..24),
        members in proptest::collection::vec((0u32..10, 0u32..CATS), 1..12),
        s in 0u32..10,
        t in 0u32..10,
        cats in proptest::collection::vec(0u32..CATS, 0..4),
        k in 1usize..5,
    ) {
        let ig = world(n, &edges, &members);
        let cats: Vec<CategoryId> = cats.into_iter().map(CategoryId).collect();
        let q = Query::new(VertexId(s % n as u32), VertexId(t % n as u32), cats, k);
        assert_pruned_matches(&ig, &q);
    }
}

/// The permanent regression for the StarKOSR sibling-chain bug: on this
/// mixed-traffic grid a `max(est, cost + rem)` queue key silently dropped
/// a 645-cost route (FindNEN's lazy chain is ordered by estimate, and the
/// combined key is not monotone along it). Small worlds never caught it.
#[test]
fn mixed_traffic_grid_is_bit_identical_under_pruning() {
    let mut g = road_grid_directed(14, 14, 21);
    assign_uniform(&mut g, 6, 18, 33);
    let ig = IndexedGraph::build_default(g);
    let stream = gen_mixed_traffic(
        &ig.graph,
        200,
        &TrafficMix {
            hot_fraction: 0.4,
            ..Default::default()
        },
        77,
    );
    for s in &stream {
        let q = Query::new(s.source, s.target, s.categories.clone(), s.k);
        let sb = ig.seq_bounds(&q);
        for m in Method::ALL {
            let base = ig.run_canonical(&q, m, u64::MAX);
            let opt = ig.run_canonical_opt(&q, m, u64::MAX, Some(&sb));
            assert_eq!(base.witnesses, opt.witnesses, "{m:?} diverged on {q:?}");
        }
    }
}

/// Two directed components bridged one way (`A → B`): queries ending in A
/// give B's shards chain-infeasible first stops, whose empty streams the
/// fleet must merge into exactly the single-shard answer.
#[test]
fn sharded_fleet_with_bound_skips_matches_unsharded() {
    let n = 12u32;
    let mut b = GraphBuilder::new(n as usize);
    for i in 0..5 {
        b.add_edge(VertexId(i), VertexId(i + 1), (i as u64 % 3) + 2);
        b.add_edge(VertexId(i + 1), VertexId(i), (i as u64 % 2) + 3);
        b.add_edge(VertexId(6 + i), VertexId(7 + i), (i as u64 % 4) + 1);
        b.add_edge(VertexId(7 + i), VertexId(6 + i), (i as u64 % 3) + 2);
    }
    b.add_edge(VertexId(5), VertexId(6), 4); // the one-way bridge
    b.categories_mut().ensure_categories(3);
    for (v, c) in [(2, 0), (8, 0), (4, 1), (10, 1), (1, 2), (7, 2)] {
        b.categories_mut().insert(VertexId(v), CategoryId(c));
    }
    let ig = IndexedGraph::build_default(b.build());

    let config = || ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    let split = Partition::from_owner((0..n).map(|v| u32::from(v >= 6)).collect(), 2);
    let sharded =
        ShardRouter::with_replicas(ShardSet::build(&ig, split), config(), 1, |_, _, t| {
            Arc::new(t)
        });
    let single = ShardRouter::with_replicas(
        ShardSet::build(&ig, Partition::from_owner(vec![0; n as usize], 1)),
        config(),
        1,
        |_, _, t| Arc::new(t),
    );

    let queries = [
        // First stops {2, 8}: 8 lives past the one-way bridge and cannot
        // return to t=5 — shard 1 answers empty, shard 0 answers.
        Query::new(VertexId(0), VertexId(5), vec![CategoryId(0)], 3),
        // Everything feasible: both shards answer.
        Query::new(
            VertexId(0),
            VertexId(11),
            vec![CategoryId(0), CategoryId(1)],
            4,
        ),
        // Globally infeasible: every planned shard answers empty.
        Query::new(VertexId(7), VertexId(5), vec![CategoryId(1)], 2),
    ];
    for q in &queries {
        let a = sharded.submit(q.clone()).unwrap().wait().unwrap();
        let b = single.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(
            a.outcome.witnesses, b.outcome.witnesses,
            "sharded and unsharded diverged on {q:?}"
        );
    }
}
