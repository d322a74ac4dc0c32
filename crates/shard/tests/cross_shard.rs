//! The sharding subsystem's load-bearing guarantee, as a randomized
//! property test: on random worlds with random category skew and 2–8
//! shards, the [`ShardRouter`]'s merged top-k output is **bit-identical**
//! (witness tuples, costs and order) to an unsharded [`KosrService`] run
//! of the same traffic — before and after a stream of live updates
//! published through the [`LiveUpdateBus`]. With the transport rework the
//! router speaks the wire codec even in-process, so every round here also
//! exercises frame encode/decode end to end.

use std::sync::Arc;

use kosr_core::{IndexedGraph, Query};
use kosr_graph::{Graph, PartitionConfig, Partitioner};
use kosr_service::{KosrService, ServiceConfig, Update};
use kosr_shard::{LiveUpdateBus, ShardError, ShardRouter, ShardSet};
use kosr_workloads::{
    assign_uniform, assign_zipf, gen_membership_flips, gen_mixed_traffic, road_grid_directed,
    social_graph, MembershipFlip, TrafficMix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn queries_for(g: &Graph, count: usize, seed: u64) -> Vec<Query> {
    gen_mixed_traffic(
        g,
        count,
        &TrafficMix {
            hot_fraction: 0.3,
            ..Default::default()
        },
        seed,
    )
    .iter()
    .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
    .collect()
}

/// A random world: road grid or social graph, uniform or zipf-skewed
/// categories, deterministic per seed.
fn random_world(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD);
    let mut g = if rng.gen_bool(0.5) {
        let side = rng.gen_range(8..13);
        road_grid_directed(side, side, seed)
    } else {
        social_graph(rng.gen_range(90..160), 4, seed)
    };
    let cats = rng.gen_range(4..9);
    if rng.gen_bool(0.5) {
        let size = rng.gen_range(8..25.min(g.num_vertices()) as u32) as usize;
        assign_uniform(&mut g, cats, size, seed ^ 1);
    } else {
        let total = g.num_vertices() / 2;
        let f = 1.0 + rng.gen_range(0..10) as f64 / 10.0;
        assign_zipf(&mut g, cats, total, f, seed ^ 2);
    }
    g
}

fn assert_bit_identical(
    sharded: &[Result<kosr_shard::ShardedResponse, ShardError>],
    unsharded: &[Result<kosr_service::QueryResponse, kosr_service::ServiceError>],
    label: &str,
) {
    assert_eq!(sharded.len(), unsharded.len());
    for (i, (s, u)) in sharded.iter().zip(unsharded).enumerate() {
        let s = s
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} sharded query {i}: {e}"));
        let u = u
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} unsharded query {i}: {e}"));
        assert_eq!(
            s.outcome.costs(),
            u.outcome.costs(),
            "{label}: costs diverged on query {i}"
        );
        assert_eq!(
            s.outcome.witnesses, u.outcome.witnesses,
            "{label}: witnesses diverged on query {i}"
        );
    }
}

fn flip_to_update(f: &MembershipFlip) -> Update {
    if f.insert {
        Update::InsertMembership {
            vertex: f.vertex,
            category: f.category,
        }
    } else {
        Update::RemoveMembership {
            vertex: f.vertex,
            category: f.category,
        }
    }
}

/// Publishes the same flip stream to the shard fleet (through the bus) and
/// the unsharded service, asserting both agree on what applied.
fn mirror_updates(
    bus: &LiveUpdateBus,
    unsharded: &KosrService,
    flips: &[MembershipFlip],
    label: &str,
) {
    for f in flips {
        let update = flip_to_update(f);
        let bus_receipt = bus.publish(&update).expect("valid update");
        let svc_receipt = unsharded.apply_update(&update).expect("valid update");
        assert_eq!(
            bus_receipt.applied, svc_receipt.applied,
            "{label}: deployments disagree on applying {update:?}"
        );
        assert_eq!(bus_receipt.deferred_replicas, 0, "{label}: healthy fleet");
    }
}

/// One full round: build both deployments over the same world, replay the
/// same traffic through both, compare bit-for-bit; then publish a few
/// membership updates through the bus (mirrored onto the unsharded
/// service) and compare again.
fn round(seed: u64) {
    let g = random_world(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD157);
    let num_shards = rng.gen_range(2..9);

    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards,
        ..Default::default()
    })
    .partition(&ig.graph);

    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 4096,
        cache_capacity: 256,
        ..Default::default()
    };
    let unsharded = KosrService::new(Arc::new(ig.clone()), config.clone());
    let router = ShardRouter::new(ShardSet::build(&ig, partition), config);

    let queries = queries_for(&g, 60, seed ^ 0x7EA);
    assert_bit_identical(
        &router.run_batch(&queries),
        &unsharded.run_batch(&queries),
        &format!("seed {seed}, {num_shards} shards, pre-update"),
    );

    // Live updates: random membership flips, published to the shard fleet
    // through the bus and mirrored 1:1 onto the unsharded service.
    let bus = router.update_bus();
    mirror_updates(
        &bus,
        &unsharded,
        &gen_membership_flips(&g, 6, seed),
        &format!("seed {seed}"),
    );

    // Queries whose categories went empty are rejected identically by both
    // (validation shares the base member counts), so the comparison still
    // holds.
    let queries = queries_for(&g, 40, seed ^ 0xAF7E);
    let sharded = router.run_batch(&queries);
    let plain = unsharded.run_batch(&queries);
    for (i, (s, u)) in sharded.iter().zip(&plain).enumerate() {
        match (s, u) {
            (Ok(s), Ok(u)) => {
                assert_eq!(
                    s.outcome.witnesses, u.outcome.witnesses,
                    "seed {seed} post-update query {i}"
                );
            }
            (Err(se), Err(ue)) => assert_eq!(
                format!("{se}"),
                format!("{ue}"),
                "seed {seed} post-update query {i} rejections differ"
            ),
            (s, u) => panic!("seed {seed} post-update query {i}: sharded {s:?} vs unsharded {u:?}"),
        }
    }
}

#[test]
fn sharded_topk_is_bit_identical_to_unsharded_across_random_worlds() {
    // The rule of `kosr_testkit::cases(8)`, spelled out: kosr-testkit's
    // suites depend on this crate, so it takes no dependency back.
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|c: u64| c.max(2))
        .unwrap_or(8);
    for seed in 0..cases {
        round(seed);
    }
}

/// Sharding a world into one shard must be exactly the unsharded service
/// with extra routing — the degenerate base case of the decomposition.
#[test]
fn single_shard_router_degenerates_to_plain_service() {
    let g = random_world(99);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 1,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = ServiceConfig {
        workers: 2,
        ..Default::default()
    };
    let unsharded = KosrService::new(Arc::new(ig.clone()), config.clone());
    let router = ShardRouter::new(ShardSet::build(&ig, partition), config);
    let queries = queries_for(&g, 40, 7);
    assert_bit_identical(
        &router.run_batch(&queries),
        &unsharded.run_batch(&queries),
        "single shard",
    );
    for q in &queries {
        assert_eq!(router.plan_fanout(q).unwrap().len(), 1);
    }
}

/// Replication must be invisible: a router with 3 replicas per shard gives
/// the same bits as one replica per shard and as the unsharded service.
#[test]
fn replicated_router_is_bit_identical_to_unsharded() {
    let g = random_world(7);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 3,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    let unsharded = KosrService::new(Arc::new(ig.clone()), config.clone());
    let router =
        ShardRouter::with_replicas(ShardSet::build(&ig, partition), config, 3, |_, _, t| {
            Arc::new(t)
        });
    let queries = queries_for(&g, 40, 21);
    assert_bit_identical(
        &router.run_batch(&queries),
        &unsharded.run_batch(&queries),
        "3 replicas",
    );
    // Updates through the bus reach all 3 replicas of every shard.
    let bus = router.update_bus();
    mirror_updates(
        &bus,
        &unsharded,
        &gen_membership_flips(&g, 5, 77),
        "3 replicas",
    );
    let queries = queries_for(&g, 25, 23);
    let sharded = router.run_batch(&queries);
    let plain = unsharded.run_batch(&queries);
    for (s, u) in sharded.iter().zip(&plain) {
        match (s, u) {
            (Ok(s), Ok(u)) => assert_eq!(s.outcome.witnesses, u.outcome.witnesses),
            (Err(se), Err(ue)) => assert_eq!(format!("{se}"), format!("{ue}")),
            (s, u) => panic!("divergence: sharded {s:?} vs unsharded {u:?}"),
        }
    }
}
