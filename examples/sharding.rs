//! The sharded serving layer end to end: a 28×28 road world with
//! spatially clustered POI categories is partitioned into 4 region
//! shards, a `ShardRouter` fans a 1,000-query multi-region stream out
//! over the per-shard `KosrService` replicas, and every merged answer is
//! cross-checked bit-for-bit against an unsharded service. A live-update
//! act closes the most popular restaurant mid-stream through the
//! `LiveUpdateBus` and shows every replica converging.
//!
//! ```text
//! cargo run --release --example sharding
//! ```

use std::sync::Arc;

use kosr::core::{IndexedGraph, Query};
use kosr::service::{KosrService, ServiceConfig, Update};
use kosr::shard::{PartitionConfig, Partitioner, ShardRouter, ShardSet};
use kosr::workloads::{assign_clustered, gen_region_traffic, road_grid_directed, RegionTraffic};

fn main() {
    // A directed road grid with 8 spatially clustered categories of 40
    // POIs each — the membership shape region sharding is built for.
    let mut g = road_grid_directed(28, 28, 42);
    assign_clustered(&mut g, 8, 40, 0.05, 7);
    println!(
        "world: {} vertices, {} edges, {} clustered categories",
        g.num_vertices(),
        g.num_edges(),
        g.categories().num_categories()
    );

    let t0 = std::time::Instant::now();
    let ig = IndexedGraph::build_default(g);
    println!("index build: {:.2?}", t0.elapsed());

    // Partition into 4 membership-balanced regions.
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 4,
        ..Default::default()
    })
    .partition(&ig.graph);
    let pstats = partition.stats(&ig.graph);
    println!(
        "partition: sizes {:?}, memberships {:?}, {} cut edges, {} boundary vertices\n",
        pstats.shard_sizes, pstats.shard_memberships, pstats.cut_edges, pstats.boundary_vertices
    );

    // One KosrService replica per shard + an unsharded reference deployment.
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 2048,
        cache_capacity: 1024,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let set = ShardSet::build(&ig, partition.clone());
    let router = ShardRouter::new(set, config.clone());
    println!(
        "shard build: {:.2?} for {} replicas",
        t0.elapsed(),
        router.num_shards()
    );
    let reference = KosrService::new(Arc::new(ig.clone()), config);

    // A 1,000-query multi-region stream: zipf-hot regions, 70% local trips.
    let stream = gen_region_traffic(&ig.graph, &partition, 1000, &RegionTraffic::default(), 9);
    let queries: Vec<Query> = stream
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect();
    let fanout: usize = queries
        .iter()
        .map(|q| router.plan_fanout(q).unwrap().len())
        .sum();
    println!(
        "serving {} queries, mean fan-out {:.2} of {} shards ...",
        queries.len(),
        fanout as f64 / queries.len() as f64,
        router.num_shards()
    );

    let sharded = router.run_batch(&queries);
    let unsharded = reference.run_batch(&queries);
    let mut checked = 0;
    for (s, u) in sharded.iter().zip(&unsharded) {
        let (s, u) = (s.as_ref().expect("sharded"), u.as_ref().expect("unsharded"));
        assert_eq!(
            s.outcome.witnesses, u.outcome.witnesses,
            "sharding changed an answer"
        );
        checked += 1;
    }
    println!(
        "verified: {checked}/{} merged answers bit-identical to the unsharded service\n",
        queries.len()
    );

    for (j, stats) in router.per_shard_stats().iter().enumerate() {
        println!(
            "shard {j}: {} queries, {:.0}% cache hits, p99 {:?}, busy {:?}",
            stats.completed,
            100.0 * stats.cache_hit_rate(),
            stats.latency_p99,
            stats.busy
        );
    }

    // Live updates: close the restaurant used by the most popular query's
    // best route, publish through the bus, verify convergence everywhere.
    let hot = &queries[0];
    let best = &sharded[0].as_ref().unwrap().outcome.witnesses[0];
    let (stop, category) = (best.vertices[1], hot.categories[0]);
    let update = Update::RemoveMembership {
        vertex: stop,
        category,
    };
    let bus = router.update_bus();
    let receipt = bus.publish(&update).expect("valid update");
    reference.apply_update(&update).expect("valid update");
    println!(
        "\nupdate: closed {stop:?} in {:?} — owner shard {}, {} replicas touched, {} cached answers invalidated",
        ig.graph.categories().name(category),
        receipt.owner_shard.unwrap(),
        receipt.replicas_touched,
        receipt.invalidated
    );

    let after_sharded = router.run_batch(&queries[..200]);
    let after_unsharded = reference.run_batch(&queries[..200]);
    let mut changed = 0;
    for (i, (s, u)) in after_sharded.iter().zip(&after_unsharded).enumerate() {
        let (s, u) = (s.as_ref().expect("sharded"), u.as_ref().expect("unsharded"));
        assert_eq!(
            s.outcome.witnesses, u.outcome.witnesses,
            "post-update divergence"
        );
        if let Ok(before) = &sharded[i] {
            changed += (before.outcome.witnesses != s.outcome.witnesses) as usize;
        }
    }
    println!(
        "post-update: 200/200 re-verified bit-identical; {changed} answers changed by the closure"
    );

    // Serving and publishing never build the category-pair lower-bound
    // tables; only the library searches that take bounds do, on demand.
    for j in 0..router.num_shards() {
        for replica in router.local_replica_services(j) {
            assert_eq!(
                replica.indexed_graph().bounds.size_bytes(),
                0,
                "shard {j} built its bound tables"
            );
        }
    }
    assert_eq!(reference.indexed_graph().bounds.size_bytes(), 0);
}
