//! No serving or publish path builds the category-pair lower-bound
//! tables. They are a library feature (`IndexedGraph::bound_tables`),
//! built on demand; a fleet that answers queries, sweeps standing
//! subscriptions and applies live updates never asks for them.

use std::sync::Arc;

use kosr_core::figure1::figure1;
use kosr_core::{IndexedGraph, Query};
use kosr_graph::{PartitionConfig, Partitioner};
use kosr_service::{ServiceConfig, Update};
use kosr_shard::{ShardRouter, ShardSet};
use kosr_subscribe::{HubConfig, SubscriptionHub};

#[test]
fn serving_and_publishing_never_build_the_bound_tables() {
    let fx = figure1();
    let ig = IndexedGraph::build_default(fx.graph.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    let router = Arc::new(ShardRouter::with_replicas(
        ShardSet::build(&ig, partition),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        2,
        |_, _, t| Arc::new(t),
    ));
    let hub = Arc::new(SubscriptionHub::new(&router, HubConfig::default()));
    router.register_update_observer(Arc::clone(&hub) as _);

    let queries = [
        Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3),
        Query::new(fx.s, fx.t, vec![fx.re, fx.ci], 2),
        Query::new(fx.s, fx.t, vec![fx.ci], 2),
        Query::new(fx.s, fx.t, vec![], 1),
    ];
    for q in &queries {
        hub.subscribe(q.clone()).unwrap();
    }
    let serve = || {
        for q in &queries {
            router.submit(q.clone()).unwrap().wait().unwrap();
        }
    };
    serve();

    let restaurant = fx.graph.categories().vertices_of(fx.re)[0];
    let mall = fx.graph.categories().vertices_of(fx.ma)[0];
    let bus = router.update_bus();
    for update in [
        Update::RemoveMembership {
            vertex: restaurant,
            category: fx.re,
        },
        Update::InsertMembership {
            vertex: restaurant,
            category: fx.re,
        },
        Update::InsertMembership {
            vertex: fx.s,
            category: fx.ci,
        },
        Update::InsertEdge {
            from: fx.s,
            to: mall,
            weight: 1,
        },
    ] {
        let receipt = bus.publish(&update).unwrap();
        assert!(receipt.applied, "{update:?}");
        assert_eq!(receipt.deferred_replicas, 0, "{update:?}");
        serve();
    }
    let stats = hub.stats();
    assert!(stats.wakeups_membership > 0 && stats.wakeups_edge > 0);

    for j in 0..router.num_shards() {
        for (r, replica) in router.local_replica_services(j).iter().enumerate() {
            assert_eq!(
                replica.indexed_graph().bounds.size_bytes(),
                0,
                "shard {j} replica {r} built its bound tables"
            );
        }
    }
}
