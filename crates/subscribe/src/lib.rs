//! # kosr-subscribe
//!
//! Continuous KOSR queries: standing top-k subscriptions that receive
//! **deltas** only when a live update actually changes their answer — the
//! ROADMAP's continuous-queries item, in the standing-query shape
//! keyword-aware route services need for long-lived user intents.
//!
//! A fleet that answers top-k optimal sequenced routes fast and ships
//! live updates still wastes its dominant cycles *re-answering unchanged
//! queries* once clients care about freshness. This crate closes that
//! loop in four stages:
//!
//! 1. **Registry** ([`SubscriptionTable`]) — standing queries keyed by
//!    [`SessionId`], each with its last delivered top-k, its delivery
//!    epoch, and a precomputed [`RelevanceSignature`] (category set +
//!    owning-shard set + source region).
//! 2. **Invalidation filter** ([`classify`]) — on each bus publish, the
//!    update's footprint is intersected against signatures via inverted
//!    indexes, delivered-witness scans, and, for edge inserts, a label
//!    distance bound through the new edge. A sushi-shop insert never
//!    wakes a coffee-route subscriber, and every skip is a proven
//!    fast path (see the [`filter`] module docs for the soundness
//!    arguments) counted on `kosr_sub_skipped_total`.
//! 3. **Delta engine** ([`SubscriptionHub`]) — woken subscriptions
//!    recompute through the normal epoch-guarded `ShardRouter` path
//!    (witness caches reused) and the new top-k is diffed against the
//!    last delivered one into a compact [`Delta`]: changed ranks, new
//!    length, new epoch. An empty diff pushes nothing.
//! 4. **Edge integration** — `kosr-gateway` exposes `POST /v1/subscribe`,
//!    `GET /v1/subscribe/{id}/poll` (long-poll drain with a bounded
//!    per-session queue; overflow forces a typed resync) and
//!    `DELETE /v1/subscribe/{id}`, and collects the hub's metrics.
//!
//! Replaying a subscription's deltas in epoch order over its initial
//! payload is **bit-identical** to a fresh canonical re-query at each
//! epoch — the subscribe property suite in `kosr-testkit` proves it on
//! random worlds and update schedules, under fault injection and
//! kill/recover cycles.
//!
//! ```
//! use std::sync::Arc;
//! use kosr_core::{figure1, IndexedGraph, Query};
//! use kosr_graph::{PartitionConfig, Partitioner};
//! use kosr_service::{ServiceConfig, Update};
//! use kosr_shard::{ShardRouter, ShardSet};
//! use kosr_subscribe::{HubConfig, PollResponse, SubscriptionHub};
//! use std::time::Duration;
//!
//! let fx = figure1::figure1();
//! let ig = IndexedGraph::build_default(fx.graph.clone());
//! let partition = Partitioner::new(PartitionConfig { num_shards: 2, ..Default::default() })
//!     .partition(&ig.graph);
//! let router = Arc::new(ShardRouter::new(
//!     ShardSet::build(&ig, partition),
//!     ServiceConfig { workers: 1, ..Default::default() },
//! ));
//! let hub = Arc::new(SubscriptionHub::new(&router, HubConfig::default()));
//! router.register_update_observer(Arc::clone(&hub) as _);
//!
//! // Subscribe: the initial payload is the full canonical top-k.
//! let reply = hub
//!     .subscribe(Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3))
//!     .unwrap();
//! assert_eq!(reply.routes.iter().map(|w| w.cost).collect::<Vec<_>>(), vec![20, 21, 22]);
//!
//! // Close the best route's restaurant: the publish wakes the
//! // subscription and queues exactly one delta.
//! let gone = reply.routes[0].vertices[2];
//! router.update_bus()
//!     .publish(&Update::RemoveMembership { vertex: gone, category: fx.re })
//!     .unwrap();
//! let mut routes = reply.routes.clone();
//! match hub.poll(reply.id, Duration::ZERO) {
//!     PollResponse::Deltas { deltas, .. } => {
//!         assert_eq!(deltas.len(), 1);
//!         for d in &deltas { d.apply(&mut routes); }
//!     }
//!     other => panic!("expected deltas, got {other:?}"),
//! }
//! assert_ne!(routes[0].vertices[2], gone, "replayed top-k dropped the closed stop");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod filter;
pub mod hub;
pub mod registry;

pub use delta::Delta;
pub use filter::{classify, FilterDecision, SkipCause, WakeCause};
pub use hub::{HubConfig, HubStats, PollResponse, SubscribeReply, SubscriptionHub};
pub use registry::{RelevanceSignature, SessionId, Subscription, SubscriptionTable};

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_core::{IndexedGraph, Method, Query};
    use kosr_graph::{PartitionConfig, Partitioner};
    use kosr_service::{ServiceConfig, ServiceError, Update};
    use kosr_shard::{ShardError, ShardRouter, ShardSet};
    use std::sync::Arc;
    use std::time::Duration;

    fn fleet() -> (
        Arc<ShardRouter>,
        Arc<SubscriptionHub>,
        kosr_core::figure1::Figure1,
    ) {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 3,
            ..Default::default()
        })
        .partition(&ig.graph);
        let router = Arc::new(ShardRouter::new(
            ShardSet::build(&ig, partition),
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        ));
        let hub = Arc::new(SubscriptionHub::new(&router, HubConfig::default()));
        router.register_update_observer(Arc::clone(&hub) as _);
        (router, hub, fx)
    }

    fn drain(hub: &SubscriptionHub, id: SessionId) -> Vec<Delta> {
        match hub.poll(id, Duration::ZERO) {
            PollResponse::Deltas { deltas, .. } => deltas,
            other => panic!("expected deltas, got {other:?}"),
        }
    }

    #[test]
    fn delta_replay_tracks_relevant_updates() {
        let (router, hub, fx) = fleet();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let reply = hub.subscribe(q.clone()).unwrap();
        assert_eq!(reply.epoch, 0);
        let mut client = reply.routes.clone();

        let bus = router.update_bus();
        let gone = client[0].vertices[2];
        let receipt = bus
            .publish(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert_eq!(receipt.epoch, 1);

        let deltas = drain(&hub, reply.id);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].epoch, 1);
        for d in &deltas {
            d.apply(&mut client);
        }
        // Bit-identical to a fresh canonical run of the updated world.
        let mut g2 = fx.graph.clone();
        g2.categories_mut().remove(gone, fx.re);
        let fresh = IndexedGraph::build_default(g2);
        assert_eq!(
            client,
            fresh.run_canonical(&q, Method::Sk, u64::MAX).witnesses
        );

        // Reinstate it: the replayed state returns to the original.
        bus.publish(&Update::InsertMembership {
            vertex: gone,
            category: fx.re,
        })
        .unwrap();
        for d in drain(&hub, reply.id) {
            d.apply(&mut client);
        }
        assert_eq!(client, reply.routes);
        assert_eq!(hub.stats().deltas_pushed, 2);
    }

    #[test]
    fn disjoint_category_traffic_is_skip_counted_with_zero_recompute() {
        let (router, hub, fx) = fleet();
        let reply = hub
            .subscribe(Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 2))
            .unwrap();
        let bus = router.update_bus();
        // Cinema traffic: entirely outside the subscription's categories.
        let cinemas = fx.graph.categories().vertices_of(fx.ci).to_vec();
        let mut publishes = 0u64;
        for &v in cinemas.iter().take(3) {
            bus.publish(&Update::RemoveMembership {
                vertex: v,
                category: fx.ci,
            })
            .unwrap();
            bus.publish(&Update::InsertMembership {
                vertex: v,
                category: fx.ci,
            })
            .unwrap();
            publishes += 2;
        }
        let s = hub.stats();
        assert_eq!(s.skipped_category, publishes, "every publish skip-counted");
        assert_eq!(s.wakeups_total(), 0);
        assert_eq!(s.recomputes, 0, "zero engine work on disjoint traffic");
        assert!(drain(&hub, reply.id).is_empty(), "nothing queued");
    }

    #[test]
    fn queue_overflow_forces_typed_resync_with_fresh_state() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 2,
            ..Default::default()
        })
        .partition(&ig.graph);
        let router = Arc::new(ShardRouter::new(
            ShardSet::build(&ig, partition),
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        ));
        let hub = Arc::new(SubscriptionHub::new(
            &router,
            HubConfig { queue_capacity: 1 },
        ));
        router.register_update_observer(Arc::clone(&hub) as _);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let reply = hub.subscribe(q.clone()).unwrap();

        // Two answer-changing publishes without a drain in between: the
        // 1-deep queue overflows on the second, discarding both deltas.
        let bus = router.update_bus();
        let gone = reply.routes[0].vertices[2];
        bus.publish(&Update::RemoveMembership {
            vertex: gone,
            category: fx.re,
        })
        .unwrap();
        bus.publish(&Update::InsertMembership {
            vertex: gone,
            category: fx.re,
        })
        .unwrap();
        match hub.poll(reply.id, Duration::ZERO) {
            PollResponse::Resync { routes, epoch, .. } => {
                // Remove-then-reinsert is a net no-op: the resync's full
                // top-k matches the initial payload, at the later epoch.
                assert_eq!(routes, reply.routes);
                assert_eq!(epoch, 2);
            }
            other => panic!("expected resync after overflow, got {other:?}"),
        }
        let s = hub.stats();
        assert_eq!(s.overflows, 1);
        assert_eq!(s.resyncs_served, 1);
        // The session is healthy again: the next poll is an empty drain.
        assert!(matches!(
            hub.poll(reply.id, Duration::ZERO),
            PollResponse::Deltas { deltas, .. } if deltas.is_empty()
        ));
    }

    #[test]
    fn emptied_category_is_a_typed_rejection_not_a_failure() {
        let (router, hub, fx) = fleet();
        let reply = hub
            .subscribe(Query::new(fx.s, fx.t, vec![fx.ci], 1))
            .unwrap();
        let bus = router.update_bus();
        let cinemas = fx.graph.categories().vertices_of(fx.ci).to_vec();
        for &v in &cinemas {
            bus.publish(&Update::RemoveMembership {
                vertex: v,
                category: fx.ci,
            })
            .unwrap();
        }
        let s = hub.stats();
        assert_eq!(s.recompute_rejections, 1, "the emptying publish");
        assert_eq!(s.recompute_failures, 0);
        // Polls report the rejection an unsharded service gives…
        match hub.poll(reply.id, Duration::ZERO) {
            PollResponse::Failed(ShardError::Service(ServiceError::InvalidQuery(_))) => {}
            other => panic!("expected the typed rejection, got {other:?}"),
        }
        // …until the category has a member again.
        bus.publish(&Update::InsertMembership {
            vertex: cinemas[0],
            category: fx.ci,
        })
        .unwrap();
        assert!(matches!(
            hub.poll(reply.id, Duration::ZERO),
            PollResponse::Resync { routes, .. } if routes.len() == 1
        ));
    }

    #[test]
    fn unsubscribe_ends_the_session() {
        let (_router, hub, fx) = fleet();
        let reply = hub
            .subscribe(Query::new(fx.s, fx.t, vec![fx.ma], 1))
            .unwrap();
        assert_eq!(hub.stats().active, 1);
        assert!(hub.unsubscribe(reply.id));
        assert!(!hub.unsubscribe(reply.id));
        assert_eq!(hub.stats().active, 0);
        assert!(matches!(
            hub.poll(reply.id, Duration::ZERO),
            PollResponse::UnknownSession
        ));
    }
}
