//! The subscribe PR's load-bearing guarantee: a standing subscription's
//! **delta replay is bit-identical to a fresh canonical re-query at every
//! epoch**. On random worlds with random update schedules, each publish is
//! mirrored onto an unsharded oracle; every subscription then drains its
//! queued deltas, applies them over its last known top-k, and the replayed
//! state must equal the oracle's fresh answer — witness tuples and costs,
//! not just shapes. The same identity is re-proven under seeded
//! drop/delay/duplicate transport faults and a kill/recover cycle, where
//! failed recomputes degrade to typed resyncs instead of wrong deltas.
//!
//! The suite also proves the invalidation filter's *negative* space: on
//! traffic entirely outside every subscription's category set, the hub
//! performs **zero recomputes and zero wakes** — every publish is
//! skip-counted through the inverted index without visiting the engine.

use std::sync::Arc;
use std::time::Duration;

use kosr_core::{GraphUpdateError, IndexedGraph, Query, Witness};
use kosr_graph::{CategoryId, Graph, PartitionConfig, Partitioner, VertexId};
use kosr_service::{KosrService, ServiceConfig, Update, UpdateError};
use kosr_shard::{FleetSupervisor, ShardError, ShardRouter, ShardSet, SupervisorConfig};
use kosr_subscribe::{HubConfig, PollResponse, SessionId, SubscriptionHub};
use kosr_testkit::{FaultConfig, FaultSchedule, FaultyTransport};
use kosr_workloads::{
    assign_uniform, assign_zipf, gen_membership_flips, gen_mixed_traffic, road_grid_directed,
    social_graph, MembershipFlip, TrafficMix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_world(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AB5);
    let mut g = if rng.gen_bool(0.5) {
        let side = rng.gen_range(6..9);
        road_grid_directed(side, side, seed)
    } else {
        social_graph(rng.gen_range(60..100), 4, seed)
    };
    let cats = rng.gen_range(3..6);
    let n = g.num_vertices();
    if rng.gen_bool(0.5) {
        let size = rng.gen_range(6..18.min(n) as u32) as usize;
        assign_uniform(&mut g, cats, size, seed ^ 1);
    } else {
        assign_zipf(&mut g, cats, n / 2, 1.4, seed ^ 2);
    }
    g
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

/// A mixed update schedule: membership flips plus a sprinkle of edge
/// inserts, so both filter families (inverted-index category stages and
/// the distance-bound edge stage) see traffic.
fn update_schedule(g: &Graph, count: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED6E);
    let mut updates: Vec<Update> = gen_membership_flips(g, count, seed ^ 0xF11B)
        .iter()
        .map(flip_to_update)
        .collect();
    let n = g.num_vertices() as u32;
    for _ in 0..count / 3 {
        let at = rng.gen_range(0..updates.len() as u32) as usize;
        updates.insert(
            at,
            Update::InsertEdge {
                from: VertexId(rng.gen_range(0..n)),
                to: VertexId(rng.gen_range(0..n)),
                weight: rng.gen_range(1..30) as u64,
            },
        );
    }
    updates
}

/// One standing subscription's client-side view: what a real client
/// reconstructs purely from the initial payload plus replayed deltas.
struct ClientView {
    id: SessionId,
    query: Query,
    routes: Vec<Witness>,
    last_epoch: u64,
}

/// Drains one poll and advances the client view exactly the way a client
/// would: apply deltas in order, or swap in the resync's full top-k.
/// Returns the typed failure when the session is resync-pending on a
/// fleet that cannot answer (the caller matches it against the oracle).
fn advance(hub: &SubscriptionHub, view: &mut ClientView) -> Result<(), ShardError> {
    match hub.poll(view.id, Duration::ZERO) {
        PollResponse::Deltas { deltas, .. } => {
            for d in &deltas {
                assert!(
                    d.epoch > view.last_epoch,
                    "delta epochs must advance: {} after {}",
                    d.epoch,
                    view.last_epoch
                );
                view.last_epoch = d.epoch;
                d.apply(&mut view.routes);
            }
            Ok(())
        }
        PollResponse::Resync { routes, epoch, .. } => {
            view.routes = routes;
            view.last_epoch = epoch;
            Ok(())
        }
        PollResponse::Failed(e) => Err(e),
        PollResponse::UnknownSession => panic!("session {} vanished", view.id),
    }
}

/// The replay identity for one subscription at one epoch: the replayed
/// state must equal the oracle's fresh canonical answer — or both sides
/// must reject the (now invalid) query with the same typed error.
fn assert_replay_identity(
    hub: &SubscriptionHub,
    oracle: &KosrService,
    view: &mut ClientView,
    label: &str,
) {
    let fresh = oracle.submit(view.query.clone()).and_then(|t| t.wait());
    match (advance(hub, view), fresh) {
        (Ok(()), Ok(resp)) => {
            assert_eq!(
                view.routes, resp.outcome.witnesses,
                "{label}: session {} replay diverged from fresh re-query",
                view.id
            );
        }
        (Err(se), Err(oe)) => {
            assert_eq!(
                se.to_string(),
                oe.to_string(),
                "{label}: session {} rejections differ",
                view.id
            );
        }
        (got, want) => panic!(
            "{label}: session {} split: replay {got:?} vs oracle {}",
            view.id,
            match want {
                Ok(r) => format!("{} routes", r.outcome.witnesses.len()),
                Err(e) => e.to_string(),
            }
        ),
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 2048,
        cache_capacity: 128,
        ..Default::default()
    }
}

/// Subscribes `count` random queries, returning each client's initial
/// view (already verified against the oracle).
fn subscribe_random(
    hub: &SubscriptionHub,
    oracle: &KosrService,
    g: &Graph,
    count: usize,
    seed: u64,
) -> Vec<ClientView> {
    gen_mixed_traffic(
        g,
        count,
        &TrafficMix {
            hot_fraction: 0.25,
            ..Default::default()
        },
        seed,
    )
    .iter()
    .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
    .filter_map(|q| {
        let reply = match hub.subscribe(q.clone()) {
            Ok(r) => r,
            // A generated query the fleet rejects (e.g. k = 0 from a
            // degenerate mix) is simply not a subscription.
            Err(_) => return None,
        };
        let fresh = oracle
            .submit(q.clone())
            .and_then(|t| t.wait())
            .expect("oracle accepts what the hub accepted");
        assert_eq!(
            reply.routes, fresh.outcome.witnesses,
            "initial payload must already be canonical"
        );
        Some(ClientView {
            id: reply.id,
            query: q,
            routes: reply.routes,
            last_epoch: reply.epoch,
        })
    })
    .collect()
}

/// Quiet fleet: delta replay ≡ fresh re-query at every publish epoch, on
/// random worlds and random membership/edge schedules.
#[test]
fn delta_replay_matches_fresh_requery_at_every_epoch() {
    for seed in 0..kosr_testkit::cases(4) {
        let g = random_world(seed);
        let ig = IndexedGraph::build_default(g.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10CA1);
        let partition = Partitioner::new(PartitionConfig {
            num_shards: rng.gen_range(2..4),
            ..Default::default()
        })
        .partition(&ig.graph);
        let router = Arc::new(ShardRouter::new(
            ShardSet::build(&ig, partition),
            service_config(),
        ));
        let oracle = KosrService::new(Arc::new(ig), service_config());
        let hub = Arc::new(SubscriptionHub::new(&router, HubConfig::default()));
        router.register_update_observer(Arc::clone(&hub) as _);

        let mut views = subscribe_random(&hub, &oracle, &g, 4, seed ^ 0xAB);
        assert!(!views.is_empty(), "seed {seed}: no subscribable traffic");
        let bus = router.update_bus();
        let label = format!("seed {seed}");
        for (i, u) in update_schedule(&g, 12, seed).iter().enumerate() {
            // Rejected publishes change nothing on either side.
            if bus.publish(u).is_err() {
                continue;
            }
            oracle
                .apply_update(u)
                .expect("oracle accepts what the bus accepted");
            for view in &mut views {
                assert_replay_identity(&hub, &oracle, view, &format!("{label}, update {i}"));
            }
        }
        let s = hub.stats();
        assert_eq!(s.recompute_failures, 0, "{label}: quiet fleet never fails");
        assert!(
            s.skipped_total() > 0,
            "{label}: a 12-update schedule against category-diverse \
             subscriptions should prove at least one skip"
        );
    }
}

/// Negative space: traffic entirely outside every subscription's category
/// set is counter-proven irrelevant — zero wakes, zero recomputes, every
/// publish skip-counted per session through the inverted index.
#[test]
fn disjoint_category_traffic_never_reaches_the_engine() {
    for seed in 0..kosr_testkit::cases(4) {
        // A guaranteed-uniform world with exactly 4 categories: queries
        // mention {0, 1}, the update schedule touches only {2, 3}.
        let mut g = road_grid_directed(7, 7, seed);
        assign_uniform(&mut g, 4, 10, seed ^ 0xD15);
        let ig = IndexedGraph::build_default(g.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 2,
            ..Default::default()
        })
        .partition(&ig.graph);
        let router = Arc::new(ShardRouter::new(
            ShardSet::build(&ig, partition),
            service_config(),
        ));
        let hub = Arc::new(SubscriptionHub::new(&router, HubConfig::default()));
        router.register_update_observer(Arc::clone(&hub) as _);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xD155);
        let n = g.num_vertices() as u32;
        let mut subs = 0u64;
        while subs < 3 {
            let q = Query::new(
                VertexId(rng.gen_range(0..n)),
                VertexId(rng.gen_range(0..n)),
                vec![CategoryId(0), CategoryId(1)],
                rng.gen_range(1..4) as usize,
            );
            if hub.subscribe(q).is_ok() {
                subs += 1;
            }
        }

        let bus = router.update_bus();
        let mut publishes = 0u64;
        for f in &gen_membership_flips(&g, 24, seed ^ 0xD17) {
            if f.category.0 < 2 {
                continue;
            }
            if bus.publish(&flip_to_update(f)).is_ok() {
                publishes += 1;
            }
        }
        assert!(publishes > 0, "seed {seed}: schedule produced no traffic");
        let s = hub.stats();
        assert_eq!(s.wakeups_total(), 0, "seed {seed}: nothing may wake");
        assert_eq!(s.recomputes, 0, "seed {seed}: zero engine work");
        assert_eq!(s.deltas_pushed, 0, "seed {seed}");
        assert_eq!(
            s.skipped_category,
            subs * publishes,
            "seed {seed}: every publish skip-counted for every session \
             without being visited"
        );
    }
}

/// Publishes through a faulted bus, stepping the supervisor's clock on
/// transport-level failures, and mirrors the success onto the oracle.
/// `true` when the update changed the oracle.
fn publish_mirrored(
    bus: &kosr_shard::LiveUpdateBus,
    sup: &FleetSupervisor,
    oracle: &KosrService,
    u: &Update,
    label: &str,
) -> bool {
    for _ in 0..32 {
        match bus.publish(u) {
            Ok(receipt) => match oracle.apply_update(u) {
                Ok(_) => return true,
                // Every replica faulted, so none could judge the insert and
                // the bus logged it for replay. Replay skips an insert that
                // does not lower a weight, so the fleet ends where the
                // oracle does: without it.
                Err(UpdateError::Graph(GraphUpdateError::WeightNotDecreased { .. }))
                    if !receipt.applied =>
                {
                    return false
                }
                Err(e) => panic!("{label}: oracle refused what the bus accepted: {e:?}"),
            },
            Err(ShardError::Transport(_)) => sup.tick(),
            // Deterministic rejection: skipped on both sides.
            Err(_) => return false,
        }
    }
    panic!("update kept failing after 32 supervisor ticks: {u:?}");
}

/// Replay identity with recovery: transport-failed resyncs step the
/// supervisor and retry until the fleet answers (or deterministically
/// rejects, which must match the oracle).
fn assert_replay_identity_faulted(
    hub: &SubscriptionHub,
    sup: &FleetSupervisor,
    oracle: &KosrService,
    view: &mut ClientView,
    label: &str,
) {
    for _ in 0..32 {
        let fresh = oracle.submit(view.query.clone()).and_then(|t| t.wait());
        match (advance(hub, view), fresh) {
            (Ok(()), Ok(resp)) => {
                assert_eq!(
                    view.routes, resp.outcome.witnesses,
                    "{label}: session {} replay diverged",
                    view.id
                );
                return;
            }
            (Err(ShardError::Transport(_)), _) => sup.tick(),
            (Err(se), Err(oe)) => {
                assert_eq!(
                    se.to_string(),
                    oe.to_string(),
                    "{label}: session {}",
                    view.id
                );
                return;
            }
            (got, want) => panic!(
                "{label}: session {} split: replay {got:?} vs oracle ok={}",
                view.id,
                want.is_ok()
            ),
        }
    }
    panic!("{label}: session {} kept failing after 32 ticks", view.id);
}

/// The replay identity survives seeded frame faults and a full
/// kill/recover cycle: wrong deltas are never delivered — a recompute the
/// faults break degrades to a typed resync the client replays from.
#[test]
fn replay_identity_survives_faults_and_kill_recover() {
    for seed in 0..kosr_testkit::cases(4) {
        let g = random_world(seed ^ 0xFA);
        let ig = IndexedGraph::build_default(g.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFAB);
        let partition = Partitioner::new(PartitionConfig {
            num_shards: rng.gen_range(2..4),
            ..Default::default()
        })
        .partition(&ig.graph);
        let replicas = rng.gen_range(2..4);
        let mut switches = Vec::new();
        let router = Arc::new(ShardRouter::with_replicas(
            ShardSet::build(&ig, partition),
            service_config(),
            replicas,
            |j, r, t| {
                switches.push(t.kill_switch());
                let schedule = FaultSchedule::new(
                    seed ^ (j as u64) << 8 ^ (r as u64) << 16,
                    FaultConfig::default(),
                );
                let _ = (j, r);
                Arc::new(FaultyTransport::new(Arc::new(t), Arc::new(schedule)))
            },
        ));
        let oracle = KosrService::new(Arc::new(ig), service_config());
        let hub = Arc::new(SubscriptionHub::new(&router, HubConfig::default()));
        router.register_update_observer(Arc::clone(&hub) as _);
        let sup = router.supervisor(SupervisorConfig::default());
        let bus = router.update_bus();
        let label = format!("seed {seed}, {replicas} replicas");

        // Subscribing itself rides the faulted fan-out.
        let mut views = Vec::new();
        for q in gen_mixed_traffic(
            &g,
            3,
            &TrafficMix {
                hot_fraction: 0.25,
                ..Default::default()
            },
            seed ^ 0xFAC,
        )
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        {
            for _ in 0..32 {
                match hub.subscribe(q.clone()) {
                    Ok(reply) => {
                        views.push(ClientView {
                            id: reply.id,
                            query: q.clone(),
                            routes: reply.routes,
                            last_epoch: reply.epoch,
                        });
                        break;
                    }
                    Err(ShardError::Transport(_)) => sup.tick(),
                    Err(_) => break,
                }
            }
        }
        assert!(!views.is_empty(), "{label}: no subscribable traffic");

        // Phase 1 — frame faults only.
        for u in &update_schedule(&g, 8, seed ^ 0xFAD) {
            if !publish_mirrored(&bus, &sup, &oracle, u, &label) {
                continue;
            }
            for view in &mut views {
                assert_replay_identity_faulted(&hub, &sup, &oracle, view, &label);
            }
        }

        // Phase 2 — kill every shard's primary, publish through the
        // degraded fleet, then revive and let the supervisor's clock
        // restore the killed replicas; the replay identity must hold
        // across the whole cycle.
        for (i, s) in switches.iter().enumerate() {
            if i % replicas == 0 {
                s.kill();
            }
        }
        let mut killed_phase_published = false;
        for u in &update_schedule(&g, 6, seed ^ 0xFAE) {
            killed_phase_published |= publish_mirrored(&bus, &sup, &oracle, u, &label);
        }
        for s in &switches {
            s.revive();
        }
        for _ in 0..32 {
            if sup.all_healthy() {
                break;
            }
            sup.tick();
        }
        assert!(sup.all_healthy(), "{label}: fleet failed to converge");
        assert!(
            killed_phase_published,
            "{label}: degraded fleet accepted nothing"
        );
        for view in &mut views {
            assert_replay_identity_faulted(
                &hub,
                &sup,
                &oracle,
                view,
                &format!("{label}, post-recovery"),
            );
        }
    }
}
