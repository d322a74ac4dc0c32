//! The transport PR's load-bearing guarantee, now supervisor-driven: on
//! random worlds, a replicated `ShardRouter` whose every replica sits
//! behind a seeded fault-injecting transport (frame drops, response
//! drops, delays, duplicates, replica kills, snapshot cold-joins) still
//! answers **bit-identically** to an unsharded canonical oracle — before
//! and after live updates, including updates recovered into a replica
//! that joined from a shipped snapshot after failover.
//!
//! The suite makes **zero manual `recover`/`heartbeat` calls**: every
//! quarantined or cold-joined replica is restored exclusively by stepping
//! the [`FleetSupervisor`]'s clock (`tick`), the same pass a production
//! deployment runs on a timer.

use std::sync::Arc;

use kosr_core::{IndexedGraph, Query};
use kosr_graph::{Graph, PartitionConfig, Partitioner};
use kosr_service::{EventKind, KosrService, ServiceConfig, ServiceError, Source, Update};
use kosr_shard::{
    FleetSupervisor, ShardError, ShardRouter, ShardSet, ShardedResponse, SupervisorConfig,
};
use kosr_testkit::{FaultConfig, FaultSchedule, FaultyTransport};
use kosr_transport::{InProcTransport, KillSwitch};
use kosr_workloads::{
    assign_uniform, assign_zipf, gen_membership_flips, gen_mixed_traffic, road_grid_directed,
    social_graph, MembershipFlip, TrafficMix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_world(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA07);
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

fn queries_for(g: &Graph, count: usize, seed: u64) -> Vec<Query> {
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
    .collect()
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

/// Asks the faulted router, stepping the supervisor's clock on
/// transport-level failures (a fault schedule can take a whole shard down
/// between ticks). Deterministic rejections return immediately.
fn ask(
    router: &ShardRouter,
    sup: &FleetSupervisor,
    q: &Query,
) -> Result<ShardedResponse, ShardError> {
    for _ in 0..32 {
        match router.submit(q.clone()).and_then(|t| t.wait()) {
            Err(ShardError::Transport(_)) => sup.tick(),
            other => return other,
        }
    }
    panic!("query kept failing after 32 supervisor ticks: {q:?}");
}

/// The faulted deployment must agree with the oracle bit-for-bit — on
/// answers *and* on rejections (string parity, as rejections are typed
/// service errors on both sides).
fn assert_matches_oracle(
    router: &ShardRouter,
    sup: &FleetSupervisor,
    oracle: &KosrService,
    queries: &[Query],
    label: &str,
) {
    for (i, q) in queries.iter().enumerate() {
        let sharded = ask(router, sup, q);
        let plain = oracle.submit(q.clone()).and_then(|t| t.wait());
        match (sharded, plain) {
            (Ok(s), Ok(u)) => {
                assert_eq!(
                    s.outcome.witnesses, u.outcome.witnesses,
                    "{label}: query {i} diverged"
                );
                assert_eq!(s.outcome.costs(), u.outcome.costs(), "{label}: query {i}");
            }
            (Err(se), Err(ue)) => {
                assert_eq!(
                    se.to_string(),
                    ue.to_string(),
                    "{label}: query {i} rejections differ"
                );
            }
            (s, u) => panic!("{label}: query {i} split: sharded {s:?} vs oracle {u:?}"),
        }
    }
}

/// Publishes one update through the faulted bus, stepping the supervisor
/// on transport-level failures, and mirrors it onto the oracle.
fn publish_mirrored(
    bus: &kosr_shard::LiveUpdateBus,
    sup: &FleetSupervisor,
    oracle: &KosrService,
    u: &Update,
) {
    let mut published = false;
    for _ in 0..32 {
        match bus.publish(u) {
            Ok(_) => {
                published = true;
                break;
            }
            Err(ShardError::Transport(_)) => sup.tick(),
            Err(e) => panic!("unexpected rejection of {u:?}: {e}"),
        }
    }
    assert!(published, "update kept failing: {u:?}");
    oracle
        .apply_update(u)
        .expect("oracle accepts what the bus accepted");
}

/// Ticks the supervisor until the whole fleet serves (bounded).
fn converge(sup: &FleetSupervisor, label: &str) {
    for _ in 0..32 {
        if sup.all_healthy() {
            return;
        }
        sup.tick();
    }
    assert!(sup.all_healthy(), "{label}: fleet failed to converge");
}

/// One full fault-schedule round.
fn round(seed: u64) {
    let g = random_world(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA27);
    let num_shards = rng.gen_range(2..4);
    let replicas = rng.gen_range(2..5);

    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 2048,
        cache_capacity: 128,
        ..Default::default()
    };
    let oracle = KosrService::new(Arc::new(ig.clone()), config.clone());

    // Every replica behind its own seeded fault schedule + kill switch.
    let mut switches: Vec<((usize, usize), KillSwitch)> = Vec::new();
    let router = ShardRouter::with_replicas(
        ShardSet::build(&ig, partition),
        config.clone(),
        replicas,
        |j, r, t| {
            switches.push(((j, r), t.kill_switch()));
            let schedule = FaultSchedule::new(
                seed ^ (j as u64) << 8 ^ (r as u64) << 16,
                FaultConfig::default(),
            );
            Arc::new(FaultyTransport::new(Arc::new(t), Arc::new(schedule)))
        },
    );
    let bus = router.update_bus();
    let sup = router.supervisor(SupervisorConfig::default());
    let label = format!("seed {seed}, {num_shards} shards × {replicas} replicas");

    // Phase 1 — frame faults only: equivalence holds through drop/delay/
    // duplicate schedules, with failover + supervised recovery absorbing
    // the damage.
    assert_matches_oracle(
        &router,
        &sup,
        &oracle,
        &queries_for(&g, 20, seed ^ 0x1111),
        &format!("{label}, phase 1"),
    );

    // Phase 2 — kill the primary replica of every shard outright.
    for ((_, r), s) in &switches {
        if *r == 0 {
            s.kill();
        }
    }
    assert_matches_oracle(
        &router,
        &sup,
        &oracle,
        &queries_for(&g, 12, seed ^ 0x2222),
        &format!("{label}, phase 2 (primaries killed)"),
    );

    // Phase 3 — snapshot shard 0 *now*, then publish live updates under
    // faults (killed primaries miss all of them), mirrored onto the oracle.
    let (cursor, blob) = loop {
        match router.snapshot_shard(0) {
            Ok(got) => break got,
            Err(ShardError::Transport(_)) => sup.tick(),
            Err(e) => panic!("snapshot failed: {e}"),
        }
    };
    for f in &gen_membership_flips(&g, 8, seed ^ 0x3333) {
        publish_mirrored(&bus, &sup, &oracle, &flip_to_update(f));
    }

    // Phase 4 — revive the killed channels; the supervisor's clock alone
    // replays what each replica missed before it serves again.
    for (_, s) in &switches {
        s.revive();
    }
    converge(&sup, &format!("{label}, phase 4"));
    assert!(
        sup.report().replays + sup.report().snapshot_refreshes > 0,
        "{label}: the supervisor must have restored the killed primaries"
    );
    assert_matches_oracle(
        &router,
        &sup,
        &oracle,
        &queries_for(&g, 15, seed ^ 0x4444),
        &format!("{label}, phase 4 (post-update, post-replay)"),
    );

    // Phase 5 — cold join: replica 1 of shard 0 is replaced by a fresh
    // service decoded from the pre-update snapshot; the supervisor alone
    // notices the installed-but-behind replica and recovers it; then
    // every *other* replica of shard 0 is killed, so the snapshot-joined
    // replica answers for the shard by itself.
    let joined = IndexedGraph::decode_snapshot(&blob.bytes).expect("shipped snapshot decodes");
    let joined_svc = Arc::new(KosrService::new(Arc::new(joined), config));
    router.install_replica(0, 1, Arc::new(InProcTransport::new(joined_svc)), cursor);
    converge(&sup, &format!("{label}, phase 5 cold join"));
    let (joined_cursor, _, tail) = bus.cursor_state(0, 1);
    assert_eq!(
        joined_cursor, tail,
        "{label}: phase-3 updates must have been recovered into the joined replica"
    );
    for ((j, r), s) in &switches {
        if *j == 0 && *r != 1 {
            s.kill();
        }
    }
    assert_matches_oracle(
        &router,
        &sup,
        &oracle,
        &queries_for(&g, 15, seed ^ 0x5555),
        &format!("{label}, phase 5 (snapshot-joined replica serving alone)"),
    );
}

#[test]
fn faulted_sharded_topk_matches_unsharded_oracle_bit_for_bit() {
    for seed in 0..kosr_testkit::cases(4) {
        round(seed);
    }
}

/// Sanity floor: with a quiet schedule the wrapper is invisible — zero
/// injected faults, zero failovers, bit-identical results, and the
/// event-forwarding heartbeat reaches the replicas through it.
#[test]
fn quiet_schedules_inject_nothing() {
    let g = random_world(50);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    let oracle = KosrService::new(Arc::new(ig.clone()), config.clone());
    let mut schedules = Vec::new();
    let router =
        ShardRouter::with_replicas(ShardSet::build(&ig, partition), config, 2, |_, _, t| {
            let s = Arc::new(FaultSchedule::new(1, FaultConfig::quiet()));
            schedules.push(Arc::clone(&s));
            Arc::new(FaultyTransport::new(Arc::new(t), s))
        });
    let sup = router.supervisor(SupervisorConfig::default());
    assert_matches_oracle(&router, &sup, &oracle, &queries_for(&g, 15, 3), "quiet");
    assert!(schedules.iter().all(|s| s.total_injected() == 0));
    for j in 0..router.num_shards() {
        assert_eq!(router.replica_set(j).failovers(), 0);
    }
    // A replica journals its epoch swap locally; the supervisor's next
    // heartbeat must carry it into the fleet journal, wrapper or not.
    let flips = gen_membership_flips(&g, 16, 50);
    let flip = flips
        .iter()
        .find(|f| f.insert != g.categories().has_category(f.vertex, f.category))
        .expect("a flip that changes a membership");
    publish_mirrored(&router.update_bus(), &sup, &oracle, &flip_to_update(flip));
    sup.tick();
    assert!(
        router.events().recent().iter().any(|e| {
            e.kind == EventKind::EpochSwap && matches!(e.source, Source::Replica { .. })
        }),
        "no replica epoch_swap was forwarded: {:?}",
        router.events().recent()
    );
}

/// Deterministic rejections must pass through the fault layer untouched
/// (no failover, no retries): parity with the oracle's typed errors.
#[test]
fn rejections_pass_through_fault_layer() {
    let g = random_world(51);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    let oracle = KosrService::new(Arc::new(ig.clone()), config.clone());
    let router =
        ShardRouter::with_replicas(ShardSet::build(&ig, partition), config, 2, |j, r, t| {
            let s = Arc::new(FaultSchedule::new(
                51 ^ (j as u64) << 4 ^ r as u64,
                FaultConfig::default(),
            ));
            Arc::new(FaultyTransport::new(Arc::new(t), s))
        });
    let sup = router.supervisor(SupervisorConfig::default());
    let bad = Query::new(
        kosr_graph::VertexId(0),
        kosr_graph::VertexId(1),
        vec![kosr_graph::CategoryId(0)],
        0,
    );
    let sharded = ask(&router, &sup, &bad).unwrap_err();
    let plain = oracle.submit(bad).unwrap_err();
    assert_eq!(sharded.to_string(), plain.to_string());
    assert!(matches!(
        sharded,
        ShardError::Service(ServiceError::InvalidQuery(_))
    ));
}
