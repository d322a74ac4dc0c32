//! Supervisor soak: under a seeded fault schedule, a supervised fleet
//! absorbs **10×-watermark** update traffic with a bounded update log —
//! live length never exceeds the compaction watermark plus the in-flight
//! window — while a long-downed replica is stranded below the compacted
//! head and returns through the typed `CursorTooOld → snapshot refresh`
//! path, never through an unbounded replay. The run ends with the fleet
//! healthy and bit-identical to the unsharded oracle.

use std::sync::Arc;
use std::time::Duration;

use kosr_core::{IndexedGraph, Query};
use kosr_graph::{PartitionConfig, Partitioner};
use kosr_service::{EventKind, KosrService, ServiceConfig, Update};
use kosr_shard::{ShardError, ShardRouter, ShardSet, SupervisorConfig};
use kosr_testkit::{FaultConfig, FaultSchedule, FaultyTransport};
use kosr_transport::KillSwitch;
use kosr_workloads::{
    assign_uniform, gen_membership_flips, gen_mixed_traffic, road_grid_directed, MembershipFlip,
    TrafficMix,
};

const WATERMARK: usize = 16;
const REPLAY_LIMIT: usize = 8;
/// Publishes between supervisor ticks — the "in-flight window" of the
/// log-boundedness claim.
const TICK_EVERY: usize = 4;
const UPDATES: usize = 10 * WATERMARK;

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

#[test]
fn log_stays_bounded_and_long_downed_replica_refreshes_by_snapshot() {
    let mut g = road_grid_directed(8, 8, 21);
    assign_uniform(&mut g, 4, 12, 9);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = ServiceConfig {
        workers: 1,
        cache_capacity: 64,
        ..Default::default()
    };
    let oracle = KosrService::new(Arc::new(ig.clone()), config.clone());

    let mut switches: Vec<((usize, usize), KillSwitch)> = Vec::new();
    let mut probe: Option<Arc<dyn kosr_transport::ShardTransport>> = None;
    let router =
        ShardRouter::with_replicas(ShardSet::build(&ig, partition), config, 2, |j, r, t| {
            switches.push(((j, r), t.kill_switch()));
            let schedule = FaultSchedule::new(
                0x50AC ^ (j as u64) << 8 ^ (r as u64) << 16,
                // A mild seeded mix: enough churn to exercise mid-publish
                // quarantines without making the soak flaky-slow.
                FaultConfig {
                    drop_per_mille: 40,
                    drop_response_per_mille: 20,
                    delay_per_mille: 40,
                    duplicate_per_mille: 40,
                    max_delay: Duration::from_micros(200),
                },
            );
            let t: Arc<dyn kosr_transport::ShardTransport> =
                Arc::new(FaultyTransport::new(Arc::new(t), Arc::new(schedule)));
            if (j, r) == (0, 0) {
                probe = Some(Arc::clone(&t));
            }
            t
        });
    let probe = probe.expect("replica (0,0) was wrapped");
    let bus = router.update_bus();
    let sup = router.supervisor(SupervisorConfig {
        compact_watermark: WATERMARK,
        replay_limit: REPLAY_LIMIT,
        ..Default::default()
    });

    // Kill shard 0 replica 1 for the whole publish storm: its cursor will
    // fall ~UPDATES entries behind while compaction keeps trimming.
    let victim = &switches
        .iter()
        .find(|((j, r), _)| (*j, *r) == (0, 1))
        .unwrap()
        .1;
    victim.kill();
    sup.tick();

    let flips = gen_membership_flips(&g, UPDATES, 0x50AC);
    let mut max_live = 0usize;
    for (i, f) in flips.iter().enumerate() {
        let u = flip_to_update(f);
        // Publish through the faulted fleet; the supervisor (not the
        // test) repairs any replica a fault takes down mid-publish.
        let mut published = false;
        for _ in 0..64 {
            match bus.publish(&u) {
                Ok(_) => {
                    published = true;
                    break;
                }
                Err(ShardError::Transport(_)) => sup.tick(),
                Err(e) => panic!("unexpected rejection of {u:?}: {e}"),
            }
        }
        assert!(published, "update {i} kept failing");
        oracle.apply_update(&u).expect("oracle mirrors the bus");
        if i % TICK_EVERY == TICK_EVERY - 1 {
            sup.tick();
            // The boundedness claim, checked right after the tick: the
            // live log fits the watermark plus the in-flight window.
            let live = bus.log_live_len();
            max_live = max_live.max(live);
            assert!(
                live <= WATERMARK + TICK_EVERY,
                "after update {i}: live log {live} exceeds watermark {WATERMARK} + window {TICK_EVERY}"
            );
        }
    }
    assert_eq!(bus.log_len(), UPDATES, "every publish was logged");
    assert!(
        bus.log_head() > 0 && sup.report().compactions > 0,
        "the storm must actually compact: {:?}",
        sup.report()
    );

    // The victim's cursor fell below the head: replay is impossible.
    let (cursor, head, tail) = bus.cursor_state(0, 1);
    assert!(cursor < head, "cursor {cursor} vs head {head}");
    assert!(tail - cursor > REPLAY_LIMIT);

    // Revive it; the supervisor alone brings it back — via the typed
    // CursorTooOld → snapshot-refresh path, never an unbounded replay.
    victim.revive();
    for _ in 0..64 {
        if sup.all_healthy() {
            break;
        }
        sup.tick();
    }
    assert!(sup.all_healthy(), "{:?}", sup.report());
    let report = sup.report();
    assert!(report.cursor_too_old >= 1, "{report:?}");
    assert!(report.snapshot_refreshes >= 1, "{report:?}");
    let (cursor, _, tail) = bus.cursor_state(0, 1);
    assert_eq!(cursor, tail, "refreshed replica is caught up");
    // The refresh that just ran pulled the arena blob — byte 8 of the
    // snapshot layout names the codec version.
    assert_eq!(
        probe.snapshot().unwrap().bytes[8],
        3,
        "a fleet must snapshot-refresh with the flat-arena format"
    );

    // And the converged fleet answers bit-identically to the oracle.
    let queries: Vec<Query> = gen_mixed_traffic(&g, 25, &TrafficMix::default(), 77)
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect();
    for (i, q) in queries.iter().enumerate() {
        let mut sharded = router.submit(q.clone()).and_then(|t| t.wait());
        for _ in 0..64 {
            match sharded {
                Err(ShardError::Transport(_)) => {
                    sup.tick();
                    sharded = router.submit(q.clone()).and_then(|t| t.wait());
                }
                _ => break,
            }
        }
        let plain = oracle.submit(q.clone()).and_then(|t| t.wait());
        match (sharded, plain) {
            (Ok(s), Ok(u)) => {
                assert_eq!(s.outcome.witnesses, u.outcome.witnesses, "query {i}")
            }
            (Err(se), Err(ue)) => assert_eq!(se.to_string(), ue.to_string(), "query {i}"),
            (s, u) => panic!("query {i} split: {s:?} vs {u:?}"),
        }
    }

    // Every recovery decision the supervisor counted was journaled exactly
    // once, and nothing else emits these kinds: the report and the fleet
    // event journal must reconcile 1:1, even after a full soak.
    let report = sup.report();
    let journal = router.events();
    for (kind, counted) in [
        (EventKind::ReplayRecovered, report.replays),
        (EventKind::SnapshotRefreshed, report.snapshot_refreshes),
        (EventKind::CursorTooOld, report.cursor_too_old),
        (EventKind::LogCompacted, report.compactions),
        (EventKind::RecoveryFailed, report.recovery_failures),
    ] {
        assert_eq!(
            journal.kind_total(kind),
            counted,
            "{kind:?} journal total must equal the supervisor report"
        );
    }
}
