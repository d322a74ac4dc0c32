//! What a publish may and may not do now that it no longer owns the
//! update log while replicas apply:
//!
//! * reads, `log_len` and cursor reads complete while a publish is parked
//!   mid-fan-out;
//! * the concurrent fan-out keeps the serial loop's bookkeeping — a
//!   rejection every replica repeats unlogs and touches nothing, a single
//!   diverged replica is quarantined while its siblings advance, and under
//!   seeded frame faults the receipts, cursors, health and replica epochs
//!   equal those of a serial reference loop over an identical fleet.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use kosr_core::figure1::{figure1, Figure1};
use kosr_core::{IndexedGraph, Query};
use kosr_graph::{GraphBuilder, Partition, PartitionConfig, Partitioner, VertexId};
use kosr_service::{EventKind, ServiceConfig, TraceContext, Update, UpdateReceipt};
use kosr_shard::{BusReceipt, ShardError, ShardRouter, ShardSet};
use kosr_testkit::{FaultConfig, FaultSchedule, FaultyTransport};
use kosr_transport::protocol::{Heartbeat, MemberCounts, SnapshotBlob};
use kosr_transport::{ReplicaHealth, ShardTransport, TransportError, TransportTicket};
use kosr_workloads::gen_membership_flips;

/// Parks the first `apply_update` that arrives after [`Gate::arm`] between
/// two barriers, so a test can hold a publish mid-fan-out.
struct Gate {
    armed: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            armed: AtomicBool::new(false),
            entered: Barrier::new(2),
            release: Barrier::new(2),
        })
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

struct ParkingTransport {
    inner: Arc<dyn ShardTransport>,
    gate: Arc<Gate>,
}

impl ShardTransport for ParkingTransport {
    fn submit_traced(&self, query: Query, ctx: Option<TraceContext>) -> TransportTicket {
        self.inner.submit_traced(query, ctx)
    }

    fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, TransportError> {
        if self.gate.armed.swap(false, Ordering::SeqCst) {
            self.gate.entered.wait();
            self.gate.release.wait();
        }
        self.inner.apply_update(update)
    }

    fn ping(&self) -> Result<Heartbeat, TransportError> {
        self.inner.ping()
    }

    fn ping_events(
        &self,
        since_seq: u64,
    ) -> Result<(Heartbeat, u64, Vec<kosr_service::Event>), TransportError> {
        self.inner.ping_events(since_seq)
    }

    fn member_counts(&self) -> Result<MemberCounts, TransportError> {
        self.inner.member_counts()
    }

    fn snapshot(&self) -> Result<SnapshotBlob, TransportError> {
        self.inner.snapshot()
    }

    fn install_snapshot(&self, blob: &SnapshotBlob) -> Result<Heartbeat, TransportError> {
        self.inner.install_snapshot(blob)
    }

    fn compact(&self, through: u64) -> Result<u64, TransportError> {
        self.inner.compact(through)
    }
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..Default::default()
    }
}

#[test]
fn reads_flow_while_a_publish_is_parked() {
    // Two directed components: 0 → 1 → 2 (shard 0) and 3 → 4 → 5 (shard
    // 1). C1 = {1, 4}, C2 = {2}: shard 1's slice of C1 can never complete
    // a sequence ending at 2.
    let v = VertexId;
    let mut b = GraphBuilder::new(6);
    b.add_edge(v(0), v(1), 5);
    b.add_edge(v(1), v(2), 7);
    b.add_edge(v(3), v(4), 1);
    b.add_edge(v(4), v(5), 1);
    let c1 = b.categories_mut().add_category("C1");
    let c2 = b.categories_mut().add_category("C2");
    b.categories_mut().insert(v(1), c1);
    b.categories_mut().insert(v(4), c1);
    b.categories_mut().insert(v(2), c2);
    let ig = IndexedGraph::build_default(b.build());
    let set = ShardSet::build(&ig, Partition::from_owner(vec![0, 0, 0, 1, 1, 1], 2));
    let gate = Gate::new();
    let router = Arc::new(ShardRouter::with_replicas(
        set,
        one_worker(),
        1,
        |_, _, t| {
            Arc::new(ParkingTransport {
                inner: Arc::new(t),
                gate: Arc::clone(&gate),
            })
        },
    ));
    let bus = router.update_bus();
    let q = Query::new(v(0), v(2), vec![c1, c2], 3);

    let quiet = router.submit(q.clone()).unwrap().wait().unwrap();
    assert_eq!(quiet.outcome.costs(), vec![12]);

    // 3 joins C2: irrelevant to the query (nothing reaches 3), so the
    // answer survives the update.
    let update = Update::InsertMembership {
        vertex: v(3),
        category: c2,
    };
    gate.arm();
    let publisher = std::thread::spawn({
        let bus = router.update_bus();
        move || bus.publish(&update)
    });
    gate.entered.wait(); // the publish is now parked inside its fan-out

    // Everything a reader touches, probed on its own thread: a bus that
    // still made readers queue behind the publish fails the timeout below
    // instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn({
        let (router, q) = (Arc::clone(&router), q.clone());
        move || {
            let bus = router.update_bus();
            let log = (
                bus.log_len(),
                bus.cursor_state(0, 0),
                bus.cursor_state(1, 0),
            );
            // The receiver outlives this thread (it is joined below).
            let _ = tx.send((log, router.submit(q).and_then(|t| t.wait())));
        }
    });
    let probed = rx.recv_timeout(Duration::from_secs(20));
    gate.release.wait();
    let receipt = publisher.join().unwrap().unwrap();
    reader.join().unwrap();
    let (log, during) = probed.expect("reads must complete while a publish is parked");
    // The entry counts from the moment it is logged, and no replica has
    // been accounted for it yet: cursor < tail on both shards.
    assert_eq!(log, (1, (0, 0, 1), (0, 0, 1)));
    let during = during.unwrap();
    assert_eq!(during.outcome.costs(), vec![12]);
    assert_eq!(during.shards, vec![0, 1], "nobody is skipped in the window");

    assert!(receipt.applied);
    assert_eq!((receipt.epoch, receipt.deferred_replicas), (1, 0));
    for j in 0..2 {
        assert_eq!(bus.cursor_state(j, 0), (1, 0, 1), "shard {j}");
    }
    let after = router.submit(q).unwrap().wait().unwrap();
    assert_eq!(after.outcome.costs(), vec![12]);
}

/// A 2 × 2 in-process fleet over Figure 1, each replica's transport passed
/// through `wrap`.
fn fleet(
    fx: &Figure1,
    mut wrap: impl FnMut(usize, usize, Arc<dyn ShardTransport>) -> Arc<dyn ShardTransport>,
) -> ShardRouter {
    let ig = IndexedGraph::build_default(fx.graph.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    ShardRouter::with_replicas(
        ShardSet::build(&ig, partition),
        one_worker(),
        2,
        |j, r, t| wrap(j, r, Arc::new(t)),
    )
}

const FLEET: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

fn epochs(router: &ShardRouter) -> Vec<u64> {
    FLEET
        .iter()
        .map(|&(j, r)| router.replica_service(j, r).index_epoch())
        .collect()
}

fn cursors(router: &ShardRouter) -> Vec<usize> {
    let bus = router.update_bus();
    FLEET
        .iter()
        .map(|&(j, r)| bus.cursor_state(j, r).0)
        .collect()
}

#[test]
fn a_rejection_every_replica_repeats_unlogs_and_touches_nothing() {
    let fx = figure1();
    let router = fleet(&fx, |_, _, t| t);
    let bus = router.update_bus();
    let mall = fx.graph.categories().vertices_of(fx.ma)[0];
    bus.publish(&Update::InsertEdge {
        from: fx.s,
        to: mall,
        weight: 1,
    })
    .unwrap();
    let (log, cursors_before, epochs_before) = (bus.log_len(), cursors(&router), epochs(&router));

    // A weight increase: every replica refuses it the same way.
    let refused = bus.publish(&Update::InsertEdge {
        from: fx.s,
        to: mall,
        weight: 99,
    });
    assert!(matches!(refused, Err(ShardError::Update(_))), "{refused:?}");
    assert_eq!(bus.log_len(), log);
    assert_eq!(cursors(&router), cursors_before);
    assert_eq!(epochs(&router), epochs_before);
    for j in 0..2 {
        assert_eq!(router.replica_set(j).health(), [ReplicaHealth::Healthy; 2]);
    }
}

#[test]
fn a_diverged_replica_is_quarantined_while_its_siblings_advance() {
    // Including (0, 0): with every result in hand the publish can tell
    // "one replica disagrees" from "everyone refuses" even when the
    // disagreeing replica is accounted first.
    for diverged in [(0, 0), (1, 1)] {
        let fx = figure1();
        let router = fleet(&fx, |_, _, t| t);
        let bus = router.update_bus();
        let mall = fx.graph.categories().vertices_of(fx.ma)[0];
        let edge = Update::InsertEdge {
            from: fx.s,
            to: mall,
            weight: 1,
        };
        // Behind the bus's back: this replica already has the edge, so it
        // answers `WeightNotDecreased` where its siblings accept.
        router
            .replica_service(diverged.0, diverged.1)
            .apply_update(&edge)
            .unwrap();

        let receipt = bus.publish(&edge).unwrap();
        assert!(receipt.applied);
        assert_eq!(receipt.replicas_touched, 3);
        assert_eq!(receipt.deferred_replicas, 1);
        assert_eq!(bus.log_len(), 1);
        for (j, r) in FLEET {
            let (cursor, _, tail) = bus.cursor_state(j, r);
            let health = router.replica_set(j).health()[r];
            if (j, r) == diverged {
                assert_eq!((cursor, health), (0, ReplicaHealth::Down), "{diverged:?}");
            } else {
                assert_eq!(
                    (cursor, health),
                    (tail, ReplicaHealth::Healthy),
                    "({j}, {r})"
                );
            }
        }
        assert_eq!(router.events().kind_total(EventKind::ReplicaQuarantined), 1);
        // Replay counts the refusal as already applied and readmits it.
        assert_eq!(bus.recover(diverged.0, diverged.1).unwrap(), 1);
        assert!(bus.recover_all().is_empty());
    }
}

/// The pre-concurrency publish loop, kept as the reference: one replica
/// at a time in `(shard, replica)` order, straight through the transports.
/// Returns the receipt it would have issued (`seq` is the publish epoch)
/// and records the cursors it would have advanced.
fn serial_publish(
    router: &ShardRouter,
    update: &Update,
    seq: usize,
    cursors: &mut [usize],
) -> BusReceipt {
    let (vertex, category, insert) = match *update {
        Update::InsertMembership { vertex, category } => (vertex, category, true),
        Update::RemoveMembership { vertex, category } => (vertex, category, false),
        Update::InsertEdge { .. } => unreachable!("the schedules publish membership flips"),
    };
    let owner = router.partition().owner(vertex);
    let category = router.shadow(category);
    let shadow = if insert {
        Update::InsertMembership { vertex, category }
    } else {
        Update::RemoveMembership { vertex, category }
    };
    let mut receipt = BusReceipt {
        epoch: seq as u64,
        ..Default::default()
    };
    for (slot, (j, r)) in FLEET.into_iter().enumerate() {
        let set = router.replica_set(j);
        if !set.healthy_indices().contains(&r) {
            receipt.deferred_replicas += 1;
            continue;
        }
        let transport = set.transport(r);
        let applied = transport.apply_update(update).and_then(|base| {
            let mut receipts = vec![base];
            if j == owner {
                receipts.push(transport.apply_update(&shadow)?);
            }
            Ok(receipts)
        });
        match applied {
            Ok(receipts) => {
                for rec in receipts.iter().filter(|rec| rec.applied) {
                    receipt.applied = true;
                    receipt.replicas_touched += 1;
                    receipt.invalidated += rec.invalidated;
                }
                if j == owner {
                    receipt.owner_shard = Some(j);
                }
                cursors[slot] = seq;
            }
            Err(e) => {
                assert!(e.is_fault(), "membership flips are never refused: {e}");
                set.mark_down(r);
                receipt.deferred_replicas += 1;
            }
        }
    }
    if !receipt.applied {
        receipt.owner_shard = None;
    }
    receipt
}

#[test]
fn concurrent_publishes_account_like_the_serial_loop_under_seeded_faults() {
    let faults = FaultConfig {
        drop_per_mille: 15,
        drop_response_per_mille: 15,
        delay_per_mille: 80,
        duplicate_per_mille: 80,
        max_delay: Duration::from_micros(300),
    };
    let (mut compared, mut deferred) = (0, 0);
    for seed in 0..8u64 {
        let fx = figure1();
        let faulty = |j: usize, r: usize, t: Arc<dyn ShardTransport>| {
            let schedule = FaultSchedule::new(seed ^ (j as u64) << 8 ^ (r as u64) << 16, faults);
            Arc::new(FaultyTransport::new(t, Arc::new(schedule))) as Arc<dyn ShardTransport>
        };
        let concurrent = fleet(&fx, faulty);
        let serial = fleet(&fx, faulty);
        let bus = concurrent.update_bus();
        let mut serial_cursors = vec![0; FLEET.len()];
        for (i, f) in gen_membership_flips(&fx.graph, 24, seed).iter().enumerate() {
            let update = if f.insert {
                Update::InsertMembership {
                    vertex: f.vertex,
                    category: f.category,
                }
            } else {
                Update::RemoveMembership {
                    vertex: f.vertex,
                    category: f.category,
                }
            };
            let got = match bus.publish(&update) {
                Ok(receipt) => receipt,
                // Shard 0 lost its last replica: the bus has nobody left
                // to validate against and refuses before logging.
                Err(ShardError::Transport(_)) => {
                    assert!(concurrent.replica_set(0).healthy_indices().is_empty());
                    break;
                }
                Err(e) => panic!("seed {seed}, publish {i}: {e}"),
            };
            let want = serial_publish(&serial, &update, i + 1, &mut serial_cursors);
            assert_eq!(got, want, "seed {seed}, publish {i}");
            compared += 1;
            deferred += got.deferred_replicas;
            assert_eq!(
                cursors(&concurrent),
                serial_cursors,
                "seed {seed}, publish {i}"
            );
            assert_eq!(
                epochs(&concurrent),
                epochs(&serial),
                "seed {seed}, publish {i}"
            );
            for j in 0..2 {
                assert_eq!(
                    concurrent.replica_set(j).health(),
                    serial.replica_set(j).health(),
                    "seed {seed}, publish {i}, shard {j}"
                );
            }
        }
    }
    // The schedules must actually exercise both outcomes.
    assert!(
        compared >= 100 && deferred > 0,
        "{compared} publishes, {deferred} deferrals"
    );
}
