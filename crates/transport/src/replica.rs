//! Replica fleets: N transports serving the same shard, with health state,
//! heartbeats, and retry-on-next-replica failover.
//!
//! ## The health/consistency contract
//!
//! * Queries go only to [`ReplicaHealth::Healthy`] replicas; a fault marks
//!   the replica `Down` and the query retries on the next healthy one.
//!   Because every consistent replica of a shard answers with the same
//!   canonical top-k stream, failover preserves merge semantics exactly.
//! * Deterministic service rejections ([`TransportError::is_fault`] =
//!   `false`) are **not** retried — every consistent replica would repeat
//!   them, and retrying would double-count admission.
//! * A `Down` replica never serves again until something that knows the
//!   update history (the shard layer's update bus) replays what it missed
//!   and calls [`ReplicaSet::mark_healthy`] — a replica that silently
//!   missed an update must not contaminate merged answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use kosr_core::Query;
use kosr_service::{EventJournal, EventKind, Source, TraceContext, TraceId};

use crate::protocol::Heartbeat;
use crate::{ShardTransport, TransportError, TransportTicket};

/// A replica's serving eligibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Reachable and caught up on updates: eligible to serve queries.
    Healthy,
    /// Faulted (or installed cold): excluded from serving until recovered.
    Down,
}

/// A point-in-time health snapshot of one replica fleet — the shape
/// health endpoints and metrics exporters consume without re-deriving it
/// from the raw health vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSetSnapshot {
    /// Per-replica health, in failover order.
    pub health: Vec<ReplicaHealth>,
    /// Replicas currently eligible to serve.
    pub healthy: usize,
    /// Query-time failovers absorbed so far.
    pub failovers: u64,
}

impl ReplicaSetSnapshot {
    /// Replicas in the fleet (healthy or not).
    pub fn total(&self) -> usize {
        self.health.len()
    }

    /// `true` when every replica is serving.
    pub fn all_healthy(&self) -> bool {
        self.healthy == self.health.len()
    }
}

/// The fleet journal attachment of one replica set: where health
/// transitions are recorded as events, plus the per-replica drain cursors
/// the event-forwarding heartbeat advances.
struct EventsHook {
    journal: Arc<EventJournal>,
    shard: u32,
    /// Per-replica journal cursor: the `since_seq` of the next
    /// [`ShardTransport::ping_events`] probe.
    cursors: Vec<u64>,
    /// The fleet-journal seq of each replica's most recent down/failover
    /// event — the "triggering event" recovery decisions annotate.
    last_down: Vec<Option<u64>>,
}

/// The replicas of one shard.
pub struct ReplicaSet {
    transports: RwLock<Vec<Arc<dyn ShardTransport>>>,
    health: Mutex<Vec<ReplicaHealth>>,
    failovers: AtomicU64,
    events: Mutex<Option<EventsHook>>,
}

impl ReplicaSet {
    /// A fleet over `transports`, all initially healthy.
    ///
    /// # Panics
    /// Panics if `transports` is empty.
    pub fn new(transports: Vec<Arc<dyn ShardTransport>>) -> ReplicaSet {
        assert!(!transports.is_empty(), "a shard needs at least one replica");
        let health = vec![ReplicaHealth::Healthy; transports.len()];
        ReplicaSet {
            transports: RwLock::new(transports),
            health: Mutex::new(health),
            failovers: AtomicU64::new(0),
            events: Mutex::new(None),
        }
    }

    /// Attaches the fleet event journal: from here on, health transitions
    /// and failovers are journaled as [`Source::Replica`] events for
    /// `shard`, and [`ReplicaSet::heartbeat`] upgrades to the
    /// event-forwarding probe that drains each replica's local journal.
    pub fn attach_events(&self, journal: Arc<EventJournal>, shard: u32) {
        let n = self.num_replicas();
        *self.events.lock().unwrap() = Some(EventsHook {
            journal,
            shard,
            cursors: vec![0; n],
            last_down: vec![None; n],
        });
    }

    /// Journals `kind` for replica `i` when a journal is attached,
    /// remembering the seq as the replica's last down event for
    /// down-flavoured kinds. Returns the seq of the emitted event.
    fn journal_replica_event(
        &self,
        i: usize,
        kind: EventKind,
        trace: Option<TraceId>,
    ) -> Option<u64> {
        let mut guard = self.events.lock().unwrap();
        let hook = guard.as_mut()?;
        let seq = hook.journal.emit(
            Source::Replica {
                shard: hook.shard,
                replica: i as u32,
            },
            kind,
            trace,
            Vec::new(),
        );
        if matches!(
            kind,
            EventKind::ReplicaDown | EventKind::Failover | EventKind::ReplicaQuarantined
        ) {
            hook.last_down[i] = Some(seq);
        }
        Some(seq)
    }

    /// Marks replica `i` down **and** journals `kind` (with the trace in
    /// scope, if any) when the call is an actual `Healthy → Down`
    /// transition and a journal is attached. Returns the journaled seq —
    /// the trigger recovery decisions reference. Re-downing an already
    /// down replica journals nothing: one outage, one event.
    pub fn note_down(&self, i: usize, kind: EventKind, trace: Option<TraceId>) -> Option<u64> {
        if !self.mark_down(i) {
            return None;
        }
        self.journal_replica_event(i, kind, trace)
    }

    /// The fleet-journal seq of replica `i`'s most recent down/failover
    /// event, if any was journaled — what supervisor recovery events cite
    /// as their trigger.
    pub fn last_down_seq(&self, i: usize) -> Option<u64> {
        self.events
            .lock()
            .unwrap()
            .as_ref()
            .and_then(|hook| hook.last_down[i])
    }

    /// Number of replicas (healthy or not).
    pub fn num_replicas(&self) -> usize {
        self.transports.read().unwrap().len()
    }

    /// Current per-replica health.
    pub fn health(&self) -> Vec<ReplicaHealth> {
        self.health.lock().unwrap().clone()
    }

    /// Indices of replicas currently eligible to serve, ascending — the
    /// deterministic failover order.
    pub fn healthy_indices(&self) -> Vec<usize> {
        self.health
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter(|(_, h)| **h == ReplicaHealth::Healthy)
            .map(|(i, _)| i)
            .collect()
    }

    /// The transport of replica `i`.
    pub fn transport(&self, i: usize) -> Arc<dyn ShardTransport> {
        Arc::clone(&self.transports.read().unwrap()[i])
    }

    /// Marks replica `i` down (fault observed / update missed). Returns
    /// `true` when this was an actual `Healthy → Down` transition —
    /// event emission keys off the transition so one outage journals one
    /// event no matter how many callers observe it.
    pub fn mark_down(&self, i: usize) -> bool {
        let mut health = self.health.lock().unwrap();
        let transitioned = health[i] == ReplicaHealth::Healthy;
        health[i] = ReplicaHealth::Down;
        transitioned
    }

    /// Marks replica `i` healthy again — only call once it is provably
    /// caught up (the update bus's recovery path does this). Returns
    /// `true` when this was an actual `Down → Healthy` transition.
    pub fn mark_healthy(&self, i: usize) -> bool {
        let mut health = self.health.lock().unwrap();
        let transitioned = health[i] == ReplicaHealth::Down;
        health[i] = ReplicaHealth::Healthy;
        transitioned
    }

    /// Replaces replica `i`'s transport (a freshly started process joining
    /// from a snapshot). The slot stays `Down` until recovery replay
    /// completes and marks it healthy; the event drain cursor restarts at
    /// zero because the fresh process carries a fresh journal.
    pub fn install(&self, i: usize, transport: Arc<dyn ShardTransport>) {
        self.transports.write().unwrap()[i] = transport;
        if let Some(hook) = self.events.lock().unwrap().as_mut() {
            hook.cursors[i] = 0;
        }
        self.mark_down(i);
    }

    /// How many query-time failovers this fleet has absorbed.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// One consistent health snapshot (health vector read under a single
    /// lock acquisition) — what `/healthz` endpoints and metrics
    /// exporters serve.
    pub fn health_snapshot(&self) -> ReplicaSetSnapshot {
        let health = self.health.lock().unwrap().clone();
        let healthy = health
            .iter()
            .filter(|h| **h == ReplicaHealth::Healthy)
            .count();
        ReplicaSetSnapshot {
            health,
            healthy,
            failovers: self.failovers(),
        }
    }

    /// Pings every replica. A faulting *healthy* replica is marked down
    /// (and the outage journaled, when a journal is attached); a
    /// responsive `Down` replica stays down (it may have missed updates
    /// while unreachable — only recovery replay may revive it).
    ///
    /// With a journal attached the probe is [`ShardTransport::ping_events`]:
    /// each replica's local lifecycle events ride back on the heartbeat
    /// response and are resequenced into the fleet journal, so one probe
    /// per tick carries both liveness *and* observability.
    pub fn heartbeat(&self) -> Vec<Result<Heartbeat, TransportError>> {
        (0..self.num_replicas())
            .map(|i| {
                let cursor = self
                    .events
                    .lock()
                    .unwrap()
                    .as_ref()
                    .map(|hook| hook.cursors[i]);
                let result = match cursor {
                    Some(cursor) => {
                        self.transport(i)
                            .ping_events(cursor)
                            .map(|(hb, next, events)| {
                                let mut guard = self.events.lock().unwrap();
                                if let Some(hook) = guard.as_mut() {
                                    for ev in &events {
                                        hook.journal.append_forwarded(ev, hook.shard, i as u32);
                                    }
                                    // Never regress a cursor: concurrent
                                    // heartbeats may land out of order.
                                    if next > hook.cursors[i] {
                                        hook.cursors[i] = next;
                                    }
                                }
                                hb
                            })
                    }
                    None => self.transport(i).ping(),
                };
                if result.as_ref().err().is_some_and(TransportError::is_fault) {
                    self.note_down(i, EventKind::ReplicaDown, None);
                }
                result
            })
            .collect()
    }

    /// Runs `op` against healthy replicas in failover order: the first
    /// non-fault result wins; faults mark the replica down and move on.
    pub fn call_with_failover<T>(
        &self,
        mut op: impl FnMut(&dyn ShardTransport) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        for i in self.healthy_indices() {
            match op(self.transport(i).as_ref()) {
                Err(e) if e.is_fault() => {
                    self.note_down(i, EventKind::Failover, None);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
        Err(TransportError::AllReplicasDown {
            replicas: self.num_replicas(),
        })
    }

    /// Submits `query` to the primary (lowest healthy) replica; the ticket
    /// transparently fails over to the next healthy replica when the wait
    /// faults, so a replica dying mid-query costs latency, not the answer.
    pub fn query(self: &Arc<Self>, query: Query) -> TransportTicket {
        self.query_traced(query, None)
    }

    /// [`ReplicaSet::query`] with a trace context: each attempt (including
    /// failover retries) re-sends the same context, so the spans of the
    /// replica that *answered* are the ones that come back — a failed
    /// attempt contributes nothing but a failover count.
    pub fn query_traced(
        self: &Arc<Self>,
        query: Query,
        ctx: Option<TraceContext>,
    ) -> TransportTicket {
        let Some(&first) = self.healthy_indices().first() else {
            return TransportTicket::ready(Err(TransportError::AllReplicasDown {
                replicas: self.num_replicas(),
            }));
        };
        let ticket = self.transport(first).submit_traced(query.clone(), ctx);
        let set = Arc::clone(self);
        TransportTicket::new(move || {
            let mut current = first;
            let mut ticket = ticket;
            let mut tried = vec![first];
            loop {
                match ticket.wait() {
                    Err(e) if e.is_fault() => {
                        set.note_down(current, EventKind::Failover, ctx.map(|c| c.trace_id));
                        set.failovers.fetch_add(1, Ordering::Relaxed);
                        let next = set
                            .healthy_indices()
                            .into_iter()
                            .find(|i| !tried.contains(i));
                        match next {
                            Some(i) => {
                                tried.push(i);
                                current = i;
                                ticket = set.transport(i).submit_traced(query.clone(), ctx);
                            }
                            None => {
                                return Err(TransportError::AllReplicasDown {
                                    replicas: set.num_replicas(),
                                })
                            }
                        }
                    }
                    other => return other,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InProcTransport, Update};
    use kosr_core::figure1::figure1;
    use kosr_core::IndexedGraph;
    use kosr_service::{KosrService, ServiceConfig, ServiceError};

    fn fleet(
        n: usize,
    ) -> (
        Arc<ReplicaSet>,
        Vec<crate::KillSwitch>,
        kosr_core::figure1::Figure1,
    ) {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let mut transports: Vec<Arc<dyn ShardTransport>> = Vec::new();
        let mut switches = Vec::new();
        for _ in 0..n {
            let svc = Arc::new(KosrService::new(
                Arc::new(ig.clone()),
                ServiceConfig {
                    workers: 1,
                    ..Default::default()
                },
            ));
            let t = InProcTransport::new(svc);
            switches.push(t.kill_switch());
            transports.push(Arc::new(t));
        }
        (Arc::new(ReplicaSet::new(transports)), switches, fx)
    }

    #[test]
    fn queries_fail_over_and_mark_down() {
        let (set, switches, fx) = fleet(3);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        assert_eq!(
            set.query(q.clone()).wait().unwrap().outcome.costs(),
            vec![20, 21, 22]
        );

        switches[0].kill();
        let resp = set.query(q.clone()).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert_eq!(set.health()[0], ReplicaHealth::Down);
        assert_eq!(set.failovers(), 1);

        switches[1].kill();
        assert_eq!(
            set.query(q.clone()).wait().unwrap().outcome.costs(),
            vec![20, 21, 22]
        );
        switches[2].kill();
        assert_eq!(
            set.query(q).wait().unwrap_err(),
            TransportError::AllReplicasDown { replicas: 3 }
        );
    }

    #[test]
    fn rejections_do_not_fail_over() {
        let (set, _switches, fx) = fleet(2);
        let err = set
            .query(Query::new(fx.s, fx.t, vec![fx.ma], 0))
            .wait()
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Service(ServiceError::InvalidQuery(kosr_core::QueryError::ZeroK))
        );
        assert_eq!(set.failovers(), 0);
        assert_eq!(set.healthy_indices(), vec![0, 1]);
    }

    #[test]
    fn heartbeat_marks_faulting_replicas_but_never_revives() {
        let (set, switches, _fx) = fleet(2);
        assert!(set.heartbeat().iter().all(Result::is_ok));
        switches[1].kill();
        let beats = set.heartbeat();
        assert!(beats[0].is_ok() && beats[1].is_err());
        assert_eq!(
            set.health(),
            vec![ReplicaHealth::Healthy, ReplicaHealth::Down]
        );
        switches[1].revive();
        let beats = set.heartbeat();
        assert!(beats[1].is_ok(), "reachable again");
        assert_eq!(
            set.health()[1],
            ReplicaHealth::Down,
            "revival requires recovery replay, not just reachability"
        );
        set.mark_healthy(1);
        assert_eq!(set.healthy_indices(), vec![0, 1]);
    }

    #[test]
    fn health_snapshot_reflects_failover_state() {
        let (set, switches, fx) = fleet(3);
        let snap = set.health_snapshot();
        assert_eq!(snap.total(), 3);
        assert!(snap.all_healthy());
        assert_eq!(snap.failovers, 0);

        switches[0].kill();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 1);
        set.query(q).wait().unwrap();
        let snap = set.health_snapshot();
        assert_eq!(snap.healthy, 2);
        assert!(!snap.all_healthy());
        assert_eq!(snap.health[0], ReplicaHealth::Down);
        assert_eq!(snap.failovers, 1);
    }

    #[test]
    fn attached_journal_records_failovers_and_forwards_replica_events() {
        let (set, switches, fx) = fleet(2);
        let journal = Arc::new(EventJournal::new(64));
        set.attach_events(Arc::clone(&journal), 7);

        // A traced query failover journals a Critical, trace-correlated
        // Failover event exactly once for the one transition.
        switches[0].kill();
        let ctx = TraceContext::root(TraceId::from_parts(0, 0x51), true);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 1);
        set.query_traced(q, Some(ctx)).wait().unwrap();
        let downs = journal.events_since(0, None, None);
        assert_eq!(downs.len(), 1);
        assert_eq!(downs[0].kind, EventKind::Failover);
        assert_eq!(downs[0].trace_id, Some(TraceId::from_parts(0, 0x51)));
        assert_eq!(
            downs[0].source,
            Source::Replica {
                shard: 7,
                replica: 0
            }
        );
        assert_eq!(set.last_down_seq(0), Some(downs[0].seq));
        assert_eq!(set.last_down_seq(1), None);

        // Re-downing the same replica journals nothing: one outage, one
        // event.
        assert!(set.note_down(0, EventKind::ReplicaDown, None).is_none());
        assert_eq!(journal.next_seq(), downs[0].seq + 1);

        // The heartbeat drains the healthy replica's local journal into
        // the fleet journal, resequenced and origin-tagged.
        let replica1 = set.transport(1);
        let gone = {
            let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 1);
            replica1.submit(q).wait().unwrap().outcome.witnesses[0].vertices[2]
        };
        replica1
            .apply_update(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        set.heartbeat();
        let swaps: Vec<_> = journal
            .events_since(0, None, None)
            .into_iter()
            .filter(|e| e.kind == EventKind::EpochSwap)
            .collect();
        assert_eq!(swaps.len(), 1, "the replica's epoch swap was forwarded");
        assert_eq!(
            swaps[0].source,
            Source::Replica {
                shard: 7,
                replica: 1
            }
        );
        // The cursor advanced: another heartbeat forwards nothing new.
        let before = journal.next_seq();
        set.heartbeat();
        assert_eq!(journal.next_seq(), before, "no re-delivery");
    }

    #[test]
    fn call_with_failover_walks_the_fleet() {
        let (set, switches, _fx) = fleet(3);
        switches[0].kill();
        let mc = set.call_with_failover(|t| t.member_counts()).unwrap();
        assert_eq!(mc.counts.len(), 3);
        assert_eq!(set.health()[0], ReplicaHealth::Down);
        switches[1].kill();
        switches[2].kill();
        assert_eq!(
            set.call_with_failover(|t| t.member_counts()).unwrap_err(),
            TransportError::AllReplicasDown { replicas: 3 }
        );
    }
}
