//! The live update bus, transport-native: routes §IV-C dynamic updates to
//! every replica of every shard that owns them, records the publish order
//! in an update log, and brings replicas that missed updates (faults,
//! kills, cold snapshot joins) back through **replay recovery**.
//!
//! ## Consistency model
//!
//! `publish` is **eventually consistent across replicas, immediately
//! consistent per replica**, exactly as before — but replicas now live
//! behind transports that can fail. The invariant that keeps merged
//! answers exact is:
//!
//! > a replica serves queries **iff** it has applied the full update log.
//!
//! `publish` sends the update to every healthy replica **concurrently**
//! and accounts the results in `(shard, replica)` order, holding the
//! log's publisher section but not its cursor state: queries keep flowing
//! while replicas apply, and see `cursor < tail` until the fan-out is
//! accounted (see `UpdateLog`). A query that overlaps a publish may be
//! served by replicas on either side of it — as a query already in a
//! replica's queue always could; answers are exact for the log prefix
//! each serving replica has applied.
//!
//! A replica whose apply faults is marked `Down` on the spot (its log
//! cursor stays behind) and the fleet fails over around it. It returns to
//! service only through [`LiveUpdateBus::recover`], which replays the
//! missed log suffix through its transport and then marks it healthy. A
//! cold replica joins the same way: snapshot (+ the log cursor the blob is
//! consistent with, from `ShardRouter::snapshot_shard`) → install → replay
//! → healthy. Replay is idempotent: membership updates are set operations,
//! and an edge insert that a snapshot already contains answers
//! `WeightNotDecreased`, which replay treats as already-applied.

use std::sync::Arc;

use kosr_core::GraphUpdateError;
use kosr_graph::{CategoryId, Partition, VertexId};
use kosr_service::{EventJournal, EventKind, Source, TagValue, Update, UpdateError, UpdateReceipt};
use kosr_transport::{ReplicaSet, ShardTransport, TransportError};

use crate::error::ShardError;
use crate::observe::ObserverRegistry;
use crate::state::{FanoutCache, UpdateLog};

/// Fans dynamic updates out to the shard replica fleets.
///
/// Routing rules (derived from what each replica materialises):
///
/// * **membership updates** — the *base* category is replicated on every
///   replica of every shard, so the base mutation goes fleet-wide; the
///   *shadow* category is owned by exactly the vertex's owner shard, whose
///   replicas additionally apply the shadow-scoped mutation.
/// * **edge updates** — the routing skeleton is replicated, so structural
///   updates go fleet-wide and flush every replica's cache.
///
/// Updates are validated before anything mutates; a rejected update
/// touches no replica and is not logged.
pub struct LiveUpdateBus {
    shards: Vec<Arc<ReplicaSet>>,
    partition: Arc<Partition>,
    base_categories: usize,
    fanout: Arc<FanoutCache>,
    log: Arc<UpdateLog>,
    events: Arc<EventJournal>,
    observers: Arc<ObserverRegistry>,
}

/// What publishing one update did across the fleet.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BusReceipt {
    /// The fleet **publish epoch** that contains this update: the update
    /// log tail after the publish. Every replica whose log cursor reaches
    /// `epoch` serves answers that include the update. Distinct from
    /// per-replica *index* epochs (owner-shard replicas bump those twice
    /// per membership update, for the shadow companion).
    pub epoch: u64,
    /// `false` when the update was a validated no-op everywhere.
    pub applied: bool,
    /// The owner shard whose replicas additionally applied the
    /// shadow-scoped mutation (membership updates only).
    pub owner_shard: Option<usize>,
    /// Replica applications that changed state.
    pub replicas_touched: usize,
    /// Cached answers dropped across all replicas.
    pub invalidated: usize,
    /// 2-hop label entries added across all replicas (edge updates).
    pub label_entries_added: usize,
    /// Replicas that missed the update (down, or faulted mid-publish):
    /// marked `Down` with their log cursor behind, pending
    /// [`LiveUpdateBus::recover`].
    pub deferred_replicas: usize,
}

impl LiveUpdateBus {
    pub(crate) fn new(
        shards: Vec<Arc<ReplicaSet>>,
        partition: Arc<Partition>,
        base_categories: usize,
        fanout: Arc<FanoutCache>,
        log: Arc<UpdateLog>,
        events: Arc<EventJournal>,
        observers: Arc<ObserverRegistry>,
    ) -> LiveUpdateBus {
        LiveUpdateBus {
            shards,
            partition,
            base_categories,
            fanout,
            log,
            events,
            observers,
        }
    }

    fn shadow(&self, c: CategoryId) -> CategoryId {
        crate::shadow_of(self.base_categories, c)
    }

    /// The owner-shard shadow companion of a membership update, if any.
    fn shadow_update(&self, update: &Update) -> Option<(usize, Update)> {
        match *update {
            Update::InsertMembership { vertex, category } => Some((
                self.partition.owner(vertex),
                Update::InsertMembership {
                    vertex,
                    category: self.shadow(category),
                },
            )),
            Update::RemoveMembership { vertex, category } => Some((
                self.partition.owner(vertex),
                Update::RemoveMembership {
                    vertex,
                    category: self.shadow(category),
                },
            )),
            Update::InsertEdge { .. } => None,
        }
    }

    /// Applies `update` (and, on the owner shard, its shadow companion) to
    /// replica `r` of shard `j`. `Ok(receipts)` only when every required
    /// application went through.
    fn apply_to_replica(
        &self,
        j: usize,
        transport: &dyn ShardTransport,
        update: &Update,
        shadow: &Option<(usize, Update)>,
    ) -> Result<Vec<UpdateReceipt>, TransportError> {
        let mut receipts = vec![transport.apply_update(update)?];
        if let Some((owner, shadow_update)) = shadow {
            if *owner == j {
                receipts.push(transport.apply_update(shadow_update)?);
            }
        }
        Ok(receipts)
    }

    /// Validates `update` against the shared base state, logs it, then
    /// applies it to every healthy replica of every shard — all replicas
    /// at once, results accounted in `(shard, replica)` order. Replicas
    /// that fault mid-publish are marked down with their cursor behind —
    /// the receipt reports them as deferred — and recover by replay.
    pub fn publish(&self, update: &Update) -> Result<BusReceipt, ShardError> {
        // Validate once, against base-category bounds: replicas know more
        // categories (the shadows), but bus clients speak base ids.
        let probe = self.fanout.get(0, &self.shards[0])?;
        let n = probe.num_vertices as usize;
        let check_vertex = |v: VertexId| {
            (v.index() < n)
                .then_some(())
                .ok_or(ShardError::Update(UpdateError::VertexOutOfRange(v)))
        };
        match *update {
            Update::InsertMembership { vertex, category }
            | Update::RemoveMembership { vertex, category } => {
                check_vertex(vertex)?;
                if category.index() >= self.base_categories {
                    return Err(ShardError::Update(UpdateError::UnknownCategory(category)));
                }
            }
            Update::InsertEdge { from, to, .. } => {
                check_vertex(from)?;
                check_vertex(to)?;
                // Every replica refuses a self-loop; refusing it here too
                // keeps it out of the log when no replica is reachable.
                if from == to {
                    return Err(ShardError::Update(UpdateError::Graph(
                        GraphUpdateError::SelfLoop,
                    )));
                }
            }
        }

        let shadow = self.shadow_update(update);
        let mut receipt = BusReceipt::default();
        let publishing = self.log.publisher();
        let seq = self.log.state().push(*update);
        receipt.epoch = seq as u64;
        // Replicas only turn healthy inside a publisher section (recovery),
        // so this snapshot can only shrink while the fan-out runs — and a
        // replica that goes down meanwhile simply faults its apply.
        let targets: Vec<(usize, usize)> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(j, set)| set.healthy_indices().into_iter().map(move |r| (j, r)))
            .collect();
        let results = self.apply_to_all(&targets, update, &shadow);
        // A deterministic rejection means "every consistent replica
        // refuses": when no replica accepted, nothing mutated anywhere.
        // (The fan-out is already done, so unlike a serial loop this looks
        // at all results, not only at the ones accounted so far.)
        let accepted_any = results.iter().any(Result::is_ok);
        let mut outcomes = targets.into_iter().zip(results).peekable();
        let mut state = self.log.state();
        for (j, set) in self.shards.iter().enumerate() {
            for r in 0..set.num_replicas() {
                let Some((_, result)) = outcomes.next_if(|&(target, _)| target == (j, r)) else {
                    receipt.deferred_replicas += 1;
                    continue; // cursor stays behind; recovery will replay
                };
                match result {
                    Ok(receipts) => {
                        for rec in receipts {
                            receipt.merge(&rec);
                        }
                        // The shadow-scoped mutation is receipts[1], present
                        // exactly on owner-shard replicas: only a delivered
                        // shadow application may claim the owner slot.
                        if shadow.as_ref().is_some_and(|&(owner, _)| owner == j) {
                            receipt.owner_shard = Some(j);
                        }
                        state.cursors[j][r] = seq;
                    }
                    Err(e) if e.is_fault() => {
                        set.note_down(r, EventKind::ReplicaDown, None);
                        receipt.deferred_replicas += 1;
                    }
                    Err(TransportError::Update(e)) => {
                        if !accepted_any {
                            // Unlog and refuse. Replicas that *faulted*
                            // ahead of this one stay marked down, as they
                            // would have in a serial loop.
                            state.pop_newest();
                            return Err(ShardError::Update(e));
                        }
                        // A rejection while some replica accepted means
                        // this replica diverged: quarantine it for replay.
                        set.note_down(r, EventKind::ReplicaQuarantined, None);
                        receipt.deferred_replicas += 1;
                    }
                    Err(e) => return Err(ShardError::from(e)),
                }
            }
        }
        drop(state);
        // Membership counts may have changed: fan-out planning must
        // re-read. Deferred replicas count too — the update is logged and
        // *will* apply at replay, so a cache kept warm on the strength of
        // "nothing applied yet" would go stale the moment recovery runs.
        // (Edge updates leave counts intact — the cache survives them.)
        if update.touched_category().is_some() && (receipt.applied || receipt.deferred_replicas > 0)
        {
            self.fanout.invalidate_all();
        }
        // owner_shard reports the *routing* decision even for no-ops only
        // when something applied — mirror the pre-transport semantics.
        if !receipt.applied {
            receipt.owner_shard = None;
        }
        // Leave the publisher section before the journal and the
        // observers: an observer may re-enter the bus (publish, recover)
        // and would deadlock on it.
        drop(publishing);
        self.events.emit(
            Source::Service,
            EventKind::UpdatePublished,
            None,
            vec![
                ("seq".to_string(), TagValue::U64(seq as u64)),
                ("applied".to_string(), TagValue::Bool(receipt.applied)),
                (
                    "deferred".to_string(),
                    TagValue::U64(receipt.deferred_replicas as u64),
                ),
            ],
        );
        self.observers.notify(update, &receipt);
        Ok(receipt)
    }

    /// Sends `update` (with the owner shard's shadow companion) to every
    /// `(shard, replica)` in `targets` at once; results come back in
    /// `targets` order. One scoped thread per replica beyond the first,
    /// which runs on the caller's — a publish costs the slowest replica,
    /// not the sum of all of them.
    fn apply_to_all(
        &self,
        targets: &[(usize, usize)],
        update: &Update,
        shadow: &Option<(usize, Update)>,
    ) -> Vec<Result<Vec<UpdateReceipt>, TransportError>> {
        let apply = |&(j, r): &(usize, usize)| {
            self.apply_to_replica(j, self.shards[j].transport(r).as_ref(), update, shadow)
        };
        let Some((first, rest)) = targets.split_first() else {
            return Vec::new();
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter()
                .map(|target| scope.spawn(move || apply(target)))
                .collect();
            std::iter::once(apply(first))
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("replica apply thread panicked")),
                )
                .collect()
        })
    }

    /// Replays the log suffix replica `r` of shard `j` missed, then marks
    /// it healthy. Returns the number of log entries replayed.
    ///
    /// A cursor that predates the compacted log head cannot be replayed:
    /// the typed [`ShardError::CursorTooOld`] tells the caller (the
    /// supervisor) to take the [`LiveUpdateBus::refresh`] path instead.
    ///
    /// Safe against double application: membership updates are set
    /// operations, and an [`Update::InsertEdge`] the replica's state
    /// already contains answers `WeightNotDecreased`, which replay counts
    /// as already applied (snapshots can be ahead of the installed
    /// cursor).
    pub fn recover(&self, j: usize, r: usize) -> Result<usize, ShardError> {
        let set = &self.shards[j];
        let _publishing = self.log.publisher();
        let (start, suffix) = {
            let state = self.log.state();
            let start = state.cursors[j][r];
            if start < state.head() {
                return Err(ShardError::CursorTooOld {
                    cursor: start,
                    head: state.head(),
                });
            }
            (start, state.suffix(start).to_vec())
        };
        for (replayed, update) in suffix.iter().enumerate() {
            let shadow = self.shadow_update(update);
            match self.apply_to_replica(j, set.transport(r).as_ref(), update, &shadow) {
                Ok(_) => {}
                Err(TransportError::Update(UpdateError::Graph(
                    GraphUpdateError::WeightNotDecreased { .. },
                ))) => {} // already in the snapshot the replica joined from
                Err(e) if e.is_fault() => {
                    set.note_down(r, EventKind::ReplicaDown, None);
                    self.log.state().cursors[j][r] = start + replayed;
                    return Err(ShardError::from(e));
                }
                Err(e) => return Err(ShardError::from(e)),
            }
        }
        // No publish ran meanwhile (publisher section), so the suffix
        // replayed is everything up to the tail.
        self.log.state().cursors[j][r] = start + suffix.len();
        set.mark_healthy(r);
        // Replayed membership updates change member counts after the
        // publish-time invalidation already happened: drop the fan-out
        // cache again so planning re-reads the converged fleet.
        if suffix.iter().any(|u| u.touched_category().is_some()) {
            self.fanout.invalidate_all();
        }
        Ok(suffix.len())
    }

    /// Refreshes replica `r` of shard `j` **by snapshot**: pulls a blob
    /// from a healthy sibling, pushes it into the replica over its
    /// transport (`InstallSnapshot`), rebases the replica's cursor to the
    /// log tail captured *before* the pull, then replays whatever was
    /// published during the transfer. This is how a replica whose missed
    /// suffix was compacted away (or is longer than the supervisor's
    /// replay limit) returns to service without an unbounded replay.
    ///
    /// The cursor-before-pull capture is safe for the same one-way reason
    /// as `ShardRouter::snapshot_shard`: the cursor is the *settled* tail
    /// (no publish in flight), so the blob can only be *ahead* of it, and
    /// replay is idempotent against already-contained updates.
    pub fn refresh(&self, j: usize, r: usize) -> Result<usize, ShardError> {
        let set = &self.shards[j];
        let cursor = self.log.settled_tail();
        let blob = match set.call_with_failover(|t| t.snapshot()) {
            Ok(blob) => blob,
            Err(e) => {
                // No healthy sibling to pull a snapshot from. That is
                // exactly the case where compaction pinned the log at this
                // shard's own minimum cursor — so if the replica's suffix
                // is still live, fall back to plain replay (however long)
                // rather than wedging on an impossible refresh.
                let (cursor, head, _) = self.cursor_state(j, r);
                if cursor >= head {
                    return self.recover(j, r);
                }
                return Err(ShardError::from(e));
            }
        };
        set.transport(r)
            .install_snapshot(&blob)
            .map_err(ShardError::from)?;
        {
            let _publishing = self.log.publisher();
            self.log.state().cursors[j][r] = cursor;
        }
        self.recover(j, r)
    }

    /// Recovers every `Down` replica of every shard (see
    /// [`LiveUpdateBus::recover`]); returns `(shard, replica)` pairs that
    /// still could not be reached. Replicas whose cursor was compacted
    /// away are refreshed by snapshot.
    pub fn recover_all(&self) -> Vec<(usize, usize)> {
        let mut unreachable = Vec::new();
        for (j, set) in self.shards.iter().enumerate() {
            for r in 0..set.num_replicas() {
                if set.healthy_indices().contains(&r) {
                    continue;
                }
                let result = match self.recover(j, r) {
                    Err(ShardError::CursorTooOld { .. }) => self.refresh(j, r),
                    other => other,
                };
                if result.is_err() {
                    unreachable.push((j, r));
                }
            }
        }
        unreachable
    }

    /// Compacts the log so its live portion shrinks back toward
    /// `watermark`, without ever dropping an entry some replica may still
    /// need *and can still be given*:
    ///
    /// * per shard, the floor is the minimum cursor of its **healthy**
    ///   replicas — a down replica with a healthy sibling can always be
    ///   snapshot-refreshed from that sibling, so its stale cursor may be
    ///   stranded;
    /// * a shard with **no** healthy replica pins the log at its own
    ///   minimum cursor: compacting past it would leave nothing to replay
    ///   *and* no sibling to pull a snapshot from.
    ///
    /// When the live log already fits the fleet-wide minimum cursor, that
    /// tighter bound is used so short-downed replicas keep their cheap
    /// replay path. Returns the number of entries dropped.
    pub fn compact(&self, watermark: usize) -> usize {
        let _publishing = self.log.publisher();
        let mut log = self.log.state();
        if log.live_len() <= watermark {
            return 0;
        }
        let mut min_all = log.tail();
        let mut target = log.tail();
        for (j, set) in self.shards.iter().enumerate() {
            let healthy = set.healthy_indices();
            let shard_floor = (0..set.num_replicas())
                .filter(|r| healthy.contains(r) || healthy.is_empty())
                .map(|r| log.cursors[j][r])
                .min()
                .unwrap_or_else(|| log.tail());
            target = target.min(shard_floor);
            if let Some(m) = log.cursors[j].iter().min() {
                min_all = min_all.min(*m);
            }
        }
        // Prefer the gentle bound when it already satisfies the watermark.
        if log.tail() - min_all <= watermark {
            target = min_all;
        }
        log.compact_to(target)
    }

    /// `(cursor, head, tail)` of replica `r` of shard `j` — what the
    /// supervisor reads to choose between replay and snapshot refresh.
    pub fn cursor_state(&self, j: usize, r: usize) -> (usize, usize, usize) {
        let log = self.log.state();
        (log.cursors[j][r], log.head(), log.tail())
    }

    /// Published updates so far (the absolute log tail; monotone across
    /// compactions). Counts a publish from the moment it is logged, i.e.
    /// while its fan-out may still be in flight; never waits for one.
    pub fn log_len(&self) -> usize {
        self.log.state().tail()
    }

    /// The oldest absolute sequence still replayable.
    pub fn log_head(&self) -> usize {
        self.log.state().head()
    }

    /// Entries currently held live (bounded by the supervisor's
    /// compaction watermark plus the in-flight window).
    pub fn log_live_len(&self) -> usize {
        self.log.state().live_len()
    }
}

impl BusReceipt {
    fn merge(&mut self, r: &UpdateReceipt) {
        if r.applied {
            self.applied = true;
            self.replicas_touched += 1;
        }
        self.invalidated += r.invalidated;
        self.label_entries_added += r.label_entries_added;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardRouter, ShardSet};
    use kosr_core::figure1::figure1;
    use kosr_core::{IndexedGraph, Query};
    use kosr_graph::{PartitionConfig, Partitioner};
    use kosr_service::ServiceConfig;
    use kosr_transport::ReplicaHealth;

    fn setup() -> (ShardRouter, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 3,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        (
            ShardRouter::new(
                set,
                ServiceConfig {
                    workers: 1,
                    ..Default::default()
                },
            ),
            fx,
        )
    }

    #[test]
    fn membership_update_reaches_owner_shadow_and_all_base_replicas() {
        let (router, fx) = setup();
        let bus = router.update_bus();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        // Warm every replica cache.
        let before = router.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(before.outcome.costs(), vec![20, 21, 22]);

        // Close the best route's restaurant (witness slot 2).
        let gone = before.outcome.witnesses[0].vertices[2];
        let receipt = bus
            .publish(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        let owner = receipt.owner_shard.expect("membership update has an owner");
        assert_eq!(owner, router.partition().owner(gone));
        // Base applied on every replica + shadow on the owner.
        assert_eq!(receipt.replicas_touched, router.num_shards() + 1);
        assert!(receipt.invalidated > 0, "warm caches must be swept");
        assert_eq!(receipt.deferred_replicas, 0);
        assert_eq!(bus.log_len(), 1);
        assert_eq!(receipt.epoch, 1, "publish epoch = log tail after publish");

        // Every replica's base category and the owner's shadow shrank.
        for j in 0..router.num_shards() {
            let ig = router.shard_service(j).indexed_graph();
            assert!(!ig.graph.categories().has_category(gone, fx.re));
            let shadow_members = ig.inverted.members_of(router.shadow(fx.re));
            let expected = router
                .partition()
                .members_owned(ig.graph.categories(), fx.re, j)
                .len();
            assert_eq!(shadow_members, expected, "shard {j} shadow in sync");
        }

        // Post-update answers match a fresh unsharded build of the world.
        let mut g2 = fx.graph.clone();
        g2.categories_mut().remove(gone, fx.re);
        let fresh = IndexedGraph::build_default(g2);
        let after = router.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(
            after.outcome.witnesses,
            fresh
                .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
                .witnesses
        );
        assert_ne!(after.outcome.witnesses, before.outcome.witnesses);

        // Duplicate removal: a validated no-op fleet-wide.
        let receipt = bus
            .publish(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(!receipt.applied);
        assert_eq!(receipt.replicas_touched, 0);
        assert_eq!(receipt.owner_shard, None);
        assert_eq!(receipt.epoch, 2, "no-ops still advance the publish epoch");
    }

    #[test]
    fn edge_update_broadcasts_and_reroutes() {
        let (router, fx) = setup();
        let bus = router.update_bus();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let _ = router.submit(q.clone()).unwrap().wait().unwrap();

        let mall = fx.graph.categories().vertices_of(fx.ma)[0];
        let receipt = bus
            .publish(&Update::InsertEdge {
                from: fx.s,
                to: mall,
                weight: 1,
            })
            .unwrap();
        assert!(receipt.applied);
        assert_eq!(receipt.owner_shard, None);
        assert_eq!(receipt.replicas_touched, router.num_shards());
        assert!(receipt.label_entries_added > 0);

        let mut b2 = fx.graph.to_builder();
        b2.add_edge(fx.s, mall, 1);
        let fresh = IndexedGraph::build_default(b2.build());
        let after = router.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(
            after.outcome.witnesses,
            fresh
                .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
                .witnesses
        );

        // Weight increases reject before mutating any replica (and leave
        // no log entry behind).
        let log_before = bus.log_len();
        assert!(bus
            .publish(&Update::InsertEdge {
                from: fx.s,
                to: mall,
                weight: 99,
            })
            .is_err());
        assert_eq!(bus.log_len(), log_before);
    }

    #[test]
    fn bus_validates_before_touching_replicas() {
        let (router, fx) = setup();
        let bus = router.update_bus();
        assert_eq!(
            bus.publish(&Update::InsertMembership {
                vertex: VertexId(123),
                category: fx.re,
            }),
            Err(ShardError::Update(UpdateError::VertexOutOfRange(VertexId(
                123
            ))))
        );
        // A *base-range* check: shadow ids are internal and rejected.
        assert_eq!(
            bus.publish(&Update::InsertMembership {
                vertex: fx.s,
                category: router.shadow(fx.re),
            }),
            Err(ShardError::Update(UpdateError::UnknownCategory(
                router.shadow(fx.re)
            )))
        );
        assert_eq!(bus.log_len(), 0);
        for j in 0..router.num_shards() {
            assert_eq!(router.shard_service(j).index_epoch(), 0, "untouched");
        }
    }

    #[test]
    fn self_loop_is_refused_even_with_the_whole_fleet_down() {
        // With every replica unreachable nobody can reject the update, so
        // only the bus's own check keeps it out of the log (where replay
        // would hit the rejection on every recovery).
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 3,
            ..Default::default()
        })
        .partition(&ig.graph);
        let mut switches = Vec::new();
        let router = ShardRouter::with_replicas(
            ShardSet::build(&ig, partition),
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            1,
            |_, _, t| {
                switches.push(t.kill_switch());
                Arc::new(t)
            },
        );
        let bus = router.update_bus();
        // Warm the fan-out cache, so validation itself needs no replica.
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        router.submit(q).unwrap().wait().unwrap();
        for s in &switches {
            s.kill();
        }
        assert_eq!(
            bus.publish(&Update::InsertEdge {
                from: fx.s,
                to: fx.s,
                weight: 1,
            }),
            Err(ShardError::Update(UpdateError::Graph(
                GraphUpdateError::SelfLoop
            )))
        );
        assert_eq!(bus.log_len(), 0);
        for s in &switches {
            s.revive();
        }
        assert!(bus.recover_all().is_empty());
    }

    #[test]
    fn fanout_cache_reflects_updates_that_only_applied_at_replay() {
        // The publish applies on *zero* replicas (whole fleet down), so
        // only replay recovery ever lands it — the fan-out cache must not
        // keep serving the pre-update member counts afterwards.
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 3,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        let mut switches = Vec::new();
        let router = ShardRouter::with_replicas(
            set,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            1,
            |_, _, t| {
                switches.push(t.kill_switch());
                Arc::new(t)
            },
        );
        let bus = router.update_bus();
        // Warm the fan-out cache.
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        router.submit(q.clone()).unwrap().wait().unwrap();

        // A (vertex, category) pair whose owner shard currently owns no
        // member of that category: the insert must *add* a shard to the
        // category's fan-out.
        let (v, c) = fx
            .graph
            .vertices()
            .find_map(|v| {
                let owner = router.partition().owner(v);
                [fx.ma, fx.re, fx.ci].into_iter().find_map(|c| {
                    let cats = fx.graph.categories();
                    (!cats.has_category(v, c)
                        && router.partition().members_owned(cats, c, owner).is_empty())
                    .then_some((v, c))
                })
            })
            .expect("figure1 over 3 shards has a shard owning no member of some category");
        let owner = router.partition().owner(v);

        // Cut the whole fleet, so the publish defers everywhere.
        for s in &switches {
            s.kill();
        }
        for j in 0..router.num_shards() {
            router.replica_set(j).mark_down(0);
        }
        let receipt = bus
            .publish(&Update::InsertMembership {
                vertex: v,
                category: c,
            })
            .unwrap();
        assert!(!receipt.applied, "nothing reachable applied it");
        assert_eq!(receipt.deferred_replicas, router.num_shards());

        for s in &switches {
            s.revive();
        }
        assert!(bus.recover_all().is_empty());

        // Planning must now see the replayed membership: the owner shard
        // joined the category's fan-out…
        let plan = router
            .plan_fanout(&Query::new(fx.s, fx.t, vec![c], 1))
            .unwrap();
        assert!(
            plan.contains(&owner),
            "stale fan-out cache dropped shard {owner}: {plan:?}"
        );
        // …and answers match a fresh unsharded build of the world.
        let mut g2 = fx.graph.clone();
        g2.categories_mut().insert(v, c);
        let fresh = IndexedGraph::build_default(g2);
        let q2 = Query::new(fx.s, fx.t, vec![c], 2);
        let resp = router.submit(q2.clone()).unwrap().wait().unwrap();
        assert_eq!(
            resp.outcome.witnesses,
            fresh
                .run_canonical(&q2, kosr_core::Method::Sk, u64::MAX)
                .witnesses
        );
    }

    #[test]
    fn downed_replicas_miss_updates_and_recover_by_replay() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 2,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        let mut switches = Vec::new();
        let router = ShardRouter::with_replicas(
            set,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            2,
            |_, _, t| {
                switches.push(t.kill_switch());
                Arc::new(t)
            },
        );
        let bus = router.update_bus();

        // Cut shard 0's replica 1, then publish: the update defers there.
        switches[1].kill();
        router.replica_set(0).mark_down(1);
        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        let receipt = bus
            .publish(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        assert_eq!(receipt.deferred_replicas, 1);
        // The cut replica's service never saw the update.
        assert_eq!(router.replica_service(0, 1).index_epoch(), 0);

        // Restore the channel and replay: the replica converges and
        // returns to service.
        switches[1].revive();
        let replayed = bus.recover(0, 1).unwrap();
        assert_eq!(replayed, 1);
        assert!(router.replica_service(0, 1).index_epoch() > 0);
        assert!(!router
            .replica_service(0, 1)
            .indexed_graph()
            .graph
            .categories()
            .has_category(gone, fx.re));
        assert_eq!(
            router.replica_set(0).health(),
            vec![ReplicaHealth::Healthy, ReplicaHealth::Healthy]
        );
        assert!(bus.recover_all().is_empty());
    }
}
