//! The subscription hub: owns the [`SubscriptionTable`], listens to the
//! update bus as an [`UpdateObserver`], runs the invalidation filter, and
//! drives woken subscriptions through the normal epoch-guarded
//! `ShardRouter` path (witness caches and all) to produce deltas.
//!
//! ## Concurrency model
//!
//! One mutex serialises every state transition — subscribe, poll drain,
//! and the per-publish filter/recompute sweep — with a condvar parking
//! long-polls until a delta (or resync) lands for them. The hub runs its
//! sweep on the *publishing* thread, post-commit, after the bus has
//! released the update log: the sweep may freely re-enter the router.
//!
//! The hub holds the router **weakly**: the router's observer registry
//! holds the hub strongly, and a strong back-edge would leak both. When
//! the router is gone the hub degrades to typed `ShuttingDown` errors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use kosr_core::{Query, Witness};
use kosr_service::{
    EventJournal, EventKind, MetricsRegistry, MetricsSource, ServiceError, Source, TagValue, Update,
};
use kosr_shard::{BusReceipt, LiveUpdateBus, ShardError, ShardRouter, UpdateObserver};

use crate::delta::Delta;
use crate::filter::{classify, FilterDecision, SkipCause, WakeCause};
use crate::registry::{RelevanceSignature, SessionId, SubscriptionTable};

/// Hub tunables.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Undrained deltas a session may accumulate before the hub discards
    /// its queue and forces a resync — the bound that keeps a never-
    /// polling client from growing memory without limit.
    pub queue_capacity: usize,
}

impl Default for HubConfig {
    fn default() -> HubConfig {
        HubConfig { queue_capacity: 8 }
    }
}

/// The answer to a successful subscribe: the session handle plus the
/// initial full top-k and the epoch it is current at.
#[derive(Clone, Debug)]
pub struct SubscribeReply {
    /// Poll/unsubscribe with this.
    pub id: SessionId,
    /// The full top-k at subscription time.
    pub routes: Vec<Witness>,
    /// The publish epoch the routes reflect.
    pub epoch: u64,
}

/// What a poll drained.
#[derive(Clone, Debug)]
pub enum PollResponse {
    /// Queued deltas, oldest first (empty on long-poll timeout). The
    /// query rides along so edges can render per-route stop breakdowns.
    Deltas {
        /// The standing query.
        query: Query,
        /// Deltas to apply in order.
        deltas: Vec<Delta>,
    },
    /// The session's queue overflowed (or a recompute failed) since the
    /// last drain: discard local state and restart from this full top-k.
    Resync {
        /// The standing query.
        query: Query,
        /// The full current top-k.
        routes: Vec<Witness>,
        /// The publish epoch the routes reflect.
        epoch: u64,
    },
    /// No such session (never created, or unsubscribed).
    UnknownSession,
    /// A resync recompute failed; the session stays resync-pending and
    /// the client should retry.
    Failed(ShardError),
}

#[derive(Default)]
struct Counters {
    wakeups_membership: AtomicU64,
    wakeups_edge: AtomicU64,
    skipped_category: AtomicU64,
    skipped_shard: AtomicU64,
    skipped_witness: AtomicU64,
    skipped_bound: AtomicU64,
    skipped_chain: AtomicU64,
    deltas_pushed: AtomicU64,
    empty_diffs: AtomicU64,
    recomputes: AtomicU64,
    overflows: AtomicU64,
    resyncs_served: AtomicU64,
    recompute_failures: AtomicU64,
    recompute_rejections: AtomicU64,
}

/// A point-in-time snapshot of the hub's counters (tests and docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Standing subscriptions currently registered.
    pub active: usize,
    /// Wakes caused by membership updates.
    pub wakeups_membership: u64,
    /// Wakes caused by edge inserts.
    pub wakeups_edge: u64,
    /// Skips proven by category disjointness.
    pub skipped_category: u64,
    /// Skips proven by first-stop shard ownership.
    pub skipped_shard: u64,
    /// Skips proven by the delivered-witness scan.
    pub skipped_witness: u64,
    /// Skips proven by the chained cost lower bound.
    pub skipped_bound: u64,
    /// Skips proven by chain infeasibility.
    pub skipped_chain: u64,
    /// Deltas queued for delivery.
    pub deltas_pushed: u64,
    /// Wakes whose recompute produced an unchanged top-k.
    pub empty_diffs: u64,
    /// Recomputes run through the router (wakes, not resyncs).
    pub recomputes: u64,
    /// Queue overflows that forced a resync.
    pub overflows: u64,
    /// Full resyncs served to polls.
    pub resyncs_served: u64,
    /// Wake recomputes that failed (session forced to resync).
    pub recompute_failures: u64,
    /// Wake recomputes the fleet rejected as an invalid query — e.g. the
    /// update emptied one of its categories. The session resyncs too, and
    /// its polls report the same typed rejection an unsharded service
    /// gives until the query is valid again. Not a failure: every replica
    /// answers it the same way.
    pub recompute_rejections: u64,
}

impl HubStats {
    /// All skips, across causes — the "zero engine work" counter.
    pub fn skipped_total(&self) -> u64 {
        self.skipped_category
            + self.skipped_shard
            + self.skipped_witness
            + self.skipped_bound
            + self.skipped_chain
    }

    /// All wakes, across causes.
    pub fn wakeups_total(&self) -> u64 {
        self.wakeups_membership + self.wakeups_edge
    }
}

/// Sessions whose recomputes one sweep keeps in flight at once: enough to
/// hide the fleet round trip, small against a replica's submission queue.
const SWEEP_WAVE: usize = 64;

/// The continuous-query engine. Register it on the router with
/// [`ShardRouter::register_update_observer`] so every bus publish flows
/// through its filter.
pub struct SubscriptionHub {
    router: Weak<ShardRouter>,
    bus: LiveUpdateBus,
    events: Arc<EventJournal>,
    table: Mutex<SubscriptionTable>,
    wakeups: Condvar,
    config: HubConfig,
    counters: Counters,
}

impl SubscriptionHub {
    /// A hub over `router`'s fleet. The caller still has to register it:
    /// `router.register_update_observer(hub.clone())`.
    pub fn new(router: &Arc<ShardRouter>, config: HubConfig) -> SubscriptionHub {
        SubscriptionHub {
            bus: router.update_bus(),
            events: Arc::clone(router.events()),
            router: Arc::downgrade(router),
            table: Mutex::new(SubscriptionTable::new()),
            wakeups: Condvar::new(),
            config,
            counters: Counters::default(),
        }
    }

    fn router(&self) -> Result<Arc<ShardRouter>, ShardError> {
        self.router
            .upgrade()
            .ok_or(ShardError::Service(ServiceError::ShuttingDown))
    }

    fn compute(
        router: &ShardRouter,
        query: &Query,
    ) -> Result<kosr_shard::ShardedResponse, ShardError> {
        router.submit(query.clone())?.wait()
    }

    /// Registers `query` as a standing subscription: runs it once through
    /// the router and returns the session id with the initial full top-k.
    pub fn subscribe(&self, query: Query) -> Result<SubscribeReply, ShardError> {
        let router = self.router()?;
        let mut table = self.table.lock().expect("subscription table poisoned");
        let resp = Self::compute(&router, &query)?;
        let epoch = self.bus.log_len() as u64;
        let shards = router.plan_fanout(&query)?;
        let signature = RelevanceSignature::new(
            &query.categories,
            shards,
            router.partition().owner(query.source),
        );
        let routes = resp.outcome.witnesses;
        let id = table.insert(query, signature, routes.clone(), epoch);
        self.events.emit(
            Source::Gateway,
            EventKind::SubscriptionCreated,
            None,
            vec![
                ("session".to_string(), TagValue::U64(id.0)),
                ("epoch".to_string(), TagValue::U64(epoch)),
            ],
        );
        Ok(SubscribeReply { id, routes, epoch })
    }

    /// Drops a subscription; `true` when it existed. Parked polls for the
    /// session wake and answer `UnknownSession`.
    pub fn unsubscribe(&self, id: SessionId) -> bool {
        let removed = self
            .table
            .lock()
            .expect("subscription table poisoned")
            .remove(id)
            .is_some();
        if removed {
            self.events.emit(
                Source::Gateway,
                EventKind::SubscriptionDropped,
                None,
                vec![("session".to_string(), TagValue::U64(id.0))],
            );
            self.wakeups.notify_all();
        }
        removed
    }

    /// Drains the session's delta queue, parking up to `max_wait` when it
    /// is empty (long-poll). An overflowed/failed session answers with a
    /// full [`PollResponse::Resync`] instead.
    pub fn poll(&self, id: SessionId, max_wait: Duration) -> PollResponse {
        let deadline = Instant::now() + max_wait;
        let mut table = self.table.lock().expect("subscription table poisoned");
        loop {
            let Some(sub) = table.get_mut(id) else {
                return PollResponse::UnknownSession;
            };
            if sub.needs_resync {
                let query = sub.query.clone();
                let recomputed = self.router().and_then(|r| {
                    let resp = Self::compute(&r, &query)?;
                    let shards = r.plan_fanout(&query)?;
                    Ok((resp, shards))
                });
                match recomputed {
                    Ok((resp, shards)) => {
                        let routes = resp.outcome.witnesses;
                        let epoch = self.bus.log_len() as u64;
                        sub.signature.refresh_shards(shards);
                        sub.delivered = routes.clone();
                        sub.epoch = epoch;
                        sub.queue.clear();
                        sub.needs_resync = false;
                        self.counters.resyncs_served.fetch_add(1, Ordering::Relaxed);
                        return PollResponse::Resync {
                            query,
                            routes,
                            epoch,
                        };
                    }
                    // The flag stays set: the next poll retries the resync.
                    Err(e) => return PollResponse::Failed(e),
                }
            }
            if !sub.queue.is_empty() {
                let deltas: Vec<Delta> = sub.queue.drain(..).collect();
                return PollResponse::Deltas {
                    query: sub.query.clone(),
                    deltas,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return PollResponse::Deltas {
                    query: sub.query.clone(),
                    deltas: Vec::new(),
                };
            }
            table = self
                .wakeups
                .wait_timeout(table, deadline - now)
                .expect("subscription table poisoned")
                .0;
        }
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> HubStats {
        let c = &self.counters;
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        HubStats {
            active: self
                .table
                .lock()
                .expect("subscription table poisoned")
                .len(),
            wakeups_membership: r(&c.wakeups_membership),
            wakeups_edge: r(&c.wakeups_edge),
            skipped_category: r(&c.skipped_category),
            skipped_shard: r(&c.skipped_shard),
            skipped_witness: r(&c.skipped_witness),
            skipped_bound: r(&c.skipped_bound),
            skipped_chain: r(&c.skipped_chain),
            deltas_pushed: r(&c.deltas_pushed),
            empty_diffs: r(&c.empty_diffs),
            recomputes: r(&c.recomputes),
            overflows: r(&c.overflows),
            resyncs_served: r(&c.resyncs_served),
            recompute_failures: r(&c.recompute_failures),
            recompute_rejections: r(&c.recompute_rejections),
        }
    }

    fn count_skip(&self, cause: SkipCause, n: u64) {
        let counter = match cause {
            SkipCause::Category => &self.counters.skipped_category,
            SkipCause::Shard => &self.counters.skipped_shard,
            SkipCause::Witness => &self.counters.skipped_witness,
            SkipCause::Bound => &self.counters.skipped_bound,
            SkipCause::Chain => &self.counters.skipped_chain,
        };
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn force_resync(&self, id: SessionId, cause: &str) {
        self.events.emit(
            Source::Gateway,
            EventKind::SubscriptionResync,
            None,
            vec![
                ("session".to_string(), TagValue::U64(id.0)),
                ("cause".to_string(), TagValue::Str(cause.to_string())),
            ],
        );
    }

    /// The per-publish sweep: filter every (relevant) subscription, wake
    /// and recompute the survivors, queue non-empty diffs.
    fn handle_update(&self, update: &Update, receipt: &BusReceipt) {
        let Some(router) = self.router.upgrade() else {
            return;
        };
        let mut table = self.table.lock().expect("subscription table poisoned");
        if table.is_empty() {
            return;
        }
        let total = table.len();
        // Membership updates enumerate only sessions mentioning the
        // category (the inverted index); everyone else is skip-counted
        // without being visited — the counter-proven fast path.
        let targets: Vec<SessionId> = match update.touched_category() {
            Some(c) => {
                let t = table.sessions_mentioning(c);
                self.count_skip(SkipCause::Category, (total - t.len()) as u64);
                t
            }
            None => table.sessions(),
        };
        // The edge stage's bound/chain filtering needs an engine that has
        // definitely applied this update; a deferred replica means the
        // local handle might be the stale one, so degrade to the
        // label-free stages.
        let engine = if receipt.deferred_replicas == 0 {
            router.local_shard_service(0).map(|s| s.indexed_graph())
        } else {
            None
        };
        let partition = router.partition();
        let mut delivered_something = false;
        // Recomputes go out in waves: every woken session of a wave is
        // submitted before any is waited on, so the sweep costs about one
        // round trip to the fleet per wave, not one per session. Waiting,
        // diffing and queueing then run in the same session order.
        for wave in targets.chunks(SWEEP_WAVE) {
            let mut woken = Vec::new();
            for &id in wave {
                let Some(sub) = table.get_mut(id) else {
                    continue;
                };
                match classify(sub, update, partition, engine.as_deref()) {
                    FilterDecision::Skip(cause) => self.count_skip(cause, 1),
                    FilterDecision::Wake(cause) => {
                        match cause {
                            WakeCause::Membership => &self.counters.wakeups_membership,
                            WakeCause::Edge => &self.counters.wakeups_edge,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        self.counters.recomputes.fetch_add(1, Ordering::Relaxed);
                        woken.push((id, router.submit(sub.query.clone())));
                    }
                }
            }
            for (id, ticket) in woken {
                let Some(sub) = table.get_mut(id) else {
                    continue;
                };
                match ticket.and_then(|t| t.wait()) {
                    Ok(resp) => {
                        sub.signature.refresh_shards(resp.shards.clone());
                        match Delta::diff(&sub.delivered, &resp.outcome.witnesses, receipt.epoch) {
                            Some(delta) => {
                                sub.delivered = resp.outcome.witnesses;
                                sub.epoch = receipt.epoch;
                                sub.queue.push_back(delta);
                                if sub.queue.len() > self.config.queue_capacity {
                                    sub.queue.clear();
                                    sub.needs_resync = true;
                                    self.counters.overflows.fetch_add(1, Ordering::Relaxed);
                                    self.force_resync(id, "queue_overflow");
                                } else {
                                    self.counters.deltas_pushed.fetch_add(1, Ordering::Relaxed);
                                }
                                delivered_something = true;
                            }
                            None => {
                                sub.epoch = receipt.epoch;
                                self.counters.empty_diffs.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    Err(e) => {
                        // Can't prove anything about the new top-k:
                        // poison the queue and let poll resync once
                        // the fleet is reachable (or the query valid)
                        // again.
                        sub.queue.clear();
                        sub.needs_resync = true;
                        let (counter, cause) = match e {
                            ShardError::Service(ServiceError::InvalidQuery(_)) => {
                                (&self.counters.recompute_rejections, "query_rejected")
                            }
                            _ => (&self.counters.recompute_failures, "recompute_failed"),
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        self.force_resync(id, cause);
                        delivered_something = true;
                    }
                }
            }
        }
        if delivered_something {
            self.wakeups.notify_all();
        }
    }
}

impl UpdateObserver for SubscriptionHub {
    fn on_update(&self, update: &Update, receipt: &BusReceipt) {
        self.handle_update(update, receipt);
    }
}

impl MetricsSource for SubscriptionHub {
    fn export(&self, registry: &mut MetricsRegistry) {
        let s = self.stats();
        registry.gauge(
            "kosr_subscriptions_active",
            "Standing subscriptions currently registered",
            &[],
            s.active as f64,
        );
        registry.counter(
            "kosr_sub_wakeups_total",
            "Subscription wakes that reached the delta engine, by update cause",
            &[("cause", "membership")],
            s.wakeups_membership as f64,
        );
        registry.counter(
            "kosr_sub_wakeups_total",
            "Subscription wakes that reached the delta engine, by update cause",
            &[("cause", "edge")],
            s.wakeups_edge as f64,
        );
        registry.counter(
            "kosr_sub_deltas_pushed_total",
            "Non-empty deltas queued for delivery",
            &[],
            s.deltas_pushed as f64,
        );
        let help = "Updates proven irrelevant to a subscription without recompute, by filter stage";
        for (cause, v) in [
            (SkipCause::Category, s.skipped_category),
            (SkipCause::Shard, s.skipped_shard),
            (SkipCause::Witness, s.skipped_witness),
            (SkipCause::Bound, s.skipped_bound),
            (SkipCause::Chain, s.skipped_chain),
        ] {
            registry.counter(
                "kosr_sub_skipped_total",
                help,
                &[("cause", cause.name())],
                v as f64,
            );
        }
        registry.counter(
            "kosr_sub_resyncs_total",
            "Sessions forced to full resync, by cause",
            &[("cause", "queue_overflow")],
            s.overflows as f64,
        );
        registry.counter(
            "kosr_sub_resyncs_total",
            "Sessions forced to full resync, by cause",
            &[("cause", "recompute_failed")],
            s.recompute_failures as f64,
        );
        registry.counter(
            "kosr_sub_resyncs_total",
            "Sessions forced to full resync, by cause",
            &[("cause", "query_rejected")],
            s.recompute_rejections as f64,
        );
    }
}
