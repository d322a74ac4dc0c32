//! The fleet event journal and the SLO burn-rate alert engine.
//!
//! Prometheus counters say *how many* failovers happened; the journal says
//! **who, when, and why**: every lifecycle edge the fleet has (replica
//! health flips, failovers, quarantines, replay/snapshot recoveries, log
//! compactions, epoch swaps, gateway admission rejections) is recorded as
//! a typed [`Event`] with a monotone sequence number, a wall-clock stamp,
//! structured tags, and — when one is in scope — the trace id of the
//! query that observed the edge, so an alert can be walked back to the
//! exact request trace that saw the fault.
//!
//! Retention is bounded **per severity**: each severity level owns its own
//! ring, so a flood of `Info` chatter can never evict the `Critical`
//! record of a failover (the property the journal test suite proves).
//! Cumulative per-`(severity, kind)` counters survive ring eviction and
//! feed the `kosr_events_total` metric family — and let the supervisor's
//! report be reconciled *exactly* against the journal.
//!
//! The [`SloEngine`] sits on top: per-[`SloSpec`] multi-window burn-rate
//! evaluation (availability and p99 latency objectives, fed once per
//! supervisor tick), with flap damping on both the `Firing` and
//! `Resolved` transitions. Transitions are themselves journaled
//! ([`EventKind::AlertFiring`] / [`EventKind::AlertResolved`]) and served
//! at the edge via `GET /v1/alerts`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::metrics::{MetricsRegistry, MetricsSource};
use crate::trace::{TagValue, TraceId};

/// How loud an event is. Severities retain independently: each level has
/// its own bounded ring, so low-severity chatter never evicts a
/// [`Severity::Critical`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine lifecycle: successful recoveries, compactions, epoch swaps.
    Info,
    /// Degradation worth attention: quarantines, stale cursors, rejections.
    Warn,
    /// Serving impact: replica loss, failover, a firing alert.
    Critical,
}

impl Severity {
    /// Every severity, ring order.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warn, Severity::Critical];

    pub(crate) fn slot(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warn => 1,
            Severity::Critical => 2,
        }
    }

    /// The lowercase label used in metrics, JSON, and `/v1/events` filters.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parses a [`Severity::name`] label (the `/v1/events?severity=` form).
    pub fn parse(s: &str) -> Option<Severity> {
        Severity::ALL.into_iter().find(|sev| sev.name() == s)
    }
}

/// Where an event was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A replica-local [`crate::KosrService`] (epoch swaps).
    Service,
    /// A shard's replica set or update bus (health flips, quarantines).
    Shard(u32),
    /// Forwarded from a remote replica's local journal over the wire.
    Replica {
        /// The shard the forwarding replica serves.
        shard: u32,
        /// The replica index within that shard.
        replica: u32,
    },
    /// The fleet supervisor's recovery loop and the SLO engine.
    Supervisor,
    /// The HTTP edge (admission rejections).
    Gateway,
}

impl Source {
    /// The lowercase tier label used in JSON and `/v1/events?source=`.
    pub fn label(self) -> &'static str {
        match self {
            Source::Service => "service",
            Source::Shard(_) => "shard",
            Source::Replica { .. } => "replica",
            Source::Supervisor => "supervisor",
            Source::Gateway => "gateway",
        }
    }
}

/// The closed set of lifecycle edges the fleet journals. `slot`/`name`
/// are dense and stable — they key the cumulative counters behind
/// `kosr_events_total{severity,kind}` and the supervisor-report
/// reconciliation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A heartbeat or publish fault took a replica out of rotation.
    ReplicaDown,
    /// A live query observed a fault and failed over mid-flight.
    Failover,
    /// The update bus quarantined a replica that rejected a committed
    /// update its siblings accepted.
    ReplicaQuarantined,
    /// The supervisor replayed a downed replica back to the log tail.
    ReplayRecovered,
    /// The supervisor refreshed a replica by snapshot push.
    SnapshotRefreshed,
    /// A replica's cursor fell below the compacted head — replay is
    /// impossible and recovery must go through a snapshot.
    CursorTooOld,
    /// A recovery attempt failed; the replica stays down for next tick.
    RecoveryFailed,
    /// The supervisor compacted the update log.
    LogCompacted,
    /// An update committed through the live update bus.
    UpdatePublished,
    /// A replica's index epoch advanced (applied update or snapshot
    /// install).
    EpochSwap,
    /// The edge refused work (connection pool full, overload shedding).
    AdmissionRejected,
    /// An SLO began burning error budget past its threshold.
    AlertFiring,
    /// A firing SLO recovered and its alert resolved.
    AlertResolved,
    /// A standing subscription registered (continuous-query session
    /// opened, initial top-k delivered).
    SubscriptionCreated,
    /// A subscription's delta queue overflowed (or its recompute failed):
    /// queued deltas were dropped and the client must re-fetch the full
    /// top-k.
    SubscriptionResync,
    /// A subscription was dropped (client unsubscribe).
    SubscriptionDropped,
}

/// Number of [`EventKind`] variants (the width of the counter tables).
pub(crate) const NUM_KINDS: usize = 16;

impl EventKind {
    /// Every kind, slot order.
    pub const ALL: [EventKind; NUM_KINDS] = [
        EventKind::ReplicaDown,
        EventKind::Failover,
        EventKind::ReplicaQuarantined,
        EventKind::ReplayRecovered,
        EventKind::SnapshotRefreshed,
        EventKind::CursorTooOld,
        EventKind::RecoveryFailed,
        EventKind::LogCompacted,
        EventKind::UpdatePublished,
        EventKind::EpochSwap,
        EventKind::AdmissionRejected,
        EventKind::AlertFiring,
        EventKind::AlertResolved,
        EventKind::SubscriptionCreated,
        EventKind::SubscriptionResync,
        EventKind::SubscriptionDropped,
    ];

    pub(crate) fn slot(self) -> usize {
        match self {
            EventKind::ReplicaDown => 0,
            EventKind::Failover => 1,
            EventKind::ReplicaQuarantined => 2,
            EventKind::ReplayRecovered => 3,
            EventKind::SnapshotRefreshed => 4,
            EventKind::CursorTooOld => 5,
            EventKind::RecoveryFailed => 6,
            EventKind::LogCompacted => 7,
            EventKind::UpdatePublished => 8,
            EventKind::EpochSwap => 9,
            EventKind::AdmissionRejected => 10,
            EventKind::AlertFiring => 11,
            EventKind::AlertResolved => 12,
            EventKind::SubscriptionCreated => 13,
            EventKind::SubscriptionResync => 14,
            EventKind::SubscriptionDropped => 15,
        }
    }

    /// The snake_case label used in metrics, JSON, and filters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ReplicaDown => "replica_down",
            EventKind::Failover => "failover",
            EventKind::ReplicaQuarantined => "replica_quarantined",
            EventKind::ReplayRecovered => "replay_recovered",
            EventKind::SnapshotRefreshed => "snapshot_refreshed",
            EventKind::CursorTooOld => "cursor_too_old",
            EventKind::RecoveryFailed => "recovery_failed",
            EventKind::LogCompacted => "log_compacted",
            EventKind::UpdatePublished => "update_published",
            EventKind::EpochSwap => "epoch_swap",
            EventKind::AdmissionRejected => "admission_rejected",
            EventKind::AlertFiring => "alert_firing",
            EventKind::AlertResolved => "alert_resolved",
            EventKind::SubscriptionCreated => "subscription_created",
            EventKind::SubscriptionResync => "subscription_resync",
            EventKind::SubscriptionDropped => "subscription_dropped",
        }
    }

    /// The severity this kind journals at.
    pub fn severity(self) -> Severity {
        match self {
            EventKind::ReplicaDown | EventKind::Failover | EventKind::AlertFiring => {
                Severity::Critical
            }
            EventKind::ReplicaQuarantined
            | EventKind::CursorTooOld
            | EventKind::RecoveryFailed
            | EventKind::AdmissionRejected
            | EventKind::SubscriptionResync => Severity::Warn,
            EventKind::ReplayRecovered
            | EventKind::SnapshotRefreshed
            | EventKind::LogCompacted
            | EventKind::UpdatePublished
            | EventKind::EpochSwap
            | EventKind::AlertResolved
            | EventKind::SubscriptionCreated
            | EventKind::SubscriptionDropped => Severity::Info,
        }
    }
}

/// One journaled lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone journal sequence number (gap-free per journal).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at emission.
    pub wall_ms: u64,
    /// How loud the event is (fixes which retention ring holds it).
    pub severity: Severity,
    /// Where the event was observed.
    pub source: Source,
    /// Which lifecycle edge fired.
    pub kind: EventKind,
    /// The trace of the query that observed the edge, when one was in
    /// scope — resolvable via `GET /v1/traces/{id}` while retained.
    pub trace_id: Option<TraceId>,
    /// Structured detail (`replica`, `trigger` seq, burn rates, …).
    pub tags: Vec<(String, TagValue)>,
}

fn wall_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// The bounded, typed fleet event journal.
///
/// Sequence numbers are monotone and gap-free (one `fetch_add` per
/// emission); retention is **per severity** — each [`Severity`] owns a
/// ring of `capacity` events, so eviction pressure in one severity never
/// drops events of another. Cumulative per-`(severity, kind)` counters
/// survive eviction and back the `kosr_events_total` metric family.
#[derive(Debug)]
pub struct EventJournal {
    next_seq: AtomicU64,
    capacity: usize,
    rings: [Mutex<VecDeque<Event>>; 3],
    totals: [[AtomicU64; NUM_KINDS]; 3],
}

impl EventJournal {
    /// A journal retaining up to `capacity` events *per severity level*.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            next_seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            rings: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            totals: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Emits one event at `kind`'s default severity and returns its
    /// sequence number.
    pub fn emit(
        &self,
        source: Source,
        kind: EventKind,
        trace_id: Option<TraceId>,
        tags: Vec<(String, TagValue)>,
    ) -> u64 {
        let severity = kind.severity();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            wall_ms: wall_ms_now(),
            severity,
            source,
            kind,
            trace_id,
            tags,
        };
        self.push(event);
        seq
    }

    /// Appends an event forwarded from a remote replica's journal: the
    /// event is re-sequenced into this journal (its original seq kept as
    /// an `origin_seq` tag), re-sourced as [`Source::Replica`], and keeps
    /// its remote wall clock, severity, kind, trace id and tags.
    pub fn append_forwarded(&self, remote: &Event, shard: u32, replica: u32) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut tags = remote.tags.clone();
        tags.push(("origin_seq".to_string(), TagValue::U64(remote.seq)));
        self.push(Event {
            seq,
            wall_ms: remote.wall_ms,
            severity: remote.severity,
            source: Source::Replica { shard, replica },
            kind: remote.kind,
            trace_id: remote.trace_id,
            tags,
        });
        seq
    }

    fn push(&self, event: Event) {
        let sev = event.severity.slot();
        self.totals[sev][event.kind.slot()].fetch_add(1, Ordering::Relaxed);
        let mut ring = self.rings[sev].lock().unwrap();
        ring.push_back(event);
        while ring.len() > self.capacity {
            ring.pop_front();
        }
    }

    /// The sequence number the *next* emission will receive — equal to
    /// the total number of events ever emitted.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Retained events with `seq >= since_seq`, optionally filtered by
    /// severity and/or source tier label, merged across the severity
    /// rings in ascending sequence order.
    pub fn events_since(
        &self,
        since_seq: u64,
        severity: Option<Severity>,
        source: Option<&str>,
    ) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::new();
        for sev in Severity::ALL {
            if severity.is_some_and(|want| want != sev) {
                continue;
            }
            let ring = self.rings[sev.slot()].lock().unwrap();
            out.extend(
                ring.iter()
                    .filter(|e| {
                        e.seq >= since_seq && source.is_none_or(|label| e.source.label() == label)
                    })
                    .cloned(),
            );
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// All currently retained events, ascending by sequence number.
    pub fn recent(&self) -> Vec<Event> {
        self.events_since(0, None, None)
    }

    /// Events ever emitted at `(severity, kind)` — survives ring
    /// eviction.
    pub fn total(&self, severity: Severity, kind: EventKind) -> u64 {
        self.totals[severity.slot()][kind.slot()].load(Ordering::Relaxed)
    }

    /// Events ever emitted of `kind`, across all severities. This is the
    /// reconciliation hook: the supervisor's counted recoveries must
    /// equal these totals exactly.
    pub fn kind_total(&self, kind: EventKind) -> u64 {
        Severity::ALL.iter().map(|&s| self.total(s, kind)).sum()
    }
}

impl MetricsSource for EventJournal {
    fn export(&self, registry: &mut MetricsRegistry) {
        registry.counter(
            "kosr_events_emitted_total",
            "Fleet events journaled (all severities and kinds)",
            &[],
            self.next_seq() as f64,
        );
        for sev in Severity::ALL {
            for kind in EventKind::ALL {
                let v = self.total(sev, kind);
                if v > 0 {
                    registry.counter(
                        "kosr_events_total",
                        "Fleet events journaled, per severity and kind",
                        &[("severity", sev.name()), ("kind", kind.name())],
                        v as f64,
                    );
                }
            }
        }
    }
}

/// What an [`SloSpec`] measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloObjective {
    /// The fraction of replicas healthy, fleet-wide, each observation.
    Availability,
    /// The end-to-end p99 query latency must stay at or under `target`
    /// (an observation over target burns that tick's full error budget).
    LatencyP99 {
        /// The latency objective.
        target: Duration,
    },
}

/// One service-level objective with multi-window burn-rate alerting.
///
/// Each supervisor tick contributes one observation whose *bad fraction*
/// is `1 - availability` (availability objective) or `0/1` (latency
/// objective, breached or not). The burn rate of a window is the mean bad
/// fraction over its last `window` observations divided by the error
/// budget `1 - goal`; the alert fires only when **both** the long and the
/// short window burn past `max_burn_rate` (the multi-window rule: the
/// long window proves it matters, the short window proves it is still
/// happening), sustained for `fire_after` consecutive observations, and
/// resolves after `resolve_after` consecutive clean ones — the flap
/// damping on both edges.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// The alert label (`kosr_alert_active{slo="…"}`).
    pub name: String,
    /// What the objective measures.
    pub objective: SloObjective,
    /// Target good fraction in `(0, 1)` — e.g. `0.99` availability.
    pub goal: f64,
    /// Long evaluation window, in observations (supervisor ticks).
    pub long_window: usize,
    /// Short evaluation window, in observations.
    pub short_window: usize,
    /// Burn-rate threshold both windows must exceed to fire.
    pub max_burn_rate: f64,
    /// Consecutive burning observations before `Firing` (≥ 1).
    pub fire_after: u32,
    /// Consecutive clean observations before `Resolved` (≥ 1).
    pub resolve_after: u32,
}

impl SloSpec {
    /// The default availability objective: 99% of replicas serving. The
    /// windows are sized so that one replica of a small fleet going down
    /// (bad fraction ≥ 0.25) pushes **both** windows past the burn
    /// threshold on the very first bad observation, even against a long
    /// window full of clean history — a kill pages within one supervisor
    /// tick, and flap damping lives on the resolve edge instead.
    pub fn availability() -> SloSpec {
        SloSpec {
            name: "availability".to_string(),
            objective: SloObjective::Availability,
            goal: 0.99,
            long_window: 8,
            short_window: 3,
            max_burn_rate: 2.0,
            fire_after: 1,
            resolve_after: 2,
        }
    }

    /// The default latency objective: p99 at or under 500 ms for 99% of
    /// observations, damped to three consecutive breaches so one slow
    /// tick (a cold cache, a GC-ish hiccup) doesn't page.
    pub fn latency_p99() -> SloSpec {
        SloSpec {
            name: "latency_p99".to_string(),
            objective: SloObjective::LatencyP99 {
                target: Duration::from_millis(500),
            },
            goal: 0.99,
            long_window: 8,
            short_window: 3,
            max_burn_rate: 2.0,
            fire_after: 3,
            resolve_after: 2,
        }
    }

    /// The default objective pair every fleet starts with.
    pub fn default_set() -> Vec<SloSpec> {
        vec![SloSpec::availability(), SloSpec::latency_p99()]
    }

    fn bad_fraction(&self, availability: f64, p99: Duration) -> f64 {
        match self.objective {
            SloObjective::Availability => (1.0 - availability).clamp(0.0, 1.0),
            SloObjective::LatencyP99 { target } => {
                if p99 > target {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Whether an alert is currently burning or has recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// The objective is burning budget past its threshold.
    Firing,
    /// A previously firing objective has recovered.
    Resolved,
}

impl AlertState {
    /// The lowercase label used in metrics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One alert transition, as served by `GET /v1/alerts`.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// The [`SloSpec::name`] this alert belongs to.
    pub slo: String,
    /// Firing or resolved.
    pub state: AlertState,
    /// Journal sequence of the transition event — the `since`/`until`
    /// anchor for correlating with `/v1/events`.
    pub seq: u64,
    /// Wall-clock milliseconds of the transition.
    pub wall_ms: u64,
    /// The short-window burn rate at the transition.
    pub burn_rate: f64,
}

struct SpecState {
    spec: SloSpec,
    /// Bad fractions, newest last, capped at `long_window`.
    samples: VecDeque<f64>,
    firing: Option<Alert>,
    breach_streak: u32,
    ok_streak: u32,
    fired_total: u64,
    resolved_total: u64,
}

impl SpecState {
    fn new(spec: SloSpec) -> SpecState {
        SpecState {
            spec,
            samples: VecDeque::new(),
            firing: None,
            breach_streak: 0,
            ok_streak: 0,
            fired_total: 0,
            resolved_total: 0,
        }
    }

    fn window_burn(&self, window: usize) -> f64 {
        let n = window.clamp(1, self.samples.len().max(1));
        let taken = self.samples.iter().rev().take(n);
        let count = taken.clone().count().max(1);
        let mean: f64 = taken.sum::<f64>() / count as f64;
        let budget = (1.0 - self.spec.goal).max(1e-9);
        mean / budget
    }
}

/// The multi-window burn-rate alert engine. One per fleet, observed once
/// per supervisor tick; transitions are journaled and the current +
/// recently-resolved alerts are served by `GET /v1/alerts`.
pub struct SloEngine {
    journal: Arc<EventJournal>,
    inner: Mutex<Vec<SpecState>>,
    /// Recently resolved alerts, newest last, bounded.
    resolved: Mutex<VecDeque<Alert>>,
}

/// Resolved-alert history kept for `GET /v1/alerts`.
const RESOLVED_KEEP: usize = 32;

impl SloEngine {
    /// An engine evaluating `specs`, journaling transitions into
    /// `journal`.
    pub fn new(journal: Arc<EventJournal>, specs: Vec<SloSpec>) -> SloEngine {
        SloEngine {
            journal,
            inner: Mutex::new(specs.into_iter().map(SpecState::new).collect()),
            resolved: Mutex::new(VecDeque::new()),
        }
    }

    /// Replaces the evaluated specs, resetting all windows and streaks
    /// (currently firing alerts are dropped, not resolved).
    pub fn configure(&self, specs: Vec<SloSpec>) {
        *self.inner.lock().unwrap() = specs.into_iter().map(SpecState::new).collect();
    }

    /// The specs currently evaluated.
    pub fn specs(&self) -> Vec<SloSpec> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.spec.clone())
            .collect()
    }

    /// Feeds one observation (one supervisor tick): the fleet-wide
    /// healthy-replica fraction and the measured p99 query latency.
    /// Evaluates every spec's windows and journals any transitions.
    pub fn observe(&self, availability: f64, p99: Duration) {
        let mut inner = self.inner.lock().unwrap();
        for st in inner.iter_mut() {
            let bad = st.spec.bad_fraction(availability, p99);
            st.samples.push_back(bad);
            while st.samples.len() > st.spec.long_window.max(1) {
                st.samples.pop_front();
            }
            let burn_long = st.window_burn(st.spec.long_window);
            let burn_short = st.window_burn(st.spec.short_window);
            let burning = burn_long > st.spec.max_burn_rate && burn_short > st.spec.max_burn_rate;
            if burning {
                st.ok_streak = 0;
                st.breach_streak += 1;
                if st.firing.is_none() && st.breach_streak >= st.spec.fire_after.max(1) {
                    let seq = self.journal.emit(
                        Source::Supervisor,
                        EventKind::AlertFiring,
                        None,
                        vec![
                            ("slo".to_string(), TagValue::Str(st.spec.name.clone())),
                            (
                                "burn_short".to_string(),
                                TagValue::U64(burn_short.round() as u64),
                            ),
                            (
                                "burn_long".to_string(),
                                TagValue::U64(burn_long.round() as u64),
                            ),
                        ],
                    );
                    st.fired_total += 1;
                    st.firing = Some(Alert {
                        slo: st.spec.name.clone(),
                        state: AlertState::Firing,
                        seq,
                        wall_ms: wall_ms_now(),
                        burn_rate: burn_short,
                    });
                }
            } else {
                st.breach_streak = 0;
                st.ok_streak += 1;
                if st.firing.is_some() && st.ok_streak >= st.spec.resolve_after.max(1) {
                    let fired = st.firing.take().unwrap();
                    let seq = self.journal.emit(
                        Source::Supervisor,
                        EventKind::AlertResolved,
                        None,
                        vec![
                            ("slo".to_string(), TagValue::Str(st.spec.name.clone())),
                            ("fired_seq".to_string(), TagValue::U64(fired.seq)),
                        ],
                    );
                    st.resolved_total += 1;
                    let mut resolved = self.resolved.lock().unwrap();
                    resolved.push_back(Alert {
                        slo: st.spec.name.clone(),
                        state: AlertState::Resolved,
                        seq,
                        wall_ms: wall_ms_now(),
                        burn_rate: burn_short,
                    });
                    while resolved.len() > RESOLVED_KEEP {
                        resolved.pop_front();
                    }
                }
            }
        }
    }

    /// Currently firing alerts (one per burning spec, oldest transition
    /// first).
    pub fn firing(&self) -> Vec<Alert> {
        let mut out: Vec<Alert> = self
            .inner
            .lock()
            .unwrap()
            .iter()
            .filter_map(|s| s.firing.clone())
            .collect();
        out.sort_by_key(|a| a.seq);
        out
    }

    /// Recently resolved alerts, oldest first (bounded history).
    pub fn recently_resolved(&self) -> Vec<Alert> {
        self.resolved.lock().unwrap().iter().cloned().collect()
    }
}

impl MetricsSource for SloEngine {
    fn export(&self, registry: &mut MetricsRegistry) {
        let inner = self.inner.lock().unwrap();
        for st in inner.iter() {
            registry.gauge(
                "kosr_alert_active",
                "1 while the SLO's alert is firing, else 0",
                &[("slo", &st.spec.name)],
                if st.firing.is_some() { 1.0 } else { 0.0 },
            );
            for (state, v) in [("firing", st.fired_total), ("resolved", st.resolved_total)] {
                registry.counter(
                    "kosr_alert_transitions_total",
                    "Alert transitions, per SLO and state",
                    &[("slo", &st.spec.name), ("state", state)],
                    v as f64,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::validate_prometheus_text;

    #[test]
    fn seqs_are_monotone_gap_free_and_counters_survive_eviction() {
        let j = EventJournal::new(4);
        for i in 0..20u64 {
            let seq = j.emit(
                Source::Shard(0),
                EventKind::UpdatePublished,
                None,
                vec![("i".into(), TagValue::U64(i))],
            );
            assert_eq!(seq, i);
        }
        assert_eq!(j.next_seq(), 20);
        // The Info ring kept only the newest 4, but the totals remember
        // all 20.
        let retained = j.recent();
        assert_eq!(retained.len(), 4);
        assert_eq!(
            retained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![16, 17, 18, 19]
        );
        assert_eq!(j.kind_total(EventKind::UpdatePublished), 20);
    }

    #[test]
    fn info_floods_never_evict_critical_events() {
        let j = EventJournal::new(8);
        let down = j.emit(Source::Shard(1), EventKind::ReplicaDown, None, Vec::new());
        for _ in 0..100 {
            j.emit(Source::Shard(1), EventKind::EpochSwap, None, Vec::new());
        }
        let critical = j.events_since(0, Some(Severity::Critical), None);
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].seq, down);
        assert_eq!(critical[0].kind, EventKind::ReplicaDown);
        // And severity/source filters compose with since_seq.
        assert!(j
            .events_since(down + 1, Some(Severity::Critical), None)
            .is_empty());
        assert!(j.events_since(0, None, Some("gateway")).is_empty());
        assert_eq!(j.events_since(0, None, Some("shard")).len(), 9);
    }

    #[test]
    fn forwarded_events_are_resequenced_and_tagged_with_origin() {
        let local = EventJournal::new(16);
        local.emit(Source::Service, EventKind::EpochSwap, None, Vec::new());
        let fleet = EventJournal::new(16);
        fleet.emit(
            Source::Supervisor,
            EventKind::LogCompacted,
            None,
            Vec::new(),
        );
        let remote = &local.recent()[0];
        let seq = fleet.append_forwarded(remote, 2, 1);
        assert_eq!(seq, 1);
        let got = &fleet.events_since(seq, None, None)[0];
        assert_eq!(got.kind, EventKind::EpochSwap);
        assert_eq!(
            got.source,
            Source::Replica {
                shard: 2,
                replica: 1
            }
        );
        assert_eq!(got.wall_ms, remote.wall_ms);
        assert!(got
            .tags
            .iter()
            .any(|(k, v)| k == "origin_seq" && *v == TagValue::U64(0)));
    }

    fn fast_spec(objective: SloObjective, resolve_after: u32) -> SloSpec {
        SloSpec {
            name: "t".into(),
            objective,
            goal: 0.99,
            long_window: 10,
            short_window: 2,
            max_burn_rate: 5.0,
            fire_after: 1,
            resolve_after,
        }
    }

    #[test]
    fn availability_alert_fires_and_resolves_with_journaled_transitions() {
        let j = Arc::new(EventJournal::new(32));
        let engine = SloEngine::new(
            Arc::clone(&j),
            vec![fast_spec(SloObjective::Availability, 2)],
        );
        engine.observe(1.0, Duration::ZERO);
        assert!(engine.firing().is_empty());
        // One of four replicas down: 25% bad, 25x burn at a 1% budget.
        engine.observe(0.75, Duration::ZERO);
        let firing = engine.firing();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].state, AlertState::Firing);
        assert!(firing[0].burn_rate > 5.0);
        assert_eq!(j.kind_total(EventKind::AlertFiring), 1);
        // Healed, but flap damping holds the alert for resolve_after=2
        // clean observations (the short window must also drain).
        engine.observe(1.0, Duration::ZERO);
        engine.observe(1.0, Duration::ZERO);
        engine.observe(1.0, Duration::ZERO);
        engine.observe(1.0, Duration::ZERO);
        assert!(engine.firing().is_empty(), "alert resolves after healing");
        let resolved = engine.recently_resolved();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
        assert_eq!(j.kind_total(EventKind::AlertResolved), 1);
        // The resolved event points back at the firing seq.
        let events = j.events_since(0, None, None);
        let fired_seq = events
            .iter()
            .find(|e| e.kind == EventKind::AlertFiring)
            .unwrap()
            .seq;
        let resolve_event = events
            .iter()
            .find(|e| e.kind == EventKind::AlertResolved)
            .unwrap();
        assert!(resolve_event
            .tags
            .iter()
            .any(|(k, v)| k == "fired_seq" && *v == TagValue::U64(fired_seq)));
    }

    #[test]
    fn latency_objective_needs_sustained_breach_when_damped() {
        let j = Arc::new(EventJournal::new(32));
        let mut spec = fast_spec(
            SloObjective::LatencyP99 {
                target: Duration::from_millis(100),
            },
            1,
        );
        spec.fire_after = 3;
        let engine = SloEngine::new(Arc::clone(&j), vec![spec]);
        // A single breached observation does not fire (fire_after = 3).
        engine.observe(1.0, Duration::from_millis(500));
        engine.observe(1.0, Duration::from_millis(1));
        assert!(engine.firing().is_empty(), "one-tick flap is damped");
        // A sustained breach does.
        for _ in 0..3 {
            engine.observe(1.0, Duration::from_millis(500));
        }
        assert_eq!(engine.firing().len(), 1);
    }

    #[test]
    fn metrics_export_is_valid_and_carries_both_families() {
        let j = Arc::new(EventJournal::new(8));
        j.emit(Source::Shard(0), EventKind::ReplicaDown, None, Vec::new());
        j.emit(
            Source::Supervisor,
            EventKind::ReplayRecovered,
            None,
            Vec::new(),
        );
        let engine = SloEngine::new(Arc::clone(&j), SloSpec::default_set());
        engine.observe(0.5, Duration::ZERO); // fires availability
        let mut reg = MetricsRegistry::new();
        reg.collect(j.as_ref());
        reg.collect(&engine);
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("kosr_events_total{severity=\"critical\",kind=\"replica_down\"} 1"));
        assert!(text.contains("kosr_events_total{severity=\"info\",kind=\"replay_recovered\"} 1"));
        assert!(text.contains("kosr_alert_active{slo=\"availability\"} 1"));
        assert!(text.contains("kosr_alert_active{slo=\"latency_p99\"} 0"));
        assert!(
            text.contains("kosr_alert_transitions_total{slo=\"availability\",state=\"firing\"} 1")
        );
    }

    #[test]
    fn concurrent_emission_stays_gap_free() {
        let j = Arc::new(EventJournal::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let j = Arc::clone(&j);
                s.spawn(move || {
                    for _ in 0..50 {
                        j.emit(
                            Source::Shard(t),
                            EventKind::UpdatePublished,
                            None,
                            Vec::new(),
                        );
                    }
                });
            }
        });
        assert_eq!(j.next_seq(), 200);
        // Retained events are unique and sorted.
        let recent = j.recent();
        assert_eq!(recent.len(), 64);
        for pair in recent.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
