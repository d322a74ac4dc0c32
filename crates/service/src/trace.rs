//! kosr-trace: dependency-free per-query tracing.
//!
//! A [`TraceContext`] — 128-bit trace id, parent span id, sampled flag —
//! is minted at the edge, propagated through the router fan-out and the
//! wire (the Query frame carries it as an optional trace context), and
//! recorded as [`Span`]s at every tier: gateway parse /
//! serialize, router fan-out / merge, and replica admission / queue /
//! cache / execute with the paper's pruning counters (PNE expansions,
//! dominated candidates, expansion budget consumed) as tags.
//!
//! Everything here is allocation-light and lock-cheap by construction:
//!
//! * **Deterministic ids** — span ids derive from the trace id, the
//!   parent span id and a child index through [`splitmix64`], so every
//!   tier can mint ids independently without coordination and a
//!   reassembled trace still has unique, parent-resolvable ids.
//! * **Deterministic sampling** — [`sample_decision`] hashes the trace id
//!   against a ratio, so every tier (and a retry on another replica)
//!   agrees on the decision without extra wire state.
//! * **Bounded retention** — spans and traces land in fixed-capacity
//!   rings ([`SpanRing`], inside [`TraceStore`]); the worst-N traces by
//!   wall time survive in a [`SlowQueryLog`] even after the recent ring
//!   has lapped them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// The 64-bit finalizer of splitmix64 — the id/sampling hash used
/// throughout the trace layer. Good avalanche, no dependencies.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 128-bit trace identifier, rendered as 32 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Mints a fresh id from the wall clock and a process-wide counter,
    /// mixed through [`splitmix64`] — unique without an RNG dependency.
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(nanos ^ splitmix64(n));
        let lo = splitmix64(hi ^ n.wrapping_add(1));
        let id = ((hi as u128) << 64) | lo as u128;
        TraceId(if id == 0 { 1 } else { id })
    }

    /// The high 64 bits.
    pub fn hi(&self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The low 64 bits.
    pub fn lo(&self) -> u64 {
        self.0 as u64
    }

    /// Rebuilds an id from its halves.
    pub fn from_parts(hi: u64, lo: u64) -> TraceId {
        TraceId(((hi as u128) << 64) | lo as u128)
    }

    /// The canonical 32-hex-digit rendering (what `X-Kosr-Trace-Id`
    /// carries and `/v1/traces/{id}` accepts).
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the canonical rendering. `None` unless exactly 32 hex
    /// digits.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// A span identifier, unique within its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Derives the id of the `child_index`-th child of `parent` — every tier
/// mints ids this way, so ids are unique and reproducible without any
/// cross-tier coordination.
pub fn span_id_for(trace: TraceId, parent: SpanId, child_index: u64) -> SpanId {
    SpanId(splitmix64(
        trace.lo() ^ splitmix64(parent.0) ^ splitmix64(child_index.wrapping_add(1)),
    ))
}

/// The propagated trace header: everything a downstream tier needs to
/// attach its spans to the right parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this request belongs to.
    pub trace_id: TraceId,
    /// The span the receiving tier should parent its root span under.
    pub parent_span: SpanId,
    /// Whether spans should be recorded for this trace.
    pub sampled: bool,
}

impl TraceContext {
    /// A root context for a freshly minted trace. The root span id is
    /// derived from the trace id, so any tier can recompute it.
    pub fn root(trace_id: TraceId, sampled: bool) -> TraceContext {
        TraceContext {
            trace_id,
            parent_span: SpanId(splitmix64(trace_id.lo() ^ trace_id.hi())),
            sampled,
        }
    }

    /// The context a downstream tier receives when its spans should hang
    /// under `span`.
    pub fn child_of(&self, span: SpanId) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: span,
            sampled: self.sampled,
        }
    }
}

/// Deterministic per-trace-id sampling: every tier computes the same
/// decision from the id alone. `ratio` is clamped to `[0, 1]`.
pub fn sample_decision(trace_id: TraceId, ratio: f64) -> bool {
    if ratio >= 1.0 {
        return true;
    }
    if ratio <= 0.0 {
        return false;
    }
    // 53 uniform bits → [0, 1): compare against the ratio.
    let bits = splitmix64(trace_id.lo() ^ splitmix64(trace_id.hi())) >> 11;
    (bits as f64) / ((1u64 << 53) as f64) < ratio
}

/// A span tag value.
#[derive(Clone, Debug, PartialEq)]
pub enum TagValue {
    /// An unsigned counter (PNE expansions, budget consumed, …).
    U64(u64),
    /// A short string (planner method, …).
    Str(String),
    /// A flag (cache hit, truncated, …).
    Bool(bool),
}

/// One recorded span: a named interval with a parent link and tags.
///
/// Times are *relative* — `start_us` is the offset from the parent
/// span's start and `duration_us` the span's own wall time — so spans
/// recorded on different hosts need no clock synchronization to
/// assemble into one tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique (within the trace) span id.
    pub id: SpanId,
    /// Parent span id; `None` only for the trace's root span.
    pub parent: Option<SpanId>,
    /// Stage name (`gateway`, `router`, `shard`, `replica`, `admission`,
    /// `queue`, `cache`, `execute`, `merge`, `parse`, `serialize`).
    pub name: String,
    /// Start offset from the parent span's start, in microseconds.
    pub start_us: u64,
    /// Wall time of this span, in microseconds.
    pub duration_us: u64,
    /// Tags: algorithm-level counters and flags.
    pub tags: Vec<(String, TagValue)>,
}

impl Span {
    /// A tag-less span.
    pub fn new(
        id: SpanId,
        parent: Option<SpanId>,
        name: &str,
        start_us: u64,
        duration_us: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            duration_us,
            tags: Vec::new(),
        }
    }

    /// Adds a tag (builder style).
    pub fn tag(mut self, key: &str, value: TagValue) -> Span {
        self.tags.push((key.to_string(), value));
        self
    }

    /// The value of tag `key`, if present.
    pub fn tag_value(&self, key: &str) -> Option<&TagValue> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of a `U64` tag `key`, if present.
    pub fn tag_u64(&self, key: &str) -> Option<u64> {
        match self.tag_value(key) {
            Some(TagValue::U64(v)) => Some(*v),
            _ => None,
        }
    }
}

/// One assembled trace: a flat span list forming a tree via parent ids.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The trace id.
    pub trace_id: TraceId,
    /// Total wall time observed at the tier that assembled the trace.
    pub wall_us: u64,
    /// Whether the trace was sampled (vs captured only because it was
    /// slow).
    pub sampled: bool,
    /// All spans, root first by convention (assembly does not rely on
    /// order).
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span (the unique span without a parent), if present.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// The span with id `id`, if present.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The first span named `name`, if present.
    pub fn span_named(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Children of `id`, in recorded order.
    pub fn children_of(&self, id: SpanId) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Structural validation — the invariants the trace property suite
    /// holds across fault schedules:
    ///
    /// * span ids are unique;
    /// * exactly one root (parent-less) span exists;
    /// * every parent id resolves to a span in the trace (no orphans);
    /// * every child's duration fits inside its parent's;
    /// * sequential replica stages (`admission`/`queue`/`cache`/
    ///   `execute` under a `replica` span) sum to at most their parent's
    ///   wall time.
    pub fn validate(&self) -> Result<(), String> {
        let mut ids = std::collections::HashSet::new();
        for s in &self.spans {
            if !ids.insert(s.id) {
                return Err(format!("duplicate span id {:#x} ({})", s.id.0, s.name));
            }
        }
        let roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        if roots.len() != 1 {
            return Err(format!("{} root spans, expected exactly 1", roots.len()));
        }
        for s in &self.spans {
            let Some(pid) = s.parent else { continue };
            let Some(parent) = self.span(pid) else {
                return Err(format!(
                    "orphan span {} (parent {:#x} missing)",
                    s.name, pid.0
                ));
            };
            if s.duration_us > parent.duration_us {
                return Err(format!(
                    "span {} ({}us) exceeds its parent {} ({}us)",
                    s.name, s.duration_us, parent.name, parent.duration_us
                ));
            }
        }
        // Replica stages run sequentially: their durations must sum to at
        // most the replica span's wall time.
        for replica in self.spans.iter().filter(|s| s.name == "replica") {
            let stage_sum: u64 = self
                .children_of(replica.id)
                .iter()
                .map(|c| c.duration_us)
                .sum();
            if stage_sum > replica.duration_us {
                return Err(format!(
                    "replica stages sum to {}us > replica wall {}us",
                    stage_sum, replica.duration_us
                ));
            }
        }
        if let Some(root) = self.root() {
            if root.duration_us > self.wall_us {
                return Err(format!(
                    "root span {}us exceeds trace wall {}us",
                    root.duration_us, self.wall_us
                ));
            }
        }
        Ok(())
    }
}

/// A fixed-capacity, lock-cheap ring of recent spans — the per-tier
/// diagnostic buffer. One atomic fetch-add claims a slot; each slot has
/// its own mutex, so writers never contend unless the ring laps itself.
pub struct SpanRing {
    slots: Vec<Mutex<Option<Span>>>,
    cursor: AtomicU64,
}

impl SpanRing {
    /// A ring retaining the last `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> SpanRing {
        let capacity = capacity.max(1);
        SpanRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Records `span`, overwriting the oldest entry once full.
    pub fn record(&self, span: Span) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[i].lock().unwrap() = Some(span);
    }

    /// Spans recorded so far (capped at capacity), oldest first.
    pub fn recent(&self) -> Vec<Span> {
        let written = self.cursor.load(Ordering::Relaxed) as usize;
        let cap = self.slots.len();
        let start = written.saturating_sub(cap);
        (start..written)
            .filter_map(|i| self.slots[i % cap].lock().unwrap().clone())
            .collect()
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }
}

/// A bounded worst-N log of traces by wall time: the slowest queries
/// survive even after the recent ring has lapped them.
pub struct SlowQueryLog {
    capacity: usize,
    inner: Mutex<Vec<Trace>>,
}

impl SlowQueryLog {
    /// A log retaining the `capacity` slowest traces (minimum 1).
    pub fn new(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            capacity: capacity.max(1),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Offers a trace; it is retained iff it is among the worst-N seen.
    /// Returns whether it was admitted.
    pub fn offer(&self, trace: Trace) -> bool {
        let mut log = self.inner.lock().unwrap();
        if log.len() < self.capacity {
            log.push(trace);
            log.sort_by_key(|t| std::cmp::Reverse(t.wall_us));
            return true;
        }
        // Full: replace the fastest retained trace if ours is slower.
        let last = log.len() - 1;
        if trace.wall_us > log[last].wall_us {
            log[last] = trace;
            log.sort_by_key(|t| std::cmp::Reverse(t.wall_us));
            return true;
        }
        false
    }

    /// The retained traces, slowest first.
    pub fn worst(&self) -> Vec<Trace> {
        self.inner.lock().unwrap().clone()
    }
}

/// The edge's trace retention: a recent ring, the slow-query log, and
/// summary counters for `/metrics`.
pub struct TraceStore {
    recent: Vec<Mutex<Option<Trace>>>,
    cursor: AtomicU64,
    slow: SlowQueryLog,
    sampled: AtomicU64,
    slow_only: AtomicU64,
}

impl TraceStore {
    /// A store retaining `recent_capacity` recent traces and the
    /// `slow_capacity` slowest ones.
    pub fn new(recent_capacity: usize, slow_capacity: usize) -> TraceStore {
        TraceStore {
            recent: (0..recent_capacity.max(1))
                .map(|_| Mutex::new(None))
                .collect(),
            cursor: AtomicU64::new(0),
            slow: SlowQueryLog::new(slow_capacity),
            sampled: AtomicU64::new(0),
            slow_only: AtomicU64::new(0),
        }
    }

    /// Records a sampled, fully assembled trace: it enters the recent
    /// ring and competes for the slow log.
    pub fn record(&self, trace: Trace) {
        self.sampled.fetch_add(1, Ordering::Relaxed);
        self.slow.offer(trace.clone());
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.recent.len();
        *self.recent[i].lock().unwrap() = Some(trace);
    }

    /// Records an *unsampled* request's degraded (edge-only) trace: it
    /// competes for the slow log only — the always-sample-on-slow tail
    /// capture — and is counted iff admitted.
    pub fn record_slow_only(&self, trace: Trace) -> bool {
        let admitted = self.slow.offer(trace);
        if admitted {
            self.slow_only.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Looks a trace up by id, searching the recent ring then the slow
    /// log.
    pub fn get(&self, id: TraceId) -> Option<Trace> {
        for slot in &self.recent {
            if let Some(t) = slot.lock().unwrap().as_ref() {
                if t.trace_id == id {
                    return Some(t.clone());
                }
            }
        }
        self.slow.worst().into_iter().find(|t| t.trace_id == id)
    }

    /// Recent traces, oldest first (capped at the ring capacity).
    pub fn recent(&self) -> Vec<Trace> {
        let written = self.cursor.load(Ordering::Relaxed) as usize;
        let cap = self.recent.len();
        let start = written.saturating_sub(cap);
        (start..written)
            .filter_map(|i| self.recent[i % cap].lock().unwrap().clone())
            .collect()
    }

    /// The slow-query log, slowest first.
    pub fn slow(&self) -> Vec<Trace> {
        self.slow.worst()
    }

    /// Sampled traces recorded so far.
    pub fn sampled_total(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Unsampled traces captured by the slow-tail path.
    pub fn slow_only_total(&self) -> u64 {
        self.slow_only.load(Ordering::Relaxed)
    }
}

impl crate::MetricsSource for TraceStore {
    fn export(&self, registry: &mut crate::MetricsRegistry) {
        registry.counter(
            "kosr_trace_sampled_total",
            "Sampled traces recorded at the edge",
            &[],
            self.sampled_total() as f64,
        );
        registry.counter(
            "kosr_trace_slow_only_total",
            "Unsampled slow queries captured by the tail sampler",
            &[],
            self.slow_only_total() as f64,
        );
        registry.gauge(
            "kosr_trace_recent",
            "Traces currently held in the recent ring",
            &[],
            self.recent().len() as f64,
        );
        registry.gauge(
            "kosr_trace_slow_retained",
            "Traces currently held in the slow-query log",
            &[],
            self.slow().len() as f64,
        );
        registry.gauge(
            "kosr_trace_slowest_seconds",
            "Wall time of the slowest retained trace in seconds",
            &[],
            self.slow().first().map_or(0.0, |t| t.wall_us as f64 * 1e-6),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_roundtrip_hex() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_eq!(TraceId::parse_hex(&a.to_hex()), Some(a));
        assert_eq!(a.to_hex().len(), 32);
        assert_eq!(TraceId::parse_hex("zz"), None);
        assert_eq!(TraceId::from_parts(a.hi(), a.lo()), a);
    }

    #[test]
    fn sampling_is_deterministic_and_ratio_shaped() {
        let id = TraceId::mint();
        assert_eq!(sample_decision(id, 0.5), sample_decision(id, 0.5));
        assert!(sample_decision(id, 1.0));
        assert!(!sample_decision(id, 0.0));
        let hits = (0..2000)
            .filter(|_| sample_decision(TraceId::mint(), 0.25))
            .count();
        assert!((300..700).contains(&hits), "{hits} of 2000 at ratio 0.25");
    }

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        let t = TraceId(42);
        let root = TraceContext::root(t, true).parent_span;
        let a = span_id_for(t, root, 0);
        let b = span_id_for(t, root, 1);
        let c = span_id_for(t, a, 0);
        assert_eq!(a, span_id_for(t, root, 0));
        assert!(a != b && a != c && b != c && a != root);
    }

    fn toy_trace() -> Trace {
        let t = TraceId(7);
        let root = TraceContext::root(t, true).parent_span;
        let replica = span_id_for(t, root, 0);
        Trace {
            trace_id: t,
            wall_us: 120,
            sampled: true,
            spans: vec![
                Span::new(root, None, "gateway", 0, 100),
                Span::new(replica, Some(root), "replica", 5, 80),
                Span::new(
                    span_id_for(t, replica, 0),
                    Some(replica),
                    "admission",
                    0,
                    10,
                ),
                Span::new(span_id_for(t, replica, 1), Some(replica), "execute", 10, 60),
            ],
        }
    }

    #[test]
    fn validation_accepts_wellformed_and_rejects_broken_trees() {
        let good = toy_trace();
        good.validate().unwrap();
        assert_eq!(good.root().unwrap().name, "gateway");
        assert_eq!(good.children_of(good.root().unwrap().id).len(), 1);
        assert_eq!(good.span_named("execute").unwrap().duration_us, 60);

        let mut orphan = good.clone();
        orphan.spans[1].parent = Some(SpanId(999));
        assert!(orphan.validate().unwrap_err().contains("orphan"));

        let mut dup = good.clone();
        dup.spans[3].id = dup.spans[2].id;
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut oversize = good.clone();
        oversize.spans[1].duration_us = 500;
        assert!(oversize.validate().unwrap_err().contains("exceeds"));

        let mut oversum = good.clone();
        oversum.spans[2].duration_us = 30;
        oversum.spans[3].duration_us = 60;
        assert!(oversum.validate().unwrap_err().contains("stages sum"));

        let mut tworoots = good;
        tworoots.spans[1].parent = None;
        assert!(tworoots.validate().unwrap_err().contains("root"));
    }

    #[test]
    fn span_ring_retains_the_newest_spans() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.record(Span::new(SpanId(i), None, "s", 0, i));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(
            recent.iter().map(|s| s.id.0).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn slow_log_retains_worst_n_by_wall_time() {
        let log = SlowQueryLog::new(3);
        let mk = |wall: u64| Trace {
            trace_id: TraceId(wall as u128),
            wall_us: wall,
            sampled: true,
            spans: Vec::new(),
        };
        for wall in [10, 50, 20, 5, 90, 30] {
            log.offer(mk(wall));
        }
        let walls: Vec<u64> = log.worst().iter().map(|t| t.wall_us).collect();
        assert_eq!(walls, vec![90, 50, 30]);
        assert!(!log.offer(mk(1)), "faster than everything retained");
        assert!(log.offer(mk(1000)));
        assert_eq!(log.worst()[0].wall_us, 1000);
    }

    #[test]
    fn trace_store_records_looks_up_and_counts() {
        let store = TraceStore::new(4, 2);
        let mk = |id: u128, wall: u64| Trace {
            trace_id: TraceId(id),
            wall_us: wall,
            sampled: true,
            spans: Vec::new(),
        };
        store.record(mk(1, 10));
        store.record(mk(2, 99));
        assert_eq!(store.get(TraceId(1)).unwrap().wall_us, 10);
        assert_eq!(store.recent().len(), 2);
        assert_eq!(store.sampled_total(), 2);

        // Unsampled slow-tail capture: admitted while the log has room…
        assert!(store.record_slow_only(mk(3, 50)));
        assert_eq!(store.slow_only_total(), 1);
        // …rejected when faster than the retained worst-N.
        assert!(!store.record_slow_only(mk(4, 1)));
        assert_eq!(store.slow_only_total(), 1);
        // Slow-only traces are findable by id even off the recent ring.
        assert_eq!(store.get(TraceId(3)).unwrap().wall_us, 50);

        // The ring laps: old traces fall out of `recent` but the slow log
        // keeps the worst.
        for i in 10..20 {
            store.record(mk(i, i as u64));
        }
        assert_eq!(store.recent().len(), 4);
        assert!(store.get(TraceId(2)).is_some(), "slowest survives the lap");
    }
}
