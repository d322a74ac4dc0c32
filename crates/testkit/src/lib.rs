//! # kosr-testkit
//!
//! Deterministic fault injection for the shard transport. A
//! [`FaultyTransport`] wraps any [`ShardTransport`] and, driven by a
//! seed-deterministic [`FaultSchedule`], injects the failure modes a real
//! network exhibits:
//!
//! * **drop** — the request frame never reaches the replica; the caller
//!   sees a connection fault (and fails over);
//! * **drop-response** — the replica *executes* the request but the
//!   response frame is lost: the caller sees a fault even though state
//!   changed. This is the nastiest mode — it proves update replay is
//!   idempotent;
//! * **delay** — the frame arrives late (bounded sleep);
//! * **duplicate** — the frame arrives twice; the duplicate's response is
//!   discarded, so duplicates are only observable through (idempotent)
//!   state.
//!
//! Replica **kill/restart** is the transport layer's own lever
//! ([`kosr_transport::KillSwitch`] for loopback replicas,
//! `TcpServer::shutdown` for socket ones); this crate adds the frame-level
//! faults between those extremes. Control-plane frames (ping, member
//! counts, snapshot) pass through unfaulted — their failure modes are
//! kill/restart, already covered — so fault schedules stay aligned with
//! the data-plane frame sequence regardless of planning-cache behavior.
//!
//! Everything is deterministic per seed: a failing fault schedule replays
//! exactly from its seed, which is what makes the cross-shard
//! fault-equivalence property suite debuggable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use kosr_core::Query;
use kosr_service::{TraceContext, Update, UpdateReceipt};
use kosr_transport::protocol::{Heartbeat, MemberCounts, SnapshotBlob};
use kosr_transport::{ShardTransport, TransportError, TransportTicket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Deliver normally.
    None,
    /// Lose the request frame: nothing executes, the caller faults.
    Drop,
    /// Execute, then lose the response frame: the caller faults anyway.
    DropResponse,
    /// Deliver after a bounded sleep.
    Delay,
    /// Deliver twice; the duplicate's response is discarded.
    Duplicate,
}

/// Fault mix, in per-mille of data-plane frames.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Request-drop probability (‰).
    pub drop_per_mille: u32,
    /// Response-drop probability (‰).
    pub drop_response_per_mille: u32,
    /// Delay probability (‰).
    pub delay_per_mille: u32,
    /// Duplicate probability (‰).
    pub duplicate_per_mille: u32,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            drop_per_mille: 100,
            drop_response_per_mille: 50,
            delay_per_mille: 100,
            duplicate_per_mille: 100,
            max_delay: Duration::from_millis(2),
        }
    }
}

impl FaultConfig {
    /// A schedule that never faults (wiring sanity checks).
    pub fn quiet() -> FaultConfig {
        FaultConfig {
            drop_per_mille: 0,
            drop_response_per_mille: 0,
            delay_per_mille: 0,
            duplicate_per_mille: 0,
            max_delay: Duration::ZERO,
        }
    }
}

/// A seed-deterministic stream of fault decisions with injection counters.
pub struct FaultSchedule {
    config: FaultConfig,
    rng: Mutex<StdRng>,
    drops: AtomicU64,
    response_drops: AtomicU64,
    delays: AtomicU64,
    duplicates: AtomicU64,
}

impl FaultSchedule {
    /// A schedule drawing from `seed`. Distinct replicas get distinct
    /// seeds (e.g. `seed ^ hash(shard, replica)`) so their schedules are
    /// independent yet reproducible.
    pub fn new(seed: u64, config: FaultConfig) -> FaultSchedule {
        FaultSchedule {
            config,
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0xFA17)),
            drops: AtomicU64::new(0),
            response_drops: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// Draws the next fault decision (and counts it).
    pub fn next_fault(&self) -> Fault {
        let roll = self.rng.lock().unwrap().gen_range(0..1000u32);
        let c = &self.config;
        let mut edge = c.drop_per_mille;
        if roll < edge {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return Fault::Drop;
        }
        edge += c.drop_response_per_mille;
        if roll < edge {
            self.response_drops.fetch_add(1, Ordering::Relaxed);
            return Fault::DropResponse;
        }
        edge += c.delay_per_mille;
        if roll < edge {
            self.delays.fetch_add(1, Ordering::Relaxed);
            return Fault::Delay;
        }
        edge += c.duplicate_per_mille;
        if roll < edge {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return Fault::Duplicate;
        }
        Fault::None
    }

    /// The delay used for [`Fault::Delay`] injections.
    pub fn delay(&self) -> Duration {
        if self.config.max_delay.is_zero() {
            return Duration::ZERO;
        }
        let nanos = self.config.max_delay.as_nanos().min(u64::MAX as u128) as u64;
        Duration::from_nanos(self.rng.lock().unwrap().gen_range(0..nanos.max(1)))
    }

    /// `(drops, response_drops, delays, duplicates)` injected so far.
    pub fn injected(&self) -> (u64, u64, u64, u64) {
        (
            self.drops.load(Ordering::Relaxed),
            self.response_drops.load(Ordering::Relaxed),
            self.delays.load(Ordering::Relaxed),
            self.duplicates.load(Ordering::Relaxed),
        )
    }

    /// Total injected faults of any kind.
    pub fn total_injected(&self) -> u64 {
        let (a, b, c, d) = self.injected();
        a + b + c + d
    }
}

fn dropped(what: &str) -> TransportError {
    TransportError::Connection(format!("injected fault: {what}"))
}

/// A [`ShardTransport`] wrapper injecting frame-level faults per its
/// [`FaultSchedule`].
pub struct FaultyTransport {
    inner: Arc<dyn ShardTransport>,
    schedule: Arc<FaultSchedule>,
}

impl FaultyTransport {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: Arc<dyn ShardTransport>, schedule: Arc<FaultSchedule>) -> FaultyTransport {
        FaultyTransport { inner, schedule }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Arc<dyn ShardTransport> {
        &self.inner
    }

    /// The schedule driving this wrapper.
    pub fn schedule(&self) -> &Arc<FaultSchedule> {
        &self.schedule
    }
}

impl ShardTransport for FaultyTransport {
    fn submit_traced(&self, query: Query, ctx: Option<TraceContext>) -> TransportTicket {
        // One decision per data-plane frame whether or not a context
        // rides along, so traced and untraced runs of the same schedule
        // stay aligned.
        match self.schedule.next_fault() {
            Fault::Drop => TransportTicket::ready(Err(dropped("query frame dropped"))),
            Fault::DropResponse => {
                // The replica computes the answer; the caller never sees it.
                let ticket = self.inner.submit_traced(query, ctx);
                TransportTicket::new(move || {
                    let _ = ticket.wait();
                    Err(dropped("query response dropped"))
                })
            }
            Fault::Delay => {
                let delay = self.schedule.delay();
                let ticket = self.inner.submit_traced(query, ctx);
                TransportTicket::new(move || {
                    std::thread::sleep(delay);
                    ticket.wait()
                })
            }
            Fault::Duplicate => {
                let first = self.inner.submit_traced(query.clone(), ctx);
                // The duplicate executes; its response is discarded. (An
                // unwaited ticket is exactly a response nobody reads.)
                let _duplicate = self.inner.submit_traced(query, ctx);
                first
            }
            Fault::None => self.inner.submit_traced(query, ctx),
        }
    }

    fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, TransportError> {
        match self.schedule.next_fault() {
            Fault::Drop => Err(dropped("update frame dropped")),
            Fault::DropResponse => {
                // Applied on the replica — but the publisher can't know.
                let _ = self.inner.apply_update(update);
                Err(dropped("update response dropped"))
            }
            Fault::Delay => {
                std::thread::sleep(self.schedule.delay());
                self.inner.apply_update(update)
            }
            Fault::Duplicate => {
                let first = self.inner.apply_update(update);
                // Membership duplicates are no-ops; an edge-insert
                // duplicate is refused as a non-decrease. Either way the
                // discarded response leaves consistent state.
                let _ = self.inner.apply_update(update);
                first
            }
            Fault::None => self.inner.apply_update(update),
        }
    }

    // Control plane passes through unfaulted (see the crate docs).

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

/// One frame-delivery event in a [`MuxFaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxEvent {
    /// Deliver the response for request `index` (of the plan's request
    /// set).
    Deliver(usize),
    /// Deliver a *duplicate* response for request `index` (it may or may
    /// not have been delivered already).
    Duplicate(usize),
    /// Deliver a response carrying a frame id that belongs to no request.
    Stray(u64),
}

/// A seed-deterministic delivery schedule for `n` multiplexed in-flight
/// requests: every request's response is delivered exactly once, but in a
/// random **permuted order**, interleaved with duplicates and stray
/// frames — the adversarial reader-side traffic a demultiplexer must
/// never misroute. The supervisor/mux property suites replay plans from
/// their seed, which keeps failures debuggable.
#[derive(Clone, Debug)]
pub struct MuxFaultPlan {
    events: Vec<MuxEvent>,
}

impl MuxFaultPlan {
    /// A plan over `n` requests drawn from `seed`, with roughly
    /// `dup_per_mille`/`stray_per_mille` extra duplicate/stray events
    /// (each clamped to 999‰ so a run of extras always terminates).
    pub fn generate(seed: u64, n: usize, dup_per_mille: u32, stray_per_mille: u32) -> MuxFaultPlan {
        let dup_per_mille = dup_per_mille.min(999);
        let stray_per_mille = stray_per_mille.min(999);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE3);
        // A random permutation of the mandatory deliveries…
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        // …interleaved with duplicates and strays.
        let mut events = Vec::with_capacity(n + n / 2);
        for idx in order {
            while rng.gen_range(0..1000u32) < dup_per_mille {
                events.push(MuxEvent::Duplicate(rng.gen_range(0..n as u64) as usize));
            }
            while rng.gen_range(0..1000u32) < stray_per_mille {
                // Ids far outside the request set: provably stray.
                events.push(MuxEvent::Stray(u64::MAX - rng.gen_range(0..1000u64)));
            }
            events.push(MuxEvent::Deliver(idx));
        }
        MuxFaultPlan { events }
    }

    /// The delivery events, in schedule order.
    pub fn events(&self) -> &[MuxEvent] {
        &self.events
    }

    /// How many events the plan holds (≥ the request count).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the plan has no events (only for `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// How many seeded rounds a property suite runs: `PROPTEST_CASES` when it
/// is set (at least 2), `default` otherwise. There is no upper bound, so a
/// deep run gets exactly the count it asks for.
pub fn cases(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|c: u64| c.max(2))
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = FaultSchedule::new(7, FaultConfig::default());
        let b = FaultSchedule::new(7, FaultConfig::default());
        let seq_a: Vec<Fault> = (0..64).map(|_| a.next_fault()).collect();
        let seq_b: Vec<Fault> = (0..64).map(|_| b.next_fault()).collect();
        assert_eq!(seq_a, seq_b);
        let c = FaultSchedule::new(8, FaultConfig::default());
        let seq_c: Vec<Fault> = (0..64).map(|_| c.next_fault()).collect();
        assert_ne!(seq_a, seq_c, "different seed, different schedule");
        assert_eq!(a.total_injected(), b.total_injected());
    }

    #[test]
    fn quiet_config_never_faults() {
        let s = FaultSchedule::new(1, FaultConfig::quiet());
        assert!((0..256).all(|_| s.next_fault() == Fault::None));
        assert_eq!(s.total_injected(), 0);
    }

    #[test]
    fn default_mix_injects_every_kind() {
        let s = FaultSchedule::new(3, FaultConfig::default());
        for _ in 0..2000 {
            s.next_fault();
        }
        let (drops, rdrops, delays, dups) = s.injected();
        assert!(drops > 0 && rdrops > 0 && delays > 0 && dups > 0);
        let total = s.total_injected();
        // ~35% of 2000; generous bounds, just not degenerate.
        assert!(total > 400 && total < 1100, "{total}");
    }
}
