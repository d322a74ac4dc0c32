//! The end-to-end run: set the fleet up (several times, for a steady
//! `setup_s`), drive the workload's phases over two keep-alive
//! connections from two sender threads, check every answer, and report
//! what a client of the system would see.
//!
//! **Rounds.** A fleet's latency depends on where the scheduler happened
//! to place its two dozen threads: the same build answers a cached route
//! in 0.31 ms in one process and 0.44 ms in the next, and holds that
//! level for as long as the fleet lives. One long measurement therefore
//! reads one draw of that lottery. The run is cut into [`rounds_for`]
//! rounds instead; each round stands a fresh fleet up over the same
//! world, runs every phase for its share of the time, checks its answers,
//! and tears the fleet down. All rounds' samples are pooled before any
//! percentile or rate is taken.
//!
//! Which phase measures what (the first phase in a workload's list that
//! can measure a metric provides it):
//!
//! | phase | metrics |
//! |---|---|
//! | `ReadOpen` | `route_p50_ms`, `route_p95_ms` |
//! | `ReadClosed` | `max_qps` |
//! | `MixOpen` | `route_p50_ms`, `route_p95_ms`, `update_p50_ms`, `update_p90_ms` |
//! | `MixClosed` | `max_qps` (connection A's reads), `update_per_s` |
//! | `Connect` | `connect_p50_ms` |
//! | `Standing` | `update_p50_ms`, `update_p90_ms`, `delta_lag_p50_ms`, `delta_lag_p90_ms` |

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kosr_core::IndexedGraph;
use kosr_gateway::json;
use kosr_gateway::GatewayConfig;
use kosr_workloads::MembershipFlip;

use crate::answers::{self, OracleMemo, Polled, Route};
use crate::http::Conn;
use crate::sched::{in_order, run_open_loop, Clock, Sample, Timetable, WallClock};
use crate::stats::{self, Summary};
use crate::world::{
    build_world, flip_body, gen_streams, mirror, pick_probes, BuildTimings, Fleet, Phase, Probe,
    ReadNeeds, Reads, Spec, Streams, Template, World, NOMINAL_SECONDS, PROBE_EVERY,
};

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Bound on any single request; a request past it is a failure.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Long-poll parking time asked of the server. Short, so that a probe
/// flip that moves nothing costs the poller less than the gap to the next
/// probe and never makes it late for one that does.
const POLL_WAIT_MS: u64 = 40;
/// Answers verified at the post-run quiesce points, over all rounds, at
/// the nominal run length (shorter runs check proportionally fewer).
const QUIESCE_SAMPLE: usize = 200;

/// Rounds a run of `seconds` is cut into: one per 1.25 s, at most 16.
pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / 1.25).round() as usize).clamp(1, 16)
}

/// The end-to-end metric names, in reporting order.
pub const METRICS: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("route_p50_ms", "ms"),
    ("route_p95_ms", "ms"),
    ("max_qps", "1/s"),
    ("connect_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("update_per_s", "1/s"),
    ("delta_lag_p50_ms", "ms"),
    ("delta_lag_p90_ms", "ms"),
    ("rss_mib", "MiB"),
];

/// What one phase did, summed over the rounds.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase name with its parameters.
    pub name: String,
    /// Requests sent.
    pub sent: usize,
    /// Requests that succeeded (and, where checked, answered correctly).
    pub ok: usize,
    /// Requests refused, failed, timed out or answered wrongly.
    pub failed: usize,
    /// Timing summaries and notes.
    pub note: String,
}

/// The result of one end-to-end run.
pub struct Report {
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-phase accounting.
    pub phases: Vec<PhaseReport>,
    /// Rounds the run was cut into.
    pub rounds: usize,
    /// Operations attempted in all phases and checks.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Each set-up's duration.
    pub setups_s: Vec<f64>,
    /// Where the last set-up's time went.
    pub timings: BuildTimings,
    /// Seconds spent computing oracle answers (untimed).
    pub oracle_s: f64,
    /// p99 of how late the generator sent, over every open-loop phase.
    pub lag_p99_ms: f64,
    /// Replica result-cache hit ratio over the read phases.
    pub read_cache_hit_ratio: f64,
}

impl Report {
    /// `failed / attempted` — the issue's `error_share`.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Resident set size of this process in MiB (the fleet runs in-process,
/// so this is fleet + generator).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds the world and stands the fleet up `setups` times, tearing each
/// fleet down again; returns the last world and each duration.
pub fn set_up(spec: &Spec, setups: usize) -> io::Result<(World, Vec<f64>)> {
    let mut durations = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take()); // tear-down is not set-up time
        let t = Instant::now();
        let world = build_world(spec);
        let fleet = Fleet::start(&world.set, GatewayConfig::default())?;
        durations.push(t.elapsed().as_secs_f64());
        last = Some((world, fleet));
    }
    let (world, _fleet) = last.expect("at least one set-up ran");
    Ok((world, durations))
}

/// Time-boxed closed loops are budgeted at rates no run reaches, so a
/// stream never runs dry.
fn closed_loop_budget(spec: &Spec) -> (f64, f64) {
    match spec.reads {
        Reads::Hot(_) => (12_000.0, 6_000.0),
        Reads::Unique { closed_rate, .. } => (closed_rate, 450.0),
    }
}

/// How many read requests `rounds` rounds of the phases consume.
fn reads_needed(spec: &Spec, scale: f64, rounds: usize) -> ReadNeeds {
    let (closed_rate, mixed_rate) = closed_loop_budget(spec);
    let (mut open, mut closed, mut spare) = (0.0, 0.0, 0.0);
    for p in spec.phases {
        match *p {
            Phase::ReadOpen { rate, secs } => open += (rate * secs * scale).floor(),
            Phase::ReadClosed { secs } => closed += (closed_rate * secs * scale).floor(),
            Phase::MixOpen { reads, secs, .. } => spare += reads * secs * scale,
            Phase::MixClosed { secs } => spare += mixed_rate * secs * scale,
            Phase::Connect { count } => spare += (count as f64 * scale).max(4.0),
            _ => {}
        }
    }
    ReadNeeds {
        open: open as usize * rounds,
        closed: closed as usize * rounds,
        spare: spare as usize * rounds + QUIESCE_SAMPLE + 64,
    }
}

fn flips_needed(spec: &Spec, scale: f64, rounds: usize) -> usize {
    let mut n = 0.0;
    for p in spec.phases {
        n += match *p {
            Phase::MixOpen { updates, secs, .. } => updates * secs * scale,
            Phase::MixClosed { secs } => 1500.0 * secs * scale,
            Phase::Standing { rate, secs } => rate * secs * scale + 8.0,
            _ => 0.0,
        };
    }
    n as usize * rounds + 64
}

/// A read answer as the sender recorded it.
struct ReadRecord {
    template: u32,
    /// `None`: refused, failed, timed out or unparsable.
    routes: Option<Vec<Route>>,
}

fn read_once(conn: &mut Conn, t: &Template, id: u32) -> ReadRecord {
    let routes = match conn.post("/v1/route", &t.body) {
        Ok(r) if r.status == 200 => answers::parse_routes(&r.body),
        _ => None,
    };
    ReadRecord {
        template: id,
        routes,
    }
}

/// Posts one flip; `Some(epoch)` from the receipt on a 200.
fn update_once(conn: &mut Conn, f: &MembershipFlip) -> Option<u64> {
    match conn.post("/v1/update", &flip_body(f)) {
        Ok(r) if r.status == 200 => json::parse(&r.body).ok()?.get("epoch")?.as_u64(),
        _ => None,
    }
}

fn from_due_ms(samples: &[(usize, Sample)]) -> impl Iterator<Item = f64> + '_ {
    samples.iter().map(|(_, s)| s.since_due_us() / 1e3)
}

fn lags_us(samples: &[(usize, Sample)]) -> impl Iterator<Item = f64> + '_ {
    samples.iter().map(|(_, s)| s.lag_us)
}

struct Session {
    id: u64,
    routes: Vec<Route>,
}

/// Which part of the read stream a phase draws from (see
/// [`Reads::Unique`]; a hot stream is one part).
#[derive(Clone, Copy)]
enum Part {
    Open = 0,
    Closed = 1,
    Spare = 2,
}

/// Samples pooled over the rounds.
#[derive(Default)]
struct Pooled {
    route_ms: Vec<f64>,
    update_ms: Vec<f64>,
    delta_lag_ms: Vec<f64>,
    probes: usize,
    connect_ms: Vec<f64>,
    /// Verified closed-loop answers and the seconds they took.
    reads: (usize, f64),
    /// Acknowledged closed-loop updates and the seconds they took.
    updates: (usize, f64),
    generator_lag_us: Vec<f64>,
    /// `(sent, failed)` per phase of the spec's list, then the quiesce check.
    tally: Vec<(usize, usize)>,
}

/// The phase (by index) that provides each shared metric.
struct Owners {
    route: Option<usize>,
    qps: Option<usize>,
    update_latency: Option<usize>,
}

fn owners(phases: &[Phase]) -> Owners {
    let first = |wanted: &dyn Fn(&Phase) -> bool| phases.iter().position(wanted);
    Owners {
        route: first(&|p| matches!(p, Phase::ReadOpen { .. } | Phase::MixOpen { .. })),
        qps: first(&|p| matches!(p, Phase::ReadClosed { .. } | Phase::MixClosed { .. })),
        update_latency: first(&|p| matches!(p, Phase::MixOpen { .. } | Phase::Standing { .. })),
    }
}

/// One round: a fresh fleet, two connections, a reference index that
/// mirrors the round's flips.
struct Round<'a> {
    /// Duration scale of this round's phases.
    scale: f64,
    addr: SocketAddr,
    streams: &'a Streams,
    /// The world as this round's flips have left it.
    reference: IndexedGraph,
    /// Oracle answers at `reference`'s current state.
    memo: &'a mut OracleMemo,
    /// Read cursors per stream part, and the flip cursor; all carried
    /// from round to round.
    cursors: &'a mut [usize; 3],
    flip_cursor: &'a mut usize,
    /// End of this round's slice of the closed-loop part.
    closed_until: usize,
    probes: Vec<Probe>,
    /// Whether probe `i`'s vertex is currently in its category.
    probe_in: Vec<bool>,
    sessions: Vec<Session>,
    a: Conn,
    b: Option<Conn>,
    pooled: &'a mut Pooled,
    owners: &'a Owners,
}

impl<'a> Round<'a> {
    fn part(&self, part: Part) -> usize {
        match self.streams.closed_part {
            Some(_) => part as usize,
            None => 0,
        }
    }

    fn template(&self, stream_index: usize) -> (u32, &'a Template) {
        let streams = self.streams;
        let id = streams.reads[stream_index % streams.reads.len()];
        (id, &streams.templates[id as usize])
    }

    fn account(&mut self, phase: usize, sent: usize, failed: usize) {
        let slot = &mut self.pooled.tally[phase];
        slot.0 += sent;
        slot.1 += failed;
    }

    /// The canonical answer to `t` on the world as it stands.
    fn oracle(&mut self, t: &Template) -> Vec<Route> {
        let started = Instant::now();
        let want = answers::oracle(&self.reference, &t.query);
        self.memo.spent_s += started.elapsed().as_secs_f64();
        want
    }

    /// Compares recorded answers with the oracle at the current reference
    /// state; returns how many were missing or wrong.
    fn verify(&mut self, records: &[ReadRecord]) -> usize {
        let wanted: Vec<u32> = records.iter().map(|r| r.template).collect();
        self.memo
            .fill(&self.reference, &self.streams.templates, &wanted);
        records
            .iter()
            .filter(|r| r.routes.as_ref() != self.memo.get(r.template))
            .count()
    }

    /// Counts records that carry no well-formed 200 answer (used where
    /// the world moves under the reads, so no single oracle state applies).
    fn unanswered(records: &[ReadRecord]) -> usize {
        records.iter().filter(|r| r.routes.is_none()).count()
    }

    fn mirror_flips(&mut self, flips: &[MembershipFlip]) {
        for f in flips {
            mirror(&mut self.reference, f);
        }
        if !flips.is_empty() {
            self.memo.clear();
        }
    }

    /// The next `n` flips of the stream (fewer once it runs dry).
    fn take_flips(&mut self, n: usize) -> &'a [MembershipFlip] {
        let all: &'a [MembershipFlip] = &self.streams.flips;
        let from = (*self.flip_cursor).min(all.len());
        let to = (from + n).min(all.len());
        *self.flip_cursor = to;
        &all[from..to]
    }

    fn warm(&mut self, phase: usize) {
        let streams = self.streams;
        let b = self.b.as_mut().expect("connection B open");
        if streams.warm.is_empty() {
            // One pass over the distinct templates fills the replica
            // caches; from here on a hot stream is answered from them.
            let mut records = Vec::with_capacity(streams.templates.len());
            for (i, t) in streams.templates.iter().enumerate() {
                let conn = if i % 2 == 0 { &mut self.a } else { &mut *b };
                records.push(read_once(conn, t, i as u32));
            }
            let failed = self.verify(&records);
            self.account(phase, records.len(), failed);
        } else {
            let got: Vec<Option<Vec<Route>>> = streams
                .warm
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let conn = if i % 2 == 0 { &mut self.a } else { &mut *b };
                    read_once(conn, t, 0).routes
                })
                .collect();
            let mut failed = 0;
            for (t, got) in streams.warm.iter().zip(got) {
                failed += usize::from(got != Some(self.oracle(t)));
            }
            self.account(phase, streams.warm.len(), failed);
        }
    }

    fn read_open(&mut self, phase: usize, rate: f64, secs: f64) {
        let part = self.part(Part::Open);
        let base = self.cursors[part];
        let origin = Instant::now() + Duration::from_millis(2);
        let streams = self.streams;
        // One timetable, two connections: whichever is free carries the
        // next request, so one slow answer holds up one connection only.
        let table = Timetable::at_rate(rate, secs * self.scale);
        let next = AtomicUsize::new(0);
        let sender = |conn: &mut Conn| {
            let mut records = Vec::new();
            let samples = run_open_loop(
                &mut WallClock::starting_at(origin),
                table,
                || next.fetch_add(1, Ordering::Relaxed),
                |i| {
                    let id = streams.reads[(base + i) % streams.reads.len()];
                    let rec = read_once(conn, &streams.templates[id as usize], id);
                    let ok = rec.routes.is_some();
                    records.push(rec);
                    ok
                },
            );
            (samples, records)
        };
        let b = self.b.as_mut().expect("connection B open");
        let a = &mut self.a;
        let ((mut samples, mut records), (sb, rb)) = std::thread::scope(|s| {
            let other = s.spawn(|| sender(b));
            (sender(a), other.join().expect("sender B panicked"))
        });
        samples.extend(sb);
        records.extend(rb);
        self.cursors[part] += records.len();
        let failed = self.verify(&records);
        self.pooled.generator_lag_us.extend(lags_us(&samples));
        if self.owners.route == Some(phase) {
            self.pooled.route_ms.extend(from_due_ms(&samples));
        }
        self.account(phase, records.len(), failed);
    }

    fn read_closed(&mut self, phase: usize, secs: f64) {
        let secs = secs * self.scale;
        let streams = self.streams;
        let part = self.part(Part::Closed);
        // A unique stream runs its whole slice of the closed-loop part
        // however long that takes (bounded, should the system collapse);
        // a hot stream runs for the time given.
        let (until, budget) = match streams.closed_part {
            Some(_) => (self.closed_until, secs * 4.0 + 1.0),
            None => (usize::MAX, secs),
        };
        let cursor = AtomicUsize::new(self.cursors[part]);
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(budget);
        let lane = |conn: &mut Conn| {
            let mut records = Vec::new();
            let mut busy = Duration::ZERO;
            while Instant::now() < deadline {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                if at >= until {
                    break;
                }
                let id = streams.reads[at % streams.reads.len()];
                records.push(read_once(conn, &streams.templates[id as usize], id));
                busy = started.elapsed();
            }
            (records, busy)
        };
        let b = self.b.as_mut().expect("connection B open");
        let a = &mut self.a;
        let ((mut records, busy_a), (rb, busy_b)) = std::thread::scope(|s| {
            let other = s.spawn(|| lane(b));
            (lane(a), other.join().expect("sender B panicked"))
        });
        // Each connection's time up to its own last answer: the one that
        // finds the slice exhausted first does not wait for the other.
        let elapsed = (busy_a + busy_b).as_secs_f64() / 2.0;
        records.extend(rb);
        self.cursors[part] = cursor.load(Ordering::Relaxed).min(until);
        let failed = self.verify(&records);
        if self.owners.qps == Some(phase) {
            self.pooled.reads.0 += records.len() - failed;
            self.pooled.reads.1 += elapsed;
        }
        self.account(phase, records.len(), failed);
    }

    fn mix_open(&mut self, phase: usize, reads: f64, updates: f64, secs: f64) {
        let secs = secs * self.scale;
        let part = self.part(Part::Spare);
        let base = self.cursors[part];
        let origin = Instant::now() + Duration::from_millis(2);
        let streams = self.streams;
        let update_table = Timetable::at_rate(updates, secs);
        let flips = self.take_flips(update_table.count);
        let b = self.b.as_mut().expect("connection B open");
        let a = &mut self.a;
        let ((read_samples, records), update_samples) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let table = Timetable {
                    count: flips.len(),
                    ..update_table
                };
                run_open_loop(
                    &mut WallClock::starting_at(origin),
                    table,
                    in_order(),
                    |i| update_once(b, &flips[i]).is_some(),
                )
            });
            let table = Timetable::at_rate(reads, secs);
            let mut records = Vec::with_capacity(table.count);
            let samples = run_open_loop(
                &mut WallClock::starting_at(origin),
                table,
                in_order(),
                |i| {
                    let id = streams.reads[(base + i) % streams.reads.len()];
                    let rec = read_once(a, &streams.templates[id as usize], id);
                    let ok = rec.routes.is_some();
                    records.push(rec);
                    ok
                },
            );
            (
                (samples, records),
                writer.join().expect("sender B panicked"),
            )
        });
        self.cursors[part] += records.len();
        self.mirror_flips(flips);
        self.pooled
            .generator_lag_us
            .extend(lags_us(&read_samples).chain(lags_us(&update_samples)));
        if self.owners.route == Some(phase) {
            self.pooled.route_ms.extend(from_due_ms(&read_samples));
        }
        if self.owners.update_latency == Some(phase) {
            self.pooled.update_ms.extend(from_due_ms(&update_samples));
        }
        let unacked = update_samples.iter().filter(|(_, s)| !s.ok).count();
        self.account(
            phase,
            records.len() + flips.len(),
            Self::unanswered(&records) + unacked,
        );
    }

    fn mix_closed(&mut self, phase: usize, secs: f64) {
        let secs = secs * self.scale;
        let streams = self.streams;
        let part = self.part(Part::Spare);
        let base = self.cursors[part];
        let flips_from = (*self.flip_cursor).min(streams.flips.len());
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(secs);
        let b = self.b.as_mut().expect("connection B open");
        let a = &mut self.a;
        let (records, (sent_flips, acked)) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let (mut sent, mut acked) = (0usize, 0usize);
                while Instant::now() < deadline && flips_from + sent < streams.flips.len() {
                    let flip = &streams.flips[flips_from + sent];
                    acked += usize::from(update_once(b, flip).is_some());
                    sent += 1;
                }
                (sent, acked)
            });
            let mut records = Vec::new();
            while Instant::now() < deadline {
                let id = streams.reads[(base + records.len()) % streams.reads.len()];
                records.push(read_once(a, &streams.templates[id as usize], id));
            }
            (records, writer.join().expect("sender B panicked"))
        });
        let elapsed = started.elapsed().as_secs_f64();
        self.cursors[part] += records.len();
        *self.flip_cursor = flips_from + sent_flips;
        self.mirror_flips(&streams.flips[flips_from..flips_from + sent_flips]);
        let unanswered = Self::unanswered(&records);
        if self.owners.qps == Some(phase) {
            self.pooled.reads.0 += records.len() - unanswered;
            self.pooled.reads.1 += elapsed;
        }
        self.pooled.updates.0 += acked;
        self.pooled.updates.1 += elapsed;
        self.account(
            phase,
            records.len() + sent_flips,
            unanswered + (sent_flips - acked),
        );
    }

    fn connect(&mut self, phase: usize, count: usize) -> io::Result<()> {
        let count = ((count as f64 * self.scale) as usize).max(4);
        let part = self.part(Part::Spare);
        // Connection B steps aside: never more than two sockets open.
        self.b = None;
        let mut records = Vec::with_capacity(count);
        for i in 0..count {
            let (id, t) = self.template(self.cursors[part] + i);
            let started = Instant::now();
            let answer = Conn::open(self.addr, REQUEST_TIMEOUT)
                .and_then(|mut c| c.call("POST", "/v1/route", Some(&t.body), false));
            self.pooled
                .connect_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            records.push(ReadRecord {
                template: id,
                routes: match answer {
                    Ok(r) if r.status == 200 => answers::parse_routes(&r.body),
                    _ => None,
                },
            });
        }
        self.cursors[part] += count;
        self.b = Some(Conn::open(self.addr, REQUEST_TIMEOUT)?);
        let failed = self.verify(&records);
        self.account(phase, count, failed);
        Ok(())
    }

    fn subscribe(&mut self, phase: usize) {
        let streams = self.streams;
        let mut failed = 0;
        for t in &streams.sessions {
            let opened = match self.a.post("/v1/subscribe", &t.body) {
                Ok(r) if r.status == 200 => json::parse(&r.body).ok().and_then(|v| {
                    Some(Session {
                        id: v.get("session")?.as_u64()?,
                        routes: answers::routes_of(&v)?,
                    })
                }),
                _ => None,
            };
            let want = self.oracle(t);
            // A failed registration keeps its slot (indices stay aligned
            // with `streams.sessions`); its polls answer 404 and count as
            // failures too.
            let session = opened.unwrap_or(Session {
                id: u64::MAX,
                routes: Vec::new(),
            });
            failed += usize::from(session.routes != want);
            self.sessions.push(session);
        }
        let started = Instant::now();
        self.probes = pick_probes(&self.reference, &streams.sessions);
        self.probe_in = vec![false; self.probes.len()];
        self.memo.spent_s += started.elapsed().as_secs_f64();
        self.account(phase, streams.sessions.len(), failed);
    }

    fn standing(&mut self, phase: usize, rate: f64, secs: f64) {
        let secs = secs * self.scale;
        let table = Timetable::at_rate(rate, secs);
        let probes = self.probes.clone();
        // The timetable's flips: every PROBE_EVERY-th toggles the next
        // probe session's source in or out of its first category; the
        // rest come from the flip stream, minus any that would touch a
        // probe's own membership.
        let mut flips: Vec<MembershipFlip> = Vec::with_capacity(table.count);
        let mut probe_of: Vec<usize> = Vec::new(); // flip index of probe j
        for i in 0..table.count {
            if i % PROBE_EVERY == PROBE_EVERY - 1 && !probes.is_empty() {
                let p = probe_of.len() % probes.len();
                self.probe_in[p] = !self.probe_in[p];
                probe_of.push(flips.len());
                flips.push(MembershipFlip {
                    vertex: probes[p].vertex,
                    category: probes[p].category,
                    insert: self.probe_in[p],
                });
            } else {
                let plain = loop {
                    match self.take_flips(1).first().copied() {
                        Some(f)
                            if probes
                                .iter()
                                .any(|p| p.vertex == f.vertex && p.category == f.category) => {}
                        other => break other,
                    }
                };
                flips.extend(plain);
            }
        }
        let table = Timetable {
            count: flips.len(),
            ..table
        };
        let n_probes = probe_of.len();
        // Sender A publishes what it knows about probe j here; poller B
        // reads it to tell the probe's delta from a stray one. `acked`
        // holds the receipt's epoch + 1, or NO_RECEIPT for a failed post.
        const NO_RECEIPT: u64 = u64::MAX;
        let sent: Vec<AtomicBool> = (0..n_probes).map(|_| AtomicBool::new(false)).collect();
        let acked: Vec<AtomicU64> = (0..n_probes).map(|_| AtomicU64::new(0)).collect();
        let origin = Instant::now() + Duration::from_millis(2);
        let session_ids: Vec<u64> = probes.iter().map(|p| self.sessions[p.session].id).collect();

        let b = self.b.as_mut().expect("connection B open");
        let a = &mut self.a;
        let (samples, (polled, arrivals_us, poll_failures)) = std::thread::scope(|s| {
            let poller = s.spawn(|| {
                let clock = WallClock::starting_at(origin);
                let mut polled: Vec<(usize, Polled)> = Vec::new();
                let mut arrivals_us: Vec<Option<f64>> = vec![None; n_probes];
                let mut poll_failures = 0usize;
                'probes: for j in 0..n_probes {
                    let p = j % session_ids.len();
                    let path = format!(
                        "/v1/subscribe/{}/poll?wait_ms={POLL_WAIT_MS}",
                        session_ids[p]
                    );
                    let give_up_us = table.due_us(probe_of[j]) + 5e6;
                    loop {
                        // The hub queues a publish's deltas before the
                        // publish returns, so a poll issued after the
                        // receipt was seen finds the probe's delta or
                        // proves there is none.
                        let receipt_seen = acked[j].load(Ordering::Acquire) != 0;
                        let response = b.get(&path);
                        let now_us = clock.now_us();
                        let body = match response {
                            Ok(r) if r.status == 200 => answers::parse_poll(&r.body),
                            _ => None,
                        };
                        let Some(body) = body else {
                            poll_failures += 1;
                            continue 'probes;
                        };
                        let mut receipt = acked[j].load(Ordering::Acquire);
                        if !body.is_empty() {
                            // Deltas in hand, receipt possibly still in
                            // flight to A: wait for it to classify them.
                            while receipt == 0
                                && sent[j].load(Ordering::Acquire)
                                && clock.now_us() < give_up_us
                            {
                                std::thread::sleep(Duration::from_micros(50));
                                receipt = acked[j].load(Ordering::Acquire);
                            }
                        }
                        let hit =
                            receipt != 0 && receipt != NO_RECEIPT && body.carries(receipt - 1);
                        if !body.is_empty() {
                            polled.push((p, body));
                        }
                        if hit {
                            arrivals_us[j] = Some(now_us);
                        }
                        if hit || receipt_seen || now_us > give_up_us {
                            continue 'probes;
                        }
                    }
                }
                (polled, arrivals_us, poll_failures)
            });
            let mut next_probe = 0usize;
            let mut clock = WallClock::starting_at(origin);
            let samples = run_open_loop(&mut clock, table, in_order(), |i| {
                let probe =
                    (next_probe < n_probes && probe_of[next_probe] == i).then_some(next_probe);
                if let Some(j) = probe {
                    sent[j].store(true, Ordering::Release);
                }
                let epoch = update_once(a, &flips[i]);
                if let Some(j) = probe {
                    acked[j].store(epoch.map_or(NO_RECEIPT, |e| e + 1), Ordering::Release);
                    next_probe += 1;
                }
                epoch.is_some()
            });
            (samples, poller.join().expect("poller B panicked"))
        });

        for (p, body) in &polled {
            body.apply(&mut self.sessions[probes[*p].session].routes);
        }
        self.mirror_flips(&flips);
        self.pooled.generator_lag_us.extend(lags_us(&samples));
        if self.owners.update_latency == Some(phase) {
            self.pooled.update_ms.extend(from_due_ms(&samples));
        }
        self.pooled.probes += n_probes;
        self.pooled.delta_lag_ms.extend(
            arrivals_us
                .iter()
                .zip(&probe_of)
                .filter_map(|(at, &i)| at.map(|t| (t - table.due_us(i)) / 1e3)),
        );
        let failed = samples.iter().filter(|(_, s)| !s.ok).count() + poll_failures;
        self.account(phase, flips.len() + n_probes, failed);
    }

    /// The check at the round's quiet end: a sample of reads against the
    /// mirrored reference, and every session's replayed top-k against a
    /// fresh canonical answer.
    fn quiesce(&mut self, phase: usize, sample: usize) {
        let streams = self.streams;
        let step = (streams.reads.len() / sample.max(1)).max(1);
        let records: Vec<ReadRecord> = (0..sample)
            .map(|i| {
                let (id, t) = self.template(i * step);
                read_once(&mut self.a, t, id)
            })
            .collect();
        let mut failed = self.verify(&records);
        for i in 0..self.sessions.len() {
            let path = format!("/v1/subscribe/{}/poll?wait_ms=0", self.sessions[i].id);
            let drained = match self.a.get(&path) {
                Ok(r) if r.status == 200 => answers::parse_poll(&r.body),
                _ => None,
            };
            let want = self.oracle(&streams.sessions[i]);
            match drained {
                Some(body) => {
                    body.apply(&mut self.sessions[i].routes);
                    failed += usize::from(self.sessions[i].routes != want);
                }
                None => failed += 1,
            }
        }
        self.account(phase, records.len() + self.sessions.len(), failed);
    }
}

/// Sums `(cache_hits, completed)` over the serving replicas.
fn cache_counters(fleet: &Fleet) -> (u64, u64) {
    fleet
        .services
        .iter()
        .flatten()
        .map(|s| s.stats())
        .fold((0, 0), |(h, c), s| (h + s.cache_hits, c + s.completed))
}

fn phase_name(p: &Phase, scale: f64, sessions: usize) -> String {
    match *p {
        Phase::Warm => "warm (untimed)".into(),
        Phase::ReadOpen { rate, secs } => format!("read_open {rate}/s x {:.2}s", secs * scale),
        Phase::ReadClosed { secs } => format!("read_closed x {:.2}s", secs * scale),
        Phase::MixOpen {
            reads,
            updates,
            secs,
        } => format!(
            "mix_open {reads}/s reads + {updates}/s updates x {:.2}s",
            secs * scale
        ),
        Phase::MixClosed { secs } => format!("mix_closed x {:.2}s", secs * scale),
        Phase::Connect { .. } => "connect".into(),
        Phase::Subscribe => format!("subscribe x {sessions} (untimed)"),
        Phase::Standing { rate, secs } => format!(
            "standing {rate}/s x {:.2}s, {sessions} sessions",
            secs * scale
        ),
    }
}

/// Runs `spec` end to end for `seconds` of timed phases.
pub fn run(spec: &Spec, seed: u64, seconds: f64, setups: usize) -> io::Result<Report> {
    let rounds = rounds_for(seconds);
    let round_scale = seconds / NOMINAL_SECONDS / rounds as f64;
    let (world, setups_s) = set_up(spec, setups)?;
    let streams = gen_streams(
        spec,
        &world,
        seed,
        reads_needed(spec, round_scale, rounds),
        flips_needed(spec, round_scale, rounds),
    );
    let owners = owners(spec.phases);
    let mut pooled = Pooled {
        tally: vec![(0, 0); spec.phases.len() + 1],
        ..Pooled::default()
    };
    let mut memo = OracleMemo::default();
    let (closed_from, closed_len) = streams.closed_part.unwrap_or((0, 0));
    let mut cursors = [0, closed_from, closed_from + closed_len];
    let mut flip_cursor = 0usize;
    let (mut read_hits, mut read_done) = (0u64, 0u64);
    let mut rss = f64::NAN;

    for r in 0..rounds {
        let fleet = Fleet::start(&world.set, GatewayConfig::default())?;
        let addr = fleet.gateway.addr();
        let mut round = Round {
            scale: round_scale,
            addr,
            streams: &streams,
            reference: world.ig.clone(),
            memo: &mut memo,
            cursors: &mut cursors,
            flip_cursor: &mut flip_cursor,
            closed_until: closed_from + closed_len * (r + 1) / rounds,
            probes: Vec::new(),
            probe_in: Vec::new(),
            sessions: Vec::new(),
            a: Conn::open(addr, REQUEST_TIMEOUT)?,
            b: Some(Conn::open(addr, REQUEST_TIMEOUT)?),
            pooled: &mut pooled,
            owners: &owners,
        };
        for (i, phase) in spec.phases.iter().enumerate() {
            let before = cache_counters(&fleet);
            match *phase {
                Phase::Warm => round.warm(i),
                Phase::ReadOpen { rate, secs } => round.read_open(i, rate, secs),
                Phase::ReadClosed { secs } => round.read_closed(i, secs),
                Phase::MixOpen {
                    reads,
                    updates,
                    secs,
                } => round.mix_open(i, reads, updates, secs),
                Phase::MixClosed { secs } => round.mix_closed(i, secs),
                Phase::Connect { count } => round.connect(i, count)?,
                Phase::Subscribe => round.subscribe(i),
                Phase::Standing { rate, secs } => round.standing(i, rate, secs),
            }
            if matches!(phase, Phase::ReadOpen { .. } | Phase::ReadClosed { .. }) {
                let after = cache_counters(&fleet);
                read_hits += after.0 - before.0;
                read_done += after.1 - before.1;
            }
        }
        rss = rss_mib();
        let sample = (QUIESCE_SAMPLE as f64 * (seconds / NOMINAL_SECONDS).min(1.0)) as usize;
        round.quiesce(spec.phases.len(), sample.max(16).div_ceil(rounds));
        // The next round starts from the base world again.
        round.memo.clear();
        drop(round);
        drop(fleet);
    }

    let route = Summary::of(&pooled.route_ms, 0.95);
    let update = Summary::of(&pooled.update_ms, 0.9);
    let lag = Summary::of(&pooled.delta_lag_ms, 0.9);
    let connect = Summary::of(&pooled.connect_ms, 0.95);
    let qps = pooled.reads.0 as f64 / pooled.reads.1;
    let ups = pooled.updates.0 as f64 / pooled.updates.1;
    let metrics = BTreeMap::from([
        ("setup_s", stats::median(&setups_s)),
        ("route_p50_ms", route.p50),
        ("route_p95_ms", route.tail),
        ("max_qps", qps),
        ("connect_p50_ms", connect.p50),
        ("update_p50_ms", update.p50),
        ("update_p90_ms", update.tail),
        ("update_per_s", ups),
        ("delta_lag_p50_ms", lag.p50),
        ("delta_lag_p90_ms", lag.tail),
        ("rss_mib", rss),
    ]);

    let mut phases: Vec<PhaseReport> = spec
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut notes: Vec<String> = Vec::new();
            if owners.route == Some(i) {
                notes.push(format!("route ms from due: {route}"));
            }
            if owners.update_latency == Some(i) {
                notes.push(format!("update ms from due: {update}"));
            }
            if owners.qps == Some(i) {
                notes.push(format!("{qps:.1} verified reads/s"));
            }
            match p {
                Phase::MixClosed { .. } => notes.push(format!("{ups:.1} updates/s")),
                Phase::Connect { .. } => {
                    notes.push(format!("connect+request+close ms: {connect}"))
                }
                Phase::Standing { .. } => notes.push(format!(
                    "delta lag ms from due: {lag} ({} of {} probe flips moved their session's top-k)",
                    pooled.delta_lag_ms.len(),
                    pooled.probes
                )),
                _ => {}
            }
            let (sent, failed) = pooled.tally[i];
            PhaseReport {
                name: phase_name(p, round_scale, spec.sessions),
                sent,
                ok: sent - failed,
                failed,
                note: notes.join("; "),
            }
        })
        .collect();
    let (sent, failed) = pooled.tally[spec.phases.len()];
    phases.push(PhaseReport {
        name: "quiesce".into(),
        sent,
        ok: sent - failed,
        failed,
        note: "sampled reads + every session's replayed top-k vs the mirrored reference".into(),
    });

    stats::sort(&mut pooled.generator_lag_us);
    Ok(Report {
        metrics,
        rounds,
        attempted: pooled.tally.iter().map(|t| t.0 as u64).sum(),
        failed: pooled.tally.iter().map(|t| t.1 as u64).sum(),
        phases,
        setups_s,
        timings: world.timings,
        oracle_s: memo.spent_s,
        lag_p99_ms: stats::percentile(&pooled.generator_lag_us, 0.99) / 1e3,
        read_cache_hit_ratio: read_hits as f64 / read_done.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::specs;

    #[test]
    fn every_workload_measures_every_metric() {
        for spec in specs() {
            let o = owners(spec.phases);
            assert!(o.route.is_some(), "{}: route latency", spec.name);
            assert!(o.qps.is_some(), "{}: max_qps", spec.name);
            assert!(o.update_latency.is_some(), "{}: update latency", spec.name);
            for wanted in ["MixClosed", "Connect", "Standing", "Subscribe"] {
                assert!(
                    spec.phases
                        .iter()
                        .any(|p| format!("{p:?}").starts_with(wanted)),
                    "{}: needs a {wanted} phase",
                    spec.name
                );
            }
            let subscribe = spec.phases.iter().position(|p| *p == Phase::Subscribe);
            let standing = spec
                .phases
                .iter()
                .position(|p| matches!(p, Phase::Standing { .. }));
            assert!(subscribe < standing, "{}: sessions first", spec.name);
        }
    }

    #[test]
    fn the_first_capable_phase_owns_a_metric() {
        let phases = [
            Phase::Warm,
            Phase::MixOpen {
                reads: 1.0,
                updates: 1.0,
                secs: 1.0,
            },
            Phase::MixClosed { secs: 1.0 },
            Phase::ReadOpen {
                rate: 1.0,
                secs: 1.0,
            },
            Phase::ReadClosed { secs: 1.0 },
            Phase::Standing {
                rate: 1.0,
                secs: 1.0,
            },
        ];
        let o = owners(&phases);
        assert_eq!(
            (o.route, o.qps, o.update_latency),
            (Some(1), Some(2), Some(1))
        );
    }

    #[test]
    fn rounds_scale_with_the_run_length() {
        assert_eq!(rounds_for(0.6), 1);
        assert_eq!(rounds_for(5.0), 4);
        assert_eq!(rounds_for(20.0), 16);
        assert_eq!(rounds_for(60.0), 16);
    }
}
