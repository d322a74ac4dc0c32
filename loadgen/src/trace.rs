//! The traced run: the per-layer ledger. Separate from the end-to-end
//! run, single-threaded, and measured from outside — every number is a
//! timing of (or a counter read through) a layer's public functions.
//!
//! The same request stream is replayed up a **ladder** of entry points,
//! each rung a span whose child is the rung below:
//!
//! ```text
//! read:   IndexedGraph::run_canonical_opt → KosrService::submit → InProcTransport
//!         → ShardRouter over TCP → keep-alive HTTP
//! write:  IndexedGraph::{insert,remove}_membership → KosrService::apply_update
//!         → LiveUpdateBus::publish → publish with the hub's sessions → POST /v1/update
//! ```
//!
//! A layer's self time is its rung's p50 minus the rung below's, so the
//! self times sum to the concurrency-1 HTTP p50 by construction. Every
//! rung gets freshly built services (or a fresh fleet), so all rungs see
//! the same cache behaviour for the same stream. Rungs below the router
//! replay each request's per-shard shadow queries one after the other
//! and charge the request the slowest shard — the router waits for it.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kosr_core::{IndexedGraph, KosrOutcome, Method, Query};
use kosr_gateway::http::{read_request, HttpLimits};
use kosr_gateway::json::{self, Json};
use kosr_gateway::GatewayConfig;
use kosr_graph::{CategoryId, VertexId};
use kosr_hoplabel::TargetDistancer;
use kosr_index::{CategoryBounds, LabelNn, LabelTarget, NearestNeighbors, NenFinder};
use kosr_service::{KosrService, ServiceConfig};
use kosr_shard::{merge_topk, ShardTransport};
use kosr_subscribe::{HubStats, SessionId};
use kosr_transport::protocol::{
    decode_request, decode_response, encode_request, encode_response, RemoteResponse, Request,
    Response,
};
use kosr_transport::{InProcTransport, TcpTransport};
use kosr_workloads::MembershipFlip;

use crate::answers::{self, OracleMemo};
use crate::e2e::set_up;
use crate::http::Conn;
use crate::sched::{backlog_grew, run_open_loop, Sample, Timetable, WallClock};
use crate::stats::{self, percentile};
use crate::world::{
    flip_body, flip_update, gen_streams, mirror, Fleet, ReadNeeds, Reads, Spec, Streams, World,
    NOMINAL_SECONDS, REPLICAS, SHARDS,
};

/// Flips replayed up the write ladder (at the nominal `--seconds`).
const LADDER_FLIPS: usize = 120;
/// Seconds per open-loop rate step (at the nominal `--seconds`).
const STEP_SECS: f64 = 1.2;
/// Seconds per closed-loop half of the tracing-overhead pair.
const OVERHEAD_SECS: f64 = 1.0;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Fresh service sets / fleets each ladder rung is spread over (one in
/// runs too short to split).
const SEGMENTS: usize = 3;
/// Most reads replayed into a write-ladder segment's caches before its
/// flips (a fifth of the read ladder, if that is less).
const WARM_READS: usize = 200;

/// The per-layer metric names with their units, in reporting order.
pub const METRICS: &[(&str, &str)] = &[
    ("gateway.self_us", "us"),
    ("gateway.http_parse_us", "us"),
    ("gateway.json_decode_us", "us"),
    ("gateway.json_encode_us", "us"),
    ("gateway.healthz_rtt_us", "us"),
    ("gateway.trace_sampling_added_us", "us"),
    ("gateway.status_2xx", "count"),
    ("gateway.status_4xx", "count"),
    ("gateway.status_5xx", "count"),
    ("gateway.conn_rejected", "count"),
    ("gateway.conn_setup_us", "us"),
    ("gateway.update_self_us", "us"),
    ("transport.codec_self_us", "us"),
    ("transport.tcp_self_us", "us"),
    ("transport.codec_req_us", "us"),
    ("transport.codec_resp_us", "us"),
    ("transport.tcp_pipelined_qps", "1/s"),
    ("shard.plan_fanout_us", "us"),
    ("shard.fanout_width", "count"),
    ("shard.bound_skips", "count"),
    ("shard.cached_shards_ratio", "ratio"),
    ("shard.merge_us", "us"),
    ("shard.failovers", "count"),
    ("shard.publish_self_us", "us"),
    ("shard.replicas_touched", "count"),
    ("shard.deferred_replicas", "count"),
    ("shard.invalidated_per_update", "count"),
    ("service.self_us", "us"),
    ("service.plan_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.prefix_hit_ratio", "ratio"),
    ("service.witness_hit_ratio", "ratio"),
    ("service.method_share.kpne", "ratio"),
    ("service.method_share.pk", "ratio"),
    ("service.method_share.sk", "ratio"),
    ("service.busy_ratio", "ratio"),
    ("service.apply_update_us", "us"),
    ("service.apply_update_contended_us", "us"),
    ("service.apply_self_us", "us"),
    ("service.index_clone_ms", "ms"),
    ("core.self_us", "us"),
    ("core.sk_us", "us"),
    ("core.pk_us", "us"),
    ("core.kpne_us", "us"),
    ("core.examined_per_query", "count"),
    ("core.nn_per_query", "count"),
    ("core.dominated_per_query", "count"),
    ("core.bound_pruned_per_query", "count"),
    ("core.heap_peak_p99", "count"),
    ("core.time_share.nn", "ratio"),
    ("core.time_share.queue", "ratio"),
    ("core.time_share.estimation", "ratio"),
    ("index.find_nn_us", "us"),
    ("index.find_nen_us", "us"),
    ("index.seq_bounds_us", "us"),
    ("index.insert_membership_us", "us"),
    ("index.remove_membership_us", "us"),
    ("index.apply_self_us", "us"),
    ("index.snapshot_encode_ms", "ms"),
    ("index.snapshot_install_ms", "ms"),
    ("index.snapshot_bytes", "bytes"),
    ("index.bytes", "bytes"),
    ("index.inverted_build_s", "s"),
    ("index.bounds_build_s", "s"),
    ("hoplabel.distance_ns", "ns"),
    ("hoplabel.target_distance_ns", "ns"),
    ("hoplabel.min_join_ns", "ns"),
    ("hoplabel.avg_label_len", "count"),
    ("hoplabel.build_s", "s"),
    ("ch.build_s", "s"),
    ("graph.partition_ms", "ms"),
    ("subscribe.sweep_self_us", "us"),
    ("subscribe.subscribe_us", "us"),
    ("subscribe.poll_us", "us"),
    ("subscribe.wake_ratio", "ratio"),
    ("subscribe.recomputes_per_update", "count"),
    ("subscribe.empty_diff_ratio", "ratio"),
    ("subscribe.skip.category", "count"),
    ("subscribe.skip.shard", "count"),
    ("subscribe.skip.witness", "count"),
    ("subscribe.skip.bound", "count"),
    ("subscribe.skip.chain", "count"),
    ("subscribe.resyncs", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.route_hi_p95_ms", "ms"),
    ("loadgen.rate_met_qps", "1/s"),
    ("loadgen.trace_overhead_ratio", "ratio"),
    ("loadgen.oracle_s", "s"),
];

/// One recorded span. `op` is the request's index in its stream; spans
/// of one request share it. Times are µs since the traced run began.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The layer boundary (`"http"`, `"router"`, `"inproc"`, …).
    pub name: &'static str,
    /// Request index within the ladder's stream.
    pub op: u32,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// The span that caused this one (the rung above, or the request's
    /// span for a per-shard part).
    pub parent: Option<u64>,
}

/// In-memory span sink, written out once at the end of the run.
pub struct Tracer {
    origin: Instant,
    /// Recording can be switched off to price it.
    pub enabled: bool,
    spans: Vec<Span>,
}

/// Rungs, bottom to top; a span's parent is the same op one rung up.
const READ_RUNGS: [&str; 5] = ["core", "service", "inproc", "router", "http"];
const WRITE_RUNGS: [&str; 5] = ["index", "apply", "publish", "publish+hub", "http-update"];

/// Deterministic span ids: `ladder` 0 = read, 1 = write; `part` 0 is the
/// request's own span on the rung, `1 + j` its shard/replica part.
fn span_id(ladder: u64, rung: usize, part: usize, op: u32) -> u64 {
    (((ladder * 8 + rung as u64) * 8 + part as u64) << 32) | u64::from(op)
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records the span of `op` on `rung` of `ladder` (part 0: parented
    /// to the rung above; part > 0: parented to part 0 of this rung).
    fn record(
        &mut self,
        ladder: u64,
        rung: usize,
        part: usize,
        op: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let names = if ladder == 0 {
            &READ_RUNGS
        } else {
            &WRITE_RUNGS
        };
        let parent = if part > 0 {
            Some(span_id(ladder, rung, 0, op))
        } else if rung + 1 < names.len() {
            Some(span_id(ladder, rung + 1, 0, op))
        } else {
            None
        };
        self.spans.push(Span {
            id: span_id(ladder, rung, part, op),
            name: names[rung],
            op,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
        });
    }

    /// Writes every span as one JSON document.
    fn write_to(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"spans\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\":{},\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.name,
                s.op,
                s.start_us,
                s.end_us,
                parent
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// The result of one traced run.
pub struct Report {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Read-ladder rung p50s, µs, bottom to top.
    pub read_rungs_us: [f64; 5],
    /// Share of the HTTP rung's *total* time the core rung's total is —
    /// where search cost is heavy-tailed the median request is a cheap
    /// one and the p50 ladder understates what search costs overall.
    pub core_time_share: f64,
    /// Write-ladder rung p50s, µs, bottom to top.
    pub write_rungs_us: [f64; 5],
    /// The open-loop rate steps.
    pub steps: Vec<Step>,
    /// Operations attempted (ladder HTTP rungs, steps, overhead pair).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Where the spans went.
    pub trace_file: std::path::PathBuf,
    /// Spans written.
    pub spans: usize,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(values: &[f64]) -> f64 {
    stats::median(values)
}

/// Median µs per call of `f` over `calls` calls (each timed alone).
fn time_each(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            us(t.elapsed())
        })
        .collect();
    p50(&samples)
}

/// Median ns per call of a sub-microsecond `f`: batches of `batch` calls
/// are timed together so the clock reads don't dominate.
fn time_batched_ns(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|b| {
            let t = Instant::now();
            for i in 0..batch {
                f(b * batch + i);
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    p50(&samples)
}

/// One request of the read ladder: the base query and its per-shard
/// shadow rewrites for the shards the router plans.
struct LadderRead {
    template: u32,
    query: Query,
    parts: Vec<(usize, Query)>,
}

fn ladder_reads(world: &World, streams: &Streams, n: usize) -> Vec<LadderRead> {
    (0..n)
        .map(|i| {
            let template = streams.reads[i % streams.reads.len()];
            let query = streams.templates[template as usize].query.clone();
            let shadow = world.set.shadow(query.categories[0]);
            let parts = (0..SHARDS)
                .filter(|&j| world.set.shard(j).inverted.members_of(shadow) > 0)
                .map(|j| {
                    let mut q = query.clone();
                    q.categories[0] = shadow;
                    (j, q)
                })
                .collect();
            LadderRead {
                template,
                query,
                parts,
            }
        })
        .collect()
}

fn fresh_services(world: &World) -> Vec<Arc<KosrService>> {
    (0..SHARDS)
        .map(|j| {
            Arc::new(KosrService::new(
                Arc::new(world.set.shard(j).clone()),
                ServiceConfig::default(),
            ))
        })
        .collect()
}

/// Aggregated search counters of the core rung.
#[derive(Default)]
struct CoreCounters {
    executed: u64,
    examined: u64,
    nn: u64,
    dominated: u64,
    bound_pruned: u64,
    heap_peaks: Vec<f64>,
    total: Duration,
    nn_time: Duration,
    queue_time: Duration,
    estimation_time: Duration,
}

impl CoreCounters {
    fn add(&mut self, out: &KosrOutcome) {
        let s = &out.stats;
        self.executed += 1;
        self.examined += s.examined_routes;
        self.nn += s.nn_queries;
        self.dominated += s.dominated_routes;
        self.bound_pruned += s.bound_pruned;
        self.heap_peaks.push(s.heap_peak as f64);
        self.total += s.time.total;
        self.nn_time += s.time.nn;
        self.queue_time += s.time.queue;
        self.estimation_time += s.time.estimation;
    }
}

struct Ctx<'a> {
    spec: &'a Spec,
    world: &'a World,
    streams: &'a Streams,
    scale: f64,
    tracer: Tracer,
    m: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    oracle: OracleMemo,
    core_time_share: f64,
}

impl Ctx<'_> {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.m.insert(name, v);
    }

    fn fleet(&self, gateway: GatewayConfig) -> io::Result<Fleet> {
        Fleet::start(&self.world.set, gateway)
    }

    /// Cuts `0..n` into the segments every rung replays on fresh state.
    fn segments(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        let count = if self.scale < 0.25 { 1 } else { SEGMENTS };
        (0..count)
            .map(|g| n * g / count..n * (g + 1) / count)
            .collect()
    }

    /// Calls a fixed-size probe makes: `full` at the nominal run length,
    /// proportionally fewer (but at least 4) in short runs.
    fn calls(&self, full: usize) -> usize {
        ((full as f64 * self.scale.min(1.0)) as usize).clamp(4.min(full), full)
    }

    /// The read ladder. Returns the rung p50s and the last HTTP fleet
    /// (kept for the probes that want a warm, shipped-config fleet).
    ///
    /// The stream is cut into [`SEGMENTS`] segments and every rung runs
    /// each segment on freshly built services (or a fresh fleet): where
    /// the scheduler places a fleet's threads moves its latency by a
    /// tenth, more than some layers' whole self time, and several draws
    /// per rung average that out. Every rung cuts the stream the same
    /// way, so all rungs still see the same cache behaviour.
    fn read_ladder(&mut self, reads: &[LadderRead]) -> io::Result<([f64; 5], Fleet)> {
        let world = self.world;
        let n = reads.len();
        let segments = self.segments(n);

        // Rung 1: KosrService::submit. Run before the core rung: its
        // `cached` flags say which shard queries a replica would execute
        // at all.
        let mut service_us = Vec::with_capacity(n);
        let mut executed: Vec<Vec<bool>> = Vec::with_capacity(n);
        let mut streams_of: Vec<Vec<KosrOutcome>> = Vec::with_capacity(n);
        let mut service_stats = Vec::new();
        let (mut workers, mut replay_wall) = (0usize, Duration::ZERO);
        for segment in &segments {
            let services = fresh_services(world);
            let started = Instant::now();
            for op in segment.clone() {
                let (mut slowest, mut ran, mut outs) = (0.0f64, Vec::new(), Vec::new());
                let whole = Instant::now();
                for (j, q) in &reads[op].parts {
                    let t = Instant::now();
                    let resp = services[*j]
                        .submit(q.clone())
                        .and_then(|ticket| ticket.wait())
                        .map_err(|e| io::Error::other(format!("service rung: {e}")))?;
                    let end = Instant::now();
                    self.tracer.record(0, 1, 1 + j, op as u32, t, end);
                    slowest = slowest.max(us(end - t));
                    ran.push(!resp.cached);
                    outs.push(resp.outcome);
                }
                self.tracer
                    .record(0, 1, 0, op as u32, whole, Instant::now());
                service_us.push(slowest);
                executed.push(ran);
                streams_of.push(outs);
            }
            replay_wall += started.elapsed();
            workers = services.iter().map(|s| s.num_workers()).sum();
            service_stats.extend(services.iter().map(|s| s.stats()));
        }
        self.service_counters(&service_stats, replay_wall, workers);

        // Rung 0: IndexedGraph::run_canonical_opt with the planner's
        // method and budget, for exactly the shard queries that missed.
        let planner = fresh_services(world);
        let mut core_us = Vec::with_capacity(n);
        let mut counters = CoreCounters::default();
        for (op, r) in reads.iter().enumerate() {
            let mut slowest = 0.0f64;
            let whole = Instant::now();
            for ((j, q), ran) in r.parts.iter().zip(&executed[op]) {
                if !ran {
                    continue;
                }
                let ig = world.set.shard(*j);
                let plan = planner[*j].plan(q);
                let bounds = plan.use_bounds.then(|| ig.seq_bounds(q));
                let t = Instant::now();
                let out =
                    ig.run_canonical_opt(q, plan.method, plan.examined_budget, bounds.as_ref());
                let end = Instant::now();
                self.tracer.record(0, 0, 1 + j, op as u32, t, end);
                slowest = slowest.max(us(end - t));
                counters.add(&out);
            }
            self.tracer
                .record(0, 0, 0, op as u32, whole, Instant::now());
            core_us.push(slowest);
        }
        drop(planner);
        self.core_counters(&counters);

        // Rung 2: InProcTransport — the wire codec with no socket.
        let mut inproc_us = Vec::with_capacity(n);
        for segment in &segments {
            let transports: Vec<InProcTransport> = fresh_services(world)
                .into_iter()
                .map(InProcTransport::new)
                .collect();
            for op in segment.clone() {
                let mut slowest = 0.0f64;
                let whole = Instant::now();
                for (j, q) in &reads[op].parts {
                    let t = Instant::now();
                    transports[*j]
                        .submit(q.clone())
                        .wait()
                        .map_err(|e| io::Error::other(format!("inproc rung: {e}")))?;
                    let end = Instant::now();
                    self.tracer.record(0, 2, 1 + j, op as u32, t, end);
                    slowest = slowest.max(us(end - t));
                }
                self.tracer
                    .record(0, 2, 0, op as u32, whole, Instant::now());
                inproc_us.push(slowest);
            }
        }

        // Rung 3: ShardRouter over TCP (plan, fan out, wait, merge).
        let mut router_us = Vec::with_capacity(n);
        let (mut width, mut shards_answered, mut shards_cached) = (0u64, 0u64, 0u64);
        let (mut bound_skips, mut failovers) = (0u64, 0u64);
        for (g, segment) in segments.iter().enumerate() {
            let fleet = self.fleet(GatewayConfig::default())?;
            for op in segment.clone() {
                let r = &reads[op];
                let t = Instant::now();
                let resp = fleet
                    .router
                    .submit(r.query.clone())
                    .and_then(|ticket| ticket.wait())
                    .map_err(|e| io::Error::other(format!("router rung: {e}")))?;
                let end = Instant::now();
                self.tracer.record(0, 3, 0, op as u32, t, end);
                router_us.push(us(end - t));
                width += r.parts.len() as u64;
                shards_answered += resp.shards.len() as u64;
                shards_cached += resp.cached_shards as u64;
            }
            bound_skips += fleet.router.bound_skips();
            failovers += (0..SHARDS)
                .map(|j| fleet.router.replica_set(j).failovers())
                .sum::<u64>();
            if g + 1 == segments.len() {
                let plan_us = time_each(n.min(400), |i| {
                    std::hint::black_box(fleet.router.plan_fanout(&reads[i].query).ok());
                });
                self.set("shard.plan_fanout_us", plan_us);
                self.pipelined(&fleet, &reads[segment.clone()]);
            }
        }
        self.set("shard.fanout_width", width as f64 / n as f64);
        self.set(
            "shard.cached_shards_ratio",
            shards_cached as f64 / shards_answered.max(1) as f64,
        );
        self.set("shard.bound_skips", bound_skips as f64);
        self.set("shard.failovers", failovers as f64);
        let merge_us = time_each(n.min(400), |i| {
            // The clone stands in for the streams arriving off the wire.
            let k = reads[i].query.k;
            std::hint::black_box(merge_topk(streams_of[i].clone(), k));
        }) - time_each(n.min(400), |i| {
            std::hint::black_box(streams_of[i].clone());
        });
        self.set("shard.merge_us", merge_us);
        self.codec(reads, &streams_of);

        // Rung 4: keep-alive HTTP, on the fleet as shipped — and the same
        // rung with gateway trace sampling off, to price it.
        let (http_us, bodies, fleet) = self.http_rung(reads, &segments, 1.0)?;
        self.gateway_probes(&fleet, reads, &bodies, &http_us)?;
        let (plain_us, ..) = self.http_rung(reads, &segments, 0.0)?;
        self.set(
            "gateway.trace_sampling_added_us",
            p50(&http_us) - p50(&plain_us),
        );

        let rungs = [
            p50(&core_us),
            p50(&service_us),
            p50(&inproc_us),
            p50(&router_us),
            p50(&http_us),
        ];
        self.set("core.self_us", rungs[0]);
        self.set("service.self_us", rungs[1] - rungs[0]);
        self.set("transport.codec_self_us", rungs[2] - rungs[1]);
        self.set("transport.tcp_self_us", rungs[3] - rungs[2]);
        self.set("gateway.self_us", rungs[4] - rungs[3]);
        self.core_time_share = core_us.iter().sum::<f64>() / http_us.iter().sum::<f64>();
        Ok((rungs, fleet))
    }

    /// Replays `reads` over one keep-alive connection per segment fleet.
    /// At the shipped sampling ratio (1.0) the spans are recorded and
    /// every answer is compared with the oracle. Returns the latencies,
    /// the response bodies and the last segment's fleet.
    fn http_rung(
        &mut self,
        reads: &[LadderRead],
        segments: &[std::ops::Range<usize>],
        trace_sample_ratio: f64,
    ) -> io::Result<(Vec<f64>, Vec<Vec<u8>>, Fleet)> {
        let shipped = trace_sample_ratio == GatewayConfig::default().trace_sample_ratio;
        let mut took = Vec::with_capacity(reads.len());
        let mut bodies = Vec::with_capacity(reads.len());
        let mut statuses_ok = 0usize;
        let mut last = None;
        let (mut s2, mut s4, mut s5, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        for segment in segments {
            drop(last.take());
            let fleet = self.fleet(GatewayConfig {
                trace_sample_ratio,
                ..GatewayConfig::default()
            })?;
            let mut conn = Conn::open(fleet.gateway.addr(), REQUEST_TIMEOUT)?;
            for op in segment.clone() {
                let body = &self.streams.templates[reads[op].template as usize].body;
                let t = Instant::now();
                let resp = conn.post("/v1/route", body)?;
                let end = Instant::now();
                if shipped {
                    self.tracer.record(0, 4, 0, op as u32, t, end);
                }
                took.push(us(end - t));
                statuses_ok += usize::from(resp.status == 200);
                bodies.push(resp.body);
            }
            let (a, b, c) = fleet.gateway.stats().responses_by_class();
            (s2, s4, s5) = (s2 + a, s4 + b, s5 + c);
            rejected += fleet.gateway.stats().connections_rejected();
            last = Some(fleet);
        }
        self.attempted += reads.len() as u64;
        self.failed += (reads.len() - statuses_ok) as u64;
        if shipped {
            self.set("gateway.status_2xx", s2 as f64);
            self.set("gateway.status_4xx", s4 as f64);
            self.set("gateway.status_5xx", s5 as f64);
            self.set("gateway.conn_rejected", rejected as f64);
            let wanted: Vec<u32> = reads.iter().map(|r| r.template).collect();
            self.oracle
                .fill(&self.world.ig, &self.streams.templates, &wanted);
            let wrong = reads
                .iter()
                .zip(&bodies)
                .filter(|(r, b)| answers::parse_routes(b).as_ref() != self.oracle.get(r.template))
                .count();
            // A non-200 is already counted; only add wrong 200s.
            self.failed += wrong.saturating_sub(reads.len() - statuses_ok) as u64;
        }
        Ok((took, bodies, last.expect("at least one segment")))
    }

    fn service_counters(
        &mut self,
        stats: &[kosr_service::ServiceStats],
        wall: Duration,
        workers: usize,
    ) {
        let sum = |f: &dyn Fn(&kosr_service::ServiceStats) -> u64| -> f64 {
            stats.iter().map(f).sum::<u64>() as f64
        };
        let lookups = sum(&|s| s.cache.hits + s.cache.misses).max(1.0);
        let completed = sum(&|s| s.completed).max(1.0);
        self.set(
            "service.cache_hit_ratio",
            sum(&|s| s.cache_hits) / completed,
        );
        self.set(
            "service.prefix_hit_ratio",
            sum(&|s| s.cache.prefix_hits) / lookups,
        );
        self.set(
            "service.witness_hit_ratio",
            sum(&|s| s.witness_reuses) / completed,
        );
        let by_method = |m: Method| -> f64 {
            stats
                .iter()
                .flat_map(|s| &s.per_method)
                .filter(|ms| ms.method == m)
                .map(|ms| ms.completed)
                .sum::<u64>() as f64
        };
        let (kpne, pk, sk) = (
            by_method(Method::Kpne),
            by_method(Method::Pk),
            by_method(Method::Sk),
        );
        let executed = (kpne + pk + sk).max(1.0);
        self.set("service.method_share.kpne", kpne / executed);
        self.set("service.method_share.pk", pk / executed);
        self.set("service.method_share.sk", sk / executed);
        let busy: f64 = stats.iter().map(|s| s.busy.as_secs_f64()).sum();
        self.set(
            "service.busy_ratio",
            busy / (wall.as_secs_f64() * workers as f64),
        );
    }

    fn core_counters(&mut self, c: &CoreCounters) {
        let n = c.executed.max(1) as f64;
        self.set("core.examined_per_query", c.examined as f64 / n);
        self.set("core.nn_per_query", c.nn as f64 / n);
        self.set("core.dominated_per_query", c.dominated as f64 / n);
        self.set("core.bound_pruned_per_query", c.bound_pruned as f64 / n);
        let mut peaks = c.heap_peaks.clone();
        stats::sort(&mut peaks);
        self.set(
            "core.heap_peak_p99",
            if peaks.is_empty() {
                0.0
            } else {
                percentile(&peaks, 0.99)
            },
        );
        let total = c.total.as_secs_f64().max(f64::MIN_POSITIVE);
        self.set("core.time_share.nn", c.nn_time.as_secs_f64() / total);
        self.set("core.time_share.queue", c.queue_time.as_secs_f64() / total);
        self.set(
            "core.time_share.estimation",
            c.estimation_time.as_secs_f64() / total,
        );
    }

    /// All tickets in flight on one multiplexed connection.
    fn pipelined(&mut self, fleet: &Fleet, reads: &[LadderRead]) {
        let transport = TcpTransport::connect(fleet.replica_addrs[0]);
        let queries: Vec<Query> = reads
            .iter()
            .flat_map(|r| {
                r.parts
                    .iter()
                    .filter(|(j, _)| *j == 0)
                    .map(|(_, q)| q.clone())
            })
            .collect();
        // First touch dials and negotiates; keep it out of the timing.
        let _ = transport.ping();
        let t = Instant::now();
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| transport.submit(q.clone()))
            .collect();
        let answered = tickets
            .into_iter()
            .map(|ticket| ticket.wait())
            .filter(Result::is_ok)
            .count();
        self.set(
            "transport.tcp_pipelined_qps",
            answered as f64 / t.elapsed().as_secs_f64(),
        );
    }

    fn codec(&mut self, reads: &[LadderRead], streams_of: &[Vec<KosrOutcome>]) {
        let n = reads.len().min(400);
        let req_us = time_each(n, |i| {
            let q = reads[i].parts.first().map_or(&reads[i].query, |(_, q)| q);
            let bytes = encode_request(i as u64, &Request::Query(q.clone()));
            std::hint::black_box(decode_request(&bytes).ok());
        });
        let responses: Vec<Response> = (0..n)
            .map(|i| {
                Response::Query(Ok(RemoteResponse {
                    outcome: streams_of[i].first().cloned().unwrap_or_default(),
                    cached: false,
                    spans: Vec::new(),
                }))
            })
            .collect();
        let resp_us = time_each(n, |i| {
            let bytes = encode_response(i as u64, &responses[i]);
            std::hint::black_box(decode_response(&bytes).ok());
        });
        self.set("transport.codec_req_us", req_us);
        self.set("transport.codec_resp_us", resp_us);
    }

    fn gateway_probes(
        &mut self,
        fleet: &Fleet,
        reads: &[LadderRead],
        bodies: &[Vec<u8>],
        keep_alive_us: &[f64],
    ) -> io::Result<()> {
        let n = reads.len().min(400);
        let limits = HttpLimits::default();
        let raws: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let body = &self.streams.templates[reads[i].template as usize].body;
                format!(
                    "POST /v1/route HTTP/1.1\r\nHost: kosr\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        let parse_us = time_each(n, |i| {
            std::hint::black_box(read_request(&mut &raws[i][..], &limits).ok());
        });
        let decode_us = time_each(n, |i| {
            let body = &self.streams.templates[reads[i].template as usize].body;
            std::hint::black_box(json::parse(body.as_bytes()).ok());
        });
        let answers: Vec<Json> = bodies[..n]
            .iter()
            .filter_map(|b| json::parse(b).ok())
            .collect();
        let encode_us = time_each(answers.len(), |i| {
            std::hint::black_box(answers[i].to_string());
        });
        self.set("gateway.http_parse_us", parse_us);
        self.set("gateway.json_decode_us", decode_us);
        self.set("gateway.json_encode_us", encode_us);

        let mut conn = Conn::open(fleet.gateway.addr(), REQUEST_TIMEOUT)?;
        let mut healthy = 0usize;
        let pings = self.calls(200);
        let healthz_us = time_each(pings, |_| {
            healthy += usize::from(matches!(conn.get("/healthz"), Ok(r) if r.status == 200));
        });
        self.set("gateway.healthz_rtt_us", healthz_us);
        drop(conn);

        // Fresh connection per request, against the same (now cached)
        // tail of the stream the keep-alive rung just measured.
        let fresh = self.calls(100).min(reads.len());
        let tail = &reads[reads.len() - fresh..];
        let mut fresh_ok = 0usize;
        let fresh_us = time_each(fresh, |i| {
            let body = &self.streams.templates[tail[i].template as usize].body;
            let answer = Conn::open(fleet.gateway.addr(), REQUEST_TIMEOUT)
                .and_then(|mut c| c.call("POST", "/v1/route", Some(body), false));
            fresh_ok += usize::from(matches!(answer, Ok(r) if r.status == 200));
        });
        let warm_tail = &keep_alive_us[keep_alive_us.len() - fresh..];
        self.set("gateway.conn_setup_us", fresh_us - p50(warm_tail));
        self.attempted += (pings + fresh) as u64;
        self.failed += (pings - healthy + fresh - fresh_ok) as u64;
        Ok(())
    }

    /// The write ladder over `flips`, cut into [`SEGMENTS`] segments
    /// like the read ladder; every segment starts from the base world
    /// with the replica caches warmed by the same reads, so that
    /// invalidation has something to do.
    fn write_ladder(
        &mut self,
        flips: &[MembershipFlip],
        reads: &[LadderRead],
    ) -> io::Result<[f64; 5]> {
        let world = self.world;
        let owner_of = |f: &MembershipFlip| world.set.partition().owner(f.vertex);
        let shadow_of = |f: &MembershipFlip| MembershipFlip {
            category: world.set.shadow(f.category),
            ..*f
        };
        let m = flips.len();
        let segments = self.segments(m);
        let warm = &reads[..(reads.len() / 5).min(WARM_READS)];

        // Rung 0: IndexedGraph::{insert,remove}_membership on one index
        // per replica — base everywhere, shadow on the owner shard.
        let mut index_us = Vec::with_capacity(m);
        for segment in &segments {
            let mut replicas: Vec<(usize, IndexedGraph)> = (0..SHARDS)
                .flat_map(|j| (0..REPLICAS).map(move |_| j))
                .map(|j| (j, world.set.shard(j).clone()))
                .collect();
            for op in segment.clone() {
                let f = &flips[op];
                let whole = Instant::now();
                let mut total = 0.0;
                for (part, (j, ig)) in replicas.iter_mut().enumerate() {
                    let t = Instant::now();
                    mirror(ig, f);
                    if *j == owner_of(f) {
                        mirror(ig, &shadow_of(f));
                    }
                    let end = Instant::now();
                    self.tracer.record(1, 0, 1 + part, op as u32, t, end);
                    total += us(end - t);
                }
                self.tracer
                    .record(1, 0, 0, op as u32, whole, Instant::now());
                index_us.push(total);
            }
        }

        // Rung 1: KosrService::apply_update, one quiescent service per
        // replica (no reader holds the index, so it mutates in place).
        let (mut apply_us, mut each_apply_us) = (Vec::with_capacity(m), Vec::new());
        for segment in &segments {
            let services: Vec<(usize, Arc<KosrService>)> = (0..REPLICAS)
                .flat_map(|_| fresh_services(world).into_iter().enumerate())
                .collect();
            for r in warm {
                for (j, q) in &r.parts {
                    for (_, svc) in services.iter().filter(|(shard, _)| shard == j) {
                        let _ = svc.submit(q.clone()).and_then(|ticket| ticket.wait());
                    }
                }
            }
            for op in segment.clone() {
                let f = &flips[op];
                let whole = Instant::now();
                let mut total = 0.0;
                for (part, (j, svc)) in services.iter().enumerate() {
                    let t = Instant::now();
                    svc.apply_update(&flip_update(f))
                        .map_err(|e| io::Error::other(format!("apply rung: {e}")))?;
                    let base_done = Instant::now();
                    if *j == owner_of(f) {
                        svc.apply_update(&flip_update(&shadow_of(f)))
                            .map_err(|e| io::Error::other(format!("apply rung: {e}")))?;
                    }
                    let end = Instant::now();
                    self.tracer.record(1, 1, 1 + part, op as u32, t, end);
                    total += us(end - t);
                    each_apply_us.push(us(base_done - t));
                }
                self.tracer
                    .record(1, 1, 0, op as u32, whole, Instant::now());
                apply_us.push(total);
            }
        }
        self.set("service.apply_update_us", p50(&each_apply_us));

        // Rung 2: LiveUpdateBus::publish over the TCP fleet, no sessions.
        let warm_fleet = |fleet: &Fleet| {
            for r in warm {
                let _ = fleet
                    .router
                    .submit(r.query.clone())
                    .and_then(|ticket| ticket.wait());
            }
        };
        let mut publish_us = Vec::with_capacity(m);
        let (mut touched, mut deferred, mut invalidated) = (0usize, 0usize, 0usize);
        for segment in &segments {
            let fleet = self.fleet(GatewayConfig::default())?;
            warm_fleet(&fleet);
            let bus = fleet.router.update_bus();
            for op in segment.clone() {
                let t = Instant::now();
                let receipt = bus
                    .publish(&flip_update(&flips[op]))
                    .map_err(|e| io::Error::other(format!("publish rung: {e}")))?;
                let end = Instant::now();
                self.tracer.record(1, 2, 0, op as u32, t, end);
                publish_us.push(us(end - t));
                touched += receipt.replicas_touched;
                deferred += receipt.deferred_replicas;
                invalidated += receipt.invalidated;
            }
        }
        let n = m.max(1) as f64;
        self.set("shard.replicas_touched", touched as f64 / n);
        self.set("shard.deferred_replicas", deferred as f64);
        self.set("shard.invalidated_per_update", invalidated as f64 / n);

        // Rung 3: the same publishes with the workload's standing
        // sessions registered on the gateway's hub.
        let mut hub_us = Vec::with_capacity(m);
        let mut hub_stats: Vec<HubStats> = Vec::new();
        let (mut subscribe_us, mut poll_us) = (Vec::new(), Vec::new());
        for segment in &segments {
            let fleet = self.fleet(GatewayConfig::default())?;
            warm_fleet(&fleet);
            let hub = Arc::clone(fleet.gateway.subscriptions());
            let mut ids: Vec<SessionId> = Vec::new();
            for t in &self.streams.sessions {
                let started = Instant::now();
                let reply = hub.subscribe(t.query.clone());
                subscribe_us.push(us(started.elapsed()));
                ids.extend(reply.ok().map(|r| r.id));
            }
            let bus = fleet.router.update_bus();
            for op in segment.clone() {
                let t = Instant::now();
                bus.publish(&flip_update(&flips[op]))
                    .map_err(|e| io::Error::other(format!("publish+hub rung: {e}")))?;
                let end = Instant::now();
                self.tracer.record(1, 3, 0, op as u32, t, end);
                hub_us.push(us(end - t));
            }
            for id in ids {
                let started = Instant::now();
                std::hint::black_box(hub.poll(id, Duration::ZERO));
                poll_us.push(us(started.elapsed()));
            }
            hub_stats.push(hub.stats());
        }
        let sum = |f: &dyn Fn(&HubStats) -> u64| hub_stats.iter().map(f).sum::<u64>() as f64;
        let (wakes, skips) = (sum(&|s| s.wakeups_total()), sum(&|s| s.skipped_total()));
        let recomputes = sum(&|s| s.recomputes);
        self.set("subscribe.subscribe_us", p50(&subscribe_us));
        self.set("subscribe.poll_us", p50(&poll_us));
        self.set("subscribe.wake_ratio", wakes / (wakes + skips).max(1.0));
        self.set("subscribe.recomputes_per_update", recomputes / n);
        self.set(
            "subscribe.empty_diff_ratio",
            sum(&|s| s.empty_diffs) / recomputes.max(1.0),
        );
        self.set("subscribe.skip.category", sum(&|s| s.skipped_category));
        self.set("subscribe.skip.shard", sum(&|s| s.skipped_shard));
        self.set("subscribe.skip.witness", sum(&|s| s.skipped_witness));
        self.set("subscribe.skip.bound", sum(&|s| s.skipped_bound));
        self.set("subscribe.skip.chain", sum(&|s| s.skipped_chain));
        self.set(
            "subscribe.resyncs",
            sum(&|s| s.overflows + s.recompute_failures),
        );

        // Rung 4: POST /v1/update, sessions registered the same way.
        let mut http_us = Vec::with_capacity(m);
        let mut acked = 0usize;
        for segment in &segments {
            let fleet = self.fleet(GatewayConfig::default())?;
            warm_fleet(&fleet);
            for t in &self.streams.sessions {
                let _ = fleet.gateway.subscriptions().subscribe(t.query.clone());
            }
            let mut conn = Conn::open(fleet.gateway.addr(), REQUEST_TIMEOUT)?;
            for op in segment.clone() {
                let t = Instant::now();
                let resp = conn.post("/v1/update", &flip_body(&flips[op]))?;
                let end = Instant::now();
                self.tracer.record(1, 4, 0, op as u32, t, end);
                http_us.push(us(end - t));
                acked += usize::from(resp.status == 200);
            }
        }
        self.attempted += m as u64;
        self.failed += (m - acked) as u64;

        let rungs = [
            p50(&index_us),
            p50(&apply_us),
            p50(&publish_us),
            p50(&hub_us),
            p50(&http_us),
        ];
        self.set("index.apply_self_us", rungs[0]);
        self.set("service.apply_self_us", rungs[1] - rungs[0]);
        self.set("shard.publish_self_us", rungs[2] - rungs[1]);
        self.set("subscribe.sweep_self_us", rungs[3] - rungs[2]);
        self.set("gateway.update_self_us", rungs[4] - rungs[3]);
        Ok(rungs)
    }

    /// Timings of single public functions of the lower layers.
    fn micro(&mut self, reads: &[LadderRead]) {
        let world = self.world;
        let ig = &world.ig;
        let n = reads.len().min(300);
        let q = |i: usize| &reads[i % reads.len()].query;

        let services = fresh_services(world);
        let plan_us = time_each(n, |i| {
            let r = &reads[i % reads.len()];
            if let Some((j, sq)) = r.parts.first() {
                std::hint::black_box(services[*j].plan(sq));
            }
        });
        self.set("service.plan_us", plan_us);

        // Membership changes that really change something: insert a
        // vertex the category lacks, then take it out again.
        let nv = ig.num_vertices() as u32;
        let absent: Vec<(VertexId, CategoryId)> = (0u64..)
            .map(|i| {
                let x = kosr_service::splitmix64(i ^ 0xF11B);
                let c = q(i as usize).categories[0];
                (VertexId(x as u32 % nv), c)
            })
            .filter(|&(v, c)| !ig.graph.categories().has_category(v, c))
            .take(self.calls(40))
            .collect();
        let mut scratch = ig.clone();
        let insert_us = time_each(absent.len(), |i| {
            scratch.insert_membership(absent[i].0, absent[i].1);
        });
        let remove_us = time_each(absent.len(), |i| {
            scratch.remove_membership(absent[i].0, absent[i].1);
        });
        self.set("index.insert_membership_us", insert_us);
        self.set("index.remove_membership_us", remove_us);
        // The service-level update while a reader holds the index:
        // `Arc::make_mut` must clone the whole IndexedGraph first.
        let victim = &services[0];
        let shard0 = world.set.shard(0);
        let contended_us = time_each(self.calls(24), |i| {
            let held = victim.epoch_and_index();
            let (v, c) = absent[i % absent.len()];
            let update = if i % 2 == 0 {
                kosr_service::Update::InsertMembership {
                    vertex: v,
                    category: c,
                }
            } else {
                kosr_service::Update::RemoveMembership {
                    vertex: v,
                    category: c,
                }
            };
            let _ = victim.apply_update(&update);
            drop(held);
        });
        self.set("service.apply_update_contended_us", contended_us);
        let clone_ms = time_each(8, |_| {
            std::hint::black_box(shard0.clone());
        }) / 1e3;
        self.set("service.index_clone_ms", clone_ms);
        drop(services);

        // The three algorithms forced on the same shard queries. KPNE
        // only on shapes cut down to |C| ≤ 3, k ≤ 5: deeper shapes blow
        // its queue up (16 GB in the issue's probe).
        let forced_calls = self.calls(100).min(n);
        let forced = |method: Method, cut: bool| {
            time_each(forced_calls, |i| {
                let mut query = q(i).clone();
                if cut {
                    query.categories.truncate(3);
                    query.k = query.k.min(5);
                }
                let bounds = ig.seq_bounds(&query);
                std::hint::black_box(ig.run_canonical_opt(&query, method, u64::MAX, Some(&bounds)));
            })
        };
        self.set("core.sk_us", forced(Method::Sk, false));
        self.set("core.pk_us", forced(Method::Pk, false));
        self.set("core.kpne_us", forced(Method::Kpne, true));

        let nn_us = time_each(n, |i| {
            let mut nn = LabelNn::new(&ig.labels, &ig.inverted);
            std::hint::black_box(nn.find_nn(q(i).source, q(i).categories[0], 1));
        });
        let nen_us = time_each(n, |i| {
            let mut nn = LabelNn::new(&ig.labels, &ig.inverted);
            let mut target = LabelTarget::new(&ig.labels, q(i).target);
            let mut nen = NenFinder::new();
            std::hint::black_box(nen.find_nen(
                &mut nn,
                &mut target,
                q(i).source,
                q(i).categories[0],
                1,
            ));
        });
        let bounds_us = time_each(n, |i| {
            std::hint::black_box(ig.seq_bounds(q(i)));
        });
        self.set("index.find_nn_us", nn_us);
        self.set("index.find_nen_us", nen_us);
        self.set("index.seq_bounds_us", bounds_us);

        let mut blob = Vec::new();
        let encode_ms = time_each(5, |_| blob = shard0.encode_snapshot()) / 1e3;
        let install_ms = time_each(5, |_| {
            std::hint::black_box(IndexedGraph::decode_snapshot(&blob).ok());
        }) / 1e3;
        self.set("index.snapshot_encode_ms", encode_ms);
        self.set("index.snapshot_install_ms", install_ms);
        self.set("index.snapshot_bytes", blob.len() as f64);
        self.set(
            "index.bytes",
            (ig.labels.size_bytes() + ig.inverted_stats.size_bytes + ig.bounds.size_bytes()) as f64,
        );
        self.set("index.inverted_build_s", world.timings.inverted_s);
        let t = Instant::now();
        std::hint::black_box(CategoryBounds::build(&ig.labels, ig.graph.categories()));
        self.set("index.bounds_build_s", t.elapsed().as_secs_f64());

        let pair = |i: usize| {
            let x = kosr_service::splitmix64(i as u64);
            (VertexId(x as u32 % nv), VertexId((x >> 32) as u32 % nv))
        };
        let batches = self.calls(40);
        let distance_ns = time_batched_ns(batches, 500, |i| {
            let (s, t) = pair(i);
            std::hint::black_box(ig.labels.distance(s, t));
        });
        let mut oracle = TargetDistancer::new(&ig.labels, q(0).target);
        let target_ns = time_batched_ns(batches, 500, |i| {
            // A fresh oracle every batch: `distance_from` memoises per
            // source, so only first touches measure the label scan.
            if i % 500 == 0 {
                oracle = TargetDistancer::new(&ig.labels, pair(i).1);
            }
            std::hint::black_box(oracle.distance_from(&ig.labels, pair(i).0));
        });
        let join_ns = time_batched_ns(batches, 500, |i| {
            let (s, t) = pair(i);
            std::hint::black_box(kosr_hoplabel::batch::min_join(
                ig.labels.lout(s),
                ig.labels.lin(t),
            ));
        });
        self.set("hoplabel.distance_ns", distance_ns);
        self.set("hoplabel.target_distance_ns", target_ns);
        self.set("hoplabel.min_join_ns", join_ns);
        self.set(
            "hoplabel.avg_label_len",
            (ig.labels.avg_lin_size() + ig.labels.avg_lout_size()) / 2.0,
        );
        self.set("hoplabel.build_s", world.timings.label_s);
        self.set("ch.build_s", world.timings.ch_s);
        self.set("graph.partition_ms", world.timings.partition_ms);
    }

    /// Open-loop steps at the workload's fixed rates plus the
    /// tracing-overhead pair, on the warm shipped-config fleet.
    fn generator_health(&mut self, fleet: &Fleet, from: usize) -> io::Result<Vec<Step>> {
        let streams = self.streams;
        let mut cursor = from;
        let mut a = Conn::open(fleet.gateway.addr(), REQUEST_TIMEOUT)?;
        let mut b = Conn::open(fleet.gateway.addr(), REQUEST_TIMEOUT)?;
        // Hot streams: make sure every template is cached, as after the
        // end-to-end run's warm-up.
        if streams.warm.is_empty() {
            for t in &streams.templates {
                let _ = a.post("/v1/route", &t.body);
            }
        }
        let secs = STEP_SECS * self.scale;
        let mut steps: Vec<Step> = Vec::new();
        let mut lags = Vec::new();
        for &rate in self.spec.step_rates {
            let base = cursor;
            let origin = Instant::now() + Duration::from_millis(2);
            let table = Timetable::at_rate(rate, secs);
            let next = AtomicUsize::new(0);
            let sender = |conn: &mut Conn| {
                run_open_loop(
                    &mut WallClock::starting_at(origin),
                    table,
                    || next.fetch_add(1, Ordering::Relaxed),
                    |i| {
                        let id = streams.reads[(base + i) % streams.reads.len()];
                        let body = &streams.templates[id as usize].body;
                        matches!(conn.post("/v1/route", body), Ok(r) if r.status == 200)
                    },
                )
            };
            let (mut claimed, other) = std::thread::scope(|s| {
                let other = s.spawn(|| sender(&mut b));
                (sender(&mut a), other.join().expect("sender B panicked"))
            });
            claimed.extend(other);
            claimed.sort_by_key(|(i, _)| *i);
            let samples: Vec<Sample> = claimed.into_iter().map(|(_, s)| s).collect();
            cursor += samples.len();
            self.attempted += samples.len() as u64;
            self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
            let mut from_due: Vec<f64> = samples.iter().map(|s| s.since_due_us() / 1e3).collect();
            stats::sort(&mut from_due);
            let mut lag: Vec<f64> = samples.iter().map(|s| s.lag_us / 1e3).collect();
            stats::sort(&mut lag);
            lags.extend_from_slice(&lag);
            steps.push(Step {
                rate,
                p95_ms: percentile(&from_due, 0.95),
                backlog_grew: backlog_grew(&samples, secs * 1e6),
                lag_p99_ms: percentile(&lag, 0.99),
            });
        }
        stats::sort(&mut lags);
        self.set("loadgen.lag_p99_ms", percentile(&lags, 0.99));
        self.set(
            "loadgen.route_hi_p95_ms",
            steps.last().map_or(f64::NAN, |s| s.p95_ms),
        );
        let met = steps
            .iter()
            .filter(|s| s.p95_ms <= self.spec.limit_ms && !s.backlog_grew)
            .map(|s| s.rate)
            .fold(0.0, f64::max);
        self.set("loadgen.rate_met_qps", met);

        // Tracing overhead: one concurrency-1 HTTP loop, span recording
        // switched on and off every few requests, so both halves see the
        // same fleet, connection and moment; the ratio of their median
        // latencies is what recording costs.
        let deadline = Instant::now() + Duration::from_secs_f64(OVERHEAD_SECS * self.scale);
        let mut took: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let (mut sent, mut ok) = (0u32, 0u32);
        while Instant::now() < deadline {
            let recording = (sent / 8) % 2 == 1;
            self.tracer.enabled = recording;
            let id = streams.reads[cursor % streams.reads.len()];
            cursor += 1;
            let t = Instant::now();
            let good = matches!(
                a.post("/v1/route", &streams.templates[id as usize].body),
                Ok(r) if r.status == 200
            );
            // Overhead spans reuse rung "http" with ops past the ladder's.
            self.tracer
                .record(0, 4, 0, (1 << 24) + sent, t, Instant::now());
            took[usize::from(recording)].push(us(t.elapsed()));
            sent += 1;
            ok += u32::from(good);
        }
        self.tracer.enabled = true;
        self.attempted += u64::from(sent);
        self.failed += u64::from(sent - ok);
        self.set(
            "loadgen.trace_overhead_ratio",
            p50(&took[1]) / p50(&took[0]),
        );
        Ok(steps)
    }
}

/// One open-loop rate step of the traced run.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Requests per second sent.
    pub rate: f64,
    /// p95 of the latency from the due time, ms.
    pub p95_ms: f64,
    /// Whether the backlog grew across the step (the rate is past what
    /// the system sustains).
    pub backlog_grew: bool,
    /// p99 of how late the generator itself sent, ms.
    pub lag_p99_ms: f64,
}

/// How many reads the traced run consumes: the ladder, the rate steps,
/// and the overhead pair (budgeted at a rate no run reaches).
fn reads_needed(spec: &Spec, scale: f64) -> ReadNeeds {
    let ladder = ((spec.ladder_reads as f64 * scale) as usize).max(40);
    let steps: f64 = spec.step_rates.iter().map(|r| r * STEP_SECS * scale).sum();
    let loop_rate = match spec.reads {
        Reads::Hot(_) => 8000.0,
        Reads::Unique { .. } => 1200.0,
    };
    ReadNeeds {
        open: ladder + steps as usize + (OVERHEAD_SECS * scale * loop_rate) as usize,
        closed: 0,
        spare: 0,
    }
}

/// Runs the traced pass for `spec`.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> io::Result<Report> {
    let scale = seconds / NOMINAL_SECONDS;
    let (world, _) = set_up(spec, 1)?; // every rung builds its own fleet
    let ladder_n = ((spec.ladder_reads as f64 * scale) as usize).max(40);
    let flips_n = ((LADDER_FLIPS as f64 * scale) as usize).max(16);
    let streams = gen_streams(spec, &world, seed, reads_needed(spec, scale), flips_n);
    let reads = ladder_reads(&world, &streams, ladder_n);
    let mut ctx = Ctx {
        spec,
        world: &world,
        streams: &streams,
        scale,
        tracer: Tracer::new(),
        m: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        oracle: OracleMemo::default(),
        core_time_share: f64::NAN,
    };
    let (read_rungs_us, fleet) = ctx.read_ladder(&reads)?;
    let steps = ctx.generator_health(&fleet, ladder_n)?;
    drop(fleet);
    let write_rungs_us = ctx.write_ladder(&streams.flips, &reads)?;
    ctx.micro(&reads);
    ctx.set("loadgen.oracle_s", ctx.oracle.spent_s);

    let trace_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("trace-{}.json", spec.name));
    ctx.tracer.write_to(&trace_file)?;
    Ok(Report {
        metrics: ctx.m,
        read_rungs_us,
        core_time_share: ctx.core_time_share,
        write_rungs_us,
        steps,
        attempted: ctx.attempted,
        failed: ctx.failed,
        trace_file,
        spans: ctx.tracer.spans.len(),
    })
}

/// The deterministic counters of a traced run — what two runs of one seed
/// must agree on exactly.
pub const EXACT_COUNTS: &[&str] = &[
    "core.examined_per_query",
    "core.nn_per_query",
    "core.dominated_per_query",
    "core.bound_pruned_per_query",
    "shard.fanout_width",
    "subscribe.skip.category",
    "subscribe.skip.shard",
    "subscribe.skip.witness",
    "subscribe.skip.bound",
    "subscribe.skip.chain",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_world, spec_named};

    #[test]
    fn span_ids_are_unique_across_ladders_rungs_and_parts() {
        let mut seen = std::collections::HashSet::new();
        for ladder in 0..2 {
            for rung in 0..5 {
                for part in 0..5 {
                    for op in [0u32, 1, 1 << 24] {
                        assert!(seen.insert(span_id(ladder, rung, part, op)));
                    }
                }
            }
        }
    }

    #[test]
    fn spans_parent_to_the_rung_above_and_parts_to_their_request() {
        let mut t = Tracer::new();
        let now = Instant::now();
        t.record(0, 0, 0, 7, now, now);
        t.record(0, 0, 2, 7, now, now);
        t.record(0, 4, 0, 7, now, now);
        assert_eq!(t.spans[0].parent, Some(span_id(0, 1, 0, 7)));
        assert_eq!(t.spans[1].parent, Some(t.spans[0].id));
        assert_eq!(t.spans[2].parent, None, "the top rung is the root");
        assert_eq!(t.spans[2].name, "http");
        t.enabled = false;
        t.record(1, 0, 0, 1, now, now);
        assert_eq!(t.spans.len(), 3, "disabled tracer records nothing");
    }

    #[test]
    fn every_metric_name_is_listed_once() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(n <= 128, "the benchmark contract caps per-layer metrics");
        for c in EXACT_COUNTS {
            assert!(METRICS.iter().any(|m| m.0 == *c), "{c}");
        }
    }

    /// Two traced runs of one seed agree on every count that does not
    /// depend on timing.
    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let spec = spec_named("edge_hot").unwrap();
        let first = run(&spec, 5, 0.6).expect("traced run");
        let second = run(&spec, 5, 0.6).expect("traced run");
        assert_eq!((first.failed, second.failed), (0, 0));
        for name in EXACT_COUNTS {
            assert_eq!(first.metrics[name], second.metrics[name], "{name}");
        }
        for (name, _) in METRICS {
            assert!(first.metrics[name].is_finite(), "{name} was not measured");
        }
        assert!(first.spans > 0 && first.trace_file.exists());
    }

    /// Two generations from one seed are byte-identical; another seed
    /// differs.
    #[test]
    fn request_streams_repeat_exactly_for_a_seed() {
        for name in ["edge_hot", "search_deep"] {
            let spec = spec_named(name).unwrap();
            let render = |seed: u64| {
                let world = build_world(&spec);
                let needs = ReadNeeds {
                    open: 200,
                    closed: 80,
                    spare: 20,
                };
                let s = gen_streams(&spec, &world, seed, needs, 60);
                let mut bytes = String::new();
                for &id in &s.reads {
                    bytes.push_str(&s.templates[id as usize].body);
                }
                for f in &s.flips {
                    bytes.push_str(&flip_body(f));
                }
                for t in &s.sessions {
                    bytes.push_str(&t.body);
                }
                let probes = crate::world::pick_probes(&world.ig, &s.sessions).len();
                (bytes, probes)
            };
            let (a, probes) = render(11);
            assert_eq!(a, render(11).0, "{name}: same seed, same bytes");
            assert_ne!(a, render(12).0, "{name}: another seed, other bytes");
            assert!(probes > 0, "{name}: probe sessions found");
        }
    }
}
