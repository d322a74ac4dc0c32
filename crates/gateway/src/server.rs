//! The threaded HTTP edge: a bounded-connection accept loop fronting a
//! [`ShardRouter`] (+ optional [`SupervisorHandle`]), with the JSON query
//! API, the update surface, `/healthz` and the fleet-wide `/metrics`
//! page. See the crate docs for the endpoint table.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kosr_core::Query;
use kosr_graph::{CategoryId, VertexId};
use kosr_service::{
    sample_decision, span_id_for, Alert, Event, EventKind, MetricsRegistry, ServiceError, Severity,
    Source, Span, TagValue, Trace, TraceContext, TraceId, TraceStore,
};
use kosr_shard::{
    LiveUpdateBus, ShardError, ShardRouter, ShardedResponse, SupervisorHandle, Update,
};
use kosr_subscribe::{Delta, HubConfig, PollResponse, SessionId, SubscriptionHub};

use crate::http::{
    read_request, status_of_parse_error, write_response, write_response_chunked,
    write_response_with_headers, HttpError, HttpLimits, HttpRequest,
};
use crate::json::{self, Json, JsonLimits};
use crate::stats::{Endpoint, GatewayStats};

const JSON_TYPE: &str = "application/json";
const METRICS_TYPE: &str = "text/plain; version=0.0.4";

/// Gateway tunables.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Concurrent connections admitted; the one past the cap is answered
    /// `503` and closed at the accept gate (admission control, edge-side).
    pub max_connections: usize,
    /// Largest accepted request body — a larger declared `Content-Length`
    /// is refused `413` before any body byte is read or buffered.
    pub max_body_bytes: usize,
    /// Largest accepted request head.
    pub max_head_bytes: usize,
    /// Deadline applied to `/v1/route` requests that carry no
    /// `deadline_ms` of their own; `None` admits them without one.
    pub default_deadline: Option<Duration>,
    /// Largest accepted `k` — the runners pre-size result buffers by `k`,
    /// so an unbounded value would let one request demand an absurd
    /// allocation; past the cap is a typed `400` at admission.
    pub max_k: usize,
    /// JSON nesting bound for request bodies.
    pub json_depth: usize,
    /// Fraction of `/v1/route` requests traced end to end, decided
    /// deterministically per trace id ([`sample_decision`]). Unsampled
    /// requests still get an edge-only trace that competes for the
    /// slow-query log — the always-capture-the-tail path.
    pub trace_sample_ratio: f64,
    /// Traces retained in the recent ring (`GET /v1/traces/recent`).
    pub trace_recent: usize,
    /// Worst-N traces by wall time retained in the slow-query log.
    pub trace_slow: usize,
    /// Longest a `GET /v1/subscribe/{id}/poll` long-poll may park waiting
    /// for a delta; a request's `wait_ms` is clamped to this.
    pub max_poll_wait: Duration,
    /// Undrained deltas a subscription may queue before the hub discards
    /// them and forces a typed resync (see [`kosr_subscribe::HubConfig`]).
    pub subscribe_queue: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            max_connections: 64,
            max_body_bytes: 1 << 20,
            max_head_bytes: 8 << 10,
            default_deadline: None,
            max_k: 1024,
            json_depth: 32,
            trace_sample_ratio: 1.0,
            trace_recent: 64,
            trace_slow: 16,
            max_poll_wait: Duration::from_secs(10),
            subscribe_queue: 8,
        }
    }
}

/// A typed API failure: the status code plus the machine-readable error
/// kind and human-readable message the JSON error body carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status code.
    pub status: u16,
    /// A stable machine-readable error kind (`"invalid_query"`,
    /// `"queue_full"`, …).
    pub kind: &'static str,
    /// The human-readable detail.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            message: message.into(),
        }
    }

    fn body(&self) -> Json {
        Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::from(self.kind)),
                ("status".into(), Json::from(self.status as u64)),
                ("message".into(), Json::Str(self.message.clone())),
            ]),
        )])
    }
}

/// Maps the shard/service error taxonomy onto the HTTP status surface:
/// deterministic rejections (invalid query/update) are `4xx`; capacity
/// and availability conditions (queue full, deadline, budget, transport,
/// shutdown) are `503`; a lost worker is the only `502`.
pub fn api_error_of(e: &ShardError) -> ApiError {
    match e {
        ShardError::Service(ServiceError::InvalidQuery(q)) => {
            ApiError::new(400, "invalid_query", format!("invalid query: {q}"))
        }
        ShardError::Service(ServiceError::QueueFull { .. }) => {
            ApiError::new(503, "queue_full", e.to_string())
        }
        ShardError::Service(ServiceError::DeadlineExceeded { .. }) => {
            ApiError::new(503, "deadline_exceeded", e.to_string())
        }
        ShardError::Service(ServiceError::BudgetExhausted { .. }) => {
            ApiError::new(503, "budget_exhausted", e.to_string())
        }
        ShardError::Service(ServiceError::ShuttingDown) => {
            ApiError::new(503, "shutting_down", e.to_string())
        }
        ShardError::Service(ServiceError::WorkerLost) => {
            ApiError::new(502, "worker_lost", e.to_string())
        }
        ShardError::Update(u) => ApiError::new(400, "invalid_update", u.to_string()),
        ShardError::Transport(_) | ShardError::CursorTooOld { .. } => {
            ApiError::new(503, "unavailable", e.to_string())
        }
    }
}

enum Reply {
    Fixed(u16, &'static str, Vec<u8>),
    WithHeaders(u16, &'static str, Vec<(&'static str, String)>, Vec<u8>),
    Chunked(u16, &'static str, Vec<u8>),
}

impl Reply {
    fn status(&self) -> u16 {
        match self {
            Reply::Fixed(s, ..) | Reply::WithHeaders(s, ..) | Reply::Chunked(s, ..) => *s,
        }
    }

    fn error(e: ApiError) -> Reply {
        Reply::Fixed(e.status, JSON_TYPE, e.body().to_string().into_bytes())
    }

    fn json(status: u16, value: &Json) -> Reply {
        Reply::Fixed(status, JSON_TYPE, value.to_string().into_bytes())
    }

    fn with_header(self, name: &'static str, value: String) -> Reply {
        match self {
            Reply::Fixed(s, ct, body) => Reply::WithHeaders(s, ct, vec![(name, value)], body),
            Reply::WithHeaders(s, ct, mut headers, body) => {
                headers.push((name, value));
                Reply::WithHeaders(s, ct, headers, body)
            }
            // Chunked replies (the /metrics page) never carry trace
            // headers; leave them untouched.
            chunked => chunked,
        }
    }
}

/// What the edge fronts — shared by every connection handler.
struct EdgeState {
    router: Arc<ShardRouter>,
    bus: LiveUpdateBus,
    subs: Arc<SubscriptionHub>,
    supervisor: Option<Arc<SupervisorHandle>>,
    stats: Arc<GatewayStats>,
    traces: Arc<TraceStore>,
    config: GatewayConfig,
    json_limits: JsonLimits,
    slots: AtomicUsize,
}

impl EdgeState {
    fn try_acquire_slot(&self) -> bool {
        self.slots
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                (used < self.config.max_connections).then_some(used + 1)
            })
            .is_ok()
    }

    fn release_slot(&self) {
        self.slots.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Returns a connection slot on drop — including when the handler
/// unwinds from a panic, so a crashed handler can never permanently
/// shrink the admission pool.
struct SlotGuard(Arc<EdgeState>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.release_slot();
    }
}

fn field<'v>(v: &'v Json, key: &str) -> Result<&'v Json, ApiError> {
    v.get(key)
        .ok_or_else(|| ApiError::new(400, "invalid_request", format!("missing field {key:?}")))
}

fn field_u32(v: &Json, key: &str) -> Result<u32, ApiError> {
    field(v, key)?
        .as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| {
            ApiError::new(
                400,
                "invalid_request",
                format!("field {key:?} must be an unsigned 32-bit integer"),
            )
        })
}

fn parse_body(edge: &EdgeState, body: &[u8]) -> Result<Json, ApiError> {
    json::parse_with(body, &edge.json_limits)
        .map_err(|e| ApiError::new(400, "invalid_json", e.to_string()))
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Parses the shared query shape — `{"source", "target", "categories",
/// "k"}` — used by both `/v1/route` and `/v1/subscribe`.
fn parse_query_fields(edge: &EdgeState, v: &Json) -> Result<Query, ApiError> {
    let source = VertexId(field_u32(v, "source")?);
    let target = VertexId(field_u32(v, "target")?);
    // The runners pre-size result buffers by `k`; cap it at admission
    // so one request cannot demand an absurd allocation downstream.
    let k = field(v, "k")?
        .as_u64()
        .and_then(|n| (n <= edge.config.max_k as u64).then_some(n as usize))
        .ok_or_else(|| {
            ApiError::new(
                400,
                "invalid_request",
                format!(
                    "field \"k\" must be an integer in 1..={}",
                    edge.config.max_k
                ),
            )
        })?;
    let categories = field(v, "categories")?
        .as_array()
        .ok_or_else(|| {
            ApiError::new(
                400,
                "invalid_request",
                "field \"categories\" must be an array",
            )
        })?
        .iter()
        .map(|c| {
            c.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(CategoryId)
                .ok_or_else(|| {
                    ApiError::new(
                        400,
                        "invalid_request",
                        "categories must be unsigned 32-bit integers",
                    )
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Query::new(source, target, categories, k))
}

/// Assembles and retains the request's trace, then attaches the
/// `X-Kosr-Trace-Id` header iff the trace is actually retrievable:
/// sampled traces always are; an unsampled request's edge-only trace only
/// when the slow-query log admitted it (the tail-capture path). The
/// reply's status class is counted exactly once, upstream in
/// [`serve_connection`], after this function has fixed the final status.
fn finish_route(
    edge: &EdgeState,
    ctx: TraceContext,
    received: Instant,
    mut spans: Vec<Span>,
    reply: Reply,
) -> Reply {
    let root = Span::new(ctx.parent_span, None, "gateway", 0, elapsed_us(received))
        .tag("status", TagValue::U64(reply.status() as u64))
        .tag("sampled", TagValue::Bool(ctx.sampled));
    spans.insert(0, root);
    let trace = Trace {
        trace_id: ctx.trace_id,
        // Measured after the root span's duration, so the root always
        // fits inside the trace wall time.
        wall_us: elapsed_us(received),
        sampled: ctx.sampled,
        spans,
    };
    let retained = if ctx.sampled || reply.status() >= 500 {
        // Server-error responses are always correlatable: even an
        // unsampled request's trace is retained on a 5xx, so the
        // advertised id resolves via `GET /v1/traces/{id}` while the
        // incident is being investigated.
        edge.traces.record(trace);
        true
    } else {
        edge.traces.record_slow_only(trace)
    };
    if retained {
        reply.with_header("X-Kosr-Trace-Id", ctx.trace_id.to_hex())
    } else {
        reply
    }
}

/// `POST /v1/route`: `{"source", "target", "categories", "k",
/// "deadline_ms"?}` → the merged top-k with per-route cost and stop
/// breakdown. Every request is traced: a fresh [`TraceId`] is minted, the
/// sampling decision made deterministically from it, and — when sampled —
/// the context propagated through the router fan-out so replica spans
/// come back with the response.
fn handle_route(edge: &EdgeState, body: &[u8], received: Instant) -> Reply {
    let trace_id = TraceId::mint();
    let sampled = sample_decision(trace_id, edge.config.trace_sample_ratio);
    let ctx = TraceContext::root(trace_id, sampled);
    let mut spans: Vec<Span> = Vec::new();
    let parsed = (|| {
        let v = parse_body(edge, body)?;
        let query = parse_query_fields(edge, &v)?;
        let deadline = match v.get("deadline_ms") {
            None | Some(Json::Null) => edge.config.default_deadline,
            Some(d) => Some(Duration::from_millis(d.as_u64().ok_or_else(|| {
                ApiError::new(400, "invalid_request", "deadline_ms must be milliseconds")
            })?)),
        };
        Ok((query, deadline))
    })();
    // The parse span covers JSON decode + field validation, which began
    // when the request arrived.
    spans.push(Span::new(
        span_id_for(trace_id, ctx.parent_span, 0),
        Some(ctx.parent_span),
        "parse",
        0,
        elapsed_us(received),
    ));
    let (query, deadline) = match parsed {
        Ok(p) => p,
        Err(e) => return finish_route(edge, ctx, received, spans, Reply::error(e)),
    };

    // Deadline propagation, edge-side: the budget covers parse + routing
    // + shard execution; replicas additionally enforce their planner's
    // own `PlannerConfig::deadline` on queue wait.
    let expired = |d: Duration| received.elapsed() > d;
    let deadline_error = |d: Duration| {
        Reply::error(api_error_of(&ShardError::Service(
            ServiceError::DeadlineExceeded { deadline: d },
        )))
    };
    if let Some(d) = deadline {
        if expired(d) {
            return finish_route(edge, ctx, received, spans, deadline_error(d));
        }
    }
    // The router span parents the whole fan-out: shard spans (and the
    // replica trees under them) come back inside the response.
    let router_span = span_id_for(trace_id, ctx.parent_span, 1);
    let router_ctx = sampled.then_some(TraceContext {
        trace_id,
        parent_span: router_span,
        sampled: true,
    });
    let router_started = Instant::now();
    let router_start_us = elapsed_us(received);
    let outcome = edge
        .router
        .submit_traced(query.clone(), router_ctx)
        .and_then(|ticket| ticket.wait());
    let router = Span::new(
        router_span,
        Some(ctx.parent_span),
        "router",
        router_start_us,
        elapsed_us(router_started),
    );
    match outcome {
        Ok(resp) => {
            spans.push(
                router
                    .tag("shards", TagValue::U64(resp.shards.len() as u64))
                    .tag("cached_shards", TagValue::U64(resp.cached_shards as u64)),
            );
            spans.extend(resp.spans.iter().cloned());
            if let Some(d) = deadline {
                if expired(d) {
                    // The 503 rewrite happens *before* any accounting:
                    // the status class is counted once, on the final
                    // reply, and the shard-answer counters skip requests
                    // the client never got an answer for.
                    return finish_route(edge, ctx, received, spans, deadline_error(d));
                }
            }
            edge.stats
                .record_shard_answers(resp.shards.len() as u64, resp.cached_shards as u64);
            let serialize_started = Instant::now();
            let serialize_start_us = elapsed_us(received);
            let reply = Reply::json(200, &route_body(&query, &resp));
            spans.push(Span::new(
                span_id_for(trace_id, ctx.parent_span, 2),
                Some(ctx.parent_span),
                "serialize",
                serialize_start_us,
                elapsed_us(serialize_started),
            ));
            finish_route(edge, ctx, received, spans, reply)
        }
        Err(e) => {
            spans.push(router);
            finish_route(edge, ctx, received, spans, Reply::error(api_error_of(&e)))
        }
    }
}

/// One witness rendered with its cost, vertex tuple, and per-stop
/// breakdown — a witness is ⟨s, c1…cj, t⟩, so the interior stops line up
/// with the query's category sequence. Shared by `/v1/route` and the
/// subscribe surface so standing queries render routes identically.
fn witness_json(query: &Query, w: &kosr_core::Witness) -> Json {
    let stops: Vec<Json> = w
        .vertices
        .iter()
        .skip(1)
        .take(query.categories.len())
        .zip(&query.categories)
        .map(|(v, c)| {
            Json::Obj(vec![
                ("vertex".into(), Json::from(v.0 as u64)),
                ("category".into(), Json::from(c.0 as u64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("cost".into(), Json::from(w.cost)),
        (
            "vertices".into(),
            Json::Arr(w.vertices.iter().map(|v| Json::from(v.0 as u64)).collect()),
        ),
        ("stops".into(), Json::Arr(stops)),
    ])
}

fn route_body(query: &Query, resp: &ShardedResponse) -> Json {
    let routes: Vec<Json> = resp
        .outcome
        .witnesses
        .iter()
        .map(|w| witness_json(query, w))
        .collect();
    Json::Obj(vec![
        ("k".into(), Json::from(query.k as u64)),
        ("routes".into(), Json::Arr(routes)),
        (
            "shards".into(),
            Json::Arr(resp.shards.iter().map(|&j| Json::from(j as u64)).collect()),
        ),
        (
            "cached_shards".into(),
            Json::from(resp.cached_shards as u64),
        ),
        (
            "latency_us".into(),
            Json::from(resp.latency.as_micros().min(u64::MAX as u128) as u64),
        ),
    ])
}

fn tag_json(v: &TagValue) -> Json {
    match v {
        TagValue::U64(n) => Json::from(*n),
        TagValue::Str(s) => Json::Str(s.clone()),
        TagValue::Bool(b) => Json::from(*b),
    }
}

/// One span rendered as a JSON subtree: its own fields, tags, and its
/// children nested inside. Depth-capped defensively — the trees this edge
/// assembles are ~4 levels deep, and a cap means even a malformed trace
/// cannot recurse unboundedly.
fn span_tree_json(trace: &Trace, span: &Span, depth: usize) -> Json {
    let tags: Vec<(String, Json)> = span
        .tags
        .iter()
        .map(|(k, v)| (k.clone(), tag_json(v)))
        .collect();
    let children: Vec<Json> = if depth < 16 {
        trace
            .children_of(span.id)
            .into_iter()
            .map(|c| span_tree_json(trace, c, depth + 1))
            .collect()
    } else {
        Vec::new()
    };
    Json::Obj(vec![
        ("span_id".into(), Json::Str(format!("{:016x}", span.id.0))),
        ("name".into(), Json::from(span.name.as_str())),
        ("start_us".into(), Json::from(span.start_us)),
        ("duration_us".into(), Json::from(span.duration_us)),
        ("tags".into(), Json::Obj(tags)),
        ("children".into(), Json::Arr(children)),
    ])
}

fn trace_json(t: &Trace) -> Json {
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(t.trace_id.to_hex())),
        ("wall_us".into(), Json::from(t.wall_us)),
        ("sampled".into(), Json::from(t.sampled)),
        ("span_count".into(), Json::from(t.spans.len() as u64)),
        (
            "root".into(),
            t.root().map_or(Json::Null, |r| span_tree_json(t, r, 0)),
        ),
    ])
}

fn trace_summary_json(t: &Trace) -> Json {
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(t.trace_id.to_hex())),
        ("wall_us".into(), Json::from(t.wall_us)),
        ("sampled".into(), Json::from(t.sampled)),
        ("spans".into(), Json::from(t.spans.len() as u64)),
    ])
}

/// `GET /v1/traces/recent`: summaries of the recent ring (oldest first)
/// and the slow-query log (slowest first) — ids here feed
/// `GET /v1/traces/{id}`.
fn handle_traces_recent(edge: &EdgeState) -> Reply {
    let recent: Vec<Json> = edge
        .traces
        .recent()
        .iter()
        .map(trace_summary_json)
        .collect();
    let slow: Vec<Json> = edge.traces.slow().iter().map(trace_summary_json).collect();
    Reply::json(
        200,
        &Json::Obj(vec![
            ("recent".into(), Json::Arr(recent)),
            ("slow".into(), Json::Arr(slow)),
        ]),
    )
}

/// `GET /v1/traces/{id}`: the full span tree of one retained trace.
fn handle_trace_get(edge: &EdgeState, id: &str) -> Reply {
    let Some(id) = TraceId::parse_hex(id) else {
        return Reply::error(ApiError::new(
            400,
            "invalid_trace_id",
            "trace ids are 32 lowercase hex digits",
        ));
    };
    match edge.traces.get(id) {
        Some(t) => Reply::json(200, &trace_json(&t)),
        None => Reply::error(ApiError::new(
            404,
            "trace_not_found",
            format!("no retained trace {}", id.to_hex()),
        )),
    }
}

fn event_json(e: &Event) -> Json {
    let mut obj = vec![
        ("seq".into(), Json::from(e.seq)),
        ("wall_ms".into(), Json::from(e.wall_ms)),
        ("severity".into(), Json::from(e.severity.name())),
        ("source".into(), Json::from(e.source.label())),
    ];
    match e.source {
        Source::Shard(j) => obj.push(("shard".into(), Json::from(j as u64))),
        Source::Replica { shard, replica } => {
            obj.push(("shard".into(), Json::from(shard as u64)));
            obj.push(("replica".into(), Json::from(replica as u64)));
        }
        Source::Service | Source::Supervisor | Source::Gateway => {}
    }
    obj.push(("kind".into(), Json::from(e.kind.name())));
    obj.push((
        "trace_id".into(),
        e.trace_id.map_or(Json::Null, |id| Json::Str(id.to_hex())),
    ));
    obj.push((
        "tags".into(),
        Json::Obj(
            e.tags
                .iter()
                .map(|(k, v)| (k.clone(), tag_json(v)))
                .collect(),
        ),
    ));
    Json::Obj(obj)
}

/// `GET /v1/events?severity=&source=&since_seq=`: the retained slice of
/// the fleet event journal, ascending by sequence number. `next_seq` in
/// the response is the cursor to poll from for only-new events.
fn handle_events(edge: &EdgeState, req: &HttpRequest) -> Reply {
    let query = req.target.split_once('?').map_or("", |(_, q)| q);
    let mut severity: Option<Severity> = None;
    let mut source: Option<String> = None;
    let mut since_seq: u64 = 0;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "severity" => match Severity::parse(value) {
                Some(s) => severity = Some(s),
                None => {
                    return Reply::error(ApiError::new(
                        400,
                        "invalid_request",
                        format!("severity must be info|warn|critical, got {value:?}"),
                    ))
                }
            },
            "source" => {
                if !["service", "shard", "replica", "supervisor", "gateway"].contains(&value) {
                    return Reply::error(ApiError::new(
                        400,
                        "invalid_request",
                        format!("unknown source tier {value:?}"),
                    ));
                }
                source = Some(value.to_string());
            }
            "since_seq" => match value.parse::<u64>() {
                Ok(n) => since_seq = n,
                Err(_) => {
                    return Reply::error(ApiError::new(
                        400,
                        "invalid_request",
                        "since_seq must be an unsigned integer",
                    ))
                }
            },
            other => {
                return Reply::error(ApiError::new(
                    400,
                    "invalid_request",
                    format!("unknown query parameter {other:?}"),
                ))
            }
        }
    }
    let journal = edge.router.events();
    let events: Vec<Json> = journal
        .events_since(since_seq, severity, source.as_deref())
        .iter()
        .map(event_json)
        .collect();
    Reply::json(
        200,
        &Json::Obj(vec![
            ("next_seq".into(), Json::from(journal.next_seq())),
            ("events".into(), Json::Arr(events)),
        ]),
    )
}

fn alert_json(a: &Alert) -> Json {
    Json::Obj(vec![
        ("slo".into(), Json::Str(a.slo.clone())),
        ("state".into(), Json::from(a.state.name())),
        ("seq".into(), Json::from(a.seq)),
        ("wall_ms".into(), Json::from(a.wall_ms)),
        ("burn_rate".into(), Json::Num(a.burn_rate)),
    ])
}

/// `GET /v1/alerts`: currently firing alerts plus the bounded
/// recently-resolved history, each anchored to its journal transition
/// sequence (correlate via `GET /v1/events?since_seq=`).
fn handle_alerts(edge: &EdgeState) -> Reply {
    let slo = edge.router.slo();
    let firing: Vec<Json> = slo.firing().iter().map(alert_json).collect();
    let resolved: Vec<Json> = slo.recently_resolved().iter().map(alert_json).collect();
    Reply::json(
        200,
        &Json::Obj(vec![
            ("firing".into(), Json::Arr(firing)),
            ("recently_resolved".into(), Json::Arr(resolved)),
        ]),
    )
}

/// `POST /v1/update`: `{"op": "insert_membership" | "remove_membership" |
/// "insert_edge", ...}` published through the live update bus.
fn handle_update(edge: &EdgeState, body: &[u8]) -> Reply {
    let parsed = (|| {
        let v = parse_body(edge, body)?;
        let op = field(&v, "op")?.as_str().ok_or_else(|| {
            ApiError::new(400, "invalid_request", "field \"op\" must be a string")
        })?;
        match op {
            "insert_membership" => Ok(Update::InsertMembership {
                vertex: VertexId(field_u32(&v, "vertex")?),
                category: CategoryId(field_u32(&v, "category")?),
            }),
            "remove_membership" => Ok(Update::RemoveMembership {
                vertex: VertexId(field_u32(&v, "vertex")?),
                category: CategoryId(field_u32(&v, "category")?),
            }),
            "insert_edge" => Ok(Update::InsertEdge {
                from: VertexId(field_u32(&v, "from")?),
                to: VertexId(field_u32(&v, "to")?),
                weight: field(&v, "weight")?.as_u64().ok_or_else(|| {
                    ApiError::new(400, "invalid_request", "weight must be an unsigned integer")
                })?,
            }),
            other => Err(ApiError::new(
                400,
                "invalid_request",
                format!("unknown op {other:?}"),
            )),
        }
    })();
    let update = match parsed {
        Ok(u) => u,
        Err(e) => return Reply::error(e),
    };
    match edge.bus.publish(&update) {
        Ok(receipt) => Reply::json(
            200,
            &Json::Obj(vec![
                ("applied".into(), Json::from(receipt.applied)),
                (
                    "replicas_touched".into(),
                    Json::from(receipt.replicas_touched as u64),
                ),
                ("invalidated".into(), Json::from(receipt.invalidated as u64)),
                (
                    "label_entries_added".into(),
                    Json::from(receipt.label_entries_added as u64),
                ),
                (
                    "deferred_replicas".into(),
                    Json::from(receipt.deferred_replicas as u64),
                ),
                (
                    "owner_shard".into(),
                    receipt
                        .owner_shard
                        .map(|j| Json::from(j as u64))
                        .unwrap_or(Json::Null),
                ),
                // The fleet publish epoch this update committed at — the
                // value subscription deltas are tagged with, so a client
                // can correlate its own update with the delta it caused.
                ("epoch".into(), Json::from(receipt.epoch)),
                ("log_len".into(), Json::from(edge.bus.log_len() as u64)),
            ]),
        ),
        Err(e) => Reply::error(api_error_of(&e)),
    }
}

fn delta_json(query: &Query, d: &Delta) -> Json {
    let changed: Vec<Json> = d
        .changed
        .iter()
        .map(|(rank, w)| {
            Json::Obj(vec![
                ("rank".into(), Json::from(*rank as u64)),
                ("route".into(), witness_json(query, w)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("epoch".into(), Json::from(d.epoch)),
        ("new_len".into(), Json::from(d.new_len as u64)),
        ("changed".into(), Json::Arr(changed)),
    ])
}

/// `POST /v1/subscribe`: `{"source", "target", "categories", "k"}` →
/// the minted session id plus the initial full top-k and its epoch.
/// Subsequent answer changes arrive as deltas via the poll endpoint.
fn handle_subscribe(edge: &EdgeState, body: &[u8]) -> Reply {
    let query = match parse_body(edge, body).and_then(|v| parse_query_fields(edge, &v)) {
        Ok(q) => q,
        Err(e) => return Reply::error(e),
    };
    match edge.subs.subscribe(query.clone()) {
        Ok(reply) => {
            let routes: Vec<Json> = reply
                .routes
                .iter()
                .map(|w| witness_json(&query, w))
                .collect();
            Reply::json(
                200,
                &Json::Obj(vec![
                    ("session".into(), Json::from(reply.id.0)),
                    ("epoch".into(), Json::from(reply.epoch)),
                    ("k".into(), Json::from(query.k as u64)),
                    ("routes".into(), Json::Arr(routes)),
                ]),
            )
        }
        Err(e) => Reply::error(api_error_of(&e)),
    }
}

fn parse_session_id(segment: &str) -> Result<SessionId, ApiError> {
    segment.parse::<u64>().map(SessionId).map_err(|_| {
        ApiError::new(
            400,
            "invalid_session",
            "session ids are unsigned decimal integers",
        )
    })
}

fn unknown_session(id: SessionId) -> Reply {
    Reply::error(ApiError::new(
        404,
        "unknown_session",
        format!("no subscription {id}"),
    ))
}

/// `GET /v1/subscribe/{id}/poll?wait_ms=`: drains the session's queued
/// deltas, long-polling up to `wait_ms` (clamped to the configured
/// maximum) when none are pending. After a queue overflow or a failed
/// recompute the answer is a typed full resync instead — `resync: true`
/// with the complete current top-k — telling the client to discard its
/// replayed state. Streamed chunked: delta payloads are unbounded in the
/// number of changed ranks.
fn handle_subscribe_poll(edge: &EdgeState, id: &str, req: &HttpRequest) -> Reply {
    let id = match parse_session_id(id) {
        Ok(id) => id,
        Err(e) => return Reply::error(e),
    };
    let raw_query = req.target.split_once('?').map_or("", |(_, q)| q);
    let mut wait = Duration::ZERO;
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "wait_ms" => match value.parse::<u64>() {
                Ok(ms) => wait = Duration::from_millis(ms).min(edge.config.max_poll_wait),
                Err(_) => {
                    return Reply::error(ApiError::new(
                        400,
                        "invalid_request",
                        "wait_ms must be an unsigned integer",
                    ))
                }
            },
            other => {
                return Reply::error(ApiError::new(
                    400,
                    "invalid_request",
                    format!("unknown query parameter {other:?}"),
                ))
            }
        }
    }
    match edge.subs.poll(id, wait) {
        PollResponse::Deltas { query, deltas } => {
            let deltas: Vec<Json> = deltas.iter().map(|d| delta_json(&query, d)).collect();
            Reply::Chunked(
                200,
                JSON_TYPE,
                Json::Obj(vec![
                    ("resync".into(), Json::from(false)),
                    ("deltas".into(), Json::Arr(deltas)),
                ])
                .to_string()
                .into_bytes(),
            )
        }
        PollResponse::Resync {
            query,
            routes,
            epoch,
        } => {
            let routes: Vec<Json> = routes.iter().map(|w| witness_json(&query, w)).collect();
            Reply::Chunked(
                200,
                JSON_TYPE,
                Json::Obj(vec![
                    ("resync".into(), Json::from(true)),
                    ("epoch".into(), Json::from(epoch)),
                    ("routes".into(), Json::Arr(routes)),
                ])
                .to_string()
                .into_bytes(),
            )
        }
        PollResponse::UnknownSession => unknown_session(id),
        PollResponse::Failed(e) => Reply::error(api_error_of(&e)),
    }
}

/// `DELETE /v1/subscribe/{id}`: ends the standing query.
fn handle_unsubscribe(edge: &EdgeState, id: &str) -> Reply {
    let id = match parse_session_id(id) {
        Ok(id) => id,
        Err(e) => return Reply::error(e),
    };
    if edge.subs.unsubscribe(id) {
        Reply::json(200, &Json::Obj(vec![("removed".into(), Json::from(true))]))
    } else {
        unknown_session(id)
    }
}

/// `GET /healthz`: `200` when every replica of every shard is serving,
/// `503` with the same body when degraded.
fn handle_healthz(edge: &EdgeState) -> Reply {
    let mut all_healthy = true;
    let shards: Vec<Json> = (0..edge.router.num_shards())
        .map(|j| {
            let snap = edge.router.replica_set(j).health_snapshot();
            all_healthy &= snap.all_healthy();
            Json::Obj(vec![
                ("shard".into(), Json::from(j as u64)),
                (
                    "replicas".into(),
                    Json::Arr(
                        snap.health
                            .iter()
                            .map(|h| {
                                Json::from(match h {
                                    kosr_transport::ReplicaHealth::Healthy => "healthy",
                                    kosr_transport::ReplicaHealth::Down => "down",
                                })
                            })
                            .collect(),
                    ),
                ),
                ("healthy".into(), Json::from(snap.healthy as u64)),
                ("failovers".into(), Json::from(snap.failovers)),
            ])
        })
        .collect();
    let mut body = vec![
        ("healthy".into(), Json::from(all_healthy)),
        ("shards".into(), Json::Arr(shards)),
    ];
    if let Some(sup) = &edge.supervisor {
        let r = sup.report();
        body.push((
            "supervisor".into(),
            Json::Obj(vec![
                ("ticks".into(), Json::from(r.ticks)),
                ("replays".into(), Json::from(r.replays)),
                (
                    "snapshot_refreshes".into(),
                    Json::from(r.snapshot_refreshes),
                ),
                ("compactions".into(), Json::from(r.compactions)),
                ("recovery_failures".into(), Json::from(r.recovery_failures)),
            ]),
        ));
    }
    Reply::json(if all_healthy { 200 } else { 503 }, &Json::Obj(body))
}

/// `GET /metrics`: the Prometheus exposition aggregating the gateway's
/// own counters, per-shard health and service stats, and the supervisor
/// report — streamed chunked.
fn handle_metrics(edge: &EdgeState) -> Reply {
    let mut registry = MetricsRegistry::new();
    registry.collect(edge.stats.as_ref());
    registry.collect(edge.traces.as_ref());
    registry.collect(edge.router.as_ref());
    registry.collect(edge.router.events().as_ref());
    registry.collect(edge.router.slo().as_ref());
    registry.collect(edge.subs.as_ref());
    if let Some(sup) = &edge.supervisor {
        registry.collect(sup.as_ref());
    }
    Reply::Chunked(200, METRICS_TYPE, registry.render().into_bytes())
}

fn dispatch(edge: &EdgeState, req: &HttpRequest, received: Instant) -> (Endpoint, Reply) {
    match (req.method.as_str(), req.path()) {
        ("POST", "/v1/route") => (Endpoint::Route, handle_route(edge, &req.body, received)),
        ("POST", "/v1/update") => (Endpoint::Update, handle_update(edge, &req.body)),
        ("GET", "/healthz") => (Endpoint::Healthz, handle_healthz(edge)),
        ("GET", "/metrics") => (Endpoint::Metrics, handle_metrics(edge)),
        ("GET", "/v1/traces/recent") => (Endpoint::Traces, handle_traces_recent(edge)),
        ("GET", path) if path.starts_with("/v1/traces/") => (
            Endpoint::Traces,
            handle_trace_get(edge, path.trim_start_matches("/v1/traces/")),
        ),
        ("GET", "/v1/events") => (Endpoint::Events, handle_events(edge, req)),
        ("GET", "/v1/alerts") => (Endpoint::Alerts, handle_alerts(edge)),
        ("POST", "/v1/subscribe") => (Endpoint::Subscribe, handle_subscribe(edge, &req.body)),
        ("GET", path)
            if path
                .strip_prefix("/v1/subscribe/")
                .and_then(|rest| rest.strip_suffix("/poll"))
                .is_some() =>
        {
            let id = path
                .strip_prefix("/v1/subscribe/")
                .and_then(|rest| rest.strip_suffix("/poll"))
                .expect("guard matched");
            (Endpoint::Subscribe, handle_subscribe_poll(edge, id, req))
        }
        ("DELETE", path) if path.starts_with("/v1/subscribe/") => (
            Endpoint::Subscribe,
            handle_unsubscribe(edge, path.trim_start_matches("/v1/subscribe/")),
        ),
        (_, path)
            if matches!(
                path,
                "/v1/route"
                    | "/v1/update"
                    | "/healthz"
                    | "/metrics"
                    | "/v1/events"
                    | "/v1/alerts"
                    | "/v1/subscribe"
            ) || path.starts_with("/v1/traces/")
                || path.starts_with("/v1/subscribe/") =>
        {
            (
                Endpoint::Other,
                Reply::error(ApiError::new(
                    405,
                    "method_not_allowed",
                    format!("{} not allowed here", req.method),
                )),
            )
        }
        (_, path) => (
            Endpoint::Other,
            Reply::error(ApiError::new(
                404,
                "not_found",
                format!("no such endpoint {path:?}"),
            )),
        ),
    }
}

fn serve_connection(stream: TcpStream, edge: Arc<EdgeState>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    // Short read timeout: idle keep-alive connections wake periodically
    // to observe shutdown instead of pinning their handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let limits = HttpLimits {
        max_head_bytes: edge.config.max_head_bytes,
        max_body_bytes: edge.config.max_body_bytes,
        ..HttpLimits::default()
    };
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    while !shutdown.load(Ordering::Acquire) {
        let req = match read_request(&mut reader, &limits) {
            Ok(req) => req,
            Err(HttpError::Idle) => continue,
            Err(HttpError::ConnectionClosed) => break,
            Err(e) => {
                // Only protocol offenses count as malformed; clients that
                // hang up or stall mid-request (`None` statuses) are
                // ordinary churn, not abuse.
                if let Some(status) = status_of_parse_error(&e) {
                    edge.stats.malformed();
                    let reply = ApiError::new(status, "malformed_request", e.to_string());
                    let body = reply.body().to_string();
                    let _ = write_response(&mut writer, status, JSON_TYPE, body.as_bytes(), false);
                    edge.stats.record(Endpoint::Other, status, Duration::ZERO);
                }
                break;
            }
        };
        let received = Instant::now();
        let keep_alive = req.keep_alive;
        let (endpoint, reply) = dispatch(&edge, &req, received);
        let status = reply.status();
        let written = match reply {
            Reply::Fixed(status, content_type, body) => {
                write_response(&mut writer, status, content_type, &body, keep_alive)
            }
            Reply::WithHeaders(status, content_type, headers, body) => write_response_with_headers(
                &mut writer,
                status,
                content_type,
                &headers,
                &body,
                keep_alive,
            ),
            // Chunked framing only exists in HTTP/1.1; a 1.0 client gets
            // the same body with a Content-Length instead.
            Reply::Chunked(status, content_type, body) if req.http11 => {
                write_response_chunked(&mut writer, status, content_type, &body, 1024, keep_alive)
            }
            Reply::Chunked(status, content_type, body) => {
                write_response(&mut writer, status, content_type, &body, keep_alive)
            }
        };
        edge.stats.record(endpoint, status, received.elapsed());
        if written.is_err() || !keep_alive {
            break;
        }
    }
}

/// The running HTTP edge. Dropping it shuts the listener down and joins
/// every connection handler.
pub struct Gateway {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<thread::JoinHandle<()>>,
    stats: Arc<GatewayStats>,
    traces: Arc<TraceStore>,
    subs: Arc<SubscriptionHub>,
}

impl Gateway {
    /// Binds `127.0.0.1:0` and serves `router` (and `supervisor`'s
    /// counters, when given) until dropped. The update bus the `/v1/update`
    /// surface publishes through is created from the router.
    pub fn spawn(
        router: Arc<ShardRouter>,
        supervisor: Option<Arc<SupervisorHandle>>,
        config: GatewayConfig,
    ) -> io::Result<Gateway> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(GatewayStats::default());
        let traces = Arc::new(TraceStore::new(config.trace_recent, config.trace_slow));
        // The subscription hub rides the router's observer registry: every
        // bus publish — from this edge or any other handle — sweeps the
        // standing queries through the invalidation filter.
        let subs = Arc::new(SubscriptionHub::new(
            &router,
            HubConfig {
                queue_capacity: config.subscribe_queue,
            },
        ));
        router.register_update_observer(Arc::clone(&subs) as _);
        let edge = Arc::new(EdgeState {
            bus: router.update_bus(),
            subs: Arc::clone(&subs),
            json_limits: JsonLimits {
                max_bytes: config.max_body_bytes,
                max_depth: config.json_depth,
            },
            router,
            supervisor,
            stats: Arc::clone(&stats),
            traces: Arc::clone(&traces),
            config,
            slots: AtomicUsize::new(0),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_handle = thread::Builder::new()
            .name(format!("kosr-gateway-{}", addr.port()))
            .spawn(move || {
                let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
                // A blocking accept: a client that connects per request
                // is served at once. `shutdown` wakes it with a connection
                // of its own, which is neither served nor counted.
                loop {
                    match listener.accept() {
                        Ok(_) if flag.load(Ordering::Acquire) => break,
                        Ok((stream, _)) => {
                            handlers.retain(|h| !h.is_finished());
                            if !edge.try_acquire_slot() {
                                // Admission control at the front door: the
                                // connection past the cap gets a typed 503
                                // and the socket back, not a hang. The
                                // write happens off the accept thread so a
                                // flood of never-reading clients can't
                                // stall accepts for admitted traffic.
                                edge.stats.connection_rejected();
                                let max = edge.config.max_connections;
                                // The rejection is journaled with a minted
                                // trace id, and a stub trace retained, so
                                // the 503's X-Kosr-Trace-Id resolves via
                                // /v1/traces/{id} like any other error.
                                let trace_id = TraceId::mint();
                                let ctx = TraceContext::root(trace_id, false);
                                let seq = edge.router.events().emit(
                                    Source::Gateway,
                                    EventKind::AdmissionRejected,
                                    Some(trace_id),
                                    vec![
                                        (
                                            "reason".to_string(),
                                            TagValue::Str("connection_limit".to_string()),
                                        ),
                                        ("max_connections".to_string(), TagValue::U64(max as u64)),
                                    ],
                                );
                                edge.traces.record(Trace {
                                    trace_id,
                                    wall_us: 0,
                                    sampled: false,
                                    spans: vec![Span::new(ctx.parent_span, None, "gateway", 0, 0)
                                        .tag("status", TagValue::U64(503))
                                        .tag("rejected", TagValue::Bool(true))
                                        .tag("event_seq", TagValue::U64(seq))],
                                });
                                handlers.push(thread::spawn(move || {
                                    let mut stream = stream;
                                    let _ =
                                        stream.set_write_timeout(Some(Duration::from_millis(200)));
                                    let body = ApiError::new(
                                        503,
                                        "connection_limit",
                                        format!("connection pool of {max} is full"),
                                    )
                                    .body()
                                    .to_string();
                                    let headers = [("X-Kosr-Trace-Id", trace_id.to_hex())];
                                    let _ = write_response_with_headers(
                                        &mut stream,
                                        503,
                                        JSON_TYPE,
                                        &headers,
                                        body.as_bytes(),
                                        false,
                                    );
                                }));
                                continue;
                            }
                            edge.stats.connection_accepted();
                            let edge = Arc::clone(&edge);
                            let flag = Arc::clone(&flag);
                            handlers.push(thread::spawn(move || {
                                // Held for the whole connection: released
                                // on return *and* on panic.
                                let _slot = SlotGuard(Arc::clone(&edge));
                                serve_connection(stream, edge, flag);
                            }));
                        }
                        Err(_) => break,
                    }
                }
                for h in handlers {
                    let _ = h.join();
                }
            })
            .expect("spawn gateway accept loop");
        Ok(Gateway {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            stats,
            traces,
            subs,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The edge's live counters (shared with the running handlers).
    pub fn stats(&self) -> &Arc<GatewayStats> {
        &self.stats
    }

    /// The edge's trace retention: the recent ring, the slow-query log,
    /// and the sampling counters — what `/v1/traces/*` serves from.
    pub fn traces(&self) -> &Arc<TraceStore> {
        &self.traces
    }

    /// The standing-query hub behind `/v1/subscribe` — its counters
    /// (wakes, proven skips, deltas pushed) also ride `/metrics`.
    pub fn subscriptions(&self) -> &Arc<SubscriptionHub> {
        &self.subs
    }

    /// Stops accepting, wakes idle keep-alive handlers, joins everything.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            // Wake the blocked accept; the loop sees the flag first.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use kosr_core::figure1::figure1;
    use kosr_core::IndexedGraph;
    use kosr_graph::{PartitionConfig, Partitioner};
    use kosr_service::{validate_prometheus_text, ServiceConfig};
    use kosr_shard::ShardSet;
    use std::io::Write;

    fn fleet(
        shards: usize,
        replicas: usize,
    ) -> (
        Arc<ShardRouter>,
        Vec<kosr_transport::KillSwitch>,
        kosr_core::figure1::Figure1,
    ) {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: shards,
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
            replicas,
            |_, _, t| {
                switches.push(t.kill_switch());
                Arc::new(t)
            },
        );
        (Arc::new(router), switches, fx)
    }

    fn spawn_gateway(router: &Arc<ShardRouter>) -> Gateway {
        Gateway::spawn(Arc::clone(router), None, GatewayConfig::default()).unwrap()
    }

    fn route_body(fx: &kosr_core::figure1::Figure1, k: usize) -> String {
        format!(
            r#"{{"source": {}, "target": {}, "categories": [{}, {}, {}], "k": {k}}}"#,
            fx.s.0, fx.t.0, fx.ma.0, fx.re.0, fx.ci.0
        )
    }

    #[test]
    fn idle_shutdown_is_prompt_and_its_wake_connection_is_not_served() {
        let (router, _switches, _fx) = fleet(1, 1);
        let mut gw = spawn_gateway(&router);
        let stats = Arc::clone(gw.stats());
        // The accept loop is parked in `accept`: only shutdown's own
        // connection can wake it, and the loop must not serve that one.
        let started = Instant::now();
        gw.shutdown();
        assert!(started.elapsed() < Duration::from_millis(200));
        assert_eq!(stats.connections_accepted(), 0);
        assert_eq!(stats.connections_rejected(), 0);
        assert_eq!(stats.requests(), 0);
    }

    #[test]
    fn routes_figure1_over_http_bit_identically() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&route_body(&fx, 3))).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        let routes = v.get("routes").unwrap().as_array().unwrap();
        let costs: Vec<u64> = routes
            .iter()
            .map(|r| r.get("cost").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(costs, vec![20, 21, 22], "Example 1 over HTTP");

        // Bit-identical to the direct router answer: same vertex tuples.
        let direct = router
            .submit(Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3))
            .unwrap()
            .wait()
            .unwrap();
        for (route, w) in routes.iter().zip(&direct.outcome.witnesses) {
            let vertices: Vec<u64> = route
                .get("vertices")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap())
                .collect();
            let want: Vec<u64> = w.vertices.iter().map(|v| v.0 as u64).collect();
            assert_eq!(vertices, want);
            // The stop breakdown pairs interior vertices with the query's
            // category sequence.
            let stops = route.get("stops").unwrap().as_array().unwrap();
            assert_eq!(stops.len(), 3);
            assert_eq!(
                stops[0].get("category").unwrap().as_u64().unwrap(),
                fx.ma.0 as u64
            );
            assert_eq!(
                stops[0].get("vertex").unwrap().as_u64().unwrap(),
                w.vertices[1].0 as u64
            );
        }
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert!(v.get("latency_us").unwrap().as_u64().is_some());
    }

    #[test]
    fn traced_route_returns_header_and_full_span_tree() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&route_body(&fx, 3))).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let id = resp
            .header("x-kosr-trace-id")
            .expect("sampled route responses carry X-Kosr-Trace-Id")
            .to_string();

        // The retained trace is structurally valid…
        let trace = gw
            .traces()
            .get(kosr_service::TraceId::parse_hex(&id).unwrap())
            .expect("trace retrievable by its advertised id");
        trace.validate().expect("assembled trace validates");
        assert!(trace.sampled);

        // …and the HTTP surface serves its span tree: gateway → router →
        // shard → replica → execute, with the paper's counters as tags.
        let fetched = client::call(gw.addr(), "GET", &format!("/v1/traces/{id}"), None).unwrap();
        assert_eq!(fetched.status, 200, "{}", fetched.text());
        let v = fetched.json().unwrap();
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some(id.as_str()));
        let root = v.get("root").unwrap();
        assert_eq!(root.get("name").unwrap().as_str(), Some("gateway"));
        let children = root.get("children").unwrap().as_array().unwrap();
        let names: Vec<&str> = children
            .iter()
            .map(|c| c.get("name").unwrap().as_str().unwrap())
            .collect();
        for stage in ["parse", "router", "serialize"] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        let router_node = children
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("router"))
            .unwrap();
        let shard_nodes: Vec<_> = router_node
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|c| c.get("name").unwrap().as_str() == Some("shard"))
            .collect();
        assert_eq!(shard_nodes.len(), 2, "one shard span per fanned shard");
        let replica = shard_nodes[0].get("children").unwrap().as_array().unwrap()[0].clone();
        assert_eq!(replica.get("name").unwrap().as_str(), Some("replica"));
        let execute = replica
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("execute"))
            .cloned()
            .expect("replica execute span");
        let tags = execute.get("tags").unwrap();
        assert!(tags.get("method").unwrap().as_str().is_some());
        assert!(tags.get("pne_expansions").unwrap().as_u64().is_some());
        let cache = replica
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("cache"))
            .cloned()
            .expect("replica cache span");
        assert!(cache
            .get("tags")
            .unwrap()
            .get("hit")
            .unwrap()
            .as_bool()
            .is_some());
    }

    #[test]
    fn traces_recent_lists_and_bad_ids_are_typed() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        for _ in 0..2 {
            client::call(addr, "POST", "/v1/route", Some(&route_body(&fx, 1))).unwrap();
        }
        let resp = client::call(addr, "GET", "/v1/traces/recent", None).unwrap();
        assert_eq!(resp.status, 200);
        let v = resp.json().unwrap();
        assert_eq!(v.get("recent").unwrap().as_array().unwrap().len(), 2);
        assert!(!v.get("slow").unwrap().as_array().unwrap().is_empty());

        // Malformed id → 400, unknown id → 404, wrong method → 405.
        let resp = client::call(addr, "GET", "/v1/traces/nope", None).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid_trace_id"));
        let resp =
            client::call(addr, "GET", &format!("/v1/traces/{}", "0".repeat(32)), None).unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.text().contains("trace_not_found"));
        let resp = client::call(addr, "POST", "/v1/traces/recent", Some("{}")).unwrap();
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn unsampled_requests_still_capture_the_slow_tail() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = Gateway::spawn(
            Arc::clone(&router),
            None,
            GatewayConfig {
                trace_sample_ratio: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        // With sampling off, the edge-only trace still competes for the
        // slow log — and an empty log admits the first comer.
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&route_body(&fx, 1))).unwrap();
        assert_eq!(resp.status, 200);
        let id = resp
            .header("x-kosr-trace-id")
            .expect("slow-tail capture still advertises the trace id")
            .to_string();
        let fetched = client::call(gw.addr(), "GET", &format!("/v1/traces/{id}"), None).unwrap();
        assert_eq!(fetched.status, 200);
        let v = fetched.json().unwrap();
        assert_eq!(v.get("sampled").unwrap().as_bool(), Some(false));
        // Edge-only: gateway-tier spans, no propagated shard/replica tree.
        let root = v.get("root").unwrap();
        let names: Vec<String> = root
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"router".to_string()));
        let router_node = root
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("router"))
            .cloned()
            .unwrap();
        assert!(
            router_node
                .get("children")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "unsampled contexts never reach the shards"
        );
        assert_eq!(gw.traces().sampled_total(), 0);
        assert!(gw.traces().slow_only_total() >= 1);
    }

    #[test]
    fn status_class_is_counted_once_after_deadline_rewrites() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = Gateway::spawn(
            Arc::clone(&router),
            None,
            GatewayConfig {
                default_deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap();
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&route_body(&fx, 1))).unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.text().contains("deadline_exceeded"));
        // The handler records stats after writing the response; wait for
        // the count to land before asserting on it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while gw.stats().requests() < 1 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        // Exactly one response counted, in the *final* (rewritten) class:
        // a request the deadline turned into a 503 must not also leave a
        // 2xx behind.
        assert_eq!(gw.stats().responses_by_class(), (0, 0, 1));
    }

    #[test]
    fn typed_4xx_for_invalid_queries_and_bodies() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        let kind_of = |resp: &client::HttpResponse| {
            resp.json()
                .unwrap()
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };

        // Malformed JSON.
        let resp = client::call(addr, "POST", "/v1/route", Some("{nope")).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp), "invalid_json");

        // Missing field.
        let resp = client::call(addr, "POST", "/v1/route", Some(r#"{"source": 1}"#)).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp), "invalid_request");

        // Unknown category: the shard layer's typed rejection surfaces as
        // invalid_query.
        let body = format!(
            r#"{{"source": {}, "target": {}, "categories": [40], "k": 1}}"#,
            fx.s.0, fx.t.0
        );
        let resp = client::call(addr, "POST", "/v1/route", Some(&body)).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp), "invalid_query");
        assert!(resp.text().contains("category"), "{}", resp.text());

        // k = 0.
        let body = format!(
            r#"{{"source": {}, "target": {}, "categories": [{}], "k": 0}}"#,
            fx.s.0, fx.t.0, fx.ma.0
        );
        let resp = client::call(addr, "POST", "/v1/route", Some(&body)).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp), "invalid_query");

        // k past the admission cap is refused before any runner pre-sizes
        // a result buffer by it.
        let body = format!(
            r#"{{"source": {}, "target": {}, "categories": [{}], "k": 4294967295}}"#,
            fx.s.0, fx.t.0, fx.ma.0
        );
        let resp = client::call(addr, "POST", "/v1/route", Some(&body)).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp), "invalid_request");
        assert!(resp.text().contains("1..=1024"), "{}", resp.text());

        // Invalid update op.
        let resp = client::call(addr, "POST", "/v1/update", Some(r#"{"op": "destroy"}"#)).unwrap();
        assert_eq!(resp.status, 400);
        // Out-of-range update vertex: the bus's typed rejection.
        let resp = client::call(
            addr,
            "POST",
            "/v1/update",
            Some(r#"{"op": "insert_membership", "vertex": 999, "category": 0}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(kind_of(&resp), "invalid_update");

        // Unknown path / wrong method.
        assert_eq!(
            client::call(addr, "GET", "/nope", None).unwrap().status,
            404
        );
        assert_eq!(
            client::call(addr, "GET", "/v1/route", None).unwrap().status,
            405
        );
        let (ok, client_err, _) = gw.stats().responses_by_class();
        assert!(client_err >= 7, "4xx counted: {client_err}");
        assert_eq!(ok, 0);
    }

    #[test]
    fn zero_deadline_is_a_503_and_larger_ones_pass() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let body = format!(
            r#"{{"source": {}, "target": {}, "categories": [{}], "k": 1, "deadline_ms": 0}}"#,
            fx.s.0, fx.t.0, fx.ma.0
        );
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&body)).unwrap();
        assert_eq!(resp.status, 503, "{}", resp.text());
        assert!(resp.text().contains("deadline_exceeded"));

        let body = body.replace("\"deadline_ms\": 0", "\"deadline_ms\": 30000");
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&body)).unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn oversized_bodies_are_413_before_allocation() {
        let (router, _switches, _fx) = fleet(2, 1);
        let mut gw = Gateway::spawn(
            Arc::clone(&router),
            None,
            GatewayConfig {
                max_body_bytes: 256,
                ..Default::default()
            },
        )
        .unwrap();

        // A raw request declaring an absurd Content-Length: if the server
        // tried to allocate it, this test would OOM instead of passing.
        let mut stream = TcpStream::connect(gw.addr()).unwrap();
        write!(
            stream,
            "POST /v1/route HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            u64::MAX
        )
        .unwrap();
        let resp = client::read_response(&mut stream).unwrap();
        assert_eq!(resp.status, 413);
        assert!(resp.text().contains("malformed_request"));
        gw.shutdown();
    }

    #[test]
    fn updates_publish_through_the_bus_and_change_answers() {
        let (router, _switches, fx) = fleet(3, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        let before = client::call(addr, "POST", "/v1/route", Some(&route_body(&fx, 1)))
            .unwrap()
            .json()
            .unwrap();
        let best = before.get("routes").unwrap().as_array().unwrap()[0].clone();
        assert_eq!(best.get("cost").unwrap().as_u64(), Some(20));
        // Close the best route's restaurant (stop index 1 = RE).
        let gone = best.get("stops").unwrap().as_array().unwrap()[1]
            .get("vertex")
            .unwrap()
            .as_u64()
            .unwrap();

        let update = format!(
            r#"{{"op": "remove_membership", "vertex": {gone}, "category": {}}}"#,
            fx.re.0
        );
        let resp = client::call(addr, "POST", "/v1/update", Some(&update)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let receipt = resp.json().unwrap();
        assert_eq!(receipt.get("applied").unwrap().as_bool(), Some(true));
        assert!(receipt.get("replicas_touched").unwrap().as_u64().unwrap() > 0);
        // The fleet publish epoch rides the receipt: log tail after commit.
        assert_eq!(receipt.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(receipt.get("log_len").unwrap().as_u64(), Some(1));

        let after = client::call(addr, "POST", "/v1/route", Some(&route_body(&fx, 1)))
            .unwrap()
            .json()
            .unwrap();
        let cost = after.get("routes").unwrap().as_array().unwrap()[0]
            .get("cost")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(cost > 20, "closing the best RE must raise the best cost");
    }

    #[test]
    fn healthz_flips_on_replica_kill() {
        let (router, switches, fx) = fleet(2, 2);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        let resp = client::call(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.json().unwrap().get("healthy").unwrap().as_bool(),
            Some(true)
        );

        // Kill shard 0 replica 0; a routed query observes the fault and
        // fails over, flipping the health page.
        switches[0].kill();
        let routed = client::call(addr, "POST", "/v1/route", Some(&route_body(&fx, 3))).unwrap();
        assert_eq!(routed.status, 200, "failover hides the kill");
        let resp = client::call(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 503, "degraded fleet");
        let v = resp.json().unwrap();
        assert_eq!(v.get("healthy").unwrap().as_bool(), Some(false));
        let shard0 = &v.get("shards").unwrap().as_array().unwrap()[0];
        assert_eq!(
            shard0.get("replicas").unwrap().as_array().unwrap()[0].as_str(),
            Some("down")
        );
    }

    #[test]
    fn metrics_page_is_valid_prometheus_with_fleet_counters() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        for _ in 0..3 {
            client::call(addr, "POST", "/v1/route", Some(&route_body(&fx, 3))).unwrap();
        }
        let resp = client::call(addr, "GET", "/metrics", None).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")));
        let text = resp.text();
        validate_prometheus_text(&text).expect(&text);
        for needle in [
            "kosr_gateway_qps",
            "kosr_gateway_latency_seconds{quantile=\"0.5\"}",
            "kosr_gateway_latency_seconds{quantile=\"0.99\"}",
            "kosr_gateway_shard_cache_hit_rate",
            "kosr_shard_replicas_healthy{shard=\"0\"}",
            "kosr_shard_failovers_total",
            "kosr_service_qps{shard=\"0\",replica=\"0\"}",
            "kosr_service_cache_hit_rate{shard=",
            "kosr_gateway_requests_total{endpoint=\"route\"} 3",
            "kosr_trace_sampled_total 3",
            "kosr_trace_slow_retained",
            "# TYPE kosr_gateway_latency_histogram_seconds histogram",
            "kosr_gateway_latency_histogram_seconds_bucket",
            "kosr_service_latency_histogram_seconds_bucket{shard=\"0\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Repeat queries hit the replica caches; the edge sees it.
        assert!(gw.stats().shard_cache_hit_rate() > 0.0);
    }

    #[test]
    fn metrics_over_http10_uses_content_length_not_chunked() {
        let (router, _switches, _fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let mut stream = TcpStream::connect(gw.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let resp = client::read_response(&mut stream).unwrap();
        assert_eq!(resp.status, 200);
        // HTTP/1.0 has no chunked framing: the same body arrives with a
        // Content-Length instead.
        assert!(resp.header("transfer-encoding").is_none());
        assert!(resp.header("content-length").is_some());
        validate_prometheus_text(&resp.text()).unwrap();
    }

    #[test]
    fn connection_pool_admission_rejects_the_overflow_with_503() {
        let (router, _switches, fx) = fleet(2, 1);
        let mut gw = Gateway::spawn(
            Arc::clone(&router),
            None,
            GatewayConfig {
                max_connections: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // The first connection provably holds the only slot: it completes
        // a keep-alive request/response round trip before anyone else
        // connects.
        let mut holder = TcpStream::connect(gw.addr()).unwrap();
        holder
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let body = route_body(&fx, 1);
        write!(
            holder,
            "POST /v1/route HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        assert_eq!(client::read_response(&mut holder).unwrap().status, 200);

        // The overflow connection is refused at the gate, deterministically.
        let mut stream = TcpStream::connect(gw.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let overflow = client::read_response(&mut stream).unwrap();
        assert_eq!(overflow.status, 503);
        assert!(overflow.text().contains("connection_limit"));
        assert!(gw.stats().connections_rejected() >= 1);

        // Freeing the slot readmits new connections.
        drop(holder);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match client::call(gw.addr(), "POST", "/v1/route", Some(&route_body(&fx, 1))) {
                Ok(resp) if resp.status == 200 => break,
                _ if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                other => panic!("slot never freed: {other:?}"),
            }
        }
        gw.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let mut stream = TcpStream::connect(gw.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for k in 1..=3 {
            let body = route_body(&fx, k);
            write!(
                stream,
                "POST /v1/route HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .unwrap();
            let resp = read_keep_alive_response(&mut stream);
            assert_eq!(resp.status, 200);
            let v = resp.json().unwrap();
            assert_eq!(
                v.get("routes").unwrap().as_array().unwrap().len(),
                k,
                "k={k} on one connection"
            );
        }
    }

    /// Reads one fixed-length response without consuming past it (the
    /// shared client assumes Connection: close).
    fn read_keep_alive_response(stream: &mut TcpStream) -> client::HttpResponse {
        client::read_response(stream).unwrap()
    }

    #[test]
    fn events_endpoint_serves_the_journal_with_filters() {
        let (router, switches, fx) = fleet(2, 2);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();

        // A published update journals UpdatePublished at the fleet tier.
        let update = format!(
            r#"{{"op": "insert_edge", "from": {}, "to": {}, "weight": 9}}"#,
            fx.s.0, fx.t.0
        );
        assert_eq!(
            client::call(addr, "POST", "/v1/update", Some(&update))
                .unwrap()
                .status,
            200
        );
        // A killed replica observed by a live query journals a Critical
        // failover.
        switches[0].kill();
        let routed = client::call(addr, "POST", "/v1/route", Some(&route_body(&fx, 3))).unwrap();
        assert_eq!(routed.status, 200, "failover hides the kill");

        let resp = client::call(addr, "GET", "/v1/events", None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        let next_seq = v.get("next_seq").unwrap().as_u64().unwrap();
        assert!(next_seq >= 2, "at least publish + failover journaled");
        let events = v.get("events").unwrap().as_array().unwrap();
        let kinds: Vec<String> = events
            .iter()
            .map(|e| e.get("kind").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(kinds.contains(&"update_published".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"failover".to_string()), "{kinds:?}");
        // Ascending, gap-free-observable seqs.
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").unwrap().as_u64().unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");

        // severity filter narrows to the Critical ring.
        let resp = client::call(addr, "GET", "/v1/events?severity=critical", None).unwrap();
        assert_eq!(resp.status, 200);
        let v = resp.json().unwrap();
        for e in v.get("events").unwrap().as_array().unwrap() {
            assert_eq!(e.get("severity").unwrap().as_str(), Some("critical"));
        }
        // since_seq returns only the tail; polling from next_seq is empty.
        let resp = client::call(
            addr,
            "GET",
            &format!("/v1/events?since_seq={next_seq}"),
            None,
        )
        .unwrap();
        let v = resp.json().unwrap();
        assert!(v.get("events").unwrap().as_array().unwrap().is_empty());

        // Typed 400s for malformed filters; 405 for wrong method.
        for bad in [
            "/v1/events?severity=loud",
            "/v1/events?since_seq=soon",
            "/v1/events?source=mars",
            "/v1/events?color=red",
        ] {
            let resp = client::call(addr, "GET", bad, None).unwrap();
            assert_eq!(resp.status, 400, "{bad}");
            assert!(resp.text().contains("invalid_request"), "{bad}");
        }
        assert_eq!(
            client::call(addr, "POST", "/v1/events", Some("{}"))
                .unwrap()
                .status,
            405
        );
        assert!(gw.stats().requests_on(Endpoint::Events) >= 3);
    }

    #[test]
    fn alerts_endpoint_and_event_metrics_are_exposed() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        let resp = client::call(addr, "GET", "/v1/alerts", None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        assert!(v.get("firing").unwrap().as_array().unwrap().is_empty());
        assert!(v
            .get("recently_resolved")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        // Journal some activity, then check the /metrics families.
        let update = format!(
            r#"{{"op": "insert_edge", "from": {}, "to": {}, "weight": 9}}"#,
            fx.s.0, fx.t.0
        );
        client::call(addr, "POST", "/v1/update", Some(&update)).unwrap();
        let text = client::call(addr, "GET", "/metrics", None).unwrap().text();
        validate_prometheus_text(&text).expect(&text);
        for needle in [
            "kosr_events_emitted_total",
            "kosr_events_total{severity=\"info\",kind=\"update_published\"}",
            "kosr_alert_active{slo=\"availability\"} 0",
            "kosr_alert_active{slo=\"latency_p99\"} 0",
            "kosr_alert_transitions_total{slo=\"availability\",state=\"firing\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(gw.stats().requests_on(Endpoint::Alerts) >= 1);
    }

    #[test]
    fn server_errors_always_carry_a_resolvable_trace_id() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = Gateway::spawn(
            Arc::clone(&router),
            None,
            GatewayConfig {
                // Sampling off *and* an instantly expired deadline: the
                // 503 must still advertise a retrievable trace.
                trace_sample_ratio: 0.0,
                default_deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap();
        let resp = client::call(gw.addr(), "POST", "/v1/route", Some(&route_body(&fx, 1))).unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.text().contains("deadline_exceeded"));
        let id = resp
            .header("x-kosr-trace-id")
            .expect("5xx responses are always trace-correlatable")
            .to_string();
        let fetched = client::call(gw.addr(), "GET", &format!("/v1/traces/{id}"), None).unwrap();
        assert_eq!(fetched.status, 200, "{}", fetched.text());
    }

    #[test]
    fn rejected_connections_journal_an_admission_event_with_trace() {
        let (router, _switches, fx) = fleet(2, 1);
        let mut gw = Gateway::spawn(
            Arc::clone(&router),
            None,
            GatewayConfig {
                max_connections: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut holder = TcpStream::connect(gw.addr()).unwrap();
        holder
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let body = route_body(&fx, 1);
        write!(
            holder,
            "POST /v1/route HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        assert_eq!(client::read_response(&mut holder).unwrap().status, 200);

        let mut stream = TcpStream::connect(gw.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let overflow = client::read_response(&mut stream).unwrap();
        assert_eq!(overflow.status, 503);
        let id = overflow
            .header("x-kosr-trace-id")
            .expect("rejections advertise a trace id")
            .to_string();

        // The event landed in the fleet journal, Warn-tier, gateway-side,
        // carrying the same trace id the client saw…
        let events = router.events().events_since(0, None, Some("gateway"));
        let ev = events
            .iter()
            .find(|e| e.kind == kosr_service::EventKind::AdmissionRejected)
            .expect("admission rejection journaled");
        assert_eq!(
            ev.trace_id.map(|t| t.to_hex()),
            Some(id.clone()),
            "event ↔ response trace correlation"
        );
        // …and the stub trace resolves while the holder still owns the
        // only slot (the trace/events endpoints need a free slot, so
        // check the store directly).
        assert!(gw
            .traces()
            .get(kosr_service::TraceId::parse_hex(&id).unwrap())
            .is_some());
        drop(holder);
        gw.shutdown();
    }

    #[test]
    fn subscribe_poll_unsubscribe_round_trip_over_http() {
        let (router, _switches, fx) = fleet(3, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();

        // Subscribe: the initial payload is the full top-k with the same
        // shape /v1/route renders.
        let resp = client::call(addr, "POST", "/v1/subscribe", Some(&route_body(&fx, 3))).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        let session = v.get("session").unwrap().as_u64().unwrap();
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(0));
        let routes = v.get("routes").unwrap().as_array().unwrap();
        let costs: Vec<u64> = routes
            .iter()
            .map(|r| r.get("cost").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(costs, vec![20, 21, 22], "initial payload is Example 1");
        assert!(routes[0].get("stops").unwrap().as_array().is_some());

        // An empty immediate poll: nothing queued yet.
        let poll_path = format!("/v1/subscribe/{session}/poll");
        let resp = client::call(addr, "GET", &poll_path, None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        assert_eq!(v.get("resync").unwrap().as_bool(), Some(false));
        assert!(v.get("deltas").unwrap().as_array().unwrap().is_empty());

        // Close the best route's restaurant through /v1/update: the
        // observer sweep queues exactly one delta for this session.
        let gone = routes[0].get("stops").unwrap().as_array().unwrap()[1]
            .get("vertex")
            .unwrap()
            .as_u64()
            .unwrap();
        let update = format!(
            r#"{{"op": "remove_membership", "vertex": {gone}, "category": {}}}"#,
            fx.re.0
        );
        let resp = client::call(addr, "POST", "/v1/update", Some(&update)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let epoch = resp.json().unwrap().get("epoch").unwrap().as_u64().unwrap();
        assert_eq!(epoch, 1);

        let resp = client::call(addr, "GET", &format!("{poll_path}?wait_ms=2000"), None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        assert_eq!(v.get("resync").unwrap().as_bool(), Some(false));
        let deltas = v.get("deltas").unwrap().as_array().unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].get("epoch").unwrap().as_u64(), Some(epoch));
        assert_eq!(deltas[0].get("new_len").unwrap().as_u64(), Some(3));
        let changed = deltas[0].get("changed").unwrap().as_array().unwrap();
        assert!(!changed.is_empty());
        assert!(changed[0].get("rank").unwrap().as_u64().is_some());
        let route = changed[0].get("route").unwrap();
        assert!(route.get("cost").unwrap().as_u64().is_some());
        assert_eq!(route.get("stops").unwrap().as_array().unwrap().len(), 3);

        // The hub's counters ride /metrics next to the fleet's.
        let text = client::call(addr, "GET", "/metrics", None).unwrap().text();
        validate_prometheus_text(&text).expect(&text);
        for needle in [
            "kosr_subscriptions_active 1",
            "kosr_sub_wakeups_total{cause=\"membership\"} 1",
            "kosr_sub_deltas_pushed_total 1",
            "kosr_sub_skipped_total{cause=\"category\"}",
            "kosr_gateway_requests_total{endpoint=\"subscribe\"}",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }

        // Unsubscribe ends the session; the id stops resolving.
        let del_path = format!("/v1/subscribe/{session}");
        let resp = client::call(addr, "DELETE", &del_path, None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            client::call(addr, "DELETE", &del_path, None)
                .unwrap()
                .status,
            404
        );
        let resp = client::call(addr, "GET", &poll_path, None).unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.text().contains("unknown_session"));
        assert_eq!(gw.subscriptions().stats().active, 0);
    }

    #[test]
    fn subscribe_surface_rejections_are_typed() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();

        // Invalid body shapes reuse the /v1/route parse taxonomy.
        let resp = client::call(addr, "POST", "/v1/subscribe", Some("{nope")).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid_json"));
        let resp = client::call(addr, "POST", "/v1/subscribe", Some(r#"{"source": 1}"#)).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid_request"));
        let body = format!(
            r#"{{"source": {}, "target": {}, "categories": [40], "k": 1}}"#,
            fx.s.0, fx.t.0
        );
        let resp = client::call(addr, "POST", "/v1/subscribe", Some(&body)).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid_query"));

        // Session id parsing and lookup failures.
        let resp = client::call(addr, "GET", "/v1/subscribe/zero/poll", None).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid_session"));
        let resp = client::call(addr, "GET", "/v1/subscribe/7/poll", None).unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.text().contains("unknown_session"));
        let resp = client::call(addr, "GET", "/v1/subscribe/0/poll?wait_ms=soon", None).unwrap();
        assert_eq!(resp.status, 400);
        let resp = client::call(addr, "DELETE", "/v1/subscribe/7", None).unwrap();
        assert_eq!(resp.status, 404);

        // Wrong methods on the subscribe surface are 405, not 404.
        assert_eq!(
            client::call(addr, "GET", "/v1/subscribe", None)
                .unwrap()
                .status,
            405
        );
        assert_eq!(
            client::call(addr, "POST", "/v1/subscribe/7/poll", Some("{}"))
                .unwrap()
                .status,
            405
        );
    }

    #[test]
    fn long_poll_parks_until_an_update_delivers() {
        let (router, _switches, fx) = fleet(2, 1);
        let gw = spawn_gateway(&router);
        let addr = gw.addr();
        let resp = client::call(addr, "POST", "/v1/subscribe", Some(&route_body(&fx, 1))).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        let session = v.get("session").unwrap().as_u64().unwrap();
        let gone = v.get("routes").unwrap().as_array().unwrap()[0]
            .get("stops")
            .unwrap()
            .as_array()
            .unwrap()[1]
            .get("vertex")
            .unwrap()
            .as_u64()
            .unwrap();

        // Park a long-poll, then publish the answer-changing update from
        // another connection: the parked poll wakes with the delta.
        let publisher = thread::spawn(move || {
            thread::sleep(Duration::from_millis(100));
            let update = format!(
                r#"{{"op": "remove_membership", "vertex": {gone}, "category": {}}}"#,
                fx.re.0
            );
            client::call(addr, "POST", "/v1/update", Some(&update)).unwrap()
        });
        let resp = client::call(
            addr,
            "GET",
            &format!("/v1/subscribe/{session}/poll?wait_ms=5000"),
            None,
        )
        .unwrap();
        assert_eq!(publisher.join().unwrap().status, 200);
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = resp.json().unwrap();
        assert_eq!(v.get("resync").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("deltas").unwrap().as_array().unwrap().len(), 1);
    }
}
