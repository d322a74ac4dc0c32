//! The length-prefixed binary wire protocol replicas speak.
//!
//! Every message is one **frame**: a little-endian `u32` byte length
//! followed by the payload. A payload starts with a fixed 10-byte header —
//! version byte, kind byte, **frame id** — then the kind's body:
//!
//! ```text
//! frame   := u32 len | payload            (len ≤ MAX_FRAME_LEN)
//! payload := u8 version | u8 kind | u64 frame_id | body
//! ```
//!
//! The frame id is what makes one connection **multiplexable**: a client
//! stamps every request with a monotonically increasing id, the replica
//! echoes the id on the response, and a demultiplexing reader routes each
//! response to its request's completion slot — so responses may come back
//! in any order, interleaved, duplicated or delayed without ever being
//! delivered to the wrong caller (the mux property suite hammers this).
//!
//! ## Kinds
//!
//! | request | body | response |
//! |---|---|---|
//! | `Query` | the query, then an optional trace context | `QueryOk` (outcome, cache flag, possibly-empty span list) or `QueryErr` (typed service rejection) |
//! | `Update` | one §IV-C update | `UpdateOk` / `UpdateErr` |
//! | `Ping` | an optional journal cursor | `Pong`: epoch, the journal's next sequence, the events drained from the cursor (none without one) |
//! | `MemberCounts` | — | `MemberCounts` |
//! | `Snapshot` | — | `Snapshot`: the flat-arena blob of `kosr_index::arena` |
//! | `InstallSnapshot` | a blob | `InstallOk` / `InstallErr` (typed blob refusal) |
//! | `Compact` | the new log head | `Compacted` / `CursorTooOld` |
//!
//! plus `Fault`, the replica's answer to a request frame it could not
//! decode. The remote's *typed* rejections travel as values so a client
//! can distinguish a deterministic "no" (don't fail over) from channel
//! trouble (do fail over).
//!
//! Decoding is **total**: arbitrary bytes produce a typed
//! [`ProtocolError`], never a panic — the wire fuzz suite hammers this.
//!
//! ## One version
//!
//! Every frame is stamped [`PROTOCOL_VERSION`] and a decoder accepts
//! nothing else: any other byte is [`ProtocolError::VersionMismatch`], an
//! unassigned kind byte is [`ProtocolError::UnknownKind`], and a server
//! answers either with a `Fault` addressed to the offending frame's id
//! while the connection keeps serving. A fleet runs one build, so there is
//! no negotiation. When a real older fleet has to be bridged, regrow the
//! ladder from those refusals: bump the byte, add the new kind, and let
//! old peers answer `VersionMismatch` — the typed fault a newer client
//! reads as "fall back".

use std::io::{Read, Write};
use std::time::Duration;

use bytes::{Buf, BufMut};
use kosr_core::{GraphUpdateError, KosrOutcome, Query, QueryError, QueryStats, Witness};
use kosr_graph::{CategoryId, VertexId};
use kosr_index::snapshot::SnapshotError;
use kosr_service::{
    Event, EventKind, QueryResponse, ServiceError, Severity, Source, Span, SpanId, TagValue,
    TraceContext, TraceId, Update, UpdateError, UpdateReceipt,
};

/// The one wire version this build writes and accepts, stamped on every
/// frame. (Versions 2–5 were a negotiated ladder; 6 is distinct from all
/// of them so no frame of that ladder can be mistaken for a current one.)
pub const PROTOCOL_VERSION: u8 = 6;

/// Upper bound on one frame's payload; larger length prefixes are refused
/// before any allocation (snapshots of big shards dominate frame size).
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Why a frame could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The version byte names a protocol this build does not speak.
    VersionMismatch {
        /// The version byte found on the wire.
        found: u8,
    },
    /// The kind byte is not a known message kind.
    UnknownKind(u8),
    /// The payload ended before its declared contents.
    Truncated,
    /// Bytes remained after the declared contents.
    TrailingBytes(u32),
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
    },
    /// The contents are internally inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::VersionMismatch { found } => {
                write!(
                    f,
                    "protocol version mismatch: found {found}, speak {PROTOCOL_VERSION}"
                )
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            ProtocolError::FrameTooLarge { len } => write!(f, "frame of {len} bytes too large"),
            ProtocolError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A replica's liveness report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// The replica's index epoch (applied-update count).
    pub epoch: u64,
}

/// A replica's category population report — what fan-out planning reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberCounts {
    /// The index epoch the counts belong to.
    pub epoch: u64,
    /// Vertex count of the replica's graph (for client-side validation).
    pub num_vertices: u32,
    /// Member count per category id (base categories then shadows).
    pub counts: Vec<u32>,
}

/// A serialized index snapshot pulled from a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// The index epoch the snapshot was taken at.
    pub epoch: u64,
    /// The `kosr_index::arena` flat-arena blob.
    pub bytes: Vec<u8>,
}

/// A remote replica's answer to one query.
#[derive(Clone, Debug)]
pub struct RemoteResponse {
    /// The canonical top-k outcome.
    pub outcome: KosrOutcome,
    /// `true` when the remote served it from its result cache.
    pub cached: bool,
    /// Replica-side spans for sampled traced queries; empty otherwise.
    pub spans: Vec<Span>,
}

impl From<QueryResponse> for RemoteResponse {
    /// What of a service's answer crosses the wire (the plan and the
    /// replica-side latency stay behind).
    fn from(resp: QueryResponse) -> RemoteResponse {
        RemoteResponse {
            outcome: resp.outcome,
            cached: resp.cached,
            spans: resp.spans,
        }
    }
}

/// Client → replica messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Answer this query.
    Query(Query),
    /// Answer this query and return replica-side spans for the carried
    /// trace context. On the wire this is the Query kind with its
    /// optional trace context present; it is a variant of its own only
    /// because `Query(Query)` is a spelling other crates build against.
    QueryTraced(Query, TraceContext),
    /// Apply this §IV-C update (the update-publish frame).
    Update(Update),
    /// Heartbeat: report liveness + epoch. With a cursor it also ships the
    /// replica's local lifecycle events with sequence ≥ `since_seq` —
    /// fleet event collection piggybacked on the probe the supervisor
    /// already sends.
    Ping {
        /// The client's journal cursor (events below it were already
        /// forwarded); `None` drains nothing.
        since_seq: Option<u64>,
    },
    /// Report per-category member counts.
    MemberCounts,
    /// Ship an index snapshot (the flat-arena blob).
    Snapshot,
    /// The upstream update log was compacted: entries below `through` are
    /// gone. The replica records the watermark (its own floor for replay
    /// expectations) and acknowledges with [`Response::Compacted`]; a
    /// `through` *behind* the replica's recorded head is answered with
    /// [`Response::CursorTooOld`] — the guard against a stale controller
    /// replaying an old compaction.
    Compact {
        /// The new log head: the oldest sequence still replayable.
        through: u64,
    },
    /// Push an index snapshot *into* the replica (supervisor-driven
    /// refresh of a replica too far behind the update log to replay).
    InstallSnapshot(SnapshotBlob),
}

/// Replica → client messages.
#[derive(Clone, Debug)]
pub enum Response {
    /// The query's outcome, or the service's typed rejection.
    Query(Result<RemoteResponse, ServiceError>),
    /// The update's receipt, or the service's typed rejection.
    Update(Result<UpdateReceipt, UpdateError>),
    /// Answer to [`Request::Ping`]: liveness plus the replica's journal
    /// drain from the requested cursor.
    Pong {
        /// The liveness report.
        heartbeat: Heartbeat,
        /// The replica journal's next sequence — the cursor to send on
        /// the following probe (events may have been ring-evicted, so it
        /// can exceed the last forwarded seq + 1).
        next_seq: u64,
        /// Retained events with sequence ≥ the requested cursor; empty
        /// when the probe carried none.
        events: Vec<Event>,
    },
    /// Member counts.
    MemberCounts(MemberCounts),
    /// Index snapshot.
    Snapshot(SnapshotBlob),
    /// The compaction notice was recorded; `head` is the replica's
    /// (monotone) recorded log head.
    Compacted {
        /// The replica's recorded log head after the notice.
        head: u64,
    },
    /// A [`Request::Compact`] named a head *behind* what the replica
    /// already recorded — the sender's view of the log is stale.
    CursorTooOld {
        /// The stale head the sender proposed.
        cursor: u64,
        /// The head the replica has recorded.
        head: u64,
    },
    /// The pushed snapshot was installed (epoch after install), or the
    /// typed reason the blob was refused.
    Install(Result<Heartbeat, SnapshotError>),
    /// The replica could not decode the request frame.
    Fault(ProtocolError),
}

// ---- framing ---------------------------------------------------------

/// Bytes of the little-endian `u32` length prefix.
const PREFIX_LEN: usize = 4;

/// Writes one whole frame — length prefix and payload already in one
/// buffer, as [`encode_request_frame`] / [`encode_response_frame`] leave
/// them — with a single `write`, so under `TCP_NODELAY` a small frame is
/// one segment. Payloads over [`MAX_FRAME_LEN`] are refused *before* any
/// bytes hit the wire: writing one would desync the stream (the `u32`
/// prefix truncates past 4 GiB) and the peer would reject it as a
/// connection-level fault anyway — better a local typed error than a
/// remote one that downs the replica.
pub fn write_encoded_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    let len = frame.len().saturating_sub(PREFIX_LEN);
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge { len: len as u64 },
        ));
    }
    w.write_all(frame)?;
    w.flush()
}

/// Writes `payload` as one length-prefixed frame (one `write`, see
/// [`write_encoded_frame`]).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(PREFIX_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    write_encoded_frame(w, &frame)
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary; oversized length prefixes are refused before allocation.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge { len: len as u64 },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---- bounds-checked reading ------------------------------------------

/// Little-endian reader over the shim's checked `try_get_*` reads: every
/// accessor reports [`ProtocolError::Truncated`] instead of panicking on
/// short input.
struct Rd<'a>(&'a [u8]);

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Result<u8, ProtocolError> {
        self.0.try_get_u8().ok_or(ProtocolError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        self.0.try_get_u32_le().ok_or(ProtocolError::Truncated)
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        self.0.try_get_u64_le().ok_or(ProtocolError::Truncated)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        if self.0.remaining() < len {
            return Err(ProtocolError::Truncated);
        }
        let (head, tail) = self.0.split_at(len);
        self.0 = tail;
        Ok(head)
    }

    /// Declared element count, refused when the remaining bytes cannot
    /// possibly hold it (caps adversarial pre-allocations).
    fn count(&mut self, elem_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if self.0.remaining() < n.saturating_mul(elem_bytes) {
            return Err(ProtocolError::Truncated);
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.0.has_remaining() {
            return Err(ProtocolError::TrailingBytes(self.0.remaining() as u32));
        }
        Ok(())
    }
}

// ---- body codecs -----------------------------------------------------

fn put_query(q: &Query, out: &mut Vec<u8>) {
    out.put_u32_le(q.source.0);
    out.put_u32_le(q.target.0);
    out.put_u64_le(q.k as u64);
    out.put_u32_le(q.categories.len() as u32);
    for c in &q.categories {
        out.put_u32_le(c.0);
    }
}

fn get_query(r: &mut Rd) -> Result<Query, ProtocolError> {
    let source = VertexId(r.u32()?);
    let target = VertexId(r.u32()?);
    let k = usize::try_from(r.u64()?).map_err(|_| ProtocolError::Corrupt("k overflows"))?;
    let n = r.count(4)?;
    let mut categories = Vec::with_capacity(n);
    for _ in 0..n {
        categories.push(CategoryId(r.u32()?));
    }
    Ok(Query {
        source,
        target,
        categories,
        k,
    })
}

fn put_update(u: &Update, out: &mut Vec<u8>) {
    match *u {
        Update::InsertMembership { vertex, category } => {
            out.put_u8(0);
            out.put_u32_le(vertex.0);
            out.put_u32_le(category.0);
        }
        Update::RemoveMembership { vertex, category } => {
            out.put_u8(1);
            out.put_u32_le(vertex.0);
            out.put_u32_le(category.0);
        }
        Update::InsertEdge { from, to, weight } => {
            out.put_u8(2);
            out.put_u32_le(from.0);
            out.put_u32_le(to.0);
            out.put_u64_le(weight);
        }
    }
}

fn get_update(r: &mut Rd) -> Result<Update, ProtocolError> {
    Ok(match r.u8()? {
        0 => Update::InsertMembership {
            vertex: VertexId(r.u32()?),
            category: CategoryId(r.u32()?),
        },
        1 => Update::RemoveMembership {
            vertex: VertexId(r.u32()?),
            category: CategoryId(r.u32()?),
        },
        2 => Update::InsertEdge {
            from: VertexId(r.u32()?),
            to: VertexId(r.u32()?),
            weight: r.u64()?,
        },
        _ => return Err(ProtocolError::Corrupt("unknown update tag")),
    })
}

fn put_duration(d: Duration, out: &mut Vec<u8>) {
    out.put_u64_le(d.as_nanos().min(u64::MAX as u128) as u64);
}

fn get_duration(r: &mut Rd) -> Result<Duration, ProtocolError> {
    Ok(Duration::from_nanos(r.u64()?))
}

fn put_outcome(o: &KosrOutcome, out: &mut Vec<u8>) {
    out.put_u32_le(o.witnesses.len() as u32);
    for w in &o.witnesses {
        out.put_u64_le(w.cost);
        out.put_u32_le(w.vertices.len() as u32);
        for v in &w.vertices {
            out.put_u32_le(v.0);
        }
    }
    let s = &o.stats;
    out.put_u64_le(s.examined_routes);
    out.put_u64_le(s.nn_queries);
    out.put_u64_le(s.dominated_routes);
    out.put_u64_le(s.reconsidered_routes);
    out.put_u64_le(s.heap_peak as u64);
    out.put_u8(s.truncated as u8);
    out.put_u32_le(s.examined_per_level.len() as u32);
    for &x in &s.examined_per_level {
        out.put_u64_le(x);
    }
    put_duration(s.time.total, out);
    put_duration(s.time.nn, out);
    put_duration(s.time.queue, out);
    put_duration(s.time.estimation, out);
}

fn get_outcome(r: &mut Rd) -> Result<KosrOutcome, ProtocolError> {
    let nwit = r.count(12)?;
    let mut witnesses = Vec::with_capacity(nwit);
    for _ in 0..nwit {
        let cost = r.u64()?;
        let len = r.count(4)?;
        let mut vertices = Vec::with_capacity(len);
        for _ in 0..len {
            vertices.push(VertexId(r.u32()?));
        }
        witnesses.push(Witness { vertices, cost });
    }
    let mut stats = QueryStats {
        examined_routes: r.u64()?,
        nn_queries: r.u64()?,
        dominated_routes: r.u64()?,
        reconsidered_routes: r.u64()?,
        heap_peak: r.u64()? as usize,
        truncated: r.u8()? != 0,
        ..Default::default()
    };
    let levels = r.count(8)?;
    stats.examined_per_level = (0..levels).map(|_| r.u64()).collect::<Result<_, _>>()?;
    stats.time.total = get_duration(r)?;
    stats.time.nn = get_duration(r)?;
    stats.time.queue = get_duration(r)?;
    stats.time.estimation = get_duration(r)?;
    stats.time.finalize();
    Ok(KosrOutcome { witnesses, stats })
}

fn put_query_error(e: &QueryError, out: &mut Vec<u8>) {
    match *e {
        QueryError::SourceOutOfRange(v) => {
            out.put_u8(0);
            out.put_u32_le(v.0);
        }
        QueryError::TargetOutOfRange(v) => {
            out.put_u8(1);
            out.put_u32_le(v.0);
        }
        QueryError::ZeroK => out.put_u8(2),
        QueryError::UnknownCategory(c) => {
            out.put_u8(3);
            out.put_u32_le(c.0);
        }
        QueryError::EmptyCategory(c) => {
            out.put_u8(4);
            out.put_u32_le(c.0);
        }
    }
}

fn get_query_error(r: &mut Rd) -> Result<QueryError, ProtocolError> {
    Ok(match r.u8()? {
        0 => QueryError::SourceOutOfRange(VertexId(r.u32()?)),
        1 => QueryError::TargetOutOfRange(VertexId(r.u32()?)),
        2 => QueryError::ZeroK,
        3 => QueryError::UnknownCategory(CategoryId(r.u32()?)),
        4 => QueryError::EmptyCategory(CategoryId(r.u32()?)),
        _ => return Err(ProtocolError::Corrupt("unknown query-error tag")),
    })
}

fn put_service_error(e: &ServiceError, out: &mut Vec<u8>) {
    match e {
        ServiceError::QueueFull { capacity } => {
            out.put_u8(0);
            out.put_u64_le(*capacity as u64);
        }
        ServiceError::DeadlineExceeded { deadline } => {
            out.put_u8(1);
            put_duration(*deadline, out);
        }
        ServiceError::BudgetExhausted { examined_budget } => {
            out.put_u8(2);
            out.put_u64_le(*examined_budget);
        }
        ServiceError::InvalidQuery(q) => {
            out.put_u8(3);
            put_query_error(q, out);
        }
        ServiceError::ShuttingDown => out.put_u8(4),
        ServiceError::WorkerLost => out.put_u8(5),
    }
}

fn get_service_error(r: &mut Rd) -> Result<ServiceError, ProtocolError> {
    Ok(match r.u8()? {
        0 => ServiceError::QueueFull {
            capacity: r.u64()? as usize,
        },
        1 => ServiceError::DeadlineExceeded {
            deadline: get_duration(r)?,
        },
        2 => ServiceError::BudgetExhausted {
            examined_budget: r.u64()?,
        },
        3 => ServiceError::InvalidQuery(get_query_error(r)?),
        4 => ServiceError::ShuttingDown,
        5 => ServiceError::WorkerLost,
        _ => return Err(ProtocolError::Corrupt("unknown service-error tag")),
    })
}

fn put_update_error(e: &UpdateError, out: &mut Vec<u8>) {
    match *e {
        UpdateError::VertexOutOfRange(v) => {
            out.put_u8(0);
            out.put_u32_le(v.0);
        }
        UpdateError::UnknownCategory(c) => {
            out.put_u8(1);
            out.put_u32_le(c.0);
        }
        UpdateError::Graph(g) => {
            out.put_u8(2);
            match g {
                GraphUpdateError::VertexOutOfRange(v) => {
                    out.put_u8(0);
                    out.put_u32_le(v.0);
                }
                GraphUpdateError::SelfLoop => out.put_u8(1),
                GraphUpdateError::WeightNotDecreased { current } => {
                    out.put_u8(2);
                    out.put_u64_le(current);
                }
            }
        }
    }
}

fn get_update_error(r: &mut Rd) -> Result<UpdateError, ProtocolError> {
    Ok(match r.u8()? {
        0 => UpdateError::VertexOutOfRange(VertexId(r.u32()?)),
        1 => UpdateError::UnknownCategory(CategoryId(r.u32()?)),
        2 => UpdateError::Graph(match r.u8()? {
            0 => GraphUpdateError::VertexOutOfRange(VertexId(r.u32()?)),
            1 => GraphUpdateError::SelfLoop,
            2 => GraphUpdateError::WeightNotDecreased { current: r.u64()? },
            _ => return Err(ProtocolError::Corrupt("unknown graph-error tag")),
        }),
        _ => return Err(ProtocolError::Corrupt("unknown update-error tag")),
    })
}

fn put_protocol_error(e: &ProtocolError, out: &mut Vec<u8>) {
    match *e {
        ProtocolError::VersionMismatch { found } => {
            out.put_u8(0);
            out.put_u8(found);
        }
        ProtocolError::UnknownKind(k) => {
            out.put_u8(1);
            out.put_u8(k);
        }
        ProtocolError::Truncated => out.put_u8(2),
        ProtocolError::TrailingBytes(n) => {
            out.put_u8(3);
            out.put_u32_le(n);
        }
        ProtocolError::FrameTooLarge { len } => {
            out.put_u8(4);
            out.put_u64_le(len);
        }
        ProtocolError::Corrupt(_) => out.put_u8(5),
    }
}

fn get_protocol_error(r: &mut Rd) -> Result<ProtocolError, ProtocolError> {
    Ok(match r.u8()? {
        0 => ProtocolError::VersionMismatch { found: r.u8()? },
        1 => ProtocolError::UnknownKind(r.u8()?),
        2 => ProtocolError::Truncated,
        3 => ProtocolError::TrailingBytes(r.u32()?),
        4 => ProtocolError::FrameTooLarge { len: r.u64()? },
        5 => ProtocolError::Corrupt("reported by peer"),
        _ => return Err(ProtocolError::Corrupt("unknown protocol-error tag")),
    })
}

/// Snapshot rejections travel the wire shape-preserving; the `Corrupt`
/// payload is peer-local (`&'static str`), so like
/// [`ProtocolError::Corrupt`] it decodes to a "reported by peer" stand-in.
fn put_snapshot_error(e: &SnapshotError, out: &mut Vec<u8>) {
    match *e {
        SnapshotError::BadMagic => out.put_u8(0),
        SnapshotError::UnsupportedVersion { found } => {
            out.put_u8(1);
            out.put_u8(found);
        }
        SnapshotError::Truncated => out.put_u8(2),
        SnapshotError::Corrupt(_) => out.put_u8(3),
    }
}

fn get_snapshot_error(r: &mut Rd) -> Result<SnapshotError, ProtocolError> {
    Ok(match r.u8()? {
        0 => SnapshotError::BadMagic,
        1 => SnapshotError::UnsupportedVersion { found: r.u8()? },
        2 => SnapshotError::Truncated,
        3 => SnapshotError::Corrupt("reported by peer"),
        _ => return Err(ProtocolError::Corrupt("unknown snapshot-error tag")),
    })
}

// ---- trace codecs ----------------------------------------------------

fn put_trace_ctx(ctx: &TraceContext, out: &mut Vec<u8>) {
    out.put_u64_le(ctx.trace_id.hi());
    out.put_u64_le(ctx.trace_id.lo());
    out.put_u64_le(ctx.parent_span.0);
    out.put_u8(ctx.sampled as u8);
}

fn get_trace_ctx(r: &mut Rd) -> Result<TraceContext, ProtocolError> {
    let hi = r.u64()?;
    let lo = r.u64()?;
    let parent_span = SpanId(r.u64()?);
    let sampled = r.u8()? != 0;
    Ok(TraceContext {
        trace_id: TraceId::from_parts(hi, lo),
        parent_span,
        sampled,
    })
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.put_u32_le(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Rd) -> Result<String, ProtocolError> {
    let len = r.u32()? as usize;
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Corrupt("non-utf8 string"))
}

fn put_tag_value(v: &TagValue, out: &mut Vec<u8>) {
    match v {
        TagValue::U64(x) => {
            out.put_u8(0);
            out.put_u64_le(*x);
        }
        TagValue::Str(s) => {
            out.put_u8(1);
            put_str(s, out);
        }
        TagValue::Bool(b) => {
            out.put_u8(2);
            out.put_u8(*b as u8);
        }
    }
}

fn get_tag_value(r: &mut Rd) -> Result<TagValue, ProtocolError> {
    Ok(match r.u8()? {
        0 => TagValue::U64(r.u64()?),
        1 => TagValue::Str(get_str(r)?),
        2 => TagValue::Bool(r.u8()? != 0),
        _ => return Err(ProtocolError::Corrupt("unknown tag-value kind")),
    })
}

fn put_span(s: &Span, out: &mut Vec<u8>) {
    out.put_u64_le(s.id.0);
    match s.parent {
        Some(p) => {
            out.put_u8(1);
            out.put_u64_le(p.0);
        }
        None => out.put_u8(0),
    }
    put_str(&s.name, out);
    out.put_u64_le(s.start_us);
    out.put_u64_le(s.duration_us);
    out.put_u32_le(s.tags.len() as u32);
    for (k, v) in &s.tags {
        put_str(k, out);
        put_tag_value(v, out);
    }
}

fn get_span(r: &mut Rd) -> Result<Span, ProtocolError> {
    let id = SpanId(r.u64()?);
    let parent = match r.u8()? {
        0 => None,
        1 => Some(SpanId(r.u64()?)),
        _ => return Err(ProtocolError::Corrupt("bad parent flag")),
    };
    let name = get_str(r)?;
    let start_us = r.u64()?;
    let duration_us = r.u64()?;
    let ntags = r.count(5)?;
    let mut tags = Vec::with_capacity(ntags);
    for _ in 0..ntags {
        let k = get_str(r)?;
        let v = get_tag_value(r)?;
        tags.push((k, v));
    }
    Ok(Span {
        id,
        parent,
        name,
        start_us,
        duration_us,
        tags,
    })
}

fn put_spans(spans: &[Span], out: &mut Vec<u8>) {
    out.put_u32_le(spans.len() as u32);
    for s in spans {
        put_span(s, out);
    }
}

fn get_spans(r: &mut Rd) -> Result<Vec<Span>, ProtocolError> {
    let n = r.count(33)?; // minimum encoded span: id+flag+name len+times+ntags
    (0..n).map(|_| get_span(r)).collect()
}

// ---- event codecs ----------------------------------------------------

fn put_severity(s: Severity, out: &mut Vec<u8>) {
    out.put_u8(match s {
        Severity::Info => 0,
        Severity::Warn => 1,
        Severity::Critical => 2,
    });
}

fn get_severity(r: &mut Rd) -> Result<Severity, ProtocolError> {
    Ok(match r.u8()? {
        0 => Severity::Info,
        1 => Severity::Warn,
        2 => Severity::Critical,
        _ => return Err(ProtocolError::Corrupt("unknown severity tag")),
    })
}

fn put_event_kind(k: EventKind, out: &mut Vec<u8>) {
    out.put_u8(match k {
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
        EventKind::AdmissionRejected => 11,
        EventKind::AlertFiring => 12,
        EventKind::AlertResolved => 13,
        EventKind::SubscriptionCreated => 14,
        EventKind::SubscriptionResync => 15,
        EventKind::SubscriptionDropped => 16,
    });
}

fn get_event_kind(r: &mut Rd) -> Result<EventKind, ProtocolError> {
    Ok(match r.u8()? {
        0 => EventKind::ReplicaDown,
        1 => EventKind::Failover,
        2 => EventKind::ReplicaQuarantined,
        3 => EventKind::ReplayRecovered,
        4 => EventKind::SnapshotRefreshed,
        5 => EventKind::CursorTooOld,
        6 => EventKind::RecoveryFailed,
        7 => EventKind::LogCompacted,
        8 => EventKind::UpdatePublished,
        9 => EventKind::EpochSwap,
        11 => EventKind::AdmissionRejected,
        12 => EventKind::AlertFiring,
        13 => EventKind::AlertResolved,
        14 => EventKind::SubscriptionCreated,
        15 => EventKind::SubscriptionResync,
        16 => EventKind::SubscriptionDropped,
        _ => return Err(ProtocolError::Corrupt("unknown event-kind tag")),
    })
}

fn put_event_source(s: Source, out: &mut Vec<u8>) {
    match s {
        Source::Service => out.put_u8(0),
        Source::Shard(shard) => {
            out.put_u8(1);
            out.put_u32_le(shard);
        }
        Source::Replica { shard, replica } => {
            out.put_u8(2);
            out.put_u32_le(shard);
            out.put_u32_le(replica);
        }
        Source::Supervisor => out.put_u8(3),
        Source::Gateway => out.put_u8(4),
    }
}

fn get_event_source(r: &mut Rd) -> Result<Source, ProtocolError> {
    Ok(match r.u8()? {
        0 => Source::Service,
        1 => Source::Shard(r.u32()?),
        2 => Source::Replica {
            shard: r.u32()?,
            replica: r.u32()?,
        },
        3 => Source::Supervisor,
        4 => Source::Gateway,
        _ => return Err(ProtocolError::Corrupt("unknown event-source tag")),
    })
}

fn put_event(e: &Event, out: &mut Vec<u8>) {
    out.put_u64_le(e.seq);
    out.put_u64_le(e.wall_ms);
    put_severity(e.severity, out);
    put_event_kind(e.kind, out);
    put_event_source(e.source, out);
    match e.trace_id {
        Some(t) => {
            out.put_u8(1);
            out.put_u64_le(t.hi());
            out.put_u64_le(t.lo());
        }
        None => out.put_u8(0),
    }
    out.put_u32_le(e.tags.len() as u32);
    for (k, v) in &e.tags {
        put_str(k, out);
        put_tag_value(v, out);
    }
}

fn get_event(r: &mut Rd) -> Result<Event, ProtocolError> {
    let seq = r.u64()?;
    let wall_ms = r.u64()?;
    let severity = get_severity(r)?;
    let kind = get_event_kind(r)?;
    let source = get_event_source(r)?;
    let trace_id = match r.u8()? {
        0 => None,
        1 => Some(TraceId::from_parts(r.u64()?, r.u64()?)),
        _ => return Err(ProtocolError::Corrupt("bad trace flag")),
    };
    let ntags = r.count(5)?;
    let mut tags = Vec::with_capacity(ntags);
    for _ in 0..ntags {
        let k = get_str(r)?;
        let v = get_tag_value(r)?;
        tags.push((k, v));
    }
    Ok(Event {
        seq,
        wall_ms,
        severity,
        source,
        kind,
        trace_id,
        tags,
    })
}

fn put_events(events: &[Event], out: &mut Vec<u8>) {
    out.put_u32_le(events.len() as u32);
    for e in events {
        put_event(e, out);
    }
}

fn get_events(r: &mut Rd) -> Result<Vec<Event>, ProtocolError> {
    let n = r.count(24)?; // minimum encoded event: seq+wall+sev+kind+source+flag+ntags
    (0..n).map(|_| get_event(r)).collect()
}

// ---- payload codecs --------------------------------------------------

const KIND_REQ_QUERY: u8 = 0;
const KIND_REQ_UPDATE: u8 = 1;
const KIND_REQ_PING: u8 = 2;
const KIND_REQ_MEMBER_COUNTS: u8 = 3;
const KIND_REQ_SNAPSHOT: u8 = 4;
const KIND_REQ_COMPACT: u8 = 5;
const KIND_REQ_INSTALL: u8 = 6;
const KIND_RESP_QUERY_OK: u8 = 16;
const KIND_RESP_QUERY_ERR: u8 = 17;
const KIND_RESP_UPDATE_OK: u8 = 18;
const KIND_RESP_UPDATE_ERR: u8 = 19;
const KIND_RESP_PONG: u8 = 20;
const KIND_RESP_MEMBER_COUNTS: u8 = 21;
const KIND_RESP_SNAPSHOT: u8 = 22;
const KIND_RESP_FAULT: u8 = 23;
const KIND_RESP_COMPACTED: u8 = 24;
const KIND_RESP_CURSOR_TOO_OLD: u8 = 25;
const KIND_RESP_INSTALL_OK: u8 = 26;
const KIND_RESP_INSTALL_ERR: u8 = 27;

/// Bytes of the fixed `version | kind | frame_id` header.
const HEADER_LEN: usize = 10;

fn put_header(kind: u8, frame_id: u64, out: &mut Vec<u8>) {
    out.put_u8(PROTOCOL_VERSION);
    out.put_u8(kind);
    out.put_u64_le(frame_id);
}

/// Runs `put_payload` into `out` (cleared first) behind a length prefix:
/// the whole frame in one buffer, the shape [`write_encoded_frame`] takes.
fn encode_frame(out: &mut Vec<u8>, put_payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0; PREFIX_LEN]);
    put_payload(out);
    // A length past `u32` truncates here and is refused at the write.
    let len = (out.len() - PREFIX_LEN) as u32;
    out[..PREFIX_LEN].copy_from_slice(&len.to_le_bytes());
}

fn open(payload: &[u8]) -> Result<(u8, u64, Rd<'_>), ProtocolError> {
    let mut r = Rd(payload);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch { found: version });
    }
    let kind = r.u8()?;
    let frame_id = r.u64()?;
    Ok((kind, frame_id, r))
}

/// Best-effort frame-id extraction from a payload that may not decode —
/// what a server uses to address the typed [`Response::Fault`] for an
/// undecodable request. The header layout is fixed, so the id is read
/// whatever the version and kind bytes say: a multiplexed caller can only
/// match a refusal that carries its own id. `None` when the payload is
/// shorter than the header.
pub fn peek_frame_id(payload: &[u8]) -> Option<u64> {
    let id = payload.get(2..HEADER_LEN)?;
    Some(u64::from_le_bytes(id.try_into().expect("8-byte slice")))
}

fn put_blob(blob: &SnapshotBlob, out: &mut Vec<u8>) {
    out.put_u64_le(blob.epoch);
    out.put_u64_le(blob.bytes.len() as u64);
    out.extend_from_slice(&blob.bytes);
}

fn get_blob(r: &mut Rd) -> Result<SnapshotBlob, ProtocolError> {
    let epoch = r.u64()?;
    let len = usize::try_from(r.u64()?).map_err(|_| ProtocolError::Corrupt("snapshot length"))?;
    let bytes = r.bytes(len)?.to_vec();
    Ok(SnapshotBlob { epoch, bytes })
}

fn put_query_frame(frame_id: u64, q: &Query, ctx: Option<&TraceContext>, out: &mut Vec<u8>) {
    put_header(KIND_REQ_QUERY, frame_id, out);
    put_query(q, out);
    match ctx {
        Some(ctx) => {
            out.put_u8(1);
            put_trace_ctx(ctx, out);
        }
        None => out.put_u8(0),
    }
}

fn put_request(frame_id: u64, req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Query(q) => put_query_frame(frame_id, q, None, out),
        Request::QueryTraced(q, ctx) => put_query_frame(frame_id, q, Some(ctx), out),
        Request::Update(u) => {
            put_header(KIND_REQ_UPDATE, frame_id, out);
            put_update(u, out);
        }
        Request::Ping { since_seq } => {
            put_header(KIND_REQ_PING, frame_id, out);
            match since_seq {
                Some(seq) => {
                    out.put_u8(1);
                    out.put_u64_le(*seq);
                }
                None => out.put_u8(0),
            }
        }
        Request::MemberCounts => put_header(KIND_REQ_MEMBER_COUNTS, frame_id, out),
        Request::Snapshot => put_header(KIND_REQ_SNAPSHOT, frame_id, out),
        Request::Compact { through } => {
            put_header(KIND_REQ_COMPACT, frame_id, out);
            out.put_u64_le(*through);
        }
        Request::InstallSnapshot(blob) => {
            put_header(KIND_REQ_INSTALL, frame_id, out);
            put_blob(blob, out);
        }
    }
}

/// Serializes a request into a frame payload stamped with `frame_id`.
pub fn encode_request(frame_id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_request(frame_id, req, &mut out);
    out
}

/// Serializes a request as a whole frame — length prefix, then the payload
/// [`encode_request`] produces — into `out`, replacing its contents: the
/// one buffer [`write_encoded_frame`] sends, reusable across frames.
pub fn encode_request_frame(frame_id: u64, req: &Request, out: &mut Vec<u8>) {
    encode_frame(out, |out| put_request(frame_id, req, out));
}

/// Decodes a frame payload into `(frame_id, request)`. Total: never
/// panics.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtocolError> {
    let (kind, frame_id, mut r) = open(payload)?;
    let req = match kind {
        KIND_REQ_QUERY => {
            let q = get_query(&mut r)?;
            match r.u8()? {
                0 => Request::Query(q),
                1 => Request::QueryTraced(q, get_trace_ctx(&mut r)?),
                _ => return Err(ProtocolError::Corrupt("bad trace flag")),
            }
        }
        KIND_REQ_UPDATE => Request::Update(get_update(&mut r)?),
        KIND_REQ_PING => Request::Ping {
            since_seq: match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(ProtocolError::Corrupt("bad cursor flag")),
            },
        },
        KIND_REQ_MEMBER_COUNTS => Request::MemberCounts,
        KIND_REQ_SNAPSHOT => Request::Snapshot,
        KIND_REQ_COMPACT => Request::Compact { through: r.u64()? },
        KIND_REQ_INSTALL => Request::InstallSnapshot(get_blob(&mut r)?),
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((frame_id, req))
}

fn put_response(frame_id: u64, resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Query(Ok(rr)) => {
            put_header(KIND_RESP_QUERY_OK, frame_id, out);
            out.put_u8(rr.cached as u8);
            put_outcome(&rr.outcome, out);
            put_spans(&rr.spans, out);
        }
        Response::Query(Err(e)) => {
            put_header(KIND_RESP_QUERY_ERR, frame_id, out);
            put_service_error(e, out);
        }
        Response::Update(Ok(receipt)) => {
            put_header(KIND_RESP_UPDATE_OK, frame_id, out);
            out.put_u8(receipt.applied as u8);
            out.put_u64_le(receipt.label_entries_added as u64);
            out.put_u64_le(receipt.invalidated as u64);
        }
        Response::Update(Err(e)) => {
            put_header(KIND_RESP_UPDATE_ERR, frame_id, out);
            put_update_error(e, out);
        }
        Response::Pong {
            heartbeat,
            next_seq,
            events,
        } => {
            put_header(KIND_RESP_PONG, frame_id, out);
            out.put_u64_le(heartbeat.epoch);
            out.put_u64_le(*next_seq);
            put_events(events, out);
        }
        Response::MemberCounts(mc) => {
            put_header(KIND_RESP_MEMBER_COUNTS, frame_id, out);
            out.put_u64_le(mc.epoch);
            out.put_u32_le(mc.num_vertices);
            out.put_u32_le(mc.counts.len() as u32);
            for &c in &mc.counts {
                out.put_u32_le(c);
            }
        }
        Response::Snapshot(blob) => {
            put_header(KIND_RESP_SNAPSHOT, frame_id, out);
            put_blob(blob, out);
        }
        Response::Compacted { head } => {
            put_header(KIND_RESP_COMPACTED, frame_id, out);
            out.put_u64_le(*head);
        }
        Response::CursorTooOld { cursor, head } => {
            put_header(KIND_RESP_CURSOR_TOO_OLD, frame_id, out);
            out.put_u64_le(*cursor);
            out.put_u64_le(*head);
        }
        Response::Install(Ok(hb)) => {
            put_header(KIND_RESP_INSTALL_OK, frame_id, out);
            out.put_u64_le(hb.epoch);
        }
        Response::Install(Err(e)) => {
            put_header(KIND_RESP_INSTALL_ERR, frame_id, out);
            put_snapshot_error(e, out);
        }
        Response::Fault(e) => {
            put_header(KIND_RESP_FAULT, frame_id, out);
            put_protocol_error(e, out);
        }
    }
}

/// Serializes a response into a frame payload stamped with `frame_id`
/// (the id of the request it answers).
pub fn encode_response(frame_id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_response(frame_id, resp, &mut out);
    out
}

/// [`encode_request_frame`] for a response.
pub fn encode_response_frame(frame_id: u64, resp: &Response, out: &mut Vec<u8>) {
    encode_frame(out, |out| put_response(frame_id, resp, out));
}

/// Decodes a frame payload into `(frame_id, response)`. Total: never
/// panics.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    let (kind, frame_id, mut r) = open(payload)?;
    let resp = match kind {
        KIND_RESP_QUERY_OK => {
            let cached = r.u8()? != 0;
            let outcome = get_outcome(&mut r)?;
            let spans = get_spans(&mut r)?;
            Response::Query(Ok(RemoteResponse {
                outcome,
                cached,
                spans,
            }))
        }
        KIND_RESP_QUERY_ERR => Response::Query(Err(get_service_error(&mut r)?)),
        KIND_RESP_UPDATE_OK => Response::Update(Ok(UpdateReceipt {
            applied: r.u8()? != 0,
            label_entries_added: r.u64()? as usize,
            invalidated: r.u64()? as usize,
        })),
        KIND_RESP_UPDATE_ERR => Response::Update(Err(get_update_error(&mut r)?)),
        KIND_RESP_PONG => Response::Pong {
            heartbeat: Heartbeat { epoch: r.u64()? },
            next_seq: r.u64()?,
            events: get_events(&mut r)?,
        },
        KIND_RESP_MEMBER_COUNTS => {
            let epoch = r.u64()?;
            let num_vertices = r.u32()?;
            let n = r.count(4)?;
            let counts = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
            Response::MemberCounts(MemberCounts {
                epoch,
                num_vertices,
                counts,
            })
        }
        KIND_RESP_SNAPSHOT => Response::Snapshot(get_blob(&mut r)?),
        KIND_RESP_COMPACTED => Response::Compacted { head: r.u64()? },
        KIND_RESP_CURSOR_TOO_OLD => Response::CursorTooOld {
            cursor: r.u64()?,
            head: r.u64()?,
        },
        KIND_RESP_INSTALL_OK => Response::Install(Ok(Heartbeat { epoch: r.u64()? })),
        KIND_RESP_INSTALL_ERR => Response::Install(Err(get_snapshot_error(&mut r)?)),
        KIND_RESP_FAULT => Response::Fault(get_protocol_error(&mut r)?),
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((frame_id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    const PING: Request = Request::Ping { since_seq: None };

    fn pong(epoch: u64, next_seq: u64, events: Vec<Event>) -> Response {
        Response::Pong {
            heartbeat: Heartbeat { epoch },
            next_seq,
            events,
        }
    }

    fn sample_outcome() -> KosrOutcome {
        KosrOutcome {
            witnesses: vec![
                Witness {
                    vertices: vec![v(0), v(3), v(7)],
                    cost: 20,
                },
                Witness {
                    vertices: vec![v(0), v(4), v(7)],
                    cost: 21,
                },
            ],
            stats: QueryStats {
                examined_routes: 17,
                nn_queries: 9,
                examined_per_level: vec![3, 8, 6],
                heap_peak: 12,
                dominated_routes: 2,
                reconsidered_routes: 1,
                bound_pruned: 0,
                truncated: false,
                time: Default::default(),
            },
        }
    }

    #[test]
    fn request_roundtrips() {
        let reqs = vec![
            Request::Query(Query::new(
                v(1),
                v(2),
                vec![CategoryId(0), CategoryId(2)],
                3,
            )),
            Request::Update(Update::InsertMembership {
                vertex: v(4),
                category: CategoryId(1),
            }),
            Request::Update(Update::RemoveMembership {
                vertex: v(5),
                category: CategoryId(0),
            }),
            Request::Update(Update::InsertEdge {
                from: v(1),
                to: v(2),
                weight: 77,
            }),
            Request::Ping { since_seq: None },
            Request::Ping {
                since_seq: Some(17),
            },
            Request::MemberCounts,
            Request::Snapshot,
            Request::Compact { through: 42 },
            Request::InstallSnapshot(SnapshotBlob {
                epoch: 9,
                bytes: vec![1, 2, 3],
            }),
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let id = 1000 + i as u64;
            let payload = encode_request(id, &req);
            assert_eq!(decode_request(&payload).unwrap(), (id, req));
        }
    }

    #[test]
    fn frame_ids_roundtrip_and_peek() {
        for id in [0u64, 1, 77, u64::MAX] {
            let payload = encode_request(id, &PING);
            assert_eq!(decode_request(&payload).unwrap().0, id);
            assert_eq!(peek_frame_id(&payload), Some(id));
            let payload = encode_response(id, &pong(3, 0, Vec::new()));
            assert_eq!(decode_response(&payload).unwrap().0, id);
        }
        // An unknown kind still yields its frame id to peek (the server
        // can address its Fault response), while decode rejects it typed.
        let mut payload = encode_request(7, &PING);
        payload[1] = 99;
        assert_eq!(peek_frame_id(&payload), Some(7));
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::UnknownKind(99))
        );
        // So does an unknown version: the header layout is fixed, and a
        // refusal addressed to id 0 could never be matched by its caller.
        let mut bad = encode_request(7, &PING);
        bad[0] = 9;
        assert_eq!(peek_frame_id(&bad), Some(7));
        assert_eq!(
            decode_request(&bad),
            Err(ProtocolError::VersionMismatch { found: 9 })
        );
        // A header truncated before the end of the id peeks None.
        assert_eq!(peek_frame_id(&[PROTOCOL_VERSION, 0, 1]), None);
        assert_eq!(peek_frame_id(&payload[..HEADER_LEN - 1]), None);
    }

    #[test]
    fn query_response_roundtrips_bit_identically() {
        let resp = Response::Query(Ok(RemoteResponse {
            outcome: sample_outcome(),
            cached: true,
            spans: Vec::new(),
        }));
        let payload = encode_response(5, &resp);
        assert_eq!(payload[0], PROTOCOL_VERSION);
        match decode_response(&payload).unwrap().1 {
            Response::Query(Ok(rr)) => {
                assert!(rr.cached);
                assert!(rr.spans.is_empty());
                assert_eq!(rr.outcome.witnesses, sample_outcome().witnesses);
                assert_eq!(rr.outcome.stats.examined_routes, 17);
                assert_eq!(rr.outcome.stats.examined_per_level, vec![3, 8, 6]);
                assert_eq!(rr.outcome.stats.heap_peak, 12);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    fn sample_ctx() -> TraceContext {
        TraceContext {
            trace_id: TraceId::from_parts(0xDEAD_BEEF, 0xCAFE_F00D),
            parent_span: SpanId(42),
            sampled: true,
        }
    }

    fn sample_spans() -> Vec<Span> {
        vec![
            Span {
                id: SpanId(7),
                parent: None,
                name: "replica".into(),
                start_us: 0,
                duration_us: 120,
                tags: vec![("method".into(), TagValue::Str("Kpne".into()))],
            },
            Span {
                id: SpanId(8),
                parent: Some(SpanId(7)),
                name: "execute".into(),
                start_us: 10,
                duration_us: 100,
                tags: vec![
                    ("pne_expansions".into(), TagValue::U64(17)),
                    ("hit".into(), TagValue::Bool(false)),
                ],
            },
        ]
    }

    #[test]
    fn traced_request_and_response_roundtrip() {
        let req = Request::QueryTraced(
            Query::new(v(1), v(2), vec![CategoryId(0), CategoryId(2)], 3),
            sample_ctx(),
        );
        let payload = encode_request(11, &req);
        assert_eq!(decode_request(&payload).unwrap(), (11, req));

        let resp = Response::Query(Ok(RemoteResponse {
            outcome: sample_outcome(),
            cached: false,
            spans: sample_spans(),
        }));
        let payload = encode_response(11, &resp);
        match decode_response(&payload).unwrap().1 {
            Response::Query(Ok(rr)) => {
                assert!(!rr.cached);
                assert_eq!(rr.spans, sample_spans());
                assert_eq!(rr.outcome.witnesses, sample_outcome().witnesses);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                seq: 3,
                wall_ms: 1_700_000_000_123,
                severity: Severity::Info,
                source: Source::Service,
                kind: EventKind::EpochSwap,
                trace_id: None,
                tags: vec![
                    ("epoch".into(), TagValue::U64(4)),
                    ("reason".into(), TagValue::Str("update".into())),
                ],
            },
            Event {
                seq: 4,
                wall_ms: 1_700_000_000_456,
                severity: Severity::Critical,
                source: Source::Replica {
                    shard: 1,
                    replica: 2,
                },
                kind: EventKind::Failover,
                trace_id: Some(TraceId::from_parts(0xAB, 0xCD)),
                tags: vec![("flap".into(), TagValue::Bool(true))],
            },
        ]
    }

    #[test]
    fn heartbeat_event_drain_roundtrips_and_truncation_is_typed() {
        let payload = encode_response(21, &pong(9, 5, sample_events()));
        match decode_response(&payload).unwrap() {
            (
                21,
                Response::Pong {
                    heartbeat,
                    next_seq,
                    events,
                },
            ) => {
                assert_eq!(heartbeat.epoch, 9);
                assert_eq!(next_seq, 5);
                assert_eq!(events, sample_events());
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Totality: every truncation of the event batch is typed.
        for cut in 2..payload.len() {
            assert!(
                matches!(
                    decode_response(&payload[..cut]),
                    Err(ProtocolError::Truncated)
                ),
                "cut={cut}"
            );
        }
        // An empty drain also roundtrips.
        let payload = encode_response(22, &pong(0, 0, Vec::new()));
        assert!(matches!(
            decode_response(&payload),
            Ok((22, Response::Pong { next_seq: 0, events, .. })) if events.is_empty()
        ));
    }

    #[test]
    fn event_kind_wire_tags_are_pinned() {
        // Tag 10 stays unassigned: a frame carrying it is refused, never
        // misread as another kind.
        const TAGS: [(EventKind, u8); 16] = [
            (EventKind::ReplicaDown, 0),
            (EventKind::Failover, 1),
            (EventKind::ReplicaQuarantined, 2),
            (EventKind::ReplayRecovered, 3),
            (EventKind::SnapshotRefreshed, 4),
            (EventKind::CursorTooOld, 5),
            (EventKind::RecoveryFailed, 6),
            (EventKind::LogCompacted, 7),
            (EventKind::UpdatePublished, 8),
            (EventKind::EpochSwap, 9),
            (EventKind::AdmissionRejected, 11),
            (EventKind::AlertFiring, 12),
            (EventKind::AlertResolved, 13),
            (EventKind::SubscriptionCreated, 14),
            (EventKind::SubscriptionResync, 15),
            (EventKind::SubscriptionDropped, 16),
        ];
        assert_eq!(
            TAGS.map(|(kind, _)| kind),
            EventKind::ALL,
            "every kind pinned"
        );
        // The first event's kind byte in a Pong: header, epoch, next_seq,
        // event count, then the event's seq, wall_ms and severity.
        const KIND_AT: usize = HEADER_LEN + 8 + 8 + 4 + 8 + 8 + 1;
        let event = |kind| Event {
            seq: 1,
            wall_ms: 2,
            severity: Severity::Info,
            source: Source::Service,
            kind,
            trace_id: None,
            tags: Vec::new(),
        };
        for (kind, tag) in TAGS {
            let payload = encode_response(3, &pong(4, 5, vec![event(kind)]));
            assert_eq!(payload[KIND_AT], tag, "{kind:?}");
            match decode_response(&payload) {
                Ok((3, Response::Pong { events, .. })) => assert_eq!(events, vec![event(kind)]),
                other => panic!("{kind:?}: wrong decode: {other:?}"),
            }
        }
        let mut retired = encode_response(3, &pong(4, 5, vec![event(EventKind::EpochSwap)]));
        retired[KIND_AT] = 10;
        assert!(matches!(
            decode_response(&retired),
            Err(ProtocolError::Corrupt("unknown event-kind tag"))
        ));
    }

    #[test]
    fn traced_frames_reject_truncation_and_trailing() {
        let req =
            Request::QueryTraced(Query::new(v(1), v(2), vec![CategoryId(0)], 2), sample_ctx());
        let payload = encode_request(1, &req);
        for cut in 2..payload.len() {
            assert_eq!(
                decode_request(&payload[..cut]),
                Err(ProtocolError::Truncated),
                "cut={cut}"
            );
        }
        let resp = Response::Query(Ok(RemoteResponse {
            outcome: sample_outcome(),
            cached: false,
            spans: sample_spans(),
        }));
        let mut payload = encode_response(1, &resp);
        payload.push(0);
        assert!(matches!(
            decode_response(&payload),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn error_responses_roundtrip() {
        let cases: Vec<Response> = vec![
            Response::Query(Err(ServiceError::QueueFull { capacity: 64 })),
            Response::Query(Err(ServiceError::DeadlineExceeded {
                deadline: Duration::from_millis(250),
            })),
            Response::Query(Err(ServiceError::BudgetExhausted {
                examined_budget: 10_000,
            })),
            Response::Query(Err(ServiceError::InvalidQuery(QueryError::EmptyCategory(
                CategoryId(3),
            )))),
            Response::Query(Err(ServiceError::ShuttingDown)),
            Response::Query(Err(ServiceError::WorkerLost)),
            Response::Update(Err(UpdateError::VertexOutOfRange(v(99)))),
            Response::Update(Err(UpdateError::UnknownCategory(CategoryId(7)))),
            Response::Update(Err(UpdateError::Graph(
                GraphUpdateError::WeightNotDecreased { current: 5 },
            ))),
            Response::Update(Err(UpdateError::Graph(GraphUpdateError::SelfLoop))),
            Response::Fault(ProtocolError::VersionMismatch { found: 9 }),
            Response::Fault(ProtocolError::UnknownKind(200)),
            Response::Install(Err(SnapshotError::BadMagic)),
            Response::Install(Err(SnapshotError::UnsupportedVersion { found: 7 })),
            Response::Install(Err(SnapshotError::Truncated)),
        ];
        for case in cases {
            let payload = encode_response(3, &case);
            let (id, back) = decode_response(&payload).unwrap();
            assert_eq!(id, 3);
            match (&case, &back) {
                (Response::Query(Err(a)), Response::Query(Err(b))) => assert_eq!(a, b),
                (Response::Update(Err(a)), Response::Update(Err(b))) => assert_eq!(a, b),
                (Response::Fault(a), Response::Fault(b)) => assert_eq!(a, b),
                (Response::Install(Err(a)), Response::Install(Err(b))) => assert_eq!(a, b),
                _ => panic!("decode changed shape: {case:?} → {back:?}"),
            }
        }
    }

    #[test]
    fn control_responses_roundtrip() {
        let payload = encode_response(1, &pong(42, 0, Vec::new()));
        assert!(matches!(
            decode_response(&payload),
            Ok((1, Response::Pong { heartbeat, .. })) if heartbeat.epoch == 42
        ));
        let mc = MemberCounts {
            epoch: 7,
            num_vertices: 100,
            counts: vec![3, 0, 9, 1],
        };
        let payload = encode_response(2, &Response::MemberCounts(mc.clone()));
        assert!(
            matches!(decode_response(&payload), Ok((2, Response::MemberCounts(got))) if got == mc)
        );
        let blob = SnapshotBlob {
            epoch: 3,
            bytes: vec![1, 2, 3, 4, 5],
        };
        let payload = encode_response(3, &Response::Snapshot(blob.clone()));
        assert!(
            matches!(decode_response(&payload), Ok((3, Response::Snapshot(got))) if got == blob)
        );
        let payload = encode_response(
            4,
            &Response::Update(Ok(UpdateReceipt {
                applied: true,
                label_entries_added: 4,
                invalidated: 2,
            })),
        );
        assert!(matches!(
            decode_response(&payload),
            Ok((4, Response::Update(Ok(r)))) if r.applied && r.label_entries_added == 4 && r.invalidated == 2
        ));
        let payload = encode_response(5, &Response::Compacted { head: 17 });
        assert!(matches!(
            decode_response(&payload),
            Ok((5, Response::Compacted { head: 17 }))
        ));
        let payload = encode_response(6, &Response::CursorTooOld { cursor: 3, head: 9 });
        assert!(matches!(
            decode_response(&payload),
            Ok((6, Response::CursorTooOld { cursor: 3, head: 9 }))
        ));
        let payload = encode_response(7, &Response::Install(Ok(Heartbeat { epoch: 11 })));
        assert!(matches!(
            decode_response(&payload),
            Ok((7, Response::Install(Ok(hb)))) if hb.epoch == 11
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut payload = encode_request(1, &PING);
        payload[0] = 9;
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::VersionMismatch { found: 9 })
        );
        assert!(matches!(
            decode_response(&payload),
            Err(ProtocolError::VersionMismatch { found: 9 })
        ));
    }

    #[test]
    fn unknown_kind_truncation_and_trailing_are_typed() {
        let mut payload = encode_request(1, &PING);
        payload[1] = 99;
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::UnknownKind(99))
        );
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(
            decode_request(&[PROTOCOL_VERSION]),
            Err(ProtocolError::Truncated)
        );
        // A header cut before the full frame id is truncation, not a kind.
        assert_eq!(
            decode_request(&[PROTOCOL_VERSION, 99, 0, 0]),
            Err(ProtocolError::Truncated)
        );
        let mut payload = encode_request(1, &PING);
        payload.push(0);
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::TrailingBytes(1))
        );
        let query = encode_request(1, &Request::Query(Query::new(v(0), v(1), vec![], 1)));
        for cut in 2..query.len() {
            assert_eq!(
                decode_request(&query[..cut]),
                Err(ProtocolError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let payload = encode_request(1, &PING);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut cursor = &huge[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_frame_is_one_write_and_both_encoders_agree_on_its_bytes() {
        /// Records the size of every `write` it is handed.
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = encode_request(7, &PING);
        let mut writes = Writes(Vec::new());
        write_frame(&mut writes, &payload).unwrap();
        assert_eq!(writes.0, vec![4 + payload.len()]);

        // The in-place encoders produce exactly the bytes `write_frame`
        // puts on the wire, and reuse (replace) the buffer they are given.
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut frame = vec![0xAA; 64];
        encode_request_frame(7, &PING, &mut frame);
        assert_eq!(frame, wire);
        let resp = Response::Compacted { head: 3 };
        wire.clear();
        write_frame(&mut wire, &encode_response(7, &resp)).unwrap();
        encode_response_frame(7, &resp, &mut frame);
        assert_eq!(frame, wire);
    }

    #[test]
    fn errors_render() {
        for e in [
            ProtocolError::VersionMismatch { found: 3 },
            ProtocolError::UnknownKind(9),
            ProtocolError::Truncated,
            ProtocolError::TrailingBytes(4),
            ProtocolError::FrameTooLarge { len: 1 << 40 },
            ProtocolError::Corrupt("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
