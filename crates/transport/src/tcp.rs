//! The socket transport, **multiplexed**: one connection carries any
//! number of in-flight requests, each stamped with a monotone frame id.
//! No thread is created and no queue crossed that the work does not need:
//! a frame is encoded into one buffer and written with one `write` by
//! whichever thread has it ready.
//!
//! Client side, a [`TcpTransport`] owns (at most) one live connection.
//! A request registers a completion slot ([`crate::mux::DemuxTable`]) and
//! is written by its submitter under the connection's writer lock; a
//! **reader thread** demultiplexes response frames into the slots. Every
//! request carries a deadline — also the socket's write timeout — so a
//! wedged replica turns into a per-request connection *fault* (and a
//! failover upstream) without stalling unrelated in-flight queries on the
//! same connection, and a peer that stops reading into a dead connection.
//! A dead connection fails every pending slot; the next request re-dials.
//!
//! Server side, a [`TcpServer`] runs one thread per connection that
//! decodes and dispatches. A query is handed to the service with a
//! completion that writes the response frame under the connection's
//! writer lock: a cache hit (or a typed rejection) is answered by the
//! connection thread itself, a miss by the pool worker that executed it,
//! so responses leave in completion order and a slow query never holds up
//! a later one. Heartbeats, member counts and compaction notices take
//! microseconds and are answered inline; updates and snapshot pulls and
//! pushes take milliseconds and get a handler thread each, so none of
//! them convoys the frames behind it. A peer that stops reading its
//! responses has its connection closed once a `write` has stalled for
//! two seconds, instead of parking a pool worker in it.

use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use kosr_core::Query;
use kosr_service::{KosrService, TraceContext, Update, UpdateReceipt};

use crate::host::handle_request;
use crate::inproc::{
    expect_compacted, expect_install, expect_member_counts, expect_pong, expect_query,
    expect_snapshot, expect_update,
};
use crate::mux::DemuxTable;
use crate::protocol::{
    decode_request, decode_response, encode_request_frame, encode_response_frame, peek_frame_id,
    read_frame, write_encoded_frame, Heartbeat, MemberCounts, RemoteResponse, Request, Response,
    SnapshotBlob, MAX_FRAME_LEN,
};
use crate::{ShardTransport, TransportError, TransportTicket};

/// How often blocked server reads wake up to check for shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Default per-request deadline: generous enough for the heaviest query a
/// planner admits, small enough that a wedged replica becomes a fault
/// (and a failover) instead of a hang.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// How long a server-side `write` may make no progress before the peer
/// counts as gone. Responses are written by pool workers, so a client that
/// stopped reading must cost the pool a bounded wait, not a worker.
const WRITE_STALL: Duration = Duration::from_secs(2);

/// Buffer capacity a connection keeps between frames; a snapshot-sized
/// frame's allocation is released once it is through.
const KEPT_BUFFER: usize = 64 << 10;

/// A socket's write half and the buffer its frames are encoded into.
/// Whoever holds it encodes one frame and sends it with one `write`.
struct FrameWriter {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl FrameWriter {
    fn new(stream: TcpStream) -> Mutex<FrameWriter> {
        Mutex::new(FrameWriter {
            stream,
            frame: Vec::new(),
        })
    }

    /// Encodes a frame with `encode` and writes it. A failed or timed-out
    /// write may have torn the frame, so it shuts the socket down: the
    /// connection's reading side sees it end, later writers fail at once.
    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        encode(&mut self.frame);
        let written = write_encoded_frame(&mut self.stream, &self.frame);
        if written.is_err() {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        self.frame.clear();
        self.frame.shrink_to(KEPT_BUFFER);
        written
    }
}

/// Reads exactly `buf.len()` bytes, riding out read timeouts (checking the
/// shutdown flag between chunks) without ever losing partially read bytes.
/// `Ok(false)` on clean EOF before the first byte.
fn read_exact_polled(
    stream: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(std::io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "server shutting down",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads the next frame's payload into `payload`, the connection's one
/// read buffer. `false` when the connection is over: clean EOF, peer
/// reset, shutdown, or a length prefix that desynced the framing.
fn next_frame(stream: &mut impl Read, payload: &mut Vec<u8>, shutdown: &AtomicBool) -> bool {
    payload.clear();
    payload.shrink_to(KEPT_BUFFER);
    let mut len = [0u8; 4];
    if !matches!(read_exact_polled(stream, &mut len, shutdown), Ok(true)) {
        return false;
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return false;
    }
    payload.resize(len, 0);
    matches!(read_exact_polled(stream, payload, shutdown), Ok(true))
}

/// Writes `resp` as the answer to frame `id`. A write failure means the
/// peer is gone (or stopped reading): the writer has closed the socket and
/// the connection's read loop ends on its next read.
fn respond(writer: &Mutex<FrameWriter>, id: u64, resp: &Response) {
    // A writer that panicked mid-frame left the stream torn: nothing more
    // can be said on it.
    if let Ok(mut writer) = writer.lock() {
        let _ = writer.send(|frame| encode_response_frame(id, resp, frame));
    }
}

fn serve_connection(stream: TcpStream, service: Arc<KosrService>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(WRITE_STALL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A burst of pipelined request frames is one `read`.
    let mut reader = BufReader::new(read_half);
    // Responses are written by whoever finished the work, in completion
    // order; the mutex keeps frames whole, the frame ids keep them
    // routable.
    let writer = Arc::new(FrameWriter::new(stream));
    let mut payload = Vec::new();
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) && next_frame(&mut reader, &mut payload, &shutdown) {
        let (id, req) = match decode_request(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                // The length framing is still intact (the payload was a
                // whole frame), so a typed fault keeps the connection —
                // and every unrelated in-flight request — alive. Address
                // it with the frame id when the header yielded one.
                let id = peek_frame_id(&payload).unwrap_or(0);
                respond(&writer, id, &Response::Fault(e));
                continue;
            }
        };
        match req {
            Request::Query(q) => submit_query(&service, &writer, id, q, None),
            Request::QueryTraced(q, ctx) => submit_query(&service, &writer, id, q, Some(ctx)),
            Request::Ping { .. } | Request::MemberCounts | Request::Compact { .. } => {
                respond(&writer, id, &handle_request(&service, req));
            }
            // Milliseconds of work: on a thread of its own, so the frames
            // behind it — a heartbeat, a query — are not held up.
            Request::Update(_) | Request::Snapshot | Request::InstallSnapshot(_) => {
                handlers.retain(|h| !h.is_finished());
                let service = Arc::clone(&service);
                let writer = Arc::clone(&writer);
                handlers.push(thread::spawn(move || {
                    respond(&writer, id, &handle_request(&service, req));
                }));
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    if shutdown.load(Ordering::Acquire) {
        // A killed replica's clients see their connection end now, not
        // when the last query still in the pool has dropped its writer.
        if let Ok(writer) = writer.lock() {
            let _ = writer.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Hands a query to the service with a completion that writes the response
/// frame: no thread waits on a ticket. The completion runs here for a
/// cache hit or a typed rejection, on the pool worker for a miss.
fn submit_query(
    service: &KosrService,
    writer: &Arc<Mutex<FrameWriter>>,
    id: u64,
    query: Query,
    ctx: Option<TraceContext>,
) {
    let writer = Arc::clone(writer);
    service.submit_with(query, ctx, move |result| {
        respond(
            &writer,
            id,
            &Response::Query(result.map(RemoteResponse::from)),
        );
    });
}

/// One shard replica served over a loopback TCP socket.
///
/// Dropping the server shuts it down: the accept loop stops, connection
/// threads drain, and every client sees its connection close.
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `127.0.0.1:0` (an OS-assigned port) and starts serving
    /// `service`.
    pub fn spawn(service: Arc<KosrService>) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_handle = thread::Builder::new()
            .name(format!("kosr-tcp-{}", addr.port()))
            .spawn(move || {
                let mut handlers = Vec::new();
                // A blocking accept: a new connection is served at once.
                // `shutdown` wakes it with a connection of its own.
                while let Ok((stream, _)) = listener.accept() {
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    // Reap finished handlers so connection churn
                    // doesn't grow the handle list unboundedly.
                    handlers.retain(|h: &thread::JoinHandle<()>| !h.is_finished());
                    let service = Arc::clone(&service);
                    let flag = Arc::clone(&flag);
                    handlers.push(thread::spawn(move || {
                        serve_connection(stream, service, flag)
                    }));
                }
                for h in handlers {
                    let _ = h.join();
                }
            })
            .expect("spawn accept loop");
        Ok(TcpServer {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: new connections are refused, existing connection
    /// threads exit at their next poll, clients see connection faults —
    /// the "replica killed" event of the failover model.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            // Wake the blocked accept; the loop sees the flag before it
            // would serve this connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One live multiplexed connection: its writer lock + demux reader thread.
struct MuxConn {
    writer: Mutex<FrameWriter>,
    table: Arc<DemuxTable>,
    next_id: AtomicU64,
}

impl MuxConn {
    fn dial(addr: SocketAddr, deadline: Duration) -> std::io::Result<Arc<MuxConn>> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // A peer that stops *reading* (stalled process, full receive
        // buffer) must not park a submitter forever: a timed-out write is
        // a connection fault that tears the mux down, and the next request
        // re-dials.
        let _ = stream.set_write_timeout(Some(deadline.max(Duration::from_millis(1))));
        // A burst of response frames is one `read`.
        let mut read_half = BufReader::new(stream.try_clone()?);
        let table = Arc::new(DemuxTable::new());

        let read_table = Arc::clone(&table);
        thread::Builder::new()
            .name("kosr-mux-reader".into())
            .spawn(move || loop {
                match read_frame(&mut read_half) {
                    Ok(Some(payload)) => match decode_response(&payload) {
                        Ok((id, resp)) => {
                            // Unknown ids (stray/duplicate/abandoned) are
                            // discarded by the table, never misdelivered.
                            let _ = read_table.complete(id, Ok(resp));
                        }
                        Err(e) => {
                            // A whole frame that doesn't decode: we can't
                            // tell whose it was, so the stream can no
                            // longer be trusted to route responses.
                            read_table.fail_all(TransportError::Protocol(e));
                            return;
                        }
                    },
                    Ok(None) => {
                        read_table.fail_all(TransportError::Connection(
                            "server closed the connection".into(),
                        ));
                        return;
                    }
                    Err(e) => {
                        read_table.fail_all(conn_err(e));
                        return;
                    }
                }
            })
            .expect("spawn mux reader");

        Ok(Arc::new(MuxConn {
            writer: FrameWriter::new(stream),
            table,
            next_id: AtomicU64::new(1),
        }))
    }

    fn alive(&self) -> bool {
        !self.table.is_dead()
    }

    /// Registers a slot, writes the request frame, returns the
    /// completion. Blocks on the socket only while the peer is not
    /// reading, and then for at most the request deadline.
    fn send(&self, req: &Request) -> crate::mux::Completion {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let completion = self.table.register(id);
        let sent = self
            .writer
            .lock()
            .expect("mux writer poisoned")
            .send(|frame| encode_request_frame(id, req, frame));
        if let Err(e) = sent {
            // The connection is dead (the writer has shut the socket
            // down, which also ends the reader): fail this slot and every
            // other one.
            self.table.fail_all(conn_err(e));
        }
        completion
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // The owning transport is gone: close the socket so the server
        // sees a clean EOF and the reader thread exits.
        if let Ok(writer) = self.writer.get_mut() {
            let _ = writer.stream.shutdown(Shutdown::Both);
        }
    }
}

/// A multiplexed client for one replica's [`TcpServer`].
///
/// All requests share one connection; submissions return immediately and
/// any number may be in flight, interleaved by frame id. A failed
/// connection is torn down (failing its in-flight requests) and the next
/// request dials fresh, so a restarted server is reached transparently.
pub struct TcpTransport {
    addr: SocketAddr,
    deadline: Duration,
    conn: Mutex<Option<Arc<MuxConn>>>,
}

fn conn_err(e: std::io::Error) -> TransportError {
    TransportError::Connection(e.to_string())
}

impl TcpTransport {
    /// A client for the replica at `addr`. Lazy: the first request dials.
    pub fn connect(addr: SocketAddr) -> TcpTransport {
        TcpTransport::with_deadline(addr, REQUEST_DEADLINE)
    }

    /// Like [`TcpTransport::connect`] with a custom per-request deadline
    /// (submission → response frame). On expiry the request reports a
    /// connection fault and its slot is abandoned; other in-flight
    /// requests on the connection are untouched.
    pub fn with_deadline(addr: SocketAddr, deadline: Duration) -> TcpTransport {
        TcpTransport {
            addr,
            deadline,
            conn: Mutex::new(None),
        }
    }

    /// The live connection, dialing (or re-dialing after a death) on
    /// demand.
    fn mux(&self) -> Result<Arc<MuxConn>, TransportError> {
        let mut guard = self.conn.lock().unwrap();
        if let Some(conn) = guard.as_ref() {
            if conn.alive() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = MuxConn::dial(self.addr, self.deadline).map_err(conn_err)?;
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn roundtrip(&self, req: &Request) -> Result<Response, TransportError> {
        self.mux()?.send(req).wait(self.deadline)
    }
}

impl ShardTransport for TcpTransport {
    fn submit_traced(&self, query: Query, ctx: Option<TraceContext>) -> TransportTicket {
        // Only sampled contexts are worth their bytes on the wire.
        let req = match ctx.filter(|c| c.sampled) {
            Some(c) => Request::QueryTraced(query, c),
            None => Request::Query(query),
        };
        // No thread per request: the completion slot is the in-flight
        // state, and the ticket just waits on it.
        let deadline = self.deadline;
        match self.mux() {
            Ok(conn) => {
                let completion = conn.send(&req);
                TransportTicket::new(move || completion.wait(deadline).and_then(expect_query))
            }
            Err(e) => TransportTicket::ready(Err(e)),
        }
    }

    fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, TransportError> {
        expect_update(self.roundtrip(&Request::Update(*update))?)
    }

    fn ping(&self) -> Result<Heartbeat, TransportError> {
        expect_pong(self.roundtrip(&Request::Ping { since_seq: None })?).map(|(hb, _, _)| hb)
    }

    fn member_counts(&self) -> Result<MemberCounts, TransportError> {
        expect_member_counts(self.roundtrip(&Request::MemberCounts)?)
    }

    fn snapshot(&self) -> Result<SnapshotBlob, TransportError> {
        expect_snapshot(self.roundtrip(&Request::Snapshot)?)
    }

    fn install_snapshot(&self, blob: &SnapshotBlob) -> Result<Heartbeat, TransportError> {
        expect_install(self.roundtrip(&Request::InstallSnapshot(blob.clone()))?)
    }

    fn compact(&self, through: u64) -> Result<u64, TransportError> {
        expect_compacted(self.roundtrip(&Request::Compact { through })?)
    }

    fn ping_events(
        &self,
        since_seq: u64,
    ) -> Result<(Heartbeat, u64, Vec<kosr_service::Event>), TransportError> {
        expect_pong(self.roundtrip(&Request::Ping {
            since_seq: Some(since_seq),
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_core::IndexedGraph;
    use kosr_service::ServiceConfig;

    fn serve() -> (TcpServer, TcpTransport, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = Arc::new(KosrService::new(
            ig,
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        ));
        let server = TcpServer::spawn(svc).unwrap();
        let client = TcpTransport::connect(server.addr());
        (server, client, fx)
    }

    #[test]
    fn queries_and_updates_over_a_real_socket() {
        let (_server, client, fx) = serve();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = client.submit(q.clone()).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert!(client.submit(q.clone()).wait().unwrap().cached);

        let gone = resp.outcome.witnesses[0].vertices[2];
        let receipt = client
            .apply_update(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        assert_eq!(client.ping().unwrap().epoch, 1);
        let after = client.submit(q).wait().unwrap();
        assert!(!after.cached);
        assert_ne!(after.outcome.costs(), vec![20, 21, 22]);
    }

    #[test]
    fn concurrent_submissions_multiplex_one_connection() {
        let (_server, client, fx) = serve();
        // All in flight at once, all on the same connection.
        let tickets: Vec<TransportTicket> = (1..=4)
            .map(|k| client.submit(Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], k)))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().outcome.witnesses.len(), i + 1);
        }
        let conn = client.conn.lock().unwrap();
        let conn = conn.as_ref().expect("connection established");
        assert!(conn.alive());
        assert!(
            conn.next_id.load(Ordering::Relaxed) > 4,
            "all requests shared the one mux connection"
        );
        assert_eq!(conn.table.pending(), 0, "every slot completed");
    }

    #[test]
    fn snapshots_ship_and_install_over_the_wire() {
        let (_server, client, fx) = serve();
        let blob = client.snapshot().unwrap();
        let replica = IndexedGraph::decode_snapshot(&blob.bytes).unwrap();
        assert_eq!(replica.num_vertices(), fx.graph.num_vertices());
        let mc = client.member_counts().unwrap();
        assert_eq!(mc.counts.len(), 3);
        // Push the snapshot back: install bumps the epoch.
        let hb = client.install_snapshot(&blob).unwrap();
        assert_eq!(hb.epoch, 1);
        // A corrupt blob is a typed deterministic rejection, not a fault.
        let err = client
            .install_snapshot(&SnapshotBlob {
                epoch: 0,
                bytes: vec![0xde, 0xad],
            })
            .unwrap_err();
        assert!(matches!(err, TransportError::Snapshot(_)), "{err:?}");
        assert!(!err.is_fault());
    }

    #[test]
    fn compaction_notices_are_monotone_over_the_wire() {
        let (_server, client, _fx) = serve();
        assert_eq!(client.compact(5).unwrap(), 5);
        assert_eq!(client.compact(9).unwrap(), 9);
        // A stale controller proposing an older head gets the typed no.
        let err = client.compact(3).unwrap_err();
        assert_eq!(err, TransportError::CursorTooOld { cursor: 3, head: 9 });
        assert!(!err.is_fault());
    }

    #[test]
    fn traced_queries_return_spans_over_the_wire() {
        let (_server, client, fx) = serve();
        let ctx = kosr_service::TraceContext::root(kosr_service::TraceId(5), true);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = client.submit_traced(q, Some(ctx)).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert!(
            resp.spans.iter().any(|s| s.name == "replica"),
            "replica spans crossed the socket: {:?}",
            resp.spans
        );
    }

    #[test]
    fn ping_events_drains_the_remote_journal_over_the_wire() {
        let (_server, client, fx) = serve();
        let (hb, next, events) = client.ping_events(0).unwrap();
        assert_eq!(hb.epoch, 0);
        assert_eq!(next, 0);
        assert!(events.is_empty());
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 1);
        let resp = client.submit(q).wait().unwrap();
        let gone = resp.outcome.witnesses[0].vertices[2];
        let receipt = client
            .apply_update(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        let (hb, next, events) = client.ping_events(next).unwrap();
        assert_eq!(hb.epoch, 1);
        assert_eq!(next, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, kosr_service::EventKind::EpochSwap);
        // The cursor advances past the drain: nothing is re-delivered.
        let (_, _, again) = client.ping_events(next).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn idle_server_shuts_down_promptly() {
        // Parked in `accept` with one idle connection open: shutdown wakes
        // the accept loop itself, and the connection thread at its poll.
        let (mut server, client, _fx) = serve();
        client.ping().unwrap();
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_millis(200));
        assert!(client.ping().unwrap_err().is_fault());
    }

    #[test]
    fn server_shutdown_faults_clients_and_redial_recovers() {
        let (mut server, client, fx) = serve();
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert!(client.submit(q.clone()).wait().is_ok());
        server.shutdown();
        let err = client.submit(q.clone()).wait().unwrap_err();
        assert!(err.is_fault(), "{err:?}");
        assert!(client.ping().unwrap_err().is_fault());
    }
}
