//! The socket transport, **multiplexed**: one connection carries any
//! number of in-flight requests, each stamped with a monotone frame id.
//!
//! Client side, a [`TcpTransport`] owns (at most) one live connection: a
//! **writer thread** drains a frame queue onto the socket and a **reader
//! thread** demultiplexes response frames into per-request completion
//! slots ([`crate::mux::DemuxTable`]). Every request carries a deadline,
//! so a wedged replica turns into a per-request connection *fault* (and a
//! failover upstream) without stalling unrelated in-flight queries on the
//! same connection. A dead connection fails every pending slot; the next
//! request re-dials.
//!
//! Server side, a [`TcpServer`] reads frames per connection and answers
//! each request on its own handler thread behind a shared writer lock, so
//! responses interleave in completion order — a slow query does not block
//! a heartbeat that arrived after it.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    decode_request, decode_response, encode_request, encode_response, peek_frame_id, read_frame,
    write_frame, Heartbeat, MemberCounts, Request, Response, SnapshotBlob,
};
use crate::{ShardTransport, TransportError, TransportTicket};

/// How often blocked server reads wake up to check for shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Default per-request deadline: generous enough for the heaviest query a
/// planner admits, small enough that a wedged replica becomes a fault
/// (and a failover) instead of a hang.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Reads exactly `buf.len()` bytes, riding out read timeouts (checking the
/// shutdown flag between chunks) without ever losing partially read bytes.
/// `Ok(false)` on clean EOF before the first byte.
fn read_exact_polled(
    stream: &mut TcpStream,
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

fn serve_connection(mut stream: TcpStream, service: Arc<KosrService>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    // Responses are written by per-request handler threads in completion
    // order; the mutex keeps frames whole, the frame ids keep them
    // routable.
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        let mut len = [0u8; 4];
        match read_exact_polled(&mut stream, &mut len, &shutdown) {
            Ok(true) => {}
            _ => break, // clean EOF, peer reset, or shutdown
        }
        let len = u32::from_le_bytes(len) as usize;
        if len > crate::protocol::MAX_FRAME_LEN {
            break; // length framing desynced: the connection is untrusted
        }
        let mut payload = vec![0u8; len];
        if !matches!(
            read_exact_polled(&mut stream, &mut payload, &shutdown),
            Ok(true)
        ) {
            break;
        }
        match decode_request(&payload) {
            Ok((id, req)) => {
                // One handler thread per in-flight request: responses
                // overtake each other freely, so a slow query never
                // convoys a heartbeat behind it.
                handlers.retain(|h| !h.is_finished());
                let service = Arc::clone(&service);
                let writer = Arc::clone(&writer);
                handlers.push(thread::spawn(move || {
                    let resp = handle_request(&service, req);
                    let frame = encode_response(id, &resp);
                    // A write failure means the peer is gone; the reader
                    // loop will notice on its next read.
                    let _ = write_frame(&mut *writer.lock().unwrap(), &frame);
                }));
            }
            Err(e) => {
                // The length framing is still intact (the payload was a
                // whole frame), so a typed fault keeps the connection —
                // and every unrelated in-flight request — alive. Address
                // it with the frame id when the header yielded one.
                let id = peek_frame_id(&payload).unwrap_or(0);
                let frame = encode_response(id, &Response::Fault(e));
                if write_frame(&mut *writer.lock().unwrap(), &frame).is_err() {
                    break;
                }
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// One shard replica served over a loopback TCP socket.
///
/// Dropping the server shuts it down: the accept loop stops, handler
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_handle = thread::Builder::new()
            .name(format!("kosr-tcp-{}", addr.port()))
            .spawn(move || {
                let mut handlers = Vec::new();
                while !flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Reap finished handlers so connection churn
                            // doesn't grow the handle list unboundedly.
                            handlers.retain(|h: &thread::JoinHandle<()>| !h.is_finished());
                            let service = Arc::clone(&service);
                            let flag = Arc::clone(&flag);
                            handlers.push(thread::spawn(move || {
                                serve_connection(stream, service, flag)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
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

    /// Stops the server: new connections are refused, existing handler
    /// threads exit at their next poll, clients see connection faults —
    /// the "replica killed" event of the failover model.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One live multiplexed connection: writer thread + demux reader thread.
struct MuxConn {
    frames: mpsc::Sender<Vec<u8>>,
    table: Arc<DemuxTable>,
    next_id: AtomicU64,
}

impl MuxConn {
    fn dial(addr: SocketAddr, deadline: Duration) -> std::io::Result<Arc<MuxConn>> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // A peer that stops *reading* (stalled process, full receive
        // buffer) must not park the writer thread forever while the frame
        // queue grows: a timed-out write is a connection fault that tears
        // the mux down, and the next request re-dials.
        let _ = stream.set_write_timeout(Some(deadline.max(Duration::from_millis(1))));
        let mut read_half = stream.try_clone()?;
        let table = Arc::new(DemuxTable::new());
        let (tx, rx) = mpsc::channel::<Vec<u8>>();

        let write_table = Arc::clone(&table);
        thread::Builder::new()
            .name("kosr-mux-writer".into())
            .spawn(move || {
                let mut stream = stream;
                while let Ok(frame) = rx.recv() {
                    if let Err(e) = write_frame(&mut stream, &frame) {
                        write_table.fail_all(conn_err(e));
                        return;
                    }
                }
                // The owning transport dropped the sender: close the write
                // half so the server sees a clean EOF.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            })
            .expect("spawn mux writer");

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
            frames: tx,
            table,
            next_id: AtomicU64::new(1),
        }))
    }

    fn alive(&self) -> bool {
        !self.table.is_dead()
    }

    /// Registers a slot, enqueues the request frame, returns the
    /// completion. Never blocks on the socket.
    fn send(&self, req: &Request) -> crate::mux::Completion {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let completion = self.table.register(id);
        // A send failure means the writer died; fail_all has run (or is
        // about to), which resolves this completion through its slot.
        let _ = self.frames.send(encode_request(id, req));
        completion
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
