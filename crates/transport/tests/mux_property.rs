//! The multiplexing acceptance suite: interleaved, reordered, duplicated
//! and delayed response frames never misdeliver — each completion slot
//! observes exactly the response carrying its own frame id — and one
//! wedged request does not stall unrelated in-flight queries sharing the
//! connection (it faults alone, at its own deadline).
//!
//! The property half drives the demux core directly with seed-shuffled
//! delivery schedules; the integration half runs a real `TcpTransport`
//! against a scripted raw socket that answers out of order, withholds one
//! response forever, and injects a stale frame for an abandoned id — and
//! pins the refusal contract a version ladder would regrow from: unknown
//! kinds and versions are typed faults addressed to the offending frame.
//!
//! The last four cases hold a real `TcpServer` to the threading contract
//! of the wire: frames behind a slow query are answered before it, a
//! pipelined load creates no thread per frame, and a peer that stops
//! reading — on either side — costs its own connection, nobody's thread.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kosr_core::{IndexedGraph, KosrOutcome, Query, QueryStats};
use kosr_graph::{CategoryId, GraphBuilder, VertexId};
use kosr_service::{KosrService, ServiceConfig};
use kosr_transport::mux::DemuxTable;
use kosr_transport::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Heartbeat, ProtocolError, RemoteResponse, Request, Response, PROTOCOL_VERSION,
};
use kosr_transport::{ShardTransport, TcpServer, TcpTransport, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pong(epoch: u64) -> Response {
    Response::Pong {
        heartbeat: Heartbeat { epoch },
        next_seq: 0,
        events: Vec::new(),
    }
}

fn epoch_of(resp: Response) -> u64 {
    match resp {
        Response::Pong { heartbeat, .. } => heartbeat.epoch,
        other => panic!("not a pong: {other:?}"),
    }
}

/// Property: for random delivery permutations with duplicates, strays and
/// cross-thread timing, every slot gets exactly its own response.
#[test]
fn shuffled_duplicated_delivery_never_misroutes() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3A7);
        let n = rng.gen_range(1..40usize);
        let table = Arc::new(DemuxTable::new());
        // Non-contiguous ids: the table must key strictly on the id, not
        // on arrival order or density.
        let ids: Vec<u64> = (0..n).map(|i| (i as u64) * 3 + 1).collect();
        let completions: Vec<_> = ids.iter().map(|&id| table.register(id)).collect();

        // A shuffled schedule: every id once, plus duplicates and strays.
        let mut schedule: Vec<u64> = ids.clone();
        for i in (1..schedule.len()).rev() {
            let j = rng.gen_range(0..=i);
            schedule.swap(i, j);
        }
        let mut events: Vec<u64> = Vec::new();
        for &id in &schedule {
            if rng.gen_range(0..100u32) < 25 {
                events.push(ids[rng.gen_range(0..n)]); // duplicate (maybe early)
            }
            if rng.gen_range(0..100u32) < 25 {
                events.push(u64::MAX - rng.gen_range(0..50u64)); // stray
            }
            events.push(id);
        }

        // Deliver from another thread while waiters block, so completion
        // and waiting genuinely interleave.
        let delivery_table = Arc::clone(&table);
        let deliverer = thread::spawn(move || {
            for id in events {
                // The payload encodes the id it was meant for: any
                // misrouting is caught by the waiter's assertion below.
                let _ = delivery_table.complete(id, Ok(pong(id)));
            }
        });
        for (completion, &id) in completions.into_iter().zip(&ids) {
            let resp = completion
                .wait(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("seed {seed}: id {id} failed: {e}"));
            assert_eq!(epoch_of(resp), id, "seed {seed}: misdelivered response");
        }
        deliverer.join().unwrap();
        assert_eq!(table.pending(), 0, "seed {seed}");
    }
}

/// Integration: a scripted raw socket answers the *second* query
/// immediately and withholds the first forever. The second completes at
/// once; the first faults alone at its deadline; the connection keeps
/// serving afterwards, and a stale late response for the abandoned id is
/// discarded instead of answering the wrong request.
#[test]
fn wedged_request_faults_alone_and_late_frames_are_discarded() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();

    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let empty = KosrOutcome {
            witnesses: Vec::new(),
            stats: QueryStats::default(),
        };
        let answer = Response::Query(Ok(RemoteResponse {
            outcome: empty,
            cached: false,
            spans: Vec::new(),
        }));
        // Read the two query frames; answer only the second.
        let first = read_frame(&mut stream).unwrap().unwrap();
        let (wedged_id, req) = decode_request(&first).unwrap();
        assert!(matches!(req, Request::Query(_)));
        let second = read_frame(&mut stream).unwrap().unwrap();
        let (ok_id, _) = decode_request(&second).unwrap();
        write_frame(&mut stream, &encode_response(ok_id, &answer)).unwrap();
        // Wait for the ping that follows the client-side timeout; answer
        // the *wedged* id first (stale — must be discarded), then the ping.
        let third = read_frame(&mut stream).unwrap().unwrap();
        let (ping_id, req) = decode_request(&third).unwrap();
        assert!(matches!(req, Request::Ping { .. }));
        write_frame(&mut stream, &encode_response(wedged_id, &answer)).unwrap();
        write_frame(&mut stream, &encode_response(ping_id, &pong(777))).unwrap();
        // Keep the connection open until the client is done.
        let _ = read_frame(&mut stream);
    });

    let deadline = Duration::from_millis(300);
    let client = TcpTransport::with_deadline(addr, deadline);
    let q = Query::new(VertexId(0), VertexId(1), vec![CategoryId(0)], 1);
    let wedged = client.submit(q.clone());
    let fine = client.submit(q);

    // The unwedged request completes promptly — no convoy behind the
    // wedged one…
    let started = Instant::now();
    let resp = fine.wait().expect("second in-flight query answered");
    assert!(resp.outcome.witnesses.is_empty());
    assert!(
        started.elapsed() < deadline,
        "second request waited for the wedged one"
    );
    // …while the wedged request faults alone, at its own deadline.
    let err = wedged.wait().unwrap_err();
    assert!(err.is_fault(), "{err:?}");
    assert!(started.elapsed() >= deadline - Duration::from_millis(50));

    // The connection survived: the next request works, and the stale
    // response for the abandoned id was discarded, not delivered to it.
    let hb = client.ping().expect("connection still serving");
    assert_eq!(hb.epoch, 777);
    drop(client);
    server.join().unwrap();
}

/// The refusal contract, over real sockets. Server side: a frame of an
/// unknown kind, then one stamped with an unknown version, each draw a
/// typed `Fault` **addressed to that frame's id** (a multiplexed caller
/// can match nothing else), and the connection keeps serving. Client
/// side: a response in an unknown version fails the in-flight caller
/// typed and at once — not at the request deadline.
#[test]
fn unknown_kinds_and_versions_are_typed_refusals_over_a_real_socket() {
    const UNKNOWN_VERSION: u8 = PROTOCOL_VERSION + 1;
    let ping = |id| encode_request(id, &Request::Ping { since_seq: None });

    let fx = kosr_core::figure1::figure1();
    let service = Arc::new(KosrService::new(
        Arc::new(IndexedGraph::build_default(fx.graph.clone())),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    ));
    let server = TcpServer::spawn(service).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut exchange = |frame: Vec<u8>| {
        write_frame(&mut raw, &frame).unwrap();
        decode_response(&read_frame(&mut raw).unwrap().expect("connection kept open")).unwrap()
    };

    let mut unknown_kind = ping(41);
    unknown_kind[1] = 250;
    let (id, resp) = exchange(unknown_kind);
    assert!(
        matches!(resp, Response::Fault(ProtocolError::UnknownKind(250))),
        "{resp:?}"
    );
    assert_eq!(id, 41, "the fault must be addressed to the refused frame");

    let mut unknown_version = ping(42);
    unknown_version[0] = UNKNOWN_VERSION;
    let (id, resp) = exchange(unknown_version);
    assert!(
        matches!(
            resp,
            Response::Fault(ProtocolError::VersionMismatch {
                found: UNKNOWN_VERSION
            })
        ),
        "{resp:?}"
    );
    assert_eq!(id, 42, "the fault must be addressed to the refused frame");

    let (id, resp) = exchange(ping(43));
    assert!(matches!(resp, Response::Pong { .. }), "{resp:?}");
    assert_eq!(id, 43, "the connection survived both refusals");

    // Client side: a scripted server answers the query in a version the
    // client does not speak.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let scripted = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let query = read_frame(&mut stream).unwrap().unwrap();
        let (id, _) = decode_request(&query).unwrap();
        let mut answer = encode_response(id, &pong(1));
        answer[0] = UNKNOWN_VERSION;
        write_frame(&mut stream, &answer).unwrap();
        // Keep the connection open until the client is done.
        let _ = read_frame(&mut stream);
    });
    let client = TcpTransport::connect(addr);
    let started = Instant::now();
    let err = client
        .submit(Query::new(VertexId(0), VertexId(1), vec![CategoryId(0)], 1))
        .wait()
        .unwrap_err();
    assert_eq!(
        err,
        TransportError::Protocol(ProtocolError::VersionMismatch {
            found: UNKNOWN_VERSION
        })
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the refusal must not wait out the request deadline"
    );
    drop(client);
    scripted.join().unwrap();
}

/// A service over a world where a six-category query keeps the served
/// search busy for some hundred milliseconds — long enough to park a
/// worker — while one-category queries stay quick. Every street of the
/// 16×16 grid costs 1, so routes tie in cost by the thousand, and the
/// search must examine every route that ties the k-th before it can
/// answer (~400,000 of them: 110–120 ms served at opt-level 2).
/// Returns it with that slow query.
fn slow_world(workers: usize) -> (Arc<KosrService>, Query) {
    let side = 16;
    let at = |row: u32, col: u32| VertexId(row * side + col);
    let mut b = GraphBuilder::new((side * side) as usize);
    for row in 0..side {
        for col in 0..side {
            if col + 1 < side {
                b.add_edge(at(row, col), at(row, col + 1), 1);
                b.add_edge(at(row, col + 1), at(row, col), 1);
            }
            if row + 1 < side {
                b.add_edge(at(row, col), at(row + 1, col), 1);
                b.add_edge(at(row + 1, col), at(row, col), 1);
            }
        }
    }
    let mut g = b.build();
    kosr_workloads::assign_uniform(&mut g, 6, 42, 5);
    let last = VertexId(g.num_vertices() as u32 - 1);
    let service = Arc::new(KosrService::new(
        Arc::new(IndexedGraph::build_default(g)),
        ServiceConfig {
            workers,
            ..Default::default()
        },
    ));
    let slow = Query::new(VertexId(0), last, (0..6).map(CategoryId).collect(), 50);
    (service, slow)
}

fn quick_query(i: u32) -> Query {
    Query::new(VertexId(i), VertexId(255 - i), vec![CategoryId(i % 6)], 1)
}

/// Encodes `requests` as consecutive frames with ids 1, 2, ….
fn burst(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        write_frame(&mut wire, &encode_request(i as u64 + 1, req)).unwrap();
    }
    wire
}

/// (a) With one worker parked on a slow query, a cache hit, a heartbeat
/// and a member-count read sent *after* it on the same connection are all
/// answered before it: the connection thread answers them itself.
#[test]
fn frames_behind_a_slow_query_are_answered_before_it() {
    let (service, slow) = slow_world(2);
    let hit = quick_query(7);
    assert!(service.submit(hit.clone()).unwrap().wait().is_ok());
    let server = TcpServer::spawn(service).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&burst(&[
        Request::Query(slow),
        Request::Query(hit),
        Request::Ping { since_seq: None },
        Request::MemberCounts,
    ]))
    .unwrap();
    let mut order = Vec::new();
    for _ in 0..4 {
        let (id, resp) = decode_response(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        match (id, &resp) {
            (1, Response::Query(Ok(r))) => assert!(!r.cached),
            (2, Response::Query(Ok(r))) => assert!(r.cached, "the hit never needed a worker"),
            (3, Response::Pong { .. }) | (4, Response::MemberCounts(_)) => {}
            other => panic!("unexpected answer {other:?}"),
        }
        order.push(id);
    }
    assert_eq!(order[3], 1, "the slow query answers last: {order:?}");
}

/// Threads of this process named like the accept loop of the server on
/// `port` — which is every thread that server created without naming it
/// (connection threads, per-request handlers): a thread inherits its
/// creator's name.
#[cfg(target_os = "linux")]
fn server_threads(port: u16) -> usize {
    let name = format!("kosr-tcp-{port}\n");
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| *comm == name)
        .count()
}

/// (b) 500 queries pipelined on one connection behind a slow one all
/// complete, and while they wait the server runs its accept loop, one
/// connection thread and the pool — no thread per query frame.
#[cfg(target_os = "linux")]
#[test]
fn pipelined_queries_create_no_thread_per_frame() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (service, slow) = slow_world(1);
    let server = TcpServer::spawn(service).unwrap();
    let port = server.addr().port();
    let client = TcpTransport::connect(server.addr());
    let done = AtomicBool::new(false);
    let peak = thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(server_threads(port));
                thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        // Every ticket in flight at once: the quick ones queue behind the
        // slow one on the only worker.
        let mut tickets = vec![client.submit(slow)];
        tickets.extend((0..500).map(|i| client.submit(quick_query(i % 256))));
        for t in tickets {
            t.wait().expect("pipelined query answered");
        }
        done.store(true, Ordering::Release);
        sampler.join().unwrap()
    });
    assert!(
        (1..=2).contains(&peak),
        "accept loop + one connection thread, saw {peak} server threads"
    );
}

/// (c) A client that sends queries and never reads the answers has its
/// connection closed once the server's write has stalled, instead of
/// parking whoever writes to it: a second connection is answered all the
/// while, and the only worker is free again afterwards.
#[test]
fn a_peer_that_never_reads_is_dropped_and_wedges_no_worker() {
    let (service, big) = slow_world(1);
    // ~2 KB per answer once cached: 6000 of them overrun any socket buffer.
    assert!(service.submit(big.clone()).unwrap().wait().is_ok());
    let server = TcpServer::spawn(service).unwrap();
    let healthy = TcpTransport::with_deadline(server.addr(), Duration::from_secs(5));
    assert!(healthy.ping().is_ok());

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    // Three misses for the worker to answer, then the flood of hits the
    // connection thread answers itself.
    let mut requests: Vec<Request> = (0..3).map(|i| Request::Query(quick_query(i))).collect();
    requests.resize(6003, Request::Query(big));
    let flood = burst(&requests);
    let started = Instant::now();
    let mut sent = 0;
    let closed = loop {
        // Keep offering bytes (the flood, then heartbeats) and never read:
        // the write fails once the server has closed the connection.
        let chunk = if sent < flood.len() {
            &flood[sent..]
        } else {
            &flood[..64]
        };
        match raw.write(chunk) {
            Ok(n) => sent += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break true,
        }
        if started.elapsed() > Duration::from_secs(20) {
            break false;
        }
        let asked = Instant::now();
        assert!(healthy.ping().is_ok(), "the second connection is served");
        assert!(asked.elapsed() < Duration::from_secs(1));
        thread::sleep(Duration::from_millis(5));
    };
    assert!(closed, "the stalled connection was never closed");
    // No worker is wedged in a write to the dead peer: a fresh miss on the
    // healthy connection gets the pool's only worker.
    let answer = healthy.submit(quick_query(99)).wait().expect("worker free");
    assert!(!answer.cached);
}

/// (d) A client whose peer stops reading sees a typed connection fault
/// within its deadline — the submitter's own write times out — and the
/// next request dials a fresh connection.
#[test]
fn a_server_that_stops_reading_faults_the_client_which_redials() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let scripted = thread::spawn(move || {
        // First connection: accepted, never read.
        let (stalled, _) = listener.accept().unwrap();
        // Second connection: a heartbeat, answered.
        let (mut stream, _) = listener.accept().unwrap();
        let (id, req) = decode_request(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert!(matches!(req, Request::Ping { .. }));
        write_frame(&mut stream, &encode_response(id, &pong(9))).unwrap();
        let _ = read_frame(&mut stream);
        drop(stalled);
    });
    let deadline = Duration::from_millis(300);
    let client = TcpTransport::with_deadline(addr, deadline);
    // Far more than the socket buffers between the two ends can hold.
    let blob = kosr_transport::protocol::SnapshotBlob {
        epoch: 0,
        bytes: vec![0; 32 << 20],
    };
    let started = Instant::now();
    let err = client.install_snapshot(&blob).unwrap_err();
    assert!(
        matches!(err, TransportError::Connection(_)),
        "a connection fault, got {err:?}"
    );
    assert!(started.elapsed() >= deadline, "{:?}", started.elapsed());
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(client.ping().expect("re-dialed").epoch, 9);
    drop(client);
    scripted.join().unwrap();
}
