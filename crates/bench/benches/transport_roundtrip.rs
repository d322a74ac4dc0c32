//! Transport-layer overhead: what the wire costs relative to calling the
//! service directly, measured on the same 300-query mixed stream.
//!
//! * `direct` — `KosrService::run_batch`, no transport (the floor).
//! * `inproc` — the loopback `InProcTransport`: full frame encode/decode
//!   per request/response, no sockets (pure codec overhead).
//! * `tcp_mux` — all 300 queries **in flight at once on one multiplexed
//!   connection** (frame-id demux; no per-request threads, no pool).
//! * `tcp_pipelined` — `tcp_mux` against a replica with its result cache
//!   on: the same 300 in-flight queries, of which those mentioning one
//!   category were just invalidated (misses, answered by a pool worker)
//!   and the rest are hits (answered by the connection thread) — the mix
//!   a replica behind a router actually sees.
//! * `tcp_serial` — one request/response at a time on the same connection:
//!   the old blocking-RPC latency model, as a floor for the mux win.
//! * `tcp_pooled_8` — the pre-mux concurrency model reconstructed: 8
//!   parallel connections, each a blocking serial stream, so the mux win
//!   over pooled blocking connections is *measured*, not asserted.
//! * `codec` — raw encode→decode round trips of a representative response
//!   frame (the serialization hot path in isolation).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use kosr_core::{IndexedGraph, Query};
use kosr_graph::CategoryId;
use kosr_service::{KosrService, ServiceConfig};
use kosr_transport::protocol::{decode_response, encode_response, RemoteResponse, Response};
use kosr_transport::{InProcTransport, ShardTransport, TcpServer, TcpTransport, TransportTicket};
use kosr_workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};

const POOL: usize = 8;

fn world() -> (Arc<IndexedGraph>, Vec<Query>) {
    let mut g = road_grid_directed(16, 16, 13);
    assign_uniform(&mut g, 6, 20, 5);
    let ig = Arc::new(IndexedGraph::build_default(g));
    let stream = gen_mixed_traffic(&ig.graph, 300, &TrafficMix::default(), 29);
    let queries = stream
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect();
    (ig, queries)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 1024,
        cache_capacity: 0, // cold path: measure execution + transport
        ..Default::default()
    }
}

fn drain_transport(t: &dyn ShardTransport, queries: &[Query]) {
    let tickets: Vec<TransportTicket> = queries.iter().map(|q| t.submit(q.clone())).collect();
    for ticket in tickets {
        criterion::black_box(ticket.wait().expect("bench query completes"));
    }
}

fn transport_roundtrip(c: &mut Criterion) {
    let (ig, queries) = world();
    let mut group = c.benchmark_group("transport_roundtrip");
    group.sample_size(10);

    group.bench_function("direct", |b| {
        let service = KosrService::new(Arc::clone(&ig), config());
        b.iter(|| {
            for r in service.run_batch(&queries) {
                criterion::black_box(r.expect("completes"));
            }
        });
    });

    group.bench_function("inproc", |b| {
        let service = Arc::new(KosrService::new(Arc::clone(&ig), config()));
        let transport = InProcTransport::new(service);
        b.iter(|| drain_transport(&transport, &queries));
    });

    group.bench_function("tcp_mux", |b| {
        let service = Arc::new(KosrService::new(Arc::clone(&ig), config()));
        let server = TcpServer::spawn(service).expect("bind loopback");
        let transport = TcpTransport::connect(server.addr());
        // drain_transport submits every ticket before waiting on any:
        // with the mux, that is 300 interleaved in-flight requests on one
        // connection.
        b.iter(|| drain_transport(&transport, &queries));
    });

    group.bench_function("tcp_pipelined", |b| {
        let service = Arc::new(KosrService::new(
            Arc::clone(&ig),
            ServiceConfig {
                cache_capacity: 8192,
                ..config()
            },
        ));
        let server = TcpServer::spawn(Arc::clone(&service)).expect("bind loopback");
        let transport = TcpTransport::connect(server.addr());
        drain_transport(&transport, &queries); // fill the cache
        b.iter(|| {
            service.invalidate_category(CategoryId(0));
            drain_transport(&transport, &queries);
        });
    });

    group.bench_function("tcp_serial", |b| {
        let service = Arc::new(KosrService::new(Arc::clone(&ig), config()));
        let server = TcpServer::spawn(service).expect("bind loopback");
        let transport = TcpTransport::connect(server.addr());
        b.iter(|| {
            for q in &queries {
                criterion::black_box(transport.submit(q.clone()).wait().expect("bench query"));
            }
        });
    });

    group.bench_function("tcp_pooled_8", |b| {
        let service = Arc::new(KosrService::new(Arc::clone(&ig), config()));
        let server = TcpServer::spawn(service).expect("bind loopback");
        // One connection per pool slot, each driven as a blocking serial
        // stream from its own thread — the pre-mux model.
        let pool: Vec<Arc<TcpTransport>> = (0..POOL)
            .map(|_| Arc::new(TcpTransport::connect(server.addr())))
            .collect();
        b.iter(|| {
            std::thread::scope(|s| {
                for (slot, transport) in pool.iter().enumerate() {
                    let chunk: Vec<&Query> = queries.iter().skip(slot).step_by(POOL).collect();
                    let transport = Arc::clone(transport);
                    s.spawn(move || {
                        for q in chunk {
                            criterion::black_box(
                                transport.submit(q.clone()).wait().expect("bench query"),
                            );
                        }
                    });
                }
            });
        });
    });

    group.bench_function("codec", |b| {
        // A representative answer: k=4 witnesses over a 5-stop query.
        let service = KosrService::new(Arc::clone(&ig), config());
        let sample = queries
            .iter()
            .map(|q| service.submit(q.clone()).unwrap().wait().unwrap())
            .next()
            .expect("one answer");
        let resp = Response::Query(Ok(RemoteResponse {
            outcome: sample.outcome,
            cached: false,
            spans: Vec::new(),
        }));
        b.iter(|| {
            for id in 0..300u64 {
                let frame = encode_response(id, criterion::black_box(&resp));
                criterion::black_box(decode_response(&frame).unwrap());
            }
        });
    });

    group.finish();
}

criterion_group!(benches, transport_roundtrip);
criterion_main!(benches);
