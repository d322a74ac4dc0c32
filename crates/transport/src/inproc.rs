//! The loopback transport: a replica in the same process, reached through
//! the **full** encode/decode path — every operation serializes its request
//! frame (stamped with a fresh frame id, mirroring the TCP mux), decodes
//! it server-side, dispatches, serializes the response and decodes it
//! client-side verifying the echoed id, so in-process deployments (and the
//! fault-injection test suites built on them) exercise byte-for-byte the
//! same protocol as TCP ones.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use kosr_core::Query;
use kosr_service::{KosrService, TraceContext, Update, UpdateReceipt};

use crate::host::handle_request;
use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, Heartbeat, MemberCounts,
    ProtocolError, RemoteResponse, Request, Response, SnapshotBlob,
};
use crate::{ShardTransport, TransportError, TransportTicket};

/// Maps a decoded response onto the query call's result.
pub(crate) fn expect_query(resp: Response) -> Result<RemoteResponse, TransportError> {
    match resp {
        Response::Query(Ok(rr)) => Ok(rr),
        Response::Query(Err(e)) => Err(TransportError::Service(e)),
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

pub(crate) fn expect_update(resp: Response) -> Result<UpdateReceipt, TransportError> {
    match resp {
        Response::Update(Ok(receipt)) => Ok(receipt),
        Response::Update(Err(e)) => Err(TransportError::Update(e)),
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

pub(crate) fn expect_pong(
    resp: Response,
) -> Result<(Heartbeat, u64, Vec<kosr_service::Event>), TransportError> {
    match resp {
        Response::Pong {
            heartbeat,
            next_seq,
            events,
        } => Ok((heartbeat, next_seq, events)),
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

pub(crate) fn expect_member_counts(resp: Response) -> Result<MemberCounts, TransportError> {
    match resp {
        Response::MemberCounts(mc) => Ok(mc),
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

pub(crate) fn expect_snapshot(resp: Response) -> Result<SnapshotBlob, TransportError> {
    match resp {
        Response::Snapshot(blob) => Ok(blob),
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

pub(crate) fn expect_install(resp: Response) -> Result<Heartbeat, TransportError> {
    match resp {
        Response::Install(Ok(hb)) => Ok(hb),
        Response::Install(Err(e)) => Err(TransportError::Snapshot(e)),
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

pub(crate) fn expect_compacted(resp: Response) -> Result<u64, TransportError> {
    match resp {
        Response::Compacted { head } => Ok(head),
        Response::CursorTooOld { cursor, head } => {
            Err(TransportError::CursorTooOld { cursor, head })
        }
        Response::Fault(e) => Err(TransportError::Protocol(e)),
        _ => Err(unexpected()),
    }
}

fn unexpected() -> TransportError {
    TransportError::Protocol(ProtocolError::Corrupt("unexpected response kind"))
}

fn killed_error() -> TransportError {
    TransportError::Connection("replica killed".into())
}

/// A handle that severs (and restores) an [`InProcTransport`]'s virtual
/// connection — the test suites' replica kill/restart lever.
#[derive(Clone, Debug)]
pub struct KillSwitch {
    flag: Arc<AtomicBool>,
}

impl KillSwitch {
    /// Severs the connection: every in-flight and future operation on the
    /// transport reports a connection fault.
    pub fn kill(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Restores the connection. The replica's *service* kept running (only
    /// the channel was cut), so its state is whatever updates reached it —
    /// recovery replay is the caller's responsibility.
    pub fn revive(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// `true` while severed.
    pub fn is_killed(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A replica in this process, behind the wire codec.
pub struct InProcTransport {
    service: Arc<KosrService>,
    killed: Arc<AtomicBool>,
    next_id: AtomicU64,
}

impl InProcTransport {
    /// Wraps `service` as a loopback replica.
    pub fn new(service: Arc<KosrService>) -> InProcTransport {
        InProcTransport {
            service,
            killed: Arc::new(AtomicBool::new(false)),
            next_id: AtomicU64::new(1),
        }
    }

    /// The wrapped service (introspection and tests).
    pub fn service(&self) -> &Arc<KosrService> {
        &self.service
    }

    /// A handle that can sever/restore this transport's connection.
    pub fn kill_switch(&self) -> KillSwitch {
        KillSwitch {
            flag: Arc::clone(&self.killed),
        }
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Encode → decode → dispatch → encode → decode, all in-process. The
    /// frame id must survive the full loop — the same invariant the TCP
    /// demux relies on to route responses.
    fn roundtrip(&self, req: Request) -> Result<Response, TransportError> {
        if self.killed.load(Ordering::Acquire) {
            return Err(killed_error());
        }
        let id = self.fresh_id();
        let frame = encode_request(id, &req);
        // Server side: an undecodable frame is answered with a typed
        // Fault — the same contract the TCP server keeps.
        let resp = match decode_request(&frame) {
            Ok((_, req)) => handle_request(&self.service, req),
            Err(e) => Response::Fault(e),
        };
        let frame = encode_response(id, &resp);
        let (echoed_id, resp) = decode_response(&frame)?;
        if echoed_id != id {
            return Err(TransportError::Protocol(ProtocolError::Corrupt(
                "response frame id does not match the request",
            )));
        }
        Ok(resp)
    }
}

impl ShardTransport for InProcTransport {
    fn submit_traced(&self, query: Query, ctx: Option<TraceContext>) -> TransportTicket {
        if self.killed.load(Ordering::Acquire) {
            return TransportTicket::ready(Err(killed_error()));
        }
        let id = self.fresh_id();
        // Only sampled contexts are worth their bytes on the wire.
        let req = match ctx.filter(|c| c.sampled) {
            Some(c) => Request::QueryTraced(query, c),
            None => Request::Query(query),
        };
        let frame = encode_request(id, &req);
        let (decoded, ctx) = match decode_request(&frame) {
            Ok((_, Request::Query(q))) => (q, None),
            Ok((_, Request::QueryTraced(q, c))) => (q, Some(c)),
            Ok(_) => return TransportTicket::ready(Err(unexpected())),
            Err(e) => return TransportTicket::ready(Err(e.into())),
        };
        // Keep the service's own asynchrony: enqueue now, block in wait().
        let pending = self.service.submit_traced(decoded, ctx);
        let killed = Arc::clone(&self.killed);
        TransportTicket::new(move || {
            let result = pending.and_then(|t| t.wait()).map(RemoteResponse::from);
            if killed.load(Ordering::Acquire) {
                // The connection died before the response frame arrived.
                return Err(killed_error());
            }
            let frame = encode_response(id, &Response::Query(result));
            let (echoed_id, resp) = decode_response(&frame)?;
            if echoed_id != id {
                return Err(TransportError::Protocol(ProtocolError::Corrupt(
                    "response frame id does not match the request",
                )));
            }
            expect_query(resp)
        })
    }

    fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, TransportError> {
        expect_update(self.roundtrip(Request::Update(*update))?)
    }

    fn ping(&self) -> Result<Heartbeat, TransportError> {
        expect_pong(self.roundtrip(Request::Ping { since_seq: None })?).map(|(hb, _, _)| hb)
    }

    fn member_counts(&self) -> Result<MemberCounts, TransportError> {
        expect_member_counts(self.roundtrip(Request::MemberCounts)?)
    }

    fn snapshot(&self) -> Result<SnapshotBlob, TransportError> {
        expect_snapshot(self.roundtrip(Request::Snapshot)?)
    }

    fn install_snapshot(&self, blob: &SnapshotBlob) -> Result<Heartbeat, TransportError> {
        expect_install(self.roundtrip(Request::InstallSnapshot(blob.clone()))?)
    }

    fn compact(&self, through: u64) -> Result<u64, TransportError> {
        expect_compacted(self.roundtrip(Request::Compact { through })?)
    }

    fn ping_events(
        &self,
        since_seq: u64,
    ) -> Result<(Heartbeat, u64, Vec<kosr_service::Event>), TransportError> {
        expect_pong(self.roundtrip(Request::Ping {
            since_seq: Some(since_seq),
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_core::IndexedGraph;
    use kosr_service::{ServiceConfig, ServiceError};

    fn transport() -> (InProcTransport, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = Arc::new(KosrService::new(
            ig,
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        ));
        (InProcTransport::new(svc), fx)
    }

    #[test]
    fn queries_flow_through_the_codec() {
        let (t, fx) = transport();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = t.submit(q.clone()).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert!(!resp.cached);
        let again = t.submit(q).wait().unwrap();
        assert!(again.cached, "cache flag survives the wire");
    }

    #[test]
    fn rejections_come_back_typed() {
        let (t, fx) = transport();
        let err = t
            .submit(Query::new(fx.s, fx.t, vec![fx.ma], 0))
            .wait()
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Service(ServiceError::InvalidQuery(kosr_core::QueryError::ZeroK))
        );
        assert!(
            !err.is_fault(),
            "deterministic rejections must not fail over"
        );
    }

    #[test]
    fn updates_heartbeats_counts_and_snapshots_work() {
        let (t, fx) = transport();
        assert_eq!(t.ping().unwrap().epoch, 0);
        let mc = t.member_counts().unwrap();
        assert_eq!(mc.num_vertices as usize, fx.graph.num_vertices());
        assert_eq!(mc.counts.len(), 3);

        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        let receipt = t
            .apply_update(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        assert_eq!(t.ping().unwrap().epoch, 1);
        let mc2 = t.member_counts().unwrap();
        assert_eq!(mc2.epoch, 1);
        assert_eq!(mc2.counts[fx.re.index()], mc.counts[fx.re.index()] - 1);

        let blob = t.snapshot().unwrap();
        assert_eq!(blob.epoch, 1);
        let replica = IndexedGraph::decode_snapshot(&blob.bytes).unwrap();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        assert_eq!(
            replica
                .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
                .witnesses,
            t.service()
                .indexed_graph()
                .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
                .witnesses
        );
    }

    #[test]
    fn kill_switch_severs_and_restores() {
        let (t, fx) = transport();
        let switch = t.kill_switch();
        switch.kill();
        assert!(switch.is_killed());
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert!(t.submit(q.clone()).wait().unwrap_err().is_fault());
        assert!(t.ping().unwrap_err().is_fault());
        assert!(t
            .apply_update(&Update::InsertMembership {
                vertex: fx.s,
                category: fx.ma,
            })
            .unwrap_err()
            .is_fault());
        switch.revive();
        assert!(t.submit(q).wait().is_ok());
        assert_eq!(t.ping().unwrap().epoch, 0, "service state survived the cut");
    }

    #[test]
    fn traced_submission_returns_replica_spans() {
        let (t, fx) = transport();
        let ctx = TraceContext::root(kosr_service::TraceId(7), true);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = t.submit_traced(q.clone(), Some(ctx)).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        let root = resp
            .spans
            .iter()
            .find(|s| s.name == "replica")
            .expect("replica root span");
        assert_eq!(root.parent, Some(ctx.parent_span));
        assert!(resp.spans.iter().any(|s| s.name == "execute"));
        // Unsampled contexts cost nothing: the plain exchange.
        let unsampled = TraceContext::root(kosr_service::TraceId(8), false);
        let resp = t.submit_traced(q, Some(unsampled)).wait().unwrap();
        assert!(resp.spans.is_empty());
    }

    #[test]
    fn ping_events_drains_the_replica_journal_with_a_cursor() {
        let (t, fx) = transport();
        let (hb, next, events) = t.ping_events(0).unwrap();
        assert_eq!(hb.epoch, 0);
        assert_eq!(next, 0);
        assert!(events.is_empty(), "nothing journaled yet");

        // An applied update journals an epoch swap replica-side.
        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        t.apply_update(&Update::RemoveMembership {
            vertex: gone,
            category: fx.re,
        })
        .unwrap();
        let (hb, next, events) = t.ping_events(0).unwrap();
        assert_eq!(hb.epoch, 1);
        assert_eq!(next, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, kosr_service::EventKind::EpochSwap);
        // The cursor advances: a second probe from `next` drains nothing.
        let (_, _, rest) = t.ping_events(next).unwrap();
        assert!(rest.is_empty(), "cursor excludes already-forwarded events");
    }

    #[test]
    fn kill_mid_flight_faults_the_ticket() {
        let (t, fx) = transport();
        let switch = t.kill_switch();
        let ticket = t.submit(Query::new(fx.s, fx.t, vec![fx.ma], 1));
        switch.kill();
        assert!(ticket.wait().unwrap_err().is_fault());
    }
}
