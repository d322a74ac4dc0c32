//! Snapshot-install failure paths, end to end through the transport: a
//! blob with a wrong magic, an unsupported codec version or a truncated
//! body is refused with the *typed* rejection (never a fault, never a
//! panic) — and the replica keeps serving its previous index untouched.
//! Previously only the raw decoders were fuzzed; these tests drive the
//! same corruptions through the `InstallSnapshot` wire surface both
//! in-process and over a real socket.

use std::sync::Arc;

use kosr_core::figure1::figure1;
use kosr_core::{IndexedGraph, Query};
use kosr_service::{KosrService, ServiceConfig};
use kosr_transport::protocol::SnapshotBlob;
use kosr_transport::{InProcTransport, ShardTransport, TcpServer, TcpTransport, TransportError};

fn service() -> (Arc<KosrService>, kosr_core::figure1::Figure1) {
    let fx = figure1();
    let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
    (
        Arc::new(KosrService::new(
            ig,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        )),
        fx,
    )
}

/// Every corruption → typed rejection, old index untouched; then a valid
/// install still works on the same transport.
fn exercise(transport: &dyn ShardTransport, fx: &kosr_core::figure1::Figure1) {
    let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
    assert_eq!(
        transport.submit(q.clone()).wait().unwrap().outcome.costs(),
        vec![20, 21, 22]
    );
    let valid = transport.snapshot().unwrap();
    assert_eq!(valid.bytes[8], 3, "a pull yields the flat-arena blob");
    // The snapshot layout: 8 magic bytes, then the codec version byte.
    let mut bad_magic = valid.bytes.clone();
    bad_magic[0] ^= 0xFF;
    let mut bad_version = valid.bytes.clone();
    bad_version[8] = 99;
    let truncated = valid.bytes[..valid.bytes.len() / 2].to_vec();

    let epoch_before = transport.ping().unwrap().epoch;
    for (label, bytes) in [
        ("bad magic", bad_magic),
        ("bad version", bad_version),
        ("truncated", truncated),
        ("empty", Vec::new()),
    ] {
        let err = transport
            .install_snapshot(&SnapshotBlob { epoch: 0, bytes })
            .unwrap_err();
        assert!(
            matches!(err, TransportError::Snapshot(_)),
            "{label}: {err:?}"
        );
        assert!(!err.is_fault(), "{label}: refusals must not drive failover");
        // The replica still serves its old index, same epoch.
        assert_eq!(transport.ping().unwrap().epoch, epoch_before, "{label}");
        assert_eq!(
            transport.submit(q.clone()).wait().unwrap().outcome.costs(),
            vec![20, 21, 22],
            "{label}: old index must keep serving"
        );
    }

    // A valid blob installs: epoch bumps, answers stay canonical.
    let hb = transport.install_snapshot(&valid).unwrap();
    assert_eq!(hb.epoch, epoch_before + 1);
    assert_eq!(
        transport.submit(q).wait().unwrap().outcome.costs(),
        vec![20, 21, 22]
    );
}

#[test]
fn corrupt_blobs_are_refused_typed_in_process() {
    let (svc, fx) = service();
    let transport = InProcTransport::new(svc);
    exercise(&transport, &fx);
}

#[test]
fn corrupt_blobs_are_refused_typed_over_tcp() {
    let (svc, fx) = service();
    let server = TcpServer::spawn(svc).unwrap();
    let client = TcpTransport::connect(server.addr());
    exercise(&client, &fx);
}
