//! Wire-format fuzz suite: the decoders are **total** — arbitrary byte
//! input produces a typed [`ProtocolError`], never a panic — frames
//! carrying an unknown protocol version are reported as the typed
//! [`ProtocolError::VersionMismatch`], and frame ids survive mutation
//! rounds intact or not at all (a mutated frame never decodes to a
//! *different* id with a valid body silently — ids live in the fixed
//! header, so header mutations surface as version/kind/id changes the
//! demux layer already tolerates).

use kosr_core::Query;
use kosr_graph::{CategoryId, VertexId};
use kosr_service::Update;
use kosr_transport::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ProtocolError,
    Request, Response, SnapshotBlob, PROTOCOL_VERSION,
};

const PING: Request = Request::Ping { since_seq: None };
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw fuzz: any byte vector decodes to Ok or a typed error; no panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::bits::u8::ANY, 0..160)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor);
    }

    /// Structured fuzz: valid frames with every prefix truncated and every
    /// single byte flipped still decode without panicking.
    #[test]
    fn mutated_valid_frames_never_panic(
        (source, target, k) in (0u32..50, 0u32..50, 1u64..6),
        cats in proptest::collection::vec(0u32..12, 0..5),
        frame_id in 0u64..u64::MAX,
        cut in proptest::bits::u8::ANY,
        flip_pos in 0usize..64,
        flip_bits in proptest::bits::u8::ANY,
    ) {
        let q = Query::new(
            VertexId(source),
            VertexId(target),
            cats.iter().copied().map(CategoryId).collect(),
            k as usize,
        );
        for frame in [
            encode_request(frame_id, &Request::Query(q)),
            encode_request(frame_id, &Request::Update(Update::InsertEdge {
                from: VertexId(source),
                to: VertexId(target),
                weight: k,
            })),
            encode_request(frame_id, &PING),
            encode_request(frame_id, &Request::Snapshot),
            encode_request(frame_id, &Request::Compact { through: k }),
            encode_request(frame_id, &Request::InstallSnapshot(SnapshotBlob {
                epoch: k,
                bytes: vec![source as u8, target as u8],
            })),
        ] {
            let cut = (cut as usize) % (frame.len() + 1);
            let _ = decode_request(&frame[..cut]);
            let mut mutated = frame.clone();
            let pos = flip_pos % mutated.len();
            mutated[pos] ^= flip_bits;
            let _ = decode_request(&mutated);
            let _ = decode_response(&mutated);
        }
    }

    /// Any version byte other than ours is a typed version-mismatch error,
    /// regardless of what follows.
    #[test]
    fn version_mismatch_is_always_typed(
        version in proptest::bits::u8::ANY,
        body in proptest::collection::vec(proptest::bits::u8::ANY, 0..40),
    ) {
        if version == PROTOCOL_VERSION {
            return; // covered by the round-trip suites
        }
        let mut frame = vec![version];
        frame.extend_from_slice(&body);
        assert_eq!(
            decode_request(&frame),
            Err(ProtocolError::VersionMismatch { found: version })
        );
        assert!(matches!(
            decode_response(&frame),
            Err(ProtocolError::VersionMismatch { found }) if found == version
        ));
    }

    /// Frame ids round-trip verbatim for every request kind at any id.
    #[test]
    fn frame_ids_roundtrip(frame_id in 0u64..u64::MAX, through in 0u64..u64::MAX) {
        for req in [
            PING,
            Request::Ping { since_seq: Some(through) },
            Request::MemberCounts,
            Request::Snapshot,
            Request::Compact { through },
        ] {
            let frame = encode_request(frame_id, &req);
            let (id, back) = decode_request(&frame).expect("valid frame");
            assert_eq!(id, frame_id);
            assert_eq!(back, req);
        }
    }
}

/// Deterministic spot checks that complement the fuzz sweeps.
#[test]
fn empty_and_header_only_frames_are_typed_errors() {
    assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
    assert_eq!(
        decode_request(&[PROTOCOL_VERSION]),
        Err(ProtocolError::Truncated)
    );
    // A kind byte without the full frame id behind it is truncation…
    assert_eq!(
        decode_request(&[PROTOCOL_VERSION, 250]),
        Err(ProtocolError::Truncated)
    );
    // …and with the id present, an unknown kind is typed.
    let mut unknown = encode_request(9, &PING);
    unknown[1] = 250;
    assert_eq!(
        decode_request(&unknown),
        Err(ProtocolError::UnknownKind(250))
    );
    // A response kind sent where a request is expected (and vice versa) is
    // an unknown kind, not a crash.
    let resp = encode_response(1, &Response::Fault(ProtocolError::Truncated));
    assert!(matches!(
        decode_request(&resp),
        Err(ProtocolError::UnknownKind(_))
    ));
    let req = encode_request(1, &PING);
    assert!(matches!(
        decode_response(&req),
        Err(ProtocolError::UnknownKind(_))
    ));
}

/// Adversarial length prefixes inside bodies must not drive allocations
/// past the buffer: a declared huge count with a tiny body is `Truncated`.
#[test]
fn huge_declared_counts_are_refused() {
    // Query frame claiming u32::MAX categories.
    let mut frame = vec![PROTOCOL_VERSION, 0];
    frame.extend_from_slice(&7u64.to_le_bytes()); // frame id
    frame.extend_from_slice(&0u32.to_le_bytes()); // source
    frame.extend_from_slice(&0u32.to_le_bytes()); // target
    frame.extend_from_slice(&1u64.to_le_bytes()); // k
    frame.extend_from_slice(&u32::MAX.to_le_bytes()); // category count
    assert_eq!(decode_request(&frame), Err(ProtocolError::Truncated));

    // Install frame declaring a huge snapshot blob with a tiny body.
    let mut frame = vec![PROTOCOL_VERSION, 6];
    frame.extend_from_slice(&7u64.to_le_bytes()); // frame id
    frame.extend_from_slice(&0u64.to_le_bytes()); // epoch
    frame.extend_from_slice(&u64::MAX.to_le_bytes()); // blob length
    frame.push(0);
    assert_eq!(decode_request(&frame), Err(ProtocolError::Truncated));
}
