//! Fuzz/property suite for the **flat-arena snapshot codec** — the same
//! total-decode discipline the wire fuzz suite enforces: arbitrary bytes
//! produce typed errors (never a panic, never an attacker-sized
//! allocation), valid blobs survive mutation rounds with a typed outcome,
//! and on random worlds the roundtrip is lossless and deterministic.

use kosr_graph::{CategoryId, Graph, VertexId};
use kosr_hoplabel::{HopLabels, HubOrder};
use kosr_index::arena::{decode, encode, FlatSnapshot, FLAT_SNAPSHOT_VERSION};
use kosr_index::snapshot::SnapshotError;
use kosr_index::CategoryIndexSet;
use proptest::prelude::*;

/// Builds a world from proptest-driven raw material: edges and category
/// memberships land where the fuzzer puts them (self-loops and duplicates
/// are dropped by the builder's own rules).
fn world(
    n: usize,
    edges: &[(u32, u32, u64)],
    members: &[(u32, u32)],
) -> (Graph, HopLabels, CategoryIndexSet) {
    let mut b = kosr_graph::GraphBuilder::new(n);
    for &(a, t, w) in edges {
        let (a, t) = (a % n as u32, t % n as u32);
        if a != t {
            b.add_edge(VertexId(a), VertexId(t), w % 100 + 1);
        }
    }
    b.categories_mut().ensure_categories(3);
    for &(v, c) in members {
        b.categories_mut()
            .insert(VertexId(v % n as u32), CategoryId(c % 3));
    }
    let g = b.build();
    let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
    let inverted = CategoryIndexSet::build(&labels, g.categories());
    (g, labels, inverted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw fuzz: any byte vector validates to Ok or a typed error — no
    /// panic from the validator or the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::bits::u8::ANY, 0..200)) {
        let _ = FlatSnapshot::validate(&bytes);
        let _ = decode(&bytes);
    }

    /// Bytes that *start* like a snapshot (magic + version) but carry
    /// fuzzed counts and body still only produce typed errors.
    #[test]
    fn crafted_headers_never_panic(body in proptest::collection::vec(proptest::bits::u8::ANY, 0..160)) {
        let mut bytes = b"KOSRSNP\0".to_vec();
        bytes.push(FLAT_SNAPSHOT_VERSION);
        bytes.extend_from_slice(&body);
        let _ = FlatSnapshot::validate(&bytes);
        let _ = decode(&bytes);
    }

    /// On arbitrary worlds the roundtrip is lossless — graph, labels,
    /// categories and inverted indexes all agree — and
    /// re-encoding the decoded world reproduces the blob bit for bit.
    #[test]
    fn random_worlds_roundtrip_losslessly(
        n in 2usize..16,
        edges in proptest::collection::vec((0u32..16, 0u32..16, 1u64..100), 1..40),
        members in proptest::collection::vec((0u32..16, 0u32..3), 0..20),
    ) {
        let (g, labels, inverted) = world(n, &edges, &members);
        let blob = encode(&g, &labels, &inverted);
        let (g2, labels2, inverted2) = decode(&blob).expect("own blob validates");
        for s in g.vertices() {
            prop_assert_eq!(
                g2.out_edges(s).collect::<Vec<_>>(),
                g.out_edges(s).collect::<Vec<_>>()
            );
            prop_assert_eq!(g2.categories().categories_of(s), g.categories().categories_of(s));
            for t in g.vertices() {
                prop_assert_eq!(labels2.distance(s, t), labels.distance(s, t));
            }
        }
        for c in 0..3u32 {
            let (a, b) = (inverted.category(CategoryId(c)), inverted2.category(CategoryId(c)));
            prop_assert_eq!(a.num_members(), b.num_members());
            prop_assert_eq!(a.num_entries(), b.num_entries());
            for (h, list) in a.iter_lists() {
                prop_assert_eq!(b.list(h), Some(list));
            }
        }
        prop_assert_eq!(encode(&g2, &labels2, &inverted2), blob);
    }

    /// Truncations and single-byte mutations of a valid blob never panic:
    /// validate() answers Ok (a benign flip, e.g. inside a weight) or a
    /// typed error, and a flipped blob that still validates must still
    /// materialise without panicking.
    #[test]
    fn mutated_valid_blobs_never_panic(
        cut_seed in 0u64..u64::MAX,
        flip_pos in 0usize..usize::MAX,
        flip_bits in 1u8..=255,
    ) {
        let (g, labels, inverted) = world(
            6,
            &[(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 0, 7)],
            &[(1, 0), (3, 0), (2, 1)],
        );
        let blob = encode(&g, &labels, &inverted);
        let cut = (cut_seed as usize) % (blob.len() + 1);
        let _ = decode(&blob[..cut]);
        let mut mutated = blob.clone();
        mutated[flip_pos % blob.len()] ^= flip_bits;
        let _ = FlatSnapshot::validate(&mutated);
        let _ = decode(&mutated);
    }
}

/// Deterministic spot check complementing the sweeps above: the arena's
/// version byte is the only one accepted — the retired rebuild-on-install
/// format (1), the retired format that shipped the bound tables (2) and a
/// hypothetical successor (4) are typed refusals.
#[test]
fn other_format_versions_are_unsupported() {
    let (g, labels, inverted) = world(5, &[(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)], &[(1, 0)]);
    let mut blob = encode(&g, &labels, &inverted);
    assert_eq!(blob[8], FLAT_SNAPSHOT_VERSION);
    for version in [1u8, 2, 4] {
        blob[8] = version;
        assert!(matches!(
            FlatSnapshot::validate(&blob),
            Err(SnapshotError::UnsupportedVersion { found }) if found == version
        ));
        assert!(matches!(
            decode(&blob),
            Err(SnapshotError::UnsupportedVersion { found }) if found == version
        ));
    }
}
