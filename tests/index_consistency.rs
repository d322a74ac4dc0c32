//! Index-layer invariants across crates: the label oracle against Dijkstra
//! ground truth on real scenario graphs, NN streams against sorted
//! distances, dynamic category updates against rebuilds, and disk/codec
//! round-trips through the public API.

use kosr::graph::{CategoryId, VertexId};
use kosr::hoplabel::{codec, HubOrder};
use kosr::index::{CategoryIndexSet, InvertedLabelIndex, LabelNn, NearestNeighbors};
use kosr::pathfinding::{Dijkstra, Dir};
use kosr::workloads::{Scenario, ScenarioName};
use proptest::prelude::*;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// PLL distances equal Dijkstra on every scenario family (sampled pairs).
#[test]
fn labels_match_dijkstra_on_all_scenarios() {
    for name in ScenarioName::ALL {
        let g = Scenario::new(name).with_scale(0.05).build();
        let ch = kosr::ch::build(&g);
        let labels = kosr::hoplabel::build(&g, &HubOrder::from_ch(&ch));
        let mut d = Dijkstra::new(g.num_vertices());
        let n = g.num_vertices() as u32;
        for si in 0..6 {
            let s = v(si * (n / 7).max(1));
            d.one_to_all(&g, Dir::Forward, s);
            for ti in 0..40 {
                let t = v((ti * 37 + 11) % n);
                assert_eq!(
                    labels.distance(s, t),
                    d.distance(t),
                    "{}: {s:?}->{t:?}",
                    name.as_str()
                );
            }
        }
    }
}

/// The FindNN stream equals the brute-force sorted distance list on a real
/// scenario graph.
#[test]
fn nn_stream_matches_sorted_distances() {
    let g = Scenario::new(ScenarioName::Col).with_scale(0.05).build();
    let ch = kosr::ch::build(&g);
    let labels = kosr::hoplabel::build(&g, &HubOrder::from_ch(&ch));
    let inverted = CategoryIndexSet::build(&labels, g.categories());
    let mut nn = LabelNn::new(&labels, &inverted);
    let cat = CategoryId(3);
    for s in [0u32, 17, 101, 333] {
        let s = v(s % g.num_vertices() as u32);
        let mut want: Vec<u64> = g
            .categories()
            .vertices_of(cat)
            .iter()
            .map(|&m| labels.distance(s, m))
            .filter(|&d| kosr::graph::is_finite(d))
            .collect();
        want.sort_unstable();
        for (i, &wd) in want.iter().enumerate() {
            let (_, d) = nn.find_nn(s, cat, i + 1).expect("stream long enough");
            assert_eq!(d, wd, "s={s:?} x={}", i + 1);
        }
        assert_eq!(nn.find_nn(s, cat, want.len() + 1), None);
    }
}

/// Dynamic category updates (insert + remove) leave the inverted index
/// identical to a from-scratch rebuild, and KOSR answers reflect the edit.
#[test]
fn dynamic_updates_equal_rebuild() {
    use kosr::core::{IndexedGraph, Method, Query};
    let g = Scenario::new(ScenarioName::Cal).with_scale(0.05).build();
    let mut ig = IndexedGraph::build_default(g);
    let cat = CategoryId(5);
    let newbie = v(7);
    assert!(!ig.graph.categories().has_category(newbie, cat));

    // Apply the paper's O(|Lin(v)| log |Ci|) incremental insert.
    let mut cats = ig.graph.categories().clone();
    ig.inverted
        .insert_membership(&ig.labels, &mut cats, newbie, cat);
    ig.graph.set_categories(cats);

    let rebuilt = InvertedLabelIndex::build(&ig.labels, ig.graph.categories(), cat);
    let updated = ig.inverted.category(cat);
    assert_eq!(updated.num_entries(), rebuilt.num_entries());
    assert_eq!(updated.num_members(), rebuilt.num_members());
    for (hub, list) in rebuilt.iter_lists() {
        assert_eq!(updated.list(hub).unwrap(), list);
    }

    // A query whose answer must now include the new member: make newbie the
    // only member cheaply reachable by routing from itself.
    let q = Query::new(
        newbie,
        v(100 % ig.graph.num_vertices() as u32),
        vec![cat],
        1,
    );
    let out = ig.run(&q, Method::Sk);
    assert!(!out.witnesses.is_empty());
    // v7 serves the category at distance 0, so the best witness uses it.
    assert_eq!(out.witnesses[0].vertices[1], newbie);

    // Remove and verify the index returns to its previous state.
    let mut cats = ig.graph.categories().clone();
    ig.inverted
        .remove_membership(&ig.labels, &mut cats, newbie, cat);
    ig.graph.set_categories(cats);
    let rebuilt = InvertedLabelIndex::build(&ig.labels, ig.graph.categories(), cat);
    assert_eq!(
        ig.inverted.category(cat).num_entries(),
        rebuilt.num_entries()
    );
}

/// The disk layout round-trips through the public API on a scenario
/// index.
#[test]
fn persistence_roundtrips() {
    use kosr::index::disk::DiskIndex;
    let g = Scenario::new(ScenarioName::Gplus).with_scale(0.05).build();
    let ch = kosr::ch::build(&g);
    let labels = kosr::hoplabel::build(&g, &HubOrder::from_ch(&ch));

    let dir = std::env::temp_dir().join(format!("kosr_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gplus.idx");
    kosr::index::disk::create(&path, &labels, g.categories()).unwrap();
    let disk = DiskIndex::open(&path).unwrap();
    assert_eq!(disk.num_vertices(), g.num_vertices());
    for i in (0..g.num_vertices() as u32).step_by(53) {
        assert_eq!(&disk.load_lout(v(i)).unwrap(), labels.lout(v(i)));
        assert_eq!(&disk.load_lin(v(i)).unwrap(), labels.lin(v(i)));
    }
    let seg = disk.load_category(CategoryId(2)).unwrap();
    let fresh = InvertedLabelIndex::build(&labels, g.categories(), CategoryId(2));
    assert_eq!(seg.inverted.num_entries(), fresh.num_entries());
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The label-set record codec rejects arbitrary corruption instead of
    /// mis-decoding: flipping any single byte of a run of records either
    /// fails to decode or still decodes to *some* sets (never panics).
    #[test]
    fn codec_never_panics_on_corruption(flip in 0usize..400, val in 0u8..=255) {
        let g = Scenario::new(ScenarioName::Cal).with_scale(0.03).build();
        let labels = kosr::hoplabel::build(&g, &HubOrder::Degree);
        let mut buf = Vec::new();
        for set in labels.lin_sets() {
            codec::encode_label_set(set, &mut buf);
        }
        let idx = flip % buf.len();
        buf[idx] = val;
        let mut cursor = buf.as_slice();
        while !cursor.is_empty() && codec::decode_label_set(&mut cursor).is_ok() {}
    }

    /// Inverted-index incremental updates match rebuilds for arbitrary
    /// insert/remove sequences.
    #[test]
    fn update_sequences_match_rebuild(ops in proptest::collection::vec((0u32..60, any::<bool>()), 1..30)) {
        let g = Scenario::new(ScenarioName::Cal).with_scale(0.03).build();
        let ch = kosr::ch::build(&g);
        let labels = kosr::hoplabel::build(&g, &HubOrder::from_ch(&ch));
        let cat = CategoryId(1);
        let mut cats = g.categories().clone();
        let mut il = InvertedLabelIndex::build(&labels, &cats, cat);
        let n = g.num_vertices() as u32;
        for (vi, insert) in ops {
            let vx = v(vi % n);
            if insert {
                if cats.insert(vx, cat) {
                    il.insert_member(&labels, vx);
                }
            } else if cats.remove(vx, cat) {
                il.remove_member(&labels, vx);
            }
        }
        let rebuilt = InvertedLabelIndex::build(&labels, &cats, cat);
        prop_assert_eq!(il.num_entries(), rebuilt.num_entries());
        prop_assert_eq!(il.num_members(), rebuilt.num_members());
        for (hub, list) in rebuilt.iter_lists() {
            prop_assert_eq!(il.list(hub).unwrap(), list);
        }
    }
}
