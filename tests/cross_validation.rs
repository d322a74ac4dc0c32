//! Cross-crate correctness: every query algorithm must agree with the
//! exhaustive brute-force oracle — and with each other — on randomized
//! graphs, categories and queries. This is the repository's strongest
//! correctness net: it exercises PLL labels, inverted indexes, FindNN,
//! FindNEN, the dominance bookkeeping and the A* ordering all at once.

use kosr::core::{
    brute_force_topk, kpne, pruning_kosr, star_kosr, IndexedGraph, Method, NoClock, Query,
};
use kosr::graph::{CategoryId, Graph, GraphBuilder, VertexId};
use kosr::index::{DijkstraNn, DijkstraTarget};
use proptest::prelude::*;

/// Random digraph + categories, sized for exhaustive verification.
fn arb_world() -> impl Strategy<Value = (Graph, usize)> {
    arb_world_weighted(1..30)
}

/// [`arb_world`] with edge weights drawn from `weights`. A narrow range
/// (`1..3`) makes equal-cost routes the rule rather than the exception.
fn arb_world_weighted(weights: std::ops::Range<u64>) -> impl Strategy<Value = (Graph, usize)> {
    (
        8usize..28,                                                        // vertices
        proptest::collection::vec((0u32..28, 0u32..28, weights), 20..110), // edges
        2usize..4,                                                         // categories
        proptest::collection::vec(proptest::bits::u8::ANY, 28),            // membership bits
    )
        .prop_map(|(n, edges, ncats, bits)| {
            let mut b = GraphBuilder::new(n);
            for c in 0..ncats {
                b.categories_mut().add_category(format!("C{c}"));
            }
            for (u, v, w) in edges {
                let (u, v) = (u as usize % n, v as usize % n);
                if u != v {
                    b.add_edge(VertexId(u as u32), VertexId(v as u32), w);
                }
            }
            for (i, &bit) in bits.iter().take(n).enumerate() {
                for c in 0..ncats {
                    if (bit >> c) & 1 == 1 {
                        b.categories_mut()
                            .insert(VertexId(i as u32), CategoryId(c as u32));
                    }
                }
            }
            (b.build(), ncats)
        })
}

/// Served StarKOSR (canonical, no clock, exact label potentials when
/// `|C| ≥ 2`) against the brute-force oracle, witness for witness, with
/// every smaller k giving the answer's prefix. `picks` draws 1–3 categories
/// with repeats, so the potentials' per-level tables are exercised where a
/// category recurs with a different remainder.
fn assert_served_sk_matches_brute_force(
    g: &Graph,
    ncats: usize,
    (s, t): (u32, u32),
    picks: &[u32],
    k: usize,
) {
    let n = g.num_vertices() as u32;
    let (s, t) = (VertexId(s % n), VertexId(t % n));
    let cats: Vec<CategoryId> = picks
        .iter()
        .map(|&c| CategoryId(c % ncats as u32))
        .collect();
    let query = Query::new(s, t, cats, k);
    let expected = brute_force_topk(g, &query, 200_000).expect("small world");
    let ig = IndexedGraph::build_default(g.clone());
    let served = |k| {
        ig.run_canonical_clocked::<NoClock>(
            &Query { k, ..query.clone() },
            Method::Sk,
            u64::MAX,
            None,
        )
    };
    let out = served(k);
    assert_eq!(out.witnesses, expected, "{query:?}");
    assert_eq!(
        out.stats.bound_pruned,
        u64::from(query.categories.len() >= 2 && expected.is_empty()),
        "an infinite root is a bound prune: {query:?}"
    );
    for k2 in 1..k {
        let want = &expected[..k2.min(expected.len())];
        assert_eq!(&served(k2).witnesses[..], want, "{query:?} at k = {k2}");
    }
}

proptest! {
    // Cheap cases; a repeated category at two levels of one stream, the
    // case the per-level tables exist for, needs a few hundred to show.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical SK with potentials vs brute force, in a world of ties.
    #[test]
    fn served_sk_matches_brute_force_under_ties((g, ncats) in arb_world_weighted(1..3),
                                                st in (0u32..28, 0u32..28),
                                                picks in proptest::collection::vec(0u32..3, 1..4),
                                                k in 1usize..7) {
        assert_served_sk_matches_brute_force(&g, ncats, st, &picks, k);
    }

    /// Canonical SK with potentials vs brute force, with spread weights.
    #[test]
    fn served_sk_matches_brute_force((g, ncats) in arb_world_weighted(1..30),
                                     st in (0u32..28, 0u32..28),
                                     picks in proptest::collection::vec(0u32..3, 1..4),
                                     k in 1usize..7) {
        assert_served_sk_matches_brute_force(&g, ncats, st, &picks, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three algorithms (label providers) return exactly the brute-force
    /// top-k cost vector, and every returned witness leg is consistent.
    #[test]
    fn methods_match_brute_force((g, ncats) in arb_world(),
                                 s in 0u32..28, t in 0u32..28,
                                 perm in 0usize..6, k in 1usize..6) {
        let n = g.num_vertices() as u32;
        let (s, t) = (VertexId(s % n), VertexId(t % n));
        // A category sequence of length 2 drawn from the available ones.
        let c1 = CategoryId((perm % ncats) as u32);
        let c2 = CategoryId(((perm / 2) % ncats) as u32);
        let query = Query::new(s, t, vec![c1, c2], k);

        let expected = brute_force_topk(&g, &query, 200_000).expect("small world");
        let want: Vec<u64> = expected.iter().map(|w| w.cost).collect();

        let ig = IndexedGraph::build_default(g.clone());
        for m in Method::ALL {
            let out = ig.run(&query, m);
            prop_assert_eq!(&out.costs(), &want, "method {}", m.name());
            // Witness structure: right length, right endpoints, right cost.
            for w in &out.witnesses {
                prop_assert_eq!(w.vertices.len(), query.witness_len());
                prop_assert_eq!(w.vertices[0], s);
                prop_assert_eq!(*w.vertices.last().unwrap(), t);
                let leg_sum: u64 = w.vertices.windows(2)
                    .map(|p| ig.labels.distance(p[0], p[1]))
                    .sum();
                prop_assert_eq!(leg_sum, w.cost, "legs must sum to the witness cost");
                // Each interior stop carries its category.
                for (i, &c) in query.categories.iter().enumerate() {
                    prop_assert!(g.categories().has_category(w.vertices[i + 1], c));
                }
            }
        }
    }

    /// The Dijkstra-backed providers agree with the label-backed ones.
    #[test]
    fn dij_and_label_providers_agree((g, ncats) in arb_world(),
                                     s in 0u32..28, t in 0u32..28, k in 1usize..5) {
        let n = g.num_vertices() as u32;
        let (s, t) = (VertexId(s % n), VertexId(t % n));
        let query = Query::new(s, t, vec![CategoryId(0), CategoryId((ncats - 1) as u32)], k);
        let ig = IndexedGraph::build_default(g.clone());

        let a = ig.run(&query, Method::Sk);
        let b = star_kosr(&query, DijkstraNn::new(&g), DijkstraTarget::new(&g, t));
        prop_assert_eq!(a.costs(), b.costs());

        let a = ig.run(&query, Method::Pk);
        let b = pruning_kosr(&query, DijkstraNn::new(&g), DijkstraTarget::new(&g, t));
        prop_assert_eq!(a.costs(), b.costs());

        let a = ig.run(&query, Method::Kpne);
        let b = kpne(&query, DijkstraNn::new(&g), DijkstraTarget::new(&g, t));
        prop_assert_eq!(a.costs(), b.costs());
    }

    /// Canonical top-k is the brute-force oracle's answer witness for
    /// witness (vertex tuples, not only costs) in a world where ties are
    /// everywhere, for every method, with and without sequence bounds; and
    /// the answer at every smaller k is its prefix.
    #[test]
    fn canonical_matches_brute_force_under_ties((g, ncats) in arb_world_weighted(1..3),
                                                s in 0u32..28, t in 0u32..28,
                                                perm in 0usize..6, k in 1usize..8) {
        let n = g.num_vertices() as u32;
        let (s, t) = (VertexId(s % n), VertexId(t % n));
        let c1 = CategoryId((perm % ncats) as u32);
        let c2 = CategoryId(((perm / 2) % ncats) as u32);
        let query = Query::new(s, t, vec![c1, c2], k);

        let expected = brute_force_topk(&g, &query, 200_000).expect("small world");
        let ig = IndexedGraph::build_default(g.clone());
        let sb = ig.seq_bounds(&query);
        for m in Method::ALL {
            let out = ig.run_canonical(&query, m, u64::MAX);
            prop_assert_eq!(&out.witnesses, &expected, "method {}", m.name());
            let opt = ig.run_canonical_opt(&query, m, u64::MAX, Some(&sb));
            prop_assert_eq!(&opt.witnesses, &expected, "method {} with bounds", m.name());
            for k2 in 1..k {
                let small = ig.run_canonical(&Query { k: k2, ..query.clone() }, m, u64::MAX);
                let want = &expected[..k2.min(expected.len())];
                prop_assert_eq!(&small.witnesses[..], want, "method {} at k = {}", m.name(), k2);
            }
        }
    }

    /// Witness costs are nondecreasing and the k-th bound of Definition 5
    /// holds: no feasible witness outside the answer is cheaper than the
    /// worst returned one.
    #[test]
    fn definition5_optimality((g, _) in arb_world(), s in 0u32..28, t in 0u32..28) {
        let n = g.num_vertices() as u32;
        let (s, t) = (VertexId(s % n), VertexId(t % n));
        let query = Query::new(s, t, vec![CategoryId(0)], 3);
        let ig = IndexedGraph::build_default(g.clone());
        let out = ig.run(&query, Method::Sk);
        for pair in out.witnesses.windows(2) {
            prop_assert!(pair[0].cost <= pair[1].cost);
        }
        if let Some(worst) = out.witnesses.last() {
            let all = brute_force_topk(&g, &Query { k: usize::MAX >> 1, ..query.clone() }, 200_000)
                .expect("small world");
            let returned: std::collections::HashSet<Vec<VertexId>> =
                out.witnesses.iter().map(|w| w.vertices.clone()).collect();
            for w in &all {
                if !returned.contains(&w.vertices) {
                    prop_assert!(w.cost >= worst.cost,
                        "missed witness {:?} cheaper than worst returned", w);
                }
            }
        }
    }
}

/// Deterministic regression: a hand-sized world where k exceeds the
/// feasible set and one category is empty.
#[test]
fn degenerate_queries() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(VertexId(0), VertexId(1), 1);
    b.add_edge(VertexId(1), VertexId(2), 1);
    b.add_edge(VertexId(2), VertexId(3), 1);
    let c0 = b.categories_mut().add_category("A");
    let empty = b.categories_mut().add_category("EMPTY");
    b.categories_mut().insert(VertexId(1), c0);
    let g = b.build();
    let ig = IndexedGraph::build_default(g);

    // k larger than feasible: exactly one witness exists.
    let q = Query::new(VertexId(0), VertexId(3), vec![c0], 10);
    for m in Method::ALL {
        let out = ig.run(&q, m);
        assert_eq!(out.costs(), vec![3], "method {}", m.name());
    }
    // Empty category: no feasible route at all.
    let q = Query::new(VertexId(0), VertexId(3), vec![c0, empty], 2);
    for m in Method::ALL {
        let out = ig.run(&q, m);
        assert!(out.witnesses.is_empty(), "method {}", m.name());
    }
    // Unreachable destination.
    let q = Query::new(VertexId(3), VertexId(0), vec![c0], 1);
    for m in Method::ALL {
        assert!(ig.run(&q, m).witnesses.is_empty(), "method {}", m.name());
    }
    // Source == destination with a loop through the category.
    let q = Query::new(VertexId(1), VertexId(1), vec![c0], 1);
    let out = ig.run(&q, Method::Sk);
    assert_eq!(out.costs(), vec![0], "1 serves its own category at cost 0");
}
