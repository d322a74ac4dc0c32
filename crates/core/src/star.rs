//! **StarKOSR** (§IV-B): PruningKOSR driven in an A* manner.
//!
//! Every partial witness `p = ⟨s, …, vi⟩` at level `i` is queued by its
//! *estimated total cost* `w(p) + est(i, vi)`, where the estimate
//! ([`Estimate`]) never overestimates the cost of any feasible completion
//! (it is **admissible**) and is **consistent** along a leg. Complete routes
//! then still pop in true cost order (Lemma 4), while partial routes that
//! wander away from a cheap completion sink down the queue (the shrinking
//! rings of Figure 2(c)). The search runs under one of two estimates:
//!
//! * `dis(vi, t)` ([`ToTarget`]) — the paper's estimate. Every `AtK` entry
//!   point ([`star_kosr`], `IndexedGraph::run*`, `repro`) and SK-Dij use it,
//!   so the paper's counters are this search's.
//! * exact label potentials `hᵢ(vi)` ([`kosr_index::LabelPotentials`]) —
//!   the cheapest completion from `vi` through `Cᵢ₊₁ … Cⱼ` to `t`, from one
//!   backward pass over the query's categories. Canonical StarKOSR (the
//!   served search) uses them when `|C| ≥ 2`.
//!
//! Extensions come from `FindNEN` (Algorithm 4): the x-th nearest
//! **estimated** neighbor, i.e. ordered by `dis(vi, u) + est(i + 1, u)`
//! rather than `dis(vi, u)`.
//!
//! **Why exact potentials keep every answer.**
//!
//! * *Consistency.* `hᵢ₋₁(v) ≤ dis(v, u) + hᵢ(u)` for every `u ∈ Cᵢ`, since
//!   `hᵢ₋₁(v)` is the minimum of the right-hand side. So a child's key is
//!   never below its parent's, FindNEN's sibling chain is nondecreasing in
//!   `x`, and complete routes (whose key is their cost) pop in cost order:
//!   Lemma 4 holds as it does for `dis(·, t)`.
//! * *Dominance.* For a fixed tail and level the key is the cost plus a
//!   constant, `hᵢ(tail)`, so "first arrival is cheapest" still holds under
//!   the key order and the dominance bookkeeping is unchanged.
//! * *Feasibility.* `h₀(s)` is the optimal sequenced route's cost, infinite
//!   exactly when no feasible route exists. An infinite root ends the search
//!   empty and counts as a bound prune, the verdict the `SeqBounds` gate
//!   gives, so served queries never build the category-pair tables: they
//!   stay unbuilt on every serving replica. A finite root is the cost of
//!   the first complete route the search pops (checked in debug builds).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use kosr_graph::{is_finite, FxHashMap, VertexId, Weight};
use kosr_index::{
    Estimate, EstimatedNeighbor, NearestNeighbors, NenFinder, SeqBounds, TargetDistance, ToTarget,
};

use crate::arena::{NodeId, RouteArena};
use crate::engine::{Clock, StopRule, TimedEstimate, TimedHeap, TimedNn, WallClock};
use crate::types::{KosrOutcome, Query, QueryStats, Witness};

/// `x = 0` encodes the paper's `'-'`.
const NO_X: u32 = 0;

/// Queue entry: `(estimate, node, level, x, cost, last_leg)`, min-ordered by
/// `(estimate, node)`.
type Entry = Reverse<(Weight, NodeId, u16, u32, Weight, Weight)>;

type Slot = (VertexId, u16);

/// Parked dominated routes: `(estimate, node, cost)`, cheapest first.
type ParkedQueue = BinaryHeap<Reverse<(Weight, NodeId, Weight)>>;

/// The x-th estimated neighbor at witness position `pos`, with the dummy
/// destination category `{t}` at position `|C| + 1`.
fn est_neighbor<N: NearestNeighbors, E: Estimate>(
    nen: &mut NenFinder,
    nn: &mut N,
    est: &mut E,
    query: &Query,
    v: VertexId,
    pos: usize,
    x: usize,
) -> Option<EstimatedNeighbor> {
    let j = query.categories.len();
    if pos <= j {
        nen.find_nen_at(nn, est, v, pos, query.categories[pos - 1], x)
    } else if x == 1 {
        // The estimate at the last level is dis(v, t) under either estimate.
        let d = est.remaining(j, v);
        is_finite(d).then_some(EstimatedNeighbor {
            vertex: query.target,
            dist: d,
            estimate: d,
        })
    } else {
        None
    }
}

/// Answers `query` with StarKOSR over the given providers.
pub fn star_kosr<N, T>(query: &Query, nn: N, target: T) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    star_kosr_bounded(query, nn, target, u64::MAX)
}

/// [`star_kosr`] with an examined-routes budget (see `kpne_bounded`).
pub fn star_kosr_bounded<N, T>(query: &Query, nn: N, target: T, limit: u64) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    debug_assert_eq!(target.target(), query.target);
    star_kosr_opt::<WallClock, _, _>(query, nn, ToTarget(target), limit, None, StopRule::AtK)
}

/// [`star_kosr_bounded`] under clock `C`, estimate `E` and stop rule `stop`
/// (see `engine`), with optional remaining-sequence lower bounds (see
/// `kpne_opt`). For StarKOSR the bounds act **only** as the whole-query
/// feasibility gate (`rem[0] = ∞` → return empty without expanding).
///
/// The table's `cost + rem[level]` cannot key this queue. FindNEN's lazy
/// sibling chain is ordered by `dis(v, u) + est(u)`: popping the x-th entry
/// is what generates the (x+1)-th. A key that mixes in a bound other than
/// the estimate is not monotone along that chain (the `dis(v, u)`
/// component can shrink as the estimate grows), so a sibling cheaper than
/// the k-th answer could hide behind a never-popped predecessor and be
/// lost. A tighter key has to come through the estimate itself, and it
/// must stay consistent to keep the chain monotone: the exact potentials
/// are both the tightest admissible estimate and consistent (module docs).
/// Under them the bounds add nothing, since `h₀(s) = ∞` whenever
/// `rem[0] = ∞`. `bounds: None` and a feasible `bounds` both reproduce the
/// plain search exactly.
pub(crate) fn star_kosr_opt<C, N, E>(
    query: &Query,
    nn: N,
    est: E,
    limit: u64,
    bounds: Option<&SeqBounds>,
    stop: StopRule,
) -> KosrOutcome
where
    C: Clock,
    N: NearestNeighbors,
    E: Estimate,
{
    let t0 = Instant::now();
    let mut nn: TimedNn<N, C> = TimedNn::new(nn);
    let mut est: TimedEstimate<E, C> = TimedEstimate::new(est);
    let mut nen = NenFinder::new();
    let nn_base = nn.queries();

    let mut arena = RouteArena::new();
    let mut heap: TimedHeap<Entry, C> = TimedHeap::new();
    let mut stats = QueryStats {
        examined_per_level: vec![0; query.witness_len()],
        ..QueryStats::default()
    };
    let final_level = (query.categories.len() + 1) as u16;

    let mut ht_dom: FxHashMap<Slot, NodeId> = FxHashMap::default();
    // Parked routes ordered by estimate (equivalently by cost — same tail).
    let mut ht_sub: FxHashMap<Slot, ParkedQueue> = FxHashMap::default();

    let root = arena.root(query.source);
    // If the root's estimate is infinite — or the category-chain bound
    // already proves no feasible completion — the query has no feasible
    // route at all. An exact root is infinite exactly then, the bound
    // gate's verdict, and is counted the same way.
    let root_est = est.root(query.source);
    if bounds.is_some_and(|b| b.infeasible()) || (E::EXACT && !is_finite(root_est)) {
        stats.bound_pruned = 1;
        stats.time.total = t0.elapsed();
        stats.time.finalize();
        return KosrOutcome {
            witnesses: Vec::new(),
            stats,
        };
    }
    if !is_finite(root_est) {
        stats.time.total = t0.elapsed();
        stats.time.finalize();
        return KosrOutcome {
            witnesses: Vec::new(),
            stats,
        };
    }
    heap.push(Reverse((root_est, root, 0, 1, 0, 0)));

    let mut witnesses: Vec<Witness> = Vec::with_capacity(query.k);
    while let Some(Reverse((_est, node, level, x, cost, last_leg))) = heap.pop() {
        stats.examined_routes += 1;
        stats.examined_per_level[level as usize] += 1;
        if stats.examined_routes > limit {
            stats.truncated = true;
            break;
        }

        if level == final_level {
            debug_assert!(
                !E::EXACT || !witnesses.is_empty() || cost == root_est,
                "the first complete route costs {cost}, the exact root estimate {root_est}"
            );
            if !stop.emit(&mut witnesses, query.k, cost, || arena.materialize(node)) {
                break;
            }
            for len in 2..=(query.categories.len() + 1) as u16 {
                let anc = arena.ancestor_with_len(node, len as usize);
                let slot = (arena.vertex(anc), len);
                if ht_dom.get(&slot) == Some(&anc) {
                    if let Some(parked) = ht_sub.get_mut(&slot) {
                        if let Some(Reverse((pest, pnode, pcost))) = parked.pop() {
                            heap.push(Reverse((pest, pnode, len - 1, NO_X, pcost, 0)));
                            stats.reconsidered_routes += 1;
                        }
                    }
                    ht_dom.remove(&slot);
                }
            }
            continue;
        }

        let tail = arena.vertex(node);
        let slot = (tail, level + 1);

        match ht_dom.entry(slot) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(node);
                if let Some(en) = est_neighbor(
                    &mut nen,
                    &mut nn,
                    &mut est,
                    query,
                    tail,
                    level as usize + 1,
                    1,
                ) {
                    let child = arena.extend(node, en.vertex);
                    heap.push(Reverse((
                        cost + en.estimate,
                        child,
                        level + 1,
                        1,
                        cost + en.dist,
                        en.dist,
                    )));
                }
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                ht_sub
                    .entry(slot)
                    .or_default()
                    .push(Reverse((_est, node, cost)));
                stats.dominated_routes += 1;
            }
        }

        if level > 0 && x != NO_X {
            let parent = arena.parent(node).expect("level > 0 implies a parent");
            let pv = arena.vertex(parent);
            if let Some(en) = est_neighbor(
                &mut nen,
                &mut nn,
                &mut est,
                query,
                pv,
                level as usize,
                x as usize + 1,
            ) {
                let parent_cost = cost - last_leg;
                let child = arena.extend(parent, en.vertex);
                heap.push(Reverse((
                    parent_cost + en.estimate,
                    child,
                    level,
                    x + 1,
                    parent_cost + en.dist,
                    en.dist,
                )));
            }
        }
    }

    stats.nn_queries = nn.queries() - nn_base;
    stats.heap_peak = heap.peak;
    stats.time.nn = std::time::Duration::from_nanos(nn.nanos);
    stats.time.estimation = std::time::Duration::from_nanos(est.nanos);
    stats.time.queue = std::time::Duration::from_nanos(heap.nanos);
    stats.time.total = t0.elapsed();
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gsp, GspEngine, IndexedGraph};
    use kosr_graph::{inf_add, CategoryId, Graph, GraphBuilder, INFINITY};
    use kosr_index::LabelPotentials;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const N: usize = 22;

    /// A random digraph with three overlapping categories; `max_w` small
    /// makes equal-cost completions common.
    fn world(seed: u64, max_w: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(N);
        for _ in 0..70 {
            let (a, c) = (rng.gen_range(0..N as u32), rng.gen_range(0..N as u32));
            if a != c {
                b.add_edge(VertexId(a), VertexId(c), rng.gen_range(1..max_w));
            }
        }
        for name in ["A", "B", "C"] {
            let cat = b.categories_mut().add_category(name);
            for v in 0..N as u32 {
                if rng.gen_bool(0.3) {
                    b.categories_mut().insert(VertexId(v), cat);
                }
            }
        }
        b.build()
    }

    /// All-pairs distances straight from the edges (Floyd–Warshall).
    fn all_pairs(g: &Graph) -> Vec<Vec<Weight>> {
        let mut d = vec![vec![INFINITY; N]; N];
        for v in g.vertices() {
            d[v.index()][v.index()] = 0;
            for (u, w) in g.out_edges(v) {
                d[v.index()][u.index()] = d[v.index()][u.index()].min(w);
            }
        }
        for m in 0..N {
            for a in 0..N {
                for b in 0..N {
                    d[a][b] = d[a][b].min(inf_add(d[a][m], d[m][b]));
                }
            }
        }
        d
    }

    /// The cheapest completion from `u` at `level` through the rest of
    /// `cats` to `t`, by trying every member tuple.
    fn cheapest(
        g: &Graph,
        d: &[Vec<Weight>],
        cats: &[CategoryId],
        level: usize,
        u: VertexId,
        t: VertexId,
    ) -> Weight {
        if level == cats.len() {
            return d[u.index()][t.index()];
        }
        g.categories()
            .vertices_of(cats[level])
            .iter()
            .map(|&w| {
                inf_add(
                    d[u.index()][w.index()],
                    cheapest(g, d, cats, level + 1, w, t),
                )
            })
            .min()
            .map_or(INFINITY, |c| c.min(INFINITY))
    }

    /// One query of the potential tests, with its world's all-pairs
    /// distances.
    struct Case {
        ig: IndexedGraph,
        d: Vec<Vec<Weight>>,
        s: VertexId,
        t: VertexId,
        cats: Vec<CategoryId>,
    }

    /// Every query the potential tests run on: sequences of 1–4
    /// categories, repeats included.
    fn cases() -> Vec<Case> {
        let mut out = Vec::new();
        for seed in 0..6 {
            let g = world(seed, if seed % 2 == 0 { 3 } else { 25 });
            let d = all_pairs(&g);
            let ig = IndexedGraph::build_default(g);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            for _ in 0..8 {
                let s = VertexId(rng.gen_range(0..N as u32));
                let t = VertexId(rng.gen_range(0..N as u32));
                let len = rng.gen_range(1..5);
                let cats = (0..len).map(|_| CategoryId(rng.gen_range(0..3))).collect();
                out.push(Case {
                    ig: ig.clone(),
                    d: d.clone(),
                    s,
                    t,
                    cats,
                });
            }
        }
        out
    }

    fn potentials<'a>(
        ig: &'a IndexedGraph,
        t: VertexId,
        cats: &'a [CategoryId],
    ) -> LabelPotentials<'a> {
        LabelPotentials::new(&ig.labels, &ig.inverted, ig.graph.categories(), t, cats)
    }

    /// The vertices at `level`: the source, then each category's members.
    fn at_level(
        ig: &IndexedGraph,
        s: VertexId,
        cats: &[CategoryId],
        level: usize,
    ) -> Vec<VertexId> {
        match level {
            0 => vec![s],
            _ => ig.graph.categories().vertices_of(cats[level - 1]).to_vec(),
        }
    }

    #[test]
    fn potentials_are_the_cheapest_completions() {
        for Case { ig, d, s, t, cats } in cases() {
            let mut h = potentials(&ig, t, &cats);
            h.root(s);
            for level in 0..=cats.len() {
                for u in at_level(&ig, s, &cats, level) {
                    assert_eq!(
                        h.get(level, u),
                        cheapest(&ig.graph, &d, &cats, level, u, t),
                        "h{level}({u:?}) for {s:?} → {t:?} via {cats:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn potentials_are_consistent_on_every_member_edge() {
        for Case { ig, d, s, t, cats } in cases() {
            let mut h = potentials(&ig, t, &cats);
            h.root(s);
            for level in 1..=cats.len() {
                for v in at_level(&ig, s, &cats, level - 1) {
                    for u in at_level(&ig, s, &cats, level) {
                        let leg = inf_add(d[v.index()][u.index()], h.get(level, u));
                        assert!(
                            h.get(level - 1, v) <= leg,
                            "h{}({v:?}) > dis + h{level}({u:?})",
                            level - 1
                        );
                    }
                }
            }
            for v in at_level(&ig, s, &cats, cats.len()) {
                assert_eq!(
                    h.get(cats.len(), v),
                    d[v.index()][t.index()],
                    "last level is dis(·, t)"
                );
            }
        }
    }

    #[test]
    fn root_potential_is_the_gsp_optimum() {
        let mut infeasible = 0;
        for Case { ig, s, t, cats, .. } in cases() {
            let root = potentials(&ig, t, &cats).root(s);
            let (best, _) = gsp(&ig.graph, s, t, &cats, &GspEngine::Dijkstra);
            match best {
                Some(w) => assert_eq!(root, w.cost, "{s:?} → {t:?} via {cats:?}"),
                None => {
                    assert!(!is_finite(root), "{s:?} → {t:?} via {cats:?}");
                    infeasible += 1;
                }
            }
        }
        assert!(infeasible > 0, "the cases include infeasible queries");
    }
}
