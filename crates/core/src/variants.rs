//! The query variants of §IV-C ("Variants of KOSR"):
//!
//! * **No source** — start anywhere in the first category: seed the queue
//!   with every `v ∈ V_{C1}` instead of `s`.
//! * **No destination** — stop after the last category: the dummy
//!   destination category disappears. The A* estimate has no target, so (as
//!   the paper notes) StarKOSR does not apply — this is a PruningKOSR
//!   variant.
//! * **Per-category preferences** — e.g. "the restaurant must be Italian":
//!   a predicate filter on category members, applied inside the NN stream
//!   exactly where the paper suggests (line 15 of Algorithm 3), via the
//!   [`FilteredNn`] wrapper which composes with *every* algorithm.
//! * Unweighted / undirected graphs need no code: build the graph with unit
//!   weights / symmetric edges (§IV-C's first two bullets); tests in
//!   `tests/` exercise both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use kosr_graph::{CategoryId, FxHashMap, VertexId, Weight};
use kosr_index::{NearestNeighbors, TargetDistance};

use crate::arena::{NodeId, RouteArena};
use crate::engine::{neighbor, NoClock, TimedHeap, TimedNn};
use crate::types::{KosrOutcome, Query, QueryStats, Witness};

const NO_X: u32 = 0;
type Entry = Reverse<(Weight, NodeId, u16, u32, Weight)>;
type Slot = (VertexId, u16);

/// NN-stream wrapper that drops members failing a per-category predicate —
/// the paper's personal-preference hook (§IV-C). The x-th *accepted*
/// neighbor is served, with its own memoised list so the filter is applied
/// once per underlying member.
pub struct FilteredNn<N, F> {
    inner: N,
    predicate: F,
    accepted: FxHashMap<(VertexId, CategoryId), Vec<(VertexId, Weight)>>,
    /// Next underlying x to pull, per stream.
    cursor: FxHashMap<(VertexId, CategoryId), usize>,
}

impl<N, F> FilteredNn<N, F>
where
    N: NearestNeighbors,
    F: FnMut(CategoryId, VertexId) -> bool,
{
    /// Wraps `inner`, keeping only members where `predicate(c, v)` holds.
    pub fn new(inner: N, predicate: F) -> Self {
        FilteredNn {
            inner,
            predicate,
            accepted: FxHashMap::default(),
            cursor: FxHashMap::default(),
        }
    }
}

impl<N, F> NearestNeighbors for FilteredNn<N, F>
where
    N: NearestNeighbors,
    F: FnMut(CategoryId, VertexId) -> bool,
{
    fn find_nn(&mut self, v: VertexId, c: CategoryId, x: usize) -> Option<(VertexId, Weight)> {
        let key = (v, c);
        loop {
            if let Some(list) = self.accepted.get(&key) {
                if list.len() >= x {
                    return Some(list[x - 1]);
                }
            }
            let cur = self.cursor.entry(key).or_insert(0);
            *cur += 1;
            let pulled = self.inner.find_nn(v, c, *cur)?;
            if (self.predicate)(c, pulled.0) {
                self.accepted.entry(key).or_default().push(pulled);
            }
        }
    }

    fn nn_queries(&self) -> u64 {
        self.inner.nn_queries()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}

/// **No-source KOSR**: the k cheapest routes that start at *any* vertex of
/// the first category, pass the remaining categories in order and end at
/// `target`. Witnesses are `⟨v1, …, vj, t⟩`.
///
/// Implementation: Algorithm 2 with the queue seeded by every `V_{C1}`
/// member at zero cost (the paper's "add all vertices in the first category
/// instead of the source to the priority queue").
pub fn no_source_kosr<N, T>(
    first_category_members: &[VertexId],
    categories_rest: &[CategoryId],
    target: VertexId,
    k: usize,
    nn: N,
    mut target_oracle: T,
) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    // Reuse the standard machinery by seeding multiple roots at level 0 and
    // treating the member vertex itself as the "source".
    let t0 = Instant::now();
    let mut nn: TimedNn<N, NoClock> = TimedNn::new(nn);
    let nn_base = nn.queries();
    let query = Query::new(
        VertexId(u32::MAX), // placeholder; roots carry the real starts
        target,
        categories_rest.to_vec(),
        k,
    );
    let mut arena = RouteArena::new();
    let mut heap: TimedHeap<Entry, NoClock> = TimedHeap::new();
    let mut stats = QueryStats {
        examined_per_level: vec![0; categories_rest.len() + 2],
        ..QueryStats::default()
    };
    let final_level = (categories_rest.len() + 1) as u16;
    let mut ht_dom: FxHashMap<Slot, NodeId> = FxHashMap::default();
    let mut ht_sub: FxHashMap<Slot, BinaryHeap<Reverse<(Weight, NodeId)>>> = FxHashMap::default();

    for &m in first_category_members {
        let root = arena.root(m);
        heap.push(Reverse((0, root, 0, 1, 0)));
    }

    let mut witnesses = Vec::with_capacity(k);
    while let Some(Reverse((cost, node, level, x, last_leg))) = heap.pop() {
        stats.examined_routes += 1;
        stats.examined_per_level[level as usize] += 1;
        if level == final_level {
            witnesses.push(Witness {
                vertices: arena.materialize(node),
                cost,
            });
            if witnesses.len() == k {
                break;
            }
            for len in 2..=(categories_rest.len() + 1) as u16 {
                let anc = arena.ancestor_with_len(node, len as usize);
                let slot = (arena.vertex(anc), len);
                if ht_dom.get(&slot) == Some(&anc) {
                    if let Some(parked) = ht_sub.get_mut(&slot) {
                        if let Some(Reverse((pc, pn))) = parked.pop() {
                            heap.push(Reverse((pc, pn, len - 1, NO_X, 0)));
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
                if let Some((u, d)) = neighbor(
                    &mut nn,
                    &mut target_oracle,
                    &query,
                    tail,
                    level as usize + 1,
                    1,
                ) {
                    let child = arena.extend(node, u);
                    heap.push(Reverse((cost + d, child, level + 1, 1, d)));
                }
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                ht_sub.entry(slot).or_default().push(Reverse((cost, node)));
                stats.dominated_routes += 1;
            }
        }
        if level > 0 && x != NO_X {
            let parent = arena.parent(node).expect("level > 0 implies a parent");
            let pv = arena.vertex(parent);
            if let Some((u, d)) = neighbor(
                &mut nn,
                &mut target_oracle,
                &query,
                pv,
                level as usize,
                x as usize + 1,
            ) {
                let child = arena.extend(parent, u);
                heap.push(Reverse((cost - last_leg + d, child, level, x + 1, d)));
            }
        }
    }
    stats.nn_queries = nn.queries() - nn_base;
    stats.heap_peak = heap.peak;
    stats.time.total = t0.elapsed();
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}

/// **No-destination KOSR**: the k cheapest routes from `source` through the
/// categories in order, ending at whatever vertex serves the last category.
/// Witnesses are `⟨s, v1, …, vj⟩`. PruningKOSR-based (the estimation of
/// StarKOSR needs a destination, as the paper notes).
pub fn no_destination_kosr<N>(
    source: VertexId,
    categories: &[CategoryId],
    k: usize,
    nn: N,
) -> KosrOutcome
where
    N: NearestNeighbors,
{
    assert!(
        !categories.is_empty(),
        "a no-destination query needs at least one category"
    );
    let t0 = Instant::now();
    let mut nn: TimedNn<N, NoClock> = TimedNn::new(nn);
    let nn_base = nn.queries();
    let mut arena = RouteArena::new();
    let mut heap: TimedHeap<Entry, NoClock> = TimedHeap::new();
    let mut stats = QueryStats {
        examined_per_level: vec![0; categories.len() + 1],
        ..QueryStats::default()
    };
    // Complete once the last category is reached (no dummy level).
    let final_level = categories.len() as u16;
    let mut ht_dom: FxHashMap<Slot, NodeId> = FxHashMap::default();
    let mut ht_sub: FxHashMap<Slot, BinaryHeap<Reverse<(Weight, NodeId)>>> = FxHashMap::default();

    let root = arena.root(source);
    heap.push(Reverse((0, root, 0, 1, 0)));

    let mut witnesses = Vec::with_capacity(k);
    while let Some(Reverse((cost, node, level, x, last_leg))) = heap.pop() {
        stats.examined_routes += 1;
        stats.examined_per_level[level as usize] += 1;
        if level == final_level {
            witnesses.push(Witness {
                vertices: arena.materialize(node),
                cost,
            });
            if witnesses.len() == k {
                break;
            }
            for len in 2..=categories.len() as u16 {
                let anc = arena.ancestor_with_len(node, len as usize);
                let slot = (arena.vertex(anc), len);
                if ht_dom.get(&slot) == Some(&anc) {
                    if let Some(parked) = ht_sub.get_mut(&slot) {
                        if let Some(Reverse((pc, pn))) = parked.pop() {
                            heap.push(Reverse((pc, pn, len - 1, NO_X, 0)));
                            stats.reconsidered_routes += 1;
                        }
                    }
                    ht_dom.remove(&slot);
                }
            }
            // Complete routes still have siblings here: the last category
            // has multiple members, unlike the dummy {t}.
            if x != NO_X {
                let parent = arena.parent(node).expect("complete route has a parent");
                let pv = arena.vertex(parent);
                if let Some((u, d)) = nn.find_nn(pv, categories[level as usize - 1], x as usize + 1)
                {
                    let child = arena.extend(parent, u);
                    heap.push(Reverse((cost - last_leg + d, child, level, x + 1, d)));
                }
            }
            continue;
        }
        let tail = arena.vertex(node);
        let slot = (tail, level + 1);
        match ht_dom.entry(slot) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(node);
                if let Some((u, d)) = nn.find_nn(tail, categories[level as usize], 1) {
                    let child = arena.extend(node, u);
                    heap.push(Reverse((cost + d, child, level + 1, 1, d)));
                }
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                ht_sub.entry(slot).or_default().push(Reverse((cost, node)));
                stats.dominated_routes += 1;
            }
        }
        if level > 0 && x != NO_X {
            let parent = arena.parent(node).expect("level > 0 implies a parent");
            let pv = arena.vertex(parent);
            if let Some((u, d)) = nn.find_nn(pv, categories[level as usize - 1], x as usize + 1) {
                let child = arena.extend(parent, u);
                heap.push(Reverse((cost - last_leg + d, child, level, x + 1, d)));
            }
        }
    }
    stats.nn_queries = nn.queries() - nn_base;
    stats.heap_peak = heap.peak;
    stats.time.total = t0.elapsed();
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::figure1;
    use crate::pruning::pruning_kosr;
    use kosr_hoplabel::HubOrder;
    use kosr_index::{CategoryIndexSet, LabelNn, LabelTarget};

    #[test]
    fn filtered_nn_respects_predicate() {
        let fx = figure1();
        let labels = kosr_hoplabel::build(&fx.graph, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, fx.graph.categories());
        // Only restaurant e is "Italian".
        let e = fx.e;
        let mut nn = FilteredNn::new(LabelNn::new(&labels, &inverted), move |_, v| v == e);
        assert_eq!(nn.find_nn(fx.a, fx.re, 1), Some((fx.e, 6)));
        assert_eq!(nn.find_nn(fx.a, fx.re, 2), None);
        // Unfiltered category unaffected.
        let mut nn2 = FilteredNn::new(LabelNn::new(&labels, &inverted), |_, _| true);
        assert_eq!(nn2.find_nn(fx.a, fx.re, 1), Some((fx.b, 5)));
    }

    #[test]
    fn preference_query_on_figure1() {
        // "The restaurant must be e": top route becomes ⟨s,a,e,d,t⟩ (21).
        let fx = figure1();
        let labels = kosr_hoplabel::build(&fx.graph, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, fx.graph.categories());
        let q = crate::types::Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 2);
        let (re, e) = (fx.re, fx.e);
        let nn = FilteredNn::new(LabelNn::new(&labels, &inverted), move |c, v| {
            c != re || v == e
        });
        // Second best with the restaurant pinned to e: ⟨s,a,e,f,t⟩ =
        // 8 + 6 + 10 + 3 = 27.
        let out = pruning_kosr(&q, nn, LabelTarget::new(&labels, fx.t));
        assert_eq!(out.costs(), vec![21, 27]);
        assert_eq!(
            out.witnesses[0].vertices,
            vec![fx.s, fx.a, fx.e, fx.d, fx.t]
        );
    }

    #[test]
    fn no_source_starts_anywhere_in_first_category() {
        let fx = figure1();
        let labels = kosr_hoplabel::build(&fx.graph, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, fx.graph.categories());
        // Route ⟨ma?, re?, ci?, t⟩ with free mall choice: best is
        // ⟨c, b, d, t⟩ = 5 + 3 + 4 = 12? vs ⟨a, b, d, t⟩ = 5+3+4 = 12 (tie!)
        let members = fx.graph.categories().vertices_of(fx.ma).to_vec();
        let out = no_source_kosr(
            &members,
            &[fx.re, fx.ci],
            fx.t,
            3,
            LabelNn::new(&labels, &inverted),
            LabelTarget::new(&labels, fx.t),
        );
        assert_eq!(out.witnesses.len(), 3);
        assert_eq!(out.witnesses[0].cost, 12);
        assert_eq!(out.witnesses[1].cost, 12);
        // Third best: ⟨a, e, d, t⟩ = 6 + 3 + 4 = 13.
        assert_eq!(out.witnesses[2].cost, 13);
        // Witnesses have no source prefix: 4 vertices.
        assert_eq!(out.witnesses[0].vertices.len(), 4);
    }

    #[test]
    fn no_destination_stops_at_last_category() {
        let fx = figure1();
        let labels = kosr_hoplabel::build(&fx.graph, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, fx.graph.categories());
        let out = no_destination_kosr(
            fx.s,
            &[fx.ma, fx.re, fx.ci],
            3,
            LabelNn::new(&labels, &inverted),
        );
        // Best: ⟨s,a,b,d⟩ = 8+5+3 = 16; then ⟨s,a,e,d⟩ = 8+6+3 = 17;
        // then ⟨s,c,b,d⟩ = 10+5+3 = 18.
        assert_eq!(out.costs(), vec![16, 17, 18]);
        assert_eq!(out.witnesses[0].vertices, vec![fx.s, fx.a, fx.b, fx.d]);
    }
}
