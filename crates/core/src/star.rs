//! **StarKOSR** (§IV-B): PruningKOSR driven in an A* manner.
//!
//! Every partial witness `p = ⟨s, …, vi⟩` is queued by its *estimated total
//! cost* `w(p) + dis(vi, t)`. Because `dis(vi, t)` is the true shortest-path
//! distance, the estimate never overestimates the cost of any feasible
//! completion (it is **admissible**), so complete routes still pop in true
//! cost order (Lemma 4) — while partial routes that wander away from the
//! destination sink down the queue (the shrinking rings of Figure 2(c)).
//!
//! Extensions come from `FindNEN` (Algorithm 4): the x-th nearest
//! **estimated** neighbor, i.e. ordered by `dis(vi, u) + dis(u, t)` rather
//! than `dis(vi, u)`. Dominance bookkeeping is unchanged — for a fixed tail
//! the estimate differs from the real cost by a constant, so "first arrival
//! is cheapest" still holds under the estimated order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use kosr_graph::{is_finite, FxHashMap, VertexId, Weight};
use kosr_index::{EstimatedNeighbor, NearestNeighbors, NenFinder, SeqBounds, TargetDistance};

use crate::arena::{NodeId, RouteArena};
use crate::engine::{Clock, StopRule, TimedHeap, TimedNn, TimedTarget, WallClock};
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
fn est_neighbor<N: NearestNeighbors, T: TargetDistance>(
    nen: &mut NenFinder,
    nn: &mut N,
    target: &mut T,
    query: &Query,
    v: VertexId,
    pos: usize,
    x: usize,
) -> Option<EstimatedNeighbor> {
    if pos <= query.categories.len() {
        nen.find_nen(nn, target, v, query.categories[pos - 1], x)
    } else if x == 1 {
        let d = target.to_target(v);
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
    star_kosr_opt::<WallClock, _, _>(query, nn, target, limit, None, StopRule::AtK)
}

/// [`star_kosr_bounded`] under clock `C` and stop rule `stop` (see
/// `engine`), with optional remaining-sequence lower bounds (see
/// `kpne_opt`). For StarKOSR the bounds act **only** as the whole-query
/// feasibility gate (`rem[0] = ∞` → return empty without expanding):
/// unlike KPNE/PruningKOSR, the queue key here cannot be tightened with
/// `cost + rem[level]`, because FindNEN's lazy sibling chain is ordered by
/// the *estimate* `dis(v, u) + dis(u, t)` — popping the x-th entry is what
/// generates the (x+1)-th. A key mixing in `cost + rem` is not monotone
/// along that chain (the `dis(v, u)` component can shrink as the estimate
/// grows), so a sibling cheaper than the k-th answer could hide behind a
/// never-popped predecessor and be lost. `bounds: None` and a feasible
/// `bounds` both reproduce the plain StarKOSR search exactly.
pub(crate) fn star_kosr_opt<C, N, T>(
    query: &Query,
    nn: N,
    target: T,
    limit: u64,
    bounds: Option<&SeqBounds>,
    stop: StopRule,
) -> KosrOutcome
where
    C: Clock,
    N: NearestNeighbors,
    T: TargetDistance,
{
    debug_assert_eq!(target.target(), query.target);
    let t0 = Instant::now();
    let mut nn: TimedNn<N, C> = TimedNn::new(nn);
    let mut target: TimedTarget<T, C> = TimedTarget::new(target);
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
    // The root's estimate is dis(s, t); if t is unreachable — or the
    // category-chain bound already proves no feasible completion — the
    // query has no feasible route at all.
    let root_est = target.to_target(query.source);
    if bounds.is_some_and(|b| b.infeasible()) {
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
                    &mut target,
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
                &mut target,
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
    stats.time.estimation = std::time::Duration::from_nanos(target.nanos);
    stats.time.queue = std::time::Duration::from_nanos(heap.nanos);
    stats.time.total = t0.elapsed();
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}
