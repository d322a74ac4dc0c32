//! **PruningKOSR** (Algorithm 2): KPNE plus the route **dominance**
//! relationship (Definition 6, Lemma 1).
//!
//! Two partial witnesses with the same tail vertex and the same length are
//! comparable: the cheaper one *dominates*, because any completion of the
//! dominated one is also a completion of the dominating one at no less
//! cost. The first route examined at a `(tail, length)` slot claims the
//! per-vertex table `HT≺` and is the only one extended; later arrivals are
//! **parked** in the min-queue `HT≻` (their sibling candidates are still
//! generated, lines 20–22). When a complete route is emitted, each slot
//! along it releases its cheapest parked route back into the global queue
//! with `x = '-'` (no sibling generation — theirs already happened) and
//! frees `HT≺` (lines 8–12).
//!
//! This cuts the examined-route count from the baseline's
//! `Σ_i Π_j |Cj|` product space down to `Σ_i |Ci|·|Ci+1| + (k-1)·Σ |Ci|`
//! (Lemma 3) — the polynomial "ring" search space of Figure 2(b).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use kosr_graph::{inf_add, is_finite, FxHashMap, VertexId, Weight};
use kosr_index::{NearestNeighbors, SeqBounds, TargetDistance};

use crate::arena::{NodeId, RouteArena};
use crate::engine::{neighbor, Clock, StopRule, TimedHeap, TimedNn, TimedTarget, WallClock};
use crate::types::{KosrOutcome, Query, QueryStats, Witness};

/// `x = 0` encodes the paper's `'-'` (no sibling generation on this entry).
const NO_X: u32 = 0;

/// Queue entry: `(key, node, level, x, cost, last_leg)`, min-ordered by
/// `(key, node)`. Without sequence bounds `key == cost`; with bounds it is
/// `cost + rem[level]`. Within a dominance slot all entries share a level,
/// so the bound shifts every key by the same constant and "first arrival is
/// cheapest" keeps holding under the tightened order.
type Entry = Reverse<(Weight, NodeId, u16, u32, Weight, Weight)>;

/// Entry key: real cost, tightened by the remaining-sequence lower bound
/// when one is supplied.
fn key_of(bounds: Option<&SeqBounds>, cost: Weight, level: u16) -> Weight {
    match bounds {
        Some(b) => inf_add(cost, b.remaining(level)),
        None => cost,
    }
}

/// A dominance slot: `(tail vertex, witness length)` — the paper's per-vertex
/// hash-table key `|p|`.
type Slot = (VertexId, u16);

/// Answers `query` with PruningKOSR over the given providers.
pub fn pruning_kosr<N, T>(query: &Query, nn: N, target: T) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    pruning_kosr_bounded(query, nn, target, u64::MAX)
}

/// [`pruning_kosr`] with an examined-routes budget (see `kpne_bounded`).
pub fn pruning_kosr_bounded<N, T>(query: &Query, nn: N, target: T, limit: u64) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    pruning_kosr_opt::<WallClock, _, _>(query, nn, target, limit, None, StopRule::AtK)
}

/// [`pruning_kosr_bounded`] under clock `C` and stop rule `stop` (see
/// `engine`), with optional remaining-sequence lower bounds
/// (see `kpne_opt`): bound-ordered queue, push-time pruning of provably
/// uncompletable candidates, `bounds: None` reproduces the unpruned search
/// exactly.
pub(crate) fn pruning_kosr_opt<C, N, T>(
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
    let nn_base = nn.queries();

    let mut arena = RouteArena::new();
    let mut heap: TimedHeap<Entry, C> = TimedHeap::new();
    let mut stats = QueryStats {
        examined_per_level: vec![0; query.witness_len()],
        ..QueryStats::default()
    };
    let final_level = (query.categories.len() + 1) as u16;

    // HT≺: the dominating (extended) route of each slot.
    let mut ht_dom: FxHashMap<Slot, NodeId> = FxHashMap::default();
    // HT≻: parked dominated routes per slot, cheapest first.
    let mut ht_sub: FxHashMap<Slot, BinaryHeap<Reverse<(Weight, NodeId)>>> = FxHashMap::default();

    if bounds.is_some_and(|b| b.infeasible()) {
        stats.bound_pruned = 1;
        stats.time.total = t0.elapsed();
        stats.time.finalize();
        return KosrOutcome {
            witnesses: Vec::new(),
            stats,
        };
    }

    let root = arena.root(query.source);
    heap.push(Reverse((key_of(bounds, 0, 0), root, 0, 1, 0, 0)));

    let mut witnesses: Vec<Witness> = Vec::with_capacity(query.k);
    while let Some(Reverse((_key, node, level, x, cost, last_leg))) = heap.pop() {
        stats.examined_routes += 1;
        stats.examined_per_level[level as usize] += 1;
        if stats.examined_routes > limit {
            stats.truncated = true;
            break;
        }

        if level == final_level {
            // Lines 6-12: emit and reconsider parked routes along the route.
            if !stop.emit(&mut witnesses, query.k, cost, || arena.materialize(node)) {
                break;
            }
            for len in 2..=(query.categories.len() + 1) as u16 {
                let anc = arena.ancestor_with_len(node, len as usize);
                let slot = (arena.vertex(anc), len);
                if ht_dom.get(&slot) == Some(&anc) {
                    if let Some(parked) = ht_sub.get_mut(&slot) {
                        if let Some(Reverse((pcost, pnode))) = parked.pop() {
                            let key = key_of(bounds, pcost, len - 1);
                            heap.push(Reverse((key, pnode, len - 1, NO_X, pcost, 0)));
                            stats.reconsidered_routes += 1;
                        }
                    }
                    ht_dom.remove(&slot);
                }
            }
            continue;
        }

        let tail = arena.vertex(node);
        let slot = (tail, level + 1); // witness length = level + 1

        // Lines 13-19: extend if first at the slot, park otherwise.
        match ht_dom.entry(slot) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(node);
                if let Some((u, d)) =
                    neighbor(&mut nn, &mut target, query, tail, level as usize + 1, 1)
                {
                    let key = key_of(bounds, cost + d, level + 1);
                    if bounds.is_some() && !is_finite(key) {
                        stats.bound_pruned += 1;
                    } else {
                        let child = arena.extend(node, u);
                        heap.push(Reverse((key, child, level + 1, 1, cost + d, d)));
                    }
                }
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                ht_sub.entry(slot).or_default().push(Reverse((cost, node)));
                stats.dominated_routes += 1;
            }
        }

        // Lines 20-22: sibling candidate (skipped for reconsidered routes).
        if level > 0 && x != NO_X {
            let parent = arena.parent(node).expect("level > 0 implies a parent");
            let pv = arena.vertex(parent);
            if let Some((u, d)) = neighbor(
                &mut nn,
                &mut target,
                query,
                pv,
                level as usize,
                x as usize + 1,
            ) {
                let parent_cost = cost - last_leg;
                let key = key_of(bounds, parent_cost + d, level);
                if bounds.is_some() && !is_finite(key) {
                    stats.bound_pruned += 1;
                } else {
                    let child = arena.extend(parent, u);
                    heap.push(Reverse((key, child, level, x + 1, parent_cost + d, d)));
                }
            }
        }
    }

    stats.nn_queries = nn.queries() - nn_base;
    stats.heap_peak = heap.peak;
    stats.time.nn =
        std::time::Duration::from_nanos(nn.nanos) + std::time::Duration::from_nanos(target.nanos);
    stats.time.queue = std::time::Duration::from_nanos(heap.nanos);
    stats.time.total = t0.elapsed();
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}
