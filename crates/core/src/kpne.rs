//! **KPNE** — the baseline: PNE (progressive neighbor exploration, Algorithm
//! 1 of the paper, originally [32]) extended to top-k by collecting complete
//! routes instead of returning the first one (§III-B).
//!
//! The priority queue holds partially explored witnesses ordered by real
//! cost. Examining `⟨v0, …, vq⟩` (created as the `x`-th-NN extension of its
//! parent) spawns at most two candidates:
//!
//! * **extend** — append `vq`'s *nearest* neighbor in the next category, and
//! * **sibling** — re-extend the parent through its `(x+1)`-th nearest
//!   neighbor in the current category.
//!
//! This lazy enumeration reaches every witness exactly once, so popping in
//! cost order emits the top-k optimal sequenced routes — at the price of
//! examining *every* witness cheaper than the k-th optimum, which is the
//! exponential blow-up PruningKOSR and StarKOSR attack.

use std::cmp::Reverse;
use std::time::Instant;

use kosr_graph::{inf_add, is_finite, Weight};
use kosr_index::{NearestNeighbors, SeqBounds, TargetDistance};

use crate::arena::{NodeId, RouteArena};
use crate::engine::{neighbor, Clock, StopRule, TimedHeap, TimedNn, TimedTarget, WallClock};
use crate::types::{KosrOutcome, Query, QueryStats, Witness};

/// Queue entry: `(key, node, level, x, cost, last_leg)`, min-ordered by
/// `(key, node)` for determinism. Without sequence bounds `key == cost`;
/// with bounds it is `cost + rem[level]` — an admissible, *consistent*
/// estimate, so complete routes still pop in true cost order. `level` is
/// the number of categories visited (0 = source only); `x` records which
/// NN index produced the tail.
type Entry = Reverse<(Weight, NodeId, u16, u32, Weight, Weight)>;

/// Entry key: real cost, tightened by the remaining-sequence lower bound
/// when one is supplied.
fn key_of(bounds: Option<&SeqBounds>, cost: Weight, level: u16) -> Weight {
    match bounds {
        Some(b) => inf_add(cost, b.remaining(level)),
        None => cost,
    }
}

/// Answers `query` with the KPNE baseline over the given providers.
pub fn kpne<N, T>(query: &Query, nn: N, target: T) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    kpne_bounded(query, nn, target, u64::MAX)
}

/// [`kpne`] with an examined-routes budget: the search aborts (with
/// `stats.truncated = true`) once `limit` routes were extracted — the
/// harness's analogue of the paper's 3,600-second INF cutoff.
pub fn kpne_bounded<N, T>(query: &Query, nn: N, target: T, limit: u64) -> KosrOutcome
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    kpne_opt::<WallClock, _, _>(query, nn, target, limit, None, StopRule::AtK)
}

/// [`kpne_bounded`] under clock `C` and stop rule `stop` (see `engine`),
/// with optional remaining-sequence lower bounds: entries are ordered by
/// `cost + rem[level]` instead of bare cost (fewer pops reach the k-th
/// emission) and candidates whose bound proves them uncompletable are
/// dropped at push time (counted in `stats.bound_pruned`). `bounds: None`
/// reproduces the unpruned search exactly.
pub(crate) fn kpne_opt<C, N, T>(
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

    if bounds.is_some_and(|b| b.infeasible()) {
        // The whole-query lower bound is infinite: no feasible route exists,
        // skip the search entirely.
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
            if !stop.emit(&mut witnesses, query.k, cost, || arena.materialize(node)) {
                break;
            }
            continue; // the dummy category has no further siblings
        }

        // Extend through the nearest neighbor of the next category.
        let tail = arena.vertex(node);
        if let Some((u, d)) = neighbor(&mut nn, &mut target, query, tail, level as usize + 1, 1) {
            let key = key_of(bounds, cost + d, level + 1);
            if bounds.is_some() && !is_finite(key) {
                stats.bound_pruned += 1;
            } else {
                let child = arena.extend(node, u);
                heap.push(Reverse((key, child, level + 1, 1, cost + d, d)));
            }
        }

        // Sibling: parent's (x+1)-th nearest neighbor in this category.
        if level > 0 {
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

/// **PNE**: the original optimal-sequenced-route algorithm — KPNE with
/// `k = 1` (§III-B). Returns the optimal witness, if a feasible route
/// exists.
pub fn pne<N, T>(query: &Query, nn: N, target: T) -> (Option<Witness>, QueryStats)
where
    N: NearestNeighbors,
    T: TargetDistance,
{
    let q1 = Query {
        k: 1,
        ..query.clone()
    };
    let mut out = kpne(&q1, nn, target);
    (out.witnesses.pop(), out.stats)
}
