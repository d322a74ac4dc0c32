//! Shared plumbing for the search algorithms: the stop rule that ends a
//! search, wrappers around the neighbor provider, the target oracle, the
//! StarKOSR estimate and the global priority queue that feed Table X's
//! run-time decomposition, plus the *dummy destination category* logic —
//! the paper introduces `C_{|C|+1} = {t}` so that reaching the destination
//! is one more category extension.
//!
//! The wrappers read a [`Clock`] chosen by type parameter. Profiled runs
//! (the paper-semantics entry points, `repro`'s Table X) use [`WallClock`]
//! and read the time around every provider call and heap operation. Served
//! runs use [`NoClock`], which compiles those reads out: they fill
//! `time.total` only, from one clock-read pair per search, and leave the
//! three components zero. Counters and peak-heap tracking are kept either
//! way.

use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::time::Instant;

use kosr_graph::{is_finite, CategoryId, VertexId, Weight};
use kosr_index::{Estimate, NearestNeighbors, TargetDistance};

use crate::types::{Query, Witness};

/// The stopwatch a search reads around each provider call and heap
/// operation.
pub trait Clock {
    /// Runs `f`, adding its wall time in nanoseconds to `acc`.
    fn time<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R;
}

/// Reads the wall clock around every timed operation (Table X's
/// decomposition).
#[derive(Debug)]
pub struct WallClock;

impl Clock for WallClock {
    #[inline]
    fn time<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *acc += t0.elapsed().as_nanos() as u64;
        r
    }
}

/// Reads no clock: the decomposition's components stay zero.
#[derive(Debug)]
pub struct NoClock;

impl Clock for NoClock {
    #[inline(always)]
    fn time<R>(_acc: &mut u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// When a search stops emitting complete routes. Complete routes pop in
/// nondecreasing cost order (Lemma 4), so either rule ends a search whose
/// emitted prefix is a correct top-k.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopRule {
    /// Stop at the k-th complete route: the paper's top-k.
    AtK,
    /// Keep emitting while complete routes tie the k-th cost; stop at the
    /// first that costs more, without emitting it. The emitted routes then
    /// hold the whole tie group at the k-th cost, which is what canonical
    /// top-k selects from.
    CloseTies,
}

impl StopRule {
    /// Offers a popped complete route of cost `cost` to `witnesses`.
    /// Returns `false` once the search is over: under `AtK` after the k-th
    /// emission, under `CloseTies` at a route that costs more than the
    /// k-th (not emitted).
    pub(crate) fn emit(
        self,
        witnesses: &mut Vec<Witness>,
        k: usize,
        cost: Weight,
        vertices: impl FnOnce() -> Vec<VertexId>,
    ) -> bool {
        if self == StopRule::CloseTies {
            let kth = k.checked_sub(1).and_then(|i| witnesses.get(i));
            if kth.is_some_and(|w| cost > w.cost) {
                return false;
            }
        }
        witnesses.push(Witness {
            vertices: vertices(),
            cost,
        });
        self == StopRule::CloseTies || witnesses.len() != k
    }
}

/// NN provider wrapper accumulating time and exposing the inner counters.
pub(crate) struct TimedNn<N, C> {
    inner: N,
    pub nanos: u64,
    clock: PhantomData<C>,
}

impl<N: NearestNeighbors, C: Clock> TimedNn<N, C> {
    pub fn new(inner: N) -> Self {
        TimedNn {
            inner,
            nanos: 0,
            clock: PhantomData,
        }
    }

    pub fn queries(&self) -> u64 {
        self.inner.nn_queries()
    }
}

impl<N: NearestNeighbors, C: Clock> NearestNeighbors for TimedNn<N, C> {
    fn find_nn(&mut self, v: VertexId, c: CategoryId, x: usize) -> Option<(VertexId, Weight)> {
        C::time(&mut self.nanos, || self.inner.find_nn(v, c, x))
    }

    fn nn_queries(&self) -> u64 {
        self.inner.nn_queries()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}

/// Target-oracle wrapper accumulating time.
pub(crate) struct TimedTarget<T, C> {
    inner: T,
    pub nanos: u64,
    clock: PhantomData<C>,
}

impl<T: TargetDistance, C: Clock> TimedTarget<T, C> {
    pub fn new(inner: T) -> Self {
        TimedTarget {
            inner,
            nanos: 0,
            clock: PhantomData,
        }
    }
}

impl<T: TargetDistance, C: Clock> TargetDistance for TimedTarget<T, C> {
    fn to_target(&mut self, v: VertexId) -> Weight {
        C::time(&mut self.nanos, || self.inner.to_target(v))
    }

    fn target(&self) -> VertexId {
        self.inner.target()
    }
}

/// Estimate wrapper accumulating time (StarKOSR's estimation, including
/// the potentials' backward pass, which runs inside [`Estimate::root`]).
pub(crate) struct TimedEstimate<E, C> {
    inner: E,
    pub nanos: u64,
    clock: PhantomData<C>,
}

impl<E: Estimate, C: Clock> TimedEstimate<E, C> {
    pub fn new(inner: E) -> Self {
        TimedEstimate {
            inner,
            nanos: 0,
            clock: PhantomData,
        }
    }
}

impl<E: Estimate, C: Clock> Estimate for TimedEstimate<E, C> {
    const EXACT: bool = E::EXACT;

    fn root(&mut self, s: VertexId) -> Weight {
        C::time(&mut self.nanos, || self.inner.root(s))
    }

    fn remaining(&mut self, level: usize, v: VertexId) -> Weight {
        C::time(&mut self.nanos, || self.inner.remaining(level, v))
    }

    fn stream(level: usize, c: CategoryId) -> u32 {
        E::stream(level, c)
    }

    fn floor(&mut self, level: usize, v: VertexId) -> (Weight, Weight) {
        self.inner.floor(level, v)
    }
}

/// The x-th nearest neighbor of `v` at witness position `pos`
/// (1-based: positions `1..=|C|` are the query categories, position
/// `|C| + 1` is the dummy destination category `{t}`).
pub(crate) fn neighbor<N: NearestNeighbors, T: TargetDistance>(
    nn: &mut N,
    target: &mut T,
    query: &Query,
    v: VertexId,
    pos: usize,
    x: usize,
) -> Option<(VertexId, Weight)> {
    if pos <= query.categories.len() {
        nn.find_nn(v, query.categories[pos - 1], x)
    } else if x == 1 {
        let d = target.to_target(v);
        is_finite(d).then_some((query.target, d))
    } else {
        None // the dummy category has exactly one member
    }
}

/// Min-heap with wall-clock accounting and peak-size tracking.
pub(crate) struct TimedHeap<T: Ord, C> {
    heap: BinaryHeap<T>,
    pub nanos: u64,
    pub peak: usize,
    clock: PhantomData<C>,
}

impl<T: Ord, C: Clock> TimedHeap<T, C> {
    pub fn new() -> Self {
        TimedHeap {
            heap: BinaryHeap::new(),
            nanos: 0,
            peak: 0,
            clock: PhantomData,
        }
    }

    pub fn push(&mut self, item: T) {
        C::time(&mut self.nanos, || self.heap.push(item));
        self.peak = self.peak.max(self.heap.len());
    }

    pub fn pop(&mut self) -> Option<T> {
        C::time(&mut self.nanos, || self.heap.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn heap_orders_and_tracks_peak<C: Clock>() -> TimedHeap<Reverse<u32>, C> {
        let mut h: TimedHeap<Reverse<u32>, C> = TimedHeap::new();
        h.push(Reverse(5));
        h.push(Reverse(1));
        h.push(Reverse(3));
        assert_eq!(h.peak, 3);
        assert_eq!(h.pop(), Some(Reverse(1)));
        assert_eq!(h.pop(), Some(Reverse(3)));
        h.push(Reverse(9));
        assert_eq!(h.peak, 3, "peak is a high-water mark");
        assert_eq!(h.pop(), Some(Reverse(5)));
        assert_eq!(h.pop(), Some(Reverse(9)));
        assert_eq!(h.pop(), None);
        h
    }

    #[test]
    fn timed_heap_orders_and_tracks_peak() {
        heap_orders_and_tracks_peak::<WallClock>();
        let h = heap_orders_and_tracks_peak::<NoClock>();
        assert_eq!(h.nanos, 0, "NoClock reads no clock");
    }

    #[test]
    fn stop_rules_end_at_k_or_past_the_tie_group() {
        let emit_all = |rule: StopRule, k: usize, costs: &[Weight]| {
            let mut out = Vec::new();
            for &c in costs {
                if !rule.emit(&mut out, k, c, Vec::new) {
                    break;
                }
            }
            out.iter().map(|w| w.cost).collect::<Vec<_>>()
        };
        let costs = [1, 2, 2, 2, 3, 4];
        assert_eq!(emit_all(StopRule::AtK, 2, &costs), vec![1, 2]);
        assert_eq!(emit_all(StopRule::CloseTies, 2, &costs), vec![1, 2, 2, 2]);
        assert_eq!(
            emit_all(StopRule::CloseTies, 5, &costs),
            vec![1, 2, 2, 2, 3]
        );
        // Fewer routes than k: both rules emit everything.
        assert_eq!(emit_all(StopRule::CloseTies, 9, &costs), costs.to_vec());
    }
}
