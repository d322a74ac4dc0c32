//! `FindNEN` (Algorithm 4): the x-th **nearest estimated neighbor** — the
//! member `u` of a category with the x-th smallest `dis(v, u) + est(u)`,
//! where `est` is StarKOSR's [`Estimate`] at `u`'s level.
//!
//! StarKOSR extends routes through nearest *estimated* neighbors so that its
//! priority queue can be ordered by admissible total estimates (§IV-B). The
//! stream is produced by pulling plain nearest neighbors (`FindNN`) only
//! while they might still beat the best already-buffered estimate. The
//! pull rule compares a lower bound on every unseen member's estimate with
//! the buffered minimum `me`, and stops pulling once the bound reaches it:
//!
//! ```text
//! pull while  max(dis(v, ln) + floor, at_v) < me
//! ```
//!
//! Unseen members are at least as far as the last pulled neighbor `ln`, and
//! each estimate is at least `floor`, the least estimate in the category, and
//! at least `at_v`, the estimate at `v` itself (the estimate is consistent).
//! Under the paper's `dis(·, t)` both are 0, which is Algorithm 4's
//! `dis(v, ln) < me`. Under exact potentials they are `min over Cᵢ of hᵢ`
//! and `hᵢ₋₁(v)`; the second lets a stream emit its best member as soon as
//! that member attains `v`'s own remainder, without pulling further.
//!
//! Streams are memoised per `(v, key)`: the key is the category under
//! `dis(·, t)`, and the level under potentials, whose remainder differs
//! between two occurrences of one category.
//!
//! Members whose estimate is infinite are skipped: no feasible route can be
//! completed through them (Definition 4), so they can never appear in a
//! top-k answer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kosr_graph::{is_finite, CategoryId, FxHashMap, VertexId, Weight};

use crate::nn::NearestNeighbors;
use crate::potential::{Estimate, ToTarget};
use crate::target::TargetDistance;

/// An emitted estimated neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EstimatedNeighbor {
    /// The member vertex.
    pub vertex: VertexId,
    /// `dis(v, vertex)` — the real cost increment.
    pub dist: Weight,
    /// `dis(v, vertex) + est(vertex)` — the estimate used for ordering.
    pub estimate: Weight,
}

/// The last nearest neighbor pulled but not yet buffered (`ln`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Ln {
    /// `FindNN` has not been consulted yet.
    #[default]
    NotStarted,
    /// A pulled neighbor waiting to enter `ENQ`.
    Pending(VertexId, Weight),
    /// The underlying NN stream is exhausted.
    Exhausted,
}

/// Per-stream state: `ENL`, `ENQ`, `ln`, the NN cursor and the pull floor.
#[derive(Clone, Debug, Default)]
struct NenState {
    /// `ENL`: estimated neighbors already emitted, ascending estimate.
    enl: Vec<EstimatedNeighbor>,
    /// `ENQ`: buffered candidates ordered by estimate.
    enq: BinaryHeap<Reverse<(Weight, VertexId, Weight)>>,
    ln: Ln,
    /// 1-based index of the next `FindNN` to pull.
    next_x: usize,
    /// [`Estimate::floor`] for this stream.
    floor: (Weight, Weight),
}

/// Memoised `FindNEN` streams for one query (one state per `(v, key)`).
#[derive(Debug, Default)]
pub struct NenFinder {
    states: FxHashMap<(VertexId, u32), NenState>,
}

impl NenFinder {
    /// Fresh per-query state.
    pub fn new() -> Self {
        NenFinder::default()
    }

    /// The `x`-th (1-based) nearest estimated neighbor of `v` in `c` under
    /// the paper's estimate `dis(u, t)`, or `None` when fewer than `x`
    /// members can reach both `v` and the target.
    pub fn find_nen<N: NearestNeighbors, T: TargetDistance>(
        &mut self,
        nn: &mut N,
        oracle: &mut T,
        v: VertexId,
        c: CategoryId,
        x: usize,
    ) -> Option<EstimatedNeighbor> {
        self.find_nen_at(nn, &mut ToTarget(oracle), v, 1, c, x)
    }

    /// The `x`-th (1-based) nearest estimated neighbor of `v` among the
    /// members of `c`, which sits at `level` of the sequence, under `est`;
    /// `None` when fewer than `x` members have a finite estimate.
    pub fn find_nen_at<N: NearestNeighbors, E: Estimate>(
        &mut self,
        nn: &mut N,
        est: &mut E,
        v: VertexId,
        level: usize,
        c: CategoryId,
        x: usize,
    ) -> Option<EstimatedNeighbor> {
        debug_assert!(x >= 1, "x is 1-based");
        let state = self
            .states
            .entry((v, E::stream(level, c)))
            .or_insert_with(|| NenState {
                floor: est.floor(level, v),
                ..NenState::default()
            });
        // Lines 4-5: a memoised hit skips the loop.
        while state.enl.len() < x {
            Self::compute_next(state, nn, est, v, level, c)?;
        }
        Some(state.enl[x - 1])
    }

    fn compute_next<N: NearestNeighbors, E: Estimate>(
        state: &mut NenState,
        nn: &mut N,
        est: &mut E,
        v: VertexId,
        level: usize,
        c: CategoryId,
    ) -> Option<EstimatedNeighbor> {
        // Lines 6-9: pull NNs while an unseen member could still beat the
        // buffered minimum estimate.
        let (floor, at_v) = state.floor;
        loop {
            let min_est = state.enq.peek().map(|Reverse((e, _, _))| *e);
            let pull = match (state.ln, min_est) {
                (Ln::Exhausted, _) => false,
                (Ln::NotStarted, _) => true,
                (Ln::Pending(_, _), None) => true,
                (Ln::Pending(_, d), Some(me)) => d.saturating_add(floor).max(at_v) < me,
            };
            if !pull {
                break;
            }
            if let Ln::Pending(m, d) = state.ln {
                let h = est.remaining(level, m);
                if is_finite(h) {
                    state.enq.push(Reverse((d.saturating_add(h), m, d)));
                }
                state.ln = Ln::NotStarted; // consumed; replaced below
            }
            state.next_x += 1;
            state.ln = match nn.find_nn(v, c, state.next_x) {
                Some((m, d)) => Ln::Pending(m, d),
                None => Ln::Exhausted,
            };
        }
        // Lines 10-12: emit the buffered minimum.
        let Reverse((estimate, m, d)) = state.enq.pop()?;
        let out = EstimatedNeighbor {
            vertex: m,
            dist: d,
            estimate,
        };
        state.enl.push(out);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::CategoryIndexSet;
    use crate::nn::LabelNn;
    use crate::target::LabelTarget;
    use kosr_graph::{Graph, GraphBuilder};
    use kosr_hoplabel::{HopLabels, HubOrder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn setup(seed: u64) -> (Graph, HopLabels, CategoryIndexSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 36u32;
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..150 {
            let a = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            if a != c {
                b.add_edge(v(a), v(c), rng.gen_range(1..25));
            }
        }
        let ca = b.categories_mut().add_category("A");
        for i in 0..n {
            if rng.gen_bool(0.35) {
                b.categories_mut().insert(v(i), ca);
            }
        }
        let g = b.build();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, g.categories());
        (g, labels, inverted)
    }

    /// Ground truth: members sorted by (estimate, id), both legs finite.
    fn brute_nen(
        g: &Graph,
        labels: &HopLabels,
        s: VertexId,
        c: CategoryId,
        t: VertexId,
    ) -> Vec<(Weight, Weight)> {
        let mut all: Vec<(Weight, Weight)> = g
            .categories()
            .vertices_of(c)
            .iter()
            .filter_map(|&m| {
                let d = labels.distance(s, m);
                let dt = labels.distance(m, t);
                (kosr_graph::is_finite(d) && kosr_graph::is_finite(dt)).then(|| (d + dt, d))
            })
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn nen_stream_matches_brute_force() {
        for seed in 0..4 {
            let (g, labels, inverted) = setup(seed);
            let cat = CategoryId(0);
            for s in (0..36u32).step_by(5) {
                for t in (1..36u32).step_by(7) {
                    let want = brute_nen(&g, &labels, v(s), cat, v(t));
                    let mut nn = LabelNn::new(&labels, &inverted);
                    let mut oracle = LabelTarget::new(&labels, v(t));
                    let mut finder = NenFinder::new();
                    for (i, &(west, _)) in want.iter().enumerate() {
                        let got = finder
                            .find_nen(&mut nn, &mut oracle, v(s), cat, i + 1)
                            .unwrap_or_else(|| panic!("seed {seed} s {s} t {t} x {}", i + 1));
                        assert_eq!(got.estimate, west, "seed {seed} s {s} t {t} x {}", i + 1);
                        assert_eq!(
                            got.estimate,
                            got.dist + labels.distance(got.vertex, v(t)),
                            "estimate decomposition"
                        );
                    }
                    assert!(
                        finder
                            .find_nen(&mut nn, &mut oracle, v(s), cat, want.len() + 1)
                            .is_none(),
                        "seed {seed} s {s} t {t}: stream must end"
                    );
                }
            }
        }
    }

    #[test]
    fn potential_streams_are_per_level_and_match_brute_force() {
        use crate::potential::{Estimate, LabelPotentials};
        use kosr_graph::INFINITY;
        for seed in 0..4 {
            let (g, labels, inverted) = setup(seed);
            let cat = CategoryId(0);
            let members = g.categories().vertices_of(cat);
            let cats = [cat, cat];
            for t in (1..36u32).step_by(7) {
                // h₂(w) = dis(w, t); h₁(u) = min over w of dis(u, w) + h₂(w).
                let h2 = |w: VertexId| labels.distance(w, v(t));
                let h1 = |u: VertexId| {
                    members
                        .iter()
                        .map(|&w| labels.distance(u, w).saturating_add(h2(w)))
                        .min()
                        .unwrap_or(INFINITY)
                        .min(INFINITY)
                };
                // A source in the category is a tail at level 0 and, having
                // covered C₁ = A, at level 1: both levels stream A from it,
                // under different remainders.
                for &from in members.iter().step_by(3) {
                    let mut est =
                        LabelPotentials::new(&labels, &inverted, g.categories(), v(t), &cats);
                    est.root(from);
                    let mut nn = LabelNn::new(&labels, &inverted);
                    let mut finder = NenFinder::new();
                    for (level, h) in [(1, &h1 as &dyn Fn(VertexId) -> Weight), (2, &h2)] {
                        let mut want: Vec<Weight> = members
                            .iter()
                            .map(|&u| labels.distance(from, u).saturating_add(h(u)))
                            .filter(|&e| kosr_graph::is_finite(e))
                            .collect();
                        want.sort_unstable();
                        let got: Vec<Weight> = (1..)
                            .map_while(|x| {
                                finder.find_nen_at(&mut nn, &mut est, from, level, cat, x)
                            })
                            .map(|e| e.estimate)
                            .collect();
                        assert_eq!(got, want, "seed {seed} s {from:?} t {t} level {level}");
                    }
                }
            }
        }
    }

    #[test]
    fn memoisation_is_stable() {
        let (_, labels, inverted) = setup(9);
        let cat = CategoryId(0);
        let mut nn = LabelNn::new(&labels, &inverted);
        let mut oracle = LabelTarget::new(&labels, v(10));
        let mut finder = NenFinder::new();
        let first = finder.find_nen(&mut nn, &mut oracle, v(0), cat, 1);
        let second = finder.find_nen(&mut nn, &mut oracle, v(0), cat, 1);
        assert_eq!(first, second);
        // Random access works.
        let third = finder.find_nen(&mut nn, &mut oracle, v(0), cat, 3);
        let third_again = finder.find_nen(&mut nn, &mut oracle, v(0), cat, 3);
        assert_eq!(third, third_again);
    }

    #[test]
    fn estimates_are_nondecreasing() {
        let (_, labels, inverted) = setup(2);
        let cat = CategoryId(0);
        let mut nn = LabelNn::new(&labels, &inverted);
        let mut oracle = LabelTarget::new(&labels, v(5));
        let mut finder = NenFinder::new();
        let mut last = 0;
        let mut x = 1;
        while let Some(e) = finder.find_nen(&mut nn, &mut oracle, v(1), cat, x) {
            assert!(e.estimate >= last, "x={x}");
            last = e.estimate;
            x += 1;
        }
    }

    #[test]
    fn members_unable_to_reach_target_are_skipped() {
        // 0 → 1(member) → 2(t), 0 → 3(member, dead end)
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1), 1);
        b.add_edge(v(1), v(2), 1);
        b.add_edge(v(0), v(3), 1);
        let ca = b.categories_mut().add_category("A");
        b.categories_mut().insert(v(1), ca);
        b.categories_mut().insert(v(3), ca);
        let g = b.build();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, g.categories());
        let mut nn = LabelNn::new(&labels, &inverted);
        let mut oracle = LabelTarget::new(&labels, v(2));
        let mut finder = NenFinder::new();
        let first = finder
            .find_nen(&mut nn, &mut oracle, v(0), CategoryId(0), 1)
            .unwrap();
        assert_eq!(first.vertex, v(1));
        assert_eq!(first.estimate, 2);
        assert!(finder
            .find_nen(&mut nn, &mut oracle, v(0), CategoryId(0), 2)
            .is_none());
    }
}
