//! StarKOSR's **estimate**: what a partial route still has to pay, added to
//! its cost to key the queue (§IV-B). Two estimates implement [`Estimate`]:
//!
//! * [`ToTarget`] — the paper's `dis(v, t)`. It ignores every category still
//!   to visit, so it is admissible but loose.
//! * [`LabelPotentials`] — the exact remainder `hᵢ(v)`: the cheapest
//!   completion from `v` through `Cᵢ₊₁ … Cⱼ` to `t`. It is the GSP dynamic
//!   program (Rice & Tsotras) run backward from `t`, one level at a time,
//!   over the 2-hop labels:
//!
//!   ```text
//!   hⱼ(u)     = dis(u, t)                          u ∈ Cⱼ   (one Lin(t) table)
//!   bestᵢ₊₁(h) = min { d′ + hᵢ₊₁(w) : (w, d′) ∈ IL_{Cᵢ₊₁}(h) }
//!   hᵢ(u)     = min { d + bestᵢ₊₁(h) : (h, d) ∈ Lout(u) }   u ∈ Cᵢ, and u = s at level 0
//!   ```
//!
//!   Labels are exact, so `hᵢ(u) = min_w dis(u, w) + hᵢ₊₁(w)` exactly. The
//!   pass costs one scan of `Cᵢ`'s `Lout` sets and one of `Cᵢ₊₁`'s inverted
//!   lists per level. Each list is sorted by `d′` and every `hᵢ₊₁(w)` is at
//!   least the level's least remainder, so a list's scan stops as soon as
//!   `d′` plus that floor cannot improve `bestᵢ₊₁(h)`.
//!
//!   The kept tables are keyed by **level**, not category: a category may
//!   repeat in the sequence with a different remainder each time. Each
//!   holds one weight per member of its level's category, so their size
//!   follows the query's members, not the graph. The pass itself needs two
//!   `|V|`-long scratch arrays (`best` by hub, and the level being scanned by
//!   vertex), dropped when it ends.
//!
//! Both estimates are **consistent**: for a tail `v` at level `i − 1` and a
//! member `u` of `Cᵢ`, `est(i − 1, v) ≤ dis(v, u) + est(i, u)` (for
//! potentials because `hᵢ₋₁(v)` is the minimum of the right-hand side over
//! `u`; for `dis(·, t)` by the triangle inequality). That is what keeps
//! FindNEN's sibling chain monotone and StarKOSR's Lemma 4 true.

use kosr_graph::{is_finite, CategoryId, CategoryTable, VertexId, Weight, INFINITY};
use kosr_hoplabel::HopLabels;

use crate::inverted::CategoryIndexSet;
use crate::target::TargetDistance;

/// An estimate of the cost still to pay from the tail of a partial route.
/// A route's *level* is the number of categories it has covered: the
/// source is level 0, a route ending in `Cᵢ` is at level `i`.
pub trait Estimate {
    /// `true` when the estimate is the exact cheapest completion: then the
    /// root estimate is infinite exactly when no feasible route exists, and
    /// the first complete route a search pops costs exactly the root.
    const EXACT: bool;

    /// The estimate at the source `s` (level 0). A search calls it once,
    /// before anything else; [`LabelPotentials`] runs its pass here.
    fn root(&mut self, s: VertexId) -> Weight;

    /// The estimate at `v`, the tail of a route at `level` (`1..=|C|`).
    fn remaining(&mut self, level: usize, v: VertexId) -> Weight;

    /// FindNEN's memo key for the stream of level `level`, whose members
    /// are category `c`. Streams may be shared between levels only when the
    /// estimate does not depend on the level.
    fn stream(level: usize, c: CategoryId) -> u32;

    /// Two lower bounds on the estimate of every member `u` in the stream
    /// of `level` from `v`, the tail of a route at `level − 1`, for
    /// FindNEN's pull rule: `(floor, at_v)` where
    /// `dis(v, u) + remaining(level, u) ≥ max(dis(v, u) + floor, at_v)`.
    fn floor(&mut self, level: usize, v: VertexId) -> (Weight, Weight);
}

/// The paper's estimate, `dis(v, t)` at every level.
pub struct ToTarget<T>(pub T);

impl<T: TargetDistance> Estimate for ToTarget<T> {
    const EXACT: bool = false;

    fn root(&mut self, s: VertexId) -> Weight {
        self.0.to_target(s)
    }

    fn remaining(&mut self, _level: usize, v: VertexId) -> Weight {
        self.0.to_target(v)
    }

    /// One stream per `(v, c)`: the estimate ignores the level.
    fn stream(_level: usize, c: CategoryId) -> u32 {
        c.0
    }

    /// No floor: FindNEN pulls while `dis(v, ln)` is below the best
    /// buffered estimate, as in Algorithm 4.
    fn floor(&mut self, _level: usize, _v: VertexId) -> (Weight, Weight) {
        (0, 0)
    }
}

/// Exact label potentials `hᵢ` for one query (see the module docs).
pub struct LabelPotentials<'a> {
    labels: &'a HopLabels,
    inverted: &'a CategoryIndexSet,
    categories: &'a CategoryTable,
    target: VertexId,
    cats: &'a [CategoryId],
    /// Set by `root`.
    source: Option<VertexId>,
    /// `levels[i - 1]`: `hᵢ` of each member of `Cᵢ`, in the category's
    /// (ascending) member order. Filled by `root`.
    levels: Vec<Vec<Weight>>,
    /// `floors[i]`: the least `hᵢ` (∞ when no member has a completion);
    /// `floors[0]` is `h₀(s)`.
    floors: Vec<Weight>,
}

impl<'a> LabelPotentials<'a> {
    /// Prepares potentials toward `target` through `cats`; the pass runs on
    /// the first [`Estimate::root`] call.
    pub fn new(
        labels: &'a HopLabels,
        inverted: &'a CategoryIndexSet,
        categories: &'a CategoryTable,
        target: VertexId,
        cats: &'a [CategoryId],
    ) -> Self {
        LabelPotentials {
            labels,
            inverted,
            categories,
            target,
            cats,
            source: None,
            levels: Vec::new(),
            floors: Vec::new(),
        }
    }

    /// `hᵢ(v)`: ∞ for a vertex with no feasible completion, or not at
    /// level `level`. Valid after [`Estimate::root`].
    pub fn get(&self, level: usize, v: VertexId) -> Weight {
        if level == 0 {
            return if Some(v) == self.source {
                self.floors[0]
            } else {
                INFINITY
            };
        }
        let members = self.categories.vertices_of(self.cats[level - 1]);
        members
            .binary_search(&v)
            .map_or(INFINITY, |i| self.levels[level - 1][i])
    }

    /// The backward pass from `t`: fills the tables from level `|C|` down
    /// to `h₀(s)`.
    fn pass(&mut self, s: VertexId) {
        let j = self.cats.len();
        let labels = self.labels;
        let n = labels.num_vertices();
        // best[h]: the least d(h, w) + hᵢ(w) over the members w of the
        // level above the one being filled (`hubs` lists the entries set).
        // Above level j sits the destination alone, reached through Lin(t).
        let mut best = vec![INFINITY; n];
        let mut hubs: Vec<VertexId> = Vec::new();
        for (hub, d) in labels.lin(self.target).iter() {
            best[hub.index()] = d;
            hubs.push(hub);
        }
        // hv[w]: hᵢ(w) for the members of the level being filled.
        let mut hv = vec![INFINITY; n];
        let through_best = |best: &[Weight], u: VertexId| {
            labels
                .lout(u)
                .iter()
                .map(|(hub, d)| d + best[hub.index()])
                .min()
                .map_or(INFINITY, |h| h.min(INFINITY))
        };
        self.levels = Vec::with_capacity(j);
        self.floors = vec![INFINITY; j + 1];
        for i in (1..=j).rev() {
            let members = self.categories.vertices_of(self.cats[i - 1]);
            let h: Vec<Weight> = members.iter().map(|&u| through_best(&best, u)).collect();
            let floor = h.iter().copied().min().unwrap_or(INFINITY);
            for (&w, &hw) in members.iter().zip(&h) {
                hv[w.index()] = hw;
            }
            for hub in hubs.drain(..) {
                best[hub.index()] = INFINITY;
            }
            for (hub, list) in self.inverted.category(self.cats[i - 1]).iter_lists() {
                let mut b = INFINITY;
                for &(w, d) in list {
                    if d + floor >= b {
                        break;
                    }
                    b = b.min(d + hv[w.index()]);
                }
                if is_finite(b) {
                    best[hub.index()] = b;
                    hubs.push(hub);
                }
            }
            for &w in members {
                hv[w.index()] = INFINITY;
            }
            self.floors[i] = floor;
            self.levels.push(h);
        }
        self.levels.reverse();
        self.floors[0] = through_best(&best, s);
    }
}

impl Estimate for LabelPotentials<'_> {
    const EXACT: bool = true;

    fn root(&mut self, s: VertexId) -> Weight {
        self.source = Some(s);
        self.pass(s);
        self.floors[0]
    }

    fn remaining(&mut self, level: usize, v: VertexId) -> Weight {
        self.get(level, v)
    }

    /// One stream per `(v, level)`: a repeated category has a different
    /// remainder at each of its levels.
    fn stream(level: usize, _c: CategoryId) -> u32 {
        level as u32
    }

    /// `(min over Cᵢ of hᵢ, hᵢ₋₁(v))`: every member `u` of `Cᵢ` has
    /// `hᵢ(u) ≥ floor`, and `dis(v, u) + hᵢ(u) ≥ hᵢ₋₁(v)` by consistency.
    fn floor(&mut self, level: usize, v: VertexId) -> (Weight, Weight) {
        (self.floors[level], self.get(level - 1, v))
    }
}
