//! Inter-category lower-bound tables — the "transfer" precomputation,
//! built on demand.
//!
//! For every ordered category pair `(cᵢ, cⱼ)` the table stores
//!
//! ```text
//! LB[cᵢ][cⱼ] = min { dis(a, b) : a ∈ cᵢ, b ∈ cⱼ }
//! ```
//!
//! computed from the exact 2-hop labels via per-category **virtual label
//! sets**: `lin_min[c]` keeps, per hub, the minimum `Lin` distance over all
//! members of `c`, and `lout_min[c]` the minimum `Lout` distance. A
//! merge-join of `lout_min[cᵢ]` with `lin_min[cⱼ]` is then exactly the
//! min-over-member-pairs distance (labels are exact, so every member pair's
//! shortest path is witnessed by some shared hub). The same virtual sets
//! joined against a concrete query vertex's labels give the source-side
//! (`dis(s → c)`) and target-side (`dis(c → t)`) rows for free.
//!
//! Query time assembles the table rows into a [`SeqBounds`] suffix array:
//! `rem[l]` is an admissible *and consistent* lower bound on the remaining
//! cost of any partial route that has covered the first `l` categories.
//! Admissible because each leg is bounded below by the corresponding table
//! entry; consistent because extending a route by one leg of true cost `d`
//! satisfies `d + rem[l+1] ≥ LB + rem[l+1] ≥ rem[l]`, so `cost + rem[level]`
//! is monotone along generation and best-first order on it still completes
//! routes in true cost order — pruned runs stay bit-identical to unpruned.
//!
//! **Built on demand.** The tables are a library feature — the searches
//! that take [`SeqBounds`] read them (PruningKOSR and KPNE order their
//! queues by them); served StarKOSR decides feasibility from its exact
//! root potential instead. So an index carries them as [`BoundTables`]:
//! built on first use from the index version it belongs to, and dropped
//! (never patched) by every update that changes that version. A table,
//! once built, is therefore exact for its version, which is the strongest
//! form of admissible.

use std::sync::{Arc, OnceLock};

use kosr_graph::{inf_add, is_finite, CategoryId, CategoryTable, VertexId, Weight};
use kosr_hoplabel::batch::{min_join, min_union};
use kosr_hoplabel::{HopLabels, LabelSet};

/// Below this many total memberships the build runs single-threaded — the
/// per-category unions are too small to amortise thread spawn.
const PARALLEL_BUILD_MEMBERSHIPS: usize = 1 << 13;

fn map_parallel<T: Send>(n: usize, parallel: bool, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = if parallel {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1))
    } else {
        1
    };
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
                s.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("bounds build worker panicked"));
        }
    });
    out
}

/// The category-pair lower-bound table plus the per-category virtual
/// label sets it is derived from (kept so source/target-side bounds don't
/// re-touch member labels).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CategoryBounds {
    lin_min: Vec<LabelSet>,
    lout_min: Vec<LabelSet>,
    /// Row-major `ncats × ncats`: `table[i * ncats + j] = LB[cᵢ][cⱼ]`.
    table: Vec<Weight>,
}

impl CategoryBounds {
    /// Computes the full table from exact labels and the category roster.
    /// Parallelises the per-category unions and the row fills when the
    /// membership volume is worth it.
    pub fn build(labels: &HopLabels, categories: &CategoryTable) -> Self {
        let n = categories.num_categories();
        let parallel = categories.num_memberships() >= PARALLEL_BUILD_MEMBERSHIPS;
        let (lin_min, lout_min): (Vec<LabelSet>, Vec<LabelSet>) = map_parallel(n, parallel, |c| {
            let members = categories.vertices_of(CategoryId(c as u32));
            (
                min_union(members.iter().map(|&v| labels.lin(v))),
                min_union(members.iter().map(|&v| labels.lout(v))),
            )
        })
        .into_iter()
        .unzip();
        let table = map_parallel(n, parallel, |i| {
            lin_min
                .iter()
                .map(|lin| min_join(&lout_min[i], lin))
                .collect::<Vec<Weight>>()
        })
        .into_iter()
        .flatten()
        .collect();
        Self {
            lin_min,
            lout_min,
            table,
        }
    }

    /// Number of categories the table covers.
    pub fn num_categories(&self) -> usize {
        self.lin_min.len()
    }

    /// `LB[cᵢ][cⱼ]` — exact min distance from any member of `ci` to any
    /// member of `cj`.
    pub fn pair(&self, ci: CategoryId, cj: CategoryId) -> Weight {
        self.table[ci.0 as usize * self.num_categories() + cj.0 as usize]
    }

    /// Exact `min { dis(v, m) : m ∈ c }` — the source-side row.
    pub fn to_category(&self, labels: &HopLabels, v: VertexId, c: CategoryId) -> Weight {
        min_join(labels.lout(v), &self.lin_min[c.0 as usize])
    }

    /// Exact `min { dis(m, v) : m ∈ c }` — the target-side row.
    pub fn from_category(&self, labels: &HopLabels, c: CategoryId, v: VertexId) -> Weight {
        min_join(&self.lout_min[c.0 as usize], labels.lin(v))
    }

    /// Assembles the remaining-sequence suffix array for one query. See
    /// [`SeqBounds`] for the `rem[]` semantics.
    pub fn seq_bounds(
        &self,
        labels: &HopLabels,
        source: VertexId,
        target: VertexId,
        cats: &[CategoryId],
    ) -> SeqBounds {
        let Some((&first, _)) = cats.split_first() else {
            return SeqBounds {
                rem: vec![labels.distance(source, target), 0],
            };
        };
        let m = cats.len();
        let mut rem = vec![0; m + 2];
        rem[m] = self.from_category(labels, cats[m - 1], target);
        for l in (1..m).rev() {
            rem[l] = inf_add(self.pair(cats[l - 1], cats[l]), rem[l + 1]);
        }
        rem[0] = inf_add(self.to_category(labels, source, first), rem[1]);
        SeqBounds { rem }
    }

    /// Approximate heap footprint.
    pub fn size_bytes(&self) -> usize {
        self.lin_min
            .iter()
            .chain(self.lout_min.iter())
            .map(|set| set.size_bytes())
            .sum::<usize>()
            + self.table.len() * std::mem::size_of::<Weight>()
    }
}

/// The [`CategoryBounds`] of one index version, built on first use.
///
/// Clones share the cell: whichever clone asks first builds the table for
/// all of them, which is sound because a clone is the same version. An
/// update that changes the version replaces its index's cell with an
/// empty one ([`BoundTables::default`]) instead of patching the table, so
/// a clone taken before the update keeps the tables it had.
#[derive(Debug, Clone, Default)]
pub struct BoundTables(Arc<OnceLock<CategoryBounds>>);

impl BoundTables {
    /// The tables for `labels` and `categories`, built on the first call.
    /// Every call on one cell must pass the same index version.
    pub fn get(&self, labels: &HopLabels, categories: &CategoryTable) -> &CategoryBounds {
        self.0
            .get_or_init(|| CategoryBounds::build(labels, categories))
    }

    /// Heap footprint of the built tables; 0 until they are built.
    pub fn size_bytes(&self) -> usize {
        self.0.get().map_or(0, CategoryBounds::size_bytes)
    }
}

/// Remaining-sequence lower bounds for one query: `rem[l]` bounds the cost
/// still to pay by any partial route whose tail sits at *level* `l` (source
/// is level 0; a route that has covered all `m` categories is at level `m`;
/// `rem[m + 1] = 0` for completed routes). Admissible and consistent — see
/// the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqBounds {
    rem: Vec<Weight>,
}

impl SeqBounds {
    /// Lower bound on the remaining cost from a level-`level` node.
    pub fn remaining(&self, level: u16) -> Weight {
        self.rem[level as usize]
    }

    /// Whole-query lower bound (`rem[0]`): infinite means no feasible route
    /// exists at all and the search can return empty without expanding.
    pub fn root(&self) -> Weight {
        self.rem[0]
    }

    /// True when even the best imaginable completion is unreachable.
    pub fn infeasible(&self) -> bool {
        !is_finite(self.rem[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_graph::{GraphBuilder, INFINITY};
    use kosr_hoplabel::HubOrder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn c(i: u32) -> CategoryId {
        CategoryId(i)
    }

    /// Small directed line + shortcut world with two categories.
    fn world() -> (kosr_graph::Graph, HopLabels) {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(v(i), v(i + 1), 2);
        }
        b.add_edge(v(0), v(4), 5);
        let mut g = b.build();
        g.categories_mut().ensure_categories(2);
        g.categories_mut().insert(v(1), c(0));
        g.categories_mut().insert(v(4), c(0));
        g.categories_mut().insert(v(2), c(1));
        g.categories_mut().insert(v(5), c(1));
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        (g, labels)
    }

    fn brute_pair(
        labels: &HopLabels,
        g: &kosr_graph::Graph,
        ci: CategoryId,
        cj: CategoryId,
    ) -> Weight {
        let mut best = INFINITY;
        for a in g.categories().vertices_of(ci) {
            for b in g.categories().vertices_of(cj) {
                best = best.min(labels.distance(*a, *b));
            }
        }
        best
    }

    #[test]
    fn table_matches_min_over_member_pairs() {
        let (g, labels) = world();
        let bounds = CategoryBounds::build(&labels, g.categories());
        assert_eq!(bounds.num_categories(), 2);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(bounds.pair(c(i), c(j)), brute_pair(&labels, &g, c(i), c(j)));
            }
        }
        // Source/target-side rows.
        assert_eq!(bounds.to_category(&labels, v(0), c(0)), 2); // 0→1
        assert_eq!(bounds.from_category(&labels, c(1), v(5)), 0); // 5 ∈ c1
        assert_eq!(bounds.from_category(&labels, c(0), v(0)), INFINITY); // no edge back
    }

    #[test]
    fn seq_bounds_are_admissible_and_terminate_at_zero() {
        let (g, labels) = world();
        let bounds = CategoryBounds::build(&labels, g.categories());
        let sb = bounds.seq_bounds(&labels, v(0), v(5), &[c(0), c(1)]);
        // Best actual route 0→1→2→…→5 costs 10; rem[0] must not exceed it.
        assert!(sb.root() <= 10);
        assert!(!sb.infeasible());
        assert_eq!(sb.remaining(3), 0);
        // rem is monotone non-increasing along levels.
        for l in 0..3u16 {
            assert!(sb.remaining(l) >= sb.remaining(l + 1));
        }
        // Empty category list degenerates to the point-to-point distance.
        let empty = bounds.seq_bounds(&labels, v(0), v(5), &[]);
        assert_eq!(empty.root(), labels.distance(v(0), v(5)));
        assert_eq!(empty.remaining(1), 0);
        // Infeasible direction is flagged at the root.
        assert!(bounds.seq_bounds(&labels, v(5), v(0), &[c(0)]).infeasible());
    }

    #[test]
    fn seq_bounds_chain_the_table_rows() {
        let (g, labels) = world();
        let bounds = CategoryBounds::build(&labels, g.categories());
        let cats = [c(0), c(1), c(0)];
        let sb = bounds.seq_bounds(&labels, v(0), v(5), &cats);
        // rem[l] = LB(c_l → c_{l+1}) + rem[l+1], ending in dis(c_m → t)
        // and starting from dis(s → c_1).
        assert_eq!(sb.remaining(4), 0);
        assert_eq!(sb.remaining(3), bounds.from_category(&labels, c(0), v(5)));
        assert_eq!(
            sb.remaining(2),
            inf_add(bounds.pair(c(1), c(0)), sb.remaining(3))
        );
        assert_eq!(
            sb.remaining(1),
            inf_add(bounds.pair(c(0), c(1)), sb.remaining(2))
        );
        assert_eq!(
            sb.root(),
            inf_add(bounds.to_category(&labels, v(0), c(0)), sb.remaining(1))
        );
        // Only rem[0] depends on the source.
        let other = bounds.seq_bounds(&labels, v(2), v(5), &cats);
        for l in 1..=4 {
            assert_eq!(other.remaining(l), sb.remaining(l), "rem[{l}]");
        }
    }
}
