//! Inter-category lower-bound tables — offline "transfer" precomputation.
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
//! **Maintenance invariant** (§IV-C live updates): every stored entry must
//! stay `≤` the true current inter-category distance. Membership inserts
//! *relax* (min-merge the new member's labels in, then recompute the
//! affected row/column — values only decrease). Membership removals and
//! edge insertions can tighten true distances in ways a stored minimum
//! cannot track entry-wise, so the affected rows (or the whole table, for
//! edge updates that repair labels) are **rebuilt** instead. Either way the
//! table is always exact, which is the strongest form of admissible.

use std::sync::Arc;

use kosr_graph::{inf_add, is_finite, CategoryId, CategoryTable, VertexId, Weight};
use kosr_hoplabel::batch::{min_join, min_merge_into, min_union};
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

/// The offline category-pair lower-bound table plus the per-category
/// virtual label sets it is derived from (kept so source/target-side
/// bounds and incremental maintenance don't re-touch member labels).
///
/// Every category's virtual sets and the pair table sit behind their own
/// `Arc`: `clone()` copies pointers, and maintenance on a shared value
/// re-allocates only the touched category's two sets plus the (`ncats²`
/// words) table. A held clone never changes underfoot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CategoryBounds {
    lin_min: Vec<Arc<LabelSet>>,
    lout_min: Vec<Arc<LabelSet>>,
    /// Row-major `ncats × ncats`: `table[i * ncats + j] = LB[cᵢ][cⱼ]`.
    table: Arc<Vec<Weight>>,
}

impl CategoryBounds {
    /// Computes the full table from exact labels and the category roster.
    /// Parallelises the per-category unions and the row fills when the
    /// membership volume is worth it.
    pub fn build(labels: &HopLabels, categories: &CategoryTable) -> Self {
        let n = categories.num_categories();
        let parallel = categories.num_memberships() >= PARALLEL_BUILD_MEMBERSHIPS;
        let virtuals = map_parallel(n, parallel, |c| {
            let members = categories.vertices_of(CategoryId(c as u32));
            (
                min_union(members.iter().map(|&v| labels.lin(v))),
                min_union(members.iter().map(|&v| labels.lout(v))),
            )
        });
        let mut lin_min = Vec::with_capacity(n);
        let mut lout_min = Vec::with_capacity(n);
        for (lin, lout) in virtuals {
            lin_min.push(Arc::new(lin));
            lout_min.push(Arc::new(lout));
        }
        let table: Vec<Weight> = map_parallel(n, parallel, |i| {
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
            table: Arc::new(table),
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

    /// Relaxes the table after `v` joined category `c`: min-merges the new
    /// member's labels into the virtual sets, then recomputes row and
    /// column `c` (entries can only decrease, so this stays exact).
    pub fn insert_member(&mut self, labels: &HopLabels, v: VertexId, c: CategoryId) {
        let ci = c.0 as usize;
        let lin_changed = min_merge_into(Arc::make_mut(&mut self.lin_min[ci]), labels.lin(v));
        let lout_changed = min_merge_into(Arc::make_mut(&mut self.lout_min[ci]), labels.lout(v));
        if lin_changed || lout_changed {
            self.recompute_row_col(ci);
        }
    }

    /// Rebuilds category `c`'s virtual sets from its *current* roster
    /// (call after the [`CategoryTable`] removal) and recomputes row and
    /// column `c`. Removal can raise true minima, so entry-wise relaxation
    /// is impossible — the row rebuild keeps the table exact.
    pub fn remove_member(&mut self, labels: &HopLabels, categories: &CategoryTable, c: CategoryId) {
        let ci = c.0 as usize;
        let members = categories.vertices_of(c);
        self.lin_min[ci] = Arc::new(min_union(members.iter().map(|&v| labels.lin(v))));
        self.lout_min[ci] = Arc::new(min_union(members.iter().map(|&v| labels.lout(v))));
        self.recompute_row_col(ci);
    }

    fn recompute_row_col(&mut self, ci: usize) {
        let n = self.num_categories();
        let table = Arc::make_mut(&mut self.table);
        for j in 0..n {
            table[ci * n + j] = min_join(&self.lout_min[ci], &self.lin_min[j]);
            table[j * n + ci] = min_join(&self.lout_min[j], &self.lin_min[ci]);
        }
    }

    /// Per-category virtual `Lin` sets, in category order (snapshot
    /// encoding).
    pub fn lin_min_sets(&self) -> impl Iterator<Item = &LabelSet> + Clone {
        self.lin_min.iter().map(|set| &**set)
    }

    /// Per-category virtual `Lout` sets, in category order (snapshot
    /// encoding).
    pub fn lout_min_sets(&self) -> impl Iterator<Item = &LabelSet> + Clone {
        self.lout_min.iter().map(|set| &**set)
    }

    /// The raw row-major table (snapshot encoding).
    pub fn table_slice(&self) -> &[Weight] {
        &self.table
    }

    /// Reassembles a table from decoded parts. `None` when the shapes
    /// disagree (`lin`/`lout` lengths differ, or the table is not `n²`).
    pub fn from_parts(
        lin_min: Vec<LabelSet>,
        lout_min: Vec<LabelSet>,
        table: Vec<Weight>,
    ) -> Option<Self> {
        if lin_min.len() != lout_min.len() || table.len() != lin_min.len() * lin_min.len() {
            return None;
        }
        Some(Self {
            lin_min: lin_min.into_iter().map(Arc::new).collect(),
            lout_min: lout_min.into_iter().map(Arc::new).collect(),
            table: Arc::new(table),
        })
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

    #[test]
    fn maintenance_keeps_table_exact() {
        let (mut g, labels) = world();
        let mut bounds = CategoryBounds::build(&labels, g.categories());
        // Insert: category 1 gains vertex 0 — its row/column tighten.
        g.categories_mut().insert(v(0), c(1));
        bounds.insert_member(&labels, v(0), c(1));
        assert_eq!(
            bounds,
            CategoryBounds::build(&labels, g.categories()),
            "insert relaxation must match a fresh build"
        );
        // Remove: drop vertex 1 from c0 — rebuild path.
        g.categories_mut().remove(v(1), c(0));
        bounds.remove_member(&labels, g.categories(), c(0));
        assert_eq!(
            bounds,
            CategoryBounds::build(&labels, g.categories()),
            "remove rebuild must match a fresh build"
        );
    }

    #[test]
    fn from_parts_rejects_shape_mismatches() {
        let (g, labels) = world();
        let b = CategoryBounds::build(&labels, g.categories());
        let lin: Vec<LabelSet> = b.lin_min_sets().cloned().collect();
        let lout: Vec<LabelSet> = b.lout_min_sets().cloned().collect();
        let ok = CategoryBounds::from_parts(lin.clone(), lout.clone(), b.table_slice().to_vec());
        assert_eq!(ok.as_ref(), Some(&b));
        assert!(CategoryBounds::from_parts(
            lin.clone(),
            lout[..1].to_vec(),
            b.table_slice().to_vec()
        )
        .is_none());
        assert!(CategoryBounds::from_parts(lin, lout, vec![0; 3]).is_none());
    }
}
