//! High-level runner: bundles a graph with its indexes and dispatches the
//! seven KOSR methods of the paper's evaluation (§V-A "Methods") by name.

use std::io;
use std::path::Path;
use std::sync::Arc;

use kosr_graph::{CategoryId, Graph, VertexId, Weight};
use kosr_hoplabel::{BuildStats, HopLabels, HubOrder, IncrementalUpdater, LabelSet};
use kosr_index::disk::DiskIndex;
use kosr_index::{
    CategoryBounds, CategoryIndexSet, DijkstraNn, DijkstraTarget, InvertedStats, LabelNn,
    LabelTarget, SeqBounds,
};

use crate::engine::{Clock, StopRule, WallClock};
use crate::kpne::kpne_opt;
use crate::pruning::pruning_kosr_opt;
use crate::star::{star_kosr, star_kosr_opt};
use crate::types::{KosrOutcome, Query};

/// The KOSR methods evaluated in the paper (Figure 3's legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Baseline KPNE with the inverted-label `FindNN`.
    Kpne,
    /// Baseline KPNE with Dijkstra NN searches.
    KpneDij,
    /// PruningKOSR (PK) with `FindNN`.
    Pk,
    /// PruningKOSR with Dijkstra NN searches.
    PkDij,
    /// StarKOSR (SK) with `FindNN` + label estimation.
    Sk,
    /// StarKOSR with Dijkstra NN searches + Dijkstra estimation.
    SkDij,
}

impl Method {
    /// All in-memory methods, in the paper's legend order.
    pub const ALL: [Method; 6] = [
        Method::KpneDij,
        Method::PkDij,
        Method::SkDij,
        Method::Kpne,
        Method::Pk,
        Method::Sk,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Kpne => "KPNE",
            Method::KpneDij => "KPNE-Dij",
            Method::Pk => "PK",
            Method::PkDij => "PK-Dij",
            Method::Sk => "SK",
            Method::SkDij => "SK-Dij",
        }
    }

    /// `true` for the methods that need the label/inverted indexes.
    pub fn needs_index(&self) -> bool {
        matches!(self, Method::Kpne | Method::Pk | Method::Sk)
    }
}

/// A graph bundled with its 2-hop labels and inverted label indexes —
/// everything the in-memory methods need.
///
/// The index is a struct of **independently shared sections**: the CSR
/// slabs, the 2-hop labels, and — per category — the member list, the
/// inverted label index and the bound-table virtual sets each sit behind
/// their own `Arc`. `clone()` therefore copies pointers, and the dynamic
/// updates below copy-on-write only what they touch: a membership flip
/// re-allocates the touched category's sections (the paper's §IV-C
/// `O(|Lin(v)|)` work on one `IL(Ci)`), never the graph, the labels or
/// another category. That is what the serving layer's versioned updates
/// and the shard replica builds rely on: a held clone never changes
/// underfoot, and holding one costs only the sections later updates
/// replace.
#[derive(Clone)]
pub struct IndexedGraph {
    /// The underlying graph.
    pub graph: Graph,
    /// The 2-hop label index (shared; only edge updates replace it).
    pub labels: Arc<HopLabels>,
    /// Per-category inverted label indexes.
    pub inverted: CategoryIndexSet,
    /// Offline inter-category lower-bound tables (exact min member-pair
    /// distances), maintained through every live update.
    pub bounds: CategoryBounds,
    /// Label preprocessing statistics (Table IX, top half).
    pub label_stats: BuildStats,
    /// Inverted-index preprocessing statistics (Table IX, bottom half).
    pub inverted_stats: InvertedStats,
}

impl IndexedGraph {
    /// Builds both indexes with the given hub order.
    pub fn build(graph: Graph, order: &HubOrder) -> IndexedGraph {
        let (labels, label_stats) = kosr_hoplabel::build_with_stats(&graph, order);
        let (inverted, inverted_stats) =
            CategoryIndexSet::build_with_stats(&labels, graph.categories());
        let bounds = CategoryBounds::build(&labels, graph.categories());
        IndexedGraph {
            graph,
            labels: Arc::new(labels),
            inverted,
            bounds,
            label_stats,
            inverted_stats,
        }
    }

    /// Builds with the recommended ordering: contraction-hierarchy rank.
    pub fn build_default(graph: Graph) -> IndexedGraph {
        let ch = kosr_ch::build(&graph);
        Self::build(graph, &HubOrder::from_ch(&ch))
    }

    /// Vertex count of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Answers `query` with `method`. Providers are constructed fresh per
    /// call, matching the paper's independent-query measurement protocol.
    pub fn run(&self, query: &Query, method: Method) -> KosrOutcome {
        self.run_bounded(query, method, u64::MAX)
    }

    /// [`Self::run`] with an examined-routes budget: the search aborts (with
    /// `stats.truncated = true`) once `limit` routes have been extracted.
    /// This is the admission-control knob serving layers use to keep one
    /// pathological query from monopolising a worker.
    pub fn run_bounded(&self, query: &Query, method: Method, limit: u64) -> KosrOutcome {
        self.run_bounded_opt(query, method, limit, None)
    }

    /// Assembles the remaining-sequence lower bounds for `query` from the
    /// offline category-pair table: `rem[l]` bounds the cost still to pay
    /// by any partial route that has covered `l` categories. Pass the
    /// result to [`Self::run_bounded_opt`] / [`Self::run_canonical_opt`];
    /// the bounds are `k`-independent, so one assembly serves any `k`
    /// (and, upstream, the witness cache).
    pub fn seq_bounds(&self, query: &Query) -> SeqBounds {
        self.bounds
            .seq_bounds(&self.labels, query.source, query.target, &query.categories)
    }

    /// [`Self::run_bounded`] with optional precomputed sequence bounds:
    /// the search orders its queue by `cost + rem[level]` and drops
    /// provably uncompletable candidates (`stats.bound_pruned`). Results
    /// are bit-identical under canonical semantics — the bounds are
    /// admissible and consistent — only the work to reach them shrinks.
    pub fn run_bounded_opt(
        &self,
        query: &Query,
        method: Method,
        limit: u64,
        bounds: Option<&SeqBounds>,
    ) -> KosrOutcome {
        self.search::<WallClock>(query, method, limit, bounds, StopRule::AtK)
    }

    /// Dispatches `method` under clock `C` and stop rule `stop`.
    fn search<C: Clock>(
        &self,
        query: &Query,
        method: Method,
        limit: u64,
        bounds: Option<&SeqBounds>,
        stop: StopRule,
    ) -> KosrOutcome {
        let label_nn = || LabelNn::new(&self.labels, &self.inverted);
        let label_target = || LabelTarget::new(&self.labels, query.target);
        let dij_nn = || DijkstraNn::new(&self.graph);
        let dij_target = || DijkstraTarget::new(&self.graph, query.target);
        match method {
            Method::Kpne => {
                kpne_opt::<C, _, _>(query, label_nn(), label_target(), limit, bounds, stop)
            }
            Method::Pk => {
                pruning_kosr_opt::<C, _, _>(query, label_nn(), label_target(), limit, bounds, stop)
            }
            Method::Sk => {
                star_kosr_opt::<C, _, _>(query, label_nn(), label_target(), limit, bounds, stop)
            }
            Method::KpneDij => {
                kpne_opt::<C, _, _>(query, dij_nn(), dij_target(), limit, bounds, stop)
            }
            Method::PkDij => {
                pruning_kosr_opt::<C, _, _>(query, dij_nn(), dij_target(), limit, bounds, stop)
            }
            Method::SkDij => {
                star_kosr_opt::<C, _, _>(query, dij_nn(), dij_target(), limit, bounds, stop)
            }
        }
    }

    /// [`Self::run_bounded`] with **canonical** top-k semantics: the
    /// returned witnesses follow [`crate::Witness::canonical_cmp`]
    /// (nondecreasing cost, ties broken lexicographically on the vertex
    /// tuple) and the selection at the k-th cost boundary is closed over
    /// the whole tie group — independent of method-internal heap order.
    ///
    /// Canonical results give the serving layer two properties raw runs
    /// lack:
    ///
    /// * **prefix stability** — `run_canonical(k')` is exactly the first
    ///   `k'` entries of `run_canonical(k)` for `k' ≤ k`, so a cached
    ///   `k`-result can serve any smaller request by truncation;
    /// * **merge stability** — the canonical top-k of a disjoint union of
    ///   route subspaces equals the bounded-heap merge of the per-subspace
    ///   canonical top-k streams, which is what makes sharded execution
    ///   bit-identical to unsharded.
    ///
    /// Implementation: one search that keeps emitting complete routes
    /// while they tie the k-th cost and stops at the first that costs
    /// more. Complete routes pop in nondecreasing cost order (Lemma 4),
    /// so by then the whole tie group has been emitted; the result is
    /// sorted canonically and truncated to `k`. Without ties the extra
    /// work over a plain top-k search is reaching the (k+1)-th complete
    /// route, which ends the search unemitted. The examined-routes budget
    /// bounds that one search, and the returned stats count all of it.
    ///
    /// If the budget trips, the (partial, truncated) outcome is returned
    /// for the caller's admission control to surface.
    ///
    /// This entry is profiled ([`WallClock`]): its stats carry Table X's
    /// time decomposition. Serving calls
    /// [`Self::run_canonical_clocked`] with [`crate::NoClock`] instead.
    pub fn run_canonical(&self, query: &Query, method: Method, limit: u64) -> KosrOutcome {
        self.run_canonical_opt(query, method, limit, None)
    }

    /// [`Self::run_canonical`] with optional precomputed sequence bounds
    /// (see [`Self::run_bounded_opt`]). Because the bounds are admissible
    /// and consistent, the canonical output is bit-identical with or
    /// without them.
    pub fn run_canonical_opt(
        &self,
        query: &Query,
        method: Method,
        limit: u64,
        bounds: Option<&SeqBounds>,
    ) -> KosrOutcome {
        self.run_canonical_clocked::<WallClock>(query, method, limit, bounds)
    }

    /// [`Self::run_canonical_opt`] under clock `C`. With
    /// [`crate::NoClock`] (the serving path) the search reads no clock
    /// per operation: `stats.time.total` is filled and its three
    /// components stay zero. Witnesses and every counter are the same
    /// under either clock.
    pub fn run_canonical_clocked<C: Clock>(
        &self,
        query: &Query,
        method: Method,
        limit: u64,
        bounds: Option<&SeqBounds>,
    ) -> KosrOutcome {
        if query.k == 0 {
            // Nothing requested; with no k-th cost to close on, the search
            // would otherwise enumerate every route.
            return KosrOutcome::default();
        }
        let mut out = self.search::<C>(query, method, limit, bounds, StopRule::CloseTies);
        out.witnesses.sort_by(|a, b| a.canonical_cmp(b));
        out.witnesses.truncate(query.k);
        out
    }

    /// Adds `v` to category `c` (the paper's dynamic *category insert*,
    /// §IV-C), keeping the category table and the inverted label index in
    /// sync. Returns `true` if the membership was newly created.
    ///
    /// # Panics
    /// Panics if `v` or `c` is out of range — callers (the service's
    /// `apply_update`) validate first.
    pub fn insert_membership(&mut self, v: VertexId, c: CategoryId) -> bool {
        let changed =
            self.inverted
                .insert_membership(&self.labels, self.graph.categories_mut(), v, c);
        if changed {
            // Inserts only lower true inter-category distances: relax the
            // bound table in place (row/column `c` recomputed exactly).
            self.bounds.insert_member(&self.labels, v, c);
        }
        changed
    }

    /// Removes `v` from category `c` (the paper's dynamic *category
    /// remove*, §IV-C). Returns `true` if the membership existed.
    ///
    /// # Panics
    /// Panics if `v` or `c` is out of range.
    pub fn remove_membership(&mut self, v: VertexId, c: CategoryId) -> bool {
        let changed =
            self.inverted
                .remove_membership(&self.labels, self.graph.categories_mut(), v, c);
        if changed {
            // Removal can *raise* true minima, which a stored minimum
            // cannot track entry-wise — rebuild the affected row/column
            // from the surviving members to stay exact (and admissible).
            self.bounds
                .remove_member(&self.labels, self.graph.categories(), c);
        }
        changed
    }

    /// Inserts edge `(a, b, w)` — or decreases an existing edge's weight
    /// to `w` — and incrementally repairs every index (the paper's *graph
    /// structure update*, §IV-C):
    ///
    /// 1. the CSR is rebuilt through [`Graph::to_builder`] (CSR storage is
    ///    immutable),
    /// 2. the 2-hop labels are repaired in place by
    ///    [`IncrementalUpdater::insert_edge`] (resumed pruned Dijkstras —
    ///    no full rebuild),
    /// 3. the inverted label indexes are rebuilt from the repaired labels
    ///    **only if** any label entry actually changed.
    ///
    /// Returns the number of label entries added. Weight *increases* are
    /// rejected — decremental label maintenance is an open problem (§IV-C
    /// defers to \[3\]); rebuild the index instead.
    pub fn insert_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> Result<usize, GraphUpdateError> {
        let n = self.graph.num_vertices();
        if a.index() >= n {
            return Err(GraphUpdateError::VertexOutOfRange(a));
        }
        if b.index() >= n {
            return Err(GraphUpdateError::VertexOutOfRange(b));
        }
        if a == b {
            return Err(GraphUpdateError::SelfLoop);
        }
        if let Some(current) = self.graph.edge_weight(a, b) {
            if current <= w {
                return Err(GraphUpdateError::WeightNotDecreased { current });
            }
        }
        let mut builder = self.graph.to_builder();
        builder.add_edge(a, b, w);
        self.graph = builder.build();
        let mut updater = IncrementalUpdater::new(n);
        let added = updater.insert_edge(&self.graph, Arc::make_mut(&mut self.labels), a, b, w);
        if added > 0 {
            // Inverted lists mirror members' Lin labels; repair by rebuild
            // (grouping existing label entries — no graph searches). The
            // bound tables are derived from the same labels, so rebuild
            // them from the repaired labels in the same stroke.
            self.inverted = CategoryIndexSet::build(&self.labels, self.graph.categories());
            self.bounds = CategoryBounds::build(&self.labels, self.graph.categories());
        }
        Ok(added)
    }

    /// Writes the SK-DB on-disk index for this graph.
    pub fn write_disk_index(&self, path: &Path) -> io::Result<()> {
        kosr_index::disk::create(path, &self.labels, self.graph.categories())
    }

    /// Serializes the full index into one flat-arena snapshot blob
    /// ([`kosr_index::arena`]) — what the shard transport ships to a cold
    /// replica joining a shard. The blob carries the inverted label
    /// indexes and the bound tables too, so installing it is a
    /// bounds-checked reinterpretation with no rebuild of any kind.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        kosr_index::arena::encode(&self.graph, &self.labels, &self.inverted, &self.bounds)
    }

    /// Reconstructs an `IndexedGraph` from a snapshot blob: every
    /// structure — graph CSR, labels, category tables, inverted indexes,
    /// bound tables — is sliced straight out of the validated arenas, so
    /// query results and member counts are preserved exactly. The
    /// label build statistics cannot be recovered from a blob; the decoded
    /// index reports its label-entry count with zeroed build effort.
    pub fn decode_snapshot(
        bytes: &[u8],
    ) -> Result<IndexedGraph, kosr_index::snapshot::SnapshotError> {
        let start = std::time::Instant::now();
        let (graph, labels, inverted, bounds) = kosr_index::arena::decode(bytes)?;
        // The accepted header already carries the fleet-wide list and
        // entry totals; reading them back beats re-walking the
        // per-category hash maps the decode just built.
        let (total_lists, total_entries) =
            kosr_index::arena::blob_inverted_counts(bytes).unwrap_or((0, 0));
        let nc = inverted.num_categories().max(1);
        let inverted_stats = kosr_index::InvertedStats {
            build_time: start.elapsed(),
            avg_entries_per_category: total_entries as f64 / nc as f64,
            avg_list_len: if total_lists == 0 {
                0.0
            } else {
                total_entries as f64 / total_lists as f64
            },
            size_bytes: total_entries as usize
                * (std::mem::size_of::<kosr_graph::VertexId>()
                    + std::mem::size_of::<kosr_graph::Weight>()),
        };
        let label_stats = BuildStats {
            labels_added: labels.num_entries(),
            ..Default::default()
        };
        Ok(IndexedGraph {
            graph,
            labels: Arc::new(labels),
            inverted,
            bounds,
            label_stats,
            inverted_stats,
        })
    }
}

/// Why [`IndexedGraph::insert_edge`] refused a structural update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphUpdateError {
    /// An endpoint exceeds the graph's vertex count.
    VertexOutOfRange(VertexId),
    /// Self-loops never lie on a shortest path and are not stored.
    SelfLoop,
    /// The edge already exists with weight ≤ the requested one; weight
    /// increases need a rebuild (decremental maintenance unsupported).
    WeightNotDecreased {
        /// The current (smaller or equal) weight of the edge.
        current: Weight,
    },
}

impl std::fmt::Display for GraphUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphUpdateError::VertexOutOfRange(v) => write!(f, "vertex {v:?} out of range"),
            GraphUpdateError::SelfLoop => write!(f, "self-loops are not stored"),
            GraphUpdateError::WeightNotDecreased { current } => write!(
                f,
                "edge already present with weight {current}; increases need a rebuild"
            ),
        }
    }
}

impl std::error::Error for GraphUpdateError {}

/// Answers `query` with **SK-DB**: StarKOSR over label indexes resident on
/// disk (§IV-C). Per the paper, each query pays `|C| + 4` seeks to load the
/// category segments it needs plus `Lout(s)`/`Lin(t)`, and that load +
/// initialization time is part of the measured query time.
pub fn run_sk_db(disk: &DiskIndex, query: &Query) -> io::Result<KosrOutcome> {
    let t0 = std::time::Instant::now();
    let n = disk.num_vertices();

    // Assemble a query-local mini index holding exactly the loaded parts.
    let mut labels = HopLabels::empty(n);
    *labels.lout_mut(query.source) = disk.load_lout(query.source)?;
    *labels.lin_mut(query.target) = disk.load_lin(query.target)?;
    // The paper also locates the source's and destination's own categories
    // (2 more seeks); loading Lin(s)/Lout(t) keeps self-distances exact.
    *labels.lin_mut(query.source) = disk.load_lin(query.source)?;
    *labels.lout_mut(query.target) = disk.load_lout(query.target)?;

    let mut distinct: Vec<CategoryId> = query.categories.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let max_cat = distinct.iter().map(|c| c.index() + 1).max().unwrap_or(0);
    let mut indexes: Vec<kosr_index::InvertedLabelIndex> = Vec::new();
    indexes.resize_with(max_cat, Default::default);
    for &c in &distinct {
        let segment = disk.load_category(c)?;
        for (v, lout) in segment.louts {
            let slot: &mut LabelSet = labels.lout_mut(v);
            if slot.is_empty() {
                *slot = lout;
            }
        }
        indexes[c.index()] = segment.inverted;
    }
    let inverted = CategoryIndexSet::from_indexes(indexes);

    let mut out = star_kosr(
        query,
        LabelNn::new(&labels, &inverted),
        LabelTarget::new(&labels, query.target),
    );
    // Fold the load time into the reported total (the paper's SK-DB cost).
    out.stats.time.total = t0.elapsed();
    out.stats.time.finalize();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::figure1;
    use kosr_graph::Weight;

    #[test]
    fn all_methods_agree_on_figure1() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let expect: Vec<Weight> = vec![20, 21, 22];
        for m in Method::ALL {
            let out = ig.run(&q, m);
            assert_eq!(out.costs(), expect, "method {}", m.name());
        }
    }

    #[test]
    fn sk_db_agrees_and_counts_seeks() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let dir = std::env::temp_dir().join(format!("kosr_skdb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.idx");
        ig.write_disk_index(&path).unwrap();

        let disk = DiskIndex::open(&path).unwrap();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let out = run_sk_db(&disk, &q).unwrap();
        assert_eq!(out.costs(), vec![20, 21, 22]);
        // |C| + 4 seeks, exactly as §IV-C promises.
        assert_eq!(disk.seek_count(), (q.categories.len() + 4) as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::Sk.name(), "SK");
        assert!(Method::Sk.needs_index());
        assert!(!Method::SkDij.needs_index());
        assert_eq!(Method::ALL.len(), 6);
    }

    /// A world full of cost ties: a 2×`width` bipartite ladder of
    /// unit-weight legs where every `A → B` route costs exactly 3, so the
    /// top-k selection is pure tie-breaking.
    fn tie_world(width: u32) -> (IndexedGraph, Query) {
        let mut b = kosr_graph::GraphBuilder::new(2 + 2 * width as usize);
        let s = kosr_graph::VertexId(0);
        let t = kosr_graph::VertexId(1);
        let ca = b.categories_mut().add_category("A");
        let cb = b.categories_mut().add_category("B");
        for i in 0..width {
            let a = kosr_graph::VertexId(2 + i);
            let bb = kosr_graph::VertexId(2 + width + i);
            b.add_edge(s, a, 1);
            b.categories_mut().insert(a, ca);
            b.categories_mut().insert(bb, cb);
            for j in 0..width {
                b.add_edge(a, kosr_graph::VertexId(2 + width + j), 1);
            }
            b.add_edge(bb, t, 1);
        }
        let g = b.build();
        let ig = IndexedGraph::build_default(g);
        (ig, Query::new(s, t, vec![ca, cb], 0))
    }

    #[test]
    fn canonical_topk_is_method_independent_and_prefix_stable() {
        let (ig, base) = tie_world(4); // 16 routes, all cost 3
        let mut q = base.clone();
        q.k = 6;
        let reference = ig.run_canonical(&q, Method::Sk, u64::MAX);
        assert_eq!(reference.witnesses.len(), 6);
        assert!(reference.costs().iter().all(|&c| c == 3));
        // Canonical order within the tie group is lexicographic.
        for w in reference.witnesses.windows(2) {
            assert!(w[0].canonical_cmp(&w[1]).is_lt());
        }
        // Every method agrees bit-for-bit under canonical semantics.
        for m in Method::ALL {
            let out = ig.run_canonical(&q, m, u64::MAX);
            assert_eq!(
                out.witnesses,
                reference.witnesses,
                "method {} diverged",
                m.name()
            );
        }
        // Prefix stability: top-k' is a prefix of top-k.
        for k in 1..=6 {
            let mut qs = base.clone();
            qs.k = k;
            let small = ig.run_canonical(&qs, Method::Sk, u64::MAX);
            assert_eq!(small.witnesses[..], reference.witnesses[..k]);
        }
    }

    #[test]
    fn bound_pruned_runs_match_unpruned_canonical() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let sb = ig.seq_bounds(&q);
        assert!(!sb.infeasible());
        for m in Method::ALL {
            let base = ig.run_canonical(&q, m, u64::MAX);
            let opt = ig.run_canonical_opt(&q, m, u64::MAX, Some(&sb));
            assert_eq!(opt.witnesses, base.witnesses, "method {}", m.name());
            assert!(
                opt.stats.examined_routes <= base.stats.examined_routes,
                "bounds must never increase work ({})",
                m.name()
            );
        }
        // Same through the tie world, where ordering mistakes would show.
        let (ig, base_q) = tie_world(4);
        let mut q = base_q;
        q.k = 6;
        let sb = ig.seq_bounds(&q);
        for m in Method::ALL {
            assert_eq!(
                ig.run_canonical_opt(&q, m, u64::MAX, Some(&sb)).witnesses,
                ig.run_canonical(&q, m, u64::MAX).witnesses,
                "method {} diverged under bounds",
                m.name()
            );
        }
        // An infeasible chain is refused at the root without expanding.
        let rev = Query::new(q.target, q.source, q.categories.clone(), 2);
        let sb = ig.seq_bounds(&rev);
        assert!(sb.infeasible());
        let out = ig.run_bounded_opt(&rev, Method::Kpne, u64::MAX, Some(&sb));
        assert!(out.witnesses.is_empty());
        assert_eq!(out.stats.examined_routes, 0);
        assert_eq!(out.stats.bound_pruned, 1);
        assert_eq!(
            ig.run_canonical(&rev, Method::Kpne, u64::MAX).witnesses,
            out.witnesses
        );
    }

    #[test]
    fn canonical_k_zero_returns_empty() {
        let (ig, mut q) = tie_world(2);
        q.k = 0;
        let out = ig.run_canonical(&q, Method::Sk, u64::MAX);
        assert!(out.witnesses.is_empty());
    }

    #[test]
    fn canonical_exhausts_when_fewer_routes_than_k() {
        let (ig, base) = tie_world(2); // 4 routes total
        let mut q = base;
        q.k = 50;
        let out = ig.run_canonical(&q, Method::Pk, u64::MAX);
        assert_eq!(out.witnesses.len(), 4);
        for w in out.witnesses.windows(2) {
            assert!(w[0].canonical_cmp(&w[1]).is_lt());
        }
    }

    #[test]
    fn canonical_propagates_budget_truncation() {
        let (ig, base) = tie_world(4);
        let mut q = base;
        q.k = 6;
        let out = ig.run_canonical(&q, Method::Sk, 1);
        assert!(out.stats.truncated);
        assert!(out.witnesses.len() <= 6);
    }

    /// The two fixtures the served/profiled and budget tests run on, each
    /// at k = 6.
    fn k6_worlds() -> Vec<(IndexedGraph, Query)> {
        let fx = figure1();
        let fig = IndexedGraph::build_default(fx.graph.clone());
        let fig_q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 6);
        let (tie, mut tie_q) = tie_world(4);
        tie_q.k = 6;
        vec![(fig, fig_q), (tie, tie_q)]
    }

    #[test]
    fn served_and_profiled_runs_differ_only_in_the_time_breakdown() {
        for (ig, q) in k6_worlds() {
            for m in Method::ALL {
                let served = ig.run_canonical_clocked::<crate::NoClock>(&q, m, u64::MAX, None);
                let profiled = ig.run_canonical(&q, m, u64::MAX);
                assert_eq!(served.witnesses, profiled.witnesses, "{}", m.name());
                let (s, p) = (&served.stats, &profiled.stats);
                let counters = |st: &crate::QueryStats| {
                    (
                        st.examined_routes,
                        st.nn_queries,
                        st.dominated_routes,
                        st.reconsidered_routes,
                        st.heap_peak,
                        st.examined_per_level.clone(),
                    )
                };
                assert_eq!(counters(s), counters(p), "{}", m.name());
                assert!(s.time.nn.is_zero(), "{}", m.name());
                assert!(s.time.queue.is_zero(), "{}", m.name());
                assert!(s.time.estimation.is_zero(), "{}", m.name());
                assert!(
                    p.time.nn + p.time.queue + p.time.estimation <= p.time.total,
                    "{}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn the_budget_bounds_the_one_canonical_search() {
        for (ig, q) in k6_worlds() {
            for m in Method::ALL {
                let served = |limit| ig.run_canonical_clocked::<crate::NoClock>(&q, m, limit, None);
                let full = served(u64::MAX);
                let e = full.stats.examined_routes;
                let at_e = served(e);
                assert!(!at_e.stats.truncated, "{}", m.name());
                assert_eq!(at_e.witnesses, full.witnesses, "{}", m.name());
                assert!(served(e - 1).stats.truncated, "{}", m.name());
            }
        }
    }

    #[test]
    fn membership_updates_change_answers_in_place() {
        let fx = figure1();
        let mut ig = IndexedGraph::build_default(fx.graph.clone());
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        assert_eq!(
            ig.run_canonical(&q, Method::Sk, u64::MAX).costs(),
            vec![20, 21, 22]
        );

        // Make the destination itself a restaurant: routes can satisfy RE
        // at t... (t is after CI in the sequence, so answers only change if
        // t helps as an intermediate stop). Use a targeted check instead:
        // remove a restaurant used by the best routes and verify against a
        // from-scratch rebuild of the mutated world.
        let re_members: Vec<VertexId> = fx.graph.categories().vertices_of(fx.re).to_vec();
        let gone = re_members[0];
        assert!(ig.remove_membership(gone, fx.re));
        assert!(
            !ig.remove_membership(gone, fx.re),
            "second remove is a no-op"
        );

        let mut g2 = fx.graph.clone();
        g2.categories_mut().remove(gone, fx.re);
        let fresh = IndexedGraph::build_default(g2);
        for m in [Method::Kpne, Method::Pk, Method::Sk] {
            assert_eq!(
                ig.run_canonical(&q, m, u64::MAX).witnesses,
                fresh.run_canonical(&q, m, u64::MAX).witnesses,
                "incrementally updated index diverged from rebuild ({})",
                m.name()
            );
        }

        // And back: reinsert restores the original answers.
        assert!(ig.insert_membership(gone, fx.re));
        assert!(!ig.insert_membership(gone, fx.re));
        assert_eq!(
            ig.run_canonical(&q, Method::Sk, u64::MAX).costs(),
            vec![20, 21, 22]
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_answers_and_indexes() {
        let fx = figure1();
        let mut ig = IndexedGraph::build_default(fx.graph.clone());
        // Mutate first so the snapshot captures *maintained* state, not
        // just freshly built state.
        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        assert!(ig.remove_membership(gone, fx.re));

        let blob = ig.encode_snapshot();
        let back = IndexedGraph::decode_snapshot(&blob).unwrap();

        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        for m in Method::ALL {
            assert_eq!(
                back.run_canonical(&q, m, u64::MAX).witnesses,
                ig.run_canonical(&q, m, u64::MAX).witnesses,
                "snapshot replica diverged ({})",
                m.name()
            );
        }
        // Inverted indexes are reproduced exactly.
        for c in 0..ig.graph.categories().num_categories() {
            let c = CategoryId(c as u32);
            assert_eq!(back.inverted.members_of(c), ig.inverted.members_of(c));
            assert_eq!(
                back.inverted.category(c).num_entries(),
                ig.inverted.category(c).num_entries()
            );
        }
        assert_eq!(back.label_stats.labels_added, ig.labels.num_entries());

        // Damaged blobs surface typed errors instead of panicking.
        assert!(IndexedGraph::decode_snapshot(&blob[..blob.len() / 2]).is_err());
        assert!(IndexedGraph::decode_snapshot(&[]).is_err());
    }

    #[test]
    fn edge_insert_repairs_labels_and_inverted_index() {
        let fx = figure1();
        let mut ig = IndexedGraph::build_default(fx.graph.clone());
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);

        // A new expressway from s straight to the first mall slashes costs.
        let ma_members: Vec<VertexId> = fx.graph.categories().vertices_of(fx.ma).to_vec();
        let mall = ma_members[0];
        let added = ig.insert_edge(fx.s, mall, 1).expect("valid update");
        assert!(added > 0);

        let mut b2 = fx.graph.to_builder();
        b2.add_edge(fx.s, mall, 1);
        let fresh = IndexedGraph::build_default(b2.build());
        for m in [Method::Kpne, Method::Pk, Method::Sk] {
            assert_eq!(
                ig.run_canonical(&q, m, u64::MAX).witnesses,
                fresh.run_canonical(&q, m, u64::MAX).witnesses,
                "post-edge-insert index diverged from rebuild ({})",
                m.name()
            );
        }

        // Typed rejections.
        assert_eq!(
            ig.insert_edge(fx.s, fx.s, 1),
            Err(GraphUpdateError::SelfLoop)
        );
        assert_eq!(
            ig.insert_edge(fx.s, mall, 5),
            Err(GraphUpdateError::WeightNotDecreased { current: 1 })
        );
        assert!(matches!(
            ig.insert_edge(fx.s, VertexId(99), 1),
            Err(GraphUpdateError::VertexOutOfRange(_))
        ));
        assert!(GraphUpdateError::SelfLoop.to_string().contains("loop"));
    }
}
