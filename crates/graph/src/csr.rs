//! Compressed-sparse-row storage of the directed weighted graph
//! `G(V, E, F, W)` (Definition 1), with both forward and backward adjacency
//! so that reverse searches (backward pruned Dijkstra, bidirectional search)
//! are as cheap as forward ones.

use std::sync::Arc;

use crate::categories::CategoryTable;
use crate::{CategoryId, VertexId, Weight};

/// An immutable directed weighted graph with vertex categories.
///
/// Construction goes through [`GraphBuilder`]; the finished graph stores
/// adjacency in CSR form (offset array + target/weight arrays). The slabs
/// are immutable and shared: `clone()` copies six pointers (plus the
/// copy-on-write [`CategoryTable`]), which is what lets every replica of
/// every shard — and every index version a live update produces — serve
/// from one copy of the adjacency.
#[derive(Clone, Debug)]
pub struct Graph {
    out_offsets: Arc<[u32]>,
    out_targets: Arc<[VertexId]>,
    out_weights: Arc<[Weight]>,
    in_offsets: Arc<[u32]>,
    in_sources: Arc<[VertexId]>,
    in_weights: Arc<[Weight]>,
    categories: CategoryTable,
}

impl Graph {
    /// Reconstructs a graph straight from a forward-CSR triplet — the
    /// snapshot install path, which validates offset-addressed arenas and
    /// reinterprets them instead of re-sorting an edge list through
    /// [`GraphBuilder`]. The builder's invariants are *checked*, not
    /// re-established: offsets must be a monotone prefix-sum array ending
    /// at the edge count, every adjacency row must hold strictly
    /// increasing in-range targets, and self-loops are refused. The
    /// backward CSR is derived in one counting-sort pass (linear in
    /// `n + m`), and `categories` must cover exactly `n` vertices.
    pub fn try_from_csr(
        num_vertices: usize,
        out_offsets: Vec<u32>,
        out_targets: Vec<VertexId>,
        out_weights: Vec<Weight>,
        categories: CategoryTable,
    ) -> Result<Graph, &'static str> {
        let n = num_vertices;
        let m = out_targets.len();
        if n > u32::MAX as usize {
            return Err("vertex ids are u32");
        }
        if out_offsets.len() != n + 1 {
            return Err("offset array must have n + 1 entries");
        }
        if out_weights.len() != m || m > u32::MAX as usize {
            return Err("target and weight arrays must cover every edge");
        }
        if out_offsets[0] != 0 || out_offsets[n] as usize != m {
            return Err("offsets must run from 0 to the edge count");
        }
        if categories.num_vertices() != n {
            return Err("category table must cover every vertex");
        }
        for u in 0..n {
            let (lo, hi) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
            if hi < lo || hi > m {
                return Err("offsets must be monotone");
            }
            let mut prev: Option<VertexId> = None;
            for &t in &out_targets[lo..hi] {
                if t.index() >= n {
                    return Err("edge target out of range");
                }
                if t.index() == u {
                    return Err("self-loops are not stored");
                }
                if prev.is_some_and(|p| p >= t) {
                    return Err("adjacency row not strictly increasing");
                }
                prev = Some(t);
            }
        }

        // Backward CSR by counting sort; iterating sources in order keeps
        // each backward row sorted by source, same as the builder.
        let mut in_offsets = vec![0u32; n + 1];
        for &t in &out_targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_sources = vec![VertexId(0); m];
        let mut in_weights = vec![0 as Weight; m];
        for u in 0..n {
            let (lo, hi) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
            for e in lo..hi {
                let t = out_targets[e];
                let slot = cursor[t.index()] as usize;
                cursor[t.index()] += 1;
                in_sources[slot] = VertexId(u as u32);
                in_weights[slot] = out_weights[e];
            }
        }
        Ok(Graph {
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            out_weights: out_weights.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            in_weights: in_weights.into(),
            categories,
        })
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterates every vertex id.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Outgoing edges of `v` as `(target, weight)` pairs, sorted by target id.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> EdgeIter<'_> {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        EdgeIter {
            endpoints: &self.out_targets[lo..hi],
            weights: &self.out_weights[lo..hi],
            pos: 0,
        }
    }

    /// Incoming edges of `v` as `(source, weight)` pairs, sorted by source id.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> EdgeIter<'_> {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        EdgeIter {
            endpoints: &self.in_sources[lo..hi],
            weights: &self.in_weights[lo..hi],
            pos: 0,
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    /// Total degree (in + out) of `v`; the default hub-ordering key.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// The weight of edge `(u, v)` if present (minimum over parallel edges,
    /// which the builder already collapsed). Binary search over the sorted
    /// adjacency row.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let lo = self.out_offsets[u.index()] as usize;
        let hi = self.out_offsets[u.index() + 1] as usize;
        let row = &self.out_targets[lo..hi];
        row.binary_search(&v)
            .ok()
            .map(|pos| self.out_weights[lo + pos])
    }

    /// `true` iff the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// `true` when both graphs serve from the same adjacency slabs (one is
    /// a clone of the other) — the structural-sharing probe tests and
    /// memory accounting use. The six slabs are only ever built and cloned
    /// as a set, so one of them speaks for all.
    pub fn shares_csr_with(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.out_targets, &other.out_targets)
    }

    /// The category table (`F` and the `V_{Ci}` sets).
    #[inline]
    pub fn categories(&self) -> &CategoryTable {
        &self.categories
    }

    /// Mutable access to the category table, for the dynamic category
    /// updates of §IV-C (copy-on-write per touched category; see
    /// [`CategoryTable`]). The graph structure itself is immutable.
    #[inline]
    pub fn categories_mut(&mut self) -> &mut CategoryTable {
        &mut self.categories
    }

    /// Replaces the category table (used by workload generators that assign
    /// categories after graph construction).
    pub fn set_categories(&mut self, table: CategoryTable) {
        assert_eq!(
            table.num_vertices(),
            self.num_vertices(),
            "category table must cover every vertex"
        );
        self.categories = table;
    }

    /// A graph with every edge reversed (categories shared by clone).
    /// Mostly a testing aid; algorithms use [`Graph::in_edges`] directly.
    pub fn reversed(&self) -> Graph {
        let mut b = GraphBuilder::new(self.num_vertices());
        for v in self.vertices() {
            for (w, wt) in self.out_edges(v) {
                b.add_edge(w, v, wt);
            }
        }
        let mut g = b.build();
        g.set_categories(self.categories.clone());
        g
    }

    /// Sum of all edge weights; a cheap fingerprint used in tests.
    pub fn total_weight(&self) -> Weight {
        self.out_weights.iter().sum()
    }

    /// Re-opens the graph as a [`GraphBuilder`] holding every edge and the
    /// category table — the escape hatch for structural updates (CSR is
    /// immutable, so an edge insert rebuilds through the builder).
    pub fn to_builder(&self) -> GraphBuilder {
        let mut b = GraphBuilder::new(self.num_vertices()).with_edge_capacity(self.num_edges());
        for u in self.vertices() {
            for (v, w) in self.out_edges(u) {
                b.add_edge(u, v, w);
            }
        }
        b.categories = self.categories.clone();
        b
    }
}

/// Iterator over one adjacency row, yielding `(endpoint, weight)`.
#[derive(Clone)]
pub struct EdgeIter<'a> {
    endpoints: &'a [VertexId],
    weights: &'a [Weight],
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.endpoints.len() {
            let i = self.pos;
            self.pos += 1;
            Some((self.endpoints[i], self.weights[i]))
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.endpoints.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

/// Mutable edge-list accumulator that finalises into a [`Graph`].
///
/// * parallel edges are collapsed to their minimum weight,
/// * self-loops are dropped (they can never lie on a shortest path with
///   non-negative weights),
/// * adjacency rows are sorted by endpoint id.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
    categories: CategoryTable,
}

impl GraphBuilder {
    /// A builder over `num_vertices` isolated vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(num_vertices <= u32::MAX as usize, "vertex ids are u32");
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            categories: CategoryTable::new(num_vertices),
        }
    }

    /// Pre-sizes the edge accumulator.
    pub fn with_edge_capacity(mut self, edges: usize) -> Self {
        self.edges.reserve(edges);
        self
    }

    /// Number of vertices the builder covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Appends `n` fresh vertices, returning the id of the first.
    pub fn add_vertices(&mut self, n: usize) -> VertexId {
        let first = VertexId(self.num_vertices as u32);
        self.num_vertices += n;
        self.categories.resize_vertices(self.num_vertices);
        first
    }

    /// Adds the directed edge `(u, v)` with weight `w`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(u.index() < self.num_vertices, "source {u:?} out of range");
        assert!(v.index() < self.num_vertices, "target {v:?} out of range");
        self.edges.push((u, v, w));
    }

    /// Adds `(u, v)` and `(v, u)` with the same weight — the undirected-graph
    /// convention used by the paper's CAL/NYC road networks.
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w);
    }

    /// The category table being assembled (usable before `build`).
    pub fn categories_mut(&mut self) -> &mut CategoryTable {
        &mut self.categories
    }

    /// Convenience: registers (if needed) and assigns a category by id.
    pub fn assign_category(&mut self, v: VertexId, c: CategoryId) {
        self.categories.ensure_categories(c.index() + 1);
        self.categories.insert(v, c);
    }

    /// Finalises into an immutable CSR [`Graph`].
    pub fn build(mut self) -> Graph {
        let n = self.num_vertices;
        // Sort by (src, dst, weight) then dedup (src, dst) keeping the first
        // (= minimum-weight) copy, and drop self loops.
        self.edges.sort_unstable();
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        self.edges.retain(|&(u, v, _)| u != v);

        let m = self.edges.len();
        let mut out_offsets = vec![0u32; n + 1];
        for &(u, _, _) in &self.edges {
            out_offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = Vec::with_capacity(m);
        for &(_, v, w) in &self.edges {
            out_targets.push(v);
            out_weights.push(w);
        }

        // Backward CSR: counting sort by target keeps rows sorted by source
        // because the edge list is sorted by (src, dst).
        let mut in_offsets = vec![0u32; n + 1];
        for &(_, v, _) in &self.edges {
            in_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_sources = vec![VertexId(0); m];
        let mut in_weights = vec![0 as Weight; m];
        for &(u, v, w) in &self.edges {
            let slot = cursor[v.index()] as usize;
            cursor[v.index()] += 1;
            in_sources[slot] = u;
            in_weights[slot] = w;
        }

        self.categories.resize_vertices(n);
        Graph {
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            out_weights: out_weights.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            in_weights: in_weights.into(),
            categories: self.categories,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn diamond() -> Graph {
        // 0 -> 1 (2), 0 -> 2 (5), 1 -> 3 (2), 2 -> 3 (1)
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1), 2);
        b.add_edge(v(0), v(2), 5);
        b.add_edge(v(1), v(3), 2);
        b.add_edge(v(2), v(3), 1);
        b.build()
    }

    #[test]
    fn csr_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(v(0)), 2);
        assert_eq!(g.in_degree(v(3)), 2);
        assert_eq!(g.degree(v(0)), 2);
        let out0: Vec<_> = g.out_edges(v(0)).collect();
        assert_eq!(out0, vec![(v(1), 2), (v(2), 5)]);
        let in3: Vec<_> = g.in_edges(v(3)).collect();
        assert_eq!(in3, vec![(v(1), 2), (v(2), 1)]);
        assert_eq!(g.out_edges(v(3)).len(), 0);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(v(0), v(2)), Some(5));
        assert_eq!(g.edge_weight(v(2), v(0)), None);
        assert!(g.has_edge(v(1), v(3)));
        assert!(!g.has_edge(v(3), v(1)));
    }

    #[test]
    fn parallel_edges_keep_minimum() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(v(0), v(1), 9);
        b.add_edge(v(0), v(1), 3);
        b.add_edge(v(0), v(1), 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(v(0), v(1)), Some(3));
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(v(0), v(0), 1);
        b.add_edge(v(0), v(1), 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(v(0), v(0)));
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(v(0), v(1), 6);
        let g = b.build();
        assert_eq!(g.edge_weight(v(0), v(1)), Some(6));
        assert_eq!(g.edge_weight(v(1), v(0)), Some(6));
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.edge_weight(v(3), v(1)), Some(2));
        assert_eq!(r.edge_weight(v(1), v(0)), Some(2));
        assert_eq!(r.edge_weight(v(0), v(1)), None);
        // in/out degrees swap
        assert_eq!(r.out_degree(v(3)), g.in_degree(v(3)));
        assert_eq!(r.in_degree(v(0)), g.out_degree(v(0)));
    }

    #[test]
    fn add_vertices_extends_graph() {
        let mut b = GraphBuilder::new(1);
        let first = b.add_vertices(2);
        assert_eq!(first, v(1));
        assert_eq!(b.num_vertices(), 3);
        b.add_edge(v(0), v(2), 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn categories_flow_through_builder() {
        let mut b = GraphBuilder::new(3);
        let c0 = b.categories_mut().add_category("MA");
        b.categories_mut().insert(v(1), c0);
        b.add_edge(v(0), v(1), 1);
        let g = b.build();
        assert!(g.categories().has_category(v(1), c0));
        assert_eq!(g.categories().vertices_of(c0), &[v(1)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn total_weight_fingerprint() {
        assert_eq!(diamond().total_weight(), 10);
    }

    #[test]
    fn try_from_csr_matches_builder_output() {
        let g = diamond();
        let offsets: Vec<u32> = (0..=g.num_vertices())
            .scan(0u32, |acc, u| {
                let cur = *acc;
                if u < g.num_vertices() {
                    *acc += g.out_degree(v(u as u32)) as u32;
                }
                Some(cur)
            })
            .collect();
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        for u in g.vertices() {
            for (t, w) in g.out_edges(u) {
                targets.push(t);
                weights.push(w);
            }
        }
        let g2 = Graph::try_from_csr(
            g.num_vertices(),
            offsets,
            targets,
            weights,
            g.categories().clone(),
        )
        .unwrap();
        for u in g.vertices() {
            assert_eq!(
                g2.out_edges(u).collect::<Vec<_>>(),
                g.out_edges(u).collect::<Vec<_>>()
            );
            assert_eq!(
                g2.in_edges(u).collect::<Vec<_>>(),
                g.in_edges(u).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn try_from_csr_refuses_broken_invariants() {
        let cats = CategoryTable::new(2);
        // Non-monotone offsets.
        assert!(Graph::try_from_csr(2, vec![0, 2, 1], vec![v(1)], vec![1], cats.clone()).is_err());
        // Self loop.
        assert!(Graph::try_from_csr(2, vec![0, 1, 1], vec![v(0)], vec![1], cats.clone()).is_err());
        // Target out of range.
        assert!(Graph::try_from_csr(2, vec![0, 1, 1], vec![v(9)], vec![1], cats.clone()).is_err());
        // Unsorted row.
        assert!(Graph::try_from_csr(
            3,
            vec![0, 2, 2, 2],
            vec![v(2), v(1)],
            vec![1, 1],
            CategoryTable::new(3)
        )
        .is_err());
        // Category table covering the wrong vertex count.
        assert!(
            Graph::try_from_csr(2, vec![0, 1, 1], vec![v(1)], vec![1], CategoryTable::new(1))
                .is_err()
        );
        // A valid one still works.
        assert!(Graph::try_from_csr(2, vec![0, 1, 1], vec![v(1)], vec![1], cats).is_ok());
    }

    #[test]
    fn to_builder_roundtrips_edges_and_categories() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1), 2);
        b.add_edge(v(1), v(3), 2);
        let c = b.categories_mut().add_category("A");
        b.categories_mut().insert(v(1), c);
        let g = b.build();

        let mut rb = g.to_builder();
        rb.add_edge(v(0), v(3), 9);
        let g2 = rb.build();
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.edge_weight(v(0), v(1)), Some(2));
        assert_eq!(g2.edge_weight(v(0), v(3)), Some(9));
        assert!(g2.categories().has_category(v(1), c));
    }
}
