//! Query, witness and result types (Definitions 3–5 of the paper).

use kosr_graph::{CategoryId, Graph, VertexId, Weight};

/// A KOSR query `(s, t, C, k)` (Definition 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Source vertex `s`.
    pub source: VertexId,
    /// Destination vertex `t`.
    pub target: VertexId,
    /// The category sequence `C = ⟨C1, …, Cj⟩`, visited in order.
    pub categories: Vec<CategoryId>,
    /// Number of routes requested.
    pub k: usize,
}

impl Query {
    /// Convenience constructor.
    pub fn new(source: VertexId, target: VertexId, categories: Vec<CategoryId>, k: usize) -> Query {
        Query {
            source,
            target,
            categories,
            k,
        }
    }

    /// `|C|`, the category-sequence length.
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    /// Number of levels a complete witness spans: `|C| + 2`
    /// (source + categories + destination).
    pub fn witness_len(&self) -> usize {
        self.categories.len() + 2
    }

    /// Checks the query against a graph before running it: endpoints and
    /// categories must exist, `k` must be positive, and every queried
    /// category must have at least one member (otherwise no feasible route
    /// can exist — reported eagerly rather than after a fruitless search).
    pub fn validate(&self, g: &Graph) -> Result<(), QueryError> {
        if self.source.index() >= g.num_vertices() {
            return Err(QueryError::SourceOutOfRange(self.source));
        }
        if self.target.index() >= g.num_vertices() {
            return Err(QueryError::TargetOutOfRange(self.target));
        }
        if self.k == 0 {
            return Err(QueryError::ZeroK);
        }
        for &c in &self.categories {
            if c.index() >= g.categories().num_categories() {
                return Err(QueryError::UnknownCategory(c));
            }
            if g.categories().category_size(c) == 0 {
                return Err(QueryError::EmptyCategory(c));
            }
        }
        Ok(())
    }
}

/// Why a [`Query`] cannot be answered over a given graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The source vertex id exceeds the graph's vertex count.
    SourceOutOfRange(VertexId),
    /// The target vertex id exceeds the graph's vertex count.
    TargetOutOfRange(VertexId),
    /// `k == 0` requests nothing.
    ZeroK,
    /// A category id exceeds the graph's category count.
    UnknownCategory(CategoryId),
    /// A queried category has no member vertices.
    EmptyCategory(CategoryId),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::SourceOutOfRange(v) => write!(f, "source {v:?} out of range"),
            QueryError::TargetOutOfRange(v) => write!(f, "target {v:?} out of range"),
            QueryError::ZeroK => write!(f, "k must be positive"),
            QueryError::UnknownCategory(c) => write!(f, "unknown category {c:?}"),
            QueryError::EmptyCategory(c) => write!(f, "category {c:?} has no members"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A witness `⟨s, v1, …, vj, t⟩` (Definition 4) with its cost
/// `Σ dis(v_i, v_{i+1})`.
///
/// Two feasible routes are the same iff their witnesses coincide; the
/// algorithms therefore enumerate witnesses, and
/// [`Witness::materialize`] recovers an actual minimum-cost route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The vertex tuple, `categories.len() + 2` entries.
    pub vertices: Vec<VertexId>,
    /// Sum of shortest-path distances between consecutive entries.
    pub cost: Weight,
}

impl Witness {
    /// The **canonical order** of witnesses: nondecreasing cost (the
    /// paper's route order), with cost ties broken lexicographically on the
    /// vertex tuple. This is a total order independent of which algorithm
    /// (or which shard) produced the witness, so canonicalised top-k
    /// results are stable under `k` (`top-k'` is a prefix of `top-k` for
    /// `k' < k`) and under cross-shard merging.
    pub fn canonical_cmp(&self, other: &Witness) -> std::cmp::Ordering {
        self.cost
            .cmp(&other.cost)
            .then_with(|| self.vertices.cmp(&other.vertices))
    }

    /// Expands the witness into an actual route (Definition 2) by
    /// concatenating shortest paths between consecutive witness vertices,
    /// reconstructed through the label index.
    ///
    /// Returns `None` if some leg is unreachable (cannot happen for
    /// witnesses produced by the query algorithms).
    pub fn materialize(
        &self,
        g: &Graph,
        labels: &kosr_hoplabel::HopLabels,
    ) -> Option<kosr_pathfinding::Path> {
        let mut route = kosr_pathfinding::Path::trivial(*self.vertices.first()?);
        for pair in self.vertices.windows(2) {
            if pair[0] == pair[1] {
                continue; // zero-cost leg: the same vertex serves both slots
            }
            let leg = kosr_hoplabel::shortest_path(g, labels, pair[0], pair[1])?;
            route = route.concat(&leg);
        }
        Some(route)
    }
}

/// Wall-clock decomposition of one query (Table X of the paper).
///
/// Profiled runs (clock [`crate::WallClock`]: the paper-semantics entry
/// points, `run_canonical`, `run_bounded`) fill every field. Served runs
/// (clock [`crate::NoClock`]) fill `total` only: `nn`, `queue` and
/// `estimation` stay zero, so `other` equals `total`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeBreakdown {
    /// Total query time.
    pub total: std::time::Duration,
    /// Time inside `FindNN` / the NN provider.
    pub nn: std::time::Duration,
    /// Time maintaining the global priority queue.
    pub queue: std::time::Duration,
    /// Time spent on StarKOSR's estimates (StarKOSR only): `dis(·, t)`
    /// lookups, or the exact potentials' backward pass and lookups.
    pub estimation: std::time::Duration,
    /// `total - nn - queue - estimation`.
    pub other: std::time::Duration,
}

impl TimeBreakdown {
    /// Recomputes `other` as the remainder of `total` after the tracked
    /// components (saturating). Called after the components are filled in
    /// (per-query by the algorithms, or by cross-shard aggregation).
    pub fn finalize(&mut self) {
        self.other = self
            .total
            .saturating_sub(self.nn)
            .saturating_sub(self.queue)
            .saturating_sub(self.estimation);
    }
}

/// Instrumentation collected while answering one query — exactly the three
/// evaluation criteria of §V-A plus the Figure 5 per-level breakdown.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Routes (witnesses) extracted from the global priority queue.
    pub examined_routes: u64,
    /// Fresh nearest-neighbor computations (NL-cache hits excluded).
    pub nn_queries: u64,
    /// Examined routes per witness level 0..=|C|+1 (Figure 5).
    pub examined_per_level: Vec<u64>,
    /// Peak size of the global priority queue.
    pub heap_peak: usize,
    /// Routes parked as dominated (PruningKOSR / StarKOSR only).
    pub dominated_routes: u64,
    /// Dominated routes later reconsidered.
    pub reconsidered_routes: u64,
    /// Candidate expansions dropped because the remaining-sequence lower
    /// bound proved no feasible completion exists (bounds-enabled runs only).
    pub bound_pruned: u64,
    /// `true` if the search hit its examined-routes budget before finding
    /// all k routes (the reproduction harness's analogue of the paper's
    /// 3,600-second "INF" cutoff).
    pub truncated: bool,
    /// Wall-clock decomposition.
    pub time: TimeBreakdown,
}

/// The answer to a KOSR query: up to `k` witnesses in nondecreasing cost
/// order, plus instrumentation.
#[derive(Clone, Debug, Default)]
pub struct KosrOutcome {
    /// The top-k witnesses (fewer if the graph admits fewer feasible routes).
    pub witnesses: Vec<Witness>,
    /// Per-query instrumentation.
    pub stats: QueryStats,
}

impl KosrOutcome {
    /// The costs of the returned witnesses.
    pub fn costs(&self) -> Vec<Weight> {
        self.witnesses.iter().map(|w| w.cost).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn query_accessors() {
        let q = Query::new(v(0), v(9), vec![CategoryId(1), CategoryId(2)], 5);
        assert_eq!(q.num_categories(), 2);
        assert_eq!(q.witness_len(), 4);
    }

    #[test]
    fn query_validation() {
        let mut b = kosr_graph::GraphBuilder::new(3);
        let ca = b.categories_mut().add_category("A");
        let empty = b.categories_mut().add_category("EMPTY");
        b.add_edge(v(0), v(1), 1);
        b.categories_mut().insert(v(1), ca);
        let g = b.build();

        assert!(Query::new(v(0), v(2), vec![ca], 1).validate(&g).is_ok());
        assert_eq!(
            Query::new(v(9), v(2), vec![ca], 1).validate(&g),
            Err(QueryError::SourceOutOfRange(v(9)))
        );
        assert_eq!(
            Query::new(v(0), v(7), vec![ca], 1).validate(&g),
            Err(QueryError::TargetOutOfRange(v(7)))
        );
        assert_eq!(
            Query::new(v(0), v(2), vec![ca], 0).validate(&g),
            Err(QueryError::ZeroK)
        );
        assert_eq!(
            Query::new(v(0), v(2), vec![CategoryId(9)], 1).validate(&g),
            Err(QueryError::UnknownCategory(CategoryId(9)))
        );
        assert_eq!(
            Query::new(v(0), v(2), vec![empty], 1).validate(&g),
            Err(QueryError::EmptyCategory(empty))
        );
        // Errors render.
        assert!(QueryError::ZeroK.to_string().contains("positive"));
    }

    #[test]
    fn time_breakdown_finalize() {
        use std::time::Duration;
        let mut tb = TimeBreakdown {
            total: Duration::from_millis(10),
            nn: Duration::from_millis(4),
            queue: Duration::from_millis(1),
            estimation: Duration::from_millis(2),
            other: Duration::ZERO,
        };
        tb.finalize();
        assert_eq!(tb.other, Duration::from_millis(3));
        // Saturation: components exceeding total don't underflow.
        let mut tb = TimeBreakdown {
            total: Duration::from_millis(1),
            nn: Duration::from_millis(4),
            ..Default::default()
        };
        tb.finalize();
        assert_eq!(tb.other, Duration::ZERO);
    }

    #[test]
    fn outcome_costs() {
        let out = KosrOutcome {
            witnesses: vec![
                Witness {
                    vertices: vec![v(0), v(1)],
                    cost: 3,
                },
                Witness {
                    vertices: vec![v(0), v(2)],
                    cost: 7,
                },
            ],
            stats: QueryStats::default(),
        };
        assert_eq!(out.costs(), vec![3, 7]);
    }
}
