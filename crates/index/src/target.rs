//! Fixed-target distance oracles: `dis(v, t)` for the query's destination
//! `t`, the quantity StarKOSR's admissible estimation is built on (§IV-B).
//!
//! * [`LabelTarget`] wraps [`kosr_hoplabel::TargetDistancer`] (one `Lout(v)`
//!   scan per distinct source, memoised).
//! * [`DijkstraTarget`] runs one lazy backward Dijkstra from `t` — the
//!   estimation strategy available to the `SK-Dij` baseline, which has no
//!   label index.

use kosr_graph::{Graph, VertexId, Weight};
use kosr_hoplabel::{HopLabels, TargetDistancer};
use kosr_pathfinding::{Dijkstra, Dir};

/// `dis(v, target)` for a target fixed at construction time.
pub trait TargetDistance {
    /// The shortest-path distance from `v` to the fixed target
    /// ([`kosr_graph::INFINITY`] when `v` cannot reach it).
    fn to_target(&mut self, v: VertexId) -> Weight;

    /// The fixed target vertex.
    fn target(&self) -> VertexId;
}

impl<T: TargetDistance + ?Sized> TargetDistance for &mut T {
    fn to_target(&mut self, v: VertexId) -> Weight {
        (**self).to_target(v)
    }

    fn target(&self) -> VertexId {
        (**self).target()
    }
}

/// Label-backed oracle.
pub struct LabelTarget<'a> {
    labels: &'a HopLabels,
    inner: TargetDistancer,
}

impl<'a> LabelTarget<'a> {
    /// Prepares the oracle for `t`.
    pub fn new(labels: &'a HopLabels, t: VertexId) -> Self {
        LabelTarget {
            labels,
            inner: TargetDistancer::new(labels, t),
        }
    }
}

impl TargetDistance for LabelTarget<'_> {
    fn to_target(&mut self, v: VertexId) -> Weight {
        self.inner.distance_from(self.labels, v)
    }

    fn target(&self) -> VertexId {
        self.inner.target()
    }
}

/// Dijkstra-backed oracle: a single backward one-to-all search from `t`,
/// run lazily on the first request.
pub struct DijkstraTarget<'a> {
    g: &'a Graph,
    t: VertexId,
    search: Dijkstra,
    ran: bool,
}

impl<'a> DijkstraTarget<'a> {
    /// Prepares the oracle for `t` (the search runs on first use).
    pub fn new(g: &'a Graph, t: VertexId) -> Self {
        DijkstraTarget {
            g,
            t,
            search: Dijkstra::new(g.num_vertices()),
            ran: false,
        }
    }
}

impl TargetDistance for DijkstraTarget<'_> {
    fn to_target(&mut self, v: VertexId) -> Weight {
        if !self.ran {
            self.search.one_to_all(self.g, Dir::Backward, self.t);
            self.ran = true;
        }
        self.search.distance(v)
    }

    fn target(&self) -> VertexId {
        self.t
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

    fn cycle_graph() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(v(i), v(i + 1), (i + 2) as u64);
        }
        b.add_edge(v(5), v(0), 1);
        b.build()
    }

    #[test]
    fn oracles_agree() {
        let g = cycle_graph();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        let t = v(3);
        let mut a = LabelTarget::new(&labels, t);
        let mut b = DijkstraTarget::new(&g, t);
        assert_eq!(a.target(), t);
        assert_eq!(b.target(), t);
        for s in 0..6u32 {
            assert_eq!(a.to_target(v(s)), b.to_target(v(s)), "s={s}");
        }
    }

    #[test]
    fn unreachable_target() {
        let mut builder = GraphBuilder::new(3);
        builder.add_edge(v(0), v(1), 2);
        let g = builder.build();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        let mut a = LabelTarget::new(&labels, v(2));
        let mut b = DijkstraTarget::new(&g, v(2));
        assert_eq!(a.to_target(v(0)), INFINITY);
        assert_eq!(b.to_target(v(0)), INFINITY);
        assert_eq!(a.to_target(v(2)), 0);
        assert_eq!(b.to_target(v(2)), 0);
    }
}
