//! # kosr-hoplabel
//!
//! 2-hop labeling (hub labeling) for weighted directed graphs — the distance
//! oracle at the heart of the paper's `FindNN`/`FindNEN` operations and of
//! StarKOSR's admissible cost estimation (§IV).
//!
//! * [`build`] — pruned landmark labeling \[2\] generalised to weighted
//!   digraphs (pruned Dijkstra instead of pruned BFS).
//! * [`HubOrder`] — degree ordering (social graphs) or contraction-hierarchy
//!   rank ordering (road networks).
//! * [`HopLabels`] / [`LabelSet`] — merge-join `dis(s,t)` queries, label
//!   statistics for Table IX, and the entry-level updates that back the
//!   dynamic category maintenance of §IV-C.
//! * [`TargetDistancer`] — fixed-target oracle used by StarKOSR's heuristic.
//! * [`codec`] — the single-label-set record format of the SK-DB disk
//!   layout.
//! * [`flat`] — CSR-slab codec for label-set families: offset-addressed
//!   arenas whose decode is a bounds-checked reinterpretation (the
//!   snapshot's label sections).
//! * [`shortest_path`] — actual-route reconstruction from label queries.
//! * [`IncrementalUpdater`] — §IV-C graph-structure updates: incremental
//!   label maintenance under edge insertions / weight decreases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod builder;
pub mod codec;
pub mod flat;
mod label;
mod order;
mod pathrec;
mod updates;

pub use builder::{build, build_with_stats, verify_exact, BuildStats};
pub use label::{HopLabels, LabelSet, TargetDistancer};
pub use order::HubOrder;
pub use pathrec::shortest_path;
pub use updates::IncrementalUpdater;

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_graph::{GraphBuilder, VertexId};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// CH-rank ordering on a road-like grid stays exact and is not larger
    /// than the degree ordering by an absurd factor.
    #[test]
    fn ch_order_exact_and_compact_on_grid() {
        let mut b = GraphBuilder::new(36);
        for r in 0..6u32 {
            for c in 0..6u32 {
                let id = r * 6 + c;
                if c + 1 < 6 {
                    b.add_undirected_edge(v(id), v(id + 1), ((id * 7) % 11 + 1) as u64);
                }
                if r + 1 < 6 {
                    b.add_undirected_edge(v(id), v(id + 6), ((id * 5) % 13 + 1) as u64);
                }
            }
        }
        let g = b.build();
        let ch = kosr_ch::build(&g);
        let labels_ch = build(&g, &HubOrder::from_ch(&ch));
        verify_exact(&g, &labels_ch).unwrap();
        let labels_deg = build(&g, &HubOrder::Degree);
        verify_exact(&g, &labels_deg).unwrap();
        // CH ordering should not be dramatically worse than degree ordering
        // on a grid (typically it is substantially better).
        assert!(labels_ch.num_entries() <= labels_deg.num_entries() * 3);
    }

    /// End-to-end: build, serialize, reload, and the reloaded index answers
    /// the same distances.
    #[test]
    fn serialization_preserves_distances() {
        let mut b = GraphBuilder::new(10);
        for i in 0..9u32 {
            b.add_edge(v(i), v(i + 1), (i + 1) as u64);
        }
        b.add_edge(v(9), v(0), 1);
        let g = b.build();
        let labels = build(&g, &HubOrder::Degree);
        let n = g.num_vertices();
        let reload = |sets: &[LabelSet]| {
            let mut slab = Vec::new();
            flat::encode_sets(sets, &mut slab);
            flat::decode_sets_checked(n, flat::entry_count(sets), n as u32, &slab).unwrap()
        };
        let reloaded = HopLabels::from_parts(reload(labels.lin_sets()), reload(labels.lout_sets()));
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(labels.distance(s, t), reloaded.distance(s, t));
            }
        }
    }
}
