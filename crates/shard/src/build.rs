//! Building per-shard replicas from one indexed graph and a partition.

use std::sync::Arc;

use kosr_core::IndexedGraph;
use kosr_graph::{CategoryId, Partition, PartitionStats, VertexId};
use kosr_index::{BoundTables, InvertedLabelIndex};

/// One [`IndexedGraph`] replica per shard, each carrying the replicated
/// routing skeleton plus its own slice of the category data as *shadow
/// categories*.
///
/// Category layout inside shard `j` (for `B` base categories):
///
/// * ids `0 .. B` — the base categories with **full** membership
///   (replicated; later stops of a sequenced route may use any member),
/// * ids `B .. 2B` — shadow categories: `B + c` holds exactly the members
///   of `c` owned by shard `j` (named `"{name}@{j}"`).
///
/// The router substitutes a query's first category with the shadow id to
/// confine shard `j` to routes whose first stop it owns.
pub struct ShardSet {
    shards: Vec<IndexedGraph>,
    partition: Partition,
    base_categories: usize,
    /// Quality statistics against the **base** graph, computed at build
    /// time — replica graphs carry extra shadow memberships and would
    /// double-count the owner's share.
    partition_stats: PartitionStats,
}

impl ShardSet {
    /// Derives one replica per shard of `partition` from the unsharded
    /// `ig`. The graph structure, the 2-hop labels and the base
    /// categories' inverted indexes are replicated by *sharing* `ig`'s
    /// sections (see [`IndexedGraph`]); inverted indexes for shadow
    /// categories are built over each shard's owned member slice only.
    pub fn build(ig: &IndexedGraph, partition: Partition) -> ShardSet {
        let base = ig.graph.categories().num_categories();
        let shards = (0..partition.num_shards())
            .map(|j| {
                let mut graph = ig.graph.clone();
                let mut owned_members: Vec<Vec<VertexId>> = Vec::with_capacity(base);
                for c in 0..base {
                    let cid = CategoryId(c as u32);
                    let name = format!("{}@{j}", graph.categories().name(cid));
                    let shadow = graph.categories_mut().add_category(name);
                    debug_assert_eq!(shadow.index(), base + c);
                    let members = partition.members_owned(ig.graph.categories(), cid, j);
                    for &m in &members {
                        graph.categories_mut().insert(m, shadow);
                    }
                    owned_members.push(members);
                }
                // Base categories share the unsharded indexes (pointer
                // copies); only the shadows are built per shard.
                let mut inverted = ig.inverted.clone();
                for members in &owned_members {
                    inverted.push(InvertedLabelIndex::build_from_members(&ig.labels, members));
                }
                IndexedGraph {
                    graph,
                    labels: Arc::clone(&ig.labels),
                    inverted,
                    bounds: BoundTables::default(),
                    label_stats: ig.label_stats,
                    inverted_stats: ig.inverted_stats,
                }
            })
            .collect();
        let partition_stats = partition.stats(&ig.graph);
        ShardSet {
            shards,
            partition,
            base_categories: base,
            partition_stats,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of base (pre-shadow) categories.
    pub fn base_categories(&self) -> usize {
        self.base_categories
    }

    /// The vertex-ownership assignment the set was built from.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The replica of shard `j`.
    pub fn shard(&self, j: usize) -> &IndexedGraph {
        &self.shards[j]
    }

    /// The shadow id of base category `c`.
    pub fn shadow(&self, c: CategoryId) -> CategoryId {
        crate::shadow_of(self.base_categories, c)
    }

    /// Partition quality against the base (pre-shadow) graph.
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.partition_stats
    }

    pub(crate) fn into_parts(self) -> (Vec<IndexedGraph>, Partition, usize, PartitionStats) {
        (
            self.shards,
            self.partition,
            self.base_categories,
            self.partition_stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_graph::{PartitionConfig, Partitioner};

    #[test]
    fn shadow_categories_partition_each_base_category() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 3,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        assert_eq!(set.base_categories(), 3);

        for c in [fx.ma, fx.re, fx.ci] {
            let full: Vec<_> = ig.graph.categories().vertices_of(c).to_vec();
            let mut owned_total = 0;
            for j in 0..set.num_shards() {
                let shard = set.shard(j);
                // Base categories stay fully replicated.
                assert_eq!(shard.graph.categories().vertices_of(c), &full[..]);
                // Shadows hold exactly the owned slice, in table and index.
                let shadow = set.shadow(c);
                let owned = shard.graph.categories().vertices_of(shadow);
                for &m in owned {
                    assert_eq!(set.partition().owner(m), j);
                }
                assert_eq!(shard.inverted.members_of(shadow), owned.len());
                owned_total += owned.len();
            }
            assert_eq!(owned_total, full.len(), "shadows partition {c:?}");
        }

        // Build-time partition stats count base memberships only — the
        // replica graphs' shadow memberships must not inflate them.
        let stats = set.partition_stats();
        assert_eq!(
            stats.shard_memberships.iter().sum::<usize>(),
            ig.graph.categories().num_memberships()
        );
    }

    #[test]
    fn shadow_names_mention_shard_and_base() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 2,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        let shadow = set.shadow(fx.re);
        assert_eq!(set.shard(0).graph.categories().name(shadow), "RE@0");
        assert_eq!(set.shard(1).graph.categories().name(shadow), "RE@1");
    }
}
