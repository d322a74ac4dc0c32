//! The **inverted label index** `IL(Ci)` of §IV-A.
//!
//! For a category `Ci`, the inverted index groups the `Lin` entries of all
//! member vertices *by hub*: `IL(u′)` lists `(u, d_{u′,u})` for every member
//! `u ∈ V_Ci` with `(u′, d_{u′,u}) ∈ Lin(u)`, sorted ascending by cost. A
//! `FindNN` stream then k-way-merges the `IL(u′)` lists matching `Lout(v)`
//! (Table V / Example 4 of the paper).
//!
//! Dynamic category updates (§IV-C) insert or remove one member's entries in
//! `O(|Lin(v)| log |Ci|)` by binary-searching each affected hub list.

use std::sync::Arc;

use kosr_graph::{CategoryId, CategoryTable, FxHashMap, VertexId, Weight};
use kosr_hoplabel::HopLabels;

/// One hub's inverted list. Shared and immutable: a member update swaps
/// in rewritten lists for the hubs of the member's `Lin` label only, so
/// cloning an index (the copy-on-write step of a live update) copies one
/// pointer per hub instead of every entry.
pub type HubList = Arc<[(VertexId, Weight)]>;

/// Inverted label index of a single category.
#[derive(Clone, Debug, Default)]
pub struct InvertedLabelIndex {
    /// Hub `u′` → entries `(member, d(u′, member))` sorted by (cost, member).
    lists: FxHashMap<VertexId, HubList>,
    /// Number of member vertices indexed.
    num_members: usize,
}

impl InvertedLabelIndex {
    /// Builds `IL(c)` from the members' `Lin` labels.
    pub fn build(labels: &HopLabels, categories: &CategoryTable, c: CategoryId) -> Self {
        Self::build_from_members(labels, categories.vertices_of(c))
    }

    /// Builds an inverted index over an **explicit member set** rather
    /// than a category table entry. This is the shard-build primitive: a
    /// region shard indexes only the members it owns (its slice of
    /// `V_{Ci}`), yet the resulting `IL` answers `FindNN` streams exactly
    /// over that subset.
    pub fn build_from_members(labels: &HopLabels, members: &[VertexId]) -> Self {
        let mut lists: FxHashMap<VertexId, Vec<(VertexId, Weight)>> = FxHashMap::default();
        for &u in members {
            for (hub, d) in labels.lin(u).iter() {
                lists.entry(hub).or_default().push((u, d));
            }
        }
        Self::from_lists(lists, members.len())
    }

    /// The inverted list of hub `u′` (`IL(u′)`), if any member references it.
    #[inline]
    pub fn list(&self, hub: VertexId) -> Option<&[(VertexId, Weight)]> {
        self.lists.get(&hub).map(|list| &**list)
    }

    /// Number of hubs with a non-empty list.
    pub fn num_hubs(&self) -> usize {
        self.lists.len()
    }

    /// Number of member vertices covered.
    pub fn num_members(&self) -> usize {
        self.num_members
    }

    /// Total entries across all lists (the paper's `|IL(Ci)|`).
    pub fn num_entries(&self) -> usize {
        self.lists.values().map(|list| list.len()).sum()
    }

    /// Average entries per hub list (the paper's `Avg |IL(v)|`).
    pub fn avg_list_len(&self) -> f64 {
        if self.lists.is_empty() {
            0.0
        } else {
            self.num_entries() as f64 / self.lists.len() as f64
        }
    }

    /// Bytes consumed by the entry arrays.
    pub fn size_bytes(&self) -> usize {
        self.num_entries() * (std::mem::size_of::<VertexId>() + std::mem::size_of::<Weight>())
    }

    /// Registers a **new member** `v` (category insert of §IV-C): every
    /// `(u′, d) ∈ Lin(v)` gains an inverted entry, placed by binary search.
    pub fn insert_member(&mut self, labels: &HopLabels, v: VertexId) {
        for (hub, d) in labels.lin(v).iter() {
            let list = self.lists.entry(hub).or_insert_with(|| Arc::new([]));
            let (before, after) = list.split_at(list.partition_point(|&(m, dm)| (dm, m) < (d, v)));
            *list = before
                .iter()
                .chain(std::iter::once(&(v, d)))
                .chain(after)
                .copied()
                .collect();
        }
        self.num_members += 1;
    }

    /// Removes a member `v` (category remove of §IV-C).
    pub fn remove_member(&mut self, labels: &HopLabels, v: VertexId) {
        for (hub, d) in labels.lin(v).iter() {
            if let Some(list) = self.lists.get_mut(&hub) {
                let pos = list.partition_point(|&(m, dm)| (dm, m) < (d, v));
                if list.get(pos) != Some(&(v, d)) {
                    continue;
                }
                if list.len() == 1 {
                    self.lists.remove(&hub);
                } else {
                    *list = list[..pos]
                        .iter()
                        .chain(&list[pos + 1..])
                        .copied()
                        .collect();
                }
            }
        }
        self.num_members = self.num_members.saturating_sub(1);
    }

    /// Iterates `(hub, list)` pairs (serialization support).
    pub fn iter_lists(&self) -> impl Iterator<Item = (VertexId, &[(VertexId, Weight)])> {
        self.lists.iter().map(|(&h, l)| (h, &**l))
    }

    /// Like [`InvertedLabelIndex::from_lists`] but trusts that every list
    /// already satisfies the `(cost, member)` ordering — the zero-copy
    /// snapshot install path, whose byte-level validation has enforced the
    /// invariant before any list was materialised. No sorting pass runs.
    pub fn from_sorted_lists(lists: FxHashMap<VertexId, HubList>, num_members: usize) -> Self {
        debug_assert!(lists
            .values()
            .all(|l| l.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0))));
        InvertedLabelIndex { lists, num_members }
    }

    /// Builds directly from raw hub lists (deserialization support). Lists
    /// are re-sorted to enforce the invariant.
    pub fn from_lists(
        mut lists: FxHashMap<VertexId, Vec<(VertexId, Weight)>>,
        num_members: usize,
    ) -> Self {
        for list in lists.values_mut() {
            list.sort_unstable_by_key(|&(m, d)| (d, m));
        }
        let lists = lists.into_iter().map(|(h, l)| (h, l.into())).collect();
        Self::from_sorted_lists(lists, num_members)
    }
}

/// Build statistics for a whole graph's inverted indexes (Table IX, bottom).
#[derive(Clone, Copy, Debug, Default)]
pub struct InvertedStats {
    /// Wall-clock construction time.
    pub build_time: std::time::Duration,
    /// Average `|IL(Ci)|` (entries per category).
    pub avg_entries_per_category: f64,
    /// Average `|IL(v)|` (entries per hub list).
    pub avg_list_len: f64,
    /// Total bytes across all categories.
    pub size_bytes: usize,
}

/// The inverted label indexes of **every** category of a graph.
///
/// One `Arc` per category: `clone()` copies pointers, and a dynamic update
/// on a shared set ([`CategoryIndexSet::category_mut`]) re-allocates only
/// the touched category's `IL(Ci)` — the paper's §IV-C cost, not a copy of
/// every category. A held clone never changes underfoot.
#[derive(Clone, Debug, Default)]
pub struct CategoryIndexSet {
    indexes: Vec<Arc<InvertedLabelIndex>>,
}

impl CategoryIndexSet {
    /// Builds `IL(Ci)` for all categories.
    pub fn build(labels: &HopLabels, categories: &CategoryTable) -> Self {
        Self::build_with_stats(labels, categories).0
    }

    /// Builds all indexes and reports Table IX statistics.
    pub fn build_with_stats(
        labels: &HopLabels,
        categories: &CategoryTable,
    ) -> (Self, InvertedStats) {
        let start = std::time::Instant::now();
        let indexes: Vec<InvertedLabelIndex> = (0..categories.num_categories())
            .map(|c| InvertedLabelIndex::build(labels, categories, CategoryId(c as u32)))
            .collect();
        let nc = indexes.len().max(1);
        let total_entries: usize = indexes.iter().map(InvertedLabelIndex::num_entries).sum();
        let total_lists: usize = indexes.iter().map(InvertedLabelIndex::num_hubs).sum();
        let stats = InvertedStats {
            build_time: start.elapsed(),
            avg_entries_per_category: total_entries as f64 / nc as f64,
            avg_list_len: if total_lists == 0 {
                0.0
            } else {
                total_entries as f64 / total_lists as f64
            },
            size_bytes: indexes.iter().map(InvertedLabelIndex::size_bytes).sum(),
        };
        (Self::from_indexes(indexes), stats)
    }

    /// Assembles a set from prebuilt per-category indexes (index `i` serves
    /// `CategoryId(i)`). Used by the disk-backed SK-DB runner, which loads
    /// only the categories a query needs and leaves the rest empty.
    pub fn from_indexes(indexes: Vec<InvertedLabelIndex>) -> Self {
        CategoryIndexSet {
            indexes: indexes.into_iter().map(Arc::new).collect(),
        }
    }

    /// Appends the index of a new category (id = the previous
    /// [`CategoryIndexSet::num_categories`]) — how a shard build adds its
    /// shadow categories on top of the shared base ones.
    pub fn push(&mut self, index: InvertedLabelIndex) {
        self.indexes.push(Arc::new(index));
    }

    /// The inverted index of category `c`.
    #[inline]
    pub fn category(&self, c: CategoryId) -> &InvertedLabelIndex {
        &self.indexes[c.index()]
    }

    /// Mutable access for dynamic updates; un-shares category `c`'s index
    /// (only) when a clone of the set still holds it.
    pub fn category_mut(&mut self, c: CategoryId) -> &mut InvertedLabelIndex {
        Arc::make_mut(&mut self.indexes[c.index()])
    }

    /// Number of categories covered.
    pub fn num_categories(&self) -> usize {
        self.indexes.len()
    }

    /// Member count `|V_Ci|` of category `c` as recorded by the inverted
    /// index (0 for ids beyond the covered range, so callers can probe
    /// without bounds anxiety).
    pub fn members_of(&self, c: CategoryId) -> usize {
        self.indexes.get(c.index()).map_or(0, |il| il.num_members())
    }

    /// Selectivity `|V_Ci| / n` of category `c` against a vertex universe
    /// of size `n` — the density signal query planners key off: sparse
    /// categories make NN streams short and favor estimation-guided search.
    pub fn selectivity(&self, c: CategoryId, num_vertices: usize) -> f64 {
        if num_vertices == 0 {
            0.0
        } else {
            self.members_of(c) as f64 / num_vertices as f64
        }
    }

    /// Applies the paper's category-insert update across tables
    /// (`CategoryTable` + inverted index stay in sync).
    pub fn insert_membership(
        &mut self,
        labels: &HopLabels,
        categories: &mut CategoryTable,
        v: VertexId,
        c: CategoryId,
    ) -> bool {
        if categories.insert(v, c) {
            self.category_mut(c).insert_member(labels, v);
            true
        } else {
            false
        }
    }

    /// Applies the paper's category-remove update across tables.
    pub fn remove_membership(
        &mut self,
        labels: &HopLabels,
        categories: &mut CategoryTable,
        v: VertexId,
        c: CategoryId,
    ) -> bool {
        if categories.remove(v, c) {
            self.category_mut(c).remove_member(labels, v);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_graph::GraphBuilder;
    use kosr_hoplabel::HubOrder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Path graph 0→1→2→3→4 with weights 1,2,3,4; categories on odd/even.
    fn setup() -> (kosr_graph::Graph, HopLabels) {
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(v(i), v(i + 1), (i + 1) as u64);
        }
        let ca = b.categories_mut().add_category("A");
        let cb = b.categories_mut().add_category("B");
        b.categories_mut().insert(v(1), ca);
        b.categories_mut().insert(v(3), ca);
        b.categories_mut().insert(v(2), cb);
        let g = b.build();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        (g, labels)
    }

    #[test]
    fn lists_are_sorted_by_cost() {
        let (g, labels) = setup();
        let il = InvertedLabelIndex::build(&labels, g.categories(), CategoryId(0));
        assert_eq!(il.num_members(), 2);
        assert!(il.num_entries() > 0);
        for (_, list) in il.iter_lists() {
            for w in list.windows(2) {
                assert!(w[0].1 <= w[1].1, "list not sorted: {list:?}");
            }
        }
    }

    #[test]
    fn entries_match_lin_labels() {
        let (g, labels) = setup();
        let ca = CategoryId(0);
        let il = InvertedLabelIndex::build(&labels, g.categories(), ca);
        // Every Lin entry of every member must appear exactly once.
        let mut expect = 0usize;
        for &m in g.categories().vertices_of(ca) {
            for (hub, d) in labels.lin(m).iter() {
                expect += 1;
                let list = il.list(hub).expect("hub list exists");
                assert!(list.contains(&(m, d)));
            }
        }
        assert_eq!(il.num_entries(), expect);
    }

    #[test]
    fn insert_remove_member_roundtrip() {
        let (g, labels) = setup();
        let ca = CategoryId(0);
        let before = InvertedLabelIndex::build(&labels, g.categories(), ca);
        let mut il = before.clone();
        // Insert v4 then remove it: back to the original.
        il.insert_member(&labels, v(4));
        assert_eq!(il.num_members(), 3);
        assert!(il.num_entries() > before.num_entries());
        for (_, list) in il.iter_lists() {
            for w in list.windows(2) {
                assert!((w[0].1, w[0].0) <= (w[1].1, w[1].0));
            }
        }
        il.remove_member(&labels, v(4));
        assert_eq!(il.num_members(), 2);
        assert_eq!(il.num_entries(), before.num_entries());
    }

    #[test]
    fn category_index_set_updates_stay_in_sync() {
        let (mut g, labels) = setup();
        let mut set = CategoryIndexSet::build(&labels, g.categories());
        let cb = CategoryId(1);
        let mut cats = g.categories().clone();
        assert!(set.insert_membership(&labels, &mut cats, v(4), cb));
        assert!(!set.insert_membership(&labels, &mut cats, v(4), cb));
        assert!(cats.has_category(v(4), cb));
        // Rebuilding from scratch gives the same entry count.
        g.set_categories(cats.clone());
        let rebuilt = InvertedLabelIndex::build(&labels, &cats, cb);
        assert_eq!(set.category(cb).num_entries(), rebuilt.num_entries());
        assert!(set.remove_membership(&labels, &mut cats, v(4), cb));
        assert!(!set.remove_membership(&labels, &mut cats, v(4), cb));
    }

    #[test]
    fn stats_populated() {
        let (g, labels) = setup();
        let (_, stats) = CategoryIndexSet::build_with_stats(&labels, g.categories());
        assert!(stats.avg_entries_per_category > 0.0);
        assert!(stats.avg_list_len > 0.0);
        assert!(stats.size_bytes > 0);
    }

    #[test]
    fn build_from_members_matches_table_build_on_subsets() {
        let (g, labels) = setup();
        let ca = CategoryId(0);
        let full = InvertedLabelIndex::build(&labels, g.categories(), ca);
        let members = g.categories().vertices_of(ca);
        let rebuilt = InvertedLabelIndex::build_from_members(&labels, members);
        assert_eq!(rebuilt.num_members(), full.num_members());
        assert_eq!(rebuilt.num_entries(), full.num_entries());
        // A strict subset indexes exactly that subset's entries.
        let sub = InvertedLabelIndex::build_from_members(&labels, &members[..1]);
        assert_eq!(sub.num_members(), 1);
        assert_eq!(sub.num_entries(), labels.lin(members[0]).len());
    }

    #[test]
    fn empty_category_is_fine() {
        let (g, labels) = setup();
        let mut cats = g.categories().clone();
        let empty = cats.add_category("EMPTY");
        let il = InvertedLabelIndex::build(&labels, &cats, empty);
        assert_eq!(il.num_members(), 0);
        assert_eq!(il.num_entries(), 0);
        assert_eq!(il.avg_list_len(), 0.0);
    }
}
