//! 2-hop label storage and distance queries (§IV-A of the paper).
//!
//! Every vertex `v` carries two label sets: `Lin(v)` — entries `(u, dis(u,v))`
//! for selected vertices `u` that reach `v` — and `Lout(v)` — entries
//! `(u', dis(v,u'))` for selected vertices reachable from `v`. The **cover
//! property** guarantees that for any pair `(s, t)` some vertex on a shortest
//! `s→t` path appears in both `Lout(s)` and `Lin(t)`, so
//! `dis(s,t) = min { ds,u + du,t }` over matching entries.

use kosr_graph::{inf_add, is_finite, FxHashMap, VertexId, Weight, INFINITY};
use kosr_pathfinding::TimestampedVec;

/// The label set of one vertex: parallel arrays sorted by hub vertex id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelSet {
    pub(crate) hubs: Vec<VertexId>,
    pub(crate) dists: Vec<Weight>,
}

impl LabelSet {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    /// `true` iff the set has no entries.
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// Iterates `(hub, distance)` pairs in ascending hub-id order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.hubs.iter().copied().zip(self.dists.iter().copied())
    }

    /// The distance recorded for `hub`, if present.
    pub fn get(&self, hub: VertexId) -> Option<Weight> {
        self.hubs.binary_search(&hub).ok().map(|i| self.dists[i])
    }

    pub(crate) fn push_unsorted(&mut self, hub: VertexId, d: Weight) {
        self.hubs.push(hub);
        self.dists.push(d);
    }

    pub(crate) fn sort_by_hub(&mut self) {
        let mut idx: Vec<usize> = (0..self.hubs.len()).collect();
        idx.sort_unstable_by_key(|&i| self.hubs[i]);
        self.hubs = idx.iter().map(|&i| self.hubs[i]).collect();
        self.dists = idx.iter().map(|&i| self.dists[i]).collect();
    }

    /// Inserts (or improves) an entry, keeping hub order. Returns `true` if
    /// the set changed.
    pub fn insert(&mut self, hub: VertexId, d: Weight) -> bool {
        match self.hubs.binary_search(&hub) {
            Ok(i) => {
                if d < self.dists[i] {
                    self.dists[i] = d;
                    true
                } else {
                    false
                }
            }
            Err(i) => {
                self.hubs.insert(i, hub);
                self.dists.insert(i, d);
                true
            }
        }
    }

    /// Removes the entry for `hub`. Returns `true` if it existed.
    pub fn remove(&mut self, hub: VertexId) -> bool {
        match self.hubs.binary_search(&hub) {
            Ok(i) => {
                self.hubs.remove(i);
                self.dists.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Heap bytes used by this set (Table IX's index-size accounting).
    pub fn size_bytes(&self) -> usize {
        self.hubs.len() * (std::mem::size_of::<VertexId>() + std::mem::size_of::<Weight>())
    }
}

/// A complete 2-hop label index (`Lin`/`Lout` for every vertex).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HopLabels {
    pub(crate) lin: Vec<LabelSet>,
    pub(crate) lout: Vec<LabelSet>,
}

impl HopLabels {
    /// An empty index over `n` vertices (populated by the builder or by
    /// deserialization).
    pub fn empty(n: usize) -> Self {
        HopLabels {
            lin: vec![LabelSet::default(); n],
            lout: vec![LabelSet::default(); n],
        }
    }

    /// Assembles an index from prebuilt per-vertex set families — the
    /// zero-copy snapshot install path, which slices whole label arenas
    /// into sets ([`crate::flat`]) instead of inserting entry by entry.
    ///
    /// # Panics
    /// Panics if the families differ in length.
    pub fn from_parts(lin: Vec<LabelSet>, lout: Vec<LabelSet>) -> Self {
        assert_eq!(
            lin.len(),
            lout.len(),
            "Lin/Lout must cover the same vertices"
        );
        HopLabels { lin, lout }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.lin.len()
    }

    /// The whole `Lin` family, indexed by vertex — what the slab codec
    /// ([`crate::flat`]) serializes in one pass.
    #[inline]
    pub fn lin_sets(&self) -> &[LabelSet] {
        &self.lin
    }

    /// The whole `Lout` family, indexed by vertex.
    #[inline]
    pub fn lout_sets(&self) -> &[LabelSet] {
        &self.lout
    }

    /// `Lin(v)`.
    #[inline]
    pub fn lin(&self, v: VertexId) -> &LabelSet {
        &self.lin[v.index()]
    }

    /// `Lout(v)`.
    #[inline]
    pub fn lout(&self, v: VertexId) -> &LabelSet {
        &self.lout[v.index()]
    }

    /// Mutable `Lin(v)` (dynamic updates).
    pub fn lin_mut(&mut self, v: VertexId) -> &mut LabelSet {
        &mut self.lin[v.index()]
    }

    /// Mutable `Lout(v)` (dynamic updates).
    pub fn lout_mut(&mut self, v: VertexId) -> &mut LabelSet {
        &mut self.lout[v.index()]
    }

    /// `dis(s, t)` by merge-joining `Lout(s)` and `Lin(t)`
    /// (`O(|Lout(s)| + |Lin(t)|)`); [`INFINITY`] when no hub matches.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Weight {
        match self.distance_with_hub(s, t) {
            Some((d, _)) => d,
            None => INFINITY,
        }
    }

    /// Like [`HopLabels::distance`] but also reports the best hub.
    pub fn distance_with_hub(&self, s: VertexId, t: VertexId) -> Option<(Weight, VertexId)> {
        let a = &self.lout[s.index()];
        let b = &self.lin[t.index()];
        let (mut i, mut j) = (0usize, 0usize);
        let mut best: Option<(Weight, VertexId)> = None;
        while i < a.hubs.len() && j < b.hubs.len() {
            match a.hubs[i].cmp(&b.hubs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = inf_add(a.dists[i], b.dists[j]);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, a.hubs[i]));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best.filter(|&(d, _)| is_finite(d))
    }

    /// Average `|Lin(v)|` over all vertices (Table IX).
    pub fn avg_lin_size(&self) -> f64 {
        let total: usize = self.lin.iter().map(LabelSet::len).sum();
        total as f64 / self.lin.len().max(1) as f64
    }

    /// Average `|Lout(v)|` over all vertices (Table IX).
    pub fn avg_lout_size(&self) -> f64 {
        let total: usize = self.lout.iter().map(LabelSet::len).sum();
        total as f64 / self.lout.len().max(1) as f64
    }

    /// Total index size in bytes, `Σ_v (|Lin(v)| + |Lout(v)|)` entries
    /// (Table IX).
    pub fn size_bytes(&self) -> usize {
        self.lin
            .iter()
            .chain(self.lout.iter())
            .map(LabelSet::size_bytes)
            .sum()
    }

    /// Total number of label entries.
    pub fn num_entries(&self) -> usize {
        self.lin
            .iter()
            .chain(self.lout.iter())
            .map(LabelSet::len)
            .sum()
    }
}

/// Fixed-target distance oracle: loads `Lin(t)` into an O(1)-lookup array so
/// that `dis(v, t)` costs a single scan of `Lout(v)`.
///
/// StarKOSR calls `dis(v, t)` for every explored route tail; per-query this
/// turns the merge-join into a half-scan. (The paper's "estimation time" row
/// of Table X measures exactly these calls.)
#[derive(Debug)]
pub struct TargetDistancer {
    target: VertexId,
    lookup: FxHashMap<VertexId, Weight>,
    cache: TimestampedVec<Weight>,
}

impl TargetDistancer {
    /// Prepares the oracle for target `t`.
    pub fn new(labels: &HopLabels, t: VertexId) -> Self {
        let lin = labels.lin(t);
        let mut lookup = FxHashMap::default();
        lookup.reserve(lin.len());
        for (h, d) in lin.iter() {
            lookup.insert(h, d);
        }
        let n = labels.num_vertices();
        TargetDistancer {
            target: t,
            lookup,
            cache: TimestampedVec::new(n, INFINITY),
        }
    }

    /// The fixed target.
    pub fn target(&self) -> VertexId {
        self.target
    }

    /// `dis(v, target)`; memoised per source vertex.
    pub fn distance_from(&mut self, labels: &HopLabels, v: VertexId) -> Weight {
        if self.cache.is_set(v.index()) {
            return self.cache.get(v.index());
        }
        let mut best = INFINITY;
        for (h, d) in labels.lout(v).iter() {
            if let Some(&dt) = self.lookup.get(&h) {
                let total = inf_add(d, dt);
                if total < best {
                    best = total;
                }
            }
        }
        self.cache.set(v.index(), best);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn label_set_insert_remove_get() {
        let mut s = LabelSet::default();
        assert!(s.is_empty());
        assert!(s.insert(v(5), 10));
        assert!(s.insert(v(2), 3));
        assert!(s.insert(v(9), 1));
        assert_eq!(s.len(), 3);
        assert_eq!(s.hubs, vec![v(2), v(5), v(9)]);
        assert_eq!(s.get(v(5)), Some(10));
        assert_eq!(s.get(v(4)), None);
        // Improving insert
        assert!(s.insert(v(5), 7));
        assert_eq!(s.get(v(5)), Some(7));
        // Non-improving insert
        assert!(!s.insert(v(5), 8));
        assert_eq!(s.get(v(5)), Some(7));
        assert!(s.remove(v(2)));
        assert!(!s.remove(v(2)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sort_by_hub_orders_parallel_arrays() {
        let mut s = LabelSet::default();
        s.push_unsorted(v(7), 70);
        s.push_unsorted(v(1), 10);
        s.push_unsorted(v(4), 40);
        s.sort_by_hub();
        assert_eq!(s.hubs, vec![v(1), v(4), v(7)]);
        assert_eq!(s.dists, vec![10, 40, 70]);
    }

    #[test]
    fn distance_merge_join() {
        let mut labels = HopLabels::empty(3);
        // Lout(0): hubs 1 (d 4), 2 (d 10); Lin(2): hubs 1 (d 1), 2 (d 0).
        labels.lout_mut(v(0)).insert(v(1), 4);
        labels.lout_mut(v(0)).insert(v(2), 10);
        labels.lin_mut(v(2)).insert(v(1), 1);
        labels.lin_mut(v(2)).insert(v(2), 0);
        assert_eq!(labels.distance(v(0), v(2)), 5);
        assert_eq!(labels.distance_with_hub(v(0), v(2)), Some((5, v(1))));
        // No common hub → infinity.
        assert_eq!(labels.distance(v(2), v(0)), INFINITY);
        assert_eq!(labels.distance_with_hub(v(2), v(0)), None);
    }

    #[test]
    fn stats_accounting() {
        let mut labels = HopLabels::empty(2);
        labels.lin_mut(v(0)).insert(v(0), 0);
        labels.lin_mut(v(1)).insert(v(0), 2);
        labels.lin_mut(v(1)).insert(v(1), 0);
        labels.lout_mut(v(0)).insert(v(0), 0);
        assert_eq!(labels.num_entries(), 4);
        assert!((labels.avg_lin_size() - 1.5).abs() < 1e-9);
        assert!((labels.avg_lout_size() - 0.5).abs() < 1e-9);
        assert_eq!(labels.size_bytes(), 4 * 12);
    }

    #[test]
    fn target_distancer_matches_merge_join() {
        let mut labels = HopLabels::empty(4);
        labels.lout_mut(v(0)).insert(v(2), 3);
        labels.lout_mut(v(1)).insert(v(2), 8);
        labels.lout_mut(v(1)).insert(v(3), 1);
        labels.lin_mut(v(3)).insert(v(2), 4);
        labels.lin_mut(v(3)).insert(v(3), 0);
        let mut td = TargetDistancer::new(&labels, v(3));
        assert_eq!(td.target(), v(3));
        for s in 0..4u32 {
            assert_eq!(
                td.distance_from(&labels, v(s)),
                labels.distance(v(s), v(3)),
                "s={s}"
            );
            // memoised second call agrees
            assert_eq!(td.distance_from(&labels, v(s)), labels.distance(v(s), v(3)));
        }
    }
}
