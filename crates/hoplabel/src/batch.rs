//! Batched label-distance kernels: set-level operations over whole
//! [`LabelSet`] families, the building blocks of the category-pair
//! lower-bound tables in `kosr-index`.
//!
//! A category `C` can be summarised by two **virtual label sets**:
//!
//! * `min_union` over `{ Lin(m) : m ∈ C }` — for each hub `h`, the minimum
//!   `dis(h, m)` over all members — behaves like the `Lin` of a virtual
//!   vertex standing for "any member of C";
//! * `min_union` over `{ Lout(m) : m ∈ C }` — the matching virtual `Lout`.
//!
//! Because the 2-hop labels are exact and every member's shortest paths are
//! covered by its own hubs, a [`min_join`] of two virtual sets is exactly
//! `min_{a ∈ A, b ∈ B} dis(a, b)` — not merely a lower bound. Downstream
//! consumers that mix a virtual set with a concrete vertex's set get the
//! exact source-to-category (or category-to-target) distance the same way.

use kosr_graph::{inf_add, is_finite, VertexId, Weight, INFINITY};

use crate::label::LabelSet;

/// Folds `sets` into one hub-sorted set keeping, per hub, the **minimum**
/// distance observed across all inputs — the "virtual label set" of the
/// union of the underlying vertices. Runs in `O(total · log total)`.
pub fn min_union<'a>(sets: impl IntoIterator<Item = &'a LabelSet>) -> LabelSet {
    let mut entries: Vec<(VertexId, Weight)> = Vec::new();
    for s in sets {
        entries.extend(s.iter());
    }
    entries.sort_unstable();
    let mut out = LabelSet::default();
    for (h, d) in entries {
        match out.hubs.last() {
            Some(&last) if last == h => {} // sorted: first entry per hub is minimal
            _ => {
                out.hubs.push(h);
                out.dists.push(d);
            }
        }
    }
    out
}

/// The minimum `out_dist + in_dist` over hubs common to both sets — the
/// same merge-join as [`crate::HopLabels::distance`], but over arbitrary
/// (possibly virtual) label sets. [`INFINITY`] when no hub matches.
pub fn min_join(out: &LabelSet, inn: &LabelSet) -> Weight {
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = INFINITY;
    while i < out.hubs.len() && j < inn.hubs.len() {
        match out.hubs[i].cmp(&inn.hubs[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = inf_add(out.dists[i], inn.dists[j]);
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            }
        }
    }
    if is_finite(best) {
        best
    } else {
        INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::HopLabels;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn world() -> HopLabels {
        let mut l = HopLabels::empty(5);
        l.lin_mut(v(1)).insert(v(0), 4);
        l.lin_mut(v(1)).insert(v(2), 9);
        l.lin_mut(v(3)).insert(v(0), 2);
        l.lin_mut(v(3)).insert(v(3), 0);
        l.lout_mut(v(4)).insert(v(0), 1);
        l.lout_mut(v(4)).insert(v(3), 7);
        l
    }

    #[test]
    fn min_union_keeps_per_hub_minimum() {
        let l = world();
        let u = min_union([l.lin(v(1)), l.lin(v(3))]);
        assert_eq!(u.get(v(0)), Some(2), "hub 0: min(4, 2)");
        assert_eq!(u.get(v(2)), Some(9));
        assert_eq!(u.get(v(3)), Some(0));
        assert_eq!(u.len(), 3);
        // Hub order is maintained for downstream merge-joins.
        assert!(u.hubs.windows(2).all(|w| w[0] < w[1]));
        // Empty family → empty virtual set.
        assert!(min_union(std::iter::empty()).is_empty());
    }

    #[test]
    fn min_join_is_min_over_member_pairs() {
        let l = world();
        let virt_in = min_union([l.lin(v(1)), l.lin(v(3))]);
        // dis(4, 1) = 1 + 4 = 5 (hub 0); dis(4, 3) = min(1 + 2, 7 + 0) = 3.
        assert_eq!(min_join(l.lout(v(4)), &virt_in), 3);
        assert_eq!(
            min_join(l.lout(v(4)), &virt_in),
            (1..=3)
                .step_by(2)
                .map(|t| l.distance(v(4), v(t)))
                .min()
                .unwrap()
        );
        // No common hub → INFINITY.
        assert_eq!(min_join(l.lout(v(0)), &virt_in), INFINITY);
    }
}
