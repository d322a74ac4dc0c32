//! The invalidation filter: decides, per subscription, whether a
//! published update can possibly change its top-k — **without touching
//! the engine**. Every skip rule below is backed by a soundness argument;
//! "when in doubt, wake" is the design rule, because a spurious wake
//! costs one recompute (usually a cache hit) while a wrong skip breaks
//! the replay-identity property.
//!
//! ## Why each skip is sound
//!
//! * **category** — a membership update of category `c` leaves every
//!   distance untouched and only changes which vertices satisfy `c`; a
//!   query that never mentions `c` evaluates identically before and
//!   after.
//! * **shard** — a removal's vertex can only matter at a *first-category*
//!   slot if some delivered witness starts there; delivered first stops
//!   are owned by the signature's shard set (refreshed on every
//!   recompute), so a removal owned elsewhere cannot hit one.
//! * **witness** — removals only remove routes. A route outside the
//!   current top-k that disappears leaves the top-k unchanged (and when
//!   fewer than `k` routes exist, *every* feasible route is delivered, so
//!   an untouched delivered set means nothing existed through that vertex
//!   slot at all).
//! * **bound** — an edge insert only changes routes that traverse it,
//!   bounded below by `dis(s, from) + w + dis(to, t)` in the *post-update*
//!   metric. If the bound exceeds the current k-th cost while a full `k`
//!   is held, nothing can enter or improve.
//! * **chain** — when that same lower bound is infinite, no route through
//!   the new edge exists at all, full `k` or not.
//!
//! A membership insert that mentions the query's category always wakes:
//! it can only add routes, and ruling them out would need the
//! category-pair lower-bound tables, which no serving path builds.
//!
//! Region-only filtering is deliberately **absent** for edge updates: the
//! routing skeleton is global and route legs cross regions freely, so "the
//! edge is in another region" proves nothing. The distance bound above is
//! the sound replacement.

use kosr_core::{IndexedGraph, Query};
use kosr_graph::{inf_add, is_finite, CategoryId, Partition, VertexId};
use kosr_service::Update;

use crate::registry::Subscription;

/// Why a woken subscription was woken — the `cause` label on
/// `kosr_sub_wakeups_total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeCause {
    /// A membership update survived every filter stage.
    Membership,
    /// An edge insert's distance bound admits a top-k change.
    Edge,
}

/// Which filter stage proved the update irrelevant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipCause {
    /// The query never mentions the touched category.
    Category,
    /// First-category removal owned by a shard outside the signature set.
    Shard,
    /// No delivered witness passes the removed member at a matching slot.
    Witness,
    /// The lower bound on routes through an inserted edge exceeds the k-th
    /// delivered cost.
    Bound,
    /// The lower bound on routes through an inserted edge is infinite: no
    /// such route exists.
    Chain,
}

impl SkipCause {
    /// Stable label (metrics / assertions).
    pub fn name(self) -> &'static str {
        match self {
            SkipCause::Category => "category",
            SkipCause::Shard => "shard",
            SkipCause::Witness => "witness",
            SkipCause::Bound => "bound",
            SkipCause::Chain => "chain",
        }
    }
}

/// The filter's verdict for one (subscription, update) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterDecision {
    /// The update may change this subscription's top-k: recompute.
    Wake(WakeCause),
    /// Provably irrelevant: zero engine work.
    Skip(SkipCause),
}

/// Classifies `update` against one subscription. `engine` supplies the
/// post-update labels for the edge stage; pass `None` when no consistent
/// local engine is available (the publish deferred somewhere, or the
/// fleet is remote) — the filter then degrades to the always-sound
/// category/shard/witness stages and wakes otherwise.
pub fn classify(
    sub: &Subscription,
    update: &Update,
    partition: &Partition,
    engine: Option<&IndexedGraph>,
) -> FilterDecision {
    match *update {
        Update::RemoveMembership { vertex, category } => {
            if !sub.signature.mentions(category) {
                return FilterDecision::Skip(SkipCause::Category);
            }
            if sub.query.categories.first() == Some(&category)
                && sub
                    .query
                    .categories
                    .iter()
                    .filter(|&&c| c == category)
                    .count()
                    == 1
                && !sub.signature.touches_shard(partition.owner(vertex))
            {
                return FilterDecision::Skip(SkipCause::Shard);
            }
            if witness_passes(&sub.query, &sub.delivered, vertex, category) {
                FilterDecision::Wake(WakeCause::Membership)
            } else {
                FilterDecision::Skip(SkipCause::Witness)
            }
        }
        Update::InsertMembership { category, .. } => {
            if !sub.signature.mentions(category) {
                return FilterDecision::Skip(SkipCause::Category);
            }
            FilterDecision::Wake(WakeCause::Membership)
        }
        Update::InsertEdge { from, to, weight } => {
            let Some(ig) = engine else {
                return FilterDecision::Wake(WakeCause::Edge);
            };
            // Any route whose cost the new edge changed traverses it, so
            // its post-update cost is at least this (post-update labels).
            let bound = inf_add(
                inf_add(ig.labels.distance(sub.query.source, from), weight),
                ig.labels.distance(to, sub.query.target),
            );
            if !is_finite(bound) {
                return FilterDecision::Skip(SkipCause::Chain);
            }
            match sub.kth_cost() {
                Some(kth) if bound > kth => FilterDecision::Skip(SkipCause::Bound),
                _ => FilterDecision::Wake(WakeCause::Edge),
            }
        }
    }
}

/// Whether any delivered witness visits `vertex` at a slot whose category
/// is `category` — the only way a removal can touch the current top-k.
fn witness_passes(
    query: &Query,
    delivered: &[kosr_core::Witness],
    vertex: VertexId,
    category: CategoryId,
) -> bool {
    delivered.iter().any(|w| {
        query
            .categories
            .iter()
            .enumerate()
            .any(|(i, &c)| c == category && w.vertices.get(i + 1) == Some(&vertex))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RelevanceSignature;
    use kosr_core::figure1::figure1;
    use kosr_core::Method;
    use kosr_graph::{PartitionConfig, Partitioner};
    use std::collections::VecDeque;

    fn world() -> (IndexedGraph, Partition, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 2,
            ..Default::default()
        })
        .partition(&ig.graph);
        (ig, partition, fx)
    }

    fn sub_for(ig: &IndexedGraph, partition: &Partition, query: Query) -> Subscription {
        let outcome = ig.run_canonical(&query, Method::Sk, u64::MAX);
        let shards: Vec<usize> = outcome
            .witnesses
            .iter()
            .map(|w| partition.owner(w.vertices[1]))
            .collect();
        Subscription {
            id: crate::SessionId(0),
            signature: RelevanceSignature::new(&query.categories, shards, 0),
            delivered: outcome.witnesses,
            epoch: 0,
            queue: VecDeque::new(),
            needs_resync: false,
            query,
        }
    }

    #[test]
    fn disjoint_category_updates_never_wake() {
        let (ig, partition, fx) = world();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 2);
        let sub = sub_for(&ig, &partition, q);
        for update in [
            Update::InsertMembership {
                vertex: fx.s,
                category: fx.ci,
            },
            Update::RemoveMembership {
                vertex: fx.t,
                category: fx.ci,
            },
        ] {
            assert_eq!(
                classify(&sub, &update, &partition, Some(&ig)),
                FilterDecision::Skip(SkipCause::Category)
            );
        }
    }

    #[test]
    fn removal_of_a_delivered_stop_wakes_and_of_a_bystander_skips() {
        let (ig, partition, fx) = world();
        // k=1: figure 1 has exactly two restaurants, so the undelivered
        // one is the bystander.
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 1);
        let sub = sub_for(&ig, &partition, q.clone());
        let delivered_restaurant = sub.delivered[0].vertices[2];
        assert_eq!(
            classify(
                &sub,
                &Update::RemoveMembership {
                    vertex: delivered_restaurant,
                    category: fx.re,
                },
                &partition,
                Some(&ig),
            ),
            FilterDecision::Wake(WakeCause::Membership)
        );
        // A restaurant no delivered route stops at: removal is invisible.
        let bystander = fx
            .graph
            .categories()
            .vertices_of(fx.re)
            .iter()
            .copied()
            .find(|&v| sub.delivered.iter().all(|w| w.vertices[2] != v))
            .expect("figure 1 has more restaurants than the top-1 uses");
        assert_eq!(
            classify(
                &sub,
                &Update::RemoveMembership {
                    vertex: bystander,
                    category: fx.re,
                },
                &partition,
                Some(&ig),
            ),
            FilterDecision::Skip(SkipCause::Witness)
        );
    }

    #[test]
    fn inserts_mentioning_the_category_wake() {
        let (ig, partition, fx) = world();
        // A full k = 1 held at an absurdly low k-th cost, and a partial
        // k = 50: either way, any insert into a category the query
        // mentions wakes the session.
        let mut full = sub_for(
            &ig,
            &partition,
            Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 1),
        );
        full.delivered[0].cost = 0;
        let partial = sub_for(
            &ig,
            &partition,
            Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 50),
        );
        assert_eq!(partial.kth_cost(), None, "fewer than k routes exist");
        for sub in [&full, &partial] {
            for v in fx.graph.vertices() {
                assert_eq!(
                    classify(
                        sub,
                        &Update::InsertMembership {
                            vertex: v,
                            category: fx.re,
                        },
                        &partition,
                        Some(&ig),
                    ),
                    FilterDecision::Wake(WakeCause::Membership),
                    "insert at {v:?}"
                );
            }
        }
    }

    #[test]
    fn edge_bound_uses_post_update_distances() {
        let (ig, partition, fx) = world();
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        let mut sub = sub_for(&ig, &partition, q);
        // Cheap k-th: an edge far off every s→t corridor bound-skips, a
        // zero-weight edge at the source cannot be bound-skipped.
        sub.delivered[0].cost = 0;
        assert_eq!(
            classify(
                &sub,
                &Update::InsertEdge {
                    from: fx.t,
                    to: fx.s,
                    weight: 1_000,
                },
                &partition,
                Some(&ig),
            ),
            FilterDecision::Skip(SkipCause::Bound)
        );
        // Without an engine the filter degrades to waking.
        assert_eq!(
            classify(
                &sub,
                &Update::InsertEdge {
                    from: fx.t,
                    to: fx.s,
                    weight: 1_000,
                },
                &partition,
                None,
            ),
            FilterDecision::Wake(WakeCause::Edge)
        );
    }
}
