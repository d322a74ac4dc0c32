//! The write path's structural contract: `apply_update` installs a new
//! index *version* that shares every section the update did not touch, a
//! held snapshot keeps answering the world it was taken in, and who holds
//! snapshots never changes what an update produces.

use std::sync::Arc;

use kosr_core::{IndexedGraph, Method, Query};
use kosr_graph::{CategoryId, VertexId};
use kosr_service::{KosrService, ServiceConfig, Update};
use kosr_workloads::{assign_uniform, gen_membership_flips, road_grid_directed};

const CATEGORIES: u32 = 6;

fn world() -> IndexedGraph {
    let mut g = road_grid_directed(14, 14, 21);
    assign_uniform(&mut g, CATEGORIES as usize, 18, 33);
    IndexedGraph::build_default(g)
}

fn service(ig: &IndexedGraph) -> KosrService {
    KosrService::new(
        Arc::new(ig.clone()),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    )
}

/// `true` when category `c`'s sections — member list and inverted index —
/// are the same allocations in `a` and `b`.
fn shares_category(a: &IndexedGraph, b: &IndexedGraph, c: CategoryId) -> bool {
    std::ptr::eq(
        a.graph.categories().vertices_of(c),
        b.graph.categories().vertices_of(c),
    ) && std::ptr::eq(a.inverted.category(c), b.inverted.category(c))
}

#[test]
fn an_update_replaces_only_the_touched_categorys_sections() {
    let ig = world();
    let svc = service(&ig);
    let touched = CategoryId(2);
    let newcomer = ig
        .graph
        .vertices()
        .find(|&v| !ig.graph.categories().has_category(v, touched))
        .unwrap();
    // A query through the touched category whose answer the flip changes:
    // the newcomer sits on the source, so it becomes the free first stop.
    let far = VertexId(ig.num_vertices() as u32 - 1);
    let q = Query::new(newcomer, far, vec![touched], 3);
    let before = ig.run_canonical(&q, Method::Sk, u64::MAX);

    let held = svc.indexed_graph();
    for update in [
        Update::InsertMembership {
            vertex: newcomer,
            category: touched,
        },
        Update::RemoveMembership {
            vertex: newcomer,
            category: touched,
        },
    ] {
        let old = svc.indexed_graph();
        assert!(svc.apply_update(&update).unwrap().applied);
        let new = svc.indexed_graph();
        assert!(
            !Arc::ptr_eq(&old, &new),
            "an applied update is a new version"
        );
        assert!(Arc::ptr_eq(&old.labels, &new.labels));
        assert!(old.graph.shares_csr_with(&new.graph));
        for c in (0..CATEGORIES).map(CategoryId) {
            assert_eq!(shares_category(&old, &new, c), c != touched, "{c:?}");
        }
    }

    // The snapshot taken before both flips never changed underfoot…
    assert!(!held.graph.categories().has_category(newcomer, touched));
    assert_eq!(
        held.run_canonical(&q, Method::Sk, u64::MAX).witnesses,
        before.witnesses
    );
    // …and mid-way the served version really did answer differently.
    let mut flipped = ig.clone();
    flipped.insert_membership(newcomer, touched);
    assert_ne!(
        flipped.run_canonical(&q, Method::Sk, u64::MAX).witnesses,
        before.witnesses
    );
    // A validated no-op installs nothing.
    let current = svc.indexed_graph();
    let noop = Update::RemoveMembership {
        vertex: newcomer,
        category: touched,
    };
    assert!(!svc.apply_update(&noop).unwrap().applied);
    assert!(Arc::ptr_eq(&current, &svc.indexed_graph()));
}

#[test]
fn held_snapshots_never_change_what_an_update_sequence_produces() {
    let ig = world();
    let flips = gen_membership_flips(&ig.graph, 60, 9);
    let quiescent = service(&ig);
    let contended = service(&ig);
    let mut held = Vec::new();
    for f in &flips {
        let update = if f.insert {
            Update::InsertMembership {
                vertex: f.vertex,
                category: f.category,
            }
        } else {
            Update::RemoveMembership {
                vertex: f.vertex,
                category: f.category,
            }
        };
        let a = quiescent.apply_update(&update).unwrap();
        // Every version the contended service ever served stays pinned.
        held.push(contended.epoch_and_index());
        let b = contended.apply_update(&update).unwrap();
        assert_eq!(a, b);
    }
    assert_eq!(quiescent.index_epoch(), contended.index_epoch());
    assert_eq!(
        quiescent.indexed_graph().encode_snapshot(),
        contended.indexed_graph().encode_snapshot()
    );
    // Pinned versions are immutable: each still encodes to the bytes of
    // the epoch it was taken at (spot-check the first against the seed).
    let (epoch, first) = &held[0];
    assert_eq!(*epoch, 0);
    assert_eq!(first.encode_snapshot(), ig.encode_snapshot());
}
