//! The write path: what one §IV-C membership flip costs, layer by layer.
//!
//! Every bench applies the same closed flip pairs (insert a non-member
//! into a category, then remove it — the world is back at baseline after
//! every iteration) spread over all categories:
//!
//! * `quiescent` — [`KosrService::apply_update`] with nobody else holding
//!   the index: the floor, i.e. the inverted-index maintenance (the
//!   paper's `O(|Lin(v)|)` work on one `IL(Cᵢ)`) plus the copy-on-write of
//!   the touched category's sections. No bound tables are maintained:
//!   updates drop them.
//! * `held_snapshot` — the same applies while a reader holds a snapshot
//!   of the served index, as every in-flight query does. This is the
//!   number that must track `quiescent`: the held snapshot shares the
//!   untouched sections, so the writer never pays for a whole-index clone.
//! * `publish_2x2` — [`LiveUpdateBus::publish`] over an in-process fleet
//!   of 2 shards × 2 replicas: the log entry, the concurrent fan-out
//!   (base update everywhere, shadow companion on the owner shard) and the
//!   ordered accounting.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use kosr_core::IndexedGraph;
use kosr_graph::{CategoryId, PartitionConfig, Partitioner};
use kosr_service::{KosrService, ServiceConfig, Update};
use kosr_shard::{ShardRouter, ShardSet};
use kosr_workloads::{assign_uniform, road_grid_directed};

const CATEGORIES: usize = 16;

fn world() -> IndexedGraph {
    let mut g = road_grid_directed(40, 40, 13);
    assign_uniform(&mut g, CATEGORIES, 40, 5);
    IndexedGraph::build_default(g)
}

/// One closed flip per category: `(insert, remove)` of the first vertex
/// the category lacks.
fn flip_pairs(ig: &IndexedGraph) -> Vec<(Update, Update)> {
    (0..CATEGORIES as u32)
        .map(CategoryId)
        .map(|category| {
            let vertex = ig
                .graph
                .vertices()
                .find(|&v| !ig.graph.categories().has_category(v, category))
                .expect("a vertex outside the category");
            (
                Update::InsertMembership { vertex, category },
                Update::RemoveMembership { vertex, category },
            )
        })
        .collect()
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

fn update_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_apply");
    group.sample_size(15);

    let ig = world();
    let pairs = flip_pairs(&ig);

    let svc = service(&ig);
    group.bench_function("quiescent", |b| {
        b.iter(|| {
            for (insert, remove) in &pairs {
                svc.apply_update(insert).unwrap();
                svc.apply_update(remove).unwrap();
            }
        });
    });

    let svc = service(&ig);
    group.bench_function("held_snapshot", |b| {
        b.iter(|| {
            for (insert, remove) in &pairs {
                let held: Arc<IndexedGraph> = svc.indexed_graph();
                svc.apply_update(insert).unwrap();
                svc.apply_update(remove).unwrap();
                criterion::black_box(held.num_vertices());
            }
        });
    });

    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    let router = ShardRouter::with_replicas(
        ShardSet::build(&ig, partition),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        2,
        |_, _, t| Arc::new(t),
    );
    let bus = router.update_bus();
    group.bench_function("publish_2x2", |b| {
        b.iter(|| {
            for (insert, remove) in &pairs {
                criterion::black_box(bus.publish(insert).unwrap());
                criterion::black_box(bus.publish(remove).unwrap());
            }
        });
    });

    group.finish();
}

criterion_group!(benches, update_apply);
criterion_main!(benches);
