//! Replica cold-start cost: how long it takes to turn a flat-arena
//! snapshot blob back into a serving `IndexedGraph`, at two world sizes.
//!
//! * `encode_v2` — serializing the index into the blob.
//! * `decode_install_v2` — one whole-length check, then bounds-checked
//!   reinterpretation of the CSR slabs; the inverted indexes travel inside
//!   the blob, so nothing is rebuilt (the lower-bound tables are not
//!   shipped: the installed index builds them only if asked).
//!
//! The keys keep their `BENCH_8.json` spelling (`_v2` was the blob's
//! format byte then; it is 3 since the bound tables left the blob) so the
//! ledger history stays comparable; the rebuild-on-install format they
//! were measured against there no longer exists.
//!
//! Worlds: `1x` is the repo's standard 16×16 grid bench world; `10x` is a
//! 50×51 grid (~10× the vertices).

use criterion::{criterion_group, criterion_main, Criterion};

use kosr_core::IndexedGraph;
use kosr_workloads::{assign_uniform, road_grid_directed};

fn world(w: u32, h: u32, seed: u64) -> IndexedGraph {
    let mut g = road_grid_directed(w, h, seed);
    assign_uniform(&mut g, 6, 20, 5);
    IndexedGraph::build_default(g)
}

fn snapshot_cold_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_cold_start");
    // Cold-start decode runs are short; a larger sample pool keeps the
    // median stable against scheduler noise (CI caps via KOSR_BENCH_SAMPLES).
    group.sample_size(30);

    for (label, w, h) in [("1x", 16u32, 16u32), ("10x", 50, 51)] {
        let ig = world(w, h, 13);
        let v2 = ig.encode_snapshot();

        group.bench_function(format!("encode_v2/{label}"), |b| {
            b.iter(|| criterion::black_box(ig.encode_snapshot()));
        });
        // `iter_with_large_drop`: installing a snapshot produces the new
        // index — tearing one down afterwards is the *previous* epoch's
        // cost, so the drop stays outside the measured window.
        group.bench_function(format!("decode_install_v2/{label}"), |b| {
            b.iter_with_large_drop(|| {
                IndexedGraph::decode_snapshot(criterion::black_box(&v2)).unwrap()
            });
        });
    }

    group.finish();
}

criterion_group!(benches, snapshot_cold_start);
criterion_main!(benches);
