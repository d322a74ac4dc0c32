//! Cross-shard top-k merging under the canonical tie-break.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kosr_core::KosrOutcome;
use kosr_graph::{VertexId, Weight};

/// Merges per-shard canonical top-k streams into the global canonical
/// top-k with a **bounded heap**: the heap never holds more than one
/// cursor per stream, so merging `S` shards costs `O((S + k) log S)`
/// regardless of stream lengths.
///
/// Correctness rests on two invariants the shard layer maintains:
///
/// * each stream is canonically ordered (nondecreasing cost, lexicographic
///   tie-break — `Witness::canonical_cmp`), and
/// * streams enumerate **disjoint** route subspaces (first-stop ownership),
///   so no witness appears twice.
///
/// Under those, the first `k` pops are exactly the canonical top-k of the
/// union — bit-identical to an unsharded canonical run.
///
/// Per-query instrumentation is aggregated: additive counters sum across
/// shards, `heap_peak` takes the max, per-level counts add element-wise,
/// and `time.total` takes the max (shards run in parallel; the merged
/// total reports the critical path).
pub fn merge_topk(streams: Vec<KosrOutcome>, k: usize) -> KosrOutcome {
    // Cursor heap keyed by the canonical order; the stream index breaks
    // (impossible, but cheap) exact key collisions deterministically.
    type Key = (Weight, Vec<VertexId>, usize, usize);
    let mut heap: BinaryHeap<Reverse<Key>> = streams
        .iter()
        .enumerate()
        .filter_map(|(si, s)| {
            let w = s.witnesses.first()?;
            Some(Reverse((w.cost, w.vertices.clone(), si, 0)))
        })
        .collect();

    let mut witnesses = Vec::with_capacity(k.min(64));
    while witnesses.len() < k {
        let Some(Reverse((_, _, si, pos))) = heap.pop() else {
            break;
        };
        witnesses.push(streams[si].witnesses[pos].clone());
        if let Some(w) = streams[si].witnesses.get(pos + 1) {
            heap.push(Reverse((w.cost, w.vertices.clone(), si, pos + 1)));
        }
    }

    let mut stats = kosr_core::QueryStats::default();
    for s in &streams {
        stats.examined_routes += s.stats.examined_routes;
        stats.nn_queries += s.stats.nn_queries;
        stats.dominated_routes += s.stats.dominated_routes;
        stats.reconsidered_routes += s.stats.reconsidered_routes;
        stats.bound_pruned += s.stats.bound_pruned;
        stats.heap_peak = stats.heap_peak.max(s.stats.heap_peak);
        stats.truncated |= s.stats.truncated;
        if stats.examined_per_level.len() < s.stats.examined_per_level.len() {
            stats
                .examined_per_level
                .resize(s.stats.examined_per_level.len(), 0);
        }
        for (acc, &x) in stats
            .examined_per_level
            .iter_mut()
            .zip(&s.stats.examined_per_level)
        {
            *acc += x;
        }
        stats.time.total = stats.time.total.max(s.stats.time.total);
        stats.time.nn += s.stats.time.nn;
        stats.time.queue += s.stats.time.queue;
        stats.time.estimation += s.stats.time.estimation;
    }
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::Witness;

    fn w(cost: Weight, tail: u32) -> Witness {
        Witness {
            vertices: vec![VertexId(0), VertexId(tail), VertexId(9)],
            cost,
        }
    }

    fn stream(ws: Vec<Witness>) -> KosrOutcome {
        KosrOutcome {
            witnesses: ws,
            stats: Default::default(),
        }
    }

    #[test]
    fn merges_by_cost_then_lexicographic() {
        let a = stream(vec![w(5, 3), w(7, 1)]);
        let b = stream(vec![w(5, 2), w(6, 8)]);
        let out = merge_topk(vec![a, b], 3);
        assert_eq!(out.costs(), vec![5, 5, 6]);
        // Cost-5 tie: vertex tuple [0,2,9] sorts before [0,3,9].
        assert_eq!(out.witnesses[0].vertices[1], VertexId(2));
        assert_eq!(out.witnesses[1].vertices[1], VertexId(3));
    }

    #[test]
    fn equals_sorted_union_on_many_streams() {
        let streams: Vec<KosrOutcome> = (0..5)
            .map(|s| {
                stream(
                    (0..4)
                        .map(|i| w((i * 7 + s * 3) % 13, (s * 10 + i) as u32))
                        .collect(),
                )
            })
            .collect();
        // Canonicalise each stream first (the shard invariant).
        let streams: Vec<KosrOutcome> = streams
            .into_iter()
            .map(|mut s| {
                s.witnesses.sort_by(|x, y| x.canonical_cmp(y));
                s
            })
            .collect();
        let mut union: Vec<Witness> = streams
            .iter()
            .flat_map(|s| s.witnesses.iter().cloned())
            .collect();
        union.sort_by(|x, y| x.canonical_cmp(y));
        for k in [1, 3, 8, 20, 50] {
            let merged = merge_topk(streams.clone(), k);
            assert_eq!(merged.witnesses[..], union[..k.min(union.len())]);
        }
    }

    #[test]
    fn aggregates_stats_and_handles_empty_streams() {
        let mut a = stream(vec![w(1, 1)]);
        a.stats.examined_routes = 10;
        a.stats.heap_peak = 7;
        a.stats.bound_pruned = 3;
        let mut b = stream(vec![]);
        b.stats.examined_routes = 4;
        b.stats.heap_peak = 9;
        b.stats.truncated = true;
        b.stats.bound_pruned = 2;
        let out = merge_topk(vec![a, b], 5);
        assert_eq!(out.costs(), vec![1]);
        assert_eq!(out.stats.examined_routes, 14);
        assert_eq!(out.stats.bound_pruned, 5);
        assert_eq!(out.stats.heap_peak, 9);
        assert!(out.stats.truncated);
        assert!(merge_topk(vec![], 3).witnesses.is_empty());
    }
}
