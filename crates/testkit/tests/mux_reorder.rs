//! Mux-reordering property suite: seed-deterministic [`MuxFaultPlan`]
//! delivery schedules — permuted order, duplicates, stray ids — driven
//! against the transport's demultiplexing core, proving that interleaved
//! request ids never misdeliver a response however the frames arrive.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use kosr_testkit::{MuxEvent, MuxFaultPlan};
use kosr_transport::mux::DemuxTable;
use kosr_transport::protocol::{Heartbeat, Response};

fn pong(epoch: u64) -> Response {
    Response::Pong {
        heartbeat: Heartbeat { epoch },
        next_seq: 0,
        events: Vec::new(),
    }
}

fn epoch_of(resp: Response) -> u64 {
    match resp {
        Response::Pong { heartbeat, .. } => heartbeat.epoch,
        other => panic!("not a pong: {other:?}"),
    }
}

#[test]
fn plans_are_deterministic_per_seed_and_cover_every_request() {
    let a = MuxFaultPlan::generate(11, 50, 200, 150);
    let b = MuxFaultPlan::generate(11, 50, 200, 150);
    assert_eq!(a.events(), b.events());
    let c = MuxFaultPlan::generate(12, 50, 200, 150);
    assert_ne!(a.events(), c.events(), "different seed, different schedule");

    // Every request is delivered exactly once (duplicates are extra).
    let mut delivered = vec![0usize; 50];
    for e in a.events() {
        if let MuxEvent::Deliver(i) = e {
            delivered[*i] += 1;
        }
    }
    assert!(delivered.iter().all(|&n| n == 1));
    assert!(a.len() >= 50);
    assert!(MuxFaultPlan::generate(1, 0, 500, 500).is_empty());
}

/// The acceptance property: across seeds, any plan's delivery order —
/// with duplicates and strays interleaved, applied from another thread —
/// completes every slot with exactly its own response.
#[test]
fn reordered_interleaved_ids_never_misdeliver() {
    for seed in 0..kosr_testkit::cases(24).max(8) {
        let n = 1 + (seed as usize * 7) % 48;
        let plan = MuxFaultPlan::generate(seed, n, 250, 250);
        let table = Arc::new(DemuxTable::new());
        // Sparse ids, so stray ids and off-by-one bugs cannot alias.
        let id_of = |i: usize| (i as u64) * 5 + 2;
        let completions: Vec<_> = (0..n).map(|i| table.register(id_of(i))).collect();

        let delivery = Arc::clone(&table);
        let events = plan.events().to_vec();
        let deliverer = thread::spawn(move || {
            let mut discarded = 0u64;
            for e in events {
                let routed = match e {
                    MuxEvent::Deliver(i) | MuxEvent::Duplicate(i) => {
                        delivery.complete(id_of(i), Ok(pong(id_of(i))))
                    }
                    MuxEvent::Stray(id) => delivery.complete(id, Ok(pong(id))),
                };
                if !routed {
                    discarded += 1;
                }
            }
            discarded
        });

        for (i, completion) in completions.into_iter().enumerate() {
            let resp = completion
                .wait(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} failed: {e}"));
            assert_eq!(
                epoch_of(resp),
                id_of(i),
                "seed {seed}: request {i} got someone else's response"
            );
        }
        let discarded = deliverer.join().unwrap();
        assert_eq!(
            discarded as usize,
            plan.len() - n,
            "seed {seed}: every duplicate/stray discarded, every delivery routed"
        );
        assert_eq!(table.pending(), 0, "seed {seed}");
    }
}
