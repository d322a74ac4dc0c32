//! The event journal's load-bearing guarantees, property-tested over
//! seeded emission schedules: sequence numbers are **monotone and
//! gap-free** (even under concurrent emitters), the per-severity rings
//! mean an Info flood can **never evict a Critical record**, cumulative
//! `(severity, kind)` totals account for every emission ever made, and
//! `events_since` slices are exactly the retained tail — sorted, deduped,
//! filter-faithful.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use kosr_service::{Event, EventJournal, EventKind, Severity, Source, TagValue, TraceId};

/// Deterministic xorshift64* — the same seeded-schedule idiom as the
/// fault property suites; no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A seed-chosen kind, biased ~10:1 toward Info chatter so the Critical
/// ring is under real eviction pressure from the flood.
fn random_kind(rng: &mut Rng) -> EventKind {
    if rng.below(10) == 0 {
        let critical = [
            EventKind::ReplicaDown,
            EventKind::Failover,
            EventKind::AlertFiring,
        ];
        critical[rng.below(3) as usize]
    } else {
        let noisy = [
            EventKind::UpdatePublished,
            EventKind::EpochSwap,
            EventKind::LogCompacted,
            EventKind::ReplayRecovered,
            EventKind::CursorTooOld,
            EventKind::AdmissionRejected,
        ];
        noisy[rng.below(6) as usize]
    }
}

fn random_source(rng: &mut Rng) -> Source {
    match rng.below(5) {
        0 => Source::Service,
        1 => Source::Shard(rng.below(4) as u32),
        2 => Source::Replica {
            shard: rng.below(4) as u32,
            replica: rng.below(3) as u32,
        },
        3 => Source::Supervisor,
        _ => Source::Gateway,
    }
}

fn round(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let capacity = 2 + rng.below(7) as usize;
    let journal = EventJournal::new(capacity);
    let emissions = 50 + rng.below(200) as usize;

    let mut emitted: Vec<(u64, EventKind, Severity)> = Vec::new();
    for i in 0..emissions {
        let kind = random_kind(&mut rng);
        let source = random_source(&mut rng);
        let trace = (rng.below(3) == 0).then(|| TraceId::from_parts(seed, i as u64));
        let tags = vec![("i".to_string(), TagValue::U64(i as u64))];
        let seq = journal.emit(source, kind, trace, tags);
        emitted.push((seq, kind, kind.severity()));
    }
    let label = format!("seed {seed} capacity {capacity} emissions {emissions}");

    // Gap-free monotone issue: seqs are exactly 0..emissions in order.
    let seqs: Vec<u64> = emitted.iter().map(|(s, ..)| *s).collect();
    assert_eq!(
        seqs,
        (0..emissions as u64).collect::<Vec<_>>(),
        "{label}: issued seqs must be gap-free"
    );
    assert_eq!(journal.next_seq(), emissions as u64, "{label}");

    // Cumulative totals account for every emission ever made — eviction
    // must never disturb them.
    for kind in EventKind::ALL {
        let want = emitted.iter().filter(|(_, k, _)| *k == kind).count() as u64;
        assert_eq!(journal.kind_total(kind), want, "{label}: total {kind:?}");
    }

    // Per-severity retention: each ring holds exactly the most recent
    // `capacity` events of its severity. In particular the Info flood
    // never evicts a Critical record.
    let retained = journal.recent();
    let retained_seqs: HashSet<u64> = retained.iter().map(|e| e.seq).collect();
    assert_eq!(
        retained_seqs.len(),
        retained.len(),
        "{label}: retained seqs are unique"
    );
    for sev in Severity::ALL {
        let of_sev: Vec<u64> = emitted
            .iter()
            .filter(|(_, _, s)| *s == sev)
            .map(|(s, ..)| *s)
            .collect();
        let keep: HashSet<u64> = of_sev.iter().rev().take(capacity).copied().collect();
        let have: HashSet<u64> = retained
            .iter()
            .filter(|e| e.severity == sev)
            .map(|e| e.seq)
            .collect();
        assert_eq!(
            have, keep,
            "{label}: {sev:?} ring must hold exactly its most recent {capacity}"
        );
    }
    let critical_emitted = emitted
        .iter()
        .filter(|(_, _, s)| *s == Severity::Critical)
        .count();
    let critical_retained = retained
        .iter()
        .filter(|e| e.severity == Severity::Critical)
        .count();
    assert_eq!(
        critical_retained,
        critical_emitted.min(capacity),
        "{label}: an Info flood must never evict Critical"
    );

    // events_since slices: sorted ascending, inclusive lower bound,
    // filters faithful to severity and source tier.
    let since = rng.below(emissions as u64);
    let slice = journal.events_since(since, None, None);
    assert!(
        slice.windows(2).all(|w| w[0].seq < w[1].seq),
        "{label}: slice sorted"
    );
    assert!(
        slice.iter().all(|e| e.seq >= since),
        "{label}: inclusive since_seq"
    );
    let want: HashSet<u64> = retained
        .iter()
        .filter(|e| e.seq >= since)
        .map(|e| e.seq)
        .collect();
    assert_eq!(
        slice.iter().map(|e| e.seq).collect::<HashSet<_>>(),
        want,
        "{label}: slice is exactly the retained tail"
    );
    let only_warn = journal.events_since(0, Some(Severity::Warn), None);
    assert!(
        only_warn.iter().all(|e| e.severity == Severity::Warn),
        "{label}: severity filter"
    );
    let only_supervisor = journal.events_since(0, None, Some("supervisor"));
    assert!(
        only_supervisor
            .iter()
            .all(|e| e.source.label() == "supervisor"),
        "{label}: source filter"
    );
}

#[test]
fn seeded_schedules_keep_seqs_gap_free_and_critical_retained() {
    for seed in 0..kosr_testkit::cases(6) {
        round(seed);
    }
}

/// Concurrent emitters: the single `fetch_add` issue point means seqs
/// stay collectively gap-free — every seq in `0..N*M` issued exactly
/// once — and the totals account for every thread's emissions.
#[test]
fn concurrent_emitters_never_tear_the_sequence() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let journal = Arc::new(EventJournal::new(64));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let journal = Arc::clone(&journal);
            thread::spawn(move || {
                let mut rng = Rng(0xC0FFEE ^ (t as u64) << 8);
                let mut seqs = Vec::with_capacity(PER_THREAD);
                for _ in 0..PER_THREAD {
                    let kind = random_kind(&mut rng);
                    seqs.push(journal.emit(random_source(&mut rng), kind, None, Vec::new()));
                }
                seqs
            })
        })
        .collect();
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("emitter panicked"))
        .collect();
    all.sort_unstable();
    let want: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
    assert_eq!(all, want, "every seq issued exactly once, no gaps");
    assert_eq!(journal.next_seq(), (THREADS * PER_THREAD) as u64);
    let total: u64 = EventKind::ALL.iter().map(|&k| journal.kind_total(k)).sum();
    assert_eq!(total, (THREADS * PER_THREAD) as u64, "totals reconcile");
}

/// Forwarded events are re-sequenced locally but keep their identity:
/// severity, kind, trace id and tags survive, the original seq rides in
/// `origin_seq`, and the local sequence stays gap-free across a mix of
/// local emissions and forwards.
#[test]
fn forwarding_resequences_without_losing_identity_or_gap_freedom() {
    let remote = EventJournal::new(32);
    let local = EventJournal::new(32);
    let mut rng = Rng(0xF0);
    for i in 0..20u64 {
        if rng.below(2) == 0 {
            remote.emit(
                Source::Service,
                random_kind(&mut rng),
                Some(TraceId::from_parts(7, i)),
                vec![("i".to_string(), TagValue::U64(i))],
            );
        } else {
            local.emit(Source::Supervisor, random_kind(&mut rng), None, Vec::new());
        }
    }
    let forwarded: Vec<Event> = remote.events_since(0, None, None);
    for e in &forwarded {
        local.append_forwarded(e, 3, 1);
    }
    let total = local.recent();
    let seqs: Vec<u64> = total.iter().map(|e| e.seq).collect();
    assert_eq!(
        seqs,
        (0..local.next_seq()).collect::<Vec<_>>(),
        "local journal stays gap-free across forwards"
    );
    for e in &forwarded {
        let copy = total
            .iter()
            .find(|c| {
                c.tags
                    .iter()
                    .any(|(k, v)| k == "origin_seq" && *v == TagValue::U64(e.seq))
            })
            .expect("forwarded copy present");
        assert_eq!(copy.kind, e.kind);
        assert_eq!(copy.severity, e.severity);
        assert_eq!(copy.trace_id, e.trace_id);
        assert_eq!(
            copy.source,
            Source::Replica {
                shard: 3,
                replica: 1
            }
        );
    }
}
