//! Service-level instrumentation: a lock-free log-bucketed latency
//! histogram and the aggregate [`ServiceStats`] snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::cache::CacheStats;
use kosr_core::Method;

/// Number of histogram buckets: bucket `i` covers latencies in
/// `[2^(i/SUB) µs, 2^((i+1)/SUB) µs)` at `SUB` sub-buckets per octave,
/// spanning 1 µs up to ~1.2 hours.
const BUCKETS: usize = 128;
/// Sub-buckets per factor-of-two, trading memory for quantile resolution.
const SUB: u32 = 4;

/// A fixed-memory, thread-safe latency histogram with logarithmic buckets
/// (~19% relative resolution), supporting approximate quantiles without
/// retaining per-query samples.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

fn bucket_of(micros: u64) -> usize {
    if micros == 0 {
        return 0;
    }
    // log2(micros) * SUB, computed from the bit position + linear offset
    // within the octave.
    let msb = 63 - micros.leading_zeros() as u64;
    let base = (1u64) << msb;
    let frac = (((micros - base) as u128 * SUB as u128) / base as u128) as u64; // 0..SUB
    ((msb * SUB as u64) + frac).min(BUCKETS as u64 - 1) as usize
}

/// The representative (geometric-midpoint-ish) latency of a bucket.
fn bucket_value(i: usize) -> u64 {
    let msb = i as u32 / SUB;
    let frac = i as u32 % SUB;
    let base = 1u64 << msb;
    base + (base * frac as u64) / SUB as u64
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency observation.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed) / n)
    }

    /// The largest recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`), accurate to one bucket
    /// (~19% relative error). Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_micros(bucket_value(i));
            }
        }
        self.max()
    }

    /// Total recorded latency (the Prometheus `_sum` of the histogram).
    pub fn sum(&self) -> Duration {
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed))
    }

    /// The cumulative distribution at octave boundaries, as Prometheus
    /// histogram buckets: one `(le_seconds, cumulative_count)` pair per
    /// power-of-two boundary `2^(o+1) µs` (so `2 µs, 4 µs, … ≈ 1.2 h`),
    /// counting every observation that landed strictly below the
    /// boundary. Counts are monotone nondecreasing and the final pair
    /// covers every bucket, so appending a `+Inf` bucket with
    /// [`LatencyHistogram::count`] yields a well-formed exposition.
    pub fn cumulative_octaves(&self) -> Vec<(f64, u64)> {
        let octaves = BUCKETS / SUB as usize;
        let mut out = Vec::with_capacity(octaves);
        let mut cumulative = 0u64;
        for o in 0..octaves {
            for i in (o * SUB as usize)..((o + 1) * SUB as usize) {
                cumulative += self.buckets[i].load(Ordering::Relaxed);
            }
            let le_us = (1u64 << (o + 1)) as f64;
            out.push((le_us * 1e-6, cumulative));
        }
        out
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micros.store(0, Ordering::Relaxed);
        self.max_micros.store(0, Ordering::Relaxed);
    }
}

/// The dense counter-slot index of a method in the executor's per-method
/// histograms.
pub(crate) fn method_slot(m: Method) -> usize {
    match m {
        Method::Kpne => 0,
        Method::KpneDij => 1,
        Method::Pk => 2,
        Method::PkDij => 3,
        Method::Sk => 4,
        Method::SkDij => 5,
    }
}

/// Execution counters of one served method (the planner serves only
/// `Sk`): observed per-method latency, exported through
/// [`crate::ServiceStats`] and `/metrics`. Cache hits are excluded (they
/// measure the cache, not the method).
#[derive(Clone, Copy, Debug)]
pub struct MethodStats {
    /// The method these counters describe.
    pub method: Method,
    /// Uncached completions executed with this method.
    pub completed: u64,
    /// Mean end-to-end latency of those completions.
    pub latency_mean: Duration,
    /// Median end-to-end latency.
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
}

/// A point-in-time snapshot of the service's aggregate health — the
/// serving-layer analogue of the paper's per-query `QueryStats`.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Queries accepted into the queue (admission passed).
    pub submitted: u64,
    /// Queries answered successfully (from cache or by a worker).
    pub completed: u64,
    /// Rejections with [`crate::ServiceError::QueueFull`].
    pub rejected_queue_full: u64,
    /// Failures with [`crate::ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Failures with [`crate::ServiceError::BudgetExhausted`].
    pub budget_exhausted: u64,
    /// Rejections with [`crate::ServiceError::InvalidQuery`].
    pub rejected_invalid: u64,
    /// Completions served from the result cache.
    pub cache_hits: u64,
    /// Queue pushes dropped across all executed queries because the
    /// remaining-sequence lower bound proved them uncompletable.
    pub bound_prunes: u64,
    /// Always 0. It counted hits of a cross-query cache of `SeqBounds`
    /// fragments, which is deleted: it hit 0 % on every traced workload,
    /// and each executed query now assembles its own bounds. The field
    /// stays only because the benchmark's load generator reads it; a
    /// change to the benchmark removes it.
    pub witness_reuses: u64,
    /// Wall-clock window the stats cover (since start or last reset).
    pub window: Duration,
    /// Completed queries per second over `window`.
    pub qps: f64,
    /// Mean end-to-end latency (submit → response) of completed queries.
    pub latency_mean: Duration,
    /// Median end-to-end latency.
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
    /// Largest observed end-to-end latency.
    pub latency_max: Duration,
    /// Total end-to-end latency across completed queries (the histogram's
    /// `_sum`).
    pub latency_sum: Duration,
    /// The cumulative latency distribution at octave boundaries —
    /// `(le_seconds, cumulative_count)` pairs straight from
    /// [`LatencyHistogram::cumulative_octaves`], what the Prometheus
    /// `*_bucket` export renders.
    pub latency_buckets: Vec<(f64, u64)>,
    /// Total worker compute time spent executing (uncached) queries —
    /// `busy / (window · workers)` is pool utilization, and the largest
    /// per-shard `busy` is a sharded deployment's capacity critical path.
    pub busy: Duration,
    /// Result-cache counters (hits/misses/evictions/size).
    pub cache: CacheStats,
    /// Per-method execution counters (methods with at least one uncached
    /// completion, in `Method::ALL` order).
    pub per_method: Vec<MethodStats>,
}

impl ServiceStats {
    /// Cache hit rate over completed queries, in `0.0 ..= 1.0`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.completed as f64
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} completed / {} submitted in {:.2?}  ({:.0} QPS)",
            self.completed, self.submitted, self.window, self.qps
        )?;
        writeln!(
            f,
            "latency: p50 {:?}  p99 {:?}  mean {:?}  max {:?}",
            self.latency_p50, self.latency_p99, self.latency_mean, self.latency_max
        )?;
        writeln!(
            f,
            "cache: {:.1}% hit rate ({} hits, {} misses, {} evictions, {} entries)",
            100.0 * self.cache_hit_rate(),
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries
        )?;
        writeln!(f, "bounds: {} pruned pushes", self.bound_prunes)?;
        for m in &self.per_method {
            writeln!(
                f,
                "method {:>8}: {} runs  p50 {:?}  p99 {:?}  mean {:?}",
                m.method.name(),
                m.completed,
                m.latency_p50,
                m.latency_p99,
                m.latency_mean
            )?;
        }
        write!(
            f,
            "rejected: {} queue-full, {} deadline, {} budget, {} invalid",
            self.rejected_queue_full,
            self.deadline_exceeded,
            self.budget_exhausted,
            self.rejected_invalid
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_range() {
        let mut last = 0;
        for micros in [0u64, 1, 2, 3, 7, 8, 100, 999, 1000, 1_000_000, u64::MAX] {
            let b = bucket_of(micros);
            assert!(b >= last || micros <= 1, "bucket order at {micros}");
            last = b.max(last);
            assert!(b < BUCKETS);
        }
        // Representative values map back to their own bucket once octaves
        // are wide enough to hold SUB distinct integer sub-buckets.
        for i in (2 * SUB as usize)..BUCKETS {
            let v = bucket_value(i);
            assert_eq!(bucket_of(v), i, "bucket {i} value {v} maps back");
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = LatencyHistogram::new();
        // 99 fast queries at ~1ms, one slow at ~1s.
        for _ in 0..99 {
            h.record(Duration::from_millis(1));
        }
        h.record(Duration::from_secs(1));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!(
            (Duration::from_micros(800)..Duration::from_micros(1300)).contains(&p50),
            "p50={p50:?}"
        );
        let p99 = h.quantile(0.99);
        assert!(p99 < Duration::from_millis(2), "p99 is still fast: {p99:?}");
        assert!(h.quantile(1.0) >= Duration::from_millis(900));
        assert!(h.max() >= Duration::from_secs(1));
        assert!(h.mean() >= Duration::from_millis(10));

        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn cumulative_octaves_form_a_monotone_cdf() {
        let h = LatencyHistogram::new();
        for micros in [1u64, 3, 100, 1000, 1000, 5_000_000] {
            h.record(Duration::from_micros(micros));
        }
        let buckets = h.cumulative_octaves();
        assert_eq!(buckets.len(), BUCKETS / SUB as usize);
        let mut last = 0;
        for (le, cum) in &buckets {
            assert!(*le > 0.0);
            assert!(*cum >= last, "cumulative counts never decrease");
            last = *cum;
        }
        assert_eq!(last, h.count(), "the widest bucket covers everything");
        // The 1 µs observation sits below the first (2 µs) boundary; the
        // two 1 ms observations are inside the ≤ ~2 ms boundary.
        assert_eq!(buckets[0].1, 1);
        let two_ms = buckets.iter().find(|(le, _)| *le >= 2e-3).unwrap();
        assert_eq!(two_ms.1, 5, "everything but the 5 s outlier");
        assert_eq!(h.sum(), Duration::from_micros(5_002_104));
    }

    #[test]
    fn stats_display_and_hit_rate() {
        let mut s = ServiceStats {
            submitted: 10,
            completed: 8,
            cache_hits: 2,
            ..Default::default()
        };
        s.qps = 100.0;
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("8 completed"));
        assert!(text.contains("hit rate"));
        assert_eq!(ServiceStats::default().cache_hit_rate(), 0.0);
    }
}
