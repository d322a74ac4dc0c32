//! Sample summaries: nearest-rank percentiles and the "ten samples
//! beyond" tail rule.

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=1.0`).
/// An empty slice reads as `NaN`, which the output layer reports as a
/// failed measurement rather than a zero.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free inputs; timings never produce NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Median of `values` (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// The highest of the reported tail percentiles that still has at least
/// ten samples beyond it in a sample of `n` — the tail a sample of this
/// size supports. `None` below 100 samples (not even p90 qualifies).
pub fn supported_tail(n: usize) -> Option<f64> {
    // Per-mille integers: `100 * (1.0 - 0.9)` is 9.999… in floating point.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 1000.0)
}

/// Median, a named tail, and what the sample supports.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The requested tail percentile's value.
    pub tail: f64,
    /// The tail percentile requested (e.g. `0.99`).
    pub tail_p: f64,
    /// The highest percentile with ≥ 10 samples beyond it, if any.
    pub supported: Option<f64>,
}

impl Summary {
    /// Summarises `values` (unsorted) with the named tail `tail_p`.
    pub fn of(values: &[f64], tail_p: f64) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            tail: percentile(&v, tail_p),
            tail_p,
            supported: supported_tail(v.len()),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={:.4} p{}={:.4}",
            self.n,
            self.p50,
            self.tail_p * 100.0,
            self.tail
        )?;
        match self.supported {
            Some(p) if p >= self.tail_p => Ok(()),
            Some(p) => write!(f, " (sample supports p{} only)", p * 100.0),
            None => write!(f, " (sample supports no tail)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_flags_an_unsupported_tail() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let s = Summary::of(&v, 0.99);
        assert_eq!((s.n, s.p50, s.tail), (300, 150.0, 297.0));
        assert!(s.to_string().contains("supports p95 only"), "{s}");
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert!(!Summary::of(&big, 0.99).to_string().contains("supports"));
    }
}
