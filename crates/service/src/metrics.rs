//! The fleet-wide metrics surface: one [`MetricsSource`] trait every
//! serving layer exports its counters through, a [`MetricsRegistry`] that
//! collects samples and renders the Prometheus text exposition format, and
//! a [`validate_prometheus_text`] checker the format tests (and the
//! gateway's `/metrics` suite) run against rendered output.
//!
//! Before this module each layer grew an ad-hoc snapshot struct
//! ([`ServiceStats`], shard replica health vectors, the supervisor's
//! report) with its own display logic; an edge that wants one `/metrics`
//! page had to know all of them. Now a source implements
//!
//! ```ignore
//! impl MetricsSource for MyLayer {
//!     fn export(&self, registry: &mut MetricsRegistry) { ... }
//! }
//! ```
//!
//! and the edge just walks its sources. Snapshot structs stay — they are
//! the programmatic API — but the *export* path is this one trait.

use std::fmt::Write as _;
use std::time::Duration;

use crate::stats::ServiceStats;

/// What a metric family measures, in Prometheus terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically nondecreasing (resets only on restart).
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A cumulative distribution: `name_bucket{le="…"}` samples plus
    /// `name_sum` / `name_count`, emitted via
    /// [`MetricsRegistry::histogram`].
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
struct Sample {
    /// Appended to the family name on the sample line — `"_bucket"`,
    /// `"_sum"`, `"_count"` for histogram series, empty otherwise.
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// Collects metric samples from any number of [`MetricsSource`]s and
/// renders them in the Prometheus text exposition format (version 0.0.4).
///
/// Families are keyed by metric name: the first registration of a name
/// fixes its `# HELP`/`# TYPE` header, later samples under the same name
/// append to the family (this is how per-shard sources emit one family
/// with a `shard` label per sample).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

/// `true` iff `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` iff `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`, not starting with `__`).
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    !name.starts_with("__") && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn escape_help(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one sample. The first call for a `name` fixes its help text
    /// and kind; mismatched re-registrations keep the original header (the
    /// sample still lands in the family).
    ///
    /// # Panics
    /// Panics on an invalid metric or label name — metric names are
    /// compile-time constants in every source, so a bad one is a bug, not
    /// an input.
    pub fn sample(
        &mut self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let family = match self.families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                self.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    samples: Vec::new(),
                });
                self.families.last_mut().unwrap()
            }
        };
        family.samples.push(Sample {
            suffix: "",
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    /// Records a full histogram family: one `name_bucket{le="…"}` sample
    /// per `(upper_bound, cumulative_count)` pair in `buckets`, a closing
    /// `le="+Inf"` bucket at `count`, and the `name_sum` / `name_count`
    /// series — the real Prometheus histogram shape, not quantile gauges.
    /// `buckets` must be cumulative and sorted by upper bound (as
    /// [`crate::LatencyHistogram::cumulative_octaves`] returns them).
    ///
    /// # Panics
    /// Panics on invalid metric/label names, like
    /// [`MetricsRegistry::sample`].
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[(f64, u64)],
        sum: f64,
        count: u64,
    ) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let family = match self.families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                self.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind: MetricKind::Histogram,
                    samples: Vec::new(),
                });
                self.families.last_mut().unwrap()
            }
        };
        let base: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut bucket = |le: String, value: f64| {
            let mut labels = base.clone();
            labels.push(("le".to_string(), le));
            family.samples.push(Sample {
                suffix: "_bucket",
                labels,
                value,
            });
        };
        for &(le, cumulative) in buckets {
            bucket(format!("{le}"), cumulative as f64);
        }
        bucket("+Inf".to_string(), count as f64);
        family.samples.push(Sample {
            suffix: "_sum",
            labels: base.clone(),
            value: sum,
        });
        family.samples.push(Sample {
            suffix: "_count",
            labels: base,
            value: count as f64,
        });
    }

    /// Records a counter sample (see [`MetricsRegistry::sample`]).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.sample(name, MetricKind::Counter, help, labels, value);
    }

    /// Records a gauge sample (see [`MetricsRegistry::sample`]).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.sample(name, MetricKind::Gauge, help, labels, value);
    }

    /// Collects everything `source` exports into this registry.
    pub fn collect(&mut self, source: &dyn MetricsSource) {
        source.export(self);
    }

    /// Number of metric families registered so far.
    pub fn num_families(&self) -> usize {
        self.families.len()
    }

    /// Renders the Prometheus text exposition format: `# HELP` / `# TYPE`
    /// headers followed by one `name{labels} value` line per sample,
    /// terminated by a newline. [`validate_prometheus_text`] accepts every
    /// rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            out.push_str("# HELP ");
            out.push_str(&f.name);
            out.push(' ');
            escape_help(&f.help, &mut out);
            out.push('\n');
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            for s in &f.samples {
                out.push_str(&f.name);
                out.push_str(s.suffix);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(k);
                        out.push_str("=\"");
                        escape_label_value(v, &mut out);
                        out.push('"');
                    }
                    out.push('}');
                }
                out.push(' ');
                if s.value.is_nan() {
                    out.push_str("NaN");
                } else if s.value == f64::INFINITY {
                    out.push_str("+Inf");
                } else if s.value == f64::NEG_INFINITY {
                    out.push_str("-Inf");
                } else {
                    let _ = write!(out, "{}", s.value);
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Anything that can export its counters into a [`MetricsRegistry`] — the
/// one export trait the service, shard, supervisor and gateway layers all
/// implement instead of each growing its own snapshot-to-text path.
pub trait MetricsSource {
    /// Appends this source's current samples to `registry`.
    fn export(&self, registry: &mut MetricsRegistry);
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl ServiceStats {
    /// Exports this snapshot's counters under the `kosr_service_*` metric
    /// names, tagging every sample with `labels` (a sharded deployment
    /// passes `[("shard", "3")]` so one family carries all replicas).
    pub fn export_labeled(&self, registry: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let mut l: Vec<(&str, &str)> = labels.to_vec();
        registry.counter(
            "kosr_service_submitted_total",
            "Queries accepted into the submission queue",
            &l,
            self.submitted as f64,
        );
        registry.counter(
            "kosr_service_completed_total",
            "Queries answered successfully (cache or worker)",
            &l,
            self.completed as f64,
        );
        registry.counter(
            "kosr_service_rejected_queue_full_total",
            "Rejections because the submission queue was full",
            &l,
            self.rejected_queue_full as f64,
        );
        registry.counter(
            "kosr_service_deadline_exceeded_total",
            "Queries failed by their deadline",
            &l,
            self.deadline_exceeded as f64,
        );
        registry.counter(
            "kosr_service_budget_exhausted_total",
            "Queries that exhausted their expansion budget",
            &l,
            self.budget_exhausted as f64,
        );
        registry.counter(
            "kosr_service_rejected_invalid_total",
            "Queries rejected at validation",
            &l,
            self.rejected_invalid as f64,
        );
        registry.counter(
            "kosr_service_cache_hits_total",
            "Completions served from the result cache",
            &l,
            self.cache_hits as f64,
        );
        registry.counter(
            "kosr_prune_bound_total",
            "Queue pushes dropped by the remaining-sequence lower bound",
            &l,
            self.bound_prunes as f64,
        );
        registry.gauge(
            "kosr_service_qps",
            "Completed queries per second over the stats window",
            &l,
            self.qps,
        );
        registry.gauge(
            "kosr_service_cache_hit_rate",
            "Cache hits over completed queries (0..1)",
            &l,
            self.cache_hit_rate(),
        );
        registry.gauge(
            "kosr_service_cache_entries",
            "Result-cache entries currently held",
            &l,
            self.cache.entries as f64,
        );
        registry.counter(
            "kosr_service_cache_evictions_total",
            "Result-cache evictions",
            &l,
            self.cache.evictions as f64,
        );
        registry.counter(
            "kosr_service_busy_seconds_total",
            "Worker compute time spent executing uncached queries",
            &l,
            secs(self.busy),
        );
        const LAT_HELP: &str = "End-to-end query latency quantiles in seconds";
        for (q, v) in [
            ("0.5", self.latency_p50),
            ("0.99", self.latency_p99),
            ("1", self.latency_max),
        ] {
            l.push(("quantile", q));
            registry.gauge("kosr_service_latency_seconds", LAT_HELP, &l, secs(v));
            l.pop();
        }
        // The real histogram family next to the quantile gauges: snapshots
        // built by hand (no bucket data) simply omit it.
        if let Some(&(_, total)) = self.latency_buckets.last() {
            registry.histogram(
                "kosr_service_latency_histogram_seconds",
                "End-to-end query latency distribution (cumulative log buckets)",
                labels,
                &self.latency_buckets,
                secs(self.latency_sum),
                total,
            );
        }
        for m in &self.per_method {
            l.push(("method", m.method.name()));
            registry.counter(
                "kosr_service_method_completed_total",
                "Uncached completions per planner method",
                &l,
                m.completed as f64,
            );
            registry.gauge(
                "kosr_service_method_latency_p99_seconds",
                "Per-method p99 end-to-end latency in seconds",
                &l,
                secs(m.latency_p99),
            );
            l.pop();
        }
    }
}

impl MetricsSource for crate::KosrService {
    fn export(&self, registry: &mut MetricsRegistry) {
        self.stats().export_labeled(registry, &[]);
        registry.gauge(
            "kosr_service_index_epoch",
            "Index epoch (bumped by every applied update)",
            &[],
            self.index_epoch() as f64,
        );
        registry.gauge(
            "kosr_service_workers",
            "Worker threads in the pool",
            &[],
            self.num_workers() as f64,
        );
    }
}

/// Checks that `text` is well-formed Prometheus text exposition format:
/// every line is a `# HELP`, a `# TYPE` naming `counter`/`gauge`, or a
/// `name{labels} value` sample whose name was declared by a preceding
/// `# TYPE`, with valid names, balanced/escaped label quoting, and a
/// parseable value. Returns the first offense as `Err`.
///
/// This is the checker the `/metrics` acceptance tests run — deliberately
/// strict about structure, not a full PromQL-compatible parser.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut typed: Vec<String> = Vec::new();
    let mut histograms: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (keyword, rest) = rest
                .split_once(' ')
                .ok_or(format!("line {n}: bare comment"))?;
            match keyword {
                "HELP" => {
                    let name = rest.split(' ').next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: HELP for invalid name {name:?}"));
                    }
                }
                "TYPE" => {
                    let mut parts = rest.splitn(2, ' ');
                    let name = parts.next().unwrap_or("");
                    let kind = parts.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: TYPE for invalid name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {kind:?}"));
                    }
                    typed.push(name.to_string());
                    if kind == "histogram" {
                        histograms.push(name.to_string());
                    }
                }
                other => return Err(format!("line {n}: unknown comment keyword {other:?}")),
            }
            continue;
        }
        // A sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or(format!("line {n}: no value on sample line"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid sample name {name:?}"));
        }
        if !typed.iter().any(|t| t == name) {
            // Histogram families declare the *base* name; their series
            // carry the `_bucket`/`_sum`/`_count` suffixes.
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"));
            match base {
                Some(b) if histograms.iter().any(|h| h == b) => {
                    if name.ends_with("_bucket") && !line.contains("le=\"") {
                        return Err(format!("line {n}: histogram bucket without an le label"));
                    }
                }
                _ => return Err(format!("line {n}: sample {name:?} has no preceding TYPE")),
            }
        }
        let mut rest = &line[name_end..];
        if let Some(inner) = rest.strip_prefix('{') {
            let close =
                find_unescaped_brace(inner).ok_or(format!("line {n}: unterminated label block"))?;
            let labels = &inner[..close];
            validate_labels(labels).map_err(|e| format!("line {n}: {e}"))?;
            rest = &inner[close + 1..];
        }
        let value = rest.trim_start();
        if !(value == "NaN" || value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok()) {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
    }
    Ok(())
}

/// Index of the `}` closing a label block, skipping braces inside quoted
/// label values.
fn find_unescaped_brace(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn validate_labels(labels: &str) -> Result<(), String> {
    if labels.is_empty() {
        return Err("empty label block".into());
    }
    // Split on commas outside quotes.
    let mut in_quotes = false;
    let mut escaped = false;
    let mut start = 0;
    let mut pairs = Vec::new();
    for (i, c) in labels.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&labels[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_quotes {
        return Err("unterminated label value".into());
    }
    pairs.push(&labels[start..]);
    for p in pairs {
        let (k, v) = p.split_once('=').ok_or(format!("label {p:?} has no ="))?;
        if !valid_label_name(k) {
            return Err(format!("invalid label name {k:?}"));
        }
        if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
            return Err(format!("label value {v:?} not quoted"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KosrService, ServiceConfig};
    use kosr_core::figure1::figure1;
    use kosr_core::{IndexedGraph, Query};
    use std::sync::Arc;

    #[test]
    fn render_is_valid_and_groups_families() {
        let mut reg = MetricsRegistry::new();
        reg.counter("demo_total", "a demo counter", &[], 3.0);
        reg.counter("demo_total", "ignored later help", &[("shard", "1")], 4.0);
        reg.gauge(
            "demo_ratio",
            "with \"quotes\" and \\slashes\nand newlines",
            &[("kind", "a\"b\\c\nd")],
            0.25,
        );
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert_eq!(reg.num_families(), 2, "same-name samples share a family");
        assert!(text.contains("# TYPE demo_total counter"));
        assert!(text.contains("demo_total{shard=\"1\"} 4"));
        assert!(text.contains("demo_ratio{kind=\"a\\\"b\\\\c\\nd\"} 0.25"));
        // One TYPE header per family, however many samples.
        assert_eq!(text.matches("# TYPE demo_total").count(), 1);
    }

    #[test]
    fn histograms_render_bucket_sum_count_series() {
        let h = crate::LatencyHistogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(5));
        let mut reg = MetricsRegistry::new();
        reg.histogram(
            "demo_seconds",
            "a demo histogram",
            &[("shard", "0")],
            &h.cumulative_octaves(),
            h.sum().as_secs_f64(),
            h.count(),
        );
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("# TYPE demo_seconds histogram"));
        assert!(text.contains("demo_seconds_bucket{shard=\"0\",le=\"0.000002\"} 0"));
        assert!(text.contains("demo_seconds_bucket{shard=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("demo_seconds_sum{shard=\"0\"} 0.005003"));
        assert!(text.contains("demo_seconds_count{shard=\"0\"} 2"));
        // Cumulative bucket values never decrease down the exposition.
        let mut last = 0.0;
        for line in text
            .lines()
            .filter(|l| l.starts_with("demo_seconds_bucket"))
        {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "monotone buckets: {line}");
            last = v;
        }
    }

    #[test]
    fn validator_understands_histogram_suffixes() {
        let ok = "# TYPE demo histogram\ndemo_bucket{le=\"+Inf\"} 2\ndemo_sum 0.1\ndemo_count 2\n";
        validate_prometheus_text(ok).unwrap();
        // A bucket without an le label is malformed…
        assert!(validate_prometheus_text("# TYPE demo histogram\ndemo_bucket 2\n").is_err());
        // …and the suffixes only attach to a declared histogram family.
        assert!(
            validate_prometheus_text("# TYPE demo counter\ndemo_bucket{le=\"1\"} 2\n").is_err()
        );
        assert!(validate_prometheus_text("# TYPE other histogram\ndemo_sum 1\n").is_err());
    }

    #[test]
    fn special_values_render_and_validate() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("weird", "special floats", &[("v", "nan")], f64::NAN);
        reg.gauge("weird", "special floats", &[("v", "inf")], f64::INFINITY);
        reg.gauge(
            "weird",
            "special floats",
            &[("v", "ninf")],
            f64::NEG_INFINITY,
        );
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("NaN") && text.contains("+Inf") && text.contains("-Inf"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_names_are_bugs() {
        MetricsRegistry::new().counter("kosr-bad-name", "dashes are invalid", &[], 1.0);
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (text, why) in [
            ("", "empty"),
            ("demo 1", "missing trailing newline"),
            ("demo 1\n", "no TYPE header"),
            ("# TYPE demo counter\ndemo one\n", "unparseable value"),
            ("# TYPE demo counter\ndemo{a=1} 2\n", "unquoted label"),
            ("# TYPE demo widget\ndemo 1\n", "unknown type"),
            ("# TYPE demo counter\ndemo{a=\"x} 2\n", "unterminated label"),
            ("# NOTE demo counter\n", "unknown keyword"),
        ] {
            assert!(validate_prometheus_text(text).is_err(), "{why}: {text:?}");
        }
    }

    #[test]
    fn service_exports_through_the_trait() {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = KosrService::new(
            ig,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        svc.submit(q.clone()).unwrap().wait().unwrap();
        svc.submit(q).unwrap().wait().unwrap(); // cache hit

        let mut reg = MetricsRegistry::new();
        reg.collect(&svc);
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("kosr_service_completed_total 2"));
        assert!(text.contains("kosr_service_cache_hits_total 1"));
        assert!(text.contains("kosr_service_cache_hit_rate 0.5"));
        assert!(text.contains("kosr_service_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("# TYPE kosr_service_latency_histogram_seconds histogram"));
        assert!(text.contains("kosr_service_latency_histogram_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("kosr_service_latency_histogram_seconds_count 2"));
        assert!(text.contains("kosr_service_method_completed_total{method="));
        assert!(text.contains("kosr_service_qps"));
        assert!(text.contains("kosr_prune_bound_total"));
    }

    #[test]
    fn labeled_export_tags_every_sample() {
        let stats = ServiceStats {
            submitted: 7,
            completed: 5,
            ..Default::default()
        };
        let mut reg = MetricsRegistry::new();
        stats.export_labeled(&mut reg, &[("shard", "2")]);
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("kosr_service_submitted_total{shard=\"2\"} 7"));
        assert!(!text.contains("kosr_service_submitted_total 7"));
    }
}
