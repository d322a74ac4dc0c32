//! Edge-side instrumentation: request/response counters, an end-to-end
//! latency histogram (reusing the service layer's lock-free
//! [`LatencyHistogram`]), and the [`MetricsSource`] export that puts the
//! gateway's own QPS / p50 / p99 / cache-hit-rate on `/metrics` next to
//! the fleet's counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kosr_service::{LatencyHistogram, MetricsRegistry, MetricsSource};

/// The endpoints the gateway distinguishes in its counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/route`.
    Route,
    /// `POST /v1/update`.
    Update,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `GET /v1/traces/recent` and `GET /v1/traces/{id}`.
    Traces,
    /// `GET /v1/events`.
    Events,
    /// `GET /v1/alerts`.
    Alerts,
    /// `POST /v1/subscribe`, `GET /v1/subscribe/{id}/poll` and
    /// `DELETE /v1/subscribe/{id}`.
    Subscribe,
    /// Anything else (404/405/parse failures).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 9] = [
        Endpoint::Route,
        Endpoint::Update,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Traces,
        Endpoint::Events,
        Endpoint::Alerts,
        Endpoint::Subscribe,
        Endpoint::Other,
    ];

    fn slot(self) -> usize {
        match self {
            Endpoint::Route => 0,
            Endpoint::Update => 1,
            Endpoint::Healthz => 2,
            Endpoint::Metrics => 3,
            Endpoint::Traces => 4,
            Endpoint::Events => 5,
            Endpoint::Alerts => 6,
            Endpoint::Subscribe => 7,
            Endpoint::Other => 8,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Endpoint::Route => "route",
            Endpoint::Update => "update",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Traces => "traces",
            Endpoint::Events => "events",
            Endpoint::Alerts => "alerts",
            Endpoint::Subscribe => "subscribe",
            Endpoint::Other => "other",
        }
    }
}

/// Thread-safe gateway counters. One instance per [`crate::Gateway`],
/// shared with every connection handler.
#[derive(Debug)]
pub struct GatewayStats {
    started: Instant,
    connections_accepted: AtomicU64,
    /// Connections refused at the admission gate (pool full → 503).
    connections_rejected: AtomicU64,
    requests: [AtomicU64; 9],
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Requests the HTTP parser refused (malformed head, oversized body).
    malformed: AtomicU64,
    /// Per-shard answers that came from replica result caches, over all
    /// routed queries — the edge's view of the fleet cache hit rate.
    shard_answers: AtomicU64,
    shard_cache_hits: AtomicU64,
    latency: LatencyHistogram,
}

impl Default for GatewayStats {
    fn default() -> GatewayStats {
        GatewayStats {
            started: Instant::now(),
            connections_accepted: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            requests: Default::default(),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            shard_answers: AtomicU64::new(0),
            shard_cache_hits: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }
}

impl GatewayStats {
    pub(crate) fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record(&self, endpoint: Endpoint, status: u16, latency: Duration) {
        self.requests[endpoint.slot()].fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    pub(crate) fn record_shard_answers(&self, shards: u64, cached: u64) {
        self.shard_answers.fetch_add(shards, Ordering::Relaxed);
        self.shard_cache_hits.fetch_add(cached, Ordering::Relaxed);
    }

    /// Requests served so far (all endpoints).
    pub fn requests(&self) -> u64 {
        Endpoint::ALL
            .iter()
            .map(|e| self.requests[e.slot()].load(Ordering::Relaxed))
            .sum()
    }

    /// Requests served on one endpoint.
    pub fn requests_on(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.slot()].load(Ordering::Relaxed)
    }

    /// Connections admitted into the pool so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the admission gate so far.
    pub fn connections_rejected(&self) -> u64 {
        self.connections_rejected.load(Ordering::Relaxed)
    }

    /// Responses per status class `(2xx, 4xx, 5xx)` so far.
    pub fn responses_by_class(&self) -> (u64, u64, u64) {
        (
            self.responses_2xx.load(Ordering::Relaxed),
            self.responses_4xx.load(Ordering::Relaxed),
            self.responses_5xx.load(Ordering::Relaxed),
        )
    }

    /// Requests per second over the gateway's lifetime.
    pub fn qps(&self) -> f64 {
        let window = self.started.elapsed().as_secs_f64();
        if window > 0.0 {
            self.requests() as f64 / window
        } else {
            0.0
        }
    }

    /// Shard answers served from replica caches over all routed queries,
    /// in `0.0 ..= 1.0` — the edge's fleet-wide cache hit rate.
    pub fn shard_cache_hit_rate(&self) -> f64 {
        let total = self.shard_answers.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            self.shard_cache_hits.load(Ordering::Relaxed) as f64 / total as f64
        }
    }

    /// The request latency quantile `q` (see
    /// [`LatencyHistogram::quantile`]).
    pub fn latency_quantile(&self, q: f64) -> Duration {
        self.latency.quantile(q)
    }
}

impl MetricsSource for GatewayStats {
    fn export(&self, registry: &mut MetricsRegistry) {
        for e in Endpoint::ALL {
            registry.counter(
                "kosr_gateway_requests_total",
                "HTTP requests served, per endpoint",
                &[("endpoint", e.name())],
                self.requests_on(e) as f64,
            );
        }
        let (ok, client_err, server_err) = self.responses_by_class();
        for (class, v) in [("2xx", ok), ("4xx", client_err), ("5xx", server_err)] {
            registry.counter(
                "kosr_gateway_responses_total",
                "HTTP responses, per status class",
                &[("class", class)],
                v as f64,
            );
        }
        registry.counter(
            "kosr_gateway_connections_accepted_total",
            "Connections admitted into the bounded pool",
            &[],
            self.connections_accepted() as f64,
        );
        registry.counter(
            "kosr_gateway_connections_rejected_total",
            "Connections refused 503 at the admission gate",
            &[],
            self.connections_rejected() as f64,
        );
        registry.counter(
            "kosr_gateway_malformed_requests_total",
            "Requests the HTTP parser refused",
            &[],
            self.malformed.load(Ordering::Relaxed) as f64,
        );
        registry.gauge(
            "kosr_gateway_qps",
            "HTTP requests per second over the gateway lifetime",
            &[],
            self.qps(),
        );
        registry.gauge(
            "kosr_gateway_shard_cache_hit_rate",
            "Per-shard answers served from replica caches (0..1)",
            &[],
            self.shard_cache_hit_rate(),
        );
        for (q, v) in [
            ("0.5", self.latency.quantile(0.5)),
            ("0.99", self.latency.quantile(0.99)),
            ("1", self.latency.max()),
        ] {
            registry.gauge(
                "kosr_gateway_latency_seconds",
                "End-to-end request latency quantiles in seconds",
                &[("quantile", q)],
                v.as_secs_f64(),
            );
        }
        registry.histogram(
            "kosr_gateway_latency_histogram_seconds",
            "End-to-end request latency distribution (cumulative log buckets)",
            &[],
            &self.latency.cumulative_octaves(),
            self.latency.sum().as_secs_f64(),
            self.latency.count(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_service::validate_prometheus_text;

    #[test]
    fn counters_accumulate_and_export_validly() {
        let stats = GatewayStats::default();
        stats.connection_accepted();
        stats.record(Endpoint::Route, 200, Duration::from_millis(2));
        stats.record(Endpoint::Route, 400, Duration::from_millis(1));
        stats.record(Endpoint::Metrics, 200, Duration::from_micros(300));
        stats.record(Endpoint::Other, 503, Duration::from_micros(50));
        stats.record(Endpoint::Traces, 200, Duration::from_micros(80));
        stats.record_shard_answers(4, 3);
        stats.connection_rejected();
        stats.malformed();

        assert_eq!(stats.requests(), 5);
        assert_eq!(stats.requests_on(Endpoint::Route), 2);
        assert_eq!(stats.requests_on(Endpoint::Traces), 1);
        assert_eq!(stats.responses_by_class(), (3, 1, 1));
        assert!((stats.shard_cache_hit_rate() - 0.75).abs() < 1e-9);
        assert!(stats.qps() > 0.0);
        assert!(stats.latency_quantile(0.99) >= stats.latency_quantile(0.5));

        let mut reg = MetricsRegistry::new();
        reg.collect(&stats);
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("kosr_gateway_requests_total{endpoint=\"route\"} 2"));
        assert!(text.contains("kosr_gateway_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("kosr_gateway_shard_cache_hit_rate 0.75"));
        assert!(text.contains("kosr_gateway_connections_rejected_total 1"));
        assert!(text.contains("kosr_gateway_requests_total{endpoint=\"traces\"} 1"));
        assert!(text.contains("# TYPE kosr_gateway_latency_histogram_seconds histogram"));
        assert!(text.contains("kosr_gateway_latency_histogram_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("kosr_gateway_latency_histogram_seconds_count 5"));
    }
}
