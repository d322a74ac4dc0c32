//! # kosr-service
//!
//! The concurrent query-serving subsystem of the KOSR workspace: takes the
//! single-shot algorithms of `kosr-core` (Liu et al., ICDE 2018) and turns
//! them into a thread-safe engine that serves many heterogeneous sequenced-
//! route queries against **one** shared, immutable [`IndexedGraph`] — the
//! serving shape systems like *Sequenced Route Query with Semantic
//! Hierarchy* (arXiv:2009.03776) argue for.
//!
//! | piece | role |
//! |---|---|
//! | [`QueryPlanner`] / [`QueryPlan`] | picks `Method::{Kpne, Pk, Sk}` + expansion budget from k, \|C\| and category selectivity by a fixed rule: a pure function of index and query |
//! | [`ResultCache`] | canonical-key LRU over complete outcomes, with prefix (`k' < k`) truncation reuse, counters + invalidation hooks |
//! | [`KosrService`] | bounded submission queue + worker pool + admission control |
//! | [`Update`] / [`KosrService::apply_update`] | live §IV-C updates: index mutation + epoch bump + cache invalidation |
//! | [`ServiceStats`] / [`LatencyHistogram`] / [`MethodStats`] | QPS, p50/p99 end-to-end latency, cache hit rate, per-method latency |
//! | [`ServiceError`] / [`UpdateError`] | typed rejections: queue-full, deadline, invalid query/update |
//! | [`MetricsRegistry`] / [`MetricsSource`] | the one export trait + Prometheus text renderer every layer (service, shard, supervisor, gateway) surfaces counters through |
//!
//! All answers use **canonical top-k semantics**
//! ([`IndexedGraph::run_canonical`]): nondecreasing cost with
//! lexicographic tie-breaks, closed over cost-tie groups — the property
//! that makes cached results truncatable and sharded execution
//! bit-identical.
//!
//! ```
//! use std::sync::Arc;
//! use kosr_core::{figure1, IndexedGraph, Query};
//! use kosr_service::{KosrService, ServiceConfig};
//!
//! let fx = figure1::figure1();
//! let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
//! let service = KosrService::new(ig, ServiceConfig::default());
//!
//! let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
//! let resp = service.submit(q).unwrap().wait().unwrap();
//! assert_eq!(resp.outcome.costs(), vec![20, 21, 22]); // Example 1 of the paper
//! assert!(service.stats().completed >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod events;
mod executor;
mod metrics;
mod planner;
mod stats;
mod trace;
mod witness;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use error::{ServiceError, UpdateError};
pub use events::{
    Alert, AlertState, Event, EventJournal, EventKind, Severity, SloEngine, SloObjective, SloSpec,
    Source,
};
pub use executor::{
    run_sequential, KosrService, QueryResponse, ServiceConfig, Ticket, Update, UpdateReceipt,
};
pub use metrics::{validate_prometheus_text, MetricKind, MetricsRegistry, MetricsSource};
pub use planner::{PlannerConfig, QueryPlan, QueryPlanner};
pub use stats::{LatencyHistogram, MethodStats, ServiceStats};
pub use trace::{
    sample_decision, span_id_for, splitmix64, SlowQueryLog, Span, SpanId, SpanRing, TagValue,
    Trace, TraceContext, TraceId, TraceStore,
};
pub use witness::WitnessCache;

// Re-exported so service users don't need a direct kosr-core dependency
// for the common request/response types.
pub use kosr_core::{IndexedGraph, KosrOutcome, Method, Query, QueryError};
