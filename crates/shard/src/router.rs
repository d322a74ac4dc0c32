//! The fan-out router, now transport-native: one [`ReplicaSet`] per shard
//! (N replicas behind [`ShardTransport`]s), query decomposition by
//! first-stop ownership, epoch-cached fan-out planning, and the
//! bounded-heap merge.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kosr_core::{KosrOutcome, Query, QueryError};
use kosr_graph::{CategoryId, Partition, PartitionStats};
use kosr_service::{
    span_id_for, EventJournal, KosrService, ServiceConfig, ServiceError, ServiceStats, SloEngine,
    SloSpec, Span, TraceContext,
};
use kosr_transport::protocol::{MemberCounts, SnapshotBlob};
use kosr_transport::{InProcTransport, ReplicaSet, ShardTransport, TransportTicket};

use crate::build::ShardSet;
use crate::bus::LiveUpdateBus;
use crate::error::ShardError;
use crate::merge::merge_topk;
use crate::observe::{ObserverRegistry, UpdateObserver};
use crate::state::{FanoutCache, UpdateLog};

/// Routes queries across the shard replica fleets and merges their answers.
///
/// Fan-out planning per query:
///
/// * empty category sequence — the route space is the single witness
///   `⟨s, t⟩`; the query goes only to the **source's owner** shard;
/// * otherwise — the query touches exactly the shards owning at least one
///   member of its **first** category, with `C₁` rewritten to that shard's
///   shadow category.
///
/// Planning reads each shard's member counts through its transport **once
/// per epoch**: reports are cached and invalidated by the update bus when
/// a membership update lands, so steady-state queries plan without any
/// control-plane round trips (the fan-out regression test counts reads).
///
/// Every touched shard runs the full `k` on one healthy replica (with
/// transparent failover to the next on connection faults —
/// [`ReplicaSet::query`]). [`ShardTicket::wait`] merges the canonical
/// streams with [`merge_topk`], so the response is bit-identical to an
/// unsharded `KosrService` run of the same query.
pub struct ShardRouter {
    shards: Vec<Arc<ReplicaSet>>,
    /// In-process service handles, per shard per replica — populated by
    /// the in-process constructors for introspection/tests, empty when the
    /// router was assembled from remote transports.
    services: Vec<Vec<Arc<KosrService>>>,
    partition: Arc<Partition>,
    base_categories: usize,
    partition_stats: PartitionStats,
    fanout: Arc<FanoutCache>,
    log: Arc<UpdateLog>,
    events: Arc<EventJournal>,
    observers: Arc<ObserverRegistry>,
    slo: Arc<SloEngine>,
}

/// A merged cross-shard response.
#[derive(Clone, Debug)]
pub struct ShardedResponse {
    /// The globally merged canonical top-k outcome.
    pub outcome: KosrOutcome,
    /// The shards the query fanned out to.
    pub shards: Vec<usize>,
    /// How many of the per-shard answers came from replica caches.
    pub cached_shards: usize,
    /// Submit → merged-response wall clock (slowest shard + merge).
    pub latency: Duration,
    /// The span forest for sampled traced submissions: one `shard` span
    /// per fanned-out shard (replica spans nested beneath) plus the
    /// `merge` span, all parented under the submitted context's span.
    /// Empty for untraced submissions.
    pub spans: Vec<Span>,
}

/// A pending cross-shard response: redeem with [`ShardTicket::wait`].
#[must_use = "a shard ticket must be waited on to observe the merged result"]
pub struct ShardTicket {
    parts: Vec<(usize, TransportTicket)>,
    k: usize,
    submitted: Instant,
    trace: Option<TraceContext>,
}

impl ShardTicket {
    /// Blocks until every touched shard answers, then merges. The first
    /// per-shard failure (rejection, or a shard with no replica left)
    /// fails the whole query — partial top-k sets cannot be proven
    /// correct.
    pub fn wait(self) -> Result<ShardedResponse, ShardError> {
        let mut shards = Vec::with_capacity(self.parts.len());
        let mut streams = Vec::with_capacity(self.parts.len());
        let mut cached_shards = 0;
        let mut spans = Vec::new();
        for (shard, ticket) in self.parts {
            let resp = ticket.wait().map_err(ShardError::from)?;
            if let Some(ctx) = &self.trace {
                // The shard span: fan-out until *this* shard's answer was
                // observed. The replica's own spans hang beneath it (the
                // child context derived in submit uses the same id).
                spans.push(Span {
                    id: shard_span_id(ctx, shard),
                    parent: Some(ctx.parent_span),
                    name: "shard".into(),
                    start_us: 0,
                    duration_us: elapsed_us(self.submitted),
                    tags: vec![
                        ("shard".into(), kosr_service::TagValue::U64(shard as u64)),
                        ("cached".into(), kosr_service::TagValue::Bool(resp.cached)),
                    ],
                });
                spans.extend(resp.spans);
            }
            shards.push(shard);
            cached_shards += resp.cached as usize;
            streams.push(resp.outcome);
        }
        let merge_started = Instant::now();
        let merge_start_us = elapsed_us(self.submitted);
        let outcome = merge_topk(streams, self.k);
        if let Some(ctx) = &self.trace {
            spans.push(Span {
                id: span_id_for(ctx.trace_id, ctx.parent_span, 0),
                parent: Some(ctx.parent_span),
                name: "merge".into(),
                start_us: merge_start_us,
                duration_us: elapsed_us(merge_started),
                tags: vec![(
                    "witnesses".into(),
                    kosr_service::TagValue::U64(outcome.witnesses.len() as u64),
                )],
            });
        }
        Ok(ShardedResponse {
            outcome,
            shards,
            cached_shards,
            latency: self.submitted.elapsed(),
            spans,
        })
    }
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// The deterministic id of shard `j`'s span under `ctx` — child index
/// `j + 1` (index 0 is the merge span), recomputable by submit and wait
/// without shared state.
fn shard_span_id(ctx: &TraceContext, j: usize) -> kosr_service::SpanId {
    span_id_for(ctx.trace_id, ctx.parent_span, j as u64 + 1)
}

impl ShardRouter {
    /// Spawns one in-process [`KosrService`] replica (with `config`) per
    /// shard of `set`, each behind the loopback wire codec.
    pub fn new(set: ShardSet, config: ServiceConfig) -> ShardRouter {
        Self::with_replicas(set, config, 1, |_, _, t| Arc::new(t))
    }

    /// Like [`ShardRouter::new`] but with `replicas` loopback replicas per
    /// shard. `wrap` sees every replica's [`InProcTransport`] before it
    /// joins the fleet — the hook fault-injection harnesses use to
    /// interpose on frames (pass `|_, _, t| Arc::new(t)` for none).
    ///
    /// All replicas of a shard start from one shared `Arc` of its indexed
    /// graph; each replica service then installs its own versions, which
    /// keep sharing every section its updates did not touch.
    pub fn with_replicas(
        set: ShardSet,
        config: ServiceConfig,
        replicas: usize,
        mut wrap: impl FnMut(usize, usize, InProcTransport) -> Arc<dyn ShardTransport>,
    ) -> ShardRouter {
        assert!(replicas >= 1, "each shard needs at least one replica");
        let (shard_graphs, partition, base_categories, partition_stats) = set.into_parts();
        let mut shards = Vec::with_capacity(shard_graphs.len());
        let mut services = Vec::with_capacity(shard_graphs.len());
        for (j, ig) in shard_graphs.into_iter().enumerate() {
            let ig = Arc::new(ig);
            let mut transports: Vec<Arc<dyn ShardTransport>> = Vec::with_capacity(replicas);
            let mut handles = Vec::with_capacity(replicas);
            for r in 0..replicas {
                let svc = Arc::new(KosrService::new(Arc::clone(&ig), config.clone()));
                handles.push(Arc::clone(&svc));
                transports.push(wrap(j, r, InProcTransport::new(svc)));
            }
            shards.push(Arc::new(ReplicaSet::new(transports)));
            services.push(handles);
        }
        Self::assemble(
            shards,
            services,
            partition,
            base_categories,
            partition_stats,
        )
    }

    /// Assembles a router over already-running replicas reached through
    /// arbitrary transports (e.g. [`kosr_transport::TcpTransport`] clients
    /// for replicas behind [`kosr_transport::TcpServer`]s). `transports[j]`
    /// holds shard `j`'s replicas; `partition`, `base_categories` and
    /// `partition_stats` describe the [`ShardSet`] the replicas were built
    /// from.
    pub fn from_transports(
        transports: Vec<Vec<Arc<dyn ShardTransport>>>,
        partition: Partition,
        base_categories: usize,
        partition_stats: PartitionStats,
    ) -> ShardRouter {
        let shards: Vec<Arc<ReplicaSet>> = transports
            .into_iter()
            .map(|ts| Arc::new(ReplicaSet::new(ts)))
            .collect();
        let services = vec![Vec::new(); shards.len()];
        Self::assemble(
            shards,
            services,
            partition,
            base_categories,
            partition_stats,
        )
    }

    fn assemble(
        shards: Vec<Arc<ReplicaSet>>,
        services: Vec<Vec<Arc<KosrService>>>,
        partition: Partition,
        base_categories: usize,
        partition_stats: PartitionStats,
    ) -> ShardRouter {
        let replicas_per_shard: Vec<usize> = shards.iter().map(|s| s.num_replicas()).collect();
        // The fleet journal: every replica set journals its health
        // transitions here, the heartbeat forwards replica-local events
        // into it, and the SLO engine journals alert transitions.
        let events = Arc::new(EventJournal::new(512));
        for (j, set) in shards.iter().enumerate() {
            set.attach_events(Arc::clone(&events), j as u32);
        }
        let slo = Arc::new(SloEngine::new(Arc::clone(&events), SloSpec::default_set()));
        ShardRouter {
            fanout: Arc::new(FanoutCache::new(shards.len())),
            log: Arc::new(UpdateLog::new(&replicas_per_shard)),
            shards,
            services,
            partition: Arc::new(partition),
            base_categories,
            partition_stats,
            events,
            observers: Arc::new(ObserverRegistry::new()),
            slo,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The vertex-ownership assignment queries are routed by.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Shard `j`'s replica fleet (health, heartbeats, failover counters).
    pub fn replica_set(&self, j: usize) -> &Arc<ReplicaSet> {
        &self.shards[j]
    }

    /// The fleet event journal: replica health transitions, supervisor
    /// recovery decisions, bus publishes, SLO alert transitions, plus
    /// replica-local events forwarded on heartbeats — what `/v1/events`
    /// serves and `kosr_events_total` counts.
    pub fn events(&self) -> &Arc<EventJournal> {
        &self.events
    }

    /// The SLO burn-rate alert engine, observed once per supervisor tick
    /// — what `/v1/alerts` serves and `kosr_alert_active` exports.
    pub fn slo(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// The in-process service of shard `j`'s replica 0.
    ///
    /// # Panics
    /// Panics when the router was assembled with
    /// [`ShardRouter::from_transports`] — remote replicas have no local
    /// service handle.
    pub fn shard_service(&self, j: usize) -> &KosrService {
        self.replica_service(j, 0)
    }

    /// The in-process service of shard `j`'s replica `r` (see
    /// [`ShardRouter::shard_service`]).
    pub fn replica_service(&self, j: usize, r: usize) -> &KosrService {
        self.services[j]
            .get(r)
            .expect("no local service handles: router was built from remote transports")
    }

    /// The in-process service of shard `j`'s replica 0, or `None` when the
    /// router was assembled from remote transports — the non-panicking
    /// sibling of [`ShardRouter::shard_service`].
    pub fn local_shard_service(&self, j: usize) -> Option<&KosrService> {
        self.services[j].first().map(Arc::as_ref)
    }

    /// The in-process services of all of shard `j`'s replicas (empty when
    /// the router was assembled from remote transports) — what metrics
    /// exporters walk for per-replica stats.
    pub fn local_replica_services(&self, j: usize) -> &[Arc<KosrService>] {
        &self.services[j]
    }

    /// The shadow id of base category `c`.
    pub fn shadow(&self, c: CategoryId) -> CategoryId {
        crate::shadow_of(self.base_categories, c)
    }

    /// A bus that routes live updates to these replica fleets (and keeps
    /// the update log this router's recovery paths replay from).
    pub fn update_bus(&self) -> LiveUpdateBus {
        LiveUpdateBus::new(
            self.shards.clone(),
            Arc::clone(&self.partition),
            self.base_categories,
            Arc::clone(&self.fanout),
            Arc::clone(&self.log),
            Arc::clone(&self.events),
            Arc::clone(&self.observers),
        )
    }

    /// Registers `observer` to see every update published through **any**
    /// bus handle of this router (see [`crate::UpdateObserver`]) — the
    /// hook the continuous-query layer attaches its invalidation filter
    /// to. Observers run on the publishing thread, post-commit, and may
    /// re-enter the router.
    pub fn register_update_observer(&self, observer: Arc<dyn UpdateObserver>) {
        self.observers.register(observer);
    }

    /// A supervisor over this router's replica fleets: heartbeats, drives
    /// recovery (replay or snapshot refresh) for quarantined replicas, and
    /// compacts the update log. Run it on its own clock with
    /// [`crate::FleetSupervisor::start`], or step it deterministically
    /// with [`crate::FleetSupervisor::tick`].
    pub fn supervisor(&self, config: crate::SupervisorConfig) -> crate::FleetSupervisor {
        // The p99 probe feeds the latency SLO from the local replica
        // services' histograms; a router assembled from remote transports
        // has none, and the probe degrades to zero (never breaching).
        let services: Vec<Arc<KosrService>> = self.services.iter().flatten().cloned().collect();
        let probe = move || {
            services
                .iter()
                .map(|s| s.stats().latency_p99)
                .max()
                .unwrap_or(Duration::ZERO)
        };
        crate::FleetSupervisor::new(
            self.shards.clone(),
            self.update_bus(),
            config,
            Arc::clone(&self.events),
            Arc::clone(&self.slo),
            Box::new(probe),
        )
    }

    /// Shard `j`'s current member-count report, via the per-epoch cache.
    fn counts(&self, j: usize) -> Result<Arc<MemberCounts>, ShardError> {
        self.fanout
            .get(j, &self.shards[j])
            .map_err(ShardError::from)
    }

    /// Transport reads fan-out planning has performed (cache misses). The
    /// regression suite asserts this stays at one read per shard per
    /// membership epoch, however many queries are planned.
    pub fn fanout_reads(&self) -> u64 {
        self.fanout.reads()
    }

    /// Always 0. It counted planned shards skipped because their
    /// category-chain bound proved them empty; the skip needed a local
    /// engine, which TCP fleets do not have, and served StarKOSR refuses
    /// an infeasible query at its root potential anyway, so the skip was
    /// deleted. The method stays because loadgen's trace report reads it
    /// (`shard.bound_skips`, ROADMAP 9f).
    pub fn bound_skips(&self) -> u64 {
        0
    }

    /// The shards `query` must touch (see the type-level docs). Served
    /// from the epoch-scoped count cache; the transports are only read on
    /// a cache miss.
    pub fn plan_fanout(&self, query: &Query) -> Result<Vec<usize>, ShardError> {
        let Some(&c1) = query.categories.first() else {
            return Ok(vec![self.partition.owner(query.source)]);
        };
        let shadow = self.shadow(c1);
        let mut targets = Vec::new();
        for j in 0..self.shards.len() {
            let mc = self.counts(j)?;
            if mc.counts.get(shadow.index()).copied().unwrap_or(0) > 0 {
                targets.push(j);
            }
        }
        Ok(targets)
    }

    /// Validates `query` against the replicated base category data (read
    /// from the count cache, in the same order an unsharded service's
    /// validation would report), then submits the shadow-rewritten query
    /// to every planned shard.
    pub fn submit(&self, query: Query) -> Result<ShardTicket, ShardError> {
        self.submit_traced(query, None)
    }

    /// [`ShardRouter::submit`] carrying a trace context: each shard's
    /// replica receives a child context parented under that shard's span,
    /// and [`ShardTicket::wait`] returns the assembled span forest on the
    /// response. An unsampled (or absent) context is the plain path.
    pub fn submit_traced(
        &self,
        query: Query,
        ctx: Option<TraceContext>,
    ) -> Result<ShardTicket, ShardError> {
        let ctx = ctx.filter(|c| c.sampled);
        let submitted = Instant::now();
        // Replica graphs know extra internal shadow categories; clients
        // speak base ids only. Reject out-of-base ids *before* anything
        // else (replica-side validation would accept a shadow id),
        // matching what an unsharded service over the base graph does.
        for &c in &query.categories {
            if c.index() >= self.base_categories {
                return Err(ShardError::Service(ServiceError::InvalidQuery(
                    QueryError::UnknownCategory(c),
                )));
            }
        }
        // Base categories are replicated, so shard 0's report validates
        // for the whole fleet. Check order mirrors `Query::validate`.
        let base = self.counts(0)?;
        let invalid = |e: QueryError| ShardError::Service(ServiceError::InvalidQuery(e));
        let n = base.num_vertices as usize;
        if query.source.index() >= n {
            return Err(invalid(QueryError::SourceOutOfRange(query.source)));
        }
        if query.target.index() >= n {
            return Err(invalid(QueryError::TargetOutOfRange(query.target)));
        }
        if query.k == 0 {
            return Err(invalid(QueryError::ZeroK));
        }
        for &c in &query.categories {
            if base.counts.get(c.index()).copied().unwrap_or(0) == 0 {
                return Err(invalid(QueryError::EmptyCategory(c)));
            }
        }
        let targets = self.plan_fanout(&query)?;
        if targets.is_empty() {
            // Validation saw C1 non-empty, but a concurrent bus update
            // emptied it between the cache reads. Serialize the query
            // after the update: the same rejection an unsharded service
            // would give for the post-update world.
            let c1 = query.categories[0];
            return Err(invalid(QueryError::EmptyCategory(c1)));
        }
        let k = query.k;
        let mut parts = Vec::with_capacity(targets.len());
        for &j in &targets {
            let mut q = query.clone();
            if let Some(c1) = q.categories.first_mut() {
                *c1 = self.shadow(*c1);
            }
            // The replica's spans parent under this shard's span, whose id
            // is derived (not stored): wait() recomputes it.
            let child = ctx.map(|c| TraceContext {
                trace_id: c.trace_id,
                parent_span: shard_span_id(&c, j),
                sampled: true,
            });
            parts.push((j, self.shards[j].query_traced(q, child)));
        }
        Ok(ShardTicket {
            parts,
            k,
            submitted,
            trace: ctx,
        })
    }

    /// Submits a whole batch and blocks until every query resolves;
    /// responses come back in input order, rejections reported in-place.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Result<ShardedResponse, ShardError>> {
        let tickets: Vec<Result<ShardTicket, ShardError>> =
            queries.iter().map(|q| self.submit(q.clone())).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(ShardTicket::wait))
            .collect()
    }

    /// Pulls a snapshot of shard `j` from one of its healthy replicas,
    /// together with an update-log cursor it is consistent with. Install
    /// the blob with [`ShardRouter::install_replica`] and recover through
    /// the bus to bring a cold replica into the fleet.
    ///
    /// The cursor is the log's *settled* tail (no publish in flight),
    /// captured *before* the pull, and the log is **not** held across the
    /// (potentially slow, network-bound) transfer, so publishes proceed
    /// concurrently. That is safe because the invariant runs one way
    /// only: a healthy replica has applied at least the captured prefix,
    /// so the blob's state can only be *ahead* of the
    /// cursor — and [`LiveUpdateBus::recover`]'s replay is idempotent
    /// against already-contained updates (set-operation memberships;
    /// `WeightNotDecreased` edge inserts counted as applied), converging
    /// in log order regardless.
    pub fn snapshot_shard(&self, j: usize) -> Result<(usize, SnapshotBlob), ShardError> {
        let cursor = self.log.settled_tail();
        let blob = self.shards[j]
            .call_with_failover(|t| t.snapshot())
            .map_err(ShardError::from)?;
        Ok((cursor, blob))
    }

    /// Installs `transport` as shard `j`'s replica `r` — a freshly started
    /// replica whose state reflects the first `applied_through` log
    /// entries (from [`ShardRouter::snapshot_shard`]). The slot stays
    /// `Down` until [`LiveUpdateBus::recover`] replays the missing suffix
    /// and marks it healthy.
    pub fn install_replica(
        &self,
        j: usize,
        r: usize,
        transport: Arc<dyn ShardTransport>,
        applied_through: usize,
    ) {
        let _publishing = self.log.publisher();
        self.shards[j].install(r, transport);
        self.log.state().cursors[j][r] = applied_through;
    }

    /// Per-shard service health snapshots (replica 0 of each shard; see
    /// [`ShardRouter::shard_service`] for the in-process requirement).
    pub fn per_shard_stats(&self) -> Vec<ServiceStats> {
        (0..self.num_shards())
            .map(|j| self.shard_service(j).stats())
            .collect()
    }

    /// Partition quality against the base graph, captured at build time
    /// (replica graphs carry shadow memberships and would double-count).
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.partition_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_core::IndexedGraph;
    use kosr_graph::{PartitionConfig, Partitioner};
    use kosr_service::QueryError;

    fn router_with(shards: usize, replicas: usize) -> (ShardRouter, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: shards,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        (
            ShardRouter::with_replicas(
                set,
                ServiceConfig {
                    workers: 2,
                    ..Default::default()
                },
                replicas,
                |_, _, t| Arc::new(t),
            ),
            fx,
        )
    }

    fn router(shards: usize) -> (ShardRouter, kosr_core::figure1::Figure1) {
        router_with(shards, 1)
    }

    #[test]
    fn figure1_answers_survive_sharding() {
        for shards in [1, 2, 3, 4] {
            let (router, fx) = router(shards);
            let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
            let resp = router.submit(q).unwrap().wait().unwrap();
            assert_eq!(resp.outcome.costs(), vec![20, 21, 22], "{shards} shards");
            assert!(!resp.shards.is_empty());
            assert!(resp.shards.len() <= shards);
        }
    }

    #[test]
    fn figure1_answers_survive_replication() {
        let (router, fx) = router_with(2, 3);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = router.submit(q).unwrap().wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        for j in 0..router.num_shards() {
            assert_eq!(router.replica_set(j).num_replicas(), 3);
        }
    }

    #[test]
    fn fanout_skips_shards_without_first_category_members() {
        let (router, fx) = router(3);
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 2);
        let fanout = router.plan_fanout(&q).unwrap();
        // MA has two members; at most two shards can own one.
        assert!(!fanout.is_empty() && fanout.len() <= 2, "{fanout:?}");
        for &j in &fanout {
            let svc = router.shard_service(j);
            assert!(
                svc.indexed_graph()
                    .inverted
                    .members_of(router.shadow(fx.ma))
                    > 0
            );
        }
    }

    #[test]
    fn empty_category_queries_route_to_source_owner_only() {
        let (router, fx) = router(3);
        let q = Query::new(fx.s, fx.t, vec![], 2);
        assert_eq!(
            router.plan_fanout(&q).unwrap(),
            vec![router.partition().owner(fx.s)]
        );
        let resp = router.submit(q).unwrap().wait().unwrap();
        // The only witness is ⟨s, t⟩.
        assert_eq!(resp.outcome.witnesses.len(), 1);
        assert_eq!(resp.shards.len(), 1);
    }

    #[test]
    fn invalid_queries_rejected_before_fanout() {
        let (router, fx) = router(2);
        assert!(matches!(
            router.submit(Query::new(fx.s, fx.t, vec![fx.ma], 0)),
            Err(ShardError::Service(ServiceError::InvalidQuery(
                QueryError::ZeroK
            )))
        ));
        assert!(matches!(
            router.submit(Query::new(fx.s, fx.t, vec![CategoryId(40)], 1)),
            Err(ShardError::Service(ServiceError::InvalidQuery(
                QueryError::UnknownCategory(_)
            )))
        ));
        // Shadow ids are internal: a client naming one is rejected exactly
        // like any unknown category, even though replica graphs know it.
        assert!(matches!(
            router.submit(Query::new(fx.s, fx.t, vec![router.shadow(fx.ma)], 1)),
            Err(ShardError::Service(ServiceError::InvalidQuery(
                QueryError::UnknownCategory(_)
            )))
        ));
        let stats = router.per_shard_stats();
        assert!(stats.iter().all(|s| s.submitted == 0));
    }

    #[test]
    fn batch_matches_singles_and_caches_warm_per_shard() {
        let (router, fx) = router(2);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let queries = vec![q.clone(), q.clone(), q];
        let out = router.run_batch(&queries);
        assert_eq!(out.len(), 3);
        let first = out[0].as_ref().unwrap();
        let last = out[2].as_ref().unwrap();
        assert_eq!(first.outcome.witnesses, last.outcome.witnesses);
        // Repeats are served from the replica caches.
        assert_eq!(last.cached_shards, last.shards.len());
    }

    #[test]
    fn fanout_planning_reads_counts_once_per_membership_epoch() {
        let (router, fx) = router(3);
        assert_eq!(router.fanout_reads(), 0);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 2);
        for _ in 0..10 {
            router.submit(q.clone()).unwrap().wait().unwrap();
        }
        // One report per shard, however many queries were planned.
        let shards = router.num_shards() as u64;
        assert_eq!(router.fanout_reads(), shards, "reads must be cached");

        // A membership update invalidates: exactly one more read per shard.
        let bus = router.update_bus();
        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        bus.publish(&kosr_service::Update::RemoveMembership {
            vertex: gone,
            category: fx.re,
        })
        .unwrap();
        for _ in 0..5 {
            router.submit(q.clone()).unwrap().wait().unwrap();
        }
        assert_eq!(router.fanout_reads(), 2 * shards);

        // Edge updates leave member counts untouched: no re-read.
        let mall = fx.graph.categories().vertices_of(fx.ma)[0];
        bus.publish(&kosr_service::Update::InsertEdge {
            from: fx.s,
            to: mall,
            weight: 1,
        })
        .unwrap();
        router.submit(q).unwrap().wait().unwrap();
        assert_eq!(
            router.fanout_reads(),
            2 * shards,
            "edge updates keep the cache"
        );
    }

    #[test]
    fn traced_submissions_return_a_complete_span_forest() {
        let (router, fx) = router(3);
        let trace_id = kosr_service::TraceId(0x1234);
        let ctx = TraceContext::root(trace_id, true);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = router
            .submit_traced(q.clone(), Some(ctx))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);

        let shard_spans: Vec<&Span> = resp.spans.iter().filter(|s| s.name == "shard").collect();
        assert_eq!(shard_spans.len(), resp.shards.len());
        for s in &shard_spans {
            assert_eq!(s.parent, Some(ctx.parent_span));
        }
        assert!(resp.spans.iter().any(|s| s.name == "merge"));
        // Every replica root hangs under its shard span.
        let replica_roots: Vec<&Span> = resp.spans.iter().filter(|s| s.name == "replica").collect();
        assert_eq!(replica_roots.len(), resp.shards.len());
        for root in replica_roots {
            assert!(
                shard_spans.iter().any(|s| Some(s.id) == root.parent),
                "orphan replica root: {root:?}"
            );
        }
        // Execute spans carry the paper's pruning counters.
        assert!(resp
            .spans
            .iter()
            .filter(|s| s.name == "execute")
            .all(|s| s.tag_value("pne_expansions").is_some()));

        // Untraced (or unsampled) submissions carry no spans at all.
        let plain = router.submit(q.clone()).unwrap().wait().unwrap();
        assert!(plain.spans.is_empty());
        let unsampled = TraceContext::root(trace_id, false);
        let resp = router
            .submit_traced(q, Some(unsampled))
            .unwrap()
            .wait()
            .unwrap();
        assert!(resp.spans.is_empty());
    }

    /// Two directed components: `0 → 1 → 2` (shard 0) and `3 → 4 → 5`
    /// (shard 1). `C1 = {1, 4}`, `C2 = {2}`: from 2 no C1 member is
    /// reachable, so `s = 0, t = 2, C = ⟨C2, C1⟩` has no route at all,
    /// though both shards own a C1 member.
    #[test]
    fn infeasible_sequences_merge_to_the_empty_outcome() {
        use kosr_graph::{GraphBuilder, VertexId};
        let mut b = GraphBuilder::new(6);
        b.add_edge(VertexId(0), VertexId(1), 5);
        b.add_edge(VertexId(1), VertexId(2), 7);
        b.add_edge(VertexId(3), VertexId(4), 1);
        b.add_edge(VertexId(4), VertexId(5), 1);
        let c1 = b.categories_mut().add_category("C1");
        let c2 = b.categories_mut().add_category("C2");
        b.categories_mut().insert(VertexId(1), c1);
        b.categories_mut().insert(VertexId(4), c1);
        b.categories_mut().insert(VertexId(2), c2);
        let ig = IndexedGraph::build_default(b.build());
        let partition = kosr_graph::Partition::from_owner(vec![0, 0, 0, 1, 1, 1], 2);
        let set = ShardSet::build(&ig, partition);
        let router = ShardRouter::with_replicas(
            set,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            1,
            |_, _, t| Arc::new(t),
        );
        let q = Query::new(VertexId(0), VertexId(2), vec![c2, c1], 2);
        let resp = router.submit(q.clone()).unwrap().wait().unwrap();
        assert!(resp.outcome.witnesses.is_empty());
        // Every planned shard is queried and answers empty.
        assert_eq!(resp.shards, router.plan_fanout(&q).unwrap());
        assert!(ig
            .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
            .costs()
            .is_empty());
    }

    #[test]
    fn queries_survive_replica_kills_via_failover() {
        let fx = figure1();
        let ig = IndexedGraph::build_default(fx.graph.clone());
        let partition = Partitioner::new(PartitionConfig {
            num_shards: 2,
            ..Default::default()
        })
        .partition(&ig.graph);
        let set = ShardSet::build(&ig, partition);
        let mut switches = Vec::new();
        let router = ShardRouter::with_replicas(
            set,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            2,
            |_, _, t| {
                switches.push(t.kill_switch());
                Arc::new(t)
            },
        );
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        assert_eq!(
            router
                .submit(q.clone())
                .unwrap()
                .wait()
                .unwrap()
                .outcome
                .costs(),
            vec![20, 21, 22]
        );
        // Kill replica 0 of every shard: failover hides it.
        for s in switches.iter().step_by(2) {
            s.kill();
        }
        let resp = router.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert!(router.replica_set(0).failovers() + router.replica_set(1).failovers() > 0);
        // Kill everything: typed transport failure.
        for s in &switches {
            s.kill();
        }
        let err = router.submit(q).unwrap().wait().unwrap_err();
        assert!(matches!(err, ShardError::Transport(_)), "{err:?}");
    }
}
