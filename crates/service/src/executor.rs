//! The serving engine: a worker pool draining a bounded submission queue
//! against one shared, immutable [`IndexedGraph`].
//!
//! Life of a query:
//!
//! 1. **Admission** — [`KosrService::submit`] validates the query against
//!    the graph (typed rejection on bad endpoints / categories / k) and
//!    refuses when the queue is full, so overload sheds load instead of
//!    buffering unboundedly.
//! 2. **Planning** — the [`QueryPlanner`] stamps StarKOSR with an
//!    expansion budget from the query's shape.
//! 3. **Cache** — a canonicalised-key LRU returns memoised outcomes for
//!    repeat queries without touching a worker's search state.
//! 4. **Execution** — a worker runs `IndexedGraph::run_canonical_clocked`
//!    with `NoClock` (one search, no per-operation clock reads) against
//!    an epoch-stamped snapshot of the index; the outcome travels back
//!    through the ticket. End-to-end latency (queue wait included) feeds
//!    the service and per-method histograms.
//! 5. **Live updates** — [`KosrService::apply_update`] builds the next
//!    index version beside the served one (sharing every section the
//!    update does not touch), swaps it in behind an `RwLock`, bumps the
//!    index epoch, and drives the matching cache-invalidation hook;
//!    workers refuse to cache results computed against a superseded
//!    epoch, so a stale answer is never served after an update.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use kosr_core::{IndexedGraph, KosrOutcome, Method, NoClock, Query};
use kosr_graph::{CategoryId, VertexId, Weight};

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::error::{ServiceError, UpdateError};
use crate::events::{EventJournal, EventKind, Source};
use crate::planner::{QueryPlan, QueryPlanner};
use crate::stats::{method_slot, LatencyHistogram, MethodStats, ServiceStats};
use crate::trace::{span_id_for, Span, SpanRing, TagValue, TraceContext};

/// Service tunables.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. `0` means one per core.
    pub workers: usize,
    /// Submission-queue capacity; submissions beyond it get
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Planner tunables: budget, deadline and the bound toggle.
    pub planner: crate::planner::PlannerConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_capacity: 4096,
            cache_capacity: 8192,
            planner: Default::default(),
        }
    }
}

/// A successfully answered query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The routes and per-query search instrumentation.
    pub outcome: KosrOutcome,
    /// What the planner decided for this query.
    pub plan: QueryPlan,
    /// `true` when the outcome came from the result cache.
    pub cached: bool,
    /// End-to-end latency: submission to response, queue wait included.
    pub latency: Duration,
    /// Replica-side spans, populated only for sampled traced submissions
    /// (see [`KosrService::submit_traced`]); empty otherwise.
    pub spans: Vec<Span>,
}

/// A pending response: redeem with [`Ticket::wait`]. The channel-backed
/// special case of a completion (see [`KosrService::submit_with`]).
#[must_use = "a ticket must be waited on to observe the query's result"]
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<QueryResponse, ServiceError>>,
}

impl Ticket {
    /// Blocks until the query resolves.
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerLost))
    }
}

type QueryResult = Result<QueryResponse, ServiceError>;

/// What a resolved query is handed to: called exactly once, on the thread
/// that resolved it. A completion dropped unresolved (its worker died
/// mid-query) reports [`ServiceError::WorkerLost`], so a caller waiting on
/// the other end always hears back.
struct Completion(Option<Box<dyn FnOnce(QueryResult) + Send>>);

impl Completion {
    fn resolve(mut self, result: QueryResult) {
        if let Some(done) = self.0.take() {
            done(result);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(done) = self.0.take() {
            done(Err(ServiceError::WorkerLost));
        }
    }
}

/// A dynamic update routed through a live service (the paper's §IV-C
/// operations, service-side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Add `vertex` to `category` (a POI opens / gains a tag).
    InsertMembership {
        /// The vertex gaining the membership.
        vertex: VertexId,
        /// The category gaining a member.
        category: CategoryId,
    },
    /// Remove `vertex` from `category` (a POI closes / loses a tag).
    RemoveMembership {
        /// The vertex losing the membership.
        vertex: VertexId,
        /// The category losing a member.
        category: CategoryId,
    },
    /// Insert edge `(from, to)` with `weight`, or decrease an existing
    /// edge's weight to `weight` (a road opens / congestion clears).
    InsertEdge {
        /// Edge source.
        from: VertexId,
        /// Edge target.
        to: VertexId,
        /// The new weight (must be smaller than any existing weight).
        weight: Weight,
    },
}

impl Update {
    /// The category whose cached answers the update can stale, if the
    /// update is category-scoped (`None` for structural updates, which
    /// stale everything).
    pub fn touched_category(&self) -> Option<CategoryId> {
        match self {
            Update::InsertMembership { category, .. }
            | Update::RemoveMembership { category, .. } => Some(*category),
            Update::InsertEdge { .. } => None,
        }
    }
}

/// What applying an [`Update`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReceipt {
    /// `false` when the update was a validated no-op (e.g. inserting an
    /// existing membership).
    pub applied: bool,
    /// 2-hop label entries added by an [`Update::InsertEdge`] repair.
    pub label_entries_added: usize,
    /// Cached results dropped by the matching invalidation hook.
    pub invalidated: usize,
}

struct Job {
    query: Query,
    key: CacheKey,
    plan: QueryPlan,
    submitted: Instant,
    /// Set only for sampled traced submissions: the propagated context
    /// plus how long admission (validate + plan + cache probe) took, so
    /// the worker can attribute the queue wait separately.
    trace: Option<JobTrace>,
    done: Completion,
}

struct JobTrace {
    ctx: TraceContext,
    admission_us: u64,
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// The per-stage measurements one traced query accumulates replica-side.
struct StageProfile {
    admission_us: u64,
    queue_us: u64,
    cache_us: u64,
    cache_hit: bool,
    /// `(execution wall, outcome profile)` for uncached completions.
    exec: Option<(u64, ExecProfile)>,
}

/// Algorithm-level counters lifted off a [`KosrOutcome`] — the paper's
/// pruning-effectiveness evidence, per query.
struct ExecProfile {
    epoch: u64,
    pne_expansions: u64,
    dominated: u64,
    nn_queries: u64,
    heap_peak: u64,
    bound_pruned: u64,
}

/// Builds the replica-side span tree: a `replica` root parented under the
/// propagated context, with sequential `admission`/`queue`/`cache`(/
/// `execute`) stage children whose durations sum to at most the root's.
fn build_replica_spans(
    ctx: &TraceContext,
    plan: &QueryPlan,
    total_us: u64,
    stages: &StageProfile,
) -> Vec<Span> {
    let t = ctx.trace_id;
    let root_id = span_id_for(t, ctx.parent_span, 0);
    let root = Span::new(root_id, Some(ctx.parent_span), "replica", 0, total_us);
    let admission = Span::new(
        span_id_for(t, root_id, 0),
        Some(root_id),
        "admission",
        0,
        stages.admission_us.min(total_us),
    )
    .tag("method", TagValue::Str(format!("{:?}", plan.method)))
    .tag("budget", TagValue::U64(plan.examined_budget));
    let queue = Span::new(
        span_id_for(t, root_id, 1),
        Some(root_id),
        "queue",
        admission.duration_us,
        stages.queue_us.min(total_us),
    );
    let cache = Span::new(
        span_id_for(t, root_id, 2),
        Some(root_id),
        "cache",
        admission.duration_us + queue.duration_us,
        stages.cache_us.min(total_us),
    )
    .tag("hit", TagValue::Bool(stages.cache_hit));
    let mut spans = vec![root, admission, queue, cache];
    if let Some((exec_us, profile)) = &stages.exec {
        let start = spans[1].duration_us + spans[2].duration_us + spans[3].duration_us;
        spans.push(
            Span::new(
                span_id_for(t, root_id, 3),
                Some(root_id),
                "execute",
                start,
                (*exec_us).min(total_us),
            )
            .tag("method", TagValue::Str(format!("{:?}", plan.method)))
            .tag("pne_expansions", TagValue::U64(profile.pne_expansions))
            .tag("dominated", TagValue::U64(profile.dominated))
            .tag("nn_queries", TagValue::U64(profile.nn_queries))
            .tag("heap_peak", TagValue::U64(profile.heap_peak))
            .tag("bound_prunes", TagValue::U64(profile.bound_pruned))
            .tag("budget", TagValue::U64(plan.examined_budget))
            .tag("epoch", TagValue::U64(profile.epoch)),
        );
    }
    spans
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// Per-method execution counters (uncached completions only).
#[derive(Default)]
struct MethodCounter {
    completed: AtomicU64,
    latency: LatencyHistogram,
}

struct Shared {
    /// The served index version. Reads take a brief shared lock to clone
    /// the `Arc`; a writer holds the exclusive lock only to swap in a
    /// version it built beforehand.
    index: RwLock<Arc<IndexedGraph>>,
    /// Serialises writers (`apply_update`, `install_index`): each builds
    /// its version from the one its predecessor installed, so no update
    /// is lost — without making readers wait for the build.
    writer: Mutex<()>,
    /// Bumped (under the write lock) by every applied update. Workers
    /// stamp their index snapshot with it and refuse to cache results
    /// whose epoch is no longer current — the guard that makes
    /// invalidation race-free against in-flight queries.
    epoch: AtomicU64,
    planner: QueryPlanner,
    queue: Mutex<QueueState>,
    /// Signals workers that a job (or shutdown) is available.
    wake: Condvar,
    queue_capacity: usize,
    /// `cache_capacity > 0`: lets hot paths skip the cache mutex entirely
    /// when caching is disabled.
    cache_enabled: bool,
    cache: Mutex<ResultCache>,
    /// The oldest upstream update-log sequence still replayable, as told
    /// by `Compact` notices. Monotone; the transport host refuses notices
    /// that would move it backwards (a stale controller's view).
    log_head: AtomicU64,
    latency: LatencyHistogram,
    /// The replica-local lifecycle journal: epoch swaps land here (never
    /// the query hot path), and transport hosts forward it fleet-ward
    /// piggybacked on heartbeat responses.
    events: Arc<EventJournal>,
    /// The replica tier's recent-span ring: every span produced for a
    /// sampled trace also lands here for local diagnostics.
    spans: SpanRing,
    methods: [MethodCounter; 6],
    /// Total worker compute time (µs) spent executing uncached queries —
    /// the capacity signal: `busy / (window · workers)` is pool
    /// utilization, and shard schedulers use it as the scale-out critical
    /// path.
    busy_micros: AtomicU64,
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    deadline_exceeded: AtomicU64,
    budget_exhausted: AtomicU64,
    rejected_invalid: AtomicU64,
    cache_hits: AtomicU64,
    /// Queue pushes dropped because the remaining-sequence bound proved
    /// them uncompletable, summed over every executed query.
    bound_prunes: AtomicU64,
}

impl Shared {
    fn respond(&self, done: Completion, result: QueryResult) {
        match &result {
            Ok(resp) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                if resp.cached {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    let m = &self.methods[method_slot(resp.plan.method)];
                    m.completed.fetch_add(1, Ordering::Relaxed);
                    m.latency.record(resp.latency);
                }
                self.latency.record(resp.latency);
            }
            Err(ServiceError::DeadlineExceeded { .. }) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::BudgetExhausted { .. }) => {
                self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        done.resolve(result);
    }

    /// Snapshots the served index together with the epoch it belongs to.
    /// Both are read under one shared lock, so the pair is consistent.
    fn index_snapshot(&self) -> (u64, Arc<IndexedGraph>) {
        let guard = self.index.read().unwrap();
        (self.epoch.load(Ordering::Acquire), Arc::clone(&guard))
    }

    /// Builds, records (in the replica span ring) and returns the span
    /// tree of one traced job.
    fn trace_spans(
        &self,
        trace: &JobTrace,
        plan: &QueryPlan,
        total_us: u64,
        stages: StageProfile,
    ) -> Vec<Span> {
        let spans = build_replica_spans(&trace.ctx, plan, total_us, &stages);
        for s in &spans {
            self.spans.record(s.clone());
        }
        spans
    }

    fn execute(&self, job: Job) {
        let queue_us = job
            .trace
            .as_ref()
            .map(|t| elapsed_us(job.submitted).saturating_sub(t.admission_us))
            .unwrap_or(0);
        if let Some(deadline) = job.plan.deadline {
            if job.submitted.elapsed() > deadline {
                self.respond(job.done, Err(ServiceError::DeadlineExceeded { deadline }));
                return;
            }
        }

        let mut cache_us = 0;
        if self.cache_enabled {
            let probe_started = Instant::now();
            let hit = self.cache.lock().unwrap().get_prefix(&job.key);
            cache_us = elapsed_us(probe_started);
            if let Some((outcome, _)) = hit {
                let spans = match &job.trace {
                    Some(t) => self.trace_spans(
                        t,
                        &job.plan,
                        elapsed_us(job.submitted),
                        StageProfile {
                            admission_us: t.admission_us,
                            queue_us,
                            cache_us,
                            cache_hit: true,
                            exec: None,
                        },
                    ),
                    None => Vec::new(),
                };
                self.respond(
                    job.done,
                    Ok(QueryResponse {
                        outcome,
                        plan: job.plan,
                        cached: true,
                        latency: job.submitted.elapsed(),
                        spans,
                    }),
                );
                return;
            }
        }

        let (epoch, ig) = self.index_snapshot();
        let exec_started = Instant::now();
        // No bound table: served StarKOSR proves a query infeasible itself
        // (an infinite root potential, counted in `stats.bound_pruned`).
        let outcome = ig.run_canonical_clocked::<NoClock>(
            &job.query,
            job.plan.method,
            job.plan.examined_budget,
            None,
        );
        let exec_us = elapsed_us(exec_started);
        self.busy_micros.fetch_add(exec_us, Ordering::Relaxed);
        if outcome.stats.bound_pruned > 0 {
            self.bound_prunes
                .fetch_add(outcome.stats.bound_pruned, Ordering::Relaxed);
        }

        if outcome.stats.truncated {
            // The budget ran out before all k routes were found: surface a
            // typed failure rather than caching a partial answer.
            self.respond(
                job.done,
                Err(ServiceError::BudgetExhausted {
                    examined_budget: job.plan.examined_budget,
                }),
            );
            return;
        }

        if self.cache_enabled {
            let mut cache = self.cache.lock().unwrap();
            // Epoch guard: an update may have superseded the snapshot this
            // outcome was computed from *after* the invalidation hook ran;
            // caching it would resurrect a stale answer. (An insert racing
            // *ahead* of the invalidation is fine — the hook sweeps it.)
            if self.epoch.load(Ordering::Acquire) == epoch {
                cache.insert(job.key, outcome.clone());
            }
        }
        let spans = match &job.trace {
            Some(t) => self.trace_spans(
                t,
                &job.plan,
                elapsed_us(job.submitted),
                StageProfile {
                    admission_us: t.admission_us,
                    queue_us,
                    cache_us,
                    cache_hit: false,
                    exec: Some((
                        exec_us,
                        ExecProfile {
                            epoch,
                            pne_expansions: outcome.stats.examined_routes,
                            dominated: outcome.stats.dominated_routes,
                            nn_queries: outcome.stats.nn_queries,
                            heap_peak: outcome.stats.heap_peak as u64,
                            bound_pruned: outcome.stats.bound_pruned,
                        },
                    )),
                },
            ),
            None => Vec::new(),
        };
        self.respond(
            job.done,
            Ok(QueryResponse {
                outcome,
                plan: job.plan,
                cached: false,
                latency: job.submitted.elapsed(),
                spans,
            }),
        );
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutting_down {
                        return;
                    }
                    q = self.wake.wait(q).unwrap();
                }
            };
            self.execute(job);
        }
    }
}

/// A thread-safe KOSR serving engine over one shared immutable index.
///
/// Dropping the service drains outstanding work: already-queued queries
/// are answered, new submissions are refused, workers then join.
pub struct KosrService {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl KosrService {
    /// Spawns the worker pool against `ig`.
    pub fn new(ig: Arc<IndexedGraph>, config: ServiceConfig) -> KosrService {
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            index: RwLock::new(ig),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(0),
            planner: QueryPlanner::new(config.planner),
            queue: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            cache_enabled: config.cache_capacity > 0,
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            log_head: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            events: Arc::new(EventJournal::new(128)),
            spans: SpanRing::new(256),
            methods: Default::default(),
            busy_micros: AtomicU64::new(0),
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            budget_exhausted: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            bound_prunes: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("kosr-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        KosrService {
            shared,
            workers: handles,
        }
    }

    /// A point-in-time snapshot of the served index. Updates install a new
    /// version, so a held snapshot stays internally consistent (and goes
    /// stale) rather than changing underfoot; it shares every section
    /// later versions did not touch.
    pub fn indexed_graph(&self) -> Arc<IndexedGraph> {
        self.shared.index_snapshot().1
    }

    /// The index epoch: bumped by every applied [`Update`]. Snapshot +
    /// epoch pairs let callers detect staleness.
    pub fn index_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The served index together with the epoch it belongs to, read under
    /// one lock so the pair is consistent even against concurrent updates.
    /// This is what transport hosts serialize when a cold replica asks for
    /// a snapshot.
    pub fn epoch_and_index(&self) -> (u64, Arc<IndexedGraph>) {
        self.shared.index_snapshot()
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The planner's decision for `query` (what execution would do) —
    /// exposed so callers and tests can cross-check plans.
    pub fn plan(&self, query: &Query) -> QueryPlan {
        self.shared.planner.plan(query)
    }

    /// Admission control + enqueue. Returns a [`Ticket`] redeemable for the
    /// response, or a typed rejection without consuming worker time.
    pub fn submit(&self, query: Query) -> Result<Ticket, ServiceError> {
        self.submit_traced(query, None)
    }

    /// [`KosrService::submit`] with a propagated [`TraceContext`]: when the
    /// context is present and sampled, the response carries the replica's
    /// span tree (admission / queue / cache / execute with the paper's
    /// pruning counters). With `None` — the plain `submit` path — tracing
    /// costs one branch.
    pub fn submit_traced(
        &self,
        query: Query,
        ctx: Option<TraceContext>,
    ) -> Result<Ticket, ServiceError> {
        let (tx, rx) = mpsc::channel();
        // A dropped ticket just means the caller stopped listening.
        let done = move |result| drop(tx.send(result));
        self.admit(query, ctx, done).map_err(|(e, _)| e)?;
        Ok(Ticket { rx })
    }

    /// [`KosrService::submit_traced`] without the ticket: `on_done` is
    /// called exactly once with the query's result — on the submitting
    /// thread when the answer resolves at submission (a cache hit, a typed
    /// rejection), on the worker that executed the query otherwise — so a
    /// caller that only forwards the answer (a transport host writing a
    /// response frame) needs no thread of its own parked on a ticket.
    /// `on_done` can run on a pool worker: it must not block for long.
    pub fn submit_with(
        &self,
        query: Query,
        ctx: Option<TraceContext>,
        on_done: impl FnOnce(Result<QueryResponse, ServiceError>) + Send + 'static,
    ) {
        if let Err((e, on_done)) = self.admit(query, ctx, on_done) {
            on_done(Err(e));
        }
    }

    /// Admission control, then the cache, then the queue. A cache hit
    /// resolves `done` before returning; a typed rejection hands `done`
    /// back uncalled, having consumed no worker time.
    fn admit<F>(
        &self,
        query: Query,
        ctx: Option<TraceContext>,
        done: F,
    ) -> Result<(), (ServiceError, F)>
    where
        F: FnOnce(QueryResult) + Send + 'static,
    {
        let submitted = Instant::now();
        let trace = ctx.filter(|c| c.sampled);
        let ig = self.indexed_graph();
        if let Err(e) = query.validate(&ig.graph) {
            self.shared.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return Err((ServiceError::InvalidQuery(e), done));
        }
        let plan = self.shared.planner.plan(&query);
        let key = CacheKey::canonical(&query);
        let admission_us = elapsed_us(submitted);

        // Fast path: answer cache hits inline — no queue round-trip for hot
        // repeated queries. `try_lock` keeps submitters from serialising on
        // the cache mutex under contention: on a busy cache the query just
        // takes the queue path, where the worker re-checks the cache.
        if self.shared.cache_enabled {
            // `probe_prefix` (not `get_prefix`) so a cold query missed here
            // and again by the worker is charged exactly one miss in the
            // counters.
            let probe_started = Instant::now();
            let cached = match self.shared.cache.try_lock() {
                Ok(mut cache) => cache.probe_prefix(&key).map(|(outcome, _)| outcome),
                Err(_) => None,
            };
            let cache_us = elapsed_us(probe_started);
            if let Some(outcome) = cached {
                self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                let spans = match &trace {
                    Some(c) => self.shared.trace_spans(
                        &JobTrace {
                            ctx: *c,
                            admission_us,
                        },
                        &plan,
                        elapsed_us(submitted),
                        StageProfile {
                            admission_us,
                            queue_us: 0,
                            cache_us,
                            cache_hit: true,
                            exec: None,
                        },
                    ),
                    None => Vec::new(),
                };
                let resp = QueryResponse {
                    outcome,
                    plan,
                    cached: true,
                    latency: submitted.elapsed(),
                    spans,
                };
                self.shared.completed.fetch_add(1, Ordering::Relaxed);
                self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.shared.latency.record(resp.latency);
                done(Ok(resp));
                return Ok(());
            }
        }

        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.shutting_down {
                return Err((ServiceError::ShuttingDown, done));
            }
            if q.jobs.len() >= self.shared.queue_capacity {
                self.shared
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                let capacity = self.shared.queue_capacity;
                return Err((ServiceError::QueueFull { capacity }, done));
            }
            q.jobs.push_back(Job {
                query,
                key,
                plan,
                submitted,
                trace: trace.map(|ctx| JobTrace { ctx, admission_us }),
                done: Completion(Some(Box::new(done))),
            });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// The replica tier's recent-span ring (sampled traces only), oldest
    /// first — local diagnostics even when the edge assembling full traces
    /// is elsewhere.
    pub fn recent_spans(&self) -> Vec<Span> {
        self.shared.spans.recent()
    }

    /// The replica-local lifecycle journal (epoch swaps). Transport hosts
    /// drain it over the wire so the fleet journal sees remote replicas'
    /// lifecycle too.
    pub fn events(&self) -> Arc<EventJournal> {
        Arc::clone(&self.shared.events)
    }

    /// Submits a whole batch and blocks until every query resolves;
    /// responses come back in input order. Queries the queue cannot admit
    /// are reported as their rejection error in-place.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, ServiceError>> {
        let tickets: Vec<Result<Ticket, ServiceError>> =
            queries.iter().map(|q| self.submit(q.clone())).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(Ticket::wait))
            .collect()
    }

    /// Installs `next` as the served index and returns the epoch it
    /// serves under. The write lock is held for the pointer swap and the
    /// epoch bump only — workers read `(epoch, index)` under the read
    /// lock, so the pair stays atomic — and the superseded version is
    /// released after the lock (freeing it is not the readers' problem).
    fn swap_index(&self, next: Arc<IndexedGraph>) -> u64 {
        let mut guard = self.shared.index.write().expect("index lock poisoned");
        let _superseded = std::mem::replace(&mut *guard, next);
        let epoch = self.shared.epoch.fetch_add(1, Ordering::Release) + 1;
        drop(guard);
        epoch
    }

    /// Journals an index swap under the epoch the swap itself produced.
    fn emit_epoch_swap(&self, epoch: u64, reason: &str, invalidated: usize) {
        self.shared.events.emit(
            Source::Service,
            EventKind::EpochSwap,
            None,
            vec![
                ("epoch".to_string(), TagValue::U64(epoch)),
                ("reason".to_string(), TagValue::Str(reason.to_string())),
                ("invalidated".to_string(), TagValue::U64(invalidated as u64)),
            ],
        );
    }

    /// Applies a dynamic update end-to-end: installs the next version of
    /// the served index, bumps the index epoch, and drives the matching
    /// cache-invalidation hook — membership updates drop only the answers
    /// touching the category, structural updates drop everything. After
    /// `apply_update` returns, no response can ever again be served from a
    /// pre-update answer: already-cached stale entries are swept by the
    /// hook, and in-flight queries computed against the old snapshot are
    /// barred from the cache by the epoch guard (they still *answer* with
    /// the old snapshot — updates are linearised at the index swap, not at
    /// submission).
    ///
    /// There is one path, whoever holds snapshots: the next version starts
    /// as a pointer-copy clone of the current one ([`IndexedGraph`] is a
    /// struct of shared sections) and the update re-allocates only what it
    /// touches — a membership flip the touched category's sections, an
    /// edge insert the CSR, the labels it repairs incrementally and the
    /// indexes derived from them. The build runs **off** the index lock
    /// (writers queue on their own mutex), so readers never wait for it
    /// and a reader holding a snapshot costs the writer nothing.
    pub fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, UpdateError> {
        let _writer = self.shared.writer.lock().expect("writer mutex poisoned");
        let current = self.indexed_graph();
        // Validate against the current index before building anything.
        let n = current.graph.num_vertices();
        let nc = current.graph.categories().num_categories();
        let check_vertex = |v: VertexId| {
            (v.index() < n)
                .then_some(())
                .ok_or(UpdateError::VertexOutOfRange(v))
        };
        let check_membership = |v: VertexId, c: CategoryId| {
            check_vertex(v)?;
            (c.index() < nc)
                .then_some(())
                .ok_or(UpdateError::UnknownCategory(c))
        };
        let mut next = IndexedGraph::clone(&current);
        let (applied, label_entries_added) = match *update {
            Update::InsertMembership { vertex, category } => {
                check_membership(vertex, category)?;
                (next.insert_membership(vertex, category), 0)
            }
            Update::RemoveMembership { vertex, category } => {
                check_membership(vertex, category)?;
                (next.remove_membership(vertex, category), 0)
            }
            Update::InsertEdge { from, to, weight } => {
                check_vertex(from)?;
                check_vertex(to)?;
                (true, next.insert_edge(from, to, weight)?)
            }
        };
        if !applied {
            return Ok(UpdateReceipt::default());
        }
        let epoch = self.swap_index(Arc::new(next));
        let invalidated = match update.touched_category() {
            Some(c) => self.invalidate_category(c),
            None => self.invalidate_all(),
        };
        self.emit_epoch_swap(epoch, "update", invalidated);
        Ok(UpdateReceipt {
            applied,
            label_entries_added,
            invalidated,
        })
    }

    /// Replaces the served index wholesale with `ig` — the snapshot-push
    /// recovery path: a supervisor ships a fresher replica's snapshot into
    /// this one when the update-log suffix it missed has been compacted
    /// away. The swap bumps the index epoch (so in-flight queries computed
    /// against the old index are barred from the cache) and flushes every
    /// cached answer.
    pub fn install_index(&self, ig: Arc<IndexedGraph>) {
        let _writer = self.shared.writer.lock().expect("writer mutex poisoned");
        let epoch = self.swap_index(ig);
        let dropped = self.invalidate_all();
        self.emit_epoch_swap(epoch, "snapshot_install", dropped);
    }

    /// Records an upstream update-log compaction notice: entries below
    /// `through` are gone. The head is monotone — `Ok(head)` with the new
    /// (possibly unchanged) head, or `Err(current)` when `through` is
    /// *behind* the recorded head, which marks the notice's sender stale.
    pub fn advance_log_head(&self, through: u64) -> Result<u64, u64> {
        let mut current = self.shared.log_head.load(Ordering::Acquire);
        loop {
            if through < current {
                return Err(current);
            }
            match self.shared.log_head.compare_exchange_weak(
                current,
                through,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(through),
                Err(seen) => current = seen,
            }
        }
    }

    /// The recorded upstream update-log head (see
    /// [`KosrService::advance_log_head`]).
    pub fn log_head(&self) -> u64 {
        self.shared.log_head.load(Ordering::Acquire)
    }

    /// Per-method execution counters with at least one completion, in
    /// `Method::ALL` order.
    pub fn method_stats(&self) -> Vec<MethodStats> {
        Method::ALL
            .into_iter()
            .filter_map(|m| {
                let c = &self.shared.methods[method_slot(m)];
                let completed = c.completed.load(Ordering::Relaxed);
                (completed > 0).then(|| MethodStats {
                    method: m,
                    completed,
                    latency_mean: c.latency.mean(),
                    latency_p50: c.latency.quantile(0.5),
                    latency_p99: c.latency.quantile(0.99),
                })
            })
            .collect()
    }

    /// Drops every cached answer touching category `c` — the hook dynamic
    /// category updates drive (directly or through [`Self::apply_update`]).
    pub fn invalidate_category(&self, c: CategoryId) -> usize {
        self.shared.cache.lock().unwrap().invalidate_category(c)
    }

    /// Drops the whole result cache (graph-structure updates).
    pub fn invalidate_all(&self) -> usize {
        self.shared.cache.lock().unwrap().clear()
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().unwrap().stats()
    }

    /// Aggregate service health snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared;
        let window = s.started.elapsed();
        let completed = s.completed.load(Ordering::Relaxed);
        ServiceStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed,
            rejected_queue_full: s.rejected_queue_full.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
            budget_exhausted: s.budget_exhausted.load(Ordering::Relaxed),
            rejected_invalid: s.rejected_invalid.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            bound_prunes: s.bound_prunes.load(Ordering::Relaxed),
            witness_reuses: 0,
            window,
            qps: if window.as_secs_f64() > 0.0 {
                completed as f64 / window.as_secs_f64()
            } else {
                0.0
            },
            latency_mean: s.latency.mean(),
            latency_p50: s.latency.quantile(0.5),
            latency_p99: s.latency.quantile(0.99),
            latency_max: s.latency.max(),
            latency_sum: s.latency.sum(),
            latency_buckets: s.latency.cumulative_octaves(),
            busy: Duration::from_micros(s.busy_micros.load(Ordering::Relaxed)),
            cache: s.cache.lock().unwrap().stats(),
            per_method: self.method_stats(),
        }
    }
}

impl Drop for KosrService {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutting_down = true;
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Convenience: answers `queries` sequentially on the caller's thread with
/// the same planner policy and canonical top-k semantics a service would
/// use — the single-threaded baseline services (and shard routers) are
/// validated against, bit for bit.
pub fn run_sequential(
    ig: &IndexedGraph,
    planner: &QueryPlanner,
    queries: &[Query],
) -> Vec<KosrOutcome> {
    queries
        .iter()
        .map(|q| {
            let plan = planner.plan(q);
            ig.run_canonical(q, plan.method, plan.examined_budget)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;

    fn service(
        workers: usize,
        queue: usize,
        cache: usize,
    ) -> (KosrService, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        (
            KosrService::new(
                ig,
                ServiceConfig {
                    workers,
                    queue_capacity: queue,
                    cache_capacity: cache,
                    ..Default::default()
                },
            ),
            fx,
        )
    }

    fn fig1_query(fx: &kosr_core::figure1::Figure1, k: usize) -> Query {
        Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], k)
    }

    #[test]
    fn answers_figure1_through_the_pool() {
        let (svc, fx) = service(4, 64, 64);
        let resp = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert!(!resp.cached);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn submit_with_completes_on_the_thread_that_resolved_the_query() {
        let (svc, fx) = service(1, 64, 64);
        let here = thread::current().id();
        let (tx, rx) = mpsc::channel();
        let report = |tx: mpsc::Sender<_>| move |r| tx.send((thread::current().id(), r)).unwrap();

        // A miss is executed, and completed, by the pool worker.
        svc.submit_with(fig1_query(&fx, 3), None, report(tx.clone()));
        let (thread_id, resp) = rx.recv().unwrap();
        assert_ne!(thread_id, here);
        assert!(!resp.unwrap().cached);

        // A hit and a typed rejection resolve before `submit_with` returns.
        svc.submit_with(fig1_query(&fx, 3), None, report(tx.clone()));
        let (thread_id, resp) = rx.try_recv().expect("resolved at submission");
        assert_eq!(thread_id, here);
        assert!(resp.unwrap().cached);
        svc.submit_with(fig1_query(&fx, 0), None, report(tx));
        let (thread_id, resp) = rx.try_recv().expect("resolved at submission");
        assert_eq!(thread_id, here);
        assert!(matches!(resp, Err(ServiceError::InvalidQuery(_))));
    }

    #[test]
    fn repeat_queries_hit_the_cache_with_identical_routes() {
        let (svc, fx) = service(2, 64, 64);
        let first = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        let second = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(
            first
                .outcome
                .witnesses
                .iter()
                .map(|w| &w.vertices)
                .collect::<Vec<_>>(),
            second
                .outcome
                .witnesses
                .iter()
                .map(|w| &w.vertices)
                .collect::<Vec<_>>(),
        );
        assert_eq!(first.outcome.costs(), second.outcome.costs());
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_queries_rejected_at_admission() {
        let (svc, fx) = service(1, 8, 8);
        let bad = Query::new(fx.s, fx.t, vec![fx.ma], 0);
        match svc.submit(bad) {
            Err(ServiceError::InvalidQuery(kosr_core::QueryError::ZeroK)) => {}
            other => panic!("expected ZeroK rejection, got {other:?}"),
        }
        let bad_cat = Query::new(fx.s, fx.t, vec![kosr_graph::CategoryId(99)], 1);
        assert!(matches!(
            svc.submit(bad_cat),
            Err(ServiceError::InvalidQuery(
                kosr_core::QueryError::UnknownCategory(_)
            ))
        ));
        assert_eq!(svc.stats().rejected_invalid, 2);
        assert_eq!(svc.stats().submitted, 0);
    }

    #[test]
    fn batch_preserves_order_and_reports_inline_errors() {
        let (svc, fx) = service(4, 64, 0);
        let queries = vec![
            fig1_query(&fx, 1),
            Query::new(fx.s, fx.t, vec![fx.ma], 0), // invalid
            fig1_query(&fx, 3),
        ];
        let results = svc.run_batch(&queries);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().outcome.costs(), vec![20]);
        assert!(matches!(
            results[1],
            Err(ServiceError::InvalidQuery(kosr_core::QueryError::ZeroK))
        ));
        assert_eq!(
            results[2].as_ref().unwrap().outcome.costs(),
            vec![20, 21, 22]
        );
    }

    #[test]
    fn zero_deadline_times_out_in_queue() {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = KosrService::new(
            ig,
            ServiceConfig {
                workers: 1,
                planner: crate::planner::PlannerConfig {
                    deadline: Some(Duration::ZERO),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let err = svc
            .submit(fig1_query(&fx, 3))
            .unwrap()
            .wait()
            .expect_err("a zero deadline cannot be met");
        assert_eq!(
            err,
            ServiceError::DeadlineExceeded {
                deadline: Duration::ZERO
            }
        );
        assert_eq!(svc.stats().deadline_exceeded, 1);
    }

    #[test]
    fn truncated_searches_report_budget_exhausted_and_stay_uncached() {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = KosrService::new(
            ig,
            ServiceConfig {
                workers: 1,
                planner: crate::planner::PlannerConfig {
                    // One examined route cannot complete k=3.
                    expansion_per_level: 0,
                    max_examined: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let err = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap_err();
        assert!(
            matches!(err, ServiceError::BudgetExhausted { .. }),
            "{err:?}"
        );
        assert_eq!(svc.stats().budget_exhausted, 1);
        assert_eq!(svc.stats().deadline_exceeded, 0);
        assert_eq!(
            svc.cache_stats().insertions,
            0,
            "partial answers not cached"
        );
    }

    #[test]
    fn queue_full_rejects_while_workers_are_wedged() {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = KosrService::new(
            ig,
            ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                cache_capacity: 8,
                ..Default::default()
            },
        );
        // Wedge the worker: it must take the cache lock before executing
        // any job, so holding it from here freezes the drain deterministically.
        // Distinct k values keep every submission off the submit-side
        // cache fast path (all cold misses).
        let mut tickets = Vec::new();
        let mut rejected = 0;
        {
            let _wedge = svc.shared.cache.lock().unwrap();
            for k in 1..=8 {
                match svc.submit(fig1_query(&fx, k)) {
                    Ok(t) => tickets.push(t),
                    Err(ServiceError::QueueFull { capacity }) => {
                        assert_eq!(capacity, 2);
                        rejected += 1;
                    }
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        }
        // Capacity 2 + at most 1 job already claimed by the worker: at
        // least 5 of the 8 must have been shed.
        assert!(rejected >= 5, "rejected={rejected}");
        assert_eq!(svc.stats().rejected_queue_full, rejected);
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn category_invalidation_forces_recompute() {
        let (svc, fx) = service(2, 16, 16);
        let _ = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        assert_eq!(svc.cache_stats().entries, 1);
        assert_eq!(svc.invalidate_category(fx.re), 1);
        assert_eq!(svc.cache_stats().entries, 0);
        let again = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        assert!(!again.cached, "invalidated entry must be recomputed");
        assert_eq!(svc.invalidate_all(), 1);
    }

    #[test]
    fn drop_drains_and_joins() {
        let (svc, fx) = service(2, 64, 0);
        let tickets: Vec<Ticket> = (1..=4)
            .map(|k| svc.submit(fig1_query(&fx, k)).unwrap())
            .collect();
        drop(svc); // must not deadlock; queued work still answered
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().expect("queued before shutdown → answered");
            assert_eq!(resp.outcome.costs().len(), i + 1);
        }
    }

    #[test]
    fn updates_never_serve_stale_answers() {
        let (svc, fx) = service(2, 64, 64);
        let q = fig1_query(&fx, 3);
        let before = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(before.outcome.costs(), vec![20, 21, 22]);
        // The answer is now hot in the cache.
        assert!(svc.submit(q.clone()).unwrap().wait().unwrap().cached);

        // Close the restaurant the best route goes through (witness layout
        // ⟨s, ma, re, ci, t⟩ — the RE stop is position 2).
        let gone = before.outcome.witnesses[0].vertices[2];
        let receipt = svc
            .apply_update(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        assert_eq!(receipt.invalidated, 1, "the cached answer touching RE");
        assert_eq!(svc.index_epoch(), 1);

        // The next response must reflect the updated world (compare to a
        // from-scratch rebuild), and must not come from the cache.
        let mut g2 = fx.graph.clone();
        g2.categories_mut().remove(gone, fx.re);
        let fresh = IndexedGraph::build_default(g2);
        let after = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert!(!after.cached, "stale entry must have been invalidated");
        let plan = svc.plan(&q);
        let want = fresh.run_canonical(&q, plan.method, plan.examined_budget);
        assert_eq!(after.outcome.witnesses, want.witnesses);
        assert_ne!(
            after.outcome.witnesses, before.outcome.witnesses,
            "removing the best route's restaurant must change the answer"
        );

        // Reopen it: answers (and the cache) recover.
        let receipt = svc
            .apply_update(&Update::InsertMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        let back = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(back.outcome.costs(), vec![20, 21, 22]);
        // Duplicate insert: validated no-op, nothing invalidated.
        let receipt = svc
            .apply_update(&Update::InsertMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert_eq!(receipt, UpdateReceipt::default());

        // Typed rejections.
        assert_eq!(
            svc.apply_update(&Update::InsertMembership {
                vertex: VertexId(99),
                category: fx.re,
            }),
            Err(UpdateError::VertexOutOfRange(VertexId(99)))
        );
        assert_eq!(
            svc.apply_update(&Update::RemoveMembership {
                vertex: fx.s,
                category: CategoryId(77),
            }),
            Err(UpdateError::UnknownCategory(CategoryId(77)))
        );
    }

    #[test]
    fn edge_updates_flush_everything_and_change_routes() {
        let (svc, fx) = service(2, 64, 64);
        let q = fig1_query(&fx, 1);
        let before = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(before.outcome.costs(), vec![20]);

        // An expressway from s to the first mall.
        let mall = fx.graph.categories().vertices_of(fx.ma)[0];
        let receipt = svc
            .apply_update(&Update::InsertEdge {
                from: fx.s,
                to: mall,
                weight: 1,
            })
            .unwrap();
        assert!(receipt.applied);
        assert!(receipt.label_entries_added > 0);
        assert_eq!(receipt.invalidated, 1, "structural updates flush all");

        let mut b2 = fx.graph.to_builder();
        b2.add_edge(fx.s, mall, 1);
        let fresh = IndexedGraph::build_default(b2.build());
        let after = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert!(!after.cached);
        let plan = svc.plan(&q);
        assert_eq!(
            after.outcome.witnesses,
            fresh
                .run_canonical(&q, plan.method, plan.examined_budget)
                .witnesses
        );

        // Weight increases are typed rejections, not silent corruption.
        assert!(matches!(
            svc.apply_update(&Update::InsertEdge {
                from: fx.s,
                to: mall,
                weight: 50,
            }),
            Err(UpdateError::Graph(_))
        ));
    }

    #[test]
    fn smaller_k_served_by_truncating_cached_result() {
        let (svc, fx) = service(2, 64, 64);
        let big = svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        assert!(!big.cached);
        // k' < k: a cache hit by prefix truncation, bit-identical to the
        // prefix of the k=3 answer (canonical semantics guarantee it).
        let small = svc.submit(fig1_query(&fx, 2)).unwrap().wait().unwrap();
        assert!(small.cached, "prefix truncation is a cache hit");
        assert_eq!(small.outcome.witnesses[..], big.outcome.witnesses[..2]);
        assert!(svc.cache_stats().prefix_hits >= 1);
        // And it matches a from-scratch k=2 run exactly.
        let q2 = fig1_query(&fx, 2);
        let plan = svc.plan(&q2);
        let want = svc
            .indexed_graph()
            .run_canonical(&q2, plan.method, plan.examined_budget);
        assert_eq!(small.outcome.witnesses, want.witnesses);
        // k' > k still computes.
        let bigger = svc.submit(fig1_query(&fx, 4)).unwrap().wait().unwrap();
        assert!(!bigger.cached);
        assert_eq!(bigger.outcome.witnesses[..3], big.outcome.witnesses[..]);
    }

    #[test]
    fn per_method_latency_counters_accumulate() {
        let (svc, fx) = service(2, 64, 64);
        for k in 1..=3 {
            svc.submit(fig1_query(&fx, k)).unwrap().wait().unwrap();
        }
        // Repeat: cache hits must not count as method executions.
        svc.submit(fig1_query(&fx, 3)).unwrap().wait().unwrap();
        let per_method = svc.method_stats();
        let total: u64 = per_method.iter().map(|m| m.completed).sum();
        assert_eq!(total, 3, "uncached completions only: {per_method:?}");
        for m in &per_method {
            assert!(m.latency_p50 <= m.latency_p99);
        }
        let stats = svc.stats();
        assert_eq!(stats.per_method.len(), per_method.len());
        assert!(stats.to_string().contains("method"));
    }

    #[test]
    fn install_index_swaps_state_and_flushes_the_cache() {
        let (svc, fx) = service(2, 64, 64);
        let q = fig1_query(&fx, 3);
        let before = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(before.outcome.costs(), vec![20, 21, 22]);
        assert!(svc.submit(q.clone()).unwrap().wait().unwrap().cached);

        // An index where the best route's restaurant is gone.
        let gone = before.outcome.witnesses[0].vertices[2];
        let mut g2 = fx.graph.clone();
        g2.categories_mut().remove(gone, fx.re);
        let fresh = IndexedGraph::build_default(g2);
        svc.install_index(Arc::new(fresh.clone()));
        assert_eq!(svc.index_epoch(), 1, "install bumps the epoch");
        assert_eq!(svc.cache_stats().entries, 0, "install flushes the cache");

        let after = svc.submit(q.clone()).unwrap().wait().unwrap();
        assert!(!after.cached);
        let plan = svc.plan(&q);
        assert_eq!(
            after.outcome.witnesses,
            fresh
                .run_canonical(&q, plan.method, plan.examined_budget)
                .witnesses,
            "answers come from the installed index"
        );
    }

    #[test]
    fn log_head_is_monotone_with_typed_stale_rejection() {
        let (svc, _fx) = service(1, 8, 8);
        assert_eq!(svc.log_head(), 0);
        assert_eq!(svc.advance_log_head(5), Ok(5));
        assert_eq!(svc.advance_log_head(5), Ok(5), "idempotent");
        assert_eq!(svc.advance_log_head(9), Ok(9));
        assert_eq!(svc.advance_log_head(3), Err(9), "stale notices refused");
        assert_eq!(svc.log_head(), 9);
    }

    #[test]
    fn bound_pruning_is_counted_and_traced() {
        use crate::trace::TraceId;

        // Cache off so every submission actually executes.
        let (svc, fx) = service(1, 64, 0);
        let q = fig1_query(&fx, 3);
        let ctx = TraceContext::root(TraceId(7), true);
        let tag = |spans: &[Span], name: &str| -> TagValue {
            spans
                .iter()
                .find(|s| s.name == "execute")
                .expect("uncached completions carry an execute span")
                .tags
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing tag {name}"))
                .1
                .clone()
        };

        let first = svc
            .submit_traced(q.clone(), Some(ctx))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(first.outcome.costs(), vec![20, 21, 22]);
        assert_eq!(
            tag(&first.spans, "bound_prunes"),
            TagValue::U64(first.outcome.stats.bound_pruned)
        );

        // A repeat query answers bit-identically, and the service sums the
        // prunes of both executions.
        let second = svc
            .submit_traced(q.clone(), Some(ctx))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(second.outcome.witnesses, first.outcome.witnesses);
        assert_eq!(
            tag(&second.spans, "bound_prunes"),
            TagValue::U64(second.outcome.stats.bound_pruned)
        );

        let stats = svc.stats();
        assert_eq!(
            stats.bound_prunes,
            first.outcome.stats.bound_pruned + second.outcome.stats.bound_pruned
        );
        assert!(stats.to_string().contains("pruned pushes"));
    }

    #[test]
    fn infeasible_queries_are_refused_at_the_root_and_counted() {
        // 0 → 1 → 2 with A = {1}, B = {0}: nothing in B follows A.
        let mut b = kosr_graph::GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        let a = b.categories_mut().add_category("A");
        let bb = b.categories_mut().add_category("B");
        b.categories_mut().insert(VertexId(1), a);
        b.categories_mut().insert(VertexId(0), bb);
        let svc = KosrService::new(
            Arc::new(IndexedGraph::build_default(b.build())),
            ServiceConfig {
                workers: 1,
                cache_capacity: 0,
                ..Default::default()
            },
        );
        let q = Query::new(VertexId(0), VertexId(2), vec![a, bb], 3);
        let resp = svc.submit(q).unwrap().wait().unwrap();
        assert!(resp.outcome.witnesses.is_empty());
        assert_eq!(resp.outcome.stats.bound_pruned, 1);
        assert_eq!(resp.outcome.stats.examined_routes, 0);
        assert_eq!(svc.stats().bound_prunes, 1);
    }

    #[test]
    fn sequential_baseline_matches_service() {
        let (svc, fx) = service(4, 64, 64);
        let queries: Vec<Query> = (1..=3).map(|k| fig1_query(&fx, k)).collect();
        let service_out = svc.run_batch(&queries);
        let seq = run_sequential(&svc.indexed_graph(), &QueryPlanner::default(), &queries);
        for (a, b) in service_out.iter().zip(&seq) {
            let a = a.as_ref().unwrap();
            assert_eq!(a.outcome.costs(), b.costs());
            assert_eq!(
                a.outcome
                    .witnesses
                    .iter()
                    .map(|w| &w.vertices)
                    .collect::<Vec<_>>(),
                b.witnesses.iter().map(|w| &w.vertices).collect::<Vec<_>>()
            );
        }
    }
}
