//! The four workloads: each is a world (graph + categories), the request
//! streams drawn for it from the seed through `kosr-workloads`, and the
//! ordered list of phases the end-to-end run drives. The fleet is always
//! the shipped one — 2 shards × 2 replicas over loopback TCP, supervisor
//! running, gateway in front, every config at its default.
//!
//! The world is the workload's *dataset* and does not change with
//! `--seed`, as the paper's road networks do not change between its
//! query batches: one grid in ten happens to be a third slower than the
//! rest, which no run length averages out. The seed draws the traffic —
//! which templates exist and which are hot, the flips, the standing
//! sessions, the arrival order.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kosr_core::{IndexedGraph, Query};
use kosr_gateway::{Gateway, GatewayConfig};
use kosr_graph::{CategoryId, Graph, VertexId};
use kosr_hoplabel::HubOrder;
use kosr_service::{KosrService, ServiceConfig, Update};
use kosr_shard::{
    PartitionConfig, Partitioner, ShardRouter, ShardSet, ShardTransport, SupervisorConfig,
    SupervisorHandle,
};
use kosr_transport::{TcpServer, TcpTransport};
use kosr_workloads::{
    assign_uniform, assign_zipf, gen_membership_flips, gen_mixed_traffic, gen_queries,
    road_grid_directed, route_body, MembershipFlip, QuerySpec, TrafficMix,
};

use crate::answers::{self, Route};
use crate::http::Conn;

/// Shards in the fleet.
pub const SHARDS: usize = 2;
/// Replicas per shard.
pub const REPLICAS: usize = 2;
/// `--seconds` value the phase durations below are written for; other
/// values scale every phase together.
pub const NOMINAL_SECONDS: f64 = 20.0;
/// Every `PROBE_EVERY`-th flip of a standing phase is a probe flip.
pub const PROBE_EVERY: usize = 4;
/// Standing sessions whose deltas the long-poller follows.
pub const PROBE_SESSIONS: usize = 8;

/// How a world's categories are laid out.
#[derive(Clone, Copy, Debug)]
pub enum Categories {
    /// `count` categories of exactly `size` members each.
    Uniform { count: usize, size: usize },
    /// `count` zipf-sized categories sharing `share · |V|` memberships
    /// with skew factor `f` (the paper's §V-A assignment).
    Zipf { count: usize, share: f64, f: f64 },
}

/// How a workload's read stream is shaped.
#[derive(Clone, Debug)]
pub enum Reads {
    /// A hot-set stream over a small template pool: after one pass the
    /// replica caches answer almost everything.
    Hot(TrafficMix),
    /// Every request a query never seen before, cycling these (|C|, k)
    /// classes: the result cache is bypassed by the input itself.
    ///
    /// Query cost here is heavy-tailed (a fifth of the queries — the ones
    /// PruningKOSR gets — take two thirds of the time, single ones
    /// 200 ms), so a random thousand-query sample has a mean that swings
    /// by a tenth. The query *population* therefore belongs to the
    /// dataset: it is drawn once per world, cut into one part per phase,
    /// and the seed shuffles the order inside each part. Closed-loop
    /// phases run their whole part (`closed_rate` queries per budgeted
    /// second) rather than whatever fits into a time window.
    Unique {
        classes: &'static [(usize, usize)],
        closed_rate: f64,
    },
}

/// One step of an end-to-end run. Durations are for `NOMINAL_SECONDS`.
/// The first phase in a workload's list that measures a metric provides
/// it (see `e2e.rs` for which phase measures what).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phase {
    /// Untimed: one pass over the distinct templates (hot streams) or a
    /// short burst of throwaway queries (unique streams).
    Warm,
    /// Open loop, both connections reading at `rate` requests/s in total.
    ReadOpen { rate: f64, secs: f64 },
    /// Closed loop, both connections reading back to back.
    ReadClosed { secs: f64 },
    /// Open loop, connection A reading at `reads`/s while connection B
    /// posts `/v1/update` at `updates`/s.
    MixOpen { reads: f64, updates: f64, secs: f64 },
    /// Closed loop, A reading and B updating back to back.
    MixClosed { secs: f64 },
    /// `count` sequential fresh-connection `Connection: close` reads.
    Connect { count: usize },
    /// Untimed: register the workload's standing sessions.
    Subscribe,
    /// Open loop, A posting flips at `rate`/s (every 4th a probe flip)
    /// while B long-polls the probe sessions.
    Standing { rate: f64, secs: f64 },
}

/// A workload definition.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Seed of the world (the dataset); independent of `--seed`.
    pub world_seed: u64,
    /// Grid rows × columns of the directed road world.
    pub grid: (u32, u32),
    /// Category layout.
    pub categories: Categories,
    /// Read stream shape.
    pub reads: Reads,
    /// Standing sessions registered by [`Phase::Subscribe`].
    pub sessions: usize,
    /// (|C|, k) shape classes of the standing queries.
    pub session_classes: &'static [(usize, usize)],
    /// The end-to-end run, in order.
    pub phases: &'static [Phase],
    /// Requests replayed up the read ladder of the traced run.
    pub ladder_reads: usize,
    /// Rates the traced run steps through to find the highest one that
    /// meets `limit_ms`.
    pub step_rates: &'static [f64],
    /// p99 limit for `loadgen.rate_met_qps`.
    pub limit_ms: f64,
}

const DEEP_CLASSES: [(usize, usize); 4] = [(3, 10), (4, 10), (5, 20), (6, 30)];
/// `TrafficMix::default()`'s shape classes: quick single-stop lookups to
/// deep multi-stop planning.
const MIXED_SHAPES: [(usize, usize); 4] = [(1, 1), (2, 3), (3, 5), (4, 10)];
/// `update_mix` and `standing_updates` run on `edge_hot`'s world.
const HOT_WORLD_SEED: u64 = 0x407;

fn hot_mix() -> TrafficMix {
    TrafficMix {
        uniques_per_class: 48, // × 4 default shape classes = 192 templates
        hot_set: 32,
        hot_fraction: 0.6,
        ..TrafficMix::default()
    }
}

/// The four workloads, in reporting order.
pub fn specs() -> Vec<Spec> {
    let hot_world = (
        (50, 51),
        Categories::Uniform {
            count: 20,
            size: 50,
        },
    );
    vec![
        Spec {
            name: "edge_hot",
            why: "hot templates answered from replica caches: gateway, router, codec and TCP mux do the work, search almost none",
            world_seed: HOT_WORLD_SEED,
            grid: hot_world.0,
            categories: hot_world.1,
            reads: Reads::Hot(hot_mix()),
            sessions: 40,
            session_classes: &MIXED_SHAPES,
            phases: &[
                Phase::Warm,
                Phase::ReadOpen { rate: 1000.0, secs: 7.0 },
                Phase::ReadClosed { secs: 3.0 },
                Phase::Connect { count: 250 },
                Phase::MixClosed { secs: 2.0 },
                Phase::Subscribe,
                Phase::Standing { rate: 64.0, secs: 7.0 },
            ],
            ladder_reads: 1500,
            step_rates: &[1000.0, 2500.0, 4000.0],
            limit_ms: 5.0,
        },
        Spec {
            name: "search_deep",
            why: "never-repeated deep queries over zipf categories: the planner-chosen search is most of the latency, edge work little",
            world_seed: 0xD33B,
            grid: (64, 66),
            categories: Categories::Zipf {
                count: 24,
                share: 0.6,
                f: 1.6,
            },
            reads: Reads::Unique {
                classes: &DEEP_CLASSES,
                closed_rate: 260.0,
            },
            sessions: 40,
            // k below the planner's dense_k: a standing query that drew
            // the zipf head would otherwise recompute under PruningKOSR
            // for tens of ms per wake and swamp this side phase.
            session_classes: &[(1, 1), (2, 3), (3, 5)],
            phases: &[
                Phase::Warm,
                Phase::ReadOpen { rate: 50.0, secs: 8.0 },
                Phase::ReadClosed { secs: 3.5 },
                Phase::Connect { count: 250 },
                Phase::MixClosed { secs: 2.5 },
                Phase::Subscribe,
                Phase::Standing { rate: 75.0, secs: 6.0 },
            ],
            ladder_reads: 200,
            step_rates: &[50.0, 100.0, 200.0],
            limit_ms: 50.0,
        },
        Spec {
            name: "update_mix",
            why: "edge_hot's reads with membership flips written beside them: publish, copy-on-write apply, invalidation and refill share the index with readers",
            world_seed: HOT_WORLD_SEED,
            grid: hot_world.0,
            categories: hot_world.1,
            reads: Reads::Hot(hot_mix()),
            sessions: 40,
            session_classes: &MIXED_SHAPES,
            phases: &[
                Phase::Warm,
                Phase::MixOpen { reads: 500.0, updates: 60.0, secs: 8.5 },
                Phase::MixClosed { secs: 4.0 },
                Phase::Connect { count: 250 },
                Phase::Subscribe,
                Phase::Standing { rate: 64.0, secs: 7.0 },
            ],
            ladder_reads: 1500,
            step_rates: &[500.0, 1000.0, 2000.0],
            limit_ms: 5.0,
        },
        Spec {
            name: "standing_updates",
            why: "200 standing sessions swept on every flip: filter, wake, recompute and diff run on the publishing thread, a layer no other workload enters",
            world_seed: HOT_WORLD_SEED,
            grid: hot_world.0,
            categories: hot_world.1,
            reads: Reads::Hot(hot_mix()),
            sessions: 200,
            session_classes: &MIXED_SHAPES,
            phases: &[
                Phase::Subscribe,
                Phase::Warm,
                Phase::Standing { rate: 40.0, secs: 11.2 },
                Phase::ReadOpen { rate: 500.0, secs: 2.5 },
                Phase::ReadClosed { secs: 1.5 },
                Phase::MixClosed { secs: 4.0 },
                Phase::Connect { count: 250 },
            ],
            ladder_reads: 1500,
            step_rates: &[500.0, 1000.0, 2000.0],
            limit_ms: 5.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn spec_named(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Derives a sub-seed: every generator call gets its own stream so that
/// changing one count never shifts another stream.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    kosr_service::splitmix64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Where set-up time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimings {
    /// Graph + category generation.
    pub gen_s: f64,
    /// Contraction hierarchy (hub order).
    pub ch_s: f64,
    /// 2-hop label build.
    pub label_s: f64,
    /// Inverted label indexes.
    pub inverted_s: f64,
    /// Partitioner.
    pub partition_ms: f64,
    /// Whole `IndexedGraph::build` (labels + inverted + bound tables).
    pub index_s: f64,
    /// `ShardSet::build`.
    pub shardset_s: f64,
}

/// A built world: the unsharded index (oracle and reference) and the
/// shard set the fleet serves.
pub struct World {
    /// The unsharded index at the base state.
    pub ig: IndexedGraph,
    /// Per-shard indexes + partition.
    pub set: ShardSet,
    /// Where the build time went.
    pub timings: BuildTimings,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Generates the spec's graph with its categories.
fn gen_graph(spec: &Spec) -> Graph {
    let seed = spec.world_seed;
    let mut g = road_grid_directed(spec.grid.0, spec.grid.1, sub_seed(seed, 1));
    match spec.categories {
        Categories::Uniform { count, size } => {
            assign_uniform(&mut g, count, size, sub_seed(seed, 2))
        }
        Categories::Zipf { count, share, f } => {
            let total = (share * g.num_vertices() as f64) as usize;
            assign_zipf(&mut g, count, total, f, sub_seed(seed, 2));
        }
    }
    g
}

/// World gen + CH + labels + inverted indexes + bound tables + shard set.
pub fn build_world(spec: &Spec) -> World {
    let mut timings = BuildTimings::default();
    let t = Instant::now();
    let g = gen_graph(spec);
    timings.gen_s = secs(t);
    let t = Instant::now();
    let ch = kosr_ch::build(&g);
    timings.ch_s = secs(t);
    let t = Instant::now();
    let ig = IndexedGraph::build(g, &HubOrder::from_ch(&ch));
    timings.index_s = secs(t);
    timings.label_s = ig.label_stats.build_time.as_secs_f64();
    timings.inverted_s = ig.inverted_stats.build_time.as_secs_f64();
    let t = Instant::now();
    let partition = Partitioner::new(PartitionConfig {
        num_shards: SHARDS,
        ..Default::default()
    })
    .partition(&ig.graph);
    timings.partition_ms = secs(t) * 1e3;
    let t = Instant::now();
    let set = ShardSet::build(&ig, partition);
    timings.shardset_s = secs(t);
    World { ig, set, timings }
}

/// The running fleet. Field order is drop order: the gateway goes first
/// (its handlers hold the router), the replica servers last.
pub struct Fleet {
    /// The HTTP edge.
    pub gateway: Gateway,
    /// The supervisor loop; it stops when this handle drops.
    _supervisor: Arc<SupervisorHandle>,
    /// The router the gateway fronts.
    pub router: Arc<ShardRouter>,
    /// Replica services, `[shard][replica]` — kept for their public
    /// counters; all traffic reaches them through the sockets.
    pub services: Vec<Vec<Arc<KosrService>>>,
    /// Socket addresses of the replica servers, shard-major — what a
    /// transport-level probe dials.
    pub replica_addrs: Vec<std::net::SocketAddr>,
    _servers: Vec<TcpServer>,
}

impl Fleet {
    /// Stands the fleet up over `set` as shipped: every replica a
    /// `KosrService` behind a `TcpServer`, `TcpTransport` clients, the
    /// supervisor started, the gateway spawned — and returns once
    /// `/healthz` answers 200 over a real socket.
    pub fn start(set: &ShardSet, gateway: GatewayConfig) -> io::Result<Fleet> {
        let mut servers = Vec::new();
        let mut services = Vec::new();
        let mut transports: Vec<Vec<Arc<dyn ShardTransport>>> = Vec::new();
        for j in 0..set.num_shards() {
            let shard_ig = Arc::new(set.shard(j).clone());
            let mut row = Vec::new();
            let mut ts: Vec<Arc<dyn ShardTransport>> = Vec::new();
            for _ in 0..REPLICAS {
                let svc = Arc::new(KosrService::new(
                    Arc::clone(&shard_ig),
                    ServiceConfig::default(),
                ));
                let server = TcpServer::spawn(Arc::clone(&svc))?;
                ts.push(Arc::new(TcpTransport::connect(server.addr())));
                servers.push(server);
                row.push(svc);
            }
            services.push(row);
            transports.push(ts);
        }
        let router = Arc::new(ShardRouter::from_transports(
            transports,
            set.partition().clone(),
            set.base_categories(),
            set.partition_stats().clone(),
        ));
        let supervisor = Arc::new(router.supervisor(SupervisorConfig::default()).start());
        let gateway = Gateway::spawn(Arc::clone(&router), Some(Arc::clone(&supervisor)), gateway)?;
        let health = Conn::open(gateway.addr(), Duration::from_secs(10))?
            .call("GET", "/healthz", None, false)?;
        if health.status != 200 {
            return Err(io::Error::other(format!(
                "fleet came up unhealthy: /healthz {}",
                health.status
            )));
        }
        Ok(Fleet {
            gateway,
            _supervisor: supervisor,
            router,
            services,
            replica_addrs: servers.iter().map(TcpServer::addr).collect(),
            _servers: servers,
        })
    }
}

/// A distinct query of the read stream with its rendered request body.
pub struct Template {
    /// The query.
    pub query: Query,
    /// Its `/v1/route` JSON body.
    pub body: String,
}

/// A standing session the long-poller follows: flipping `vertex` in and
/// out of `category` (the session's source and first category) changes
/// its best route, so every probe flip must produce a delta.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Index into [`Streams::sessions`].
    pub session: usize,
    /// The session's source vertex.
    pub vertex: VertexId,
    /// The session's first category.
    pub category: CategoryId,
}

/// Everything the program is sent, all derived from the seed.
pub struct Streams {
    /// Distinct read queries.
    pub templates: Vec<Template>,
    /// The read stream, as template indices.
    pub reads: Vec<u32>,
    /// Where the closed-loop part of a unique stream starts and how long
    /// it is (`None` for hot streams: one undivided sequence).
    pub closed_part: Option<(usize, usize)>,
    /// Throwaway queries for warming a unique stream's code paths.
    pub warm: Vec<Template>,
    /// Membership flips.
    pub flips: Vec<MembershipFlip>,
    /// Standing queries.
    pub sessions: Vec<Template>,
}

fn to_query(s: &QuerySpec) -> Query {
    Query::new(s.source, s.target, s.categories.clone(), s.k)
}

fn template(s: &QuerySpec) -> Template {
    Template {
        query: to_query(s),
        body: route_body(s, None),
    }
}

/// Collapses a spec stream into distinct templates + indices.
fn intern(stream: &[QuerySpec]) -> (Vec<Template>, Vec<u32>) {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut templates = Vec::new();
    let reads = stream
        .iter()
        .map(|s| {
            let t = template(s);
            *ids.entry(t.body.clone()).or_insert_with(|| {
                templates.push(t);
                templates.len() as u32 - 1
            })
        })
        .collect();
    (templates, reads)
}

/// Renders a flip as a `/v1/update` body.
pub fn flip_body(f: &MembershipFlip) -> String {
    let op = if f.insert {
        "insert_membership"
    } else {
        "remove_membership"
    };
    format!(
        "{{\"op\": \"{op}\", \"vertex\": {}, \"category\": {}}}",
        f.vertex.0, f.category.0
    )
}

/// The service-level update a flip stands for.
pub fn flip_update(f: &MembershipFlip) -> Update {
    if f.insert {
        Update::InsertMembership {
            vertex: f.vertex,
            category: f.category,
        }
    } else {
        Update::RemoveMembership {
            vertex: f.vertex,
            category: f.category,
        }
    }
}

/// Applies a flip to a reference index, as the fleet's replicas do.
pub fn mirror(ig: &mut IndexedGraph, f: &MembershipFlip) {
    if f.insert {
        ig.insert_membership(f.vertex, f.category);
    } else {
        ig.remove_membership(f.vertex, f.category);
    }
}

/// How many reads each part of a run consumes. Hot streams are one
/// sequence of `open + closed + spare`; unique streams keep the parts
/// apart (see [`Reads::Unique`]).
#[derive(Clone, Copy, Debug)]
pub struct ReadNeeds {
    /// Reads of the open-loop phases.
    pub open: usize,
    /// Reads of the closed-loop read phases.
    pub closed: usize,
    /// Reads of every other phase and check.
    pub spare: usize,
}

/// Fisher–Yates with a splitmix64 sequence.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = kosr_service::splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Generates the workload's streams for `seed`.
pub fn gen_streams(
    spec: &Spec,
    world: &World,
    seed: u64,
    reads: ReadNeeds,
    flips: usize,
) -> Streams {
    let g = &world.ig.graph;
    let (templates, read_ids, warm, closed_part) = match &spec.reads {
        Reads::Hot(mix) => {
            let total = reads.open + reads.closed + reads.spare;
            let stream = gen_mixed_traffic(g, total, mix, sub_seed(seed, 3));
            let (templates, ids) = intern(&stream);
            (templates, ids, Vec::new(), None)
        }
        Reads::Unique { classes, .. } => {
            let nc = classes.len();
            let parts = [reads.open, reads.closed, reads.spare].map(|n| n.div_ceil(nc));
            let per_class: usize = parts.iter().sum();
            // The population: drawn from the world's seed, not the run's.
            let mut by_class: Vec<Vec<QuerySpec>> = classes
                .iter()
                .enumerate()
                .map(|(i, &(c, k))| {
                    gen_queries(g, per_class, c, k, sub_seed(spec.world_seed, 10 + i as u64))
                })
                .collect();
            let mut stream = Vec::with_capacity(per_class * nc);
            let mut from = 0;
            for (p, len) in parts.iter().copied().enumerate() {
                for (i, class) in by_class.iter_mut().enumerate() {
                    shuffle(
                        &mut class[from..from + len],
                        sub_seed(seed, 30 + (p * nc + i) as u64),
                    );
                }
                // Round-robin over the classes so every window of the
                // stream carries the same shape mix.
                for at in from..from + len {
                    stream.extend(by_class.iter().map(|class| class[at].clone()));
                }
                from += len;
            }
            let (templates, ids) = intern(&stream);
            let warm = classes
                .iter()
                .enumerate()
                .flat_map(|(i, &(c, k))| {
                    gen_queries(g, 8, c, k, sub_seed(spec.world_seed, 20 + i as u64))
                })
                .map(|s| template(&s))
                .collect();
            (templates, ids, warm, Some((parts[0] * nc, parts[1] * nc)))
        }
    };
    // Standing sessions: distinct queries of the spec's shapes
    // (hot_fraction 0 draws uniformly from the pool; duplicates are
    // dropped).
    let session_mix = TrafficMix {
        classes: spec.session_classes.to_vec(),
        uniques_per_class: spec.sessions.div_ceil(spec.session_classes.len()) + 8,
        hot_fraction: 0.0,
        ..TrafficMix::default()
    };
    // The standing queries belong to the dataset on every world: how many
    // sessions a flip wakes is set by which categories they mention, and
    // that, not the flip, is most of an update's cost. On a unique-stream
    // world so do the flips (a flip's cost follows its category's
    // density, which zipf makes heavy-tailed); the seed orders them.
    let drawn = gen_mixed_traffic(
        g,
        spec.sessions * 8,
        &session_mix,
        sub_seed(spec.world_seed, 4),
    );
    let (mut sessions, _) = intern(&drawn);
    sessions.truncate(spec.sessions);

    let flips = if matches!(spec.reads, Reads::Unique { .. }) {
        let mut flips = gen_membership_flips(g, flips, sub_seed(spec.world_seed, 5));
        shuffle(&mut flips, sub_seed(seed, 6));
        flips
    } else {
        gen_membership_flips(g, flips, sub_seed(seed, 5))
    };
    Streams {
        templates,
        reads: read_ids,
        closed_part,
        warm,
        flips,
        sessions,
    }
}

/// Picks up to [`PROBE_SESSIONS`] sessions whose probe flip changes
/// their best route on `reference` (the world as it stands when the
/// sessions are registered): inserting the source into the first category
/// must yield a strictly cheaper top-1, so the delta cannot be lost to a
/// tie-break. Later flips can still erode that — a probe flip that moves
/// nothing simply yields no lag sample.
pub fn pick_probes(reference: &IndexedGraph, sessions: &[Template]) -> Vec<Probe> {
    let mut reference = reference.clone();
    let mut probes: Vec<Probe> = Vec::new();
    for (session, t) in sessions.iter().enumerate() {
        if probes.len() == PROBE_SESSIONS {
            break;
        }
        let q = &t.query;
        let (vertex, category) = (q.source, q.categories[0]);
        if reference.graph.categories().has_category(vertex, category)
            || probes.iter().any(|p| p.category == category)
        {
            // One probe per category keeps probe flips from waking each
            // other's sessions through a shared first category.
            continue;
        }
        let before: Vec<Route> = answers::oracle(&reference, q);
        reference.insert_membership(vertex, category);
        let after: Vec<Route> = answers::oracle(&reference, q);
        reference.remove_membership(vertex, category);
        let improves = match (before.first(), after.first()) {
            (Some(b), Some(a)) => a.cost < b.cost,
            (None, Some(_)) => true,
            _ => false,
        };
        if improves {
            probes.push(Probe {
                session,
                vertex,
                category,
            });
        }
    }
    probes
}
