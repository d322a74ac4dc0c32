//! The HTTP edge end to end: a 20×20 road world partitioned into **2
//! region shards × 2 replicas**, a `FleetSupervisor` on its own clock,
//! and a `Gateway` in front — driven entirely through **JSON over real
//! sockets**. Mixed traffic (queries, live updates, health probes, and
//! deliberately invalid requests) hits the edge; route answers are
//! checked bit-for-bit against an unsharded oracle; then a replica is
//! killed mid-run to show `/healthz` flip to 503, the shard failover
//! counter advance on `/metrics`, and the supervisor heal the fleet with
//! no manual call anywhere in this file. The finale is tracing end to
//! end: a route answer's `X-Kosr-Trace-Id` fetches its full
//! gateway→shard→replica span tree (planner method and PNE expansion
//! counters included), and the slow-query log proves the worst of the
//! stream was captured and is retrievable.
//!
//! ```text
//! cargo run --release --example gateway
//! ```

use std::sync::Arc;
use std::time::Duration;

use kosr::core::{IndexedGraph, Query};
use kosr::gateway::{client, Gateway, GatewayConfig};
use kosr::service::{KosrService, ServiceConfig};
use kosr::shard::{
    PartitionConfig, Partitioner, ReplicaHealth, ShardRouter, ShardSet, SupervisorConfig,
};
use kosr::workloads::{
    assign_clustered, gen_http_traffic, road_grid_directed, route_body, HttpCallKind,
    HttpTrafficMix, TrafficMix,
};

const SHARDS: usize = 2;
const REPLICAS: usize = 2;

fn metric_value(text: &str, prefix: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn main() {
    let mut g = road_grid_directed(20, 20, 42);
    assign_clustered(&mut g, 6, 30, 0.06, 7);
    println!(
        "world: {} vertices, {} edges, {} clustered categories",
        g.num_vertices(),
        g.num_edges(),
        g.categories().num_categories()
    );
    let ig = IndexedGraph::build_default(g.clone());

    let partition = Partitioner::new(PartitionConfig {
        num_shards: SHARDS,
        ..Default::default()
    })
    .partition(&ig.graph);
    let set = ShardSet::build(&ig, partition);
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 2048,
        cache_capacity: 512,
        ..Default::default()
    };
    let reference = KosrService::new(Arc::new(ig.clone()), config.clone());

    let mut switches = Vec::new();
    let router = Arc::new(ShardRouter::with_replicas(
        set,
        config,
        REPLICAS,
        |_, _, t| {
            switches.push(t.kill_switch());
            Arc::new(t)
        },
    ));
    // A deliberately lazy heartbeat (200ms): after the kill below, live
    // queries reach the dead replica *before* the supervisor does, so the
    // query-time failover counter visibly advances on /metrics.
    let supervisor = Arc::new(
        router
            .supervisor(SupervisorConfig {
                tick_every: Duration::from_millis(200),
                ..Default::default()
            })
            .start(),
    );
    let gateway = Gateway::spawn(
        Arc::clone(&router),
        Some(Arc::clone(&supervisor)),
        GatewayConfig::default(),
    )
    .expect("bind gateway");
    let addr = gateway.addr();
    println!("gateway up on http://{addr} fronting {SHARDS} shards x {REPLICAS} replicas\n");

    // Act 1 — mixed JSON traffic over real sockets: route queries checked
    // bit-for-bit against the unsharded oracle, invalid requests answered
    // with typed 4xx, probes with 200/valid Prometheus text.
    let calls = gen_http_traffic(
        &g,
        400,
        &HttpTrafficMix {
            queries: TrafficMix {
                hot_fraction: 0.4,
                ..Default::default()
            },
            update_fraction: 0.0, // updates get their own act below
            invalid_fraction: 0.08,
            probe_fraction: 0.05,
            deadline_ms: Some(30_000),
        },
        9,
    );
    let specs = kosr::workloads::gen_mixed_traffic(
        &g,
        400,
        &TrafficMix {
            hot_fraction: 0.4,
            ..Default::default()
        },
        9,
    );
    let t0 = std::time::Instant::now();
    let (mut routed, mut rejected, mut probed) = (0usize, 0usize, 0usize);
    for (call, spec) in calls.iter().zip(&specs) {
        let resp = client::call(addr, call.method, call.path, call.body.as_deref())
            .expect("edge reachable");
        match call.kind {
            HttpCallKind::Route => {
                assert_eq!(resp.status, 200, "{}", resp.text());
                let v = resp.json().expect("json body");
                let routes = v.get("routes").unwrap().as_array().unwrap();
                let q = Query::new(spec.source, spec.target, spec.categories.clone(), spec.k);
                let want = reference.submit(q).unwrap().wait().unwrap();
                assert_eq!(routes.len(), want.outcome.witnesses.len());
                for (route, w) in routes.iter().zip(&want.outcome.witnesses) {
                    assert_eq!(route.get("cost").unwrap().as_u64().unwrap(), w.cost);
                }
                routed += 1;
            }
            HttpCallKind::Invalid => {
                assert!(
                    (400..500).contains(&resp.status),
                    "invalid traffic must 4xx, got {}: {}",
                    resp.status,
                    resp.text()
                );
                rejected += 1;
            }
            HttpCallKind::Healthz | HttpCallKind::Metrics => {
                assert_eq!(resp.status, 200);
                probed += 1;
            }
            HttpCallKind::Update => unreachable!("update_fraction is 0"),
        }
    }
    let stats = gateway.stats();
    println!(
        "act 1: {} calls over sockets in {:.2?} — {routed} routes bit-identical to the oracle, \
         {rejected} invalid requests typed 4xx, {probed} probes",
        calls.len(),
        t0.elapsed(),
    );
    println!(
        "       edge: {:.0} req/s, p50 {:?}, p99 {:?}, shard-cache hit rate {:.0}%\n",
        stats.qps(),
        stats.latency_quantile(0.5),
        stats.latency_quantile(0.99),
        100.0 * stats.shard_cache_hit_rate(),
    );

    // Act 2 — a live update through POST /v1/update, mirrored on the
    // oracle; answers stay bit-identical.
    let sample = &specs[0];
    let best = client::call(addr, "POST", "/v1/route", Some(&route_body(sample, None)))
        .unwrap()
        .json()
        .unwrap();
    let first_cat = sample.categories[0];
    let stop = best.get("routes").unwrap().as_array().unwrap()[0]
        .get("stops")
        .unwrap()
        .as_array()
        .unwrap()[0]
        .get("vertex")
        .unwrap()
        .as_u64()
        .unwrap();
    let update = format!(
        "{{\"op\": \"remove_membership\", \"vertex\": {stop}, \"category\": {}}}",
        first_cat.0
    );
    let receipt = client::call(addr, "POST", "/v1/update", Some(&update)).unwrap();
    assert_eq!(receipt.status, 200, "{}", receipt.text());
    reference
        .apply_update(&kosr::service::Update::RemoveMembership {
            vertex: kosr::graph::VertexId(stop as u32),
            category: first_cat,
        })
        .unwrap();
    let after = client::call(addr, "POST", "/v1/route", Some(&route_body(sample, None)))
        .unwrap()
        .json()
        .unwrap();
    let q = Query::new(
        sample.source,
        sample.target,
        sample.categories.clone(),
        sample.k,
    );
    let want = reference.submit(q).unwrap().wait().unwrap();
    assert_eq!(
        after.get("routes").unwrap().as_array().unwrap()[0]
            .get("cost")
            .unwrap()
            .as_u64()
            .unwrap(),
        want.outcome.witnesses[0].cost,
        "post-update answers still match the oracle"
    );
    println!(
        "act 2: removed the best route's first stop (vertex {stop}) over the wire — receipt {}",
        receipt.text()
    );

    // Act 3 — kill shard 0's primary replica. Queries keep answering
    // through failover; /healthz flips; the failover counter advances.
    let metrics_before = client::call(addr, "GET", "/metrics", None).unwrap().text();
    let failovers_before = metric_value(&metrics_before, "kosr_shard_failovers_total");
    switches[0].kill();
    for spec in &specs[..60] {
        let resp = client::call(addr, "POST", "/v1/route", Some(&route_body(spec, None))).unwrap();
        assert_eq!(resp.status, 200, "failover hides the kill");
    }
    let flipped = {
        let started = std::time::Instant::now();
        loop {
            let health = client::call(addr, "GET", "/healthz", None).unwrap();
            if health.status == 503 {
                break started.elapsed();
            }
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "healthz never flipped"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    // /healthz reads replica health directly; the availability alert waits
    // for a supervisor tick to observe the kill. Reviving before that tick
    // would heal the replica unobserved, and act 6 would find no alert.
    {
        let started = std::time::Instant::now();
        loop {
            let alerts = client::call(addr, "GET", "/v1/alerts", None)
                .unwrap()
                .json()
                .unwrap();
            let firing = alerts.get("firing").unwrap().as_array().unwrap();
            if firing
                .iter()
                .any(|a| a.get("slo").unwrap().as_str() == Some("availability"))
            {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "availability alert never fired on the kill"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let metrics_after = client::call(addr, "GET", "/metrics", None).unwrap().text();
    let failovers_after = metric_value(&metrics_after, "kosr_shard_failovers_total");
    assert!(
        failovers_after > failovers_before,
        "failover counter must advance: {failovers_before} -> {failovers_after}"
    );
    println!(
        "\nact 3: killed shard 0 replica 0 — 60 queries served through failover, \
         /healthz flipped to 503 in {flipped:.2?}, \
         kosr_shard_failovers_total {failovers_before} -> {failovers_after}"
    );

    // Act 4 — revive: the supervisor reinstates the replica on its own
    // clock; /healthz recovers and the recovery counters land on /metrics.
    switches[0].revive();
    assert!(
        supervisor.await_healthy(Duration::from_secs(30)),
        "supervisor failed to heal: {:?}",
        supervisor.report()
    );
    let health = client::call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        router.replica_set(0).health()[0],
        ReplicaHealth::Healthy,
        "replica reinstated"
    );
    let metrics = client::call(addr, "GET", "/metrics", None).unwrap().text();
    kosr::gateway::validate_prometheus_text(&metrics).expect("valid Prometheus text");
    println!(
        "\nact 4: replica revived — supervisor healed the fleet ({} replays, {} snapshot \
         refreshes), /healthz back to 200",
        metric_value(&metrics, "kosr_supervisor_replays_total"),
        metric_value(&metrics, "kosr_supervisor_snapshot_refreshes_total"),
    );
    println!("\nfleet metrics excerpt:");
    for line in metrics.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("kosr_gateway_qps")
                || l.starts_with("kosr_gateway_latency_seconds")
                || l.starts_with("kosr_gateway_shard_cache_hit_rate")
                || l.starts_with("kosr_shard_replicas_healthy")
                || l.starts_with("kosr_supervisor_replays_total")
                || l.starts_with("kosr_supervisor_snapshot_refreshes_total")
                || l.starts_with("kosr_fleet_healthy"))
    }) {
        println!("  {line}");
    }

    // Act 5 — tracing end to end. Every route answer names its trace; the
    // id fetches the full span tree across tiers, pruning counters and
    // all; and the slow-query log retained the worst of the whole stream.
    // A `k` one past anything the stream asked before: prefix-truncation
    // reuse can't serve it, so the replica demonstrably *executes* and
    // the trace carries the paper's pruning counters.
    let mut traced_spec = specs[1].clone();
    traced_spec.k += 1;
    let resp = client::call(
        addr,
        "POST",
        "/v1/route",
        Some(&route_body(&traced_spec, None)),
    )
    .expect("edge reachable");
    assert_eq!(resp.status, 200);
    let trace_id = resp
        .header("x-kosr-trace-id")
        .expect("sampled responses carry their trace id")
        .to_string();
    let fetched = client::call(addr, "GET", &format!("/v1/traces/{trace_id}"), None).unwrap();
    assert_eq!(fetched.status, 200, "{}", fetched.text());
    let tree = fetched.json().expect("span tree json");
    let root = tree.get("root").expect("assembled root span");
    assert_eq!(root.get("name").unwrap().as_str(), Some("gateway"));
    let replica = descendant(root, "replica")
        .expect("the span tree reaches the replica tier (gateway → shard → replica)");
    let admission = descendant(replica, "admission").expect("admission span");
    let method = admission
        .get("tags")
        .and_then(|t| t.get("method"))
        .and_then(|m| m.as_str())
        .expect("planner method tagged on the trace")
        .to_string();
    let expansions = descendant(replica, "execute")
        .and_then(|e| e.get("tags")?.get("pne_expansions")?.as_u64())
        .expect("an uncached traced query profiles its PNE expansions");

    // The slow-query log: summaries list the worst traces, and the
    // slowest one is itself retrievable by id — the e2e slow-path story.
    let recent = client::call(addr, "GET", "/v1/traces/recent", None).unwrap();
    assert_eq!(recent.status, 200);
    let page = recent.json().unwrap();
    let slow = page.get("slow").unwrap().as_array().unwrap();
    assert!(
        !slow.is_empty(),
        "400 traced calls must populate the slow log"
    );
    let slowest_id = slow[0].get("trace_id").unwrap().as_str().unwrap();
    let slowest_wall = slow[0].get("wall_us").unwrap().as_u64().unwrap();
    let slowest = client::call(addr, "GET", &format!("/v1/traces/{slowest_id}"), None).unwrap();
    assert_eq!(slowest.status, 200, "slow-query traces are retrievable");
    assert_eq!(
        slowest.json().unwrap().get("wall_us").unwrap().as_u64(),
        Some(slowest_wall)
    );
    let final_metrics = client::call(addr, "GET", "/metrics", None).unwrap().text();
    println!(
        "\nact 5: trace {trace_id} spans gateway → shard → replica (method {method}, \
         pne_expansions {expansions}); slow log holds {} traces, worst {slowest_wall}µs \
         (trace {slowest_id}, fetched by id)",
        slow.len(),
    );
    for line in final_metrics
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with("kosr_trace"))
    {
        println!("  {line}");
    }

    // Act 6 — the fleet event journal and SLO alerts, over the wire. The
    // kill in act 3 journaled a Critical event and fired the availability
    // burn-rate alert; the heal in act 4 resolves it. The supervisor's
    // recovery decision is annotated with the seq of the event that
    // triggered it — the journal is self-correlating.
    let events = client::call(addr, "GET", "/v1/events?severity=critical", None).unwrap();
    assert_eq!(events.status, 200, "{}", events.text());
    let page = events.json().unwrap();
    let critical = page.get("events").unwrap().as_array().unwrap();
    assert!(
        critical.iter().any(|e| matches!(
            e.get("kind").unwrap().as_str().unwrap(),
            "failover" | "replica_down"
        )),
        "the kill must have journaled a Critical event"
    );
    let recoveries = client::call(addr, "GET", "/v1/events?source=supervisor", None)
        .unwrap()
        .json()
        .unwrap();
    let annotated = recoveries
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|e| {
            matches!(
                e.get("kind").unwrap().as_str().unwrap(),
                "replay_recovered" | "snapshot_refreshed"
            ) && e.get("tags").unwrap().get("trigger").is_some()
        })
        .expect("a recovery event annotated with its triggering down-event seq");
    let trigger = annotated
        .get("tags")
        .unwrap()
        .get("trigger")
        .unwrap()
        .as_u64()
        .unwrap();

    // The alert lifecycle: fired on the kill, resolved after the heal
    // (flap damping wants a couple of clean ticks — poll briefly).
    let resolved_alert = {
        let started = std::time::Instant::now();
        loop {
            let alerts = client::call(addr, "GET", "/v1/alerts", None)
                .unwrap()
                .json()
                .unwrap();
            let firing = alerts.get("firing").unwrap().as_array().unwrap().is_empty();
            let resolved = alerts
                .get("recently_resolved")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .find(|a| a.get("slo").unwrap().as_str() == Some("availability"))
                .cloned();
            if firing {
                if let Some(a) = resolved {
                    break a;
                }
            }
            assert!(
                started.elapsed() < Duration::from_secs(15),
                "availability alert never completed its firing → resolved cycle"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let event_metrics = client::call(addr, "GET", "/metrics", None).unwrap().text();
    let events_total = metric_value(&event_metrics, "kosr_events_emitted_total");
    println!(
        "\nact 6: event journal holds {} Critical records (recovery trigger seq {trigger}); \
         availability alert fired on the kill and resolved at seq {} after the heal; \
         {events_total:.0} events journaled fleet-wide",
        critical.len(),
        resolved_alert.get("seq").unwrap().as_u64().unwrap(),
    );
    for line in event_metrics.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("kosr_events_total") || l.starts_with("kosr_alert_active"))
    }) {
        println!("  {line}");
    }
}

/// Depth-first search for a span named `name` in a `/v1/traces/{id}` tree.
fn descendant<'a>(
    node: &'a kosr::gateway::json::Json,
    name: &str,
) -> Option<&'a kosr::gateway::json::Json> {
    if node.get("name")?.as_str() == Some(name) {
        return Some(node);
    }
    node.get("children")?
        .as_array()?
        .iter()
        .find_map(|c| descendant(c, name))
}
