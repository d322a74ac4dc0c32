//! The tracing PR's load-bearing guarantee: traced queries pushed through
//! fault-injecting transports — frame drops, response drops, delays,
//! duplicate delivery, replica kills and supervised recovery — still
//! return **bit-identical** answers *and* structurally complete span
//! forests: unique span ids, exactly one root, every parent resolving, no
//! child outliving its parent, replica stage sums within the replica
//! wall ([`Trace::validate`]).

use std::sync::Arc;
use std::time::Instant;

use kosr_core::{IndexedGraph, Query};
use kosr_graph::{Graph, PartitionConfig, Partitioner};
use kosr_service::{KosrService, ServiceConfig, Span, Trace, TraceContext, TraceId};
use kosr_shard::{ShardError, ShardRouter, ShardSet, ShardedResponse, SupervisorConfig};
use kosr_testkit::{FaultConfig, FaultSchedule, FaultyTransport};
use kosr_transport::KillSwitch;
use kosr_workloads::{assign_uniform, gen_mixed_traffic, road_grid_directed, TrafficMix};

fn world(seed: u64) -> Graph {
    let mut g = road_grid_directed(7, 7, seed);
    assign_uniform(&mut g, 4, 10, seed ^ 1);
    g
}

fn queries_for(g: &Graph, count: usize, seed: u64) -> Vec<Query> {
    gen_mixed_traffic(g, count, &TrafficMix::default(), seed)
        .iter()
        .map(|s| Query::new(s.source, s.target, s.categories.clone(), s.k))
        .collect()
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 2048,
        // Caches off: every traced answer must carry a real `execute`
        // span with the paper's pruning counters.
        cache_capacity: 0,
        ..Default::default()
    }
}

/// Submits one traced query, stepping the supervisor on transport-level
/// failures, and assembles the returned span forest into a [`Trace`]
/// under a synthetic client root (what the gateway tier does with the
/// same forest).
fn traced_ask(
    router: &ShardRouter,
    sup: Option<&kosr_shard::FleetSupervisor>,
    q: &Query,
    trace_id: TraceId,
) -> Result<(ShardedResponse, Trace), ShardError> {
    let ctx = TraceContext::root(trace_id, true);
    let t0 = Instant::now();
    for _ in 0..32 {
        match router
            .submit_traced(q.clone(), Some(ctx))
            .and_then(|t| t.wait())
        {
            Err(ShardError::Transport(_)) if sup.is_some() => sup.unwrap().tick(),
            Err(e) => return Err(e),
            Ok(resp) => {
                // The client root closes over every retry, so the floor of
                // its wall contains the floor of any span measured inside.
                let elapsed_us = t0.elapsed().as_micros() as u64;
                let mut spans = vec![Span::new(ctx.parent_span, None, "client", 0, elapsed_us)];
                spans.extend(resp.spans.iter().cloned());
                let trace = Trace {
                    trace_id,
                    wall_us: elapsed_us,
                    sampled: true,
                    spans,
                };
                return Ok((resp, trace));
            }
        }
    }
    panic!("traced query kept failing after 32 supervisor ticks: {q:?}");
}

/// The structural expectations beyond [`Trace::validate`]: one shard span
/// per fanned-out shard under the client root, a merge span, and (when
/// `replicas_traced`) a replica span with counter-tagged `execute` under
/// every shard span.
fn assert_complete(resp: &ShardedResponse, trace: &Trace, replicas_traced: bool, label: &str) {
    trace.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    let root = trace.root().expect("client root");
    let shard_spans: Vec<&Span> = trace.spans.iter().filter(|s| s.name == "shard").collect();
    assert_eq!(shard_spans.len(), resp.shards.len(), "{label}: shard spans");
    for s in &shard_spans {
        assert_eq!(s.parent, Some(root.id), "{label}: shard span parent");
    }
    assert!(trace.span_named("merge").is_some(), "{label}: merge span");
    if replicas_traced {
        for shard in &shard_spans {
            let replica = trace
                .children_of(shard.id)
                .into_iter()
                .find(|c| c.name == "replica")
                .unwrap_or_else(|| panic!("{label}: shard span without replica child"));
            let execute = trace
                .children_of(replica.id)
                .into_iter()
                .find(|c| c.name == "execute")
                .unwrap_or_else(|| panic!("{label}: replica without execute span"));
            assert!(
                execute.tag_u64("pne_expansions").is_some(),
                "{label}: execute span lost its pruning counters"
            );
        }
    }
}

fn assert_answer_matches(resp: &ShardedResponse, oracle: &KosrService, q: &Query, label: &str) {
    let plain = oracle
        .submit(q.clone())
        .and_then(|t| t.wait())
        .unwrap_or_else(|e| panic!("{label}: oracle rejected {q:?}: {e}"));
    assert_eq!(
        resp.outcome.witnesses, plain.outcome.witnesses,
        "{label}: witnesses diverged"
    );
    assert_eq!(
        resp.outcome.costs(),
        plain.outcome.costs(),
        "{label}: costs"
    );
}

/// One fault-schedule round: frame faults, then killed primaries
/// (failover), then supervised recovery — traced throughout.
fn round(seed: u64) {
    let g = world(seed);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2 + (seed as usize % 2),
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = service_config();
    let oracle = KosrService::new(Arc::new(ig.clone()), config.clone());

    let mut switches: Vec<((usize, usize), KillSwitch)> = Vec::new();
    let router =
        ShardRouter::with_replicas(ShardSet::build(&ig, partition), config, 3, |j, r, t| {
            switches.push(((j, r), t.kill_switch()));
            let schedule = FaultSchedule::new(
                seed ^ ((j as u64) << 8) ^ ((r as u64) << 16),
                FaultConfig::default(),
            );
            Arc::new(FaultyTransport::new(Arc::new(t), Arc::new(schedule)))
        });
    let sup = router.supervisor(SupervisorConfig::default());
    let label = format!("seed {seed}");

    // Phase 1 — frame faults only.
    for (i, q) in queries_for(&g, 10, seed ^ 0xA1).iter().enumerate() {
        let trace_id = TraceId::from_parts(seed, 0x0100 + i as u64);
        let (resp, trace) = traced_ask(&router, Some(&sup), q, trace_id).expect("answers");
        assert_complete(&resp, &trace, true, &format!("{label} phase 1 q{i}"));
        assert_answer_matches(&resp, &oracle, q, &format!("{label} phase 1 q{i}"));
    }

    // Phase 2 — kill every primary: traced failover must stay complete.
    for ((_, r), s) in &switches {
        if *r == 0 {
            s.kill();
        }
    }
    for (i, q) in queries_for(&g, 6, seed ^ 0xA2).iter().enumerate() {
        let trace_id = TraceId::from_parts(seed, 0x0200 + i as u64);
        let (resp, trace) = traced_ask(&router, Some(&sup), q, trace_id).expect("fails over");
        assert_complete(&resp, &trace, true, &format!("{label} phase 2 q{i}"));
        assert_answer_matches(&resp, &oracle, q, &format!("{label} phase 2 q{i}"));
    }

    // Phase 3 — revive + supervised recovery, then trace again.
    for (_, s) in &switches {
        s.revive();
    }
    for _ in 0..32 {
        if sup.all_healthy() {
            break;
        }
        sup.tick();
    }
    assert!(sup.all_healthy(), "{label}: fleet failed to converge");
    for (i, q) in queries_for(&g, 6, seed ^ 0xA3).iter().enumerate() {
        let trace_id = TraceId::from_parts(seed, 0x0300 + i as u64);
        let (resp, trace) = traced_ask(&router, Some(&sup), q, trace_id).expect("recovered");
        assert_complete(&resp, &trace, true, &format!("{label} phase 3 q{i}"));
        assert_answer_matches(&resp, &oracle, q, &format!("{label} phase 3 q{i}"));
    }
}

#[test]
fn traced_queries_survive_fault_schedules_with_complete_traces() {
    for seed in 0..kosr_testkit::cases(3) {
        round(seed);
    }
}

/// Duplicate-heavy schedules: the duplicate executes on the replica, but
/// exactly one response is read — so span ids stay unique (a duplicated
/// forest would fail `validate`) and answers stay canonical.
#[test]
fn duplicate_delivery_never_duplicates_spans() {
    let g = world(77);
    let ig = IndexedGraph::build_default(g.clone());
    let partition = Partitioner::new(PartitionConfig {
        num_shards: 2,
        ..Default::default()
    })
    .partition(&ig.graph);
    let config = service_config();
    let oracle = KosrService::new(Arc::new(ig.clone()), config.clone());
    let duplicate_storm = FaultConfig {
        drop_per_mille: 0,
        drop_response_per_mille: 0,
        delay_per_mille: 0,
        duplicate_per_mille: 600,
        max_delay: std::time::Duration::ZERO,
    };
    let router =
        ShardRouter::with_replicas(ShardSet::build(&ig, partition), config, 2, |j, r, t| {
            let s = FaultSchedule::new(77 ^ ((j as u64) << 4) ^ r as u64, duplicate_storm);
            Arc::new(FaultyTransport::new(Arc::new(t), Arc::new(s)))
        });
    for (i, q) in queries_for(&g, 12, 0xD0).iter().enumerate() {
        let trace_id = TraceId::from_parts(77, i as u64);
        let (resp, trace) = traced_ask(&router, None, q, trace_id).expect("duplicates are benign");
        assert_complete(&resp, &trace, true, &format!("duplicate storm q{i}"));
        assert_answer_matches(&resp, &oracle, q, &format!("duplicate storm q{i}"));
    }
}
