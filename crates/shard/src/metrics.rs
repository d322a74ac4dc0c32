//! [`MetricsSource`] implementations for the shard layer: the router's
//! per-shard replica health/failover gauges (from the transport layer's
//! [`ReplicaSetSnapshot`]s) and the supervisor's recovery/compaction
//! counters — so one registry walk renders the whole fleet, no ad-hoc
//! snapshot structs at the edge.

use kosr_service::{MetricsRegistry, MetricsSource};
use kosr_transport::ReplicaSetSnapshot;

use crate::router::ShardRouter;
use crate::supervisor::{FleetSupervisor, SupervisorHandle, SupervisorReport};

fn export_shard(registry: &mut MetricsRegistry, shard: &str, snap: &ReplicaSetSnapshot) {
    let labels = [("shard", shard)];
    registry.gauge(
        "kosr_shard_replicas",
        "Replicas configured per shard",
        &labels,
        snap.total() as f64,
    );
    registry.gauge(
        "kosr_shard_replicas_healthy",
        "Replicas currently eligible to serve, per shard",
        &labels,
        snap.healthy as f64,
    );
    registry.counter(
        "kosr_shard_failovers_total",
        "Query-time failovers absorbed, per shard",
        &labels,
        snap.failovers as f64,
    );
}

impl MetricsSource for ShardRouter {
    fn export(&self, registry: &mut MetricsRegistry) {
        for j in 0..self.num_shards() {
            let shard = j.to_string();
            export_shard(registry, &shard, &self.replica_set(j).health_snapshot());
            // In-process deployments also surface every replica's service
            // stats; routers over remote transports have no local handles
            // and skip this (the replicas export their own).
            for (r, svc) in self.local_replica_services(j).iter().enumerate() {
                let replica = r.to_string();
                svc.stats().export_labeled(
                    registry,
                    &[("shard", shard.as_str()), ("replica", replica.as_str())],
                );
            }
        }
        registry.counter(
            "kosr_router_fanout_reads_total",
            "Member-count reads performed by fan-out planning (cache misses)",
            &[],
            self.fanout_reads() as f64,
        );
    }
}

fn export_supervisor(registry: &mut MetricsRegistry, report: &SupervisorReport, healthy: bool) {
    export_report(registry, report);
    registry.gauge(
        "kosr_fleet_healthy",
        "1 when every replica of every shard is serving, else 0",
        &[],
        healthy as u8 as f64,
    );
}

fn export_report(registry: &mut MetricsRegistry, report: &SupervisorReport) {
    for (name, help, value) in [
        (
            "kosr_supervisor_ticks_total",
            "Supervision passes executed",
            report.ticks,
        ),
        (
            "kosr_supervisor_replays_total",
            "Replicas restored by replaying a short log suffix",
            report.replays,
        ),
        (
            "kosr_supervisor_snapshot_refreshes_total",
            "Replicas restored by snapshot refresh",
            report.snapshot_refreshes,
        ),
        (
            "kosr_supervisor_cursor_too_old_total",
            "Recoveries forced onto the refresh path by a compacted cursor",
            report.cursor_too_old,
        ),
        (
            "kosr_supervisor_compactions_total",
            "Ticks that compacted the update log",
            report.compactions,
        ),
        (
            "kosr_supervisor_entries_compacted_total",
            "Update-log entries dropped by compaction",
            report.entries_compacted,
        ),
        (
            "kosr_supervisor_recovery_failures_total",
            "Recovery attempts that failed and will retry next tick",
            report.recovery_failures,
        ),
    ] {
        registry.counter(name, help, &[], value as f64);
    }
}

impl MetricsSource for FleetSupervisor {
    fn export(&self, registry: &mut MetricsRegistry) {
        export_supervisor(registry, &self.report(), self.all_healthy());
    }
}

impl MetricsSource for SupervisorHandle {
    fn export(&self, registry: &mut MetricsRegistry) {
        export_supervisor(registry, &self.report(), self.all_healthy());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use kosr_core::figure1::figure1;
    use kosr_core::{IndexedGraph, Query};
    use kosr_graph::{PartitionConfig, Partitioner};
    use kosr_service::{validate_prometheus_text, MetricsRegistry, ServiceConfig};

    use crate::{ShardRouter, ShardSet, SupervisorConfig};

    #[test]
    fn router_and_supervisor_export_one_valid_exposition() {
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
        let sup = router.supervisor(SupervisorConfig::default());
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        router.submit(q.clone()).unwrap().wait().unwrap();

        let mut reg = MetricsRegistry::new();
        reg.collect(&router);
        reg.collect(&sup);
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("kosr_shard_replicas_healthy{shard=\"0\"} 2"));
        assert!(text.contains("kosr_shard_replicas_healthy{shard=\"1\"} 2"));
        assert!(text.contains("kosr_service_completed_total{shard=\"0\",replica=\"0\"}"));
        assert!(
            text.contains("kosr_service_completed_total{shard=\"0\",replica=\"1\"}"),
            "every local replica exports its stats"
        );
        assert!(text.contains("kosr_supervisor_ticks_total 0"));
        assert!(text.contains("kosr_fleet_healthy 1"));

        // Kill a replica: the next export shows the degraded fleet and the
        // absorbed failover.
        switches[0].kill();
        router.submit(q).unwrap().wait().unwrap();
        sup.tick();
        let mut reg = MetricsRegistry::new();
        reg.collect(&router);
        reg.collect(&sup);
        let text = reg.render();
        validate_prometheus_text(&text).expect(&text);
        assert!(text.contains("kosr_shard_replicas_healthy{shard=\"0\"} 1"));
        assert!(text.contains("kosr_shard_failovers_total{shard=\"0\"} 1"));
        assert!(text.contains("kosr_fleet_healthy 0"));
        assert!(text.contains("kosr_supervisor_ticks_total 1"));
    }
}
