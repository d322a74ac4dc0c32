//! The query planner: every served query runs StarKOSR (SK); the plan
//! carries SK's examined-routes budget, the deadline and the bound toggle.
//!
//! Why SK alone. The paper presents SK as its faster algorithm: it extends
//! routes A*-style, so it reaches the qualified routes early (§V,
//! Figure 3). Every measurement of this workspace agrees:
//!
//! * A former fixed rule picked KPNE when `Π |Cᵢ| · k ≤ 64` and
//!   PruningKOSR (PK) when some category covered ≥ 25 % of the vertices
//!   and `k ≥ 8`. On the `search_deep` benchmark world (2 shards, C₁
//!   rewritten to its shard shadow) it sent 8–22 % of the |C| ≥ 3 shard
//!   queries to PK; serving all of them with SK cut the kernel time of
//!   that population by 36 % (552 → 353 ms, best of 3), every answer
//!   cost-identical. PK was faster on 8 of the 38 queries it received in
//!   an earlier pass, and always-SK was 17 % cheaper overall.
//! * The rule's one win was KPNE on tiny candidate spaces (`|C| = 1`,
//!   `k = 1` on a hot world): 7.2 µs against SK's 9.1 µs, +2 µs on a
//!   cache miss whose end-to-end p50 is ~230 µs. Not worth a second served
//!   path.
//!
//! Answers are canonical (`IndexedGraph::run_canonical`), so the method
//! never changes an answer, only its cost. KPNE and PK stay library
//! algorithms: the reproduction, the benches and the oracle suites run
//! them.

use std::time::Duration;

use kosr_core::{Method, Query};

/// Tunables for [`QueryPlanner`].
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Per-witness-level examined-routes allowance backing the expansion
    /// budget: `budget = expansion_per_level · k · (|C| + 2)`.
    pub expansion_per_level: u64,
    /// Hard ceiling on any query's examined-routes budget.
    pub max_examined: u64,
    /// Default wall-clock deadline stamped on plans (queue wait included);
    /// `None` admits queries with no deadline.
    pub deadline: Option<Duration>,
    /// When `true` (the default), executions run with the index's
    /// inter-category lower-bound tables: the search queue is ordered by
    /// `cost + remaining-sequence bound` and provably uncompletable
    /// candidates are pruned at push time. Results are bit-identical
    /// either way (the bounds are admissible and consistent); the toggle
    /// exists for A/B measurement and as an escape hatch.
    pub use_bounds: bool,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            // Generous: ~1M examined routes per level covers every workload
            // in the repro suite without ever truncating, while still
            // bounding adversarial queries.
            expansion_per_level: 1_000_000,
            max_examined: u64::MAX,
            deadline: None,
            use_bounds: true,
        }
    }
}

/// What the planner decided for one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    /// The algorithm to run: always [`Method::Sk`] (see the module docs).
    pub method: Method,
    /// Examined-routes budget handed to `IndexedGraph::run_bounded`.
    pub examined_budget: u64,
    /// Wall-clock deadline for the query (submit → response), if any.
    pub deadline: Option<Duration>,
    /// Run with remaining-sequence lower bounds (bound-ordered queue +
    /// push-time pruning). See [`PlannerConfig::use_bounds`].
    pub use_bounds: bool,
}

/// Turns a query's shape into a [`QueryPlan`]: a pure function of the
/// query and the configured constants.
#[derive(Clone, Debug, Default)]
pub struct QueryPlanner {
    config: PlannerConfig,
}

impl QueryPlanner {
    /// A planner with the given tunables.
    pub fn new(config: PlannerConfig) -> QueryPlanner {
        QueryPlanner { config }
    }

    /// The active tunables.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plans `query`. The query is assumed validated.
    pub fn plan(&self, query: &Query) -> QueryPlan {
        let cfg = &self.config;
        let levels = (query.categories.len() as u64).saturating_add(2);
        let examined_budget = cfg
            .expansion_per_level
            .saturating_mul(query.k as u64)
            .saturating_mul(levels)
            .min(cfg.max_examined);
        QueryPlan {
            method: Method::Sk,
            examined_budget,
            deadline: cfg.deadline,
            use_bounds: cfg.use_bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_core::{brute_force_topk, IndexedGraph};
    use kosr_graph::{CategoryId, VertexId};
    use kosr_workloads::{assign_uniform, road_grid_directed};

    use crate::{KosrService, ServiceConfig};

    #[test]
    fn method_choice_cannot_change_an_answer() {
        // The two shapes the former rule sent away from SK: Figure 1's
        // tiny candidate space (KPNE) and a dense 16×16 grid at k = 16
        // (PK). Each is planned SK, and the served answer equals the
        // canonical answer of every method and the brute-force oracle.
        let fx = figure1();
        let mut dense = road_grid_directed(16, 16, 3);
        assign_uniform(&mut dense, 2, 102, 7);
        let shapes = [
            (
                "figure 1, once KPNE",
                fx.graph.clone(),
                Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3),
            ),
            (
                "dense 16x16 at k = 16, once PK",
                dense,
                Query::new(
                    VertexId(0),
                    VertexId(255),
                    vec![CategoryId(0), CategoryId(1)],
                    16,
                ),
            ),
        ];
        for (shape, g, q) in shapes {
            let oracle = brute_force_topk(&g, &q, 1_000_000).expect("small world");
            let ig = Arc::new(IndexedGraph::build_default(g));
            let service = KosrService::new(
                Arc::clone(&ig),
                ServiceConfig {
                    workers: 1,
                    ..Default::default()
                },
            );
            let plan = service.plan(&q);
            assert_eq!(plan.method, Method::Sk, "{shape}");
            let served = service.submit(q.clone()).unwrap().wait().unwrap();
            assert_eq!(served.plan, plan, "{shape}");
            assert_eq!(served.outcome.witnesses, oracle, "{shape}: brute force");
            for m in [Method::Kpne, Method::Pk] {
                let other = ig.run_canonical(&q, m, plan.examined_budget);
                assert_eq!(served.outcome.witnesses, other.witnesses, "{shape}: {m:?}");
            }
        }
    }

    #[test]
    fn budget_scales_with_query_shape_and_respects_ceiling() {
        let fx = figure1();
        let planner = QueryPlanner::new(PlannerConfig {
            expansion_per_level: 10,
            max_examined: 1000,
            ..Default::default()
        });
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 3);
        // 10 per level · k=3 · (2 + 2) levels = 120.
        assert_eq!(planner.plan(&q).examined_budget, 120);

        let big = Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 1000);
        assert_eq!(planner.plan(&big).examined_budget, 1000, "ceiling");
    }

    #[test]
    fn rule_edges_are_pinned() {
        // The budget's edges: no categories (two levels), and a product
        // that overflows into the ceiling.
        let fx = figure1();
        let k = 3;
        let query = |categories: &[CategoryId]| Query::new(fx.s, fx.t, categories.to_vec(), k);
        let cases = [
            (
                "no categories",
                PlannerConfig::default(),
                query(&[]),
                1_000_000 * k as u64 * 2,
            ),
            (
                "budget product overflows",
                PlannerConfig {
                    expansion_per_level: u64::MAX / 2,
                    max_examined: u64::MAX - 1,
                    ..Default::default()
                },
                query(&[fx.ma, fx.re]),
                u64::MAX - 1,
            ),
        ];
        for (edge, config, q, examined_budget) in cases {
            assert_eq!(
                QueryPlanner::new(config).plan(&q),
                QueryPlan {
                    method: Method::Sk,
                    examined_budget,
                    deadline: None,
                    use_bounds: true,
                },
                "{edge}"
            );
        }
    }

    #[test]
    fn bounds_toggle_propagates_to_plans() {
        let fx = figure1();
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert!(QueryPlanner::default().plan(&q).use_bounds, "default on");
        let off = QueryPlanner::new(PlannerConfig {
            use_bounds: false,
            ..Default::default()
        });
        assert!(!off.plan(&q).use_bounds);
    }

    #[test]
    fn deadline_propagates_to_plans() {
        let fx = figure1();
        let planner = QueryPlanner::new(PlannerConfig {
            deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        });
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert_eq!(planner.plan(&q).deadline, Some(Duration::from_millis(250)));
    }
}
