//! The query planner: picks a [`Method`] and an expansion budget per query
//! from its shape — `k`, `|C|`, and category selectivity read from the
//! shared index (`kosr_index` via [`IndexedGraph`]).
//!
//! The policy distils the paper's evaluation (§V, Figure 3):
//!
//! * **StarKOSR (SK)** wins overall — estimation-guided expansion examines
//!   orders of magnitude fewer routes, and its edge *grows* with sparse
//!   categories, long sequences and small k. It is the default.
//! * **PruningKOSR (PK)** stays within a small constant of SK while
//!   skipping per-route `dis(·, t)` estimation. When categories are dense
//!   (high selectivity) and k is large, most partial routes must be
//!   expanded anyway, so the estimation spend buys little — PK is chosen.
//! * **KPNE** is only competitive when the whole candidate space is tiny
//!   (the product of the queried category sizes fits in a few dozen
//!   routes); then its lack of dominance bookkeeping makes it cheapest.
//!
//! The rule is fixed: a plan is a function of the index and the query over
//! the configured [`PlannerConfig`] constants, with no state behind it.

use std::time::Duration;

use kosr_core::{IndexedGraph, Method, Query};

/// Tunables for [`QueryPlanner`]. The defaults encode the paper-derived
/// policy above; services can override any threshold.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Candidate-space cutoff below which KPNE is picked: if
    /// `Π |Ci| · k ≤ kpne_cutoff`, exhaustive expansion is cheapest.
    pub kpne_cutoff: u64,
    /// Selectivity at or above which categories count as "dense" for the PK
    /// rule.
    pub dense_selectivity: f64,
    /// `k` at or above which dense queries switch from SK to PK.
    pub dense_k: usize,
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
            kpne_cutoff: 64,
            dense_selectivity: 0.25,
            dense_k: 8,
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
    /// The algorithm to run.
    pub method: Method,
    /// Examined-routes budget handed to `IndexedGraph::run_bounded`.
    pub examined_budget: u64,
    /// Wall-clock deadline for the query (submit → response), if any.
    pub deadline: Option<Duration>,
    /// Run with remaining-sequence lower bounds (bound-ordered queue +
    /// push-time pruning). See [`PlannerConfig::use_bounds`].
    pub use_bounds: bool,
}

/// Chooses per-query plans against one shared [`IndexedGraph`].
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

    /// Plans `query` against `ig`. The query is assumed validated.
    pub fn plan(&self, ig: &IndexedGraph, query: &Query) -> QueryPlan {
        let cfg = &self.config;

        // Candidate-space size: Π |Ci| (saturating) times k. Member counts
        // and selectivity come from the inverted label index — the
        // query-time source of truth, which dynamic updates keep current.
        let mut product: u64 = 1;
        let mut max_selectivity: f64 = 0.0;
        for &c in &query.categories {
            let members = ig.inverted.members_of(c) as u64;
            product = product.saturating_mul(members.max(1));
            max_selectivity = max_selectivity.max(ig.category_selectivity(c));
        }
        let space = product.saturating_mul(query.k as u64);

        let method = if !query.categories.is_empty() && space <= cfg.kpne_cutoff {
            Method::Kpne
        } else if max_selectivity >= cfg.dense_selectivity && query.k >= cfg.dense_k {
            Method::Pk
        } else {
            Method::Sk
        };

        let levels = (query.categories.len() as u64).saturating_add(2);
        let examined_budget = cfg
            .expansion_per_level
            .saturating_mul(query.k as u64)
            .saturating_mul(levels)
            .min(cfg.max_examined);

        QueryPlan {
            method,
            examined_budget,
            deadline: cfg.deadline,
            use_bounds: cfg.use_bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::figure1::figure1;
    use kosr_graph::{CategoryId, VertexId};
    use kosr_workloads::{assign_uniform, road_grid_directed};

    fn fig1_ig() -> IndexedGraph {
        IndexedGraph::build_default(figure1().graph.clone())
    }

    #[test]
    fn tiny_candidate_space_uses_kpne() {
        // Figure 1 has three categories with ≤ 2 members each: the whole
        // candidate space fits under the KPNE cutoff.
        let fx = figure1();
        let ig = fig1_ig();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let plan = QueryPlanner::default().plan(&ig, &q);
        assert_eq!(plan.method, Method::Kpne);
        assert!(plan.examined_budget >= 1_000_000);
        // And the plan actually answers the paper's example correctly.
        let out = ig.run_bounded(&q, plan.method, plan.examined_budget);
        assert_eq!(out.costs(), vec![20, 21, 22]);
    }

    #[test]
    fn sparse_categories_use_sk_dense_large_k_uses_pk() {
        let mut g = road_grid_directed(16, 16, 3);
        // 4 sparse categories (8 of 256 vertices ≈ 3% selectivity).
        assign_uniform(&mut g, 4, 8, 7);
        let ig = IndexedGraph::build_default(g);
        let planner = QueryPlanner::default();

        let sparse = Query::new(
            VertexId(0),
            VertexId(255),
            vec![CategoryId(0), CategoryId(1), CategoryId(2)],
            4,
        );
        assert_eq!(planner.plan(&ig, &sparse).method, Method::Sk);

        // Dense: 2 categories covering 40% of vertices, large k.
        let mut g = road_grid_directed(16, 16, 3);
        assign_uniform(&mut g, 2, 102, 7);
        let ig = IndexedGraph::build_default(g);
        let dense = Query::new(
            VertexId(0),
            VertexId(255),
            vec![CategoryId(0), CategoryId(1)],
            16,
        );
        assert_eq!(planner.plan(&ig, &dense).method, Method::Pk);
        // Same shape but k below the dense threshold stays on SK.
        let small_k = Query::new(VertexId(0), VertexId(255), vec![CategoryId(0)], 2);
        assert_eq!(planner.plan(&ig, &small_k).method, Method::Sk);
    }

    #[test]
    fn budget_scales_with_query_shape_and_respects_ceiling() {
        let ig = fig1_ig();
        let fx = figure1();
        let planner = QueryPlanner::new(PlannerConfig {
            expansion_per_level: 10,
            max_examined: 1000,
            ..Default::default()
        });
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 3);
        // 10 per level · k=3 · (2 + 2) levels = 120.
        assert_eq!(planner.plan(&ig, &q).examined_budget, 120);

        let big = Query::new(fx.s, fx.t, vec![fx.ma, fx.re], 1000);
        assert_eq!(planner.plan(&ig, &big).examined_budget, 1000, "ceiling");
    }

    #[test]
    fn rule_edges_are_pinned() {
        // Each `≤`/`≥` comparison of the rule, met exactly and missed by
        // one step, on Figure 1 (MA and RE, two members each).
        let fx = figure1();
        let ig = fig1_ig();
        let (cats, k) = (vec![fx.ma, fx.re], 3);
        let space: u64 = cats
            .iter()
            .map(|&c| ig.inverted.members_of(c) as u64)
            .product::<u64>()
            * k as u64;
        let densest = cats
            .iter()
            .map(|&c| ig.category_selectivity(c))
            .fold(0.0, f64::max);
        let query = |categories: &[CategoryId], k| Query::new(fx.s, fx.t, categories.to_vec(), k);
        // KPNE held off so the dense rows reach the PK comparison.
        let dense = |dense_selectivity| PlannerConfig {
            kpne_cutoff: 0,
            dense_selectivity,
            dense_k: k,
            ..Default::default()
        };
        let budget = |k: usize, levels: u64| 1_000_000 * k as u64 * levels;
        let cases = [
            (
                "space == kpne_cutoff",
                PlannerConfig {
                    kpne_cutoff: space,
                    ..Default::default()
                },
                query(&cats, k),
                Method::Kpne,
                budget(k, 4),
            ),
            (
                "space == kpne_cutoff + 1",
                PlannerConfig {
                    kpne_cutoff: space - 1,
                    ..Default::default()
                },
                query(&cats, k),
                Method::Sk,
                budget(k, 4),
            ),
            (
                "no categories, any cutoff",
                PlannerConfig {
                    kpne_cutoff: u64::MAX,
                    ..Default::default()
                },
                query(&[], k),
                Method::Sk,
                budget(k, 2),
            ),
            (
                "selectivity == bar, k == dense_k",
                dense(densest),
                query(&cats, k),
                Method::Pk,
                budget(k, 4),
            ),
            (
                "selectivity == bar, k == dense_k - 1",
                dense(densest),
                query(&cats, k - 1),
                Method::Sk,
                budget(k - 1, 4),
            ),
            (
                "selectivity one ulp under bar, k == dense_k",
                dense(f64::from_bits(densest.to_bits() + 1)),
                query(&cats, k),
                Method::Sk,
                budget(k, 4),
            ),
            (
                "budget product overflows",
                PlannerConfig {
                    expansion_per_level: u64::MAX / 2,
                    max_examined: u64::MAX - 1,
                    ..Default::default()
                },
                query(&cats, k),
                Method::Kpne,
                u64::MAX - 1,
            ),
        ];
        for (edge, config, q, method, examined_budget) in cases {
            assert_eq!(
                QueryPlanner::new(config).plan(&ig, &q),
                QueryPlan {
                    method,
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
        let ig = fig1_ig();
        let fx = figure1();
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert!(
            QueryPlanner::default().plan(&ig, &q).use_bounds,
            "default on"
        );
        let off = QueryPlanner::new(PlannerConfig {
            use_bounds: false,
            ..Default::default()
        });
        assert!(!off.plan(&ig, &q).use_bounds);
    }

    #[test]
    fn deadline_propagates_to_plans() {
        let ig = fig1_ig();
        let fx = figure1();
        let planner = QueryPlanner::new(PlannerConfig {
            deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        });
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert_eq!(
            planner.plan(&ig, &q).deadline,
            Some(Duration::from_millis(250))
        );
    }
}
