//! The end-to-end optimization pipeline (Figure 6) — two stages, each a
//! public function so the engine (`Cluster::plan_query`) and the benchmark
//! time the very calls [`optimize_query`] composes:
//!
//! 1. **Stage 1** — [`hep_stage`]: up to three HepPlanners run the logical
//!    rewrite lists (§3.2.1), including the IC+-only FILTER_CORRELATE and
//!    §5.2 condition-simplification rules.
//! 2. **Stage 2** — [`volcano_stage`], the single home of the §4.3 reorder
//!    decision:
//!    * Baseline (single-phase, §4.3): one VolcanoPlanner with everything
//!      enabled. The logical×physical cartesian regeneration is modelled
//!      by weighting each transformation firing by
//!      [`SINGLE_PHASE_FACTOR`]; large join queries exhaust the budget and
//!      fail to produce a plan — the paper's Q2/Q5/Q9 failures.
//!    * Improved (two-phase): logical simplification has already run in
//!      stage 1; the physical phase runs with the join-reordering rules
//!      enabled, **unless** the query has more than [`MAX_JOINS_REORDER`]
//!      joins or more than [`MAX_NESTED_REORDER`] nested joins, in which
//!      case the conditional second physical phase without those rules is
//!      used (§4.3).
//!    * Either way the planner's last step trims the chosen plan to the
//!      columns the query reads ([`crate::trim`]).

use crate::hep::hep_stage;
use crate::volcano::VolcanoPlanner;
use ic_common::IcResult;
use ic_plan::ops::{LogicalPlan, PhysPlan};
use ic_plan::PlannerFlags;
use ic_storage::Catalog;
use std::sync::Arc;

/// §4.3: reordering is disabled for queries with more than four join
/// operations…
pub const MAX_JOINS_REORDER: usize = 4;
/// …or more than three nested joins.
pub const MAX_NESTED_REORDER: usize = 3;

/// Weight applied to each transformation firing in the baseline's
/// single-phase configuration, modelling Calcite regenerating "all the
/// corresponding physical optimizations for every logical alternative".
pub const SINGLE_PHASE_FACTOR: u64 = 8;

/// Result of query optimization, with planner telemetry.
#[derive(Debug, Clone)]
pub struct Optimized {
    pub plan: Arc<PhysPlan>,
    /// The logical plan after the Hep stage (for EXPLAIN).
    pub logical: Arc<LogicalPlan>,
    /// Weighted transformation-rule firings in the Volcano stage.
    pub rule_firings: u64,
    /// Whether the conditional reorder-free phase was used (§4.3).
    pub reorder_disabled: bool,
}

/// Run the full two-stage optimization pipeline on a bound logical plan:
/// [`hep_stage`], then [`volcano_stage`].
pub fn optimize_query(
    plan: Arc<LogicalPlan>,
    catalog: &Arc<Catalog>,
    flags: &PlannerFlags,
) -> IcResult<Optimized> {
    volcano_stage(hep_stage(plan, flags)?, catalog, flags)
}

/// Stage 2 on a Hep-rewritten logical plan: decide reordering (§4.3), run
/// the VolcanoPlanner, report its telemetry.
pub fn volcano_stage(
    logical: Arc<LogicalPlan>,
    catalog: &Arc<Catalog>,
    flags: &PlannerFlags,
) -> IcResult<Optimized> {
    let (reorder, factor) = if flags.two_phase {
        let too_big = logical.count_joins() > MAX_JOINS_REORDER
            || logical.max_join_nesting() > MAX_NESTED_REORDER;
        (!too_big, 1)
    } else {
        (true, SINGLE_PHASE_FACTOR)
    };
    let mut volcano = VolcanoPlanner::new(catalog.clone(), flags.clone(), reorder, factor);
    let plan = volcano.optimize(&logical)?;
    if cfg!(debug_assertions) {
        // After the field trim that ends `optimize`: what runs is checked.
        ic_plan::validate::debug_validate(&plan, "volcano stage");
    }
    Ok(Optimized {
        plan,
        logical,
        rule_firings: volcano.rule_firings,
        reorder_disabled: !reorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::agg::AggFunc;
    use ic_common::{DataType, Datum, Expr, Field, Row, Schema};
    use ic_plan::ops::{AggCall, JoinKind, PhysOp, RelOp, SortKey};
    use ic_plan::Distribution;
    use ic_storage::TableDistribution;

    /// Build a catalog with two partitioned tables and one replicated one.
    fn catalog(sites: usize) -> Arc<Catalog> {
        let cat = Catalog::new(sites, 0);
        let mk_schema = |name: &str, cols: usize| {
            Schema::new((0..cols).map(|i| Field::new(format!("{name}{i}"), DataType::Int)).collect())
        };
        let big = cat
            .create_table("big", mk_schema("b", 3), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        let mid = cat
            .create_table("mid", mk_schema("m", 2), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        let tiny = cat
            .create_table("tiny", mk_schema("t", 2), vec![0], TableDistribution::Replicated)
            .unwrap();
        // Load deterministic data: big 4000 rows, mid 400, tiny 10.
        let rows = |n: i64, c: usize, dmod: i64| -> Vec<Row> {
            (0..n).map(|i| Row((0..c).map(|j| Datum::Int((i * (j as i64 + 1)) % dmod)).collect())).collect()
        };
        cat.insert(big, rows(4000, 3, 4000)).unwrap();
        cat.insert(mid, rows(400, 2, 400)).unwrap();
        cat.insert(tiny, rows(10, 2, 10)).unwrap();
        for t in [big, mid, tiny] {
            cat.analyze(t).unwrap();
        }
        cat.create_index("big_ix0", big, vec![1]).unwrap();
        cat.analyze(big).unwrap();
        cat
    }

    fn scan(cat: &Catalog, name: &str) -> Arc<LogicalPlan> {
        let id = cat.table_by_name(name).unwrap();
        let def = cat.table_def(id).unwrap();
        LogicalPlan::new(RelOp::Scan { table: id, name: name.into(), schema: def.schema.clone() }).unwrap()
    }

    fn count_op(plan: &PhysPlan, name: &str) -> usize {
        plan.count_ops(&|op| {
            let label = match op {
                PhysOp::TableScan { .. } => "TableScan",
                PhysOp::IndexScan { .. } => "IndexScan",
                PhysOp::Filter { .. } => "Filter",
                PhysOp::Project { .. } => "Project",
                PhysOp::NestedLoopJoin { .. } => "NestedLoopJoin",
                PhysOp::HashJoin { .. } => "HashJoin",
                PhysOp::MergeJoin { .. } => "MergeJoin",
                PhysOp::HashAggregate { .. } => "HashAggregate",
                PhysOp::SortAggregate { .. } => "SortAggregate",
                PhysOp::Sort { .. } => "Sort",
                PhysOp::Limit { .. } => "Limit",
                PhysOp::Exchange { .. } => "Exchange",
                PhysOp::Values { .. } => "Values",
            };
            label == name
        })
    }

    #[test]
    fn scan_plan_root_is_single() {
        let cat = catalog(4);
        let plan = scan(&cat, "big");
        let opt = optimize_query(plan, &cat, &PlannerFlags::ic_plus()).unwrap();
        assert_eq!(opt.plan.dist, Distribution::Single);
        // A partitioned scan must be exchanged to the coordinator.
        assert!(count_op(&opt.plan, "Exchange") >= 1);
    }

    #[test]
    fn equi_join_uses_hash_join_in_improved_only() {
        let cat = catalog(4);
        let mk = || {
            LogicalPlan::new(RelOp::Join {
                left: scan(&cat, "big"),
                right: scan(&cat, "mid"),
                kind: JoinKind::Inner,
                on: Expr::eq(Expr::col(0), Expr::col(3)),
                from_correlate: false,
            })
            .unwrap()
        };
        let plus = optimize_query(mk(), &cat, &PlannerFlags::ic_plus()).unwrap();
        assert!(
            count_op(&plus.plan, "HashJoin") >= 1,
            "IC+ should hash join:\n{}",
            ic_plan::explain::explain_physical(&plus.plan)
        );
        let base = optimize_query(mk(), &cat, &PlannerFlags::ic()).unwrap();
        assert_eq!(count_op(&base.plan, "HashJoin"), 0, "baseline has no hash join operator");
    }

    #[test]
    fn broadcast_mapping_keeps_big_table_in_place() {
        // big ⋈ tiny on a non-partition key of big: without the §5.1.1
        // mapping the planner must ship big; with it, tiny (replicated)
        // stays broadcast and big is joined in place.
        let cat = catalog(4);
        let mk = || {
            LogicalPlan::new(RelOp::Join {
                left: scan(&cat, "big"),
                right: scan(&cat, "tiny"),
                kind: JoinKind::Inner,
                on: Expr::eq(Expr::col(1), Expr::col(3)),
                from_correlate: false,
            })
            .unwrap()
        };
        let plus = optimize_query(mk(), &cat, &PlannerFlags::ic_plus()).unwrap();
        // The join itself should run distributed (hash side kept in place):
        // the only exchange acceptable below the root collects results.
        let explain = ic_plan::explain::explain_physical(&plus.plan);
        // Find the join node and check its left child has no exchange.
        fn join_left_has_exchange(p: &PhysPlan) -> Option<bool> {
            match &p.op {
                PhysOp::HashJoin { left, .. }
                | PhysOp::MergeJoin { left, .. }
                | PhysOp::NestedLoopJoin { left, .. } => Some(left.has_exchange),
                _ => p.children().iter().find_map(|c| join_left_has_exchange(c)),
            }
        }
        assert_eq!(join_left_has_exchange(&plus.plan), Some(false), "{explain}");
    }

    #[test]
    fn scalar_aggregate_two_phase() {
        let cat = catalog(4);
        let agg = LogicalPlan::new(RelOp::Aggregate {
            input: scan(&cat, "big"),
            group: vec![],
            aggs: vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(2)), name: "s".into() }],
        })
        .unwrap();
        let opt = optimize_query(agg, &cat, &PlannerFlags::ic_plus()).unwrap();
        // Expect map-reduce: a Partial and a Final hash aggregate.
        let partials = opt.plan.count_ops(&|op| {
            matches!(op, PhysOp::HashAggregate { phase: ic_plan::AggPhase::Partial, .. })
        });
        let finals = opt.plan.count_ops(&|op| {
            matches!(op, PhysOp::HashAggregate { phase: ic_plan::AggPhase::Final, .. })
        });
        assert_eq!(
            (partials, finals),
            (1, 1),
            "{}",
            ic_plan::explain::explain_physical(&opt.plan)
        );
    }

    #[test]
    fn order_by_plans_sort_at_single_site() {
        let cat = catalog(4);
        let sort = LogicalPlan::new(RelOp::Sort {
            input: scan(&cat, "mid"),
            keys: vec![SortKey::asc(1)],
        })
        .unwrap();
        let opt = optimize_query(sort, &cat, &PlannerFlags::ic_plus()).unwrap();
        assert_eq!(opt.plan.dist, Distribution::Single);
        assert!(collation_starts(&opt.plan, 1));
        fn collation_starts(p: &PhysPlan, col: usize) -> bool {
            p.collation.first().is_some_and(|k| k.col == col && !k.desc)
        }
    }

    #[test]
    fn reorder_budget_exhaustion_in_baseline() {
        // A 7-way chain join: the baseline single-phase configuration (×8
        // weighting) must exhaust a small budget, while the improved
        // two-phase pipeline disables reordering (>4 joins) and plans fine.
        let cat = catalog(2);
        let mut flags_base = PlannerFlags::ic();
        let mut flags_plus = PlannerFlags::ic_plus();
        flags_base.planner_budget = 600;
        flags_plus.planner_budget = 600;
        let mk = || {
            let mut plan = scan(&cat, "mid");
            for _ in 0..6 {
                let right = scan(&cat, "tiny");
                let left_ar = plan.schema.arity();
                plan = LogicalPlan::new(RelOp::Join {
                    left: plan,
                    right,
                    kind: JoinKind::Inner,
                    on: Expr::eq(Expr::col(left_ar - 1), Expr::col(left_ar)),
                    from_correlate: false,
                })
                .unwrap();
            }
            plan
        };
        let base = optimize_query(mk(), &cat, &flags_base);
        assert!(
            matches!(base, Err(ic_common::IcError::PlannerBudgetExceeded { .. })),
            "baseline should exhaust its budget, got {base:?}"
        );
        let plus = optimize_query(mk(), &cat, &flags_plus).unwrap();
        assert!(plus.reorder_disabled);
    }

    #[test]
    fn small_join_still_reorders_in_two_phase() {
        let cat = catalog(2);
        let j = LogicalPlan::new(RelOp::Join {
            left: scan(&cat, "big"),
            right: scan(&cat, "mid"),
            kind: JoinKind::Inner,
            on: Expr::eq(Expr::col(0), Expr::col(3)),
            from_correlate: false,
        })
        .unwrap();
        let opt = optimize_query(j, &cat, &PlannerFlags::ic_plus()).unwrap();
        assert!(!opt.reorder_disabled);
        assert!(opt.rule_firings > 0, "commute should have fired");
    }

    #[test]
    fn semi_join_plans() {
        let cat = catalog(4);
        let j = LogicalPlan::new(RelOp::Join {
            left: scan(&cat, "big"),
            right: scan(&cat, "mid"),
            kind: JoinKind::Semi,
            on: Expr::eq(Expr::col(0), Expr::col(3)),
            from_correlate: true,
        })
        .unwrap();
        for flags in [PlannerFlags::ic(), PlannerFlags::ic_plus()] {
            let opt = optimize_query(j.clone(), &cat, &flags).unwrap();
            assert_eq!(opt.plan.schema.arity(), 3, "semi join keeps left columns only");
            assert_eq!(opt.plan.dist, Distribution::Single);
        }
    }

    #[test]
    fn group_by_aggregate_all_variants() {
        let cat = catalog(4);
        let agg = LogicalPlan::new(RelOp::Aggregate {
            input: scan(&cat, "big"),
            group: vec![1],
            aggs: vec![
                AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
                AggCall { func: AggFunc::Avg, arg: Some(Expr::col(2)), name: "a".into() },
            ],
        })
        .unwrap();
        for flags in [PlannerFlags::ic(), PlannerFlags::ic_plus(), PlannerFlags::ic_plus_m()] {
            let opt = optimize_query(agg.clone(), &cat, &flags).unwrap();
            assert_eq!(opt.plan.schema.arity(), 3);
            assert_eq!(opt.plan.dist, Distribution::Single);
        }
    }

    #[test]
    fn count_distinct_never_splits() {
        let cat = catalog(4);
        let agg = LogicalPlan::new(RelOp::Aggregate {
            input: scan(&cat, "big"),
            group: vec![1],
            aggs: vec![AggCall {
                func: AggFunc::CountDistinct,
                arg: Some(Expr::col(0)),
                name: "cd".into(),
            }],
        })
        .unwrap();
        let opt = optimize_query(agg, &cat, &PlannerFlags::ic_plus()).unwrap();
        let partials = opt.plan.count_ops(&|op| {
            matches!(
                op,
                PhysOp::HashAggregate { phase: ic_plan::AggPhase::Partial, .. }
                    | PhysOp::SortAggregate { phase: ic_plan::AggPhase::Partial, .. }
            )
        });
        assert_eq!(partials, 0, "COUNT DISTINCT is a reduction; no partial phase");
    }
}
