//! Property tests for plan validation (ISSUE 3): every plan the optimizer
//! emits — logical after Hep, physical after Volcano — passes
//! `validate()`, and structurally corrupted plans (a swapped/out-of-bounds
//! field index, a wrong claimed distribution) always fail it.

use ic_common::agg::AggFunc;
use ic_common::{BinOp, DataType, Datum, Expr, Field, Row, Schema};
use ic_opt::optimize_query;
use ic_plan::ops::{JoinKind, LogicalPlan, PhysOp, PhysPlan, RelOp};
use ic_plan::{AggCall, Distribution, PlannerFlags};
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
            [("big", 1500i64, false), ("mid", 250, false), ("tiny", 16, true)]
        {
            let dist = if replicated {
                TableDistribution::Replicated
            } else {
                TableDistribution::HashPartitioned { key_cols: vec![0] }
            };
            let id = cat.create_table(name, schema(name), vec![0], dist).unwrap();
            let rows: Vec<Row> =
                (0..n).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 13)])).collect();
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

/// Random bound queries: scans wrapped in filters, equi joins and
/// aggregates — the shapes the Hep and Volcano stages actually rewrite.
fn arb_tree() -> impl Strategy<Value = Arc<LogicalPlan>> {
    let table = prop_oneof![Just("big"), Just("mid"), Just("tiny")];
    table
        .prop_map(scan)
        .prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), -15i64..15).prop_map(|(p, v)| {
                    LogicalPlan::new(RelOp::Filter {
                        predicate: Expr::binary(
                            BinOp::Gt,
                            Expr::col(p.schema.arity() - 1),
                            Expr::lit(v),
                        ),
                        input: p,
                    })
                    .unwrap()
                }),
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
                inner.clone().prop_map(|p| {
                    LogicalPlan::new(RelOp::Aggregate {
                        group: vec![0],
                        aggs: vec![AggCall {
                            func: AggFunc::CountStar,
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

/// Rebuild `node` with its expression/key field indices pushed out of
/// bounds — the "swapped field index" corruption a buggy rule rewrite
/// would introduce. Applied to the first mutable node found (pre-order);
/// returns `None` for trees with no expression-bearing node.
fn corrupt_field_index(node: &Arc<PhysPlan>) -> Option<Arc<PhysPlan>> {
    let mut mutated = (**node).clone();
    let bogus = |arity: usize| Expr::col(arity + 5);
    let applied = match &mut mutated.op {
        PhysOp::Filter { input, predicate } => {
            *predicate = bogus(input.schema.arity());
            true
        }
        PhysOp::Project { input, exprs, .. } if !exprs.is_empty() => {
            exprs[0] = bogus(input.schema.arity());
            true
        }
        PhysOp::NestedLoopJoin { left, right, on, .. } => {
            *on = bogus(left.schema.arity() + right.schema.arity());
            true
        }
        PhysOp::HashJoin { left, left_keys, .. } | PhysOp::MergeJoin { left, left_keys, .. }
            if !left_keys.is_empty() =>
        {
            left_keys[0] = left.schema.arity() + 5;
            true
        }
        PhysOp::HashAggregate { input, group, .. } | PhysOp::SortAggregate { input, group, .. }
            if !group.is_empty() =>
        {
            group[0] = input.schema.arity() + 5;
            true
        }
        PhysOp::Sort { input, keys } if !keys.is_empty() => {
            keys[0].col = input.schema.arity() + 5;
            true
        }
        _ => false,
    };
    if applied {
        return Some(Arc::new(mutated));
    }
    // Recurse: corrupt the first corruptible child and rebuild this node
    // around it.
    let children = node.children();
    for (i, c) in children.iter().enumerate() {
        if let Some(bad) = corrupt_field_index(c) {
            let mut rebuilt = (**node).clone();
            replace_child(&mut rebuilt.op, i, bad);
            return Some(Arc::new(rebuilt));
        }
    }
    None
}

fn replace_child(op: &mut PhysOp<Arc<PhysPlan>>, idx: usize, with: Arc<PhysPlan>) {
    match op {
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::HashAggregate { input, .. }
        | PhysOp::SortAggregate { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::Limit { input, .. }
        | PhysOp::Exchange { input, .. } => *input = with,
        PhysOp::NestedLoopJoin { left, right, .. }
        | PhysOp::HashJoin { left, right, .. }
        | PhysOp::MergeJoin { left, right, .. } => {
            if idx == 0 {
                *left = with;
            } else {
                *right = with;
            }
        }
        PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => {
            unreachable!("leaf operators have no children")
        }
    }
}

/// Claim a distribution the node does not deliver: hash-distributed on a
/// column past the end of the schema. Always applicable (mutates the
/// root), always invalid.
fn corrupt_claimed_dist(node: &Arc<PhysPlan>) -> Arc<PhysPlan> {
    let mut mutated = (**node).clone();
    mutated.dist = Distribution::Hash(vec![node.schema.arity() + 3]);
    Arc::new(mutated)
}

/// Find an Exchange and flip its claimed distribution away from its `to`
/// target — the claim/delivery mismatch validate() checks directly.
fn corrupt_exchange_claim(node: &Arc<PhysPlan>) -> Option<Arc<PhysPlan>> {
    if let PhysOp::Exchange { to, .. } = &node.op {
        let mut mutated = (**node).clone();
        mutated.dist = match to {
            Distribution::Single => Distribution::Broadcast,
            _ => Distribution::Single,
        };
        return Some(Arc::new(mutated));
    }
    let children = node.children();
    for (i, c) in children.iter().enumerate() {
        if let Some(bad) = corrupt_exchange_claim(c) {
            let mut rebuilt = (**node).clone();
            replace_child(&mut rebuilt.op, i, bad);
            return Some(Arc::new(rebuilt));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// Every plan that comes out of Hep + Volcano passes validation:
    /// the logical plan after the Hep stage and the physical plan after
    /// the Volcano stage. (The pipeline itself re-checks both under
    /// debug_assertions and would panic, so this also proves the hooks
    /// are compatible with everything the planner emits.)
    #[test]
    fn optimized_plans_validate(tree in arb_tree()) {
        for flags in [PlannerFlags::ic(), PlannerFlags::ic_plus(), PlannerFlags::ic_plus_m()] {
            let opt = optimize_query(tree.clone(), catalog(), &flags)
                .unwrap_or_else(|e| panic!("planning failed: {e}"));
            prop_assert!(opt.logical.validate().is_ok(),
                "hep output failed validation: {:?}", opt.logical.validate());
            prop_assert!(opt.plan.validate().is_ok(),
                "volcano output failed validation: {:?}", opt.plan.validate());
        }
    }

    /// A swapped/out-of-bounds field index anywhere in the plan is caught.
    #[test]
    fn corrupted_field_index_fails(tree in arb_tree()) {
        let opt = optimize_query(tree, catalog(), &PlannerFlags::ic_plus()).unwrap();
        if let Some(bad) = corrupt_field_index(&opt.plan) {
            let res = bad.validate();
            prop_assert!(res.is_err(), "corrupted field index passed validation");
            let errs = res.unwrap_err();
            prop_assert!(
                errs.iter().any(|e| e.message.contains("out of bounds")
                    || e.message.contains("references column")
                    || e.message.contains("derivation failed")),
                "unexpected errors: {errs:?}"
            );
        }
    }

    /// A wrong claimed distribution at the root is caught.
    #[test]
    fn corrupted_claimed_dist_fails(tree in arb_tree()) {
        let opt = optimize_query(tree, catalog(), &PlannerFlags::ic_plus()).unwrap();
        let bad = corrupt_claimed_dist(&opt.plan);
        prop_assert!(bad.validate().is_err(), "bogus hash-distribution claim passed validation");
    }

    /// An Exchange claiming a distribution other than what it ships to is
    /// caught (when the plan has an Exchange at all).
    #[test]
    fn corrupted_exchange_claim_fails(tree in arb_tree()) {
        let opt = optimize_query(tree, catalog(), &PlannerFlags::ic_plus()).unwrap();
        if let Some(bad) = corrupt_exchange_claim(&opt.plan) {
            let res = bad.validate();
            prop_assert!(res.is_err(), "exchange claim mismatch passed validation");
            let errs = res.unwrap_err();
            prop_assert!(
                errs.iter().any(|e| e.message.contains("exchange ships to")),
                "unexpected errors: {errs:?}"
            );
        }
    }
}
