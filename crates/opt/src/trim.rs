//! Field trimming: one top-down *required-columns* pass over the chosen
//! physical plan (Calcite's `RelFieldTrimmer`), run as the last step of
//! [`VolcanoPlanner::optimize`], so that join builds, gathers, sorts and
//! exchanges carry only the columns the query reads.
//!
//! The contract is `trim(node, required) → node′` with one invariant:
//! *`node′` outputs exactly `required`, in original order* — old column
//! `required[i]` is new column `i`, which is the whole old → new column map.
//! The root requires everything; every other node is asked for what
//! [`PhysPlan::input_requirements`] says its consumer reads or passes on.
//! Wherever an operator's natural output exceeds `required` — a scan, a
//! filter's predicate-only columns, a join's key-only columns — a bare-column
//! `Project` goes on top, which the executor runs as an `Arc` clone per kept
//! column per batch.
//!
//! Plan *choice* is untouched: this runs after the search, on its winner.
//! Row estimates are carried, schemas re-derived, a hash distribution whose
//! key nobody requires degrades its claim to `Random`, a collation is cut at
//! the first dropped key, and costs are recomputed so EXPLAIN stays
//! self-consistent. Every node is allocated afresh and nothing is memoized
//! by input pointer, so a subtree the memo shares between two parents is
//! trimmed once per parent, to that parent's required set.

use crate::volcano::VolcanoPlanner;
use ic_common::Expr;
use ic_plan::ops::{PhysOp, PhysPlan, SortKey};
use ic_plan::Distribution;
use std::sync::Arc;

/// New position of old column `c` among the sorted kept columns.
fn pos(kept: &[usize], c: usize) -> Option<usize> {
    kept.binary_search(&c).ok()
}

/// `dist` and `collation` of a node whose output shrank to the columns
/// `kept` (old numbering).
fn remap_traits(
    dist: &Distribution,
    collation: &[SortKey],
    kept: &[usize],
) -> (Distribution, Vec<SortKey>) {
    let collation = collation
        .iter()
        .map_while(|k| pos(kept, k.col).map(|col| SortKey { col, desc: k.desc }))
        .collect();
    (dist.remap(&|c| pos(kept, c)), collation)
}

/// The input and column list of a bare-column `Project`.
fn bare_project(node: &PhysPlan) -> Option<(&Arc<PhysPlan>, Vec<usize>)> {
    let PhysOp::Project { input, exprs, .. } = &node.op else { return None };
    let cols = exprs.iter().map(|e| if let Expr::Col(c) = e { Some(*c) } else { None });
    Some((input, cols.collect::<Option<Vec<usize>>>()?))
}

impl VolcanoPlanner {
    /// Trim `plan` to the columns the query reads; the root keeps them all.
    pub(crate) fn trim_plan(&self, plan: &Arc<PhysPlan>) -> Arc<PhysPlan> {
        let all: Vec<usize> = (0..plan.schema.arity()).collect();
        self.trim_node(plan, &all)
    }

    fn trim_node(&self, node: &Arc<PhysPlan>, required: &[usize]) -> Arc<PhysPlan> {
        let reqs = node.input_requirements(required);
        let mut children: Vec<Arc<PhysPlan>> =
            node.children().into_iter().zip(&reqs).map(|(c, r)| self.trim_node(c, r)).collect();
        #[expect(clippy::expect_used, reason = "input_requirements keeps, per input, every column the operator reads from it")]
        let kept = |input: usize, c: usize| {
            pos(&reqs[input], c).expect("an input keeps every column its consumer reads")
        };
        // The old output columns the rebuilt operator emits.
        let natural: Vec<usize> = match &node.op {
            PhysOp::Project { .. } => required.to_vec(),
            PhysOp::Filter { .. }
            | PhysOp::Sort { .. }
            | PhysOp::Limit { .. }
            | PhysOp::Exchange { .. } => reqs[0].clone(),
            PhysOp::NestedLoopJoin { left, kind, .. }
            | PhysOp::HashJoin { left, kind, .. }
            | PhysOp::MergeJoin { left, kind, .. } => {
                let right = reqs[1].iter().filter(|_| kind.emits_right());
                reqs[0].iter().copied().chain(right.map(|c| c + left.schema.arity())).collect()
            }
            // Sources and aggregates keep their output layout.
            _ => (0..node.schema.arity()).collect(),
        };
        let op = match &node.op {
            // A Project is the one operator that drops output columns itself.
            PhysOp::Project { exprs, names, .. } => {
                let mut input = children.remove(0);
                let mut exprs: Vec<Expr> =
                    required.iter().map(|&i| exprs[i].map_cols(&|c| kept(0, c))).collect();
                // A narrowing Project just put below folds into this one.
                if let Some((below, cols)) = bare_project(&input) {
                    exprs = exprs.iter().map(|e| e.map_cols(&|c| cols[c])).collect();
                    input = below.clone();
                }
                let names = required.iter().map(|&i| names[i].clone()).collect();
                PhysOp::Project { input, exprs, names }
            }
            _ => node.remap_op(children, &kept),
        };
        let (dist, collation) = remap_traits(&node.dist, &node.collation, &natural);
        let trimmed = self.node(op, dist, collation, node.rows);
        if natural == required {
            return trimmed;
        }
        #[expect(clippy::expect_used, reason = "`natural` lists the rebuilt operator's output, a superset of `required`")]
        let cols: Vec<usize> = required
            .iter()
            .map(|&c| pos(&natural, c).expect("an operator emits every column required of it"))
            .collect();
        let (dist, collation) = remap_traits(&trimmed.dist, &trimmed.collation, &cols);
        let names = cols.iter().map(|&c| trimmed.schema.field(c).name.clone()).collect();
        let exprs = cols.into_iter().map(Expr::col).collect();
        self.node(PhysOp::Project { input: trimmed, exprs, names }, dist, collation, node.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::agg::AggFunc;
    use ic_common::{BinOp, DataType, Field, Schema};
    use ic_plan::ops::{AggCall, AggPhase, JoinKind};
    use ic_plan::PlannerFlags;
    use ic_storage::{Catalog, IndexId, TableId};

    fn planner() -> VolcanoPlanner {
        VolcanoPlanner::new(Catalog::new(4, 0), PlannerFlags::ic_plus(), false, 1)
    }

    fn schema(name: &str, cols: usize) -> Schema {
        // Every third column is a string, so "first fixed-width" is a choice.
        let dtype = |i| if i % 3 == 0 { DataType::Str } else { DataType::Int };
        Schema::new((0..cols).map(|i| Field::new(format!("{name}{i}"), dtype(i))).collect())
    }

    fn scan(p: &VolcanoPlanner, name: &str, cols: usize, dist: Distribution) -> Arc<PhysPlan> {
        let op = PhysOp::TableScan { table: TableId(0), name: name.into(), schema: schema(name, cols) };
        p.node(op, dist, vec![], 100.0)
    }

    fn index_scan(p: &VolcanoPlanner, cols: usize, sort: Vec<SortKey>) -> Arc<PhysPlan> {
        let op = PhysOp::IndexScan {
            table: TableId(0),
            index: IndexId(0),
            name: "t.ix".into(),
            schema: schema("t", cols),
            sort: sort.clone(),
        };
        p.node(op, Distribution::Hash(vec![0]), sort, 100.0)
    }

    fn project(p: &VolcanoPlanner, input: Arc<PhysPlan>, cols: &[usize]) -> Arc<PhysPlan> {
        let (dist, collation) = remap_traits(&input.dist, &input.collation, cols);
        let names = cols.iter().map(|c| format!("o{c}")).collect();
        let exprs = cols.iter().map(|&c| Expr::col(c)).collect();
        p.node(PhysOp::Project { input, exprs, names }, dist, collation, 100.0)
    }

    fn hash_join(
        p: &VolcanoPlanner,
        (left, right): (Arc<PhysPlan>, Arc<PhysPlan>),
        kind: JoinKind,
        (lk, rk): (usize, usize),
        residual: Expr,
    ) -> Arc<PhysPlan> {
        let (dist, collation) = (left.dist.clone(), left.collation.clone());
        let op = PhysOp::HashJoin {
            left,
            right,
            kind,
            left_keys: vec![lk],
            right_keys: vec![rk],
            residual,
        };
        p.node(op, dist, collation, 100.0)
    }

    fn nodes(plan: &PhysPlan) -> usize {
        plan.count_ops(&|_| true)
    }

    /// Trim and check what every trimmed plan must satisfy.
    fn trimmed(p: &VolcanoPlanner, plan: &Arc<PhysPlan>) -> Arc<PhysPlan> {
        let out = p.trim_plan(plan);
        assert_eq!(out.validate(), Ok(()));
        assert_eq!(out.carried_dead_columns(), 0);
        assert_eq!(out.schema, plan.schema, "the root keeps its columns and names");
        out
    }

    #[test]
    fn hash_keys_are_remapped_and_a_dropped_key_degrades_to_random() {
        let p = planner();
        let exchange = |scan: Arc<PhysPlan>| {
            let to = Distribution::Hash(vec![3]);
            let ex = p.node(PhysOp::Exchange { input: scan, to: to.clone() }, to, vec![], 100.0);
            trimmed(&p, &project(&p, ex, &[4]))
        };
        // Shipped on column 3, read for column 4: both survive, renumbered.
        let out = exchange(scan(&p, "t", 6, Distribution::Hash(vec![3])));
        let PhysOp::Project { input: ex, exprs, .. } = &out.op else { panic!("{out:?}") };
        assert_eq!(exprs, &[Expr::col(1)]);
        let PhysOp::Exchange { input: below, to } = &ex.op else { panic!("{ex:?}") };
        assert_eq!((to, &ex.dist), (&Distribution::Hash(vec![0]), &Distribution::Hash(vec![0])));
        assert_eq!((ex.schema.arity(), &below.dist), (2, &Distribution::Hash(vec![0])));
        // Stored on column 2, which nothing reads: the claim degrades.
        let out = exchange(scan(&p, "t", 6, Distribution::Hash(vec![2])));
        let PhysOp::Exchange { input: below, .. } = &out.children()[0].op else { panic!("{out:?}") };
        assert_eq!((below.schema.arity(), &below.dist), (2, &Distribution::Random));
    }

    #[test]
    fn collation_is_cut_at_the_first_dropped_key_only() {
        let p = planner();
        let sorted_left = |read: &[usize]| {
            let left = index_scan(&p, 6, vec![SortKey::asc(1), SortKey::asc(4)]);
            let join = hash_join(
                &p,
                (left, scan(&p, "r", 2, Distribution::Broadcast)),
                JoinKind::Inner,
                (1, 1),
                Expr::lit(true),
            );
            let out = trimmed(&p, &project(&p, join, read));
            let PhysOp::HashJoin { left, .. } = &out.children()[0].op else { panic!("{out:?}") };
            (left.schema.arity(), left.collation.clone())
        };
        // Key 4 is not read: the order claim ends before it.
        assert_eq!(sorted_left(&[5]), (2, vec![SortKey::asc(0)]));
        // Both keys read; columns 0, 2, 3 and 5 go without touching the claim.
        assert_eq!(sorted_left(&[4]), (2, vec![SortKey::asc(0), SortKey::asc(1)]));
    }

    #[test]
    fn partial_final_aggregate_layout_is_unchanged() {
        let p = planner();
        let aggs = vec![
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(4)), name: "s".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
        ];
        let agg = |input, group, phase, dist| {
            let op = PhysOp::HashAggregate { input, group, aggs: aggs.clone(), phase };
            p.node(op, dist, vec![], 10.0)
        };
        let partial = agg(
            scan(&p, "t", 6, Distribution::Hash(vec![0])),
            vec![2],
            AggPhase::Partial,
            Distribution::Random,
        );
        let ex = PhysOp::Exchange { input: partial.clone(), to: Distribution::Single };
        let ex = p.node(ex, Distribution::Single, vec![], 10.0);
        let fin = agg(ex, vec![0], AggPhase::Final, Distribution::Single);
        let out = trimmed(&p, &fin);
        let PhysOp::HashAggregate { input: ex, group, .. } = &out.op else { panic!("{out:?}") };
        assert_eq!(group, &[0]);
        let trimmed_partial = ex.children()[0];
        assert_eq!(trimmed_partial.schema, partial.schema, "group key + 4 + 1 state columns");
        let PhysOp::HashAggregate { input, group, aggs, .. } = &trimmed_partial.op else {
            panic!("{trimmed_partial:?}")
        };
        assert_eq!((input.schema.arity(), group.as_slice()), (2, &[0][..]));
        assert_eq!(aggs[0].arg, Some(Expr::col(1)));
    }

    #[test]
    fn semi_and_anti_build_on_keys_and_residual_columns_only() {
        let p = planner();
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            // l1 = r2 AND l2 <> r4 over a 3-column left and a 6-column right.
            let residual = Expr::binary(BinOp::Ne, Expr::col(2), Expr::col(3 + 4));
            let join = hash_join(
                &p,
                (
                    scan(&p, "l", 3, Distribution::Hash(vec![0])),
                    scan(&p, "r", 6, Distribution::Broadcast),
                ),
                kind,
                (1, 2),
                residual,
            );
            let out = trimmed(&p, &join);
            let PhysOp::HashJoin { right, right_keys, residual, .. } = &out.op else {
                panic!("{out:?}")
            };
            assert_eq!((right.schema.arity(), right_keys.as_slice()), (2, &[0][..]));
            assert_eq!(residual, &Expr::binary(BinOp::Ne, Expr::col(2), Expr::col(3 + 1)));
        }
    }

    #[test]
    fn left_join_pads_a_narrowed_right_side() {
        let p = planner();
        let join = hash_join(
            &p,
            (
                scan(&p, "l", 3, Distribution::Hash(vec![0])),
                scan(&p, "r", 6, Distribution::Broadcast),
            ),
            JoinKind::Left,
            (1, 2),
            Expr::lit(true),
        );
        // l0 and r5 are read; the join keeps its keys l1 and r2 besides.
        let out = trimmed(&p, &project(&p, join, &[0, 3 + 5]));
        let PhysOp::Project { input: join, exprs, .. } = &out.op else { panic!("{out:?}") };
        assert_eq!(exprs, &[Expr::col(0), Expr::col(3)]);
        // The null-extension is as wide as the narrowed right input.
        assert_eq!(join.children()[1].schema.arity(), 2);
        assert_eq!(join.schema.arity(), 4);
    }

    #[test]
    fn count_star_over_a_cross_join_keeps_one_fixed_width_column_a_side() {
        let p = planner();
        let on = Expr::lit(true);
        let join = PhysOp::NestedLoopJoin {
            left: scan(&p, "l", 3, Distribution::Single),
            right: scan(&p, "r", 6, Distribution::Single),
            kind: JoinKind::Inner,
            on,
        };
        let join = p.node(join, Distribution::Single, vec![], 100.0);
        let count = PhysOp::HashAggregate {
            input: join,
            group: vec![],
            aggs: vec![AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() }],
            phase: AggPhase::Complete,
        };
        let out = trimmed(&p, &p.node(count, Distribution::Single, vec![], 1.0));
        // No column is read anywhere, and no batch is zero columns wide: the
        // aggregate's input is the join's first integer column, l1.
        let narrowed = out.children()[0];
        assert_eq!(narrowed.schema.fields(), &[Field::new("l1", DataType::Int)]);
        let join = narrowed.children()[0];
        let widths: Vec<usize> = join.children().iter().map(|c| c.schema.arity()).collect();
        assert_eq!(widths, [1, 1]);
        assert_eq!(join.children()[1].schema.field(0).name, "r1");
    }

    #[test]
    fn a_shared_subtree_is_trimmed_once_per_parent() {
        let p = planner();
        // One `Arc` joined to itself, as the memo shares Q7's two `nation`
        // scans: the probe side is read for column 5, the build side only
        // for its key.
        let shared = scan(&p, "n", 6, Distribution::Broadcast);
        let join = hash_join(
            &p,
            (shared.clone(), shared),
            JoinKind::Inner,
            (1, 2),
            Expr::lit(true),
        );
        let out = trimmed(&p, &project(&p, join, &[5]));
        let sides = out.children()[0].children();
        let cols = |side: &PhysPlan| bare_project(side).map(|(_, cols)| cols);
        assert_eq!(cols(sides[0]), Some(vec![1, 5]));
        assert_eq!(cols(sides[1]), Some(vec![2]));
    }

    #[test]
    fn trimming_a_trimmed_plan_adds_no_node() {
        let p = planner();
        let filter = PhysOp::Filter {
            input: index_scan(&p, 6, vec![SortKey::asc(1)]),
            predicate: Expr::binary(BinOp::Gt, Expr::col(2), Expr::lit(7i64)),
        };
        let filter = p.node(filter, Distribution::Hash(vec![0]), vec![SortKey::asc(1)], 50.0);
        let join = hash_join(
            &p,
            (filter, scan(&p, "r", 6, Distribution::Broadcast)),
            JoinKind::Inner,
            (1, 2),
            Expr::lit(true),
        );
        let sort = PhysOp::Sort { input: project(&p, join, &[4, 6 + 5]), keys: vec![SortKey::desc(1)] };
        let sort = p.node(sort, Distribution::Random, vec![SortKey::desc(1)], 100.0);
        let once = trimmed(&p, &sort);
        let twice = trimmed(&p, &once);
        assert!(nodes(&once) > nodes(&sort), "narrowing Projects were added");
        assert_eq!(nodes(&twice), nodes(&once));
        let explain = ic_plan::explain::explain_physical;
        assert_eq!(explain(&twice), explain(&once));
    }
}
