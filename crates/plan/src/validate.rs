//! Structural validation of physical plans.
//!
//! Calcite-style rule rewrites must preserve schemas and trait claims; the
//! compiler cannot check that, so [`validate`] re-derives every node's
//! output schema from its children and cross-checks the structural
//! invariants the executor later relies on:
//!
//! * every expression's column references are in bounds for its input;
//! * every node's recorded schema agrees (arity and types) with the schema
//!   derived from its children;
//! * join/aggregate key columns are in bounds;
//! * an `Exchange { to }` node delivers exactly the distribution it claims,
//!   and hash-distribution keys reference real output columns;
//! * a `Sort` delivers its sort keys as collation, and every claimed
//!   collation column exists in the output schema;
//! * `Final`-phase aggregates consume an input whose arity matches the
//!   group-key count plus the partial phase's accumulator state widths;
//! * every expression is already coerced: [`coerce`] leaves it as it is.
//!
//! The optimizer pipeline calls this after the Hep and Volcano phases in
//! debug/test builds — the latter ends with the field trimmer, so every
//! trimmed plan is checked — and a broken rewrite fails at plan time with a
//! plan path instead of corrupting rows mid-query.
//!
//! [`PhysPlan::carried_dead_columns`] is a count, not a check: the columns a
//! join, sort or exchange is handed that nothing reads.

use crate::dist::{join_sources_valid, Distribution};
use crate::ops::{
    derive_logical_schema, derive_phys_schema, AggPhase, JoinKind, LogicalPlan, PhysOp,
    PhysPlan, RelOp, SortKey,
};
use crate::coerce::coerce;
use ic_common::{Expr, Schema};
use std::sync::Arc;

/// One structural violation found in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Path from the root, e.g. `root/HashJoin[inner]/Exchange[single]`.
    pub path: String,
    pub message: String,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl PhysPlan {
    /// Check the whole tree; returns every violation found (empty = valid).
    pub fn validate(&self) -> Result<(), Vec<ValidateError>> {
        let mut errors = Vec::new();
        walk(self, "root", &mut errors);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

impl PhysPlan {
    /// Columns carried for nothing: over every input edge of a materializing
    /// operator (both inputs of the three joins, `Exchange`, `Sort`), the
    /// number of columns that neither that operator reads nor anything above
    /// it requires. Not a [`PhysPlan::validate`] error — hand-built plans
    /// carry dead columns legitimately — but 0 on every plan the optimizer's
    /// field trimmer produced.
    pub fn carried_dead_columns(&self) -> usize {
        fn walk(node: &PhysPlan, required: &[usize]) -> usize {
            let materializes = matches!(
                node.op,
                PhysOp::NestedLoopJoin { .. }
                    | PhysOp::HashJoin { .. }
                    | PhysOp::MergeJoin { .. }
                    | PhysOp::Exchange { .. }
                    | PhysOp::Sort { .. }
            );
            let edges = node.children().into_iter().zip(node.input_requirements(required));
            edges
                .map(|(child, needed)| {
                    let dead = if materializes { child.schema.arity() - needed.len() } else { 0 };
                    dead + walk(child, &needed)
                })
                .sum()
        }
        walk(self, &(0..self.schema.arity()).collect::<Vec<_>>())
    }
}

impl LogicalPlan {
    /// Structural check for logical plans (run after the Hep stage):
    /// recorded schemas must match re-derivation and every expression /
    /// key column must be in bounds for its input.
    pub fn validate(&self) -> Result<(), Vec<ValidateError>> {
        let mut errors = Vec::new();
        walk_logical(self, "root", &mut errors);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

fn logical_label(op: &RelOp<Arc<LogicalPlan>>) -> &'static str {
    match op {
        RelOp::Scan { .. } => "Scan",
        RelOp::Filter { .. } => "Filter",
        RelOp::Project { .. } => "Project",
        RelOp::Join { .. } => "Join",
        RelOp::Aggregate { .. } => "Aggregate",
        RelOp::Sort { .. } => "Sort",
        RelOp::Limit { .. } => "Limit",
        RelOp::Values { .. } => "Values",
    }
}

fn walk_logical(node: &LogicalPlan, path: &str, errors: &mut Vec<ValidateError>) {
    let here = format!("{path}/{}", logical_label(&node.op));
    let children = node.children();
    for c in &children {
        walk_logical(c, &here, errors);
    }
    let child_schemas: Vec<&Schema> = children.iter().map(|c| &c.schema).collect();
    let before = errors.len();
    let mut err = |message: String| errors.push(ValidateError { path: here.clone(), message });

    // Bound checks first: schema re-derivation below evaluates expression
    // types and would index out of bounds on exactly the corruption this
    // pass exists to report.
    match &node.op {
        RelOp::Filter { predicate, .. } => {
            check_expr_bound(predicate, child_schemas[0].arity(), "predicate", &mut err);
        }
        RelOp::Project { exprs, names, .. } => {
            if exprs.len() != names.len() {
                err(format!("{} exprs but {} names", exprs.len(), names.len()));
            }
            for (i, e) in exprs.iter().enumerate() {
                check_expr_bound(e, child_schemas[0].arity(), &format!("expr {i}"), &mut err);
            }
        }
        RelOp::Join { on, .. } => {
            let concat = child_schemas.iter().map(|s| s.arity()).sum::<usize>();
            check_expr_bound(on, concat, "join condition", &mut err);
        }
        RelOp::Aggregate { group, aggs, .. } => {
            let input = child_schemas[0];
            check_keys(group, input.arity(), "group key", &mut err);
            for (i, a) in aggs.iter().enumerate() {
                if let Some(arg) = &a.arg {
                    check_expr_bound(arg, input.arity(), &format!("agg {i} arg"), &mut err);
                }
            }
        }
        RelOp::Sort { keys, .. } => {
            check_sort_keys(keys, child_schemas[0].arity(), "sort key", &mut err);
        }
        RelOp::Scan { .. } | RelOp::Limit { .. } | RelOp::Values { .. } => {}
    }
    if errors.len() > before {
        return;
    }

    let mut err = |message: String| errors.push(ValidateError { path: here.clone(), message });
    let mut coerced = node.clone();
    for (e, input) in coerced.exprs_mut().into_iter().zip(expr_inputs(&child_schemas)) {
        check_coerced(e, &input, &mut err);
    }
    match derive_logical_schema(&node.op, &child_schemas) {
        Ok(derived) => {
            if derived.arity() != node.schema.arity() {
                err(format!(
                    "schema arity {} disagrees with derived arity {}",
                    node.schema.arity(),
                    derived.arity()
                ));
            } else {
                for i in 0..derived.arity() {
                    let (got, want) = (node.schema.field(i).dtype, derived.field(i).dtype);
                    if got != want {
                        err(format!("column {i} has type {got:?}, derived type is {want:?}"));
                    }
                }
            }
        }
        Err(e) => err(format!("schema derivation failed: {e}")),
    }
}

fn walk(node: &PhysPlan, path: &str, errors: &mut Vec<ValidateError>) {
    let here = format!("{path}/{}", node.label());
    let children = node.children();
    for c in &children {
        walk(c, &here, errors);
    }
    let child_schemas: Vec<&Schema> = children.iter().map(|c| &c.schema).collect();
    let before = errors.len();
    let mut err = |message: String| errors.push(ValidateError { path: here.clone(), message });

    // Expression bounds and key bounds per operator. These run before
    // schema re-derivation, which evaluates expression types and would
    // index out of bounds on exactly the corruption reported here.
    let concat_arity = |cs: &[&Schema]| cs.iter().map(|s| s.arity()).sum::<usize>();
    match &node.op {
        PhysOp::Filter { predicate, .. } => {
            check_expr_bound(predicate, child_schemas[0].arity(), "predicate", &mut err);
        }
        PhysOp::Project { exprs, names, .. } => {
            if exprs.len() != names.len() {
                err(format!("{} exprs but {} names", exprs.len(), names.len()));
            }
            for (i, e) in exprs.iter().enumerate() {
                check_expr_bound(e, child_schemas[0].arity(), &format!("expr {i}"), &mut err);
            }
        }
        PhysOp::NestedLoopJoin { on, kind, .. } => {
            check_expr_bound(on, concat_arity(&child_schemas), "join condition", &mut err);
            check_join_sources(*kind, &children, &mut err);
        }
        PhysOp::HashJoin { left_keys, right_keys, residual, kind, .. }
        | PhysOp::MergeJoin { left_keys, right_keys, residual, kind, .. } => {
            check_join_sources(*kind, &children, &mut err);
            if left_keys.len() != right_keys.len() {
                err(format!(
                    "{} left keys vs {} right keys",
                    left_keys.len(),
                    right_keys.len()
                ));
            }
            check_keys(left_keys, child_schemas[0].arity(), "left key", &mut err);
            check_keys(right_keys, child_schemas[1].arity(), "right key", &mut err);
            check_expr_bound(residual, concat_arity(&child_schemas), "residual", &mut err);
        }
        PhysOp::HashAggregate { input: _, group, aggs, phase }
        | PhysOp::SortAggregate { input: _, group, aggs, phase } => {
            let input = child_schemas[0];
            match phase {
                AggPhase::Complete | AggPhase::Partial => {
                    check_keys(group, input.arity(), "group key", &mut err);
                    for (i, a) in aggs.iter().enumerate() {
                        if let Some(arg) = &a.arg {
                            check_expr_bound(arg, input.arity(), &format!("agg {i} arg"), &mut err);
                        }
                    }
                }
                AggPhase::Final => {
                    // Input must be a partial schema: group keys first, then
                    // the flattened accumulator state columns; the final
                    // group keys address the partial input positionally.
                    check_keys(group, input.arity(), "final group key", &mut err);
                    let state_width: usize = aggs.iter().map(|a| a.func.state_width()).sum();
                    let want = group.len() + state_width;
                    if input.arity() != want {
                        err(format!(
                            "final-phase input arity {} != {} group keys + {} state columns",
                            input.arity(),
                            group.len(),
                            state_width
                        ));
                    }
                }
            }
        }
        PhysOp::Sort { keys, .. } => {
            check_sort_keys(keys, child_schemas[0].arity(), "sort key", &mut err);
            if node.collation != *keys {
                err(format!(
                    "sort delivers collation {:?} but claims {:?}",
                    keys, node.collation
                ));
            }
        }
        PhysOp::Exchange { to, .. } => {
            if node.dist != *to {
                err(format!(
                    "exchange ships to {to} but claims delivered distribution {}",
                    node.dist
                ));
            }
        }
        PhysOp::TableScan { .. }
        | PhysOp::IndexScan { .. }
        | PhysOp::Limit { .. }
        | PhysOp::Values { .. } => {}
    }

    // Trait claims must reference real output columns.
    if let Distribution::Hash(keys) = &node.dist {
        check_keys(keys, node.schema.arity(), "distribution key", &mut err);
    }
    check_sort_keys(&node.collation, node.schema.arity(), "collation column", &mut err);
    if errors.len() > before {
        return;
    }
    let mut err = |message: String| errors.push(ValidateError { path: here.clone(), message });
    if !matches!(node.op, PhysOp::HashAggregate { phase: AggPhase::Final, .. }
        | PhysOp::SortAggregate { phase: AggPhase::Final, .. })
    {
        let mut node = node.clone();
        for (e, input) in node.exprs_mut().into_iter().zip(expr_inputs(&child_schemas)) {
            check_coerced(e, &input, &mut err);
        }
    }
    if errors.len() > before {
        return;
    }

    // Recorded schema must agree with the schema derived from the children
    // (arity and column types; names may legitimately differ after rewrites).
    let mut err = |message: String| errors.push(ValidateError { path: here.clone(), message });
    match derive_phys_schema(&node.op, &child_schemas) {
        Ok(derived) => {
            if derived.arity() != node.schema.arity() {
                err(format!(
                    "schema arity {} disagrees with derived arity {}",
                    node.schema.arity(),
                    derived.arity()
                ));
            } else {
                for i in 0..derived.arity() {
                    let (got, want) = (node.schema.field(i).dtype, derived.field(i).dtype);
                    if got != want {
                        err(format!("column {i} has type {got:?}, derived type is {want:?}"));
                    }
                }
            }
        }
        Err(e) => err(format!("schema derivation failed: {e}")),
    }
}

/// The schema a node's expressions read: its input's, or both join
/// inputs' side by side — repeated for each expression.
fn expr_inputs(children: &[&Schema]) -> impl Iterator<Item = Schema> {
    let input = match children {
        [one] => (*one).clone(),
        [left, right] => left.join(right),
        _ => Schema::empty(),
    };
    std::iter::repeat(input)
}

fn check_coerced(e: &Expr, input: &Schema, err: &mut impl FnMut(String)) {
    match coerce(e, input) {
        Ok((coerced, _)) if coerced == *e => {}
        Ok((coerced, _)) => err(format!("expression {e} is not coerced: {coerced}")),
        Err(cause) => err(format!("expression {e} is ill-typed: {cause}")),
    }
}

fn check_expr_bound(
    e: &Expr,
    arity: usize,
    what: &str,
    err: &mut impl FnMut(String),
) {
    let bound = e.max_col_bound();
    if bound > arity {
        err(format!(
            "{what} references column {} but input arity is {arity}",
            bound - 1
        ));
    }
}

/// Outer/semi/anti joins must not pair a replicated left source with a
/// partitioned right: every site would pad or filter its full copy of the
/// left rows against a partial match set (see [`join_sources_valid`]).
fn check_join_sources(
    kind: JoinKind,
    children: &[&Arc<PhysPlan>],
    err: &mut impl FnMut(String),
) {
    if children.len() == 2 && !join_sources_valid(kind, &children[0].dist, &children[1].dist) {
        err(format!(
            "{kind:?} join pairs a replicated left ({}) with a partitioned right ({})",
            children[0].dist, children[1].dist
        ));
    }
}

fn check_keys(keys: &[usize], arity: usize, what: &str, err: &mut impl FnMut(String)) {
    for &k in keys {
        if k >= arity {
            err(format!("{what} {k} out of bounds (arity {arity})"));
        }
    }
}

fn check_sort_keys(keys: &[SortKey], arity: usize, what: &str, err: &mut impl FnMut(String)) {
    for k in keys {
        if k.col >= arity {
            err(format!("{what} {} out of bounds (arity {arity})", k.col));
        }
    }
}

/// Convenience for optimizer phases: panic (debug/test only) with the full
/// violation list if `plan` is structurally invalid. `phase` names the
/// optimizer stage that produced the plan.
pub fn debug_validate(plan: &Arc<PhysPlan>, phase: &str) {
    if let Err(errors) = plan.validate() {
        let list: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        panic!(
            "invalid physical plan after {phase} ({} violation(s)):\n{}",
            list.len(),
            list.join("\n")
        );
    }
}

/// [`debug_validate`], for the logical plan a Hep stage produced.
pub fn debug_validate_logical(plan: &Arc<LogicalPlan>, phase: &str) {
    if let Err(errors) = plan.validate() {
        let list: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        panic!(
            "invalid logical plan after {phase} ({} violation(s)):\n{}",
            list.len(),
            list.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::ops::AggCall;
    use ic_common::{DataType, Field};
    use ic_storage::TableId;

    fn mk(op: PhysOp<Arc<PhysPlan>>, schema: Schema, dist: Distribution) -> Arc<PhysPlan> {
        Arc::new(PhysPlan {
            op,
            schema,
            dist,
            collation: vec![],
            rows: 1.0,
            cost: Cost::ZERO,
            total_cost: 0.0,
            has_exchange: false,
        })
    }

    fn scan(cols: usize) -> Arc<PhysPlan> {
        let schema = Schema::new(
            (0..cols).map(|i| Field::new(format!("c{i}"), DataType::Int)).collect(),
        );
        mk(
            PhysOp::TableScan { table: TableId(0), name: "t".into(), schema: schema.clone() },
            schema,
            Distribution::Hash(vec![0]),
        )
    }

    #[test]
    fn valid_filter_passes() {
        let s = scan(2);
        let f = mk(
            PhysOp::Filter { input: s.clone(), predicate: Expr::col(1) },
            s.schema.clone(),
            Distribution::Hash(vec![0]),
        );
        assert!(f.validate().is_ok());
    }

    #[test]
    fn out_of_bounds_column_fails() {
        let s = scan(2);
        let f = mk(
            PhysOp::Filter { input: s.clone(), predicate: Expr::col(7) },
            s.schema.clone(),
            Distribution::Hash(vec![0]),
        );
        let errs = f.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("references column 7")), "{errs:?}");
    }

    #[test]
    fn schema_arity_mismatch_fails() {
        let s = scan(3);
        let wrong = Schema::new(vec![Field::new("x", DataType::Int)]);
        let f = mk(
            PhysOp::Filter { input: s, predicate: Expr::lit(true) },
            wrong,
            Distribution::Hash(vec![0]),
        );
        let errs = f.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("arity")), "{errs:?}");
    }

    #[test]
    fn exchange_claim_mismatch_fails() {
        let s = scan(2);
        let ex = mk(
            PhysOp::Exchange { input: s.clone(), to: Distribution::Single },
            s.schema.clone(),
            Distribution::Broadcast, // claims something it does not deliver
        );
        let errs = ex.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("exchange ships to")), "{errs:?}");
    }

    #[test]
    fn hash_dist_key_out_of_bounds_fails() {
        let s = scan(2);
        let f = mk(
            PhysOp::Filter { input: s.clone(), predicate: Expr::lit(true) },
            s.schema.clone(),
            Distribution::Hash(vec![9]),
        );
        let errs = f.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("distribution key 9")), "{errs:?}");
    }

    #[test]
    fn final_agg_arity_checked() {
        use ic_common::agg::AggFunc;
        // Partial input for AVG has group(1) + avg state(2) = 3 columns.
        let partial_schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("a$0", DataType::Double),
            Field::new("a$1", DataType::Int),
        ]);
        let src = mk(
            PhysOp::Values { schema: partial_schema.clone(), rows: vec![] },
            partial_schema.clone(),
            Distribution::Single,
        );
        let aggs = vec![AggCall { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() }];
        let out = crate::ops::agg_schema(&partial_schema, &[0], &aggs, AggPhase::Final);
        let ok = mk(
            PhysOp::HashAggregate {
                input: src.clone(),
                group: vec![0],
                aggs: aggs.clone(),
                phase: AggPhase::Final,
            },
            out.clone(),
            Distribution::Single,
        );
        assert!(ok.validate().is_ok(), "{:?}", ok.validate());

        // A final agg over a source that is NOT a partial schema must fail.
        let not_partial = scan(2);
        let bad = mk(
            PhysOp::HashAggregate {
                input: not_partial,
                group: vec![0],
                aggs,
                phase: AggPhase::Final,
            },
            out,
            Distribution::Single,
        );
        let errs = bad.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("final-phase input arity")), "{errs:?}");
    }

    #[test]
    fn state_width_matches_state_types() {
        use ic_common::agg::AggFunc;
        let s = Schema::new(vec![Field::new("x", DataType::Int)]);
        for func in [
            AggFunc::Count,
            AggFunc::CountStar,
            AggFunc::CountDistinct,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let a = AggCall { func, arg: Some(Expr::col(0)), name: "a".into() };
            assert_eq!(func.state_width(), a.state_types(&s).len(), "{func:?}");
        }
    }

    #[test]
    fn error_paths_name_the_node() {
        let s = scan(2);
        let f = mk(
            PhysOp::Filter { input: s.clone(), predicate: Expr::col(9) },
            s.schema.clone(),
            Distribution::Hash(vec![0]),
        );
        let errs = f.validate().unwrap_err();
        assert!(errs[0].path.contains("root/Filter"), "{:?}", errs[0].path);
    }
}
