//! Plan pretty-printing for EXPLAIN output and plan-shape assertions.

use crate::ops::{LogicalPlan, PhysPlan, RelOp};
use std::fmt::Write as _;

/// Render a logical plan tree, one operator per line, indented by depth.
pub fn explain_logical(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    fn walk(node: &LogicalPlan, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let label = match &node.op {
            RelOp::Scan { name, .. } => format!("Scan({name})"),
            RelOp::Filter { predicate, .. } => format!("Filter[{predicate}]"),
            RelOp::Project { exprs, .. } => format!("Project[{} exprs]", exprs.len()),
            RelOp::Join { kind, on, from_correlate, .. } => format!(
                "Join[{}{}, on={on}]",
                kind.label(),
                if *from_correlate { ", correlate" } else { "" }
            ),
            RelOp::Aggregate { group, aggs, .. } => {
                format!("Aggregate[group={group:?}, {} aggs]", aggs.len())
            }
            RelOp::Sort { keys, .. } => format!("Sort[{} keys]", keys.len()),
            RelOp::Limit { fetch, offset, .. } => format!("Limit[fetch={fetch:?}, offset={offset}]"),
            RelOp::Values { rows, .. } => format!("Values[{} rows]", rows.len()),
        };
        let _ = writeln!(out, "{pad}{label}");
        for c in node.children() {
            walk(c, depth + 1, out);
        }
    }
    walk(plan, 0, &mut out);
    out
}

/// Render a physical plan tree with traits, output arity (`width`),
/// cardinalities and costs.
pub fn explain_physical(plan: &PhysPlan) -> String {
    let mut out = String::new();
    fn walk(node: &PhysPlan, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let collation = if node.collation.is_empty() {
            String::new()
        } else {
            format!(
                ", sort=[{}]",
                node.collation
                    .iter()
                    .map(|k| format!("{}{}", k.col, if k.desc { "↓" } else { "↑" }))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let _ = writeln!(
            out,
            "{pad}{} (dist={}{}, width={}, rows={:.0}, cost={:.0})",
            node.label(),
            node.dist,
            collation,
            node.schema.arity(),
            node.rows,
            node.cost.sum(),
        );
        for c in node.children() {
            walk(c, depth + 1, out);
        }
    }
    walk(plan, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{JoinKind, RelOp};
    use ic_common::{DataType, Expr, Field, Schema};
    use ic_storage::TableId;

    #[test]
    fn logical_explain_smoke() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let scan = LogicalPlan::new(RelOp::Scan { table: TableId(0), name: "emp".into(), schema }).unwrap();
        let join = LogicalPlan::new(RelOp::Join {
            left: scan.clone(),
            right: scan,
            kind: JoinKind::Inner,
            on: Expr::eq(Expr::col(0), Expr::col(1)),
            from_correlate: false,
        })
        .unwrap();
        let text = explain_logical(&join);
        assert!(text.contains("Join[inner"));
        assert!(text.matches("Scan(emp)").count() == 2);
        assert!(text.lines().nth(1).unwrap().starts_with("  "));
    }
}
