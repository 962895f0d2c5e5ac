//! Logical properties and estimation — Calcite's metadata layer as wired
//! up by Ignite's provider hooks (§3.1/§3.2): row counts, per-column
//! distinct values, predicate selectivity, and the two join-size
//! estimators compared in §4.1.

use crate::ops::{AggCall, AggPhase, JoinKind, RelOp};
use ic_common::{BinOp, Expr};
use ic_storage::{Catalog, TableId};

/// Estimated logical properties of an operator's output.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalProps {
    /// Estimated row count (≥ 0; estimators floor joins at 1).
    pub rows: f64,
    /// Estimated number of distinct values per output column.
    pub ndvs: Vec<f64>,
}

impl LogicalProps {
    pub fn new(rows: f64, ndvs: Vec<f64>) -> LogicalProps {
        LogicalProps { rows, ndvs }
    }

    /// NDV of one column, clamped to the row count and floored at 1.
    pub fn ndv(&self, col: usize) -> f64 {
        let raw = self.ndvs.get(col).copied().unwrap_or(self.rows);
        raw.min(self.rows).max(1.0)
    }

    /// Composite NDV of several columns: product capped by row count.
    pub fn ndv_of(&self, cols: &[usize]) -> f64 {
        if cols.is_empty() {
            return 1.0;
        }
        let product: f64 = cols.iter().map(|&c| self.ndv(c)).product();
        product.min(self.rows).max(1.0)
    }

    fn scale(&self, factor: f64) -> LogicalProps {
        let rows = (self.rows * factor).max(0.0);
        LogicalProps {
            rows,
            ndvs: self.ndvs.iter().map(|&n| n.min(rows).max(if rows > 0.0 { 1.0 } else { 0.0 })).collect(),
        }
    }
}

/// Read base-table properties from the catalog statistics, falling back to
/// NO-OP-style defaults when a table is unanalyzed (the paper's warning
/// about provider hooks defaulting to no-ops).
pub fn scan_props(catalog: &Catalog, table: TableId) -> LogicalProps {
    let arity = catalog.table_def(table).map(|d| d.schema.arity()).unwrap_or(0);
    let Some(stats) = catalog.table_stats(table) else {
        return LogicalProps::new(1000.0, vec![1000.0; arity]);
    };
    if stats.row_count == 0 {
        // Unanalyzed or empty: assume a smallish table, all-distinct.
        return LogicalProps::new(1000.0, vec![1000.0; arity]);
    }
    LogicalProps::new(
        stats.row_count as f64,
        (0..stats.columns.len()).map(|c| stats.ndv(c) as f64).collect(),
    )
}

/// Heuristic selectivity of a predicate — Calcite's `RelMdSelectivity`
/// defaults, refined with NDV for equality on columns.
pub fn selectivity(pred: &Expr, input: &LogicalProps) -> f64 {
    match pred {
        Expr::Lit(d) => {
            if d.as_bool() == Some(true) {
                1.0
            } else {
                0.0
            }
        }
        // Stands for a non-boolean literal (booleans are never lifted),
        // which as a predicate is never TRUE.
        Expr::Param { .. } => 0.0,
        Expr::Binary { op: BinOp::And, left, right } => {
            selectivity(left, input) * selectivity(right, input)
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let (a, b) = (selectivity(left, input), selectivity(right, input));
            (a + b - a * b).min(1.0)
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let col = match (left.as_ref(), right.as_ref()) {
                (Expr::Col(c), e) | (e, Expr::Col(c)) if e.columns().is_empty() => Some(*c),
                _ => None,
            };
            match op {
                BinOp::Eq => col.map(|c| 1.0 / input.ndv(c)).unwrap_or(0.15),
                BinOp::Ne => col.map(|c| 1.0 - 1.0 / input.ndv(c)).unwrap_or(0.85),
                // Range predicates: the classic 1/3 guess.
                _ => 1.0 / 3.0,
            }
        }
        Expr::Not(inner) => 1.0 - selectivity(inner, input),
        Expr::Like { negated: true, .. } => 0.75,
        Expr::Like { negated: false, .. } => 0.25,
        Expr::InList { expr, list, negated } => {
            let base = match expr.as_ref() {
                Expr::Col(c) => (list.len() as f64 / input.ndv(*c)).min(1.0),
                _ => 0.25,
            };
            if *negated {
                1.0 - base
            } else {
                base
            }
        }
        Expr::IsNull { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        _ => 0.25,
    }
}

/// §4.1, Eq. 3 — the improved equi-join size estimator:
/// `|A ⋈ B| = |A|·|B| / max(d_A, d_B)`, valid when one join column is
/// roughly uniformly distributed.
pub fn join_rowcount_improved(
    left: &LogicalProps,
    right: &LogicalProps,
    left_keys: &[usize],
    right_keys: &[usize],
    residual_sel: f64,
) -> f64 {
    if left_keys.is_empty() {
        // Pure theta/cross join.
        return (left.rows * right.rows * residual_sel).max(1.0);
    }
    let da = left.ndv_of(left_keys);
    let db = right.ndv_of(right_keys);
    ((left.rows * right.rows) / da.max(db) * residual_sel).max(1.0)
}

/// §4.1 — the baseline estimator with its edge case: whenever either input
/// is estimated at (or below) one row, the join result collapses to exactly
/// 1, which then cascades up chains of joins and drives the planner to
/// nested-loop plans for what are really N×M joins.
pub fn join_rowcount_baseline(
    left: &LogicalProps,
    right: &LogicalProps,
    left_keys: &[usize],
    _right_keys: &[usize],
    residual_sel: f64,
) -> f64 {
    if left.rows <= 1.0 || right.rows <= 1.0 {
        return 1.0;
    }
    // Calcite-style default: 0.25 selectivity per equi conjunct.
    let equi_sel = 0.25f64.powi(left_keys.len().max(1) as i32);
    (left.rows * right.rows * equi_sel * residual_sel).max(1.0)
}

/// Estimate semi/anti-join output rows: the fraction of left keys with a
/// match is ≈ min(d_A, d_B)/d_A.
fn semi_rows(left: &LogicalProps, right: &LogicalProps, lk: &[usize], rk: &[usize]) -> f64 {
    if lk.is_empty() {
        return (left.rows * 0.5).max(1.0);
    }
    let da = left.ndv_of(lk);
    let db = right.ndv_of(rk);
    (left.rows * (da.min(db) / da)).max(1.0)
}

/// Derive logical properties of an operator from its children's properties.
/// `improved` selects between the two join estimators.
pub fn derive_props<C>(
    op: &RelOp<C>,
    children: &[&LogicalProps],
    catalog: &Catalog,
    improved: bool,
) -> LogicalProps {
    match op {
        RelOp::Scan { table, .. } => scan_props(catalog, *table),
        RelOp::Values { rows, schema } => {
            LogicalProps::new(rows.len() as f64, vec![rows.len() as f64; schema.arity()])
        }
        RelOp::Filter { predicate, .. } => {
            let input = children[0];
            input.scale(selectivity(predicate, input))
        }
        RelOp::Project { exprs, .. } => {
            let input = children[0];
            LogicalProps::new(
                input.rows,
                exprs
                    .iter()
                    .map(|e| match e {
                        Expr::Col(c) => input.ndv(*c),
                        _ => input.rows,
                    })
                    .collect(),
            )
        }
        RelOp::Join { kind, on, .. } => {
            let (l, r) = (children[0], children[1]);
            let left_arity = l.ndvs.len();
            let (lk, rk, residual) = crate::ops::extract_equi_keys(on, left_arity);
            // Selectivity of the residual over the combined input.
            let combined = LogicalProps::new(
                (l.rows * r.rows).max(1.0),
                l.ndvs.iter().chain(r.ndvs.iter()).copied().collect(),
            );
            let residual_sel = selectivity(&residual, &combined);
            match kind {
                JoinKind::Inner | JoinKind::Left => {
                    let mut rows = if improved {
                        join_rowcount_improved(l, r, &lk, &rk, residual_sel)
                    } else {
                        join_rowcount_baseline(l, r, &lk, &rk, residual_sel)
                    };
                    if *kind == JoinKind::Left {
                        rows = rows.max(l.rows);
                    }
                    let ndvs = l
                        .ndvs
                        .iter()
                        .chain(r.ndvs.iter())
                        .map(|&n| n.min(rows).max(1.0))
                        .collect();
                    LogicalProps::new(rows, ndvs)
                }
                JoinKind::Semi => {
                    let rows = semi_rows(l, r, &lk, &rk);
                    LogicalProps::new(rows, l.ndvs.iter().map(|&n| n.min(rows)).collect())
                }
                JoinKind::Anti => {
                    let rows = (l.rows - semi_rows(l, r, &lk, &rk)).max(1.0);
                    LogicalProps::new(rows, l.ndvs.iter().map(|&n| n.min(rows)).collect())
                }
            }
        }
        RelOp::Aggregate { group, aggs, .. } => {
            let input = children[0];
            let rows = if group.is_empty() { 1.0 } else { input.ndv_of(group) };
            let mut ndvs: Vec<f64> = group.iter().map(|&g| input.ndv(g).min(rows)).collect();
            ndvs.extend(aggs.iter().map(|_| rows));
            LogicalProps::new(rows, ndvs)
        }
        RelOp::Sort { .. } => children[0].clone(),
        RelOp::Limit { fetch, offset, .. } => {
            let input = children[0];
            let avail = (input.rows - *offset as f64).max(0.0);
            let rows = fetch.map(|f| (f as f64).min(avail)).unwrap_or(avail);
            LogicalProps::new(rows, input.ndvs.iter().map(|&n| n.min(rows).max(1.0)).collect())
        }
    }
}

/// Properties across an aggregate phase boundary (partial output feeds the
/// final phase). Partial output rows ≈ groups × participating partitions,
/// but bounded by input rows; we approximate with the group count, which is
/// what matters for exchange costing.
pub fn agg_phase_props(input: &LogicalProps, group: &[usize], aggs: &[AggCall], phase: AggPhase) -> LogicalProps {
    let groups = if group.is_empty() { 1.0 } else { input.ndv_of(group) };
    // One column per aggregate, or `Partial`, its state columns.
    let width = |a: &AggCall| if phase == AggPhase::Partial { a.func.state_width() } else { 1 };
    let mut ndvs: Vec<f64> = group.iter().map(|&g| input.ndv(g).min(groups)).collect();
    ndvs.extend(std::iter::repeat_n(groups, aggs.iter().map(width).sum()));
    LogicalProps::new(groups, ndvs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::Datum;

    fn props(rows: f64, ndvs: &[f64]) -> LogicalProps {
        LogicalProps::new(rows, ndvs.to_vec())
    }

    #[test]
    fn eq3_improved_estimator() {
        // |A|=1000 d=100, |B|=500 d=50 -> 1000*500/100 = 5000
        let l = props(1000.0, &[100.0]);
        let r = props(500.0, &[50.0]);
        assert_eq!(join_rowcount_improved(&l, &r, &[0], &[0], 1.0), 5000.0);
    }

    #[test]
    fn baseline_edge_case_collapses_to_one() {
        let tiny = props(1.0, &[1.0]);
        let big = props(1_000_000.0, &[1000.0]);
        assert_eq!(join_rowcount_baseline(&tiny, &big, &[0], &[0], 1.0), 1.0);
        assert_eq!(join_rowcount_baseline(&big, &tiny, &[0], &[0], 1.0), 1.0);
        // And it cascades: the 1-row result joined again is still 1.
        let chained = props(1.0, &[1.0]);
        assert_eq!(join_rowcount_baseline(&chained, &big, &[0], &[0], 1.0), 1.0);
        // The improved estimator does not collapse.
        let improved = join_rowcount_improved(&tiny, &big, &[0], &[0], 1.0);
        assert!(improved >= 1000.0, "improved estimate {improved}");
    }

    #[test]
    fn selectivity_heuristics() {
        let input = props(1000.0, &[100.0]);
        let eq = Expr::eq(Expr::col(0), Expr::lit(5i64));
        assert!((selectivity(&eq, &input) - 0.01).abs() < 1e-9);
        let and = Expr::and(eq.clone(), eq.clone());
        assert!((selectivity(&and, &input) - 0.0001).abs() < 1e-9);
        let range = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(5i64));
        assert!((selectivity(&range, &input) - 1.0 / 3.0).abs() < 1e-9);
        let or = Expr::or(eq.clone(), eq.clone());
        assert!(selectivity(&or, &input) > 0.01 && selectivity(&or, &input) < 0.021);
        let inl = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Expr::lit(1i64), Expr::lit(2i64)],
            negated: false,
        };
        assert!((selectivity(&inl, &input) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn semi_anti_bounds() {
        let l = props(1000.0, &[100.0]);
        let r = props(10.0, &[10.0]);
        let s = semi_rows(&l, &r, &[0], &[0]);
        assert!(s <= l.rows && s >= 1.0);
        assert!((s - 100.0).abs() < 1e-6); // 1000 * 10/100
    }

    #[test]
    fn ndv_clamping() {
        let p = props(10.0, &[500.0]);
        assert_eq!(p.ndv(0), 10.0);
        assert_eq!(p.ndv(5), 10.0); // missing column falls back to rows
        assert_eq!(p.ndv_of(&[]), 1.0);
    }

    #[test]
    fn values_and_limit_props() {
        use crate::ops::RelOp;
        use ic_common::{DataType, Field, Row, Schema};
        let cat = Catalog::new(2, 0);
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let v: RelOp<u32> = RelOp::Values {
            schema,
            rows: vec![Row(vec![Datum::Int(1)]), Row(vec![Datum::Int(2)])],
        };
        let p = derive_props(&v, &[], &cat, true);
        assert_eq!(p.rows, 2.0);
        let input = props(100.0, &[50.0]);
        let l: RelOp<u32> = RelOp::Limit { input: 0, fetch: Some(10), offset: 5 };
        let p = derive_props(&l, &[&input], &cat, true);
        assert_eq!(p.rows, 10.0);
    }
}
