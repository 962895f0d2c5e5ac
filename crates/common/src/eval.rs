//! Vectorized expression evaluation over [`ColumnBatch`]es.
//!
//! Two entry points:
//!
//! * [`eval_expr`] evaluates a scalar expression to a logically dense
//!   [`Column`] (one value per *selected* row), with typed per-column loops
//!   for comparisons, arithmetic, Kleene AND/OR, NOT and IS NULL, and a
//!   per-row fallback (LIKE, IN, CASE, functions) that materializes only
//!   the columns the expression references.
//! * [`eval_filter_sel`] evaluates a predicate directly to a selection:
//!   the *logical* row indices that pass. Conjunctions shrink the
//!   selection conjunct by conjunct and `Col ⋈ Lit` / `Col ⋈ Col`
//!   comparisons never materialize anything — the core of the
//!   filters-never-copy contract of the columnar plane.
//!
//! Semantics are bit-identical to the row interpreter ([`Expr::eval`] /
//! [`Expr::eval_filter`]): SQL three-valued logic, `Datum::sql_cmp`
//! comparison coercions (Int↔Double as f64, Date↔Int as i64), wrapping Int
//! arithmetic, `x / 0 → NULL`, and the same error cases (incomparable
//! operand types, NOT on non-booleans). The per-row fallbacks call the
//! same `apply_binary` / `Expr::eval` the row plane uses, so the two
//! planes cannot drift.

use crate::expr::apply_binary;
use crate::{
    BinOp, Bitmap, Column, ColumnBatch, ColumnBuilder, ColumnData, Datum, Expr, IcError, IcResult,
    Row,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Three-valued read of a boolean column at physical index `i`:
/// `Some(b)` for a valid boolean, `None` for NULL or a non-boolean value
/// (mirroring `Datum::as_bool`).
#[inline]
fn tri(col: &Column, i: usize) -> Option<bool> {
    if !col.is_valid(i) {
        return None;
    }
    match &col.data {
        ColumnData::Bool(v) => Some(v[i]),
        ColumnData::Any(v) => v[i].as_bool(),
        _ => None,
    }
}

/// Does `ord` satisfy comparison operator `op`?
#[inline]
fn cmp_true(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => false,
    }
}

/// Numeric view of an Int or Double column for mixed-type f64 loops.
enum Num<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl Num<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            Num::I(v) => v[i] as f64,
            Num::F(v) => v[i],
        }
    }
}

fn num_of(data: &ColumnData) -> Option<Num<'_>> {
    match data {
        ColumnData::Int(v) => Some(Num::I(v)),
        ColumnData::Double(v) => Some(Num::F(v)),
        _ => None,
    }
}

/// Accumulates an output validity bitmap, normalized to `None` when every
/// row is valid (the `Column` invariant).
struct Validity {
    bm: Bitmap,
    any_null: bool,
}

impl Validity {
    fn new() -> Validity {
        Validity { bm: Bitmap::new(), any_null: false }
    }

    #[inline]
    fn push(&mut self, valid: bool) {
        self.bm.push(valid);
        self.any_null |= !valid;
    }

    fn finish(self) -> Option<Bitmap> {
        if self.any_null {
            Some(self.bm)
        } else {
            None
        }
    }
}

fn col_oob(i: usize, width: usize) -> IcError {
    IcError::Exec(format!("column {i} out of bounds (arity {width})"))
}

fn incomparable(l: &Datum, r: &Datum) -> IcError {
    IcError::Exec(format!("cannot compare {l} and {r}"))
}

/// Evaluate `e` over every selected row of `batch`, producing a logically
/// dense column (`len == batch.num_rows()`).
pub fn eval_expr(e: &Expr, batch: &ColumnBatch) -> IcResult<Arc<Column>> {
    let n = batch.num_rows();
    match e {
        Expr::Col(i) => {
            if *i >= batch.width() {
                return Err(col_oob(*i, batch.width()));
            }
            match batch.selection() {
                // Dense batch: a column reference is a free Arc clone.
                None => Ok(Arc::clone(batch.col(*i))),
                Some(sel) => {
                    let mut b = ColumnBuilder::new();
                    b.append_column(batch.col(*i), Some(sel));
                    Ok(Arc::new(b.finish()))
                }
            }
        }
        Expr::Lit(d) => {
            let mut b = ColumnBuilder::new();
            for _ in 0..n {
                b.push_datum(d.clone());
            }
            Ok(Arc::new(b.finish()))
        }
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
            let l = eval_expr(left, batch)?;
            // The row interpreter short-circuits AND/OR per row, so a
            // failing right side is only an error on rows the left side
            // doesn't decide. Fall back to row-at-a-time evaluation to
            // preserve those exact semantics.
            let r = match eval_expr(right, batch) {
                Ok(c) => c,
                Err(_) => return eval_fallback(e, batch),
            };
            let mut vals = Vec::with_capacity(n);
            let mut validity = Validity::new();
            for i in 0..n {
                let lb = tri(&l, i);
                let rb = tri(&r, i);
                let out = match op {
                    BinOp::And => {
                        if lb == Some(false) || rb == Some(false) {
                            Some(false)
                        } else if lb == Some(true) && rb == Some(true) {
                            Some(true)
                        } else {
                            None
                        }
                    }
                    _ => {
                        if lb == Some(true) || rb == Some(true) {
                            Some(true)
                        } else if lb == Some(false) && rb == Some(false) {
                            Some(false)
                        } else {
                            None
                        }
                    }
                };
                vals.push(out.unwrap_or(false));
                validity.push(out.is_some());
            }
            Ok(Arc::new(Column { data: ColumnData::Bool(vals), validity: validity.finish() }))
        }
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, batch)?;
            let r = eval_expr(right, batch)?;
            Ok(Arc::new(eval_binary_cols(*op, &l, &r, n)?))
        }
        Expr::Not(inner) => {
            let c = eval_expr(inner, batch)?;
            match &c.data {
                ColumnData::Bool(v) => {
                    let mut vals = Vec::with_capacity(n);
                    let mut validity = Validity::new();
                    for (i, &x) in v.iter().enumerate().take(n) {
                        let valid = c.is_valid(i);
                        vals.push(valid && !x);
                        validity.push(valid);
                    }
                    Ok(Arc::new(Column {
                        data: ColumnData::Bool(vals),
                        validity: validity.finish(),
                    }))
                }
                _ => {
                    let mut b = ColumnBuilder::new();
                    for i in 0..n {
                        if !c.is_valid(i) {
                            b.push_null();
                            continue;
                        }
                        match c.datum_at(i) {
                            Datum::Bool(x) => b.push_datum(Datum::Bool(!x)),
                            other => {
                                return Err(IcError::Exec(format!("NOT on non-boolean {other}")))
                            }
                        }
                    }
                    Ok(Arc::new(b.finish()))
                }
            }
        }
        Expr::IsNull { expr, negated } => {
            let c = eval_expr(expr, batch)?;
            let vals: Vec<bool> = (0..n).map(|i| c.is_valid(i) == *negated).collect();
            Ok(Arc::new(Column { data: ColumnData::Bool(vals), validity: None }))
        }
        // LIKE / IN-list / CASE / functions: per-row fallback over only the
        // referenced columns.
        _ => eval_fallback(e, batch),
    }
}

/// Row-at-a-time fallback: materialize only the columns `e` references
/// into a reused template row and run the row interpreter.
fn eval_fallback(e: &Expr, batch: &ColumnBatch) -> IcResult<Arc<Column>> {
    let width = batch.width();
    let cols: Vec<usize> = e.columns().into_iter().filter(|&c| c < width).collect();
    let mut row = Row(vec![Datum::Null; width]);
    let mut b = ColumnBuilder::new();
    for k in 0..batch.num_rows() {
        for &c in &cols {
            row.0[c] = batch.datum_at(c, k);
        }
        b.push_datum(e.eval(&row)?);
    }
    Ok(Arc::new(b.finish()))
}

/// Apply a comparison or arithmetic operator element-wise over two dense
/// columns of length `n`.
fn eval_binary_cols(op: BinOp, l: &Column, r: &Column, n: usize) -> IcResult<Column> {
    if op.is_comparison() {
        // Typed comparison loops; exotic type pairs fall through to the
        // shared scalar `apply_binary` so coercions and error messages
        // match the row plane exactly.
        let ord_loop = |cmp: &dyn Fn(usize) -> Ordering| -> Column {
            let mut vals = Vec::with_capacity(n);
            let mut validity = Validity::new();
            for i in 0..n {
                let valid = l.is_valid(i) && r.is_valid(i);
                vals.push(valid && cmp_true(op, cmp(i)));
                validity.push(valid);
            }
            Column { data: ColumnData::Bool(vals), validity: validity.finish() }
        };
        return match (&l.data, &r.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => Ok(ord_loop(&|i| a[i].cmp(&b[i]))),
            (ColumnData::Date(a), ColumnData::Date(b)) => Ok(ord_loop(&|i| a[i].cmp(&b[i]))),
            (ColumnData::Date(a), ColumnData::Int(b)) => {
                Ok(ord_loop(&|i| (a[i] as i64).cmp(&b[i])))
            }
            (ColumnData::Int(a), ColumnData::Date(b)) => {
                Ok(ord_loop(&|i| a[i].cmp(&(b[i] as i64))))
            }
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => {
                Ok(ord_loop(&|i| l.str_at(i).cmp(r.str_at(i))))
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => Ok(ord_loop(&|i| a[i].cmp(&b[i]))),
            _ => {
                if let (Some(a), Some(b)) = (num_of(&l.data), num_of(&r.data)) {
                    let mut vals = Vec::with_capacity(n);
                    let mut validity = Validity::new();
                    for i in 0..n {
                        let valid = l.is_valid(i) && r.is_valid(i);
                        if valid {
                            let ord = a
                                .get(i)
                                .partial_cmp(&b.get(i))
                                .ok_or_else(|| incomparable(&l.datum_at(i), &r.datum_at(i)))?;
                            vals.push(cmp_true(op, ord));
                        } else {
                            vals.push(false);
                        }
                        validity.push(valid);
                    }
                    Ok(Column { data: ColumnData::Bool(vals), validity: validity.finish() })
                } else {
                    binary_datum_fallback(op, l, r, n)
                }
            }
        };
    }
    // Arithmetic.
    match (&l.data, &r.data) {
        (ColumnData::Int(a), ColumnData::Int(b)) if op != BinOp::Div => {
            let mut vals = Vec::with_capacity(n);
            let mut validity = Validity::new();
            for i in 0..n {
                vals.push(match op {
                    BinOp::Add => a[i].wrapping_add(b[i]),
                    BinOp::Sub => a[i].wrapping_sub(b[i]),
                    _ => a[i].wrapping_mul(b[i]),
                });
                validity.push(l.is_valid(i) && r.is_valid(i));
            }
            Ok(Column { data: ColumnData::Int(vals), validity: validity.finish() })
        }
        _ => {
            if let (Some(a), Some(b)) = (num_of(&l.data), num_of(&r.data)) {
                let mut vals = Vec::with_capacity(n);
                let mut validity = Validity::new();
                for i in 0..n {
                    let (x, y) = (a.get(i), b.get(i));
                    let mut valid = l.is_valid(i) && r.is_valid(i);
                    vals.push(match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        _ => {
                            // x / 0 → NULL, matching `apply_binary`.
                            valid &= y != 0.0;
                            if y == 0.0 {
                                0.0
                            } else {
                                x / y
                            }
                        }
                    });
                    validity.push(valid);
                }
                Ok(Column { data: ColumnData::Double(vals), validity: validity.finish() })
            } else {
                binary_datum_fallback(op, l, r, n)
            }
        }
    }
}

/// Element-wise scalar fallback through `apply_binary` (exotic type pairs:
/// mixed Any columns, Str arithmetic errors, Bool comparisons with
/// non-Bool, ...).
fn binary_datum_fallback(op: BinOp, l: &Column, r: &Column, n: usize) -> IcResult<Column> {
    let mut b = ColumnBuilder::new();
    for i in 0..n {
        if !l.is_valid(i) || !r.is_valid(i) {
            b.push_null();
            continue;
        }
        b.push_datum(apply_binary(op, &l.datum_at(i), &r.datum_at(i))?);
    }
    Ok(b.finish())
}

/// Evaluate a filter predicate to the *logical* row indices of `batch`
/// that pass (predicate strictly TRUE), in increasing order. Never
/// materializes output rows: conjunctions shrink a selection, `Col ⋈ Lit`
/// and `Col ⋈ Col` comparisons scan column buffers directly.
pub fn eval_filter_sel(pred: &Expr, batch: &ColumnBatch) -> IcResult<Vec<u32>> {
    let n = batch.num_rows();
    match pred {
        Expr::Lit(d) => Ok(if d.as_bool() == Some(true) {
            (0..n as u32).collect()
        } else {
            Vec::new()
        }),
        Expr::Binary { op: BinOp::And, left, right } => {
            let lsel = eval_filter_sel(left, batch)?;
            if lsel.is_empty() {
                return Ok(lsel);
            }
            let lb = batch.select_logical(&lsel);
            let rsel = eval_filter_sel(right, &lb)?;
            Ok(rsel.into_iter().map(|j| lsel[j as usize]).collect())
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let lsel = eval_filter_sel(left, batch)?;
            if lsel.len() == n {
                return Ok(lsel);
            }
            // Evaluate the right side only over rows the left side
            // rejected (it can only add those), then merge in row order.
            let mut rest = Vec::with_capacity(n - lsel.len());
            let mut p = 0usize;
            for k in 0..n as u32 {
                if p < lsel.len() && lsel[p] == k {
                    p += 1;
                } else {
                    rest.push(k);
                }
            }
            let rb = batch.select_logical(&rest);
            let rsel = eval_filter_sel(right, &rb)?;
            let mut out = Vec::with_capacity(lsel.len() + rsel.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < lsel.len() || j < rsel.len() {
                let rv = rsel.get(j).map(|&x| rest[x as usize]);
                match (lsel.get(i), rv) {
                    (Some(&a), Some(b)) if a < b => {
                        out.push(a);
                        i += 1;
                    }
                    (Some(_), Some(b)) => {
                        out.push(b);
                        j += 1;
                    }
                    (Some(&a), None) => {
                        out.push(a);
                        i += 1;
                    }
                    (None, Some(b)) => {
                        out.push(b);
                        j += 1;
                    }
                    (None, None) => break,
                }
            }
            Ok(out)
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Col(c), Expr::Lit(d)) => cmp_col_lit(*op, *c, d, batch),
                (Expr::Lit(d), Expr::Col(c)) => match op.commute() {
                    Some(oc) => cmp_col_lit(oc, *c, d, batch),
                    None => filter_generic(pred, batch),
                },
                (Expr::Col(a), Expr::Col(b)) => cmp_col_col(*op, *a, *b, batch),
                _ => filter_generic(pred, batch),
            }
        }
        Expr::IsNull { expr, negated } => {
            if let Expr::Col(c) = expr.as_ref() {
                if *c < batch.width() {
                    let col = batch.col(*c);
                    return Ok((0..n as u32)
                        .filter(|&k| col.is_valid(batch.phys_index(k as usize)) == *negated)
                        .collect());
                }
            }
            filter_generic(pred, batch)
        }
        _ => filter_generic(pred, batch),
    }
}

/// Generic filter: evaluate to a boolean column, keep strictly-TRUE rows.
fn filter_generic(pred: &Expr, batch: &ColumnBatch) -> IcResult<Vec<u32>> {
    let c = eval_expr(pred, batch)?;
    Ok((0..batch.num_rows() as u32).filter(|&k| tri(&c, k as usize) == Some(true)).collect())
}

/// `Col ⋈ Lit` selection scan: one typed loop over the column buffer.
fn cmp_col_lit(op: BinOp, c: usize, d: &Datum, batch: &ColumnBatch) -> IcResult<Vec<u32>> {
    if c >= batch.width() {
        return Err(col_oob(c, batch.width()));
    }
    if d.is_null() {
        return Ok(Vec::new());
    }
    let n = batch.num_rows();
    let col = batch.col(c);
    let mut out = Vec::new();
    // One monomorphized scan loop per (column type, literal type) pair.
    macro_rules! scan {
        ($test:expr) => {{
            for k in 0..n as u32 {
                let i = batch.phys_index(k as usize);
                if col.is_valid(i) && $test(i) {
                    out.push(k);
                }
            }
        }};
    }
    match (&col.data, d) {
        (ColumnData::Int(v), Datum::Int(x)) => scan!(|i: usize| cmp_true(op, v[i].cmp(x))),
        (ColumnData::Int(v), Datum::Double(x)) => {
            for k in 0..n as u32 {
                let i = batch.phys_index(k as usize);
                if !col.is_valid(i) {
                    continue;
                }
                let ord = (v[i] as f64)
                    .partial_cmp(x)
                    .ok_or_else(|| incomparable(&Datum::Int(v[i]), d))?;
                if cmp_true(op, ord) {
                    out.push(k);
                }
            }
        }
        (ColumnData::Double(v), lit @ (Datum::Int(_) | Datum::Double(_))) => {
            let x = match lit {
                Datum::Int(x) => *x as f64,
                Datum::Double(x) => *x,
                _ => unreachable!(),
            };
            for k in 0..n as u32 {
                let i = batch.phys_index(k as usize);
                if !col.is_valid(i) {
                    continue;
                }
                let ord = v[i]
                    .partial_cmp(&x)
                    .ok_or_else(|| incomparable(&Datum::Double(v[i]), d))?;
                if cmp_true(op, ord) {
                    out.push(k);
                }
            }
        }
        (ColumnData::Date(v), Datum::Date(x)) => scan!(|i: usize| cmp_true(op, v[i].cmp(x))),
        (ColumnData::Date(v), Datum::Int(x)) => {
            scan!(|i: usize| cmp_true(op, (v[i] as i64).cmp(x)))
        }
        (ColumnData::Int(v), Datum::Date(x)) => {
            scan!(|i: usize| cmp_true(op, v[i].cmp(&(*x as i64))))
        }
        (ColumnData::Str { .. }, Datum::Str(s)) => {
            scan!(|i: usize| cmp_true(op, col.str_at(i).cmp(&**s)))
        }
        (ColumnData::Bool(v), Datum::Bool(x)) => scan!(|i: usize| cmp_true(op, v[i].cmp(x))),
        _ => {
            // Mixed/Any columns: scalar compare per row through the shared
            // row-plane semantics.
            for k in 0..n as u32 {
                let i = batch.phys_index(k as usize);
                if !col.is_valid(i) {
                    continue;
                }
                if apply_binary(op, &col.datum_at(i), d)?.as_bool() == Some(true) {
                    out.push(k);
                }
            }
        }
    }
    Ok(out)
}

/// `Col ⋈ Col` selection scan.
fn cmp_col_col(op: BinOp, a: usize, b: usize, batch: &ColumnBatch) -> IcResult<Vec<u32>> {
    let width = batch.width();
    if a >= width || b >= width {
        return Err(col_oob(a.max(b), width));
    }
    let n = batch.num_rows();
    let (ca, cb) = (batch.col(a), batch.col(b));
    let mut out = Vec::new();
    macro_rules! scan {
        ($test:expr) => {{
            for k in 0..n as u32 {
                let i = batch.phys_index(k as usize);
                if ca.is_valid(i) && cb.is_valid(i) && $test(i) {
                    out.push(k);
                }
            }
        }};
    }
    match (&ca.data, &cb.data) {
        (ColumnData::Int(x), ColumnData::Int(y)) => scan!(|i: usize| cmp_true(op, x[i].cmp(&y[i]))),
        (ColumnData::Date(x), ColumnData::Date(y)) => {
            scan!(|i: usize| cmp_true(op, x[i].cmp(&y[i])))
        }
        (ColumnData::Date(x), ColumnData::Int(y)) => {
            scan!(|i: usize| cmp_true(op, (x[i] as i64).cmp(&y[i])))
        }
        (ColumnData::Int(x), ColumnData::Date(y)) => {
            scan!(|i: usize| cmp_true(op, x[i].cmp(&(y[i] as i64))))
        }
        (ColumnData::Str { .. }, ColumnData::Str { .. }) => {
            scan!(|i: usize| cmp_true(op, ca.str_at(i).cmp(cb.str_at(i))))
        }
        (ColumnData::Bool(x), ColumnData::Bool(y)) => {
            scan!(|i: usize| cmp_true(op, x[i].cmp(&y[i])))
        }
        _ => {
            if let (Some(x), Some(y)) = (num_of(&ca.data), num_of(&cb.data)) {
                for k in 0..n as u32 {
                    let i = batch.phys_index(k as usize);
                    if !(ca.is_valid(i) && cb.is_valid(i)) {
                        continue;
                    }
                    let ord = x
                        .get(i)
                        .partial_cmp(&y.get(i))
                        .ok_or_else(|| incomparable(&ca.datum_at(i), &cb.datum_at(i)))?;
                    if cmp_true(op, ord) {
                        out.push(k);
                    }
                }
            } else {
                for k in 0..n as u32 {
                    let i = batch.phys_index(k as usize);
                    if !(ca.is_valid(i) && cb.is_valid(i)) {
                        continue;
                    }
                    if apply_binary(op, &ca.datum_at(i), &cb.datum_at(i))?.as_bool() == Some(true)
                    {
                        out.push(k);
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            Row(vec![Datum::Int(1), Datum::Double(0.5), Datum::str("aa"), Datum::Null]),
            Row(vec![Datum::Int(5), Datum::Null, Datum::str("bb"), Datum::Bool(true)]),
            Row(vec![Datum::Null, Datum::Double(2.5), Datum::str("cc"), Datum::Bool(false)]),
            Row(vec![Datum::Int(3), Datum::Double(3.5), Datum::Null, Datum::Bool(true)]),
        ]
    }

    /// Every eval path must agree with the row interpreter.
    fn assert_matches_row_eval(e: &Expr) {
        let rs = rows();
        let batch = ColumnBatch::from_rows(&rs);
        let col = eval_expr(e, &batch).unwrap();
        for (k, r) in rs.iter().enumerate() {
            assert_eq!(col.datum_at(k), e.eval(r).unwrap(), "expr {e} row {k}");
        }
        let sel = eval_filter_sel(e, &batch).unwrap();
        let want: Vec<u32> = rs
            .iter()
            .enumerate()
            .filter(|(_, r)| e.eval(r).unwrap().as_bool() == Some(true))
            .map(|(k, _)| k as u32)
            .collect();
        assert_eq!(sel, want, "filter {e}");
    }

    #[test]
    fn vectorized_matches_row_interpreter() {
        use crate::BinOp::*;
        let cases = vec![
            Expr::binary(Gt, Expr::col(0), Expr::lit(2i64)),
            Expr::binary(Le, Expr::col(0), Expr::lit(3.0)),
            Expr::binary(Eq, Expr::col(2), Expr::lit(Datum::str("bb"))),
            Expr::binary(Lt, Expr::col(0), Expr::col(1)),
            Expr::binary(Ne, Expr::col(3), Expr::lit(Datum::Bool(false))),
            Expr::and(
                Expr::binary(Ge, Expr::col(0), Expr::lit(1i64)),
                Expr::binary(Lt, Expr::col(1), Expr::lit(3.0)),
            ),
            Expr::or(
                Expr::binary(Gt, Expr::col(0), Expr::lit(4i64)),
                Expr::binary(Gt, Expr::col(1), Expr::lit(2.0)),
            ),
            Expr::Not(Box::new(Expr::binary(Gt, Expr::col(0), Expr::lit(2i64)))),
            Expr::IsNull { expr: Box::new(Expr::col(1)), negated: false },
            Expr::IsNull { expr: Box::new(Expr::col(3)), negated: true },
            Expr::binary(Add, Expr::col(0), Expr::lit(10i64)),
            Expr::binary(Mul, Expr::col(0), Expr::col(1)),
            Expr::binary(Div, Expr::col(0), Expr::lit(0i64)),
            Expr::binary(Div, Expr::col(1), Expr::col(0)),
            Expr::Like {
                expr: Box::new(Expr::col(2)),
                pattern: Box::new(Expr::lit(Datum::str("%b"))),
                negated: false,
            },
            Expr::InList {
                expr: Box::new(Expr::col(0)),
                list: vec![Expr::lit(1i64), Expr::lit(3i64)],
                negated: true,
            },
            Expr::lit(Datum::Bool(true)),
            Expr::lit(Datum::Bool(false)),
        ];
        for e in &cases {
            assert_matches_row_eval(e);
        }
    }

    #[test]
    fn filter_through_selection_composes() {
        let rs: Vec<Row> = (0..100i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let batch = ColumnBatch::from_rows(&rs);
        // First shrink: keep evens (via selection), then filter > 50 on the view.
        let evens: Vec<u32> = (0..100u32).filter(|k| k % 2 == 0).collect();
        let view = batch.select_logical(&evens);
        let pred = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(50i64));
        let sel = eval_filter_sel(&pred, &view).unwrap();
        let out = view.select_logical(&sel);
        let got: Vec<i64> =
            out.to_rows().iter().map(|r| r.0[0].as_int().unwrap()).collect();
        let want: Vec<i64> = (0..100).filter(|i| i % 2 == 0 && *i > 50).collect();
        assert_eq!(got, want);
        // No materialization happened: still a view over the same columns.
        assert_eq!(out.phys_rows(), 100);
    }

    #[test]
    fn comparison_type_errors_match_row_plane() {
        let rs = vec![Row(vec![Datum::Int(1), Datum::str("x")])];
        let batch = ColumnBatch::from_rows(&rs);
        let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(1));
        let col_err = eval_filter_sel(&pred, &batch).unwrap_err();
        let row_err = pred.eval(&rs[0]).unwrap_err();
        assert_eq!(format!("{col_err}"), format!("{row_err}"));
    }
}
