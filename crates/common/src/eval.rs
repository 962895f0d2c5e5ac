//! Vectorized expression evaluation over [`ColumnBatch`]es.
//!
//! Two entry points:
//!
//! * [`eval_expr`] evaluates a scalar expression to a logically dense
//!   [`Column`] (one value per *selected* row).
//! * [`eval_filter_sel`] evaluates a predicate directly to a selection:
//!   the *logical* row indices that pass. One selection vector is refined
//!   in place (`refine`): AND by each side in turn, OR by its right side
//!   over the rows its left rejected, and the common leaves — comparisons
//!   of columns and literals, literal IN-lists and LIKE patterns, IS NULL —
//!   by typed loops over the column buffers, which build no batch and
//!   materialize nothing. That is the filters-never-copy contract of the
//!   columnar plane.
//!
//! Every [`Expr`] variant has a typed, batch-at-a-time kernel: comparisons
//! and arithmetic over typed buffers (a literal operand stays one scalar,
//! it is never spread into a column), Kleene AND/OR, NOT, IS NULL,
//! IN-lists, LIKE on the column's bytes with the pattern split once, CASE
//! by narrowing the undecided rows arm by arm, and the built-in functions.
//! Output validity is the word-wise AND of the input bitmaps (none at all
//! when no input has one). Comparison loops carry no data-dependent branch
//! (`Src`, `holds`, `select_where`, `keep`): real data is not a replayed
//! batch, and a mispredicted branch per row costs more than the comparison.
//!
//! **Contract with the row interpreter** ([`Expr::eval`] /
//! [`Expr::eval_filter`], the oracle the fuzzers' reference evaluator runs):
//!
//! * *Same value on every row*: SQL three-valued logic, wrapping Int
//!   arithmetic, `Date ± Int` day arithmetic, `x / 0 → NULL`, and the same
//!   type per row.
//! * *Never more rows*: the vectorized plane may evaluate a sub-expression
//!   on *fewer* rows than the row plane — a filter's AND skips its right
//!   conjunct where the left is NULL, not only where it is FALSE — but
//!   never on a row the row plane skips: the right side of AND/OR runs
//!   over the rows the left does not decide, a CASE arm over the rows that
//!   reach it, an IN-list item over the rows still unmatched. So it fails
//!   only if the row plane fails on some selected row, and a batch without
//!   rows evaluates nothing. Value errors carry the row plane's message.
//!
//! Scalar operands go through the row plane's own scalar functions
//! (`apply_binary`, `apply_func`, ...), so the two planes cannot drift.
//! There is no per-row fallback: the binder coerced every expression
//! (`ic_plan::coerce`), so each operand pair has a typed kernel, and one
//! without is an ill-typed plan — an [`IcError::Internal`].

use crate::expr::{
    apply_binary, apply_func, apply_like, apply_not, substring_range, LikePattern,
};
use crate::{
    col, dates, BinOp, Bitmap, Column, ColumnBatch, ColumnBuilder, DataType, Datum, Expr,
    FuncKind, IcError, IcResult,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// An evaluated operand: a dense column with one value per selected row,
/// or one value standing for all of them (a literal, or anything computed
/// from literals alone).
#[derive(Clone)]
enum Val {
    Col(Arc<Column>),
    Scalar(Datum),
}

impl Val {
    /// A column operand; one without a single valid row is the NULL scalar,
    /// which every kernel short-circuits (its buffer has no type to trust).
    fn col(c: Arc<Column>) -> Val {
        match c.validity() {
            Some(v) if v.count_valid() == 0 => Val::Scalar(Datum::Null),
            _ => Val::Col(c),
        }
    }

    fn is_null(&self) -> bool {
        matches!(self, Val::Scalar(Datum::Null))
    }

    fn validity(&self) -> Option<&Bitmap> {
        match self {
            Val::Col(c) => c.validity(),
            Val::Scalar(_) => None,
        }
    }

    /// Spread to a column of `n` rows.
    fn into_column(self, n: usize) -> Arc<Column> {
        match self {
            Val::Col(c) => c,
            Val::Scalar(d) => Arc::new(Column::repeat(&d, n)),
        }
    }

    /// Three-valued boolean read of row `i`: `None` for NULL or a
    /// non-boolean value (mirroring `Datum::as_bool`).
    #[inline]
    fn tri(&self, i: usize) -> Option<bool> {
        match self {
            Val::Scalar(d) => d.as_bool(),
            Val::Col(c) if !c.is_valid(i) => None,
            Val::Col(c) => c.bools().map(|(v, _)| v[i]),
        }
    }

    /// The typed face of the operand; `None` for the NULL scalar, which no
    /// kernel reads (every operator short-circuits it).
    fn view(&self) -> Option<View<'_>> {
        match self {
            Val::Col(c) => column_view(c),
            Val::Scalar(d) => datum_view(d),
        }
    }
}

/// A column's values as a typed lane indexed by physical row.
fn column_view(c: &Column) -> Option<View<'_>> {
    Some(match c.data_type() {
        DataType::Int => View::Int(Src::buf(c.ints()?.0)),
        DataType::Double => View::Double(Src::buf(c.doubles()?.0)),
        DataType::Date => View::Date(Src::buf(c.dates()?.0)),
        DataType::Bool => View::Bool(Src::buf(c.bools()?.0)),
        DataType::Str => View::Str(StrSrc::Col(c)),
    })
}

/// A non-NULL value broadcast to every row; `None` for NULL.
fn datum_view(d: &Datum) -> Option<View<'_>> {
    Some(match d {
        Datum::Int(x) => View::Int(Src::one(x)),
        Datum::Double(x) => View::Double(Src::one(x)),
        Datum::Date(x) => View::Date(Src::one(x)),
        Datum::Bool(x) => View::Bool(Src::one(x)),
        Datum::Str(s) => View::Str(StrSrc::Const(s)),
        Datum::Null => return None,
    })
}

/// One typed operand lane: a buffer indexed by row, or one broadcast
/// value. Row `i` reads `buf[i & mask]` — the mask is all ones for a buffer
/// and zero for a one-element broadcast — so a kernel's inner loop is the
/// same branch-free code whichever operand is the literal.
#[derive(Clone, Copy)]
struct Src<'a, T> {
    buf: &'a [T],
    mask: usize,
}

impl<'a, T: Copy> Src<'a, T> {
    fn buf(buf: &'a [T]) -> Self {
        Src { buf, mask: usize::MAX }
    }

    fn one(value: &'a T) -> Self {
        Src { buf: std::slice::from_ref(value), mask: 0 }
    }

    #[inline(always)]
    fn at(&self, i: usize) -> T {
        self.buf[i & self.mask]
    }
}

/// A string operand lane over the column's bytes.
#[derive(Clone, Copy)]
enum StrSrc<'a> {
    Col(&'a Column),
    Const(&'a str),
}

impl<'a> StrSrc<'a> {
    #[inline(always)]
    fn at(&self, i: usize) -> &'a [u8] {
        match self {
            StrSrc::Col(c) => c.bytes_at(i),
            StrSrc::Const(s) => s.as_bytes(),
        }
    }
}

/// The typed face of a non-NULL [`Val`].
#[derive(Clone, Copy)]
enum View<'a> {
    Int(Src<'a, i64>),
    Double(Src<'a, f64>),
    Date(Src<'a, i32>),
    Bool(Src<'a, bool>),
    Str(StrSrc<'a>),
}

impl View<'_> {
    fn data_type(&self) -> DataType {
        match self {
            View::Int(_) => DataType::Int,
            View::Double(_) => DataType::Double,
            View::Date(_) => DataType::Date,
            View::Bool(_) => DataType::Bool,
            View::Str(_) => DataType::Str,
        }
    }
}

/// Int or Double read as `f64` (`Datum::as_double`).
#[derive(Clone, Copy)]
enum Num<'a> {
    Int(Src<'a, i64>),
    Double(Src<'a, f64>),
}

impl Num<'_> {
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        match self {
            Num::Int(s) => s.at(i) as f64,
            Num::Double(s) => s.at(i),
        }
    }
}

impl<'a> View<'a> {
    fn num(&self) -> Option<Num<'a>> {
        match *self {
            View::Int(s) => Some(Num::Int(s)),
            View::Double(s) => Some(Num::Double(s)),
            _ => None,
        }
    }
}

/// Truth table of comparison `op` as a bit mask: bit `ord + 1` is set when
/// an operand pair ordered `ord` (Less = -1, Equal = 0, Greater = 1)
/// satisfies it. [`holds`] reads it without a data-dependent branch.
fn truth_table(op: BinOp) -> u8 {
    match op {
        BinOp::Eq => 0b010,
        BinOp::Ne => 0b101,
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Gt => 0b100,
        BinOp::Ge => 0b110,
        _ => 0,
    }
}

#[inline(always)]
fn holds(truth: u8, ord: Ordering) -> bool {
    (truth >> (ord as i8 + 1)) & 1 == 1
}

fn col_oob(i: usize, width: usize) -> IcError {
    IcError::Exec(format!("column {i} out of bounds (arity {width})"))
}

/// The row plane's error for row `i` of a comparison without an order
/// (a NaN: only doubles lack one).
fn unordered(l: &View, r: &View, i: usize) -> IcError {
    let at = |v: &View| match v {
        View::Double(s) => Datum::Double(s.at(i)),
        _ => Datum::Null,
    };
    IcError::Exec(format!("cannot compare {} and {}", at(l), at(r)))
}

/// Operands of kinds no kernel combines: a plan the binder's coercion did
/// not see.
fn ill_typed(what: &str, kinds: impl IntoIterator<Item = DataType>) -> IcError {
    let kinds: Vec<String> = kinds.into_iter().map(|t| t.to_string()).collect();
    IcError::Internal(format!("ill-typed {what} over {} reached the evaluator", kinds.join(", ")))
}

/// Validity of a value computed from `a` and `b`: valid where both are.
fn both_valid(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(x), Some(y)) => Some(x.and(y)),
    }
}

#[inline(always)]
fn bit(validity: Option<&Bitmap>, i: usize) -> bool {
    validity.is_none_or(|v| v.get(i))
}

/// `batch` narrowed to the logical rows `rows` (increasing): how a CASE
/// arm, a computed IN item and a predicate without a typed loop see just
/// their rows. The batch itself when they are all of its rows, so
/// full-batch sub-evaluations keep sharing column `Arc`s.
fn narrow<'a>(batch: &'a ColumnBatch, rows: &[u32]) -> Cow<'a, ColumnBatch> {
    if rows.len() == batch.num_rows() {
        Cow::Borrowed(batch)
    } else {
        Cow::Owned(batch.select_logical(rows))
    }
}

/// The rows `k < n` with `pass(k)`, in order. No data-dependent branch:
/// every row writes its index to the next free slot and only a passing row
/// advances the slot, so a 50 %-selective predicate costs what a 1 % one does.
#[inline(always)]
fn select_where(n: usize, mut pass: impl FnMut(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; n];
    let mut len = 0usize;
    for k in 0..n {
        out[len] = k as u32;
        len += pass(k) as usize;
    }
    out.truncate(len);
    out
}

/// Evaluate `e` over every selected row of `batch`, producing a logically
/// dense column (`len == batch.num_rows()`).
pub fn eval_expr(e: &Expr, batch: &ColumnBatch) -> IcResult<Arc<Column>> {
    let n = batch.num_rows();
    if n == 0 {
        return Ok(Arc::new(Column::repeat(&Datum::Null, 0)));
    }
    Ok(eval_val(e, batch)?.into_column(n))
}

/// Evaluate `e` over a batch with at least one row.
fn eval_val(e: &Expr, batch: &ColumnBatch) -> IcResult<Val> {
    let n = batch.num_rows();
    match e {
        Expr::Col(i) => {
            if *i >= batch.width() {
                return Err(col_oob(*i, batch.width()));
            }
            Ok(Val::col(match batch.selection() {
                // Dense batch: a column reference is a free Arc clone.
                None => Arc::clone(batch.col(*i)),
                Some(sel) => Arc::new(batch.col(*i).take(sel)),
            }))
        }
        Expr::Lit(d) => Ok(Val::Scalar(d.clone())),
        Expr::Param { index, .. } => Err(crate::expr::unbound_param(*index)),
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
            logic(*op == BinOp::And, left, right, batch)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_val(left, batch)?;
            let r = eval_val(right, batch)?;
            binary(*op, &l, &r, n)
        }
        Expr::Not(inner) => match eval_val(inner, batch)? {
            Val::Scalar(d) => apply_not(&d).map(Val::Scalar),
            Val::Col(c) => match c.bools() {
                Some((b, validity)) => Ok(Val::Col(Arc::new(Column::from_bools(
                    b.iter().map(|x| !x).collect(),
                    validity.cloned(),
                )))),
                None => Err(ill_typed("NOT", [c.data_type()])),
            },
        },
        Expr::IsNull { expr, negated } => Ok(match eval_val(expr, batch)? {
            Val::Scalar(d) => Val::Scalar(Datum::Bool(d.is_null() != *negated)),
            Val::Col(c) => Val::Col(Arc::new(Column::from_bools(
                (0..n).map(|i| c.is_valid(i) == *negated).collect(),
                None,
            ))),
        }),
        Expr::Like { expr, pattern, negated } => {
            let v = eval_val(expr, batch)?;
            let p = eval_val(pattern, batch)?;
            like(&v, &p, *negated, n)
        }
        Expr::InList { expr, list, negated } => in_list(expr, list, *negated, batch),
        Expr::Case { whens, else_ } => case(whens, else_, batch),
        Expr::Func { kind, args } => {
            let args: Vec<Val> =
                args.iter().map(|a| eval_val(a, batch)).collect::<IcResult<_>>()?;
            func(*kind, &args, n)
        }
    }
}

/// Comparison `truth` ([`truth_table`]) of rows `0..n` as booleans: both
/// operands of one type, strings compared by their bytes. `None` for
/// operands of different types, `Some(Err(i))` for the first row `i` that
/// is valid in `validity` and has no order (a NaN).
fn compare_bools(
    l: &View,
    r: &View,
    truth: u8,
    n: usize,
    validity: Option<&Bitmap>,
) -> Option<Result<Vec<bool>, usize>> {
    fn run(
        n: usize,
        truth: u8,
        validity: Option<&Bitmap>,
        ord_at: impl Fn(usize) -> Option<Ordering>,
    ) -> Result<Vec<bool>, usize> {
        let mut bad = None;
        let vals = (0..n)
            .map(|i| match ord_at(i) {
                Some(ord) => holds(truth, ord),
                None => {
                    if bad.is_none() && bit(validity, i) {
                        bad = Some(i);
                    }
                    false
                }
            })
            .collect();
        bad.map_or(Ok(vals), Err)
    }
    let v = validity;
    Some(match (l, r) {
        (View::Int(a), View::Int(b)) => run(n, truth, v, |i| Some(a.at(i).cmp(&b.at(i)))),
        (View::Date(a), View::Date(b)) => run(n, truth, v, |i| Some(a.at(i).cmp(&b.at(i)))),
        (View::Double(a), View::Double(b)) => run(n, truth, v, |i| a.at(i).partial_cmp(&b.at(i))),
        (View::Str(a), View::Str(b)) => run(n, truth, v, |i| Some(a.at(i).cmp(b.at(i)))),
        (View::Bool(a), View::Bool(b)) => run(n, truth, v, |i| Some(a.at(i).cmp(&b.at(i)))),
        _ => return None,
    })
}

/// A comparison or arithmetic operator over two evaluated operands.
fn binary(op: BinOp, l: &Val, r: &Val, n: usize) -> IcResult<Val> {
    if let (Val::Scalar(a), Val::Scalar(b)) = (l, r) {
        return apply_binary(op, a, b).map(Val::Scalar);
    }
    let (Some(lv), Some(rv)) = (l.view(), r.view()) else {
        return Ok(Val::Scalar(Datum::Null));
    };
    let validity = both_valid(l.validity(), r.validity());
    let col = if op.is_comparison() {
        match compare_bools(&lv, &rv, truth_table(op), n, validity.as_ref()) {
            Some(Ok(vals)) => Some(Column::from_bools(vals, validity)),
            Some(Err(i)) => return Err(unordered(&lv, &rv, i)),
            None => None,
        }
    } else {
        arithmetic(op, &lv, &rv, n, validity)
    };
    match col {
        Some(col) => Ok(Val::Col(Arc::new(col))),
        None => Err(ill_typed(&op.to_string(), [lv.data_type(), rv.data_type()])),
    }
}

/// Typed arithmetic: Int ∘ Int stays Int (wrapping) except `/`, `Date ±
/// Int` shifts by days; anything else numeric computes in `f64`, and
/// `x / 0` clears the row's validity.
fn arithmetic(
    op: BinOp,
    l: &View,
    r: &View,
    n: usize,
    mut validity: Option<Bitmap>,
) -> Option<Column> {
    if let (View::Int(a), View::Int(b), true) = (l, r, op != BinOp::Div) {
        let vals = match op {
            BinOp::Add => (0..n).map(|i| a.at(i).wrapping_add(b.at(i))).collect(),
            BinOp::Sub => (0..n).map(|i| a.at(i).wrapping_sub(b.at(i))).collect(),
            _ => (0..n).map(|i| a.at(i).wrapping_mul(b.at(i))).collect(),
        };
        return Some(Column::from_ints(vals, validity));
    }
    if let (View::Date(d), View::Int(k), BinOp::Add | BinOp::Sub) = (l, r, op) {
        let vals = match op {
            BinOp::Add => (0..n).map(|i| d.at(i).wrapping_add(k.at(i) as i32)).collect(),
            _ => (0..n).map(|i| d.at(i).wrapping_sub(k.at(i) as i32)).collect(),
        };
        return Some(Column::from_dates(vals, validity));
    }
    let (a, b) = (l.num()?, r.num()?);
    let vals = match op {
        BinOp::Add => (0..n).map(|i| a.at(i) + b.at(i)).collect(),
        BinOp::Sub => (0..n).map(|i| a.at(i) - b.at(i)).collect(),
        BinOp::Mul => (0..n).map(|i| a.at(i) * b.at(i)).collect(),
        _ => (0..n)
            .map(|i| {
                let y = b.at(i);
                if y == 0.0 {
                    validity.get_or_insert_with(|| Bitmap::filled(n, true)).clear(i);
                    return 0.0;
                }
                a.at(i) / y
            })
            .collect(),
    };
    Some(Column::from_doubles(vals, validity))
}

/// Kleene AND/OR. The right side is evaluated over exactly the rows the
/// left side does not decide (AND: not FALSE, OR: not TRUE) — the rows the
/// row interpreter's short-circuit reaches.
fn logic(is_and: bool, left: &Expr, right: &Expr, batch: &ColumnBatch) -> IcResult<Val> {
    let n = batch.num_rows();
    let l = eval_val(left, batch)?;
    // AND is decided by FALSE, OR by TRUE: the deciding value is `!is_and`.
    let open = select_where(n, |k| l.tri(k) != Some(!is_and));
    if open.is_empty() {
        return Ok(Val::Scalar(Datum::Bool(!is_and)));
    }
    let r = eval_val(right, &narrow(batch, &open))?;
    let mut vals = vec![!is_and; n];
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for (j, &k) in open.iter().enumerate() {
        let k = k as usize;
        // The left side here is the neutral value (`is_and`) or NULL.
        match (l.tri(k), r.tri(j)) {
            (_, Some(rb)) if rb != is_and => {}
            (Some(_), Some(_)) => vals[k] = is_and,
            _ => {
                validity.clear(k);
                any_null = true;
            }
        }
    }
    let validity = any_null.then_some(validity);
    Ok(Val::Col(Arc::new(Column::from_bools(vals, validity))))
}

/// `v [NOT] LIKE pattern`: a literal pattern is split once for the batch
/// and matched against the column's bytes.
fn like(v: &Val, pattern: &Val, negated: bool, n: usize) -> IcResult<Val> {
    if let (Val::Scalar(a), Val::Scalar(b)) = (v, pattern) {
        return apply_like(a, b, negated).map(Val::Scalar);
    }
    let (Some(sv), Some(pv)) = (v.view(), pattern.view()) else {
        return Ok(Val::Scalar(Datum::Null));
    };
    let (View::Str(s), View::Str(p)) = (sv, pv) else {
        return Err(ill_typed("LIKE", [sv.data_type(), pv.data_type()]));
    };
    let vals = match p {
        StrSrc::Const(p) => {
            let p = LikePattern::new(p);
            (0..n).map(|i| p.matches(s.at(i)) != negated).collect()
        }
        StrSrc::Col(pc) => {
            (0..n).map(|i| LikePattern::new(pc.str_at(i)).matches(s.at(i)) != negated).collect()
        }
    };
    let validity = both_valid(v.validity(), pattern.validity());
    Ok(Val::Col(Arc::new(Column::from_bools(vals, validity))))
}

/// `expr [NOT] IN (list)` with the row plane's three-valued result: TRUE on
/// a match, else NULL if the row met a NULL item, else FALSE (negated for
/// NOT IN). Items are taken in list order: a literal is compared straight
/// against the whole column, anything else is evaluated over just the rows
/// still unmatched. Equality is `Datum`'s (`sql_cmp` coercions; values of
/// different types are unequal, never an error).
fn in_list(expr: &Expr, list: &[Expr], negated: bool, batch: &ColumnBatch) -> IcResult<Val> {
    let n = batch.num_rows();
    let v = eval_val(expr, batch)?;
    if v.is_null() {
        return Ok(Val::Scalar(Datum::Null));
    }
    let c = v.into_column(n);
    let mut hit = vec![false; n];
    // A NULL item makes every row it leaves unmatched NULL: a NULL literal
    // (or scalar) reaches them all, a computed item's NULLs are per row.
    let mut null_item = false;
    let mut null_rows = vec![false; n];
    for item in list {
        let (item, open) = match item {
            Expr::Lit(d) => (Val::Scalar(d.clone()), None),
            _ => {
                let open = select_where(n, |k| c.is_valid(k) & !hit[k]);
                if open.is_empty() {
                    continue;
                }
                (eval_val(item, &narrow(batch, &open))?, Some(open))
            }
        };
        match (item, open) {
            (Val::Scalar(Datum::Null), _) => null_item = true,
            // A NULL row of `c` equals no non-NULL datum.
            (Val::Scalar(d), _) => {
                hit.iter_mut().enumerate().for_each(|(k, h)| *h |= c.eq_datum(k, &d));
            }
            (Val::Col(ic), open) => {
                for (j, &k) in open.iter().flatten().enumerate() {
                    let k = k as usize;
                    if ic.is_valid(j) {
                        hit[k] = c.eq_at(k, &ic, j);
                    } else {
                        null_rows[k] = true;
                    }
                }
            }
        }
    }
    let mut validity = c.validity().cloned();
    let nulls = select_where(n, |k| !hit[k] & (null_item | null_rows[k]));
    if !nulls.is_empty() {
        let validity = validity.get_or_insert_with(|| Bitmap::filled(n, true));
        nulls.iter().for_each(|&k| validity.clear(k as usize));
    }
    let vals = hit.iter().map(|&h| h != negated).collect();
    Ok(Val::Col(Arc::new(Column::from_bools(vals, validity))))
}

/// Searched CASE: each WHEN is a selection over the rows no earlier arm
/// took, each THEN (and the ELSE) is evaluated over its own rows only, and
/// the arms' values go back into row order by one take over their
/// concatenation (the binder gave every arm one type).
fn case(whens: &[(Expr, Expr)], else_: &Expr, batch: &ColumnBatch) -> IcResult<Val> {
    let n = batch.num_rows();
    let mut open: Vec<u32> = (0..n as u32).collect();
    let mut arms: Vec<(Vec<u32>, Val)> = Vec::new();
    for (cond, then) in whens {
        if open.is_empty() {
            break;
        }
        let mut rows = open.clone();
        refine(cond, batch, &mut rows)?;
        if rows.is_empty() {
            continue;
        }
        remove_sorted(&mut open, &rows);
        let val = eval_val(then, &narrow(batch, &rows))?;
        arms.push((rows, val));
    }
    if !open.is_empty() {
        let val = eval_val(else_, &narrow(batch, &open))?;
        arms.push((open, val));
    }
    if let [(_, val)] = &arms[..] {
        return Ok(val.clone());
    }
    // The arms' values end to end, and where each row's value sits in them;
    // one take then puts the values back into row order. Arms that computed
    // only NULLs carry no type, so a result without a value is the NULL
    // scalar, not a column of whatever type the first arm's buffer had.
    let values: Vec<Arc<Column>> =
        arms.iter().map(|(rows, val)| val.clone().into_column(rows.len())).collect();
    let mut all = ColumnBuilder::new(col::common_type(values.iter().map(|c| &**c)));
    let mut at = vec![0u32; n];
    for ((rows, _), col) in arms.iter().zip(&values) {
        for (j, &k) in rows.iter().enumerate() {
            at[k as usize] = (all.len() + j) as u32;
        }
        all.append_column(col, None);
    }
    Ok(Val::col(Arc::new(all.finish().take(&at))))
}

/// A built-in function over evaluated arguments, as typed loops.
fn func(kind: FuncKind, args: &[Val], n: usize) -> IcResult<Val> {
    let scalars: Option<Vec<Datum>> = args
        .iter()
        .map(|a| match a {
            Val::Scalar(d) => Some(d.clone()),
            Val::Col(_) => None,
        })
        .collect();
    if let Some(argv) = scalars {
        return apply_func(kind, &argv).map(Val::Scalar);
    }
    let Some(views) = args.iter().map(Val::view).collect::<Option<Vec<View>>>() else {
        return Ok(Val::Scalar(Datum::Null));
    };
    let validity =
        args.iter().fold(None, |acc: Option<Bitmap>, a| both_valid(acc.as_ref(), a.validity()));
    match func_typed(kind, &views, n, validity)? {
        Some(col) => Ok(Val::Col(Arc::new(col))),
        None => Err(ill_typed(&kind.to_string(), views.iter().map(View::data_type))),
    }
}

/// The typed loop of `kind` over these argument types, if it has one.
/// Functions that can fail or overflow on a value skip the NULL rows, whose
/// buffer contents are arbitrary.
fn func_typed(
    kind: FuncKind,
    views: &[View],
    n: usize,
    validity: Option<Bitmap>,
) -> IcResult<Option<Column>> {
    let valid = validity.as_ref();
    Ok(Some(match (kind, views) {
        (FuncKind::ExtractYear, [View::Date(d)]) => Column::from_ints(
            (0..n).map(|i| dates::year_of(d.at(i)) as i64).collect(),
            validity,
        ),
        (FuncKind::ExtractMonth, [View::Date(d)]) => Column::from_ints(
            (0..n).map(|i| dates::month_of(d.at(i)) as i64).collect(),
            validity,
        ),
        (FuncKind::CastDouble | FuncKind::Abs, [v]) => {
            let Some(v) = v.num() else { return Ok(None) };
            let vals = match kind {
                FuncKind::Abs => (0..n).map(|i| v.at(i).abs()).collect(),
                _ => (0..n).map(|i| v.at(i)).collect(),
            };
            Column::from_doubles(vals, validity)
        }
        (FuncKind::CastInt, [View::Int(v)]) => {
            Column::from_ints((0..n).map(|i| v.at(i)).collect(), validity)
        }
        (FuncKind::CastInt, [View::Double(v)]) => {
            Column::from_ints((0..n).map(|i| v.at(i) as i64).collect(), validity)
        }
        (FuncKind::CastInt, [View::Str(s)]) => {
            let mut bad = None;
            let vals = (0..n)
                .map(|i| {
                    let text = std::str::from_utf8(s.at(i)).ok();
                    let parsed = text.and_then(|t| t.trim().parse().ok());
                    if parsed.is_none() && bad.is_none() && bit(valid, i) {
                        bad = Some(i);
                    }
                    parsed.unwrap_or(0)
                })
                .collect();
            if let Some(i) = bad {
                // The row plane's message, from the row plane's function.
                apply_func(kind, &[Datum::str(String::from_utf8_lossy(s.at(i)))])?;
            }
            Column::from_ints(vals, validity)
        }
        (FuncKind::AddMonths, [View::Date(d), View::Int(m)]) => Column::from_dates(
            (0..n)
                .map(|i| bit(valid, i).then(|| dates::add_months(d.at(i), m.at(i) as i32)))
                .map(|date| date.unwrap_or(0))
                .collect(),
            validity,
        ),
        (FuncKind::Substring, [View::Str(s), View::Int(start), View::Int(len)]) => {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut bytes = Vec::new();
            offsets.push(0u32);
            for i in 0..n {
                if bit(valid, i) {
                    let src = s.at(i);
                    bytes.extend_from_slice(&src[substring_range(src, start.at(i), len.at(i))]);
                }
                offsets.push(bytes.len() as u32);
            }
            Column::from_strs(offsets, bytes, validity)
        }
        _ => return Ok(None),
    }))
}

/// Evaluate a filter predicate to the *logical* row indices of `batch`
/// that pass (predicate strictly TRUE), in increasing order: one selection
/// of every row, refined in place by `refine`.
pub fn eval_filter_sel(pred: &Expr, batch: &ColumnBatch) -> IcResult<Vec<u32>> {
    let mut sel: Vec<u32> = (0..batch.num_rows() as u32).collect();
    refine(pred, batch, &mut sel)?;
    Ok(sel)
}

/// Shrink `sel` — logical rows of `batch`, increasing — to the rows where
/// `pred` is TRUE, in place. AND refines by its left side, then by its
/// right over the survivors; OR refines its right side over the rows its
/// left rejected and merges the two. Comparisons of columns and non-NULL
/// literals, literal IN-lists, literal LIKE patterns and IS NULL of a
/// column run typed loops over the column buffers at physical indices;
/// every other predicate goes through [`eval_val`] over the surviving rows
/// only. A predicate is evaluated on no row outside `sel`, and on none at
/// all once `sel` is empty.
fn refine(pred: &Expr, batch: &ColumnBatch, sel: &mut Vec<u32>) -> IcResult<()> {
    if sel.is_empty() {
        return Ok(());
    }
    let done = match pred {
        Expr::Binary { op: BinOp::And, left, right } => {
            refine(left, batch, sel)?;
            return refine(right, batch, sel);
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let mut rest = sel.clone();
            refine(left, batch, sel)?;
            if sel.len() < rest.len() {
                remove_sorted(&mut rest, sel);
                refine(right, batch, &mut rest)?;
                merge_sorted(sel, &rest);
            }
            return Ok(());
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            match (operand(batch, left), operand(batch, right)) {
                (Some((l, lvalid)), Some((r, rvalid))) => {
                    // A literal on the left is the commuted comparison with
                    // it on the right; an error names the written order.
                    let outcome = match (left.as_ref(), op.commute()) {
                        (Expr::Lit(_), Some(op)) if !matches!(right.as_ref(), Expr::Lit(_)) => {
                            compare_sel(op, &r, &l, (rvalid, lvalid), batch, sel)
                        }
                        _ => compare_sel(*op, &l, &r, (lvalid, rvalid), batch, sel),
                    };
                    match outcome {
                        Some(None) => true,
                        Some(Some(i)) => return Err(unordered(&l, &r, i)),
                        // A column without a value carries no type (see `Val::col`).
                        None => false,
                    }
                }
                _ => false,
            }
        }
        Expr::InList { expr, list, negated } => {
            column_ref(batch, expr).is_some_and(|c| in_list_sel(c, list, *negated, batch, sel))
        }
        Expr::Like { expr, pattern, negated } => match (column_ref(batch, expr), pattern.as_ref()) {
            (Some(c), Expr::Lit(Datum::Str(p))) if c.data_type() == DataType::Str => {
                let p = LikePattern::new(p);
                keep(batch, sel, (c.validity(), None), |i, valid| {
                    valid & (p.matches(c.bytes_at(i)) != *negated)
                });
                true
            }
            _ => false,
        },
        Expr::IsNull { expr, negated } => match column_ref(batch, expr) {
            Some(c) => {
                keep(batch, sel, (None, None), |i, _| c.is_valid(i) == *negated);
                true
            }
            None => false,
        },
        _ => false,
    };
    if !done {
        let v = eval_val(pred, &narrow(batch, sel))?;
        let mut j = 0;
        sel.retain(|_| {
            j += 1;
            v.tri(j - 1) == Some(true)
        });
    }
    Ok(())
}

/// The column `e` names, if it is a column reference in range.
fn column_ref<'a>(batch: &'a ColumnBatch, e: &Expr) -> Option<&'a Column> {
    match e {
        Expr::Col(c) => batch.columns().get(*c).map(|c| &**c),
        _ => None,
    }
}

/// A comparison operand read in place: a column at physical indices with
/// its validity, or a non-NULL literal.
fn operand<'a>(batch: &'a ColumnBatch, e: &'a Expr) -> Option<(View<'a>, Option<&'a Bitmap>)> {
    match e {
        Expr::Lit(d) => Some((datum_view(d)?, None)),
        _ => column_ref(batch, e).and_then(|c| Some((column_view(c)?, c.validity()))),
    }
}

/// Keep the rows of `sel` for which `pass(i, valid)` holds, `i` being the
/// row's physical index and `valid` whether neither bitmap of `validity`
/// marks it NULL. No data-dependent branch: each row is written to the next
/// free slot and only a passing row advances it, so a 50 %-selective
/// predicate costs what a 1 % one does. Monomorphized per batch layout —
/// dense or selected, with or without a validity bitmap — so that `pass`
/// compiles into four tight loops.
#[inline(always)]
fn keep(
    batch: &ColumnBatch,
    sel: &mut Vec<u32>,
    validity: (Option<&Bitmap>, Option<&Bitmap>),
    mut pass: impl FnMut(usize, bool) -> bool,
) {
    #[inline(always)]
    fn at_phys(batch: &ColumnBatch, sel: &mut Vec<u32>, mut pass: impl FnMut(usize) -> bool) {
        let mut len = 0;
        match batch.selection() {
            None => {
                for j in 0..sel.len() {
                    let k = sel[j];
                    sel[len] = k;
                    len += pass(k as usize) as usize;
                }
            }
            Some(phys) => {
                for j in 0..sel.len() {
                    let k = sel[j];
                    sel[len] = k;
                    len += pass(phys[k as usize] as usize) as usize;
                }
            }
        }
        sel.truncate(len);
    }
    match validity {
        (None, None) => at_phys(batch, sel, |i| pass(i, true)),
        (a, b) => at_phys(batch, sel, |i| pass(i, bit(a, i) & bit(b, i))),
    }
}

/// Refine `sel` by `l op r`: both operands of one type, read at physical
/// indices, strings compared by their bytes. The operator is matched once,
/// outside the loop, and a column compared with a literal on its right
/// reads the literal once, not per row. `None` for operands of different
/// types; else the physical index of the first surviving row valid on both
/// sides whose operands have no order (a NaN), if any.
fn compare_sel(
    op: BinOp,
    l: &View,
    r: &View,
    validity: (Option<&Bitmap>, Option<&Bitmap>),
    batch: &ColumnBatch,
    sel: &mut Vec<u32>,
) -> Option<Option<usize>> {
    #[inline(always)]
    fn with_op<T: PartialOrd>(
        op: BinOp,
        batch: &ColumnBatch,
        sel: &mut Vec<u32>,
        validity: (Option<&Bitmap>, Option<&Bitmap>),
        at: impl Fn(usize) -> (T, T),
    ) -> Option<usize> {
        match op {
            BinOp::Eq => compared(batch, sel, validity, at, |a, b| a == b),
            BinOp::Ne => compared(batch, sel, validity, at, |a, b| a != b),
            BinOp::Lt => compared(batch, sel, validity, at, |a, b| a < b),
            BinOp::Le => compared(batch, sel, validity, at, |a, b| a <= b),
            BinOp::Gt => compared(batch, sel, validity, at, |a, b| a > b),
            _ => compared(batch, sel, validity, at, |a, b| a >= b),
        }
    }
    #[inline(always)]
    fn compared<T: PartialOrd>(
        batch: &ColumnBatch,
        sel: &mut Vec<u32>,
        validity: (Option<&Bitmap>, Option<&Bitmap>),
        at: impl Fn(usize) -> (T, T),
        holds: impl Fn(&T, &T) -> bool,
    ) -> Option<usize> {
        // Rows are visited in `sel` order, so the first one recorded is
        // the first the row plane would fail on. Only doubles can be
        // unordered; for the other types the check folds away.
        let mut bad = usize::MAX;
        keep(batch, sel, validity, |i, valid| {
            let (a, b) = at(i);
            let unordered = valid & a.partial_cmp(&b).is_none();
            bad = if unordered & (bad == usize::MAX) { i } else { bad };
            valid & holds(&a, &b)
        });
        (bad != usize::MAX).then_some(bad)
    }
    #[inline(always)]
    fn lanes<T: PartialOrd + Copy>(
        op: BinOp,
        batch: &ColumnBatch,
        sel: &mut Vec<u32>,
        validity: (Option<&Bitmap>, Option<&Bitmap>),
        (x, y): (Src<T>, Src<T>),
    ) -> Option<usize> {
        if (x.mask, y.mask) == (usize::MAX, 0) {
            let (col, lit) = (x.buf, y.buf[0]);
            return with_op(op, batch, sel, validity, |i| (col[i], lit));
        }
        with_op(op, batch, sel, validity, |i| (x.at(i), y.at(i)))
    }
    let (b, s, v) = (batch, sel, validity);
    Some(match (*l, *r) {
        (View::Int(x), View::Int(y)) => lanes(op, b, s, v, (x, y)),
        (View::Date(x), View::Date(y)) => lanes(op, b, s, v, (x, y)),
        (View::Double(x), View::Double(y)) => lanes(op, b, s, v, (x, y)),
        (View::Str(StrSrc::Col(c)), View::Str(StrSrc::Const(lit))) => {
            with_op(op, b, s, v, |i| (c.bytes_at(i), lit.as_bytes()))
        }
        (View::Str(x), View::Str(y)) => with_op(op, b, s, v, |i| (x.at(i), y.at(i))),
        (View::Bool(x), View::Bool(y)) => with_op(op, b, s, v, |i| (x.at(i), y.at(i))),
        _ => return None,
    })
}

/// Refine `sel` by `c [NOT] IN (list)` when every item is a non-NULL
/// literal of the column's type: the items go into one typed buffer and
/// each row is matched against all of them. `false` (nothing done)
/// otherwise. With no NULL item, a valid row is TRUE or FALSE and a NULL
/// row is NULL.
fn in_list_sel(c: &Column, list: &[Expr], negated: bool, batch: &ColumnBatch, sel: &mut Vec<u32>) -> bool {
    /// The items as values of one type, or `None`.
    fn items<'a, T>(list: &'a [Expr], get: impl Fn(&'a Datum) -> Option<T>) -> Option<Vec<T>> {
        let mut out = Vec::with_capacity(list.len());
        for e in list {
            let Expr::Lit(d) = e else { return None };
            out.push(get(d)?);
        }
        Some(out)
    }
    #[inline(always)]
    fn run<T: PartialEq + Copy>(
        (c, negated, batch, sel): (&Column, bool, &ColumnBatch, &mut Vec<u32>),
        items: Option<Vec<T>>,
        at: impl Fn(usize) -> T,
    ) -> bool {
        let Some(items) = items else { return false };
        keep(batch, sel, (c.validity(), None), |i, valid| {
            let v = at(i);
            valid & (items.iter().fold(false, |hit, &x| hit | (x == v)) != negated)
        });
        true
    }
    let args = (c, negated, batch, sel);
    match column_view(c) {
        Some(View::Int(x)) => {
            let items = items(list, |d| if let Datum::Int(v) = d { Some(*v) } else { None });
            run(args, items, |i| x.buf[i])
        }
        Some(View::Date(x)) => {
            let items = items(list, |d| if let Datum::Date(v) = d { Some(*v) } else { None });
            run(args, items, |i| x.buf[i])
        }
        Some(View::Double(x)) => {
            let items = items(list, |d| if let Datum::Double(v) = d { Some(*v) } else { None });
            run(args, items, |i| x.buf[i])
        }
        Some(View::Str(x)) => {
            let items = items(list, |d| if let Datum::Str(v) = d { Some(v.as_bytes()) } else { None });
            run(args, items, |i| x.at(i))
        }
        _ => false,
    }
}

/// Drop from `rows` the rows of `taken`, a subsequence of it (both
/// increasing).
fn remove_sorted(rows: &mut Vec<u32>, taken: &[u32]) {
    let mut taken = taken.iter().peekable();
    rows.retain(|k| taken.next_if_eq(&k).is_none());
}

/// Merge `more` into `rows`, both increasing and disjoint, from the back
/// and in place: `rows` was narrowed from a selection at least this long,
/// so its buffer already holds room for both.
fn merge_sorted(rows: &mut Vec<u32>, more: &[u32]) {
    let (mut a, mut b) = (rows.len(), more.len());
    rows.resize(a + b, 0);
    while b > 0 {
        let from_rows = a > 0 && rows[a - 1] > more[b - 1];
        let k = if from_rows {
            a -= 1;
            rows[a]
        } else {
            b -= 1;
            more[b]
        };
        rows[a + b] = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Row;

    fn rows() -> Vec<Row> {
        vec![
            Row(vec![Datum::Int(1), Datum::Double(0.5), Datum::str("aa"), Datum::Null]),
            Row(vec![Datum::Int(5), Datum::Null, Datum::str("bb"), Datum::Bool(true)]),
            Row(vec![Datum::Null, Datum::Double(2.5), Datum::str("cc"), Datum::Bool(false)]),
            Row(vec![Datum::Int(3), Datum::Double(3.5), Datum::Null, Datum::Bool(true)]),
        ]
    }

    /// Every eval path must agree with the row interpreter.
    fn assert_matches_row_eval(e: &Expr, rs: &[Row]) {
        let batch = ColumnBatch::from_rows(rs);
        let col = eval_expr(e, &batch).unwrap();
        for (k, r) in rs.iter().enumerate() {
            let (got, want) = (col.datum_at(k), e.eval(r).unwrap());
            assert_eq!(got, want, "expr {e} row {k}");
            assert_eq!(got.data_type(), want.data_type(), "expr {e} row {k}");
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

    /// `CAST_DOUBLE(e)`: the binder's widening of an Int operand.
    fn cast(e: Expr) -> Expr {
        Expr::Func { kind: FuncKind::CastDouble, args: vec![e] }
    }

    /// Over coerced expressions, as the binder hands them out.
    #[test]
    fn vectorized_matches_row_interpreter() {
        use crate::BinOp::*;
        let cases = vec![
            Expr::binary(Gt, Expr::col(0), Expr::lit(2i64)),
            Expr::binary(Le, cast(Expr::col(0)), Expr::lit(3.0)),
            Expr::binary(Eq, Expr::col(2), Expr::lit(Datum::str("bb"))),
            Expr::binary(Lt, cast(Expr::col(0)), Expr::col(1)),
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
            // Literal on the left, literal-only subtrees, NULL literals.
            Expr::binary(Sub, Expr::lit(1i64), Expr::col(1)),
            Expr::binary(Lt, Expr::lit(2i64), Expr::col(0)),
            Expr::binary(Mul, Expr::lit(2i64), Expr::lit(3.5)),
            Expr::binary(Add, Expr::col(0), Expr::Lit(Datum::Null)),
            Expr::InList {
                expr: Box::new(Expr::col(2)),
                list: vec![Expr::lit("bb"), Expr::Lit(Datum::Null), Expr::lit("zz")],
                negated: false,
            },
            // A computed item is compared per row.
            Expr::InList {
                expr: Box::new(cast(Expr::col(0))),
                list: vec![Expr::binary(Add, Expr::col(1), Expr::lit(0.5)), Expr::lit(5.0)],
                negated: false,
            },
            Expr::Like {
                expr: Box::new(Expr::col(2)),
                pattern: Box::new(Expr::lit("_b")),
                negated: true,
            },
            // Arms of one type, a NULL arm, a missing ELSE.
            Expr::Case {
                whens: vec![
                    (Expr::binary(Gt, Expr::col(0), Expr::lit(4i64)), Expr::lit(1i64)),
                    (Expr::binary(Gt, Expr::col(1), Expr::lit(1.0)), Expr::col(0)),
                ],
                else_: Box::new(Expr::lit(0i64)),
            },
            Expr::Case {
                whens: vec![(Expr::col(3), Expr::col(1))],
                else_: Box::new(Expr::lit(0.0)),
            },
            Expr::Case {
                whens: vec![(Expr::col(3), Expr::Lit(Datum::Null))],
                else_: Box::new(Expr::col(2)),
            },
            Expr::Case {
                whens: vec![(Expr::binary(Lt, Expr::col(0), Expr::lit(4i64)), Expr::col(2))],
                else_: Box::new(Expr::Lit(Datum::Null)),
            },
            Expr::Func {
                kind: FuncKind::Abs,
                args: vec![Expr::binary(Sub, Expr::col(0), Expr::lit(4i64))],
            },
            Expr::Func { kind: FuncKind::CastInt, args: vec![Expr::col(1)] },
            Expr::Func { kind: FuncKind::CastDouble, args: vec![Expr::col(0)] },
            Expr::Func {
                kind: FuncKind::Substring,
                args: vec![Expr::col(2), Expr::lit(2i64), Expr::col(0)],
            },
        ];
        for e in &cases {
            assert_matches_row_eval(e, &rows());
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

    /// The binder rejects `Int < Str`; a plan that slips past it fails in
    /// both planes rather than comparing anything.
    #[test]
    fn comparison_type_errors_match_row_plane() {
        let rs = vec![Row(vec![Datum::Int(1), Datum::str("x")])];
        let batch = ColumnBatch::from_rows(&rs);
        let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(1));
        assert!(matches!(eval_filter_sel(&pred, &batch), Err(IcError::Internal(_))));
        assert!(matches!(eval_expr(&pred, &batch), Err(IcError::Internal(_))));
        assert!(pred.eval(&rs[0]).is_err());
    }

    #[test]
    fn date_functions_match_row_plane() {
        let d = |y, m, dd| Datum::Date(dates::to_epoch_days(y, m, dd));
        let rs = vec![
            Row(vec![d(1995, 7, 4), Datum::Int(1)]),
            Row(vec![Datum::Null, Datum::Int(2)]),
            Row(vec![d(1996, 1, 31), Datum::Null]),
            Row(vec![d(1996, 1, 31), Datum::Int(13)]),
        ];
        let call = |kind, args| Expr::Func { kind, args };
        for e in [
            call(FuncKind::ExtractYear, vec![Expr::col(0)]),
            call(FuncKind::ExtractMonth, vec![Expr::col(0)]),
            call(FuncKind::AddMonths, vec![Expr::col(0), Expr::col(1)]),
            call(FuncKind::AddMonths, vec![Expr::col(0), Expr::lit(1i64)]),
            Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(Datum::Date(9000))),
            // `Date ± Int` days.
            Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)),
            Expr::binary(BinOp::Sub, Expr::col(0), Expr::lit(31i64)),
        ] {
            assert_matches_row_eval(&e, &rs);
        }
    }

    /// AND/OR evaluate their right side only where the row plane does: a
    /// right side that fails on every value fails iff some row reaches it.
    #[test]
    fn right_side_of_and_or_runs_on_undecided_rows_only() {
        let rs = rows();
        let batch = ColumnBatch::from_rows(&rs);
        let as_int = Expr::Func { kind: FuncKind::CastInt, args: vec![Expr::col(2)] };
        let ill_typed = Expr::binary(BinOp::Lt, as_int, Expr::lit(1i64));
        // col0 IS NULL OR col0 >= 1 is TRUE on every row: OR never reaches
        // the right side, AND of its negation neither.
        let always = Expr::or(
            Expr::IsNull { expr: Box::new(Expr::col(0)), negated: false },
            Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(1i64)),
        );
        let or = Expr::or(always.clone(), ill_typed.clone());
        let and = Expr::and(Expr::Not(Box::new(always)), ill_typed.clone());
        for e in [&or, &and] {
            assert_matches_row_eval(e, &rs);
        }
        // Once a row does reach it, both planes fail with the same message.
        let reached = Expr::or(Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1i64)), ill_typed);
        let err = eval_expr(&reached, &batch).unwrap_err();
        assert_eq!(err.to_string(), reached.eval(&rs[0]).unwrap_err().to_string());
        assert_eq!(eval_filter_sel(&reached, &batch).unwrap_err().to_string(), err.to_string());
    }

    /// Batches without rows evaluate nothing, whatever the expression.
    #[test]
    fn empty_batches_never_fail() {
        let batch = ColumnBatch::from_rows(&rows()).select_logical(&[]);
        let bad = Expr::Not(Box::new(Expr::binary(BinOp::Add, Expr::col(9), Expr::lit("x"))));
        assert_eq!(eval_expr(&bad, &batch).unwrap().len(), 0);
        assert!(eval_filter_sel(&bad, &batch).unwrap().is_empty());
    }
}
