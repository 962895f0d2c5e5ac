//! Vectorized expression evaluation over [`ColumnBatch`]es.
//!
//! **One index space.** Every evaluation answers in its batch's *physical*
//! row space. It covers a set of physical rows — the batch's selection, or
//! a subset of it — reads its input columns in place at those indices (a
//! column reference is an `Arc` clone, never a copy), and writes each
//! computed column at those rows of one buffer as long as the batch's
//! physical columns. Rows outside the set hold no defined value. No batch
//! is narrowed and no column is gathered on the way. A computed column so
//! costs its batch's physical length, which is why no operator hands on a
//! batch-sized selection over a larger arena (a sort and an aggregate
//! gather each batch they emit).
//!
//! Two entry points:
//!
//! * [`eval_expr`] evaluates a scalar expression to a [`Column`] aligned
//!   with the batch's physical rows and defined on its selected rows.
//! * [`eval_filter_sel`] evaluates a predicate directly to a selection: the
//!   *physical* rows that pass, in the order the batch lists them (a
//!   selection need not be increasing), ready for [`ColumnBatch::with_sel`].
//!   One selection vector is refined in place, keeping its order
//!   (`refine`): AND by each side in turn, OR by its right side over the
//!   rows its left rejected, NOT by pushing itself into its operand (De
//!   Morgan over AND/OR, a complemented comparison, a flipped `negated` of
//!   LIKE, IN and IS NULL), and every predicate leaf by its typed loop.
//!
//! Each predicate leaf — comparison, LIKE, IN, IS NULL — has one typed
//! loop, a selection kernel over operands of any kind (input column,
//! computed column, literal) read at physical indices. As a value, a leaf
//! is TRUE on the rows its kernel keeps, with the validity of its operands.
//! Arithmetic and the built-in functions are typed loops over the covered
//! rows: a straight loop over a dense batch, a scatter over a selection. A
//! literal operand stays one scalar, it is never spread into a column.
//! Kleene AND/OR evaluate their right side over the rows the left leaves
//! open, CASE each arm over the rows that reach it, writing straight into
//! one output. Output validity is the word-wise AND of the input bitmaps
//! (none at all when no input has one). Comparison loops carry no
//! data-dependent branch (`Src`, `keep`): real data is not a
//! replayed batch, and a mispredicted branch per row costs more than the
//! comparison.
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
//!   reach it, an IN-list item over the rows still unmatched, and nothing
//!   on a row outside the batch's selection. So it fails only if the row
//!   plane fails on some selected row, and a batch without rows evaluates
//!   nothing. Value errors carry the row plane's message.
//!
//! Scalar operands go through the row plane's own scalar functions
//! (`apply_binary`, `apply_func`, ...), so the two planes cannot drift.
//! There is no per-row fallback: the binder coerced every expression
//! (`ic_plan::coerce`), so each operand pair has a typed kernel, and one
//! without is an ill-typed plan — an [`IcError::Internal`].

use crate::expr::{
    apply_binary, apply_func, apply_like, apply_not, substring_range, unbound_param, LikePattern,
};
use crate::{
    dates, BinOp, Bitmap, Column, ColumnBatch, DataType, Datum, Expr, FuncKind, IcError, IcResult,
};
use std::sync::Arc;

/// An evaluated operand: a column aligned with the batch's physical rows,
/// or one value standing for all of them (a literal, or anything computed
/// from literals alone).
#[derive(Clone)]
enum Val {
    Col(Arc<Column>),
    Scalar(Datum),
}

impl Val {
    fn is_null(&self) -> bool {
        matches!(self, Val::Scalar(Datum::Null))
    }

    fn validity(&self) -> Option<&Bitmap> {
        match self {
            Val::Col(c) => c.validity(),
            Val::Scalar(_) => None,
        }
    }

    /// Whether row `i` holds a value.
    fn is_valid(&self, i: usize) -> bool {
        match self {
            Val::Col(c) => c.is_valid(i),
            Val::Scalar(d) => !d.is_null(),
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

    /// The typed face of the operand; `None` for one without a value — the
    /// NULL scalar, or a column without a single valid row, whose buffer
    /// has no type to trust — which no kernel reads (every operator
    /// short-circuits it to NULL).
    fn view(&self) -> Option<View<'_>> {
        match self {
            Val::Col(c) if c.is_all_null() => None,
            Val::Col(c) => column_view(c),
            Val::Scalar(d) => datum_view(d),
        }
    }
}

/// The physical rows one evaluation covers, in the order the row plane
/// visits them: every row of a dense batch, or a selection of them in its
/// own order, which need not be increasing.
#[derive(Clone, Copy)]
enum Rows<'a> {
    All,
    Sel(&'a [u32]),
}

impl<'a> Rows<'a> {
    /// The rows a batch selects.
    fn of(batch: &'a ColumnBatch) -> Rows<'a> {
        batch.selection().map_or(Rows::All, Rows::Sel)
    }

    /// `sel`, rows of a batch of `n` physical rows: all of them when it
    /// holds `n` in increasing order (its rows are distinct), so dense
    /// loops stay dense. A permutation stays a selection, so that the first
    /// row a kernel fails on is the row plane's first.
    fn new(sel: &'a [u32], n: usize) -> Rows<'a> {
        if sel.len() == n && sel.is_sorted() {
            Rows::All
        } else {
            Rows::Sel(sel)
        }
    }

    fn to_vec(self, n: usize) -> Vec<u32> {
        match self {
            Rows::All => (0..n as u32).collect(),
            Rows::Sel(sel) => sel.to_vec(),
        }
    }

    /// `f(i)` for every row `i`, in order.
    #[inline(always)]
    fn each(self, n: usize, mut f: impl FnMut(usize)) {
        match self {
            Rows::All => (0..n).for_each(f),
            Rows::Sel(sel) => sel.iter().for_each(|&i| f(i as usize)),
        }
    }
}

/// `f(i)` at every row `i` of `rows`, written at index `i` of an `n`-long
/// buffer (`T::default()` elsewhere): a straight loop over a dense batch,
/// a scatter over a selection. Monomorphized per kernel.
#[inline(always)]
fn fill<T: Copy + Default>(n: usize, rows: Rows, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    match rows {
        Rows::All => (0..n).map(f).collect(),
        Rows::Sel(sel) => {
            let mut out = vec![T::default(); n];
            for &i in sel {
                out[i as usize] = f(i as usize);
            }
            out
        }
    }
}

/// [`fill`] for strings: `put(i, bytes)` appends row `i`'s bytes, and every
/// row outside `rows` is empty. Returns the offsets and the bytes. Offsets
/// run in physical order, so a selection that is not increasing is walked
/// sorted (`put` cannot fail, so the order it runs in shows nowhere).
fn fill_strs(n: usize, rows: Rows, mut put: impl FnMut(usize, &mut Vec<u8>)) -> (Vec<u32>, Vec<u8>) {
    let mut sorted = Vec::new();
    let rows = match rows {
        Rows::Sel(sel) if !sel.is_sorted() => {
            sorted.extend_from_slice(sel);
            sorted.sort_unstable();
            Rows::Sel(&sorted)
        }
        rows => rows,
    };
    let mut offsets = Vec::with_capacity(n + 1);
    let mut bytes = Vec::new();
    offsets.push(0u32);
    rows.each(n, |i| {
        offsets.resize(i + 1, bytes.len() as u32);
        put(i, &mut bytes);
        offsets.push(bytes.len() as u32);
    });
    offsets.resize(n + 1, bytes.len() as u32);
    (offsets, bytes)
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

/// Evaluate `e` over the selected rows of `batch`: a column as long as the
/// batch's physical columns, defined on its selected rows.
pub fn eval_expr(e: &Expr, batch: &ColumnBatch) -> IcResult<Arc<Column>> {
    let n = batch.phys_rows();
    if batch.num_rows() == 0 {
        return Ok(Arc::new(Column::repeat(&Datum::Null, n)));
    }
    Ok(eval_val(e, batch, Rows::of(batch))?.into_column(n))
}

/// Evaluate `e` over `rows`, physical rows of `batch`, at least one.
fn eval_val(e: &Expr, batch: &ColumnBatch, rows: Rows) -> IcResult<Val> {
    let n = batch.phys_rows();
    match e {
        Expr::Col(i) => match batch.columns().get(*i) {
            // A column reference reads the input in place.
            Some(c) => Ok(Val::Col(Arc::clone(c))),
            None => Err(col_oob(*i, batch.width())),
        },
        Expr::Lit(d) => Ok(Val::Scalar(d.clone())),
        Expr::Param { index, .. } => Err(unbound_param(*index)),
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
            logic(*op == BinOp::And, left, right, batch, rows)
        }
        Expr::Binary { op, .. } if op.is_comparison() => predicate(e, batch, rows),
        Expr::Like { .. } | Expr::InList { .. } | Expr::IsNull { .. } => predicate(e, batch, rows),
        Expr::Binary { op, left, right } => {
            let (l, r) = (eval_val(left, batch, rows)?, eval_val(right, batch, rows)?);
            if let (Val::Scalar(a), Val::Scalar(b)) = (&l, &r) {
                return apply_binary(*op, a, b).map(Val::Scalar);
            }
            let (Some(lv), Some(rv)) = (l.view(), r.view()) else {
                return Ok(Val::Scalar(Datum::Null));
            };
            let validity = both_valid(l.validity(), r.validity());
            match arithmetic(*op, &lv, &rv, n, rows, validity) {
                Some(col) => Ok(Val::Col(Arc::new(col))),
                None => Err(ill_typed(&op.to_string(), [lv.data_type(), rv.data_type()])),
            }
        }
        Expr::Not(inner) => not(eval_val(inner, batch, rows)?),
        Expr::Case { whens, else_ } => case(whens, else_, batch, rows),
        Expr::Func { kind, args } => {
            let args: Vec<Val> =
                args.iter().map(|a| eval_val(a, batch, rows)).collect::<IcResult<_>>()?;
            func(*kind, &args, n, rows)
        }
    }
}

/// Three-valued NOT of an evaluated operand.
fn not(v: Val) -> IcResult<Val> {
    match v {
        Val::Scalar(d) => apply_not(&d).map(Val::Scalar),
        Val::Col(c) => match c.bools() {
            Some((b, validity)) => Ok(Val::Col(Arc::new(Column::from_bools(
                b.iter().map(|x| !x).collect(),
                validity.cloned(),
            )))),
            None if c.is_all_null() => Ok(Val::Scalar(Datum::Null)),
            None => Err(ill_typed("NOT", [c.data_type()])),
        },
    }
}

/// A predicate leaf as a value: TRUE on the rows its kernel keeps, FALSE on
/// the other rows its operands define, NULL where they do not.
fn predicate(e: &Expr, batch: &ColumnBatch, rows: Rows) -> IcResult<Val> {
    let n = batch.phys_rows();
    let mut pass = rows.to_vec(n);
    match leaf(e, false, batch, &mut pass, true)? {
        Leaf::Scalar(d) => Ok(Val::Scalar(d)),
        Leaf::Kept(validity) => {
            let mut vals = vec![false; n];
            pass.iter().for_each(|&i| vals[i as usize] = true);
            Ok(Val::Col(Arc::new(Column::from_bools(vals, validity))))
        }
    }
}

/// Typed arithmetic over `rows`: Int ∘ Int stays Int (wrapping) except
/// `/`, `Date ± Int` shifts by days; anything else numeric computes in
/// `f64`, and `x / 0` clears the row's validity.
fn arithmetic(
    op: BinOp,
    l: &View,
    r: &View,
    n: usize,
    rows: Rows,
    mut validity: Option<Bitmap>,
) -> Option<Column> {
    if let (View::Int(a), View::Int(b), true) = (l, r, op != BinOp::Div) {
        let vals = match op {
            BinOp::Add => fill(n, rows, |i| a.at(i).wrapping_add(b.at(i))),
            BinOp::Sub => fill(n, rows, |i| a.at(i).wrapping_sub(b.at(i))),
            _ => fill(n, rows, |i| a.at(i).wrapping_mul(b.at(i))),
        };
        return Some(Column::from_ints(vals, validity));
    }
    if let (View::Date(d), View::Int(k), BinOp::Add | BinOp::Sub) = (l, r, op) {
        let vals = match op {
            BinOp::Add => fill(n, rows, |i| d.at(i).wrapping_add(k.at(i) as i32)),
            _ => fill(n, rows, |i| d.at(i).wrapping_sub(k.at(i) as i32)),
        };
        return Some(Column::from_dates(vals, validity));
    }
    let (a, b) = (l.num()?, r.num()?);
    let vals = match op {
        BinOp::Add => fill(n, rows, |i| a.at(i) + b.at(i)),
        BinOp::Sub => fill(n, rows, |i| a.at(i) - b.at(i)),
        BinOp::Mul => fill(n, rows, |i| a.at(i) * b.at(i)),
        _ => fill(n, rows, |i| {
            let y = b.at(i);
            if y == 0.0 {
                validity.get_or_insert_with(|| Bitmap::filled(n, true)).clear(i);
                return 0.0;
            }
            a.at(i) / y
        }),
    };
    Some(Column::from_doubles(vals, validity))
}

/// Kleene AND/OR. The right side is evaluated over exactly the rows the
/// left side does not decide (AND: not FALSE, OR: not TRUE) — the rows the
/// row interpreter's short-circuit reaches.
fn logic(is_and: bool, left: &Expr, right: &Expr, batch: &ColumnBatch, rows: Rows) -> IcResult<Val> {
    let n = batch.phys_rows();
    let l = eval_val(left, batch, rows)?;
    // AND is decided by FALSE, OR by TRUE: the deciding value is `!is_and`.
    let mut open = rows.to_vec(n);
    keep(&mut open, (None, None), |i, _| l.tri(i) != Some(!is_and));
    if open.is_empty() {
        return Ok(Val::Scalar(Datum::Bool(!is_and)));
    }
    let r = eval_val(right, batch, Rows::new(&open, n))?;
    let mut vals = vec![!is_and; n];
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for &k in &open {
        let k = k as usize;
        // The left side here is the neutral value (`is_and`) or NULL.
        match (l.tri(k), r.tri(k)) {
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

/// Searched CASE: each WHEN refines the rows no earlier arm took, each
/// THEN (and the ELSE) is evaluated over its own rows only, and every row
/// takes its arm's value at its own index into one output.
fn case(whens: &[(Expr, Expr)], else_: &Expr, batch: &ColumnBatch, rows: Rows) -> IcResult<Val> {
    let n = batch.phys_rows();
    let mut open = rows.to_vec(n);
    let mut arms: Vec<Val> = Vec::new();
    // The arm each covered row takes.
    let mut which = vec![0u32; n];
    let mut arm = |rows: &[u32], arms: &mut Vec<Val>, then: &Expr| -> IcResult<()> {
        rows.iter().for_each(|&i| which[i as usize] = arms.len() as u32);
        arms.push(eval_val(then, batch, Rows::new(rows, n))?);
        Ok(())
    };
    for (cond, then) in whens {
        if open.is_empty() {
            break;
        }
        let mut taken = open.clone();
        refine(cond, false, batch, &mut taken)?;
        if !taken.is_empty() {
            remove_subsequence(&mut open, &taken);
            arm(&taken, &mut arms, then)?;
        }
    }
    if !open.is_empty() {
        arm(&open, &mut arms, else_)?;
    }
    if arms.len() <= 1 {
        return Ok(arms.pop().unwrap_or(Val::Scalar(Datum::Null)));
    }
    choose(&arms, &which, n, rows)
}

/// CASE's output: row `i` of `rows` is arm `which[i]`'s value at `i`. The
/// binder gave every arm one type; arms that computed only NULLs carry
/// none, so a result without a value is the NULL scalar.
fn choose(arms: &[Val], which: &[u32], n: usize, rows: Rows) -> IcResult<Val> {
    /// Every covered row read from its arm's lane of type `T`, a NULL arm
    /// reading `zero`; `None` if some arm has another type.
    fn pick<'a, T: Copy + Default>(
        (n, rows, which): (usize, Rows, &[u32]),
        views: &[Option<View<'a>>],
        zero: &'a T,
        lane: impl Fn(View<'a>) -> Option<Src<'a, T>>,
    ) -> Option<Vec<T>> {
        let lanes: Vec<Src<T>> = views.iter().map(|v| v.map_or(Some(Src::one(zero)), &lane)).collect::<Option<_>>()?;
        Some(fill(n, rows, |i| lanes[which[i] as usize].at(i)))
    }
    let views: Vec<Option<View>> = arms.iter().map(Val::view).collect();
    let Some(first) = views.iter().flatten().next() else {
        return Ok(Val::Scalar(Datum::Null));
    };
    let validity = arms.iter().any(|a| a.is_null() || a.validity().is_some()).then(|| {
        let mut validity = Bitmap::filled(n, true);
        rows.each(n, |i| {
            if !arms[which[i] as usize].is_valid(i) {
                validity.clear(i);
            }
        });
        validity
    });
    let at = (n, rows, which);
    let col = match first {
        View::Int(_) => pick(at, &views, &0, |v| if let View::Int(s) = v { Some(s) } else { None })
            .map(|vals| Column::from_ints(vals, validity)),
        View::Double(_) => pick(at, &views, &0.0, |v| if let View::Double(s) = v { Some(s) } else { None })
            .map(|vals| Column::from_doubles(vals, validity)),
        View::Date(_) => pick(at, &views, &0, |v| if let View::Date(s) = v { Some(s) } else { None })
            .map(|vals| Column::from_dates(vals, validity)),
        View::Bool(_) => pick(at, &views, &false, |v| if let View::Bool(s) = v { Some(s) } else { None })
            .map(|vals| Column::from_bools(vals, validity)),
        View::Str(_) => {
            let lanes = views.iter().map(|v| match v {
                Some(View::Str(s)) => Some(*s),
                Some(_) => None,
                None => Some(StrSrc::Const("")),
            });
            lanes.collect::<Option<Vec<StrSrc>>>().map(|lanes| {
                let (offsets, bytes) =
                    fill_strs(n, rows, |i, out| out.extend_from_slice(lanes[which[i] as usize].at(i)));
                Column::from_strs(offsets, bytes, validity)
            })
        }
    };
    match col {
        Some(col) => Ok(Val::Col(Arc::new(col))),
        None => Err(ill_typed("CASE", views.iter().flatten().map(View::data_type))),
    }
}

/// A built-in function over evaluated arguments, as typed loops.
fn func(kind: FuncKind, args: &[Val], n: usize, rows: Rows) -> IcResult<Val> {
    let scalar = |a: &Val| if let Val::Scalar(d) = a { Some(d.clone()) } else { None };
    if let Some(argv) = args.iter().map(scalar).collect::<Option<Vec<Datum>>>() {
        return apply_func(kind, &argv).map(Val::Scalar);
    }
    let Some(views) = args.iter().map(Val::view).collect::<Option<Vec<View>>>() else {
        return Ok(Val::Scalar(Datum::Null));
    };
    let validity =
        args.iter().fold(None, |acc: Option<Bitmap>, a| both_valid(acc.as_ref(), a.validity()));
    match func_typed(kind, &views, n, rows, validity)? {
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
    rows: Rows,
    validity: Option<Bitmap>,
) -> IcResult<Option<Column>> {
    let valid = validity.as_ref();
    Ok(Some(match (kind, views) {
        (FuncKind::ExtractYear, [View::Date(d)]) => {
            Column::from_ints(fill(n, rows, |i| dates::year_of(d.at(i)) as i64), validity)
        }
        (FuncKind::ExtractMonth, [View::Date(d)]) => {
            Column::from_ints(fill(n, rows, |i| dates::month_of(d.at(i)) as i64), validity)
        }
        (FuncKind::CastDouble | FuncKind::Abs, [v]) => {
            let Some(v) = v.num() else { return Ok(None) };
            let vals = match kind {
                FuncKind::Abs => fill(n, rows, |i| v.at(i).abs()),
                _ => fill(n, rows, |i| v.at(i)),
            };
            Column::from_doubles(vals, validity)
        }
        (FuncKind::CastInt, [View::Int(v)]) => Column::from_ints(fill(n, rows, |i| v.at(i)), validity),
        (FuncKind::CastInt, [View::Double(v)]) => {
            Column::from_ints(fill(n, rows, |i| v.at(i) as i64), validity)
        }
        (FuncKind::CastInt, [View::Str(s)]) => {
            let mut bad = None;
            let vals = fill(n, rows, |i| {
                let text = std::str::from_utf8(s.at(i)).ok();
                let parsed = text.and_then(|t| t.trim().parse().ok());
                if parsed.is_none() && bad.is_none() && bit(valid, i) {
                    bad = Some(i);
                }
                parsed.unwrap_or(0)
            });
            if let Some(i) = bad {
                // The row plane's message, from the row plane's function.
                apply_func(kind, &[Datum::str(String::from_utf8_lossy(s.at(i)))])?;
            }
            Column::from_ints(vals, validity)
        }
        (FuncKind::AddMonths, [View::Date(d), View::Int(m)]) => Column::from_dates(
            fill(n, rows, |i| if bit(valid, i) { dates::add_months(d.at(i), m.at(i) as i32) } else { 0 }),
            validity,
        ),
        (FuncKind::Substring, [View::Str(s), View::Int(start), View::Int(len)]) => {
            let (offsets, bytes) = fill_strs(n, rows, |i, out| {
                if bit(valid, i) {
                    let src = s.at(i);
                    out.extend_from_slice(&src[substring_range(src, start.at(i), len.at(i))]);
                }
            });
            Column::from_strs(offsets, bytes, validity)
        }
        _ => return Ok(None),
    }))
}

/// Evaluate a filter predicate to the *physical* rows of `batch` that pass
/// (predicate strictly TRUE), in the batch's own order: its selection,
/// refined in place by `refine`.
pub fn eval_filter_sel(pred: &Expr, batch: &ColumnBatch) -> IcResult<Vec<u32>> {
    let mut sel = Rows::of(batch).to_vec(batch.phys_rows());
    refine(pred, false, batch, &mut sel)?;
    Ok(sel)
}

/// Shrink `sel` — physical rows of `batch`, in the batch's order — to the
/// rows where `pred` (`NOT pred` when `negated`) is TRUE, in place, keeping
/// their order. AND refines by its left side, then by its right over the
/// survivors; OR refines its right side over the rows its left rejected and
/// merges the two in `sel`'s order; NOT is pushed down (De Morgan over
/// AND/OR), so the right side of a negated AND/OR runs on no row the row
/// plane's short-circuit would not reach. A predicate leaf runs its typed
/// loop; any other predicate is evaluated as a value over the surviving
/// rows only. A predicate is evaluated on no row outside `sel`, and on none
/// at all once `sel` is empty.
fn refine(pred: &Expr, negated: bool, batch: &ColumnBatch, sel: &mut Vec<u32>) -> IcResult<()> {
    if sel.is_empty() {
        return Ok(());
    }
    match pred {
        Expr::Not(inner) => refine(inner, !negated, batch, sel),
        // NOT (a AND b) is NOT a OR NOT b; NOT (a OR b) is NOT a AND NOT b.
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } if (*op == BinOp::And) != negated => {
            refine(left, negated, batch, sel)?;
            refine(right, negated, batch, sel)
        }
        Expr::Binary { op: BinOp::And | BinOp::Or, left, right } => {
            // The left side's rows are marked by the top bit in a copy of
            // `sel` (a batch holds far fewer than 2^31 physical rows); the
            // right side runs over the unmarked ones, and the copy keeps
            // the rows of both in `sel`'s order, which need not be
            // increasing.
            const LEFT: u32 = 1 << 31;
            debug_assert!(batch.phys_rows() <= LEFT as usize);
            let mut all = sel.clone();
            refine(left, negated, batch, sel)?;
            if sel.len() < all.len() {
                let mut from_left = sel.iter().peekable();
                for k in &mut all {
                    if from_left.next_if_eq(&&*k).is_some() {
                        *k |= LEFT;
                    }
                }
                sel.clear();
                sel.extend(all.iter().filter(|&&k| k & LEFT == 0));
                refine(right, negated, batch, sel)?;
                let mut from_right = sel.iter().peekable();
                all.retain_mut(|k| {
                    let left = *k & LEFT != 0;
                    *k &= !LEFT;
                    left || from_right.next_if_eq(&&*k).is_some()
                });
                *sel = all;
            }
            Ok(())
        }
        Expr::Binary { op, .. } if !op.is_comparison() => refine_value(pred, negated, batch, sel),
        Expr::Binary { .. } | Expr::Like { .. } | Expr::InList { .. } | Expr::IsNull { .. } => {
            if let Leaf::Scalar(d) = leaf(pred, negated, batch, sel, false)? {
                if d.as_bool() != Some(true) {
                    sel.clear();
                }
            }
            Ok(())
        }
        _ => refine_value(pred, negated, batch, sel),
    }
}

/// Refine `sel` by a predicate without a kernel of its own, evaluated as a
/// value over the rows of `sel`.
fn refine_value(pred: &Expr, negated: bool, batch: &ColumnBatch, sel: &mut Vec<u32>) -> IcResult<()> {
    let v = eval_val(pred, batch, Rows::new(sel, batch.phys_rows()))?;
    let v = if negated { not(v)? } else { v };
    sel.retain(|&i| v.tri(i as usize) == Some(true));
    Ok(())
}

/// A predicate leaf's outcome over the rows of a selection.
enum Leaf {
    /// Every operand was a scalar: one value for all rows, the selection
    /// untouched.
    Scalar(Datum),
    /// The selection now holds the rows where the leaf is TRUE; the leaf's
    /// validity over the rows it had, when asked for.
    Kept(Option<Bitmap>),
}

/// Refine `sel` to the rows where predicate leaf `e` — a comparison, LIKE,
/// IN or IS NULL — is TRUE, or where `NOT e` is when `negated`: one typed
/// loop over its operands, evaluated over the rows of `sel` and read at
/// physical indices. With `value`, the leaf's validity too.
fn leaf(e: &Expr, negated: bool, batch: &ColumnBatch, sel: &mut Vec<u32>, value: bool) -> IcResult<Leaf> {
    let rows = Rows::new(sel, batch.phys_rows());
    let valid = |a: Option<&Bitmap>, b| if value { both_valid(a, b) } else { None };
    match e {
        Expr::Binary { op, left, right } => {
            let op = if negated { op.complement() } else { *op };
            let (l, r) = (eval_val(left, batch, rows)?, eval_val(right, batch, rows)?);
            if let (Val::Scalar(a), Val::Scalar(b)) = (&l, &r) {
                return Ok(Leaf::Scalar(apply_binary(op, a, b)?));
            }
            let (Some(lv), Some(rv)) = (l.view(), r.view()) else {
                return Ok(Leaf::Scalar(Datum::Null));
            };
            let validity = (l.validity(), r.validity());
            // A scalar on the left is the commuted comparison with it on the
            // right; an error names the written order.
            let outcome = match (&l, op.commute()) {
                (Val::Scalar(_), Some(op)) => compare_sel(op, &rv, &lv, (validity.1, validity.0), sel),
                _ => compare_sel(op, &lv, &rv, validity, sel),
            };
            match outcome {
                Some(None) => Ok(Leaf::Kept(valid(validity.0, validity.1))),
                Some(Some(i)) => Err(unordered(&lv, &rv, i)),
                None => Err(ill_typed(&op.to_string(), [lv.data_type(), rv.data_type()])),
            }
        }
        Expr::Like { expr, pattern, negated: own } => {
            let negated = *own != negated;
            let (v, p) = (eval_val(expr, batch, rows)?, eval_val(pattern, batch, rows)?);
            if let (Val::Scalar(a), Val::Scalar(b)) = (&v, &p) {
                return Ok(Leaf::Scalar(apply_like(a, b, negated)?));
            }
            let (Some(sv), Some(pv)) = (v.view(), p.view()) else {
                return Ok(Leaf::Scalar(Datum::Null));
            };
            let validity = (v.validity(), p.validity());
            match (sv, pv) {
                // A literal pattern is split once for the batch.
                (View::Str(StrSrc::Col(c)), View::Str(StrSrc::Const(p))) => {
                    let p = LikePattern::new(p);
                    keep(sel, validity, |i, valid| valid & (p.matches(c.bytes_at(i)) != negated));
                }
                (View::Str(s), View::Str(p)) => keep(sel, validity, |i, valid| {
                    let p = match p {
                        StrSrc::Col(pc) => pc.str_at(i),
                        StrSrc::Const(p) => p,
                    };
                    valid & (LikePattern::new(p).matches(s.at(i)) != negated)
                }),
                _ => return Err(ill_typed("LIKE", [sv.data_type(), pv.data_type()])),
            }
            Ok(Leaf::Kept(valid(validity.0, validity.1)))
        }
        Expr::IsNull { expr, negated: own } => {
            let negated = *own != negated;
            match eval_val(expr, batch, rows)? {
                Val::Scalar(d) => Ok(Leaf::Scalar(Datum::Bool(d.is_null() != negated))),
                Val::Col(c) => {
                    keep(sel, (None, None), |i, _| c.is_valid(i) == negated);
                    Ok(Leaf::Kept(None))
                }
            }
        }
        Expr::InList { expr, list, negated: own } => {
            let v = eval_val(expr, batch, rows)?;
            in_list(&v, list, *own != negated, batch, sel, value)
        }
        _ => Err(IcError::Internal(format!("{e} is not a predicate leaf"))),
    }
}

/// Keep the rows of `sel` — physical indices — for which `pass(i, valid)`
/// holds, `valid` being whether neither bitmap of `validity` marks row `i`
/// NULL. No data-dependent branch: each row is written to the next free
/// slot and only a passing row advances it, so a 50 %-selective predicate
/// costs what a 1 % one does. Monomorphized with and without a validity
/// bitmap, so that `pass` compiles into two tight loops.
#[inline(always)]
fn keep(
    sel: &mut Vec<u32>,
    validity: (Option<&Bitmap>, Option<&Bitmap>),
    mut pass: impl FnMut(usize, bool) -> bool,
) {
    #[inline(always)]
    fn each(sel: &mut Vec<u32>, mut pass: impl FnMut(usize) -> bool) {
        let mut len = 0;
        for j in 0..sel.len() {
            let i = sel[j];
            sel[len] = i;
            len += pass(i as usize) as usize;
        }
        sel.truncate(len);
    }
    match validity {
        (None, None) => each(sel, |i| pass(i, true)),
        (a, b) => each(sel, |i| pass(i, bit(a, i) & bit(b, i))),
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
    sel: &mut Vec<u32>,
) -> Option<Option<usize>> {
    #[inline(always)]
    fn with_op<T: PartialOrd>(
        op: BinOp,
        sel: &mut Vec<u32>,
        validity: (Option<&Bitmap>, Option<&Bitmap>),
        at: impl Fn(usize) -> (T, T),
    ) -> Option<usize> {
        match op {
            BinOp::Eq => compared(sel, validity, at, |a, b| a == b),
            BinOp::Ne => compared(sel, validity, at, |a, b| a != b),
            BinOp::Lt => compared(sel, validity, at, |a, b| a < b),
            BinOp::Le => compared(sel, validity, at, |a, b| a <= b),
            BinOp::Gt => compared(sel, validity, at, |a, b| a > b),
            _ => compared(sel, validity, at, |a, b| a >= b),
        }
    }
    #[inline(always)]
    fn compared<T: PartialOrd>(
        sel: &mut Vec<u32>,
        validity: (Option<&Bitmap>, Option<&Bitmap>),
        at: impl Fn(usize) -> (T, T),
        holds: impl Fn(&T, &T) -> bool,
    ) -> Option<usize> {
        // Rows are visited in `sel` order, so the first one recorded is
        // the first the row plane would fail on. Only doubles can be
        // unordered; for the other types the check folds away.
        let mut bad = usize::MAX;
        keep(sel, validity, |i, valid| {
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
        sel: &mut Vec<u32>,
        validity: (Option<&Bitmap>, Option<&Bitmap>),
        (x, y): (Src<T>, Src<T>),
    ) -> Option<usize> {
        if (x.mask, y.mask) == (usize::MAX, 0) {
            let (col, lit) = (x.buf, y.buf[0]);
            return with_op(op, sel, validity, |i| (col[i], lit));
        }
        with_op(op, sel, validity, |i| (x.at(i), y.at(i)))
    }
    let (s, v) = (sel, validity);
    Some(match (*l, *r) {
        (View::Int(x), View::Int(y)) => lanes(op, s, v, (x, y)),
        (View::Date(x), View::Date(y)) => lanes(op, s, v, (x, y)),
        (View::Double(x), View::Double(y)) => lanes(op, s, v, (x, y)),
        (View::Str(StrSrc::Col(c)), View::Str(StrSrc::Const(lit))) => {
            with_op(op, s, v, |i| (c.bytes_at(i), lit.as_bytes()))
        }
        (View::Str(x), View::Str(y)) => with_op(op, s, v, |i| (x.at(i), y.at(i))),
        (View::Bool(x), View::Bool(y)) => with_op(op, s, v, |i| (x.at(i), y.at(i))),
        _ => return None,
    })
}

/// Refine `sel` by `v [NOT] IN (list)`, `v` evaluated over its rows, with
/// the row plane's three-valued result: TRUE on a match, else NULL if the
/// row met a NULL item, else FALSE. A list of non-NULL literals of `v`'s
/// type is one typed loop matching each row against all of them. Any
/// other list is taken item by item in list order, each evaluated over the
/// rows still unmatched and compared by the comparison loop. Equality is
/// `Datum`'s: a NaN equals nothing.
fn in_list(
    v: &Val,
    list: &[Expr],
    negated: bool,
    batch: &ColumnBatch,
    sel: &mut Vec<u32>,
    value: bool,
) -> IcResult<Leaf> {
    let Some(view) = v.view() else { return Ok(Leaf::Scalar(Datum::Null)) };
    let n = batch.phys_rows();
    if in_literals(&view, v.validity(), list, negated, sel) {
        return Ok(Leaf::Kept(if value { v.validity().cloned() } else { None }));
    }
    let mut open = sel.clone();
    keep(&mut open, (v.validity(), None), |_, valid| valid);
    let mut met_null = vec![false; n];
    for item in list {
        if open.is_empty() {
            break;
        }
        let iv = eval_val(item, batch, Rows::new(&open, n))?;
        let Some(item_view) = iv.view() else {
            open.iter().for_each(|&i| met_null[i as usize] = true);
            continue;
        };
        open.iter().for_each(|&i| met_null[i as usize] |= !iv.is_valid(i as usize));
        let mut matched = open.clone();
        let pair = (v.validity(), iv.validity());
        if compare_sel(BinOp::Eq, &view, &item_view, pair, &mut matched).is_none() {
            return Err(ill_typed("IN", [view.data_type(), item_view.data_type()]));
        }
        remove_subsequence(&mut open, &matched);
    }
    // `open` now holds the valid rows no item matched: NULL where they met
    // a NULL item, else FALSE. The valid rows of `sel` outside it matched.
    let validity = value.then(|| {
        let mut validity = v.validity().cloned().unwrap_or_else(|| Bitmap::filled(n, true));
        open.iter().filter(|&&i| met_null[i as usize]).for_each(|&i| validity.clear(i as usize));
        validity
    });
    if negated {
        open.retain(|&i| !met_null[i as usize]);
        *sel = open;
    } else {
        keep(sel, (v.validity(), None), |_, valid| valid);
        remove_subsequence(sel, &open);
    }
    Ok(Leaf::Kept(validity))
}

/// Refine `sel` by `v [NOT] IN (list)` when every item is a non-NULL
/// literal of `v`'s type: the items go into one typed buffer and each row
/// is matched against all of them. `false` (nothing done) otherwise.
/// Without a NULL item, a valid row is TRUE or FALSE and a NULL row is
/// NULL.
fn in_literals(v: &View, validity: Option<&Bitmap>, list: &[Expr], negated: bool, sel: &mut Vec<u32>) -> bool {
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
        (validity, negated, sel): (Option<&Bitmap>, bool, &mut Vec<u32>),
        items: Option<Vec<T>>,
        at: impl Fn(usize) -> T,
    ) -> bool {
        let Some(items) = items else { return false };
        keep(sel, (validity, None), |i, valid| {
            let v = at(i);
            valid & (items.iter().fold(false, |hit, &x| hit | (x == v)) != negated)
        });
        true
    }
    let args = (validity, negated, sel);
    match *v {
        View::Int(x) => {
            let items = items(list, |d| if let Datum::Int(v) = d { Some(*v) } else { None });
            run(args, items, |i| x.at(i))
        }
        View::Date(x) => {
            let items = items(list, |d| if let Datum::Date(v) = d { Some(*v) } else { None });
            run(args, items, |i| x.at(i))
        }
        View::Double(x) => {
            let items = items(list, |d| if let Datum::Double(v) = d { Some(*v) } else { None });
            run(args, items, |i| x.at(i))
        }
        View::Str(x) => {
            let items = items(list, |d| if let Datum::Str(v) = d { Some(v.as_bytes()) } else { None });
            run(args, items, |i| x.at(i))
        }
        View::Bool(_) => false,
    }
}

/// Drop from `rows` the rows of `taken`, a subsequence of it (in its
/// order).
fn remove_subsequence(rows: &mut Vec<u32>, taken: &[u32]) {
    let mut taken = taken.iter().peekable();
    rows.retain(|k| taken.next_if_eq(&k).is_none());
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

    /// Every eval path must agree with the row interpreter on the rows of a
    /// batch over `rs`: all of them, or the physical rows `selected`.
    fn assert_matches_on(e: &Expr, rs: &[Row], selected: Option<&[u32]>) {
        let mut batch = ColumnBatch::from_rows(rs);
        if let Some(sel) = selected {
            batch = batch.with_sel(sel.to_vec());
        }
        let rows: Vec<u32> = selected.map_or_else(|| (0..rs.len() as u32).collect(), <[u32]>::to_vec);
        let col = eval_expr(e, &batch).unwrap();
        assert_eq!(col.len(), rs.len(), "expr {e}");
        for &i in &rows {
            let (got, want) = (col.datum_at(i as usize), e.eval(&rs[i as usize]).unwrap());
            assert_eq!(got, want, "expr {e} row {i}");
            assert_eq!(got.data_type(), want.data_type(), "expr {e} row {i}");
        }
        let sel = eval_filter_sel(e, &batch).unwrap();
        let want: Vec<u32> = (rows.iter().copied())
            .filter(|&i| e.eval(&rs[i as usize]).unwrap().as_bool() == Some(true))
            .collect();
        assert_eq!(sel, want, "filter {e}");
    }

    /// Over every row, over two of them, and over all of them listed out of
    /// order: a selection need not be increasing.
    fn assert_matches_row_eval(e: &Expr, rs: &[Row]) {
        assert_matches_on(e, rs, None);
        assert_matches_on(e, rs, Some(&[1, 3]));
        assert_matches_on(e, rs, Some(&[3, 0, 2, 1]));
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
        let out = view.with_sel(sel);
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
    /// right side that fails on every value fails iff some row reaches it —
    /// and no row outside the batch's selection does.
    #[test]
    fn right_side_of_and_or_runs_on_undecided_rows_only() {
        // The last row, never selected below, is the one where `always`
        // is FALSE.
        let mut rs = rows();
        rs.push(Row(vec![Datum::Int(-1), Datum::Double(0.0), Datum::str("zz"), Datum::Null]));
        let batch = ColumnBatch::from_rows(&rs).with_sel(vec![0, 1, 2, 3]);
        let as_int = Expr::Func { kind: FuncKind::CastInt, args: vec![Expr::col(2)] };
        let ill_typed = Expr::binary(BinOp::Lt, as_int, Expr::lit(1i64));
        // col0 IS NULL OR col0 >= 1 is TRUE on every selected row: OR never
        // reaches the right side there, AND of its negation neither.
        let always = Expr::or(
            Expr::IsNull { expr: Box::new(Expr::col(0)), negated: false },
            Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(1i64)),
        );
        let or = Expr::or(always.clone(), ill_typed.clone());
        let and = Expr::and(Expr::Not(Box::new(always)), ill_typed.clone());
        for e in [&or, &and] {
            assert_matches_row_eval(e, &rows());
            assert_matches_on(e, &rs, batch.selection());
        }
        // Once a row does reach it, both planes fail with the same message.
        let reached = Expr::or(Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1i64)), ill_typed);
        let err = eval_expr(&reached, &batch).unwrap_err();
        assert_eq!(err.to_string(), reached.eval(&rs[0]).unwrap_err().to_string());
        assert_eq!(eval_filter_sel(&reached, &batch).unwrap_err().to_string(), err.to_string());
    }

    /// A row outside the selection is never evaluated: a CAST of a
    /// non-numeric string, a NaN under `<` and a CASE arm only unselected
    /// rows reach fail neither entry point.
    #[test]
    fn unselected_rows_are_never_evaluated() {
        let rs = vec![
            Row(vec![Datum::str("7"), Datum::Double(1.0), Datum::Int(1)]),
            Row(vec![Datum::str("x"), Datum::Double(f64::NAN), Datum::Int(2)]),
            Row(vec![Datum::str("8"), Datum::Double(2.0), Datum::Int(3)]),
        ];
        let as_int = Expr::Func { kind: FuncKind::CastInt, args: vec![Expr::col(0)] };
        let first_arm = Expr::binary(BinOp::Ne, Expr::col(2), Expr::lit(2i64));
        for e in [
            Expr::binary(BinOp::Lt, as_int.clone(), Expr::lit(8i64)),
            Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(1.5)),
            Expr::Not(Box::new(Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(1.5)))),
            Expr::Case { whens: vec![(first_arm, Expr::col(2))], else_: Box::new(as_int) },
        ] {
            assert!(e.eval(&rs[1]).is_err(), "{e}");
            assert_matches_on(&e, &rs, Some(&[0, 2]));
        }
    }

    /// A selection that is not increasing keeps its order through the
    /// filter — an OR and an IN-list with a column item each merge rows
    /// kept by two parts — and a value error names the first failing row
    /// in that order, as the row plane does.
    #[test]
    fn selection_order_is_kept() {
        let (c, lit) = (Expr::col, Expr::lit);
        let rs: Vec<Row> = [(1, 1, "x"), (2, 0, "7"), (3, 3, "y"), (4, 0, "8")]
            .into_iter()
            .map(|(x, y, s)| Row(vec![Datum::Int(x), Datum::Int(y), Datum::str(s)]))
            .collect();
        let batch = ColumnBatch::from_rows(&rs).with_sel(vec![3, 0, 2, 1]);
        // Rows 0 and 2 match the column, row 3 the literal.
        let or = Expr::or(Expr::binary(BinOp::Eq, c(0), c(1)), Expr::binary(BinOp::Eq, c(0), lit(4i64)));
        let in_list = |negated| Expr::InList { expr: Box::new(c(0)), list: vec![c(1), lit(4i64)], negated };
        assert_eq!(eval_filter_sel(&or, &batch).unwrap(), vec![3, 0, 2]);
        assert_eq!(eval_filter_sel(&in_list(false), &batch).unwrap(), vec![3, 0, 2]);
        assert_eq!(eval_filter_sel(&in_list(true), &batch).unwrap(), vec![1]);
        let not_or = Expr::Not(Box::new(or));
        assert_eq!(eval_filter_sel(&not_or, &batch).unwrap(), vec![1]);
        // Rows 0 and 2 fail the CAST; row 2 comes first.
        let as_int = Expr::binary(BinOp::Gt, Expr::Func { kind: FuncKind::CastInt, args: vec![c(2)] }, lit(0i64));
        let batch = ColumnBatch::from_rows(&rs).with_sel(vec![3, 2, 1, 0]);
        let want = as_int.eval(&rs[2]).unwrap_err().to_string();
        assert_ne!(want, as_int.eval(&rs[0]).unwrap_err().to_string());
        assert_eq!(eval_expr(&as_int, &batch).unwrap_err().to_string(), want);
        assert_eq!(eval_filter_sel(&as_int, &batch).unwrap_err().to_string(), want);
    }

    /// Batches without rows evaluate nothing, whatever the expression.
    #[test]
    fn empty_batches_never_fail() {
        let batch = ColumnBatch::from_rows(&rows()).select_logical(&[]);
        let bad = Expr::Not(Box::new(Expr::binary(BinOp::Add, Expr::col(9), Expr::lit("x"))));
        // A column aligned with the physical rows, no row of it evaluated.
        assert_eq!(eval_expr(&bad, &batch).unwrap().len(), batch.phys_rows());
        assert!(eval_filter_sel(&bad, &batch).unwrap().is_empty());
    }
}
