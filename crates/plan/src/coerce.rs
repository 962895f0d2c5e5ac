//! Implicit casts: the one place the engine decides types. The binder runs
//! [`coerce_plan`] once over every bound plan, before the plan cache lifts
//! its literals (Calcite's validator inserts the same casts before
//! planning); the data plane then trusts the plan's schema.
//!
//! The lattice, applied to arithmetic, comparisons (join conditions
//! included), CASE arms and IN lists:
//!
//! * Int meets Double → Double: an Int literal becomes a Double literal,
//!   any other Int operand is wrapped in `CAST_DOUBLE`.
//! * `Date ± Int` (days) → Date.
//! * NULL fits any type.
//! * Anything else — Str vs Int, Date vs Int, LIKE on a non-string, SUM or
//!   AVG of a non-number, a non-boolean predicate — is an
//!   [`IcError::Bind`].
//!
//! `PhysPlan::validate` runs [`coerce`] on every expression again and
//! reports one it would still change.

use crate::ops::{AggCall, LogicalPlan, RelOp};
use ic_common::agg::AggFunc;
use ic_common::{BinOp, DataType, Datum, Expr, FuncKind, IcError, IcResult, Schema};
use std::sync::Arc;

/// An expression and its type; `None` is a NULL, which has none.
type Typed = (Expr, Option<DataType>);

/// `plan` with every expression coerced over its input, bottom-up.
pub fn coerce_plan(plan: &Arc<LogicalPlan>) -> IcResult<Arc<LogicalPlan>> {
    let mut node = (**plan).clone();
    for child in node.children_mut() {
        *child = coerce_plan(child)?;
    }
    let input = match &node.children()[..] {
        [one] => one.schema.clone(),
        [left, right] => left.schema.join(&right.schema),
        _ => Schema::empty(),
    };
    match &mut node.op {
        RelOp::Filter { predicate: e, .. } | RelOp::Join { on: e, .. } => {
            *e = coerce_to(e, &input, DataType::Bool)?;
        }
        RelOp::Project { exprs, .. } => {
            for e in exprs {
                *e = coerce(e, &input)?.0;
            }
        }
        RelOp::Aggregate { aggs, .. } => {
            for a in aggs {
                coerce_agg(a, &input)?;
            }
        }
        RelOp::Scan { .. } | RelOp::Sort { .. } | RelOp::Limit { .. } | RelOp::Values { .. } => {}
    }
    LogicalPlan::new(node.op)
}

/// `e` coerced over `input` to type `want`: an Int widens to a Double and
/// NULL fits; any other type is an error.
pub fn coerce_to(e: &Expr, input: &Schema, want: DataType) -> IcResult<Expr> {
    match coerce(e, input)? {
        (e, Some(DataType::Int)) if want == DataType::Double => Ok(widen(e)),
        typed => expect(typed, &[want]),
    }
}

/// Coerce an aggregate call's argument: SUM and AVG take numbers.
pub fn coerce_agg(call: &mut AggCall, input: &Schema) -> IcResult<()> {
    if let Some(arg) = &mut call.arg {
        *arg = match call.func {
            AggFunc::Sum | AggFunc::Avg => {
                expect(coerce(arg, input)?, &[DataType::Int, DataType::Double])?
            }
            _ => coerce(arg, input)?.0,
        };
    }
    Ok(())
}

/// `e` over `input` with the lattice's casts in place, and its type.
pub fn coerce(e: &Expr, input: &Schema) -> IcResult<Typed> {
    use DataType::{Bool, Str};
    let go = |x: &Expr| coerce(x, input);
    Ok(match e {
        Expr::Col(i) => match input.fields().get(*i) {
            Some(f) => (e.clone(), Some(f.dtype)),
            None => return Err(IcError::Bind(format!("column {i} out of bounds in {e}"))),
        },
        Expr::Lit(d) => (e.clone(), d.data_type()),
        Expr::Param { ty, .. } => (e.clone(), Some(*ty)),
        Expr::Binary { op, left, right } => binary(*op, go(left)?, go(right)?)?,
        Expr::Not(x) => (Expr::Not(Box::new(expect(go(x)?, &[Bool])?)), Some(Bool)),
        Expr::IsNull { expr, negated } => {
            (Expr::IsNull { expr: Box::new(go(expr)?.0), negated: *negated }, Some(Bool))
        }
        Expr::Like { expr, pattern, negated } => {
            let expr = Box::new(expect(go(expr)?, &[Str])?);
            let pattern = Box::new(expect(go(pattern)?, &[Str])?);
            (Expr::Like { expr, pattern, negated: *negated }, Some(Bool))
        }
        Expr::InList { expr, list, negated } => {
            let items = std::iter::once(&**expr).chain(list).map(go).collect::<IcResult<_>>()?;
            let (mut items, _) = unify(items)?;
            let expr = Box::new(items.remove(0));
            (Expr::InList { expr, list: items, negated: *negated }, Some(Bool))
        }
        Expr::Case { whens, else_ } => {
            let conds: Vec<Expr> =
                whens.iter().map(|(c, _)| expect(go(c)?, &[Bool])).collect::<IcResult<_>>()?;
            let arms = whens.iter().map(|(_, v)| v).chain([&**else_]).map(go);
            let (mut arms, ty) = unify(arms.collect::<IcResult<_>>()?)?;
            let else_ = Box::new(arms.pop().unwrap_or(Expr::Lit(Datum::Null)));
            (Expr::Case { whens: conds.into_iter().zip(arms).collect(), else_ }, ty)
        }
        Expr::Func { kind, args } => func(*kind, args.iter().map(go).collect::<IcResult<_>>()?)?,
    })
}

fn mismatch(e: &Expr, ty: Option<DataType>, want: &[DataType]) -> IcError {
    let want: Vec<String> = want.iter().map(DataType::to_string).collect();
    let have = ty.map_or("NULL".into(), |t| t.to_string());
    IcError::Bind(format!("type mismatch: {e} is {have}, expected {}", want.join(" or ")))
}

/// The expression of `typed`, if its type is NULL or one of `want`.
fn expect((e, ty): Typed, want: &[DataType]) -> IcResult<Expr> {
    match ty {
        Some(t) if !want.contains(&t) => Err(mismatch(&e, ty, want)),
        _ => Ok(e),
    }
}

/// An Int expression as a Double one: a literal is folded, anything else
/// is cast.
fn widen(e: Expr) -> Expr {
    match e {
        Expr::Lit(Datum::Int(i)) => Expr::Lit(Datum::Double(i as f64)),
        e => Expr::Func { kind: FuncKind::CastDouble, args: vec![e] },
    }
}

/// Bring values that meet — CASE arms, an IN test and its items — to one
/// type: equal types stay, Int widens to Double, NULLs fit anything.
fn unify(items: Vec<Typed>) -> IcResult<(Vec<Expr>, Option<DataType>)> {
    let mut ty: Option<DataType> = None;
    for (e, t) in &items {
        ty = match (ty, *t) {
            (None, t) | (t, None) => t,
            (Some(a), Some(b)) if a == b => Some(a),
            (Some(a), Some(b)) if is_number(a) && is_number(b) => Some(DataType::Double),
            (Some(a), b) => return Err(mismatch(e, b, &[a])),
        };
    }
    let widen_ints = ty == Some(DataType::Double);
    let exprs = items
        .into_iter()
        .map(|(e, t)| if widen_ints && t == Some(DataType::Int) { widen(e) } else { e })
        .collect();
    Ok((exprs, ty))
}

/// [`unify`] for the two operands of a binary operator.
fn unify_pair(l: Typed, r: Typed) -> IcResult<(Expr, Expr, Option<DataType>)> {
    let (both, ty) = unify(vec![l, r])?;
    let [l, r]: [Expr; 2] =
        both.try_into().map_err(|_| IcError::Internal("unify keeps its arity".into()))?;
    Ok((l, r, ty))
}

fn is_number(t: DataType) -> bool {
    matches!(t, DataType::Int | DataType::Double)
}

fn binary(op: BinOp, l: Typed, r: Typed) -> IcResult<Typed> {
    use DataType::{Bool, Date, Double, Int};
    let make = |l, r| Expr::binary(op, l, r);
    if matches!(op, BinOp::And | BinOp::Or) {
        return Ok((make(expect(l, &[Bool])?, expect(r, &[Bool])?), Some(Bool)));
    }
    if op.is_comparison() {
        let (l, r, _) = unify_pair(l, r)?;
        return Ok((make(l, r), Some(Bool)));
    }
    // Arithmetic.
    let days = matches!(op, BinOp::Add | BinOp::Sub);
    Ok(match (l.1, r.1) {
        (Some(Date), Some(Int) | None) if days => (make(l.0, r.0), Some(Date)),
        (None, Some(Date)) if op == BinOp::Add => (make(l.0, r.0), Some(Date)),
        (None, None) => (make(l.0, r.0), None),
        (lt, rt) if lt.is_none_or(is_number) && rt.is_none_or(is_number) => {
            let (l, r, ty) = unify_pair(l, r)?;
            (make(l, r), if op == BinOp::Div { Some(Double) } else { ty })
        }
        (lt, _) if !lt.is_none_or(is_number) => return Err(mismatch(&l.0, lt, &[Int, Double])),
        (_, rt) => return Err(mismatch(&r.0, rt, &[Int, Double])),
    })
}

fn func(kind: FuncKind, args: Vec<Typed>) -> IcResult<Typed> {
    use DataType::{Date, Double, Int, Str};
    let (params, out): (&[&[DataType]], DataType) = match kind {
        FuncKind::ExtractYear | FuncKind::ExtractMonth => (&[&[Date]], Int),
        FuncKind::Substring => (&[&[Str], &[Int], &[Int]], Str),
        FuncKind::CastDouble | FuncKind::Abs => (&[&[Int, Double]], Double),
        FuncKind::CastInt => (&[&[Int, Double, Str]], Int),
        FuncKind::AddMonths => (&[&[Date], &[Int]], Date),
    };
    if args.len() != params.len() {
        return Err(IcError::Bind(format!("{kind} takes {} argument(s)", params.len())));
    }
    let args = args.into_iter().zip(params).map(|(a, p)| expect(a, p)).collect::<IcResult<_>>()?;
    Ok((Expr::Func { kind, args }, Some(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("x", DataType::Double),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::Str),
        ])
    }

    fn co(e: Expr) -> IcResult<Typed> {
        coerce(&e, &schema())
    }

    fn cast(e: Expr) -> Expr {
        Expr::Func { kind: FuncKind::CastDouble, args: vec![e] }
    }

    #[test]
    fn case_arms_meet_at_double() {
        let when = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1i64));
        let case = |then, else_| Expr::Case { whens: vec![(when.clone(), then)], else_: Box::new(else_) };
        // An Int literal arm folds; an Int column arm is cast.
        let (e, ty) = co(case(Expr::col(1), Expr::lit(0i64))).unwrap();
        assert_eq!((e, ty), (case(Expr::col(1), Expr::lit(0.0)), Some(DataType::Double)));
        let (e, _) = co(case(Expr::col(0), Expr::col(1))).unwrap();
        assert_eq!(e, case(cast(Expr::col(0)), Expr::col(1)));
        // A NULL arm fits and leaves the type to the others.
        let (e, ty) = co(case(Expr::Lit(Datum::Null), Expr::col(0))).unwrap();
        assert_eq!((e, ty), (case(Expr::Lit(Datum::Null), Expr::col(0)), Some(DataType::Int)));
        assert!(matches!(co(case(Expr::col(0), Expr::col(3))), Err(IcError::Bind(_))));
    }

    #[test]
    fn in_list_items_meet_their_test() {
        let in_list = |expr, list| Expr::InList { expr: Box::new(expr), list, negated: false };
        let (e, _) = co(in_list(Expr::col(1), vec![Expr::lit(1i64), Expr::lit(2.5)])).unwrap();
        assert_eq!(e, in_list(Expr::col(1), vec![Expr::lit(1.0), Expr::lit(2.5)]));
        let (e, _) = co(in_list(Expr::col(0), vec![Expr::lit(2.5)])).unwrap();
        assert_eq!(e, in_list(cast(Expr::col(0)), vec![Expr::lit(2.5)]));
        assert!(matches!(co(in_list(Expr::col(0), vec![Expr::lit("a")])), Err(IcError::Bind(_))));
    }

    #[test]
    fn int_meets_double_in_comparisons_and_arithmetic() {
        let (e, ty) = co(Expr::eq(Expr::col(0), Expr::col(1))).unwrap();
        assert_eq!((e, ty), (Expr::eq(cast(Expr::col(0)), Expr::col(1)), Some(DataType::Bool)));
        let (e, _) = co(Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(3i64))).unwrap();
        assert_eq!(e, Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(3.0)));
        let (e, ty) = co(Expr::binary(BinOp::Mul, Expr::lit(2i64), Expr::col(1))).unwrap();
        assert_eq!((e, ty), (Expr::binary(BinOp::Mul, Expr::lit(2.0), Expr::col(1)), Some(DataType::Double)));
        // Int / Int needs no cast: division is Double either way.
        let div = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(2i64));
        assert_eq!(co(div.clone()).unwrap(), (div, Some(DataType::Double)));
    }

    #[test]
    fn date_plus_days_is_a_date() {
        for op in [BinOp::Add, BinOp::Sub] {
            let e = Expr::binary(op, Expr::col(2), Expr::lit(3i64));
            assert_eq!(co(e.clone()).unwrap(), (e, Some(DataType::Date)));
        }
        assert!(co(Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(3i64))).is_err());
        assert!(co(Expr::binary(BinOp::Sub, Expr::col(2), Expr::col(2))).is_err());
    }

    #[test]
    fn mixed_kinds_are_bind_errors() {
        let bind_err = |e: Expr| matches!(co(e), Err(IcError::Bind(_)));
        assert!(bind_err(Expr::eq(Expr::col(0), Expr::lit("a"))));
        assert!(bind_err(Expr::binary(BinOp::Add, Expr::col(0), Expr::lit("a"))));
        assert!(bind_err(Expr::eq(Expr::col(2), Expr::col(0))));
        let like = |e| Expr::Like { expr: Box::new(e), pattern: Box::new(Expr::lit("%")), negated: false };
        assert!(bind_err(like(Expr::col(0))));
        assert!(bind_err(Expr::and(Expr::col(0), Expr::lit(true))));
        assert!(bind_err(Expr::Func { kind: FuncKind::ExtractYear, args: vec![Expr::col(0)] }));
        let mut sum = AggCall { func: AggFunc::Sum, arg: Some(Expr::col(3)), name: "s".into() };
        assert!(matches!(coerce_agg(&mut sum, &schema()), Err(IcError::Bind(_))));
        // NULL fits everywhere.
        assert!(co(Expr::eq(Expr::col(3), Expr::Lit(Datum::Null))).is_ok());
        assert!(co(Expr::binary(BinOp::Add, Expr::Lit(Datum::Null), Expr::col(1))).is_ok());
    }
}
