//! Scalar expressions and their interpreter — the analogue of Calcite's
//! `RexNode` layer.
//!
//! Expressions reference input columns positionally ([`Expr::Col`]), so plan
//! rewrites (pushdowns, join input permutations) manipulate them with the
//! [`Expr::shift`] / [`Expr::remap`] helpers. Evaluation implements SQL
//! three-valued logic: any comparison over NULL yields NULL, AND/OR follow
//! Kleene semantics, and filters keep a row only when the predicate is
//! `TRUE`.

use crate::datum::{DataType, Datum};
use crate::dates;
use crate::error::{IcError, IcResult};
use crate::row::Row;
use std::collections::BTreeSet;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
}

impl BinOp {
    /// Is this one of the six comparison operators?
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// The comparison with swapped operands (`a < b` ⇔ `b > a`).
    pub fn commute(&self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Eq,
            BinOp::Ne => BinOp::Ne,
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            _ => return None,
        })
    }

    /// The comparison that holds exactly where this one fails on two
    /// ordered values (`NOT a < b` ⇔ `a >= b`). `self` for a non-comparison.
    pub fn complement(&self) -> BinOp {
        match self {
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            op => *op,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Built-in scalar functions needed by TPC-H / SSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncKind {
    /// EXTRACT(YEAR FROM d)
    ExtractYear,
    /// EXTRACT(MONTH FROM d)
    ExtractMonth,
    /// SUBSTRING(s, start, len) — 1-based start.
    Substring,
    /// Cast to double.
    CastDouble,
    /// Cast to int (truncating).
    CastInt,
    /// Absolute value.
    Abs,
    /// Date + n months (constant-folded interval arithmetic helper).
    AddMonths,
}

impl fmt::Display for FuncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuncKind::ExtractYear => "EXTRACT_YEAR",
            FuncKind::ExtractMonth => "EXTRACT_MONTH",
            FuncKind::Substring => "SUBSTRING",
            FuncKind::CastDouble => "CAST_DOUBLE",
            FuncKind::CastInt => "CAST_INT",
            FuncKind::Abs => "ABS",
            FuncKind::AddMonths => "ADD_MONTHS",
        };
        f.write_str(s)
    }
}

/// A scalar expression over an input row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Positional input column reference.
    Col(usize),
    /// Literal value.
    Lit(Datum),
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// IS NULL / IS NOT NULL.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// SQL LIKE with `%` and `_` wildcards.
    Like {
        /// The matched expression.
        expr: Box<Expr>,
        /// The pattern (usually a literal).
        pattern: Box<Expr>,
        /// True for NOT LIKE.
        negated: bool,
    },
    /// `expr IN (lit, lit, ...)` — list form only; subqueries are
    /// decorrelated into joins by the frontend.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for NOT IN.
        negated: bool,
    },
    /// Searched CASE: WHEN cond THEN value ... ELSE else_.
    Case {
        /// (condition, value) arms in order.
        whens: Vec<(Expr, Expr)>,
        /// The ELSE value (NULL literal when omitted).
        else_: Box<Expr>,
    },
    /// Built-in scalar function call.
    Func {
        /// Which function.
        kind: FuncKind,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// A literal lifted out of a statement by the plan cache: slot `index`
    /// of the statement's parameter list. To the planner it is what the
    /// literal was — a column-free constant of type `ty`; it exists only
    /// between the cache's lift and bind steps, and evaluating one is an
    /// internal error.
    Param {
        /// Position in the statement's parameter list.
        index: usize,
        /// Type of the literal it stands for.
        ty: DataType,
    },
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal shorthand.
    pub fn lit(d: impl Into<Datum>) -> Expr {
        Expr::Lit(d.into())
    }

    /// Binary-operation shorthand.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `left = right` shorthand.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Eq, left, right)
    }

    /// `left AND right` shorthand.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }

    /// `left OR right` shorthand.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Or, left, right)
    }

    /// Conjoin a list of predicates; empty list means TRUE.
    pub fn conjunction(preds: Vec<Expr>) -> Expr {
        preds.into_iter().reduce(Expr::and).unwrap_or(Expr::Lit(Datum::Bool(true)))
    }

    /// Disjoin a list of predicates; empty list means FALSE.
    pub fn disjunction(preds: Vec<Expr>) -> Expr {
        preds.into_iter().reduce(Expr::or).unwrap_or(Expr::Lit(Datum::Bool(false)))
    }

    /// Split a predicate into its top-level AND conjuncts.
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary { op: BinOp::And, left, right } = e {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Split a predicate into its top-level OR disjuncts.
    pub fn split_disjunction(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary { op: BinOp::Or, left, right } = e {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Is this the constant TRUE?
    pub fn is_true_literal(&self) -> bool {
        matches!(self, Expr::Lit(Datum::Bool(true)))
    }

    /// All input columns referenced by the expression.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut set = BTreeSet::new();
        self.visit(&mut |e| {
            if let Expr::Col(c) = e {
                set.insert(*c);
            }
        });
        set
    }

    /// Maximum referenced column + 1 (0 for column-free expressions).
    pub fn max_col_bound(&self) -> usize {
        self.columns().iter().next_back().map_or(0, |c| c + 1)
    }

    /// Visit every node pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::Param { .. } => {}
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Not(e) | Expr::IsNull { expr: e, .. } => e.visit(f),
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Case { whens, else_ } => {
                for (c, v) in whens {
                    c.visit(f);
                    v.visit(f);
                }
                else_.visit(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }

    /// [`Expr::visit`] over `&mut` nodes, in the same order: `f` sees a
    /// node before its operands.
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::Param { .. } => {}
            Expr::Binary { left, right, .. } => {
                left.visit_mut(f);
                right.visit_mut(f);
            }
            Expr::Not(e) | Expr::IsNull { expr: e, .. } => e.visit_mut(f),
            Expr::Like { expr, pattern, .. } => {
                expr.visit_mut(f);
                pattern.visit_mut(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_mut(f);
                list.iter_mut().for_each(|e| e.visit_mut(f));
            }
            Expr::Case { whens, else_ } => {
                for (c, v) in whens {
                    c.visit_mut(f);
                    v.visit_mut(f);
                }
                else_.visit_mut(f);
            }
            Expr::Func { args, .. } => args.iter_mut().for_each(|a| a.visit_mut(f)),
        }
    }

    /// Rewrite column references through `f`.
    pub fn map_cols(&self, f: &impl Fn(usize) -> usize) -> Expr {
        self.transform(&|e| match e {
            Expr::Col(c) => Some(Expr::Col(f(*c))),
            _ => None,
        })
    }

    /// Shift every column reference >= `from` by `delta` (may be negative).
    pub fn shift(&self, from: usize, delta: isize) -> Expr {
        self.map_cols(&|c| {
            if c >= from {
                (c as isize + delta) as usize
            } else {
                c
            }
        })
    }

    /// Remap columns via an explicit table (`new = table[old]`).
    pub fn remap(&self, table: &[usize]) -> Expr {
        self.map_cols(&|c| table[c])
    }

    /// Bottom-up transformation: `f` returning `Some` replaces the node
    /// (children of the replacement are not revisited).
    pub fn transform(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
        if let Some(replaced) = f(self) {
            return replaced;
        }
        match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::Param { .. } => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.transform(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated: *negated,
            },
            Expr::Like { expr, pattern, negated } => Expr::Like {
                expr: Box::new(expr.transform(f)),
                pattern: Box::new(pattern.transform(f)),
                negated: *negated,
            },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.iter().map(|e| e.transform(f)).collect(),
                negated: *negated,
            },
            Expr::Case { whens, else_ } => Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, v)| (c.transform(f), v.transform(f)))
                    .collect(),
                else_: Box::new(else_.transform(f)),
            },
            Expr::Func { kind, args } => Expr::Func {
                kind: *kind,
                args: args.iter().map(|a| a.transform(f)).collect(),
            },
        }
    }

    /// Evaluate against a row. NULL propagates per SQL semantics.
    pub fn eval(&self, row: &Row) -> IcResult<Datum> {
        match self {
            Expr::Col(i) => row
                .0
                .get(*i)
                .cloned()
                .ok_or_else(|| IcError::Exec(format!("column {i} out of bounds (arity {})", row.arity()))),
            Expr::Lit(d) => Ok(d.clone()),
            Expr::Param { index, .. } => Err(unbound_param(*index)),
            Expr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            Expr::Not(e) => apply_not(&e.eval(row)?),
            Expr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Datum::Bool(isnull != *negated))
            }
            Expr::Like { expr, pattern, negated } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                apply_like(&v, &p, *negated)
            }
            Expr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Datum::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv == v {
                        return Ok(Datum::Bool(!*negated));
                    }
                }
                if saw_null {
                    Ok(Datum::Null)
                } else {
                    Ok(Datum::Bool(*negated))
                }
            }
            Expr::Case { whens, else_ } => {
                for (cond, val) in whens {
                    if cond.eval(row)?.as_bool() == Some(true) {
                        return val.eval(row);
                    }
                }
                else_.eval(row)
            }
            Expr::Func { kind, args } => {
                let argv: Vec<Datum> =
                    args.iter().map(|a| a.eval(row)).collect::<IcResult<_>>()?;
                apply_func(*kind, &argv)
            }
        }
    }

    /// Evaluate as a filter predicate: NULL and FALSE both reject the row.
    pub fn eval_filter(&self, row: &Row) -> IcResult<bool> {
        Ok(self.eval(row)?.as_bool() == Some(true))
    }

    /// The static output type over the input schema — exact for a coerced
    /// expression (`ic_plan::coerce`), with a NULL literal reading as Int.
    pub fn output_type(&self, input: &crate::schema::Schema) -> DataType {
        match self {
            Expr::Col(i) => {
                if *i < input.arity() {
                    input.field(*i).dtype
                } else {
                    DataType::Int
                }
            }
            Expr::Lit(d) => d.data_type().unwrap_or(DataType::Int),
            Expr::Param { ty, .. } => *ty,
            Expr::Binary { op, left, right } => match op {
                BinOp::And | BinOp::Or => DataType::Bool,
                o if o.is_comparison() => DataType::Bool,
                BinOp::Div => DataType::Double,
                _ => {
                    let (lt, rt) = (left.output_type(input), right.output_type(input));
                    if lt == DataType::Double || rt == DataType::Double {
                        DataType::Double
                    } else if lt == DataType::Date || rt == DataType::Date {
                        // `Date ± Int`, or a NULL beside a Date.
                        DataType::Date
                    } else {
                        DataType::Int
                    }
                }
            },
            Expr::Not(_) | Expr::IsNull { .. } | Expr::Like { .. } | Expr::InList { .. } => {
                DataType::Bool
            }
            // Every arm has one type; a NULL arm has none to give.
            Expr::Case { whens, else_ } => whens
                .iter()
                .map(|(_, v)| v)
                .chain([&**else_])
                .find(|v| !matches!(v, Expr::Lit(Datum::Null)))
                .map_or(DataType::Int, |v| v.output_type(input)),
            Expr::Func { kind, .. } => match kind {
                FuncKind::ExtractYear | FuncKind::ExtractMonth | FuncKind::CastInt => DataType::Int,
                FuncKind::Substring => DataType::Str,
                FuncKind::CastDouble | FuncKind::Abs => DataType::Double,
                FuncKind::AddMonths => DataType::Date,
            },
        }
    }
}

/// What evaluating an [`Expr::Param`] answers: the plan cache hands the
/// executor bound plans only, so one that reaches an evaluator is a bug.
pub(crate) fn unbound_param(index: usize) -> IcError {
    IcError::Internal(format!("unbound parameter ?{index} reached evaluation"))
}

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, row: &Row) -> IcResult<Datum> {
    // Kleene AND/OR must short-circuit around NULLs correctly.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = left.eval(row)?;
        let lb = l.as_bool();
        match (op, lb, l.is_null()) {
            (BinOp::And, Some(false), _) => return Ok(Datum::Bool(false)),
            (BinOp::Or, Some(true), _) => return Ok(Datum::Bool(true)),
            _ => {}
        }
        let r = right.eval(row)?;
        let rb = r.as_bool();
        return Ok(match op {
            BinOp::And => match (lb, rb) {
                (Some(true), Some(true)) => Datum::Bool(true),
                (_, Some(false)) => Datum::Bool(false),
                _ => Datum::Null,
            },
            BinOp::Or => match (lb, rb) {
                (_, Some(true)) => Datum::Bool(true),
                (Some(false), Some(false)) => Datum::Bool(false),
                _ => Datum::Null,
            },
            _ => unreachable!(),
        });
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;
    apply_binary(op, &l, &r)
}

/// Apply a non-logical binary operator to two already-evaluated operands:
/// SQL NULL propagation, comparison via [`Datum::sql_cmp`], wrapping Int
/// arithmetic, `Date ± Int` day arithmetic and `x / 0 → NULL`. With
/// [`apply_not`], [`apply_like`] and [`apply_func`] these are the scalar
/// semantics of the row interpreter; the vectorized evaluator calls the same
/// functions for scalar operands, so the two planes cannot drift.
pub fn apply_binary(op: BinOp, l: &Datum, r: &Datum) -> IcResult<Datum> {
    if l.is_null() || r.is_null() {
        return Ok(Datum::Null);
    }
    if op.is_comparison() {
        let ord = l
            .sql_cmp(r)
            .ok_or_else(|| IcError::Exec(format!("cannot compare {l} and {r}")))?;
        let b = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::Ne => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::Le => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::Ge => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Datum::Bool(b));
    }
    // Arithmetic. Int op Int stays Int except Div; anything with Double is Double.
    match (&l, &r) {
        (Datum::Int(a), Datum::Int(b)) if op != BinOp::Div => Ok(Datum::Int(match op {
            BinOp::Add => a.wrapping_add(*b),
            BinOp::Sub => a.wrapping_sub(*b),
            BinOp::Mul => a.wrapping_mul(*b),
            _ => unreachable!(),
        })),
        (Datum::Date(d), Datum::Int(k)) if op == BinOp::Add => Ok(Datum::Date(d.wrapping_add(*k as i32))),
        (Datum::Date(d), Datum::Int(k)) if op == BinOp::Sub => Ok(Datum::Date(d.wrapping_sub(*k as i32))),
        _ => {
            let a = l
                .as_double()
                .ok_or_else(|| IcError::Exec(format!("arithmetic on non-numeric {l}")))?;
            let b = r
                .as_double()
                .ok_or_else(|| IcError::Exec(format!("arithmetic on non-numeric {r}")))?;
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Ok(Datum::Null);
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Datum::Double(v))
        }
    }
}

/// Three-valued NOT of an evaluated operand.
pub fn apply_not(d: &Datum) -> IcResult<Datum> {
    match d {
        Datum::Null => Ok(Datum::Null),
        Datum::Bool(b) => Ok(Datum::Bool(!b)),
        other => Err(IcError::Exec(format!("NOT on non-boolean {other}"))),
    }
}

/// `v [NOT] LIKE p` over evaluated operands.
pub fn apply_like(v: &Datum, p: &Datum, negated: bool) -> IcResult<Datum> {
    match (v, p) {
        (Datum::Null, _) | (_, Datum::Null) => Ok(Datum::Null),
        (Datum::Str(s), Datum::Str(p)) => Ok(Datum::Bool(like_match(s, p) != negated)),
        _ => Err(IcError::Exec("LIKE requires string operands".into())),
    }
}

/// Apply a built-in function to evaluated arguments (any NULL → NULL).
pub fn apply_func(kind: FuncKind, argv: &[Datum]) -> IcResult<Datum> {
    if argv.iter().any(Datum::is_null) {
        return Ok(Datum::Null);
    }
    match kind {
        FuncKind::ExtractYear => match &argv[0] {
            Datum::Date(d) => Ok(Datum::Int(dates::year_of(*d) as i64)),
            other => Err(IcError::Exec(format!("EXTRACT YEAR on {other}"))),
        },
        FuncKind::ExtractMonth => match &argv[0] {
            Datum::Date(d) => Ok(Datum::Int(dates::month_of(*d) as i64)),
            other => Err(IcError::Exec(format!("EXTRACT MONTH on {other}"))),
        },
        FuncKind::Substring => {
            let s = argv[0]
                .as_str()
                .ok_or_else(|| IcError::Exec("SUBSTRING on non-string".into()))?;
            let start = argv[1]
                .as_int()
                .ok_or_else(|| IcError::Exec("SUBSTRING start not int".into()))?;
            let len = argv[2]
                .as_int()
                .ok_or_else(|| IcError::Exec("SUBSTRING length not int".into()))?;
            Ok(Datum::str(&s[substring_range(s.as_bytes(), start, len)]))
        }
        FuncKind::CastDouble => argv[0]
            .as_double()
            .map(Datum::Double)
            .ok_or_else(|| IcError::Exec("CAST to double failed".into())),
        FuncKind::CastInt => match &argv[0] {
            Datum::Int(i) => Ok(Datum::Int(*i)),
            Datum::Double(d) => Ok(Datum::Int(*d as i64)),
            Datum::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Datum::Int)
                .map_err(|_| IcError::Exec(format!("CAST('{s}' AS INT) failed"))),
            other => Err(IcError::Exec(format!("CAST {other} to int failed"))),
        },
        FuncKind::Abs => argv[0]
            .as_double()
            .map(|d| Datum::Double(d.abs()))
            .ok_or_else(|| IcError::Exec("ABS on non-numeric".into())),
        FuncKind::AddMonths => match (&argv[0], &argv[1]) {
            (Datum::Date(d), Datum::Int(m)) => Ok(Datum::Date(dates::add_months(*d, *m as i32))),
            _ => Err(IcError::Exec("ADD_MONTHS(date, int) type error".into())),
        },
    }
}

/// Is `b` the first byte of a UTF-8 character (not a continuation byte)?
#[inline]
fn is_char_start(b: u8) -> bool {
    b & 0xC0 != 0x80
}

/// Byte range of `SUBSTRING(s, start, len)` in the UTF-8 string `s`:
/// `len` characters from the 1-based character position `start`, both
/// clamped to the string (`start < 1` reads as 1, `len < 0` as 0).
pub fn substring_range(s: &[u8], start: i64, len: i64) -> std::ops::Range<usize> {
    let (skip, take) = ((start.max(1) - 1) as usize, len.max(0) as usize);
    if s.is_ascii() {
        let from = skip.min(s.len());
        return from..from.saturating_add(take).min(s.len());
    }
    let mut starts = (0..s.len()).filter(|&i| is_char_start(s[i]));
    let from = starts.nth(skip).unwrap_or(s.len());
    let to = match take {
        0 => from,
        _ => starts.nth(take - 1).unwrap_or(s.len()),
    };
    from..to
}

/// A SQL LIKE pattern (`%` matches any run of characters, `_` exactly one;
/// there is no escape character) split once at its `%`s. Building one
/// borrows the pattern and matching walks the subject's bytes, so neither
/// allocates. The one matcher of both evaluation planes.
///
/// The forms a pattern can take fall out of the split: no `%` is an exact
/// match, `lit%` a prefix test, `%lit` a suffix test, `%a%b%` an ordered
/// substring search; a `_` anywhere switches the runs from byte-wise to
/// character-wise comparison.
#[derive(Debug, Clone, Copy)]
pub struct LikePattern<'p> {
    /// The run before the first `%` — the whole pattern when it has none.
    head: &'p [u8],
    /// With a `%`: the `%`-separated runs between the first and the last
    /// one, and the run after the last.
    rest: Option<(&'p [u8], &'p [u8])>,
    /// Some run contains `_`.
    wild: bool,
}

impl<'p> LikePattern<'p> {
    /// Split `pattern` at its `%`s.
    pub fn new(pattern: &'p str) -> LikePattern<'p> {
        let p = pattern.as_bytes();
        let wild = p.contains(&b'_');
        let is_pct = |b: &u8| *b == b'%';
        match (p.iter().position(is_pct), p.iter().rposition(is_pct)) {
            (Some(first), Some(last)) => {
                let middle = if last > first { &p[first + 1..last] } else { &p[..0] };
                LikePattern { head: &p[..first], rest: Some((middle, &p[last + 1..])), wild }
            }
            _ => LikePattern { head: p, rest: None, wild },
        }
    }

    /// Does the UTF-8 string `s` match?
    pub fn matches(&self, s: &[u8]) -> bool {
        let Some(mut pos) = self.run_at(s, 0, self.head) else { return false };
        let Some((middle, tail)) = self.rest else { return pos == s.len() };
        // Leftmost match of each middle run leaves the most room for the
        // runs after it, so one greedy pass decides.
        for run in middle.split(|&b| b == b'%') {
            match self.find_run(s, pos, run) {
                Some(end) => pos = end,
                None => return false,
            }
        }
        self.run_at_end(s, pos, tail)
    }

    /// Match `run` (no `%`) at byte `at` of `s`; the end of the match.
    #[inline]
    fn run_at(&self, s: &[u8], at: usize, run: &[u8]) -> Option<usize> {
        if !self.wild {
            return s[at..].starts_with(run).then_some(at + run.len());
        }
        // `at` is a character boundary and literal characters compare byte
        // for byte, so every `_` meets the first byte of a character.
        let mut i = at;
        for &r in run {
            let &b = s.get(i)?;
            if r == b'_' {
                i += 1;
                while s.get(i).is_some_and(|&c| !is_char_start(c)) {
                    i += 1;
                }
            } else if r == b {
                i += 1;
            } else {
                return None;
            }
        }
        Some(i)
    }

    /// Leftmost match of `run` starting at or after byte `from`; its end.
    fn find_run(&self, s: &[u8], from: usize, run: &[u8]) -> Option<usize> {
        let Some((&first, _)) = run.split_first() else { return Some(from) };
        let mut at = from;
        while at < s.len() {
            if !self.wild {
                // A valid UTF-8 needle only matches at character boundaries.
                at += s[at..].iter().position(|&b| b == first)?;
            }
            if let Some(end) = self.run_at(s, at, run) {
                return Some(end);
            }
            at += 1;
            while self.wild && s.get(at).is_some_and(|&c| !is_char_start(c)) {
                at += 1;
            }
        }
        None
    }

    /// Does `run` match the end of `s` without reaching back before `from`?
    fn run_at_end(&self, s: &[u8], from: usize, run: &[u8]) -> bool {
        if !self.wild {
            return s.len() - from >= run.len() && s.ends_with(run);
        }
        // The run matches a fixed number of characters: step back that many.
        let mut at = s.len();
        for _ in run.iter().filter(|&&r| is_char_start(r)) {
            if at <= from {
                return false;
            }
            at -= 1;
            while at > from && !is_char_start(s[at]) {
                at -= 1;
            }
        }
        self.run_at(s, at, run) == Some(s.len())
    }
}

/// SQL LIKE of one subject against one pattern; see [`LikePattern`].
pub fn like_match(s: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(s.as_bytes())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Expr::Col(i) => write!(f, "${i}"),
                Expr::Lit(d) => match d {
                    Datum::Str(s) => write!(f, "'{s}'"),
                    other => write!(f, "{other}"),
                },
                Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
                Expr::Not(e) => write!(f, "NOT ({e})"),
                Expr::IsNull { expr, negated } => {
                    if *negated {
                        write!(f, "({expr} IS NOT NULL)")
                    } else {
                        write!(f, "({expr} IS NULL)")
                    }
                }
                Expr::Like { expr, pattern, negated } => {
                    if *negated {
                        write!(f, "({expr} NOT LIKE {pattern})")
                    } else {
                        write!(f, "({expr} LIKE {pattern})")
                    }
                }
                Expr::InList { expr, list, negated } => {
                    write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                    for (i, e) in list.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, "))")
                }
                Expr::Case { whens, else_ } => {
                    write!(f, "CASE")?;
                    for (c, v) in whens {
                        write!(f, " WHEN {c} THEN {v}")?;
                    }
                    write!(f, " ELSE {else_} END")
                }
                Expr::Func { kind, args } => {
                    write!(f, "{kind}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
                Expr::Param { index, .. } => write!(f, "?{index}"),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Datum>) -> Row {
        Row(vals)
    }

    #[test]
    fn arithmetic() {
        let r = row(vec![Datum::Int(6), Datum::Int(4)]);
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&r).unwrap(), Datum::Int(10));
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&r).unwrap(), Datum::Double(1.5));
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(0i64));
        assert_eq!(e.eval(&r).unwrap(), Datum::Null);
    }

    #[test]
    fn three_valued_logic() {
        let r = row(vec![Datum::Null]);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        let null_cmp = Expr::eq(Expr::col(0), Expr::lit(1i64));
        assert_eq!(null_cmp.eval(&r).unwrap(), Datum::Null);
        let e = Expr::and(null_cmp.clone(), Expr::lit(false));
        assert_eq!(e.eval(&r).unwrap(), Datum::Bool(false));
        let e = Expr::or(null_cmp.clone(), Expr::lit(true));
        assert_eq!(e.eval(&r).unwrap(), Datum::Bool(true));
        let e = Expr::and(null_cmp.clone(), Expr::lit(true));
        assert_eq!(e.eval(&r).unwrap(), Datum::Null);
        assert!(!null_cmp.eval_filter(&r).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO BRASS", "PROMO%"));
        assert!(like_match("anything", "%"));
        assert!(like_match("forest green", "%green%"));
        assert!(!like_match("forest green", "green%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("%special%", "%special%"));
        assert!(like_match("MEDIUM POLISHED BRASS", "MEDIUM POLISHED%"));
    }

    #[test]
    fn in_list_null_semantics() {
        let r = row(vec![Datum::Int(5)]);
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Expr::lit(1i64), Expr::Lit(Datum::Null)],
            negated: false,
        };
        // 5 IN (1, NULL) => NULL
        assert_eq!(e.eval(&r).unwrap(), Datum::Null);
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Expr::lit(5i64), Expr::Lit(Datum::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&r).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn case_expr() {
        let r = row(vec![Datum::Int(3)]);
        let e = Expr::Case {
            whens: vec![(Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(2i64)), Expr::lit(10i64))],
            else_: Box::new(Expr::lit(20i64)),
        };
        assert_eq!(e.eval(&r).unwrap(), Datum::Int(20));
    }

    #[test]
    fn funcs() {
        let d = crate::dates::to_epoch_days(1995, 7, 4);
        let r = row(vec![Datum::Date(d), Datum::str("PROMO BRASS")]);
        let e = Expr::Func { kind: FuncKind::ExtractYear, args: vec![Expr::col(0)] };
        assert_eq!(e.eval(&r).unwrap(), Datum::Int(1995));
        let e = Expr::Func {
            kind: FuncKind::Substring,
            args: vec![Expr::col(1), Expr::lit(1i64), Expr::lit(5i64)],
        };
        assert_eq!(e.eval(&r).unwrap(), Datum::str("PROMO"));
    }

    #[test]
    fn split_and_rebuild_conjunction() {
        let e = Expr::and(
            Expr::eq(Expr::col(0), Expr::lit(1i64)),
            Expr::and(
                Expr::eq(Expr::col(1), Expr::lit(2i64)),
                Expr::eq(Expr::col(2), Expr::lit(3i64)),
            ),
        );
        assert_eq!(e.split_conjunction().len(), 3);
        let rebuilt = Expr::conjunction(e.split_conjunction().into_iter().cloned().collect());
        assert_eq!(rebuilt.split_conjunction().len(), 3);
    }

    #[test]
    fn shift_and_columns() {
        let e = Expr::eq(Expr::col(2), Expr::col(5));
        assert_eq!(e.columns().into_iter().collect::<Vec<_>>(), vec![2, 5]);
        let shifted = e.shift(3, -3);
        assert_eq!(shifted.columns().into_iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(e.max_col_bound(), 6);
    }

    #[test]
    fn display_roundtrip_smoke() {
        let e = Expr::and(
            Expr::eq(Expr::col(0), Expr::lit("x")),
            Expr::Not(Box::new(Expr::col(1))),
        );
        let s = e.to_string();
        assert!(s.contains("AND") && s.contains("'x'"));
    }
}
