//! Statement parameters — the lift and bind steps on either side of the
//! plan cache (`Cluster::plan_query`), after Calcite's prepared statements:
//! one plan per statement *shape*, parameterised over its literals.
//!
//! [`lift`] replaces every literal the planner never looks at with an
//! [`Expr::Param`]; the lifted plan is the cache's key and the planner's
//! input, so two statements differing only in those literals share one
//! template. [`bind`] puts a statement's own literals back into a copy of
//! the template, and the executor never sees a placeholder.
//!
//! What stays in the shape is everything estimation or a rule *does* read:
//!
//! * boolean literals — `selectivity` prices a bare TRUE/FALSE, the rules
//!   drop `Filter(TRUE)` and TRUE conjuncts (`is_true_literal`);
//! * NULL literals — untyped, and `x = NULL` is a different predicate from
//!   `x = 5`, not a different value;
//! * IN-list lengths (`selectivity` divides them by the column's NDV) — the
//!   items lift, the list's arity is structure;
//! * LIMIT / OFFSET and `Values` rows (`derive_props`), which are not
//!   expressions at all;
//! * which literals are *equal*: `simplify_or_common` factors a conjunct
//!   repeated in every OR branch (Q19) and the memo interns equal
//!   subtrees into one group, so literals equal in type and value share one
//!   parameter index and the lifted plan has exactly the equalities the
//!   literal one had.

use ic_common::hash::FxHashMap;
use ic_common::{DataType, Datum, Expr};
use ic_plan::ops::{LogicalPlan, PhysPlan};
use std::sync::Arc;

/// A bound statement split into its shape and its literals.
#[derive(Debug, Clone)]
pub struct Lifted {
    /// The plan with its literals lifted out: same operators, same schemas
    /// (a parameter has its literal's type).
    pub shape: Arc<LogicalPlan>,
    /// The lifted literals, by parameter index.
    pub params: Vec<Datum>,
}

/// Lift the literals out of every Filter / Join / Project / aggregate-
/// argument expression of `plan`, visiting nodes and expressions in one
/// fixed order so equal shapes number their parameters alike.
pub fn lift(plan: &Arc<LogicalPlan>) -> Lifted {
    fn walk(node: &Arc<LogicalPlan>, lifter: &mut Lifter) -> Arc<LogicalPlan> {
        let mut node = LogicalPlan::clone(node);
        for e in node.exprs_mut() {
            lifter.lift(e);
        }
        for child in node.children_mut() {
            *child = walk(child, lifter);
        }
        Arc::new(node)
    }
    let mut lifter = Lifter::default();
    let shape = walk(plan, &mut lifter);
    Lifted { shape, params: lifter.params }
}

/// [`lift`] for one expression: its literals, in parameter order.
pub fn lift_expr(e: &mut Expr) -> Vec<Datum> {
    let mut lifter = Lifter::default();
    lifter.lift(e);
    lifter.params
}

/// A literal's identity for sharing a parameter: equal in type *and*
/// value. `Datum`'s own equality is SQL's (`2 = 2.0`, a date equals its day
/// number) and would bind one literal's type into the other's place.
#[derive(PartialEq, Eq, Hash)]
enum LitKey {
    Int(i64),
    Double(u64),
    Str(Arc<str>),
    Date(i32),
}

#[derive(Default)]
struct Lifter {
    params: Vec<Datum>,
    index_of: FxHashMap<LitKey, usize>,
}

impl Lifter {
    fn lift(&mut self, e: &mut Expr) {
        e.visit_mut(&mut |node| {
            let Expr::Lit(d) = node else { return };
            let (key, ty) = match d {
                Datum::Int(v) => (LitKey::Int(*v), DataType::Int),
                Datum::Double(v) => (LitKey::Double(v.to_bits()), DataType::Double),
                Datum::Str(v) => (LitKey::Str(Arc::clone(v)), DataType::Str),
                Datum::Date(v) => (LitKey::Date(*v), DataType::Date),
                Datum::Bool(_) | Datum::Null => return,
            };
            let index = *self.index_of.entry(key).or_insert_with(|| {
                self.params.push(d.clone());
                self.params.len() - 1
            });
            *node = Expr::Param { index, ty };
        });
    }
}

/// A copy of `template` with every parameter replaced by its literal from
/// `params`: the plan [`crate::optimize_query`] would have produced for
/// the statement itself. Traits, estimates and costs carry over — none of
/// them read a lifted literal.
pub fn bind(template: &Arc<PhysPlan>, params: &[Datum]) -> Arc<PhysPlan> {
    if params.is_empty() {
        return Arc::clone(template);
    }
    let mut node = PhysPlan::clone(template);
    for e in node.exprs_mut() {
        bind_expr(e, params);
    }
    for child in node.children_mut() {
        *child = bind(child, params);
    }
    Arc::new(node)
}

/// Replace each parameter of `e` with its literal. A parameter `params`
/// has no slot for stays, and fails its statement at evaluation.
pub fn bind_expr(e: &mut Expr, params: &[Datum]) {
    e.visit_mut(&mut |node| {
        if let Expr::Param { index, .. } = node {
            if let Some(d) = params.get(*index) {
                *node = Expr::Lit(d.clone());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{BinOp, Field, Schema};
    use ic_plan::ops::RelOp;
    use ic_storage::TableId;

    fn scan() -> Arc<LogicalPlan> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("s", DataType::Str),
        ]);
        LogicalPlan::new(RelOp::Scan { table: TableId(0), name: "t".into(), schema }).unwrap()
    }

    fn filter(predicate: Expr) -> Arc<LogicalPlan> {
        LogicalPlan::new(RelOp::Filter { input: scan(), predicate }).unwrap()
    }

    #[test]
    fn statements_differing_in_literals_share_a_shape() {
        let stmt = |a: i64, s: &str| {
            filter(Expr::and(
                Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(a)),
                Expr::eq(Expr::col(1), Expr::lit(s)),
            ))
        };
        let (x, y) = (lift(&stmt(5, "x")), lift(&stmt(99, "other")));
        assert_eq!(x.shape, y.shape);
        assert_eq!(x.params, vec![Datum::Int(5), Datum::str("x")]);
        assert_eq!(y.params, vec![Datum::Int(99), Datum::str("other")]);
        assert_eq!(x.shape.schema, stmt(5, "x").schema);
    }

    #[test]
    fn equal_literals_share_an_index_and_equal_values_of_other_types_do_not() {
        let pred = |a: Datum, b: Datum| {
            Expr::or(Expr::eq(Expr::col(0), Expr::Lit(a)), Expr::eq(Expr::col(0), Expr::Lit(b)))
        };
        let same = lift(&filter(pred(Datum::Int(7), Datum::Int(7))));
        assert_eq!(same.params, vec![Datum::Int(7)]);
        let RelOp::Filter { predicate, .. } = &same.shape.op else { panic!() };
        let [l, r] = predicate.split_disjunction()[..] else { panic!() };
        assert_eq!(l, r, "the repeated literal is still a repeated conjunct");
        // A draw where two literals collide is another shape than one where
        // they differ.
        let differ = lift(&filter(pred(Datum::Int(7), Datum::Int(8))));
        assert_ne!(same.shape, differ.shape);
        // SQL-equal is not the same literal.
        let mixed = lift(&filter(pred(Datum::Int(7), Datum::Double(7.0))));
        assert_eq!(mixed.params.len(), 2);
        assert_eq!(mixed.params[1].data_type(), Some(DataType::Double));
    }

    #[test]
    fn what_the_planner_reads_stays_in_the_shape() {
        let in_list = |n: i64| Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: (0..n).map(Expr::lit).collect(),
            negated: false,
        };
        assert_ne!(lift(&filter(in_list(2))).shape, lift(&filter(in_list(3))).shape);
        for keep in [Expr::lit(true), Expr::lit(false), Expr::Lit(Datum::Null)] {
            let lifted = lift(&filter(Expr::and(Expr::eq(Expr::col(0), Expr::lit(1i64)), keep.clone())));
            let RelOp::Filter { predicate, .. } = &lifted.shape.op else { panic!() };
            assert_eq!(predicate.split_conjunction()[1], &keep);
            assert_eq!(lifted.params, vec![Datum::Int(1)]);
        }
    }

    #[test]
    fn a_parameter_without_a_slot_stays_unbound() {
        let mut e = Expr::eq(Expr::col(0), Expr::Param { index: 3, ty: DataType::Int });
        bind_expr(&mut e, &[Datum::Int(1)]);
        let err = e.eval(&ic_common::Row(vec![Datum::Int(1)])).unwrap_err();
        assert!(matches!(err, ic_common::IcError::Internal(_)), "{err}");
    }
}
