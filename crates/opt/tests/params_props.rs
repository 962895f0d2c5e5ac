//! Property tests for the plan cache's lift and bind steps
//! (`ic_opt::params`): binding a lifted expression's own literals back is
//! the identity; nothing liftable stays behind and nothing the planner
//! reads is taken; equal literals share a parameter; and statements that
//! differ only in literal values lift to one shape.
//!
//! Expressions are compared through `Debug`: `Datum`'s `==` is SQL's
//! (`2 = 2.0`), and a round trip must preserve a literal's type too.

use ic_common::{BinOp, Datum, Expr, FuncKind};
use ic_opt::params::{bind_expr, lift_expr};
use proptest::prelude::*;

/// Literals from small domains, so equal ones repeat within an expression.
fn arb_literal() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        (-3i64..4).prop_map(Datum::Int),
        (-3i64..4).prop_map(|v| Datum::Double(v as f64 / 2.0)),
        "[ab%_]{0,2}".prop_map(Datum::str),
        (100i32..104).prop_map(Datum::Date),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![(0usize..4).prop_map(Expr::col), arb_literal().prop_map(Expr::Lit)];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), prop_oneof![
                Just(BinOp::Add), Just(BinOp::Eq), Just(BinOp::Lt), Just(BinOp::And), Just(BinOp::Or),
            ])
                .prop_map(|(l, r, op)| Expr::binary(op, l, r)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), any::<bool>())
                .prop_map(|(e, negated)| Expr::IsNull { expr: Box::new(e), negated }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 0..4), any::<bool>())
                .prop_map(|(e, list, negated)| Expr::InList { expr: Box::new(e), list, negated }),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(e, p, negated)| Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(p),
                negated
            }),
            (proptest::collection::vec((inner.clone(), inner.clone()), 1..3), inner.clone())
                .prop_map(|(whens, else_)| Expr::Case { whens, else_: Box::new(else_) }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| Expr::Func {
                kind: FuncKind::Substring,
                args: vec![a, b, c]
            }),
        ]
    })
}

/// The same statement submitted with other values: every liftable literal
/// moved injectively within its type, everything else as it was.
fn other_values(e: &Expr) -> Expr {
    let mut e = e.clone();
    e.visit_mut(&mut |node| {
        if let Expr::Lit(d) = node {
            *d = match &*d {
                Datum::Int(v) => Datum::Int(v + 1000),
                Datum::Double(v) => Datum::Double(v + 1000.0),
                Datum::Str(s) => Datum::str(format!("{s}~")),
                Datum::Date(v) => Datum::Date(v + 1000),
                keep @ (Datum::Bool(_) | Datum::Null) => keep.clone(),
            };
        }
    });
    e
}

fn debug(e: &impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn bind_of_lift_is_the_identity(e in arb_expr()) {
        let mut lifted = e.clone();
        let params = lift_expr(&mut lifted);
        let mut bound = lifted.clone();
        bind_expr(&mut bound, &params);
        prop_assert_eq!(debug(&bound), debug(&e));
        prop_assert_eq!(lifted.columns(), e.columns());
    }

    #[test]
    fn lift_takes_every_typed_literal_once_and_nothing_else(e in arb_expr()) {
        let mut lifted = e.clone();
        let params = lift_expr(&mut lifted);
        let mut seen = vec![false; params.len()];
        let mut ok = true;
        lifted.visit(&mut |node| match node {
            // What stays is what the planner reads: booleans and NULLs.
            Expr::Lit(d) => ok &= matches!(d, Datum::Bool(_) | Datum::Null),
            Expr::Param { index, ty } => {
                ok &= params.get(*index).is_some_and(|d| d.data_type() == Some(*ty));
                if let Some(s) = seen.get_mut(*index) {
                    *s = true;
                }
            }
            _ => {}
        });
        prop_assert!(ok, "{lifted} with {params:?}");
        prop_assert!(seen.iter().all(|s| *s), "unused parameter: {lifted} with {params:?}");
        // Equal literals share one parameter; SQL-equal ones of different
        // types (1 and 1.0) do not.
        let mut distinct: Vec<String> = params.iter().map(debug).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), params.len(), "{:?}", params);
        let mut literals = Vec::new();
        e.visit(&mut |node| {
            if let Expr::Lit(d) = node {
                if !matches!(d, Datum::Bool(_) | Datum::Null) {
                    literals.push(debug(d));
                }
            }
        });
        literals.sort();
        literals.dedup();
        prop_assert_eq!(literals.len(), params.len());
    }

    #[test]
    fn statements_differing_only_in_values_share_a_shape(e in arb_expr()) {
        let (mut a, mut b) = (e.clone(), other_values(&e));
        let (params_a, params_b) = (lift_expr(&mut a), lift_expr(&mut b));
        prop_assert_eq!(debug(&a), debug(&b));
        prop_assert_eq!(params_a.len(), params_b.len());
        // And the shared template binds to each statement's own text.
        bind_expr(&mut a, &params_b);
        prop_assert_eq!(debug(&a), debug(&other_values(&e)));
    }
}
