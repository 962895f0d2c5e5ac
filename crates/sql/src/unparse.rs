//! AST → SQL text renderer.
//!
//! The inverse of the [`crate::parser`]: renders a [`Query`] back to a SQL
//! string that re-parses to an equivalent AST. The fuzzer builds query ASTs
//! directly, then renders them here both to feed the cluster front end
//! (which only accepts text) and to persist minimized reproducers as
//! self-contained fixtures. Rendering is deliberately parenthesis-heavy:
//! every binary expression is wrapped, so operator precedence can never
//! make render(parse(s)) diverge from s's tree.
//!
//! Restrictions mirror the parser's grammar: join trees must be left-deep
//! (the grammar has no parenthesized table refs), and negative integer
//! literals render as `(0 - n)` exactly as the parser desugars unary minus.

use crate::ast::*;
use ic_common::BinOp;
use std::fmt::Write as _;

/// Render a query to SQL text.
pub fn unparse(q: &Query) -> String {
    let mut s = String::new();
    write_query(&mut s, q);
    s
}

fn write_query(out: &mut String, q: &Query) {
    out.push_str("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in q.select.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                let _ = write!(out, "{t}.*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr);
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    out.push_str(" FROM ");
    for (i, tr) in q.from.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_table_ref(out, tr);
    }
    if let Some(w) = &q.where_clause {
        out.push_str(" WHERE ");
        write_expr(out, w);
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in q.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, g);
        }
    }
    if let Some(h) = &q.having {
        out.push_str(" HAVING ");
        write_expr(out, h);
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, k) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &k.expr);
            if k.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
}

fn write_table_ref(out: &mut String, tr: &TableRef) {
    match tr {
        TableRef::Table { name, alias } => {
            out.push_str(name);
            if let Some(a) = alias {
                let _ = write!(out, " AS {a}");
            }
        }
        TableRef::Derived { query, alias } => {
            out.push('(');
            write_query(out, query);
            let _ = write!(out, ") AS {alias}");
        }
        TableRef::Join { left, right, kind, on } => {
            // The grammar is left-deep only: a Join on the right side has
            // no textual form (no parenthesized table refs).
            write_table_ref(out, left);
            out.push_str(match kind {
                AstJoinKind::Inner => " INNER JOIN ",
                AstJoinKind::Left => " LEFT JOIN ",
            });
            write_table_ref(out, right);
            out.push_str(" ON ");
            write_expr(out, on);
        }
    }
}

fn op_text(op: BinOp) -> &'static str {
    match op {
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
    }
}

fn write_expr(out: &mut String, e: &AstExpr) {
    match e {
        AstExpr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                let _ = write!(out, "{q}.");
            }
            out.push_str(name);
        }
        AstExpr::IntLit(v) => {
            // The parser has no negative literals; it desugars unary
            // minus to `0 - x`, so render the same shape.
            if *v < 0 {
                let _ = write!(out, "(0 - {})", v.unsigned_abs());
            } else {
                let _ = write!(out, "{v}");
            }
        }
        AstExpr::NumberLit(v) => {
            if *v < 0.0 {
                let _ = write!(out, "(0 - {})", fmt_f64(-*v));
            } else {
                out.push_str(&fmt_f64(*v));
            }
        }
        AstExpr::StringLit(s) => {
            let _ = write!(out, "'{}'", s.replace('\'', "''"));
        }
        AstExpr::DateLit(s) => {
            let _ = write!(out, "DATE '{s}'");
        }
        AstExpr::IntervalLit { value, unit } => {
            let u = match unit {
                IntervalUnit::Day => "DAY",
                IntervalUnit::Month => "MONTH",
                IntervalUnit::Year => "YEAR",
            };
            let _ = write!(out, "INTERVAL '{value}' {u}");
        }
        AstExpr::Binary { op, left, right } => {
            out.push('(');
            write_expr(out, left);
            let _ = write!(out, " {} ", op_text(*op));
            write_expr(out, right);
            out.push(')');
        }
        AstExpr::Not(inner) => {
            out.push_str("NOT (");
            write_expr(out, inner);
            out.push(')');
        }
        AstExpr::IsNull { expr, negated } => {
            write_operand(out, expr);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        AstExpr::Like { expr, pattern, negated } => {
            write_operand(out, expr);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_operand(out, pattern);
        }
        AstExpr::Between { expr, low, high, negated } => {
            write_operand(out, expr);
            out.push_str(if *negated { " NOT BETWEEN " } else { " BETWEEN " });
            write_operand(out, low);
            out.push_str(" AND ");
            write_operand(out, high);
        }
        AstExpr::InList { expr, list, negated } => {
            write_operand(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item);
            }
            out.push(')');
        }
        AstExpr::InSubquery { expr, query, negated } => {
            write_operand(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            write_query(out, query);
            out.push(')');
        }
        AstExpr::Exists { query, negated } => {
            out.push_str(if *negated { "NOT EXISTS (" } else { "EXISTS (" });
            write_query(out, query);
            out.push(')');
        }
        AstExpr::ScalarSubquery(query) => {
            out.push('(');
            write_query(out, query);
            out.push(')');
        }
        AstExpr::Case { whens, else_ } => {
            out.push_str("CASE");
            for (cond, val) in whens {
                out.push_str(" WHEN ");
                write_expr(out, cond);
                out.push_str(" THEN ");
                write_expr(out, val);
            }
            if let Some(e) = else_ {
                out.push_str(" ELSE ");
                write_expr(out, e);
            }
            out.push_str(" END");
        }
        AstExpr::AggCall { func, distinct, arg } => {
            let _ = write!(out, "{func}(");
            match arg {
                None => out.push('*'),
                Some(a) => {
                    if *distinct {
                        out.push_str("DISTINCT ");
                    }
                    write_expr(out, a);
                }
            }
            out.push(')');
        }
        AstExpr::Extract { field, expr } => {
            let _ = write!(out, "EXTRACT({field} FROM ");
            write_expr(out, expr);
            out.push(')');
        }
        AstExpr::Substring { expr, start, len } => {
            out.push_str("SUBSTRING(");
            write_expr(out, expr);
            out.push_str(" FROM ");
            write_expr(out, start);
            out.push_str(" FOR ");
            write_expr(out, len);
            out.push(')');
        }
        AstExpr::Func { name, args } => {
            let _ = write!(out, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
    }
}

/// Render an operand of a LIKE/BETWEEN/IN/IS predicate. These positions
/// parse at `parse_additive` level, so comparison/logical operands and
/// nested predicates must be parenthesized to survive the round trip;
/// parens around everything except simple atoms keeps the rule local.
fn write_operand(out: &mut String, e: &AstExpr) {
    match e {
        AstExpr::Column { .. }
        | AstExpr::IntLit(_)
        | AstExpr::NumberLit(_)
        | AstExpr::StringLit(_)
        | AstExpr::DateLit(_)
        | AstExpr::IntervalLit { .. }
        | AstExpr::Binary { .. }
        | AstExpr::ScalarSubquery(_)
        | AstExpr::Case { .. }
        | AstExpr::AggCall { .. }
        | AstExpr::Extract { .. }
        | AstExpr::Substring { .. }
        | AstExpr::Func { .. } => write_expr(out, e),
        other => {
            out.push('(');
            write_expr(out, other);
            out.push(')');
        }
    }
}

/// Shortest-round-trip float text that still lexes as a float (keeps a
/// decimal point so `2.0` does not come back as the integer `2`).
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        // inf and NaN never round-trip through the lexer (`{v}` writes no
        // exponent); the generator only produces finite plain decimals.
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;

    /// render → parse → render must be a fixed point.
    fn round_trip(sql: &str) {
        let Statement::Query(q1) = parse_sql(sql).unwrap() else {
            panic!("not a query: {sql}");
        };
        let r1 = unparse(&q1);
        let Statement::Query(q2) = parse_sql(&r1).unwrap_or_else(|e| {
            panic!("rendered SQL failed to parse: {e}\n  input: {sql}\n  rendered: {r1}")
        }) else {
            panic!("rendered to non-query: {r1}");
        };
        assert_eq!(q1, q2, "AST changed across round trip:\n  input: {sql}\n  rendered: {r1}");
        assert_eq!(r1, unparse(&q2));
    }

    #[test]
    fn round_trips() {
        round_trip("SELECT * FROM lineitem");
        round_trip("SELECT a.b AS x, 1 + 2 * 3, count(*) FROM t AS a WHERE x <> 'it''s'");
        round_trip(
            "SELECT DISTINCT t0.a FROM t AS t0 LEFT JOIN u AS t1 ON t0.k = t1.k \
             WHERE t0.a BETWEEN 1 AND 10 AND t0.b NOT LIKE '%x%' ORDER BY 1 DESC LIMIT 5",
        );
        round_trip(
            "SELECT sum(x) AS s FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k) \
             GROUP BY g HAVING count(*) > 2",
        );
        round_trip(
            "SELECT CASE WHEN a IS NULL THEN 0 ELSE a END FROM t \
             WHERE b IN (1, 2, 3) AND c IN (SELECT d FROM u) AND NOT (e = 1)",
        );
        round_trip("SELECT EXTRACT(year FROM d), SUBSTRING(s FROM 1 FOR 3) FROM t");
        round_trip(
            "SELECT o_orderdate + INTERVAL '3' MONTH FROM orders \
             WHERE o_orderdate < DATE '1995-01-01'",
        );
        round_trip("SELECT (SELECT max(x) FROM u) FROM t WHERE a > 1.5 AND b = 2.0");
        round_trip("SELECT x FROM (SELECT a AS x FROM t WHERE a > 0) AS d WHERE x < 10");
        round_trip("SELECT -x, 0 - 5 FROM t");
    }

    #[test]
    fn negative_and_float_literals() {
        let Statement::Query(q) = parse_sql("SELECT 2.0, x FROM t").unwrap() else {
            unreachable!()
        };
        assert_eq!(unparse(&q), "SELECT 2.0, x FROM t");
        let neg = Query {
            select: vec![SelectItem::Expr { expr: AstExpr::IntLit(-5), alias: None }],
            ..q
        };
        round_trip(&unparse(&neg));
    }
}
