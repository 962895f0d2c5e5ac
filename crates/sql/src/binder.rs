//! Name resolution, type checking, constant folding and subquery
//! decorrelation: AST → [`LogicalPlan`]. Types are decided here, once: a
//! bound plan leaves through [`coerce_plan`] (DML expressions through
//! [`coerce_to`]), so every expression the planner and executor see is
//! already coerced.
//!
//! Subqueries are unnested at bind time, the way Calcite's
//! `SubQueryRemoveRule`/decorrelator does, producing joins flagged
//! `from_correlate` (§4.1's FILTER_CORRELATE rule operates on exactly
//! these):
//!
//! * `EXISTS` / `NOT EXISTS` → semi / anti join on the correlated
//!   predicates (mixed non-equi conditions stay in the join condition, as
//!   in TPC-H Q21).
//! * `x IN (SELECT …)` / `NOT IN` → semi / anti join on the output column.
//! * Uncorrelated scalar subqueries → a single-row aggregate cross-joined
//!   into the plan (TPC-H Q11, Q22).
//! * Correlated scalar aggregates (`op (SELECT agg(x) … WHERE a = outer.b)`)
//!   → aggregate the subquery grouped by its correlation keys and join on
//!   them (TPC-H Q2, Q17).
//!
//! An `IN` subquery must be uncorrelated: one that refers to the enclosing
//! query at any depth — say, a scalar aggregate inside it correlated with
//! the outer row — is rejected with [`IcError::Unsupported`], as is a
//! subquery nested inside `EXISTS`. TPC-H Q20 nests its correlated
//! aggregate inside an *uncorrelated* `IN` subquery, so it binds and runs
//! (the paper excludes Q20 for an unresolved planner bug of its own).

use crate::ast::*;
use ic_common::agg::AggFunc;
use ic_common::{
    dates, BinOp, ColumnBatch, DataType, Datum, Expr, FuncKind, FxHashMap, IcError, IcResult, Row,
};
use ic_plan::coerce::{coerce_plan, coerce_to};
use ic_plan::dml::BoundDml;
use ic_plan::ops::{AggCall, JoinKind, LogicalPlan, RelOp, SortKey};
use ic_storage::{Catalog, TableDef, TableDistribution, WriteOp};
use std::sync::Arc;

/// A bound query: the logical plan plus its output column names.
#[derive(Debug, Clone)]
pub struct Bound {
    pub plan: Arc<LogicalPlan>,
    pub output_names: Vec<String>,
}

/// Bind a parsed query against the catalog and coerce it.
pub fn bind_statement(query: &Query, catalog: &Catalog) -> IcResult<Bound> {
    let bound = Binder { catalog }.bind_query(query)?;
    Ok(Bound { plan: coerce_plan(&bound.plan)?, ..bound })
}

/// Bind a parsed DML statement: resolve the table, type-check values and
/// assignments, and produce the typed write op the optimizer routes.
pub fn bind_dml(stmt: &Statement, catalog: &Catalog) -> IcResult<BoundDml> {
    let b = Binder { catalog };
    match stmt {
        Statement::Insert(i) => b.bind_insert(i),
        Statement::Update(u) => b.bind_update(u),
        Statement::Delete(d) => b.bind_delete(d),
        _ => Err(IcError::Internal("bind_dml called on a non-DML statement".into())),
    }
}

/// Name scope: flattened `(qualifier, column)` pairs whose positions are
/// plan output positions.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<(Option<String>, String)>,
    /// Columns at or past this index shadow earlier ones on ambiguity —
    /// subquery (inner) scopes shadow the outer scope, per SQL rules.
    prefer_from: usize,
}

impl Scope {
    fn len(&self) -> usize {
        self.cols.len()
    }

    fn add_table(&mut self, qualifier: &str, names: &[String]) {
        for n in names {
            self.cols.push((Some(qualifier.to_ascii_lowercase()), n.to_ascii_lowercase()));
        }
    }

    fn concat(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols, prefer_from: 0 }
    }

    /// Mark columns from `boundary` onward as the inner (shadowing) scope.
    fn with_preference(mut self, boundary: usize) -> Scope {
        self.prefer_from = boundary;
        self
    }

    fn resolve(&self, qualifier: &Option<String>, name: &str) -> IcResult<usize> {
        let name = name.to_ascii_lowercase();
        let qualifier = qualifier.as_ref().map(|q| q.to_ascii_lowercase());
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (q, n))| {
                *n == name && qualifier.as_ref().is_none_or(|want| q.as_deref() == Some(want))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(IcError::Bind(format!(
                "unknown column '{}{name}'",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => {
                // Inner scope shadows outer (correlated subqueries).
                let inner: Vec<usize> =
                    matches.iter().copied().filter(|&i| i >= self.prefer_from).collect();
                if inner.len() == 1 {
                    Ok(inner[0])
                } else {
                    Err(IcError::Bind(format!("ambiguous column '{name}'")))
                }
            }
        }
    }
}

struct Binder<'a> {
    catalog: &'a Catalog,
}

/// One pending aggregate call discovered in the select/having lists.
#[derive(Debug, Clone, PartialEq)]
struct PendingAgg {
    func: AggFunc,
    arg: Option<Expr>,
}

impl<'a> Binder<'a> {
    // ------------------------------------------------------------- queries

    fn bind_query(&self, q: &Query) -> IcResult<Bound> {
        // FROM
        let (mut plan, scope) = self.bind_from(&q.from)?;

        // WHERE (subqueries decorrelated here; plan may gain appended
        // scalar-subquery columns, tracked in `placeholders`).
        let mut placeholders: Vec<usize> = Vec::new();
        if let Some(w) = &q.where_clause {
            plan = self.bind_predicate(plan, &scope, w, &mut placeholders)?;
        }

        let has_aggs = !q.group_by.is_empty()
            || q.select.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || q.having.as_ref().is_some_and(|h| h.contains_aggregate());

        let (mut plan, mut output_names, out_arity) = if has_aggs {
            let (p, names) = self.bind_aggregate_query(plan, &scope, q, &placeholders)?;
            let arity = p.schema.arity();
            (p, names, arity)
        } else {
            if q.having.is_some() {
                return Err(IcError::Bind("HAVING without aggregation".into()));
            }
            // Plain projection.
            let mut exprs = Vec::new();
            let mut names = Vec::new();
            for item in &q.select {
                match item {
                    SelectItem::Wildcard => {
                        for (i, (_, n)) in scope.cols.iter().enumerate() {
                            exprs.push(Expr::col(i));
                            names.push(n.clone());
                        }
                    }
                    SelectItem::QualifiedWildcard(qual) => {
                        let qual = qual.to_ascii_lowercase();
                        for (i, (q2, n)) in scope.cols.iter().enumerate() {
                            if q2.as_deref() == Some(qual.as_str()) {
                                exprs.push(Expr::col(i));
                                names.push(n.clone());
                            }
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = self.bind_scalar(expr, &scope, &placeholders, scope.len())?;
                        names.push(alias.clone().unwrap_or_else(|| default_name(expr, names.len())));
                        exprs.push(bound);
                    }
                }
            }
            let arity = exprs.len();
            let output = names.clone();
            let projected = LogicalPlan::new(RelOp::Project { input: plan, exprs, names })?;
            (projected, output, arity)
        };

        // DISTINCT → group by all output columns.
        if q.distinct {
            plan = LogicalPlan::new(RelOp::Aggregate {
                input: plan,
                group: (0..out_arity).collect(),
                aggs: vec![],
            })?;
        }

        // ORDER BY over the output columns (name, alias or ordinal).
        if !q.order_by.is_empty() {
            let mut keys = Vec::new();
            for k in &q.order_by {
                let col = self.resolve_order_key(&k.expr, &output_names)?;
                keys.push(SortKey { col, desc: k.desc });
            }
            plan = LogicalPlan::new(RelOp::Sort { input: plan, keys })?;
        }

        if let Some(limit) = q.limit {
            plan = LogicalPlan::new(RelOp::Limit { input: plan, fetch: Some(limit), offset: 0 })?;
        }

        // Deduplicate output names for downstream schema sanity.
        dedup_names(&mut output_names);
        Ok(Bound { plan, output_names })
    }

    fn resolve_order_key(&self, expr: &AstExpr, output_names: &[String]) -> IcResult<usize> {
        match expr {
            AstExpr::IntLit(n) => {
                let idx = *n as usize;
                if idx >= 1 && idx <= output_names.len() {
                    Ok(idx - 1)
                } else {
                    Err(IcError::Bind(format!("ORDER BY position {n} out of range")))
                }
            }
            AstExpr::Column { name, .. } => output_names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    IcError::Bind(format!("ORDER BY column '{name}' is not in the select list"))
                }),
            other => Err(IcError::Unsupported(format!(
                "ORDER BY expressions must be output columns or ordinals, got {other:?}"
            ))),
        }
    }

    // ---------------------------------------------------------------- FROM

    fn bind_from(&self, from: &[TableRef]) -> IcResult<(Arc<LogicalPlan>, Scope)> {
        let mut acc: Option<(Arc<LogicalPlan>, Scope)> = None;
        for tr in from {
            let (plan, scope) = self.bind_table_ref(tr)?;
            acc = Some(match acc {
                None => (plan, scope),
                Some((lp, ls)) => {
                    let joined = LogicalPlan::new(RelOp::Join {
                        left: lp,
                        right: plan,
                        kind: JoinKind::Inner,
                        on: Expr::lit(true),
                        from_correlate: false,
                    })?;
                    (joined, ls.concat(&scope))
                }
            });
        }
        acc.ok_or_else(|| IcError::Bind("empty FROM clause".into()))
    }

    fn bind_table_ref(&self, tr: &TableRef) -> IcResult<(Arc<LogicalPlan>, Scope)> {
        match tr {
            TableRef::Table { name, alias } => {
                let id = self
                    .catalog
                    .table_by_name(name)
                    .ok_or_else(|| IcError::Bind(format!("unknown table '{name}'")))?;
                let def = self.catalog.table_def(id).ok_or_else(|| {
                    IcError::Internal(format!(
                        "catalog resolved '{name}' to {id:?} but has no definition for it"
                    ))
                })?;
                let plan = LogicalPlan::new(RelOp::Scan {
                    table: id,
                    name: name.clone(),
                    schema: def.schema.clone(),
                })?;
                let mut scope = Scope::default();
                let names: Vec<String> =
                    def.schema.fields().iter().map(|f| f.name.clone()).collect();
                scope.add_table(alias.as_deref().unwrap_or(name), &names);
                Ok((plan, scope))
            }
            TableRef::Derived { query, alias } => {
                let bound = self.bind_query(query)?;
                let mut scope = Scope::default();
                scope.add_table(alias, &bound.output_names);
                Ok((bound.plan, scope))
            }
            TableRef::Join { left, right, kind, on } => {
                let (lp, ls) = self.bind_table_ref(left)?;
                let (rp, rs) = self.bind_table_ref(right)?;
                let scope = ls.concat(&rs);
                let cond = self.bind_scalar(on, &scope, &[], scope.len())?;
                let kind = match kind {
                    AstJoinKind::Inner => JoinKind::Inner,
                    AstJoinKind::Left => JoinKind::Left,
                };
                let plan = LogicalPlan::new(RelOp::Join {
                    left: lp,
                    right: rp,
                    kind,
                    on: cond,
                    from_correlate: false,
                })?;
                Ok((plan, scope))
            }
        }
    }

    // --------------------------------------------------- WHERE / subqueries

    /// Bind a predicate, decorrelating any subqueries into joins on `plan`.
    /// `placeholders` records plan columns holding scalar-subquery values.
    fn bind_predicate(
        &self,
        mut plan: Arc<LogicalPlan>,
        scope: &Scope,
        pred: &AstExpr,
        placeholders: &mut Vec<usize>,
    ) -> IcResult<Arc<LogicalPlan>> {
        let conjuncts = split_ast_conjuncts(pred);
        let mut residual: Vec<AstExpr> = Vec::new();
        // First pass: subquery-bearing conjuncts become joins.
        for conj in conjuncts {
            match &conj {
                AstExpr::Exists { query, negated } => {
                    plan = self.bind_exists(plan, scope, query, *negated)?;
                }
                AstExpr::InSubquery { expr, query, negated } => {
                    plan = self.bind_in_subquery(plan, scope, expr, query, *negated)?;
                }
                other if ast_contains_scalar_subquery(other) => {
                    let (rewritten, queries) = extract_scalar_subqueries((*other).clone());
                    for q in queries {
                        let (new_plan, col) = self.attach_scalar_subquery(plan, scope, &q)?;
                        plan = new_plan;
                        placeholders.push(col);
                    }
                    residual.push(rewritten);
                }
                other => residual.push((*other).clone()),
            }
        }
        // Second pass: the remaining conjuncts form one filter.
        if !residual.is_empty() {
            let plan_arity = plan.schema.arity();
            let bound: Vec<Expr> = residual
                .iter()
                .map(|c| self.bind_scalar(c, scope, placeholders, plan_arity))
                .collect::<IcResult<_>>()?;
            plan = LogicalPlan::new(RelOp::Filter {
                input: plan,
                predicate: Expr::conjunction(bound),
            })?;
        }
        Ok(plan)
    }

    /// EXISTS / NOT EXISTS → semi / anti join, with correlated conditions
    /// as the join predicate.
    fn bind_exists(
        &self,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
        query: &Query,
        negated: bool,
    ) -> IcResult<Arc<LogicalPlan>> {
        let (mut splan, sscope) = self.bind_from(&query.from)?;
        let combined = scope.concat(&sscope).with_preference(scope.len());
        let outer_len = scope.len();
        let plan_arity = plan.schema.arity();
        let mut join_conds: Vec<Expr> = Vec::new();
        let mut local: Vec<Expr> = Vec::new();
        if let Some(w) = &query.where_clause {
            for conj in split_ast_conjuncts(w) {
                if ast_contains_subquery(conj) {
                    return Err(IcError::Unsupported(
                        "nested subqueries inside EXISTS are not supported".into(),
                    ));
                }
                let bound = self.bind_scalar(conj, &combined, &[], combined.len())?;
                let cols = bound.columns();
                if !cols.is_empty() && cols.iter().all(|&c| c >= outer_len) {
                    local.push(bound.shift(outer_len, -(outer_len as isize)));
                } else {
                    // Correlated (or constant) condition: re-base subquery
                    // columns onto the join space (left = full plan arity).
                    let delta = plan_arity as isize - outer_len as isize;
                    join_conds.push(bound.shift(outer_len, delta));
                }
            }
        }
        if !local.is_empty() {
            splan = LogicalPlan::new(RelOp::Filter {
                input: splan,
                predicate: Expr::conjunction(local),
            })?;
        }
        LogicalPlan::new(RelOp::Join {
            left: plan,
            right: splan,
            kind: if negated { JoinKind::Anti } else { JoinKind::Semi },
            on: Expr::conjunction(join_conds),
            from_correlate: true,
        })
    }

    /// `x IN (SELECT …)` / `NOT IN` → semi / anti join on the subquery's
    /// (single) output column. The subquery must be uncorrelated.
    fn bind_in_subquery(
        &self,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
        expr: &AstExpr,
        query: &Query,
        negated: bool,
    ) -> IcResult<Arc<LogicalPlan>> {
        let sub = self.bind_query(query).map_err(|e| match e {
            IcError::Bind(m) => IcError::Unsupported(format!(
                "correlated IN subqueries are not supported ({m})"
            )),
            other => other,
        })?;
        if sub.plan.schema.arity() != 1 {
            return Err(IcError::Bind("IN subquery must produce one column".into()));
        }
        let plan_arity = plan.schema.arity();
        let probe = self.bind_scalar(expr, scope, &[], plan_arity)?;
        let on = Expr::eq(probe, Expr::col(plan_arity));
        LogicalPlan::new(RelOp::Join {
            left: plan,
            right: sub.plan,
            kind: if negated { JoinKind::Anti } else { JoinKind::Semi },
            on,
            from_correlate: true,
        })
    }

    /// Attach a scalar subquery's value to the plan as an extra column.
    fn attach_scalar_subquery(
        &self,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
        query: &Query,
    ) -> IcResult<(Arc<LogicalPlan>, usize)> {
        // Uncorrelated first: a standalone single-row aggregate.
        match self.bind_query(query) {
            Ok(sub) => {
                let guaranteed_single_row = query.group_by.is_empty()
                    && query.select.iter().all(|s| match s {
                        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                        _ => false,
                    });
                if !guaranteed_single_row {
                    return Err(IcError::Unsupported(
                        "scalar subqueries must be single-row aggregates".into(),
                    ));
                }
                let col = plan.schema.arity();
                let joined = LogicalPlan::new(RelOp::Join {
                    left: plan,
                    right: sub.plan,
                    kind: JoinKind::Inner,
                    on: Expr::lit(true),
                    from_correlate: true,
                })?;
                Ok((joined, col))
            }
            Err(IcError::Bind(_)) => self.attach_correlated_scalar(plan, scope, query),
            Err(other) => Err(other),
        }
    }

    /// Correlated scalar aggregate (TPC-H Q2/Q17): aggregate the subquery
    /// grouped by its correlation keys, then join on them.
    fn attach_correlated_scalar(
        &self,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
        query: &Query,
    ) -> IcResult<(Arc<LogicalPlan>, usize)> {
        // Shape check: single aggregate select item, no grouping.
        if !query.group_by.is_empty() || query.select.len() != 1 {
            return Err(IcError::Unsupported(
                "unsupported correlated scalar subquery shape".into(),
            ));
        }
        let SelectItem::Expr { expr: AstExpr::AggCall { func, distinct, arg }, .. } =
            &query.select[0]
        else {
            return Err(IcError::Unsupported(
                "correlated scalar subqueries must select a single aggregate".into(),
            ));
        };
        let (mut splan, sscope) = self.bind_from(&query.from)?;
        let combined = scope.concat(&sscope).with_preference(scope.len());
        let outer_len = scope.len();
        let mut local: Vec<Expr> = Vec::new();
        let mut corr_pairs: Vec<(usize, usize)> = Vec::new(); // (outer, sub)
        if let Some(w) = &query.where_clause {
            for conj in split_ast_conjuncts(w) {
                if ast_contains_subquery(conj) {
                    return Err(IcError::Unsupported(
                        "doubly-nested correlated subqueries are not supported".into(),
                    ));
                }
                let bound = self.bind_scalar(conj, &combined, &[], combined.len())?;
                let cols = bound.columns();
                if !cols.is_empty() && cols.iter().all(|&c| c >= outer_len) {
                    local.push(bound.shift(outer_len, -(outer_len as isize)));
                } else if let Expr::Binary { op: BinOp::Eq, left, right } = &bound {
                    // Must be outer_col = sub_col.
                    match (left.as_ref(), right.as_ref()) {
                        (Expr::Col(a), Expr::Col(b)) if *a < outer_len && *b >= outer_len => {
                            corr_pairs.push((*a, *b - outer_len));
                        }
                        (Expr::Col(b), Expr::Col(a)) if *a < outer_len && *b >= outer_len => {
                            corr_pairs.push((*a, *b - outer_len));
                        }
                        _ => {
                            return Err(IcError::Unsupported(
                                "correlated scalar subqueries support equi-correlation only".into(),
                            ))
                        }
                    }
                } else {
                    return Err(IcError::Unsupported(
                        "correlated scalar subqueries support equi-correlation only".into(),
                    ));
                }
            }
        }
        if corr_pairs.is_empty() {
            return Err(IcError::Bind("expected correlated predicates".into()));
        }
        if !local.is_empty() {
            splan = LogicalPlan::new(RelOp::Filter {
                input: splan,
                predicate: Expr::conjunction(local),
            })?;
        }
        // Aggregate grouped by the subquery-side correlation keys.
        let agg_func = agg_func_of(func, *distinct)?;
        let agg_arg = arg
            .as_ref()
            .map(|a| {
                self.bind_scalar(a, &combined, &[], combined.len())
                    .map(|e| e.shift(outer_len, -(outer_len as isize)))
            })
            .transpose()?;
        let mut group: Vec<usize> = corr_pairs.iter().map(|&(_, s)| s).collect();
        group.dedup();
        let agg = LogicalPlan::new(RelOp::Aggregate {
            input: splan,
            group: group.clone(),
            aggs: vec![AggCall { func: agg_func, arg: agg_arg, name: "sq_agg".into() }],
        })?;
        // Join plan ⋈ agg on the correlation keys.
        let plan_arity = plan.schema.arity();
        let on = Expr::conjunction(
            corr_pairs
                .iter()
                .map(|&(outer, sub)| {
                    let gpos = group.iter().position(|&g| g == sub).ok_or_else(|| {
                        IcError::Internal(format!(
                            "correlation key {sub} missing from subquery group {group:?}"
                        ))
                    })?;
                    Ok(Expr::eq(Expr::col(outer), Expr::col(plan_arity + gpos)))
                })
                .collect::<IcResult<Vec<_>>>()?,
        );
        let value_col = plan_arity + group.len();
        let joined = LogicalPlan::new(RelOp::Join {
            left: plan,
            right: agg,
            kind: JoinKind::Inner,
            on,
            from_correlate: true,
        })?;
        Ok((joined, value_col))
    }

    // ---------------------------------------------------------- aggregates

    fn bind_aggregate_query(
        &self,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
        q: &Query,
        placeholders: &[usize],
    ) -> IcResult<(Arc<LogicalPlan>, Vec<String>)> {
        let plan_arity = plan.schema.arity();
        // Bind group expressions; non-column expressions get a pre-project.
        let group_bound: Vec<Expr> = q
            .group_by
            .iter()
            .map(|g| self.bind_scalar(g, scope, placeholders, plan_arity))
            .collect::<IcResult<_>>()?;
        let (agg_input, group_cols, group_bound) = if group_bound
            .iter()
            .all(|g| matches!(g, Expr::Col(_)))
        {
            let cols: Vec<usize> = group_bound
                .iter()
                .map(|g| match g {
                    Expr::Col(c) => *c,
                    _ => unreachable!(),
                })
                .collect();
            (plan, cols, group_bound)
        } else {
            // Pre-project: identity columns plus the computed group exprs.
            let mut exprs: Vec<Expr> = (0..plan_arity).map(Expr::col).collect();
            let mut names: Vec<String> =
                plan.schema.fields().iter().map(|f| f.name.clone()).collect();
            let mut cols = Vec::new();
            for g in &group_bound {
                match g {
                    Expr::Col(c) => cols.push(*c),
                    other => {
                        cols.push(exprs.len());
                        names.push(format!("gexpr{}", exprs.len()));
                        exprs.push(other.clone());
                    }
                }
            }
            dedup_names(&mut names);
            let projected = LogicalPlan::new(RelOp::Project { input: plan, exprs, names })?;
            (projected, cols, group_bound)
        };

        // Collect aggregate calls from SELECT and HAVING.
        let mut pending: Vec<PendingAgg> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut post_agg_items: Vec<AstExpr> = Vec::new();
        for item in &q.select {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(IcError::Bind("SELECT * is invalid with GROUP BY".into()));
            };
            names.push(alias.clone().unwrap_or_else(|| default_name(expr, names.len())));
            post_agg_items.push(expr.clone());
        }

        // HAVING may carry scalar subqueries (TPC-H Q11); attach them to
        // the post-aggregate plan below, after the aggregate is built.
        let group_len = group_cols.len();
        let agg_input_arity = agg_input.schema.arity();
        for item in &post_agg_items {
            self.collect_aggs(item, scope, placeholders, agg_input_arity, &mut pending)?;
        }
        let mut having_ast = q.having.clone();
        let mut having_queries: Vec<Query> = Vec::new();
        if let Some(h) = &having_ast {
            if ast_contains_scalar_subquery(h) {
                let (rewritten, queries) = extract_scalar_subqueries(h.clone());
                having_ast = Some(rewritten);
                having_queries = queries;
            }
        }
        if let Some(h) = &having_ast {
            self.collect_aggs(h, scope, placeholders, agg_input_arity, &mut pending)?;
        }

        let aggs: Vec<AggCall> = pending
            .iter()
            .enumerate()
            .map(|(i, p)| AggCall { func: p.func, arg: p.arg.clone(), name: format!("agg{i}") })
            .collect();
        let mut agg_plan = LogicalPlan::new(RelOp::Aggregate {
            input: agg_input,
            group: group_cols.clone(),
            aggs,
        })?;

        // Attach HAVING's scalar subqueries to the aggregated plan.
        let mut having_placeholder_cols: Vec<usize> = Vec::new();
        for sq in &having_queries {
            let (p, col) = self.attach_scalar_subquery(agg_plan, &Scope::default(), sq)?;
            agg_plan = p;
            having_placeholder_cols.push(col);
        }

        // HAVING filter over the aggregate output.
        if let Some(h) = &having_ast {
            let bound = self.bind_post_agg(
                h,
                scope,
                placeholders,
                &group_bound,
                &group_cols,
                &pending,
                group_len,
                &having_placeholder_cols,
            )?;
            agg_plan = LogicalPlan::new(RelOp::Filter { input: agg_plan, predicate: bound })?;
        }

        // Final projection computing the select expressions.
        let mut exprs = Vec::new();
        for item in &post_agg_items {
            exprs.push(self.bind_post_agg(
                item,
                scope,
                placeholders,
                &group_bound,
                &group_cols,
                &pending,
                group_len,
                &having_placeholder_cols,
            )?);
        }
        dedup_names(&mut names);
        let plan = LogicalPlan::new(RelOp::Project {
            input: agg_plan,
            exprs,
            names: names.clone(),
        })?;
        Ok((plan, names))
    }

    /// Register every aggregate call appearing in `expr`.
    fn collect_aggs(
        &self,
        expr: &AstExpr,
        scope: &Scope,
        placeholders: &[usize],
        input_arity: usize,
        pending: &mut Vec<PendingAgg>,
    ) -> IcResult<()> {
        if let AstExpr::AggCall { func, distinct, arg } = expr {
            let func = agg_func_of(func, *distinct)?;
            let arg = arg
                .as_ref()
                .map(|a| self.bind_scalar(a, scope, placeholders, input_arity))
                .transpose()?;
            let p = PendingAgg { func, arg };
            if !pending.contains(&p) {
                pending.push(p);
            }
            return Ok(());
        }
        for child in ast_children(expr) {
            self.collect_aggs(child, scope, placeholders, input_arity, pending)?;
        }
        Ok(())
    }

    /// Bind an expression over the aggregate's output: group expressions
    /// map to group columns, aggregate calls to aggregate columns,
    /// `$having` placeholders to attached scalar-subquery columns.
    #[expect(clippy::too_many_arguments, reason = "the post-aggregate scope is these slices; bundling them would add a type used once")]
    fn bind_post_agg(
        &self,
        expr: &AstExpr,
        scope: &Scope,
        placeholders: &[usize],
        group_bound: &[Expr],
        group_cols: &[usize],
        pending: &[PendingAgg],
        group_len: usize,
        having_cols: &[usize],
    ) -> IcResult<Expr> {
        // Aggregate call?
        if let AstExpr::AggCall { func, distinct, arg } = expr {
            let func = agg_func_of(func, *distinct)?;
            let arg = arg
                .as_ref()
                .map(|a| self.bind_scalar(a, scope, placeholders, usize::MAX))
                .transpose()?;
            let p = PendingAgg { func, arg };
            let idx = pending
                .iter()
                .position(|x| *x == p)
                .ok_or_else(|| IcError::Bind("aggregate not collected".into()))?;
            return Ok(Expr::col(group_len + idx));
        }
        // $sq placeholder from a HAVING scalar subquery?
        if let AstExpr::Column { qualifier: Some(q), name } = expr {
            if q == "$sq" {
                let idx: usize = name
                    .parse()
                    .map_err(|_| IcError::Bind("bad scalar placeholder".into()))?;
                if let Some(&col) = having_cols.get(idx) {
                    return Ok(Expr::col(col));
                }
            }
        }
        // Whole expression equals a group expression?
        if !expr.contains_aggregate() {
            if let Ok(bound) = self.bind_scalar(expr, scope, placeholders, usize::MAX) {
                // Simple column matching a group input column.
                if let Expr::Col(c) = &bound {
                    if let Some(pos) = group_cols.iter().position(|g| g == c) {
                        return Ok(Expr::col(pos));
                    }
                }
                if let Some(pos) = group_bound.iter().position(|g| *g == bound) {
                    return Ok(Expr::col(pos));
                }
                // Constant expressions pass through.
                if bound.columns().is_empty() {
                    return Ok(bound);
                }
            }
        }
        // Otherwise recurse structurally.
        let rebind = |e: &AstExpr| {
            self.bind_post_agg(e, scope, placeholders, group_bound, group_cols, pending, group_len, having_cols)
        };
        match expr {
            AstExpr::Binary { op, left, right } => {
                Ok(Expr::binary(*op, rebind(left)?, rebind(right)?))
            }
            AstExpr::Not(e) => Ok(Expr::Not(Box::new(rebind(e)?))),
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(rebind(expr)?),
                negated: *negated,
            }),
            AstExpr::Case { whens, else_ } => Ok(Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, v)| Ok((rebind(c)?, rebind(v)?)))
                    .collect::<IcResult<_>>()?,
                else_: Box::new(match else_ {
                    Some(e) => rebind(e)?,
                    None => Expr::Lit(Datum::Null),
                }),
            }),
            other => Err(IcError::Bind(format!(
                "expression must appear in GROUP BY or be an aggregate: {other:?}"
            ))),
        }
    }

    // ------------------------------------------------------------- DML

    fn resolve_dml_table(&self, name: &str) -> IcResult<Arc<TableDef>> {
        let id = self
            .catalog
            .table_by_name(name)
            .ok_or_else(|| IcError::Bind(format!("unknown table '{name}'")))?;
        self.catalog.table_def(id).ok_or_else(|| {
            IcError::Internal(format!("catalog resolved '{name}' to {id:?} without a definition"))
        })
    }

    fn dml_scope(def: &TableDef) -> Scope {
        let names: Vec<String> = def.schema.fields().iter().map(|f| f.name.clone()).collect();
        let mut scope = Scope::default();
        scope.add_table(&def.name, &names);
        scope
    }

    /// Coerce a constant to a column's declared type: a date-shaped string
    /// into a DATE column, then the engine's rule for values from outside
    /// it ([`Datum::fit_to`]: NULL anywhere, exact match, INT widening to
    /// DOUBLE).
    fn coerce_to_column(mut value: Datum, want: DataType, col: &str) -> IcResult<Datum> {
        if let (Datum::Str(s), DataType::Date) = (&value, want) {
            value = dates::parse_date(s).map(Datum::Date).ok_or_else(|| {
                IcError::Bind(format!("cannot coerce '{s}' to DATE for column '{col}'"))
            })?;
        }
        let have = value.data_type();
        match value.fit_to(want) {
            true => Ok(value),
            false => Err(IcError::Bind(format!(
                "type mismatch for column '{col}': expected {want:?}, got {have:?}"
            ))),
        }
    }

    fn bind_insert(&self, stmt: &InsertStmt) -> IcResult<BoundDml> {
        let def = self.resolve_dml_table(&stmt.table)?;
        let arity = def.schema.arity();
        let positions: Vec<usize> = if stmt.columns.is_empty() {
            (0..arity).collect()
        } else {
            let mut seen = vec![false; arity];
            let mut pos = Vec::with_capacity(stmt.columns.len());
            for c in &stmt.columns {
                let i = def.schema.index_of(c).ok_or_else(|| {
                    IcError::Bind(format!("unknown column '{c}' in table '{}'", def.name))
                })?;
                if seen[i] {
                    return Err(IcError::Bind(format!("column '{c}' listed twice in INSERT")));
                }
                seen[i] = true;
                pos.push(i);
            }
            pos
        };
        // Key columns must be supplied: a row without its distribution key
        // cannot be routed, and a row without its primary key cannot be
        // upserted deterministically.
        for &k in &def.primary_key {
            if !positions.contains(&k) {
                return Err(IcError::Bind(format!(
                    "INSERT must supply primary-key column '{}'",
                    def.schema.field(k).name
                )));
            }
        }
        let empty_scope = Scope::default();
        let mut rows = Vec::with_capacity(stmt.values.len());
        for tuple in &stmt.values {
            if tuple.len() != positions.len() {
                return Err(IcError::Bind(format!(
                    "INSERT expects {} value(s) per row, got {}",
                    positions.len(),
                    tuple.len()
                )));
            }
            let mut row = vec![Datum::Null; arity];
            for (expr, &i) in tuple.iter().zip(&positions) {
                let bound = self.bind_scalar(expr, &empty_scope, &[], 0)?;
                let Expr::Lit(value) = bound else {
                    return Err(IcError::Bind(
                        "INSERT values must be constant expressions".into(),
                    ));
                };
                row[i] = Self::coerce_to_column(
                    value,
                    def.schema.field(i).dtype,
                    &def.schema.field(i).name,
                )?;
            }
            rows.push(Row(row));
        }
        let rows = ColumnBatch::from_typed_rows(&def.schema.types(), &rows);
        Ok(BoundDml { table: def.id, op: WriteOp::Insert { rows } })
    }

    fn bind_update(&self, stmt: &UpdateStmt) -> IcResult<BoundDml> {
        let def = self.resolve_dml_table(&stmt.table)?;
        let scope = Self::dml_scope(&def);
        let key_cols: &[usize] = match &def.distribution {
            TableDistribution::HashPartitioned { key_cols } => key_cols,
            TableDistribution::Replicated => &[],
        };
        let mut assignments = Vec::with_capacity(stmt.sets.len());
        let mut assigned = vec![false; def.schema.arity()];
        for (name, expr) in &stmt.sets {
            let col = scope.resolve(&None, name)?;
            if assigned[col] {
                return Err(IcError::Bind(format!("column '{name}' assigned twice in UPDATE")));
            }
            assigned[col] = true;
            if def.primary_key.contains(&col) || key_cols.contains(&col) {
                // Updating a key would move the row across partitions /
                // change its identity — Ignite rejects this too.
                return Err(IcError::Unsupported(format!(
                    "cannot UPDATE key column '{name}'"
                )));
            }
            let bound = self.bind_scalar(expr, &scope, &[], def.schema.arity())?;
            let field = def.schema.field(col);
            let value = match bound {
                Expr::Lit(v) => Expr::Lit(Self::coerce_to_column(v, field.dtype, &field.name)?),
                e => coerce_to(&e, &def.schema, field.dtype)?,
            };
            assignments.push((col, value));
        }
        let predicate = self.bind_dml_predicate(&stmt.predicate, &scope, &def)?;
        Ok(BoundDml { table: def.id, op: WriteOp::Update { assignments, predicate } })
    }

    fn bind_delete(&self, stmt: &DeleteStmt) -> IcResult<BoundDml> {
        let def = self.resolve_dml_table(&stmt.table)?;
        let scope = Self::dml_scope(&def);
        let predicate = self.bind_dml_predicate(&stmt.predicate, &scope, &def)?;
        Ok(BoundDml { table: def.id, op: WriteOp::Delete { predicate } })
    }

    /// An UPDATE / DELETE `WHERE` clause, bound and coerced over the table.
    fn bind_dml_predicate(
        &self,
        pred: &Option<AstExpr>,
        scope: &Scope,
        def: &TableDef,
    ) -> IcResult<Option<Expr>> {
        pred.as_ref()
            .map(|p| {
                let bound = self.bind_scalar(p, scope, &[], def.schema.arity())?;
                coerce_to(&bound, &def.schema, DataType::Bool)
            })
            .transpose()
    }

    // ------------------------------------------------------------- scalars

    /// Bind a scalar expression over `scope`. `plan_arity` is the arity of
    /// the plan the expression will run against (scalar-subquery
    /// placeholder columns live at `placeholders[i]`).
    fn bind_scalar(
        &self,
        expr: &AstExpr,
        scope: &Scope,
        placeholders: &[usize],
        plan_arity: usize,
    ) -> IcResult<Expr> {
        let _ = plan_arity;
        let e = self.bind_scalar_inner(expr, scope, placeholders)?;
        Ok(fold_constants(e))
    }

    fn bind_scalar_inner(
        &self,
        expr: &AstExpr,
        scope: &Scope,
        placeholders: &[usize],
    ) -> IcResult<Expr> {
        let bind = |e: &AstExpr| self.bind_scalar_inner(e, scope, placeholders);
        match expr {
            AstExpr::Column { qualifier, name } => {
                if qualifier.as_deref() == Some("$sq") {
                    let idx: usize = name
                        .parse()
                        .map_err(|_| IcError::Bind("bad scalar placeholder".into()))?;
                    let col = placeholders
                        .get(idx)
                        .copied()
                        .ok_or_else(|| IcError::Bind("unknown scalar placeholder".into()))?;
                    return Ok(Expr::col(col));
                }
                Ok(Expr::col(scope.resolve(qualifier, name)?))
            }
            AstExpr::IntLit(v) => Ok(Expr::lit(*v)),
            AstExpr::NumberLit(v) => Ok(Expr::lit(*v)),
            AstExpr::StringLit(s) => Ok(Expr::Lit(Datum::str(s))),
            AstExpr::DateLit(s) => {
                let d = dates::parse_date(s)
                    .ok_or_else(|| IcError::Bind(format!("invalid date literal '{s}'")))?;
                Ok(Expr::Lit(Datum::Date(d)))
            }
            AstExpr::IntervalLit { .. } => Err(IcError::Bind(
                "intervals are only valid in date arithmetic".into(),
            )),
            AstExpr::Binary { op, left, right } => {
                // Date ± interval folding.
                if matches!(op, BinOp::Add | BinOp::Sub) {
                    if let AstExpr::IntervalLit { value, unit } = right.as_ref() {
                        let base = bind(left)?;
                        let signed = if *op == BinOp::Sub { -value } else { *value };
                        return bind_interval_arith(base, signed, *unit);
                    }
                    if let AstExpr::IntervalLit { value, unit } = left.as_ref() {
                        if *op == BinOp::Add {
                            let base = bind(right)?;
                            return bind_interval_arith(base, *value, *unit);
                        }
                    }
                }
                Ok(Expr::binary(*op, bind(left)?, bind(right)?))
            }
            AstExpr::Not(e) => Ok(Expr::Not(Box::new(bind(e)?))),
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(bind(expr)?),
                negated: *negated,
            }),
            AstExpr::Like { expr, pattern, negated } => Ok(Expr::Like {
                expr: Box::new(bind(expr)?),
                pattern: Box::new(bind(pattern)?),
                negated: *negated,
            }),
            AstExpr::Between { expr, low, high, negated } => {
                let e = bind(expr)?;
                let range = Expr::and(
                    Expr::binary(BinOp::Ge, e.clone(), bind(low)?),
                    Expr::binary(BinOp::Le, e, bind(high)?),
                );
                Ok(if *negated { Expr::Not(Box::new(range)) } else { range })
            }
            AstExpr::InList { expr, list, negated } => Ok(Expr::InList {
                expr: Box::new(bind(expr)?),
                list: list.iter().map(bind).collect::<IcResult<_>>()?,
                negated: *negated,
            }),
            AstExpr::Case { whens, else_ } => Ok(Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, v)| Ok((bind(c)?, bind(v)?)))
                    .collect::<IcResult<_>>()?,
                else_: Box::new(match else_ {
                    Some(e) => bind(e)?,
                    None => Expr::Lit(Datum::Null),
                }),
            }),
            AstExpr::Extract { field, expr } => {
                let kind = match field.as_str() {
                    "year" => FuncKind::ExtractYear,
                    "month" => FuncKind::ExtractMonth,
                    other => {
                        return Err(IcError::Unsupported(format!("EXTRACT({other}) not supported")))
                    }
                };
                Ok(Expr::Func { kind, args: vec![bind(expr)?] })
            }
            AstExpr::Substring { expr, start, len } => Ok(Expr::Func {
                kind: FuncKind::Substring,
                args: vec![bind(expr)?, bind(start)?, bind(len)?],
            }),
            AstExpr::Func { name, args } => match name.as_str() {
                "abs" if args.len() == 1 => Ok(Expr::Func {
                    kind: FuncKind::Abs,
                    args: vec![bind(&args[0])?],
                }),
                other => Err(IcError::Unsupported(format!("function '{other}' not supported"))),
            },
            AstExpr::AggCall { .. } => Err(IcError::Bind(
                "aggregate calls are only valid in SELECT/HAVING of a grouped query".into(),
            )),
            AstExpr::Exists { .. } | AstExpr::InSubquery { .. } | AstExpr::ScalarSubquery(_) => {
                Err(IcError::Unsupported(
                    "subquery in an unsupported position (only top-level WHERE/HAVING conjuncts)"
                        .into(),
                ))
            }
        }
    }
}

// ------------------------------------------------------------------ helpers

fn agg_func_of(name: &str, distinct: bool) -> IcResult<AggFunc> {
    Ok(match (name, distinct) {
        ("count", false) => AggFunc::Count,
        ("count", true) => AggFunc::CountDistinct,
        ("sum", false) => AggFunc::Sum,
        ("avg", false) => AggFunc::Avg,
        ("min", _) => AggFunc::Min,
        ("max", _) => AggFunc::Max,
        (other, true) => {
            return Err(IcError::Unsupported(format!("{other}(DISTINCT) not supported")))
        }
        (other, _) => return Err(IcError::Bind(format!("unknown aggregate '{other}'"))),
    })
}

fn bind_interval_arith(base: Expr, value: i64, unit: IntervalUnit) -> IcResult<Expr> {
    match unit {
        IntervalUnit::Day => {
            if let Expr::Lit(Datum::Date(d)) = base {
                return Ok(Expr::Lit(Datum::Date(d + value as i32)));
            }
            // `Date ± Int` is a Date: the coercion lattice's day arithmetic.
            Ok(Expr::binary(BinOp::Add, base, Expr::lit(value)))
        }
        IntervalUnit::Month | IntervalUnit::Year => {
            let months = if unit == IntervalUnit::Year { value * 12 } else { value };
            if let Expr::Lit(Datum::Date(d)) = base {
                return Ok(Expr::Lit(Datum::Date(dates::add_months(d, months as i32))));
            }
            Ok(Expr::Func {
                kind: FuncKind::AddMonths,
                args: vec![base, Expr::lit(months)],
            })
        }
    }
}

/// Evaluate column-free subexpressions to literals.
fn fold_constants(e: Expr) -> Expr {
    e.transform(&|node| {
        if matches!(node, Expr::Lit(_)) {
            return None;
        }
        if node.columns().is_empty() {
            if let Ok(v) = node.eval(&Row(vec![])) {
                return Some(Expr::Lit(v));
            }
        }
        None
    })
}

fn split_ast_conjuncts(e: &AstExpr) -> Vec<&AstExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a AstExpr, out: &mut Vec<&'a AstExpr>) {
        if let AstExpr::Binary { op: BinOp::And, left, right } = e {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

fn ast_children(e: &AstExpr) -> Vec<&AstExpr> {
    match e {
        AstExpr::Binary { left, right, .. } => vec![left, right],
        AstExpr::Not(x) | AstExpr::IsNull { expr: x, .. } => vec![x],
        AstExpr::Like { expr, pattern, .. } => vec![expr, pattern],
        AstExpr::Between { expr, low, high, .. } => vec![expr, low, high],
        AstExpr::InList { expr, list, .. } => {
            let mut v = vec![expr.as_ref()];
            v.extend(list.iter());
            v
        }
        AstExpr::Case { whens, else_ } => {
            let mut v = Vec::new();
            for (c, val) in whens {
                v.push(c);
                v.push(val);
            }
            if let Some(e) = else_ {
                v.push(e);
            }
            v
        }
        AstExpr::Extract { expr, .. } => vec![expr],
        AstExpr::Substring { expr, start, len } => vec![expr, start, len],
        AstExpr::Func { args, .. } => args.iter().collect(),
        AstExpr::AggCall { arg: Some(a), .. } => vec![a],
        _ => vec![],
    }
}

fn ast_contains_scalar_subquery(e: &AstExpr) -> bool {
    if matches!(e, AstExpr::ScalarSubquery(_)) {
        return true;
    }
    ast_children(e).iter().any(|c| ast_contains_scalar_subquery(c))
}

fn ast_contains_subquery(e: &AstExpr) -> bool {
    if matches!(
        e,
        AstExpr::ScalarSubquery(_) | AstExpr::Exists { .. } | AstExpr::InSubquery { .. }
    ) {
        return true;
    }
    ast_children(e).iter().any(|c| ast_contains_subquery(c))
}

/// Replace each scalar subquery with a `$sq.N` placeholder column.
fn extract_scalar_subqueries(e: AstExpr) -> (AstExpr, Vec<Query>) {
    let mut queries = Vec::new();
    let out = replace_scalars(e, &mut queries);
    (out, queries)
}

fn replace_scalars(e: AstExpr, queries: &mut Vec<Query>) -> AstExpr {
    match e {
        AstExpr::ScalarSubquery(q) => {
            let idx = queries.len();
            queries.push(*q);
            AstExpr::Column { qualifier: Some("$sq".into()), name: idx.to_string() }
        }
        AstExpr::Binary { op, left, right } => AstExpr::Binary {
            op,
            left: Box::new(replace_scalars(*left, queries)),
            right: Box::new(replace_scalars(*right, queries)),
        },
        AstExpr::Not(x) => AstExpr::Not(Box::new(replace_scalars(*x, queries))),
        AstExpr::Between { expr, low, high, negated } => AstExpr::Between {
            expr: Box::new(replace_scalars(*expr, queries)),
            low: Box::new(replace_scalars(*low, queries)),
            high: Box::new(replace_scalars(*high, queries)),
            negated,
        },
        other => other,
    }
}

fn default_name(expr: &AstExpr, idx: usize) -> String {
    match expr {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::AggCall { func, .. } => format!("{func}_{idx}"),
        _ => format!("expr{idx}"),
    }
}

fn dedup_names(names: &mut [String]) {
    let mut seen: FxHashMap<String, usize> = FxHashMap::default();
    for n in names.iter_mut() {
        let key = n.to_ascii_lowercase();
        let count = seen.entry(key).or_insert(0);
        if *count > 0 {
            *n = format!("{n}_{count}");
        }
        *count += 1;
    }
}

// Re-export for core's DDL handling.
pub fn data_type_of(sql_type: &str) -> IcResult<DataType> {
    Ok(match sql_type.to_ascii_lowercase().as_str() {
        "int" | "integer" | "bigint" | "smallint" | "tinyint" => DataType::Int,
        "double" | "float" | "real" | "decimal" | "numeric" => DataType::Double,
        "varchar" | "char" | "text" | "string" => DataType::Str,
        "date" | "timestamp" => DataType::Date,
        "boolean" | "bool" => DataType::Bool,
        other => return Err(IcError::Unsupported(format!("SQL type '{other}'"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use ic_common::{Field, Schema};
    use ic_storage::TableDistribution;

    fn catalog() -> Arc<Catalog> {
        let cat = Catalog::new(2, 0);
        let t = |name: &str, cols: &[(&str, DataType)]| {
            let schema =
                Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect());
            cat.create_table(
                name,
                schema,
                vec![0],
                TableDistribution::HashPartitioned { key_cols: vec![0] },
            )
            .unwrap()
        };
        t("orders", &[("o_orderkey", DataType::Int), ("o_custkey", DataType::Int), ("o_orderdate", DataType::Date), ("o_totalprice", DataType::Double)]);
        t("lineitem", &[("l_orderkey", DataType::Int), ("l_partkey", DataType::Int), ("l_quantity", DataType::Double), ("l_price", DataType::Double)]);
        t("part", &[("p_partkey", DataType::Int), ("p_name", DataType::Str), ("p_size", DataType::Int)]);
        cat
    }

    fn bind(sql: &str) -> IcResult<Bound> {
        let cat = catalog();
        match parse_sql(sql)? {
            Statement::Query(q) => bind_statement(&q, &cat),
            other => panic!("expected query, got {other:?}"),
        }
    }

    fn explain(sql: &str) -> String {
        ic_plan::explain::explain_logical(&bind(sql).unwrap().plan)
    }

    #[test]
    fn simple_projection_and_filter() {
        let b = bind("SELECT o_orderkey, o_totalprice * 2 AS dbl FROM orders WHERE o_custkey = 7")
            .unwrap();
        assert_eq!(b.output_names, vec!["o_orderkey", "dbl"]);
        let text = ic_plan::explain::explain_logical(&b.plan);
        assert!(text.contains("Project"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan(orders)"));
    }

    #[test]
    fn qualified_and_ambiguous_columns() {
        assert!(bind("SELECT o.o_orderkey FROM orders o").is_ok());
        assert!(bind("SELECT nope FROM orders").is_err());
        // same table twice: unqualified pk is ambiguous
        let err = bind("SELECT o_orderkey FROM orders a, orders b").unwrap_err();
        assert!(matches!(err, IcError::Bind(m) if m.contains("ambiguous")));
    }

    #[test]
    fn comma_join_builds_cross_joins() {
        let text = explain(
            "SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        );
        assert!(text.contains("Join[inner"), "{text}");
    }

    #[test]
    fn date_interval_folds_to_literal() {
        let b = bind("SELECT o_orderkey FROM orders WHERE o_orderdate < date '1995-01-01' + interval '3' month").unwrap();
        let text = ic_plan::explain::explain_logical(&b.plan);
        assert!(text.contains("1995-04-01"), "{text}");
    }

    #[test]
    fn aggregates_with_group() {
        let b = bind(
            "SELECT o_custkey, sum(o_totalprice) AS rev, count(*) FROM orders GROUP BY o_custkey HAVING sum(o_totalprice) > 100 ORDER BY rev DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(b.output_names, vec!["o_custkey", "rev", "count_2"]);
        let text = ic_plan::explain::explain_logical(&b.plan);
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("Limit"), "{text}");
        assert!(text.contains("Sort"), "{text}");
    }

    #[test]
    fn shared_agg_deduplicated() {
        // sum(o_totalprice) used twice should produce one aggregate call.
        let b = bind(
            "SELECT sum(o_totalprice) / count(*) AS a, sum(o_totalprice) AS b FROM orders",
        )
        .unwrap();
        fn find_agg(p: &LogicalPlan) -> Option<usize> {
            if let RelOp::Aggregate { aggs, .. } = &p.op {
                return Some(aggs.len());
            }
            p.children().iter().find_map(|c| find_agg(c))
        }
        assert_eq!(find_agg(&b.plan), Some(2));
    }

    #[test]
    fn exists_becomes_semi_join() {
        let text = explain(
            "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 5)",
        );
        assert!(text.contains("Join[semi, correlate"), "{text}");
        // The local predicate stays inside the subquery side.
        assert!(text.contains("Filter"), "{text}");
    }

    #[test]
    fn not_exists_becomes_anti_join() {
        let text = explain(
            "SELECT o_orderkey FROM orders WHERE NOT EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)",
        );
        assert!(text.contains("Join[anti, correlate"), "{text}");
    }

    #[test]
    fn in_subquery_semi_join() {
        let text = explain(
            "SELECT p_name FROM part WHERE p_partkey IN (SELECT l_partkey FROM lineitem WHERE l_quantity > 10)",
        );
        assert!(text.contains("Join[semi, correlate"), "{text}");
    }

    #[test]
    fn uncorrelated_scalar_subquery_cross_join() {
        let text = explain(
            "SELECT o_orderkey FROM orders WHERE o_totalprice > (SELECT avg(o_totalprice) FROM orders)",
        );
        assert!(text.contains("Join[inner, correlate"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn correlated_scalar_aggregate_q17_shape() {
        let text = explain(
            "SELECT l_orderkey FROM lineitem, part WHERE p_partkey = l_partkey AND l_quantity < (SELECT avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)",
        );
        // Aggregate grouped by the correlation key, joined back in.
        assert!(text.contains("Join[inner, correlate"), "{text}");
        assert!(text.contains("Aggregate[group=[1]"), "{text}");
    }

    #[test]
    fn q20_style_double_nesting_unsupported() {
        let err = bind(
            "SELECT p_name FROM part WHERE p_partkey IN (SELECT l_partkey FROM lineitem WHERE l_quantity > (SELECT avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey))",
        )
        .unwrap_err();
        assert!(matches!(err, IcError::Unsupported(_)), "{err}");
    }

    #[test]
    fn distinct_groups_all_columns() {
        let b = bind("SELECT DISTINCT o_custkey FROM orders").unwrap();
        let text = ic_plan::explain::explain_logical(&b.plan);
        assert!(text.contains("Aggregate[group=[0], 0 aggs"), "{text}");
    }

    #[test]
    fn order_by_ordinal_and_alias() {
        assert!(bind("SELECT o_custkey, o_totalprice AS p FROM orders ORDER BY 2 DESC, p").is_ok());
        assert!(bind("SELECT o_custkey FROM orders ORDER BY missing").is_err());
    }

    #[test]
    fn derived_table_binding() {
        let b = bind(
            "SELECT big_cust, total FROM (SELECT o_custkey AS big_cust, sum(o_totalprice) AS total FROM orders GROUP BY o_custkey) t WHERE total > 50",
        )
        .unwrap();
        assert_eq!(b.output_names, vec!["big_cust", "total"]);
    }

    #[test]
    fn case_when_binds() {
        let b = bind(
            "SELECT sum(CASE WHEN p_name LIKE 'PROMO%' THEN p_size ELSE 0 END) FROM part",
        )
        .unwrap();
        let text = ic_plan::explain::explain_logical(&b.plan);
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn group_by_expression_pre_projects() {
        let b = bind(
            "SELECT extract(year from o_orderdate) AS y, count(*) FROM orders GROUP BY extract(year from o_orderdate)",
        )
        .unwrap();
        assert_eq!(b.output_names, vec!["y", "count_1"]);
        let text = ic_plan::explain::explain_logical(&b.plan);
        // pre-project computing the group expr, then aggregate
        assert!(text.contains("Project"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn select_star() {
        let b = bind("SELECT * FROM part").unwrap();
        assert_eq!(b.output_names.len(), 3);
        let b = bind("SELECT p.* FROM part p, orders o WHERE p_partkey = o_orderkey").unwrap();
        assert_eq!(b.output_names.len(), 3);
    }

    #[test]
    fn between_desugars() {
        let b = bind("SELECT p_name FROM part WHERE p_size BETWEEN 1 AND 5").unwrap();
        let text = ic_plan::explain::explain_logical(&b.plan);
        assert!(text.contains(">=") && text.contains("<="), "{text}");
    }

    /// The coercion pass over bound statements, one lattice rule each; the
    /// rules themselves are unit-tested in `ic_plan::coerce`.
    #[test]
    fn int_meeting_double_is_widened() {
        // Every expression of the bound plan, as text.
        let exprs = |sql: &str| {
            fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
                p.children().into_iter().for_each(|c| walk(c, out));
                out.extend(p.clone().exprs_mut().iter().map(|e| e.to_string()));
            }
            let mut out = Vec::new();
            walk(&bind(sql).unwrap().plan, &mut out);
            out.join("; ")
        };
        // CASE arms: the Int ELSE folds to a Double literal.
        let text = exprs("SELECT CASE WHEN o_custkey > 1 THEN o_totalprice ELSE 0 END FROM orders");
        assert!(text.contains("THEN $3 ELSE 0.0000 END"), "{text}");
        // IN list and comparison: an Int column meeting Doubles is cast.
        let text = exprs(
            "SELECT o_orderkey FROM orders WHERE o_custkey IN (1, 2.5) AND o_custkey = o_totalprice",
        );
        assert!(text.contains("(CAST_DOUBLE($1) IN (1.0000, 2.5000))"), "{text}");
        assert!(text.contains("(CAST_DOUBLE($1) = $3)"), "{text}");
    }

    #[test]
    fn date_plus_days_is_a_date() {
        let b = bind("SELECT o_orderdate + interval '2' day AS d FROM orders").unwrap();
        assert_eq!(b.plan.schema.field(0).dtype, DataType::Date);
        let b = bind("SELECT o_orderkey FROM orders WHERE o_orderdate - 7 < date '1995-01-01'");
        assert!(b.is_ok(), "{b:?}");
    }

    #[test]
    fn mixed_kinds_are_bind_errors() {
        for sql in [
            "SELECT o_orderkey FROM orders WHERE o_custkey = 'a'",
            "SELECT o_custkey + 'a' FROM orders",
            "SELECT o_orderkey FROM orders WHERE o_orderdate = 5",
            "SELECT o_orderkey FROM orders WHERE o_custkey LIKE 'a%'",
            "SELECT sum(p_name) FROM part",
            "SELECT avg(o_orderdate) FROM orders",
            "SELECT CASE WHEN p_size > 1 THEN p_name ELSE 0 END FROM part",
            "SELECT o_orderkey FROM orders WHERE o_custkey",
        ] {
            assert!(matches!(bind(sql), Err(IcError::Bind(_))), "{sql}: {:?}", bind(sql));
        }
        let err = bind_dml_sql("UPDATE part SET p_size = p_name").unwrap_err();
        assert!(matches!(err, IcError::Bind(_)), "{err:?}");
        let err = bind_dml_sql("DELETE FROM part WHERE p_name > 3").unwrap_err();
        assert!(matches!(err, IcError::Bind(_)), "{err:?}");
    }

    #[test]
    fn type_mapping() {
        assert_eq!(data_type_of("BIGINT").unwrap(), DataType::Int);
        assert_eq!(data_type_of("decimal").unwrap(), DataType::Double);
        assert_eq!(data_type_of("VARCHAR").unwrap(), DataType::Str);
        assert!(data_type_of("blob").is_err());
    }

    fn bind_dml_sql(sql: &str) -> IcResult<BoundDml> {
        bind_dml(&parse_sql(sql)?, &catalog())
    }

    #[test]
    fn insert_binds_rows_in_column_list_order() {
        let b = bind_dml_sql(
            "INSERT INTO part (p_size, p_partkey, p_name) VALUES (9, 1, 'bolt')",
        )
        .unwrap();
        let ic_storage::WriteOp::Insert { rows } = &b.op else {
            panic!("expected insert op")
        };
        // Values land at schema positions, not list positions.
        assert_eq!(rows.datum_at(0, 0), Datum::Int(1));
        assert_eq!(rows.datum_at(2, 0), Datum::Int(9));
    }

    #[test]
    fn insert_coerces_int_literal_to_double_column() {
        let b = bind_dml_sql(
            "INSERT INTO orders (o_orderkey, o_custkey, o_orderdate, o_totalprice) \
             VALUES (1, 2, DATE '1995-01-01', 10)",
        )
        .unwrap();
        let ic_storage::WriteOp::Insert { rows } = &b.op else {
            panic!("expected insert op")
        };
        assert_eq!(rows.datum_at(3, 0), Datum::Double(10.0));
    }

    #[test]
    fn insert_without_primary_key_rejected() {
        let err = bind_dml_sql("INSERT INTO part (p_name) VALUES ('bolt')").unwrap_err();
        assert!(matches!(err, IcError::Bind(_)), "{err:?}");
        let err =
            bind_dml_sql("INSERT INTO part (p_partkey, p_partkey) VALUES (1, 1)").unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        let err = bind_dml_sql("INSERT INTO part (p_partkey, p_name) VALUES (1)").unwrap_err();
        assert!(err.to_string().contains("value(s) per row"), "{err}");
    }

    #[test]
    fn update_key_column_rejected() {
        let err = bind_dml_sql("UPDATE part SET p_partkey = 2 WHERE p_size = 1").unwrap_err();
        assert!(matches!(err, IcError::Unsupported(_)), "{err:?}");
        let b = bind_dml_sql("UPDATE part SET p_size = p_size + 1 WHERE p_partkey = 1").unwrap();
        let ic_storage::WriteOp::Update { assignments, predicate } = &b.op else {
            panic!("expected update op")
        };
        assert_eq!(assignments.len(), 1);
        assert!(predicate.is_some());
    }

    #[test]
    fn delete_predicate_binds_over_table_scope() {
        let b = bind_dml_sql("DELETE FROM lineitem WHERE l_quantity > 5").unwrap();
        let ic_storage::WriteOp::Delete { predicate } = &b.op else {
            panic!("expected delete op")
        };
        assert!(predicate.is_some());
        let err = bind_dml_sql("DELETE FROM lineitem WHERE no_such_col = 1").unwrap_err();
        assert!(matches!(err, IcError::Bind(_)), "{err:?}");
    }
}
