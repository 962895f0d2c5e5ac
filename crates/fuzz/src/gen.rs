//! Seeded random SQL generation over the bench schemas.
//!
//! The generator builds [`Query`] ASTs directly (rendered to text via
//! [`ic_sql::unparse`]), covering every shape the binder/decorrelator
//! accepts: multi-way INNER/LEFT equi-joins, comma joins, derived tables,
//! grouped aggregation with HAVING, DISTINCT, ORDER BY/LIMIT, NULL-heavy
//! predicates (IS NULL, LEFT-join padding), and the three decorrelatable
//! subquery shapes (correlated EXISTS, uncorrelated IN, correlated
//! equi-scalar aggregates). It deliberately stays inside the dialect's
//! typing discipline — comparisons are type-matched, LIKE only on strings,
//! arithmetic only on numerics — so a generated query that fails to bind
//! is a generator bug, not noise.
//!
//! Literals are sampled from the actual table data, so predicates hit
//! realistic selectivities instead of always-empty ranges.
//!
//! Everything is a pure function of the [`SplitMix64`] stream: the same
//! seed over the same [`SchemaInfo`] yields the same AST.

use ic_common::{BinOp, DataType, Datum};
use ic_net::SplitMix64;
use ic_sql::ast::*;
use crate::reference::table_rows;
use ic_storage::Catalog;

/// One column: name, type, and a few values sampled from the data.
#[derive(Debug, Clone)]
pub struct ColInfo {
    pub name: String,
    pub dtype: DataType,
    pub samples: Vec<Datum>,
}

/// One table visible to the generator.
#[derive(Debug, Clone)]
pub struct TableInfo {
    pub name: String,
    pub cols: Vec<ColInfo>,
}

/// The generator's view of a schema, derived from a loaded catalog.
#[derive(Debug, Clone)]
pub struct SchemaInfo {
    pub tables: Vec<TableInfo>,
}

impl SchemaInfo {
    /// Snapshot a loaded catalog: table/column shapes plus up to eight
    /// sampled values per column (NULLs skipped). Tables are sorted by
    /// name so the snapshot is independent of catalog iteration order.
    pub fn from_catalog(catalog: &Catalog) -> SchemaInfo {
        let mut names = catalog.table_names();
        names.sort();
        let mut tables = Vec::new();
        for name in names {
            let Some(id) = catalog.table_by_name(&name) else { continue };
            let Some(def) = catalog.table_def(id) else { continue };
            let rows = catalog.table_data(id).map(|d| table_rows(&d)).unwrap_or_default();
            let cols = def
                .schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let mut samples = Vec::new();
                    if !rows.is_empty() {
                        let step = (rows.len() / 8).max(1);
                        for r in rows.iter().step_by(step).take(8) {
                            if let Some(d) = r.0.get(i) {
                                if *d != Datum::Null {
                                    samples.push(d.clone());
                                }
                            }
                        }
                    }
                    ColInfo { name: f.name.clone(), dtype: f.dtype, samples }
                })
                .collect();
            tables.push(TableInfo { name, cols });
        }
        SchemaInfo { tables }
    }
}

/// A table occurrence in the query being built: alias plus column shapes.
#[derive(Debug, Clone)]
struct ScopeEntry {
    alias: String,
    cols: Vec<ColInfo>,
}

/// Generate one random query over `schema`, driven entirely by `rng`.
pub fn generate_query(rng: &mut SplitMix64, schema: &SchemaInfo) -> Query {
    Gen { rng, schema, comma_pred: None }.query(0)
}

struct Gen<'a> {
    rng: &'a mut SplitMix64,
    schema: &'a SchemaInfo,
    /// Equi-condition of a comma join, pending to be ANDed into WHERE.
    comma_pred: Option<AstExpr>,
}

impl Gen<'_> {
    fn chance(&mut self, pct: u64) -> bool {
        self.rng.next_below(100) < pct
    }

    fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.rng.next_below(items.len() as u64) as usize]
    }

    fn table(&mut self) -> TableInfo {
        self.schema.tables[self.rng.next_below(self.schema.tables.len() as u64) as usize]
            .clone()
    }

    /// Top-level entry. `depth` > 0 marks subquery generation, which stays
    /// strictly simpler (the binder rejects doubly-nested correlation;
    /// depth-1 shapes are built by the dedicated constructors below).
    fn query(&mut self, depth: usize) -> Query {
        let (from, scope) = self.gen_from_clause(depth);
        let aggregate = depth == 0 && self.chance(45);
        // A pending comma-join condition forces a WHERE clause.
        let where_clause = if self.comma_pred.is_some() || self.chance(70) {
            Some(self.where_clause(&scope, depth))
        } else {
            None
        };
        let (select, group_by, having) = if aggregate {
            self.aggregate_head(&scope)
        } else {
            (self.plain_select(&scope), Vec::new(), None)
        };
        let distinct = !aggregate && self.chance(20);
        let order_by = if depth == 0 && self.chance(40) {
            let n = select.len() as u64;
            let mut keys = Vec::new();
            let mut used = Vec::new();
            for _ in 0..=self.rng.next_below(2.min(n)) {
                let ord = 1 + self.rng.next_below(n) as i64;
                if !used.contains(&ord) {
                    used.push(ord);
                    keys.push(OrderKey { expr: AstExpr::IntLit(ord), desc: self.chance(40) });
                }
            }
            keys
        } else {
            Vec::new()
        };
        let limit = if depth == 0 && self.chance(25) {
            Some(1 + self.rng.next_below(50))
        } else {
            None
        };
        Query { distinct, select, from, where_clause, group_by, having, order_by, limit }
    }

    // ------------------------------------------------------------- FROM

    /// Build the FROM clause: a left-deep join chain of 1–3 tables with
    /// type-matched equi-join conditions (25% LEFT, for NULL padding), a
    /// two-table comma join whose equi-condition moves to WHERE, or a
    /// derived table. Returns the table refs plus the visible scope.
    fn gen_from_clause(&mut self, depth: usize) -> (Vec<TableRef>, Vec<ScopeEntry>) {
        if depth == 0 && self.chance(15) {
            return self.derived_from();
        }
        let n_tables =
            if depth > 0 { 1 } else { 1 + self.rng.next_below(3) as usize };
        let first = self.table();
        let mut scope = vec![ScopeEntry { alias: "t0".into(), cols: first.cols.clone() }];
        let mut tref = TableRef::Table { name: first.name, alias: Some("t0".into()) };
        for i in 1..n_tables {
            let next = self.table();
            let alias = format!("t{i}");
            let Some(on) = self.join_condition(&scope, &next.cols, &alias) else { break };
            let right = TableRef::Table { name: next.name.clone(), alias: Some(alias.clone()) };
            scope.push(ScopeEntry { alias, cols: next.cols });
            if i == 1 && n_tables == 2 && self.chance(12) {
                // Comma join: same equi-condition, expressed in WHERE.
                self.comma_pred = Some(on);
                return (vec![tref, right], scope);
            }
            let kind = if self.chance(25) { AstJoinKind::Left } else { AstJoinKind::Inner };
            tref = TableRef::Join { left: Box::new(tref), right: Box::new(right), kind, on };
        }
        (vec![tref], scope)
    }

    fn derived_from(&mut self) -> (Vec<TableRef>, Vec<ScopeEntry>) {
        let inner_table = self.table();
        let inner_scope =
            vec![ScopeEntry { alias: "s0".into(), cols: inner_table.cols.clone() }];
        let n_cols = (1 + self.rng.next_below(3) as usize).min(inner_table.cols.len());
        let mut select = Vec::new();
        let mut out_cols = Vec::new();
        for k in 0..n_cols {
            let (q, c) = self.pick_col(&inner_scope);
            select.push(SelectItem::Expr {
                expr: AstExpr::Column { qualifier: Some(q), name: c.name.clone() },
                alias: Some(format!("d{k}")),
            });
            out_cols.push(ColInfo {
                name: format!("d{k}"),
                dtype: c.dtype,
                samples: c.samples.clone(),
            });
        }
        let where_clause =
            if self.chance(60) { Some(self.predicate(&inner_scope)) } else { None };
        let q = Query {
            distinct: self.chance(15),
            select,
            from: vec![TableRef::Table {
                name: inner_table.name.clone(),
                alias: Some("s0".into()),
            }],
            where_clause,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        let tref = TableRef::Derived { query: Box::new(q), alias: "t0".into() };
        (vec![tref], vec![ScopeEntry { alias: "t0".into(), cols: out_cols }])
    }

    /// A type-matched equi-join condition between the scope and `right`;
    /// prefers realistic foreign-key pairs (shared name suffix after '_').
    fn join_condition(
        &mut self,
        scope: &[ScopeEntry],
        right: &[ColInfo],
        right_alias: &str,
    ) -> Option<AstExpr> {
        let mut fk_pairs = Vec::new();
        let mut any_pairs = Vec::new();
        for entry in scope {
            for lc in &entry.cols {
                for rc in right {
                    if lc.dtype != rc.dtype || lc.dtype != DataType::Int {
                        continue;
                    }
                    let pair = (entry.alias.clone(), lc.name.clone(), rc.name.clone());
                    let lsuf = lc.name.rsplit('_').next().unwrap_or(&lc.name);
                    let rsuf = rc.name.rsplit('_').next().unwrap_or(&rc.name);
                    if lsuf == rsuf {
                        fk_pairs.push(pair);
                    } else {
                        any_pairs.push(pair);
                    }
                }
            }
        }
        let pool = if fk_pairs.is_empty() { any_pairs } else { fk_pairs };
        if pool.is_empty() {
            return None;
        }
        let (qual, lname, rname) =
            pool[self.rng.next_below(pool.len() as u64) as usize].clone();
        Some(AstExpr::binary(
            BinOp::Eq,
            AstExpr::Column { qualifier: Some(qual), name: lname },
            AstExpr::Column { qualifier: Some(right_alias.into()), name: rname },
        ))
    }

    // ----------------------------------------------------------- SELECT

    fn plain_select(&mut self, scope: &[ScopeEntry]) -> Vec<SelectItem> {
        let n = 1 + self.rng.next_below(4) as usize;
        let mut items = Vec::new();
        for k in 0..n {
            let expr = self.scalar(scope);
            items.push(SelectItem::Expr { expr, alias: Some(format!("c{k}")) });
        }
        items
    }

    /// Aggregate head: SELECT group cols + agg calls, GROUP BY, HAVING.
    fn aggregate_head(
        &mut self,
        scope: &[ScopeEntry],
    ) -> (Vec<SelectItem>, Vec<AstExpr>, Option<AstExpr>) {
        let n_group = self.rng.next_below(3) as usize;
        let mut group_by = Vec::new();
        let mut select = Vec::new();
        for k in 0..n_group {
            let (q, c) = self.pick_col(scope);
            let col = AstExpr::Column { qualifier: Some(q), name: c.name.clone() };
            group_by.push(col.clone());
            select.push(SelectItem::Expr { expr: col, alias: Some(format!("g{k}")) });
        }
        let n_aggs = 1 + self.rng.next_below(3) as usize;
        let mut numeric_aggs = Vec::new();
        for k in 0..n_aggs {
            let (agg, numeric) = self.agg_call(scope);
            if numeric {
                numeric_aggs.push(agg.clone());
            }
            select.push(SelectItem::Expr { expr: agg, alias: Some(format!("a{k}")) });
        }
        // HAVING compares against a small integer, so its aggregate must
        // be numeric (MIN/MAX of a string column would type-error).
        let having = if self.chance(30) {
            let lhs = if numeric_aggs.is_empty() || self.chance(50) {
                AstExpr::AggCall { func: "count".into(), distinct: false, arg: None }
            } else {
                numeric_aggs[self.rng.next_below(numeric_aggs.len() as u64) as usize].clone()
            };
            let op = *self.pick(&[BinOp::Gt, BinOp::Ge, BinOp::Lt]);
            Some(AstExpr::binary(op, lhs, AstExpr::IntLit(1 + self.rng.next_below(5) as i64)))
        } else {
            None
        };
        (select, group_by, having)
    }

    /// One aggregate call; the bool reports whether its output is numeric
    /// (callers may only compare numeric aggregates against int literals).
    fn agg_call(&mut self, scope: &[ScopeEntry]) -> (AstExpr, bool) {
        let roll = self.rng.next_below(100);
        if roll < 20 {
            return (AstExpr::AggCall { func: "count".into(), distinct: false, arg: None }, true);
        }
        if roll < 30 {
            let (q, c) = self.pick_col(scope);
            let distinct = self.chance(40);
            return (
                AstExpr::AggCall {
                    func: "count".into(),
                    distinct,
                    arg: Some(Box::new(AstExpr::Column { qualifier: Some(q), name: c.name })),
                },
                true,
            );
        }
        if roll < 65 {
            if let Some((q, c)) = self.col_of_types(scope, &[DataType::Int, DataType::Double])
            {
                let func = if self.chance(60) { "sum" } else { "avg" };
                return (
                    AstExpr::AggCall {
                        func: func.into(),
                        distinct: false,
                        arg: Some(Box::new(AstExpr::Column {
                            qualifier: Some(q),
                            name: c.name,
                        })),
                    },
                    true,
                );
            }
        }
        let (q, c) = self.pick_col(scope);
        let func = if self.chance(50) { "min" } else { "max" };
        let numeric = matches!(c.dtype, DataType::Int | DataType::Double);
        (
            AstExpr::AggCall {
                func: func.into(),
                distinct: false,
                arg: Some(Box::new(AstExpr::Column { qualifier: Some(q), name: c.name })),
            },
            numeric,
        )
    }

    /// A scalar select-list expression: mostly plain columns, sometimes
    /// arithmetic or CASE.
    fn scalar(&mut self, scope: &[ScopeEntry]) -> AstExpr {
        let roll = self.rng.next_below(100);
        if roll < 65 {
            let (q, c) = self.pick_col(scope);
            return AstExpr::Column { qualifier: Some(q), name: c.name };
        }
        if roll < 85 {
            if let Some((q, c)) = self.col_of_types(scope, &[DataType::Int, DataType::Double])
            {
                let col = AstExpr::Column { qualifier: Some(q), name: c.name.clone() };
                let op = *self.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                let lit = self.literal_like(c.dtype, &c.samples);
                return AstExpr::binary(op, col, lit);
            }
        }
        // CASE WHEN pred THEN col ELSE literal END (type-matched arms).
        let (q, c) = self.pick_col(scope);
        let cond = self.predicate(scope);
        let col = AstExpr::Column { qualifier: Some(q), name: c.name.clone() };
        let else_ = self.literal_like(c.dtype, &c.samples);
        AstExpr::Case { whens: vec![(cond, col)], else_: Some(Box::new(else_)) }
    }

    // ------------------------------------------------------------ WHERE

    fn where_clause(&mut self, scope: &[ScopeEntry], depth: usize) -> AstExpr {
        let mut conjuncts = Vec::new();
        if let Some(p) = self.comma_pred.take() {
            conjuncts.push(p);
        }
        let n = 1 + self.rng.next_below(3);
        for _ in 0..n {
            conjuncts.push(self.predicate(scope));
        }
        if depth == 0 && self.chance(30) {
            conjuncts.push(self.subquery_predicate(scope));
        }
        let mut it = conjuncts.into_iter();
        let first = it.next().unwrap_or(AstExpr::IntLit(1));
        it.fold(first, |acc, p| AstExpr::binary(BinOp::And, acc, p))
    }

    /// One simple (non-subquery) predicate over the scope.
    fn predicate(&mut self, scope: &[ScopeEntry]) -> AstExpr {
        let roll = self.rng.next_below(100);
        let (q, c) = self.pick_col(scope);
        let col = AstExpr::Column { qualifier: Some(q), name: c.name.clone() };
        match () {
            // Comparison against a sampled literal.
            _ if roll < 35 => {
                let op = *self.pick(&[
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                ]);
                let lit = self.literal_like(c.dtype, &c.samples);
                AstExpr::binary(op, col, lit)
            }
            // Column-vs-column (same type).
            _ if roll < 48 => {
                if let Some((q2, c2)) = self.col_of_types(scope, &[c.dtype]) {
                    let op = *self.pick(&[BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Ge]);
                    let rhs = AstExpr::Column { qualifier: Some(q2), name: c2.name };
                    AstExpr::binary(op, col, rhs)
                } else {
                    let negated = self.chance(50);
                    AstExpr::IsNull { expr: Box::new(col), negated }
                }
            }
            // BETWEEN two sampled literals.
            _ if roll < 60 && c.dtype != DataType::Str && c.dtype != DataType::Bool => {
                let a = self.literal_like(c.dtype, &c.samples);
                let b = self.literal_like(c.dtype, &c.samples);
                let negated = self.chance(25);
                AstExpr::Between { expr: Box::new(col), low: Box::new(a), high: Box::new(b), negated }
            }
            // IN list of sampled literals.
            _ if roll < 72 => {
                let n = 1 + self.rng.next_below(4);
                let list =
                    (0..n).map(|_| self.literal_like(c.dtype, &c.samples)).collect();
                let negated = self.chance(30);
                AstExpr::InList { expr: Box::new(col), list, negated }
            }
            // IS [NOT] NULL — pairs with LEFT-join padding for NULL cover.
            _ if roll < 84 => {
                let negated = self.chance(50);
                AstExpr::IsNull { expr: Box::new(col), negated }
            }
            // LIKE on strings.
            _ if roll < 94 => {
                if c.dtype == DataType::Str {
                    let pat = self.like_pattern(&c.samples);
                    let negated = self.chance(30);
                    AstExpr::Like {
                        expr: Box::new(col),
                        pattern: Box::new(AstExpr::StringLit(pat)),
                        negated,
                    }
                } else {
                    let op = *self.pick(&[BinOp::Le, BinOp::Gt]);
                    let lit = self.literal_like(c.dtype, &c.samples);
                    AstExpr::binary(op, col, lit)
                }
            }
            // NOT (p OR p)
            _ => {
                let a = self.predicate(scope);
                let b = self.predicate(scope);
                AstExpr::Not(Box::new(AstExpr::binary(BinOp::Or, a, b)))
            }
        }
    }

    /// One subquery-bearing conjunct: correlated EXISTS, IN, or a scalar
    /// aggregate (correlated or not).
    fn subquery_predicate(&mut self, scope: &[ScopeEntry]) -> AstExpr {
        let inner = self.table();
        let roll = self.rng.next_below(100);
        let corr = self.corr_pair(scope, &inner);
        if roll < 40 {
            if let Some((oq, oc, ic)) = corr {
                // [NOT] EXISTS (SELECT * FROM inner s0
                //               WHERE s0.ic = outer.oc [AND local])
                let mut w = AstExpr::binary(
                    BinOp::Eq,
                    AstExpr::Column { qualifier: Some("s0".into()), name: ic },
                    AstExpr::Column { qualifier: Some(oq), name: oc },
                );
                if self.chance(40) {
                    let iscope =
                        vec![ScopeEntry { alias: "s0".into(), cols: inner.cols.clone() }];
                    w = AstExpr::binary(BinOp::And, w, self.predicate(&iscope));
                }
                let q = self.bare_query(vec![SelectItem::Wildcard], &inner.name, Some(w));
                let negated = self.chance(40);
                return AstExpr::Exists { query: Box::new(q), negated };
            }
        }
        if roll < 70 {
            // outer_col [NOT] IN (SELECT inner_col FROM inner [WHERE local])
            // — uncorrelated, as the binder requires.
            if let Some((oq, oc, ic)) = self.corr_pair(scope, &inner) {
                let iscope = vec![ScopeEntry { alias: "s0".into(), cols: inner.cols.clone() }];
                let w = if self.chance(50) { Some(self.predicate(&iscope)) } else { None };
                let item = SelectItem::Expr {
                    expr: AstExpr::Column { qualifier: Some("s0".into()), name: ic },
                    alias: None,
                };
                let q = self.bare_query(vec![item], &inner.name, w);
                let negated = self.chance(40);
                return AstExpr::InSubquery {
                    expr: Box::new(AstExpr::Column { qualifier: Some(oq), name: oc }),
                    query: Box::new(q),
                    negated,
                };
            }
        }
        // outer_col <op> (SELECT agg(x) FROM inner [WHERE s0.k = outer.k])
        let numeric = self.col_of_types(scope, &[DataType::Int, DataType::Double]);
        let inner_numeric: Vec<ColInfo> = inner
            .cols
            .iter()
            .filter(|c| matches!(c.dtype, DataType::Int | DataType::Double))
            .cloned()
            .collect();
        if let (Some((oq, oc)), false) = (numeric, inner_numeric.is_empty()) {
            let arg =
                inner_numeric[self.rng.next_below(inner_numeric.len() as u64) as usize].clone();
            let func = *self.pick(&["min", "max", "avg", "sum"]);
            let w = if self.chance(50) {
                self.corr_pair(scope, &inner).map(|(cq, cc, ci)| {
                    AstExpr::binary(
                        BinOp::Eq,
                        AstExpr::Column { qualifier: Some("s0".into()), name: ci },
                        AstExpr::Column { qualifier: Some(cq), name: cc },
                    )
                })
            } else {
                None
            };
            let item = SelectItem::Expr {
                expr: AstExpr::AggCall {
                    func: func.into(),
                    distinct: false,
                    arg: Some(Box::new(AstExpr::Column {
                        qualifier: Some("s0".into()),
                        name: arg.name,
                    })),
                },
                alias: Some("v".into()),
            };
            let q = self.bare_query(vec![item], &inner.name, w);
            let op = *self.pick(&[BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq]);
            return AstExpr::binary(
                op,
                AstExpr::Column { qualifier: Some(oq), name: oc.name },
                AstExpr::ScalarSubquery(Box::new(q)),
            );
        }
        // Fallback: a plain predicate.
        self.predicate(scope)
    }

    /// A single-table subquery body with alias `s0`.
    fn bare_query(
        &mut self,
        select: Vec<SelectItem>,
        table: &str,
        where_clause: Option<AstExpr>,
    ) -> Query {
        Query {
            distinct: false,
            select,
            from: vec![TableRef::Table { name: table.into(), alias: Some("s0".into()) }],
            where_clause,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// A type-matched (outer qualifier, outer col, inner col) triple for
    /// correlation; prefers Int columns with matching name suffixes.
    fn corr_pair(
        &mut self,
        scope: &[ScopeEntry],
        inner: &TableInfo,
    ) -> Option<(String, String, String)> {
        let mut best = Vec::new();
        let mut any = Vec::new();
        for e in scope {
            for oc in &e.cols {
                for ic in &inner.cols {
                    if oc.dtype != ic.dtype || oc.dtype != DataType::Int {
                        continue;
                    }
                    let osuf = oc.name.rsplit('_').next().unwrap_or(&oc.name);
                    let isuf = ic.name.rsplit('_').next().unwrap_or(&ic.name);
                    let t = (e.alias.clone(), oc.name.clone(), ic.name.clone());
                    if osuf == isuf {
                        best.push(t);
                    } else {
                        any.push(t);
                    }
                }
            }
        }
        let pool = if best.is_empty() { any } else { best };
        if pool.is_empty() {
            return None;
        }
        Some(pool[self.rng.next_below(pool.len() as u64) as usize].clone())
    }

    // --------------------------------------------------------- literals

    /// A literal of `dtype`, usually drawn from `samples` (sometimes
    /// perturbed so ranges are not always point lookups).
    fn literal_like(&mut self, dtype: DataType, samples: &[Datum]) -> AstExpr {
        if !samples.is_empty() && self.chance(75) {
            let s = samples[self.rng.next_below(samples.len() as u64) as usize].clone();
            match s {
                Datum::Int(v) => {
                    let delta = self.rng.next_below(20) as i64 - 10;
                    return AstExpr::IntLit(v.saturating_add(delta).max(0));
                }
                Datum::Double(v) => {
                    let v = (v.abs() * 100.0).round() / 100.0;
                    return AstExpr::NumberLit(v);
                }
                Datum::Str(s) => return AstExpr::StringLit(s.to_string()),
                Datum::Date(d) => {
                    let shifted = d + (self.rng.next_below(60) as i32) - 30;
                    return AstExpr::DateLit(Datum::Date(shifted).to_string());
                }
                Datum::Bool(_) | Datum::Null => {}
            }
        }
        match dtype {
            DataType::Int => AstExpr::IntLit(self.rng.next_below(1000) as i64),
            DataType::Double => {
                AstExpr::NumberLit((self.rng.next_below(100_000) as f64) / 100.0)
            }
            DataType::Str => AstExpr::StringLit(format!("v{}", self.rng.next_below(100))),
            DataType::Date => AstExpr::DateLit(format!(
                "199{}-{:02}-{:02}",
                2 + self.rng.next_below(7),
                1 + self.rng.next_below(12),
                1 + self.rng.next_below(28)
            )),
            DataType::Bool => AstExpr::IntLit(0),
        }
    }

    fn like_pattern(&mut self, samples: &[Datum]) -> String {
        let frag: String = samples
            .iter()
            .find_map(|d| match d {
                Datum::Str(s) if !s.is_empty() => {
                    Some(s.chars().take(1 + (s.len() % 3)).collect())
                }
                _ => None,
            })
            .unwrap_or_else(|| "a".to_string());
        match self.rng.next_below(3) {
            0 => format!("{frag}%"),
            1 => format!("%{frag}%"),
            _ => format!("%{frag}"),
        }
    }

    // ------------------------------------------------------------ scope

    fn pick_col(&mut self, scope: &[ScopeEntry]) -> (String, ColInfo) {
        let e = &scope[self.rng.next_below(scope.len() as u64) as usize];
        let c = e.cols[self.rng.next_below(e.cols.len() as u64) as usize].clone();
        (e.alias.clone(), c)
    }

    fn col_of_types(
        &mut self,
        scope: &[ScopeEntry],
        types: &[DataType],
    ) -> Option<(String, ColInfo)> {
        let mut cands = Vec::new();
        for e in scope {
            for c in &e.cols {
                if types.contains(&c.dtype) {
                    cands.push((e.alias.clone(), c.clone()));
                }
            }
        }
        if cands.is_empty() {
            return None;
        }
        Some(cands[self.rng.next_below(cands.len() as u64) as usize].clone())
    }
}
