//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{lex, Token};
use ic_common::{BinOp, IcError, IcResult};

/// Keywords that terminate an implicit alias.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "having", "order", "limit", "fetch", "on", "join",
    "inner", "left", "right", "outer", "cross", "and", "or", "not", "as", "union", "by", "asc",
    "desc", "in", "exists", "between", "like", "is", "case", "when", "then", "else", "end",
];

/// Parse one SQL statement.
pub fn parse_sql(input: &str) -> IcResult<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.eat_sym(";");
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().ident() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> IcResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(IcError::Parse(format!("expected '{kw}', found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Token::Sym(s) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> IcResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(IcError::Parse(format!("expected '{sym}', found {:?}", self.peek())))
        }
    }

    fn expect_eof(&self) -> IcResult<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(IcError::Parse(format!("trailing tokens at {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> IcResult<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(IcError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------- statements

    fn parse_statement(&mut self) -> IcResult<Statement> {
        if self.eat_kw("explain") {
            if self.eat_kw("analyze") {
                return Ok(Statement::ExplainAnalyze(self.parse_query()?));
            }
            return Ok(Statement::Explain(self.parse_query()?));
        }
        if self.peek().ident() == Some("create") {
            self.pos += 1;
            if self.eat_kw("table") {
                return self.parse_create_table();
            }
            if self.eat_kw("index") {
                return self.parse_create_index();
            }
            if self.peek().ident() == Some("view") {
                // Faithful to the paper: Ignite+Calcite does not support
                // SQL views (TPC-H Q15).
                return Err(IcError::Unsupported("SQL VIEWs are not supported".into()));
            }
            return Err(IcError::Parse(format!("unsupported CREATE {:?}", self.peek())));
        }
        if self.eat_kw("insert") {
            return self.parse_insert();
        }
        if self.eat_kw("update") {
            return self.parse_update();
        }
        if self.eat_kw("delete") {
            return self.parse_delete();
        }
        Ok(Statement::Query(self.parse_query()?))
    }

    fn parse_insert(&mut self) -> IcResult<Statement> {
        self.expect_kw("into")?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.eat_sym("(") {
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
        }
        if self.peek().ident() == Some("select") {
            return Err(IcError::Unsupported("INSERT … SELECT is not supported".into()));
        }
        self.expect_kw("values")?;
        let mut values = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = vec![self.parse_expr()?];
            while self.eat_sym(",") {
                row.push(self.parse_expr()?);
            }
            self.expect_sym(")")?;
            values.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert(InsertStmt { table, columns, values }))
    }

    fn parse_update(&mut self) -> IcResult<Statement> {
        let table = self.expect_ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_sym("=")?;
            sets.push((col, self.parse_expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let predicate = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update(UpdateStmt { table, sets, predicate }))
    }

    fn parse_delete(&mut self) -> IcResult<Statement> {
        self.expect_kw("from")?;
        let table = self.expect_ident()?;
        let predicate = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete(DeleteStmt { table, predicate }))
    }

    fn parse_create_table(&mut self) -> IcResult<Statement> {
        let name = self.expect_ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                self.expect_sym("(")?;
                loop {
                    primary_key.push(self.expect_ident()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            } else {
                let col = self.expect_ident()?;
                let ty = self.expect_ident()?;
                // swallow type parameters like DECIMAL(15,2), VARCHAR(25)
                if self.eat_sym("(") {
                    while !self.eat_sym(")") {
                        self.pos += 1;
                    }
                }
                // swallow NOT NULL
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                }
                columns.push((col, ty));
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        let mut partition_by = None;
        let mut replicated = false;
        if self.eat_kw("partition") {
            self.expect_kw("by")?;
            self.expect_kw("hash")?;
            self.expect_sym("(")?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            partition_by = Some(cols);
        } else if self.eat_kw("replicated") {
            replicated = true;
        }
        Ok(Statement::CreateTable(CreateTable { name, columns, primary_key, partition_by, replicated }))
    }

    fn parse_create_index(&mut self) -> IcResult<Statement> {
        let name = self.expect_ident()?;
        self.expect_kw("on")?;
        let table = self.expect_ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.expect_ident()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex(CreateIndex { name, table, columns }))
    }

    // --------------------------------------------------------------- query

    pub fn parse_query(&mut self) -> IcResult<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut select = Vec::new();
        loop {
            select.push(self.parse_select_item()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            from.push(self.parse_table_ref()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_kw("limit") {
            limit = Some(self.parse_u64()?);
        } else if self.eat_kw("fetch") {
            // FETCH FIRST n ROWS ONLY
            let _ = self.eat_kw("first") || self.eat_kw("next");
            let n = self.parse_u64()?;
            let _ = self.eat_kw("rows") || self.eat_kw("row");
            self.expect_kw("only")?;
            limit = Some(n);
        }
        Ok(Query { distinct, select, from, where_clause, group_by, having, order_by, limit })
    }

    fn parse_u64(&mut self) -> IcResult<u64> {
        match self.next() {
            Token::Number(n) => n
                .parse::<u64>()
                .map_err(|_| IcError::Parse(format!("invalid integer '{n}'"))),
            other => Err(IcError::Parse(format!("expected integer, found {other:?}"))),
        }
    }

    fn parse_select_item(&mut self) -> IcResult<SelectItem> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let Token::Ident(q) = self.peek().clone() {
            if matches!(self.peek2(), Token::Sym(".")) && matches!(self.tokens.get(self.pos + 2), Some(Token::Sym("*"))) {
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else if let Token::Ident(name) = self.peek() {
            if RESERVED.contains(&name.as_str()) {
                None
            } else {
                let name = name.clone();
                self.pos += 1;
                Some(name)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> IcResult<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.peek().ident() == Some("join") {
                self.pos += 1;
                AstJoinKind::Inner
            } else if self.peek().ident() == Some("inner")
                && self.peek2().ident() == Some("join")
            {
                self.pos += 2;
                AstJoinKind::Inner
            } else if self.peek().ident() == Some("left") {
                self.pos += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                AstJoinKind::Left
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            self.expect_kw("on")?;
            let on = self.parse_expr()?;
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> IcResult<TableRef> {
        if self.eat_sym("(") {
            let query = self.parse_query()?;
            self.expect_sym(")")?;
            self.eat_kw("as");
            let alias = self.expect_ident()?;
            return Ok(TableRef::Derived { query: Box::new(query), alias });
        }
        let name = self.expect_ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else if let Token::Ident(a) = self.peek() {
            if RESERVED.contains(&a.as_str()) {
                None
            } else {
                let a = a.clone();
                self.pos += 1;
                Some(a)
            }
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // --------------------------------------------------------- expressions

    pub fn parse_expr(&mut self) -> IcResult<AstExpr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> IcResult<AstExpr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = AstExpr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> IcResult<AstExpr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = AstExpr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> IcResult<AstExpr> {
        if self.peek().ident() == Some("not") && self.peek2().ident() != Some("exists") {
            self.pos += 1;
            let inner = self.parse_not()?;
            return Ok(AstExpr::Not(Box::new(inner)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> IcResult<AstExpr> {
        // EXISTS / NOT EXISTS
        if self.peek().ident() == Some("exists") {
            self.pos += 1;
            self.expect_sym("(")?;
            let q = self.parse_query()?;
            self.expect_sym(")")?;
            return Ok(AstExpr::Exists { query: Box::new(q), negated: false });
        }
        if self.peek().ident() == Some("not") && self.peek2().ident() == Some("exists") {
            self.pos += 2;
            self.expect_sym("(")?;
            let q = self.parse_query()?;
            self.expect_sym(")")?;
            return Ok(AstExpr::Exists { query: Box::new(q), negated: true });
        }

        let left = self.parse_additive()?;

        // comparison operators
        for (sym, op) in [
            ("=", BinOp::Eq),
            ("<>", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_sym(sym) {
                let right = self.parse_additive()?;
                return Ok(AstExpr::binary(op, left, right));
            }
        }

        let negated = if self.peek().ident() == Some("not")
            && matches!(self.peek2().ident(), Some("like") | Some("in") | Some("between"))
        {
            self.pos += 1;
            true
        } else {
            false
        };

        if self.eat_kw("like") {
            let pattern = self.parse_additive()?;
            return Ok(AstExpr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("between") {
            let low = self.parse_additive()?;
            self.expect_kw("and")?;
            let high = self.parse_additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            if self.peek().ident() == Some("select") {
                let q = self.parse_query()?;
                self.expect_sym(")")?;
                return Ok(AstExpr::InSubquery { expr: Box::new(left), query: Box::new(q), negated });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(AstExpr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull { expr: Box::new(left), negated });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> IcResult<AstExpr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            if self.eat_sym("+") {
                let right = self.parse_multiplicative()?;
                left = AstExpr::binary(BinOp::Add, left, right);
            } else if self.eat_sym("-") {
                let right = self.parse_multiplicative()?;
                left = AstExpr::binary(BinOp::Sub, left, right);
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_multiplicative(&mut self) -> IcResult<AstExpr> {
        let mut left = self.parse_unary()?;
        loop {
            if self.eat_sym("*") {
                let right = self.parse_unary()?;
                left = AstExpr::binary(BinOp::Mul, left, right);
            } else if self.eat_sym("/") {
                let right = self.parse_unary()?;
                left = AstExpr::binary(BinOp::Div, left, right);
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_unary(&mut self) -> IcResult<AstExpr> {
        if self.eat_sym("-") {
            let inner = self.parse_unary()?;
            return Ok(AstExpr::binary(BinOp::Sub, AstExpr::IntLit(0), inner));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> IcResult<AstExpr> {
        match self.next() {
            Token::Number(n) => {
                if n.contains(['.', 'e', 'E']) {
                    n.parse::<f64>()
                        .map(AstExpr::NumberLit)
                        .map_err(|_| IcError::Parse(format!("bad number '{n}'")))
                } else {
                    n.parse::<i64>()
                        .map(AstExpr::IntLit)
                        .map_err(|_| IcError::Parse(format!("bad integer '{n}'")))
                }
            }
            Token::String(s) => Ok(AstExpr::StringLit(s)),
            Token::Sym("(") => {
                if self.peek().ident() == Some("select") {
                    let q = self.parse_query()?;
                    self.expect_sym(")")?;
                    return Ok(AstExpr::ScalarSubquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Token::Ident(word) => self.parse_ident_expr(word),
            other => Err(IcError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn parse_ident_expr(&mut self, word: String) -> IcResult<AstExpr> {
        match word.as_str() {
            "date" => {
                // DATE 'yyyy-mm-dd'
                if let Token::String(s) = self.peek().clone() {
                    self.pos += 1;
                    return Ok(AstExpr::DateLit(s));
                }
                Err(IcError::Parse("expected string after DATE".into()))
            }
            "interval" => {
                let Token::String(v) = self.next() else {
                    return Err(IcError::Parse("expected string after INTERVAL".into()));
                };
                let value: i64 = v
                    .trim()
                    .parse()
                    .map_err(|_| IcError::Parse(format!("bad interval value '{v}'")))?;
                let unit_word = self.expect_ident()?;
                let unit = match unit_word.as_str() {
                    "day" | "days" => IntervalUnit::Day,
                    "month" | "months" => IntervalUnit::Month,
                    "year" | "years" => IntervalUnit::Year,
                    other => return Err(IcError::Parse(format!("unsupported interval unit '{other}'"))),
                };
                Ok(AstExpr::IntervalLit { value, unit })
            }
            "case" => {
                let mut whens = Vec::new();
                while self.eat_kw("when") {
                    let cond = self.parse_expr()?;
                    self.expect_kw("then")?;
                    let val = self.parse_expr()?;
                    whens.push((cond, val));
                }
                let else_ = if self.eat_kw("else") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                Ok(AstExpr::Case { whens, else_ })
            }
            "extract" => {
                self.expect_sym("(")?;
                let field = self.expect_ident()?;
                self.expect_kw("from")?;
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(AstExpr::Extract { field, expr: Box::new(e) })
            }
            "substring" | "substr" => {
                self.expect_sym("(")?;
                let e = self.parse_expr()?;
                let (start, len) = if self.eat_kw("from") {
                    let s = self.parse_expr()?;
                    self.expect_kw("for")?;
                    let l = self.parse_expr()?;
                    (s, l)
                } else {
                    self.expect_sym(",")?;
                    let s = self.parse_expr()?;
                    self.expect_sym(",")?;
                    let l = self.parse_expr()?;
                    (s, l)
                };
                self.expect_sym(")")?;
                Ok(AstExpr::Substring { expr: Box::new(e), start: Box::new(start), len: Box::new(len) })
            }
            "count" | "sum" | "avg" | "min" | "max" if matches!(self.peek(), Token::Sym("(")) => {
                self.pos += 1; // (
                if self.eat_sym("*") {
                    self.expect_sym(")")?;
                    return Ok(AstExpr::AggCall { func: word, distinct: false, arg: None });
                }
                let distinct = self.eat_kw("distinct");
                let arg = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(AstExpr::AggCall { func: word, distinct, arg: Some(Box::new(arg)) })
            }
            _ => {
                // function call or column reference
                if matches!(self.peek(), Token::Sym("(")) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    return Ok(AstExpr::Func { name: word, args });
                }
                if self.eat_sym(".") {
                    let name = self.expect_ident()?;
                    return Ok(AstExpr::Column { qualifier: Some(word), name });
                }
                Ok(AstExpr::Column { qualifier: None, name: word })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> Query {
        match parse_sql(sql).unwrap() {
            Statement::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let query = q("SELECT a, b AS x FROM t WHERE a = 1 ORDER BY x DESC LIMIT 10");
        assert_eq!(query.select.len(), 2);
        assert_eq!(query.from.len(), 1);
        assert!(query.where_clause.is_some());
        assert_eq!(query.order_by.len(), 1);
        assert!(query.order_by[0].desc);
        assert_eq!(query.limit, Some(10));
    }

    #[test]
    fn joins_and_aliases() {
        let query = q("SELECT * FROM employee e INNER JOIN sales s ON e.id = s.emp_id LEFT OUTER JOIN t2 ON t2.k = s.k");
        let TableRef::Join { kind, left, .. } = &query.from[0] else { panic!() };
        assert_eq!(*kind, AstJoinKind::Left);
        assert!(matches!(**left, TableRef::Join { kind: AstJoinKind::Inner, .. }));
    }

    #[test]
    fn comma_joins_tpch_style() {
        let query = q("SELECT x FROM a, b, c WHERE a.k = b.k AND b.j = c.j");
        assert_eq!(query.from.len(), 3);
    }

    #[test]
    fn date_interval_arithmetic() {
        let query = q("SELECT 1 FROM t WHERE d < date '1995-01-01' + interval '3' month");
        let Some(AstExpr::Binary { right, .. }) = query.where_clause else { panic!() };
        let AstExpr::Binary { op: BinOp::Add, left, right } = *right else { panic!() };
        assert!(matches!(*left, AstExpr::DateLit(_)));
        assert!(matches!(*right, AstExpr::IntervalLit { value: 3, unit: IntervalUnit::Month }));
    }

    /// A number with an exponent is a Double, whatever its mantissa; one
    /// past f64's range is ∞.
    #[test]
    fn exponent_literals_are_doubles() {
        let lit = |sql: &str| match &q(&format!("SELECT {sql} FROM t")).select[0] {
            SelectItem::Expr { expr: AstExpr::NumberLit(v), alias: None } => *v,
            other => panic!("{sql}: {other:?}"),
        };
        assert_eq!(lit("1e308"), 1e308);
        assert_eq!(lit("2.5E-3"), 0.0025);
        assert_eq!(lit("1e+2"), 100.0);
        assert_eq!(lit("1e309"), f64::INFINITY);
        // `1e` is still the integer 1 under the alias `e`.
        let SelectItem::Expr { expr: AstExpr::IntLit(1), alias } = &q("SELECT 1e FROM t").select[0] else { panic!() };
        assert_eq!(alias.as_deref(), Some("e"));
    }

    #[test]
    fn aggregates_and_groups() {
        let query = q("SELECT k, sum(v * (1 - d)) AS rev, count(*) FROM t GROUP BY k HAVING sum(v) > 5");
        assert_eq!(query.group_by.len(), 1);
        assert!(query.having.is_some());
        let SelectItem::Expr { expr, alias } = &query.select[1] else { panic!() };
        assert!(expr.contains_aggregate());
        assert_eq!(alias.as_deref(), Some("rev"));
    }

    #[test]
    fn subqueries() {
        let query = q("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k) AND a IN (SELECT b FROM v) AND c > (SELECT avg(x) FROM w)");
        let w = query.where_clause.unwrap();
        // and(and(exists, in), cmp(scalar))
        let AstExpr::Binary { op: BinOp::And, left, right } = w else { panic!() };
        let AstExpr::Binary { op: BinOp::And, left: l2, right: r2 } = *left else { panic!() };
        assert!(matches!(*l2, AstExpr::Exists { negated: false, .. }));
        assert!(matches!(*r2, AstExpr::InSubquery { negated: false, .. }));
        let AstExpr::Binary { right: scalar, .. } = *right else { panic!() };
        assert!(matches!(*scalar, AstExpr::ScalarSubquery(_)));
    }

    #[test]
    fn not_exists_and_not_in() {
        let query = q("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u) AND a NOT IN (1, 2)");
        let AstExpr::Binary { left, right, .. } = query.where_clause.unwrap() else { panic!() };
        assert!(matches!(*left, AstExpr::Exists { negated: true, .. }));
        assert!(matches!(*right, AstExpr::InList { negated: true, .. }));
    }

    #[test]
    fn case_when() {
        let query = q("SELECT sum(case when p like 'PROMO%' then e else 0 end) FROM l");
        let SelectItem::Expr { expr, .. } = &query.select[0] else { panic!() };
        let AstExpr::AggCall { arg: Some(arg), .. } = expr else { panic!() };
        assert!(matches!(**arg, AstExpr::Case { .. }));
    }

    #[test]
    fn derived_table() {
        let query = q("SELECT x FROM (SELECT a AS x FROM t) sub WHERE x > 1");
        assert!(matches!(&query.from[0], TableRef::Derived { alias, .. } if alias == "sub"));
    }

    #[test]
    fn extract_and_substring() {
        let query = q("SELECT extract(year from d), substring(p from 1 for 2) FROM t");
        assert!(matches!(
            &query.select[0],
            SelectItem::Expr { expr: AstExpr::Extract { .. }, .. }
        ));
        assert!(matches!(
            &query.select[1],
            SelectItem::Expr { expr: AstExpr::Substring { .. }, .. }
        ));
    }

    #[test]
    fn ddl() {
        let Statement::CreateTable(ct) = parse_sql(
            "CREATE TABLE part (p_partkey BIGINT NOT NULL, p_name VARCHAR(55), PRIMARY KEY (p_partkey)) PARTITION BY HASH (p_partkey)",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(ct.columns.len(), 2);
        assert_eq!(ct.primary_key, vec!["p_partkey"]);
        assert_eq!(ct.partition_by, Some(vec!["p_partkey".to_string()]));
        let Statement::CreateIndex(ci) = parse_sql("CREATE INDEX ix ON part (p_name)").unwrap()
        else {
            panic!()
        };
        assert_eq!(ci.columns, vec!["p_name"]);
    }

    #[test]
    fn views_unsupported_like_the_paper() {
        let err = parse_sql("CREATE VIEW v AS SELECT 1 FROM t").unwrap_err();
        assert!(matches!(err, IcError::Unsupported(_)));
    }

    #[test]
    fn fetch_first_syntax() {
        let query = q("SELECT a FROM t ORDER BY a FETCH FIRST 100 ROWS ONLY");
        assert_eq!(query.limit, Some(100));
    }

    #[test]
    fn unary_minus_and_decimal() {
        let query = q("SELECT a FROM t WHERE d BETWEEN 0.05 - 0.01 AND -0.07 + 1");
        assert!(matches!(
            query.where_clause,
            Some(AstExpr::Between { negated: false, .. })
        ));
    }

    #[test]
    fn insert_multi_row_with_column_list() {
        let Statement::Insert(i) =
            parse_sql("INSERT INTO t (k, v) VALUES (1, 10), (2, 2 + 20)").unwrap()
        else {
            panic!("expected insert")
        };
        assert_eq!(i.table, "t");
        assert_eq!(i.columns, vec!["k", "v"]);
        assert_eq!(i.values.len(), 2);
        assert_eq!(i.values[1].len(), 2);
    }

    #[test]
    fn insert_without_column_list_means_schema_order() {
        let Statement::Insert(i) = parse_sql("INSERT INTO t VALUES (1, 'x')").unwrap() else {
            panic!("expected insert")
        };
        assert!(i.columns.is_empty());
        assert_eq!(i.values.len(), 1);
    }

    #[test]
    fn insert_select_unsupported() {
        let err = parse_sql("INSERT INTO t (k) SELECT a FROM s").unwrap_err();
        assert!(matches!(err, IcError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn update_multi_set_with_predicate() {
        let Statement::Update(u) =
            parse_sql("UPDATE t SET v = v + 1, w = 'x' WHERE k < 10").unwrap()
        else {
            panic!("expected update")
        };
        assert_eq!(u.table, "t");
        assert_eq!(u.sets.len(), 2);
        assert_eq!(u.sets[0].0, "v");
        assert!(u.predicate.is_some());
    }

    #[test]
    fn delete_with_and_without_predicate() {
        let Statement::Delete(d) = parse_sql("DELETE FROM t WHERE k = 3").unwrap() else {
            panic!("expected delete")
        };
        assert_eq!(d.table, "t");
        assert!(d.predicate.is_some());
        let Statement::Delete(d) = parse_sql("DELETE FROM t").unwrap() else {
            panic!("expected delete")
        };
        assert!(d.predicate.is_none());
    }
}
