//! Property tests for the expression layer: total evaluation, algebraic
//! helper round-trips, LIKE against a reference matcher, the vectorized
//! evaluator against the row interpreter, date arithmetic, and Datum
//! ordering/hashing laws.

use ic_common::eval::{eval_expr, eval_filter_sel};
use ic_common::{dates, BinOp, ColumnBatch, Datum, Expr, FuncKind, Row};
use proptest::prelude::*;
use ic_common::FxBuildHasher;
use std::hash::BuildHasher;

fn arb_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        (-1000i64..1000).prop_map(Datum::Int),
        (-1000i64..1000).prop_map(|v| Datum::Double(v as f64 / 8.0)),
        "[a-z]{0,6}".prop_map(Datum::str),
        // Wildcard and multi-byte characters, in subjects and patterns alike.
        "[ab%_é]{0,4}".prop_map(Datum::str),
        (0i32..20000).prop_map(Datum::Date),
    ]
}

/// [`arb_datum`] plus the values an order most easily gets wrong: the
/// three numeric kinds over one small domain, so they tie across kinds,
/// both zeros, and NaN.
fn arb_ordered() -> impl Strategy<Value = Datum> {
    prop_oneof![
        arb_datum(),
        arb_datum(),
        (-3i64..3).prop_map(Datum::Int),
        (-6i64..6).prop_map(|v| Datum::Double(v as f64 / 2.0)),
        (-3i32..3).prop_map(Datum::Date),
        prop_oneof![
            Just(Datum::Double(-0.0)),
            Just(Datum::Double(f64::NAN)),
            Just(Datum::Double(-f64::NAN)),
        ],
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    proptest::collection::vec(arb_datum(), 4..=4).prop_map(Row)
}

/// Random expressions over a 4-column row. Comparisons may be ill-typed
/// (string vs int); evaluation must return an error, never panic.
fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_expr_over(4)
}

fn arb_func_kind() -> impl Strategy<Value = FuncKind> {
    prop_oneof![
        Just(FuncKind::ExtractYear),
        Just(FuncKind::ExtractMonth),
        Just(FuncKind::Substring),
        Just(FuncKind::CastDouble),
        Just(FuncKind::CastInt),
        Just(FuncKind::Abs),
        Just(FuncKind::AddMonths),
    ]
}

/// Random, mostly ill-typed expressions over a `width`-column row.
fn arb_expr_over(width: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..width).prop_map(Expr::col),
        arb_datum().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), prop_oneof![
                Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul), Just(BinOp::Div),
                Just(BinOp::Eq), Just(BinOp::Ne), Just(BinOp::Lt), Just(BinOp::Le),
                Just(BinOp::Gt), Just(BinOp::Ge), Just(BinOp::And), Just(BinOp::Or),
            ])
                .prop_map(|(l, r, op)| Expr::binary(op, l, r)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated
            }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 0..3), any::<bool>())
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated
                }),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(e, p, negated)| Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(p),
                negated
            }),
            (
                proptest::collection::vec((inner.clone(), inner.clone()), 1..3),
                inner.clone(),
                any::<bool>(),
            )
                .prop_map(|(whens, else_, has_else)| Expr::Case {
                    whens,
                    // CASE without ELSE binds to a NULL literal.
                    else_: Box::new(if has_else { else_ } else { Expr::Lit(Datum::Null) }),
                }),
            (arb_func_kind(), inner.clone(), inner.clone(), inner.clone()).prop_map(
                |(kind, a, b, c)| {
                    let args = match kind {
                        FuncKind::Substring => vec![a, b, c],
                        FuncKind::AddMonths => vec![a, b],
                        _ => vec![a],
                    };
                    Expr::Func { kind, args }
                }
            ),
        ]
    })
}

/// Column layout of [`arb_typed_rows`]: one column per type.
const INT: usize = 0;
const DOUBLE: usize = 1;
const DATE: usize = 2;
const STR: usize = 3;
const BOOL: usize = 4;

/// Rows whose five columns each hold NULLs and values of one type. Value
/// domains are small, so equalities and IN-lists hit.
fn arb_typed_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(typed_row(), 0..max)
}

/// One row of the [`arb_typed_rows`] layout. A Double is now and then a
/// NaN, which fails a comparison leaf, or an infinity.
fn typed_row() -> impl Strategy<Value = Row> {
    let double = |v: i64| match v {
        9 => f64::NAN,
        10 => f64::INFINITY,
        11 => f64::NEG_INFINITY,
        _ => v as f64 / 4.0,
    };
    (
        nullable((-4i64..5).prop_map(Datum::Int)),
        nullable((-8i64..12).prop_map(move |v| Datum::Double(double(v)))),
        nullable((9000i32..9100).prop_map(Datum::Date)),
        nullable("[ab%_é]{0,4}".prop_map(Datum::str)),
        nullable(any::<bool>().prop_map(Datum::Bool)),
    )
        .prop_map(|(a, b, c, d, e)| Row(vec![a, b, c, d, e]))
}

/// `s`'s values, NULL one time in four.
fn nullable(s: impl Strategy<Value = Datum> + 'static) -> impl Strategy<Value = Datum> {
    (s, 0u8..4).prop_map(|(d, roll)| if roll == 0 { Datum::Null } else { d })
}

/// A coerced expression over the [`arb_typed_rows`] layout — well-typed,
/// with Int operands of Double ones cast as the binder casts them — grown
/// from `seed` by a splitmix generator: untyped random trees almost always
/// fail to type-check, and the kernels under test are the well-typed ones.
struct TypedGen(u64);

impl TypedGen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 0
    }

    fn case(&mut self, depth: u32, arm: fn(&mut TypedGen, u32) -> Expr) -> Expr {
        let whens = (0..1 + self.below(2)).map(|_| (self.boolean(depth), arm(self, depth))).collect();
        let else_ = if self.flip() { arm(self, depth) } else { Expr::Lit(Datum::Null) };
        Expr::Case { whens, else_: Box::new(else_) }
    }

    fn func(kind: FuncKind, args: Vec<Expr>) -> Expr {
        Expr::Func { kind, args }
    }

    fn int(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 3 } else { 8 }) {
            0 | 1 => Expr::col(INT),
            2 => Expr::lit(self.below(9) as i64 - 4),
            3 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][self.below(3) as usize];
                Expr::binary(op, self.int(depth - 1), self.int(depth - 1))
            }
            4 => {
                let kind = if self.flip() { FuncKind::ExtractYear } else { FuncKind::ExtractMonth };
                Self::func(kind, vec![self.date(depth - 1)])
            }
            5 => {
                // A string never parses: the cast fails on every value.
                let arg = match self.below(3) {
                    0 => self.int(depth - 1),
                    1 => self.double(depth - 1),
                    _ => self.string(depth - 1),
                };
                Self::func(FuncKind::CastInt, vec![arg])
            }
            6 => Expr::Lit(Datum::Null),
            _ => self.case(depth - 1, Self::int),
        }
    }

    /// Double: Int operands come cast, and `Int / Int` is a Double.
    fn double(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 3 } else { 9 }) {
            0 => Expr::col(DOUBLE),
            1 => match self.below(12) {
                0 => Expr::lit(f64::NAN),
                1 => Expr::lit(if self.flip() { f64::INFINITY } else { f64::NEG_INFINITY }),
                _ => Expr::lit((self.below(17) as f64 - 8.0) / 4.0),
            },
            2 => Self::func(FuncKind::CastDouble, vec![self.int(depth)]),
            3 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][self.below(4) as usize];
                Expr::binary(op, self.double(depth - 1), self.double(depth - 1))
            }
            4 => Expr::binary(BinOp::Div, self.int(depth - 1), self.int(depth - 1)),
            5 => {
                let kind = if self.flip() { FuncKind::Abs } else { FuncKind::CastDouble };
                let arg = if self.flip() { self.int(depth - 1) } else { self.double(depth - 1) };
                Self::func(kind, vec![arg])
            }
            6 => self.case(depth - 1, Self::double),
            7 => Expr::Lit(Datum::Null),
            _ => Expr::col(DOUBLE),
        }
    }

    fn date(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 3 } else { 6 }) {
            0 | 1 => Expr::col(DATE),
            2 => Expr::lit(Datum::Date(9000 + self.below(100) as i32)),
            3 => Self::func(FuncKind::AddMonths, vec![self.date(depth - 1), self.int(depth - 1)]),
            // `Date ± Int` days.
            4 => {
                let op = if self.flip() { BinOp::Add } else { BinOp::Sub };
                Expr::binary(op, self.date(depth - 1), self.int(depth - 1))
            }
            _ => self.case(depth - 1, Self::date),
        }
    }

    fn string_lit(&mut self) -> Expr {
        let alphabet = ['a', 'b', '%', '_', 'é'];
        let s: String =
            (0..self.below(5)).map(|_| alphabet[self.below(5) as usize]).collect();
        Expr::lit(Datum::str(s))
    }

    fn string(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 3 } else { 5 }) {
            0 | 1 => Expr::col(STR),
            2 => self.string_lit(),
            3 => Self::func(
                FuncKind::Substring,
                vec![self.string(depth - 1), self.int(depth - 1), self.int(depth - 1)],
            ),
            _ => self.case(depth - 1, Self::string),
        }
    }

    /// An operand, and the generator of others of its type for lists.
    fn comparable(&mut self, depth: u32) -> (Expr, fn(&mut TypedGen, u32) -> Expr) {
        match self.below(5) {
            0 => (self.int(depth), Self::int),
            1 => (self.date(depth), Self::date),
            2 => (self.double(depth), Self::double),
            3 => (Expr::col(BOOL), |g, _| Expr::lit(g.flip())),
            _ => (self.string(depth), Self::string),
        }
    }

    fn boolean(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 2 } else { 8 }) {
            0 => Expr::col(BOOL),
            1 => Expr::lit(self.flip()),
            2 | 3 => {
                let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
                let (l, other) = self.comparable(depth - 1);
                let r = other(self, depth - 1);
                let (l, r) = if self.flip() { (l, r) } else { (r, l) };
                Expr::binary(ops[self.below(6) as usize], l, r)
            }
            4 => {
                let op = if self.flip() { BinOp::And } else { BinOp::Or };
                Expr::binary(op, self.boolean(depth - 1), self.boolean(depth - 1))
            }
            5 => match self.below(3) {
                0 => Expr::Not(Box::new(self.boolean(depth - 1))),
                1 => self.case(depth - 1, Self::boolean),
                _ => {
                    let col = self.below(5) as usize;
                    Expr::IsNull { expr: Box::new(Expr::col(col)), negated: self.flip() }
                }
            },
            6 => Expr::Like {
                expr: Box::new(self.string(depth - 1)),
                pattern: Box::new(if self.below(4) == 0 {
                    self.string(depth - 1)
                } else {
                    self.string_lit()
                }),
                negated: self.flip(),
            },
            _ => {
                let (e, item) = self.comparable(depth - 1);
                let list = (0..self.below(4))
                    .map(|_| match self.below(6) {
                        0 => Expr::Lit(Datum::Null),
                        // A computed item; most are literals or columns.
                        1 => item(self, depth - 1),
                        _ => item(self, 0),
                    })
                    .collect();
                Expr::InList { expr: Box::new(e), list, negated: self.flip() }
            }
        }
    }
}

/// Second columns of the Int, Double, Date and Str types after the
/// [`arb_typed_rows`] five, for `Col ⋈ Col` of one type; the second Double
/// column sometimes holds a NaN.
const INT_B: usize = 5;
const DOUBLE_B: usize = 6;
const DATE_B: usize = 7;
const STR_B: usize = 8;

/// [`arb_typed_rows`] widened by [`INT_B`], [`DOUBLE_B`], [`DATE_B`] and
/// [`STR_B`].
fn arb_filter_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let nan_or = |v: i64| if v == 9 { Datum::Double(f64::NAN) } else { Datum::Double(v as f64 / 4.0) };
    let twins = (
        nullable((-4i64..5).prop_map(Datum::Int)),
        nullable((-8i64..10).prop_map(nan_or)),
        nullable((9000i32..9100).prop_map(Datum::Date)),
        nullable("[ab%_é]{0,4}".prop_map(Datum::str)),
    );
    let row = (typed_row(), twins).prop_map(|(mut r, (a, b, c, d))| {
        r.0.extend([a, b, c, d]);
        r
    });
    proptest::collection::vec(row, 0..max)
}

impl TypedGen {
    /// A literal of the type of column `col` in [`arb_filter_rows`]'s
    /// domains; a Double is a NaN one time in eight.
    fn literal_for(&mut self, col: usize) -> Expr {
        match col {
            INT | INT_B => Expr::lit(self.below(9) as i64 - 4),
            DOUBLE | DOUBLE_B if self.below(8) == 0 => Expr::lit(f64::NAN),
            DOUBLE | DOUBLE_B => Expr::lit((self.below(17) as f64 - 8.0) / 4.0),
            DATE | DATE_B => Expr::lit(Datum::Date(9000 + self.below(100) as i32)),
            _ => self.string_lit(),
        }
    }

    /// A column of Int, Double, Date or Str type, and its twin of that type.
    fn column_pair(&mut self) -> (usize, usize) {
        [(INT, INT_B), (DOUBLE, DOUBLE_B), (DATE, DATE_B), (STR, STR_B)][self.below(4) as usize]
    }

    /// One of the predicate shapes the filter's typed loops take: a
    /// BETWEEN pair, `Col ⋈ Lit` with the literal on either side, `Col ⋈
    /// Col` of one type, a literal IN-list with or without a NULL item, a
    /// literal LIKE pattern, IS [NOT] NULL.
    fn kernel_leaf(&mut self) -> Expr {
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        let (a, b) = self.column_pair();
        let col = if self.flip() { a } else { b };
        match self.below(7) {
            0 => Expr::and(
                Expr::binary(BinOp::Ge, Expr::col(col), self.literal_for(col)),
                Expr::binary(BinOp::Le, Expr::col(col), self.literal_for(col)),
            ),
            1 => Expr::binary(ops[self.below(6) as usize], self.literal_for(col), Expr::col(col)),
            2 => Expr::binary(ops[self.below(6) as usize], Expr::col(col), self.literal_for(col)),
            3 => Expr::binary(ops[self.below(6) as usize], Expr::col(a), Expr::col(b)),
            4 => {
                let mut list: Vec<Expr> = (0..self.below(5)).map(|_| self.literal_for(col)).collect();
                if self.below(3) == 0 {
                    let at = self.below(list.len() as u64 + 1) as usize;
                    list.insert(at, Expr::Lit(Datum::Null));
                }
                Expr::InList { expr: Box::new(Expr::col(col)), list, negated: self.flip() }
            }
            5 => Expr::Like {
                expr: Box::new(Expr::col(if self.flip() { STR } else { STR_B })),
                pattern: Box::new(self.string_lit()),
                negated: self.flip(),
            },
            _ => Expr::IsNull { expr: Box::new(Expr::col(col)), negated: self.flip() },
        }
    }

    /// An AND/OR/NOT chain of [`Self::kernel_leaf`]s, `depth` levels deep
    /// (a NOT over a BETWEEN pair is `NOT BETWEEN`).
    fn kernel_chain(&mut self, depth: u32) -> Expr {
        let chain = if depth == 0 || self.below(4) == 0 {
            self.kernel_leaf()
        } else {
            let op = if self.flip() { BinOp::And } else { BinOp::Or };
            Expr::binary(op, self.kernel_chain(depth - 1), self.kernel_chain(depth - 1))
        };
        if self.below(4) == 0 { Expr::Not(Box::new(chain)) } else { chain }
    }
}

/// A filter's verdict on one row (on `NOT e` when `negated`) as the row
/// plane reaches it: NOT is pushed down as the vectorized filter pushes it
/// (De Morgan over AND/OR, NOT NOT cancelling), AND and OR short-circuit as
/// it does (the right side of AND only where the left is TRUE, of OR only
/// where it is not), anything else is [`Expr::eval_filter`].
fn filter_reference(e: &Expr, negated: bool, row: &Row) -> Result<bool, String> {
    match e {
        Expr::Not(inner) => filter_reference(inner, !negated, row),
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
            let left = filter_reference(left, negated, row)?;
            // NOT (a AND b) is NOT a OR NOT b; NOT (a OR b) is NOT a AND NOT b.
            if (*op == BinOp::And) != negated {
                Ok(left && filter_reference(right, negated, row)?)
            } else {
                Ok(left || filter_reference(right, negated, row)?)
            }
        }
        _ if negated => Expr::Not(Box::new(e.clone())).eval_filter(row).map_err(|err| err.to_string()),
        _ => e.eval_filter(row).map_err(|err| err.to_string()),
    }
}

fn arb_typed_expr() -> impl Strategy<Value = Expr> {
    (any::<u64>(), any::<bool>()).prop_map(|(seed, boolean)| {
        let mut g = TypedGen(seed);
        match (boolean, g.flip()) {
            (true, _) => g.boolean(3),
            (false, true) => g.int(3),
            (false, false) => g.double(3),
        }
    })
}

/// Reference LIKE matcher via dynamic programming.
fn like_reference(s: &str, p: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = p.chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; s.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        dp[0][j] = dp[0][j - 1] && p[j - 1] == '%';
    }
    for i in 1..=s.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && s[i - 1] == c,
            };
        }
    }
    dp[s.len()][p.len()]
}

proptest! {
    /// Evaluation is total: Ok or Err, never a panic; filters never panic.
    #[test]
    fn eval_never_panics(e in arb_expr(), row in arb_row()) {
        let _ = e.eval(&row);
        let _ = e.eval_filter(&row);
    }

    /// split_conjunction + conjunction is semantics-preserving.
    #[test]
    fn conjunction_roundtrip(e in arb_expr(), row in arb_row()) {
        let parts: Vec<Expr> = e.split_conjunction().into_iter().cloned().collect();
        let rebuilt = Expr::conjunction(parts);
        let a = e.eval(&row).ok();
        let b = rebuilt.eval(&row).ok();
        prop_assert_eq!(a, b);
    }

    /// Shifting up then down restores the expression.
    #[test]
    fn shift_roundtrip(e in arb_expr()) {
        let shifted = e.shift(0, 7).shift(7, -7);
        prop_assert_eq!(e, shifted);
    }

    /// The LIKE matcher agrees with the DP reference, multi-byte
    /// characters in subject and pattern included.
    #[test]
    fn like_matches_reference(s in "[abé€_%]{0,8}", p in "[abé€_%]{0,6}") {
        prop_assert_eq!(ic_common::expr::like_match(&s, &p), like_reference(&s, &p));
    }

    /// SUBSTRING counts characters, not bytes (both planes share
    /// `substring_range`, so the differential test cannot see it drift).
    #[test]
    fn substring_counts_characters(s in "[abé€]{0,8}", start in -2i64..11, len in -2i64..11) {
        let want: String =
            s.chars().skip((start.max(1) - 1) as usize).take(len.max(0) as usize).collect();
        let range = ic_common::expr::substring_range(s.as_bytes(), start, len);
        prop_assert_eq!(&s[range], want.as_str());
    }

    /// The vectorized evaluator against the row interpreter, over coerced
    /// expressions on typed columns with NULLs and a random selection,
    /// rotated so that it need not be increasing (a view may list its rows
    /// in any order):
    /// whenever the row plane succeeds on every selected row, `eval_expr`
    /// returns the same value of the same type on each and
    /// `eval_filter_sel` keeps the same rows. (Where the row plane fails,
    /// the vectorized plane may fail too or — evaluating fewer rows —
    /// succeed; it must not panic.)
    #[test]
    fn vectorized_matches_row_interpreter(
        e in arb_typed_expr(),
        rows in arb_typed_rows(12),
        keep in proptest::collection::vec(any::<bool>(), 12),
        turn in 0usize..12,
        dense in any::<bool>(),
    ) {
        let mut batch = ColumnBatch::from_rows(&rows);
        let mut selected: Vec<u32> = (0..rows.len() as u32).collect();
        if !dense {
            selected.retain(|&k| keep[k as usize]);
            let by = turn % selected.len().max(1);
            selected.rotate_left(by);
            batch = batch.select_logical(&selected);
        }
        let got = eval_expr(&e, &batch);
        let pass = eval_filter_sel(&e, &batch);
        let want: Result<Vec<Datum>, _> =
            selected.iter().map(|&k| e.eval(&rows[k as usize])).collect();
        let Ok(want) = want else { return Ok(()) };

        // Both entry points answer in physical rows: selected row `k` is
        // physical row `selected[k]`.
        let got = got.map_err(|err| format!("{e} failed only vectorized: {err}"))?;
        prop_assert_eq!(got.len(), rows.len());
        for (k, w) in want.iter().enumerate() {
            let g = got.datum_at(selected[k] as usize);
            // Values tie in the key order: a NaN is a NaN.
            prop_assert!(g.cmp(w).is_eq() && g.data_type() == w.data_type(), "{e} row {k}: {g:?} vs {w:?}");
        }
        let pass = pass.map_err(|err| format!("filter {e} failed only vectorized: {err}"))?;
        let want_pass: Vec<u32> = (0..want.len())
            .filter(|&k| want[k].as_bool() == Some(true))
            .map(|k| selected[k])
            .collect();
        prop_assert_eq!(pass, want_pass, "filter {}", e);
    }

    /// The filter against the row plane, three cases in four an AND/OR/NOT
    /// chain of the shapes the filter's typed loops take, the fourth any
    /// coerced predicate, over typed columns with NULLs, Doubles holding
    /// NaN, and a random selection, rotated like the one above. Chains are
    /// evaluated on exactly the rows the row plane reaches, so
    /// `eval_filter_sel` keeps exactly the rows [`filter_reference`]
    /// passes, in the selection's order, and fails exactly when it fails on
    /// some selected row, with one of its messages (a NaN's `cannot
    /// compare`, operands in their written order). Any other predicate may
    /// evaluate fewer rows, so only a success is compared.
    #[test]
    fn filter_matches_row_interpreter(
        seed in any::<u64>(),
        shape in 0u8..4,
        rows in arb_filter_rows(12),
        keep in proptest::collection::vec(any::<bool>(), 12),
        turn in 0usize..12,
        dense in any::<bool>(),
    ) {
        let mut g = TypedGen(seed);
        let chain = shape > 0;
        let e = if chain { g.kernel_chain(3) } else { g.boolean(3) };
        let mut batch = ColumnBatch::from_rows(&rows);
        let mut selected: Vec<u32> = (0..rows.len() as u32).collect();
        if !dense {
            selected.retain(|&k| keep[k as usize]);
            let by = turn % selected.len().max(1);
            selected.rotate_left(by);
            batch = batch.select_logical(&selected);
        }
        let got = eval_filter_sel(&e, &batch);
        let want: Vec<Result<bool, String>> =
            selected.iter().map(|&k| filter_reference(&e, false, &rows[k as usize])).collect();
        let errors: Vec<&String> = want.iter().filter_map(|w| w.as_ref().err()).collect();
        match got {
            Ok(pass) if errors.is_empty() => {
                let want_pass: Vec<u32> =
                    (0..want.len()).filter(|&k| want[k] == Ok(true)).map(|k| selected[k]).collect();
                prop_assert_eq!(pass, want_pass, "filter {}", e);
            }
            Ok(_) => prop_assert!(!chain, "{e} passed vectorized, failed in the row plane: {errors:?}"),
            Err(err) => {
                prop_assert!(!errors.is_empty(), "{e} failed only vectorized: {err}");
                let err = err.to_string();
                prop_assert!(!chain || errors.contains(&&err), "{e}: {err} is not among {errors:?}");
            }
        }
    }

    /// Epoch-day round trip over ±60 years.
    #[test]
    fn date_roundtrip(d in -20000i32..20000) {
        let (y, m, dd) = dates::from_epoch_days(d);
        prop_assert_eq!(dates::to_epoch_days(y, m, dd), d);
        prop_assert!((1..=12).contains(&m));
        prop_assert!(dd >= 1 && dd <= dates::days_in_month(y, m));
    }

    /// add_months composes: +a then +b == +(a+b).
    #[test]
    fn add_months_composes(d in 0i32..15000, a in -24i32..24, b in -24i32..24) {
        // Composition can differ by day clamping; compare via first-of-month.
        let (y, m, _) = dates::from_epoch_days(d);
        let first = dates::to_epoch_days(y, m, 1);
        prop_assert_eq!(
            dates::add_months(dates::add_months(first, a), b),
            dates::add_months(first, a + b)
        );
    }

    /// Datum equality implies hash equality.
    #[test]
    fn eq_implies_hash_eq(a in arb_datum(), b in arb_datum()) {
        if a == b {
            let hash = FxBuildHasher::default();
            prop_assert_eq!(hash.hash_one(&a), hash.hash_one(&b));
        }
    }

    /// Datum ordering is a total order: antisymmetric, and `Less` and
    /// `Equal` are transitive — across kinds too, where Int, Double and
    /// Date are one number line and a NaN follows every number. CI runs it
    /// at 200 000 cases (*Value order, deep*).
    #[test]
    fn ordering_laws(a in arb_ordered(), b in arb_ordered(), c in arb_ordered()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        for ord in [Ordering::Less, Ordering::Equal] {
            if a.cmp(&b) == ord && b.cmp(&c) == ord {
                prop_assert_eq!(a.cmp(&c), ord, "{:?} {:?} {:?}", a, b, c);
            }
        }
    }

    /// `cmp` is `Equal` exactly when `==` holds, NaN aside (a NaN ties
    /// with a NaN but equals nothing), and tied values hash alike — NaNs
    /// of either sign too.
    #[test]
    fn cmp_is_equal_exactly_when_eq(a in arb_ordered(), b in arb_ordered()) {
        let nan = |d: &Datum| matches!(d, Datum::Double(x) if x.is_nan());
        if !nan(&a) && !nan(&b) {
            prop_assert_eq!(a.cmp(&b) == std::cmp::Ordering::Equal, a == b, "{:?} {:?}", a, b);
        }
        if a.cmp(&b) == std::cmp::Ordering::Equal {
            let hash = |d: &Datum| FxBuildHasher::default().hash_one(d);
            prop_assert_eq!(hash(&a), hash(&b), "{:?} {:?}", a, b);
        }
    }

    /// The column plane orders like the row plane: `cmp_at` is
    /// `Datum::cmp`, NaN included, for two values of any kinds in two
    /// one-row columns, so key equality (the order's tie) is `Datum`'s tie.
    #[test]
    fn column_order_is_datum_order(a in arb_ordered(), b in arb_ordered()) {
        let one = |d: &Datum| ColumnBatch::from_rows(&[Row(vec![d.clone()])]);
        let (x, y) = (one(&a), one(&b));
        prop_assert_eq!(x.col(0).cmp_at(0, y.col(0), 0), a.cmp(&b), "{:?} {:?}", a, b);
    }

    /// Three-valued logic: NOT(NOT(x)) == x for boolean-valued expressions.
    #[test]
    fn double_negation(row in arb_row(), v in 0usize..4, lit in -50i64..50) {
        let cmp = Expr::binary(BinOp::Gt, Expr::col(v), Expr::lit(lit));
        let double = Expr::Not(Box::new(Expr::Not(Box::new(cmp.clone()))));
        prop_assert_eq!(cmp.eval(&row).ok(), double.eval(&row).ok());
    }
}
