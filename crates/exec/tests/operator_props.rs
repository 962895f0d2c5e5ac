//! Property tests for the physical operators: the three join algorithms
//! agree with a brute-force oracle on every join kind — row for row, in
//! order, and for the merge join also over inputs that seek — distributed
//! aggregation equals single-site aggregation, and sort/limit obey their
//! contracts.

mod common;

use common::{chunked_src, join_oracle, BatchesSource};
use ic_common::agg::AggFunc;
use ic_common::row::BATCH_SIZE;
use ic_common::{BinOp, ColumnBatch, DataType, Datum, Expr, IcResult, Row};
use ic_exec::operators::{
    drain, AggExec, BoxedSource, ControlBlock, FilterExec, HashJoinExec, LimitExec, MergeJoinExec,
    NestedLoopJoinExec, ProjectExec, RowSource, ScanSource, SortExec, VecSource, NLJ_PAIR_BUDGET,
};
use ic_plan::ops::{AggCall, AggPhase, JoinKind, SortKey};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const KINDS: [JoinKind; 4] = [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti];

fn rows(keys: &[(i64, i64)]) -> Vec<Row> {
    keys.iter().map(|&(k, v)| Row(vec![Datum::Int(k), Datum::Int(v)])).collect()
}

/// A source of Int rows (every column of these properties is Int).
fn src(data: Vec<Row>) -> BoxedSource {
    Box::new(VecSource::new(ints(data.first().map_or(0, Row::arity)), data))
}

fn ints(n: usize) -> Vec<DataType> {
    vec![DataType::Int; n]
}

fn canon(mut v: Vec<Row>) -> Vec<Row> {
    v.sort();
    v
}

#[allow(clippy::type_complexity)]
fn join_inputs() -> impl Strategy<Value = (Vec<(i64, i64)>, Vec<(i64, i64)>)> {
    (
        proptest::collection::vec((0i64..8, -20i64..20), 0..40),
        proptest::collection::vec((0i64..8, -20i64..20), 0..40),
    )
}

/// One equi-join — the first `nkeys` columns of each side, plus `residual`
/// over the joined row — through an engine join, inputs cut into batches of
/// the given sizes.
struct Case<'a> {
    l: &'a [Row],
    r: &'a [Row],
    sizes: (&'a [usize], &'a [usize]),
    nkeys: usize,
    residual: &'a Expr,
    kind: JoinKind,
}

impl Case<'_> {
    fn width(&self) -> usize {
        self.l.first().or(self.r.first()).map_or(self.nkeys, Row::arity)
    }

    /// `l.k = r.k AND ... AND residual`, as a nested-loop join's `ON`.
    fn on(&self) -> Expr {
        let mut conj: Vec<Expr> =
            (0..self.nkeys).map(|k| Expr::eq(Expr::col(k), Expr::col(self.width() + k))).collect();
        conj.push(self.residual.clone());
        Expr::conjunction(conj)
    }

    fn oracle(&self) -> Vec<Row> {
        join_oracle(self.l, self.r, self.kind, &self.on(), self.width())
    }

    fn inputs(&self) -> (BoxedSource, BoxedSource, std::sync::Arc<ControlBlock>) {
        (chunked_src(self.l, self.sizes.0), chunked_src(self.r, self.sizes.1), ControlBlock::unlimited())
    }

    fn nlj(&self) -> Vec<Row> {
        let (l, r, ctrl) = self.inputs();
        drain(Box::new(NestedLoopJoinExec::new(l, r, self.kind, self.on(), self.width(), ctrl)))
            .unwrap()
    }

    fn hash(&self) -> Vec<Row> {
        let (l, r, ctrl) = self.inputs();
        let keys: Vec<usize> = (0..self.nkeys).collect();
        drain(Box::new(HashJoinExec::new(
            l, r, self.kind, keys.clone(), keys, self.residual.clone(), self.width(), ctrl)))
        .unwrap()
    }

    /// Inputs must be sorted on the keys.
    fn merge(&self) -> Vec<Row> {
        let (l, r, ctrl) = self.inputs();
        self.merge_over(l, r, ctrl)
    }

    fn merge_over(&self, l: BoxedSource, r: BoxedSource, ctrl: Arc<ControlBlock>) -> Vec<Row> {
        let keys: Vec<usize> = (0..self.nkeys).collect();
        drain(Box::new(MergeJoinExec::new(
            l, r, self.kind, keys.clone(), keys, self.residual.clone(), self.width(), ctrl)))
        .unwrap()
    }

    /// The merge join over inputs that honour its seeks: each side an
    /// index-run scan cut into `chunks` (sizes cycled) and reached the way a
    /// plan reaches one — through a filter and a column-reordering
    /// projection. With `variants > 1` the side a variant fragment slices
    /// (INNER: the right; otherwise the left) is a splitter stride in each
    /// variant, and the answer is every variant's output together.
    fn merge_seeking(&self, chunks: &[usize], variants: usize) -> Vec<Row> {
        let split_left = self.kind != JoinKind::Inner;
        let mut out = Vec::new();
        for vid in 0..variants {
            let split = (variants > 1).then_some((vid, variants));
            let ctrl = ControlBlock::unlimited();
            let l = self.seek_src(self.l, chunks, split.filter(|_| split_left), &ctrl);
            let r = self.seek_src(self.r, chunks, split.filter(|_| !split_left), &ctrl);
            out.extend(self.merge_over(l, r, ctrl));
        }
        out
    }

    /// `rows` stored rotated one column right — the keys at columns
    /// `1..=nkeys`, which the run is sorted on — then scanned, filtered and
    /// projected back.
    fn seek_src(
        &self,
        rows: &[Row],
        chunks: &[usize],
        split: Option<(usize, usize)>,
        ctrl: &Arc<ControlBlock>,
    ) -> BoxedSource {
        let w = self.width();
        let rotate = |r: &Row| Row(r.0[w - 1..].iter().chain(&r.0[..w - 1]).cloned().collect());
        let stored: Vec<Row> = rows.iter().map(rotate).collect();
        let mut run = Vec::new();
        let (mut at, mut i) = (0, 0);
        while at < stored.len() {
            let n = chunks[i % chunks.len()].min(stored.len() - at);
            run.push(Arc::new(ColumnBatch::from_typed_rows(&ints(w), &stored[at..at + n])));
            (at, i) = (at + n, i + 1);
        }
        let sort: Vec<SortKey> = (1..=self.nkeys).map(SortKey::asc).collect();
        let scan = ScanSource::new(Arc::new(run), split, ctrl.clone()).sorted_on(&sort);
        let kept = FilterExec::new(Box::new(scan), Expr::lit(true), ctrl.clone());
        let back = (1..w).chain([0]).map(Expr::col).collect();
        Box::new(ProjectExec::new(Box::new(kept), back, ctrl.clone()))
    }
}

/// Counts the batches pulled through it.
struct Counting {
    inner: BoxedSource,
    pulls: Arc<AtomicUsize>,
}

impl RowSource for Counting {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.pulls.fetch_add(1, Ordering::Relaxed);
        self.inner.next_batch()
    }
}

/// Rows `(k1, k2, v)` sorted on the composite key, NULL keys included
/// (they sort first and must match nothing).
fn sorted_side() -> impl Strategy<Value = Vec<Row>> {
    let key = || (0i64..4).prop_map(|k| if k == 0 { Datum::Null } else { Datum::Int(k) });
    proptest::collection::vec((key(), key(), -9i64..9), 0..48).prop_map(|raw| {
        let mut rows: Vec<Row> =
            raw.into_iter().map(|(a, b, v)| Row(vec![a, b, Datum::Int(v)])).collect();
        rows.sort_by(|x, y| x.0[..2].cmp(&y.0[..2]));
        rows
    })
}

/// `(k, v)` rows joined on `k`: nested-loop and hash join on the inputs as
/// given, merge join on their key-sorted copies, each against the oracle.
fn check_single_key_joins(l: &[Row], r: &[Row], residual: &Expr) -> Result<(), String> {
    let (mut ls, mut rs) = (l.to_vec(), r.to_vec());
    ls.sort_by_key(|r| r.0[0].as_int().unwrap());
    rs.sort_by_key(|r| r.0[0].as_int().unwrap());
    for kind in KINDS {
        let case = Case { l, r, sizes: (&[7], &[5]), nkeys: 1, residual, kind };
        let expect = case.oracle();
        prop_assert_eq!(&case.nlj(), &expect, "nlj {:?}", kind);
        prop_assert_eq!(&case.hash(), &expect, "hash {:?}", kind);
        let sorted = Case { l: &ls, r: &rs, ..case };
        let expect = sorted.oracle();
        prop_assert_eq!(&sorted.merge(), &expect, "merge {:?}", kind);
        prop_assert_eq!(&sorted.merge_seeking(&[3, 1], 1), &expect, "seeking merge {:?}", kind);
        let split = canon(sorted.merge_seeking(&[2], 2));
        prop_assert_eq!(split, canon(expect), "seeking merge {:?} in 2 variants", kind);
    }
    Ok(())
}

proptest! {
    /// All three joins emit exactly what the oracle does, row for row and
    /// in the same order, on sorted inputs cut into tiny batches (every
    /// other one a selection view): duplicate-key runs span batch
    /// boundaries on both sides, keys are composite with NULLs, sides may
    /// be empty, for all four join kinds — without a residual, with one,
    /// and with one that rejects every candidate. The merge join does the
    /// same over index runs of 1–8-row chunks that honour its seeks, whole
    /// and split into variants.
    #[test]
    fn joins_match_oracle_across_chunk_boundaries(
        l in sorted_side(),
        r in sorted_side(),
        lsizes in proptest::collection::vec(1usize..6, 1..4),
        rsizes in proptest::collection::vec(1usize..6, 1..4),
        residual in 0u8..3,
        chunks in proptest::collection::vec(1usize..9, 1..4),
        variants in 2usize..4,
    ) {
        // l.v > r.v over the joined row (l.k1 l.k2 l.v r.k1 r.k2 r.v).
        let residual = match residual {
            0 => Expr::lit(true),
            1 => Expr::binary(BinOp::Gt, Expr::col(2), Expr::col(5)),
            _ => Expr::lit(false),
        };
        for kind in KINDS {
            let case = Case { l: &l, r: &r, sizes: (&lsizes, &rsizes), nkeys: 2, residual: &residual, kind };
            let expect = case.oracle();
            prop_assert_eq!(&case.nlj(), &expect, "nlj {:?} residual {:?}", kind, residual);
            prop_assert_eq!(&case.hash(), &expect, "hash {:?} residual {:?}", kind, residual);
            prop_assert_eq!(&case.merge(), &expect, "merge {:?} residual {:?}", kind, residual);
            let seeking = case.merge_seeking(&chunks, 1);
            prop_assert_eq!(&seeking, &expect, "seeking merge {:?} residual {:?}", kind, residual);
            let split = canon(case.merge_seeking(&chunks, variants));
            let what = format!("seeking merge {kind:?} in {variants} variants");
            prop_assert_eq!(split, canon(expect), "{}", what);
        }
    }

    /// Hash join ≡ nested-loop join ≡ oracle on unsorted inputs, merge join
    /// ≡ oracle on their sorted copies — for every join kind, in order.
    #[test]
    fn join_algorithms_agree((l, r) in join_inputs()) {
        check_single_key_joins(&rows(&l), &rows(&r), &Expr::lit(true))?;
    }

    /// The same with a residual predicate (`l.v > r.v`).
    #[test]
    fn residual_joins_agree((l, r) in join_inputs()) {
        let residual = Expr::binary(BinOp::Gt, Expr::col(1), Expr::col(3));
        check_single_key_joins(&rows(&l), &rows(&r), &residual)?;
    }

    /// Partial-per-partition + final ≡ complete, for any partitioning of
    /// the input (the §3.2 map-reduce aggregation invariant the §5.3
    /// variant fragments also rely on).
    #[test]
    fn distributed_aggregation_invariant(
        data in proptest::collection::vec((0i64..6, -50i64..50), 0..80),
        parts in 1usize..5,
    ) {
        let aggs = vec![
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
            AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
            AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "x".into() },
            AggCall { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() },
        ];
        // The Int key, SUM / COUNT(*) / MIN / MAX, then AVG — a Double, or
        // for `Partial` its Double sum and Int count.
        let types = |phase| {
            let avg_count = (phase == AggPhase::Partial).then_some(DataType::Int);
            ints(5).into_iter().chain([DataType::Double]).chain(avg_count).collect::<Vec<_>>()
        };
        let complete = AggExec::hash(
            src(rows(&data)), vec![0], aggs.clone(), AggPhase::Complete, types(AggPhase::Complete),
            ControlBlock::unlimited());
        let expected = canon(drain(Box::new(complete)).unwrap());

        let mut partial_rows = Vec::new();
        for p in 0..parts {
            let slice: Vec<(i64, i64)> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| i % parts == p)
                .map(|(_, kv)| *kv)
                .collect();
            let partial = AggExec::hash(
                src(rows(&slice)), vec![0], aggs.clone(), AggPhase::Partial, types(AggPhase::Partial),
                ControlBlock::unlimited());
            partial_rows.extend(drain(Box::new(partial)).unwrap());
        }
        let fin = AggExec::hash(
            Box::new(VecSource::new(types(AggPhase::Partial), partial_rows)), vec![0], aggs.clone(),
            AggPhase::Final, types(AggPhase::Final),
            ControlBlock::unlimited());
        let got = canon(drain(Box::new(fin)).unwrap());
        // Scalar groups: partials of empty slices still produce identity
        // rows; grouped aggregation over an empty slice produces nothing —
        // either way the merged result must equal the complete one.
        prop_assert_eq!(got, expected);
    }

    /// SortExec output equals std sort, for any mix of directions.
    #[test]
    fn sort_matches_std(data in proptest::collection::vec((-50i64..50, -50i64..50), 0..100),
                        desc0 in any::<bool>(), desc1 in any::<bool>()) {
        let keys = vec![SortKey { col: 0, desc: desc0 }, SortKey { col: 1, desc: desc1 }];
        let s = SortExec::new(src(rows(&data)), keys, ControlBlock::unlimited());
        let got = drain(Box::new(s)).unwrap();
        let mut expected = rows(&data);
        expected.sort_by(|a, b| {
            let o = a.0[0].cmp(&b.0[0]);
            let o = if desc0 { o.reverse() } else { o };
            o.then_with(|| {
                let o = a.0[1].cmp(&b.0[1]);
                if desc1 { o.reverse() } else { o }
            })
        });
        prop_assert_eq!(got, expected);
    }

    /// A filter and a projection above a sort keep its order — through an
    /// OR and an IN-list with a column item, each of which merges rows kept
    /// by two parts — over the sort's output, and over a view listing the
    /// sorted rows by a selection that runs backwards through its batch.
    #[test]
    fn filter_and_project_keep_sorted_order(
        data in proptest::collection::vec((-20i64..20, -20i64..20), 0..100),
        desc in any::<bool>(),
    ) {
        let (c, lit) = (Expr::col, Expr::lit);
        let pred = Expr::or(
            Expr::binary(BinOp::Lt, c(1), lit(-5i64)),
            Expr::InList { expr: Box::new(c(0)), list: vec![c(1), lit(3i64)], negated: false },
        );
        let exprs = vec![c(0), Expr::binary(BinOp::Sub, c(0), c(1))];
        let mut sorted = rows(&data);
        sorted.sort_by(|a, b| if desc { b.cmp(a) } else { a.cmp(b) });
        let expected: Vec<Row> = sorted
            .iter()
            .filter(|r| pred.eval(r).unwrap().as_bool() == Some(true))
            .map(|r| Row(exprs.iter().map(|e| e.eval(r).unwrap()).collect()))
            .collect();
        let above = |input: BoxedSource| {
            let ctrl = ControlBlock::unlimited();
            let kept = FilterExec::new(input, pred.clone(), ctrl.clone());
            drain(Box::new(ProjectExec::new(Box::new(kept), exprs.clone(), ctrl))).unwrap()
        };
        let keys = vec![SortKey { col: 0, desc }, SortKey { col: 1, desc }];
        let sort = SortExec::new(src(rows(&data)), keys, ControlBlock::unlimited());
        prop_assert_eq!(above(Box::new(sort)), expected.clone());
        if !sorted.is_empty() {
            let backwards: Vec<Row> = sorted.iter().rev().cloned().collect();
            let sel = (0..sorted.len() as u32).rev().collect();
            let view = ColumnBatch::from_rows(&backwards).with_sel(sel);
            prop_assert_eq!(above(Box::new(BatchesSource([view].into()))), expected);
        }
    }

    /// Limit with offset returns exactly the requested window.
    #[test]
    fn limit_window(n in 0usize..60, offset in 0u64..30, fetch in 0u64..30) {
        let data: Vec<(i64, i64)> = (0..n as i64).map(|i| (i, i)).collect();
        let l = LimitExec::new(src(rows(&data)), Some(fetch), offset, ControlBlock::unlimited());
        let got = drain(Box::new(l)).unwrap();
        let expected: Vec<Row> = rows(&data)
            .into_iter()
            .skip(offset as usize)
            .take(fetch as usize)
            .collect();
        prop_assert_eq!(got, expected);
    }
}

/// The nested-loop join walks a left batch in steps of whole rows under a
/// fixed pair budget. Two right sides bracket it — one larger than the
/// whole budget (every step is a single left row, its candidates one
/// oversized chunk) and one a bit over a third of it (steps of two rows, so
/// 7-row left batches split 2+2+2+1) — with a non-equi `ON` no other join
/// can run, against the oracle, for all four kinds.
#[test]
fn nlj_pair_budget_steps_match_oracle() {
    let left: Vec<Row> = (0..16i64).map(|i| Row(vec![Datum::Int(i * 701), Datum::Int(i)])).collect();
    for right_rows in [NLJ_PAIR_BUDGET + 3, NLJ_PAIR_BUDGET / 3 + 1] {
        let right: Vec<Row> =
            (0..right_rows as i64).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 5)])).collect();
        // r.a < l.a AND l.b = r.b + 11 — false for the first eleven left
        // rows, true for a fifth of the right rows below `l.a` after that.
        let on = Expr::and(
            Expr::binary(BinOp::Lt, Expr::col(2), Expr::col(0)),
            Expr::eq(Expr::col(1), Expr::binary(BinOp::Add, Expr::col(3), Expr::lit(11i64))),
        );
        for kind in KINDS {
            let nlj = NestedLoopJoinExec::new(
                chunked_src(&left, &[7]),
                chunked_src(&right, &[BATCH_SIZE, 100]),
                kind,
                on.clone(),
                2,
                ControlBlock::unlimited(),
            );
            let got = drain(Box::new(nlj)).unwrap();
            assert!(kind != JoinKind::Inner || !got.is_empty(), "predicate must select something");
            assert_eq!(got, join_oracle(&left, &right, kind, &on, 2), "{kind:?}, right {right_rows}");
        }
    }
}

/// An INNER or SEMI merge join ends once its right side is exhausted — it
/// pulls no further left batch — while LEFT and ANTI joins drain the left:
/// they emit the left rows nothing matches. An empty right side still costs
/// the left one pull, so the exchanges below it are drained.
#[test]
fn merge_join_stops_pulling_left_once_the_right_side_is_exhausted() {
    let left: Vec<Row> = (0..100i64).map(|k| Row(vec![Datum::Int(k), Datum::Int(k)])).collect();
    let right: Vec<Row> =
        [1i64, 2, 7].iter().map(|&k| Row(vec![Datum::Int(k), Datum::Int(-k)])).collect();
    for kind in KINDS {
        for right in [&right[..], &[]] {
            let pulls = Arc::new(AtomicUsize::new(0));
            let counted = Counting { inner: chunked_src(&left, &[5]), pulls: pulls.clone() };
            let mj = MergeJoinExec::new(
                Box::new(counted),
                chunked_src(right, &[2]),
                kind,
                vec![0],
                vec![0],
                Expr::lit(true),
                2,
                ControlBlock::unlimited(),
            );
            let got = drain(Box::new(mj)).unwrap();
            let on = Expr::eq(Expr::col(0), Expr::col(2));
            assert_eq!(got, join_oracle(&left, right, kind, &on, 2), "{kind:?}");
            // Key 7 is in the second left batch (5..9); 20 batches, then `None`.
            let expect = match (kind, right.is_empty()) {
                (JoinKind::Inner | JoinKind::Semi, false) => 2,
                (JoinKind::Inner | JoinKind::Semi, true) => 1,
                (JoinKind::Left | JoinKind::Anti, _) => 21,
            };
            assert_eq!(pulls.load(Ordering::Relaxed), expect, "{kind:?}, right {right:?}");
        }
    }
}
