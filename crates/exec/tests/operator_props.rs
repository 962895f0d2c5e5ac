//! Property tests for the physical operators: the three join algorithms
//! agree with each other on every join kind, distributed aggregation
//! equals single-site aggregation, and sort/limit obey their contracts.

use ic_common::agg::AggFunc;
use ic_common::{BinOp, ColumnBatch, Datum, Expr, IcResult, Row};
use ic_exec::operators::{
    drain, BoxedSource, ControlBlock, HashAggExec, HashJoinExec, LimitExec, MergeJoinExec,
    NestedLoopJoinExec, RowSource, SortExec, VecSource,
};
use ic_plan::ops::{AggCall, AggPhase, JoinKind, SortKey};
use proptest::prelude::*;

fn rows(keys: &[(i64, i64)]) -> Vec<Row> {
    keys.iter().map(|&(k, v)| Row(vec![Datum::Int(k), Datum::Int(v)])).collect()
}

fn src(data: Vec<Row>) -> BoxedSource {
    Box::new(VecSource::new(data))
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

fn run_nlj(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Row> {
    let on = Expr::eq(Expr::col(0), Expr::col(2));
    let j = NestedLoopJoinExec::new(src(rows(l)), src(rows(r)), kind, on, 2, ControlBlock::new(None, 0));
    canon(drain(Box::new(j)).unwrap())
}

fn run_hash(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Row> {
    let j = HashJoinExec::new(
        src(rows(l)),
        src(rows(r)),
        kind,
        vec![0],
        vec![0],
        Expr::lit(true),
        2,
        ControlBlock::new(None, 0),
    );
    canon(drain(Box::new(j)).unwrap())
}

fn run_merge(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Row> {
    let mut ls = rows(l);
    let mut rs = rows(r);
    ls.sort_by_key(|r| r.0[0].as_int().unwrap());
    rs.sort_by_key(|r| r.0[0].as_int().unwrap());
    let j = MergeJoinExec::new(
        src(ls),
        src(rs),
        kind,
        vec![0],
        vec![0],
        Expr::lit(true),
        2,
        ControlBlock::new(None, 0),
    );
    canon(drain(Box::new(j)).unwrap())
}

/// A source replaying pre-cut batches, so inputs reach an operator in
/// chunks far smaller than `BATCH_SIZE`.
struct BatchesSource(std::collections::VecDeque<ColumnBatch>);

impl RowSource for BatchesSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        Ok(self.0.pop_front())
    }
}

/// Cut sorted `rows` into batches of the given sizes (cycled). Every other
/// batch is a selection view over a physically larger batch, so cursors
/// must resolve logical rows through the selection.
fn chunked_src(rows: &[Row], sizes: &[usize]) -> BoxedSource {
    let mut batches = std::collections::VecDeque::new();
    let (mut at, mut i) = (0, 0);
    while at < rows.len() {
        let n = sizes[i % sizes.len()].min(rows.len() - at);
        let piece = &rows[at..at + n];
        if i % 2 == 0 {
            batches.push_back(ColumnBatch::from_rows(piece));
        } else {
            // Physical layout: a decoy row before each real row.
            let decoy = Row(vec![Datum::Int(-1), Datum::Int(-1), Datum::Int(-1)]);
            let padded: Vec<Row> = piece.iter().flat_map(|r| [decoy.clone(), r.clone()]).collect();
            let sel = (0..n as u32).map(|k| 2 * k + 1).collect();
            batches.push_back(ColumnBatch::from_rows(&padded).with_sel(sel));
        }
        at += n;
        i += 1;
    }
    Box::new(BatchesSource(batches))
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

proptest! {
    /// The column-native merge join emits exactly what the hash join does,
    /// row for row and in the same order, on sorted inputs cut into tiny
    /// batches: duplicate-key runs span batch boundaries on both sides,
    /// keys are composite with NULLs, sides may be empty, for all four join
    /// kinds, with and without a residual.
    #[test]
    fn merge_join_equals_hash_join_across_chunk_boundaries(
        l in sorted_side(),
        r in sorted_side(),
        lsizes in proptest::collection::vec(1usize..6, 1..4),
        rsizes in proptest::collection::vec(1usize..6, 1..4),
        with_residual in proptest::bool::ANY,
    ) {
        // l.v > r.v over the joined row (l.k1 l.k2 l.v r.k1 r.k2 r.v).
        let residual = if with_residual {
            Expr::binary(BinOp::Gt, Expr::col(2), Expr::col(5))
        } else {
            Expr::lit(true)
        };
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let mj = MergeJoinExec::new(
                chunked_src(&l, &lsizes), chunked_src(&r, &rsizes), kind,
                vec![0, 1], vec![0, 1], residual.clone(), 3, ControlBlock::new(None, 0));
            let hj = HashJoinExec::new(
                src(l.clone()), src(r.clone()), kind,
                vec![0, 1], vec![0, 1], residual.clone(), 3, ControlBlock::new(None, 0));
            prop_assert_eq!(
                drain(Box::new(mj)).unwrap(),
                drain(Box::new(hj)).unwrap(),
                "{:?}, residual: {}", kind, with_residual
            );
        }
    }
}

proptest! {
    /// Hash join ≡ nested-loop join ≡ merge join, for every join kind.
    #[test]
    fn join_algorithms_agree((l, r) in join_inputs()) {
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let nlj = run_nlj(&l, &r, kind);
            let hj = run_hash(&l, &r, kind);
            let mj = run_merge(&l, &r, kind);
            prop_assert_eq!(&nlj, &hj, "hash vs nlj, {:?}", kind);
            prop_assert_eq!(&nlj, &mj, "merge vs nlj, {:?}", kind);
        }
    }

    /// Joins with a residual predicate agree between hash and nested-loop.
    #[test]
    fn residual_joins_agree((l, r) in join_inputs()) {
        let residual = Expr::binary(BinOp::Gt, Expr::col(1), Expr::col(3));
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let on = Expr::and(Expr::eq(Expr::col(0), Expr::col(2)), residual.clone());
            let nlj = NestedLoopJoinExec::new(
                src(rows(&l)), src(rows(&r)), kind, on, 2, ControlBlock::new(None, 0));
            let hj = HashJoinExec::new(
                src(rows(&l)), src(rows(&r)), kind, vec![0], vec![0],
                residual.clone(), 2, ControlBlock::new(None, 0));
            prop_assert_eq!(
                canon(drain(Box::new(nlj)).unwrap()),
                canon(drain(Box::new(hj)).unwrap()),
                "{:?}", kind
            );
        }
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
        ];
        let complete = HashAggExec::new(
            src(rows(&data)), vec![0], aggs.clone(), AggPhase::Complete,
            ControlBlock::new(None, 0));
        let expected = canon(drain(Box::new(complete)).unwrap());

        let mut partial_rows = Vec::new();
        for p in 0..parts {
            let slice: Vec<(i64, i64)> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| i % parts == p)
                .map(|(_, kv)| *kv)
                .collect();
            let partial = HashAggExec::new(
                src(rows(&slice)), vec![0], aggs.clone(), AggPhase::Partial,
                ControlBlock::new(None, 0));
            partial_rows.extend(drain(Box::new(partial)).unwrap());
        }
        let fin = HashAggExec::new(
            src(partial_rows), vec![0], aggs.clone(), AggPhase::Final,
            ControlBlock::new(None, 0));
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
        let s = SortExec::new(src(rows(&data)), keys, ControlBlock::new(None, 0));
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

    /// Limit with offset returns exactly the requested window.
    #[test]
    fn limit_window(n in 0usize..60, offset in 0u64..30, fetch in 0u64..30) {
        let data: Vec<(i64, i64)> = (0..n as i64).map(|i| (i, i)).collect();
        let l = LimitExec::new(src(rows(&data)), Some(fetch), offset, ControlBlock::new(None, 0));
        let got = drain(Box::new(l)).unwrap();
        let expected: Vec<Row> = rows(&data)
            .into_iter()
            .skip(offset as usize)
            .take(fetch as usize)
            .collect();
        prop_assert_eq!(got, expected);
    }
}
