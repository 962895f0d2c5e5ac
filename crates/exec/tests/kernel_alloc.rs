//! Kernel loops allocate per batch, never per row. A counting global
//! allocator runs every kernel family over 16 and over 128 batches of
//! 1 024 rows and bounds its allocations per batch: join build, probe and
//! gather; the merge join's cursors; group slots, alone on a key with
//! words and with every aggregate's fold in every phase and the split;
//! sort permutations; the expression evaluator over every `Expr`
//! variant and typed function loop, on dense and on selected batches, and
//! the filter's typed shapes, both bounded tighter; key hashing and the
//! typed take. One
//! allocation per row would cost at least 1 024 a batch. The count is real:
//! it sees allocations in closures and callees too. Run with
//! `-- --nocapture` for each family's allocations per batch.

use ic_common::agg::AggFunc;
use ic_common::eval::{eval_expr, eval_filter_sel};
use ic_common::{BinOp, ColumnBatch, DataType, Datum, Expr, Field, FuncKind, Row, Schema};
use ic_common::IcResult;
use ic_exec::kernels::{gather_join_output, ColGroupTable, ColJoinTable};
use ic_exec::operators::{ControlBlock, MergeJoinExec, RowSource};
use ic_plan::ops::{AggCall, AggPhase, JoinKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calling thread's allocations, so tests running in parallel
/// do not see each other's.
struct Counting;

fn tick() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell<u64>`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const ROWS: usize = 1024;
/// A kernel may allocate its outputs and scratch per batch; 64 is far
/// below the 1 024 one allocation per row would cost.
const PER_BATCH: u64 = 64;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Columns: a unique Int id, an Int group key (NULL every 7th row), a
/// Double, a Str and a Date.
const TYPES: [DataType; 5] = [DataType::Int, DataType::Int, DataType::Double, DataType::Str, DataType::Date];

/// A value of `ty` for global row `i`.
fn cell(ty: DataType, i: usize) -> Datum {
    let v = i as i64;
    match ty {
        DataType::Int => Datum::Int(v % 64),
        DataType::Double => Datum::Double((v % 1000) as f64 / 8.0),
        DataType::Str => Datum::str(format!("s{}", v % 100)),
        DataType::Date => Datum::Date((v % 3650) as i32),
        DataType::Bool => Datum::Bool(v % 2 == 0),
    }
}

/// `n` batches of [`ROWS`] rows of `types`: the row id, the Int group key
/// (NULL every 7th row, or with `sorted` 16 groups a batch in ascending
/// order), then a value of each further type.
fn batches(n: usize, types: &[DataType], sorted: bool) -> Vec<ColumnBatch> {
    let row = |i: usize| {
        let key = match sorted {
            true => Datum::Int((i / 64) as i64),
            false if i.is_multiple_of(7) => Datum::Null,
            false => Datum::Int((i % 64) as i64),
        };
        Row([Datum::Int(i as i64), key].into_iter().chain(types[2..].iter().map(|&t| cell(t, i))).collect())
    };
    let rows = |b: usize| (b * ROWS..(b + 1) * ROWS).map(row).collect::<Vec<_>>();
    (0..n).map(|b| ColumnBatch::from_typed_rows(types, &rows(b))).collect()
}

fn join(input: &[ColumnBatch]) {
    let table = ColJoinTable::build(vec![0], TYPES.len(), input.to_vec());
    for probe in input {
        let (pks, bis) = table.probe_pairs(probe, &[0], true);
        let _ = gather_join_output(probe, &pks, table.arena(), &bis);
        let _ = table.probe_matched(probe, &[0]);
    }
}

/// A source replaying batches.
struct Replay(std::vec::IntoIter<ColumnBatch>);

impl RowSource for Replay {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        Ok(self.0.next())
    }
}

/// An INNER merge join of `n` batches of (row id, key) with themselves on
/// the ascending row id, every output batch pulled: both cursors walk one
/// match per row, and the emitter gathers the pairs' four columns.
fn merge(n: usize) -> u64 {
    let input = batches(n, &TYPES[..2], false);
    let side = || Box::new(Replay(input.clone().into_iter()));
    let mut join = MergeJoinExec::new(
        side(), side(), JoinKind::Inner, vec![0], vec![0], Expr::lit(true), 2,
        ControlBlock::unlimited());
    allocations(|| while join.next_batch().unwrap().is_some() {})
}

/// Group slots alone on the Int key, which has words: hashed, or sorted
/// with every group but the newest closed after each batch.
fn group_slots(n: usize, sorted: bool) -> u64 {
    let data = batches(n, &TYPES, sorted);
    let mut groups = ColGroupTable::new(vec![1], &[], AggPhase::Complete, &[DataType::Int]);
    let mut slots = Vec::new();
    allocations(|| {
        for batch in &data {
            groups.assign_slots(batch, sorted, &mut slots);
            if sorted {
                let _ = groups.split_front(groups.len() - 1);
            }
        }
    })
}

/// One call of every aggregate over each argument type it has a typed loop
/// for; COUNT(DISTINCT), which has no `Partial` or `Final` phase, last.
fn agg_calls() -> Vec<AggCall> {
    use AggFunc::*;
    let call = |func, arg: Option<usize>| AggCall { func, arg: arg.map(Expr::col), name: "a".into() };
    let mut calls = vec![call(Count, Some(2)), call(CountStar, None), call(Sum, Some(0)), call(Sum, Some(2))];
    calls.extend([Avg, Min, Max].into_iter().flat_map(|f| [0, 2].map(|c| call(f, Some(c)))));
    calls.extend([Min, Max].into_iter().flat_map(|f| [3, 4].map(|c| call(f, Some(c)))));
    calls.push(call(CountDistinct, Some(3)));
    calls
}

/// Group on column 1 and fold `call` in `phase`: `Complete` and `Partial`
/// over the input's columns, `Final` over state columns of the partial
/// types. The table starts empty and is split at the end; a sorted one
/// closes every group but the newest after each batch, as `AggExec` does.
fn aggregate(n: usize, call: &AggCall, phase: AggPhase, sorted: bool) -> u64 {
    let input = Schema::new(TYPES.iter().map(|&t| Field::new("c", t)).collect());
    let state = call.state_types(&input);
    let (data, cols): (_, Vec<usize>) = match phase {
        AggPhase::Final => {
            (batches(n, &[&[DataType::Int; 2][..], &state].concat(), sorted), (2..2 + state.len()).collect())
        }
        _ => (batches(n, &TYPES, sorted), call.arg.iter().flat_map(Expr::columns).collect()),
    };
    let out = match phase {
        AggPhase::Partial => state,
        _ => vec![call.output_type(&input)],
    };
    let mut groups = ColGroupTable::new(vec![1], std::slice::from_ref(call), phase, &[&[DataType::Int][..], &out].concat());
    let mut slots = Vec::new();
    allocations(|| {
        for batch in &data {
            groups.assign_slots(batch, sorted, &mut slots);
            let cols: Vec<_> = cols.iter().map(|&c| &**batch.col(c)).collect();
            groups.fold(0, &cols, None, &slots).unwrap();
            if sorted {
                let _ = groups.split_front(groups.len() - 1);
            }
        }
        let _ = groups.split_front(groups.len());
    })
}

/// The most allocations one aggregate of `calls` makes.
fn aggregates(n: usize, calls: &[AggCall], phase: AggPhase, sorted: bool) -> u64 {
    calls.iter().map(|call| aggregate(n, call, phase, sorted)).max().unwrap()
}

fn sort(input: &[ColumnBatch]) {
    for batch in input {
        for col in [0, 2, 3] {
            let _ = batch.sort_permutation(&[col], &[col == 0]);
        }
    }
}

/// Every `Expr` variant the evaluator runs and every typed loop of each
/// function, over [`TYPES`]: predicates, then values.
fn exprs() -> (Vec<Expr>, Vec<Expr>) {
    let (c, bin) = (Expr::col, Expr::binary);
    let func = |kind, args| Expr::Func { kind, args };
    let lt = bin(BinOp::Lt, c(1), Expr::lit(10i64));
    let is_null = |negated| Expr::IsNull { expr: Box::new(c(1)), negated };
    let preds = vec![
        bin(BinOp::Eq, c(1), Expr::lit(3i64)),
        bin(BinOp::Ne, c(0), c(1)),
        bin(BinOp::Le, c(2), Expr::lit(50.0)),
        bin(BinOp::Gt, c(3), Expr::lit("s5")),
        bin(BinOp::Ge, c(4), Expr::lit(Datum::Date(100))),
        Expr::and(lt.clone(), bin(BinOp::Gt, c(2), Expr::lit(1.0))),
        Expr::or(lt.clone(), is_null(false)),
        Expr::Not(Box::new(lt.clone())),
        is_null(true),
        Expr::Like { expr: Box::new(c(3)), pattern: Box::new(Expr::lit("s1%")), negated: false },
        Expr::Like { expr: Box::new(c(3)), pattern: Box::new(Expr::lit("_2")), negated: true },
        Expr::InList { expr: Box::new(c(1)), list: vec![Expr::lit(1i64), Expr::lit(2i64), Expr::lit(3i64)], negated: false },
        Expr::InList { expr: Box::new(c(3)), list: vec![Expr::lit("s1"), Expr::lit("s2")], negated: true },
    ];
    let values = vec![
        c(2),
        Expr::lit(7i64),
        bin(BinOp::Add, c(0), c(1)),
        bin(BinOp::Sub, c(0), Expr::lit(3i64)),
        bin(BinOp::Mul, c(2), c(2)),
        bin(BinOp::Div, c(2), Expr::lit(2.0)),
        bin(BinOp::Div, c(0), Expr::lit(7i64)),
        Expr::Case { whens: vec![(lt, c(0)), (is_null(false), Expr::lit(0i64))], else_: Box::new(c(1)) },
        func(FuncKind::ExtractYear, vec![c(4)]),
        func(FuncKind::ExtractMonth, vec![c(4)]),
        func(FuncKind::Substring, vec![c(3), Expr::lit(1i64), Expr::lit(2i64)]),
        func(FuncKind::CastDouble, vec![c(0)]),
        func(FuncKind::CastInt, vec![c(2)]),
        func(FuncKind::CastInt, vec![c(0)]),
        func(FuncKind::Abs, vec![c(1)]),
        func(FuncKind::Abs, vec![c(2)]),
        func(FuncKind::AddMonths, vec![c(4), Expr::lit(3i64)]),
    ];
    (preds, values)
}

/// The evaluator writes each computed column into one buffer at the rows
/// it covers and reads its inputs in place: an expression node allocates
/// its output and, for a predicate leaf, its rows.
const EVAL_PER_BATCH: u64 = 16;

/// `input` with every other row selected: the evaluator's scatter loops.
fn every_other_row(input: &[ColumnBatch]) -> Vec<ColumnBatch> {
    let evens: Vec<u32> = (0..ROWS as u32).step_by(2).collect();
    input.iter().map(|b| b.with_sel(evens.clone())).collect()
}

/// The most allocations one expression makes: `eval_expr`, and for a
/// predicate `eval_filter_sel` too.
fn eval(input: &[ColumnBatch]) -> u64 {
    let (preds, values) = exprs();
    let run = |e: &Expr, pred: bool| {
        allocations(|| {
            for batch in input {
                let _ = eval_expr(e, batch).unwrap();
                if pred {
                    let _ = eval_filter_sel(e, batch).unwrap();
                }
            }
        })
    };
    preds.iter().map(|p| run(p, true)).chain(values.iter().map(|v| run(v, false))).max().unwrap()
}

fn hash_and_take(input: &[ColumnBatch]) {
    let reversed: Vec<u32> = (0..ROWS as u32).rev().collect();
    for batch in input {
        let _ = batch.hash_keys(&[0, 1, 2, 3, 4]);
        for col in batch.columns() {
            let _ = col.take(&reversed);
        }
    }
}

/// Group slots alone: the key words, the hashes and, sorted, the closed
/// groups' key column: 2–13 a batch at 16 and 128 batches.
const SLOTS_PER_BATCH: u64 = 16;

/// A filter refines one selection in place: the selection itself, plus an
/// OR's copy of it or an IN-list's typed items. Neither an
/// AND nor a typed comparison builds a batch, a column or a second
/// selection.
const FILTER_PER_BATCH: u64 = 2;

/// The typed filter shapes: four conjuncts (a literal on either side, four
/// types), an OR, an IN-list, and a NOT BETWEEN (the binder's
/// `Not(range)`, pushed into an OR of two complemented comparisons).
fn filters() -> Vec<Expr> {
    let (c, bin) = (Expr::col, Expr::binary);
    let between = Expr::and(bin(BinOp::Ge, c(1), Expr::lit(2i64)), bin(BinOp::Le, c(1), Expr::lit(20i64)));
    vec![
        Expr::conjunction(vec![
            bin(BinOp::Ge, c(1), Expr::lit(2i64)),
            bin(BinOp::Gt, Expr::lit(100.0), c(2)),
            bin(BinOp::Lt, c(4), Expr::lit(Datum::Date(3000))),
            bin(BinOp::Ne, c(3), Expr::lit("s7")),
        ]),
        Expr::or(bin(BinOp::Lt, c(1), Expr::lit(10i64)), bin(BinOp::Eq, c(3), Expr::lit("s5"))),
        Expr::InList { expr: Box::new(c(1)), list: vec![Expr::lit(1i64), Expr::lit(2i64), Expr::lit(3i64)], negated: false },
        Expr::Not(Box::new(between)),
    ]
}

/// The most allocations one of [`filters`] makes in `eval_filter_sel`.
fn filter(input: &[ColumnBatch]) -> u64 {
    let run = |e: &Expr| {
        allocations(|| {
            for batch in input {
                let _ = eval_filter_sel(e, batch).unwrap();
            }
        })
    };
    filters().iter().map(run).max().unwrap()
}

#[test]
fn kernels_allocate_per_batch_not_per_row() {
    let calls = agg_calls();
    let (distinct, splittable) = calls.split_last().unwrap();
    for n in [16, 128] {
        let input = batches(n, &TYPES, false);
        let families = [
            ("join build + probe + gather", allocations(|| join(&input)), PER_BATCH),
            ("merge join cursors + gather", merge(n), PER_BATCH),
            ("group slots, word key, hash", group_slots(n, false), SLOTS_PER_BATCH),
            ("group slots, word key, sorted", group_slots(n, true), SLOTS_PER_BATCH),
            ("aggregate, hash, complete", aggregates(n, &calls, AggPhase::Complete, false), PER_BATCH),
            ("aggregate, hash, partial", aggregates(n, splittable, AggPhase::Partial, false), PER_BATCH),
            ("aggregate, hash, final", aggregates(n, splittable, AggPhase::Final, false), PER_BATCH),
            ("aggregate, sorted, complete", aggregates(n, splittable, AggPhase::Complete, true), PER_BATCH),
            ("count distinct, sorted", aggregate(n, distinct, AggPhase::Complete, true), PER_BATCH),
            ("sort permutation, int/double/str", allocations(|| sort(&input)), PER_BATCH),
            ("eval, one expression", eval(&input), EVAL_PER_BATCH),
            ("eval, one expression, selected", eval(&every_other_row(&input)), EVAL_PER_BATCH),
            ("filter, typed AND / OR / IN / NOT", filter(&input), FILTER_PER_BATCH),
            ("hash keys + take", allocations(|| hash_and_take(&input)), PER_BATCH),
        ];
        for (family, count, bound) in families {
            let per_batch = count as f64 / n as f64;
            println!("{n:>4} batches  {family:<34} {per_batch:>6.1} allocations per batch");
            assert!(count <= bound * n as u64, "{family}: {count} allocations over {n} batches");
        }
    }
}
