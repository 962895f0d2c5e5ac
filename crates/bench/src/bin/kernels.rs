//! Operator-kernel microbenchmarks: absolute throughput of the columnar
//! kernels the engine runs — filter+project through selection vectors,
//! `ColGroupTable` hash aggregation, `ColJoinTable` build and probe+gather,
//! and the column-permutation sort — plus the per-batch tracing overhead.
//!
//! Each kernel's result is checked against a checksum computed from the
//! generated rows by a plain scalar loop outside the timed section, so a
//! reported throughput over a wrong answer is impossible. (The row-engine
//! A/B these kernels were adopted on is frozen history: EXPERIMENTS.md
//! "Kernel A/B" names the commit to check out to rerun it.)
//!
//! With `IC_BENCH_ASSERT=1` (the CI smoke) the run fails unless the tracing
//! overhead stays ≤ 5%.
//!
//! Env: `IC_BENCH_KERNEL_ROWS` (default 200000), `IC_BENCH_KERNEL_REPS`
//! (default 3). A default-size run writes `BENCH_kernels.json` to the
//! working directory, a smaller one to `target/bench/`.

use ic_common::agg::AggFunc;
use ic_common::eval::eval_filter_sel;
use ic_common::row::BATCH_SIZE;
use ic_common::{BinOp, ColumnBatch, ColumnData, Datum, Expr, Row};
use ic_exec::kernels::{gather_join_output, sort_permutation, ColGroupTable, ColJoinTable};
use ic_plan::ops::{AggCall, SortKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const DEFAULT_ROWS: usize = 200_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Run `f` `reps` times; `f` returns (measured duration, checksum). Asserts
/// every rep's checksum and reports `n` rows over the best rep (least
/// interference).
fn bench(
    name: &'static str,
    n: usize,
    reps: usize,
    expect: u64,
    mut f: impl FnMut() -> (Duration, u64),
) -> Outcome {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (dt, sum) = f();
        assert_eq!(sum, expect, "{name}: checksum differs from the scalar reference");
        best = best.min(dt.as_secs_f64());
    }
    Outcome { name, rows_per_sec: n as f64 / best }
}

struct Outcome {
    name: &'static str,
    rows_per_sec: f64,
}

/// Two-column rows: `[Int(key), Int(i)]` with keys drawn from `nkeys`
/// distinct values in shuffled order.
fn make_rows(n: usize, nkeys: i64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Row(vec![Datum::Int(rng.gen_range(0..nkeys)), Datum::Int(i as i64)]))
        .collect()
}

fn to_batches(rows: &[Row]) -> Vec<ColumnBatch> {
    rows.chunks(BATCH_SIZE).map(ColumnBatch::from_rows).collect()
}

fn int_at(row: &Row, c: usize) -> i64 {
    row.0[c].as_int().expect("generated columns are non-null ints")
}

/// Checksum helper: sum an Int column over a batch's logical rows.
// ic-lint: allow(L010) because the checksum helper validity-gates every read; the microbenchmark measures exactly this hand-rolled loop
fn sum_int_col(batch: &ColumnBatch, c: usize) -> u64 {
    let col = batch.col(c);
    let mut sum = 0u64;
    if let ColumnData::Int(v) = &col.data {
        for k in 0..batch.num_rows() {
            let i = batch.phys_index(k);
            if col.is_valid(i) {
                sum = sum.wrapping_add(v[i] as u64);
            }
        }
    }
    sum
}

/// Filter+project: a ~50%-selective predicate over the key column,
/// projecting the payload — the scan→σ→π spine of every TPC-H query. The
/// filter shrinks a selection vector and the projection bumps a column
/// pointer; no value is touched until the checksum reads the survivors.
fn bench_filter_project(n: usize, reps: usize) -> Outcome {
    let nkeys = (n as i64).max(1);
    let rows = make_rows(n, nkeys, 6);
    let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Datum::Int(nkeys / 2)));
    let batches = to_batches(&rows);
    let expect = rows
        .iter()
        .filter(|r| int_at(r, 0) < nkeys / 2)
        .fold(0u64, |s, r| s.wrapping_add(int_at(r, 1) as u64));
    bench("filter_project", n, reps, expect, || {
        let t = Instant::now();
        let mut sum = 0u64;
        for b in &batches {
            let sel = eval_filter_sel(&pred, b).expect("well-typed predicate");
            let projected = b.select_logical(&sel).project_cols(&[1]);
            sum = sum.wrapping_add(sum_int_col(&projected, 0));
        }
        (t.elapsed(), sum)
    })
}

fn sum_agg() -> Vec<AggCall> {
    vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }]
}

/// Fold `batches` into `table` (`SUM(col 1) GROUP BY col 0`).
fn agg_batches(table: &mut ColGroupTable, aggs: &[AggCall], batches: &[ColumnBatch]) {
    let mut slots = Vec::new();
    for b in batches {
        table.slots_for_batch(b, aggs, &mut slots);
        table.accumulate(0, b.col(1), b.selection(), &slots).expect("int sum");
    }
}

/// Hash aggregation: integer group keys at moderate cardinality, the common
/// TPC-H case (GROUP BY o_orderkey / c_custkey / suppkey...). Group slots
/// are resolved per batch and the argument column folds in a typed loop.
fn bench_hash_agg(n: usize, reps: usize) -> Outcome {
    let nkeys = (n / 16).max(8);
    let rows = make_rows(n, nkeys as i64, 8);
    let aggs = sum_agg();
    let batches = to_batches(&rows);
    // Groups seen + the sum of every group's sum (= the sum of the column).
    let mut seen = vec![false; nkeys];
    rows.iter().for_each(|r| seen[int_at(r, 0) as usize] = true);
    let expect = rows.iter().fold(seen.iter().filter(|&&s| s).count() as u64, |s, r| {
        s.wrapping_add(int_at(r, 1) as u64)
    });
    bench("hash_agg", n, reps, expect, || {
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        agg_batches(&mut table, &aggs, &batches);
        let mut sum = table.len() as u64;
        for slot in 0..table.len() {
            let (_, accs) = table.take_group(slot);
            sum = sum.wrapping_add(accs[0].finish().as_int().expect("int sum") as u64);
        }
        (t.elapsed(), sum)
    })
}

/// Join build and probe, PK-FK shape as in TPC-H: the build side is a
/// dimension-sized table with (mostly) unique keys, the probe side a fact
/// table referencing it. The probe resolves (probe, build) index pairs per
/// batch and gathers the joined batch column by column.
fn bench_join(n: usize, reps: usize) -> Vec<Outcome> {
    let build_n = (n / 8).max(1024);
    let build = make_rows(build_n, build_n as i64, 9);
    let probe = make_rows(n, build_n as i64, 10);
    let (build_batches, probe_batches) = (to_batches(&build), to_batches(&probe));
    let build_table = || {
        let mut table = ColJoinTable::new(vec![0], 2);
        for b in &build_batches {
            table.insert_batch(b);
        }
        table.finish_build();
        table
    };
    let built = bench("hash_join_build", build_n, reps, build_n as u64, || {
        let t = Instant::now();
        let table = build_table();
        (t.elapsed(), table.len() as u64)
    });

    // Per key, the sum of the build payloads carrying it: a probe row
    // contributes its key's entry.
    let mut payload_of_key = vec![0u64; build_n];
    for r in &build {
        let k = int_at(r, 0) as usize;
        payload_of_key[k] = payload_of_key[k].wrapping_add(int_at(r, 1) as u64);
    }
    let expect =
        probe.iter().fold(0u64, |s, r| s.wrapping_add(payload_of_key[int_at(r, 0) as usize]));
    let table = build_table();
    let probed = bench("hash_join_probe", n, reps, expect, || {
        let t = Instant::now();
        let mut sum = 0u64;
        for b in &probe_batches {
            let (pks, bis) = table.probe_pairs(b, &[0], false);
            let joined = gather_join_output(b, &pks, table.arena(), &bis);
            sum = sum.wrapping_add(sum_int_col(&joined, 3));
        }
        (t.elapsed(), sum)
    });
    vec![built, probed]
}

/// Sort, wide lineitem-like rows: a permutation over the two key columns,
/// applied as a selection view — the payload columns never move.
// ic-lint: allow(L010) because the sort benchmark hand-rolls the checksum loop on purpose; keys are generated non-null
fn bench_sort(n: usize, reps: usize) -> Outcome {
    let nkeys = (n / 4).max(1) as i64;
    let mut rng = StdRng::seed_from_u64(11);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let mut cols = vec![Datum::Int(rng.gen_range(0..nkeys)), Datum::Int(i as i64)];
            cols.extend((0..10).map(Datum::Int));
            Row(cols)
        })
        .collect();
    // Col 1 is unique, so the (0, 1) key is a total order and the
    // position-weighted checksum is well-defined.
    let mut sorted: Vec<(i64, i64)> = rows.iter().map(|r| (int_at(r, 0), int_at(r, 1))).collect();
    sorted.sort_unstable();
    let expect = sorted
        .iter()
        .enumerate()
        .fold(0u64, |s, (i, &(_, v))| s.wrapping_add((i as u64).wrapping_mul(v as u64)));
    let dense = ColumnBatch::from_rows(&rows);
    let keys = [SortKey::asc(0), SortKey::asc(1)];
    bench("sort", n, reps, expect, || {
        let t = Instant::now();
        let sorted = dense.with_sel(sort_permutation(&dense, &keys));
        let mut sum = 0u64;
        if let ColumnData::Int(v) = &sorted.col(1).data {
            for k in 0..sorted.num_rows() {
                sum = sum.wrapping_add((k as u64).wrapping_mul(v[sorted.phys_index(k)] as u64));
            }
        }
        (t.elapsed(), sum)
    })
}

/// Tracing-overhead microbenchmark: layer the exact per-batch
/// instrumentation a traced query adds in the executor — two
/// [`Trace::now_ns`] reads plus one [`AttemptStats::record_next`] per
/// `BATCH_SIZE` rows — over the hash-aggregation kernel, and report the
/// percent slowdown vs the uninstrumented loop as (quietest pair, median
/// pair). OBSERVABILITY.md quotes this number; the acceptance bar is ≤ 5%.
///
/// [`Trace::now_ns`]: ic_common::obs::Trace::now_ns
/// [`AttemptStats::record_next`]: ic_common::obs::AttemptStats::record_next
fn bench_trace_overhead(n: usize, reps: usize) -> (f64, f64) {
    use ic_common::obs::{OpMeta, Trace};

    // The effect being measured is sub-1%, far below run-to-run scheduler
    // noise: floor the input so each rep runs for milliseconds (shorter
    // reps are all jitter) and take more draws than the throughput benches.
    let n = n.max(DEFAULT_ROWS);
    let reps = reps.max(7);

    let aggs = sum_agg();
    let batches = to_batches(&make_rows(n, (n / 16).max(8) as i64, 7));
    let run_plain = || {
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        for b in &batches {
            agg_batches(&mut table, &aggs, std::slice::from_ref(b));
        }
        (t.elapsed(), table.len())
    };
    let run_traced = || {
        let trace = Trace::new();
        let attempt = trace.register_attempt(vec![OpMeta {
            label: "HashAggregate".into(),
            detail: String::new(),
            parent: None,
            depth: 0,
            est_rows: n as f64,
        }]);
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        for b in &batches {
            let t0 = trace.now_ns();
            agg_batches(&mut table, &aggs, std::slice::from_ref(b));
            attempt.record_next(0, b.num_rows() as u64, trace.now_ns() - t0, true);
        }
        (t.elapsed(), table.len())
    };

    // Run the two sides back to back and compare within each pair: a load
    // burst or CPU-quota throttle slows both halves of a pair about
    // equally, so the per-pair ratio stays meaningful where comparing a
    // quiet plain window against a loud traced one would not. Tracing is a
    // fixed multiplicative cost and interference can only inflate a pair's
    // ratio, so the quietest pair is the bound the CI gate asserts on; the
    // median pair is the less-biased number to report and commit.
    let mut ratios: Vec<f64> = (0..reps)
        .map(|_| {
            let (dt_p, plain_groups) = run_plain();
            let (dt_t, traced_groups) = run_traced();
            assert_eq!(plain_groups, traced_groups, "trace overhead: group counts differ");
            dt_t.as_secs_f64() / dt_p.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ((ratios[0] - 1.0) * 100.0, (ratios[ratios.len() / 2] - 1.0) * 100.0)
}

fn main() {
    let n = env_usize("IC_BENCH_KERNEL_ROWS", DEFAULT_ROWS);
    let reps = env_usize("IC_BENCH_KERNEL_REPS", 3);
    println!("kernel microbenchmarks: {n} rows, best of {reps} reps\n");

    let mut outcomes = vec![bench_filter_project(n, reps), bench_hash_agg(n, reps)];
    outcomes.extend(bench_join(n, reps));
    outcomes.push(bench_sort(n, reps));
    let (overhead_min_pct, overhead_pct) = bench_trace_overhead(n, reps);

    println!("{:<20} {:>16}", "kernel", "rows/s");
    let mut kernels = Vec::new();
    for o in &outcomes {
        println!("{:<20} {:>16.0}", o.name, o.rows_per_sec);
        kernels.push(format!(
            "    {{\"name\": \"{}\", \"rows_per_sec\": {:.0}}}",
            o.name, o.rows_per_sec
        ));
    }
    println!(
        "\ntracing overhead (2 clock reads + record_next per {BATCH_SIZE}-row batch): {overhead_pct:+.2}%"
    );
    let fields = format!(
        "  \"rows\": {n},\n  \"reps\": {reps},\n  \"trace_overhead_pct\": {overhead_pct:.2},\n  \"kernels\": [\n{}\n  ]\n",
        kernels.join(",\n")
    );
    let path = ic_bench::harness::write_bench_json("kernels", n < DEFAULT_ROWS, &fields)
        .expect("write BENCH_kernels.json");
    println!("wrote {path}");

    // CI gate (`IC_BENCH_ASSERT=1`): the per-batch tracing overhead must
    // stay within the ≤ 5% budget OBSERVABILITY.md quotes.
    if std::env::var("IC_BENCH_ASSERT").is_ok_and(|v| v == "1") {
        assert!(
            overhead_min_pct <= 5.0,
            "tracing overhead {overhead_min_pct:.2}% (quietest pair) exceeds the 5% budget"
        );
        println!("IC_BENCH_ASSERT: trace overhead <= 5%");
    }
}
