//! Traced-overhead gate: layer the exact per-batch instrumentation a traced
//! query adds in the executor — two [`Trace::now_ns`] reads plus one
//! [`AttemptStats::record_next`] per `BATCH_SIZE` rows — over the
//! hash-aggregation kernel, report the percent slowdown against the
//! uninstrumented loop, and fail unless it stays ≤ 5 % (the budget
//! OBSERVABILITY.md quotes). That is this bin's only job: kernel throughput
//! is `perf/`'s `exec.probe_*`, kernel correctness is `kernel_props`.
//!
//! [`Trace::now_ns`]: ic_common::obs::Trace::now_ns
//! [`AttemptStats::record_next`]: ic_common::obs::AttemptStats::record_next

#![expect(clippy::disallowed_methods, reason = "a benchmark harness times kernels on the wall clock")]

use ic_common::agg::AggFunc;
use ic_common::obs::{OpMeta, Trace};
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, DataType, Datum, Expr, Row};
use ic_exec::kernels::ColGroupTable;
use ic_plan::ops::{AggCall, AggPhase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The effect being measured is sub-1 %, far below run-to-run scheduler
/// noise: each rep must run for milliseconds (shorter reps are all jitter),
/// and there must be enough pairs for a quiet one to occur.
const ROWS: usize = 200_000;
const PAIRS: usize = 7;

/// `SUM(col 1) GROUP BY col 0` over one batch.
fn agg_batch(table: &mut ColGroupTable, b: &ColumnBatch, slots: &mut Vec<u32>) {
    table.assign_slots(b, false, slots);
    table.fold(0, &[b.col(1).as_ref()], b.selection(), slots).expect("int sum");
}

fn main() {
    let nkeys = (ROWS / 16) as i64;
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| Row(vec![Datum::Int(rng.gen_range(0..nkeys)), Datum::Int(i as i64)]))
        .collect();
    let batches: Vec<ColumnBatch> = rows.chunks(BATCH_SIZE).map(ColumnBatch::from_rows).collect();
    let aggs = vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }];

    let run_plain = || {
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &[DataType::Int; 2]);
        let mut slots = Vec::new();
        for b in &batches {
            agg_batch(&mut table, b, &mut slots);
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
            est_rows: ROWS as f64,
        }]);
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &[DataType::Int; 2]);
        let mut slots = Vec::new();
        for b in &batches {
            let t0 = trace.now_ns();
            agg_batch(&mut table, b, &mut slots);
            attempt.record_next(0, b.num_rows() as u64, trace.now_ns() - t0, true);
        }
        (t.elapsed(), table.len())
    };

    // Run the two sides back to back and compare within each pair: a load
    // burst or CPU-quota throttle slows both halves of a pair about
    // equally, so the per-pair ratio stays meaningful where comparing a
    // quiet plain window against a loud traced one would not. Tracing is a
    // fixed multiplicative cost and interference can only inflate a pair's
    // ratio, so the quietest pair is the bound the gate asserts on; the
    // median pair is the less-biased number to report. One untimed pair
    // first: a cold first `run_plain` would hand the gate a pair far below 1.
    run_plain();
    run_traced();
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let (dt_p, plain_groups) = run_plain();
            let (dt_t, traced_groups) = run_traced();
            assert_eq!(plain_groups, traced_groups, "trace overhead: group counts differ");
            dt_t.as_secs_f64() / dt_p.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let (quietest_pct, median_pct) = ((ratios[0] - 1.0) * 100.0, (ratios[PAIRS / 2] - 1.0) * 100.0);
    println!(
        "tracing overhead (2 clock reads + record_next per {BATCH_SIZE}-row batch, {ROWS} rows, \
         {PAIRS} pairs): median {median_pct:+.2}%, quietest pair {quietest_pct:+.2}%"
    );
    assert!(
        quietest_pct <= 5.0,
        "tracing overhead {quietest_pct:.2}% (quietest pair) exceeds the 5% budget"
    );
    println!("trace overhead <= 5%");
}
