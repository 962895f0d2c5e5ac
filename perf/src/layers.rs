//! The per-layer breakdown. Everything here observes the engine from the
//! outside, through public functions and the trace it already returns:
//!
//! * **stage replay** re-runs an op as `Cluster::query`/`dml` does, one
//!   public call per benchmark-owned span (parse → bind → Hep → Volcano →
//!   execute, or parse → bind → route → apply);
//! * the **trace fold** reads `Cluster::query_traced`'s per-operator
//!   self times and `net` spans;
//! * **probes** are SQL micro-queries and two direct `ic_net::wire` calls
//!   that isolate one operator class.
//!
//! The probe surface (every engine item named here) is listed in the README;
//! an engine change that renames one needs a benchmark change of its own.

use crate::json::Json;
use crate::run::{self, ms_since, OpRecord, Setup, Timed};
use crate::spec::Values;
use crate::stats::{mean, median, percentile};
use crate::workload::{self as wl, Op, Workload};
use ic_benchdata::TableData;
use ic_common::col::ColumnBatch;
use ic_common::obs::{AttemptStats, MetricsRegistry, Trace};
use ic_common::{IcError, IcResult, Row};
use ic_core::Cluster;
use ic_exec::{execute_plan, ExecOptions};
use ic_net::wire;
use ic_opt::pipeline::{MAX_JOINS_REORDER, MAX_NESTED_REORDER, SINGLE_PHASE_FACTOR};
use ic_opt::VolcanoPlanner;
use ic_sql::ast::Statement;
use std::time::Instant;

/// Ops of a stream workload replayed, and again traced: one pass each.
/// (200 were too few for `point_mix`'s parts to sum to the whole within a tenth.)
const STREAM_SAMPLE: usize = 500;
/// Times a one-pass sample is replayed and traced on the serial workloads,
/// and run alone for `aql_clients`' reference.
const SERIAL_SAMPLE_REPEATS: usize = 3;
const PROBE_REPS: usize = 15;
/// Point reads/updates per table for the size-ratio probe.
const SIZE_PROBE_OPS: usize = 200;
const WIRE_BATCH_ROWS: usize = 64 * 1024;

/// A benchmark-owned span: name, interval, the span that caused it, and the
/// op it belongs to. Kept in memory; written as Chrome-trace JSON at exit.
pub struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Run `f` under a child span of `parent`; returns its value and the
    /// span's duration in ms.
    fn stage<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, op, Some(parent));
        let value = f();
        (value, self.close(id))
    }

    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("op", Json::Num(s.op as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// Stage times of one replayed op, ms. A stage an op does not have stays `None`.
#[derive(Default)]
struct Stages {
    parse: f64,
    bind: f64,
    hep: Option<f64>,
    volcano: Option<f64>,
    dml_plan: Option<f64>,
    execute: Option<f64>,
    execute_dml: Option<f64>,
    rule_firings: Option<f64>,
    /// The enclosing `op` span: the stages plus whatever lies between them.
    total: f64,
}

struct Replayed {
    stages: Stages,
    rows: Vec<Row>,
    affected: usize,
}

/// Re-run one op stage by stage, as `Cluster::query_attempt` / `dml_stmt` do.
fn replay(cluster: &Cluster, op: &Op, index: usize, spans: &mut Spans) -> IcResult<Replayed> {
    let catalog = cluster.catalog();
    let root = spans.open("op", index, None);
    let mut stages = Stages::default();
    let (stmt, ms) = spans.stage("sql.parse", index, root, || ic_sql::parse_sql(&op.sql));
    stages.parse = ms;
    let stmt = stmt?;
    let (rows, affected) = match &stmt {
        Statement::Query(query) => {
            let (bound, ms) = spans.stage("sql.bind", index, root, || {
                ic_sql::bind_statement(query, catalog)
            });
            stages.bind = ms;
            let flags = cluster.variant().flags();
            let (logical, ms) = spans.stage("opt.hep", index, root, || {
                ic_opt::hep::hep_stage(bound?.plan, &flags)
            });
            stages.hep = Some(ms);
            let logical = logical?;
            let (planned, ms) = spans.stage("opt.volcano", index, root, || {
                // The reorder decision of `ic_opt::optimize_query` (§4.3).
                let (reorder, factor) = if flags.two_phase {
                    let too_big = logical.count_joins() > MAX_JOINS_REORDER
                        || logical.max_join_nesting() > MAX_NESTED_REORDER;
                    (!too_big, 1)
                } else {
                    (true, SINGLE_PHASE_FACTOR)
                };
                let mut volcano =
                    VolcanoPlanner::new(catalog.clone(), flags.clone(), reorder, factor);
                volcano
                    .optimize(&logical)
                    .map(|plan| (plan, volcano.rule_firings))
            });
            stages.volcano = Some(ms);
            let (plan, firings) = planned?;
            stages.rule_firings = Some(firings as f64);
            let config = cluster.config();
            let opts = ExecOptions {
                variant_fragments: flags.variant_fragments,
                timeout: config.exec_timeout,
                memory_limit_rows: config.memory_limit_rows,
                pool: Some(cluster.governor().pool().clone()),
                worker_threads: config.worker_threads,
                morsel_rows: config.morsel_rows,
                ..ExecOptions::default()
            };
            let (result, ms) = spans.stage("exec.execute", index, root, || {
                execute_plan(&plan, catalog, cluster.network(), &opts)
            });
            stages.execute = Some(ms);
            (result?.0, 0)
        }
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
            let (bound, ms) =
                spans.stage("sql.bind", index, root, || ic_sql::bind_dml(&stmt, catalog));
            stages.bind = ms;
            let (plan, ms) = spans.stage("opt.dml_plan", index, root, || {
                ic_opt::plan_dml(catalog, bound?)
            });
            stages.dml_plan = Some(ms);
            let plan = plan?;
            let (outcome, ms) = spans.stage("storage.execute_dml", index, root, || {
                ic_storage::execute_dml(
                    catalog,
                    cluster.network(),
                    plan.table,
                    &plan.op,
                    plan.pinned_partition(),
                )
            });
            stages.execute_dml = Some(ms);
            (Vec::new(), outcome?.rows_affected)
        }
        _ => {
            return Err(IcError::Exec(format!(
                "not a query or DML statement: {}",
                op.sql
            )))
        }
    };
    stages.total = spans.close(root);
    Ok(Replayed {
        stages,
        rows,
        affected,
    })
}

/// Operator classes the trace fold reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpLayer {
    Scan,
    FilterProject,
    Join,
    Agg,
    Sort,
    Exchange,
    Other,
}

/// Class of a plan-node label as `PhysPlan::label` prints it.
pub fn layer_of(label: &str) -> OpLayer {
    let head = label.split(['(', '[']).next().unwrap_or(label);
    match head {
        "TableScan" | "IndexScan" => OpLayer::Scan,
        "Filter" | "Project" => OpLayer::FilterProject,
        "HashJoin" | "MergeJoin" | "NestedLoopJoin" => OpLayer::Join,
        "HashAggregate" | "SortAggregate" => OpLayer::Agg,
        "Sort" | "Limit" => OpLayer::Sort,
        "Exchange" => OpLayer::Exchange,
        _ => OpLayer::Other,
    }
}

/// Self time per operator class (ns, summed over instances) and rows out of
/// scan nodes, accumulated over traced ops.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Fold {
    pub self_ns: [u64; 7],
    pub scan_rows: u64,
}

impl Fold {
    pub fn add(&mut self, attempt: &AttemptStats) {
        for (node, meta) in attempt.ops().iter().enumerate() {
            let layer = layer_of(&meta.label);
            self.self_ns[layer as usize] += attempt.self_ns(node as u32);
            if layer == OpLayer::Scan {
                self.scan_rows += attempt.rows(node as u32);
            }
        }
    }

    /// Fold the attempt that produced a traced query's result; returns the
    /// summed duration of its `net` spans, ns.
    fn add_trace(&mut self, trace: &Trace) -> u64 {
        if let Some(last) = trace.attempts().last() {
            self.add(last);
        }
        trace
            .spans()
            .iter()
            .filter(|s| s.cat == "net")
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    fn ms(&self, layer: OpLayer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }
}

/// The cluster's wire totals and the process-wide counters the write path
/// bumps; read before and after a section, the difference is that section's.
/// (A reply's own `QueryStats::net_*` are deltas of the same shared totals,
/// so with two queries in flight each would also count the other's traffic.)
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub net_messages: u64,
    pub net_bytes: u64,
    pub replicate_bytes: u64,
    pub replicate_messages: u64,
    pub write_conflicts: u64,
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Counters {
        let registry = MetricsRegistry::global();
        let (net_messages, net_bytes, _local) = cluster.network().stats.snapshot();
        Counters {
            net_messages,
            net_bytes,
            replicate_bytes: registry.counter("net.replicate.bytes").get(),
            replicate_messages: registry.counter("net.replicate.messages").get(),
            write_conflicts: registry.counter("storage.write.conflicts").get(),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            net_messages: self.net_messages - before.net_messages,
            net_bytes: self.net_bytes - before.net_bytes,
            replicate_bytes: self.replicate_bytes - before.replicate_bytes,
            replicate_messages: self.replicate_messages - before.replicate_messages,
            write_conflicts: self.write_conflicts - before.write_conflicts,
        }
    }
}

/// Σ over sample positions of the median measured latency ÷ Σ of the same
/// positions' reference latency; positions never measured are left out.
fn ratio_to_reference(measured: &[Vec<f64>], reference_ms: &[f64]) -> f64 {
    let (mut total, mut reference) = (0.0, 0.0);
    for (ms, r) in measured
        .iter()
        .zip(reference_ms)
        .filter(|(ms, _)| !ms.is_empty())
    {
        total += median(ms);
        reference += r;
    }
    if reference > 0.0 {
        total / reference
    } else {
        0.0
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, p)
    }
}

/// Metrics read off the untraced timed section's replies and counters.
pub fn from_timed(timed: &Timed, counters: Counters, out: &mut Values) {
    let reads: Vec<&OpRecord> = timed.records.iter().filter(|r| !r.is_write).collect();
    let writes: Vec<&OpRecord> = timed.records.iter().filter(|r| r.is_write).collect();
    let of =
        |set: &[&OpRecord], f: fn(&OpRecord) -> f64| set.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let all: Vec<&OpRecord> = timed.records.iter().collect();

    out.insert(
        "opt.plan_share",
        median_or_zero(&of(&reads, |r| r.plan_ms / r.ms)),
    );
    out.insert("exec.fragments_per_op", mean(&of(&reads, |r| r.fragments)));
    out.insert("exec.threads_per_op", mean(&of(&reads, |r| r.threads)));
    out.insert(
        "exec.peak_buffered_cells",
        of(&reads, |r| r.peak_cells).into_iter().fold(0.0, f64::max),
    );
    let per_op = |n: u64| n as f64 / timed.attempted.max(1) as f64;
    out.insert("net.bytes_per_op", per_op(counters.net_bytes));
    out.insert("net.messages_per_op", per_op(counters.net_messages));
    out.insert(
        "core.admission_wait_ms",
        mean(&of(&reads, |r| r.queue_wait_ms)),
    );
    out.insert(
        "core.overhead_ms",
        median_or_zero(&of(&reads, |r| r.ms - r.plan_ms - r.exec_ms)),
    );
    out.insert("core.retries_per_op", mean(&of(&all, |r| r.retries)));
    out.insert("read_latency_ms_p50", median_or_zero(&of(&reads, |r| r.ms)));
    out.insert(
        "read_latency_ms_p99",
        percentile_or_zero(&of(&reads, |r| r.ms), 99.0),
    );
    out.insert(
        "write_latency_ms_p50",
        median_or_zero(&of(&writes, |r| r.ms)),
    );
    out.insert(
        "write_latency_ms_p99",
        percentile_or_zero(&of(&writes, |r| r.ms), 99.0),
    );
    out.insert(
        "storage.write_batches_per_write",
        mean(&of(&writes, |r| r.write_batches)),
    );
    let per_write = |n: u64| {
        if writes.is_empty() {
            0.0
        } else {
            n as f64 / writes.len() as f64
        }
    };
    out.insert(
        "net.replicate_bytes_per_write",
        per_write(counters.replicate_bytes),
    );
    out.insert(
        "net.replicate_messages_per_write",
        per_write(counters.replicate_messages),
    );
    out.insert("storage.write_conflicts", counters.write_conflicts as f64);
    out.insert(
        "failed_frac",
        timed.failed as f64 / timed.attempted.max(1) as f64,
    );
    out.insert("bench.ops", timed.records.len() as f64);
    out.insert("bench.timed_s", timed.wall_s);
}

/// The sample the replay and the traced pass run, with each op's untraced
/// reference latency (what the same op costs through `Cluster::query`/`dml`).
struct Sample {
    first: usize,
    len: usize,
    reference_ms: Vec<f64>,
}

/// Check a replayed or traced reply like the timed section checks its own.
fn check(setup: &mut Setup, op: &Op, rows: &[Row], affected: usize) -> bool {
    match op.point {
        Some(point) => wl::check_point(&mut setup.shadow, point, rows, affected),
        None => match setup.first_rows.get(op.class) {
            Some(Some(first)) if setup.workload.repeats_pass() => wl::rows_close(rows, first),
            _ => true, // aql instances are checked on the oracle, by sample
        },
    }
}

/// Replay a sample by stages, run it again traced, and run the probes.
/// Every op run here is counted and checked in `timed`, like the timed
/// section's own.
pub fn measure(setup: &mut Setup, timed: &mut Timed, spans: &mut Spans, out: &mut Values) {
    let w = setup.workload;
    // The first pass after the cold one still runs slower on `point_mix`
    // and `aql_clients`; the reference is the steady state.
    let steady = timed
        .records
        .get(w.pass_len()..)
        .filter(|rest| rest.len() >= w.pass_len());
    let class_ms = run::class_medians(w, steady.unwrap_or(&timed.records));
    // A fixed pass can be repeated, and is: one pass is a second of work,
    // too little for the parts to sum to the whole within a tenth.
    let repeats = if w.repeats_pass() {
        SERIAL_SAMPLE_REPEATS
    } else {
        1
    };

    let sample = match w {
        Workload::TpchSerial | Workload::SsbSerial => {
            class_sample(setup, 0, w.pass_len(), &class_ms)
        }
        Workload::AqlClients => alone_sample(setup, timed, out),
        Workload::PointMix => stream_sample(setup, &class_ms),
    };
    replay_section(setup, timed, spans, &sample, repeats, out);
    // `point_mix` ops change the data, so its traced sample is the next
    // stretch of the stream; the others run the same sample again.
    let sample = if w == Workload::PointMix {
        stream_sample(setup, &class_ms)
    } else {
        sample
    };
    traced_section(setup, timed, &sample, repeats, out);

    if w == Workload::TpchSerial {
        operator_probes(&setup.cluster, out, timed);
    }
    if w == Workload::PointMix {
        size_ratio_probe(setup, out, timed);
    }
}

/// `len` ops from `first`, each referred to its class's untraced median.
fn class_sample(setup: &Setup, first: usize, len: usize, class_ms: &[Option<f64>]) -> Sample {
    let reference_ms = setup.ops[first..first + len]
        .iter()
        .map(|op| class_ms.get(op.class).copied().flatten().unwrap_or(0.0))
        .collect();
    Sample {
        first,
        len,
        reference_ms,
    }
}

/// The next `STREAM_SAMPLE` ops of the stream.
fn stream_sample(setup: &mut Setup, class_ms: &[Option<f64>]) -> Sample {
    let first = setup.cursor;
    let len = STREAM_SAMPLE.min(setup.ops.len() - first);
    setup.cursor += len;
    class_sample(setup, first, len, class_ms)
}

/// `aql_clients`: the first pass again, from one terminal and untraced
/// (median of `SERIAL_SAMPLE_REPEATS` runs) — what each instance costs
/// without a second query in flight. That is the replay's reference and the
/// contention baseline.
fn alone_sample(setup: &Setup, timed: &mut Timed, out: &mut Values) -> Sample {
    let len = setup.workload.pass_len();
    let mut alone_ms: Vec<Vec<f64>> = vec![Vec::new(); len];
    for i in (0..SERIAL_SAMPLE_REPEATS).flat_map(|_| 0..len) {
        let (rec, reply) = run::execute(&setup.cluster, 0, i, &setup.ops[i]);
        timed.attempted += 1;
        match reply {
            Ok(_) => alone_ms[i].push(rec.ms),
            Err(e) => timed.fail(format!("{e}: {}", setup.ops[i].sql)),
        }
    }
    let reference_ms: Vec<f64> = alone_ms.iter().map(|ms| median_or_zero(ms)).collect();
    let contended: Vec<f64> = timed
        .records
        .iter()
        .filter(|r| r.index < len)
        .filter(|r| reference_ms[r.index] > 0.0)
        .map(|r| r.ms / reference_ms[r.index])
        .collect();
    out.insert("core.contention_factor", median_or_zero(&contended));
    Sample {
        first: 0,
        len,
        reference_ms,
    }
}

/// Stage replay under benchmark-owned spans.
fn replay_section(
    setup: &mut Setup,
    timed: &mut Timed,
    spans: &mut Spans,
    sample: &Sample,
    repeats: usize,
    out: &mut Values,
) {
    const STAGES: [&str; 7] = [
        "sql.parse_ms",
        "sql.bind_ms",
        "opt.hep_ms",
        "opt.volcano_ms",
        "opt.dml_plan_ms",
        "exec.execute_ms",
        "storage.execute_dml_ms",
    ];
    let mut stage_ms: [Vec<f64>; 7] = Default::default();
    let mut rule_firings = Vec::new();
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); sample.len];
    for k in (0..repeats).flat_map(|_| 0..sample.len) {
        let index = sample.first + k;
        let op = setup.ops[index].clone();
        timed.attempted += 1;
        match replay(&setup.cluster, &op, index, spans) {
            Ok(done) => {
                if !check(setup, &op, &done.rows, done.affected) {
                    timed.fail(format!("replay gave a wrong result: {}", op.sql));
                }
                let s = done.stages;
                let times = [
                    Some(s.parse),
                    Some(s.bind),
                    s.hep,
                    s.volcano,
                    s.dml_plan,
                    s.execute,
                    s.execute_dml,
                ];
                for (sink, ms) in stage_ms.iter_mut().zip(times) {
                    sink.extend(ms);
                }
                rule_firings.extend(s.rule_firings);
                totals[k].push(s.total);
            }
            Err(e) => timed.fail(format!("replay: {e}: {}", op.sql)),
        }
    }
    for (name, ms) in STAGES.into_iter().zip(&stage_ms) {
        out.insert(name, median_or_zero(ms));
    }
    // A count, not a time: the mean repeats exactly where a median of times would not.
    out.insert("opt.rule_firings", mean(&rule_firings));
    out.insert(
        "bench.layer_coverage_frac",
        ratio_to_reference(&totals, &sample.reference_ms),
    );
}

/// The sample once more through `query_traced`, folded by operator class.
fn traced_section(
    setup: &mut Setup,
    timed: &mut Timed,
    sample: &Sample,
    repeats: usize,
    out: &mut Values,
) {
    let mut fold = Fold::default();
    let (mut net_ns, mut traced_ops, mut result_rows) = (0u64, 0usize, 0usize);
    let mut traced_ms: Vec<Vec<f64>> = vec![Vec::new(); sample.len];
    for k in (0..repeats).flat_map(|_| 0..sample.len) {
        let op = setup.ops[sample.first + k].clone();
        timed.attempted += 1;
        if op.is_write() {
            // `Cluster::dml` records no trace; the write still has to happen
            // for the reads after it to see the state the shadow expects.
            match setup.cluster.dml(&op.sql) {
                Ok(d) if check(setup, &op, &[], d.rows_affected) => {}
                Ok(_) => timed.fail(format!("wrong result: {}", op.sql)),
                Err(e) => timed.fail(format!("{e}: {}", op.sql)),
            }
        } else {
            let t0 = Instant::now();
            let (result, trace) = setup.cluster.query_traced(0, &op.sql);
            let ms = ms_since(t0);
            match result {
                Ok(result) => {
                    if !check(setup, &op, &result.rows, 0) {
                        timed.fail(format!("traced run gave a wrong result: {}", op.sql));
                    }
                    net_ns += fold.add_trace(&trace);
                    traced_ops += 1;
                    result_rows += result.rows.len().max(1);
                    traced_ms[k].push(ms);
                }
                Err(e) => timed.fail(format!("traced: {e}: {}", op.sql)),
            }
        }
    }
    let per_op = |ms: f64| ms / traced_ops.max(1) as f64;
    out.insert("exec.scan_self_ms", per_op(fold.ms(OpLayer::Scan)));
    out.insert(
        "exec.filter_project_self_ms",
        per_op(fold.ms(OpLayer::FilterProject)),
    );
    out.insert("exec.join_self_ms", per_op(fold.ms(OpLayer::Join)));
    out.insert("exec.agg_self_ms", per_op(fold.ms(OpLayer::Agg)));
    out.insert("exec.sort_self_ms", per_op(fold.ms(OpLayer::Sort)));
    out.insert("exec.exchange_self_ms", per_op(fold.ms(OpLayer::Exchange)));
    out.insert("net.transfer_ms", per_op(net_ns as f64 / 1e6));
    out.insert(
        "exec.rows_scanned_per_result",
        fold.scan_rows as f64 / result_rows.max(1) as f64,
    );
    // Write positions of a stream sample have no traced latency and drop out.
    let ratio = ratio_to_reference(&traced_ms, &sample.reference_ms);
    out.insert(
        "bench.trace_overhead_frac",
        if ratio > 0.0 { ratio - 1.0 } else { 0.0 },
    );
}

/// One SQL micro-query per operator class on `lineitem`; median of
/// `PROBE_REPS`. Every probe scans `lineitem`, so read each against
/// `exec.probe_scan_ms`.
fn operator_probes(cluster: &Cluster, out: &mut Values, timed: &mut Timed) {
    let probes: [(&'static str, &str); 6] = [
        ("exec.probe_scan_ms", "SELECT count(*) FROM lineitem"),
        (
            "exec.probe_filter_ms",
            "SELECT count(*) FROM lineitem WHERE l_quantity < 24 AND l_discount BETWEEN 0.05 AND 0.07",
        ),
        (
            "exec.probe_agg_ms",
            "SELECT l_returnflag, l_linestatus, sum(l_quantity), avg(l_extendedprice), count(*) \
             FROM lineitem GROUP BY l_returnflag, l_linestatus",
        ),
        ("exec.probe_join_ms", "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey"),
        (
            "exec.probe_sort_ms",
            "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey LIMIT 100",
        ),
        ("exec.probe_ship_ms", "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem"),
    ];
    for (name, sql) in probes {
        let mut ms = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            timed.attempted += 1;
            match cluster.query(sql) {
                Ok(result) => {
                    std::hint::black_box(&result.rows);
                    ms.push(ms_since(t0));
                }
                Err(e) => timed.fail(format!("probe: {e}: {sql}")),
            }
        }
        out.insert(name, median_or_zero(&ms));
    }
}

/// Median latency of point reads / updates on `orders` (30k rows) over the
/// same on `customer` (3k rows): 1.0 when the op does not depend on table
/// size. The `orders` updates rewrite the value the shadow already holds.
fn size_ratio_probe(setup: &mut Setup, out: &mut Values, timed: &mut Timed) {
    let orders = setup.cluster.table_rows("orders").unwrap_or(0).min(30_000) as i64;
    let customers = setup.cluster.table_rows("customer").unwrap_or(0) as i64;
    if orders == 0 || customers == 0 {
        return;
    }
    let mut median_of = |sql_of: &dyn Fn(i64) -> (String, bool), keys: i64| -> f64 {
        let mut ms = Vec::with_capacity(SIZE_PROBE_OPS);
        for i in 0..SIZE_PROBE_OPS as i64 {
            // A fixed stride over the key range: the same keys on every run.
            let key = 1 + (i * 7919) % keys;
            let (sql, is_write) = sql_of(key);
            let t0 = Instant::now();
            timed.attempted += 1;
            let ok = if is_write {
                setup.cluster.dml(&sql).map(|d| d.rows_affected == 1)
            } else {
                setup.cluster.query(&sql).map(|r| r.rows.len() == 1)
            };
            ms.push(ms_since(t0));
            match ok {
                Ok(true) => {}
                Ok(false) => timed.fail(format!("probe gave a wrong result: {sql}")),
                Err(e) => timed.fail(format!("probe: {e}: {sql}")),
            }
        }
        median_or_zero(&ms)
    };
    let shadow = setup.shadow.clone();
    let read_big = median_of(
        &|k| {
            (
                format!("SELECT o_orderkey, o_shippriority FROM orders WHERE o_orderkey = {k}"),
                false,
            )
        },
        orders,
    );
    let read_small = median_of(
        &|k| {
            (
                format!("SELECT c_custkey, c_nationkey FROM customer WHERE c_custkey = {k}"),
                false,
            )
        },
        customers,
    );
    let write_big = median_of(
        &|k| {
            let v = shadow.get(&k).copied().unwrap_or(0);
            (
                format!("UPDATE orders SET o_shippriority = {v} WHERE o_orderkey = {k}"),
                true,
            )
        },
        orders,
    );
    let write_small = median_of(
        &|k| {
            (
                format!("UPDATE customer SET c_acctbal = {k}.5 WHERE c_custkey = {k}"),
                true,
            )
        },
        customers,
    );
    out.insert(
        "storage.read_size_ratio",
        if read_small > 0.0 {
            read_big / read_small
        } else {
            0.0
        },
    );
    out.insert(
        "storage.write_size_ratio",
        if write_small > 0.0 {
            write_big / write_small
        } else {
            0.0
        },
    );
}

/// Probes that need the generated rows: wire encode/decode throughput on a
/// 64k-row batch of the largest table, and resident bytes per user byte.
pub fn data_probes(setup: &Setup, tables: &[TableData], out: &mut Values) {
    out.insert("storage.load_s", setup.load_s);
    let Some(largest) = tables.iter().max_by_key(|t| t.rows.len()) else {
        return;
    };
    let batch = ColumnBatch::from_rows(&largest.rows[..largest.rows.len().min(WIRE_BATCH_ROWS)]);
    let (mut encode_s, mut decode_s) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..5 {
        let t0 = Instant::now();
        let frame = wire::encode_columns(std::hint::black_box(&batch));
        encode_s.push(t0.elapsed().as_secs_f64());
        bytes = frame.len();
        let t0 = Instant::now();
        let decoded = wire::decode_columns(std::hint::black_box(&frame));
        decode_s.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            decoded.map(|b| b.num_rows()),
            Some(batch.num_rows()),
            "wire round trip lost rows"
        );
    }
    out.insert("net.encode_mb_s", bytes as f64 / 1e6 / median(&encode_s));
    out.insert("net.decode_mb_s", bytes as f64 / 1e6 / median(&decode_s));

    // User bytes = the loaded rows in the wire's column framing.
    let user_bytes: usize = tables
        .iter()
        .flat_map(|t| t.rows.chunks(WIRE_BATCH_ROWS))
        .map(|chunk| wire::encode_columns(&ColumnBatch::from_rows(chunk)).len())
        .sum();
    if user_bytes > 0 {
        out.insert(
            "storage.rss_per_user_byte",
            setup.load_rss_bytes / user_bytes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::obs::OpMeta;

    fn meta(label: &str, parent: Option<u32>) -> OpMeta {
        OpMeta {
            label: label.into(),
            detail: String::new(),
            parent,
            depth: 0,
            est_rows: 0.0,
        }
    }

    #[test]
    fn labels_map_to_layers() {
        assert_eq!(layer_of("TableScan(lineitem)"), OpLayer::Scan);
        assert_eq!(layer_of("IndexScan(orders)"), OpLayer::Scan);
        assert_eq!(layer_of("Filter"), OpLayer::FilterProject);
        assert_eq!(layer_of("Project"), OpLayer::FilterProject);
        assert_eq!(layer_of("HashJoin[inner]"), OpLayer::Join);
        assert_eq!(layer_of("NestedLoopJoin[semi]"), OpLayer::Join);
        assert_eq!(layer_of("MergeJoin[left]"), OpLayer::Join);
        assert_eq!(layer_of("HashAggregate[Partial]"), OpLayer::Agg);
        assert_eq!(layer_of("SortAggregate[Final]"), OpLayer::Agg);
        assert_eq!(layer_of("Sort"), OpLayer::Sort);
        assert_eq!(layer_of("Limit"), OpLayer::Sort);
        assert_eq!(layer_of("Exchange[single]"), OpLayer::Exchange);
        assert_eq!(layer_of("Values"), OpLayer::Other);
    }

    /// Sort ← Exchange ← HashJoin ← (TableScan, IndexScan): inclusive busy
    /// times fold to exclusive self times per layer.
    #[test]
    fn fold_sums_self_time_per_layer() {
        let attempt = AttemptStats::new(vec![
            meta("Sort", None),
            meta("Exchange[single]", Some(0)),
            meta("HashJoin[inner]", Some(1)),
            meta("TableScan(lineitem)", Some(2)),
            meta("IndexScan(orders)", Some(2)),
        ]);
        attempt.record_next(0, 10, 1000, true);
        attempt.record_next(1, 10, 900, true);
        attempt.record_next(2, 10, 600, true);
        attempt.record_next(3, 500, 250, true);
        attempt.record_next(4, 40, 150, true);
        let mut fold = Fold::default();
        fold.add(&attempt);
        assert_eq!(fold.self_ns[OpLayer::Sort as usize], 100);
        assert_eq!(fold.self_ns[OpLayer::Exchange as usize], 300);
        assert_eq!(fold.self_ns[OpLayer::Join as usize], 200);
        assert_eq!(fold.self_ns[OpLayer::Scan as usize], 400);
        assert_eq!(fold.self_ns[OpLayer::Agg as usize], 0);
        assert_eq!(fold.scan_rows, 540);
        // Adding a second attempt accumulates.
        fold.add(&attempt);
        assert_eq!(fold.scan_rows, 1080);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut spans = Spans::new();
        let root = spans.open("op", 3, None);
        let (v, ms) = spans.stage("sql.parse", 3, root, || 7);
        spans.close(root);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        let doc = spans.chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
