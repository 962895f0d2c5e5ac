//! Set-up, the untraced timed section, and the end-to-end metrics.
//!
//! Every workload is a closed loop: a client sends its next op only after
//! the previous reply, as the paper's terminals do. A run executes whole
//! passes of the seed-derived op list until `--seconds` have elapsed, so two
//! runs differ in how many passes they fit, never in what a pass contains.

use crate::spec::Values;
use crate::stats::{geomean, median, percentile};
use crate::workload::{self as wl, Op, Shadow, Workload};
use ic_benchdata::TableData;
use ic_common::Row;
use ic_core::{Cluster, DmlResult, IcResult, QueryResult};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up runs this many times per end-to-end run and reports the median:
/// one load of a 150k-row data set is too short to repeat within a tenth.
pub const SETUP_REPS: usize = 3;
/// Of every ten `aql_clients` ops, one is re-executed on the oracle.
const AQL_CHECK_EVERY: usize = 10;

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One executed op: its latency and what the reply said about itself.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    pub index: usize,
    pub class: usize,
    pub is_write: bool,
    pub ms: f64,
    pub plan_ms: f64,
    pub exec_ms: f64,
    pub queue_wait_ms: f64,
    pub fragments: f64,
    pub threads: f64,
    pub peak_cells: f64,
    pub retries: f64,
    pub write_batches: f64,
}

pub enum Reply {
    Rows(QueryResult),
    Dml(DmlResult),
}

impl Reply {
    pub fn rows(&self) -> &[Row] {
        match self {
            Reply::Rows(r) => &r.rows,
            Reply::Dml(_) => &[],
        }
    }

    fn affected(&self) -> usize {
        match self {
            Reply::Rows(_) => 0,
            Reply::Dml(d) => d.rows_affected,
        }
    }
}

/// Send one op through the public client API, timing only the call.
pub fn execute(
    cluster: &Cluster,
    client: u64,
    index: usize,
    op: &Op,
) -> (OpRecord, IcResult<Reply>) {
    let t0 = Instant::now();
    let reply = if op.is_write() {
        cluster.dml(&op.sql).map(Reply::Dml)
    } else {
        cluster.query_as(client, &op.sql).map(Reply::Rows)
    };
    let mut rec = OpRecord {
        index,
        class: op.class,
        is_write: op.is_write(),
        ms: ms_since(t0),
        ..OpRecord::default()
    };
    match &reply {
        Ok(Reply::Rows(r)) => {
            rec.plan_ms = r.plan_time.as_secs_f64() * 1e3;
            rec.exec_ms = r.stats.elapsed.as_secs_f64() * 1e3;
            rec.queue_wait_ms = r.stats.queue_wait.as_secs_f64() * 1e3;
            rec.fragments = r.stats.fragments as f64;
            rec.threads = r.stats.threads as f64;
            rec.peak_cells = r.stats.peak_buffered_rows as f64;
            rec.retries = f64::from(r.retries);
        }
        Ok(Reply::Dml(d)) => {
            rec.retries = f64::from(d.retries);
            rec.write_batches = d.batches as f64;
        }
        Err(_) => {}
    }
    (rec, reply)
}

/// Resident-set high-water mark over a section. Writing `5` to
/// `/proc/self/clear_refs` resets the kernel's own mark (`VmHWM`); where that
/// is not permitted the meter falls back to the largest `VmRSS` it sampled.
pub struct RssMeter {
    kernel_mark: bool,
    sampled_kb: AtomicU64,
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:").unwrap_or(0) as f64 * 1024.0
}

impl RssMeter {
    pub fn start() -> RssMeter {
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        // The reset worked if the mark fell back to (about) the current size.
        let kernel_mark = reset
            && matches!((status_kb("VmHWM:"), status_kb("VmRSS:")),
                (Some(mark), Some(rss)) if mark <= rss + 1024);
        let meter = RssMeter {
            kernel_mark,
            sampled_kb: AtomicU64::new(0),
        };
        meter.sample();
        meter
    }

    pub fn sample(&self) {
        if !self.kernel_mark {
            self.sampled_kb
                .fetch_max(status_kb("VmRSS:").unwrap_or(0), Ordering::Relaxed);
        }
    }

    pub fn peak_mb(&self) -> f64 {
        self.sample();
        let kb = if self.kernel_mark {
            status_kb("VmHWM:").unwrap_or(0)
        } else {
            self.sampled_kb.load(Ordering::Relaxed)
        };
        kb as f64 / 1024.0
    }
}

/// A loaded, warmed cluster and everything the timed section needs.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub cluster: Cluster,
    pub ops: Vec<Op>,
    /// Next op of a stream workload (`point_mix` ops change the data, so the
    /// stream continues where the warm-up stopped).
    pub cursor: usize,
    pub shadow: Shadow,
    /// The first result of each class of a serial workload. Later results
    /// are compared with it as they arrive, and it with the oracle's once
    /// timing is over.
    pub first_rows: Vec<Option<Vec<Row>>>,
    pub setup_s: f64,
    pub load_s: f64,
    /// Resident-set growth from before generating the data to after loading
    /// it (the rows move into the store, so this is the loaded store).
    pub load_rss_bytes: f64,
}

/// One set-up: the cluster, the shadow and stream position its cold pass
/// left, and what it cost.
struct Loaded {
    cluster: Cluster,
    shadow: Shadow,
    cursor: usize,
    setup_s: f64,
    load_s: f64,
    /// Resident set right after the load, before the cold pass.
    loaded_rss: f64,
}

/// Load `tables` into a fresh cluster under test and run one cold pass.
fn setup_once(workload: Workload, tables: Vec<TableData>, ops: &[Op]) -> Result<Loaded, String> {
    let mut shadow = wl::shadow_of(&tables);
    let t0 = Instant::now();
    let cluster = wl::new_cluster(workload);
    wl::load(&cluster, workload, tables).map_err(|e| format!("load: {e}"))?;
    let load_s = t0.elapsed().as_secs_f64();
    let loaded_rss = rss_bytes();
    // One cold pass: lazy initialisation and first-touch costs belong to
    // set-up, and work a later change moves here shows in `setup_s`.
    let warm = workload.pass_len();
    for (i, op) in ops.iter().take(warm).enumerate() {
        let (_, reply) = execute(&cluster, 0, i, op);
        let reply = reply.map_err(|e| format!("warm-up op {i} ({}): {e}", op.sql))?;
        if let Some(point) = op.point {
            if !wl::check_point(&mut shadow, point, reply.rows(), reply.affected()) {
                return Err(format!("warm-up op {i} gave a wrong result: {}", op.sql));
            }
        }
    }
    let cursor = if workload == Workload::PointMix {
        warm
    } else {
        0
    };
    Ok(Loaded {
        cluster,
        shadow,
        cursor,
        setup_s: t0.elapsed().as_secs_f64(),
        load_s,
        loaded_rss,
    })
}

/// Generate, load and warm the cluster the timed section runs on. Nothing is
/// allocated and freed beforehand — the generated rows move into the store —
/// so the timed section's resident set is the engine's, not the benchmark's
/// left-overs. (`setup_s` covers schema, load, analyze and the cold pass;
/// generating the input is the benchmark's work and is not in it.)
pub fn set_up(workload: Workload, seed: u64, op_budget: usize) -> Result<Setup, String> {
    let rss0 = rss_bytes();
    let tables = wl::generate(workload, seed);
    let ops = wl::op_list(workload, seed, &tables, op_budget);
    let loaded = setup_once(workload, tables, &ops)?;
    Ok(Setup {
        workload,
        seed,
        cluster: loaded.cluster,
        ops,
        cursor: loaded.cursor,
        shadow: loaded.shadow,
        first_rows: vec![None; workload.classes().len()],
        setup_s: loaded.setup_s,
        load_s: loaded.load_s,
        load_rss_bytes: loaded.loaded_rss - rss0,
    })
}

/// What happens after timing, where its garbage cannot reach the timed
/// section's resident set: `extra_setups` more set-ups on fresh clusters
/// (each dropped at once), whose times are returned, and the oracle check
/// of the results the timed section kept. Returns the generated tables too,
/// for the probes that read them.
pub fn after_timing(
    setup: &Setup,
    timed: &mut Timed,
    extra_setups: usize,
) -> (Vec<f64>, Vec<TableData>) {
    let tables = wl::generate(setup.workload, setup.seed);
    let mut setup_times = Vec::new();
    for _ in 0..extra_setups {
        match setup_once(setup.workload, wl::clone_tables(&tables), &setup.ops) {
            Ok(loaded) => setup_times.push(loaded.setup_s),
            Err(e) => timed.fail(format!("repeated set-up: {e}")),
        }
    }
    let to_check: Vec<(&str, &[Row])> = if setup.workload.repeats_pass() {
        setup
            .ops
            .iter()
            .filter_map(|op| Some((op.sql.as_str(), setup.first_rows[op.class].as_deref()?)))
            .collect()
    } else {
        timed
            .kept_rows
            .iter()
            .map(|(index, rows)| (setup.ops[*index].sql.as_str(), rows.as_slice()))
            .collect()
    };
    if !to_check.is_empty() {
        let oracle = wl::new_oracle();
        let mut wrong = Vec::new();
        match wl::load(&oracle, setup.workload, wl::clone_tables(&tables)) {
            Ok(()) => {
                for (sql, rows) in to_check {
                    match oracle.query(sql) {
                        Ok(expected) if wl::rows_close(rows, &expected.rows) => {}
                        Ok(_) => wrong.push(format!("wrong result: {sql}")),
                        Err(e) => wrong.push(format!("oracle: {e}: {sql}")),
                    }
                }
            }
            Err(e) => wrong.push(format!("oracle load: {e}")),
        }
        wrong.into_iter().for_each(|w| timed.fail(w));
    }
    (setup_times, tables)
}

/// Outcome of the untraced timed section.
pub struct Timed {
    /// In op-list order.
    pub records: Vec<OpRecord>,
    pub wall_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub peak_rss_mb: f64,
    pub messages: Vec<String>,
    /// `aql_clients`: the op index and rows of the replies the oracle
    /// re-executes after timing.
    pub kept_rows: Vec<(usize, Vec<Row>)>,
}

impl Timed {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 5 {
            self.messages.push(what);
        }
    }
}

/// Run whole passes until `seconds` have elapsed (at least one pass).
pub fn timed_section(setup: &mut Setup, seconds: f64) -> Timed {
    let meter = RssMeter::start();
    let mut timed = Timed {
        records: Vec::new(),
        wall_s: 0.0,
        attempted: 0,
        failed: 0,
        peak_rss_mb: 0.0,
        messages: Vec::new(),
        kept_rows: Vec::new(),
    };
    if setup.workload == Workload::AqlClients {
        aql_section(setup, seconds, &meter, &mut timed);
    } else {
        serial_section(setup, seconds, &meter, &mut timed);
    }
    timed.peak_rss_mb = meter.peak_mb();
    timed
}

fn serial_section(setup: &mut Setup, seconds: f64, meter: &RssMeter, timed: &mut Timed) {
    let w = setup.workload;
    let pass_len = w.pass_len();
    let start = Instant::now();
    loop {
        let first = if w.repeats_pass() { 0 } else { setup.cursor };
        if first + pass_len > setup.ops.len() {
            break; // stream exhausted: the budget is sized so this does not happen
        }
        for i in first..first + pass_len {
            let op = &setup.ops[i];
            let (rec, reply) = execute(&setup.cluster, 0, timed.records.len(), op);
            timed.attempted += 1;
            timed.wall_s += rec.ms / 1e3;
            match reply {
                Ok(reply) => {
                    let ok = match op.point {
                        Some(point) => wl::check_point(
                            &mut setup.shadow,
                            point,
                            reply.rows(),
                            reply.affected(),
                        ),
                        None => match &setup.first_rows[op.class] {
                            Some(first) => wl::rows_close(reply.rows(), first),
                            None => {
                                setup.first_rows[op.class] = Some(reply.rows().to_vec());
                                true
                            }
                        },
                    };
                    if !ok {
                        timed.fail(format!("wrong result: {}", op.sql));
                    }
                    timed.records.push(rec);
                }
                Err(e) => timed.fail(format!("{e}: {}", op.sql)),
            }
        }
        if !w.repeats_pass() {
            setup.cursor += pass_len;
        }
        meter.sample();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

fn aql_section(setup: &mut Setup, seconds: f64, meter: &RssMeter, timed: &mut Timed) {
    let next = AtomicUsize::new(0);
    // Each reply's record, and its rows when the oracle will re-execute it.
    let done = Mutex::new(Vec::new());
    let (cluster, ops) = (&setup.cluster, &setup.ops);
    let pass_len = setup.workload.pass_len();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..setup.workload.clients() {
            let (next, done) = (&next, &done);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                // A terminal starts a new pass only while time remains, and
                // always finishes the pass it is in.
                if i >= ops.len() || (i % pass_len == 0 && start.elapsed().as_secs_f64() >= seconds)
                {
                    // Park the counter past the end so the other terminal stops too.
                    next.store(ops.len(), Ordering::Relaxed);
                    break;
                }
                let (rec, reply) = execute(cluster, client as u64, i, &ops[i]);
                let kept = reply.map(|r| match r {
                    Reply::Rows(q) if i % AQL_CHECK_EVERY == 0 => Some(q.rows),
                    _ => None,
                });
                meter.sample();
                done.lock().expect("a terminal panicked").push((rec, kept));
            });
        }
    });
    timed.wall_s = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("a terminal panicked");
    done.sort_by_key(|(rec, _)| rec.index);
    for (rec, kept) in done {
        timed.attempted += 1;
        match kept {
            Ok(kept) => {
                timed.kept_rows.extend(kept.map(|rows| (rec.index, rows)));
                timed.records.push(rec);
            }
            Err(e) => timed.fail(format!("{e}: {}", ops[rec.index].sql)),
        }
    }
}

/// Latencies of the complete passes, one `Vec` per pass.
pub fn passes(workload: Workload, records: &[OpRecord]) -> Vec<Vec<f64>> {
    records
        .chunks_exact(workload.pass_len())
        .map(|pass| pass.iter().map(|r| r.ms).collect())
        .collect()
}

/// Median latency of each class that ran, by class index.
pub fn class_medians(workload: Workload, records: &[OpRecord]) -> Vec<Option<f64>> {
    (0..workload.classes().len())
        .map(|class| {
            let ms: Vec<f64> = records
                .iter()
                .filter(|r| r.class == class)
                .map(|r| r.ms)
                .collect();
            (!ms.is_empty()).then(|| median(&ms))
        })
        .collect()
}

/// The timed section's end-to-end metrics; `false` (and nothing written)
/// when it holds no complete pass.
pub fn end_to_end(workload: Workload, timed: &Timed, out: &mut Values) -> bool {
    let passes = passes(workload, &timed.records);
    if passes.is_empty() || timed.wall_s <= 0.0 {
        return false;
    }
    let per_pass = |p: f64| {
        median(
            &passes
                .iter()
                .map(|pass| percentile(pass, p))
                .collect::<Vec<_>>(),
        )
    };
    let medians: Vec<f64> = class_medians(workload, &timed.records)
        .into_iter()
        .flatten()
        .collect();
    out.insert(
        "throughput_ops_s",
        timed.records.len() as f64 / timed.wall_s,
    );
    out.insert("latency_ms_p50", per_pass(50.0));
    out.insert("latency_ms_p95", per_pass(95.0));
    out.insert("query_ms_geomean", geomean(&medians));
    out.insert("peak_rss_mb", timed.peak_rss_mb);
    true
}
