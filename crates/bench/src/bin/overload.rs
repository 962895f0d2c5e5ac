//! Overload benchmark: drive the cluster with a client-count sweep up to
//! 4× the admission ceiling and measure what the governor does with the
//! excess — goodput (completed queries/s), shed rate, tail latency, and
//! queue wait — plus the "no budget leaked" pool invariant after every
//! point.
//!
//! Each sweep point builds a fresh governed cluster (so governor counters
//! are per-point), spawns that many client threads submitting a mix of a
//! buffering self-join and a streaming count back-to-back for the time
//! budget, and classifies every outcome: completed, shed
//! ([`IcError::Overloaded`] — the client backs off by the returned hint,
//! capped), revoked ([`IcError::ResourcesRevoked`]), or failed otherwise.
//!
//! The full run sweeps clients = ¼× … 4× the 8 admission slots and writes
//! `BENCH_overload.json`; `--smoke` runs one small shedding-heavy point,
//! asserts the governor invariants (nonzero shed, zero pool balance,
//! bounded concurrency) and writes under `target/bench/`.

#![expect(clippy::disallowed_methods, reason = "a benchmark harness times queries and paces clients on the wall clock")]

use ic_common::LEASE_CHUNK_CELLS;
use ic_core::{Cluster, ClusterConfig, Datum, GovernorConfig, IcError, Row, SystemVariant};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HEAVY_SQL: &str = "SELECT count(*) FROM t x, t y WHERE x.b = y.b";
const LIGHT_SQL: &str = "SELECT count(*) FROM t";
const GROUPS: i64 = 50;
/// Cap on how long a shed client honours the governor's retry hint, so a
/// hard-overloaded point still probes admission often enough to measure.
const MAX_BACKOFF: Duration = Duration::from_millis(10);

#[derive(Debug, Clone)]
struct SweepConfig {
    rows: i64,
    slots: usize,
    duration: Duration,
    pool_chunks: u64,
}

/// Outcome of one sweep point.
#[derive(Debug)]
struct Point {
    clients: usize,
    completed: usize,
    shed: usize,
    revoked: usize,
    failed: usize,
    goodput_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Mean admission queue wait of *completed* queries.
    mean_queue_wait_ms: f64,
    /// Mean time shed submissions spent in `admit` before rejection —
    /// the shed outcome class's queue wait (zero when shed immediately).
    mean_shed_wait_ms: f64,
    /// Governor queue-wait histogram (`QUEUE_WAIT_BUCKETS_MS` buckets +
    /// overflow); includes waits of queries shed after queueing.
    queue_wait_hist: [u64; 6],
    peak_concurrent: usize,
    pool_in_use: u64,
    active_leases: usize,
    ceiling_qps: f64,
}

fn governed_cluster(cfg: &SweepConfig) -> Arc<Cluster> {
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        variant: SystemVariant::ICPlus,
        exec_timeout: Some(Duration::from_secs(30)),
        governor: GovernorConfig {
            pool_budget_cells: cfg.pool_chunks * LEASE_CHUNK_CELLS,
            max_concurrent: cfg.slots,
            max_queue: cfg.slots,
            grant_timeout: Duration::from_millis(200),
        },
        ..ClusterConfig::default()
    }));
    cluster
        .run("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
        .expect("create table");
    let rows: Vec<Row> =
        (0..cfg.rows).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % GROUPS)])).collect();
    cluster.insert("t", rows).expect("load rows");
    cluster.analyze_all().expect("analyze");
    cluster
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

fn run_point(cfg: &SweepConfig, clients: usize) -> Point {
    let cluster = governed_cluster(cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for client in 0..clients {
        let cluster = cluster.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut latencies: Vec<Duration> = Vec::new();
            let mut queue_waits: Vec<Duration> = Vec::new();
            let mut shed_waits: Vec<Duration> = Vec::new();
            let (mut revoked, mut failed) = (0usize, 0usize);
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // 1-in-3 heavy keeps the pool under pressure without the
                // sweep point degenerating into a single giant query.
                let sql = if (client + i).is_multiple_of(3) { HEAVY_SQL } else { LIGHT_SQL };
                i += 1;
                let t0 = Instant::now();
                match cluster.query_as(client as u64, sql) {
                    Ok(r) => {
                        latencies.push(t0.elapsed());
                        queue_waits.push(r.stats.queue_wait);
                    }
                    Err(IcError::Overloaded { retry_after_ms }) => {
                        // Time from submission to rejection ~= how long the
                        // governor held this submission before shedding it.
                        shed_waits.push(t0.elapsed());
                        std::thread::sleep(
                            Duration::from_millis(retry_after_ms).min(MAX_BACKOFF),
                        );
                    }
                    Err(IcError::ResourcesRevoked { .. }) => revoked += 1,
                    Err(_) => failed += 1,
                }
            }
            (latencies, queue_waits, shed_waits, revoked, failed)
        }));
    }
    let started = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);

    let mut latencies: Vec<Duration> = Vec::new();
    let mut queue_waits: Vec<Duration> = Vec::new();
    let mut shed_waits: Vec<Duration> = Vec::new();
    let (mut revoked, mut failed) = (0usize, 0usize);
    for h in handles {
        let (lat, qw, sw, r, f) = h.join().expect("client thread panicked");
        latencies.extend(lat);
        queue_waits.extend(qw);
        shed_waits.extend(sw);
        revoked += r;
        failed += f;
    }
    let shed = shed_waits.len();
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let mean_ms = |waits: &[Duration]| {
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<Duration>().as_secs_f64() * 1e3 / waits.len() as f64
        }
    };
    let mean_queue_wait_ms = mean_ms(&queue_waits);
    let mean_shed_wait_ms = mean_ms(&shed_waits);
    let stats = cluster.governor().stats();
    // What admission alone would allow: `slots` queries in flight, each
    // taking the governor's own EWMA service-time estimate.
    let ceiling_qps = if stats.ewma_service_us > 0 {
        cfg.slots as f64 * 1e6 / stats.ewma_service_us as f64
    } else {
        0.0
    };
    Point {
        clients,
        completed: latencies.len(),
        shed,
        revoked,
        failed,
        goodput_qps: latencies.len() as f64 / elapsed,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        mean_queue_wait_ms,
        mean_shed_wait_ms,
        queue_wait_hist: stats.queue_wait_hist,
        peak_concurrent: stats.peak_concurrent,
        pool_in_use: stats.pool_in_use,
        active_leases: cluster.governor().pool().active_leases(),
        ceiling_qps,
    }
}

fn write_json(cfg: &SweepConfig, reduced: bool, points: &[Point]) {
    let points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"clients\": {}, \"completed\": {}, \"shed\": {}, \"revoked\": {}, \"failed\": {}, \
\"goodput_qps\": {:.2}, \"ceiling_qps\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
\"mean_queue_wait_ms\": {:.3}, \"mean_shed_wait_ms\": {:.3}, \"queue_wait_hist\": {:?}, \
\"peak_concurrent\": {}}}",
                p.clients,
                p.completed,
                p.shed,
                p.revoked,
                p.failed,
                p.goodput_qps,
                p.ceiling_qps,
                p.p50_ms,
                p.p99_ms,
                p.mean_queue_wait_ms,
                p.mean_shed_wait_ms,
                p.queue_wait_hist,
                p.peak_concurrent,
            )
        })
        .collect();
    let fields = format!(
        "  \"rows\": {}, \"slots\": {}, \"secs_per_point\": {:.3}, \"pool_chunks\": {},\n  \"points\": [\n{}\n  ]\n",
        cfg.rows,
        cfg.slots,
        cfg.duration.as_secs_f64(),
        cfg.pool_chunks,
        points.join(",\n")
    );
    let path = ic_bench::harness::write_bench_json("overload", reduced, &fields)
        .expect("write BENCH_overload.json");
    println!("\nwrote {path}");
}

/// Invariants every point must satisfy regardless of load: admission
/// bounds concurrency, and the pool balances back to zero.
fn assert_invariants(p: &Point, slots: usize) {
    assert!(
        p.peak_concurrent <= slots,
        "admission ceiling violated at {} clients: {} concurrent > {} slots",
        p.clients,
        p.peak_concurrent,
        slots
    );
    assert_eq!(
        p.pool_in_use, 0,
        "pool leaked {} cells after the {}-client point",
        p.pool_in_use, p.clients
    );
    assert_eq!(
        p.active_leases, 0,
        "{} leases left behind after the {}-client point",
        p.active_leases, p.clients
    );
    assert_eq!(p.failed, 0, "non-governor failures at {} clients", p.clients);
}

fn main() {
    // `--smoke` is one deliberately under-provisioned point — 8 clients on
    // 2 slots, most submissions shed — and the full run the paper-style
    // doubling sweep, ¼× … 4× the admission ceiling.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (cfg, clients) = if smoke {
        let cfg = SweepConfig {
            rows: 500,
            slots: 2,
            duration: Duration::from_millis(1500),
            pool_chunks: 8,
        };
        (cfg, vec![8])
    } else {
        let cfg =
            SweepConfig { rows: 2000, slots: 8, duration: Duration::from_secs(2), pool_chunks: 32 };
        (cfg, vec![2, 4, 8, 16, 32])
    };

    println!(
        "== overload sweep: {} rows, {} slots, {:?}/point, clients {:?} ==\n",
        cfg.rows, cfg.slots, cfg.duration, clients
    );
    println!(
        "{:>7} {:>9} {:>6} {:>7} {:>6} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9}",
        "clients",
        "completed",
        "shed",
        "revoked",
        "failed",
        "goodput q/s",
        "ceiling q/s",
        "p50 ms",
        "p99 ms",
        "queue ms",
        "shedq ms"
    );
    let mut points = Vec::new();
    for c in clients {
        let p = run_point(&cfg, c);
        println!(
            "{:>7} {:>9} {:>6} {:>7} {:>6} {:>12.1} {:>12.1} {:>8.2} {:>8.2} {:>9.2} {:>9.2}",
            p.clients,
            p.completed,
            p.shed,
            p.revoked,
            p.failed,
            p.goodput_qps,
            p.ceiling_qps,
            p.p50_ms,
            p.p99_ms,
            p.mean_queue_wait_ms,
            p.mean_shed_wait_ms
        );
        assert_invariants(&p, cfg.slots);
        assert!(p.completed > 0, "the {c}-client point completed no queries");
        points.push(p);
    }

    // At the deepest point of the sweep shedding must be active, and
    // goodput should hold near the admission ceiling rather than collapsing
    // (the whole reason to shed). The ceiling is projected from the
    // governor's EWMA service time, which is too noisy on a small host to
    // assert on; it is printed and both numbers are in the record.
    let last = points.last().expect("the sweep has points");
    assert!(last.shed > 0, "4x overload shed nothing — admission control inert");
    println!(
        "\nsaturated goodput is {:.0}% of the projected admission ceiling",
        100.0 * last.goodput_qps / last.ceiling_qps.max(1e-9)
    );
    write_json(&cfg, smoke, &points);
}
