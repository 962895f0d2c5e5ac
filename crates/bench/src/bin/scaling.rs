//! Intra-fragment scaling curve: one fixed 4-site cluster, lanes per
//! parallel region (`worker_threads`) swept 1 → N, wall time per query shape.
//!
//! `1` runs the morsel pipeline with a single lane per region; `2+` adds
//! lanes that pull from the shared morsel supply and steal across
//! pre-assignments. Two query shapes bracket the
//! paper's Figures 9/10 finding that multithreading helps
//! distributed-computation-heavy queries and does nothing (or slightly
//! hurts) root-fragment-bound ones:
//!
//! * **ship** — a wide scan→filter→project whose entire output is shipped
//!   to the coordinator over the calibrated simulated network. Lanes
//!   dispatch exchange sends concurrently, so wire time (the dominant
//!   cost) overlaps across lanes and the curve scales.
//! * **aggregate** — a redistribution join + grouped aggregate whose
//!   partial-aggregate output is tiny. Wire time is negligible, the work
//!   is CPU-bound, so on a host with few cores extra lanes buy little;
//!   the point of measuring it is that it must not *regress*.
//!
//! Asserts the acceptance floor: ship speedup ≥ 1.8× at 4 threads vs 1.
//! Writes `BENCH_scaling.json` to the working directory; `--smoke` runs a
//! reduced-size sweep (half the rows, 3 reps) and writes to `target/bench/`
//! instead.

use ic_core::{Cluster, ClusterConfig, Datum, NetworkConfig, Row, SystemVariant};
use std::time::{Duration, Instant};

const SITES: usize = 4;
/// Lane split for the bench: small enough that every site's scan breaks
/// into ~dozens of morsels (work to steal), large enough that per-morsel
/// overhead stays invisible.
const MORSEL_ROWS: usize = 4096;
const THREADS: [usize; 3] = [1, 2, 4];

const SHIP_SQL: &str = "SELECT id, grp, val FROM fact WHERE val >= 0";
const AGG_SQL: &str = "SELECT name, count(*) AS n, sum(val) AS s \
                       FROM fact INNER JOIN dim ON fact.grp = dim.grp GROUP BY name";

/// Paper-style interconnect: per-message latency plus a bandwidth charge
/// slow enough that shipping the ship-query's output is the dominant cost
/// (the regime Figures 9/10 measure in — compute overlapped with wire).
fn calibrated_network() -> NetworkConfig {
    NetworkConfig { latency: Duration::from_micros(200), bandwidth_bytes_per_sec: 10_000_000 }
}

fn base_cluster(rows: i64) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: SITES,
        variant: SystemVariant::ICPlus,
        network: calibrated_network(),
        exec_timeout: Some(Duration::from_secs(120)),
        memory_limit_rows: 60_000_000,
        ..ClusterConfig::test_default()
    });
    cluster
        .run("CREATE TABLE fact (id BIGINT, grp BIGINT, val BIGINT, PRIMARY KEY (id))")
        .expect("create fact");
    cluster
        .run("CREATE TABLE dim (grp BIGINT, name VARCHAR, PRIMARY KEY (grp))")
        .expect("create dim");
    const GROUPS: i64 = 64;
    let fact: Vec<Row> = (0..rows)
        .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % GROUPS), Datum::Int(i * 7 % 1001)]))
        .collect();
    let dim: Vec<Row> =
        (0..GROUPS).map(|g| Row(vec![Datum::Int(g), Datum::str(format!("g{g}"))])).collect();
    cluster.insert("fact", fact).expect("load fact");
    cluster.insert("dim", dim).expect("load dim");
    cluster.analyze_all().expect("analyze");
    cluster
}

/// Median wall time over `reps` runs (one untimed warm-up first).
fn measure(cluster: &Cluster, sql: &str, reps: usize, expect_rows: usize) -> Duration {
    let warm = cluster.query(sql).expect("warm-up query");
    assert_eq!(warm.rows.len(), expect_rows, "row count drifted across thread counts");
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let r = cluster.query(sql).expect("measured query");
            let dt = t0.elapsed();
            assert_eq!(r.rows.len(), expect_rows);
            dt
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

struct Point {
    threads: usize,
    ship: Duration,
    agg: Duration,
}

fn run_sweep(rows: i64, reps: usize) -> Vec<Point> {
    let base = base_cluster(rows);
    let ship_rows = base.query(SHIP_SQL).expect("ship baseline").rows.len();
    let agg_rows = base.query(AGG_SQL).expect("agg baseline").rows.len();
    println!(
        "== scaling sweep: {SITES} sites, {rows} rows, morsel {MORSEL_ROWS}, {reps} reps ==\n"
    );
    println!("{:>7} {:>10} {:>9} {:>10} {:>9}", "threads", "ship ms", "speedup", "agg ms", "speedup");
    let mut points = Vec::new();
    let mut base_ship = None;
    let mut base_agg = None;
    for &threads in &THREADS {
        // Same catalog, same loaded data, fresh network; only the
        // lane count per parallel region changes.
        let cluster = base.with_worker_threads(threads, MORSEL_ROWS);
        let ship = measure(&cluster, SHIP_SQL, reps, ship_rows);
        let agg = measure(&cluster, AGG_SQL, reps, agg_rows);
        let (b_ship, b_agg) =
            (*base_ship.get_or_insert(ship), *base_agg.get_or_insert(agg));
        println!(
            "{threads:>7} {:>10.1} {:>8.2}x {:>10.1} {:>8.2}x",
            ship.as_secs_f64() * 1e3,
            b_ship.as_secs_f64() / ship.as_secs_f64().max(1e-9),
            agg.as_secs_f64() * 1e3,
            b_agg.as_secs_f64() / agg.as_secs_f64().max(1e-9),
        );
        points.push(Point { threads, ship, agg });
    }
    points
}

fn point_for(points: &[Point], threads: usize) -> &Point {
    points.iter().find(|p| p.threads == threads).expect("sweep point")
}

fn write_json(rows: i64, reps: usize, reduced: bool, points: &[Point]) {
    let one = point_for(points, 1);
    let points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"worker_threads\": {}, \"ship_ms\": {:.3}, \"agg_ms\": {:.3}, \
\"ship_speedup_vs_1\": {:.3}, \"agg_speedup_vs_1\": {:.3}}}",
                p.threads,
                p.ship.as_secs_f64() * 1e3,
                p.agg.as_secs_f64() * 1e3,
                one.ship.as_secs_f64() / p.ship.as_secs_f64().max(1e-9),
                one.agg.as_secs_f64() / p.agg.as_secs_f64().max(1e-9),
            )
        })
        .collect();
    let fields = format!(
        "  \"sites\": {SITES}, \"rows\": {rows}, \"morsel_rows\": {MORSEL_ROWS}, \"reps\": {reps},\n  \
\"ship_sql\": {SHIP_SQL:?},\n  \"agg_sql\": {AGG_SQL:?},\n  \"points\": [\n{}\n  ]\n",
        points.join(",\n")
    );
    let path = ic_bench::harness::write_bench_json("scaling", reduced, &fields)
        .expect("write BENCH_scaling.json");
    println!("\nwrote {path}");
}

/// The acceptance floor the CI smoke asserts: wire-bound work must scale.
fn assert_floor(points: &[Point]) {
    let (p1, p4) = (point_for(points, 1), point_for(points, 4));
    let speedup = p1.ship.as_secs_f64() / p4.ship.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 1.8,
        "ship query speedup at 4 worker threads is {speedup:.2}x (< 1.8x floor): \
         1 thread {:.1} ms vs 4 threads {:.1} ms",
        p1.ship.as_secs_f64() * 1e3,
        p4.ship.as_secs_f64() * 1e3
    );
    println!("floor OK: ship 4-thread speedup {speedup:.2}x (>= 1.8x)");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rows, reps) = if smoke { (120_000, 3) } else { (240_000, 5) };
    let points = run_sweep(rows, reps);
    assert_floor(&points);
    write_json(rows, reps, smoke, &points);
}
