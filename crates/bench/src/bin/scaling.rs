//! Intra-site scaling curve: one fixed 4-site cluster, variant fragments
//! per eligible fragment (§5.3) swept from IC+ (width 1) to IC+M (width 2),
//! wall time per query shape. Variant fragments are the engine's only
//! intra-site parallelism: each variant instance is one more driver thread.
//! Two query shapes show where they can and cannot help:
//!
//! * **ship** — a wide scan→filter→project whose entire output is shipped
//!   to the coordinator over the calibrated simulated network. Each
//!   sending site's NIC serializes its share of that output, so the wire
//!   is a floor variants cannot move: more drivers produce the rows sooner,
//!   the NIC sends them no faster.
//! * **aggregate** — a redistribution join + grouped aggregate whose
//!   partial-aggregate output is tiny. Wire time is negligible, the work
//!   is CPU-bound, so on a host with few cores extra variants buy little;
//!   the point of measuring it is that it must not collapse.
//!
//! Asserts the model's floor at every width — the ship query takes at
//! least its bytes shipped per sending site ÷ bandwidth — and that the
//! aggregate never runs more than twice as long as at width 1.
//! Writes `BENCH_scaling.json` to the working directory; `--smoke` runs a
//! reduced-size sweep (half the rows, 3 reps) and writes to `target/bench/`
//! instead.

#![expect(clippy::disallowed_methods, reason = "a benchmark harness times queries on the wall clock")]

use ic_core::{Cluster, ClusterConfig, Datum, NetworkConfig, Row, SystemVariant};
use std::time::{Duration, Instant};

const SITES: usize = 4;
/// The sweep, by width: IC+ runs one instance per fragment and site, IC+M
/// two variants of every eligible fragment.
const WIDTHS: [SystemVariant; 2] = [SystemVariant::ICPlus, SystemVariant::ICPlusM];

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

/// Median wall time over `reps` runs (one untimed warm-up first), and the
/// bytes one run ships across sites.
fn measure(cluster: &Cluster, sql: &str, reps: usize, expect_rows: usize) -> (Duration, u64) {
    let warm = cluster.query(sql).expect("warm-up query");
    assert_eq!(warm.rows.len(), expect_rows, "row count drifted across widths");
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
    (times[times.len() / 2], warm.stats.net_bytes)
}

struct Point {
    /// Variant fragments per eligible fragment.
    width: usize,
    ship: Duration,
    /// `QueryStats::net_bytes` of one ship query.
    ship_bytes: u64,
    agg: Duration,
}

fn run_sweep(rows: i64, reps: usize) -> Vec<Point> {
    let base = base_cluster(rows);
    let ship_rows = base.query(SHIP_SQL).expect("ship baseline").rows.len();
    let agg_rows = base.query(AGG_SQL).expect("agg baseline").rows.len();
    println!("== scaling sweep: {SITES} sites, {rows} rows, {reps} reps ==\n");
    println!("{:>7} {:>10} {:>9} {:>10} {:>9}", "width", "ship ms", "speedup", "agg ms", "speedup");
    let mut points = Vec::new();
    let mut base_ship = None;
    let mut base_agg = None;
    for variant in WIDTHS {
        // Same catalog, same loaded data, fresh network; only the variant
        // fragments per eligible fragment change.
        let cluster = base.with_variant(variant);
        let width = variant.flags().variant_fragments;
        let (ship, ship_bytes) = measure(&cluster, SHIP_SQL, reps, ship_rows);
        let (agg, _) = measure(&cluster, AGG_SQL, reps, agg_rows);
        let (b_ship, b_agg) =
            (*base_ship.get_or_insert(ship), *base_agg.get_or_insert(agg));
        println!(
            "{width:>7} {:>10.1} {:>8.2}x {:>10.1} {:>8.2}x",
            ship.as_secs_f64() * 1e3,
            b_ship.as_secs_f64() / ship.as_secs_f64().max(1e-9),
            agg.as_secs_f64() * 1e3,
            b_agg.as_secs_f64() / agg.as_secs_f64().max(1e-9),
        );
        points.push(Point { width, ship, ship_bytes, agg });
    }
    points
}

fn point_for(points: &[Point], width: usize) -> &Point {
    points.iter().find(|p| p.width == width).expect("sweep point")
}

fn write_json(rows: i64, reps: usize, reduced: bool, points: &[Point]) {
    let one = point_for(points, 1);
    let points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"variant_fragments\": {}, \"ship_ms\": {:.3}, \"ship_wire_floor_ms\": {:.3}, \
\"agg_ms\": {:.3}, \"ship_speedup_vs_1\": {:.3}, \"agg_speedup_vs_1\": {:.3}}}",
                p.width,
                p.ship.as_secs_f64() * 1e3,
                wire_floor(p.ship_bytes).as_secs_f64() * 1e3,
                p.agg.as_secs_f64() * 1e3,
                one.ship.as_secs_f64() / p.ship.as_secs_f64().max(1e-9),
                one.agg.as_secs_f64() / p.agg.as_secs_f64().max(1e-9),
            )
        })
        .collect();
    let fields = format!(
        "  \"sites\": {SITES}, \"rows\": {rows}, \"reps\": {reps},\n  \
\"ship_sql\": {SHIP_SQL:?},\n  \"agg_sql\": {AGG_SQL:?},\n  \"points\": [\n{}\n  ]\n",
        points.join(",\n")
    );
    let path = ic_bench::harness::write_bench_json("scaling", reduced, &fields)
        .expect("write BENCH_scaling.json");
    println!("\nwrote {path}");
}

/// What the wire model says the ship query cannot beat: every site but the
/// coordinator sends its share of `net_bytes` through its own NIC, so the
/// busiest of them — at least the average — takes that share ÷ bandwidth.
fn wire_floor(net_bytes: u64) -> Duration {
    let per_site = net_bytes as f64 / (SITES - 1) as f64;
    Duration::from_secs_f64(per_site / calibrated_network().bandwidth_bytes_per_sec as f64)
}

/// The checks the CI smoke asserts: at every width the ship query respects
/// the wire floor, and the aggregate does not collapse.
fn assert_floor(points: &[Point]) {
    let one = point_for(points, 1);
    for p in points {
        let floor = wire_floor(p.ship_bytes);
        assert!(
            p.ship >= floor,
            "ship query at width {} took {:.1} ms, under its wire floor of {:.1} ms \
             ({} B over {} sending sites)",
            p.width,
            p.ship.as_secs_f64() * 1e3,
            floor.as_secs_f64() * 1e3,
            p.ship_bytes,
            SITES - 1
        );
        assert!(
            p.agg <= one.agg * 2,
            "aggregate query collapsed at width {}: {:.1} ms vs {:.1} ms at width 1",
            p.width,
            p.agg.as_secs_f64() * 1e3,
            one.agg.as_secs_f64() * 1e3
        );
    }
    println!(
        "floor OK: ship >= its wire floor ({:.1} ms) and aggregate <= 2x its width-1 time at every width",
        wire_floor(one.ship_bytes).as_secs_f64() * 1e3
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rows, reps) = if smoke { (120_000, 3) } else { (240_000, 5) };
    let points = run_sweep(rows, reps);
    assert_floor(&points);
    write_json(rows, reps, smoke, &points);
}
