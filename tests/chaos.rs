//! Chaos integration tests: TPC-H under deterministic fault injection.
//!
//! The acceptance bar for the failover subsystem: with `backups = 1` and a
//! seeded fault plan that permanently kills one of 4 sites, every
//! previously-passing TPC-H smoke query still returns correct results via
//! retry + failover, and the same seed reproduces the identical fault
//! schedule across runs.

use ignite_calcite_rs::benchdata::tpch;
use ignite_calcite_rs::{
    Cluster, ClusterConfig, Datum, FaultPlan, GovernorConfig, IcError, Row, SiteId, SystemVariant,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SF: f64 = 0.002;

fn chaos_cluster(backups: usize) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        backups,
        variant: SystemVariant::ICPlus,
        network: ignite_calcite_rs::NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(60)),
        memory_limit_rows: 20_000_000,
        ..ClusterConfig::default()
    });
    for ddl in tpch::DDL.iter().chain(tpch::INDEX_DDL) {
        cluster.run(ddl).unwrap();
    }
    for t in tpch::generate(SF, 42) {
        cluster.insert(t.name, t.rows).unwrap();
    }
    cluster.analyze_all().unwrap();
    cluster
}

fn runnable_queries() -> Vec<usize> {
    (1..=22).filter(|q| !tpch::EXCLUDED_UNSUPPORTED.contains(q)).collect()
}

/// The statement the mid-run-crash tests open with. Fault ticks are
/// messages, and a link whose end-of-stream rides its only batch carries
/// exactly one — so under "crash site 3 from tick 1", a statement where
/// site 3 is on a single transfer (`count(*)` over one table: one message
/// per site) survives whenever site 3's driver happens to send first. This
/// one broadcasts `customer`: site 3 is an endpoint of six transfers before
/// any partial result moves, at most one of them is tick 0, and the crash
/// lands by construction.
const BROADCASTING_SQL: &str = "SELECT count(*) FROM orders, customer WHERE o_custkey = c_custkey";

/// The construction [`BROADCASTING_SQL`]'s doc relies on, checked against
/// the plan: some exchange of `sql` has every site send to every other.
fn assert_every_site_sends_on_several_links(cluster: &Cluster, sql: &str) {
    let plan = cluster.explain(sql).unwrap();
    assert!(
        plan.contains("Exchange[broadcast]") || plan.contains("Exchange[hash"),
        "no all-to-all exchange, a crash from tick 1 may miss this statement:\n{plan}"
    );
}

/// Sort rows deterministically, then compare pairwise with a relative
/// tolerance on doubles: a 3-survivor execution accumulates floating-point
/// sums in a different order than the 4-site baseline.
fn assert_rows_close(a: &[Row], b: &[Row], label: &str) {
    fn key(r: &Row) -> String {
        r.0.iter()
            .map(|d| match d {
                Datum::Double(f) => format!("{f:.6}"),
                other => other.to_string(),
            })
            .collect::<Vec<_>>()
            .join("|")
    }
    assert_eq!(a.len(), b.len(), "{label}: row count");
    let mut sa: Vec<&Row> = a.iter().collect();
    let mut sb: Vec<&Row> = b.iter().collect();
    sa.sort_by_key(|r| key(r));
    sb.sort_by_key(|r| key(r));
    for (ra, rb) in sa.iter().zip(&sb) {
        assert_eq!(ra.arity(), rb.arity(), "{label}: arity");
        for (da, db) in ra.0.iter().zip(&rb.0) {
            match (da, db) {
                (Datum::Double(x), Datum::Double(y)) => {
                    let tol = 1e-6 * x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= tol, "{label}: {x} vs {y}\n{ra:?}\n{rb:?}");
                }
                _ => assert_eq!(da, db, "{label}:\n{ra:?}\n{rb:?}"),
            }
        }
    }
}

/// With `backups = 1`, a 4-site cluster answers every runnable TPC-H
/// query with one site marked dead, and the answers match the healthy
/// baseline — on IC+ and on IC+M, where site 3, now serving partitions 2
/// and 3, runs two instances of every scan fragment, each split into
/// variants (index scans under merge joins included).
#[test]
fn all_queries_survive_dead_site_with_backups() {
    let cluster = chaos_cluster(1);
    let mut baselines = Vec::new();
    for q in runnable_queries() {
        let r = cluster
            .query(&tpch::query(q))
            .unwrap_or_else(|e| panic!("healthy baseline Q{q}: {e}"));
        baselines.push((q, r.rows));
    }
    // IC+M on the same data has a network of its own: site 2 dies there too.
    let multi = cluster.with_variant(SystemVariant::ICPlusM);
    cluster.kill_site(2);
    multi.kill_site(2);
    for (q, baseline_rows) in &baselines {
        for c in [&cluster, &multi] {
            let v = c.variant();
            let r = c
                .query(&tpch::query(*q))
                .unwrap_or_else(|e| panic!("Q{q} on {v:?} with site2 dead: {e}"));
            assert_rows_close(baseline_rows, &r.rows, &format!("Q{q} failover on {v:?}"));
        }
    }
    let (result, trace) = multi.query_traced(0, &tpch::query(1));
    result.expect("traced Q1 with site2 dead");
    let at_site3: Vec<(usize, usize)> = trace
        .lanes()
        .iter()
        .filter(|l| l.contains(" @site3 "))
        .filter_map(|l| lane_partition_variant(l))
        .collect();
    for instance in [(2, 0), (2, 1), (3, 0), (3, 1)] {
        assert!(at_site3.contains(&instance), "site 3 ran no {instance:?}: {at_site3:?}");
    }
}

/// The (partition, variant) a partitioned fragment instance's lane names:
/// `f{fragment} @site{s} p{partition} v{variant}`.
fn lane_partition_variant(lane: &str) -> Option<(usize, usize)> {
    let (rest, v) = lane.rsplit_once(" v")?;
    let (_, p) = rest.rsplit_once(" p")?;
    Some((p.parse().ok()?, v.parse().ok()?))
}

/// A seeded fault plan that permanently kills site 3 mid-run: the
/// in-flight query recovers via retry + replan, every query matches the
/// healthy baseline, and the identical seed produces the identical fault
/// schedule and results on a second, independent run.
#[test]
fn seeded_mid_run_crash_recovers_and_replays() {
    const SEED: u64 = 4242;
    // Crash from tick 1: site 3 is alive at planning time, and the opening
    // statement's exchanges are guaranteed to hit the dead site mid-run.
    let plan = || FaultPlan::new(SEED).crash(SiteId(3), 1);
    assert_eq!(plan(), plan(), "same seed must build the same plan");
    assert_eq!(plan().timeline(), plan().timeline());

    let healthy = chaos_cluster(1);
    assert_every_site_sends_on_several_links(&healthy, BROADCASTING_SQL);
    let queries: Vec<(String, String)> = std::iter::once(("opener".into(), BROADCASTING_SQL.into()))
        .chain(runnable_queries().into_iter().map(|q| (format!("Q{q}"), tpch::query(q))))
        .collect();
    let mut baselines = Vec::new();
    for (_, sql) in &queries {
        baselines.push(healthy.query(sql).unwrap().rows);
    }

    type Run = (Vec<Vec<Row>>, u32, Vec<SiteId>);
    let mut runs: Vec<Run> = Vec::new();
    for _ in 0..2 {
        let cluster = chaos_cluster(1);
        cluster.install_faults(plan());
        let mut rows_per_query = Vec::new();
        let mut total_retries = 0;
        let mut max_peak_buffered = 0u64;
        for (q, sql) in &queries {
            let r = cluster
                .query(sql)
                .unwrap_or_else(|e| panic!("{q} under seeded crash (fault seed {SEED}): {e}"));
            // QueryStats reports the lease's buffered-cell high-water mark
            // and shows no queue wait for this uncontended single client.
            assert_eq!(r.stats.queue_wait, Duration::ZERO, "{q}: unexpected queue wait");
            max_peak_buffered = max_peak_buffered.max(r.stats.peak_buffered_rows);
            total_retries += r.retries;
            rows_per_query.push(r.rows);
        }
        assert!(
            max_peak_buffered > 0,
            "at least one TPC-H query buffers operator state, so some lease peak must be nonzero"
        );
        let mut down: Vec<SiteId> = cluster.network().down_sites().into_iter().collect();
        down.sort();
        runs.push((rows_per_query, total_retries, down));
    }

    for (rows_per_query, total_retries, down) in &runs {
        // The opening statement runs into the crash and must have failed
        // over.
        assert!(*total_retries >= 1, "expected at least one failover retry");
        // Site 3 ends the run down, and only site 3.
        assert_eq!(down, &vec![SiteId(3)], "site3 should be the one down site");
        for (((q, _), rows), baseline) in queries.iter().zip(rows_per_query).zip(&baselines) {
            assert_rows_close(baseline, rows, &format!("{q} under seeded crash (seed {SEED})"));
        }
    }
    // Replay: the two identically-seeded runs agree exactly.
    assert_eq!(runs[0].1, runs[1].1, "retry counts diverged between replays of seed {SEED}");
    assert_eq!(runs[0].2, runs[1].2, "down sets diverged between replays of seed {SEED}");
    for (((q, _), a), b) in queries.iter().zip(&runs[0].0).zip(&runs[1].0) {
        assert_rows_close(a, b, &format!("{q} replay (seed {SEED})"));
    }
}

/// A traced query that crashes mid-run and fails over records *both*
/// attempts: the trace carries one span per attempt, an `attempt.failed`
/// instant event for the lost one, and still validates as a well-formed
/// span tree.
#[test]
fn failed_over_query_trace_records_both_attempts() {
    const SEED: u64 = 77;
    let cluster = chaos_cluster(1);
    assert_every_site_sends_on_several_links(&cluster, BROADCASTING_SQL);
    // Crash from tick 1 so attempt 0 plans against a live site 3 and dies
    // mid-run; attempt 1 replans around the dead site and succeeds.
    cluster.install_faults(FaultPlan::new(SEED).crash(SiteId(3), 1));
    let (result, trace) = cluster.query_traced(0, BROADCASTING_SQL);
    let result = result
        .unwrap_or_else(|e| panic!("failover should recover the query (fault seed {SEED}): {e}"));
    assert!(result.retries >= 1, "query must have failed over at least once (fault seed {SEED})");

    trace.validate().expect("well-formed span tree despite the mid-run crash");
    let spans = trace.spans();
    let attempt_spans = spans.iter().filter(|s| s.cat == "attempt").count();
    assert!(
        attempt_spans >= 2,
        "both the failed and the recovered attempt must be traced, got {attempt_spans}"
    );
    assert!(
        trace.events().iter().any(|e| e.name == "attempt.failed"),
        "the lost attempt must leave an attempt.failed event"
    );
    // Parsed and bound once for the whole call, planned once per attempt.
    let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!((named("sql.parse"), named("sql.bind")), (1, 1));
    assert_eq!(named("plan"), attempt_spans, "one plan span per attempt");
    // One per-operator stats table per attempt, and the last (successful)
    // attempt's root operator emitted the single count(*) row.
    let attempts = trace.attempts();
    assert!(attempts.len() >= 2, "one stats table per attempt, got {}", attempts.len());
    assert_eq!(attempts.last().unwrap().rows(0), result.rows.len() as u64);
}

/// A link's end-of-stream is its last message, so losing that message must
/// not leave the receiver waiting for a marker that will never come: with the
/// site 2 → coordinator link dropping everything, site 2's one message of a
/// `count(*)` — partial count and end flag at once — is lost, and the
/// statement surfaces the retryable `SiteUnavailable` chain, never a hang
/// or a short count.
#[test]
fn lost_last_message_is_retryable() {
    let cluster = chaos_cluster(1);
    let sql = "SELECT count(*) FROM lineitem";
    let baseline = cluster.query(sql).unwrap().rows;
    cluster.install_faults(FaultPlan::new(5).drop_link(
        SiteId(2),
        SiteId(0),
        1.0,
        0,
        ignite_calcite_rs::TICK_FOREVER,
    ));
    match cluster.query(sql).unwrap_err() {
        IcError::RetriesExhausted { attempts, chain } => {
            assert!(attempts >= 2, "the lost message must have been retried: {chain:?}");
            assert!(chain.iter().all(|c| c.contains("dropped an exchange message")), "{chain:?}");
        }
        other => panic!("expected RetriesExhausted over SiteUnavailable, got {other}"),
    }
    cluster.clear_faults();
    assert_eq!(cluster.query(sql).unwrap().rows, baseline);
}

/// Without backups, a dead site's partitions are lost: the failover loop
/// retries, then surfaces the whole failure chain.
#[test]
fn no_backups_exhausts_retries() {
    let cluster = chaos_cluster(0);
    cluster.kill_site(1);
    let err = cluster.query(&tpch::query(6)).unwrap_err();
    match err {
        IcError::RetriesExhausted { attempts, chain } => {
            assert!(attempts >= 1);
            assert_eq!(chain.len() as u32, attempts);
            assert!(chain.iter().all(|c| c.contains("unavailable")), "{chain:?}");
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

/// Governor × fault interaction: eight clients slam a cluster with one
/// admission slot and a one-deep queue while a seeded fault plan crashes a
/// site mid-run. Shed queries get the retryable [`IcError::Overloaded`],
/// admitted queries survive the crash via failover, every successful
/// answer is correct, and the memory pool balances back to zero.
#[test]
fn governor_sheds_queued_queries_during_site_crash() {
    const CLIENTS: usize = 8;
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        backups: 1,
        variant: SystemVariant::ICPlus,
        network: ignite_calcite_rs::NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(60)),
        governor: GovernorConfig {
            max_concurrent: 1,
            max_queue: 1,
            ..GovernorConfig::test_default()
        },
        ..ClusterConfig::default()
    });
    for ddl in tpch::DDL.iter().chain(tpch::INDEX_DDL) {
        cluster.run(ddl).unwrap();
    }
    for t in tpch::generate(SF, 42) {
        cluster.insert(t.name, t.rows).unwrap();
    }
    cluster.analyze_all().unwrap();
    assert_every_site_sends_on_several_links(&cluster, BROADCASTING_SQL);
    let baseline = cluster.query(BROADCASTING_SQL).unwrap().rows;
    // Crash site 3 from tick 1: whichever query runs first hits it mid-run
    // while the other clients are queued or being shed.
    const SEED: u64 = 99;
    cluster.install_faults(FaultPlan::new(SEED).crash(SiteId(3), 1));

    let cluster = Arc::new(cluster);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cluster.query_as(client as u64, BROADCASTING_SQL)
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut total_retries = 0u32;
    let mut saw_queue_wait = false;
    for h in handles {
        match h.join().expect("client thread panicked") {
            Ok(r) => {
                assert_rows_close(&baseline, &r.rows, &format!("overload + crash (seed {SEED})"));
                saw_queue_wait |= r.stats.queue_wait > Duration::ZERO;
                total_retries += r.retries;
                ok += 1;
            }
            Err(e @ IcError::Overloaded { .. }) => {
                assert!(e.is_retryable(), "shed queries must be client-retryable: {e}");
                assert!(!e.is_failover_retryable());
                shed += 1;
            }
            Err(other) => panic!("expected success or Overloaded (fault seed {SEED}), got {other}"),
        }
    }
    assert_eq!(ok + shed, CLIENTS);
    // One slot + one queue entry: at least the runner and the queued query
    // succeed; the rest are shed (timing may let a straggler in).
    assert!(ok >= 2, "runner + queued query should complete, got {ok}");
    assert!(shed >= 1, "with {CLIENTS} simultaneous clients, some must be shed");
    assert!(saw_queue_wait, "the queued query should report a nonzero queue wait");
    assert!(total_retries >= 1, "the in-flight query should fail over past the crash");

    let stats = cluster.governor().stats();
    assert_eq!(stats.shed as usize, shed);
    assert_eq!(stats.admitted as usize, ok + 1, "baseline + successful clients");
    assert!(stats.queued >= 1);
    assert!(stats.peak_concurrent <= 1, "admission must bound concurrency");
    assert_eq!(stats.pool_in_use, 0, "pool must leak no budget after the run");
    assert_eq!(cluster.governor().pool().active_leases(), 0);
}

/// Memory-governance end to end: with the pool held hostage by a hog
/// lease, a query is revoked (deterministically — the hog never unwinds,
/// so the starved query self-revokes after its grant timeout), surfaces
/// the retryable [`IcError::ResourcesRevoked`], and succeeds with correct
/// results once the pressure is gone. No budget leaks either way.
#[test]
fn revoked_query_is_retryable_and_leaks_no_budget() {
    let cluster = Cluster::new(ClusterConfig {
        sites: 2,
        variant: SystemVariant::ICPlus,
        network: ignite_calcite_rs::NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(60)),
        governor: GovernorConfig {
            // Chunk-aligned so the hog lease below can drain it exactly.
            pool_budget_cells: 64 * ignite_calcite_rs::common::LEASE_CHUNK_CELLS,
            grant_timeout: Duration::from_millis(50),
            ..GovernorConfig::test_default()
        },
        ..ClusterConfig::default()
    });
    cluster.run("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))").unwrap();
    let rows: Vec<Row> = (0..2000).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 50)])).collect();
    cluster.insert("t", rows).unwrap();
    cluster.analyze_all().unwrap();
    let sql = "SELECT count(*) FROM t x, t y WHERE x.b = y.b";
    let baseline = cluster.query(sql).unwrap().rows.clone();

    let pool = cluster.governor().pool().clone();
    let hog = pool.lease(u64::MAX);
    hog.reserve(pool.capacity()).unwrap();

    // The query's first buffer reservation finds the pool empty, marks the
    // hog (largest lease) for revocation, then self-revokes when the hog
    // fails to unwind within the grant timeout.
    let err = cluster.query(sql).unwrap_err();
    assert!(matches!(err, IcError::ResourcesRevoked { .. }), "{err}");
    assert!(err.is_retryable());
    assert!(!err.is_failover_retryable());
    assert!(hog.is_revoked(), "the hog lease must be picked as the revocation victim");
    assert!(cluster.governor().stats().revoked >= 2, "hog + self-revoked query lease");

    // Client-style retry after the pressure clears: correct result.
    drop(hog);
    let retry = cluster.query(sql).unwrap();
    assert_eq!(retry.rows, baseline);
    assert!(retry.stats.peak_buffered_rows > 0);
    assert_eq!(pool.in_use(), 0, "all leases returned their grants");
    assert_eq!(pool.active_leases(), 0);
}

// --- errors raised while messages are in flight ------------------------------

/// A 2-site IC+M cluster on the default network under a standing latency
/// spike. [`SHIP_SQL`]'s scan fragment runs as two variant instances per
/// site, each streaming its share straight into the exchange, and only
/// site 1's cross the wire. Under the spike each of its ~16 KB messages
/// holds site 1's NIC for 16 µs × the factor and lands 50 µs × the factor
/// after that: the first (tick 0, ×1000) lands ~66 ms in, the second
/// (×4000) queues behind it and lands ~280 ms in, the rest later still.
/// Site 1's variant instances hand their messages over and finish at once;
/// it is the root's receiver that waits for them. So whatever stops the query
/// between 10 and 250 ms stops it with messages in flight and the root
/// waiting on the wire.
fn slow_shipping_cluster(config: ClusterConfig) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 2,
        variant: SystemVariant::ICPlusM,
        network: ignite_calcite_rs::NetworkConfig::default(),
        ..config
    });
    cluster.run("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))").unwrap();
    let rows: Vec<Row> = (0..SHIPPED_ROWS).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 50)])).collect();
    cluster.insert("t", rows).unwrap();
    cluster.analyze_all().unwrap();
    cluster.install_faults(staggered_spike());
    cluster
}

/// [`slow_shipping_cluster`]'s standing fault plan: the first cross-site
/// message (tick 0) costs 1000× the network's latency and occupancy, every
/// later one 4000×.
fn staggered_spike() -> FaultPlan {
    let forever = ignite_calcite_rs::TICK_FOREVER;
    FaultPlan::new(7).latency_spike(1000, 0, forever).latency_spike(4, 1, forever)
}

const SHIPPED_ROWS: i64 = 6000;
const SHIP_SQL: &str = "SELECT a, b FROM t ORDER BY b";

/// What every error raised under [`slow_shipping_cluster`] must leave behind:
/// its class on the client, a closed and well-nested span tree with the
/// second variants' lanes in it, and — once `hog`, if the test holds one, is
/// gone — no budget held.
fn assert_clean_failure(
    cluster: &Cluster,
    hog: Option<ignite_calcite_rs::common::MemoryLease>,
    expected: fn(&IcError) -> bool,
) {
    let (result, trace) = cluster.query_traced(0, SHIP_SQL);
    let err = result.expect_err("the query cannot finish");
    assert!(expected(&err), "{err}");
    trace.validate().expect("span tree well-formed");
    let lanes = trace.lanes();
    let second_variant = |l: &String| lane_partition_variant(l).is_some_and(|(_, v)| v == 1);
    assert!(lanes.iter().any(second_variant), "the scan fragments ran no variants: {lanes:?}");
    drop(hog);
    assert_eq!(cluster.governor().pool().active_leases(), 0, "a lease outlived its query");
    assert_eq!(cluster.governor().pool().in_use(), 0, "pool leaked budget");
}

/// The deadline passes while site 1's messages are still on the wire: the
/// root's receiver stops waiting for them at its next check, and the client
/// sees the timeout it is.
#[test]
fn exec_timeout_with_lanes_mid_flight() {
    let cluster = slow_shipping_cluster(ClusterConfig {
        exec_timeout: Some(Duration::from_millis(100)),
        ..ClusterConfig::default()
    });
    assert_clean_failure(&cluster, None, |e| matches!(e, IcError::ExecTimeout { limit_ms: 100 }));
}

/// The root's sort has room for its own site's half of the table, which it
/// gets for free, and for half a message more: the budget runs out on site
/// 1's first message, ~66 ms in, with its later messages still in flight.
#[test]
fn memory_limit_with_lanes_mid_flight() {
    const LIMIT_CELLS: u64 = 2 * (SHIPPED_ROWS as u64 / 2 + 512);
    let cluster = slow_shipping_cluster(ClusterConfig {
        exec_timeout: Some(Duration::from_secs(60)),
        memory_limit_rows: LIMIT_CELLS,
        ..ClusterConfig::default()
    });
    assert_clean_failure(&cluster, None, |e| matches!(e, IcError::MemoryLimit { limit_rows: LIMIT_CELLS }));
}

/// The root's first reservation — for the rows its own site hands it at once
/// — finds the pool drained by a hog that never unwinds: it marks the hog,
/// waits one 10 ms step, finds nobody left to revoke and revokes itself,
/// with site 1's messages still in flight.
#[test]
fn resources_revoked_with_lanes_mid_flight() {
    let cluster = slow_shipping_cluster(ClusterConfig {
        exec_timeout: Some(Duration::from_secs(60)),
        governor: GovernorConfig {
            pool_budget_cells: 64 * ignite_calcite_rs::common::LEASE_CHUNK_CELLS,
            grant_timeout: Duration::from_millis(50),
            ..GovernorConfig::test_default()
        },
        ..ClusterConfig::default()
    });
    let pool = cluster.governor().pool().clone();
    let hog = pool.lease(u64::MAX);
    hog.reserve(pool.capacity()).unwrap();
    assert_clean_failure(&cluster, Some(hog), |e| {
        matches!(e, IcError::ResourcesRevoked { .. }) && e.is_retryable() && !e.is_failover_retryable()
    });
}

// --- one cause per query ------------------------------------------------------

/// What `execute_plan` ended with, as `Cluster::query` hands it on under
/// `max_retries: 0`: a failover-retryable error comes back as the one-entry
/// chain of `RetriesExhausted`, anything else as itself. The cause's text and
/// whether the failover loop would have retried it; `None` for an answer.
fn attempt_outcome(result: &Result<ignite_calcite_rs::QueryResult, IcError>) -> Option<(String, bool)> {
    match result {
        Ok(_) => None,
        Err(IcError::RetriesExhausted { attempts: 1, chain }) => Some((chain[0].clone(), true)),
        Err(e) => Some((e.to_string(), e.is_failover_retryable())),
    }
}

/// ROADMAP 4(c) for the errors `execute_plan` can end with beyond the three
/// limits above: whichever thread decides the failure, the client sees *that*
/// error — never the `Cancelled` of a thread that only saw the stop, never a
/// link symptom — with its retry class intact, the trace says so once
/// (`exec.stop`), and nothing is left behind. Each row runs on the
/// slow-shipping cluster, so site 1's messages are on the wire for 66 ms and
/// more while the failure is decided elsewhere.
#[test]
fn every_stop_has_one_cause() {
    let cluster = slow_shipping_cluster(ClusterConfig {
        exec_timeout: Some(Duration::from_secs(60)),
        max_retries: 0,
        ..ClusterConfig::default()
    });
    let one_variant = cluster.with_variant(SystemVariant::ICPlus);
    let t = cluster.catalog().table_data(cluster.catalog().table_by_name("t").unwrap()).unwrap();
    // Site 1's partitions in scan order, and the last row it scans: a filter
    // that fails on that row alone fails in site 1's fragment, behind
    // everything that fragment ships.
    let at_site_1: Vec<usize> =
        (0..t.num_partitions()).filter(|p| t.replica(*p, SiteId(1)).is_some()).collect();
    let last_of = |p: &usize| t.store(*p).chunks().last().map(|c| c.row_at(c.num_rows() - 1));
    let last = at_site_1.iter().filter_map(last_of).next_back().unwrap();
    // On that row `x - x` is `inf - inf`: a NaN, which compares to nothing.
    let x = format!("(a + 1) * 1{zeros}.0 * 1{zeros}.0", zeros = "0".repeat(300));
    let bad_filter = format!("SELECT a, b FROM t WHERE a <> {} OR {x} - {x} < 1 ORDER BY b", last.0[0]);
    let nan_error = |cause: &str| cause == "execution error: cannot compare NaN and 1.0000";
    let site_1_lost = |cause: &str| cause.starts_with("site1 unavailable: ");
    let rebalancing = |cause: &str| cause.ends_with("is rebalancing; retry against the new owner map");

    struct Case<'a> {
        name: &'a str,
        cluster: &'a Cluster,
        faults: FaultPlan,
        /// Take site 1's replica of one of its partitions away meanwhile.
        drop_replica: bool,
        sql: &'a str,
        /// The cause, recognised by its text; `None` for a query that must
        /// answer.
        cause: Option<fn(&str) -> bool>,
        /// Whether the failover loop retries that cause.
        failover: bool,
    }
    let case = |name, cluster, sql, cause, failover| Case {
        name,
        cluster,
        faults: staggered_spike(),
        drop_replica: false,
        sql,
        cause,
        failover,
    };
    let table = [
        case("expression error in a producer, 2 variants", &cluster, &bad_filter, Some(nan_error), false),
        case("expression error in a producer, 1 variant", &one_variant, &bad_filter, Some(nan_error), false),
        case("LIMIT satisfied over shipping producers", &cluster, "SELECT a, b FROM t LIMIT 5", None, false),
        Case {
            drop_replica: true,
            ..case("replica dropped after planning", &cluster, SHIP_SQL, Some(rebalancing), true)
        },
        Case {
            faults: staggered_spike().crash(SiteId(1), 1),
            ..case("site crashed mid-run", &cluster, SHIP_SQL, Some(site_1_lost), true)
        },
    ];
    for Case { name, cluster, faults, drop_replica, sql, cause: expected, failover } in table {
        cluster.install_faults(faults);
        let moved = drop_replica.then(|| {
            let store = t.replica(at_site_1[0], SiteId(1)).unwrap();
            t.drop_replica(at_site_1[0], SiteId(1));
            store
        });
        let (result, trace) = cluster.query_traced(0, sql);
        if let Some(store) = moved {
            t.install_replica(at_site_1[0], SiteId(1), store);
        }
        let outcome = attempt_outcome(&result);
        let stops: Vec<String> =
            trace.events().into_iter().filter(|e| e.name == "exec.stop").map(|e| e.detail).collect();
        match (&outcome, expected) {
            (None, None) => {
                assert_eq!(result.as_ref().unwrap().rows.len(), 5, "{name}");
                assert_eq!(stops, Vec::<String>::new(), "{name}: a finished query has no cause");
            }
            (Some((cause, retryable)), Some(is_expected)) => {
                assert_ne!(*cause, IcError::Cancelled.to_string(), "{name}: the marker escaped");
                assert!(is_expected(cause), "{name}: {cause}");
                assert_eq!(*retryable, failover, "{name}: {cause}");
                assert_eq!(stops, std::slice::from_ref(cause), "{name}: the trace names the cause, once");
            }
            _ => panic!("{name}: {:?}", result.map(|r| r.rows.len())),
        }
        trace.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let lanes = trace.lanes();
        let last = cluster.variant().flags().variant_fragments - 1;
        let last_variant = |l: &String| lane_partition_variant(l).is_some_and(|(_, v)| v == last);
        assert!(lanes.iter().any(last_variant), "{name}: {lanes:?}");
        assert_eq!(cluster.governor().pool().active_leases(), 0, "{name}: a lease outlived its query");
        assert_eq!(cluster.governor().pool().in_use(), 0, "{name}: pool leaked budget");
        cluster.clear_faults();
    }
}
