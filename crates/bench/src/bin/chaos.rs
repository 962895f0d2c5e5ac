//! Chaos runner: execute the TPC-H suite under a seeded fault schedule and
//! report per-query recovery behaviour plus aggregate success rate and
//! recovery latency. The same seed replays the identical fault sequence,
//! so a chaos run is a reproducible experiment, not a dice roll:
//! `cargo run --release -p ic-bench --bin chaos [seed] [backups]`
//!
//! `seed` (default 42) picks the generated fault schedule; `backups` per
//! partition (default 1) picks between the two documented behaviours —
//! with 0 a crashed site loses partitions and queries fail with
//! `RetriesExhausted`, with ≥ 1 they fail over. Everything else is fixed:
//! TPC-H SF 0.005 on 4 sites, a 2000-tick schedule, the calibrated network
//! and the paper sweep's runtime limit.
//!
//! `--writes` switches to the DML chaos experiment: a deterministic
//! interleaved INSERT/UPDATE/DELETE stream runs across a scripted
//! topology storyline (kill a primary mid-stream, admit a fresh site,
//! revive the dead one, retire the newcomer) and reports per-phase
//! write availability and replication messages per acked write, the
//! time of each topology step's repair pass (the kill's promotes what the
//! dead site led, so no write has to fail over), and the
//! rebalance/replication counters. Every acknowledged
//! write is verified readable at the end and every partition must be back
//! at exactly the replication factor — the run *asserts* both, so it is a
//! correctness gate as much as a benchmark.
//! Writes `BENCH_dml.json`; `--writes --smoke` runs a scaled-down
//! asserting pass for CI and writes under `target/bench/`.

#![expect(clippy::disallowed_methods, reason = "a benchmark harness times recovery on the wall clock")]

use ic_bench::{calibrated_network, load_tpch, FULL};
use ic_common::obs::MetricsRegistry;
use ic_core::{Cluster, ClusterConfig, FaultPlan, SiteId, SystemVariant};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--writes") {
        writes_mode(argv.iter().any(|a| a == "--smoke"));
        return;
    }
    const SF: f64 = 0.005;
    const SITES: usize = 4;
    const HORIZON: u64 = 2000;
    let seed: u64 = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let backups: usize = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let cluster = Cluster::new(ClusterConfig {
        sites: SITES,
        backups,
        variant: SystemVariant::ICPlus,
        network: calibrated_network(),
        exec_timeout: Some(FULL.timeout),
        ..ClusterConfig::default()
    });
    println!("== chaos: TPC-H sf={SF} seed={seed} backups={backups} sites={SITES} ==");
    load_tpch(&cluster, SF, 42).expect("load tpch");

    let queries = ic_bench::runner::tpch_query_set();

    // Healthy baseline: which queries pass, and how fast, without faults.
    let mut baseline: Vec<(usize, usize, Duration)> = Vec::new();
    for &q in &queries {
        let sql = ic_benchdata::tpch::query(q);
        let t0 = Instant::now();
        match cluster.query(&sql) {
            Ok(r) => baseline.push((q, r.rows.len(), t0.elapsed())),
            Err(e) => println!("Q{q:02}: baseline FAILED ({e}) — excluded from chaos scoring"),
        }
    }
    println!("baseline: {}/{} queries pass", baseline.len(), queries.len());

    // Install the seeded schedule and print it; the timeline is the full
    // reproducibility contract — rerunning with the same seed replays it.
    let plan = FaultPlan::random(seed, SITES, HORIZON);
    println!("-- fault schedule (logical ticks = cross-site messages) --");
    for line in plan.timeline().lines() {
        println!("  {line}");
    }
    cluster.install_faults(plan);

    // Chaos pass over every baseline-passing query.
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut recoveries: Vec<Duration> = Vec::new();
    for (q, base_rows, base_wall) in &baseline {
        let sql = ic_benchdata::tpch::query(*q);
        let t0 = Instant::now();
        match cluster.query(&sql) {
            Ok(r) => {
                ok += 1;
                let wall = t0.elapsed();
                let note = if r.rows.len() == *base_rows { "rows match" } else { "ROW MISMATCH" };
                if r.retries > 0 {
                    recoveries.push(wall);
                    println!(
                        "Q{q:02}: recovered after {} retr{} ({note}, wall {wall:?} vs {base_wall:?} healthy)",
                        r.retries,
                        if r.retries == 1 { "y" } else { "ies" },
                    );
                } else {
                    println!("Q{q:02}: ok ({note}, wall {wall:?})");
                }
            }
            Err(e) => {
                failed += 1;
                println!("Q{q:02}: FAILED under faults: {e}");
            }
        }
    }

    let down: BTreeSet<_> = cluster.network().down_sites().into_iter().collect();
    if !down.is_empty() {
        println!("-- sites down at the end --");
        for s in down {
            println!("  {s}");
        }
    }
    println!("-- chaos summary --");
    println!(
        "success rate: {ok}/{} ({:.1}%)",
        baseline.len(),
        100.0 * ok as f64 / baseline.len().max(1) as f64
    );
    println!("queries that needed failover: {}", recoveries.len());
    if !recoveries.is_empty() {
        let mean =
            recoveries.iter().sum::<Duration>() / recoveries.len() as u32;
        println!("mean recovery latency (wall time of retried queries): {mean:?}");
    }
    if failed > 0 {
        println!("NOTE: {failed} quer{} failed under the fault schedule — expected when the schedule kills more sites than `backups` can cover", if failed == 1 { "y" } else { "ies" });
    }
}

// ---------------------------------------------------------------------------
// --writes: DML availability under a scripted topology storyline
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PhaseStats {
    name: &'static str,
    attempted: usize,
    acked: usize,
    failed: usize,
    retried_writes: usize,
    retries_total: u32,
    wall: Duration,
    /// Wall time of the first write in this phase that needed failover
    /// retries — the client-visible promotion latency after a kill.
    first_failover_ms: Option<f64>,
    /// `net.replicate.messages` sent during the phase: write replication,
    /// plus any repair copies and retry probes the phase triggered.
    replicate_messages: u64,
}

impl PhaseStats {
    fn availability(&self) -> f64 {
        100.0 * self.acked as f64 / self.attempted.max(1) as f64
    }

    fn messages_per_ack(&self) -> f64 {
        self.replicate_messages as f64 / self.acked.max(1) as f64
    }
}

/// Drive `ops` deterministic single-key writes round-robin over `keys`,
/// maintaining the acked-write shadow. A key the shadow knows is absent
/// gets an INSERT, a known-present key gets an UPDATE (or, every fifth
/// op, a DELETE) — so no statement is ever *expected* to be rejected and
/// every refusal counts against availability. Failed statements taint
/// their key (the partition batch may or may not have committed), which
/// excludes it from the final exact-match verification.
fn run_write_phase(
    cluster: &Cluster,
    name: &'static str,
    keys: &[i64],
    ops: usize,
    seq: &mut u64,
    shadow: &mut BTreeMap<i64, i64>,
    tainted: &mut BTreeSet<i64>,
) -> PhaseStats {
    let mut stats = PhaseStats { name, ..PhaseStats::default() };
    let replicated = MetricsRegistry::global().counter("net.replicate.messages");
    let messages0 = replicated.get();
    let t0 = Instant::now();
    for _ in 0..ops {
        let k = keys[(*seq as usize) % keys.len()];
        let v = *seq as i64;
        let (sql, kind) = if !shadow.contains_key(&k) {
            (format!("INSERT INTO kv (k, v) VALUES ({k}, {v})"), 'i')
        } else if seq.is_multiple_of(5) {
            (format!("DELETE FROM kv WHERE k = {k}"), 'd')
        } else {
            (format!("UPDATE kv SET v = {v} WHERE k = {k}"), 'u')
        };
        *seq += 1;
        stats.attempted += 1;
        let w0 = Instant::now();
        match cluster.dml(&sql) {
            Ok(r) => {
                stats.acked += 1;
                if r.retries > 0 {
                    stats.retried_writes += 1;
                    stats.retries_total += r.retries;
                    if stats.first_failover_ms.is_none() {
                        stats.first_failover_ms = Some(w0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                match kind {
                    'd' => {
                        shadow.remove(&k);
                    }
                    _ => {
                        shadow.insert(k, v);
                    }
                }
            }
            Err(_) => {
                // The statement may have committed some partition batches
                // before failing; the key's state is unknown.
                stats.failed += 1;
                shadow.remove(&k);
                tainted.insert(k);
            }
        }
    }
    stats.wall = t0.elapsed();
    stats.replicate_messages = replicated.get() - messages0;
    println!(
        "phase {name:<12} {:>4} writes: {} acked ({:.1}% available), {} failed over ({} retries), \
{} replication messages ({:.2} per acked write){}",
        stats.attempted,
        stats.acked,
        stats.availability(),
        stats.retried_writes,
        stats.retries_total,
        stats.replicate_messages,
        stats.messages_per_ack(),
        stats
            .first_failover_ms
            .map(|ms| format!(", first failover write {ms:.2} ms"))
            .unwrap_or_default(),
    );
    stats
}

/// Verify every acknowledged write is readable with its last acked value
/// and the cluster is back at full replication factor with converged
/// replicas. Panics on violation — the bench doubles as a chaos gate.
fn verify_writes(
    cluster: &Cluster,
    shadow: &BTreeMap<i64, i64>,
    tainted: &BTreeSet<i64>,
    backups: usize,
) {
    let q = cluster.query("SELECT k, v FROM kv ORDER BY k").expect("final read");
    let actual: BTreeMap<i64, i64> = q
        .rows
        .iter()
        .map(|r| {
            (r.0[0].as_int().expect("bigint key"), r.0[1].as_int().expect("bigint value"))
        })
        .collect();
    for (k, v) in shadow {
        assert_eq!(
            actual.get(k),
            Some(v),
            "acked write lost: key {k} should be {v}, found {:?}",
            actual.get(k)
        );
    }
    for k in actual.keys() {
        assert!(
            shadow.contains_key(k) || tainted.contains(k),
            "resurrected row: key {k} present but never acked / acked deleted"
        );
    }
    let map = cluster.catalog().membership().snapshot();
    let members = map.members().len();
    let wanted = (backups + 1).min(members);
    let id = cluster.catalog().table_by_name("kv").expect("kv exists");
    let data = cluster.catalog().table_data(id).expect("kv data");
    for p in 0..map.num_partitions() {
        let owners = map.owners_of(p).to_vec();
        assert!(
            owners.len() == wanted,
            "partition {p} not at the replication factor after recovery: {} != {wanted} owners",
            owners.len()
        );
        let versions: Vec<u64> =
            owners.iter().map(|&s| data.replica(p, s).map(|st| st.version()).unwrap_or(0)).collect();
        assert!(
            versions.windows(2).all(|w| w[0] == w[1]),
            "partition {p} replicas diverged after recovery: versions {versions:?}"
        );
    }
    println!(
        "verified: {} acked keys readable, {} partitions at {}x replication, replicas converged",
        shadow.len(),
        map.num_partitions(),
        wanted
    );
}

fn writes_mode(smoke: bool) {
    let sites = 4usize;
    let backups = 1usize;
    let (n_keys, phase_ops) = if smoke { (48i64, 90usize) } else { (192i64, 300usize) };
    let cluster = Cluster::new(ClusterConfig {
        sites,
        backups,
        variant: SystemVariant::ICPlus,
        network: calibrated_network(),
        exec_timeout: Some(FULL.timeout),
        ..ClusterConfig::default()
    });
    println!(
        "== chaos --writes{}: {n_keys} keys, {phase_ops} writes/phase, {sites} sites, backups={backups} ==",
        if smoke { " --smoke" } else { "" }
    );
    cluster.run("CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k))").expect("create kv");

    let keys: Vec<i64> = (0..n_keys).collect();
    let mut shadow: BTreeMap<i64, i64> = BTreeMap::new();
    let mut tainted: BTreeSet<i64> = BTreeSet::new();
    let mut seq: u64 = 1;
    for chunk in keys.chunks(16) {
        let values: Vec<String> = chunk.iter().map(|k| format!("({k}, {k})")).collect();
        cluster
            .dml(&format!("INSERT INTO kv (k, v) VALUES {}", values.join(", ")))
            .expect("preload");
        for &k in chunk {
            shadow.insert(k, k);
        }
    }

    let reg = MetricsRegistry::global();
    let promotions0 = reg.counter("core.rebalance.promotions").get();
    let migrations0 = reg.counter("core.rebalance.migrations").get();
    let mut phases: Vec<PhaseStats> = Vec::new();
    let mut events: Vec<(&str, f64)> = Vec::new();

    phases.push(run_write_phase(
        &cluster, "healthy", &keys, phase_ops, &mut seq, &mut shadow, &mut tainted,
    ));

    // Kill a site mid-stream: the kill's repair pass promotes the backups
    // of the partitions it led and re-replicates before the next write.
    let victim = 1usize;
    let t0 = Instant::now();
    cluster.kill_site(victim);
    let kill_ms = t0.elapsed().as_secs_f64() * 1e3;
    let promoted = reg.counter("core.rebalance.promotions").get() - promotions0;
    println!("killed site {victim}: {promoted} primaries promoted in {kill_ms:.2} ms");
    events.push(("kill_repair_ms", kill_ms));
    phases.push(run_write_phase(
        &cluster, "post-kill", &keys, phase_ops, &mut seq, &mut shadow, &mut tainted,
    ));

    // Admit a fresh site: chunked migration runs to completion, then the
    // stream continues against the rebalanced map.
    let newcomer = sites;
    let t0 = Instant::now();
    let migrated = cluster.join_site(newcomer);
    let join_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("joined site {newcomer}: {migrated} replicas migrated in {join_ms:.2} ms");
    events.push(("join_migration_ms", join_ms));
    phases.push(run_write_phase(
        &cluster, "post-join", &keys, phase_ops, &mut seq, &mut shadow, &mut tainted,
    ));

    // Revive the dead site: its stale replicas must resync (or demote)
    // before any read can route to them.
    let t0 = Instant::now();
    cluster.revive_site(victim);
    let revive_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("revived site {victim}: resynced in {revive_ms:.2} ms");
    events.push(("revive_resync_ms", revive_ms));
    phases.push(run_write_phase(
        &cluster, "post-revive", &keys, phase_ops, &mut seq, &mut shadow, &mut tainted,
    ));

    // Retire the newcomer gracefully: the repair pass runs with it
    // departing, handing its copies off, then it leaves membership and
    // keeps no replica behind.
    let t0 = Instant::now();
    let moved = cluster.leave_site(newcomer);
    let leave_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("site {newcomer} left: {moved} replicas moved in {leave_ms:.2} ms");
    let map = cluster.catalog().membership().snapshot();
    assert!(!map.members().contains(&SiteId(newcomer)), "site {newcomer} is still a member after leaving");
    for data in cluster.catalog().hash_tables() {
        for p in 0..map.num_partitions() {
            assert!(data.replica(p, SiteId(newcomer)).is_none(), "departed site {newcomer} holds partition {p}");
        }
    }
    events.push(("leave_handoff_ms", leave_ms));
    phases.push(run_write_phase(
        &cluster, "post-leave", &keys, phase_ops, &mut seq, &mut shadow, &mut tainted,
    ));

    let report = cluster.repair();
    assert!(
        report.lost_partitions.is_empty(),
        "partitions lost under scripted chaos: {:?}",
        report.lost_partitions
    );
    verify_writes(&cluster, &shadow, &tainted, backups);

    println!("-- dml chaos summary --");
    let promotions = reg.counter("core.rebalance.promotions").get() - promotions0;
    let migrations = reg.counter("core.rebalance.migrations").get() - migrations0;
    println!(
        "topology work: {promotions} promotions, {migrations} replica migrations, {} replication messages, {} write conflicts",
        reg.counter("net.replicate.messages").get(),
        reg.counter("storage.write.conflicts").get(),
    );
    for p in &phases {
        assert!(
            p.failed == 0,
            "phase {} refused {} writes — a single scripted kill with backups=1 must stay fully available",
            p.name,
            p.failed
        );
    }
    assert!(promoted > 0, "the kill promoted nothing — it did not exercise promotion");
    assert!(
        phases[1].retried_writes == 0,
        "post-kill phase failed over — the kill's repair pass left a dead primary"
    );

    write_dml_json(smoke, &phases, &events, n_keys, phase_ops, sites, backups);
    println!("dml chaos OK: zero acked-write loss, full replication factor restored");
}

fn write_dml_json(
    reduced: bool,
    phases: &[PhaseStats],
    events: &[(&str, f64)],
    n_keys: i64,
    phase_ops: usize,
    sites: usize,
    backups: usize,
) {
    let phases: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"attempted\": {}, \"acked\": {}, \"failed\": {}, \
\"availability_pct\": {:.2}, \"failover_writes\": {}, \"retries\": {}, \"wall_ms\": {:.2}, \
\"replicate_messages\": {}, \"replicate_messages_per_ack\": {:.3}{}}}",
                p.name,
                p.attempted,
                p.acked,
                p.failed,
                p.availability(),
                p.retried_writes,
                p.retries_total,
                p.wall.as_secs_f64() * 1e3,
                p.replicate_messages,
                p.messages_per_ack(),
                p.first_failover_ms
                    .map(|ms| format!(", \"first_failover_ms\": {ms:.3}"))
                    .unwrap_or_default(),
            )
        })
        .collect();
    let events: Vec<String> = events.iter().map(|(name, ms)| format!("\"{name}\": {ms:.3}")).collect();
    let counters: Vec<String> = [
        ("promotions", "core.rebalance.promotions"),
        ("migrations", "core.rebalance.migrations"),
        ("migration_chunks", "core.rebalance.chunks"),
        ("replicate_messages", "net.replicate.messages"),
        ("replicate_bytes", "net.replicate.bytes"),
        ("replicate_failures", "net.replicate.failures"),
        ("write_rows", "storage.write.rows"),
        ("write_batches", "storage.write.batches"),
        ("write_conflicts", "storage.write.conflicts"),
    ]
    .iter()
    .map(|(key, metric)| format!("\"{key}\": {}", MetricsRegistry::global().counter(metric).get()))
    .collect();
    let fields = format!(
        "  \"keys\": {n_keys}, \"writes_per_phase\": {phase_ops}, \"sites\": {sites}, \"backups\": {backups},\n  \
\"phases\": [\n{}\n  ],\n  \"events\": {{{}}},\n  \"counters\": {{{}}}\n",
        phases.join(",\n"),
        events.join(", "),
        counters.join(", "),
    );
    let path =
        ic_bench::harness::write_bench_json("dml", reduced, &fields).expect("write BENCH_dml.json");
    println!("wrote {path}");
}
