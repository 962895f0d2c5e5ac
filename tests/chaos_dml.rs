//! Chaos tests for the write path and elastic topology.
//!
//! The acceptance bar for online DML: with `backups = 1` and a seeded fault
//! plan that permanently kills a site **mid-stream of acknowledged writes**,
//!
//! * zero acknowledged writes are lost (promotion picks the
//!   highest-version live replica, which confirmed every ack),
//! * readers never observe a torn multi-row batch (snapshot stores commit
//!   all-or-nothing), and
//! * a repair pass returns every partition to the full replication factor,
//!
//! and the whole scenario replays identically from the same seed.

use ignite_calcite_rs::common::ColumnBatch;
use ignite_calcite_rs::{
    Cluster, ClusterConfig, Datum, FaultPlan, NetworkConfig, Row, SiteId, SystemVariant,
};
use std::collections::BTreeMap;
use std::time::Duration;

const BATCH: i64 = 5;
const BATCHES: i64 = 60;
const SEED: u64 = 4242;
/// Logical tick at which site 2 dies — early enough that most of the write
/// stream happens after it (the mid-stream kill the tentpole demands).
const CRASH_TICK: u64 = 25;

fn dml_cluster() -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        backups: 1,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(30)),
        max_retries: 4,
        ..ClusterConfig::test_default()
    });
    cluster
        .run("CREATE TABLE kv (k BIGINT, v BIGINT, grp BIGINT, PRIMARY KEY (k))")
        .unwrap();
    cluster
}

/// Everything a determinism comparison needs from one scenario run: the
/// acked reference map, the final table contents, and the total failover
/// retries spent.
type ScenarioOutcome = (BTreeMap<i64, i64>, Vec<(i64, i64, i64)>, u32);

/// One full scenario run: stream acknowledged multi-row insert batches while
/// the fault plan kills site 2, interleaving reads.
fn run_scenario() -> ScenarioOutcome {
    let cluster = dml_cluster();
    cluster.install_faults(FaultPlan::new(SEED).crash(SiteId(2), CRASH_TICK));
    let mut acked: BTreeMap<i64, i64> = BTreeMap::new();
    let mut retries = 0u32;
    for batch in 0..BATCHES {
        let values: Vec<String> = (0..BATCH)
            .map(|j| {
                let k = batch * BATCH + j;
                format!("({k}, {}, {batch})", k * 10)
            })
            .collect();
        let sql = format!("INSERT INTO kv (k, v, grp) VALUES {}", values.join(", "));
        let r = cluster.dml(&sql).unwrap_or_else(|e| {
            panic!("write batch {batch} must eventually ack through repair: {e}")
        });
        retries += r.retries;
        for j in 0..BATCH {
            let k = batch * BATCH + j;
            acked.insert(k, k * 10);
        }
        // Interleaved torn-read probe: a batch shares one `grp` value and
        // commits per partition all-or-nothing; since rows of one batch can
        // span partitions, the invariant a reader may rely on is per
        // (grp, partition) atomicity — the aggregate count per grp over the
        // *acked* batches must be exactly BATCH.
        if batch % 10 == 9 {
            let q = cluster
                .query("SELECT grp, count(*) AS c FROM kv GROUP BY grp ORDER BY grp")
                .unwrap();
            for row in &q.rows {
                let c = row.0[1].as_int().unwrap();
                assert_eq!(c, BATCH, "torn batch visible for grp {:?}", row.0[0]);
            }
        }
    }
    // Repair to full replication factor, then verify nothing acked was lost.
    cluster.repair();
    let q = cluster.query("SELECT k, v, grp FROM kv ORDER BY k").unwrap();
    let rows: Vec<(i64, i64, i64)> = q
        .rows
        .iter()
        .map(|r| {
            (
                r.0[0].as_int().unwrap(),
                r.0[1].as_int().unwrap(),
                r.0[2].as_int().unwrap(),
            )
        })
        .collect();
    // Structural invariants before the cluster is dropped.
    let down = cluster.network().down_sites();
    assert!(down.contains(&SiteId(2)), "the seeded crash must have fired");
    let map = cluster.catalog().membership().snapshot();
    let data = cluster
        .catalog()
        .table_data(cluster.catalog().table_by_name("kv").unwrap())
        .unwrap();
    for p in 0..map.num_partitions() {
        let live: Vec<SiteId> =
            map.owners_of(p).iter().copied().filter(|s| !down.contains(s)).collect();
        assert!(
            live.len() >= 2,
            "partition {p} not back to full replication factor: {:?}",
            map.owners_of(p)
        );
        assert!(
            !down.contains(&map.primary_of(p)),
            "partition {p} primary still dead after repair"
        );
        // Every live replica converged to the same store.
        let stores: Vec<_> = live.iter().map(|&s| data.replica(p, s).unwrap()).collect();
        for s in &stores[1..] {
            assert_eq!(s.version(), stores[0].version(), "partition {p} replica version skew");
            assert_eq!(s.num_rows(), stores[0].num_rows(), "partition {p} replica row skew");
        }
    }
    (acked, rows, retries)
}

#[test]
fn killing_a_site_mid_stream_loses_no_acknowledged_write() {
    let (acked, rows, retries) = run_scenario();
    assert_eq!(acked.len() as i64, BATCH * BATCHES);
    assert_eq!(rows.len(), acked.len(), "acked rows lost or duplicated");
    for (k, v, _grp) in &rows {
        assert_eq!(acked.get(k), Some(v), "acked write k={k} corrupted");
    }
    assert!(retries >= 1, "the crash should have forced at least one failover retry");
}

/// The same seed replays the identical scenario: same acked set, same final
/// table contents, same retry spend.
#[test]
fn chaos_write_scenario_is_deterministic() {
    let a = run_scenario();
    let b = run_scenario();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// Concurrent snapshot readers during a live write stream never see a torn
/// batch inside one partition: a store snapshot holds, of every multi-row
/// statement, either all the rows that route to its partition or none of
/// them — including the commits that top up the tail chunk *and* open a new
/// one. The reader runs flat out while the writer streams; a hand-shake per
/// statement guarantees reader passes between (and overlapping) the writes
/// without depending on how the threads happen to be scheduled.
#[test]
fn readers_see_whole_batches_only() {
    // Large enough that every partition receives several rows per statement
    // and outgrows its first chunk mid-stream.
    const ROWS_PER_STMT: i64 = 60;
    const STMTS: i64 = 80;
    let cluster = dml_cluster();
    let catalog = cluster.catalog().clone();
    let id = catalog.table_by_name("kv").unwrap();
    let data = catalog.table_data(id).unwrap();
    // expected[p][stmt]: how many of the statement's rows land in partition p.
    let map = catalog.membership().snapshot();
    let mut expected = vec![vec![0usize; STMTS as usize]; data.num_partitions()];
    for stmt in 0..STMTS {
        let keys: Vec<Row> =
            (0..ROWS_PER_STMT).map(|j| Row(vec![Datum::Int(stmt * ROWS_PER_STMT + j)])).collect();
        for hash in ColumnBatch::from_rows(&keys).hash_keys(&[0]) {
            expected[map.partition_of_hash(hash)][stmt as usize] += 1;
        }
    }
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (pass_done, passes) = std::sync::mpsc::channel::<()>();
    let reader = {
        let data = data.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                for (p, expected) in expected.iter().enumerate() {
                    let store = data.store(p);
                    let mut seen = vec![0usize; STMTS as usize];
                    for row in store.chunks().iter().flat_map(|c| c.to_rows()) {
                        seen[row.0[2].as_int().unwrap() as usize] += 1;
                    }
                    for (stmt, &n) in seen.iter().enumerate() {
                        assert!(
                            n == 0 || n == expected[stmt],
                            "partition {p} v{} holds {n} of statement {stmt}'s {} rows: torn read",
                            store.version(),
                            expected[stmt]
                        );
                    }
                    assert!(store.chunks().iter().all(|c| c.selection().is_none()));
                    observed += 1;
                }
                // The writer may already be gone; that is not an error.
                let _ = pass_done.send(());
            }
            observed
        })
    };
    for stmt in 0..STMTS {
        let values: Vec<String> = (0..ROWS_PER_STMT)
            .map(|j| format!("({}, {j}, {stmt})", stmt * ROWS_PER_STMT + j))
            .collect();
        cluster
            .dml(&format!("INSERT INTO kv (k, v, grp) VALUES {}", values.join(", ")))
            .unwrap();
        // Two fresh pass completions: the second pass began after this
        // statement committed, so every statement is read back at least
        // once before the next one lands.
        while passes.try_recv().is_ok() {}
        for _ in 0..2 {
            passes.recv().expect("reader thread died: a snapshot was torn");
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let observed = reader.join().unwrap();
    assert!(observed >= 2 * STMTS as u64);
    assert_eq!(
        cluster.query("SELECT count(*) FROM kv").unwrap().rows[0].0[0],
        Datum::Int(STMTS * ROWS_PER_STMT)
    );
}
