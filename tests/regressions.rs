//! Replay every minimized fuzz reproducer under `tests/regressions/`.
//!
//! Each `.fix` file is a self-contained scenario — schema, cluster shape,
//! fault schedule, SQL — distilled from a differential-fuzzing failure
//! (see `crates/fuzz`). Replaying them through the full oracle battery on
//! every `cargo test` keeps fixed bugs fixed; a red fixture prints its
//! governing seed and path so `ic-fuzz --replay-fixture` reproduces it
//! standalone.

use ic_fuzz::{Env, Fixture};
use std::path::PathBuf;

#[test]
fn all_regression_fixtures_replay_green() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| {
            let p = entry.expect("readable dir entry").path();
            (p.extension().is_some_and(|x| x == "fix")).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 2,
        "expected at least 2 regression fixtures in {}, found {}",
        dir.display(),
        paths.len()
    );

    let mut env = Env::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let fixture = Fixture::parse(&text)
            .unwrap_or_else(|e| panic!("bad fixture {}: {e}", path.display()));
        let outcome = fixture
            .replay(&mut env)
            .unwrap_or_else(|e| panic!("fixture {} did not replay: {e}", path.display()));
        if let Some(d) = &outcome.disagreement {
            panic!(
                "regression fixture {} (seed {}) failed — replay with \
                 `cargo run -p ic-fuzz -- --replay-fixture {}`:\n{d}",
                path.display(),
                fixture.seed,
                path.display()
            );
        }
    }
}

/// DML-fuzz regressions: the governing seeds whose minimized streams
/// exposed real write-path bugs, replayed through the write-aware oracle
/// on every `cargo test` so the fixes stay fixed.
///
/// * seed 57 — a retried multi-partition DELETE legally undercounts
///   `rows_affected` (per-partition-batch atomicity); pinned the oracle's
///   retry-aware count semantics.
/// * seed 59 — a DELETE acked while its only surviving copy sat on a
///   site about to die (degraded replication window), then a stale
///   revived replica resurrected the deleted row; fixed by the
///   replication floor (no ack below `min(backups+1, live_members)`
///   confirmed copies) and resync-or-demote at every down→alive
///   transition.
#[test]
fn dml_regression_seeds_replay_green() {
    use ic_fuzz::{run_dml_scenario, DmlScenario};
    for seed in [57u64, 59] {
        let outcome = run_dml_scenario(&DmlScenario::from_seed(seed));
        if let Some(d) = &outcome.disagreement {
            panic!(
                "DML regression seed {seed} failed — replay with \
                 `cargo run -p ic-fuzz -- --dml-replay {seed}`:\n{d}"
            );
        }
    }
}

/// Index scans must see DML. Indexes used to be re-sorted by `ANALYZE`
/// only, so any plan reading through an index (here: a merge join over two
/// primary-key index scans) kept answering from the pre-write rows. Index
/// runs are now keyed to the store version and re-sort on the first scan
/// after a write.
#[test]
fn index_scans_see_updates_and_deletes() {
    use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, NetworkConfig, Row, SystemVariant};
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        ..ClusterConfig::test_default()
    });
    cluster.run("CREATE TABLE t (k BIGINT, v BIGINT, PRIMARY KEY (k))").unwrap();
    cluster.run("CREATE TABLE u (k BIGINT, w BIGINT, PRIMARY KEY (k))").unwrap();
    cluster.run("CREATE INDEX ix_t_pk ON t (k)").unwrap();
    cluster.run("CREATE INDEX ix_u_pk ON u (k)").unwrap();
    let rows = || (0..20_000).map(|i| Row(vec![Datum::Int(i), Datum::Int(i * 10)])).collect();
    cluster.insert("t", rows()).unwrap();
    cluster.insert("u", rows()).unwrap();
    cluster.analyze_all().unwrap();

    let sql = "SELECT sum(t.v), count(*) FROM t, u WHERE t.k = u.k";
    let plan = cluster.explain(sql).unwrap();
    assert!(
        plan.contains("MergeJoin") && plan.matches("IndexScan(").count() == 2,
        "the repro needs an index-backed merge join:\n{plan}"
    );
    let answer = |c: &Cluster| {
        let r = c.query(sql).unwrap();
        (r.rows[0].0[0].as_int().unwrap(), r.rows[0].0[1].as_int().unwrap())
    };
    assert_eq!(answer(&cluster), (1_999_900_000, 20_000));

    cluster.dml("UPDATE t SET v = 0 WHERE k < 10000").unwrap();
    cluster.dml("DELETE FROM u WHERE k >= 15000").unwrap();
    // sum over k in 10000..15000 of 10k; the pre-fix answer was the line above.
    assert_eq!(answer(&cluster), (624_975_000, 15_000));
}
