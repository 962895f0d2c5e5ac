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

/// A cluster of 4 IC+ sites holding `t (k BIGINT, x DOUBLE, d DATE)`, with
/// `x = k / 4` and `d` = day `100 + k` for `k` in `0..200`.
fn typed_cluster() -> ignite_calcite_rs::Cluster {
    use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, NetworkConfig, Row, SystemVariant};
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        ..ClusterConfig::test_default()
    });
    cluster.run("CREATE TABLE t (k BIGINT, x DOUBLE, d DATE, PRIMARY KEY (k))").unwrap();
    let row = |k: i64| Row(vec![Datum::Int(k), Datum::Double(k as f64 / 4.0), Datum::Date(100 + k as i32)]);
    cluster.insert("t", (0..200).map(row).collect()).unwrap();
    cluster.analyze_all().unwrap();
    cluster
}

/// `date_col ± INTERVAL 'n' DAY` bound to `date_col + n`, which no
/// evaluator rule covered: both the projection and the predicate failed with
/// `Exec("arithmetic on non-numeric 1970-04-11")`. `Date ± Int` is now a
/// typed rule of the binder's lattice and of both evaluation planes.
#[test]
fn date_column_plus_interval_days() {
    use ignite_calcite_rs::Datum;
    let cluster = typed_cluster();
    let r = cluster.query("SELECT d + interval '1' day, d - interval '3' day FROM t WHERE k = 0").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(matches!(r.rows[0].0[..], [Datum::Date(101), Datum::Date(97)]), "{:?}", r.rows);
    // Day 100 + k - 150 >= day 0 keeps k >= 50.
    let r = cluster.query("SELECT count(*) FROM t WHERE d - interval '150' day >= date '1970-01-01'").unwrap();
    assert_eq!(r.rows[0].0[0], Datum::Int(150));
}

/// CASE arms and SUMs come out in the plan's type: an Int ELSE arm beside a
/// DOUBLE THEN arm is widened by the binder, so the column holds Doubles
/// only — it mixed `Int(0)` and `Double(2.5)` — and a SUM over it that
/// never sees the THEN arm is `Double(0.0)` where it was `Int(0)`.
#[test]
fn case_arms_and_sums_keep_the_schema_type() {
    use ignite_calcite_rs::Datum;
    let cluster = typed_cluster();
    let sql = "SELECT k, CASE WHEN k > 1 THEN x ELSE 0 END FROM t WHERE k < 4 ORDER BY k";
    let r = cluster.query(sql).unwrap();
    let col: Vec<&Datum> = r.rows.iter().map(|row| &row.0[1]).collect();
    assert!(
        matches!(col[..], [Datum::Double(a), Datum::Double(b), Datum::Double(c), Datum::Double(d)]
            if [*a, *b, *c, *d] == [0.0, 0.0, 0.5, 0.75]),
        "{col:?}"
    );
    let r = cluster.query("SELECT sum(CASE WHEN x > 1000 THEN x ELSE 0 END) FROM t").unwrap();
    assert!(matches!(r.rows[0].0[0], Datum::Double(s) if s == 0.0), "{:?}", r.rows);
}

/// `ORDER BY` ties the rows whose first key is NULL. The sort's integer
/// encoding put a NULL row's leftover buffer value under its validity bit,
/// and `a + b` keeps `0 + b` in the rows where `a` is NULL, so those rows
/// came out in `b` order (`k` = 8, 18, 16, …, 0) instead of tied on `s` and
/// ordered by `k`.
#[test]
fn order_by_ties_rows_whose_first_key_is_null() {
    use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, NetworkConfig, Row, SystemVariant};
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        ..ClusterConfig::test_default()
    });
    cluster.run("CREATE TABLE n (k BIGINT, a BIGINT, b BIGINT, PRIMARY KEY (k))").unwrap();
    let row = |k: i64| {
        let a = if k % 2 == 0 { Datum::Null } else { Datum::Int(k) };
        Row(vec![Datum::Int(k), a, Datum::Int(100 - k)])
    };
    cluster.insert("n", (0..20).map(row).collect()).unwrap();
    cluster.analyze_all().unwrap();
    let r = cluster.query("SELECT a + b AS s, k FROM n ORDER BY s, k").unwrap();
    let got: Vec<(Datum, Datum)> = r.rows.iter().map(|row| (row.0[0].clone(), row.0[1].clone())).collect();
    let nulls = (0..20).step_by(2).map(|k| (Datum::Null, Datum::Int(k)));
    let hundreds = (1..20).step_by(2).map(|k| (Datum::Int(100), Datum::Int(k)));
    assert_eq!(got, nulls.chain(hundreds).collect::<Vec<_>>());
}
