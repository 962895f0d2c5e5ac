//! The write path's observable semantics, pinned: what an `UPDATE` reads,
//! where an upsert puts a row, which partition a single-key statement is
//! routed to, and the exact chunk layout a bulk load leaves on every
//! replica. Each test drives the engine through SQL or `Cluster::insert` and
//! reads the stores back, so it holds for any internal form of the rows a
//! write carries.

use ic_common::row::BATCH_SIZE;
use ic_common::ColumnBatch;
use ignite_calcite_rs::benchdata::tpch;
use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, NetworkConfig, Row, SiteId, SystemVariant};
use ic_storage::TableDistribution;
use std::sync::Arc;

fn cluster(sites: usize, backups: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        sites,
        backups,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        ..ClusterConfig::test_default()
    })
}

/// A one-site cluster (one partition) holding `t (k, a, b)` keyed on `k`.
fn kab() -> Cluster {
    let c = cluster(1, 0);
    c.run("CREATE TABLE t (k BIGINT, a BIGINT, b BIGINT, PRIMARY KEY (k))").unwrap();
    c
}

/// SQL has no bare `NULL` literal here; a `CASE` without `ELSE` that
/// matches nothing folds to one, typed BIGINT.
const NULL: &str = "CASE WHEN 1 = 0 THEN 1 END";

fn ints(vals: &[Option<i64>]) -> Row {
    Row(vals.iter().map(|v| v.map_or(Datum::Null, Datum::Int)).collect())
}

/// Partition 0 of `table`: its version, and its rows chunk by chunk.
fn partition0(c: &Cluster, table: &str) -> (u64, Vec<Vec<Row>>) {
    let cat = c.catalog();
    let store = cat.table_data(cat.table_by_name(table).unwrap()).unwrap().store(0);
    (store.version(), store.chunks().iter().map(|chunk| chunk.to_rows()).collect())
}

#[test]
fn update_assignments_read_the_pre_image() {
    let c = kab();
    c.dml(&format!("INSERT INTO t VALUES (1, 10, 20), (2, 30, {NULL})")).unwrap();
    c.dml("UPDATE t SET a = b, b = a").unwrap();
    let got = c.query("SELECT k, a, b FROM t ORDER BY k").unwrap().rows;
    assert_eq!(got, vec![ints(&[Some(1), Some(20), Some(10)]), ints(&[Some(2), None, Some(30)])]);
}

#[test]
fn one_insert_repeating_a_key_keeps_its_last_values_at_its_first_position() {
    let c = kab();
    c.dml("INSERT INTO t VALUES (5, 1, 1), (6, 2, 2), (5, 3, 3)").unwrap();
    let (_, chunks) = partition0(&c, "t");
    assert_eq!(chunks, vec![vec![ints(&[Some(5), Some(3), Some(3)]), ints(&[Some(6), Some(2), Some(2)])]]);
}

#[test]
fn upsert_into_a_non_tail_chunk_rewrites_that_chunk_in_place() {
    let c = kab();
    let n = 2 * BATCH_SIZE as i64 + 100;
    c.insert("t", (0..n).map(|k| ints(&[Some(k), Some(k), Some(k)])).collect()).unwrap();
    let cat = c.catalog();
    let data = cat.table_data(cat.table_by_name("t").unwrap()).unwrap();
    let before = data.store(0);
    c.dml("INSERT INTO t VALUES (5, 99, 98)").unwrap();
    let after = data.store(0);
    assert_eq!(after.version(), before.version() + 1);
    let sizes: Vec<usize> = after.chunks().iter().map(|chunk| chunk.num_rows()).collect();
    assert_eq!(sizes, vec![BATCH_SIZE, BATCH_SIZE, 100]);
    assert!(!Arc::ptr_eq(&before.chunks()[0], &after.chunks()[0]), "the hit chunk is rewritten");
    for i in 1..3 {
        assert!(Arc::ptr_eq(&before.chunks()[i], &after.chunks()[i]), "chunk {i} is shared");
    }
    let head = after.chunks()[0].to_rows();
    assert_eq!(head[5], ints(&[Some(5), Some(99), Some(98)]));
    assert_eq!(head[4], ints(&[Some(4), Some(4), Some(4)]));
    assert_eq!(after.num_rows(), n as usize);
}

#[test]
fn a_null_key_upserts_onto_a_stored_null_key() {
    let c = kab();
    c.dml(&format!("INSERT INTO t VALUES ({NULL}, 1, 1), (7, 0, 0)")).unwrap();
    c.dml(&format!("INSERT INTO t VALUES ({NULL}, 2, 2)")).unwrap();
    let (_, chunks) = partition0(&c, "t");
    assert_eq!(chunks, vec![vec![ints(&[None, Some(2), Some(2)]), ints(&[Some(7), Some(0), Some(0)])]]);
}

/// A NaN primary key ties a stored NaN key, as a NULL one does: the key
/// order's tie matches upsert keys, so the second statement replaces the
/// row it wrote first (at the parent it stored a second NaN row).
#[test]
fn a_nan_key_upserts_onto_a_stored_nan_key() {
    let c = cluster(1, 0);
    c.run("CREATE TABLE p (k DOUBLE, w BIGINT, PRIMARY KEY (k))").unwrap();
    // SQL has no NaN literal here: ∞ − ∞, ∞ being 1e309.
    let nan_sql = "(1e309 - 1e309)";
    c.dml(&format!("INSERT INTO p VALUES ({nan_sql}, 1), (1.5, 0)")).unwrap();
    c.dml(&format!("INSERT INTO p VALUES ({nan_sql}, 2)")).unwrap();
    let (_, chunks) = partition0(&c, "p");
    let rows: Vec<String> = chunks.concat().iter().map(|r| format!("{r:?}")).collect();
    let nan = Row(vec![Datum::Double(f64::NAN), Datum::Int(2)]);
    let other = Row(vec![Datum::Double(1.5), Datum::Int(0)]);
    assert_eq!(rows, [format!("{nan:?}"), format!("{other:?}")]);
}

/// Single-key `DELETE` / `UPDATE` route to a fixed partition of a 4-site
/// cluster: the routing hash of the key, which no refactor may move.
#[test]
fn single_key_dml_is_pinned_to_its_partition() {
    let c = cluster(4, 1);
    c.run("CREATE TABLE t (k BIGINT, a BIGINT, b BIGINT, PRIMARY KEY (k))").unwrap();
    let pin = |sql: &str| {
        let stmt = ic_sql::parse_sql(sql).unwrap();
        let bound = ic_sql::bind_dml(&stmt, c.catalog()).unwrap();
        ic_opt::plan_dml(c.catalog(), bound).unwrap().pinned_partition()
    };
    let expected = [(0, 3), (17, 2), (42, 3), (1000, 1), (-5, 1)];
    for (key, partition) in expected {
        assert_eq!(pin(&format!("DELETE FROM t WHERE k = {key}")), Some(partition), "k = {key}");
        let update = format!("UPDATE t SET a = a + 1 WHERE k = {key} AND b > 0");
        assert_eq!(pin(&update), Some(partition), "k = {key}");
    }
    assert_eq!(pin("DELETE FROM t WHERE a = 1"), None);
}

/// A bulk load of TPC-H (SF 0.01, 4 sites, `backups = 1`) leaves every
/// replica of every partition exactly the reference packing: each row's
/// partition from the routing hash of its distribution key, then the
/// partition's rows in input order cut into chunks of `BATCH_SIZE`, at
/// version 1 (one commit per partition per load).
#[test]
fn bulk_load_layout_is_the_reference_packing() {
    let c = cluster(4, 1);
    for stmt in tpch::DDL {
        c.run(stmt).unwrap();
    }
    let cat = c.catalog().clone();
    let map = cat.membership().snapshot();
    for table in tpch::generate(0.01, 42) {
        let id = cat.table_by_name(table.name).unwrap();
        let def = cat.table_def(id).unwrap();
        let data = cat.table_data(id).unwrap();
        let mut expected: Vec<Vec<Row>> = vec![Vec::new(); data.num_partitions()];
        match &def.distribution {
            TableDistribution::Replicated => expected[0] = table.rows.clone(),
            TableDistribution::HashPartitioned { key_cols } => {
                let batch = ColumnBatch::from_typed_rows(&def.schema.types(), &table.rows);
                for (row, hash) in table.rows.iter().zip(batch.hash_keys(key_cols)) {
                    expected[map.partition_of_hash(hash)].push(row.clone());
                }
            }
        }
        c.insert(table.name, table.rows).unwrap();
        for (p, rows) in expected.iter().enumerate() {
            let want: Vec<&[Row]> = rows.chunks(BATCH_SIZE).collect();
            let sites: Vec<SiteId> = data.replica_sites(p);
            assert!(!sites.is_empty());
            for site in sites {
                let store = data.replica(p, site).unwrap();
                let at = format!("{} partition {p} on {site:?}", table.name);
                assert_eq!(store.version(), u64::from(!rows.is_empty()), "{at}");
                let got: Vec<Vec<Row>> = store.chunks().iter().map(|chunk| chunk.to_rows()).collect();
                assert_eq!(got.len(), want.len(), "{at}: chunk count");
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.as_slice(), *w, "{at}: chunk {k}");
                }
            }
        }
    }
}
