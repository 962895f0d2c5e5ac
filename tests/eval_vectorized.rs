//! The benchmark's 27 statements — the 20 TPC-H and 7 SSB (QS1 + QS3)
//! queries — on a 4-site IC+ cluster match a 1-site oracle over the same
//! data. The evaluator has no per-row path left to guard: the binder
//! coerced every expression, so each runs through a typed kernel.

use ignite_calcite_rs::benchdata::{ssb, tpch, TableData};
use ic_fuzz::oracle::compare_rows;
use ignite_calcite_rs::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};

const SF: f64 = 0.01;

fn loaded(sites: usize, ddl: &[&[&str]], tables: Vec<TableData>) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        ..ClusterConfig::default()
    });
    for stmt in ddl.iter().copied().flatten() {
        cluster.run(stmt).unwrap();
    }
    for t in tables {
        cluster.insert(t.name, t.rows).unwrap();
    }
    cluster.analyze_all().unwrap();
    cluster
}

/// Run `queries` on a 4-site IC+ cluster and on the 1-site oracle over
/// the same data; returns how many ran.
fn check(ddl: &[&[&str]], tables: fn() -> Vec<TableData>, queries: Vec<(String, String)>) -> usize {
    let (cluster, oracle) = (loaded(4, ddl, tables()), loaded(1, ddl, tables()));
    for (label, sql) in &queries {
        let got = cluster.query(sql).unwrap_or_else(|e| panic!("{label}: {e}"));
        let want = oracle.query(sql).unwrap_or_else(|e| panic!("{label} (oracle): {e}"));
        // Unordered multisets, 1e-6 relative tolerance on doubles.
        compare_rows(&want.rows, &got.rows).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    queries.len()
}

#[test]
fn benchmark_statements_stay_vectorized() {
    let tpch_queries = (1..=22)
        .filter(|q| !tpch::EXCLUDED_UNSUPPORTED.contains(q))
        .map(|q| (format!("TPC-H Q{q}"), tpch::query(q)))
        .collect();
    let ssb_queries = ssb::QUERIES
        .iter()
        .filter(|(id, _)| id.starts_with("Q1") || id.starts_with("Q3"))
        .map(|(id, sql)| (format!("SSB {id}"), sql.to_string()))
        .collect();
    let statements = check(&[tpch::DDL, tpch::INDEX_DDL], || tpch::generate(SF, 42), tpch_queries)
        + check(&[ssb::DDL, ssb::INDEX_DDL], || ssb::generate(SF, 42), ssb_queries);
    assert_eq!(statements, 27);
}
