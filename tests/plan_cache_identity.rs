//! One template serves every parameter draw of a statement shape, and it
//! is the plan the statement would have got by itself: for each of the 20
//! runnable TPC-H queries under the AQL protocol's randomized substitution
//! parameters, and for the benchmark's 7 SSB statements, `EXPLAIN` through
//! one warm cluster (lift → cached template → bind) is byte-identical to
//! the statement planned cold with its literals in place
//! (`ic_opt::optimize_query`), on IC+ and IC+M.
//!
//! `EXPLAIN` text carries operators, traits, widths, estimates and costs
//! but no expressions, so the bound plan is also compared whole — every
//! predicate, projection and aggregate argument — through its `Debug` form.

use ignite_calcite_rs::benchdata::{ssb, tpch, TableData};
use ignite_calcite_rs::plan::explain::explain_physical;
use ignite_calcite_rs::plan::ops::PhysPlan;
use ignite_calcite_rs::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SF: f64 = 0.002;
/// Randomized draws per TPC-H query, after its validation-parameter text.
const DRAWS: usize = 25;

fn loaded(ddl: &[&[&str]], tables: Vec<TableData>) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
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

/// `sql` planned by itself, and planned as the cache does it — its shape
/// planned, its literals bound back — without a cache in between.
fn cold_and_templated(cluster: &Cluster, sql: &str) -> (Arc<PhysPlan>, Arc<PhysPlan>) {
    let ic_sql::ast::Statement::Query(ast) = ic_sql::parse_sql(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    let bound = ic_sql::bind_statement(&ast, cluster.catalog()).unwrap();
    let flags = cluster.variant().flags();
    let plan = |logical| ic_opt::optimize_query(logical, cluster.catalog(), &flags).unwrap().plan;
    let lifted = ic_opt::params::lift(&bound.plan);
    let template = plan(lifted.shape);
    (plan(bound.plan), ic_opt::params::bind(&template, &lifted.params))
}

/// `EXPLAIN` of every statement through `cluster`'s cache equals its cold
/// plan; returns how many statements were explained.
fn assert_identity(cluster: &Cluster, statements: &[(String, String)]) -> u64 {
    for (label, sql) in statements {
        let label = format!("{label} on {}", cluster.variant().label());
        let (cold, templated) = cold_and_templated(cluster, sql);
        assert!(!templated.has_param(), "{label}: a parameter survived the bind");
        assert_eq!(format!("{templated:?}"), format!("{cold:?}"), "{label}\n{sql}");
        assert_eq!(cluster.explain(sql).unwrap(), explain_physical(&cold), "{label}\n{sql}");
    }
    statements.len() as u64
}

#[test]
fn tpch_parameter_draws_share_their_cold_plan() {
    let base = loaded(&[tpch::DDL, tpch::INDEX_DDL], tpch::generate(SF, 42));
    let mut rng = StdRng::seed_from_u64(7);
    let mut statements = Vec::new();
    for q in (1..=22).filter(|q| !tpch::EXCLUDED_UNSUPPORTED.contains(q)) {
        statements.push((format!("Q{q}"), tpch::query(q)));
        for draw in 0..DRAWS {
            statements.push((format!("Q{q} draw {draw}"), tpch::query_randomized(q, &mut rng)));
        }
    }
    for variant in [SystemVariant::ICPlus, SystemVariant::ICPlusM] {
        let cluster = base.with_variant(variant);
        let explained = assert_identity(&cluster, &statements);
        // The draws really went through templates: 20 shapes, plus the
        // draws whose parameters happened to collide, for 520 statements.
        let stats = cluster.plan_cache_stats();
        assert_eq!((stats.hits + stats.misses, stats.stale), (explained, 0), "{stats:?}");
        assert!((20..60).contains(&stats.misses), "{stats:?}");
        assert_eq!(stats.shapes as u64, stats.misses);
    }
}

#[test]
fn ssb_statements_share_their_cold_plan() {
    let base = loaded(&[ssb::DDL, ssb::INDEX_DDL], ssb::generate(SF, 42));
    let statements: Vec<(String, String)> = ssb::QUERIES
        .iter()
        .filter(|(id, _)| id.starts_with("Q1") || id.starts_with("Q3"))
        .map(|(id, sql)| (id.to_string(), sql.to_string()))
        .collect();
    assert_eq!(statements.len(), 7);
    for variant in [SystemVariant::ICPlus, SystemVariant::ICPlusM] {
        let cluster = base.with_variant(variant);
        // Twice: planned, then served.
        assert_identity(&cluster, &statements);
        assert_identity(&cluster, &statements);
        let stats = cluster.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (7, 7, 0));
    }
}
