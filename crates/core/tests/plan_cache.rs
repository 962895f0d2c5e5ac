//! The plan cache never serves a plan the planner would no longer make:
//! one test per invalidation source (`ANALYZE`, DML drift, `CREATE INDEX`),
//! one per way two statements could wrongly share an entry (clusters over
//! one catalog, eviction, two clients missing at once), and the executor's
//! refusal of a template that was never bound.
//!
//! "The plan the planner would make" is always the same oracle: the
//! statement planned cold, literals in place, by the public uncached
//! `ic_opt::optimize_query`.

use ic_common::{Datum, IcError, Row};
use ic_core::{Cluster, ClusterConfig, PlanCacheStats, SystemVariant};
use ic_plan::explain::explain_physical;
use std::sync::{Arc, Barrier};

/// `EXPLAIN` of `sql` planned from scratch under `cluster`'s flags.
fn cold_explain(cluster: &Cluster, sql: &str) -> String {
    let ic_sql::ast::Statement::Query(ast) = ic_sql::parse_sql(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    let bound = ic_sql::bind_statement(&ast, cluster.catalog()).unwrap();
    let flags = cluster.variant().flags();
    explain_physical(&ic_opt::optimize_query(bound.plan, cluster.catalog(), &flags).unwrap().plan)
}

/// The operators of an `EXPLAIN` text without their estimates: what has to
/// change for a plan to count as flipped.
fn operators(explain: &str) -> Vec<String> {
    let line = |l: &str| format!("{} {}", l.split(", rows=").next().unwrap(), l.matches("  ").count());
    explain.lines().map(line).collect()
}

fn ints(range: std::ops::Range<i64>, modulo: i64) -> Vec<Row> {
    range.map(|i| Row(vec![Datum::Int(i), Datum::Int(i % modulo)])).collect()
}

/// `small` (60 rows) and `big` (6000), both partitioned by `id`, joined on
/// the non-key column `k`.
fn two_tables(variant: SystemVariant) -> Cluster {
    let cluster =
        Cluster::new(ClusterConfig { sites: 4, variant, ..ClusterConfig::test_default() });
    cluster.run("CREATE TABLE small (id BIGINT, k BIGINT, PRIMARY KEY (id))").unwrap();
    cluster.run("CREATE TABLE big (id BIGINT, k BIGINT, PRIMARY KEY (id))").unwrap();
    cluster.insert("small", ints(0..60, 60)).unwrap();
    cluster.insert("big", ints(0..6000, 60)).unwrap();
    cluster.analyze_all().unwrap();
    cluster
}

const JOIN: &str = "SELECT count(*) FROM small INNER JOIN big ON small.k = big.k WHERE big.id > 10";

fn delta(after: PlanCacheStats, before: PlanCacheStats) -> (u64, u64, u64) {
    (after.hits - before.hits, after.misses - before.misses, after.stale - before.stale)
}

/// (i) `ANALYZE` after a bulk load: the sides of the join swap sizes, the
/// next `EXPLAIN` is the new plan.
#[test]
fn analyze_after_bulk_load_replans() {
    let cluster = two_tables(SystemVariant::ICPlus);
    let before = cluster.explain(JOIN).unwrap();
    assert_eq!(before, cold_explain(&cluster, JOIN));
    // A bulk load alone leaves the statistics, and so the plan, alone.
    cluster.insert("small", ints(60..120_000, 60)).unwrap();
    let stats = cluster.plan_cache_stats();
    assert_eq!(cluster.explain(JOIN).unwrap(), before);
    assert_eq!(delta(cluster.plan_cache_stats(), stats), (1, 0, 0));
    cluster.analyze_all().unwrap();
    let after = cluster.explain(JOIN).unwrap();
    assert_eq!(delta(cluster.plan_cache_stats(), stats), (1, 0, 1), "the entry went stale");
    assert_eq!(after, cold_explain(&cluster, JOIN));
    assert_ne!(operators(&after), operators(&before), "{before}\n{after}");
    // The replacement is current: served, not planned a third time.
    assert_eq!(cluster.explain(JOIN).unwrap(), after);
    assert_eq!(delta(cluster.plan_cache_stats(), stats), (2, 0, 1));
    assert_eq!(cluster.plan_cache_stats().shapes, 1);
}

/// (ii) The same flip with no `ANALYZE`: a trickle of single-row writes
/// leaves the entry alone, DML that moves the row count by more than an
/// eighth does not.
#[test]
fn dml_drift_replans_and_a_trickle_does_not() {
    let cluster = two_tables(SystemVariant::ICPlus);
    let before = cluster.explain(JOIN).unwrap();
    let stats = cluster.plan_cache_stats();
    for id in 0..5 {
        cluster.dml(&format!("INSERT INTO small (id, k) VALUES ({}, 1)", 1000 + id)).unwrap();
        assert_eq!(cluster.query(JOIN).unwrap().rows.len(), 1);
    }
    assert_eq!(cluster.explain(JOIN).unwrap(), before);
    assert_eq!(delta(cluster.plan_cache_stats(), stats), (6, 0, 0), "65 rows is still 60 to a plan");
    // 60 → 60 000 rows, statement by statement; statistics follow through
    // `note_write` only.
    for chunk in 0..60 {
        let values: Vec<String> =
            (0..1000).map(|i| format!("({}, {})", 10_000 + chunk * 1000 + i, i % 60)).collect();
        cluster.dml(&format!("INSERT INTO small (id, k) VALUES {}", values.join(", "))).unwrap();
    }
    let after = cluster.explain(JOIN).unwrap();
    assert_eq!(after, cold_explain(&cluster, JOIN));
    assert_ne!(operators(&after), operators(&before), "{before}\n{after}");
    assert_eq!(delta(cluster.plan_cache_stats(), stats), (6, 0, 1));
}

/// (iii) `CREATE INDEX` puts a merge join over two index scans within the
/// planner's reach; each index moves its own table's generation.
#[test]
fn create_index_replans() {
    let cluster = two_tables(SystemVariant::ICPlus);
    cluster.insert("small", ints(60..6000, 60)).unwrap();
    cluster.analyze_all().unwrap();
    let sql = "SELECT count(*) FROM small, big WHERE small.id = big.id AND big.k > 5";
    let before = cluster.explain(sql).unwrap();
    assert!(!before.contains("IndexScan"), "{before}");
    for (n, table) in ["small", "big"].into_iter().enumerate() {
        cluster.run(&format!("CREATE INDEX {table}_id ON {table} (id)")).unwrap();
        assert_eq!(cluster.explain(sql).unwrap(), cold_explain(&cluster, sql));
        let stats = cluster.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (0, 1, n as u64 + 1));
    }
    let after = cluster.explain(sql).unwrap();
    assert!(after.contains("MergeJoin") && after.matches("IndexScan(").count() == 2, "{after}");
    // And the cached index plan answers: `big.k > 5` keeps 54 ids in 60.
    assert_eq!(cluster.query(sql).unwrap().rows, [Row(vec![Datum::Int(5400)])]);
}

/// (iv) Clusters sharing a catalog keep their own plans: the paper's Query
/// A on IC and on IC+, interleaved.
#[test]
fn variants_over_one_catalog_do_not_share_plans() {
    let base = Cluster::new(ClusterConfig::test_default());
    base.run("CREATE TABLE employee (id BIGINT, name VARCHAR, dept BIGINT, PRIMARY KEY (id))")
        .unwrap();
    base.run("CREATE TABLE sales (sale_id BIGINT, emp_id BIGINT, amount DOUBLE, PRIMARY KEY (sale_id))")
        .unwrap();
    let employees =
        (0..100).map(|i| Row(vec![Datum::Int(i), Datum::str(format!("e{i}")), Datum::Int(i % 5)]));
    let sales =
        (0..1000).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 100), Datum::Double(i as f64)]));
    base.insert("employee", employees.collect()).unwrap();
    base.insert("sales", sales.collect()).unwrap();
    base.analyze_all().unwrap();
    let query_a = "SELECT * FROM employee INNER JOIN sales ON employee.id = sales.emp_id \
                   WHERE employee.id = 10";
    let (ic, plus) = (base.with_variant(SystemVariant::IC), base.with_variant(SystemVariant::ICPlus));
    for _ in 0..2 {
        for cluster in [&ic, &plus] {
            assert_eq!(cluster.explain(query_a).unwrap(), cold_explain(cluster, query_a));
            assert_eq!(cluster.query(query_a).unwrap().rows.len(), 10);
        }
    }
    assert_ne!(ic.explain(query_a).unwrap(), plus.explain(query_a).unwrap());
    for cluster in [&ic, &plus] {
        let stats = cluster.plan_cache_stats();
        assert_eq!((stats.misses, stats.stale, stats.shapes), (1, 0, 1), "{:?}", cluster.variant());
    }
    assert_eq!(base.plan_cache_stats(), PlanCacheStats::default(), "base planned nothing");
}

/// (v) At the bound the least recently used shape goes, and comes back by
/// being planned again.
#[test]
fn eviction_at_the_bound_replans_the_oldest_shape() {
    let cluster = two_tables(SystemVariant::ICPlus);
    // LIMIT is part of a statement's shape (estimation reads it).
    let shape = |k: usize| format!("SELECT id FROM small ORDER BY id LIMIT {k}");
    let mut shapes = 0;
    while cluster.plan_cache_stats().evictions == 0 {
        shapes += 1;
        assert!(shapes < 100_000, "the cache never filled");
        assert_eq!(cluster.query(&shape(shapes)).unwrap().rows.len(), shapes.min(60));
    }
    // `shapes` is the bound plus one: the last insert pushed the first out.
    let full = cluster.plan_cache_stats();
    assert_eq!((full.shapes, full.misses, full.hits), (shapes - 1, shapes as u64, 0));
    assert_eq!(cluster.query(&shape(shapes)).unwrap().rows.len(), shapes.min(60));
    assert_eq!(cluster.query(&shape(2)).unwrap().rows, [Row(vec![Datum::Int(0)]), Row(vec![Datum::Int(1)])]);
    assert_eq!(delta(cluster.plan_cache_stats(), full), (2, 0, 0), "the newest and the next-oldest stayed");
    assert_eq!(cluster.query(&shape(1)).unwrap().rows, vec![Row(vec![Datum::Int(0)])]);
    let after = cluster.plan_cache_stats();
    assert_eq!(delta(after, full), (2, 1, 0), "the oldest was planned again");
    assert_eq!((after.shapes, after.evictions), (shapes - 1, 2));
}

/// (vi) Two clients submitting one new shape at once: whoever plans, both
/// answer, and the shape has one entry.
#[test]
fn concurrent_misses_leave_one_entry() {
    let cluster = Arc::new(two_tables(SystemVariant::ICPlus));
    let barrier = Arc::new(Barrier::new(2));
    let clients: Vec<_> = [11i64, 5000]
        .into_iter()
        .map(|bound| {
            let (cluster, barrier) = (Arc::clone(&cluster), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let sql = JOIN.replace("> 10", &format!("> {bound}"));
                barrier.wait();
                (bound, cluster.query(&sql).unwrap().rows[0].0[0].as_int().unwrap())
            })
        })
        .collect();
    for client in clients {
        // Every `big` row matches the one `small` row of its `k`.
        let (bound, count) = client.join().unwrap();
        assert_eq!(count, 5999 - bound, "big.id > {bound}");
    }
    let stats = cluster.plan_cache_stats();
    assert_eq!((stats.hits + stats.misses, stats.stale, stats.shapes), (2, 0, 1), "{stats:?}");
    assert!(stats.misses >= 1);
}

/// A template that skipped the bind step does not execute: the executor
/// answers an internal error, which no failover loop retries.
#[test]
fn an_unbound_template_is_refused_by_the_executor() {
    let cluster = two_tables(SystemVariant::ICPlus);
    let ic_sql::ast::Statement::Query(ast) =
        ic_sql::parse_sql("SELECT id FROM big WHERE k = 7").unwrap()
    else {
        panic!("not a query")
    };
    let bound = ic_sql::bind_statement(&ast, cluster.catalog()).unwrap();
    let lifted = ic_opt::params::lift(&bound.plan);
    assert_eq!(lifted.params, vec![Datum::Int(7)]);
    let flags = cluster.variant().flags();
    let template = ic_opt::optimize_query(lifted.shape, cluster.catalog(), &flags).unwrap().plan;
    assert!(template.has_param());
    let run = |plan| {
        let opts = ic_exec::ExecOptions::default();
        ic_exec::execute_plan(plan, cluster.catalog(), cluster.network(), &opts)
    };
    let err = run(&template).unwrap_err();
    assert!(matches!(err, IcError::Internal(_)), "{err}");
    assert!(!err.is_retryable() && !err.is_failover_retryable());
    let (rows, _) = run(&ic_opt::params::bind(&template, &lifted.params)).unwrap();
    assert_eq!(rows.len(), 100);
}
