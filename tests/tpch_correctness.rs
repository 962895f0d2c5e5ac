//! End-to-end TPC-H correctness: every runnable query executes on all
//! three system variants and produces identical results; selected queries
//! are verified against brute-force computations over the generated rows.

use ignite_calcite_rs::benchdata::{ssb, tpch, TableData};
use ignite_calcite_rs::plan::explain::explain_physical;
use ignite_calcite_rs::plan::ops::{JoinKind, PhysOp, PhysPlan};
use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, IcError, Row, SystemVariant};
use std::sync::Arc;
use std::time::Duration;

const SF: f64 = 0.002;

/// Execution limit of every cluster whose queries must all complete.
const GENEROUS: Duration = Duration::from_secs(60);

/// An IC cluster over the given schema and data, analyzed, whose queries
/// (and those of the variants derived from it) may run for `exec_timeout`.
fn loaded(ddl: &[&[&str]], tables: Vec<TableData>, exec_timeout: Duration) -> Cluster {
    let base = Cluster::new(ClusterConfig {
        sites: 4,
        variant: SystemVariant::IC,
        network: ignite_calcite_rs::NetworkConfig::instant(),
        exec_timeout: Some(exec_timeout),
        planner_budget: None,
        memory_limit_rows: 20_000_000,
        ..ClusterConfig::default()
    });
    for stmt in ddl.iter().copied().flatten() {
        base.run(stmt).unwrap();
    }
    for t in tables {
        base.insert(t.name, t.rows).unwrap();
    }
    base.analyze_all().unwrap();
    base
}

fn clusters() -> (Cluster, Cluster, Cluster) {
    let base = loaded(&[tpch::DDL, tpch::INDEX_DDL], tpch::generate(SF, 42), GENEROUS);
    let plus = base.with_variant(SystemVariant::ICPlus);
    let plus_m = base.with_variant(SystemVariant::ICPlusM);
    (base, plus, plus_m)
}

/// Sort rows deterministically (doubles at full precision), then compare
/// pairwise with a relative tolerance on doubles — different plans
/// accumulate floating-point sums in different orders, and fixed-decimal
/// string rounding can flip on exact half-way values.
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

/// What the baseline cannot finish at this scale, by how it fails. The three
/// memory-limit failures are the plans' doing — the unoptimized joins buffer
/// more than the 20 M-cell budget whatever the host — and are asserted; Q2 is
/// the one query whose baseline plan is merely too slow (it sits out any
/// limit up to the 60 s the other clusters get), so it is named, and on a
/// host fast enough to finish it the result is compared like any other.
const IC_OVER_BUDGET: [usize; 3] = [17, 18, 21];
const IC_TOO_SLOW: usize = 2;
/// The baseline leg's execution limit: every IC query that completes does so
/// within 0.6 s on the 2-core reference host.
const IC_LIMIT: Duration = Duration::from_secs(5);

/// All 21 runnable queries agree between IC+ and IC+M, and with IC on the 17
/// its plans can finish. Q20, which the paper's sweeps leave out, runs here
/// and is checked like the rest; only Q15 (views, [`q15_views_unsupported`])
/// is skipped.
#[test]
fn variants_agree_on_all_queries() {
    let (_, plus, plus_m) = clusters();
    let ic = loaded(&[tpch::DDL, tpch::INDEX_DDL], tpch::generate(SF, 42), IC_LIMIT);
    for q in (1..=22).filter(|&q| q != 15) {
        let sql = tpch::query(q);
        let a = plus.query(&sql).unwrap_or_else(|e| panic!("IC+ Q{q}: {e}"));
        let b = plus_m.query(&sql).unwrap_or_else(|e| panic!("IC+M Q{q}: {e}"));
        assert_rows_close(&a.rows, &b.rows, &format!("Q{q}: IC+ vs IC+M"));
        match ic.query(&sql) {
            Err(e) if IC_OVER_BUDGET.contains(&q) => {
                assert!(matches!(e, IcError::MemoryLimit { .. }), "IC Q{q}: {e}")
            }
            Err(e) if q == IC_TOO_SLOW => {
                assert!(matches!(e, IcError::ExecTimeout { .. }), "IC Q{q}: {e}")
            }
            Err(e) => panic!("IC Q{q}: {e}"),
            Ok(_) if IC_OVER_BUDGET.contains(&q) => panic!("IC Q{q} fit its memory budget"),
            Ok(c) => assert_rows_close(&a.rows, &c.rows, &format!("Q{q}: IC+ vs IC")),
        }
    }
}

/// Q15 fails with Unsupported on every variant — the paper's finding that
/// Ignite+Calcite does not support SQL views.
#[test]
fn q15_views_unsupported() {
    let (ic, plus, _) = clusters();
    for cluster in [&ic, &plus] {
        let err = cluster.query(&tpch::query(15)).unwrap_err();
        assert!(matches!(err, ignite_calcite_rs::IcError::Unsupported(_)), "{err}");
    }
}

/// Q6 (pure scan-filter-aggregate) verified against a brute-force
/// computation over the generated lineitem rows.
#[test]
fn q6_matches_brute_force() {
    let (_, plus, _) = clusters();
    let data = tpch::generate(SF, 42);
    let lineitem = &data.iter().find(|t| t.name == "lineitem").unwrap().rows;
    let lo = ignite_calcite_rs::common::dates::to_epoch_days(1994, 1, 1);
    let hi = ignite_calcite_rs::common::dates::to_epoch_days(1995, 1, 1);
    let mut expected = 0.0f64;
    for r in lineitem {
        let shipdate = match r.0[10] {
            Datum::Date(d) => d,
            _ => unreachable!(),
        };
        let qty = r.0[4].as_double().unwrap();
        let price = r.0[5].as_double().unwrap();
        let disc = r.0[6].as_double().unwrap();
        // Bounds computed with the same f64 arithmetic the query uses
        // (0.06 - 0.01 and 0.06 + 0.01 are not exactly 0.05/0.07).
        let (lo_d, hi_d) = (0.06 - 0.01, 0.06 + 0.01);
        if shipdate >= lo && shipdate < hi && disc >= lo_d && disc <= hi_d && qty < 24.0 {
            expected += price * disc;
        }
    }
    let got = plus.query(&tpch::query(6)).unwrap();
    assert_eq!(got.rows.len(), 1);
    let v = got.rows[0].0[0].as_double().unwrap_or(0.0);
    assert!(
        (v - expected).abs() < 0.01 * expected.abs().max(1.0),
        "Q6: got {v}, expected {expected}"
    );
}

/// Q1's grouped sums verified against brute force.
#[test]
fn q1_matches_brute_force() {
    let (_, plus, _) = clusters();
    let data = tpch::generate(SF, 42);
    let lineitem = &data.iter().find(|t| t.name == "lineitem").unwrap().rows;
    let cutoff = ignite_calcite_rs::common::dates::to_epoch_days(1998, 12, 1) - 90;
    let mut groups: std::collections::BTreeMap<(String, String), (f64, i64)> =
        std::collections::BTreeMap::new();
    for r in lineitem {
        let shipdate = match r.0[10] {
            Datum::Date(d) => d,
            _ => unreachable!(),
        };
        if shipdate <= cutoff {
            let key = (
                r.0[8].as_str().unwrap().to_string(),
                r.0[9].as_str().unwrap().to_string(),
            );
            let e = groups.entry(key).or_insert((0.0, 0));
            e.0 += r.0[4].as_double().unwrap(); // sum(l_quantity)
            e.1 += 1; // count(*)
        }
    }
    let got = plus.query(&tpch::query(1)).unwrap();
    assert_eq!(got.rows.len(), groups.len(), "group count");
    for row in &got.rows {
        let key = (
            row.0[0].as_str().unwrap().to_string(),
            row.0[1].as_str().unwrap().to_string(),
        );
        let (sum_qty, count) = groups[&key];
        assert!((row.0[2].as_double().unwrap() - sum_qty).abs() < 1e-6, "{key:?} sum_qty");
        assert_eq!(row.0[9].as_int().unwrap(), count, "{key:?} count");
    }
}

/// ORDER BY + LIMIT results are correctly ordered.
#[test]
fn ordering_respected() {
    let (_, plus, plus_m) = clusters();
    for cluster in [&plus, &plus_m] {
        let r = cluster.query(&tpch::query(3)).unwrap();
        assert!(r.rows.len() <= 10);
        // revenue desc, o_orderdate asc
        for w in r.rows.windows(2) {
            let (a, b) = (
                w[0].0[1].as_double().unwrap(),
                w[1].0[1].as_double().unwrap(),
            );
            assert!(a >= b - 1e-9, "Q3 revenue ordering: {a} then {b}");
        }
    }
}

/// The multithreaded variant spawns more execution threads for eligible
/// plans.
#[test]
fn multithreading_uses_more_threads() {
    let (_, plus, plus_m) = clusters();
    let sql = tpch::query(1);
    let a = plus.query(&sql).unwrap();
    let b = plus_m.query(&sql).unwrap();
    assert!(
        b.stats.threads > a.stats.threads,
        "IC+M should use more threads ({} vs {})",
        b.stats.threads,
        a.stats.threads
    );
}

/// `EXPLAIN` and `EXPLAIN ANALYZE` through `query()` and `Cluster::explain`
/// share one planner call and one renderer: the same text from the two
/// EXPLAINs, and the same operators, line for line, under ANALYZE's actuals
/// (below its one header line saying where the plan came from).
#[test]
fn explain_paths_agree_on_plan_shape() {
    let (_, plus, _) = clusters();
    let sql = tpch::query(3); // customer ⋈ orders ⋈ lineitem
    let plan_lines = |statement: String| -> Vec<String> {
        let reply = plus.query(&statement).unwrap();
        assert_eq!(reply.columns, ["plan"]);
        reply.rows.iter().map(|r| r.0[0].as_str().unwrap().to_string()).collect()
    };
    let explained = plan_lines(format!("EXPLAIN {sql}"));
    let mut analyzed = plan_lines(format!("EXPLAIN ANALYZE {sql}"));
    assert_eq!(analyzed.remove(0), "plan: cached", "the EXPLAIN above planned this shape");
    assert_eq!(plus.explain(&sql).unwrap().lines().collect::<Vec<_>>(), explained);
    // Indentation + operator, distribution, width.
    let shape = |line: &String| {
        let (head, rest) = line.split_once(" (dist=").expect("a plan line");
        let dist = rest.split(", sort=").next().unwrap().split(", width=").next().unwrap();
        let width = rest.split_once("width=").unwrap().1.split(',').next().unwrap();
        (head.to_string(), dist.to_string(), width.to_string())
    };
    assert!(explained.iter().filter(|l| l.contains("Join")).count() >= 2, "{explained:?}");
    assert_eq!(
        explained.iter().map(shape).collect::<Vec<_>>(),
        analyzed.iter().map(shape).collect::<Vec<_>>()
    );
}

/// The plan `cluster` would execute for `sql` with the binder's output
/// names, or `None` when the variant's planner budget runs out (the IC
/// failures of the paper).
fn plan_of(cluster: &Cluster, sql: &str) -> Option<(Arc<PhysPlan>, Vec<String>)> {
    let ic_sql::ast::Statement::Query(ast) = ic_sql::parse_sql(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    let bound = ic_sql::bind_statement(&ast, cluster.catalog()).unwrap();
    let flags = cluster.variant().flags();
    match ic_opt::optimize_query(bound.plan, cluster.catalog(), &flags) {
        Ok(optimized) => Some((optimized.plan, bound.output_names)),
        Err(IcError::PlannerBudgetExceeded { .. }) => None,
        Err(e) => panic!("{sql}: {e}"),
    }
}

fn collect<'a>(
    plan: &'a PhysPlan,
    pred: &impl Fn(&PhysPlan) -> bool,
    out: &mut Vec<&'a PhysPlan>,
) {
    if pred(plan) {
        out.push(plan);
    }
    for child in plan.children() {
        collect(child, pred, out);
    }
}

/// Field trimming over the whole suite: every TPC-H and SSB query that
/// plans, on every variant, yields a valid plan in which no join, sort or
/// exchange input carries a column nothing reads, with the binder's output
/// columns. On IC+ the two widest offenders are pinned by arity.
#[test]
fn optimized_plans_carry_no_dead_columns() {
    const PLAN_SF: f64 = 0.01;
    let tpch_base = loaded(&[tpch::DDL, tpch::INDEX_DDL], tpch::generate(PLAN_SF, 42), GENEROUS);
    let ssb_base = loaded(&[ssb::DDL, ssb::INDEX_DDL], ssb::generate(PLAN_SF, 42), GENEROUS);
    let tpch_queries: Vec<(String, String)> = (1..=22)
        .filter(|q| !tpch::EXCLUDED_UNSUPPORTED.contains(q))
        .map(|q| (format!("Q{q}"), tpch::query(q)))
        .collect();
    let ssb_queries: Vec<(String, String)> =
        ssb::QUERIES.iter().map(|(id, sql)| (format!("SSB {id}"), sql.to_string())).collect();
    for (base, queries) in [(&tpch_base, &tpch_queries), (&ssb_base, &ssb_queries)] {
        for variant in SystemVariant::all() {
            let cluster = base.with_variant(variant);
            let mut planned = 0;
            for (id, sql) in queries {
                let Some((plan, names)) = plan_of(&cluster, sql) else { continue };
                planned += 1;
                let label = format!("{id} on {}", variant.label());
                let explain = explain_physical(&plan);
                assert_eq!(plan.validate(), Ok(()), "{label}\n{explain}");
                assert_eq!(plan.carried_dead_columns(), 0, "{label}\n{explain}");
                let out: Vec<&str> = plan.schema.fields().iter().map(|f| f.name.as_str()).collect();
                assert_eq!(out, names, "{label}\n{explain}");
            }
            if variant != SystemVariant::IC {
                assert_eq!(planned, queries.len(), "{} plans everything", variant.label());
            }
        }
    }

    // Q9 broadcasts `partsupp` for three of its five columns.
    let plus = tpch_base.with_variant(SystemVariant::ICPlus);
    let (q9, _) = plan_of(&plus, &tpch::query(9)).unwrap();
    let over_partsupp = |node: &PhysPlan| {
        let mut scans = Vec::new();
        collect(node, &|n| n.children().is_empty(), &mut scans);
        matches!(node.op, PhysOp::Exchange { .. })
            && scans.len() == 1
            && scans[0].label().contains("partsupp")
    };
    let mut shipped = Vec::new();
    collect(&q9, &over_partsupp, &mut shipped);
    let widths: Vec<usize> = shipped.iter().map(|ex| ex.schema.arity()).collect();
    assert_eq!(widths, [3], "{}", explain_physical(&q9));

    // Q21's EXISTS and NOT EXISTS build on `l_orderkey` and the residual's
    // `l_suppkey`, not on all sixteen `lineitem` columns.
    let (q21, _) = plan_of(&plus, &tpch::query(21)).unwrap();
    let mut builds = Vec::new();
    let filtering = |n: &PhysPlan| {
        matches!(n.op, PhysOp::HashJoin { kind: JoinKind::Semi | JoinKind::Anti, .. })
    };
    collect(&q21, &filtering, &mut builds);
    let widths: Vec<usize> = builds.iter().map(|j| j.children()[1].schema.arity()).collect();
    assert_eq!(widths, [2, 2], "{}", explain_physical(&q21));
}
