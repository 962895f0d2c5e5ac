//! Property-based cross-variant equivalence: randomized SQL queries over a
//! synthetic, NULL-heavy schema must produce identical result multisets on
//! IC, IC+ and IC+M — the three variants differ only in plan choice and in
//! IC+M's variant fragments (§5.3), the engine's one intra-site
//! parallelism, never in semantics.

use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, Row, SystemVariant};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// Rows of `t` (`u` keeps two in three): enough that each site's index run
/// of either is several stored chunks, which a seek can skip whole.
const TU_ROWS: i64 = 12_000;

struct Fixture {
    ic: Cluster,
    plus: Cluster,
    plus_m: Cluster,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ic = Cluster::new(ClusterConfig {
            sites: 3,
            variant: SystemVariant::IC,
            network: ignite_calcite_rs::NetworkConfig::instant(),
            exec_timeout: Some(Duration::from_secs(30)),
            planner_budget: None,
        memory_limit_rows: 20_000_000,
            ..ClusterConfig::default()
        });
        ic.run("CREATE TABLE a (a1 BIGINT, a2 BIGINT, a3 DOUBLE, PRIMARY KEY (a1))").unwrap();
        ic.run("CREATE TABLE b (b1 BIGINT, b2 BIGINT, b3 VARCHAR, PRIMARY KEY (b1))").unwrap();
        ic.run("CREATE TABLE c (c1 BIGINT, c2 VARCHAR, PRIMARY KEY (c1)) REPLICATED").unwrap();
        // Replicated: a query over it alone is one root fragment, so a sort
        // or an aggregate sits directly above its scan.
        ic.run("CREATE TABLE d (d1 BIGINT, d2 BIGINT, d3 DOUBLE, PRIMARY KEY (d1)) REPLICATED")
            .unwrap();
        ic.run("CREATE INDEX ix_a2 ON a (a2)").unwrap();
        let a: Vec<Row> = (0..600)
            .map(|i| {
                Row(vec![
                    Datum::Int(i),
                    if i % 13 == 0 { Datum::Null } else { Datum::Int(i % 37) },
                    if i % 11 == 0 { Datum::Null } else { Datum::Double((i % 97) as f64 / 3.0) },
                ])
            })
            .collect();
        let b: Vec<Row> = (0..250)
            .map(|i| {
                Row(vec![
                    Datum::Int(i),
                    Datum::Int(i % 37),
                    Datum::str(format!("tag{}", i % 5)),
                ])
            })
            .collect();
        let c: Vec<Row> =
            (0..37).map(|i| Row(vec![Datum::Int(i), Datum::str(format!("c{}", i % 3))])).collect();
        ic.insert("d", a[..400].to_vec()).unwrap();
        ic.insert("a", a).unwrap();
        ic.insert("b", b).unwrap();
        ic.insert("c", c).unwrap();
        // Co-partitioned, primary-key-indexed pair: every variant joins it
        // as MergeJoin over two IndexScans, so IC+M's splitter strides over
        // stored index runs.
        ic.run("CREATE TABLE t (t1 BIGINT, t2 BIGINT, t3 DOUBLE, PRIMARY KEY (t1))").unwrap();
        ic.run("CREATE TABLE u (u1 BIGINT, u2 BIGINT, u3 VARCHAR, PRIMARY KEY (u1))").unwrap();
        ic.run("CREATE INDEX ix_t1 ON t (t1)").unwrap();
        ic.run("CREATE INDEX ix_u1 ON u (u1)").unwrap();
        let t: Vec<Row> = (0..TU_ROWS)
            .rev()
            .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 37), Datum::Double((i % 97) as f64 / 3.0)]))
            .collect();
        let u: Vec<Row> = (0..TU_ROWS)
            .rev()
            .filter(|i| i % 3 != 0)
            .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 11), Datum::str(format!("tag{}", i % 5))]))
            .collect();
        ic.insert("t", t).unwrap();
        ic.insert("u", u).unwrap();
        ic.analyze_all().unwrap();
        let plus = ic.with_variant(SystemVariant::ICPlus);
        let plus_m = ic.with_variant(SystemVariant::ICPlusM);
        Fixture { ic, plus, plus_m }
    })
}

fn canon(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.0.iter()
                .map(|d| match d {
                    Datum::Double(f) => format!("{f:.4}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

/// Random predicate fragments that are valid over (a ⋈ b).
fn ab_predicate() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..40).prop_map(|v| format!("a.a2 > {v}")),
        (0i64..40).prop_map(|v| format!("b.b2 <= {v}")),
        (0i64..5).prop_map(|v| format!("b.b3 = 'tag{v}'")),
        (0i64..90).prop_map(|v| format!("a.a3 < {v}")),
        Just("a.a3 IS NOT NULL".to_string()),
        Just("a.a2 IS NULL".to_string()),
        (0i64..37).prop_map(|v| format!("(a.a2 = {v} OR b.b2 > 20)")),
    ]
}

/// Random predicate fragments that are valid over (a ⋈ b ⋈ c).
fn predicate() -> impl Strategy<Value = String> {
    prop_oneof![ab_predicate(), Just("c.c2 LIKE 'c1%'".to_string())]
}

/// `sql`'s canonical result on IC, IC+ and IC+M.
fn on_all(f: &Fixture, sql: &str) -> [Vec<String>; 3] {
    [&f.ic, &f.plus, &f.plus_m].map(|c| canon(&c.query(sql).unwrap().rows))
}

fn agg() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("count(*)".to_string()),
        Just("sum(a.a3)".to_string()),
        Just("min(b.b1)".to_string()),
        Just("max(a.a1)".to_string()),
        Just("avg(a.a3)".to_string()),
        Just("count(a.a3)".to_string()),
    ]
}

proptest! {
    // 24 cases by default; `PROPTEST_CASES` raises it for a deep run.
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24),
        .. ProptestConfig::default()
    })]

    /// Scan → filter → project over the partitioned table, and a sort or a
    /// DISTINCT aggregate directly over the replicated table's scan.
    #[test]
    fn equivalence_scan_filter_project(lo in 0i64..300, hi in 300i64..600, shape in 0usize..3) {
        let sql = match shape {
            0 => format!(
                "SELECT a.a1, a.a3 FROM a WHERE a.a1 >= {lo} AND a.a1 < {hi} AND a.a3 IS NOT NULL"
            ),
            1 => format!(
                "SELECT * FROM d WHERE d.d1 >= {lo} AND d.d1 < {hi} AND d.d3 IS NOT NULL ORDER BY d.d2, d.d1"
            ),
            _ => format!("SELECT DISTINCT d.d2 FROM d WHERE d.d1 >= {lo} AND d.d1 < {hi}"),
        };
        let [ic, plus, m] = on_all(fixture(), &sql);
        prop_assert_eq!(&ic, &plus, "IC vs IC+: {}", sql);
        prop_assert_eq!(&plus, &m, "IC+ vs IC+M: {}", sql);
    }

    /// Global (ungrouped) aggregates over a join — the empty-group merge.
    #[test]
    fn equivalence_global_aggregate(a in agg(), preds in proptest::collection::vec(ab_predicate(), 0..2)) {
        let mut sql = format!("SELECT {a} FROM a, b WHERE a.a2 = b.b2");
        for p in &preds {
            sql += &format!(" AND {p}");
        }
        let [ic, plus, m] = on_all(fixture(), &sql);
        prop_assert_eq!(&ic, &plus, "IC vs IC+: {}", sql);
        prop_assert_eq!(&plus, &m, "IC+ vs IC+M: {}", sql);
    }

    /// ORDER BY + LIMIT over the partitioned table (the sort above the
    /// gathering exchange) and over the replicated one (directly above its
    /// scan). The keys are a total order, so even row order must agree.
    #[test]
    fn equivalence_sort_limit(lim in 1usize..40, desc in proptest::bool::ANY, replicated in proptest::bool::ANY) {
        let dir = if desc { "DESC" } else { "ASC" };
        let sql = if replicated {
            format!("SELECT * FROM d WHERE d.d3 IS NOT NULL ORDER BY d.d1 {dir} LIMIT {lim}")
        } else {
            format!("SELECT a.a1, a.a2 FROM a WHERE a.a3 IS NOT NULL ORDER BY a.a1 {dir} LIMIT {lim}")
        };
        let f = fixture();
        let [ic, plus, m] = [&f.ic, &f.plus, &f.plus_m].map(|c| format!("{:?}", c.query(&sql).unwrap().rows));
        prop_assert_eq!(&ic, &plus, "ordered IC vs IC+: {}", sql);
        prop_assert_eq!(&plus, &m, "ordered IC+ vs IC+M: {}", sql);
    }

    /// Join + filter + aggregate queries return identical multisets on all
    /// three variants.
    #[test]
    fn equivalence_grouped(preds in proptest::collection::vec(predicate(), 0..3),
                           a in agg()) {
        let mut sql = format!(
            "SELECT c.c2, {a} FROM a, b, c WHERE a.a2 = b.b2 AND a.a2 = c.c1"
        );
        for p in &preds {
            sql += &format!(" AND {p}");
        }
        sql += " GROUP BY c.c2";
        let f = fixture();
        let r_ic = f.ic.query(&sql).unwrap();
        let r_plus = f.plus.query(&sql).unwrap();
        let r_m = f.plus_m.query(&sql).unwrap();
        prop_assert_eq!(canon(&r_ic.rows), canon(&r_plus.rows), "IC vs IC+: {}", sql);
        prop_assert_eq!(canon(&r_plus.rows), canon(&r_m.rows), "IC+ vs IC+M: {}", sql);
    }

    /// Non-aggregate projections agree too (row multisets).
    #[test]
    fn equivalence_select(preds in proptest::collection::vec(predicate(), 1..3)) {
        let mut sql =
            "SELECT a.a1, b.b1, b.b3 FROM a, b, c WHERE a.a2 = b.b2 AND b.b2 = c.c1".to_string();
        for p in &preds {
            sql += &format!(" AND {p}");
        }
        let f = fixture();
        let r_ic = f.ic.query(&sql).unwrap();
        let r_plus = f.plus.query(&sql).unwrap();
        let r_m = f.plus_m.query(&sql).unwrap();
        prop_assert_eq!(canon(&r_ic.rows), canon(&r_plus.rows), "IC vs IC+: {}", sql);
        prop_assert_eq!(canon(&r_plus.rows), canon(&r_m.rows), "IC+ vs IC+M: {}", sql);
    }

    /// Semi/anti joins from EXISTS / NOT EXISTS agree across variants.
    #[test]
    fn equivalence_exists(v in 0i64..30, negate in proptest::bool::ANY) {
        let not = if negate { "NOT " } else { "" };
        let sql = format!(
            "SELECT a.a1 FROM a WHERE {not}EXISTS \
             (SELECT 1 FROM b WHERE b.b2 = a.a2 AND b.b1 > {v})"
        );
        let f = fixture();
        let r_ic = f.ic.query(&sql).unwrap();
        let r_plus = f.plus.query(&sql).unwrap();
        let r_m = f.plus_m.query(&sql).unwrap();
        prop_assert_eq!(canon(&r_ic.rows), canon(&r_plus.rows), "IC vs IC+: {}", sql);
        prop_assert_eq!(canon(&r_plus.rows), canon(&r_m.rows), "IC+ vs IC+M: {}", sql);
    }

    /// `NestedLoopJoin` — a non-equi `ON`, and the cross join against a
    /// scalar subquery (TPC-H Q11/Q22's shape) — and `SortAggregate` over
    /// an index scan's key prefix (Q18's) agree across variants; every
    /// variant must really plan the operator.
    #[test]
    fn equivalence_nested_loop_join_and_sort_aggregate(
        lo in 50i64..600, hi in 1i64..60, shape in 0usize..3,
    ) {
        let (sql, op) = match shape {
            0 => (format!(
                "SELECT a.a1, b.b1 FROM a LEFT JOIN b ON a.a2 < b.b2 AND b.b1 < {hi} WHERE a.a1 < {lo}"
            ), "NestedLoopJoin[left]"),
            1 => (format!(
                "SELECT a.a1, a.a3 FROM a WHERE a.a1 < {lo} AND a.a3 > (SELECT avg(a3) FROM a)"
            ), "NestedLoopJoin[inner]"),
            _ => (format!(
                "SELECT t1, count(*), sum(t3) FROM t WHERE t2 > {hi} GROUP BY t1 HAVING sum(t3) > 5"
            ), "SortAggregate[Complete]"),
        };
        let f = fixture();
        for c in [&f.ic, &f.plus, &f.plus_m] {
            let plan = c.explain(&sql).unwrap();
            prop_assert!(plan.contains(op), "no {} in the plan of {}:\n{}", op, sql, plan);
        }
        let r_ic = f.ic.query(&sql).unwrap();
        let r_plus = f.plus.query(&sql).unwrap();
        let r_m = f.plus_m.query(&sql).unwrap();
        prop_assert_eq!(canon(&r_ic.rows), canon(&r_plus.rows), "IC vs IC+: {}", sql);
        prop_assert_eq!(canon(&r_plus.rows), canon(&r_m.rows), "IC+ vs IC+M: {}", sql);
    }

    /// Index-backed merge joins agree across variants (IC+M runs them in
    /// variant fragments: the splitter side is a stride over the index run).
    /// With one side cut to a narrow key range the other side seeks across
    /// whole stored chunks: the left (`t`, a duplicator) when `u` is cut,
    /// the right (`u`, the splitter, which must keep its stride) when `t` is.
    #[test]
    fn equivalence_index_merge_join(
        lo in 0i64..37, hi in 0i64..11, key in 0i64..TU_ROWS, shape in 0usize..4,
    ) {
        let sql = match shape {
            0 => format!(
                "SELECT u.u3, count(*), sum(t.t3) FROM t, u \
                 WHERE t.t1 = u.u1 AND t.t2 > {lo} AND u.u2 <= {hi} GROUP BY u.u3"
            ),
            1 => format!(
                "SELECT t.t1, u.u3 FROM t, u WHERE t.t1 = u.u1 AND t.t2 > {lo} AND u.u2 <= {hi}"
            ),
            2 => format!(
                "SELECT t.t1, t.t3, u.u3 FROM t, u \
                 WHERE t.t1 = u.u1 AND u.u1 BETWEEN {key} AND {key} + 40"
            ),
            _ => format!(
                "SELECT t.t1, u.u2, u.u3 FROM t, u \
                 WHERE t.t1 = u.u1 AND t.t1 BETWEEN {key} AND {key} + 40"
            ),
        };
        let f = fixture();
        for c in [&f.ic, &f.plus, &f.plus_m] {
            let plan = c.explain(&sql).unwrap();
            prop_assert!(
                plan.contains("MergeJoin") && plan.matches("IndexScan(").count() == 2,
                "not index-backed:\n{}", plan
            );
        }
        let r_ic = f.ic.query(&sql).unwrap();
        let r_plus = f.plus.query(&sql).unwrap();
        let r_m = f.plus_m.query(&sql).unwrap();
        prop_assert_eq!(canon(&r_ic.rows), canon(&r_plus.rows), "IC vs IC+: {}", sql);
        prop_assert_eq!(canon(&r_plus.rows), canon(&r_m.rows), "IC+ vs IC+M: {}", sql);
    }
}

/// The fuzzer's statement generator over the TPC-H and SSB schemas, for a
/// fixed seed range: on every variant that plans the statement, the plan
/// validates, no join, sort or exchange input carries a column nothing
/// reads, and the rows are the reference evaluator's.
#[test]
fn generated_statements_plan_trimmed_and_match_the_reference() {
    use ic_fuzz::oracle::{classify, compare_limited, ErrorClass};
    use ignite_calcite_rs::IcError;
    let mut env = ic_fuzz::Env::new();
    let mut executed = 0;
    for seed in 0..40 {
        let scenario = ic_fuzz::Scenario::from_seed(seed, &mut env);
        let sql = scenario.sql();
        for variant in SystemVariant::all() {
            let cluster = env.cluster(scenario.schema, scenario.sites, variant);
            let bound = ic_sql::bind_statement(&scenario.query, cluster.catalog())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sql}"));
            let flags = variant.flags();
            let plan = match ic_opt::optimize_query(bound.plan.clone(), cluster.catalog(), &flags) {
                Ok(optimized) => optimized.plan,
                Err(IcError::PlannerBudgetExceeded { .. }) => continue,
                Err(e) => panic!("seed {seed} on {}: {e}\n{sql}", variant.label()),
            };
            let context = || {
                let explain = ignite_calcite_rs::plan::explain::explain_physical(&plan);
                format!("seed {seed} on {}\n{sql}\n{explain}", variant.label())
            };
            assert_eq!(plan.validate(), Ok(()), "{}", context());
            assert_eq!(plan.carried_dead_columns(), 0, "{}", context());
            let reference = match ic_fuzz::reference::eval_plan(&bound.plan, cluster.catalog()) {
                Ok(rows) => rows,
                // A cross product past the reference's row budget.
                Err(IcError::MemoryLimit { .. }) => continue,
                Err(e) => panic!("reference: {e}\n{}", context()),
            };
            match cluster.query(&sql) {
                Ok(result) => {
                    executed += 1;
                    if let Err(diff) = compare_limited(&reference, &result.rows, scenario.query.limit) {
                        panic!("{diff}\n{}", context());
                    }
                }
                // IC's plans can blow the memory or time budget legitimately.
                Err(e) if classify(&e) == ErrorClass::Resource => {}
                Err(e) => panic!("{e}\n{}", context()),
            }
        }
    }
    assert!(executed >= 100, "only {executed} statement × variant pairs were checked");
}
