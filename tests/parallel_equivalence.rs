//! Property-based morsel-parallel vs single-thread equivalence: randomized
//! SQL over a synthetic NULL-heavy schema must produce identical result
//! multisets when every fragment runs as one sequential chain on its
//! driver (`worker_threads = 1`, `morsel_rows = usize::MAX`: a scan that
//! is a single morsel never goes parallel) and with multi-lane pools over
//! tiny morsels (`worker_threads = 3`, `morsel_rows = 128` — every scan splits
//! into several morsels per site, so lanes, the shared morsel queue, shared-table
//! probes, per-lane partial aggregates and the sorted-run merge all
//! actually engage). Filters run ahead of joins/aggregates in these plans,
//! so the parallel operators see batches carrying selection vectors, not
//! just dense inputs. A pair of primary-key-indexed tables adds the
//! index-backed shapes — `IndexScan → MergeJoin` and `IndexScan →
//! SortAggregate` over stored sorted chunk runs — to both, and non-equi
//! and scalar-subquery joins the ones only `NestedLoopJoin` can run.
//!
//! Both sides are built by the one plan → operator builder; what differs is
//! what stands in for the scan leaf, the joins' build sides and the region
//! root. So besides the result multiset, every LIMIT-free shape must show
//! the same actual row count on every plan node (the table `EXPLAIN ANALYZE`
//! prints): a lane's synthetic partial aggregate or pre-sort is invisible,
//! the driver's half owns the plan node. (A satisfied LIMIT cancels
//! producers early, so counts below it depend on timing; the plan's own
//! `Partial` aggregates are the one exception, see `op_rows`.)

use ic_common::obs::Trace;
use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, Row, SystemVariant};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

struct Fixture {
    sequential: Cluster,
    parallel: Cluster,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sequential = Cluster::new(ClusterConfig {
            sites: 3,
            variant: SystemVariant::ICPlus,
            network: ignite_calcite_rs::NetworkConfig::instant(),
            exec_timeout: Some(Duration::from_secs(30)),
            memory_limit_rows: 20_000_000,
            worker_threads: 1,
            morsel_rows: usize::MAX,
            ..ClusterConfig::test_default()
        });
        sequential
            .run("CREATE TABLE a (a1 BIGINT, a2 BIGINT, a3 DOUBLE, PRIMARY KEY (a1))")
            .unwrap();
        sequential
            .run("CREATE TABLE b (b1 BIGINT, b2 BIGINT, b3 VARCHAR, PRIMARY KEY (b1))")
            .unwrap();
        sequential
            .run("CREATE TABLE c (c1 BIGINT, c2 VARCHAR, PRIMARY KEY (c1)) REPLICATED")
            .unwrap();
        // Replicated and several morsels long: its fragments are whole
        // queries, so a sort or an aggregate sits directly above the region
        // and splits into a lane half and a driver half.
        sequential
            .run("CREATE TABLE d (d1 BIGINT, d2 BIGINT, d3 DOUBLE, PRIMARY KEY (d1)) REPLICATED")
            .unwrap();
        let a: Vec<Row> = (0..900)
            .map(|i| {
                Row(vec![
                    Datum::Int(i),
                    if i % 13 == 0 { Datum::Null } else { Datum::Int(i % 37) },
                    if i % 11 == 0 { Datum::Null } else { Datum::Double((i % 97) as f64 / 3.0) },
                ])
            })
            .collect();
        let b: Vec<Row> = (0..400)
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
        sequential.insert("d", a[..600].to_vec()).unwrap();
        sequential.insert("a", a).unwrap();
        sequential.insert("b", b).unwrap();
        sequential.insert("c", c).unwrap();
        load_indexed_pair(&sequential);
        sequential.analyze_all().unwrap();
        let parallel = sequential.with_worker_threads(3, 128);
        Fixture { sequential, parallel }
    })
}

/// Two co-partitioned tables with primary-key indexes, large enough that
/// the planner joins them as `MergeJoin` over two `IndexScan`s.
fn load_indexed_pair(cluster: &Cluster) {
    cluster
        .run("CREATE TABLE t (t1 BIGINT, t2 BIGINT, t3 DOUBLE, PRIMARY KEY (t1))")
        .unwrap();
    cluster
        .run("CREATE TABLE u (u1 BIGINT, u2 BIGINT, u3 VARCHAR, PRIMARY KEY (u1))")
        .unwrap();
    cluster.run("CREATE INDEX ix_t1 ON t (t1)").unwrap();
    cluster.run("CREATE INDEX ix_u1 ON u (u1)").unwrap();
    // Loaded in descending key order, so the index run is a real re-sort.
    let t: Vec<Row> = (0..1500)
        .rev()
        .map(|i| {
            Row(vec![
                Datum::Int(i),
                if i % 13 == 0 { Datum::Null } else { Datum::Int(i % 37) },
                Datum::Double((i % 97) as f64 / 3.0),
            ])
        })
        .collect();
    // Every third key is missing on this side.
    let u: Vec<Row> = (0..1500)
        .rev()
        .filter(|i| i % 3 != 0)
        .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 11), Datum::str(format!("tag{}", i % 5))]))
        .collect();
    cluster.insert("t", t).unwrap();
    cluster.insert("u", u).unwrap();
}

/// Canonical multiset form: order-insensitive, doubles rounded so the
/// reassociated partial-aggregate merge order can't flip low bits.
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

/// (label, actual rows) of every plan node, in pre-order. `None` where the
/// count is a number of partial-aggregate *state rows*: a `Partial`
/// aggregate of the plan itself runs once per lane inside a region, so it —
/// and whatever carries its output up to the `Final` that merges it — emits
/// a row per group per lane, legitimately more than the sequential chain.
fn op_rows(trace: &Trace) -> Vec<(String, Option<u64>)> {
    let attempts = trace.attempts();
    let attempt = attempts.last().expect("a traced query registers an attempt");
    let ops = attempt.ops();
    let mut state_rows = vec![false; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let mut up = Some(i).filter(|_| op.label == "HashAggregate[Partial]");
        while let Some(k) = up.filter(|&k| ops[k].label != "HashAggregate[Final]") {
            state_rows[k] = true;
            up = ops[k].parent.map(|p| p as usize);
        }
    }
    (0..ops.len())
        .map(|i| (ops[i].label.clone(), (!state_rows[i]).then(|| attempt.rows(i as u32))))
        .collect()
}

fn assert_same(f: &Fixture, sql: &str) {
    let (seq, seq_trace) = f.sequential.query_traced(0, sql);
    let (par, par_trace) = f.parallel.query_traced(0, sql);
    assert_eq!(
        canon(&seq.unwrap().rows),
        canon(&par.unwrap().rows),
        "sequential vs parallel: {sql}"
    );
    assert_eq!(op_rows(&seq_trace), op_rows(&par_trace), "per-operator actual rows: {sql}");
}

fn predicate() -> impl Strategy<Value = String> {
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

fn agg() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("count(*)".to_string()),
        Just("sum(a.a3)".to_string()),
        Just("min(b.b1)".to_string()),
        Just("max(a.a1)".to_string()),
        Just("avg(a.a3)".to_string()),
        Just("count(a.a3)".to_string()),
        Just("count(distinct b.b3)".to_string()),
    ]
}

/// Guard against the parallel path silently falling back to sequential:
/// a plain scan query on the multi-lane cluster must dispatch morsels
/// (the equivalence tests above would pass vacuously otherwise).
#[test]
fn parallel_path_engages() {
    let f = fixture();
    let dispatched =
        ic_common::obs::MetricsRegistry::global().counter("exec.morsel.dispatched");
    let before = dispatched.get();
    f.parallel.query("SELECT a.a1 FROM a WHERE a.a1 >= 0").unwrap();
    assert!(
        dispatched.get() > before,
        "multi-lane cluster executed without dispatching a single morsel"
    );
}

/// Guard against the index-backed tests passing vacuously: the shape must
/// actually plan as a merge join over index scans.
#[test]
fn index_backed_join_plans_through_the_index() {
    let plan = fixture()
        .parallel
        .explain("SELECT count(*) FROM t, u WHERE t.t1 = u.u1 AND t.t2 > 5")
        .unwrap();
    assert!(plan.contains("MergeJoin") && plan.matches("IndexScan(").count() == 2, "{plan}");
}

fn indexed_predicate() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..37).prop_map(|v| format!("t.t2 > {v}")),
        (0i64..11).prop_map(|v| format!("u.u2 <= {v}")),
        (0i64..5).prop_map(|v| format!("u.u3 = 'tag{v}'")),
        (0i64..1500).prop_map(|v| format!("t.t1 < {v}")),
        Just("t.t2 IS NULL".to_string()),
        // A cross-side conjunct: stays on the join as a residual.
        Just("t.t2 > u.u2".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Index-backed joins: `IndexScan → [Filter] → MergeJoin`, selected and
    /// aggregated, inner and (anti-)semi.
    #[test]
    fn index_merge_join(preds in proptest::collection::vec(indexed_predicate(), 0..3),
                        shape in 0usize..4) {
        let mut filter = String::new();
        for p in &preds {
            filter += &format!(" AND {p}");
        }
        let sql = match shape {
            0 => format!("SELECT t.t1, t.t3, u.u3 FROM t, u WHERE t.t1 = u.u1{filter}"),
            1 => format!(
                "SELECT u.u3, count(*), sum(t.t3), min(t.t2) FROM t, u WHERE t.t1 = u.u1{filter} GROUP BY u.u3"
            ),
            // Subquery shapes reference only `u` inside and `t` outside.
            2 => "SELECT t.t1 FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.u1 = t.t1 AND u.u2 > 4)".into(),
            _ => "SELECT t.t1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.u1 = t.t1 AND u.u2 > 4)".into(),
        };
        assert_same(fixture(), &sql);
    }

    /// The operators that never run inside a lane: `NestedLoopJoin` — a
    /// non-equi `ON`, inner and left, and the cross join against a scalar
    /// subquery (TPC-H Q11/Q22's shape) — and `SortAggregate`, grouping an
    /// index scan on its key prefix (Q18's). Their inputs do go parallel.
    /// And the sequential build inside a parallel region: LEFT/SEMI/ANTI
    /// hash joins with a residual, whose build side is itself a join — the
    /// driver drains it behind the build barrier, the lanes over `a` probe.
    #[test]
    fn nested_loop_join_and_sort_aggregate(lo in 50i64..900, hi in 1i64..60, shape in 0usize..7) {
        let (sql, op) = match shape {
            4 => (format!(
                "SELECT a.a1, z.c2 FROM a LEFT JOIN (SELECT x.c1, y.c2 FROM c x, c y WHERE x.c1 = y.c1) z \
                 ON a.a2 = z.c1 AND z.c1 < a.a1 - {hi} WHERE a.a1 < {lo}"
            ), "HashJoin[left]"),
            5 => (format!(
                "SELECT a.a1 FROM a WHERE a.a1 < {lo} AND EXISTS \
                 (SELECT 1 FROM c x, c y WHERE x.c1 = y.c1 AND x.c1 = a.a2 AND y.c1 < a.a1 - {hi})"
            ), "HashJoin[semi]"),
            6 => (format!(
                "SELECT a.a1 FROM a WHERE a.a1 < {lo} AND NOT EXISTS \
                 (SELECT 1 FROM c x, c y WHERE x.c1 = y.c1 AND x.c1 = a.a2 AND y.c1 < a.a1 - {hi})"
            ), "HashJoin[anti]"),
            0 => (format!(
                "SELECT a.a1, b.b1 FROM a INNER JOIN b ON a.a2 < b.b2 WHERE a.a1 < {lo} AND b.b1 < {hi}"
            ), "NestedLoopJoin[inner]"),
            1 => (format!(
                "SELECT a.a1, b.b1 FROM a LEFT JOIN b ON a.a2 < b.b2 AND b.b1 < {hi} WHERE a.a1 < {lo}"
            ), "NestedLoopJoin[left]"),
            2 => (format!(
                "SELECT a.a1, a.a3 FROM a WHERE a.a1 < {lo} AND a.a3 > (SELECT avg(a3) FROM a)"
            ), "NestedLoopJoin[inner]"),
            _ => (format!(
                "SELECT t1, count(*), sum(t3), min(t2) FROM t WHERE t2 > {hi} GROUP BY t1 HAVING sum(t3) > 5"
            ), "SortAggregate[Complete]"),
        };
        let f = fixture();
        let plan = f.parallel.explain(&sql).unwrap();
        prop_assert!(plan.contains(op), "no {} in the plan of {}:\n{}", op, sql, plan);
        assert_same(f, &sql);
    }

    /// Scan → filter → project fragments (the streaming-lane path: nothing
    /// above the region, lanes push straight into the exchange/rowset sink)
    /// — and, LIMIT-free so that the per-operator counts are checked, the
    /// two nodes that split when they sit directly above the region: a sort
    /// (per-lane sort, merged on the driver) and a splittable `Complete`
    /// aggregate (per-lane `Partial`, `Final` on the driver).
    #[test]
    fn scan_filter_project(lo in 0i64..500, hi in 500i64..900, shape in 0usize..3) {
        let sql = match shape {
            0 => format!(
                "SELECT a.a1, a.a3 FROM a WHERE a.a1 >= {lo} AND a.a1 < {hi} AND a.a3 IS NOT NULL"
            ),
            1 => format!(
                "SELECT * FROM d WHERE d.d1 >= {lo} AND d.d1 < {hi} AND d.d3 IS NOT NULL ORDER BY d.d2, d.d1"
            ),
            _ => format!("SELECT DISTINCT d.d2 FROM d WHERE d.d1 >= {lo} AND d.d1 < {hi}"),
        };
        assert_same(fixture(), &sql);
    }

    /// Grouped aggregates over joins: shared-table parallel probe feeding
    /// per-lane partial aggregates, merged at the drain barrier (and the
    /// unsplittable COUNT DISTINCT path when the generator picks it) — bare,
    /// or under an ORDER BY next to a COUNT DISTINCT that keeps the
    /// aggregate whole: a blocking sort above an unsplit aggregate.
    #[test]
    fn join_group_aggregate(preds in proptest::collection::vec(predicate(), 0..3),
                            a in agg(), ordered in proptest::bool::ANY) {
        let distinct = if ordered { ", count(distinct b.b3)" } else { "" };
        let mut sql =
            format!("SELECT c.c2, {a}{distinct} FROM a, b, c WHERE a.a2 = b.b2 AND a.a2 = c.c1");
        for p in &preds {
            sql += &format!(" AND {p}");
        }
        sql += " GROUP BY c.c2";
        if ordered {
            sql += " ORDER BY c.c2";
        }
        assert_same(fixture(), &sql);
    }

    /// Global (ungrouped) aggregates — the empty-group merge path.
    #[test]
    fn global_aggregate(a in agg(), preds in proptest::collection::vec(predicate(), 0..2)) {
        let mut sql = format!("SELECT {a} FROM a, b WHERE a.a2 = b.b2");
        for p in &preds {
            sql += &format!(" AND {p}");
        }
        assert_same(fixture(), &sql);
    }

    /// ORDER BY + LIMIT: over the partitioned table the sort runs above
    /// the gathering exchange; over the replicated one it sits directly
    /// above a parallel region — lanes pre-sort their share, the driver
    /// k-way merges the runs, and the limit cuts the merged stream. Either
    /// way the result must match the sequential sort exactly (the keys are
    /// a total order, so even row order is deterministic).
    #[test]
    fn sort_limit(lim in 1usize..40, desc in proptest::bool::ANY, replicated in proptest::bool::ANY) {
        let dir = if desc { "DESC" } else { "ASC" };
        let sql = if replicated {
            format!("SELECT * FROM d WHERE d.d3 IS NOT NULL ORDER BY d.d1 {dir} LIMIT {lim}")
        } else {
            format!("SELECT a.a1, a.a2 FROM a WHERE a.a3 IS NOT NULL ORDER BY a.a1 {dir} LIMIT {lim}")
        };
        let f = fixture();
        let seq = f.sequential.query(&sql).unwrap();
        let par = f.parallel.query(&sql).unwrap();
        // Ordered comparison: the merge must preserve the sort order.
        prop_assert_eq!(
            format!("{:?}", seq.rows), format!("{:?}", par.rows),
            "ordered sequential vs parallel: {}", sql
        );
    }
}
