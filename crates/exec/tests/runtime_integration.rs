//! Runtime integration tests: fragment wiring over the simulated network,
//! variant-count correctness, fault injection, and telemetry.

use ic_common::agg::AggFunc;
use ic_common::{DataType, Datum, Expr, Field, IcError, Row, Schema};
use ic_exec::{execute_plan, ExecOptions};
use ic_net::{FaultPlan, Network, NetworkConfig, SiteId, Topology, TICK_FOREVER};
use ic_opt::optimize_query;
use ic_plan::ops::{AggCall, JoinKind, LogicalPlan, RelOp};
use ic_plan::PlannerFlags;
use ic_storage::{Catalog, TableDistribution};
use std::sync::Arc;

fn setup(sites: usize) -> (Arc<Catalog>, Arc<Network>) {
    let cat = Catalog::new(Topology::new(sites));
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Double),
    ]);
    let t = cat
        .create_table("t", schema, vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
        .unwrap();
    let rows: Vec<Row> = (0..5000)
        .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 13), Datum::Double((i % 31) as f64)]))
        .collect();
    cat.insert(t, rows).unwrap();
    cat.analyze(t).unwrap();
    let rschema = Schema::new(vec![Field::new("id", DataType::Int), Field::new("w", DataType::Int)]);
    let r = cat
        .create_table("r", rschema, vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
        .unwrap();
    let rrows: Vec<Row> = (0..13).map(|i| Row(vec![Datum::Int(i), Datum::Int(i * 10)])).collect();
    cat.insert(r, rrows).unwrap();
    cat.analyze(r).unwrap();
    (cat, Network::new(NetworkConfig::instant()))
}

fn scan(cat: &Catalog, name: &str) -> Arc<LogicalPlan> {
    let id = cat.table_by_name(name).unwrap();
    let def = cat.table_def(id).unwrap();
    LogicalPlan::new(RelOp::Scan { table: id, name: name.into(), schema: def.schema }).unwrap()
}

fn agg_join_plan(cat: &Catalog) -> Arc<LogicalPlan> {
    // SELECT g, count(*), sum(v) FROM t JOIN r ON g = id GROUP BY g
    let join = LogicalPlan::new(RelOp::Join {
        left: scan(cat, "t"),
        right: scan(cat, "r"),
        kind: JoinKind::Inner,
        on: Expr::eq(Expr::col(1), Expr::col(3)),
        from_correlate: false,
    })
    .unwrap();
    LogicalPlan::new(RelOp::Aggregate {
        input: join,
        group: vec![1],
        aggs: vec![
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(2)), name: "s".into() },
        ],
    })
    .unwrap()
}

fn run(
    cat: &Arc<Catalog>,
    net: &Arc<Network>,
    flags: &PlannerFlags,
    variants: usize,
) -> Vec<Row> {
    let opt = optimize_query(agg_join_plan(cat), cat, flags).unwrap();
    let opts = ExecOptions { variant_fragments: variants, ..ExecOptions::default() };
    let (mut rows, stats) = execute_plan(&opt.plan, cat, net, &opts).unwrap();
    assert!(stats.fragments >= 1);
    rows.sort();
    rows
}

/// The same plan executed with 1, 2 and 4 variant fragments produces
/// identical results (the §5.3 correctness requirement the
/// splitter/duplicator assignment exists to maintain).
#[test]
fn variant_counts_agree() {
    let (cat, net) = setup(4);
    let flags = PlannerFlags::ic_plus();
    let base = run(&cat, &net, &flags, 1);
    assert_eq!(base.len(), 13);
    for variants in [2usize, 3, 4] {
        let got = run(&cat, &net, &flags, variants);
        assert_eq!(base, got, "{variants} variants");
    }
}

/// Baseline and improved plans agree across site counts.
#[test]
fn site_counts_agree() {
    let mut reference: Option<Vec<Row>> = None;
    for sites in [1usize, 2, 4, 8] {
        let (cat, net) = setup(sites);
        for flags in [PlannerFlags::ic(), PlannerFlags::ic_plus()] {
            let got = run(&cat, &net, &flags, 1);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(*r, got, "sites={sites}"),
            }
        }
    }
}

/// A failed network link surfaces as a clean, *retryable* execution error,
/// not a hang.
#[test]
fn link_fault_fails_cleanly() {
    let (cat, net) = setup(4);
    // Cut every link into the coordinator with a deterministic plan.
    let mut plan = FaultPlan::new(11);
    for src in 1..4 {
        plan = plan.drop_link(SiteId(src), SiteId(0), 1.0, 0, TICK_FOREVER);
    }
    net.install_faults(plan);
    let opt = optimize_query(agg_join_plan(&cat), &cat, &PlannerFlags::ic_plus()).unwrap();
    let err = execute_plan(&opt.plan, &cat, &net, &ExecOptions::default()).unwrap_err();
    assert!(matches!(err, IcError::SiteUnavailable { .. }), "{err}");
    assert!(err.is_retryable());
    net.clear_faults();
    let (rows, _) = execute_plan(&opt.plan, &cat, &net, &ExecOptions::default()).unwrap();
    assert_eq!(rows.len(), 13);
}

/// A permanently dead site is planned around when backups cover its
/// partitions: the query still answers, from the backup owners.
#[test]
fn dead_site_served_by_backup_owner() {
    let cat = {
        let cat = Catalog::new(Topology::with_backups(4, 1));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let t = cat
            .create_table(
                "t",
                schema,
                vec![0],
                TableDistribution::HashPartitioned { key_cols: vec![0] },
            )
            .unwrap();
        let rows: Vec<Row> = (0..5000)
            .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 13), Datum::Double((i % 31) as f64)]))
            .collect();
        cat.insert(t, rows).unwrap();
        cat.analyze(t).unwrap();
        let rschema =
            Schema::new(vec![Field::new("id", DataType::Int), Field::new("w", DataType::Int)]);
        let r = cat
            .create_table(
                "r",
                rschema,
                vec![0],
                TableDistribution::HashPartitioned { key_cols: vec![0] },
            )
            .unwrap();
        let rrows: Vec<Row> =
            (0..13).map(|i| Row(vec![Datum::Int(i), Datum::Int(i * 10)])).collect();
        cat.insert(r, rrows).unwrap();
        cat.analyze(r).unwrap();
        cat
    };
    let net = Network::new(NetworkConfig::instant());
    let flags = PlannerFlags::ic_plus();
    let baseline = run(&cat, &net, &flags, 1);
    net.liveness().mark_dead(SiteId(2));
    let failed_over = run(&cat, &net, &flags, 1);
    assert_eq!(baseline, failed_over);
    assert_eq!(baseline.len(), 13);
}

/// The memory budget aborts a pathological plan instead of exhausting RAM.
#[test]
fn memory_budget_enforced() {
    let (cat, net) = setup(2);
    // Cross join 5000 × 5000 via a TRUE condition.
    let cross = LogicalPlan::new(RelOp::Join {
        left: scan(&cat, "t"),
        right: scan(&cat, "t"),
        kind: JoinKind::Inner,
        on: Expr::lit(true),
        from_correlate: false,
    })
    .unwrap();
    let sorted = LogicalPlan::new(RelOp::Sort {
        input: cross.clone(),
        keys: vec![ic_plan::SortKey::asc(0)],
    })
    .unwrap();
    // Unsorted, nothing buffers below the client's rowset: the 25 M-row
    // result itself is what the budget must stop (differential fuzz seed
    // 115 otherwise collects rows until the deadline or the OOM killer).
    for plan in [sorted, cross] {
        let opt = optimize_query(plan, &cat, &PlannerFlags::ic_plus()).unwrap();
        let opts = ExecOptions { memory_limit_rows: 100_000, ..ExecOptions::default() };
        let err = execute_plan(&opt.plan, &cat, &net, &opts).unwrap_err();
        assert!(matches!(err, IcError::MemoryLimit { .. }), "{err}");
    }
}

/// Network telemetry reflects actual shipping: more sites means more
/// exchange traffic for the same query.
#[test]
fn telemetry_tracks_traffic() {
    let (cat2, net2) = setup(2);
    let (cat8, net8) = setup(8);
    let flags = PlannerFlags::ic_plus();
    let opt2 = optimize_query(agg_join_plan(&cat2), &cat2, &flags).unwrap();
    let opt8 = optimize_query(agg_join_plan(&cat8), &cat8, &flags).unwrap();
    let (_, s2) = execute_plan(&opt2.plan, &cat2, &net2, &ExecOptions::default()).unwrap();
    let (_, s8) = execute_plan(&opt8.plan, &cat8, &net8, &ExecOptions::default()).unwrap();
    assert!(s8.net_messages >= s2.net_messages, "{} vs {}", s8.net_messages, s2.net_messages);
    assert!(s8.threads > s2.threads);
}
