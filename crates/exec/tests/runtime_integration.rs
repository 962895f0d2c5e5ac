//! Runtime integration tests: fragment wiring over the simulated network,
//! variant-count correctness, fault injection, and telemetry.

use ic_common::agg::AggFunc;
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, DataType, Datum, Expr, Field, IcError, Row, Schema};
use ic_exec::runtime::{ExchangeCore, Msg};
use ic_exec::{execute_plan, ExecOptions, Slot, SourceMode};
use ic_net::{
    net_channel, Assignment, FaultPlan, Membership, NetStats, Network, NetworkConfig, SiteId,
    WireSize, TICK_FOREVER,
};
use ic_opt::optimize_query;
use ic_plan::ops::{AggCall, JoinKind, LogicalPlan, PhysOp, PhysPlan, RelOp};
use ic_plan::{Distribution, PlannerFlags};
use ic_storage::{Catalog, TableDistribution};
use std::sync::Arc;
use std::time::Duration;

fn setup(sites: usize) -> (Arc<Catalog>, Arc<Network>) {
    let cat = Catalog::new(sites, 0);
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
    LogicalPlan::new(RelOp::Scan { table: id, name: name.into(), schema: def.schema.clone() }).unwrap()
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
        let cat = Catalog::new(4, 1);
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
    net.kill_site(SiteId(2));
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

/// A hand-built physical plan node.
fn node(op: PhysOp<Arc<PhysPlan>>, schema: &Schema, dist: Distribution) -> Arc<PhysPlan> {
    Arc::new(PhysPlan {
        op,
        schema: schema.clone(),
        dist,
        collation: vec![],
        rows: 13.0,
        cost: ic_plan::cost::Cost::ZERO,
        total_cost: 0.0,
        has_exchange: true,
    })
}

/// A memo-shared subtree is one `Arc` under two parents. Placement keys
/// nodes by pre-order position, so the *same* `Exchange` node as both inputs
/// of a self-join is two exchanges fed by two fragments: the join sees both
/// sides, traffic is charged once per occurrence, and a traced run credits
/// each occurrence's messages to its own plan line.
#[test]
fn shared_subtree_behind_two_exchanges() {
    let (cat, net) = setup(4);
    let table = cat.table_by_name("r").unwrap();
    let schema = cat.table_def(table).unwrap().schema.clone();
    let scan = node(
        PhysOp::TableScan { table, name: "r".into(), schema: schema.clone() },
        &schema,
        Distribution::Hash(vec![0]),
    );
    let shipped =
        node(PhysOp::Exchange { input: scan, to: Distribution::Single }, &schema, Distribution::Single);
    let run = |plan: &Arc<PhysPlan>| {
        let trace = ic_common::obs::Trace::new();
        let opts = ExecOptions { trace: Some(trace.clone()), ..ExecOptions::default() };
        let (mut rows, stats) = execute_plan(plan, &cat, &net, &opts).unwrap();
        rows.sort();
        (rows, stats, trace.attempts().pop().unwrap())
    };
    // One occurrence: every site but the coordinator ships its share of `r`.
    let (once, one, _) = run(&shipped);
    assert_eq!(once.len(), 13);
    assert_eq!((one.fragments, one.net_messages), (2, 3));

    let joined = Schema::new(schema.fields().iter().chain(schema.fields()).cloned().collect());
    let join = node(
        PhysOp::HashJoin {
            left: shipped.clone(),
            right: shipped,
            kind: JoinKind::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: Expr::lit(true),
        },
        &joined,
        Distribution::Single,
    );
    let (rows, stats, attempt) = run(&join);
    let expected: Vec<Row> =
        once.iter().map(|r| Row(r.0.iter().chain(&r.0).cloned().collect())).collect();
    assert_eq!(rows, expected);
    assert_eq!(stats.fragments, 3);
    assert_eq!(stats.threads, one.threads * 2 - 1);
    assert_eq!((stats.net_messages, stats.net_bytes), (2 * one.net_messages, 2 * one.net_bytes));
    // join(0) exchange(1) scan(2) exchange(3) scan(4)
    for exchange in [1, 3] {
        assert_eq!(attempt.shipped_msgs(exchange), one.net_messages, "exchange at node {exchange}");
        assert_eq!(attempt.rows(exchange), 13);
    }
    assert_eq!(attempt.rows(0), 13);
}

/// A `Values` leaf is a source like a scan: below an exchange, in a fragment
/// that runs as variants, it is a splitter — each variant passes its share,
/// and every row arrives exactly once however many variants there are.
#[test]
fn values_leaf_splits_across_variants() {
    let (cat, net) = setup(2);
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let rows: Vec<Row> = (0..2 * BATCH_SIZE as i64 + 5).map(|i| Row(vec![Datum::Int(i)])).collect();
    let values = node(
        PhysOp::Values { schema: schema.clone(), rows: rows.clone() },
        &schema,
        Distribution::Single,
    );
    let plan =
        node(PhysOp::Exchange { input: values, to: Distribution::Single }, &schema, Distribution::Single);
    for variants in [1usize, 2, 3] {
        let opts = ExecOptions { variant_fragments: variants, ..ExecOptions::default() };
        let (mut got, stats) = execute_plan(&plan, &cat, &net, &opts).unwrap();
        got.sort();
        assert_eq!(got, rows, "{variants} variants");
        assert_eq!(stats.threads, 1 + variants, "the Values fragment ran as {variants} variants");
    }
}

// --- the exchange protocol, one producer instance at a time -----------------

const SITES: usize = 4;
/// Where the producer instance runs: it has a same-site link wherever its
/// own site consumes, and cross-site links to everyone else.
const PRODUCER: SiteId = SiteId(1);

/// The all-sites-up assignment the exchange routes by.
fn healthy() -> Assignment {
    Membership::new(SITES, 0).assignment(&Default::default()).unwrap()
}

/// What one receiver endpoint saw of one producer instance.
struct Link {
    site: SiteId,
    /// The messages in arrival order: (rows carried, final-message flag,
    /// wire size).
    msgs: Vec<(Vec<Row>, bool, usize)>,
}

impl Link {
    fn rows(&self) -> Vec<Row> {
        self.msgs.iter().flat_map(|(rows, _, _)| rows.clone()).collect()
    }
}

/// Run one producer instance's whole stream — `rows` in chunks of `chunk` —
/// through an [`ExchangeCore`] over the instant network and return what
/// every endpoint received, with the run's cross-site tally and same-site
/// message count.
fn ship(
    to: &Distribution,
    mode: SourceMode,
    variants: usize,
    rows: &[Row],
    chunk: usize,
) -> (Vec<Link>, (u64, u64), u64) {
    let net = Network::new(NetworkConfig::instant());
    let tally = Arc::new(NetStats::default());
    let consumers = if *to == Distribution::Single { 1 } else { SITES };
    let (mut endpoints, mut receivers) = (Vec::new(), Vec::new());
    for site in (0..consumers).map(SiteId) {
        // A single consumer runs at the coordinator; the others, partition
        // `p` at site `p`.
        let partition = (*to != Distribution::Single).then_some(site.0);
        for v in 0..variants {
            let (tx, rx) = net_channel::<Msg>(net.clone(), SiteId(usize::MAX), site, 16);
            let slot = Slot { site, partition };
            endpoints.push((slot, v, tx.with_tally(tally.clone()).with_src(PRODUCER)));
            receivers.push((site, rx));
        }
    }
    let assignment = Arc::new(healthy());
    let mut core = ExchangeCore::new(to.clone(), assignment, endpoints, mode, None);
    for piece in rows.chunks(chunk) {
        core.send_batch(ColumnBatch::from_rows(piece)).unwrap();
    }
    core.flush().unwrap();
    drop(core);
    let links = receivers
        .into_iter()
        .map(|(site, mut rx)| {
            let mut msgs = Vec::new();
            while let Ok(msg) = rx.recv_timeout(Duration::from_secs(10)) {
                let size = msg.wire_size();
                msgs.push(match msg {
                    Msg::Batch { rows, last } => (rows.to_rows(), last, size),
                    Msg::End => (Vec::new(), true, size),
                });
            }
            Link { site, msgs }
        })
        .collect();
    let (messages, bytes, _) = tally.snapshot();
    (links, (messages, bytes), net.stats.snapshot().2)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The protocol's invariants for one (distribution, consumer mode, variant
/// count, stream) cell. The stream arrives in chunks of `BATCH_SIZE / 4`, so
/// an unhashed stage fills to exactly `BATCH_SIZE` and the message count is
/// exact; hashed pieces overshoot, which can only make messages fewer and
/// larger — the callers keep hashed links at aligned or sub-batch row counts.
fn check_protocol(to: &Distribution, mode: SourceMode, variants: usize, rows: &[Row]) {
    let label = format!("{to:?} {mode:?} x{variants}, {} rows", rows.len());
    let (links, (messages, bytes), local) = ship(to, mode, variants, rows, BATCH_SIZE / 4);
    let assignment = healthy();
    let (mut cross_msgs, mut cross_bytes, mut local_msgs) = (0u64, 0u64, 0u64);
    for link in &links {
        // Exactly one final message from the producer instance, and nothing
        // after it.
        let finals = link.msgs.iter().filter(|(_, last, _)| *last).count();
        assert_eq!(finals, 1, "{label}: final messages at {}", link.site);
        let (final_rows, _, final_size) = link.msgs.last().unwrap();
        assert!(link.msgs.last().unwrap().1, "{label}: a message after the final one");
        // A link never pays for an empty message except the bare end marker
        // of a link that carried nothing else in the flush.
        for (carried, last, _) in &link.msgs {
            assert!(*last || carried.len() >= BATCH_SIZE, "{label}: a sliver left before the end");
        }
        if final_rows.is_empty() {
            assert_eq!(*final_size, 8, "{label}: bare end marker size");
        }
        let on_link = link.rows().len();
        let expected = on_link.div_ceil(BATCH_SIZE).max(1);
        assert_eq!(link.msgs.len(), expected, "{label}: msgs for {on_link} rows at {}", link.site);
        let size: usize = link.msgs.iter().map(|(_, _, size)| size).sum();
        if link.site == PRODUCER {
            local_msgs += link.msgs.len() as u64;
        } else {
            cross_msgs += link.msgs.len() as u64;
            cross_bytes += size as u64;
        }
    }
    // Every cross-site message was charged and counted, no same-site one.
    assert_eq!((messages, bytes), (cross_msgs, cross_bytes), "{label}: tally");
    assert_eq!(local, local_msgs, "{label}: same-site messages");
    if rows.is_empty() {
        let cross_links = links.iter().filter(|l| l.site != PRODUCER).count() as u64;
        assert_eq!((messages, bytes), (cross_links, 8 * cross_links), "{label}: empty stream");
    }
    // Each site received exactly the rows the distribution sends it: all of
    // them under every duplicator variant, each once across a splitter's.
    let hashes = match to {
        Distribution::Hash(keys) if !rows.is_empty() => ColumnBatch::from_rows(rows).hash_keys(keys),
        _ => Vec::new(),
    };
    for site in links.iter().map(|l| l.site).collect::<std::collections::BTreeSet<_>>() {
        let expected: Vec<Row> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| match to {
                Distribution::Hash(_) => {
                    assignment.owner_of_partition(assignment.partition_of_hash(hashes[*i])) == site
                }
                _ => true,
            })
            .map(|(_, r)| r.clone())
            .collect();
        let at_site: Vec<&Link> = links.iter().filter(|l| l.site == site).collect();
        assert_eq!(at_site.len(), variants, "{label}");
        match mode {
            SourceMode::Duplicator => {
                for link in at_site {
                    assert_eq!(sorted(link.rows()), sorted(expected.clone()), "{label}: at {site}");
                }
            }
            SourceMode::Splitter => {
                let got = at_site.iter().flat_map(|l| l.rows()).collect();
                assert_eq!(sorted(got), sorted(expected), "{label}: at {site}");
            }
        }
    }
}

fn stream(n: usize, key: impl Fn(usize) -> i64) -> Vec<Row> {
    (0..n).map(|i| Row(vec![Datum::Int(key(i)), Datum::Int(i as i64)])).collect()
}

/// A link carries `max(1, ceil(rows / BATCH_SIZE))` messages, its last one
/// flagged, whatever the distribution, the consumer's source mode and its
/// variant count; an empty stream costs one 8-byte marker per link.
#[test]
fn exchange_link_ends_on_its_last_batch() {
    for to in [Distribution::Single, Distribution::Broadcast, Distribution::Hash(vec![0])] {
        for mode in [SourceMode::Splitter, SourceMode::Duplicator] {
            for variants in 1..=3 {
                for n in [0, 1, BATCH_SIZE - 1, BATCH_SIZE, 3 * BATCH_SIZE + 7] {
                    check_protocol(&to, mode, variants, &stream(n, |i| i as i64));
                }
            }
        }
    }
}

/// A hash exchange fills a batch *per destination*: a stream whose keys all
/// hash to one site ships `ceil(rows / BATCH_SIZE)` messages there and one
/// bare end marker to every other site.
#[test]
fn hash_exchange_batches_per_destination() {
    let to = Distribution::Hash(vec![0]);
    let rows = stream(3 * BATCH_SIZE + 7, |_| 42);
    check_protocol(&to, SourceMode::Duplicator, 1, &rows);
    let (links, (messages, _), _) = ship(&to, SourceMode::Duplicator, 1, &rows, BATCH_SIZE / 4);
    let hash = ColumnBatch::from_rows(&rows[..1]).hash_keys(&[0])[0];
    let home = healthy().owner_of_partition(healthy().partition_of_hash(hash));
    for link in &links {
        assert_eq!(link.msgs.len(), if link.site == home { 4 } else { 1 }, "at {}", link.site);
    }
    let cross = links.iter().filter(|l| l.site != PRODUCER);
    assert_eq!(messages, cross.map(|l| l.msgs.len() as u64).sum());
    // Spread evenly, the same rows fit one message per link.
    let spread = stream(3 * BATCH_SIZE + 7, |i| i as i64);
    let (links, _, _) = ship(&to, SourceMode::Duplicator, 1, &spread, 64);
    assert!(links.iter().all(|l| l.msgs.len() == 1 && l.msgs[0].0.len() > BATCH_SIZE / 2));
}
