//! The driver pool, counted: `exec.driver.spawned` is the number of threads
//! the process's driver pool has started, so a query that reuses threads
//! adds nothing to it. The tests live in a binary of their own, so no other
//! test's queries start threads in this process, and they take turns on one
//! lock, so each test's count is its own.

use ic_common::obs::MetricsRegistry;
use ic_common::{DataType, Datum, Field, IcError, MemoryPool, Row, Schema};
use ic_exec::{execute_plan, ExecOptions};
use ic_net::{Network, NetworkConfig};
use ic_plan::ops::{PhysOp, PhysPlan, SortKey};
use ic_plan::Distribution;
use ic_storage::{Catalog, TableDistribution};
use std::sync::{Arc, Barrier, PoisonError};
use std::time::Duration;

const ROWS: i64 = 2000;

/// One test at a time: a count is only exact while no other query runs.
#[expect(clippy::disallowed_types, reason = "a test-only turn lock held across whole queries, which a leaf lock may not be")]
fn turn() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawned() -> u64 {
    MetricsRegistry::global().counter("exec.driver.spawned").get()
}

struct Fixture {
    catalog: Arc<Catalog>,
    network: Arc<Network>,
    schema: Schema,
    table: ic_storage::TableId,
}

/// Four sites, one hash-partitioned table of `(id, w)` rows.
fn fixture() -> Fixture {
    let catalog = Catalog::new(4, 0);
    let schema = Schema::new(vec![Field::new("id", DataType::Int), Field::new("w", DataType::Int)]);
    let table = catalog
        .create_table("r", schema.clone(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
        .unwrap();
    catalog.insert(table, (0..ROWS).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 7)])).collect()).unwrap();
    Fixture { catalog, network: Network::new(NetworkConfig::instant()), schema, table }
}

impl Fixture {
    fn node(&self, op: PhysOp<Arc<PhysPlan>>, dist: Distribution) -> Arc<PhysPlan> {
        Arc::new(PhysPlan {
            op,
            schema: self.schema.clone(),
            dist,
            collation: vec![],
            rows: ROWS as f64,
            cost: ic_plan::cost::Cost::ZERO,
            total_cost: 0.0,
            has_exchange: true,
        })
    }

    fn scan(&self) -> Arc<PhysPlan> {
        let op = PhysOp::TableScan { table: self.table, name: "r".into(), schema: self.schema.clone() };
        self.node(op, Distribution::Hash(vec![0]))
    }

    /// Scan, rehash on column `on`, gather at the coordinator: three
    /// fragments, the lower two once per partition.
    fn rehash_gather(&self, on: usize) -> Arc<PhysPlan> {
        let to = Distribution::Hash(vec![on]);
        let rehash = self.node(PhysOp::Exchange { input: self.scan(), to: to.clone() }, to);
        self.node(PhysOp::Exchange { input: rehash, to: Distribution::Single }, Distribution::Single)
    }

    /// Every partition sorts its rows before shipping them to the
    /// coordinator: the sorts buffer, in the drivers.
    fn sort_below_gather(&self) -> Arc<PhysPlan> {
        let sort = self.node(PhysOp::Sort { input: self.scan(), keys: vec![SortKey::asc(0)] }, Distribution::Hash(vec![0]));
        self.node(PhysOp::Exchange { input: sort, to: Distribution::Single }, Distribution::Single)
    }

    /// `plan`'s rows, sorted, and how many drivers ran it (the root's
    /// included).
    fn run(&self, plan: &Arc<PhysPlan>, opts: &ExecOptions) -> (Vec<Row>, usize) {
        let (mut rows, stats) = execute_plan(plan, &self.catalog, &self.network, opts).unwrap();
        rows.sort();
        (rows, stats.threads)
    }
}

/// IC+M's shape: every non-root fragment runs two variants per instance.
fn two_variants() -> ExecOptions {
    ExecOptions { variant_fragments: 2, timeout: Some(Duration::from_secs(60)), ..ExecOptions::default() }
}

/// Once a query has run, the same query again finds every thread it needs
/// idle in the pool: it starts none, and answers what the cold run did.
#[test]
fn a_warm_rerun_starts_no_thread() {
    let _turn = turn();
    let fx = fixture();
    let plan = fx.rehash_gather(1);
    let (cold, drivers) = fx.run(&plan, &two_variants());
    assert_eq!(cold.len(), ROWS as usize);
    assert_eq!(drivers, 1 + 4 * 2 + 4 * 2, "the root, then two variants per partition of two fragments");
    for _ in 0..3 {
        let before = spawned();
        let (warm, again) = fx.run(&plan, &two_variants());
        assert_eq!(spawned() - before, 0, "a warm re-run started a thread");
        assert_eq!((warm, again), (cold.clone(), drivers));
    }
}

/// Two queries started together both finish: a job never waits for a
/// thread, so neither query's drivers can starve the other's. The pool
/// grows by at most the second query's drivers, however the two interleave:
/// it never holds more threads than both queries' drivers together.
#[test]
fn two_queries_at_once_both_finish() {
    let _turn = turn();
    let fx = fixture();
    let plan = fx.rehash_gather(1);
    let (reference, drivers) = fx.run(&plan, &two_variants());
    let before = spawned();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..5 {
                    assert_eq!(fx.run(&plan, &two_variants()).0, reference);
                }
            });
        }
    });
    assert!(spawned() - before <= (drivers - 1) as u64, "{} threads for {drivers} drivers", spawned() - before);
}

/// A query that a driver stops — by panicking, or by running out of its
/// memory budget — keeps that first cause, and its memory pool balances the
/// moment `execute_plan` returns. The workers that ran its drivers serve the
/// next query: it starts no thread.
#[test]
fn a_stopped_query_balances_and_its_workers_serve_the_next() {
    let _turn = turn();
    let fx = fixture();
    let follow_up = fx.rehash_gather(1);
    let (reference, _) = fx.run(&follow_up, &ExecOptions::default());
    // Routing on a column past the input's width panics in every producer
    // that ships a batch.
    let panics = fx.rehash_gather(5);
    let sorts = fx.sort_below_gather();
    let memory = |limit| ExecOptions { memory_limit_rows: limit, ..ExecOptions::default() };
    // Each sort holds its partition's ~500 rows × 2 columns; the root holds
    // nothing until the first sorted batch lands.
    assert_eq!(fx.run(&sorts, &memory(u64::MAX)).0.len(), ROWS as usize);
    for _ in 0..3 {
        for (plan, limit) in [(&panics, u64::MAX), (&sorts, 100)] {
            let pool = MemoryPool::new(1 << 20);
            let opts = ExecOptions { pool: Some(pool.clone()), timeout: Some(Duration::from_secs(60)), ..memory(limit) };
            let err = execute_plan(plan, &fx.catalog, &fx.network, &opts).unwrap_err();
            match &err {
                IcError::Exec(msg) => assert!(msg.contains(" panicked: "), "{msg}"),
                IcError::MemoryLimit { limit_rows: 100 } => {}
                other => panic!("the driver's own cause was lost: {other}"),
            }
            assert_eq!((pool.in_use(), pool.active_leases()), (0, 0), "the pool balances");
            let before = spawned();
            assert_eq!(fx.run(&follow_up, &ExecOptions::default()).0, reference);
            assert_eq!(spawned() - before, 0, "the stopped query's workers did not come back");
        }
    }
}
