//! The four workloads: pinned cluster configuration, seed-derived data and
//! op lists, and the correctness checks every reply goes through.
//!
//! The program under test only ever sees generated SQL. `--seed` fixes the
//! generated tables, the AQL parameter stream and the point-op key/verb
//! sequence, so one seed always produces the same inputs.

use ic_benchdata::{ssb, tpch, TableData};
use ic_common::{Datum, Row};
use ic_core::{Cluster, ClusterConfig, IcResult, NetworkConfig, SystemVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// Pinned configuration (never host-derived, so two hosts run the same
/// thread and morsel layout). Everything not named here is the engine's
/// default: 16 admission slots, 30 s `exec_timeout`.
pub const SITES: usize = 4;
pub const WORKER_THREADS: usize = 2;
pub const MORSEL_ROWS: usize = 64 * 1024;
pub const TPCH_SF: f64 = 0.02;
pub const SSB_SF: f64 = 0.05;
/// The calibrated network of EXPERIMENTS.md: 100 MB/s + 200 µs per message,
/// charged by sleeping — see the README for what that lets a number mean.
pub const NET_MBPS: u64 = 100;
pub const NET_LATENCY_US: u64 = 200;
/// AQL terminals (`nproc` = 2 on the reference host; more would measure the
/// OS scheduler, not the engine).
pub const AQL_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchSerial,
    SsbSerial,
    PointMix,
    AqlClients,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpchSerial,
        Workload::SsbSerial,
        Workload::PointMix,
        Workload::AqlClients,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchSerial => "tpch_serial",
            Workload::SsbSerial => "ssb_serial",
            Workload::PointMix => "point_mix",
            Workload::AqlClients => "aql_clients",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per pass. Percentiles are taken per pass and the median over
    /// passes is reported, so one slow pass cannot move a run's number.
    pub fn pass_len(self) -> usize {
        match self {
            Workload::TpchSerial => TPCH_QUERIES.len(),
            Workload::SsbSerial => SSB_QUERIES.len(),
            Workload::PointMix => 500,
            Workload::AqlClients => 2 * TPCH_QUERIES.len(),
        }
    }

    /// Serial workloads repeat one fixed pass; the other two consume a
    /// seeded stream and never see the same op twice.
    pub fn repeats_pass(self) -> bool {
        matches!(self, Workload::TpchSerial | Workload::SsbSerial)
    }

    pub fn clients(self) -> usize {
        if self == Workload::AqlClients {
            AQL_CLIENTS
        } else {
            1
        }
    }

    /// Names of the op classes `Op::class` indexes.
    pub fn classes(self) -> Vec<String> {
        match self {
            Workload::TpchSerial | Workload::AqlClients => {
                TPCH_QUERIES.iter().map(|q| format!("Q{q}")).collect()
            }
            Workload::SsbSerial => SSB_QUERIES.iter().map(|q| q.to_string()).collect(),
            Workload::PointMix => ["select", "update", "insert", "delete"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    pub fn scale_factor(self) -> f64 {
        if self == Workload::SsbSerial {
            SSB_SF
        } else {
            TPCH_SF
        }
    }

    fn backups(self) -> usize {
        usize::from(self == Workload::PointMix)
    }
}

/// The 20 TPC-H queries the system supports (Q15 and Q20 fail on every
/// variant, as in the paper), in fixed order.
pub const TPCH_QUERIES: [usize; 20] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22,
];
/// The paper's fig11 set: query sets one and three.
pub const SSB_QUERIES: [&str; 7] = ["Q1.1", "Q1.2", "Q1.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4"];

pub const POINT_CLASS_SELECT: usize = 0;
pub const POINT_CLASS_UPDATE: usize = 1;
pub const POINT_CLASS_INSERT: usize = 2;
pub const POINT_CLASS_DELETE: usize = 3;

/// What a point op does to `orders`, for the shadow check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOp {
    Read { key: i64 },
    Update { key: i64, priority: i64 },
    Insert { key: i64, priority: i64 },
    Delete { key: i64 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub class: usize,
    pub sql: String,
    /// Set on `point_mix` ops only.
    pub point: Option<PointOp>,
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(
            self.point,
            Some(PointOp::Update { .. } | PointOp::Insert { .. } | PointOp::Delete { .. })
        )
    }
}

pub fn calibrated_network() -> NetworkConfig {
    NetworkConfig {
        latency: Duration::from_micros(NET_LATENCY_US),
        bandwidth_bytes_per_sec: NET_MBPS * 1_000_000,
    }
}

/// The cluster under test.
pub fn new_cluster(workload: Workload) -> Cluster {
    Cluster::new(ClusterConfig {
        sites: SITES,
        variant: SystemVariant::ICPlus,
        network: calibrated_network(),
        backups: workload.backups(),
        worker_threads: WORKER_THREADS,
        morsel_rows: MORSEL_ROWS,
        ..ClusterConfig::default()
    })
}

/// The reference the serial results are checked against: one site, no
/// network delay, one worker — the engine's least parallel configuration.
pub fn new_oracle() -> Cluster {
    Cluster::new(ClusterConfig {
        sites: 1,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        worker_threads: 1,
        morsel_rows: MORSEL_ROWS,
        ..ClusterConfig::default()
    })
}

pub fn generate(workload: Workload, seed: u64) -> Vec<TableData> {
    match workload {
        Workload::SsbSerial => ssb::generate(SSB_SF, seed),
        _ => tpch::generate(TPCH_SF, seed),
    }
}

pub fn clone_tables(tables: &[TableData]) -> Vec<TableData> {
    tables
        .iter()
        .map(|t| TableData {
            name: t.name,
            rows: t.rows.clone(),
        })
        .collect()
}

/// Create schema and indexes, load `tables` and analyze.
pub fn load(cluster: &Cluster, workload: Workload, tables: Vec<TableData>) -> IcResult<()> {
    let (ddl, index_ddl) = match workload {
        Workload::SsbSerial => (ssb::DDL, ssb::INDEX_DDL),
        _ => (tpch::DDL, tpch::INDEX_DDL),
    };
    for stmt in ddl.iter().chain(index_ddl) {
        cluster.run(stmt)?;
    }
    for table in tables {
        cluster.insert(table.name, table.rows)?;
    }
    cluster.analyze_all()
}

/// The first `count` ops of a workload's op list. Serial workloads return
/// their one fixed pass whatever `count` is.
pub fn op_list(workload: Workload, seed: u64, tables: &[TableData], count: usize) -> Vec<Op> {
    let query = |class: usize, sql: String| Op {
        class,
        sql,
        point: None,
    };
    match workload {
        Workload::TpchSerial => TPCH_QUERIES
            .iter()
            .enumerate()
            .map(|(class, &q)| query(class, tpch::query(q)))
            .collect(),
        Workload::SsbSerial => SSB_QUERIES
            .iter()
            .enumerate()
            .filter_map(|(class, id)| ssb::query(id).map(|sql| query(class, sql.to_string())))
            .collect(),
        Workload::AqlClients => {
            // Every pass holds each query twice, in seeded order, with
            // randomized substitution parameters (the paper's terminals).
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0a91_c11e);
            let mut ops = Vec::with_capacity(count);
            while ops.len() < count {
                let mut pass: Vec<usize> = (0..TPCH_QUERIES.len())
                    .chain(0..TPCH_QUERIES.len())
                    .collect();
                for i in (1..pass.len()).rev() {
                    pass.swap(i, rng.gen_range(0..=i));
                }
                for class in pass {
                    ops.push(query(
                        class,
                        tpch::query_randomized(TPCH_QUERIES[class], &mut rng),
                    ));
                }
            }
            ops.truncate(count);
            ops
        }
        Workload::PointMix => point_ops(seed, table_rows(tables, "orders") as i64, count),
    }
}

fn table_rows(tables: &[TableData], name: &str) -> usize {
    tables
        .iter()
        .find(|t| t.name == name)
        .map_or(0, |t| t.rows.len())
}

/// 70 % point `SELECT`, 20 % `UPDATE`, 5 % `INSERT` of a fresh key, 5 %
/// `DELETE` of a key inserted earlier (so the table's size is stationary),
/// uniform keys over the loaded `orders` rows (keys are dense `1..=base`).
///
/// Reads and writes form two latency modes (reads are the slower one). At a
/// 50/50 mix the median op sits in the gap between the modes, and at 45/55
/// in the tail of the write mode: ten runs' `latency_ms_p50` then spread by
/// 20 % where throughput spread by 14 %. With reads at 70 % the p50 and p95
/// both lie inside the read mode; writes are three of the four classes of
/// `query_ms_geomean`.
fn point_ops(seed: u64, base_keys: i64, count: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0901_70b5);
    let mut inserted: Vec<i64> = Vec::new();
    let mut next_key = base_keys + 1;
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let roll = rng.gen_range(0..100);
        let (class, sql, point) = if roll < 70 {
            let key = rng.gen_range(1..=base_keys);
            (
                POINT_CLASS_SELECT,
                format!("SELECT o_orderkey, o_shippriority FROM orders WHERE o_orderkey = {key}"),
                PointOp::Read { key },
            )
        } else if roll < 90 {
            let key = rng.gen_range(1..=base_keys);
            let priority = rng.gen_range(0..1_000_000);
            (
                POINT_CLASS_UPDATE,
                format!("UPDATE orders SET o_shippriority = {priority} WHERE o_orderkey = {key}"),
                PointOp::Update { key, priority },
            )
        } else if roll < 95 || inserted.is_empty() {
            let key = next_key;
            next_key += 1;
            inserted.push(key);
            let priority = rng.gen_range(0..1_000_000);
            let custkey = rng.gen_range(1..=100);
            (
                POINT_CLASS_INSERT,
                format!(
                    "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, \
                     o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment) VALUES \
                     ({key}, {custkey}, 'O', 1234.5, DATE '1996-01-02', '3-MEDIUM', \
                     'Clerk#000000001', {priority}, 'ic-perf insert')"
                ),
                PointOp::Insert { key, priority },
            )
        } else {
            let key = inserted.swap_remove(rng.gen_range(0..inserted.len()));
            (
                POINT_CLASS_DELETE,
                format!("DELETE FROM orders WHERE o_orderkey = {key}"),
                PointOp::Delete { key },
            )
        };
        ops.push(Op {
            class,
            sql,
            point: Some(point),
        });
    }
    ops
}

/// `o_orderkey -> o_shippriority` as the writes issued so far leave it.
pub type Shadow = BTreeMap<i64, i64>;

pub fn shadow_of(tables: &[TableData]) -> Shadow {
    let mut shadow = Shadow::new();
    if let Some(orders) = tables.iter().find(|t| t.name == "orders") {
        for row in &orders.rows {
            if let (Some(key), Some(priority)) = (row.0[0].as_int(), row.0[7].as_int()) {
                shadow.insert(key, priority);
            }
        }
    }
    shadow
}

/// Apply a write to the shadow, or check a read against it. `rows` is the
/// read's result, `affected` the write's row count.
pub fn check_point(shadow: &mut Shadow, op: PointOp, rows: &[Row], affected: usize) -> bool {
    match op {
        PointOp::Read { key } => match (shadow.get(&key), rows) {
            (Some(priority), [row]) => row.0 == [Datum::Int(key), Datum::Int(*priority)],
            (None, []) => true,
            _ => false,
        },
        PointOp::Update { key, priority } => {
            shadow.insert(key, priority).is_some() && affected == 1
        }
        PointOp::Insert { key, priority } => {
            shadow.insert(key, priority).is_none() && affected == 1
        }
        PointOp::Delete { key } => shadow.remove(&key).is_some() && affected == 1,
    }
}

/// Multiset equality with a 1e-6 relative tolerance on doubles (as
/// `tests/tpch_correctness.rs::assert_rows_close`): plans sum floats in
/// different orders, so exact equality would flag correct results.
pub fn rows_close(a: &[Row], b: &[Row]) -> bool {
    fn key(r: &Row) -> String {
        r.0.iter()
            .map(|d| match d {
                Datum::Double(f) => format!("{f:.6}"),
                other => other.to_string(),
            })
            .collect::<Vec<_>>()
            .join("|")
    }
    fn sorted(rows: &[Row]) -> Vec<&Row> {
        let mut v: Vec<(String, &Row)> = rows.iter().map(|r| (key(r), r)).collect();
        v.sort_by(|x, y| x.0.cmp(&y.0));
        v.into_iter().map(|(_, r)| r).collect()
    }
    a.len() == b.len()
        && sorted(a).iter().zip(sorted(b)).all(|(ra, rb)| {
            ra.arity() == rb.arity()
                && ra.0.iter().zip(&rb.0).all(|pair| match pair {
                    (Datum::Double(x), Datum::Double(y)) => {
                        (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
                    }
                    (x, y) => x == y,
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders_stub(n: i64) -> Vec<TableData> {
        let rows = (1..=n)
            .map(|k| {
                let mut r = vec![Datum::Null; 9];
                r[0] = Datum::Int(k);
                r[7] = Datum::Int(0);
                Row(r)
            })
            .collect();
        vec![TableData {
            name: "orders",
            rows,
        }]
    }

    #[test]
    fn same_seed_gives_the_same_sql_sequence() {
        let tables = orders_stub(1000);
        for w in Workload::ALL {
            let a = op_list(w, 42, &tables, 1200);
            let b = op_list(w, 42, &tables, 1200);
            assert_eq!(a, b, "{}", w.name());
            assert!(!a.is_empty());
            if !w.repeats_pass() {
                assert_eq!(a.len(), 1200);
                let c = op_list(w, 43, &tables, 1200);
                assert_ne!(a, c, "{}: another seed must give another stream", w.name());
            }
        }
    }

    #[test]
    fn point_stream_is_self_consistent() {
        let tables = orders_stub(1000);
        let mut shadow = shadow_of(&tables);
        let ops = op_list(Workload::PointMix, 7, &tables, 5000);
        let mut per_class = [0usize; 4];
        for op in &ops {
            per_class[op.class] += 1;
            let point = op.point.expect("point op");
            // A read is checked against the engine, not here; writes must
            // always be applicable to the state the earlier writes left.
            if !matches!(point, PointOp::Read { .. }) {
                assert!(check_point(&mut shadow, point, &[], 1), "{}", op.sql);
            }
        }
        assert!(
            (3300..3700).contains(&per_class[POINT_CLASS_SELECT]),
            "{per_class:?}"
        );
        assert!(per_class[POINT_CLASS_DELETE] > 150, "{per_class:?}");
        // Stationary size: inserts and deletes cancel to within the stream's noise.
        assert!(shadow.len().abs_diff(1000) < 100, "{}", shadow.len());
    }

    #[test]
    fn aql_pass_holds_every_query_twice() {
        let ops = op_list(Workload::AqlClients, 3, &[], 80);
        for pass in ops.chunks(40) {
            let mut seen = [0usize; 20];
            pass.iter().for_each(|op| seen[op.class] += 1);
            assert_eq!(seen, [2; 20]);
        }
    }

    #[test]
    fn rows_close_is_a_tolerant_multiset_compare() {
        let r = |k: i64, v: f64| Row(vec![Datum::Int(k), Datum::Double(v)]);
        assert!(rows_close(
            &[r(1, 1.0), r(2, 2.0)],
            &[r(2, 2.0 + 1e-9), r(1, 1.0)]
        ));
        assert!(!rows_close(&[r(1, 1.0)], &[r(1, 1.01)]));
        assert!(!rows_close(&[r(1, 1.0)], &[r(1, 1.0), r(1, 1.0)]));
    }

    #[test]
    fn shadow_catches_a_stale_read() {
        let mut shadow = Shadow::from([(5, 10)]);
        let fresh = [Row(vec![Datum::Int(5), Datum::Int(10)])];
        let stale = [Row(vec![Datum::Int(5), Datum::Int(9)])];
        assert!(check_point(
            &mut shadow,
            PointOp::Read { key: 5 },
            &fresh,
            0
        ));
        assert!(!check_point(
            &mut shadow,
            PointOp::Read { key: 5 },
            &stale,
            0
        ));
        assert!(!check_point(&mut shadow, PointOp::Read { key: 5 }, &[], 0));
    }
}
