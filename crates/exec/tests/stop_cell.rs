//! The stop cell of [`ControlBlock`]: written once, by whoever decides that
//! the query is over, and only ever with a cause — never with the
//! [`IcError::Cancelled`] of a thread that merely saw the stop. Every race
//! here starts at a barrier, so the writers really do contend. A driver's
//! panic is such a cause too, recorded at once.

#![expect(clippy::disallowed_methods, reason = "a deadline already passed is an Instant in the past")]

use ic_common::obs::Trace;
use ic_common::{DataType, Datum, Field, IcError, MemoryPool, Row, Schema};
use ic_exec::operators::{ControlBlock, ExecObs};
use ic_exec::{execute_plan, ExecOptions};
use ic_net::{Network, NetworkConfig};
use ic_plan::ops::{PhysOp, PhysPlan};
use ic_plan::Distribution;
use ic_storage::{Catalog, TableDistribution};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: usize = 8;

fn traced(deadline: Option<Instant>, limit_cells: u64) -> (Arc<ControlBlock>, Arc<Trace>) {
    let trace = Trace::new();
    let obs = ExecObs::new(trace.clone(), trace.register_attempt(Vec::new()));
    let lease = MemoryPool::unbounded().lease(limit_cells);
    (ControlBlock::new(deadline, 7, lease, Some(obs)), trace)
}

/// Run `body(i)` on [`THREADS`] threads released together.
fn race(body: impl Fn(usize) + Sync) {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let (barrier, body) = (&barrier, &body);
            s.spawn(move || {
                barrier.wait();
                body(i)
            });
        }
    });
}

/// What holds of a cell once it is set, whoever set it: every `check` is the
/// marker, and neither verb changes what is in it.
fn assert_settled(ctrl: &ControlBlock, trace: &Trace) {
    let kept = ctrl.cause();
    assert_ne!(kept, Some(IcError::Cancelled), "the marker was stored as a cause");
    for _ in 0..3 {
        assert_eq!(ctrl.check(), Err(IcError::Cancelled));
    }
    ctrl.finish();
    ctrl.fail(IcError::Exec("too late".into()));
    assert_eq!(ctrl.cause(), kept);
    // One `exec.stop` event per failed query, saying why; none for a finish.
    let said: Vec<String> =
        trace.events().into_iter().filter(|e| e.name == "exec.stop").map(|e| e.detail).collect();
    assert_eq!(said, kept.iter().map(|c| c.to_string()).collect::<Vec<_>>());
}

#[test]
fn racing_failures_keep_exactly_one_cause() {
    let causes: Vec<IcError> = (0..THREADS).map(|i| IcError::Exec(format!("cause {i}"))).collect();
    for _ in 0..100 {
        let (ctrl, trace) = traced(None, u64::MAX);
        race(|i| {
            // Between the deciders, threads that only have a symptom to offer
            // and threads polling: a poll sees a running query or a stop.
            match i % 4 {
                0 => drop(ctrl.fail(IcError::Cancelled)),
                1 => assert!(matches!(ctrl.check(), Ok(()) | Err(IcError::Cancelled))),
                _ => assert_eq!(ctrl.fail(causes[i].clone()), causes[i], "fail hands its cause back"),
            }
        });
        let kept = ctrl.cause().expect("six threads failed the query");
        assert!(causes.contains(&kept), "{kept}");
        assert_settled(&ctrl, &trace);
    }
}

#[test]
fn a_finish_and_a_failure_race_to_one_outcome() {
    let cause = IcError::SiteUnavailable { site: 1, detail: "lost".into() };
    for _ in 0..100 {
        let (ctrl, trace) = traced(None, u64::MAX);
        race(|i| match i % 2 {
            0 => ctrl.finish(),
            _ => drop(ctrl.fail(cause.clone())),
        });
        // Finished or failed, never a mix: a stop after a cause does not
        // erase it, a cause after a finish does not fail the query.
        assert!(ctrl.cause().is_none_or(|kept| kept == cause));
        assert_settled(&ctrl, &trace);
    }
}

/// The limits `check` and `reserve` enforce are causes they record
/// themselves — also when many threads notice at once.
#[test]
fn deadline_revocation_and_memory_limit_are_recorded_where_they_are_decided() {
    let past = Instant::now() - Duration::from_secs(1);
    let (ctrl, trace) = traced(Some(past), u64::MAX);
    race(|_| {
        let seen = ctrl.check().unwrap_err();
        assert!(matches!(seen, IcError::ExecTimeout { limit_ms: 7 } | IcError::Cancelled), "{seen}");
    });
    assert_eq!(ctrl.cause(), Some(IcError::ExecTimeout { limit_ms: 7 }));
    assert_settled(&ctrl, &trace);

    let (ctrl, trace) = traced(None, u64::MAX);
    ctrl.lease().revoke();
    race(|_| {
        let seen = ctrl.check().unwrap_err();
        assert!(matches!(seen, IcError::ResourcesRevoked { .. } | IcError::Cancelled), "{seen}");
    });
    assert!(matches!(ctrl.cause(), Some(IcError::ResourcesRevoked { .. })));
    assert_settled(&ctrl, &trace);

    let (ctrl, trace) = traced(None, 100);
    race(|_| {
        let seen = ctrl.reserve(60).err();
        assert!(matches!(seen, None | Some(IcError::MemoryLimit { limit_rows: 100 })), "{seen:?}");
    });
    assert_eq!(ctrl.cause(), Some(IcError::MemoryLimit { limit_rows: 100 }));
    assert_settled(&ctrl, &trace);
}

/// A producer that panics stops its query at once, with the panic as the
/// cause: a scan fragment routes a hash exchange on a column past its
/// input's width, so every instance that ships a batch panics while hashing
/// it. The consumers' links stay open (the execution keeps a sender
/// prototype per link), so only the stop cell can end their wait.
#[test]
fn a_panicking_producer_stops_its_query_at_once() {
    let catalog = Catalog::new(4, 0);
    let schema = Schema::new(vec![Field::new("id", DataType::Int), Field::new("w", DataType::Int)]);
    let table = catalog
        .create_table("r", schema.clone(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
        .unwrap();
    catalog.insert(table, (0..64).map(|i| Row(vec![Datum::Int(i), Datum::Int(i)])).collect()).unwrap();
    let node = |op, dist| {
        Arc::new(PhysPlan {
            op,
            schema: schema.clone(),
            dist,
            collation: vec![],
            rows: 64.0,
            cost: ic_plan::cost::Cost::ZERO,
            total_cost: 0.0,
            has_exchange: true,
        })
    };
    let scan = node(PhysOp::TableScan { table, name: "r".into(), schema: schema.clone() }, Distribution::Hash(vec![0]));
    let rehash = node(PhysOp::Exchange { input: scan, to: Distribution::Hash(vec![5]) }, Distribution::Hash(vec![5]));
    let plan = node(PhysOp::Exchange { input: rehash, to: Distribution::Single }, Distribution::Single);

    let deadline = Duration::from_secs(3);
    let pool = MemoryPool::new(1 << 20);
    let opts = ExecOptions { timeout: Some(deadline), pool: Some(pool.clone()), ..ExecOptions::default() };
    let network = Network::new(NetworkConfig::instant());
    let start = Instant::now();
    let err = execute_plan(&plan, &catalog, &network, &opts).unwrap_err();
    let took = start.elapsed();
    match &err {
        IcError::Exec(msg) => assert!(
            msg.starts_with("fragment ") && msg.contains(" at ") && msg.contains(" panicked: "),
            "the cause names the panicking fragment instance: {msg}"
        ),
        other => panic!("expected the producer's panic as the cause, got {other}"),
    }
    assert!(took < deadline / 3, "the query waited {took:?} of its {deadline:?} deadline");
    assert_eq!((pool.in_use(), pool.active_leases()), (0, 0), "the pool balances");
}
