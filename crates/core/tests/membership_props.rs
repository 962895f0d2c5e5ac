//! Property tests for elastic topology: any seeded sequence of site joins,
//! graceful leaves, kills, revivals, and write batches alternating between
//! two tables — with a seeded transient-crash fault plan layered on top —
//! reads consistently throughout and converges after repair to a cluster at
//! full replication factor where
//!
//! * every owner list is its partition's target, the first `BACKUPS + 1`
//!   entries of the affinity ranking of the final members, whatever the
//!   history (every member is live by then),
//! * every live replica of a partition has the identical store,
//! * every *acknowledged* write is still readable with the right value,
//! * a second repair pass finds nothing to do, and
//! * every site a graceful leave removed from membership holds no replica.
//!
//! After every op both tables are read: a read either fails retryably or
//! holds every row acknowledged so far. Two tables share each partition's
//! owner list, so a copy can be current for one and stale for the other.

use ic_common::IcError;
use ic_core::{Cluster, ClusterConfig, RepairReport, SystemVariant};
use ic_net::{FaultPlan, SiteId, SplitMix64};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const BACKUPS: usize = 1;
const TABLES: [&str; 2] = ["t1", "t2"];

fn elastic_cluster() -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        backups: BACKUPS,
        variant: SystemVariant::ICPlus,
        exec_timeout: Some(Duration::from_secs(30)),
        max_retries: 3,
        retry_backoff: Duration::ZERO,
        ..ClusterConfig::test_default()
    });
    for t in TABLES {
        cluster.run(&format!("CREATE TABLE {t} (k BIGINT, v BIGINT, PRIMARY KEY (k))")).unwrap();
    }
    cluster
}

/// `table`'s rows, or the error that stopped the read.
fn read(cluster: &Cluster, table: &str) -> Result<BTreeMap<i64, i64>, IcError> {
    let q = cluster.query(&format!("SELECT k, v FROM {table}"))?;
    Ok(q.rows.iter().map(|r| (r.0[0].as_int().unwrap(), r.0[1].as_int().unwrap())).collect())
}

proptest! {
    // Each case builds a cluster and replays a full fault history. Case
    // count comes from the default config (honours PROPTEST_CASES).

    #[test]
    fn any_join_leave_kill_sequence_converges(
        ops in prop::collection::vec(0u8..5, 4..24),
        seed in 0u64..500,
    ) {
        let cluster = elastic_cluster();
        // A seeded transient crash rides along with the scripted ops, so
        // every case also exercises injector-driven failure and recovery.
        cluster.install_faults(
            FaultPlan::new(seed).transient_crash(SiteId((seed % 4) as usize), 10, 40),
        );
        let mut rng = SplitMix64::new(seed ^ 0xd1f7);
        let mut acked: [BTreeMap<i64, i64>; 2] = Default::default();
        let mut writes = 0usize;
        let mut next_key = 0i64;
        let mut next_site = 4usize;
        let mut killed: Vec<usize> = Vec::new();
        let mut departed: Vec<usize> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let members: Vec<usize> = cluster
                .catalog()
                .membership()
                .snapshot()
                .members()
                .iter()
                .map(|s| s.0)
                .collect();
            match op {
                // Kill a member (keep at least one up so the run can move).
                0 => {
                    let live: Vec<usize> =
                        members.iter().copied().filter(|s| !killed.contains(s)).collect();
                    if live.len() > 1 {
                        let s = live[rng.next_below(live.len() as u64) as usize];
                        cluster.kill_site(s);
                        killed.push(s);
                    }
                }
                // Revive a killed site (it comes back stale; repair heals it).
                1 => {
                    if let Some(s) = killed.pop() {
                        cluster.revive_site(s);
                    }
                }
                // A fresh site joins and takes migrated replicas.
                2 => {
                    cluster.join_site(next_site);
                    next_site += 1;
                }
                // Graceful leave (keep a quorum of members around).
                3 => {
                    let candidates: Vec<usize> =
                        members.iter().copied().filter(|s| !killed.contains(s)).collect();
                    if members.len() > 2 && candidates.len() > 1 {
                        let s = candidates[rng.next_below(candidates.len() as u64) as usize];
                        cluster.leave_site(s);
                        let map = cluster.catalog().membership().snapshot();
                        if !map.members().contains(&SiteId(s)) {
                            departed.push(s);
                        }
                    }
                }
                // A write batch, to the two tables in turn; only
                // acknowledged statements join the reference (a failed
                // statement may still have committed some partitions —
                // those rows are legal but not required).
                _ => {
                    let t = writes % TABLES.len();
                    writes += 1;
                    let rows: Vec<(i64, i64)> =
                        (0..3).map(|j| (next_key + j, (next_key + j) * 7)).collect();
                    next_key += 3;
                    let values: Vec<String> =
                        rows.iter().map(|(k, v)| format!("({k}, {v})")).collect();
                    let sql = format!("INSERT INTO {} (k, v) VALUES {}", TABLES[t], values.join(", "));
                    if cluster.dml(&sql).is_ok() {
                        acked[t].extend(rows);
                    }
                }
            }
            // Mid-history reads: a refusal is fine, a read missing an
            // acknowledged row is not.
            for (t, acked) in TABLES.iter().zip(&acked) {
                match read(&cluster, t) {
                    Ok(found) => {
                        for (k, v) in acked {
                            prop_assert_eq!(found.get(k), Some(v), "after op {}: {} lost acked {}", i, t, k);
                        }
                    }
                    Err(e) => prop_assert!(
                        matches!(e, IcError::RetriesExhausted { .. }),
                        "after op {}: {} read failed unretryably: {}", i, t, e
                    ),
                }
            }
        }
        // End of history: all failures clear, then the pass repairs.
        cluster.clear_faults();
        for s in killed {
            cluster.revive_site(s);
        }
        cluster.repair();
        // The pass is idempotent: a second one finds nothing to move.
        prop_assert_eq!(cluster.repair(), RepairReport::default());
        let map = cluster.catalog().membership().snapshot();
        let members = map.members().len();
        prop_assert!(members >= 2);
        // History independence: the layout is a function of membership.
        for p in 0..map.num_partitions() {
            let target: Vec<SiteId> = ic_net::affinity(map.members(), p).take(BACKUPS + 1).collect();
            prop_assert_eq!(map.owners_of(p), &target[..], "partition {} off its target", p);
        }
        let tables = cluster.catalog().hash_tables();
        for data in &tables {
            for p in 0..map.num_partitions() {
                let owners = map.owners_of(p);
                // No partition unowned, and exactly the full replication
                // factor (bounded by cluster size).
                prop_assert!(!owners.is_empty(), "partition {} unowned", p);
                prop_assert!(
                    owners.len() == (BACKUPS + 1).min(members),
                    "partition {} not at the replication factor: {:?}",
                    p,
                    owners
                );
                // All owner replicas converged to one store.
                let stores: Vec<_> = owners
                    .iter()
                    .filter_map(|&s| data.replica(p, s))
                    .collect();
                prop_assert_eq!(stores.len(), owners.len());
                for s in &stores[1..] {
                    prop_assert_eq!(s.version(), stores[0].version(), "partition {} version skew", p);
                    prop_assert_eq!(s.num_rows(), stores[0].num_rows());
                }
                // A departed site keeps no copy behind.
                for &s in &departed {
                    prop_assert!(data.replica(p, SiteId(s)).is_none(), "departed site {} holds partition {}", s, p);
                }
            }
        }
        // Zero acknowledged-write loss.
        for (t, acked) in TABLES.iter().zip(&acked) {
            let found = read(&cluster, t).unwrap();
            for (k, v) in acked {
                prop_assert_eq!(found.get(k), Some(v), "acked write {} to {} lost", k, t);
            }
        }
    }
}
