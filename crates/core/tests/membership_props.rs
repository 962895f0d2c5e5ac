//! Property tests for elastic topology: any seeded sequence of site joins,
//! graceful leaves, kills, revivals, and write batches — with a seeded
//! transient-crash fault plan layered on top — converges after repair to a
//! cluster at full replication factor where
//!
//! * no partition is left unowned,
//! * every live replica of a partition has the identical store, and
//! * every *acknowledged* write is still readable with the right value.

use ic_core::{Cluster, ClusterConfig, SystemVariant};
use ic_net::{FaultPlan, SiteId, SplitMix64};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const BACKUPS: usize = 1;

fn elastic_cluster() -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        backups: BACKUPS,
        variant: SystemVariant::ICPlus,
        exec_timeout: Some(Duration::from_secs(30)),
        max_retries: 3,
        ..ClusterConfig::test_default()
    });
    cluster.run("CREATE TABLE t (k BIGINT, v BIGINT, PRIMARY KEY (k))").unwrap();
    cluster
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
        let mut acked: BTreeMap<i64, i64> = BTreeMap::new();
        let mut next_key = 0i64;
        let mut next_site = 4usize;
        let mut killed: Vec<usize> = Vec::new();
        for &op in &ops {
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
                    }
                }
                // A write batch; only acknowledged statements join the
                // reference (a failed statement may still have committed
                // some partitions — those rows are legal but not required).
                _ => {
                    let rows: Vec<(i64, i64)> =
                        (0..3).map(|j| (next_key + j, (next_key + j) * 7)).collect();
                    next_key += 3;
                    let values: Vec<String> =
                        rows.iter().map(|(k, v)| format!("({k}, {v})")).collect();
                    let sql = format!("INSERT INTO t (k, v) VALUES {}", values.join(", "));
                    if cluster.dml(&sql).is_ok() {
                        for (k, v) in rows {
                            acked.insert(k, v);
                        }
                    }
                }
            }
        }
        // End of history: all failures clear, then the controller repairs.
        cluster.clear_faults();
        for s in killed {
            cluster.revive_site(s);
        }
        cluster.repair();
        let map = cluster.catalog().membership().snapshot();
        let members = map.members().len();
        prop_assert!(members >= 2);
        let id = cluster.catalog().table_by_name("t").unwrap();
        let data = cluster.catalog().table_data(id).unwrap();
        for p in 0..map.num_partitions() {
            let owners = map.owners_of(p);
            // No partition unowned, and back to the full replication factor
            // (bounded by cluster size).
            prop_assert!(!owners.is_empty(), "partition {} unowned", p);
            prop_assert!(
                owners.len() >= (BACKUPS + 1).min(members),
                "partition {} under-replicated: {:?}",
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
        }
        // Zero acknowledged-write loss.
        let q = cluster.query("SELECT k, v FROM t ORDER BY k").unwrap();
        let found: BTreeMap<i64, i64> = q
            .rows
            .iter()
            .map(|r| (r.0[0].as_int().unwrap(), r.0[1].as_int().unwrap()))
            .collect();
        for (k, v) in &acked {
            prop_assert_eq!(found.get(k), Some(v), "acked write {} lost", k);
        }
    }
}
