//! Elastic cluster membership: an epoch-versioned replica map that replaces
//! the static round-robin placement of [`Topology`] once sites can join,
//! leave, and fail while the cluster serves queries and writes.
//!
//! The [`ReplicaMap`] is an immutable snapshot (who is a member, and for
//! every partition the ordered owner list — primary first, then backups).
//! [`Membership`] wraps the current map behind a lock and hands out `Arc`
//! snapshots, so readers and the write path plan against a consistent view
//! while the rebalance controller installs new maps. Every mutation bumps a
//! global epoch and stamps the touched partition, letting in-flight writes
//! detect that ownership moved underneath them (surfaced as
//! `RebalanceInProgress` and retried against the fresh map).

use crate::topology::{Assignment, FailoverError, SiteId, Topology};
use ic_common::hash::FxHashSet;
use parking_lot::RwLock;
use std::sync::Arc;

/// One immutable snapshot of cluster membership and partition ownership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap {
    /// Monotone version; bumps on every membership or ownership change.
    epoch: u64,
    /// Sites currently in the cluster, ascending. A crashed site stays a
    /// member (its recovery is a liveness event); a *departed* site is
    /// removed here and scrubbed from every owner list.
    members: Vec<SiteId>,
    /// Per partition: ordered owner list, primary first, then backups.
    owners: Vec<Vec<SiteId>>,
    /// The epoch at which each partition's owner list last changed.
    owners_epoch: Vec<u64>,
}

impl ReplicaMap {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn members(&self) -> &[SiteId] {
        &self.members
    }

    pub fn num_partitions(&self) -> usize {
        self.owners.len()
    }

    /// Ordered owners of `partition`: primary first, then backups.
    pub fn owners_of(&self, partition: usize) -> &[SiteId] {
        &self.owners[partition]
    }

    /// The primary owner of `partition`.
    pub fn primary_of(&self, partition: usize) -> SiteId {
        self.owners[partition][0]
    }

    /// The epoch at which `partition`'s owner list last changed. Writers
    /// capture this when routing and re-check before commit.
    pub fn partition_epoch(&self, partition: usize) -> u64 {
        self.owners_epoch[partition]
    }

    /// Route a key hash to its partition (partition count is fixed for the
    /// lifetime of the cluster; only *ownership* is elastic).
    pub fn partition_of_hash(&self, hash: u64) -> usize {
        (hash % self.owners.len() as u64) as usize
    }

    /// Partitions for which `site` appears anywhere in the owner list.
    pub fn partitions_hosted_by(&self, site: SiteId) -> Vec<usize> {
        (0..self.owners.len()).filter(|&p| self.owners[p].contains(&site)).collect()
    }

    /// Compute the live partition→owner map: each partition is served by its
    /// first owner that is a member and not in `down` — the one
    /// failover-resolution algorithm ([`Topology::assignment`] seeds a map
    /// from the boot placement and asks it).
    pub fn assignment(&self, down: &FxHashSet<SiteId>) -> Result<Assignment, FailoverError> {
        let live: Vec<SiteId> =
            self.members.iter().copied().filter(|s| !down.contains(s)).collect();
        let Some(&first_live) = live.first() else {
            let coordinator = self.members.first().copied().unwrap_or(SiteId(0));
            return Err(FailoverError::NoLiveSites { coordinator });
        };
        let coordinator = match self.members.first() {
            Some(&lowest) if !down.contains(&lowest) => lowest,
            _ => first_live,
        };
        let mut owner_of = Vec::with_capacity(self.owners.len());
        for (p, owners) in self.owners.iter().enumerate() {
            match owners.iter().find(|s| self.members.contains(s) && !down.contains(s)) {
                Some(&s) => owner_of.push(s),
                None => {
                    let primary = owners.first().copied().unwrap_or(SiteId(0));
                    return Err(FailoverError::PartitionLost {
                        partition: p,
                        primary,
                        replicas: owners.len().saturating_sub(1),
                    });
                }
            }
        }
        Ok(Assignment::from_parts(live, coordinator, owner_of))
    }
}

/// The mutable membership cell: current [`ReplicaMap`] behind a lock, handed
/// out as cheap `Arc` snapshots. Mutations are expected to come from a
/// single controller (the cluster's rebalance controller serializes them);
/// the lock only protects snapshot consistency for concurrent readers.
#[derive(Debug)]
pub struct Membership {
    /// The replication factor the controller steers toward (Ignite's
    /// `backups=N`).
    target_backups: usize,
    map: RwLock<Arc<ReplicaMap>>,
}

impl Membership {
    /// Seed membership from the static boot topology: all sites are
    /// members, owner lists follow the round-robin primary+backup layout.
    pub fn from_topology(topology: &Topology) -> Membership {
        let owners: Vec<Vec<SiteId>> =
            (0..topology.num_partitions()).map(|p| topology.owners_of_partition(p)).collect();
        let n = owners.len();
        Membership {
            target_backups: topology.backups(),
            map: RwLock::named(
                Arc::new(ReplicaMap {
                    epoch: 1,
                    members: topology.sites().collect(),
                    owners,
                    owners_epoch: vec![1; n],
                }),
                "membership.map",
            ),
        }
    }

    /// Replica copies per partition the controller re-replicates toward.
    pub fn target_backups(&self) -> usize {
        self.target_backups
    }

    /// Cheap consistent snapshot of the current map.
    pub fn snapshot(&self) -> Arc<ReplicaMap> {
        Arc::clone(&self.map.read())
    }

    pub fn epoch(&self) -> u64 {
        self.map.read().epoch
    }

    /// Convenience: assignment of the *current* map against `down`.
    pub fn assignment(&self, down: &FxHashSet<SiteId>) -> Result<Assignment, FailoverError> {
        self.snapshot().assignment(down)
    }

    fn mutate(&self, f: impl FnOnce(&mut ReplicaMap)) -> u64 {
        let mut guard = self.map.write();
        let mut next: ReplicaMap = (**guard).clone();
        next.epoch += 1;
        f(&mut next);
        let epoch = next.epoch;
        *guard = Arc::new(next);
        epoch
    }

    /// Admit a site into the cluster (no data moves yet — the controller
    /// migrates partitions to it afterwards). Idempotent.
    pub fn add_member(&self, site: SiteId) -> u64 {
        self.mutate(|m| {
            if !m.members.contains(&site) {
                m.members.push(site);
                m.members.sort();
            }
        })
    }

    /// Remove a departed site: scrub it from membership and from every
    /// owner list it appears in (stamping those partitions). The controller
    /// re-replicates the lost copies afterwards.
    pub fn remove_member(&self, site: SiteId) -> u64 {
        self.mutate(|m| {
            m.members.retain(|s| *s != site);
            let epoch = m.epoch;
            for p in 0..m.owners.len() {
                let before = m.owners[p].len();
                m.owners[p].retain(|s| *s != site);
                if m.owners[p].len() != before {
                    m.owners_epoch[p] = epoch;
                }
            }
        })
    }

    /// Promote `site` to primary of `partition` (it must already be an
    /// owner). Returns the new epoch, or `None` if `site` is not an owner.
    pub fn promote(&self, partition: usize, site: SiteId) -> Option<u64> {
        let mut promoted = false;
        let epoch = self.mutate(|m| {
            if let Some(pos) = m.owners[partition].iter().position(|s| *s == site) {
                if pos != 0 {
                    m.owners[partition].remove(pos);
                    m.owners[partition].insert(0, site);
                }
                m.owners_epoch[partition] = m.epoch;
                promoted = true;
            }
        });
        promoted.then_some(epoch)
    }

    /// Install a new owner list for `partition` (used by re-replication and
    /// chunked migration when the copy finishes). Returns the new epoch.
    pub fn set_owners(&self, partition: usize, owners: Vec<SiteId>) -> u64 {
        assert!(!owners.is_empty(), "a partition must keep at least one owner");
        self.mutate(|m| {
            m.owners[partition] = owners;
            m.owners_epoch[partition] = m.epoch;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(sites: &[usize]) -> FxHashSet<SiteId> {
        sites.iter().map(|&s| SiteId(s)).collect()
    }

    #[test]
    fn seeds_from_topology() {
        let t = Topology::with_backups(4, 1);
        let m = Membership::from_topology(&t);
        let map = m.snapshot();
        assert_eq!(map.epoch(), 1);
        assert_eq!(map.members().len(), 4);
        assert_eq!(map.owners_of(0), &[SiteId(0), SiteId(1)]);
        assert_eq!(map.owners_of(3), &[SiteId(3), SiteId(0)]);
        let a = map.assignment(&FxHashSet::default()).unwrap();
        for p in 0..map.num_partitions() {
            assert_eq!(a.owner_of_partition(p), map.primary_of(p));
        }
    }

    #[test]
    fn assignment_skips_down_primaries() {
        let t = Topology::with_backups(4, 1);
        let m = Membership::from_topology(&t);
        let a = m.assignment(&down(&[2])).unwrap();
        assert_eq!(a.owner_of_partition(2), SiteId(3));
        assert_eq!(a.live_sites().len(), 3);
    }

    #[test]
    fn promote_moves_backup_to_front_and_stamps_partition() {
        let t = Topology::with_backups(4, 1);
        let m = Membership::from_topology(&t);
        let before = m.snapshot().partition_epoch(2);
        let epoch = m.promote(2, SiteId(3)).unwrap();
        let map = m.snapshot();
        assert_eq!(map.primary_of(2), SiteId(3));
        assert_eq!(map.owners_of(2), &[SiteId(3), SiteId(2)]);
        assert!(map.partition_epoch(2) > before);
        assert_eq!(map.partition_epoch(2), epoch);
        // Other partitions keep their stamp.
        assert_eq!(map.partition_epoch(0), 1);
        // Promoting a non-owner is refused.
        assert_eq!(m.promote(2, SiteId(1)), None);
    }

    #[test]
    fn join_then_set_owners_extends_ownership() {
        let t = Topology::with_backups(2, 1);
        let m = Membership::from_topology(&t);
        m.add_member(SiteId(2));
        assert_eq!(m.snapshot().members(), &[SiteId(0), SiteId(1), SiteId(2)]);
        // Idempotent join.
        m.add_member(SiteId(2));
        assert_eq!(m.snapshot().members().len(), 3);
        m.set_owners(0, vec![SiteId(2), SiteId(1)]);
        let map = m.snapshot();
        assert_eq!(map.primary_of(0), SiteId(2));
        assert_eq!(map.partitions_hosted_by(SiteId(2)), vec![0]);
        let a = map.assignment(&FxHashSet::default()).unwrap();
        assert_eq!(a.owner_of_partition(0), SiteId(2));
    }

    #[test]
    fn remove_member_scrubs_owner_lists() {
        let t = Topology::with_backups(3, 1);
        let m = Membership::from_topology(&t);
        m.remove_member(SiteId(1));
        let map = m.snapshot();
        assert_eq!(map.members(), &[SiteId(0), SiteId(2)]);
        // Partition 1 lost its primary; its backup (site2) remains.
        assert_eq!(map.owners_of(1), &[SiteId(2)]);
        // Partition 0 lost its backup copy on site1.
        assert_eq!(map.owners_of(0), &[SiteId(0)]);
        let a = map.assignment(&FxHashSet::default()).unwrap();
        assert_eq!(a.owner_of_partition(1), SiteId(2));
    }

    #[test]
    fn partition_without_live_owner_is_lost() {
        let t = Topology::with_backups(3, 0);
        let m = Membership::from_topology(&t);
        match m.assignment(&down(&[1])) {
            Err(FailoverError::PartitionLost { partition, primary, replicas }) => {
                assert_eq!((partition, primary, replicas), (1, SiteId(1), 0));
            }
            other => panic!("expected PartitionLost, got {other:?}"),
        }
    }

    #[test]
    fn all_members_down_reports_coordinator() {
        let t = Topology::with_backups(2, 1);
        let m = Membership::from_topology(&t);
        assert_eq!(
            m.assignment(&down(&[0, 1])),
            Err(FailoverError::NoLiveSites { coordinator: SiteId(0) })
        );
    }
}
