//! Cluster membership and partition placement — the one authority for which
//! site holds which partition.
//!
//! [`affinity`] ranks the members for a partition: the ascending member
//! list rotated to start at index `p mod n`. Its first `backups + 1` sites
//! are partition `p`'s target owners, primary first. [`Membership::new`]
//! writes the targets of the boot set (one hash partition per site, so
//! partition `p`'s primary is site `p` and its backups the next sites
//! round-robin), and the cluster's repair pass steers every later layout
//! to the targets of the current members. The [`ReplicaMap`] is an
//! immutable snapshot (who is a member, and for every partition the ordered
//! owner list — primary first, then backups). [`Membership`] wraps the
//! current map behind a lock and hands out `Arc` snapshots, so readers and
//! the write path plan against a consistent view while the repair pass
//! installs new maps as sites join, leave and fail.
//! [`ReplicaMap::assignment`] is the one partition → live-site resolution.
//!
//! The map carries no version: a write that races an ownership change is
//! kept consistent by the partition's write guard in `ic-storage`, which the
//! repair pass holds around every owner-list change, so a snapshot read
//! under the guard cannot go stale mid-write.

use crate::topology::{partition_of_hash, Assignment, FailoverError, SiteId};
use ic_common::hash::FxHashSet;
use ic_common::sync::RwLock;
use std::sync::Arc;

/// The affinity ranking of `members` (ascending) for `partition`: the list
/// rotated to start at index `partition mod members.len()`. The first
/// `backups + 1` entries are the partition's target owners, primary first.
pub fn affinity(members: &[SiteId], partition: usize) -> impl Iterator<Item = SiteId> + '_ {
    let start = partition % members.len().max(1);
    members[start..].iter().chain(&members[..start]).copied()
}

/// One immutable snapshot of cluster membership and partition ownership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap {
    /// Sites currently in the cluster, ascending. A crashed site stays a
    /// member (its recovery is a liveness event); a *departed* site is
    /// removed here and scrubbed from every owner list.
    members: Vec<SiteId>,
    /// Per partition: ordered owner list, primary first, then backups.
    owners: Vec<Vec<SiteId>>,
}

impl ReplicaMap {
    pub fn members(&self) -> &[SiteId] {
        &self.members
    }

    /// The partition count, fixed for the lifetime of the cluster (only
    /// *ownership* is elastic).
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

    /// Route a key hash to its partition.
    pub fn partition_of_hash(&self, hash: u64) -> usize {
        partition_of_hash(hash, self.owners.len())
    }

    /// Partitions for which `site` appears anywhere in the owner list.
    pub fn partitions_hosted_by(&self, site: SiteId) -> Vec<usize> {
        (0..self.owners.len()).filter(|&p| self.owners[p].contains(&site)).collect()
    }

    /// Compute the live partition→owner map: each partition is served by its
    /// first owner that is a member and not in `down` — the one
    /// failover-resolution algorithm. Fails when a partition has no live
    /// copy, or no member survives.
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
        Ok(Assignment { live, coordinator, owner_of })
    }
}

/// The mutable membership cell: current [`ReplicaMap`] behind a lock, handed
/// out as cheap `Arc` snapshots. Mutations are expected to come from a
/// single writer (the cluster's repair pass serializes them);
/// the lock only protects snapshot consistency for concurrent readers.
#[derive(Debug)]
pub struct Membership {
    /// The replication factor the repair pass steers toward (Ignite's
    /// `backups=N`).
    target_backups: usize,
    map: RwLock<Arc<ReplicaMap>>,
}

impl Membership {
    /// The boot layout of a `sites`-site cluster: every site a member, one
    /// partition per site, each owned by its [`affinity`] targets.
    /// `backups` is capped at `sites - 1`: more copies than other sites is
    /// meaningless.
    pub fn new(sites: usize, backups: usize) -> Membership {
        assert!(sites > 0, "cluster needs at least one site");
        let backups = backups.min(sites - 1);
        let members: Vec<SiteId> = (0..sites).map(SiteId).collect();
        let owners = (0..sites).map(|p| affinity(&members, p).take(backups + 1).collect()).collect();
        Membership {
            target_backups: backups,
            map: RwLock::new(Arc::new(ReplicaMap { members, owners })),
        }
    }

    /// Replica copies per partition the repair pass re-replicates toward.
    pub fn target_backups(&self) -> usize {
        self.target_backups
    }

    /// Cheap consistent snapshot of the current map.
    pub fn snapshot(&self) -> Arc<ReplicaMap> {
        Arc::clone(&self.map.read())
    }

    /// Convenience: assignment of the *current* map against `down`.
    pub fn assignment(&self, down: &FxHashSet<SiteId>) -> Result<Assignment, FailoverError> {
        self.snapshot().assignment(down)
    }

    fn mutate(&self, f: impl FnOnce(&mut ReplicaMap)) {
        let mut guard = self.map.write();
        let mut next: ReplicaMap = (**guard).clone();
        f(&mut next);
        *guard = Arc::new(next);
    }

    /// Admit a site into the cluster (no data moves yet — the repair pass
    /// migrates partitions to it afterwards). Idempotent.
    pub fn add_member(&self, site: SiteId) {
        self.mutate(|m| {
            if !m.members.contains(&site) {
                m.members.push(site);
                m.members.sort();
            }
        })
    }

    /// Remove a departed site: scrub it from membership and from every
    /// owner list it appears in. The repair pass re-replicates the lost
    /// copies afterwards.
    pub fn remove_member(&self, site: SiteId) {
        self.mutate(|m| {
            m.members.retain(|s| *s != site);
            for owners in &mut m.owners {
                owners.retain(|s| *s != site);
            }
        })
    }

    /// Install a new owner list for `partition` — the repair pass's one
    /// owner-list edit ends here.
    pub fn set_owners(&self, partition: usize, owners: Vec<SiteId>) {
        assert!(!owners.is_empty(), "a partition must keep at least one owner");
        self.mutate(|m| m.owners[partition] = owners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(sites: &[usize]) -> FxHashSet<SiteId> {
        sites.iter().map(|&s| SiteId(s)).collect()
    }

    /// The boot layout of every small cluster shape is the ranking's
    /// targets: partition `p`'s owners are sites `p, p+1, …` (mod `sites`),
    /// `min(backups, sites - 1) + 1` of them, and with every site up each
    /// partition is served by its primary, coordinated from site 0.
    #[test]
    fn seeds_from_topology() {
        for sites in 1..=8 {
            for backups in 0..=3 {
                let shape = format!("{sites} sites, {backups} backups");
                let m = Membership::new(sites, backups);
                let map = m.snapshot();
                let copies = backups.min(sites - 1) + 1;
                assert_eq!(m.target_backups(), copies - 1, "{shape}");
                assert_eq!(map.members(), (0..sites).map(SiteId).collect::<Vec<_>>(), "{shape}");
                assert_eq!(map.num_partitions(), sites, "{shape}");
                let a = map.assignment(&FxHashSet::default()).unwrap();
                assert_eq!(a.coordinator(), SiteId(0), "{shape}");
                assert_eq!(a.live_sites(), map.members(), "{shape}");
                for p in 0..sites {
                    let round_robin: Vec<SiteId> =
                        (p..p + copies).map(|s| SiteId(s % sites)).collect();
                    let targets: Vec<SiteId> = affinity(map.members(), p).take(copies).collect();
                    assert_eq!(targets, round_robin, "{shape}, partition {p}");
                    assert_eq!(map.owners_of(p), targets, "{shape}, partition {p}");
                    assert_eq!(a.owner_of_partition(p), SiteId(p), "{shape}, partition {p}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_sites_panics() {
        Membership::new(0, 0);
    }

    #[test]
    fn backup_owners_round_robin() {
        let map = Membership::new(4, 1).snapshot();
        assert_eq!(map.owners_of(0), &[SiteId(0), SiteId(1)]);
        assert_eq!(map.owners_of(3), &[SiteId(3), SiteId(0)]);
        // Backups capped at sites - 1.
        let m = Membership::new(2, 5);
        assert_eq!(m.target_backups(), 1);
        assert_eq!(m.snapshot().owners_of(1), &[SiteId(1), SiteId(0)]);
    }

    /// Both routes of a key hash — the storage route and the exchange
    /// route — pick the same partition, in range, also under failover.
    #[test]
    fn hash_routing_in_range() {
        let map = Membership::new(4, 1).snapshot();
        let a = map.assignment(&down(&[2])).unwrap();
        for h in [0u64, 1, 2, 17, u64::MAX] {
            let p = map.partition_of_hash(h);
            assert!(p < map.num_partitions());
            assert_eq!(a.partition_of_hash(h), p);
        }
    }

    #[test]
    fn assignment_skips_down_primaries() {
        let a = Membership::new(4, 1).assignment(&down(&[2])).unwrap();
        assert_eq!(a.owner_of_partition(2), SiteId(3));
        assert_eq!(a.live_sites().len(), 3);
    }

    #[test]
    fn coordinator_fails_over() {
        let m = Membership::new(3, 2);
        let a = m.assignment(&down(&[0])).unwrap();
        assert_eq!(a.coordinator(), SiteId(1));
        // All partitions still covered.
        for p in 0..a.num_partitions() {
            assert_ne!(a.owner_of_partition(p), SiteId(0));
        }
    }

    #[test]
    fn join_then_set_owners_extends_ownership() {
        let m = Membership::new(2, 1);
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
        let m = Membership::new(3, 1);
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
        let m = Membership::new(3, 0);
        match m.assignment(&down(&[1])) {
            Err(FailoverError::PartitionLost { partition, primary, replicas }) => {
                assert_eq!((partition, primary, replicas), (1, SiteId(1), 0));
            }
            other => panic!("expected PartitionLost, got {other:?}"),
        }
    }

    #[test]
    fn all_members_down_reports_coordinator() {
        let m = Membership::new(2, 1);
        assert_eq!(
            m.assignment(&down(&[0, 1])),
            Err(FailoverError::NoLiveSites { coordinator: SiteId(0) })
        );
    }
}
