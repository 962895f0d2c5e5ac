//! The placement vocabulary: logical sites, the [`Assignment`] a query
//! attempt runs against, and why one cannot be formed.
//!
//! Nothing here decides placement. [`Membership::new`](crate::Membership::new)
//! writes the layout and [`ReplicaMap::assignment`](crate::ReplicaMap::assignment)
//! is the one rule that resolves it against the down sites into an
//! [`Assignment`]; `partition_of_hash` is the one `hash → partition` rule
//! both routes share, and [`split_by_partition`] the one batch router. A
//! partition is also the unit of execution: a partitioned fragment runs one
//! instance per partition, at the partition's serving site, and a hash
//! exchange addresses its destination instance by partition.

use ic_common::ColumnBatch;
use std::fmt;

/// A logical processing site — one "machine" of the paper's 4/8-node
/// clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// The partition a key hash routes to among `partitions` — the one
/// `hash → partition` rule, shared by the storage route
/// ([`ReplicaMap::partition_of_hash`](crate::ReplicaMap::partition_of_hash)) and the exchange route
/// ([`Assignment::partition_of_hash`]).
pub(crate) fn partition_of_hash(hash: u64, partitions: usize) -> usize {
    (hash % partitions as u64) as usize
}

/// The one batch router, of bulk loads, DML inserts and hash exchanges:
/// `hash_keys` over `keys`, each row's partition among `partitions`, then
/// one selection view per partition that receives rows, in partition
/// order.
pub fn split_by_partition(batch: &ColumnBatch, keys: &[usize], partitions: usize) -> Vec<(usize, ColumnBatch)> {
    let mut sels: Vec<Vec<u32>> = vec![Vec::new(); partitions];
    for (k, hash) in batch.hash_keys(keys).into_iter().enumerate() {
        sels[partition_of_hash(hash, partitions)].push(k as u32);
    }
    let routed = sels.into_iter().enumerate().filter(|(_, sel)| !sel.is_empty());
    routed.map(|(p, sel)| (p, batch.select_logical(&sel))).collect()
}

/// A snapshot of partition ownership for one query attempt: which sites are
/// live, which site answers for each partition, and who coordinates. The
/// executor fragments plans against an `Assignment` rather than the raw
/// [`ReplicaMap`](crate::ReplicaMap), so a dead site's partitions are transparently served by
/// their backup owners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub(crate) live: Vec<SiteId>,
    pub(crate) coordinator: SiteId,
    pub(crate) owner_of: Vec<SiteId>,
}

impl Assignment {
    /// Live sites, ascending.
    pub fn live_sites(&self) -> &[SiteId] {
        &self.live
    }

    /// The site that receives client requests and runs root fragments (the
    /// paper's "site that received the original request"): the lowest
    /// member, or the lowest live site while that one is down.
    pub fn coordinator(&self) -> SiteId {
        self.coordinator
    }

    pub fn num_partitions(&self) -> usize {
        self.owner_of.len()
    }

    /// The live site serving `partition`.
    pub fn owner_of_partition(&self, partition: usize) -> SiteId {
        self.owner_of[partition]
    }

    /// Route a key hash to its partition: a hash exchange's destination
    /// instance.
    pub fn partition_of_hash(&self, hash: u64) -> usize {
        partition_of_hash(hash, self.owner_of.len())
    }
}

/// Why a surviving assignment could not be formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverError {
    /// Every site is down. Carries the (down) coordinator site so error
    /// mapping can report the real site the client was attached to.
    NoLiveSites { coordinator: SiteId },
    /// A partition's primary and all replicas are down.
    PartitionLost { partition: usize, primary: SiteId, replicas: usize },
}

impl fmt::Display for FailoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailoverError::NoLiveSites { coordinator } => {
                write!(f, "no live sites remain in the cluster (coordinator {coordinator} down)")
            }
            FailoverError::PartitionLost { partition, primary, replicas } => write!(
                f,
                "partition {partition} lost: primary {primary} and all {replicas} replica(s) are down"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Membership;
    use ic_common::hash::FxHashSet;

    fn down(sites: &[usize]) -> FxHashSet<SiteId> {
        sites.iter().map(|&s| SiteId(s)).collect()
    }

    /// Every partition is served by a live site, with every site up and
    /// with a primary down.
    #[test]
    fn every_partition_has_owner_and_roundtrip() {
        let map = Membership::new(8, 1).snapshot();
        for gone in [&[][..], &[5]] {
            let a = map.assignment(&down(gone)).unwrap();
            assert_eq!(a.num_partitions(), map.num_partitions());
            for p in 0..a.num_partitions() {
                assert!(a.live_sites().contains(&a.owner_of_partition(p)));
            }
        }
    }

    #[test]
    fn healthy_assignment_matches_primary_placement() {
        let map = Membership::new(4, 1).snapshot();
        let a = map.assignment(&FxHashSet::default()).unwrap();
        assert_eq!(a.coordinator(), SiteId(0));
        assert_eq!(a.live_sites().len(), 4);
        for p in 0..map.num_partitions() {
            assert_eq!(a.owner_of_partition(p), map.primary_of(p));
        }
        for h in [0u64, 7, u64::MAX] {
            assert_eq!(a.partition_of_hash(h), map.partition_of_hash(h));
        }
    }

    #[test]
    fn failover_substitutes_backup_owner() {
        let a = Membership::new(4, 1).assignment(&down(&[2])).unwrap();
        assert_eq!(a.live_sites(), &[SiteId(0), SiteId(1), SiteId(3)]);
        // Partition 2's primary (site2) is down; its backup is site3.
        assert_eq!(a.owner_of_partition(2), SiteId(3));
        let at = |s| (0..4).filter(|&p| a.owner_of_partition(p) == SiteId(s)).collect::<Vec<_>>();
        assert_eq!((at(3), at(2)), (vec![2, 3], vec![]));
    }

    /// Without backups a down site loses its partition; with several down,
    /// the lowest lost partition is the one reported.
    #[test]
    fn failover_without_backups_loses_partition() {
        match Membership::new(4, 0).assignment(&down(&[3, 1])) {
            Err(FailoverError::PartitionLost { partition, primary, replicas }) => {
                assert_eq!((partition, primary, replicas), (1, SiteId(1), 0));
            }
            other => panic!("expected PartitionLost, got {other:?}"),
        }
    }

    /// With every member down the error names the lowest *member* as the
    /// coordinator, which after a departure is no longer site 0.
    #[test]
    fn all_sites_down_is_an_error() {
        let m = Membership::new(3, 1);
        m.remove_member(SiteId(0));
        assert_eq!(
            m.assignment(&down(&[1, 2])),
            Err(FailoverError::NoLiveSites { coordinator: SiteId(1) })
        );
    }
}
