//! Cluster topology: site identifiers, partition-to-site placement, and
//! failover assignments computed against the live-site set.

use ic_common::hash::FxHashSet;
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

/// The static cluster layout. Ignite hashes partition keys to partitions and
/// maps partitions round-robin to sites; with `partitions_per_site = 1` each
/// site holds exactly one partition of every partitioned table, which is the
/// configuration the paper benchmarks (partitioned cache mode). With
/// `backups = N` (Ignite's `backups=N`) each partition additionally has N
/// replica copies on the next N sites round-robin, so up to N site failures
/// can be survived by reading a backup owner instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    num_sites: usize,
    partitions_per_site: usize,
    backups: usize,
}

impl Topology {
    pub fn new(num_sites: usize) -> Topology {
        assert!(num_sites > 0, "cluster needs at least one site");
        Topology { num_sites, partitions_per_site: 1, backups: 0 }
    }

    pub fn with_partitions_per_site(num_sites: usize, partitions_per_site: usize) -> Topology {
        assert!(num_sites > 0 && partitions_per_site > 0);
        Topology { num_sites, partitions_per_site, backups: 0 }
    }

    /// Topology with `backups` replica copies per partition (capped at
    /// `num_sites - 1`: more backups than other sites is meaningless).
    pub fn with_backups(num_sites: usize, backups: usize) -> Topology {
        assert!(num_sites > 0, "cluster needs at least one site");
        Topology { num_sites, partitions_per_site: 1, backups: backups.min(num_sites - 1) }
    }

    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Replica copies per partition (Ignite's `backups=N`).
    pub fn backups(&self) -> usize {
        self.backups
    }

    /// Total partition count for partitioned tables.
    pub fn num_partitions(&self) -> usize {
        self.num_sites * self.partitions_per_site
    }

    /// All sites.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.num_sites).map(SiteId)
    }

    /// The site owning a partition's *primary* copy (round-robin placement).
    pub fn site_of_partition(&self, partition: usize) -> SiteId {
        SiteId(partition % self.num_sites)
    }

    /// All owners of a partition, primary first, then the backup copies on
    /// the next `backups()` sites round-robin.
    pub fn owners_of_partition(&self, partition: usize) -> Vec<SiteId> {
        let primary = self.site_of_partition(partition);
        (0..=self.backups).map(|i| SiteId((primary.0 + i) % self.num_sites)).collect()
    }

    /// Partitions whose primary copy lives on `site`.
    pub fn partitions_of_site(&self, site: SiteId) -> Vec<usize> {
        (0..self.num_partitions())
            .filter(|&p| self.site_of_partition(p) == site)
            .collect()
    }

    /// The coordinator site, which receives client requests and runs root
    /// fragments (the paper's "site that received the original request").
    pub fn coordinator(&self) -> SiteId {
        SiteId(0)
    }

    /// Compute the partition→owner map for the surviving topology: every
    /// partition is assigned its first owner (primary, then backups in
    /// order) that is not in `down`. Fails when a partition has no live
    /// copy, or no site at all survives.
    pub fn assignment(&self, down: &FxHashSet<SiteId>) -> Result<Assignment, FailoverError> {
        crate::membership::Membership::from_topology(self).assignment(down)
    }
}

/// A snapshot of partition ownership for one query attempt: which sites are
/// live, which site answers for each partition, and who coordinates. The
/// executor fragments plans against an `Assignment` rather than the raw
/// [`Topology`], so a dead site's partitions are transparently served by
/// their backup owners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    live: Vec<SiteId>,
    coordinator: SiteId,
    owner_of: Vec<SiteId>,
}

impl Assignment {
    /// Assemble an assignment from an externally-computed owner map (the
    /// elastic [`Membership`](crate::membership::Membership) layer builds
    /// these from its replica map rather than from static placement).
    pub(crate) fn from_parts(
        live: Vec<SiteId>,
        coordinator: SiteId,
        owner_of: Vec<SiteId>,
    ) -> Assignment {
        Assignment { live, coordinator, owner_of }
    }

    /// The all-sites-up assignment (infallible: with no site down, every
    /// partition has its primary).
    #[expect(clippy::expect_used, reason = "with no site down every partition keeps its primary owner")]
    pub fn healthy(topology: &Topology) -> Assignment {
        topology
            .assignment(&FxHashSet::default())
            .expect("assignment with no down sites cannot fail")
    }

    /// Live sites, ascending.
    pub fn live_sites(&self) -> &[SiteId] {
        &self.live
    }

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

    /// Partitions served by `site` under this assignment.
    pub fn partitions_of(&self, site: SiteId) -> Vec<usize> {
        (0..self.owner_of.len()).filter(|&p| self.owner_of[p] == site).collect()
    }

    /// Route a key hash to the live site serving its partition.
    pub fn site_for_hash(&self, hash: u64) -> SiteId {
        self.owner_of[(hash % self.owner_of.len() as u64) as usize]
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

    #[test]
    fn placement_round_robin() {
        let t = Topology::with_partitions_per_site(4, 2);
        assert_eq!(t.num_partitions(), 8);
        assert_eq!(t.site_of_partition(0), SiteId(0));
        assert_eq!(t.site_of_partition(5), SiteId(1));
        assert_eq!(t.partitions_of_site(SiteId(1)), vec![1, 5]);
    }

    #[test]
    fn every_partition_has_owner_and_roundtrip() {
        let t = Topology::new(8);
        for p in 0..t.num_partitions() {
            let s = t.site_of_partition(p);
            assert!(t.partitions_of_site(s).contains(&p));
        }
    }

    #[test]
    fn hash_routing_in_range() {
        let t = Topology::new(4);
        let map = crate::Membership::from_topology(&t).snapshot();
        for h in [0u64, 1, 17, u64::MAX] {
            assert!(map.partition_of_hash(h) < t.num_partitions());
        }
    }

    #[test]
    #[should_panic]
    fn zero_sites_panics() {
        Topology::new(0);
    }

    #[test]
    fn backup_owners_round_robin() {
        let t = Topology::with_backups(4, 1);
        assert_eq!(t.owners_of_partition(0), vec![SiteId(0), SiteId(1)]);
        assert_eq!(t.owners_of_partition(3), vec![SiteId(3), SiteId(0)]);
        // Backups capped at n - 1.
        let t = Topology::with_backups(2, 5);
        assert_eq!(t.backups(), 1);
        assert_eq!(t.owners_of_partition(1), vec![SiteId(1), SiteId(0)]);
    }

    #[test]
    fn healthy_assignment_matches_primary_placement() {
        let t = Topology::with_backups(4, 1);
        let a = Assignment::healthy(&t);
        assert_eq!(a.coordinator(), SiteId(0));
        assert_eq!(a.live_sites().len(), 4);
        for p in 0..t.num_partitions() {
            assert_eq!(a.owner_of_partition(p), t.site_of_partition(p));
        }
        let map = crate::Membership::from_topology(&t).snapshot();
        for h in [0u64, 7, u64::MAX] {
            assert_eq!(a.site_for_hash(h), map.primary_of(map.partition_of_hash(h)));
        }
    }

    #[test]
    fn failover_substitutes_backup_owner() {
        let t = Topology::with_backups(4, 1);
        let down: FxHashSet<SiteId> = [SiteId(2)].into_iter().collect();
        let a = t.assignment(&down).unwrap();
        assert_eq!(a.live_sites(), &[SiteId(0), SiteId(1), SiteId(3)]);
        // Partition 2's primary (site2) is down; backup is site3.
        assert_eq!(a.owner_of_partition(2), SiteId(3));
        assert_eq!(a.partitions_of(SiteId(3)), vec![2, 3]);
        assert_eq!(a.partitions_of(SiteId(2)), Vec::<usize>::new());
    }

    #[test]
    fn failover_without_backups_loses_partition() {
        let t = Topology::new(4);
        let down: FxHashSet<SiteId> = [SiteId(2)].into_iter().collect();
        match t.assignment(&down) {
            Err(FailoverError::PartitionLost { partition, primary, replicas }) => {
                assert_eq!((partition, primary, replicas), (2, SiteId(2), 0));
            }
            other => panic!("expected PartitionLost, got {other:?}"),
        }
    }

    #[test]
    fn coordinator_fails_over() {
        let t = Topology::with_backups(3, 2);
        let down: FxHashSet<SiteId> = [SiteId(0)].into_iter().collect();
        let a = t.assignment(&down).unwrap();
        assert_eq!(a.coordinator(), SiteId(1));
        // All partitions still covered.
        for p in 0..t.num_partitions() {
            assert!(!down.contains(&a.owner_of_partition(p)));
        }
    }

    #[test]
    fn all_sites_down_is_an_error() {
        let t = Topology::with_backups(2, 1);
        let down: FxHashSet<SiteId> = t.sites().collect();
        assert_eq!(
            t.assignment(&down),
            Err(FailoverError::NoLiveSites { coordinator: t.coordinator() })
        );
    }
}
