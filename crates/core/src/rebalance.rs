//! Elastic topology control: promotion, re-replication, and chunked
//! partition migration.
//!
//! The controller is the only component that mutates the membership replica
//! map after boot, and every owner-list change goes through one helper,
//! `RebalanceController::set_owners`. Its contract with the write path
//! (see `ic_storage::write`) is the *ownership stability invariant*: the
//! owner list of partition `p` never changes while `p`'s write guard is
//! held. The helper therefore takes the write guard of partition `p` on
//! **every** hash-partitioned table (in table-id order, so multi-guard
//! acquisition is cycle-free) before it installs a list. Bulk data movement
//! happens *outside* the guards — a copy ships the frozen snapshot chunk by
//! stored chunk (one column frame each) through the fault-injectable
//! replication path while writes keep flowing, then, per table under its
//! guard, catches up on exactly the chunks that writes committed in the
//! meantime replaced or added.
//!
//! Which copy to promote, copy from or keep is the currency rule's,
//! [`Catalog::current_copy`], and nobody else's: every move sources from a
//! *live current* copy, a copy at least as new as every owner's for every
//! table. A backup that confirmed every acknowledged write is current, while
//! a crashed-and-revived replica lags. With no live current copy the
//! partition waits until the site holding the newest copy returns — seeding
//! or promoting a stale copy is what would lose acknowledged writes — and
//! `set_owners` refuses any list that names no current copy, so no edit can
//! retire the newest one.

use ic_common::obs::{Counter, MetricsRegistry};
use ic_common::ColumnBatch;
use ic_net::wire::WireSize;
use ic_net::{NetError, Network, SiteId};
use ic_storage::{Catalog, TableData};
use std::sync::{Arc, OnceLock};

/// What one [`RebalanceController::repair`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Partitions whose primary was dead or stale and a live current owner
    /// took over.
    pub promotions: usize,
    /// New backup copies created to return partitions to the target
    /// replication factor.
    pub re_replicated: usize,
    /// Stale live replicas (revived sites) caught up to the primary.
    pub resynced: usize,
    /// Partitions with no live owner at all — unrecoverable until a site
    /// holding a copy revives.
    pub lost_partitions: Vec<usize>,
}

struct RebalanceMetrics {
    promotions: Arc<Counter>,
    migrations: Arc<Counter>,
    chunks: Arc<Counter>,
}

fn metrics() -> &'static RebalanceMetrics {
    static METRICS: OnceLock<RebalanceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = MetricsRegistry::global();
        RebalanceMetrics {
            promotions: reg.counter("core.rebalance.promotions"),
            migrations: reg.counter("core.rebalance.migrations"),
            chunks: reg.counter("core.rebalance.chunks"),
        }
    })
}

/// The membership/rebalance controller of one cluster.
pub struct RebalanceController {
    catalog: Arc<Catalog>,
    network: Arc<Network>,
}

impl RebalanceController {
    pub fn new(catalog: Arc<Catalog>, network: Arc<Network>) -> RebalanceController {
        RebalanceController { catalog, network }
    }

    /// Ship stored chunks from `src` to `dst`, one column frame
    /// (`encode_columns` size) per chunk, through the fault-injectable
    /// replication path. Shipping nothing still costs one control frame.
    /// Any link/site fault aborts the transfer.
    fn ship_chunks<'a>(
        &self,
        src: SiteId,
        dst: SiteId,
        chunks: impl Iterator<Item = &'a Arc<ColumnBatch>>,
    ) -> Result<(), NetError> {
        let m = metrics();
        let mut shipped = false;
        for chunk in chunks {
            self.network.replicate(src, dst, chunk.wire_size())?;
            m.chunks.inc();
            shipped = true;
        }
        if !shipped {
            self.network.replicate(src, dst, 64)?;
            m.chunks.inc();
        }
        Ok(())
    }

    /// Copy partition `p` of every table from `src` to `dst`: bulk copy of a
    /// frozen snapshot first (writes keep flowing), then per-table catch-up
    /// and install under the write guard, so the installed replica is exactly
    /// current the moment it becomes visible.
    fn copy_partition(&self, tables: &[Arc<TableData>], p: usize, src: SiteId, dst: SiteId) -> Result<(), NetError> {
        for data in tables {
            // Phase A — bulk ship the current frozen snapshot, unguarded.
            let bulk = data.replica(p, src).unwrap_or_default();
            self.ship_chunks(src, dst, bulk.chunks().iter())?;
            // Phase B — brief guarded catch-up: writes are copy-on-write per
            // chunk, so what committed since the snapshot is exactly the
            // chunks of the current store that the bulk copy did not hold.
            // Ship those, then install the exact current store.
            let _g = data.write_guard(p);
            let current = data.replica(p, src).unwrap_or_default();
            if current.version() != bulk.version() {
                let delta = current
                    .chunks()
                    .iter()
                    .filter(|c| !bulk.chunks().iter().any(|b| Arc::ptr_eq(b, c)));
                self.ship_chunks(src, dst, delta)?;
            }
            data.install_replica(p, dst, current);
        }
        Ok(())
    }

    /// The one owner-list edit: under every hash table's write guard of `p`
    /// (table-id order), install `edit` of the current owner list and drop
    /// the replicas of the sites it no longer names. Refused, changing
    /// nothing, when the new list names no current copy of `p`
    /// ([`Catalog::current_copy`]). Returns whether the list was installed.
    fn set_owners(
        &self,
        tables: &[Arc<TableData>],
        p: usize,
        edit: impl FnOnce(&[SiteId]) -> Vec<SiteId>,
    ) -> bool {
        let _guards: Vec<_> = tables.iter().map(|d| d.write_guard(p)).collect();
        let membership = self.catalog.membership();
        let old = membership.snapshot().owners_of(p).to_vec();
        let new = edit(&old);
        if self.catalog.current_copy(p, tables, new.iter().copied()).is_none() {
            return false;
        }
        let gone: Vec<SiteId> = old.into_iter().filter(|s| !new.contains(s)).collect();
        membership.set_owners(p, new);
        for data in tables {
            gone.iter().for_each(|&s| data.drop_replica(p, s));
        }
        true
    }

    /// One repair pass: promote a live current owner over a dead or stale
    /// primary, catch up stale live replicas, and re-replicate partitions
    /// below the target replication factor — all from that current copy. A
    /// partition with no live current copy is left alone. Idempotent — a
    /// second pass on a healthy cluster is a no-op. Returns what was done.
    pub fn repair(&self) -> RepairReport {
        let mut report = RepairReport::default();
        let tables = self.catalog.hash_tables();
        let membership = self.catalog.membership();
        let down = self.network.down_sites();
        let target = membership.target_backups() + 1;
        for p in 0..membership.snapshot().num_partitions() {
            let owners = membership.snapshot().owners_of(p).to_vec();
            let live: Vec<SiteId> =
                owners.iter().copied().filter(|s| !down.contains(s)).collect();
            if live.is_empty() {
                report.lost_partitions.push(p);
                continue;
            }
            // 1. Promotion: the source of every move below is the primary
            //    when it is live and current, else the lowest-id live
            //    current owner, moved to the front.
            let primary = Some(owners[0]).filter(|s| !down.contains(s));
            let Some(src) = self
                .catalog
                .current_copy(p, &tables, primary)
                .or_else(|| self.catalog.current_copy(p, &tables, live.iter().copied()))
            else {
                continue;
            };
            let to_front = |o: &[SiteId]| {
                std::iter::once(src).chain(o.iter().copied().filter(|&s| s != src)).collect()
            };
            if src != owners[0] && self.set_owners(&tables, p, to_front) {
                metrics().promotions.inc();
                report.promotions += 1;
            }
            // 2. Re-sync: a live owner that missed writes while it was down
            //    is copied current. When the copy fails (a fault
            //    mid-transfer) it leaves the owner list instead, so reads
            //    never route to it; re-replication tops the partition up.
            for s in live.iter().copied().filter(|&s| s != src) {
                if self.catalog.current_copy(p, &tables, [s]).is_some() {
                    continue;
                }
                if self.copy_partition(&tables, p, src, s).is_ok() {
                    report.resynced += 1;
                } else {
                    self.set_owners(&tables, p, |o| o.iter().copied().filter(|&o| o != s).collect());
                }
            }
            // 3. Re-replication: bring the partition back to
            //    target_backups + 1 live copies on the least-loaded members.
            loop {
                let map = membership.snapshot();
                let owners = map.owners_of(p);
                if owners.iter().filter(|s| !down.contains(s)).count() >= target {
                    break;
                }
                let Some(candidate) = self.least_loaded_candidate(&map, owners, &down) else {
                    break;
                };
                if self.copy_partition(&tables, p, src, candidate).is_err()
                    || !self.set_owners(&tables, p, |o| [o, &[candidate]].concat())
                {
                    break;
                }
                metrics().migrations.inc();
                report.re_replicated += 1;
            }
        }
        report
    }

    /// The live member hosting the fewest replicas that does not already own
    /// a copy of the partition.
    fn least_loaded_candidate(
        &self,
        map: &ic_net::ReplicaMap,
        owners: &[SiteId],
        down: &ic_common::hash::FxHashSet<SiteId>,
    ) -> Option<SiteId> {
        map.members()
            .iter()
            .copied()
            .filter(|s| !down.contains(s) && !owners.contains(s))
            .min_by_key(|&s| (map.partitions_hosted_by(s).len(), s))
    }

    /// Admit a new site and migrate partition replicas onto it until its
    /// load reaches the cluster average, in chunk-sized transfers that run
    /// concurrently with queries and writes. Returns the number of replicas
    /// migrated.
    pub fn join_site(&self, site: SiteId) -> usize {
        let membership = self.catalog.membership();
        membership.add_member(site);
        let tables = self.catalog.hash_tables();
        let down = self.network.down_sites();
        let mut migrated = 0usize;
        loop {
            let map = membership.snapshot();
            let members = map.members().len().max(1);
            let total_slots: usize =
                (0..map.num_partitions()).map(|p| map.owners_of(p).len()).sum();
            let fair_share = total_slots / members;
            let my_load = map.partitions_hosted_by(site).len();
            if my_load >= fair_share {
                break;
            }
            // Donor: the most-loaded live member; move one of its replicas
            // (a partition the joiner does not already host) to the joiner.
            let Some((donor, p)) = map
                .members()
                .iter()
                .copied()
                .filter(|&s| s != site && !down.contains(&s))
                .map(|s| (map.partitions_hosted_by(s).len(), s))
                .filter(|&(load, _)| load > my_load)
                .max_by_key(|&(load, s)| (load, std::cmp::Reverse(s)))
                .and_then(|(_, donor)| {
                    (0..map.num_partitions())
                        .find(|&p| {
                            map.owners_of(p).contains(&donor)
                                && !map.owners_of(p).contains(&site)
                        })
                        .map(|p| (donor, p))
                })
            else {
                break;
            };
            // Source the copy from a live current copy; the flip drops the
            // donor's replica, and `set_owners` refuses it if that would
            // leave no current copy (a write the copy missed).
            let live = map.owners_of(p).iter().copied().filter(|s| !down.contains(s));
            let Some(src) = self.catalog.current_copy(p, &tables, live) else {
                break;
            };
            let swap = |o: &[SiteId]| o.iter().map(|&s| if s == donor { site } else { s }).collect();
            if self.copy_partition(&tables, p, src, site).is_err() || !self.set_owners(&tables, p, swap) {
                break;
            }
            metrics().migrations.inc();
            migrated += 1;
        }
        migrated
    }

    /// Gracefully retire a site: promote away its primaries, re-replicate
    /// its copies onto the remaining members, then remove it from the
    /// cluster and drop its replicas. Returns the number of partitions that
    /// had to move data.
    pub fn leave_site(&self, site: SiteId) -> usize {
        let membership = self.catalog.membership();
        let tables = self.catalog.hash_tables();
        let down = self.network.down_sites();
        let mut moved = 0usize;
        let mut clean = true;
        let hosted = membership.snapshot().partitions_hosted_by(site);
        for p in hosted {
            let map = membership.snapshot();
            let owners = map.owners_of(p);
            let survivors: Vec<SiteId> =
                owners.iter().copied().filter(|&s| s != site && !down.contains(&s)).collect();
            // The hand-off source: a live current copy, the leaver's own
            // included (a survivor can be a stale revived backup). Catch
            // every survivor up from it before the leaver's copy goes. A
            // failed catch-up, or a down leaver holding the newest copy,
            // leaves the new list without a current copy: the edit below is
            // refused and the leaver keeps its replica until it can hand off.
            let live = owners.iter().copied().filter(|s| !down.contains(s));
            let src = self.catalog.current_copy(p, &tables, live);
            if let Some(src) = src {
                for &s in &survivors {
                    if self.catalog.current_copy(p, &tables, [s]).is_none() {
                        let _ = self.copy_partition(&tables, p, src, s);
                    }
                }
            }
            // The departing site may hold the only live copy: hand it to the
            // least-loaded member first. With nowhere to put it, keep the
            // site's copy and its owner slot so the data stays reachable.
            let mut replacement = None;
            if survivors.is_empty() {
                match (src, self.least_loaded_candidate(&map, owners, &down)) {
                    (Some(src), Some(c)) if self.copy_partition(&tables, p, src, c).is_ok() => {
                        moved += 1;
                        metrics().migrations.inc();
                        replacement = Some(c);
                    }
                    _ => {
                        clean = false;
                        continue;
                    }
                }
            }
            let handed_off = |o: &[SiteId]| {
                o.iter().copied().filter(|&s| s != site).chain(replacement).collect()
            };
            clean &= self.set_owners(&tables, p, handed_off);
        }
        // Complete the departure only if every hosted partition was handed
        // off; otherwise the site stays a member (still owning the partitions
        // that could not move) so no owner list points at scrubbed data, and
        // a later leave can retry.
        if clean {
            membership.remove_member(site);
        }
        // Top the cluster back up to the target replication factor.
        let report = self.repair();
        moved + report.re_replicated
    }
}
