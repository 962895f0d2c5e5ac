//! Elastic topology control: one convergence pass that promotes,
//! re-replicates, hands off and balances partition copies by chunked
//! migration.
//!
//! The controller is the only component that mutates the membership replica
//! map after boot, and [`RebalanceController::repair`]'s pass is the only
//! code that moves a partition copy: a join is `add_member` followed by the
//! pass, and a graceful leave is the pass run with the leaver *departing* —
//! never a destination, never counted toward the replication factor, its
//! copies handed off — followed by `remove_member` once no owner list names
//! it. Every owner-list change goes through one helper,
//! `RebalanceController::set_owners`. Its contract with the write path
//! (see `ic_storage::write`) is the *ownership stability invariant*: the
//! owner list of partition `p` never changes while `p`'s write guard is
//! held. The helper therefore takes the write guard of partition `p` on
//! **every** hash-partitioned table (in table-id order, so multi-guard
//! acquisition is cycle-free) before it installs a list. Bulk data movement
//! happens *outside* the guards — a copy ships the frozen snapshot chunk by
//! stored chunk (one column frame each) through the fault-injectable
//! replication path while writes keep flowing, then, under the guards,
//! catches up on exactly the chunks that writes committed in the meantime
//! replaced or added and installs every table's copy at once.
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

use ic_common::hash::FxHashSet;
use ic_common::obs::{Counter, MetricsRegistry};
use ic_common::ColumnBatch;
use ic_net::wire::WireSize;
use ic_net::{NetError, Network, ReplicaMap, SiteId};
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
    /// Replicas moved from the most-loaded member to one below its share
    /// of owner slots (a newcomer, after a join).
    pub balanced: usize,
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

/// The member hosting the fewest replicas among those `eligible` admits,
/// lowest id on ties.
fn least_loaded(map: &ReplicaMap, eligible: impl Fn(SiteId) -> bool) -> Option<SiteId> {
    let members = map.members().iter().copied().filter(|&s| eligible(s));
    members.min_by_key(|&s| (map.partitions_hosted_by(s).len(), s))
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

    /// Copy partition `p` of every table from `src` to `dst`: bulk copy of
    /// frozen snapshots first (writes keep flowing), then catch-up and
    /// install under every table's write guard, so the installed copy is
    /// exactly current the moment it becomes visible, and a failed copy
    /// installs nothing.
    fn copy_partition(&self, tables: &[Arc<TableData>], p: usize, src: SiteId, dst: SiteId) -> Result<(), NetError> {
        let bulk: Vec<_> = tables.iter().map(|d| d.replica(p, src).unwrap_or_default()).collect();
        for store in &bulk {
            self.ship_chunks(src, dst, store.chunks().iter())?;
        }
        // Writes are copy-on-write per chunk, so what committed since the
        // snapshot is exactly the chunks of the current store that the bulk
        // copy did not hold.
        let _guards: Vec<_> = tables.iter().map(|d| d.write_guard(p)).collect();
        let mut current = Vec::with_capacity(tables.len());
        for (data, bulk) in tables.iter().zip(&bulk) {
            let store = data.replica(p, src).unwrap_or_default();
            if store.version() != bulk.version() {
                let held = |c: &&Arc<ColumnBatch>| bulk.chunks().iter().any(|b| Arc::ptr_eq(b, c));
                self.ship_chunks(src, dst, store.chunks().iter().filter(|c| !held(c)))?;
            }
            current.push(store);
        }
        tables.iter().zip(current).for_each(|(data, store)| data.install_replica(p, dst, store));
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

    /// One convergence pass, the only code that moves a partition copy.
    /// Idempotent — a second pass on a healthy cluster is a no-op. Returns
    /// what was done.
    pub fn repair(&self) -> RepairReport {
        self.converge(None)
    }

    /// The pass. Per partition, from a live current copy: promote it over
    /// a dead or stale primary, catch up stale live replicas, re-replicate
    /// to `target_backups + 1` live copies, and hand `departing`'s copy
    /// off; a partition with no live current copy is left alone. Then
    /// balance owner slots across the members. `departing` is never a
    /// destination and never counts toward the replication factor.
    fn converge(&self, departing: Option<SiteId>) -> RepairReport {
        let mut report = RepairReport::default();
        let tables = self.catalog.hash_tables();
        let membership = self.catalog.membership();
        let down = self.network.down_sites();
        let target = membership.target_backups() + 1;
        let staying = |s: SiteId| !down.contains(&s) && Some(s) != departing;
        for p in 0..membership.snapshot().num_partitions() {
            let owners = membership.snapshot().owners_of(p).to_vec();
            let live: Vec<SiteId> =
                owners.iter().copied().filter(|s| !down.contains(s)).collect();
            if live.is_empty() {
                report.lost_partitions.push(p);
                continue;
            }
            // 1. Source: the primary when it is live, staying and current,
            //    else the lowest-id such owner, else a live current copy on
            //    the departing site (the survivors may be stale revived
            //    backups). Promotion moves it to the front.
            let staying_owners = live.iter().copied().filter(|&s| staying(s));
            let src = self
                .catalog
                .current_copy(p, &tables, Some(owners[0]).filter(|&s| staying(s)))
                .or_else(|| self.catalog.current_copy(p, &tables, staying_owners))
                .or_else(|| self.catalog.current_copy(p, &tables, live.iter().copied()));
            if let Some(src) = src {
                let to_front = |o: &[SiteId]| {
                    std::iter::once(src).chain(o.iter().copied().filter(|&s| s != src)).collect()
                };
                if src != owners[0] && self.set_owners(&tables, p, to_front) {
                    metrics().promotions.inc();
                    report.promotions += 1;
                }
                // 2. Re-sync: a live owner that missed writes while it was
                //    down is copied current. When the copy fails (a fault
                //    mid-transfer) it leaves the owner list instead, so
                //    reads never route to it; re-replication tops up.
                for s in live.iter().copied().filter(|&s| s != src && staying(s)) {
                    if self.catalog.current_copy(p, &tables, [s]).is_some() {
                        continue;
                    }
                    if self.copy_partition(&tables, p, src, s).is_ok() {
                        report.resynced += 1;
                    } else {
                        self.set_owners(&tables, p, |o| o.iter().copied().filter(|&o| o != s).collect());
                    }
                }
                // 3. Re-replication: bring the partition back to `target`
                //    live, staying copies on the least-loaded members.
                loop {
                    let map = membership.snapshot();
                    let owners = map.owners_of(p);
                    if owners.iter().filter(|&&s| staying(s)).count() >= target {
                        break;
                    }
                    let Some(c) = least_loaded(&map, |s| staying(s) && !owners.contains(&s)) else {
                        break;
                    };
                    if self.copy_partition(&tables, p, src, c).is_err()
                        || !self.set_owners(&tables, p, |o| [o, &[c]].concat())
                    {
                        break;
                    }
                    metrics().migrations.inc();
                    report.re_replicated += 1;
                }
            }
            // 4. Hand-off: drop the departing site, a current serving copy
            //    first. Refused while the leaver holds the only newest copy.
            if let Some(gone) = departing.filter(|g| membership.snapshot().owners_of(p).contains(g)) {
                self.set_owners(&tables, p, |o| {
                    let rest = o.iter().copied().filter(|&s| s != gone);
                    let live_rest = rest.clone().filter(|s| !down.contains(s));
                    let head = self.catalog.current_copy(p, &tables, live_rest);
                    head.into_iter().chain(rest.filter(|&s| Some(s) != head)).collect()
                });
            }
        }
        report.balanced = self.balance(&tables, &down, departing);
        report
    }

    /// Move replicas, one at a time, from the most-loaded staying member to
    /// the least-loaded one below its floor share of owner slots, each
    /// copied from a live current copy and swapped in by one owner-list
    /// edit. The donor holds at least two more replicas than the target,
    /// so every move narrows the spread and the loop ends; a balanced
    /// cluster moves nothing. Returns the moves made.
    fn balance(&self, tables: &[Arc<TableData>], down: &FxHashSet<SiteId>, departing: Option<SiteId>) -> usize {
        let membership = self.catalog.membership();
        let staying = |s: SiteId| !down.contains(&s) && Some(s) != departing;
        let mut moves = 0usize;
        loop {
            let map = membership.snapshot();
            let load = |s: SiteId| map.partitions_hosted_by(s).len();
            let members = map.members().iter().filter(|&&s| Some(s) != departing).count();
            let slots: usize = (0..map.num_partitions()).map(|p| map.owners_of(p).len()).sum();
            let share = slots / members.max(1);
            let Some(to) = least_loaded(&map, |s| staying(s) && load(s) < share) else {
                break;
            };
            let donors = map.members().iter().copied().filter(|&s| staying(s) && load(s) >= load(to) + 2);
            let Some(from) = donors.max_by_key(|&s| (load(s), std::cmp::Reverse(s))) else {
                break;
            };
            let owns = |p: usize, s: SiteId| map.owners_of(p).contains(&s);
            let Some(p) = (0..map.num_partitions()).find(|&p| owns(p, from) && !owns(p, to)) else {
                break;
            };
            let live = map.owners_of(p).iter().copied().filter(|s| !down.contains(s));
            let Some(src) = self.catalog.current_copy(p, tables, live) else {
                break;
            };
            let swap = |o: &[SiteId]| o.iter().map(|&s| if s == from { to } else { s }).collect();
            if self.copy_partition(tables, p, src, to).is_err() || !self.set_owners(tables, p, swap) {
                break;
            }
            metrics().migrations.inc();
            moves += 1;
        }
        moves
    }

    /// Admit a new site: it becomes a member, and the pass's balance phase
    /// migrates replicas onto it until it reaches its floor share, in
    /// chunk-sized transfers that run concurrently with queries and
    /// writes. Returns the number of replicas migrated.
    pub fn join_site(&self, site: SiteId) -> usize {
        self.catalog.membership().add_member(site);
        self.repair().balanced
    }

    /// Gracefully retire a site: the pass runs with it departing, handing
    /// its copies off, and it leaves membership once no owner list names
    /// it. A leaver holding the only newest copy it cannot hand off stays
    /// a member, owning that partition, and a later leave can retry.
    /// Returns the number of replicas the pass copied.
    pub fn leave_site(&self, site: SiteId) -> usize {
        let report = self.converge(Some(site));
        let membership = self.catalog.membership();
        if membership.snapshot().partitions_hosted_by(site).is_empty() {
            membership.remove_member(site);
        }
        report.resynced + report.re_replicated + report.balanced
    }
}
