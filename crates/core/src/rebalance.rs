//! Elastic topology control: one convergence pass steers every partition to
//! its target owners by chunked migration.
//!
//! The target is a function of membership alone. [`affinity`] ranks the
//! members for partition `p` (the ascending member list rotated to start at
//! index `p mod n`), and the first `target_backups + 1` live entries are
//! the owners the pass wants, primary first — the boot layout when every
//! boot site is up, and the same layout again once a failed site returns.
//! These `Cluster` methods are the only code that mutates the membership
//! replica map after boot, and [`Cluster::repair`]'s pass is the only code
//! that moves a partition copy: a join is `add_member` followed by the
//! pass, and a graceful leave is the pass run with the leaver *departing* —
//! left out of the ranking, so never a target — followed by
//! `remove_member` once no owner list names it. Every owner-list change
//! goes through one helper, `Cluster::set_owners`. Its
//! contract with the write path
//! (see `ic_storage::write`) is the *ownership stability invariant*: the
//! owner list of partition `p` never changes while `p`'s write guard is
//! held. The helper therefore takes the write guard of partition `p` on
//! **every** hash-partitioned table, in one [`write_set`], before it
//! installs a list. Bulk data movement happens *outside* the guards — a
//! copy ships the frozen snapshot chunk by stored chunk (one column frame
//! each) through the fault-injectable replication path while writes keep
//! flowing, then, under the guards,
//! catches up on exactly the chunks that writes committed in the meantime
//! replaced or added and installs every table's copy at once.
//!
//! Which copy to copy from or keep is the currency rule's,
//! [`Catalog::current_copy`](ic_storage::Catalog::current_copy), and nobody
//! else's: every move sources from a
//! *live current* copy, a copy at least as new as every owner's for every
//! table. A backup that confirmed every acknowledged write is current, while
//! a crashed-and-revived replica lags. With no live current copy the
//! partition waits until the site holding the newest copy returns — seeding
//! or promoting a stale copy is what would lose acknowledged writes — and
//! `set_owners` refuses any list that names no current copy, so no edit can
//! retire the newest one.

use crate::cluster::Cluster;
use ic_common::obs::{Counter, MetricsRegistry};
use ic_common::ColumnBatch;
use ic_net::wire::WireSize;
use ic_net::{affinity, NetError, SiteId};
use ic_storage::{write_set, TableData};
use std::sync::{Arc, OnceLock};

/// What one [`Cluster::repair`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Partitions whose primary changed: a live current owner took over
    /// from a dead, stale or departing one, or the target primary returned.
    pub promotions: usize,
    /// Copies made on sites that did not own the partition: re-replication,
    /// and a join's or a leave's moves.
    pub re_replicated: usize,
    /// Stale live owners (revived sites) copied current.
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

/// Membership control: promotion, re-replication, chunked migration, and
/// the joins and leaves built on them.
impl Cluster {
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
            self.network().replicate(src, dst, chunk.wire_size())?;
            m.chunks.inc();
            shipped = true;
        }
        if !shipped {
            self.network().replicate(src, dst, 64)?;
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
        let _set = write_set(tables, p..p + 1);
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

    /// The one owner-list edit: under every hash table's write guard of `p`,
    /// install `edit` of the current owner list and drop the replicas of
    /// the sites it no longer names. Refused, changing
    /// nothing, when the new list names no current copy of `p`
    /// ([`Catalog::current_copy`]). Returns whether a changed list was
    /// installed.
    fn set_owners(
        &self,
        tables: &[Arc<TableData>],
        p: usize,
        edit: impl FnOnce(&[SiteId]) -> Vec<SiteId>,
    ) -> bool {
        let _set = write_set(tables, p..p + 1);
        let membership = self.catalog().membership();
        let old = membership.snapshot().owners_of(p).to_vec();
        let new = edit(&old);
        if new == old || self.catalog().current_copy(p, tables, new.iter().copied()).is_none() {
            return false;
        }
        let gone: Vec<SiteId> = old.into_iter().filter(|s| !new.contains(s)).collect();
        membership.set_owners(p, new);
        for data in tables {
            gone.iter().for_each(|&s| data.drop_replica(p, s));
        }
        true
    }

    /// Run the one convergence pass, the only code that moves a partition
    /// copy: per partition, from a live current copy, copy current every
    /// live target owner (the first `backups + 1` live members of the
    /// partition's [`affinity`] ranking) that is not, then install the
    /// targets as the owner list, followed by any down owners. Once every
    /// target owner is live and current, the list is the target.
    /// Idempotent — a second pass on a healthy cluster is a no-op. Returns
    /// what was done.
    pub fn repair(&self) -> RepairReport {
        self.converge(None)
    }

    /// The pass, one rule per partition. `want` is the first
    /// `target_backups + 1` live entries of the partition's [`affinity`]
    /// ranking of the members other than `departing`. From a live current
    /// copy, every member of `want` that is not current is copied current;
    /// then one edit installs `want` followed by the old owners that are
    /// down and not departing (they may hold the newest copy). While some
    /// member of `want` is not current (a failed copy), the current old
    /// owners stay too, and the next pass retries. A partition with no live
    /// current copy is left alone.
    fn converge(&self, departing: Option<SiteId>) -> RepairReport {
        let mut report = RepairReport::default();
        let tables = self.catalog().hash_tables();
        let membership = self.catalog().membership();
        let down = self.network().down_sites();
        let map = membership.snapshot();
        let staying: Vec<SiteId> = map.members().iter().copied().filter(|&s| Some(s) != departing).collect();
        for p in 0..map.num_partitions() {
            let owners = membership.snapshot().owners_of(p).to_vec();
            let live: Vec<SiteId> = owners.iter().copied().filter(|s| !down.contains(s)).collect();
            if live.is_empty() {
                report.lost_partitions.push(p);
                continue;
            }
            let Some(src) = self.catalog().current_copy(p, &tables, live) else {
                continue;
            };
            let want: Vec<SiteId> = affinity(&staying, p)
                .filter(|s| !down.contains(s))
                .take(membership.target_backups() + 1)
                .collect();
            let current = |s: SiteId| self.catalog().current_copy(p, &tables, [s]).is_some();
            for &s in want.iter().filter(|&&s| !current(s)) {
                if self.copy_partition(&tables, p, src, s).is_err() {
                    continue;
                }
                if owners.contains(&s) {
                    report.resynced += 1;
                } else {
                    metrics().migrations.inc();
                    report.re_replicated += 1;
                }
            }
            let edit = |old: &[SiteId]| {
                let complete = want.iter().all(|&s| current(s));
                let keep = |s: SiteId| (down.contains(&s) && Some(s) != departing) || (!complete && current(s));
                let head: Vec<SiteId> = want.iter().copied().filter(|&s| current(s)).collect();
                let rest = old.iter().copied().filter(|s| !head.contains(s) && keep(*s));
                head.iter().copied().chain(rest).collect()
            };
            if self.set_owners(&tables, p, edit) && membership.snapshot().primary_of(p) != owners[0] {
                metrics().promotions.inc();
                report.promotions += 1;
            }
        }
        report
    }

    /// Admit a new site into the cluster: it becomes a member, and the pass
    /// copies onto it the partitions whose targets now name it, in
    /// chunk-sized transfers that run concurrently with queries and
    /// writes. Returns the number of replicas copied to new owners.
    pub fn join_site(&self, site: usize) -> usize {
        self.catalog().membership().add_member(SiteId(site));
        self.repair().re_replicated
    }

    /// Gracefully retire a site: the pass runs with it departing — left out
    /// of every partition's ranking, so its copies move to the targets of
    /// the other members — and it leaves membership once no owner list
    /// names it. A leaver holding the only newest copy of a partition
    /// stays a member, owning that partition, until a later leave can hand
    /// that copy off. Returns the number of replicas the pass copied.
    pub fn leave_site(&self, site: usize) -> usize {
        let site = SiteId(site);
        let report = self.converge(Some(site));
        let membership = self.catalog().membership();
        if membership.snapshot().partitions_hosted_by(site).is_empty() {
            membership.remove_member(site);
        }
        report.resynced + report.re_replicated
    }
}
