//! Per-partition, per-replica columnar storage.
//!
//! Each partition keeps one [`PartStore`] *per owner site* (primary +
//! backups), so a backup really holds the data it may be promoted to serve.
//! A store is an immutable snapshot: a list of dense column chunks stamped
//! with the partition version that produced it. Writers build a successor
//! store — copy-on-write at chunk granularity, every untouched chunk shared
//! by `Arc` — and swap it in under the partition's write lock, taken only
//! through [`write_set`]; readers clone the store and scan a frozen
//! snapshot, so a multi-row DML batch is visible all-or-nothing (no torn
//! reads) and scans never block writes.
//!
//! **Chunk invariants.** Every chunk is a dense [`ColumnBatch`] (no
//! selection vector) of `1..=BATCH_SIZE` rows; a partition's rows are its
//! chunks' rows in order. Scans hand the chunks out as they are, so these
//! are also the invariants of every batch a scan emits.

use crate::catalog::TableId;
use ic_common::hash::FxHashMap;
use ic_common::row::BATCH_SIZE;
use ic_common::sync::{RwLock, SetLock, WriteSet};
use ic_common::{ColumnBatch, DataType, Schema};
use ic_net::SiteId;
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

/// The stored form of a run of rows: dense chunks of at most `BATCH_SIZE`
/// rows each, shared by `Arc` between snapshots, replicas and scans.
pub type Chunks = Arc<Vec<Arc<ColumnBatch>>>;

/// One replica's frozen snapshot of a partition: its column chunks and the
/// partition version counter that produced them.
#[derive(Debug, Clone, Default)]
pub struct PartStore {
    version: u64,
    chunks: Chunks,
}

impl PartStore {
    /// Partition version: bumps once per committed write batch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshot's chunks, in row order.
    pub fn chunks(&self) -> &Chunks {
        &self.chunks
    }

    pub fn num_rows(&self) -> usize {
        self.chunks.iter().map(|c| c.num_rows()).sum()
    }

    /// Do both stores hold the very same snapshot (not merely equal rows)?
    fn same_snapshot(&self, other: &PartStore) -> bool {
        self.version == other.version && Arc::ptr_eq(&self.chunks, &other.chunks)
    }

    /// The successor snapshot (version + 1) holding `chunks`.
    pub(crate) fn succeed(&self, chunks: Vec<Arc<ColumnBatch>>) -> PartStore {
        debug_assert!(chunks
            .iter()
            .all(|c| c.selection().is_none() && (1..=BATCH_SIZE).contains(&c.num_rows())));
        PartStore { version: self.version + 1, chunks: Arc::new(chunks) }
    }
}

/// The one packer of the write path (bulk load, insert, upsert, `UPDATE`,
/// `DELETE`): builds a successor chunk list in row order, sharing the
/// chunks a write leaves alone and packing the rows it writes into fresh
/// chunks of the schema's types, one as soon as `BATCH_SIZE` rows are
/// pending — so runs of written rows coalesce, and no write holds more than
/// one partial chunk beyond the rows it was handed.
pub(crate) struct ChunkWriter<'a> {
    types: &'a [DataType],
    out: Vec<Arc<ColumnBatch>>,
    pending: Vec<ColumnBatch>,
    pending_rows: usize,
}

impl<'a> ChunkWriter<'a> {
    pub(crate) fn new(types: &'a [DataType]) -> ChunkWriter<'a> {
        ChunkWriter { types, out: Vec::new(), pending: Vec::new(), pending_rows: 0 }
    }

    /// A writer appending to `chunks`: every chunk is shared but a tail
    /// short of `BATCH_SIZE`, which is queued so pushed rows top it up.
    pub(crate) fn appending(types: &'a [DataType], chunks: &[Arc<ColumnBatch>]) -> ChunkWriter<'a> {
        let mut w = ChunkWriter::new(types);
        w.out = chunks.to_vec();
        if let Some(tail) = w.out.pop_if(|t| t.num_rows() < BATCH_SIZE) {
            w.push((*tail).clone());
        }
        w
    }

    /// Keep a stored chunk as it is, after whatever is pending.
    pub(crate) fn share(&mut self, chunk: &Arc<ColumnBatch>) {
        self.flush();
        self.out.push(chunk.clone());
    }

    /// Queue `rows` (a dense batch or a selection view) for packing.
    pub(crate) fn push(&mut self, mut rows: ColumnBatch) {
        while self.pending_rows + rows.num_rows() >= BATCH_SIZE {
            let (take, n) = (BATCH_SIZE - self.pending_rows, rows.num_rows());
            self.pending.push(rows.slice_logical(0, take));
            self.pending_rows = BATCH_SIZE;
            self.flush();
            rows = rows.slice_logical(take, n - take);
        }
        if rows.num_rows() > 0 {
            self.pending_rows += rows.num_rows();
            self.pending.push(rows);
        }
    }

    /// Pack what is pending into one chunk, so the next row starts another.
    pub(crate) fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.out.push(Arc::new(ColumnBatch::concat_as(self.types, &self.pending)));
        self.pending.clear();
        self.pending_rows = 0;
    }

    pub(crate) fn finish(mut self) -> Vec<Arc<ColumnBatch>> {
        self.flush();
        self.out
    }
}

/// One partition: its replica stores keyed by hosting site, plus the write
/// lock that serializes writers (readers never take it).
struct Partition {
    replicas: RwLock<FxHashMap<usize, PartStore>>,
    write_lock: SetLock,
}

impl Partition {
    fn hosted_on(sites: &[SiteId]) -> Partition {
        // One empty snapshot shared by every replica, so the first bulk
        // load finds them identical and packs once.
        let empty = PartStore::default();
        let replicas = sites.iter().map(|s| (s.0, empty.clone())).collect();
        Partition { replicas: RwLock::new(replicas), write_lock: SetLock::default() }
    }
}

/// The rows of one table, split into hash partitions (one partition for
/// replicated tables), each replicated onto its owner sites.
pub struct TableData {
    id: TableId,
    schema: Schema,
    partitions: Vec<Partition>,
}

/// The write locks of partitions `partitions` of every table of `tables`,
/// held until the returned set drops: the only way to take a partition's
/// write lock, and so the only code that holds two locks. It takes them in
/// (table id, partition) order, so two sets never wait on each other in a
/// cycle; leaf locks (a replica map, the membership, the network) may be
/// taken under it, and in debug builds taking it while the thread holds
/// any lock panics ([`ic_common::sync`]).
#[cfg_attr(debug_assertions, track_caller)]
pub fn write_set<T: Borrow<TableData>>(tables: &[T], partitions: Range<usize>) -> WriteSet<'_> {
    let mut locks: Vec<(TableId, usize, &SetLock)> = tables
        .iter()
        .map(Borrow::borrow)
        .flat_map(|t| partitions.clone().map(move |p| (t.id, p, t.write_lock(p))))
        .collect();
    locks.sort_by_key(|&(t, p, _)| (t, p));
    ic_common::sync::write_set(locks.into_iter().map(|(_, _, lock)| lock))
}

impl TableData {
    /// Table `id`'s layout, with each partition hosted on the given owner
    /// sites (primary first, then backups), as decided by the membership
    /// replica map.
    pub fn new_with_owners(id: TableId, schema: Schema, owners: &[Vec<SiteId>]) -> TableData {
        assert!(!owners.is_empty(), "a table needs at least one partition");
        TableData {
            id,
            schema,
            partitions: owners.iter().map(|sites| Partition::hosted_on(sites)).collect(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Bulk load: append `rows` — batches of the table's schema, each with
    /// the partition it routes to — to every replica, in order. A
    /// partition's replicas advance together, with no replication traffic
    /// simulated, and commit once; replicas at one snapshot share a packing.
    pub fn load(&self, rows: impl IntoIterator<Item = (usize, ColumnBatch)>) {
        let types = self.schema.types();
        let _set = write_set(std::slice::from_ref(self), 0..self.partitions.len());
        // Per partition, one writer per distinct replica snapshot.
        let mut writers: Vec<Vec<(PartStore, ChunkWriter)>> = Vec::new();
        for part in &self.partitions {
            let mut distinct: Vec<(PartStore, ChunkWriter)> = Vec::new();
            for store in part.replicas.read().values() {
                if !distinct.iter().any(|(from, _)| from.same_snapshot(store)) {
                    distinct.push((store.clone(), ChunkWriter::appending(&types, store.chunks())));
                }
            }
            writers.push(distinct);
        }
        let mut loaded = vec![false; writers.len()];
        for (p, batch) in rows {
            loaded[p] = true;
            writers[p].iter_mut().for_each(|(_, w)| w.push(batch.clone()));
        }
        for (p, distinct) in writers.into_iter().enumerate().filter(|&(p, _)| loaded[p]) {
            let packed: Vec<(PartStore, PartStore)> =
                distinct.into_iter().map(|(from, w)| (from.clone(), from.succeed(w.finish()))).collect();
            for store in self.partitions[p].replicas.write().values_mut() {
                if let Some((_, to)) = packed.iter().find(|(from, _)| from.same_snapshot(store)) {
                    *store = to.clone();
                }
            }
        }
    }

    /// The authoritative store of a partition: the highest-version replica
    /// (all replicas agree when the partition is healthy). Used by stats,
    /// ANALYZE's index refresh, and tests; the execution path reads a
    /// specific site's replica via [`replica`](Self::replica).
    pub fn store(&self, partition: usize) -> PartStore {
        let replicas = self.partitions[partition].replicas.read();
        replicas
            .values()
            .max_by_key(|s| s.version)
            .cloned()
            .unwrap_or_default()
    }

    /// The replica of `partition` hosted on `site`, if that site holds one.
    /// `None` means ownership moved (or is moving) — callers surface
    /// `RebalanceInProgress` and retry against a fresh assignment.
    pub fn replica(&self, partition: usize, site: SiteId) -> Option<PartStore> {
        self.partitions[partition].replicas.read().get(&site.0).cloned()
    }

    /// Does `site` hold a replica of `partition` at least as new as each of
    /// `owners`' (an owner without one counts as version 0)? Read under one
    /// lock, so a commit racing the check is seen whole or not at all. The
    /// per-table half of [`Catalog::current_copy`](crate::Catalog::current_copy).
    pub(crate) fn is_newest_on(&self, partition: usize, site: SiteId, owners: &[SiteId]) -> bool {
        let replicas = self.partitions[partition].replicas.read();
        let version = |s: &SiteId| replicas.get(&s.0).map_or(0, |r| r.version);
        replicas.get(&site.0).is_some_and(|own| owners.iter().all(|o| own.version >= version(o)))
    }

    /// Sites currently holding a replica of `partition`, ascending.
    pub fn replica_sites(&self, partition: usize) -> Vec<SiteId> {
        let mut sites: Vec<usize> =
            self.partitions[partition].replicas.read().keys().copied().collect();
        sites.sort_unstable();
        sites.into_iter().map(SiteId).collect()
    }

    /// Install (or overwrite) a replica of `partition` on `site` — the
    /// final step of re-replication and chunked migration.
    pub fn install_replica(&self, partition: usize, site: SiteId, store: PartStore) {
        self.partitions[partition].replicas.write().insert(site.0, store);
    }

    /// Drop `site`'s replica of `partition` (graceful leave / post-migration
    /// cleanup).
    pub fn drop_replica(&self, partition: usize, site: SiteId) {
        self.partitions[partition].replicas.write().remove(&site.0);
    }

    /// The lock that serializes writers of `partition`, for [`write_set`]
    /// alone. Readers never take it; they snapshot whatever store is
    /// committed.
    fn write_lock(&self, partition: usize) -> &SetLock {
        &self.partitions[partition].write_lock
    }

    /// Commit a new store to the listed replica sites of `partition`,
    /// provided every one of them is still at `expected_version` (the
    /// version the write was prepared against). On a mismatch nothing is
    /// changed and the diverging version is returned. Callers must hold the
    /// partition's lock in a [`write_set`].
    pub fn commit(
        &self,
        partition: usize,
        sites: &[SiteId],
        expected_version: u64,
        store: PartStore,
    ) -> Result<(), u64> {
        let mut replicas = self.partitions[partition].replicas.write();
        for s in sites {
            match replicas.get(&s.0) {
                Some(r) if r.version == expected_version => {}
                Some(r) => return Err(r.version),
                // A replica vanished mid-write: ownership moved. Report the
                // new store's version as "found" so the caller retries.
                None => return Err(store.version),
            }
        }
        for s in sites {
            replicas.insert(s.0, store.clone());
        }
        Ok(())
    }

    /// Total rows across all partitions (authoritative replicas).
    pub fn total_rows(&self) -> usize {
        (0..self.partitions.len()).map(|p| self.store(p).num_rows()).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ic_common::{DataType, Datum, Field, Row};

    /// A table of `partitions` partitions, each one copy on site 0.
    pub(crate) fn on_one_site(partitions: usize, schema: Schema) -> TableData {
        TableData::new_with_owners(TableId(0), schema, &vec![vec![SiteId(0)]; partitions])
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    fn ints(vals: impl IntoIterator<Item = i64>) -> [ColumnBatch; 1] {
        let rows: Vec<Row> = vals.into_iter().map(|i| Row(vec![Datum::Int(i)])).collect();
        [ColumnBatch::from_typed_rows(&[DataType::Int], &rows)]
    }

    fn rows_of(store: &PartStore) -> Vec<Row> {
        store.chunks().iter().flat_map(|c| c.to_rows()).collect()
    }

    #[test]
    fn insert_and_scan() {
        let t = on_one_site(2, schema());
        t.load(ints([1]).map(|b| (0, b)));
        t.load(ints([2, 3]).map(|b| (1, b)));
        assert_eq!(t.total_rows(), 3);
        assert_eq!(t.store(0).num_rows(), 1);
        assert_eq!(rows_of(&t.store(1)), vec![Row(vec![Datum::Int(2)]), Row(vec![Datum::Int(3)])]);
    }

    #[test]
    fn snapshot_isolated_from_later_inserts() {
        let t = on_one_site(1, schema());
        t.load(ints([1]).map(|b| (0, b)));
        let snap = t.store(0);
        t.load(ints([2]).map(|b| (0, b)));
        assert_eq!(snap.num_rows(), 1);
        assert_eq!(t.store(0).num_rows(), 2);
    }

    #[test]
    fn bulk_load_packs_full_chunks_and_tops_up_the_tail() {
        let t = on_one_site(1, schema());
        t.load(ints(0..BATCH_SIZE as i64 + 10).map(|b| (0, b)));
        let first = t.store(0);
        t.load(ints(0..2 * BATCH_SIZE as i64).map(|b| (0, b)));
        let second = t.store(0);
        let sizes: Vec<usize> = second.chunks().iter().map(|c| c.num_rows()).collect();
        assert_eq!(sizes, vec![BATCH_SIZE, BATCH_SIZE, BATCH_SIZE, 10]);
        // The full head chunk is shared; only the tail was rebuilt.
        assert!(Arc::ptr_eq(&first.chunks()[0], &second.chunks()[0]));
        assert!(!Arc::ptr_eq(&first.chunks()[1], &second.chunks()[1]));
        assert_eq!(first.num_rows(), BATCH_SIZE + 10, "the old snapshot is untouched");
    }

    /// Pushed pieces coalesce into full chunks of the schema's types, and
    /// a shared chunk closes the partial one before it.
    #[test]
    fn chunk_writer_coalesces_pushes_and_keeps_shared_chunks() {
        let types = [DataType::Str];
        let nulls = ColumnBatch::from_typed_rows(&types, &[Row(vec![Datum::Null])]);
        let untyped = ColumnBatch::new(vec![Arc::new(ic_common::Column::repeat(&Datum::Null, 700))], 700);
        let kept = Arc::new(nulls.clone());
        let mut w = ChunkWriter::new(&types);
        w.push(untyped.clone());
        w.push(untyped);
        w.share(&kept);
        w.push(nulls);
        let out = w.finish();
        let sizes: Vec<usize> = out.iter().map(|c| c.num_rows()).collect();
        assert_eq!(sizes, vec![BATCH_SIZE, 1400 - BATCH_SIZE, 1, 1]);
        assert!(Arc::ptr_eq(&out[2], &kept));
        assert!(out.iter().all(|c| c.col(0).data_type() == DataType::Str));
    }

    #[test]
    fn concurrent_scans() {
        let t = Arc::new(on_one_site(4, schema()));
        for p in 0..4 {
            t.load(ints(0..100).map(|b| (p, b)));
        }
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || t.store(i % 4).num_rows())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }

    #[test]
    fn replicas_advance_together_on_bulk_load() {
        let t = TableData::new_with_owners(TableId(0), schema(), &[vec![SiteId(0), SiteId(1)]]);
        t.load(ints([7]).map(|b| (0, b)));
        let primary = t.replica(0, SiteId(0)).unwrap();
        let backup = t.replica(0, SiteId(1)).unwrap();
        assert_eq!(primary.version(), 1);
        assert_eq!(backup.version(), 1);
        assert_eq!(primary.num_rows(), 1);
        // Packed once: both replicas hold the same chunks, not copies.
        assert!(Arc::ptr_eq(primary.chunks(), backup.chunks()));
        assert!(t.replica(0, SiteId(2)).is_none());
        assert_eq!(t.replica_sites(0), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn commit_is_version_checked() {
        let t = TableData::new_with_owners(TableId(0), schema(), &[vec![SiteId(0), SiteId(1)]]);
        t.load(ints([1]).map(|b| (0, b)));
        let base = t.replica(0, SiteId(0)).unwrap();
        let types = [DataType::Int];
        let mut w = ChunkWriter::appending(&types, base.chunks());
        w.push(ints([2])[0].clone());
        let next = base.succeed(w.finish());
        let sites = [SiteId(0), SiteId(1)];
        let _set = write_set(std::slice::from_ref(&t), 0..1);
        assert_eq!(t.commit(0, &sites, base.version(), next.clone()), Ok(()));
        assert_eq!(t.replica(0, SiteId(1)).unwrap().version(), base.version() + 1);
        // Committing against the stale base version is refused.
        assert_eq!(t.commit(0, &sites, base.version(), next.clone()), Err(base.version() + 1));
    }

    #[test]
    fn install_and_drop_replica() {
        let t = TableData::new_with_owners(TableId(0), schema(), &[vec![SiteId(0)]]);
        t.load(ints([1]).map(|b| (0, b)));
        let copy = t.replica(0, SiteId(0)).unwrap();
        t.install_replica(0, SiteId(3), copy);
        assert_eq!(t.replica_sites(0), vec![SiteId(0), SiteId(3)]);
        assert_eq!(t.replica(0, SiteId(3)).unwrap().num_rows(), 1);
        t.drop_replica(0, SiteId(0));
        assert_eq!(t.replica_sites(0), vec![SiteId(3)]);
        // The surviving replica is now the authoritative store.
        assert_eq!(t.store(0).num_rows(), 1);
    }
}
