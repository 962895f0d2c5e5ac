//! Table and index metadata — Ignite's schema registry.

use crate::index::Index;
use crate::stats::TableStats;
use crate::table::{PartStore, TableData};
use crate::write::split;
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, IcError, IcResult, Row, Schema};
use ic_common::hash::FxHashMap;
use ic_common::sync::RwLock;
use ic_net::{Membership, SiteId};
use std::fmt;
use std::sync::Arc;

/// Stable table identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Stable index identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub usize);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How a table's rows are placed across sites — Ignite's cache modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableDistribution {
    /// Hash-partitioned on the given key columns (partitioned cache mode;
    /// the cluster's `backups` setting controls how many replica copies
    /// each partition keeps on other sites — the paper benchmarks zero).
    HashPartitioned { key_cols: Vec<usize> },
    /// Full copy on every site (replicated cache mode).
    Replicated,
}

/// A table definition.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    /// Primary-key column positions.
    pub primary_key: Vec<usize>,
    pub distribution: TableDistribution,
}

/// A secondary-index definition. Indexes are sorted on `columns` and give
/// scans a *collation* trait the planner can exploit (the paper's Q14 sort
/// order discussion, §6.2.1).
#[derive(Debug, Clone)]
pub struct IndexDef {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub columns: Vec<usize>,
}

struct TableEntry {
    /// Shared: a definition never changes once created, and every write
    /// attempt and plan reads it.
    def: Arc<TableDef>,
    data: Arc<TableData>,
    stats: Arc<TableStats>,
    indexes: Vec<IndexId>,
    /// See [`Catalog::plan_generation`].
    plan_generation: u64,
    /// `stats.row_count` when `plan_generation` last moved.
    planned_rows: u64,
}

impl TableEntry {
    /// Plans made for this table before now may no longer be the ones the
    /// planner would choose.
    fn bump_plan_generation(&mut self) {
        self.plan_generation += 1;
        self.planned_rows = self.stats.row_count;
    }
}

/// `note_write` moves a table's plan generation once its row count has
/// drifted from the last generation's by more than one part in this many:
/// far below the factor-of-two size differences that flip a join's build
/// side or distribution, far above what a stream of point writes adds.
pub const PLAN_DRIFT_DENOMINATOR: u64 = 8;

struct IndexEntry {
    def: IndexDef,
    index: Arc<Index>,
}

/// Every table and index definition, under the catalog's one lock.
#[derive(Default)]
struct Entries {
    tables: Vec<TableEntry>,
    /// Lower-cased table name → id.
    names: FxHashMap<String, TableId>,
    indexes: Vec<IndexEntry>,
}

/// The cluster-wide catalog: schema metadata, data handles, statistics and
/// indexes. Shared (`Arc`) by every simulated site.
pub struct Catalog {
    /// Elastic membership: the live replica map queries and writes route
    /// by. Seeded with the boot layout and mutated by the cluster's repair
    /// pass as sites join, leave, and fail.
    membership: Arc<Membership>,
    /// A leaf lock: no method holds it across a call into a table's data,
    /// an index or the membership.
    entries: RwLock<Entries>,
}

impl Catalog {
    /// The catalog of a `sites`-site cluster keeping `backups` copies of
    /// every partition ([`Membership::new`]'s layout).
    pub fn new(sites: usize, backups: usize) -> Arc<Catalog> {
        Arc::new(Catalog {
            membership: Arc::new(Membership::new(sites, backups)),
            entries: RwLock::default(),
        })
    }

    /// The elastic replica map shared by planner, executor and the
    /// repair pass.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// CREATE TABLE.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        primary_key: Vec<usize>,
        distribution: TableDistribution,
    ) -> IcResult<TableId> {
        let key = name.to_ascii_lowercase();
        let map = self.membership.snapshot();
        let owners: Vec<Vec<SiteId>> = match distribution {
            TableDistribution::HashPartitioned { .. } => {
                (0..map.num_partitions()).map(|p| map.owners_of(p).to_vec()).collect()
            }
            // One logical copy; the hosting key is nominal (reads take the
            // authoritative store, writes broadcast to all members).
            TableDistribution::Replicated => {
                vec![vec![map.members().first().copied().unwrap_or(SiteId(0))]]
            }
        };
        let mut entries = self.entries.write();
        if entries.names.contains_key(&key) {
            return Err(IcError::Catalog(format!("table '{name}' already exists")));
        }
        let id = TableId(entries.tables.len());
        let def = TableDef {
            id,
            name: name.to_string(),
            schema: schema.clone(),
            primary_key,
            distribution,
        };
        entries.tables.push(TableEntry {
            def: Arc::new(def),
            data: Arc::new(TableData::new_with_owners(id, schema, &owners)),
            stats: Arc::new(TableStats::empty()),
            indexes: Vec::new(),
            plan_generation: 0,
            planned_rows: 0,
        });
        entries.names.insert(key, id);
        Ok(id)
    }

    /// CREATE INDEX on `columns` of `table`.
    pub fn create_index(&self, name: &str, table: TableId, columns: Vec<usize>) -> IcResult<IndexId> {
        let mut entries = self.entries.write();
        let Entries { tables, indexes, .. } = &mut *entries;
        let entry = tables
            .get_mut(table.0)
            .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
        for &c in &columns {
            if c >= entry.def.schema.arity() {
                return Err(IcError::Catalog(format!(
                    "index column {c} out of range for table '{}'",
                    entry.def.name
                )));
            }
        }
        let id = IndexId(indexes.len());
        let def = IndexDef { id, name: name.to_string(), table, columns };
        let index = Index::new(&def, entry.data.num_partitions());
        indexes.push(IndexEntry { def, index: Arc::new(index) });
        entry.indexes.push(id);
        entry.bump_plan_generation();
        Ok(id)
    }

    /// Bulk-load rows from outside the engine: fitted to the table schema
    /// ([`conform`]), packed `BATCH_SIZE` at a time and routed by the DML
    /// inserts' splitter; each partition commits once. Statistics wait for
    /// the next `analyze`; indexes need no upkeep here — their runs are keyed
    /// to the store version and re-sort on the next index scan (or `analyze`).
    pub fn insert(&self, table: TableId, mut rows: Vec<Row>) -> IcResult<usize> {
        let (Some(def), Some(data)) = (self.table_def(table), self.table_data(table)) else {
            return Err(IcError::Catalog(format!("unknown table {table}")));
        };
        conform(&def, &mut rows)?;
        let (n, types, map) = (rows.len(), def.schema.types(), self.membership.snapshot());
        // Each input row is freed once its piece is packed.
        let mut rows = rows.into_iter();
        let pieces = std::iter::from_fn(|| {
            let piece: Vec<Row> = rows.by_ref().take(BATCH_SIZE).collect();
            (!piece.is_empty()).then(|| ColumnBatch::from_typed_rows(&types, &piece))
        });
        data.load(pieces.flat_map(|batch| split(&batch, &def.distribution, &map)));
        Ok(n)
    }

    /// ANALYZE: recompute statistics and bring the table's index runs up to
    /// date. Run after bulk load, mirroring Ignite's `statistics enabled`
    /// setting.
    pub fn analyze(&self, table: TableId) -> IcResult<()> {
        let data = self
            .table_data(table)
            .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
        let stats = Arc::new(TableStats::compute(&data));
        let indexes: Vec<Arc<Index>> = {
            let mut entries = self.entries.write();
            let Entries { tables, indexes, .. } = &mut *entries;
            let entry = &mut tables[table.0];
            entry.stats = stats;
            entry.bump_plan_generation();
            entry.indexes.iter().map(|id| Arc::clone(&indexes[id.0].index)).collect()
        };
        indexes.iter().for_each(|index| index.refresh(&data));
        Ok(())
    }

    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.entries.read().names.get(&name.to_ascii_lowercase()).copied()
    }

    /// The table's definition, shared rather than copied.
    pub fn table_def(&self, id: TableId) -> Option<Arc<TableDef>> {
        self.entries.read().tables.get(id.0).map(|e| Arc::clone(&e.def))
    }

    pub fn table_data(&self, id: TableId) -> Option<Arc<TableData>> {
        self.entries.read().tables.get(id.0).map(|e| e.data.clone())
    }

    pub fn table_stats(&self, id: TableId) -> Option<Arc<TableStats>> {
        self.entries.read().tables.get(id.0).map(|e| e.stats.clone())
    }

    pub fn table_names(&self) -> Vec<String> {
        self.entries.read().tables.iter().map(|e| e.def.name.clone()).collect()
    }

    /// Every hash-partitioned table's data handle, ascending by table id.
    pub fn hash_tables(&self) -> Vec<Arc<TableData>> {
        let entries = self.entries.read();
        let hashed = entries.tables.iter().filter(|e| {
            matches!(e.def.distribution, TableDistribution::HashPartitioned { .. })
        });
        hashed.map(|e| Arc::clone(&e.data)).collect()
    }

    /// The currency rule, the one answer to "which copy of partition `p` is
    /// newest". A site holds a *current* copy of `p` for `tables` when, for
    /// each of them, its replica version of `p` is at least every owner's —
    /// down owners included. Returns the lowest-id current site among
    /// `candidates`, or `None`.
    ///
    /// The partition is the unit: every table's copy of `p` moves together,
    /// and versions name one history only while each commit lands on a
    /// current copy. So a write asks it of the primary over every hash table,
    /// a read of the serving site over the scanned table
    /// ([`Catalog::scan_store`]), and the repair pass of the live owners
    /// before it promotes, copies or hands a copy off.
    pub fn current_copy(
        &self,
        p: usize,
        tables: &[Arc<TableData>],
        candidates: impl IntoIterator<Item = SiteId>,
    ) -> Option<SiteId> {
        let map = self.membership.snapshot();
        let owners = map.owners_of(p);
        candidates.into_iter().filter(|&s| tables.iter().all(|d| d.is_newest_on(p, s, owners))).min()
    }

    /// The store a scan at `site` reads of `table`, with its partition: a
    /// replicated table's one store, or `site`'s own copy of `partition`
    /// as a version snapshot (a frozen store, so concurrent DML batches are
    /// observed all-or-nothing). Only a current copy serves
    /// ([`Catalog::current_copy`]): one behind a down owner would miss
    /// acknowledged writes, so a stale or missing copy (ownership moved
    /// between planning and execution) is a retryable
    /// `RebalanceInProgress`. A hash table scanned outside a partition is
    /// an `Exec` error.
    pub fn scan_store(&self, table: TableId, site: SiteId, partition: Option<usize>) -> IcResult<(usize, PartStore)> {
        let (data, replicated) = {
            let entries = self.entries.read();
            let entry = entries.tables.get(table.0).ok_or_else(|| IcError::Exec(format!("unknown table {table}")))?;
            (Arc::clone(&entry.data), entry.def.distribution == TableDistribution::Replicated)
        };
        if replicated {
            return Ok((0, data.store(0)));
        }
        let p = partition.ok_or_else(|| IcError::Exec(format!("table {table} scanned outside a partition")))?;
        let current = self.current_copy(p, std::slice::from_ref(&data), [site]);
        match data.replica(p, site) {
            Some(store) if current.is_some() => Ok((p, store)),
            _ => Err(IcError::RebalanceInProgress { partition: p }),
        }
    }

    pub fn index(&self, id: IndexId) -> Option<Arc<Index>> {
        self.entries.read().indexes.get(id.0).map(|e| e.index.clone())
    }

    /// All indexes defined on a table.
    pub fn indexes_of(&self, table: TableId) -> Vec<IndexDef> {
        let entries = self.entries.read();
        let Some(entry) = entries.tables.get(table.0) else {
            return Vec::new();
        };
        entry.indexes.iter().map(|id| entries.indexes[id.0].def.clone()).collect()
    }

    /// Fold a committed write into the table's statistics without a full
    /// ANALYZE: exact row-count deltas, min/max widened by inserted values,
    /// NDV adjusted by bounded estimates. Keeps the Volcano cost model
    /// honest while writes stream in; `analyze` still computes exact stats.
    pub fn note_write(&self, table: TableId, inserted: &[ColumnBatch], deleted: usize) {
        if inserted.is_empty() && deleted == 0 {
            return;
        }
        let mut entries = self.entries.write();
        let Some(entry) = entries.tables.get_mut(table.0) else {
            return;
        };
        entry.stats = Arc::new(entry.stats.noting_write(inserted, deleted));
        let drift = entry.stats.row_count.abs_diff(entry.planned_rows);
        if drift * PLAN_DRIFT_DENOMINATOR > entry.planned_rows {
            entry.bump_plan_generation();
        }
    }

    /// The table's *plan generation*: a counter that moves whenever what the
    /// planner reads about the table — statistics, indexes — changed enough
    /// that a plan made earlier may no longer be the one it would choose:
    /// on [`Catalog::analyze`], on [`Catalog::create_index`], and in
    /// [`Catalog::note_write`] once the row count drifted past
    /// [`PLAN_DRIFT_DENOMINATOR`]. A plan cache records the generations it
    /// planned under and compares them on every lookup; clusters sharing
    /// this catalog need no invalidation callback.
    pub fn plan_generation(&self, table: TableId) -> u64 {
        self.entries.read().tables.get(table.0).map_or(0, |e| e.plan_generation)
    }
}

/// Fit bulk-load rows to `def`'s schema, as `INSERT`'s coercion fits its
/// values: an Int widens into a DOUBLE column and NULL fits any column; any
/// other kind, or a row of another arity, is an error naming the table and
/// column.
fn conform(def: &TableDef, rows: &mut [Row]) -> IcResult<()> {
    let fields = def.schema.fields();
    for row in rows {
        if row.arity() != fields.len() {
            return Err(IcError::Catalog(format!(
                "table '{}' has {} columns, a loaded row has {}",
                def.name,
                fields.len(),
                row.arity()
            )));
        }
        for (d, f) in row.0.iter_mut().zip(fields) {
            if !d.fit_to(f.dtype) {
                return Err(IcError::Catalog(format!(
                    "table '{}' column '{}' is {}, a loaded row has {d}",
                    def.name, f.name, f.dtype
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Datum, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("val", DataType::Str),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row(vec![Datum::Int(i), Datum::str(format!("v{i}"))]))
            .collect()
    }

    #[test]
    fn create_and_lookup() {
        let cat = Catalog::new(4, 0);
        let id = cat
            .create_table("T", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        assert_eq!(cat.table_by_name("t"), Some(id));
        assert_eq!(cat.table_by_name("T"), Some(id));
        assert!(cat.table_by_name("nope").is_none());
        assert!(cat
            .create_table("t", schema(), vec![0], TableDistribution::Replicated)
            .is_err());
    }

    /// Four threads race `create_table` on one name: the name check and
    /// the insert happen under the catalog's one lock, so exactly one wins,
    /// and the name resolves to its id and is listed once.
    #[test]
    fn racing_creates_of_one_name_make_one_table() {
        let cat = Catalog::new(4, 1);
        let start = std::sync::Barrier::new(4);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let won: Vec<TableId> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cat.create_table("T", schema(), vec![0], dist.clone())
                    })
                })
                .collect();
            racers.into_iter().filter_map(|r| r.join().unwrap().ok()).collect()
        });
        assert_eq!(won.len(), 1, "{won:?}");
        assert_eq!(cat.table_by_name("t"), Some(won[0]));
        assert_eq!(cat.table_names(), vec!["T".to_string()]);
    }

    /// `create_index` racing `indexes_of`: every index listed resolves.
    #[test]
    fn a_listed_index_always_resolves() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cat = Catalog::new(2, 0);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let id = cat.create_table("t", schema(), vec![0], dist).unwrap();
        let done = AtomicBool::new(false);
        let listed = |cat: &Catalog| {
            let defs = cat.indexes_of(id);
            assert!(defs.iter().all(|d| cat.index(d.id).is_some()), "{defs:?}");
            defs.len()
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200 {
                    cat.create_index(&format!("i{i}"), id, vec![i % 2]).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    listed(&cat);
                }
            });
        });
        assert_eq!(listed(&cat), 200);
    }

    #[test]
    fn insert_widens_ints_into_double_columns() {
        let cat = Catalog::new(2, 0);
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("price", DataType::Double),
        ]);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let id = cat.create_table("t", schema, vec![0], dist).unwrap();
        let rows = vec![
            Row(vec![Datum::Int(1), Datum::Int(10)]),
            Row(vec![Datum::Int(2), Datum::Null]),
            Row(vec![Datum::Int(3), Datum::Double(2.5)]),
        ];
        assert_eq!(cat.insert(id, rows).unwrap(), 3);
        let data = cat.table_data(id).unwrap();
        let stores: Vec<_> = (0..data.num_partitions()).map(|p| data.store(p)).collect();
        let mut got: Vec<Row> = stores.iter().flat_map(|s| s.chunks().iter()).flat_map(|c| c.to_rows()).collect();
        got.sort();
        assert!(matches!(got[0].0[1], Datum::Double(x) if x == 10.0));
        assert!(got[1].0[1].is_null());
    }

    #[test]
    fn insert_rejects_rows_that_do_not_fit_the_schema() {
        let cat = Catalog::new(2, 0);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let id = cat.create_table("t", schema(), vec![0], dist).unwrap();
        let bad_kind = vec![Row(vec![Datum::Int(1), Datum::Int(7)])];
        let err = cat.insert(id, bad_kind).unwrap_err();
        assert!(err.to_string().contains("table 't' column 'val'"), "{err}");
        let bad_arity = vec![Row(vec![Datum::Int(1)])];
        let err = cat.insert(id, bad_arity).unwrap_err();
        assert!(err.to_string().contains("table 't' has 2 columns"), "{err}");
        // Nothing of a rejected load is stored.
        assert_eq!(cat.table_data(id).unwrap().total_rows(), 0);
    }

    #[test]
    fn insert_partitions_rows() {
        let cat = Catalog::new(4, 0);
        let id = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(id, rows(1000)).unwrap();
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.total_rows(), 1000);
        // Hash partitioning should spread rows over all 4 partitions.
        for p in 0..4 {
            let n = data.store(p).num_rows();
            assert!(n > 150 && n < 350, "partition {p} has {n} rows");
        }
    }

    #[test]
    fn replicated_single_copy() {
        let cat = Catalog::new(4, 0);
        let id = cat
            .create_table("r", schema(), vec![0], TableDistribution::Replicated)
            .unwrap();
        cat.insert(id, rows(10)).unwrap();
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.num_partitions(), 1);
        assert_eq!(data.total_rows(), 10);
    }

    #[test]
    fn analyze_computes_stats() {
        let cat = Catalog::new(2, 0);
        let id = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(id, rows(100)).unwrap();
        cat.analyze(id).unwrap();
        let stats = cat.table_stats(id).unwrap();
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns[0].ndv, 100);
    }

    /// A table's partitions are hosted where the catalog's membership
    /// places them, and a read resolves each to a live copy through
    /// `ReplicaMap::assignment`.
    #[test]
    fn live_owner_resolution_uses_backups() {
        use ic_common::hash::FxHashSet;
        use ic_net::FailoverError;
        let cat = Catalog::new(4, 1);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let id = cat.create_table("t", schema(), vec![0], dist).unwrap();
        let data = cat.table_data(id).unwrap();
        assert!(data.replica(2, SiteId(2)).is_some() && data.replica(2, SiteId(3)).is_some());
        assert!(data.replica(2, SiteId(0)).is_none());
        let owner = |down: &[usize]| {
            let down: FxHashSet<SiteId> = down.iter().map(|&s| SiteId(s)).collect();
            cat.membership().assignment(&down).map(|a| a.owner_of_partition(2))
        };
        assert_eq!(owner(&[]), Ok(SiteId(2)));
        assert_eq!(owner(&[2]), Ok(SiteId(3)));
        assert!(matches!(owner(&[2, 3]), Err(FailoverError::PartitionLost { partition: 2, .. })));
    }

    /// A replicated table's one store serves a scan at any site, with or
    /// without a partition.
    #[test]
    fn scan_store_serves_the_replicated_store_anywhere() {
        let cat = Catalog::new(4, 1);
        let id = cat.create_table("r", schema(), vec![0], TableDistribution::Replicated).unwrap();
        cat.insert(id, rows(10)).unwrap();
        for (site, partition) in [(0, None), (3, None), (2, Some(1))] {
            let (p, store) = cat.scan_store(id, SiteId(site), partition).unwrap();
            assert_eq!((p, store.num_rows()), (0, 10), "site {site}");
        }
    }

    /// A hash partition serves only from a current copy on the scanning
    /// site: a copy older than another owner's, or no copy at all, is a
    /// retryable `RebalanceInProgress`, and a scan outside a partition (or
    /// of an unknown table) an `Exec` error.
    #[test]
    fn scan_store_refuses_stale_copies_and_partitionless_scans() {
        let cat = Catalog::new(4, 1);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let id = cat.create_table("t", schema(), vec![0], dist).unwrap();
        cat.insert(id, rows(100)).unwrap();
        let data = cat.table_data(id).unwrap();
        let (p, store) = cat.scan_store(id, SiteId(3), Some(2)).unwrap();
        assert_eq!((p, store.version()), (2, 1));
        assert_eq!(store.num_rows(), data.store(2).num_rows());
        data.install_replica(2, SiteId(3), PartStore::default());
        let refused = |site: usize| cat.scan_store(id, SiteId(site), Some(2)).map(|(p, _)| p);
        assert!(matches!(refused(3), Err(IcError::RebalanceInProgress { partition: 2 })));
        assert!(matches!(refused(0), Err(IcError::RebalanceInProgress { partition: 2 })), "site 0 holds no copy");
        assert_eq!(refused(2).unwrap(), 2);
        let outside = cat.scan_store(id, SiteId(2), None).map(|(p, _)| p);
        assert!(matches!(&outside, Err(IcError::Exec(m)) if m.contains("outside a partition")), "{outside:?}");
        assert!(matches!(cat.scan_store(TableId(9), SiteId(0), Some(0)), Err(IcError::Exec(_))));
    }

    #[test]
    fn index_creation_and_rebuild() {
        let cat = Catalog::new(2, 0);
        let id = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        let idx = cat.create_index("t_id", id, vec![0]).unwrap();
        cat.insert(id, rows(50)).unwrap();
        cat.analyze(id).unwrap();
        let (index, data) = (cat.index(idx).unwrap(), cat.table_data(id).unwrap());
        let entries: usize = (0..index.num_partitions())
            .map(|p| index.run_for(p, &data.store(p)).iter().map(|c| c.num_rows()).sum::<usize>())
            .sum();
        assert_eq!(entries, 50);
        assert_eq!(cat.indexes_of(id).len(), 1);
        assert!(cat.create_index("bad", id, vec![99]).is_err());
    }
}
