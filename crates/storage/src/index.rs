//! Sorted secondary indexes.
//!
//! Each index keeps, per partition, a *run*: the partition's rows sorted by
//! the index key, stored as dense column chunks exactly like the partition
//! itself. A scan through the index therefore hands out stored chunks and
//! delivers rows with a *collation* trait the planner can use to elide
//! sorts (the paper's Q14 improvement) or feed merge joins. Point/range
//! lookups binary-search the sorted run.
//!
//! A run is keyed to the [`PartStore`] version it was built from and is
//! rebuilt lazily: whoever asks for the run of a store at another version
//! (the first `IndexScan` after a write, `ANALYZE`) sorts that store and
//! caches the result, so writes themselves never pay for index upkeep and
//! an index scan never returns pre-write data.

use crate::catalog::IndexDef;
use crate::table::{Chunks, PartStore, TableData};
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, Datum, Row};
use parking_lot::Mutex;
use std::ops::Bound;
use std::sync::Arc;

/// A partition's key-sorted run and the store version it reflects.
struct IndexRun {
    version: u64,
    chunks: Chunks,
}

/// A sorted index: per partition, the cached key-sorted run.
pub struct Index {
    pub columns: Vec<usize>,
    runs: Vec<Mutex<Option<IndexRun>>>,
}

/// A half-open/closed range over index key prefixes.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    pub lower: Bound<Vec<Datum>>,
    pub upper: Bound<Vec<Datum>>,
}

impl KeyRange {
    pub fn all() -> KeyRange {
        KeyRange { lower: Bound::Unbounded, upper: Bound::Unbounded }
    }

    pub fn point(key: Vec<Datum>) -> KeyRange {
        KeyRange { lower: Bound::Included(key.clone()), upper: Bound::Included(key) }
    }
}

/// Sort a store's rows by `columns` (stable: ties keep partition order)
/// into chunks of `BATCH_SIZE` rows.
fn sorted_run(columns: &[usize], store: &PartStore) -> Chunks {
    if store.chunks().is_empty() {
        return Chunks::default();
    }
    // Sort the key columns alone; the other columns are only copied if the
    // rows actually have to move.
    let key_parts: Vec<ColumnBatch> =
        store.chunks().iter().map(|c| c.project_cols(columns)).collect();
    let keys: Vec<(usize, bool)> = (0..columns.len()).map(|k| (k, false)).collect();
    let order = ColumnBatch::concat(&key_parts).sort_permutation(&keys);
    if order.iter().enumerate().all(|(i, &o)| i == o as usize) {
        // Already in key order (a primary-key index over rows loaded in key
        // order): the partition's own chunks are the run.
        return store.chunks().clone();
    }
    let parts: Vec<ColumnBatch> = store.chunks().iter().map(|c| (**c).clone()).collect();
    let dense = ColumnBatch::concat(&parts);
    Arc::new(
        order
            .chunks(BATCH_SIZE)
            .map(|sel| Arc::new(dense.with_sel(sel.to_vec()).gather()))
            .collect(),
    )
}

impl Index {
    /// An index over `num_partitions` partitions with no run built yet.
    pub fn new(def: &IndexDef, num_partitions: usize) -> Index {
        Index {
            columns: def.columns.clone(),
            runs: (0..num_partitions).map(|_| Mutex::named(None, "index.run")).collect(),
        }
    }

    pub fn num_partitions(&self) -> usize {
        self.runs.len()
    }

    /// The key-sorted run of `store` (a snapshot of `partition`), rebuilt
    /// and cached if the cached run reflects another version.
    pub fn run_for(&self, partition: usize, store: &PartStore) -> Chunks {
        let mut cached = self.runs[partition].lock();
        match &*cached {
            Some(run) if run.version == store.version() => run.chunks.clone(),
            _ => {
                let chunks = sorted_run(&self.columns, store);
                *cached = Some(IndexRun { version: store.version(), chunks: chunks.clone() });
                chunks
            }
        }
    }

    /// Bring every partition's run up to `data`'s authoritative stores.
    pub fn refresh(&self, data: &TableData) {
        for p in 0..self.runs.len() {
            self.run_for(p, &data.store(p));
        }
    }

    /// Range scan within one partition snapshot: binary-search the bounds in
    /// the sorted run, return the matching rows (bounds compare on key
    /// prefixes).
    pub fn range_scan(&self, partition: usize, store: &PartStore, range: &KeyRange) -> Vec<Row> {
        let run = self.run_for(partition, store);
        // Chunk c covers run positions starts[c]..starts[c + 1].
        let mut starts = vec![0usize];
        for chunk in run.iter() {
            starts.push(starts[starts.len() - 1] + chunk.num_rows());
        }
        let total = starts[run.len()];
        let locate = |pos: usize| {
            let c = starts.partition_point(|&s| s <= pos) - 1;
            (&run[c], pos - starts[c])
        };
        // First position whose key does not satisfy `before(key cmp bound)`.
        let first_not = |bound: &[Datum], before: fn(std::cmp::Ordering) -> bool| {
            let (mut lo, mut hi) = (0, total);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let (chunk, i) = locate(mid);
                let ord = self
                    .columns
                    .iter()
                    .zip(bound)
                    .map(|(&c, b)| chunk.col(c).datum_at(i).cmp(b))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal);
                if before(ord) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let lo = match &range.lower {
            Bound::Unbounded => 0,
            Bound::Included(b) => first_not(b, std::cmp::Ordering::is_lt),
            Bound::Excluded(b) => first_not(b, std::cmp::Ordering::is_le),
        };
        let hi = match &range.upper {
            Bound::Unbounded => total,
            Bound::Included(b) => first_not(b, std::cmp::Ordering::is_le),
            Bound::Excluded(b) => first_not(b, std::cmp::Ordering::is_lt),
        };
        (lo..hi.max(lo))
            .map(|pos| {
                let (chunk, i) = locate(pos);
                chunk.row_at(i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::on_one_site;
    use crate::catalog::{IndexId, TableId};
    use ic_common::{DataType, Field, Schema};

    fn pairs(kvs: &[(i64, i64)]) -> [ColumnBatch; 1] {
        let rows: Vec<Row> = kvs.iter().map(|&(k, v)| Row(vec![Datum::Int(k), Datum::Int(v)])).collect();
        [ColumnBatch::from_typed_rows(&[DataType::Int, DataType::Int], &rows)]
    }

    fn setup() -> (Index, TableData) {
        let schema = Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]);
        let data = on_one_site(2, schema);
        // Unsorted inserts across two partitions.
        data.load(pairs(&[(5, 50), (1, 10), (3, 30)]).map(|b| (0, b)));
        data.load(pairs(&[(4, 40), (2, 20), (2, 21)]).map(|b| (1, b)));
        let def = IndexDef { id: IndexId(0), name: "ix".into(), table: TableId(0), columns: vec![0] };
        (Index::new(&def, data.num_partitions()), data)
    }

    fn keys(run: &Chunks) -> Vec<i64> {
        run.iter().flat_map(|c| c.to_rows()).map(|r| r.0[0].as_int().unwrap()).collect()
    }

    #[test]
    fn runs_are_sorted_and_stable() {
        let (ix, data) = setup();
        assert_eq!(keys(&ix.run_for(0, &data.store(0))), vec![1, 3, 5]);
        let run = ix.run_for(1, &data.store(1));
        assert_eq!(keys(&run), vec![2, 2, 4]);
        // Equal keys keep partition order.
        let vs: Vec<Row> = run.iter().flat_map(|c| c.to_rows()).collect();
        assert_eq!((vs[0].0[1].clone(), vs[1].0[1].clone()), (Datum::Int(20), Datum::Int(21)));
    }

    #[test]
    fn run_is_cached_per_version_and_rebuilt_after_a_write() {
        let (ix, data) = setup();
        let before = data.store(0);
        let run = ix.run_for(0, &before);
        assert!(Arc::ptr_eq(&run, &ix.run_for(0, &before)), "same version: cached run");
        assert!(!Arc::ptr_eq(&run, before.chunks()), "an unsorted partition is re-sorted");
        data.load(pairs(&[(2, 0)]).map(|b| (0, b)));
        assert_eq!(keys(&ix.run_for(0, &data.store(0))), vec![1, 2, 3, 5]);
        // An older snapshot still gets its own rows, never the newer run.
        assert_eq!(keys(&ix.run_for(0, &before)), vec![1, 3, 5]);
    }

    #[test]
    fn sorted_partition_is_its_own_run() {
        let (ix, data) = setup();
        let rows: Vec<(i64, i64)> = (10..20).map(|k| (k, 0)).collect();
        let sorted = on_one_site(1, data.schema().clone());
        sorted.load(pairs(&rows).map(|b| (0, b)));
        let store = sorted.store(0);
        assert!(Arc::ptr_eq(&ix.run_for(0, &store), store.chunks()));
    }

    #[test]
    fn point_lookup() {
        let (ix, data) = setup();
        let hits = ix.range_scan(1, &data.store(1), &KeyRange::point(vec![Datum::Int(2)]));
        assert_eq!(hits.len(), 2);
        let miss = ix.range_scan(0, &data.store(0), &KeyRange::point(vec![Datum::Int(99)]));
        assert!(miss.is_empty());
    }

    #[test]
    fn range_bounds() {
        let (ix, data) = setup();
        let store = data.store(0);
        // keys in partition 0 are [1,3,5]
        let r = KeyRange {
            lower: Bound::Included(vec![Datum::Int(2)]),
            upper: Bound::Excluded(vec![Datum::Int(5)]),
        };
        let hits = ix.range_scan(0, &store, &r);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0[0], Datum::Int(3));
        let r = KeyRange { lower: Bound::Excluded(vec![Datum::Int(1)]), upper: Bound::Unbounded };
        assert_eq!(ix.range_scan(0, &store, &r).len(), 2);
    }

    #[test]
    fn full_scan_range() {
        let (ix, data) = setup();
        assert_eq!(ix.range_scan(0, &data.store(0), &KeyRange::all()).len(), 3);
    }
}
