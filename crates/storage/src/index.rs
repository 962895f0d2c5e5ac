//! Sorted secondary indexes.
//!
//! Each index keeps, per partition, a *run*: the partition's rows sorted by
//! the index key, stored as dense column chunks exactly like the partition
//! itself. A scan through the index therefore hands out stored chunks and
//! delivers rows with a *collation* trait the planner can use to elide
//! sorts (the paper's Q14 improvement) or feed merge joins. A reader that
//! is told it may skip keys below a target (a merge join's seek) finds the
//! first chunk to read with one binary search over the run,
//! [`chunks_below`].
//!
//! A run is keyed to the [`PartStore`] version it was built from and is
//! rebuilt lazily: whoever asks for the run of a store at another version
//! (the first `IndexScan` after a write, `ANALYZE`) sorts that store and
//! caches the result, so writes themselves never pay for index upkeep and
//! an index scan never returns pre-write data.

use crate::catalog::IndexDef;
use crate::table::{Chunks, PartStore, TableData};
use ic_common::row::BATCH_SIZE;
use ic_common::ColumnBatch;
use ic_common::sync::Mutex;
use std::borrow::Borrow;
use std::cmp::Ordering;
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

/// How many chunks at the front of `run`, a run sorted ascending on `cols`,
/// hold only keys that sort below the target — physical row `row` of
/// `key`'s `key_cols`, in `cmp_at` order: the chunks a reader positioned at
/// the front may skip whole. A chunk is judged by its last row, with one
/// binary search; the first chunk is checked alone before it, so a reader
/// whose next chunk already reaches the target pays one comparison. An
/// empty chunk counts as reaching it, which can only skip less.
pub fn chunks_below<B: Borrow<ColumnBatch>>(
    run: &[B],
    cols: &[usize],
    key: &ColumnBatch,
    key_cols: &[usize],
    row: usize,
) -> usize {
    let below = |chunk: &B| {
        let chunk = chunk.borrow();
        let n = chunk.num_rows();
        n > 0 && chunk.cmp_keys(cols, chunk.phys_index(n - 1), key, key_cols, row) == Ordering::Less
    };
    match run.first() {
        Some(first) if below(first) => run.partition_point(below),
        _ => 0,
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
            runs: (0..num_partitions).map(|_| Mutex::new(None)).collect(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::on_one_site;
    use crate::catalog::{IndexId, TableId};
    use ic_common::{DataType, Datum, Field, Row, Schema};

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

    /// Partition `p`'s run cut into one-row chunks, and a one-row key batch.
    fn one_row_chunks(ix: &Index, data: &TableData, p: usize) -> Vec<ColumnBatch> {
        let run = ix.run_for(p, &data.store(p));
        run.iter().flat_map(|c| (0..c.num_rows()).map(|k| c.slice_logical(k, 1))).collect()
    }

    fn key(k: i64) -> ColumnBatch {
        ColumnBatch::from_typed_rows(&[DataType::Int], &[Row(vec![Datum::Int(k)])])
    }

    #[test]
    fn point_lookup() {
        let (ix, data) = setup();
        // Partition 1's keys are [2, 2, 4]: both 2s stay, a missing key
        // past the end skips everything.
        let run = one_row_chunks(&ix, &data, 1);
        assert_eq!(chunks_below(&run, &[0], &key(2), &[0], 0), 0);
        assert_eq!(chunks_below(&run, &[0], &key(99), &[0], 0), 3);
    }

    #[test]
    fn range_bounds() {
        let (ix, data) = setup();
        // Partition 0's keys are [1, 3, 5]: a lower bound between keys
        // lands on the next one, whether or not it is present.
        let run = one_row_chunks(&ix, &data, 0);
        let from = |k| chunks_below(&run, &[0], &key(k), &[0], 0);
        assert_eq!([from(2), from(3), from(4), from(5), from(6)], [1, 1, 2, 2, 3]);
        // A chunk is judged by its last key: a chunk holding 1 and 3 stays
        // for a target of 2.
        let whole = ix.run_for(0, &data.store(0));
        assert_eq!(chunks_below(&whole, &[0], &key(2), &[0], 0), 0);
        assert_eq!(chunks_below(&whole, &[0], &key(6), &[0], 0), 1);
    }

    #[test]
    fn full_scan_range() {
        let (ix, data) = setup();
        // A target at or below the smallest key, a NULL one included (NULLs
        // sort first), skips nothing; so does an empty run.
        let run = one_row_chunks(&ix, &data, 0);
        assert_eq!(chunks_below(&run, &[0], &key(1), &[0], 0), 0);
        let null = ColumnBatch::from_typed_rows(&[DataType::Int], &[Row(vec![Datum::Null])]);
        assert_eq!(chunks_below(&run, &[0], &null, &[0], 0), 0);
        assert_eq!(chunks_below::<ColumnBatch>(&[], &[0], &key(9), &[0], 0), 0);
    }
}
