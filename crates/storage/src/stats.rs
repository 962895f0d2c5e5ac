//! Table statistics — the metadata Ignite serves to Calcite's provider
//! hooks (§3.1/§3.2 of the paper): row counts, per-column distinct-value
//! counts (NDV, used by the Eq. 3 join-size estimator), min/max, and null
//! fractions (used by selectivity estimation).

use crate::table::TableData;
use ic_common::hash::FlatMap;
use ic_common::{ColumnBatch, Datum};

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: u64,
    pub null_count: u64,
    pub min: Option<Datum>,
    pub max: Option<Datum>,
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for an empty/unanalyzed table.
    pub fn empty() -> TableStats {
        TableStats { row_count: 0, columns: Vec::new() }
    }

    /// Exact single-pass computation over all partitions, column by
    /// column over the stored chunks: each column keeps one hash table of
    /// its distinct values (a value is materialized once, at first sight),
    /// so NDV is the table's size and min/max fall out of the distinct
    /// values. At the simulated scale exact NDV is cheap; Ignite uses
    /// sketches but serves the same quantities.
    pub fn compute(data: &TableData) -> TableStats {
        struct ColumnAcc {
            slots: FlatMap,
            distinct: Vec<Datum>,
            nulls: u64,
        }
        let mut accs: Vec<ColumnAcc> = (0..data.schema().arity())
            .map(|_| ColumnAcc { slots: FlatMap::with_capacity(64), distinct: Vec::new(), nulls: 0 })
            .collect();
        let mut rows = 0u64;
        for p in 0..data.num_partitions() {
            for chunk in data.store(p).chunks().iter() {
                rows += chunk.num_rows() as u64;
                for (c, (acc, col)) in accs.iter_mut().zip(chunk.columns()).enumerate() {
                    for (i, hash) in chunk.hash_keys(&[c]).into_iter().enumerate() {
                        if !col.is_valid(i) {
                            acc.nulls += 1;
                            continue;
                        }
                        let next = acc.distinct.len() as u32;
                        let distinct = &acc.distinct;
                        let (_, fresh) = acc.slots.get_or_insert(
                            hash,
                            |slot| col.eq_datum(i, &distinct[slot as usize]),
                            || next,
                        );
                        if fresh {
                            acc.distinct.push(col.datum_at(i));
                        }
                    }
                }
            }
        }
        TableStats {
            row_count: rows,
            columns: accs
                .into_iter()
                .map(|acc| ColumnStats {
                    ndv: acc.distinct.len() as u64,
                    null_count: acc.nulls,
                    min: acc.distinct.iter().min().cloned(),
                    max: acc.distinct.iter().max().cloned(),
                })
                .collect(),
        }
    }

    /// NDV of a column, defaulting to row_count when unanalyzed (a column
    /// is at most all-distinct) — the provider-hook fallback behaviour.
    pub fn ndv(&self, col: usize) -> u64 {
        self.columns.get(col).map(|c| c.ndv).unwrap_or(self.row_count).max(1)
    }

    /// Incrementally fold a committed write's inserted batches into these
    /// stats. Exact where cheap (row count, null counts, min/max widening
    /// on inserts), bounded estimates where exactness would need a full
    /// pass (NDV grows by at most the inserted count and never exceeds the
    /// row count; deletes shrink it proportionally). `analyze` remains the
    /// exact recomputation.
    pub fn noting_write(&self, inserted: &[ColumnBatch], deleted: usize) -> TableStats {
        let mut s = self.clone();
        if s.columns.is_empty() {
            let fresh = ColumnStats { ndv: 0, null_count: 0, min: None, max: None };
            s.columns = vec![fresh; inserted.first().map_or(0, ColumnBatch::width)];
        }
        let old_count = s.row_count.max(1);
        let added: usize = inserted.iter().map(ColumnBatch::num_rows).sum();
        let new_count = (s.row_count + added as u64).saturating_sub(deleted as u64);
        let mut added_non_null = vec![0u64; s.columns.len()];
        for batch in inserted {
            for (c, col) in s.columns.iter_mut().enumerate().take(batch.width()) {
                for k in 0..batch.num_rows() {
                    let v = batch.datum_at(c, k);
                    if v.is_null() {
                        col.null_count += 1;
                        continue;
                    }
                    added_non_null[c] += 1;
                    if col.min.as_ref().is_none_or(|m| v < *m) {
                        col.min = Some(v.clone());
                    }
                    if col.max.as_ref().is_none_or(|m| v > *m) {
                        col.max = Some(v);
                    }
                }
            }
        }
        for (c, col) in s.columns.iter_mut().enumerate() {
            if deleted > 0 {
                let scaled = (col.ndv as f64 * new_count as f64 / old_count as f64).round();
                col.ndv = scaled as u64;
                col.null_count =
                    (col.null_count as f64 * new_count as f64 / old_count as f64).round() as u64;
            }
            col.ndv = (col.ndv + added_non_null[c]).min(new_count);
        }
        s.row_count = new_count;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Field, Row, Schema};

    fn batch(types: &[DataType], rows: Vec<Row>) -> [ColumnBatch; 1] {
        [ColumnBatch::from_typed_rows(types, &rows)]
    }

    #[test]
    fn compute_counts() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)]);
        let types = schema.types();
        let data = TableData::new(2, schema);
        let p0 = vec![Row(vec![Datum::Int(1), Datum::str("x")]), Row(vec![Datum::Int(2), Datum::Null])];
        let p1 = vec![Row(vec![Datum::Int(1), Datum::str("y")]), Row(vec![Datum::Int(3), Datum::str("x")])];
        data.load(batch(&types, p0).map(|b| (0, b)));
        data.load(batch(&types, p1).map(|b| (1, b)));
        let s = TableStats::compute(&data);
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].ndv, 3);
        assert_eq!(s.columns[1].ndv, 2);
        assert_eq!(s.columns[1].null_count, 1);
        assert_eq!(s.columns[0].min, Some(Datum::Int(1)));
        assert_eq!(s.columns[0].max, Some(Datum::Int(3)));
    }

    #[test]
    fn incremental_write_folding() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let ints = [DataType::Int];
        let data = TableData::new(1, schema);
        data.load(batch(&ints, (0..10).map(|i| Row(vec![Datum::Int(i)])).collect()).map(|b| (0, b)));
        let s = TableStats::compute(&data);
        // Insert widens min/max and grows count/ndv.
        let s2 = s.noting_write(&batch(&ints, vec![Row(vec![Datum::Int(50)]), Row(vec![Datum::Null])]), 0);
        assert_eq!(s2.row_count, 12);
        assert_eq!(s2.columns[0].max, Some(Datum::Int(50)));
        assert_eq!(s2.columns[0].min, Some(Datum::Int(0)));
        assert_eq!(s2.columns[0].null_count, 1);
        assert_eq!(s2.columns[0].ndv, 11);
        // Delete shrinks count and scales ndv down, capped by row count.
        let s3 = s2.noting_write(&[], 6);
        assert_eq!(s3.row_count, 6);
        assert!(s3.columns[0].ndv <= 6);
        // Writes against unanalyzed stats bootstrap the column vector.
        let s4 = TableStats::empty().noting_write(&batch(&ints, vec![Row(vec![Datum::Int(1)])]), 0);
        assert_eq!(s4.row_count, 1);
        assert_eq!(s4.columns[0].ndv, 1);
    }

    #[test]
    fn ndv_fallbacks() {
        let s = TableStats { row_count: 10, columns: Vec::new() };
        assert_eq!(s.ndv(5), 10);
        let s = TableStats::empty();
        assert_eq!(s.ndv(0), 1);
    }
}
