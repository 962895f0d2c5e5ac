//! Table statistics — the metadata Ignite serves to Calcite's provider
//! hooks (§3.1/§3.2 of the paper): row counts, per-column distinct-value
//! counts (NDV, used by the Eq. 3 join-size estimator), min/max, and null
//! fractions (used by selectivity estimation).

use crate::table::TableData;
use ic_common::{ColumnBatch, ColumnBuilder, Datum, HashDir};

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
    /// column over the stored chunks: each column keeps its distinct values
    /// as one typed column, found through a [`HashDir`] (a value is copied
    /// once, at first sight), so NDV is that column's length and min/max
    /// fall out of it. At the simulated scale exact NDV is cheap; Ignite
    /// uses sketches but serves the same quantities.
    pub fn compute(data: &TableData) -> TableStats {
        // Per column: its distinct values, their directory, its NULLs.
        let types = data.schema().types().into_iter();
        let mut accs: Vec<_> =
            types.map(|t| (HashDir::default(), ColumnBuilder::new(t), 0u64)).collect();
        let mut rows = 0u64;
        for p in 0..data.num_partitions() {
            for chunk in data.store(p).chunks().iter() {
                rows += chunk.num_rows() as u64;
                for (c, ((dir, distinct, nulls), col)) in accs.iter_mut().zip(chunk.columns()).enumerate() {
                    for (i, hash) in chunk.hash_keys(&[c]).into_iter().enumerate() {
                        if !col.is_valid(i) {
                            *nulls += 1;
                        } else if dir.find_or_insert(hash, |e| distinct.eq_at(e as usize, col, i)).1 {
                            distinct.extend_take(col, &[i as u32]);
                        }
                    }
                }
            }
        }
        let columns = accs.into_iter().map(|(_, distinct, nulls)| {
            let ndv = distinct.len() as u64;
            let (min, max) = distinct.finish().min_max(None).unzip();
            ColumnStats { ndv, null_count: nulls, min, max }
        });
        TableStats { row_count: rows, columns: columns.collect() }
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
                let column = batch.col(c);
                let n = batch.num_rows();
                let valid = (0..n).filter(|&k| column.is_valid(batch.phys_index(k))).count();
                col.null_count += (n - valid) as u64;
                added_non_null[c] += valid as u64;
                if let Some((least, greatest)) = column.min_max(batch.selection()) {
                    if col.min.as_ref().is_none_or(|m| least < *m) {
                        col.min = Some(least);
                    }
                    if col.max.as_ref().is_none_or(|m| greatest > *m) {
                        col.max = Some(greatest);
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
    use crate::table::tests::on_one_site;
    use ic_common::{DataType, Field, Row, Schema};

    fn batch(types: &[DataType], rows: Vec<Row>) -> [ColumnBatch; 1] {
        [ColumnBatch::from_typed_rows(types, &rows)]
    }

    #[test]
    fn compute_counts() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)]);
        let types = schema.types();
        let data = on_one_site(2, schema);
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

    /// NDV, null count, min and max over Int, Double and Str columns with
    /// NULLs, repeats across partitions, strings that order by bytes, and a
    /// negative zero beside a zero — one value, which hashes alike, so it
    /// counts once.
    #[test]
    fn compute_pins_typed_columns() {
        let types = [DataType::Int, DataType::Double, DataType::Str];
        let schema = Schema::new(types.iter().map(|&t| Field::new("c", t)).collect());
        let data = on_one_site(2, schema);
        let row = |i: Option<i64>, d: Option<f64>, s: Option<&str>| {
            let (i, d) = (i.map_or(Datum::Null, Datum::Int), d.map_or(Datum::Null, Datum::Double));
            Row(vec![i, d, s.map_or(Datum::Null, Datum::str)])
        };
        let p0 = vec![
            row(Some(5), Some(-0.0), Some("b")),
            row(None, Some(2.5), Some("ab")),
            row(Some(-3), None, None),
        ];
        let p1 = vec![
            row(Some(5), Some(0.0), Some("Σ")),
            row(Some(9), Some(-7.25), Some("b")),
            row(None, None, Some("")),
        ];
        data.load(batch(&types, p0).map(|b| (0, b)));
        data.load(batch(&types, p1).map(|b| (1, b)));
        let s = TableStats::compute(&data);
        assert_eq!(s.row_count, 6);
        let pinned: Vec<_> =
            s.columns.iter().map(|c| (c.ndv, c.null_count, c.min.clone(), c.max.clone())).collect();
        assert_eq!(
            pinned,
            vec![
                (3, 2, Some(Datum::Int(-3)), Some(Datum::Int(9))),
                (3, 2, Some(Datum::Double(-7.25)), Some(Datum::Double(2.5))),
                (4, 1, Some(Datum::str("")), Some(Datum::str("Σ"))),
            ]
        );
    }

    #[test]
    fn incremental_write_folding() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let ints = [DataType::Int];
        let data = on_one_site(1, schema);
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
