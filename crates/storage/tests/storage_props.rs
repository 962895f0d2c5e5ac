//! Property tests for the storage substrate: partition routing, statistics
//! vs brute force, seeks through an index run vs a filter, and the chunked
//! copy-on-write store vs a `Vec<Row>` model.

use ic_common::row::BATCH_SIZE;
use ic_common::{BinOp, ColumnBatch, DataType, Datum, Expr, Field, Row, Schema};
use ic_exec::operators::{ControlBlock, RowSource, ScanSource};
use ic_plan::ops::SortKey;
use ic_storage::write::apply_op;
use ic_storage::{Catalog, PartStore, TableDistribution, WriteOp};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("s", DataType::Str),
    ])
}

fn rows(data: &[(i64, i64)]) -> Vec<Row> {
    data.iter()
        .map(|&(k, v)| Row(vec![Datum::Int(k), Datum::Int(v), Datum::str(format!("s{}", v % 3))]))
        .collect()
}

proptest! {
    /// Every inserted row lands in exactly one partition, and co-located
    /// keys land in the same partition regardless of insertion batch.
    #[test]
    fn partition_routing(data in proptest::collection::vec((0i64..500, -100i64..100), 1..120),
                         sites in 1usize..9) {
        let cat = Catalog::new(sites, 0);
        let t = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(t, rows(&data)).unwrap();
        let table = cat.table_data(t).unwrap();
        prop_assert_eq!(table.total_rows(), data.len());
        // Same key -> same partition.
        let map = cat.membership().snapshot();
        for p in 0..table.num_partitions() {
            for chunk in table.store(p).chunks().iter() {
                for h in chunk.hash_keys(&[0]) {
                    prop_assert_eq!(map.partition_of_hash(h), p);
                }
            }
        }
    }

    /// Statistics equal brute-force counts.
    #[test]
    fn stats_match_brute_force(data in proptest::collection::vec((0i64..50, -10i64..10), 0..100)) {
        let cat = Catalog::new(4, 0);
        let t = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(t, rows(&data)).unwrap();
        cat.analyze(t).unwrap();
        let stats = cat.table_stats(t).unwrap();
        prop_assert_eq!(stats.row_count as usize, data.len());
        if !data.is_empty() {
            let distinct_k: ic_common::FxHashSet<i64> = data.iter().map(|(k, _)| *k).collect();
            let distinct_v: ic_common::FxHashSet<i64> = data.iter().map(|(_, v)| *v).collect();
            prop_assert_eq!(stats.columns[0].ndv as usize, distinct_k.len());
            prop_assert_eq!(stats.columns[1].ndv as usize, distinct_v.len());
            let min_v = data.iter().map(|(_, v)| *v).min().unwrap();
            prop_assert_eq!(stats.columns[1].min.clone(), Some(Datum::Int(min_v)));
        }
    }

    /// Seeks through an index run skip only what sorts below their target.
    /// A key-sorted run of `(k, position)` rows (NULL keys first) is cut
    /// into chunks of one size and scanned — whole or as one splitter's
    /// stride — while a non-decreasing sequence of targets is sought, a few
    /// batches pulled after each, the rest drained after the last. Every
    /// row the scan's share holds comes out in run order unless it sorts
    /// below the target in force when the scan passed it — so every row at
    /// or above the target comes out, and any row dropped sorts below it.
    #[test]
    fn index_range_matches_filter(
        keys in proptest::collection::vec(-1i64..40, 0..120),
        chunk in 1usize..9,
        steps in proptest::collection::vec((0i64..12, 0usize..3), 0..8),
        split in 0usize..3,
    ) {
        let mut keys = keys;
        keys.sort();
        let key = |k: i64| if k < 0 { Datum::Null } else { Datum::Int(k) };
        let types = [DataType::Int, DataType::Int];
        let rows: Vec<Row> =
            keys.iter().enumerate().map(|(i, &k)| Row(vec![key(k), Datum::Int(i as i64)])).collect();
        let run: Vec<Arc<ColumnBatch>> = rows
            .chunks(chunk)
            .map(|c| Arc::new(ColumnBatch::from_typed_rows(&types, c)))
            .collect();
        // `split` 0: the whole run; otherwise variant 1 of `split + 1`.
        let share = (split > 0).then_some((1, split + 1));
        let mut scan = ScanSource::new(Arc::new(run), share, ControlBlock::unlimited())
            .sorted_on(&[SortKey::asc(0)]);
        // (position, target in force when it came out)
        let mut out: Vec<(usize, i64)> = Vec::new();
        // The last key of the stored chunk a batch is a view of.
        let last_key = |b: &ColumnBatch| b.col(0).datum_at(b.phys_rows() - 1);
        let mut pull = |scan: &mut ScanSource, target: i64| {
            let batch = scan.next_batch().unwrap();
            if let Some(b) = &batch {
                out.extend(b.to_rows().iter().map(|r| (r.0[1].as_int().unwrap() as usize, target)));
            }
            batch
        };
        let mut target = -1;
        for (step, pulls) in steps {
            target += step;
            let at = ColumnBatch::from_typed_rows(&types[..1], &[Row(vec![Datum::Int(target)])]);
            scan.seek(&[0], &at, &[0], 0);
            for p in 0..pulls {
                // The seek skipped every chunk that ends below the target.
                if let Some(b) = pull(&mut scan, target).filter(|_| p == 0) {
                    let reaches = last_key(&b) >= Datum::Int(target);
                    prop_assert!(reaches, "a chunk below {} read", target);
                }
            }
        }
        while pull(&mut scan, target).is_some() {}
        let mine = |i: usize| share.is_none_or(|(vid, n)| i % n == vid);
        prop_assert!(out.iter().all(|&(i, _)| mine(i)), "a row outside the stride: {:?}", out);
        prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "out of run order: {:?}", out);
        // Each row of the share not emitted sorts below the target in force
        // at the next row out (or at the end).
        let mut next = out.iter().peekable();
        for i in (0..rows.len()).filter(|&i| mine(i)) {
            match next.peek() {
                Some(&&(j, _)) if j == i => {
                    next.next();
                }
                later => {
                    let t = later.map_or(target, |&&(_, t)| t);
                    // A NULL key (-1 here) sorts below every target.
                    let below = keys[i] < 0 || keys[i] < t;
                    prop_assert!(below, "row {} (key {}) dropped at target {}", i, keys[i], t);
                }
            }
        }
    }

    /// Index partitions are sorted after every rebuild.
    #[test]
    fn index_sorted_after_rebuild(data in proptest::collection::vec((0i64..40, -40i64..40), 0..80)) {
        let cat = Catalog::new(2, 0);
        let t = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        let ix = cat.create_index("ix", t, vec![1, 0]).unwrap();
        cat.insert(t, rows(&data)).unwrap();
        cat.analyze(t).unwrap();
        let (index, table) = (cat.index(ix).unwrap(), cat.table_data(t).unwrap());
        for p in 0..index.num_partitions() {
            let sorted: Vec<Row> =
                index.run_for(p, &table.store(p)).iter().flat_map(|c| c.to_rows()).collect();
            prop_assert_eq!(sorted.len(), table.store(p).num_rows());
            for w in sorted.windows(2) {
                prop_assert!(w[0].project(&[1, 0]) <= w[1].project(&[1, 0]));
            }
        }
    }
}

// ------------------------------------------------- chunked store vs model

/// One write of the model test, over rows `(k, v, s)` with primary key `k`.
#[derive(Debug, Clone)]
enum ModelOp {
    /// Upsert `(k, v)` pairs (duplicates within the batch allowed).
    Upsert(Vec<(i64, i64)>),
    /// `SET v = v + delta, s = 'u' WHERE lo <= k < hi`.
    UpdateRange { lo: i64, hi: i64, delta: i64 },
    /// `SET v = 0 WHERE v IS NOT NULL AND k % 7 = r` (rows scattered over
    /// every chunk).
    UpdateScattered { r: i64 },
    /// `DELETE WHERE lo <= k < hi`.
    DeleteRange { lo: i64, hi: i64 },
}

const KEYS: i64 = 3 * BATCH_SIZE as i64;

fn model_schema() -> Schema {
    let field = |n: &str, t| Field::new(n, t);
    Schema::new(vec![field("k", DataType::Int), field("v", DataType::Int), field("s", DataType::Str)])
}

fn model_row(k: i64, v: i64) -> Row {
    // NULLs and strings ride along so validity bitmaps and string arenas
    // are rebuilt too.
    let v = if v % 5 == 0 { Datum::Null } else { Datum::Int(v) };
    Row(vec![Datum::Int(k), v, Datum::str(format!("s{}", k % 3))])
}

fn rows_of(store: &PartStore) -> Vec<Row> {
    store.chunks().iter().flat_map(|c| c.to_rows()).collect()
}

fn in_range(lo: i64, hi: i64) -> Expr {
    Expr::and(
        Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(lo)),
        Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(hi)),
    )
}

fn model_op() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        proptest::collection::vec((0i64..KEYS, -50i64..50), 1..8).prop_map(ModelOp::Upsert),
        // A long upsert run: appends across a chunk boundary.
        (0i64..KEYS, 1i64..(2 * BATCH_SIZE as i64)).prop_map(|(from, n)| {
            ModelOp::Upsert((from..from + n).map(|k| (k, k)).collect())
        }),
        (0i64..KEYS, 0i64..600, 1i64..9)
            .prop_map(|(lo, len, delta)| ModelOp::UpdateRange { lo, hi: lo + len, delta }),
        (0i64..7).prop_map(|r| ModelOp::UpdateScattered { r }),
        (0i64..KEYS, 0i64..1500).prop_map(|(lo, len)| ModelOp::DeleteRange { lo, hi: lo + len }),
    ]
}

fn to_write_op(op: &ModelOp) -> WriteOp {
    match op {
        ModelOp::Upsert(kvs) => {
            let rows: Vec<Row> = kvs.iter().map(|&(k, v)| model_row(k, v)).collect();
            WriteOp::Insert { rows: ColumnBatch::from_typed_rows(&model_schema().types(), &rows) }
        }
        ModelOp::UpdateRange { lo, hi, delta } => WriteOp::Update {
            assignments: vec![
                (1, Expr::binary(BinOp::Add, Expr::col(1), Expr::lit(*delta))),
                (2, Expr::lit(Datum::str("u"))),
            ],
            predicate: Some(in_range(*lo, *hi)),
        },
        ModelOp::UpdateScattered { r } => WriteOp::Update {
            assignments: vec![(1, Expr::lit(0i64))],
            predicate: Some(Expr::and(
                Expr::binary(BinOp::Ge, Expr::col(1), Expr::lit(i64::MIN)),
                Expr::eq(
                    Expr::binary(
                        BinOp::Sub,
                        Expr::col(0),
                        Expr::binary(
                            BinOp::Mul,
                            Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(7i64)),
                            Expr::lit(7i64),
                        ),
                    ),
                    // `/` is a Double, so the difference is one too.
                    Expr::lit(*r as f64),
                ),
            )),
        },
        ModelOp::DeleteRange { lo, hi } => WriteOp::Delete { predicate: Some(in_range(*lo, *hi)) },
    }
}

/// The row-vector reference: what the op does to a `Vec<Row>`, plus the
/// positions (in the pre-image) of every row it touched and whether it
/// appended.
fn apply_to_model(rows: &mut Vec<Row>, op: &WriteOp) -> (Vec<usize>, bool) {
    let mut touched = Vec::new();
    let mut appended = false;
    match op {
        WriteOp::Insert { rows: new_rows } => {
            let pre_len = rows.len();
            for nr in &new_rows.to_rows() {
                match rows.iter().position(|r| r.0[0] == nr.0[0]) {
                    Some(i) => {
                        rows[i] = nr.clone();
                        if i < pre_len {
                            touched.push(i);
                        }
                    }
                    None => {
                        rows.push(nr.clone());
                        appended = true;
                    }
                }
            }
        }
        WriteOp::Update { assignments, predicate } => {
            for (i, row) in rows.iter_mut().enumerate() {
                if predicate.as_ref().is_none_or(|p| p.eval_filter(row).unwrap()) {
                    let pre = row.clone();
                    for (col, e) in assignments {
                        row.0[*col] = e.eval(&pre).unwrap();
                    }
                    touched.push(i);
                }
            }
        }
        WriteOp::Delete { predicate } => {
            let mut i = 0;
            rows.retain(|row| {
                let hit = predicate.as_ref().is_none_or(|p| p.eval_filter(row).unwrap());
                if hit {
                    touched.push(i);
                }
                i += 1;
                !hit
            });
        }
    }
    (touched, appended)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Random insert / upsert / update / delete sequences against the
    /// chunked store and a `Vec<Row>` model: same rows in the same order,
    /// every chunk dense and 1..=BATCH_SIZE rows, chunks no write touched
    /// pointer-shared with the predecessor snapshot, and a snapshot taken
    /// before a write reads identically after it.
    #[test]
    fn chunked_store_matches_row_model(ops in proptest::collection::vec(model_op(), 1..14)) {
        // Start from ~2.5 chunks so range ops span chunk boundaries.
        let seed: Vec<(i64, i64)> = (0..(5 * BATCH_SIZE as i64 / 2)).map(|k| (k, k)).collect();
        let seed_rows: Vec<Row> = seed.iter().map(|&(k, v)| model_row(k, v)).collect();
        let (mut store, n) =
            apply_op(&PartStore::default(), &to_write_op(&ModelOp::Upsert(seed)), &model_schema(), &[0])
                .unwrap();
        prop_assert_eq!(n, seed_rows.len());
        let mut model = seed_rows;
        for op in &ops {
            let write = to_write_op(op);
            let before = store.clone();
            let before_rows = rows_of(&before);
            prop_assert_eq!(&before_rows, &model);
            let (touched, appended) = apply_to_model(&mut model, &write);
            let (after, affected) = apply_op(&before, &write, &model_schema(), &[0]).unwrap();
            let expect_affected = match &write {
                WriteOp::Insert { rows } => rows.num_rows(),
                _ => touched.len(),
            };
            prop_assert_eq!(affected, expect_affected, "{:?}", op);
            prop_assert_eq!(after.version(), before.version() + 1);
            prop_assert_eq!(rows_of(&after), model.clone(), "{:?}", op);
            for chunk in after.chunks().iter() {
                prop_assert!(chunk.selection().is_none(), "chunk carries a selection");
                prop_assert!((1..=BATCH_SIZE).contains(&chunk.num_rows()), "chunk of {} rows", chunk.num_rows());
                prop_assert_eq!(chunk.phys_rows(), chunk.num_rows());
            }
            // Torn-read guarantee: the old snapshot is frozen.
            prop_assert_eq!(rows_of(&before), before_rows);
            // Untouched chunks are shared, not copied.
            let mut start = 0usize;
            let last = before.chunks().len().saturating_sub(1);
            for (c, chunk) in before.chunks().iter().enumerate() {
                let end = start + chunk.num_rows();
                let hit = touched.iter().any(|&i| (start..end).contains(&i));
                let topped_up = appended && c == last && chunk.num_rows() < BATCH_SIZE;
                if !hit && !topped_up {
                    prop_assert!(
                        after.chunks().iter().any(|a| Arc::ptr_eq(a, chunk)),
                        "untouched chunk {} was copied by {:?}", c, op
                    );
                }
                start = end;
            }
            store = after;
        }
    }
}
