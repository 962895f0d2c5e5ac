//! Property tests for the batch-at-a-time kernels: hash and nested-loop
//! join, hash and streaming aggregation, each against a brute-force oracle
//! under NULL-heavy, duplicate-heavy keys — the inputs most likely to expose
//! a bug in the arena/chain hash table, the shared join emitter or the
//! group table; the same join over large build sides — long chains, shared
//! buckets, many batches; the same join over each key kind, so every typed
//! key hashing loop runs, the NULL-free typed loop on one side against the
//! per-cell path on the other; the join-output gather against row-by-row
//! concatenation — plus the cross-layer hash contract: planner routing,
//! storage partitioning, DML pinning and executor probing all hash through
//! `ColumnBatch::hash_keys`, and its values are pinned so an accidental
//! change (a hasher tweak, a new per-type write) fails loudly.

mod common;

use common::{agg_oracle, chunked_src, join_oracle};
use ic_common::agg::{Accumulator, AggFunc};
use ic_common::{
    BinOp, Bitmap, Column, ColumnBatch, ColumnBuilder, DataType, Datum, Expr, Field, Row, Schema, NIL,
};
use ic_common::eval::eval_filter_sel;
use ic_exec::kernels::{gather_join_output, ColGroupTable};
use ic_exec::operators::{
    drain, AggExec, ControlBlock, HashJoinExec, MergeJoinExec, NestedLoopJoinExec,
};
use ic_net::{Membership, SiteId};
use ic_plan::ops::{AggCall, AggPhase, JoinKind};
use proptest::prelude::*;
use std::sync::Arc;
use ic_common::hash::{FxBuildHasher, FxHashSet};
use std::hash::BuildHasher;

fn canon(mut v: Vec<Row>) -> Vec<Row> {
    v.sort();
    v
}

/// Join/group keys skewed toward collisions: NULLs are common and the live
/// domain is tiny (guaranteeing duplicate keys). A column holds one type, as
/// every plan column does.
fn arb_key() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        Just(Datum::Null), // NULL-heavy: double weight
        (-2i64..4).prop_map(Datum::Int),
    ]
}

/// Full single-datum key domain for the hash-invariant and routing tests
/// (Date canonicalizes through the same numeric hash path as Int/Double).
fn arb_any_key() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        (-2i64..4).prop_map(Datum::Int),
        (-2i64..4).prop_map(|v| Datum::Double(v as f64)),
        (0i32..4).prop_map(Datum::Date),
    ]
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((arb_key(), -20i64..20), 0..max)
        .prop_map(|kvs| kvs.into_iter().map(|(k, v)| Row(vec![k, Datum::Int(v)])).collect())
}

/// Aggregate input rows: an Int group key skewed toward collisions, then
/// an Int, a Double, a Str and a Date argument, each NULL a quarter of the
/// time over a tiny domain, so MIN/MAX see ties and COUNT(DISTINCT) sees
/// repeats. The doubles are quarters: every sum is exact in any order.
fn arb_agg_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    const WORDS: [&str; 4] = ["", "a", "ab", "Σφ"];
    let cell = |ty: u8, bits: u64| {
        let v = (bits / 4 % 9) as i64 - 4;
        match (bits % 4, ty) {
            (0, _) => Datum::Null,
            (_, 1) => Datum::Int(v),
            (_, 2) => Datum::Double(v as f64 / 4.0),
            (_, 3) => Datum::str(WORDS[v.unsigned_abs() as usize % 4]),
            _ => Datum::Date(v as i32),
        }
    };
    collection::vec((arb_key(), any::<u64>()), 0..max).prop_map(move |rows| {
        let row = |(key, bits): (Datum, u64)| {
            Row(vec![key, cell(1, bits), cell(2, bits >> 16), cell(3, bits >> 32), cell(4, bits >> 48)])
        };
        rows.into_iter().map(row).collect()
    })
}

/// Output types of `aggs` grouped on `group` of [`arb_agg_rows`]' columns
/// in `phase`: the keys', then each aggregate's value or, `Partial`, its
/// state columns.
fn agg_types(group: &[usize], aggs: &[AggCall], phase: AggPhase) -> Vec<DataType> {
    let types = [DataType::Int, DataType::Int, DataType::Double, DataType::Str, DataType::Date];
    let input = Schema::new(types.iter().map(|&t| Field::new("c", t)).collect());
    let mut out: Vec<DataType> = group.iter().map(|&g| types[g]).collect();
    for a in aggs {
        match phase {
            AggPhase::Partial => out.extend(a.state_types(&input)),
            _ => out.push(a.output_type(&input)),
        }
    }
    out
}

proptest! {
    /// HashJoinExec (arena + chained hash table) ≡ NestedLoopJoinExec ≡ the
    /// oracle, in order, for every join kind, under NULL-heavy
    /// duplicate-heavy keys. NULL keys must match nothing (SQL equi-join
    /// semantics).
    #[test]
    fn hash_join_matches_nested_loop((l, r) in (arb_rows(32), arb_rows(32))) {
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let on = Expr::eq(Expr::col(0), Expr::col(2));
            let expect = join_oracle(&l, &r, kind, &on, 2);
            let nlj = NestedLoopJoinExec::new(
                chunked_src(&l, &[3, 5]), chunked_src(&r, &[4]), kind, on, 2,
                ControlBlock::unlimited());
            let hj = HashJoinExec::new(
                chunked_src(&l, &[3, 5]), chunked_src(&r, &[4]), kind, vec![0], vec![0],
                Expr::lit(true), 2, ControlBlock::unlimited());
            prop_assert_eq!(&drain(Box::new(nlj)).unwrap(), &expect, "nlj {:?}", kind);
            prop_assert_eq!(&drain(Box::new(hj)).unwrap(), &expect, "hash {:?}", kind);
        }
    }

    /// Hash aggregation ≡ streaming aggregation over the sorted input ≡ the
    /// oracle, group for group in first-seen order, for all seven
    /// aggregate functions over Int, Double, Str and Date arguments (and a
    /// computed one) with NULLs, NULL group keys, duplicate-heavy groups
    /// that span the tiny input batches, and empty input — grouped (no rows
    /// out) and scalar (one row out). A three-column key makes up to ~150
    /// groups, so the group directory doubles from its 128 buckets
    /// mid-input. `Partial` output carries the typed states, and a `Final`
    /// over it — through either strategy — lands back on the oracle's
    /// `Complete`. COUNT(DISTINCT) never splits, so it runs `Complete` only.
    #[test]
    fn hash_agg_matches_sort_agg(
        data in arb_agg_rows(160),
        sizes in collection::vec(1usize..6, 1..4),
        keys in 0usize..3,
    ) {
        let call = |func, arg: Option<Expr>| AggCall { func, arg, name: "a".into() };
        let col = |c| Some(Expr::col(c));
        let splittable = vec![
            call(AggFunc::Count, col(3)),
            call(AggFunc::CountStar, None),
            call(AggFunc::Sum, col(1)),
            call(AggFunc::Sum, col(2)),
            call(AggFunc::Avg, col(1)),
            call(AggFunc::Avg, col(2)),
            call(AggFunc::Min, col(1)),
            call(AggFunc::Max, col(2)),
            call(AggFunc::Min, col(3)),
            call(AggFunc::Max, col(3)),
            call(AggFunc::Min, col(4)),
            call(AggFunc::Max, col(4)),
            call(AggFunc::Max, Some(Expr::binary(BinOp::Add, Expr::col(1), Expr::lit(1i64)))),
        ];
        let mut complete_aggs = splittable.clone();
        complete_aggs.extend([1, 2, 3, 4].map(|c| call(AggFunc::CountDistinct, col(c))));
        // No key (scalar), the narrow Int key, or a wide (Int, Int, Double)
        // one: a prefix of the row order, so sorted rows are sorted on it.
        let group: Vec<usize> = [vec![], vec![0], vec![0, 1, 2]][keys].clone();
        let ctrl = || ControlBlock::unlimited();
        let mut sorted = data.clone();
        sorted.sort();
        for (phase, aggs) in [(AggPhase::Complete, &complete_aggs), (AggPhase::Partial, &splittable)] {
            let types = || agg_types(&group, aggs, phase);
            let hash = AggExec::hash(
                chunked_src(&data, &sizes), group.clone(), aggs.clone(), phase, types(), ctrl());
            prop_assert_eq!(
                drain(Box::new(hash)).unwrap(),
                agg_oracle(&data, &group, aggs, phase),
                "hash {:?}", phase
            );
            let sort = AggExec::sorted(
                chunked_src(&sorted, &sizes), group.clone(), aggs.clone(), phase, types(), ctrl());
            prop_assert_eq!(
                drain(Box::new(sort)).unwrap(),
                agg_oracle(&sorted, &group, aggs, phase),
                "sorted {:?}", phase
            );
        }
        // Partial → Final: state rows are (keys.., states..), grouped on the
        // leading key positions; sorted input gives sorted partial output.
        let aggs = &splittable;
        let final_types = || agg_types(&group, aggs, AggPhase::Final);
        let partial = agg_oracle(&sorted, &group, aggs, AggPhase::Partial);
        let complete = agg_oracle(&sorted, &group, aggs, AggPhase::Complete);
        let final_group: Vec<usize> = (0..group.len()).collect();
        // Two sites' worth of states, so Final has something to merge.
        let two_sites: Vec<Row> = partial.iter().chain(&partial).cloned().collect();
        let doubled: Vec<Row> = sorted.iter().chain(&sorted).cloned().collect();
        let twice = agg_oracle(&doubled, &group, aggs, AggPhase::Complete);
        for (states, expect) in [(&partial, &complete), (&two_sites, &twice)] {
            let hash = AggExec::hash(
                chunked_src(states, &sizes), final_group.clone(), aggs.clone(), AggPhase::Final,
                final_types(), ctrl());
            prop_assert_eq!(&canon(drain(Box::new(hash)).unwrap()), &canon(expect.clone()));
        }
        let sort = AggExec::sorted(
            chunked_src(&partial, &sizes), final_group, aggs.clone(), AggPhase::Final,
            final_types(), ctrl());
        prop_assert_eq!(drain(Box::new(sort)).unwrap(), complete);
    }

    /// Datums that compare equal hash equal under `Datum`'s own `Hash` —
    /// the invariant sets keyed by `Datum` (the oracle's COUNT DISTINCT)
    /// rely on: Int 2, Double 2.0 and the date of day 2 are one value.
    #[test]
    fn equal_datums_hash_equal(a in arb_any_key(), b in arb_any_key()) {
        let hash = |d: &Datum| FxBuildHasher::default().hash_one(d);
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b));
        }
    }

    /// Partition routing agrees across layers: the storage route (the
    /// membership map's `partition_of_hash`) and the exchange route
    /// (`Assignment::partition_of_hash`, the destination instance's
    /// partition) send every key to the same partition, with every site up
    /// and with one down — both feed off the same routing hash.
    #[test]
    fn routing_consistent_across_layers(key in arb_any_key(), payload in -50i64..50) {
        let h = ColumnBatch::from_rows(&[Row(vec![key, Datum::Int(payload)])]).hash_keys(&[0])[0];
        let map = Membership::new(4, 1).snapshot();
        for down in [FxHashSet::default(), [SiteId(2)].into_iter().collect()] {
            let assignment = map.assignment(&down).unwrap();
            prop_assert_eq!(map.partition_of_hash(h), assignment.partition_of_hash(h));
        }
    }
}

/// Key kinds for the typed-path join property: 0 = Int without NULLs, 1 =
/// Int with NULLs, 2 = Date, 3 = Double (some values non-integral), 4 =
/// Str. `(probe kind, build kind)` pairs, of one type as the binder makes
/// every equi-join key pair: each kind with itself, and both Int kinds
/// against each other, so the NULL-free typed hash loop on one side and the
/// per-cell path on the other must agree on hashes, and `eq_at` on matches.
const KEY_PAIRS: [(u8, u8); 7] = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3), (4, 4)];

fn typed_key(kind: u8, bits: u64) -> Datum {
    let v = (bits % 6) as i64 - 2;
    match kind {
        0 => Datum::Int(v),
        1 if bits.is_multiple_of(4) => Datum::Null,
        1 => Datum::Int(v),
        2 => Datum::Date(v as i32),
        3 if bits.is_multiple_of(5) => Datum::Double(v as f64 + 0.5),
        3 => Datum::Double(v as f64),
        _ => Datum::str(["", "a", "b", "línea"][(bits % 4) as usize]),
    }
}

fn typed_rows(kind: u8, raw: &[(u64, i64)]) -> Vec<Row> {
    raw.iter().map(|&(k, v)| Row(vec![typed_key(kind, k), Datum::Int(v)])).collect()
}

proptest! {
    /// HashJoinExec ≡ the oracle for every join kind over each key kind —
    /// typed key hashing and its per-cell path, with `eq_at`.
    #[test]
    fn typed_key_join_matches_oracle(
        pair in 0usize..KEY_PAIRS.len(),
        l in collection::vec((any::<u64>(), -20i64..20), 0..48),
        r in collection::vec((any::<u64>(), -20i64..20), 0..48),
    ) {
        let (lk, rk) = KEY_PAIRS[pair];
        let (l, r) = (typed_rows(lk, &l), typed_rows(rk, &r));
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let on = Expr::eq(Expr::col(0), Expr::col(2));
            let expect = join_oracle(&l, &r, kind, &on, 2);
            let hj = HashJoinExec::new(
                chunked_src(&l, &[6, 5]), chunked_src(&r, &[8, 3]), kind,
                vec![0], vec![0], Expr::lit(true), 2, ControlBlock::unlimited());
            let got = drain(Box::new(hj)).unwrap();
            prop_assert_eq!(&got, &expect, "{:?} keys {:?}", kind, (lk, rk));
        }
    }
}

/// Build-side key shapes for the large-build property: 0 = three keys, so
/// every chain is about a third of the build; 1 = mostly distinct keys, so
/// at the directory's load of at most ½ a good share of buckets hold rows
/// of several keys; 2 = an all-NULL key column; 3 = half the rows on one
/// key, the rest mostly distinct, NULLs mixed in; 4 = an empty build.
fn large_build_key(shape: u8, n: usize, bits: u64) -> Datum {
    match shape {
        0 if bits.is_multiple_of(8) => Datum::Null,
        0 => Datum::Int((bits % 3) as i64),
        1 => Datum::Int((bits % (8 * n as u64)) as i64),
        3 if bits.is_multiple_of(8) => Datum::Null,
        3 if bits & 2 == 0 => Datum::Int(0),
        3 => Datum::Int((bits % (8 * n as u64)) as i64),
        _ => Datum::Null,
    }
}

/// SplitMix64: the per-row bits of the large-build property, from one seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    /// HashJoinExec ≡ the oracle, in order, for every join kind over build
    /// sides of up to a few thousand rows cut into 1–8 batches (every other
    /// one a selection view): long duplicate chains, mostly distinct keys
    /// sharing directory buckets, an all-NULL key column and an empty
    /// build. The build's second column is the row's position, so a chain
    /// out of insertion order shows as a reordered match run.
    #[test]
    fn large_build_join_matches_oracle(
        shape in 0u8..5,
        n in 1usize..3000,
        seed in any::<u64>(),
        weights in collection::vec(1usize..100, 1..9),
        probe in collection::vec(any::<u64>(), 0..16),
    ) {
        let n = if shape == 4 { 0 } else { n };
        let r: Vec<Row> = (0..n)
            .map(|i| {
                let key = large_build_key(shape, n, mix(seed, i as u64));
                Row(vec![key, Datum::Int(i as i64)])
            })
            .collect();
        let l: Vec<Row> = probe
            .iter()
            .enumerate()
            .map(|(j, &bits)| {
                let key = match bits % 4 {
                    0 => Datum::Null,
                    1 => Datum::Int((bits >> 2) as i64 % 100_000),
                    _ if n == 0 => Datum::Int(0),
                    _ => r[(bits >> 2) as usize % n].0[0].clone(),
                };
                Row(vec![key, Datum::Int(j as i64)])
            })
            .collect();
        // Cut the build into `weights.len()` batches of proportional size.
        let total: usize = weights.iter().sum();
        let mut sizes: Vec<usize> =
            weights.iter().map(|w| n * w / total).filter(|&s| s > 0).collect();
        let cut: usize = sizes.iter().sum();
        if cut < n {
            sizes.push(n - cut);
        }
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let on = Expr::eq(Expr::col(0), Expr::col(2));
            let expect = join_oracle(&l, &r, kind, &on, 2);
            let hj = HashJoinExec::new(
                chunked_src(&l, &[7, 9]), chunked_src(&r, &sizes), kind,
                vec![0], vec![0], Expr::lit(true), 2, ControlBlock::unlimited());
            let got = drain(Box::new(hj)).unwrap();
            prop_assert_eq!(&got, &expect, "{:?} shape {} n {}", kind, shape, n);
        }
    }
}

/// Deterministic cell constructor for the columnar properties: `ty` picks
/// the column's type and `bits` the value, with a 25% NULL rate so validity
/// bitmaps are never trivial. The shim proptest has no `prop_flat_map`, so tests generate raw
/// `(types, bits)` and build typed rows here.
fn cell(ty: u8, bits: u64) -> Datum {
    const WORDS: [&str; 6] = ["", "a", "order", "clerk#7", "línea", "Σφ"];
    if bits.is_multiple_of(4) {
        return Datum::Null;
    }
    match ty {
        0 => Datum::Int((bits % 2000) as i64 - 1000),
        1 => Datum::Double(((bits % 2000) as i64 - 1000) as f64 / 4.0),
        2 => Datum::Bool(bits & 1 == 1),
        3 => Datum::Date((bits % 9999) as i32),
        _ => Datum::str(WORDS[(bits % 6) as usize]),
    }
}

fn build_rows(types: &[u8], raw: &[Vec<u64>]) -> Vec<Row> {
    raw.iter()
        .map(|r| Row(types.iter().enumerate().map(|(c, &t)| cell(t, r[c])).collect()))
        .collect()
}

/// Indices selected by a boolean keep-mask, as a logical selection vector.
fn keep_list(keep: &[bool], n: usize) -> Vec<u32> {
    (0..n).filter(|&i| keep[i]).map(|i| i as u32).collect()
}

proptest! {
    /// Row→column→row identity over every column type (typed columns with
    /// validity bitmaps), and through a selection view: `select_logical(keep)` must read back exactly the
    /// kept rows without disturbing the physical columns.
    #[test]
    fn columnar_row_round_trip(
        types in collection::vec(0u8..5, 1..5),
        raw in collection::vec(collection::vec(any::<u64>(), 6), 0..24),
        keep in collection::vec(any::<bool>(), 24),
    ) {
        let rows = build_rows(&types, &raw);
        let batch = ColumnBatch::from_rows(&rows);
        prop_assert_eq!(batch.num_rows(), rows.len());
        prop_assert_eq!(batch.to_rows(), rows.clone());

        let sel = keep_list(&keep, rows.len());
        let view = batch.select_logical(&sel);
        let expect: Vec<Row> =
            sel.iter().map(|&i| rows[i as usize].clone()).collect();
        prop_assert_eq!(view.to_rows(), expect);
        // Selection is a view: the physical rows are untouched.
        prop_assert_eq!(view.phys_rows(), rows.len());
    }

    /// `eval_filter_sel` over a (possibly already-selected) batch keeps
    /// exactly the rows the row-at-a-time `Expr::eval_filter` keeps, without
    /// materializing: the surviving batch still carries every physical row.
    #[test]
    fn filter_selection_matches_row_filter(
        rows in arb_rows(32),
        keep in collection::vec(any::<bool>(), 32),
        opc in 0u8..6,
        c in 0usize..2,
        k in -3i64..5,
        shape in 0u8..3,
    ) {
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        let cmp = Expr::binary(ops[opc as usize], Expr::col(c), Expr::lit(Datum::Int(k)));
        let other = Expr::binary(BinOp::Ge, Expr::col(1), Expr::lit(Datum::Int(0)));
        let pred = match shape {
            0 => cmp,
            1 => Expr::and(cmp, other),
            _ => Expr::or(cmp, other),
        };

        // `from_rows` on an empty slice has no arity for `Expr::col` to see.
        if rows.is_empty() {
            return Ok(());
        }
        // Stack the filter on top of an existing selection so composed
        // selection vectors are exercised, not just the dense case.
        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);

        // The surviving physical rows become the batch's selection.
        let pass = eval_filter_sel(&pred, &view).unwrap();
        let filtered = view.with_sel(pass);

        let expect: Vec<Row> = sel
            .iter()
            .map(|&i| rows[i as usize].clone())
            .filter(|r| pred.eval_filter(r).unwrap())
            .collect();
        prop_assert_eq!(filtered.to_rows(), expect);
        prop_assert_eq!(filtered.phys_rows(), rows.len());
    }

    /// `ColGroupTable` over validity-masked columns and a selection view ≡ a
    /// row-at-a-time reference that groups by datum equality and feeds
    /// `Accumulator`s: NULL values must be skipped (except COUNT(*)),
    /// NULL keys must group together, and masked-out rows must not leak in.
    #[test]
    fn masked_agg_matches_row_reference(
        kt in 0u8..5,
        vt in 0u8..2,
        raw in collection::vec(collection::vec(any::<u64>(), 6), 0..32),
        keep in collection::vec(any::<bool>(), 32),
    ) {
        // Key column over every type; value column numeric (Int/Double) so
        // SUM is well-typed, as the binder guarantees for real plans.
        let rows = build_rows(&[kt, vt], &raw);
        if rows.is_empty() {
            return Ok(());
        }
        let aggs = vec![
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
        ];

        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);
        let ty = |t| [DataType::Int, DataType::Double, DataType::Bool, DataType::Date, DataType::Str][t as usize];
        let types = [ty(kt), ty(vt), ty(vt), DataType::Int];
        let mut table = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &types);
        let mut slots = Vec::new();
        table.assign_slots(&view, false, &mut slots);
        table.fold(0, &[view.col(1).as_ref()], view.selection(), &slots).unwrap();
        table.fold(1, &[view.col(1).as_ref()], view.selection(), &slots).unwrap();
        table.fold(2, &[], None, &slots).unwrap();
        let n = table.len();
        let cols = table.split_front(n).into_iter().map(Arc::new).collect();
        let got = ColumnBatch::new(cols, n).to_rows();

        let mut reference: Vec<(Datum, Vec<Accumulator>)> = Vec::new();
        for &i in &sel {
            let row = &rows[i as usize];
            let slot = match reference.iter().position(|(k, _)| *k == row.0[0]) {
                Some(s) => s,
                None => {
                    reference.push((
                        row.0[0].clone(),
                        aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                    ));
                    reference.len() - 1
                }
            };
            let accs = &mut reference[slot].1;
            accs[0].update(row.0[1].clone()).unwrap();
            accs[1].update(row.0[1].clone()).unwrap();
            accs[2].update(Datum::Int(1)).unwrap();
        }
        let expect: Vec<Row> = reference
            .into_iter()
            .map(|(k, accs)| {
                let mut out = vec![k];
                out.extend(accs.iter().map(|a| a.finish()));
                Row(out)
            })
            .collect();
        prop_assert_eq!(canon(got), canon(expect));
    }

    /// Column-contiguous wire framing is lossless and exactly sized: for any
    /// batch — every column type, NULLs, and a selection view — the encoding
    /// is `wire_size()` bytes, decodes to the same logical rows, and the
    /// decode is dense (selection resolved at the sender).
    #[test]
    fn wire_encode_decode_identity(
        types in collection::vec(0u8..5, 1..5),
        raw in collection::vec(collection::vec(any::<u64>(), 6), 0..24),
        keep in collection::vec(any::<bool>(), 24),
    ) {
        use ic_net::wire::{decode_columns, encode_columns};
        use ic_net::WireSize;

        let rows = build_rows(&types, &raw);
        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);

        let enc = encode_columns(&view);
        prop_assert_eq!(enc.len(), view.wire_size());
        let dec = decode_columns(&enc).unwrap();
        prop_assert_eq!(dec.to_rows(), view.to_rows());
        prop_assert_eq!(dec.phys_rows(), view.num_rows());
    }

    /// `gather_join_output` ≡ concatenating rows one pair at a time: probe
    /// rows read through the probe batch's selection, arena rows by index,
    /// and a LEFT join's `NIL` arena index giving a NULL for every arena
    /// column — over every column type.
    #[test]
    fn gather_join_output_matches_rows(
        ptypes in collection::vec(0u8..5, 1..4),
        praw in collection::vec(collection::vec(any::<u64>(), 6), 1..40),
        keep in collection::vec(any::<bool>(), 40),
        atypes in collection::vec(0u8..5, 1..4),
        araw in collection::vec(collection::vec(any::<u64>(), 6), 1..40),
        pairs in collection::vec((any::<u64>(), any::<u64>()), 0..100),
    ) {
        let probe_rows = build_rows(&ptypes, &praw);
        let arena_rows = build_rows(&atypes, &araw);
        let sel = keep_list(&keep, probe_rows.len());
        if sel.is_empty() {
            return Ok(());
        }
        let probe = ColumnBatch::from_rows(&probe_rows).select_logical(&sel);
        let arena = ColumnBatch::from_rows(&arena_rows);
        let pks: Vec<u32> = pairs.iter().map(|&(p, _)| (p % sel.len() as u64) as u32).collect();
        let bis: Vec<u32> = pairs
            .iter()
            .map(|&(_, a)| if a % 4 == 0 { NIL } else { (a % arena_rows.len() as u64) as u32 })
            .collect();
        let out = gather_join_output(&probe, &pks, &arena, &bis);
        prop_assert_eq!(out.num_rows(), pks.len());
        let nulls = Row(vec![Datum::Null; atypes.len()]);
        for (k, (&pk, &bi)) in pks.iter().zip(&bis).enumerate() {
            let right = if bi == NIL { &nulls } else { &arena_rows[bi as usize] };
            let want = probe_rows[sel[pk as usize] as usize].concat(right);
            // Debug, not `==`: `Datum` equality coerces Int 2 to Double 2.0.
            prop_assert_eq!(format!("{:?}", out.row_at(k)), format!("{:?}", want), "pair {}", k);
        }
    }
}

/// Pinned routing-hash values. Every layer that routes by hash — the
/// planner's distribution pruning, storage partitioning, DML pinning and the
/// executor's exchange/probe paths — calls `ColumnBatch::hash_keys`; if its
/// output drifts (a hasher tweak, a per-type write change) partitioned data
/// silently lands on the wrong site. Update these constants only with a
/// full-cluster data reload story.
/// A key column for the key-word oracle, one value per `bits` entry, typed
/// by `ty` (0 Int, 1 Double, 2 Bool, 3 Date, 4 Str) over a domain of five
/// values so rows tie. A row is NULL one time in four and keeps a leftover
/// value in its buffer; a Double column holds `-0.0`, `0.0` and NaNs, an
/// Int column `i64::MIN` — the values without a word, in valid rows only
/// when `wordless`, in NULL rows always.
fn key_column(ty: u8, bits: &[u64], wordless: bool) -> Column {
    let mut validity = Bitmap::new();
    bits.iter().for_each(|b| validity.push(b % 4 != 0));
    let v = |b: u64| ((b >> 2) % 5) as i64;
    match ty {
        0 => {
            let int = |b: u64| match v(b) {
                0 if wordless || b.is_multiple_of(4) => i64::MIN,
                x => x - 2,
            };
            Column::from_ints(bits.iter().map(|&b| int(b)).collect(), Some(validity))
        }
        1 => {
            let double = |b: u64| match v(b) {
                0 => -0.0,
                1 => 0.0,
                2 if wordless || b.is_multiple_of(4) => f64::NAN,
                x => x as f64 - 3.5,
            };
            Column::from_doubles(bits.iter().map(|&b| double(b)).collect(), Some(validity))
        }
        2 => Column::from_bools(bits.iter().map(|&b| v(b) % 2 == 1).collect(), Some(validity)),
        3 => Column::from_dates(bits.iter().map(|&b| v(b) as i32 - 2).collect(), Some(validity)),
        _ => {
            let mut b = ColumnBuilder::new(DataType::Str);
            let words = ["", "a", "ab", "b", "Σ"];
            for &x in bits {
                b.push_datum(&if x % 4 == 0 { Datum::Null } else { Datum::str(words[v(x) as usize]) });
            }
            b.finish()
        }
    }
}

/// Multi-key rows for the word-key kernels: a key column per entry of
/// `types` (0 Int, 1 Date, 2 Bool) over a domain of three values, NULL
/// one time in six, then an Int payload.
fn word_key_rows(types: &[u8], raw: &[(Vec<u64>, i64)]) -> Vec<Row> {
    let key = |ty: u8, bits: u64| match (bits % 6, ty) {
        (0, _) => Datum::Null,
        (_, 0) => Datum::Int((bits / 6 % 3) as i64 - 1),
        (_, 1) => Datum::Date((bits / 6 % 3) as i32),
        _ => Datum::Bool(bits / 6 % 2 == 1),
    };
    let row = |(bits, v): &(Vec<u64>, i64)| {
        Row(types.iter().zip(bits).map(|(&t, &b)| key(t, b)).chain([Datum::Int(*v)]).collect())
    };
    raw.iter().map(row).collect()
}

proptest! {
    /// The key-word contract: over batches of one to three key columns of
    /// every type — NULLs holding leftover values, `-0.0` beside `0.0`,
    /// NaNs, `i64::MIN`, selections, descending keys — the encoder has
    /// words exactly when no key is a string and no selected valid row
    /// holds a NaN or `i64::MIN` (a column without a value is all NULL
    /// words, whatever its type), and
    /// then the words of any row of one view against any row of another
    /// order as `cmp_at` key by key (reversed where descending) and are
    /// equal exactly where `eq_at` holds on every key.
    #[test]
    fn key_words_order_and_equal_like_the_comparator(
        types in collection::vec(0u8..5, 1..4),
        desc in collection::vec(any::<bool>(), 3),
        bits in collection::vec(collection::vec(any::<u64>(), 40), 3),
        n in 0usize..40,
        wordless in any::<bool>(),
        keeps in (collection::vec(any::<bool>(), 40), collection::vec(any::<bool>(), 40)),
        dense in any::<bool>(),
    ) {
        let cols: Vec<Arc<Column>> =
            types.iter().zip(&bits).map(|(&t, b)| Arc::new(key_column(t, &b[..n], wordless))).collect();
        let batch = ColumnBatch::new(cols, n);
        let a = if dense { batch.clone() } else { batch.with_sel(keep_list(&keeps.0, n)) };
        let b = batch.with_sel(keep_list(&keeps.1, n));
        let keys: Vec<(usize, bool)> = (0..types.len()).map(|c| (c, desc[c])).collect();
        let has_words = |view: &ColumnBatch| {
            (0..types.len()).all(|c| {
                let col = view.col(c);
                let no_word = |k: usize| {
                    let i = view.phys_index(k);
                    let nan = col.doubles().is_some_and(|(x, _)| x[i].is_nan());
                    col.is_valid(i) && (nan || col.ints().is_some_and(|(x, _)| x[i] == i64::MIN))
                };
                // A column without a value is NULL words, whatever its type.
                col.is_all_null() || types[c] != 4 && !(0..view.num_rows()).any(no_word)
            })
        };
        let (wa, wb) = (a.key_words(&keys), b.key_words(&keys));
        prop_assert_eq!(wa.is_some(), has_words(&a), "words of view a");
        prop_assert_eq!(wb.is_some(), has_words(&b), "words of view b");
        let (Some(wa), Some(wb)) = (wa, wb) else { return Ok(()) };
        prop_assert!(wa.comparable(&wb));
        for k in 0..a.num_rows() {
            for j in 0..b.num_rows() {
                let (i, h) = (a.phys_index(k), b.phys_index(j));
                let mut want = std::cmp::Ordering::Equal;
                for &(c, desc) in &keys {
                    let ord = a.col(c).cmp_at(i, b.col(c), h);
                    want = want.then(if desc { ord.reverse() } else { ord });
                }
                let equal = keys.iter().all(|&(c, _)| a.col(c).eq_at(i, b.col(c), h));
                prop_assert_eq!(wa.cmp_rows(k, &wb, j), want, "rows {} and {}", i, h);
                prop_assert_eq!(wa.eq_rows(k, &wb, j), equal, "rows {} and {}", i, h);
            }
        }
        if dense {
            let asc: Vec<usize> = (0..types.len()).collect();
            let want: Vec<(usize, bool)> = asc.iter().map(|&c| (c, false)).collect();
            let (x, y) = (a.key_words_asc(&asc).unwrap(), a.key_words(&want).unwrap());
            prop_assert!((0..n).all(|k| x.row(k) == y.row(k)), "ascending words");
        }
    }

    /// The kernels that compare words — merge, hash and nested-loop joins,
    /// hash and sorted grouping — against the row oracle over one to three
    /// keys of Int, Date and Bool with NULLs, cut into tiny batches (every
    /// other one a selection view), for every join kind.
    #[test]
    fn word_key_kernels_match_oracle(
        types in collection::vec(0u8..3, 1..4),
        sides in (
            collection::vec((collection::vec(any::<u64>(), 3), -9i64..9), 0..40),
            collection::vec((collection::vec(any::<u64>(), 3), -9i64..9), 0..40),
        ),
        sizes in (collection::vec(1usize..6, 1..3), collection::vec(1usize..6, 1..3)),
    ) {
        let nkeys = types.len();
        let (l, r) = (word_key_rows(&types, &sides.0), word_key_rows(&types, &sides.1));
        let sorted = |rows: &[Row]| {
            let mut rows = rows.to_vec();
            rows.sort_by(|x, y| x.0[..nkeys].cmp(&y.0[..nkeys]));
            rows
        };
        let (ls, rs) = (sorted(&l), sorted(&r));
        let keys: Vec<usize> = (0..nkeys).collect();
        let width = nkeys + 1;
        let on = Expr::conjunction(
            keys.iter().map(|&k| Expr::eq(Expr::col(k), Expr::col(width + k))).collect());
        let ctrl = ControlBlock::unlimited;
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let expect = join_oracle(&l, &r, kind, &on, width);
            let nlj = NestedLoopJoinExec::new(
                chunked_src(&l, &sizes.0), chunked_src(&r, &sizes.1), kind, on.clone(), width, ctrl());
            prop_assert_eq!(&drain(Box::new(nlj)).unwrap(), &expect, "nlj {:?}", kind);
            let hj = HashJoinExec::new(
                chunked_src(&l, &sizes.0), chunked_src(&r, &sizes.1), kind, keys.clone(),
                keys.clone(), Expr::lit(true), width, ctrl());
            prop_assert_eq!(&drain(Box::new(hj)).unwrap(), &expect, "hash {:?}", kind);
            let mj = MergeJoinExec::new(
                chunked_src(&ls, &sizes.0), chunked_src(&rs, &sizes.1), kind, keys.clone(),
                keys.clone(), Expr::lit(true), width, ctrl());
            let expect = join_oracle(&ls, &rs, kind, &on, width);
            prop_assert_eq!(&drain(Box::new(mj)).unwrap(), &expect, "merge {:?}", kind);
        }
        let aggs = vec![
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(nkeys)), name: "s".into() },
        ];
        let kinds = [DataType::Int, DataType::Date, DataType::Bool];
        let out: Vec<DataType> =
            types.iter().map(|&t| kinds[t as usize]).chain([DataType::Int; 2]).collect();
        let hash = AggExec::hash(
            chunked_src(&l, &sizes.0), keys.clone(), aggs.clone(), AggPhase::Complete, out.clone(), ctrl());
        let expect = agg_oracle(&l, &keys, &aggs, AggPhase::Complete);
        prop_assert_eq!(drain(Box::new(hash)).unwrap(), expect, "hash grouping");
        let sort = AggExec::sorted(
            chunked_src(&ls, &sizes.0), keys.clone(), aggs.clone(), AggPhase::Complete, out, ctrl());
        let expect = agg_oracle(&ls, &keys, &aggs, AggPhase::Complete);
        prop_assert_eq!(drain(Box::new(sort)).unwrap(), expect, "sorted grouping");
    }
}

/// Rows of a Double key `k` (NULL for `None`) and an Int payload, the
/// payload numbering the rows.
fn double_keys(keys: &[Option<f64>]) -> Vec<Row> {
    let key = |k: &Option<f64>| k.map_or(Datum::Null, Datum::Double);
    keys.iter().enumerate().map(|(i, k)| Row(vec![key(k), Datum::Int(i as i64)])).collect()
}

/// The join of `l` and `r` on column 0 by SQL key equality — `Datum`'s
/// `==` on non-NULL keys, under which `-0.0 = 0.0` and a NaN equals
/// nothing — in left order, each row's matches in right order.
fn key_equality_join(l: &[Row], r: &[Row], kind: JoinKind) -> Vec<Row> {
    let mut out = Vec::new();
    for lr in l {
        let hits: Vec<Row> =
            r.iter().filter(|rr| !lr.0[0].is_null() && lr.0[0] == rr.0[0]).map(|rr| lr.concat(rr)).collect();
        match kind {
            JoinKind::Inner => out.extend(hits),
            JoinKind::Left if hits.is_empty() => out.push(lr.concat(&Row(vec![Datum::Null; 2]))),
            JoinKind::Left => out.extend(hits),
            JoinKind::Semi if !hits.is_empty() => out.push(lr.clone()),
            JoinKind::Anti if hits.is_empty() => out.push(lr.clone()),
            JoinKind::Semi | JoinKind::Anti => {}
        }
    }
    out
}

/// Rows as their `Debug` text: a NaN equals no datum, not even itself.
fn shown(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// Double keys holding NaN, `-0.0` and `0.0`: the merge and hash joins
/// match by SQL key equality — the zeros match each other, a NaN matches
/// nothing, not even a NaN — for every join kind, and the nested-loop
/// join agrees wherever its `ON` can be evaluated. A NaN in the
/// nested-loop join's `ON` is the error any comparison with a NaN is. The
/// inputs are sorted in `Datum` order (NULL first, NaN last), as a merge
/// join's are.
#[test]
fn joins_agree_on_nan_and_signed_zero_keys() {
    let nan = f64::NAN;
    let l = double_keys(&[None, Some(-0.0), Some(0.0), Some(0.0), Some(1.0), Some(nan), Some(nan)]);
    let r = double_keys(&[None, Some(0.0), Some(-0.0), Some(1.0), Some(nan)]);
    let on = Expr::eq(Expr::col(0), Expr::col(2));
    let ctrl = ControlBlock::unlimited;
    for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
        let expect = key_equality_join(&l, &r, kind);
        let mj = MergeJoinExec::new(
            chunked_src(&l, &[3, 2]), chunked_src(&r, &[2]), kind, vec![0], vec![0],
            Expr::lit(true), 2, ctrl());
        assert_eq!(shown(&drain(Box::new(mj)).unwrap()), shown(&expect), "merge {kind:?}");
        let hj = HashJoinExec::new(
            chunked_src(&l, &[3, 2]), chunked_src(&r, &[2]), kind, vec![0], vec![0],
            Expr::lit(true), 2, ctrl());
        assert_eq!(shown(&drain(Box::new(hj)).unwrap()), shown(&expect), "hash {kind:?}");
        // Without the NaN rows the nested-loop join answers, and agrees.
        let (ln, rn) = (&l[..5], &r[..4]);
        let nlj = NestedLoopJoinExec::new(
            chunked_src(ln, &[3, 2]), chunked_src(rn, &[2]), kind, on.clone(), 2, ctrl());
        let expect = shown(&key_equality_join(ln, rn, kind));
        assert_eq!(shown(&drain(Box::new(nlj)).unwrap()), expect, "nlj {kind:?}");
        let nlj = NestedLoopJoinExec::new(
            chunked_src(&l, &[3, 2]), chunked_src(&r, &[2]), kind, on.clone(), 2, ctrl());
        let err = drain(Box::new(nlj)).unwrap_err().to_string();
        assert!(err.contains("cannot compare") && err.contains("NaN"), "nlj {kind:?}: {err}");
    }
    // The pair that went wrong: a NaN beside a number is no match.
    let (l, r) = (double_keys(&[Some(nan)]), double_keys(&[Some(1.0)]));
    let mj = MergeJoinExec::new(
        chunked_src(&l, &[1]), chunked_src(&r, &[1]), JoinKind::Inner, vec![0], vec![0],
        Expr::lit(true), 2, ctrl());
    assert_eq!(drain(Box::new(mj)).unwrap(), vec![]);
}

#[test]
fn hash_key_values_are_pinned() {
    let cases: &[(Row, Vec<usize>, u64)] = &[
        (Row(vec![Datum::Int(0)]), vec![0], 9160104880031970547),
        (Row(vec![Datum::Double(-0.0)]), vec![0], 9160104880031970547),
        (Row(vec![Datum::Int(42)]), vec![0], 15396849362009593539),
        (Row(vec![Datum::Double(42.0)]), vec![0], 15396849362009593539),
        (Row(vec![Datum::Date(42)]), vec![0], 15396849362009593539),
        (Row(vec![Datum::Null]), vec![0], 0),
        (Row(vec![Datum::Bool(true)]), vec![0], 17266848991485191722),
        (Row(vec![Datum::str("ORDERS")]), vec![0], 252917637784019938),
        (Row(vec![Datum::str("")]), vec![0], 7974167614923963878),
        (
            Row(vec![Datum::Int(7), Datum::str("line"), Datum::Double(0.25)]),
            vec![0, 1, 2],
            12269095741450630524,
        ),
        (Row(vec![Datum::Int(7), Datum::Int(9)]), vec![1], 14880668543911939867),
    ];
    for (row, cols, expected) in cases {
        // A typed one-row batch, and the same row behind a selection.
        let batch = ColumnBatch::from_rows(std::slice::from_ref(row));
        let viewed = ColumnBatch::from_rows(&[row.clone(), row.clone()]).with_sel(vec![1]);
        for got in [batch.hash_keys(cols)[0], viewed.hash_keys(cols)[0]] {
            assert_eq!(got, *expected, "routing hash changed for {row:?} over columns {cols:?}");
        }
    }
}
