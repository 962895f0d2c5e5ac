//! Columnar execution kernels: tight per-column loops over contiguous
//! [`ColumnBatch`] buffers, behind the joins, `AggExec` and `SortExec`.
//!
//! This module is the hot core of the columnar data plane and is lint-gated
//! by rule L008: no per-row `Datum` materialization inside kernel loops —
//! rows move by typed take (`ColumnBuilder::extend_take` / `Column::take`:
//! one typed loop per column over a list of row indices), keys compare
//! through `eq_at`/`eq_datum`/`cmp_at` and hash through the vectorized
//! hasher, and the few unavoidable per-*group* datum touches carry
//! explicit pragmas.
//!
//! [`ColJoinTable`] is built in one shot once the build side is drained:
//! the build batches concatenate into one dense [`ColumnBatch`] arena, and
//! its rows link through a sized `u32` bucket directory, one `next` link
//! per row, so probes resolve key equality with typed column-vs-column
//! comparisons (`eq_at`) instead of datum clones. Chains preserve build
//! insertion order, so a probe row's matches come out in the order the
//! build side arrived. [`ColGroupTable`] stores group keys flattened into
//! one `Vec<Datum>` (materialized once per distinct group) and
//! accumulators flattened into one `Vec<Accumulator>`; per-batch
//! accumulation runs one typed loop per aggregate over the argument column,
//! skipping validity-masked rows (NULL updates are no-ops for every
//! accumulator).

use ic_common::agg::Accumulator;
use ic_common::hash::FlatMap;
use ic_common::{Bitmap, Column, ColumnBatch, ColumnData, Datum, IcResult, NIL};
use ic_plan::ops::{AggCall, SortKey};
use std::borrow::Cow;
use std::sync::Arc;

/// Columnar hash table for the build side of a hash join: a power-of-two
/// `u32` bucket directory plus one `next` link per arena row, built in one
/// shot by [`ColJoinTable::build`]. Key datums are never cloned.
pub struct ColJoinTable {
    key_cols: Vec<usize>,
    /// Every build row, NULL-key rows included (they stay unlinked).
    arena: ColumnBatch,
    /// Per-arena-row 64-bit key hash.
    hashes: Vec<u64>,
    /// Bucket → first arena row of its chain (NIL: empty bucket).
    dir: Vec<u32>,
    /// `64 - log2(dir.len())`: see [`bucket`].
    shift: u32,
    /// Per-arena-row link to the next row in the same bucket (NIL ends it).
    next: Vec<u32>,
    /// Linked rows: the arena rows without a NULL key.
    nrows: usize,
}

impl ColJoinTable {
    /// Build the table keyed on `key_cols` over a drained build side of
    /// `width` columns, with a directory sized for its rows so nothing ever
    /// rehashes. Rows are prepended last to first, which leaves every chain
    /// in insertion order; rows with a NULL key stay unlinked (they never
    /// match). The one place `exec.join.build_rows` counts.
    pub fn build(key_cols: Vec<usize>, width: usize, batches: Vec<ColumnBatch>) -> ColJoinTable {
        let arena = match batches.len() {
            0 => ColumnBatch::empty(width),
            _ => ColumnBatch::concat(&batches),
        };
        drop(batches); // before the hashes and the directory allocate
        let n = arena.num_rows();
        let hashes = arena.hash_keys(&key_cols);
        let slots = (2 * n).next_power_of_two().max(16);
        let shift = 64 - slots.trailing_zeros();
        let mut dir = vec![NIL; slots];
        let mut next = vec![NIL; n];
        let nullable: Vec<&Bitmap> =
            key_cols.iter().filter_map(|&c| arena.col(c).validity.as_ref()).collect();
        let mut nrows = 0;
        for i in (0..n).rev() {
            if nullable.iter().any(|v| !v.get(i)) {
                continue;
            }
            let b = bucket(hashes[i], shift);
            next[i] = dir[b];
            dir[b] = i as u32;
            nrows += 1;
        }
        ic_common::obs::MetricsRegistry::global().counter("exec.join.build_rows").add(nrows as u64);
        ColJoinTable { key_cols, arena, hashes, dir, shift, next, nrows }
    }

    /// Number of linked build rows (NULL-key rows excluded).
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// True when no build row can match.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// The build arena (dense).
    pub fn arena(&self) -> &ColumnBatch {
        &self.arena
    }

    /// Call `visit(k, arena row)` for every key match of every logical
    /// probe row `k` — probe rows in order, each row's matches in build
    /// insertion order; `visit` returns `false` to leave that row's chain.
    /// NULL probe keys match nothing; a bucket's chain holds every row whose
    /// hash folds there, so the stored 64-bit hash screens it before
    /// [`Column::eq_at`] on each key column resolves collisions. An empty
    /// table returns at once without hashing the batch.
    fn for_each_match(
        &self,
        batch: &ColumnBatch,
        probe_keys: &[usize],
        mut visit: impl FnMut(u32, u32) -> bool,
    ) {
        if self.is_empty() {
            return;
        }
        let hashes = batch.hash_keys(probe_keys);
        let keys = || self.key_cols.iter().zip(probe_keys);
        for (k, &hash) in hashes.iter().enumerate() {
            let phys = batch.phys_index(k);
            if !probe_keys.iter().all(|&c| batch.col(c).is_valid(phys)) {
                continue;
            }
            let mut cur = self.dir[bucket(hash, self.shift)];
            while cur != NIL {
                let b = cur as usize;
                if self.hashes[b] == hash
                    && keys().all(|(&bc, &pc)| self.arena.col(bc).eq_at(b, batch.col(pc), phys))
                    && !visit(k as u32, cur)
                {
                    break;
                }
                cur = self.next[b];
            }
        }
    }

    /// Probe one batch, producing parallel `(probe logical row, arena row)`
    /// pair vectors in probe-row order with per-key matches in build
    /// insertion order. With `emit_unmatched` (LEFT joins), a probe row
    /// with no match contributes one `(k, NIL)` pair at its position; NULL
    /// probe keys match nothing.
    pub fn probe_pairs(
        &self,
        batch: &ColumnBatch,
        probe_keys: &[usize],
        emit_unmatched: bool,
    ) -> (Vec<u32>, Vec<u32>) {
        let n = batch.num_rows() as u32;
        let mut pks: Vec<u32> = Vec::with_capacity(n as usize);
        let mut bis: Vec<u32> = Vec::with_capacity(n as usize);
        // Probe rows `from..to` had no match: one `(k, NIL)` pair each.
        let unmatched = |pks: &mut Vec<u32>, bis: &mut Vec<u32>, from: u32, to: u32| {
            if emit_unmatched {
                pks.extend(from..to);
                bis.resize(pks.len(), NIL);
            }
        };
        // Rows before `settled` have had their pairs emitted.
        let mut settled = 0u32;
        self.for_each_match(batch, probe_keys, |k, b| {
            if k >= settled {
                unmatched(&mut pks, &mut bis, settled, k);
                settled = k + 1;
            }
            pks.push(k);
            bis.push(b);
            true
        });
        unmatched(&mut pks, &mut bis, settled, n);
        (pks, bis)
    }

    /// Per-logical-row "has at least one key match" flags (short-circuits
    /// each chain) — the SEMI/ANTI fast path that never materializes.
    pub fn probe_matched(&self, batch: &ColumnBatch, probe_keys: &[usize]) -> Vec<bool> {
        let mut out = vec![false; batch.num_rows()];
        self.for_each_match(batch, probe_keys, |k, _| {
            out[k as usize] = true;
            false
        });
        out
    }
}

/// The directory bucket of `hash`: its top bits. Partitions and hash
/// exchanges route by `hash % n`, so the rows reaching one site share their
/// low bits, which would leave most of a site's buckets empty.
#[inline]
fn bucket(hash: u64, shift: u32) -> usize {
    (hash >> shift) as usize
}

/// Materialize hash-join output pairs: probe columns taken at the pairs'
/// physical probe rows, arena columns at the arena rows with `NIL` → NULL
/// (LEFT-join extension). One [`Column::take`] per output column.
pub fn gather_join_output(
    probe: &ColumnBatch,
    pks: &[u32],
    arena: &ColumnBatch,
    bis: &[u32],
) -> ColumnBatch {
    debug_assert_eq!(pks.len(), bis.len());
    let rows: Cow<[u32]> = match probe.selection() {
        None => Cow::Borrowed(pks),
        Some(_) => Cow::Owned(pks.iter().map(|&k| probe.phys_index(k as usize) as u32).collect()),
    };
    let probe_cols = probe.columns().iter().map(|c| c.take(&rows));
    let cols = probe_cols
        .chain(arena.columns().iter().map(|c| c.take(bis)))
        .map(Arc::new)
        .collect();
    ColumnBatch::new(cols, pks.len())
}

/// Grouped accumulator storage for columnar hash aggregation: group keys
/// and accumulators live in flat arrays indexed by group slot; key datums
/// are materialized once per distinct group, and per-batch accumulation is
/// one typed loop per aggregate.
pub struct ColGroupTable {
    map: FlatMap,
    group_cols: Vec<usize>,
    naggs: usize,
    ngroups: usize,
    /// Flattened keys: group `g` owns `keys[g*klen .. (g+1)*klen]`.
    keys: Vec<Datum>,
    /// Flattened accumulators: group `g` owns `accs[g*naggs .. (g+1)*naggs]`.
    accs: Vec<Accumulator>,
}

impl ColGroupTable {
    /// New table grouping on `group_cols` with `naggs` aggregates per group.
    pub fn new(group_cols: Vec<usize>, naggs: usize) -> ColGroupTable {
        ColGroupTable {
            // Start small: grouped aggregation often has a handful of
            // groups (TPC-H Q1 has 8) and a small table stays L1-resident.
            map: FlatMap::with_capacity(64),
            group_cols,
            naggs,
            ngroups: 0,
            keys: Vec::new(),
            accs: Vec::new(),
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        self.ngroups
    }

    /// True when no group exists yet.
    pub fn is_empty(&self) -> bool {
        self.ngroups == 0
    }

    /// Append a group keyed by physical row `phys` of `batch`, with fresh
    /// accumulators from `aggs`; returns its slot.
    fn push_group(&mut self, batch: &ColumnBatch, phys: usize, aggs: &[AggCall]) -> u32 {
        for &c in &self.group_cols {
            // ic-lint: allow(L008) because group keys materialize once per distinct group, not per row
            self.keys.push(batch.col(c).datum_at(phys));
        }
        self.accs.extend(aggs.iter().map(|a| Accumulator::new(a.func)));
        self.ngroups += 1;
        self.ngroups as u32 - 1
    }

    /// Resolve every logical row of `batch` to its group slot (creating
    /// groups with fresh accumulators from `aggs` on first sight), writing
    /// slots into the reused `slots` buffer.
    pub fn slots_for_batch(&mut self, batch: &ColumnBatch, aggs: &[AggCall], slots: &mut Vec<u32>) {
        slots.clear();
        let klen = self.group_cols.len();
        let n = batch.num_rows();
        if klen == 0 {
            self.ensure_scalar_group(aggs);
            slots.resize(n, 0);
            return;
        }
        let hashes = batch.hash_keys(&self.group_cols);
        for (k, &hash) in hashes.iter().enumerate().take(n) {
            let phys = batch.phys_index(k);
            let new_slot = self.ngroups as u32;
            let (slot, inserted) = {
                let keys = &self.keys;
                let group_cols = &self.group_cols;
                self.map.get_or_insert(
                    hash,
                    |p| {
                        let base = p as usize * klen;
                        group_cols
                            .iter()
                            .enumerate()
                            .all(|(i, &c)| batch.col(c).eq_datum(phys, &keys[base + i]))
                    },
                    || new_slot,
                )
            };
            if inserted {
                self.push_group(batch, phys, aggs);
            }
            slots.push(slot);
        }
    }

    /// [`ColGroupTable::slots_for_batch`] for input sorted on the group
    /// columns: a row belongs to the newest group when its key equals that
    /// group's stored key and opens a new group otherwise — no hashing, no
    /// map. Every group but the newest is closed once the batch is done.
    pub fn slots_for_sorted_batch(
        &mut self,
        batch: &ColumnBatch,
        aggs: &[AggCall],
        slots: &mut Vec<u32>,
    ) {
        slots.clear();
        let klen = self.group_cols.len();
        if klen == 0 {
            self.ensure_scalar_group(aggs);
            slots.resize(batch.num_rows(), 0);
            return;
        }
        for k in 0..batch.num_rows() {
            let phys = batch.phys_index(k);
            let same = self.ngroups > 0 && {
                let last = &self.keys[(self.ngroups - 1) * klen..];
                self.group_cols.iter().zip(last).all(|(&c, d)| batch.col(c).eq_datum(phys, d))
            };
            let slot = if same { self.ngroups as u32 - 1 } else { self.push_group(batch, phys, aggs) };
            slots.push(slot);
        }
    }

    /// Forget the first `n` groups (a streaming aggregate's emitted, closed
    /// groups); the remaining groups move down to slot 0.
    pub fn discard_front(&mut self, n: usize) {
        self.keys.drain(..n * self.group_cols.len());
        self.accs.drain(..n * self.naggs);
        self.ngroups -= n;
    }

    /// Fold one argument column into aggregate `agg_idx` of each row's
    /// group: a typed per-column loop that skips validity-masked rows
    /// (NULL updates are no-ops for every accumulator variant). `sel` is
    /// the batch's selection vector when the column is a physical input
    /// column; `None` when the column is already logically dense.
    pub fn accumulate(
        &mut self,
        agg_idx: usize,
        col: &Column,
        sel: Option<&[u32]>,
        slots: &[u32],
    ) -> IcResult<()> {
        let naggs = self.naggs;
        let phys = |k: usize| sel.map_or(k, |s| s[k] as usize);
        match &col.data {
            ColumnData::Int(v) => {
                for (k, &slot) in slots.iter().enumerate() {
                    let i = phys(k);
                    if col.is_valid(i) {
                        self.accs[slot as usize * naggs + agg_idx].update(Datum::Int(v[i]))?;
                    }
                }
            }
            ColumnData::Double(v) => {
                for (k, &slot) in slots.iter().enumerate() {
                    let i = phys(k);
                    if col.is_valid(i) {
                        self.accs[slot as usize * naggs + agg_idx].update(Datum::Double(v[i]))?;
                    }
                }
            }
            ColumnData::Date(v) => {
                for (k, &slot) in slots.iter().enumerate() {
                    let i = phys(k);
                    if col.is_valid(i) {
                        self.accs[slot as usize * naggs + agg_idx].update(Datum::Date(v[i]))?;
                    }
                }
            }
            ColumnData::Bool(v) => {
                for (k, &slot) in slots.iter().enumerate() {
                    let i = phys(k);
                    if col.is_valid(i) {
                        self.accs[slot as usize * naggs + agg_idx].update(Datum::Bool(v[i]))?;
                    }
                }
            }
            // Strings have no scalar fast path: MIN/MAX and COUNT DISTINCT
            // over strings need an owned datum anyway.
            ColumnData::Str { .. } => {
                for (k, &slot) in slots.iter().enumerate() {
                    let i = phys(k);
                    if col.is_valid(i) {
                        // ic-lint: allow(L008) because string aggregates need an owned datum per value (MIN/MAX keep it, COUNT DISTINCT hashes it)
                        self.accs[slot as usize * naggs + agg_idx].update(col.datum_at(i))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// COUNT(*): bump aggregate `agg_idx` once per logical row (no
    /// argument column, NULLs included).
    pub fn accumulate_count_star(&mut self, agg_idx: usize, slots: &[u32]) -> IcResult<()> {
        let naggs = self.naggs;
        for &slot in slots {
            self.accs[slot as usize * naggs + agg_idx].update(Datum::Int(1))?;
        }
        Ok(())
    }

    /// Mutable view of one group's accumulators (Final-phase state merge).
    #[inline]
    pub fn accs_mut(&mut self, slot: usize) -> &mut [Accumulator] {
        let base = slot * self.naggs;
        &mut self.accs[base..base + self.naggs]
    }

    /// Ensure the implicit scalar group exists (empty-input `SELECT
    /// count(*)` still emits one row).
    pub fn ensure_scalar_group(&mut self, aggs: &[AggCall]) {
        debug_assert!(self.group_cols.is_empty());
        if self.accs.is_empty() {
            self.accs.extend(aggs.iter().map(|a| Accumulator::new(a.func)));
            self.ngroups = 1;
        }
    }

    /// Move group `slot`'s key out (leaves NULLs behind) and borrow its
    /// accumulators; used once per group during output emission.
    pub fn take_group(&mut self, slot: usize) -> (Vec<Datum>, &[Accumulator]) {
        let klen = self.group_cols.len();
        let base = slot * klen;
        let key: Vec<Datum> = self.keys[base..base + klen]
            .iter_mut()
            .map(|d| std::mem::replace(d, Datum::Null))
            .collect();
        let abase = slot * self.naggs;
        (key, &self.accs[abase..abase + self.naggs])
    }
}

/// Sort permutation over a dense batch in `keys` order — the plan-level
/// [`SortKey`] face of [`ColumnBatch::sort_permutation`], which owns the
/// encoding and the ordering contract.
pub fn sort_permutation(batch: &ColumnBatch, keys: &[SortKey]) -> Vec<u32> {
    let keys: Vec<(usize, bool)> = keys.iter().map(|k| (k.col, k.desc)).collect();
    batch.sort_permutation(&keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::agg::AggFunc;
    use ic_common::{Expr, Row};
    use std::cmp::Ordering;

    fn batch(rows: &[&[i64]]) -> ColumnBatch {
        let rows: Vec<Row> =
            rows.iter().map(|r| Row(r.iter().map(|&v| Datum::Int(v)).collect())).collect();
        ColumnBatch::from_rows(&rows)
    }

    #[test]
    fn join_table_chains_preserve_insertion_order() {
        let build = vec![
            batch(&[&[7, 1], &[8, 2]]),
            batch(&[&[0, 0], &[7, 3], &[0, 0]]).with_sel(vec![1]),
            batch(&[&[7, 4], &[9, 5], &[7, 6]]),
        ];
        let t = ColJoinTable::build(vec![0], 2, build);
        let probe = batch(&[&[7], &[9]]);
        let (pks, bis) = t.probe_pairs(&probe, &[0], false);
        assert_eq!(pks, vec![0, 0, 0, 0, 1]);
        let seconds: Vec<Datum> =
            bis.iter().map(|&bi| t.arena().datum_at(1, bi as usize)).collect();
        let want = [1, 3, 4, 6, 5].map(Datum::Int);
        assert_eq!(seconds, want);
    }

    #[test]
    fn join_table_null_keys_skipped_both_sides() {
        let build = ColumnBatch::from_rows(&[
            Row(vec![Datum::Int(1), Datum::Int(10)]),
            Row(vec![Datum::Null, Datum::Int(99)]),
        ]);
        let t = ColJoinTable::build(vec![0], 2, vec![build]);
        assert_eq!(t.len(), 1);
        let probe = ColumnBatch::from_rows(&[Row(vec![Datum::Null]), Row(vec![Datum::Int(1)])]);
        let (pks, bis) = t.probe_pairs(&probe, &[0], true);
        assert_eq!(pks, vec![0, 1]);
        assert_eq!(bis[0], NIL);
        assert_eq!(bis[1], 0);
        assert_eq!(t.probe_matched(&probe, &[0]), vec![false, true]);
    }

    /// A site's rows share their hashes' low bits (routing takes `hash %
    /// partitions`); the directory must still spread them over its buckets.
    #[test]
    fn join_table_spreads_one_partitions_keys() {
        let all: Vec<Row> = (0..32_768).map(|k| Row(vec![Datum::Int(k)])).collect();
        let hashes = ColumnBatch::from_rows(&all).hash_keys(&[0]);
        let rows: Vec<Row> =
            all.into_iter().zip(hashes).filter(|(_, h)| h % 4 == 0).map(|(r, _)| r).take(4096).collect();
        assert_eq!(rows.len(), 4096);
        let t = ColJoinTable::build(vec![0], 1, vec![ColumnBatch::from_rows(&rows)]);
        assert_eq!(t.dir.len(), 8192);
        // ≈ 1 - e^(-1/2) = 39 % of them by chance; the low bits reach ≤ 25 %.
        let used = t.dir.iter().filter(|&&head| head != NIL).count();
        assert!(used > 2_900, "{used} of 8192 buckets used");
    }

    #[test]
    fn join_table_many_keys() {
        let rows: Vec<Row> =
            (0..5_000i64).map(|i| Row(vec![Datum::Int(i % 1000), Datum::Int(i)])).collect();
        let build = rows.chunks(1024).map(ColumnBatch::from_rows).collect();
        let t = ColJoinTable::build(vec![0], 2, build);
        assert_eq!(t.len(), 5_000);
        let probe: Vec<Row> = (0..1000i64).map(|k| Row(vec![Datum::Int(k)])).collect();
        let (pks, _) = t.probe_pairs(&ColumnBatch::from_rows(&probe), &[0], false);
        assert_eq!(pks.len(), 5_000);
    }

    #[test]
    fn gather_pairs_null_extends() {
        let t = ColJoinTable::build(vec![0], 2, vec![batch(&[&[2, 20]])]);
        let probe = batch(&[&[1], &[2]]);
        let (pks, bis) = t.probe_pairs(&probe, &[0], true);
        let out = gather_join_output(&probe, &pks, t.arena(), &bis);
        assert_eq!(out.num_rows(), 2);
        assert!(out.datum_at(1, 0).is_null() && out.datum_at(2, 0).is_null());
        assert_eq!(out.row_at(1), Row(vec![Datum::Int(2), Datum::Int(2), Datum::Int(20)]));
    }

    #[test]
    fn group_table_accumulates_per_key() {
        let aggs =
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }];
        let mut g = ColGroupTable::new(vec![0], 1);
        let b = batch(&[&[1, 10], &[2, 5], &[1, 20]]);
        let mut slots = Vec::new();
        g.slots_for_batch(&b, &aggs, &mut slots);
        assert_eq!(slots, vec![0, 1, 0]);
        g.accumulate(0, b.col(1), b.selection(), &slots).unwrap();
        assert_eq!(g.len(), 2);
        let (key, accs) = g.take_group(0);
        assert_eq!(key, vec![Datum::Int(1)]);
        assert_eq!(accs[0].finish(), Datum::Int(30));
        let (key, accs) = g.take_group(1);
        assert_eq!(key, vec![Datum::Int(2)]);
        assert_eq!(accs[0].finish(), Datum::Int(5));
    }

    #[test]
    fn group_table_null_keys_collapse_and_masked_rows_skip() {
        let aggs =
            vec![AggCall { func: AggFunc::Count, arg: Some(Expr::col(1)), name: "c".into() }];
        let b = ColumnBatch::from_rows(&[
            Row(vec![Datum::Null, Datum::Int(1)]),
            Row(vec![Datum::Null, Datum::Null]),
            Row(vec![Datum::Int(3), Datum::Int(2)]),
        ]);
        let mut g = ColGroupTable::new(vec![0], 1);
        let mut slots = Vec::new();
        g.slots_for_batch(&b, &aggs, &mut slots);
        assert_eq!(slots, vec![0, 0, 1]);
        g.accumulate(0, b.col(1), b.selection(), &slots).unwrap();
        let (key, accs) = g.take_group(0);
        assert!(key[0].is_null());
        // COUNT skips the NULL argument row.
        assert_eq!(accs[0].finish(), Datum::Int(1));
    }

    #[test]
    fn group_table_sorted_slots_continue_across_batches() {
        let aggs =
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }];
        let mut g = ColGroupTable::new(vec![0], 1);
        let mut slots = Vec::new();
        let b = batch(&[&[1, 10], &[1, 20], &[2, 5]]);
        g.slots_for_sorted_batch(&b, &aggs, &mut slots);
        assert_eq!(slots, vec![0, 0, 1]);
        g.accumulate(0, b.col(1), b.selection(), &slots).unwrap();
        // Group 1 is closed; group 2 stays open and moves to slot 0, where
        // the next batch's leading rows find it.
        assert_eq!(g.take_group(0).1[0].finish(), Datum::Int(30));
        g.discard_front(1);
        let b = batch(&[&[2, 6], &[3, 7]]);
        g.slots_for_sorted_batch(&b, &aggs, &mut slots);
        assert_eq!(slots, vec![0, 1]);
        g.accumulate(0, b.col(1), b.selection(), &slots).unwrap();
        let (key, accs) = g.take_group(0);
        assert_eq!((key, accs[0].finish()), (vec![Datum::Int(2)], Datum::Int(11)));
    }

    #[test]
    fn group_table_scalar_group() {
        let aggs = vec![AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() }];
        let mut g = ColGroupTable::new(vec![], 1);
        assert_eq!(g.len(), 0);
        g.ensure_scalar_group(&aggs);
        assert_eq!(g.len(), 1);
        let (key, accs) = g.take_group(0);
        assert!(key.is_empty());
        assert_eq!(accs[0].finish(), Datum::Int(0));
    }

    #[test]
    fn sort_permutation_orders_with_desc_and_ties() {
        let b = batch(&[&[2, 1], &[1, 2], &[2, 3], &[1, 4]]);
        let perm = sort_permutation(&b, &[SortKey::desc(0)]);
        // Descending on col 0, original order within equal keys.
        assert_eq!(perm, vec![0, 2, 1, 3]);
        let perm = sort_permutation(&b, &[SortKey::asc(0), SortKey::desc(1)]);
        assert_eq!(perm, vec![3, 1, 2, 0]);
    }

    /// The integer-encoded fast path must order exactly like the `cmp_at`
    /// comparator it shortcuts — across every encodable type, NULLs (first
    /// asc, last desc), -0.0/+0.0 ties, and the index tie-break.
    #[test]
    fn sort_encoding_matches_comparator_fallback() {
        let mk = |i: u64| {
            // Deterministic pseudo-random datum mix per column type.
            let r = i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
            (r % 5, (r >> 8) % 7)
        };
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..257u64 {
            let (null4, v) = mk(i);
            let int = if null4 == 0 { Datum::Null } else { Datum::Int(v as i64 - 3) };
            let (null4b, w) = mk(i + 1000);
            let dbl = if null4b == 0 {
                Datum::Null
            } else if w == 3 {
                // Both zero signs: must tie under the encoding like cmp_at.
                Datum::Double(if i % 2 == 0 { 0.0 } else { -0.0 })
            } else {
                Datum::Double(w as f64 - 3.5)
            };
            let boo = if (i + v) % 4 == 0 { Datum::Null } else { Datum::Bool(i % 3 == 0) };
            let date = if (i + w) % 4 == 0 { Datum::Null } else { Datum::Date((v as i32) - 2) };
            rows.push(Row(vec![int, dbl, boo, date]));
        }
        let b = ColumnBatch::from_rows(&rows);
        let reference = |keys: &[SortKey]| {
            let mut idx: Vec<u32> = (0..b.num_rows() as u32).collect();
            idx.sort_by(|&x, &y| {
                for k in keys {
                    let col = b.col(k.col);
                    let mut ord = col.cmp_at(x as usize, col, y as usize);
                    if k.desc {
                        ord = ord.reverse();
                    }
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                x.cmp(&y)
            });
            idx
        };
        for keys in [
            vec![SortKey::asc(0)],
            vec![SortKey::desc(0)],
            vec![SortKey::asc(1)],
            vec![SortKey::desc(1)],
            vec![SortKey::asc(2), SortKey::desc(3)],
            vec![SortKey::desc(1), SortKey::asc(0)],
            vec![SortKey::asc(3), SortKey::asc(2), SortKey::desc(0)],
        ] {
            assert_eq!(sort_permutation(&b, &keys), reference(&keys), "{keys:?}");
        }
    }
}
