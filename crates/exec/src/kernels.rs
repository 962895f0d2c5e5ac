//! Columnar execution kernels: tight per-column loops over contiguous
//! [`ColumnBatch`] buffers, behind the joins, `AggExec` and `SortExec`.
//!
//! This module is the hot core of the columnar data plane and is lint-gated
//! by rule L008: no per-row `Datum` materialization inside kernel loops —
//! rows move by typed take (`ColumnBuilder::extend_take` / `Column::take`),
//! keys compare as key words ([`KeyWords`]: `ColumnBatch::key_words`'s
//! order-preserving encoding) — through `eq_at`/`cmp_at` only where a key
//! has no words (a string, a NaN) — and hash through the vectorized
//! hasher. Both hash tables find keys through one [`HashDir`], with the
//! keys kept as typed columns and their words. [`ColJoinTable`] is built in
//! one shot once the build side is drained, its chains in build order, so a
//! probe row's matches come out in the order the build side arrived. [`ColGroupTable`]
//! grows group by group: a group's key is one row of typed key columns, and
//! each aggregate keeps typed state vectors — COUNT an `i64`, SUM an `i64`
//! or `f64`, AVG a sum and a count, MIN/MAX a value of the argument's type
//! — folded by one typed loop per aggregate and emitted as they are.

use ic_common::agg::AggFunc;
use ic_common::{
    Bitmap, Column, ColumnBatch, ColumnBuilder, DataType, HashDir, IcError, IcResult, KeyWords,
    NIL,
};
use ic_common::row::BATCH_SIZE;
use ic_plan::ops::{AggCall, AggPhase, SortKey};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Columnar hash table for the build side of a hash join: a [`HashDir`]
/// over the arena rows, built in one shot by [`ColJoinTable::build`]. Key
/// datums are never cloned.
pub struct ColJoinTable {
    key_cols: Vec<usize>,
    /// Every build row, NULL-key rows included (they stay unlinked).
    arena: ColumnBatch,
    /// Arena row → chain of the rows sharing its bucket.
    dir: HashDir,
    /// Linked rows: the arena rows without a NULL key.
    nrows: usize,
    /// The arena's key words; `None` for a key without words.
    words: Option<KeyWords>,
}

impl ColJoinTable {
    /// Build the table keyed on `key_cols` over a drained build side of
    /// `width` columns, with a directory sized for its rows so nothing ever
    /// rehashes. Every chain is in insertion order; rows with a NULL key
    /// stay unlinked (they never match). The one place
    /// `exec.join.build_rows` counts.
    pub fn build(key_cols: Vec<usize>, width: usize, batches: Vec<ColumnBatch>) -> ColJoinTable {
        let arena = match batches.len() {
            0 => ColumnBatch::empty(width),
            _ => ColumnBatch::concat(&batches),
        };
        drop(batches); // before the hashes and the directory allocate
        let nullable: Vec<&Bitmap> =
            key_cols.iter().filter_map(|&c| arena.col(c).validity()).collect();
        let mut nrows = 0;
        let dir = HashDir::build(arena.hash_keys(&key_cols), |i| {
            let linked = nullable.iter().all(|v| v.get(i));
            nrows += linked as usize;
            linked
        });
        ic_common::obs::MetricsRegistry::global().counter("exec.join.build_rows").add(nrows as u64);
        let words = arena.key_words_asc(&key_cols);
        ColJoinTable { key_cols, arena, dir, nrows, words }
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
    /// NULL probe keys match nothing; the directory hands over the rows with
    /// the probe row's hash, and the key words — or, for keys without
    /// words, [`Column::eq_at`] on each key column — resolve collisions. An
    /// empty table returns at once.
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
        let words = self.words.as_ref().and_then(|built| {
            batch.key_words_asc(probe_keys).filter(|probe| built.comparable(probe)).map(|p| (built, p))
        });
        if let Some((built, probe)) = words {
            // A NULL key's word is 0 and no linked row has one: a probe row
            // with a NULL key equals no entry.
            for (k, &hash) in hashes.iter().enumerate() {
                for b in self.dir.matches(hash) {
                    if built.eq_rows(b as usize, &probe, k) && !visit(k as u32, b) {
                        break;
                    }
                }
            }
            return;
        }
        let keys = || self.key_cols.iter().zip(probe_keys);
        for (k, &hash) in hashes.iter().enumerate() {
            let phys = batch.phys_index(k);
            if !probe_keys.iter().all(|&c| batch.col(c).is_valid(phys)) {
                continue;
            }
            for b in self.dir.matches(hash) {
                if keys().all(|(&bc, &pc)| self.arena.col(bc).eq_at(b as usize, batch.col(pc), phys))
                    && !visit(k as u32, b)
                {
                    break;
                }
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

/// Group table for columnar aggregation in every phase. Groups are numbered
/// by slot in first-seen order; a group's key is one row of typed key
/// columns, and each aggregate keeps typed state vectors indexed by slot.
pub struct ColGroupTable {
    group_cols: Vec<usize>,
    phase: AggPhase,
    /// The hash strategy's key → slot directory: entry `s` is slot `s`.
    dir: HashDir,
    /// One typed column per group key; row `s` is slot `s`'s key.
    keys: Vec<ColumnBuilder>,
    /// Row `s` is slot `s`'s key words, while every batch's keys have had
    /// words; `None` from the first that has not (a string key, a NaN), and
    /// slots compare column by column from then on.
    words: Option<KeyWords>,
    states: Vec<AggState>,
    len: usize,
}

impl ColGroupTable {
    /// New table grouping on `group_cols` for `aggs` in `phase`. `types`
    /// are the output field types — the keys', then each aggregate's value
    /// or, `Partial`, its state columns — and type every key and state.
    pub fn new(
        group_cols: Vec<usize>,
        aggs: &[AggCall],
        phase: AggPhase,
        types: &[DataType],
    ) -> ColGroupTable {
        let (key_types, mut rest) = types.split_at(group_cols.len());
        let mut state = |func: AggFunc| {
            let ty = rest[0];
            rest = &rest[if phase == AggPhase::Partial { func.state_width() } else { 1 }..];
            AggState::new(func, ty)
        };
        ColGroupTable {
            states: aggs.iter().map(|a| state(a.func)).collect(),
            group_cols,
            phase,
            dir: HashDir::default(),
            keys: key_types.iter().map(|&t| ColumnBuilder::new(t)).collect(),
            words: KeyWords::empty(key_types),
            len: 0,
        }
    }

    /// Number of groups held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no group exists yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolve every logical row of `batch` to its group slot, opening
    /// groups on first sight, into the reused `slots` buffer. Input
    /// `sorted` on the group columns needs no hashing: a row belongs to the
    /// newest group when its key equals that group's and opens a new one
    /// otherwise, and every group but the newest is closed once the batch
    /// is done. A row's key is compared with a slot's by their key words
    /// where both have them.
    pub fn assign_slots(&mut self, batch: &ColumnBatch, sorted: bool, slots: &mut Vec<u32>) {
        slots.clear();
        if self.group_cols.is_empty() {
            self.ensure_scalar_group();
            slots.resize(batch.num_rows(), 0);
            return;
        }
        // Sorted input reads no hash.
        let hashes =
            if sorted { vec![0; batch.num_rows()] } else { batch.hash_keys(&self.group_cols) };
        let words = self.words.as_ref().and_then(|held| {
            batch.key_words_asc(&self.group_cols).filter(|words| held.comparable(words))
        });
        if words.is_none() {
            self.words = None;
        }
        let ColGroupTable { group_cols, dir, keys, words: held, states, len, .. } = self;
        for (k, &hash) in hashes.iter().enumerate() {
            let phys = batch.phys_index(k);
            let same = |s: u32| match (&*held, &words) {
                (Some(held), Some(words)) => held.eq_rows(s as usize, words, k),
                _ => keys
                    .iter()
                    .zip(&*group_cols)
                    .all(|(key, &c)| key.eq_at(s as usize, batch.col(c), phys)),
            };
            let (slot, fresh) = match (sorted, *len as u32) {
                (true, len) if len > 0 && same(len - 1) => (len - 1, false),
                (true, len) => (len, true),
                (false, _) => dir.find_or_insert(hash, same),
            };
            if fresh {
                for (key, &c) in keys.iter_mut().zip(&*group_cols) {
                    key.extend_take(batch.col(c), &[phys as u32]);
                }
                if let (Some(held), Some(words)) = (held.as_mut(), &words) {
                    held.push_row(words, k);
                }
                states.iter_mut().for_each(AggState::push);
                *len += 1;
            }
            slots.push(slot);
        }
    }

    /// Fold one batch into aggregate `agg` of each logical row's group: row
    /// `k` is physical row `sel[k]` of `cols` (`k` without a selection) and
    /// goes to group `slots[k]`. `cols` is the argument (none for COUNT(*))
    /// or, `Final`, the shipped state columns, folded by the same typed
    /// loops: counts and AVG's sum and count add up, and a SUM, MIN or MAX
    /// state is a value. NULLs fold nothing.
    pub fn fold(
        &mut self,
        agg: usize,
        cols: &[&Column],
        sel: Option<&[u32]>,
        slots: &[u32],
    ) -> IcResult<()> {
        let merging = self.phase == AggPhase::Final;
        let state = &mut self.states[agg];
        let Some(&col) = cols.first() else {
            if let AggState::Count(count) = state {
                slots.iter().for_each(|&s| count[s as usize] += 1);
            }
            return Ok(());
        };
        let valid = rows(sel, slots).filter(|&(_, i)| col.is_valid(i));
        let (ints, doubles) = (col.ints().map(|(x, _)| x), col.doubles().map(|(x, _)| x));
        // A `Final` AVG's second state column: the counts.
        let counts = cols.get(1).map(|c| c.ints().map(|(n, _)| n));
        match (state, ints, doubles, counts) {
            (AggState::Count(count), Some(x), ..) if merging => {
                valid.for_each(|(s, i)| count[s] += x[i])
            }
            (AggState::Count(count), ..) => valid.for_each(|(s, _)| count[s] += 1),
            (AggState::Avg(sum, count), _, Some(x), Some(Some(n))) => valid.for_each(|(s, i)| {
                sum[s] += x[i];
                count[s] += n[i];
            }),
            (AggState::Avg(sum, count), Some(x), _, None) => valid.for_each(|(s, i)| {
                sum[s] += x[i] as f64;
                count[s] += 1;
            }),
            (AggState::Avg(sum, count), _, Some(x), None) => valid.for_each(|(s, i)| {
                sum[s] += x[i];
                count[s] += 1;
            }),
            (AggState::Distinct { .. }, ..) if merging => {
                return Err(IcError::Internal("COUNT(DISTINCT) has no Final phase".into()))
            }
            (AggState::Distinct { count, pairs, base }, ..) => {
                let (mut groups, mut rows) = (Vec::with_capacity(slots.len()), Vec::with_capacity(slots.len()));
                valid.for_each(|(s, i)| {
                    groups.push(s);
                    rows.push(i as u32);
                });
                if rows.is_empty() {
                    return Ok(());
                }
                let pairs = pairs.get_or_insert_with(|| {
                    let types = [DataType::Int, col.data_type()];
                    Box::new(ColGroupTable::new(vec![0, 1], &[], AggPhase::Complete, &types))
                });
                let ordinals = groups.iter().map(|&s| (*base + s) as i64).collect();
                let ordinals = Column::from_ints(ordinals, None);
                let key = ColumnBatch::new(vec![Arc::new(ordinals), Arc::new(col.take(&rows))], rows.len());
                let (mut fresh, mut pair_slots) = (pairs.len() as u32, Vec::with_capacity(rows.len()));
                pairs.assign_slots(&key, false, &mut pair_slots);
                // The row that opens a pair counts it for its group.
                for (&s, &p) in groups.iter().zip(&pair_slots) {
                    if p == fresh {
                        count[s] += 1;
                        fresh += 1;
                    }
                }
            }
            (state, ..) => return state.fold_value(col, sel, slots),
        }
        Ok(())
    }

    /// Ensure the implicit scalar group exists (empty-input `SELECT
    /// count(*)` still emits one row).
    pub fn ensure_scalar_group(&mut self) {
        debug_assert!(self.group_cols.is_empty());
        if self.len == 0 {
            self.states.iter_mut().for_each(AggState::push);
            self.len = 1;
        }
    }

    /// Remove the first `n` groups and return their output columns: the
    /// keys, then each aggregate's value (`Complete`, `Final`) or state
    /// columns as they are (`Partial`). The other groups move down to slot
    /// 0, which only sorted input needs: a hash table splits once, all its
    /// groups, when its input has ended.
    pub fn split_front(&mut self, n: usize) -> Vec<Column> {
        debug_assert!(n == self.len || self.dir.is_empty());
        if n == self.len {
            self.dir = HashDir::default();
        }
        let mut out: Vec<Column> = self.keys.iter_mut().map(|key| split_column(key, n)).collect();
        if let Some(words) = &mut self.words {
            words.drain_front(n);
        }
        for state in &mut self.states {
            state.split_front(n, self.phase, &mut out);
        }
        self.len -= n;
        out
    }

    /// Keep just the groups `slots` (increasing), renumbered from 0 in that
    /// order, in place: directory and key columns keep their capacity. For
    /// a table without aggregates (COUNT(DISTINCT)'s pairs).
    fn keep_groups(&mut self, slots: &[u32]) {
        debug_assert!(self.states.is_empty());
        self.dir.keep(slots);
        self.keys.iter_mut().for_each(|key| key.keep(slots));
        if let Some(words) = &mut self.words {
            words.keep(slots);
        }
        self.len = slots.len();
    }
}

/// The first `n` rows of `b` as a column; `b` keeps the rest.
fn split_column(b: &mut ColumnBuilder, n: usize) -> Column {
    let ty = b.data_type();
    let col = std::mem::replace(b, ColumnBuilder::new(ty)).finish();
    if n == col.len() {
        return col;
    }
    b.extend_take(&col, &(n as u32..col.len() as u32).collect::<Vec<_>>());
    col.take(&(0..n as u32).collect::<Vec<_>>())
}

/// The first `n` elements of `v`; `v` keeps the rest.
fn split<T>(v: &mut Vec<T>, n: usize) -> Vec<T> {
    let rest = v.split_off(n);
    std::mem::replace(v, rest)
}

/// `(group slot, physical row)` of each logical row `k`: `slots[k]`, and
/// `sel[k]` — or `k`, for a logically dense column.
#[inline]
fn rows<'a>(sel: Option<&'a [u32]>, slots: &'a [u32]) -> impl Iterator<Item = (usize, usize)> + 'a {
    slots.iter().enumerate().map(move |(k, &s)| (s as usize, sel.map_or(k, |sel| sel[k] as usize)))
}

/// The validity of a column NULL where `valid` is false.
fn validity_of(valid: &[bool]) -> Option<Bitmap> {
    valid.contains(&false).then(|| {
        let mut bits = Bitmap::new();
        valid.iter().for_each(|&v| bits.push(v));
        bits
    })
}

/// One aggregate's state for every group, indexed by slot: exactly its
/// `Partial` state columns (`AggCall::state_types`).
enum AggState {
    /// COUNT and COUNT(*).
    Count(Vec<i64>),
    /// SUM of Ints, adding wrapping as Int arithmetic does, and whether
    /// the group has seen a value (SUM of nothing is NULL).
    SumInt(Vec<i64>, Vec<bool>),
    /// SUM of Doubles, and whether the group has seen a value.
    SumDouble(Vec<f64>, Vec<bool>),
    /// AVG: the sum of the values and their count.
    Avg(Vec<f64>, Vec<i64>),
    /// MIN, or MAX when `max`: each group's best value so far, a row of
    /// `seen` (NIL: none yet). `seen` holds every value that once was a
    /// best, compacted when it outgrows twice the groups plus a batch.
    Best { best: Vec<u32>, seen: ColumnBuilder, max: bool },
    /// COUNT(DISTINCT): the count, over one group table keyed on (group
    /// ordinal, value) for all groups. A group's ordinal is `base` plus its
    /// slot, which stays put while the groups ahead of it close.
    Distinct { count: Vec<i64>, pairs: Option<Box<ColGroupTable>>, base: usize },
}

impl AggState {
    /// An empty state of `func`, whose value (SUM, MIN, MAX) is a `ty`.
    fn new(func: AggFunc, ty: DataType) -> AggState {
        match func {
            AggFunc::Count | AggFunc::CountStar => AggState::Count(Vec::new()),
            AggFunc::Sum if ty == DataType::Double => AggState::SumDouble(Vec::new(), Vec::new()),
            AggFunc::Sum => AggState::SumInt(Vec::new(), Vec::new()),
            AggFunc::Avg => AggState::Avg(Vec::new(), Vec::new()),
            AggFunc::Min | AggFunc::Max => {
                let seen = ColumnBuilder::new(ty);
                AggState::Best { best: Vec::new(), seen, max: func == AggFunc::Max }
            }
            AggFunc::CountDistinct => {
                AggState::Distinct { count: Vec::new(), pairs: None, base: 0 }
            }
        }
    }

    /// Open one more group: a zero count or sum, no value.
    fn push(&mut self) {
        match self {
            AggState::Count(count) | AggState::Distinct { count, .. } => count.push(0),
            AggState::SumInt(sum, seen) => {
                sum.push(0);
                seen.push(false);
            }
            AggState::SumDouble(sum, seen) => {
                sum.push(0.0);
                seen.push(false);
            }
            AggState::Avg(sum, count) => {
                sum.push(0.0);
                count.push(0);
            }
            AggState::Best { best, .. } => best.push(NIL),
        }
    }

    /// SUM, MIN and MAX: fold each non-NULL value of `col` into its
    /// group's (`sel`, `slots`: see [`ColGroupTable::fold`]).
    fn fold_value(&mut self, col: &Column, sel: Option<&[u32]>, slots: &[u32]) -> IcResult<()> {
        let rows = rows(sel, slots).filter(|&(_, i)| col.is_valid(i));
        match (self, col.ints(), col.doubles()) {
            (AggState::SumInt(sum, seen), Some((x, _)), _) => rows.for_each(|(s, i)| {
                sum[s] = sum[s].wrapping_add(x[i]);
                seen[s] = true;
            }),
            (AggState::SumDouble(sum, seen), _, Some((x, _))) => rows.for_each(|(s, i)| {
                sum[s] = if seen[s] { sum[s] + x[i] } else { x[i] };
                seen[s] = true;
            }),
            (AggState::Best { best, seen, max }, ..) => {
                // A value replaces a strictly worse best, so the first of
                // equal values stays; a NaN sorts after every number, so
                // it is the MAX of a group holding one, and the MIN only of
                // a group of NaNs.
                let worse = if *max { Ordering::Less } else { Ordering::Greater };
                for (s, i) in rows {
                    if best[s] == NIL || seen.cmp_at(best[s] as usize, col, i) == worse {
                        best[s] = seen.len() as u32;
                        seen.extend_take(col, &[i as u32]);
                    }
                }
                if seen.len() > 2 * best.len() + BATCH_SIZE {
                    split_best(best, seen, 0);
                }
            }
            // A column without a value (an untyped NULL) folds nothing.
            _ if col.is_all_null() => {}
            _ => {
                let ty = col.data_type();
                return Err(IcError::Exec(format!("no aggregate state folds a {ty}")));
            }
        }
        Ok(())
    }

    /// Move the first `n` groups' output columns to `out`: the value, or
    /// for `Partial` the state columns as they are. The others stay.
    fn split_front(&mut self, n: usize, phase: AggPhase, out: &mut Vec<Column>) {
        let int = |v| Column::from_ints(v, None);
        match self {
            AggState::Count(count) => out.push(int(split(count, n))),
            AggState::SumInt(sum, seen) => {
                out.push(Column::from_ints(split(sum, n), validity_of(&split(seen, n))))
            }
            AggState::SumDouble(sum, seen) => {
                out.push(Column::from_doubles(split(sum, n), validity_of(&split(seen, n))))
            }
            AggState::Avg(sum, count) => {
                let (sum, count) = (split(sum, n), split(count, n));
                if phase == AggPhase::Partial {
                    out.push(Column::from_doubles(sum, None));
                    out.push(int(count));
                } else {
                    let avg = sum.iter().zip(&count);
                    let avg = avg.map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 });
                    let valid: Vec<bool> = count.iter().map(|&c| c > 0).collect();
                    out.push(Column::from_doubles(avg.collect(), validity_of(&valid)));
                }
            }
            AggState::Best { best, seen, .. } => out.push(split_best(best, seen, n)),
            AggState::Distinct { count, pairs, base } => {
                out.push(int(split(count, n)));
                *base += n;
                // Forget the closed groups' pairs, in place: the table keeps
                // its capacity for the next batch's pairs.
                if let Some(pairs) = pairs {
                    if let Some(ordinal) = pairs.keys[0].ints() {
                        let open = |&e: &u32| ordinal[e as usize] >= *base as i64;
                        let mut keep = Vec::with_capacity(pairs.len());
                        keep.extend((0..pairs.len() as u32).filter(open));
                        pairs.keep_groups(&keep);
                    }
                }
            }
        }
    }
}

/// MIN/MAX: the first `n` groups' best values as a column (NULL for none);
/// `seen` keeps just the other groups' bests.
fn split_best(best: &mut Vec<u32>, seen: &mut ColumnBuilder, n: usize) -> Column {
    let ty = seen.data_type();
    let values = std::mem::replace(seen, ColumnBuilder::new(ty)).finish();
    let rest = best.split_off(n);
    seen.extend_take(&values, &rest);
    let front = values.take(best);
    *best = rest.iter().enumerate().map(|(k, &b)| if b == NIL { NIL } else { k as u32 }).collect();
    front
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
    use ic_common::{Datum, Expr, Row};
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
        // ≈ 1 - e^(-1/2) = 39 % of them by chance; the low bits reach ≤ 25 %.
        let (used, buckets) = t.dir.bucket_use();
        assert_eq!(buckets, 8192);
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

    fn sum_of(col: usize) -> Vec<AggCall> {
        vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(col)), name: "s".into() }]
    }

    /// The first `n` groups' output rows.
    fn split_rows(g: &mut ColGroupTable, n: usize) -> Vec<Row> {
        let cols = g.split_front(n).into_iter().map(Arc::new).collect();
        ColumnBatch::new(cols, n).to_rows()
    }

    fn int_rows(rows: &[&[i64]]) -> Vec<Row> {
        rows.iter().map(|r| Row(r.iter().map(|&v| Datum::Int(v)).collect())).collect()
    }

    #[test]
    fn group_table_accumulates_per_key() {
        let aggs = sum_of(1);
        let mut g = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &[DataType::Int; 2]);
        let b = batch(&[&[1, 10], &[2, 5], &[1, 20]]);
        let mut slots = Vec::new();
        g.assign_slots(&b, false, &mut slots);
        assert_eq!(slots, vec![0, 1, 0]);
        g.fold(0, &[b.col(1).as_ref()], b.selection(), &slots).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(split_rows(&mut g, 2), int_rows(&[&[1, 30], &[2, 5]]));
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
        let mut g = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &[DataType::Int; 2]);
        let mut slots = Vec::new();
        g.assign_slots(&b, false, &mut slots);
        assert_eq!(slots, vec![0, 0, 1]);
        g.fold(0, &[b.col(1).as_ref()], b.selection(), &slots).unwrap();
        // COUNT skips the NULL argument row.
        let rows = split_rows(&mut g, 2);
        assert_eq!(rows[0], Row(vec![Datum::Null, Datum::Int(1)]));
    }

    #[test]
    fn group_table_sorted_slots_continue_across_batches() {
        let aggs = sum_of(1);
        let mut g = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &[DataType::Int; 2]);
        let mut slots = Vec::new();
        let b = batch(&[&[1, 10], &[1, 20], &[2, 5]]);
        g.assign_slots(&b, true, &mut slots);
        assert_eq!(slots, vec![0, 0, 1]);
        g.fold(0, &[b.col(1).as_ref()], b.selection(), &slots).unwrap();
        // Group 1 is closed; group 2 stays open and moves to slot 0, where
        // the next batch's leading rows find it.
        assert_eq!(split_rows(&mut g, 1), int_rows(&[&[1, 30]]));
        let b = batch(&[&[2, 6], &[3, 7]]);
        g.assign_slots(&b, true, &mut slots);
        assert_eq!(slots, vec![0, 1]);
        g.fold(0, &[b.col(1).as_ref()], b.selection(), &slots).unwrap();
        assert_eq!(split_rows(&mut g, 2), int_rows(&[&[2, 11], &[3, 7]]));
    }

    #[test]
    fn group_table_scalar_group() {
        let aggs = vec![AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() }];
        let mut g = ColGroupTable::new(vec![], &aggs, AggPhase::Complete, &[DataType::Int]);
        assert_eq!(g.len(), 0);
        g.ensure_scalar_group();
        assert_eq!(g.len(), 1);
        assert_eq!(split_rows(&mut g, 1), int_rows(&[&[0]]));
    }

    /// Like the join table's: a site's keys share their hashes' low bits,
    /// and the group directory must spread them after it has doubled its
    /// way up from 16 buckets.
    #[test]
    fn group_table_spreads_one_partitions_keys() {
        let all: Vec<Row> = (0..32_768).map(|k| Row(vec![Datum::Int(k)])).collect();
        let hashes = ColumnBatch::from_rows(&all).hash_keys(&[0]);
        let rows: Vec<Row> =
            all.into_iter().zip(hashes).filter(|(_, h)| h % 4 == 0).map(|(r, _)| r).take(4096).collect();
        let mut g = ColGroupTable::new(vec![0], &[], AggPhase::Complete, &[DataType::Int]);
        let mut slots = Vec::new();
        for chunk in rows.chunks(1000) {
            g.assign_slots(&ColumnBatch::from_rows(chunk), false, &mut slots);
        }
        assert_eq!(g.len(), 4096);
        // ≈ 1 - e^(-1/2) = 39 % of them by chance; the low bits reach ≤ 25 %.
        let (used, buckets) = g.dir.bucket_use();
        assert_eq!(buckets, 8192);
        assert!(used > 2_900, "{used} of 8192 buckets used");
    }

    /// MAX over rising values keeps every value it passes in `seen`, which
    /// is compacted to the groups' bests once it outgrows twice the groups.
    #[test]
    fn group_table_best_values_compact() {
        let call = |func| AggCall { func, arg: Some(Expr::col(1)), name: "m".into() };
        let aggs = [call(AggFunc::Max), call(AggFunc::Min)];
        let mut g = ColGroupTable::new(vec![0], &aggs, AggPhase::Complete, &[DataType::Int; 3]);
        let mut slots = Vec::new();
        let rows: Vec<Row> = (0..5_000).map(|v| Row(vec![Datum::Int(v % 2), Datum::Int(v)])).collect();
        for chunk in rows.chunks(1000) {
            let b = ColumnBatch::from_rows(chunk);
            g.assign_slots(&b, false, &mut slots);
            g.fold(0, &[b.col(1).as_ref()], None, &slots).unwrap();
            g.fold(1, &[b.col(1).as_ref()], None, &slots).unwrap();
            let AggState::Best { seen, .. } = &g.states[0] else { panic!("MAX keeps a best") };
            assert!(seen.len() <= 2 * 2 + BATCH_SIZE, "{} values kept", seen.len());
        }
        assert_eq!(split_rows(&mut g, 2), int_rows(&[&[0, 4998, 0], &[1, 4999, 1]]));
    }

    /// `Final` folds shipped states with the typed loops: counts add up,
    /// AVG's sums and counts add, MIN keeps the least, and SUM of NULL
    /// states stays NULL.
    #[test]
    fn group_table_final_merges_states() {
        let call = |func| AggCall { func, arg: Some(Expr::col(1)), name: "a".into() };
        let aggs = [call(AggFunc::Count), call(AggFunc::Avg), call(AggFunc::Min), call(AggFunc::Sum)];
        let types = [DataType::Int, DataType::Int, DataType::Double, DataType::Int, DataType::Int];
        let mut g = ColGroupTable::new(vec![0], &aggs, AggPhase::Final, &types);
        // Key, COUNT, AVG sum and count, MIN, SUM.
        let states = ColumnBatch::from_rows(&[
            Row(vec![Datum::Int(7), Datum::Int(2), Datum::Double(3.0), Datum::Int(2), Datum::Int(5), Datum::Null]),
            Row(vec![Datum::Int(7), Datum::Int(1), Datum::Double(6.0), Datum::Int(1), Datum::Int(4), Datum::Null]),
        ]);
        let mut slots = Vec::new();
        g.assign_slots(&states, false, &mut slots);
        let col = |c| &**states.col(c);
        g.fold(0, &[col(1)], None, &slots).unwrap();
        g.fold(1, &[col(2), col(3)], None, &slots).unwrap();
        g.fold(2, &[col(4)], None, &slots).unwrap();
        g.fold(3, &[col(5)], None, &slots).unwrap();
        let want = Row(vec![Datum::Int(7), Datum::Int(3), Datum::Double(3.0), Datum::Int(4), Datum::Null]);
        assert_eq!(split_rows(&mut g, 1), vec![want]);
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
