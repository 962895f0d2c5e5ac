//! Columnar batches: typed column vectors with validity bitmaps and
//! selection vectors — the exec data plane's batch currency.
//!
//! A [`ColumnBatch`] holds one [`Column`] per output field. Each column
//! stores its values in a contiguous typed vector plus an optional validity
//! [`Bitmap`] (absent ⇔ no NULLs), so kernels run tight per-column loops
//! over primitive buffers instead of walking `Vec<Row>` datum-by-datum.
//! Strings are stored as a shared offsets-plus-bytes blob.
//!
//! **One owner of the layout.** The storage enum and a column's fields are
//! private to this module. Everything else reads a column through typed
//! views that hand out the values together with their validity, as an Arrow
//! array does ([`Column::ints`], [`Column::doubles`], [`Column::bools`],
//! [`Column::dates`]; strings through [`Column::str_at`] /
//! [`Column::bytes_at`]), and builds one through the typed constructors
//! ([`Column::from_ints`] and its siblings) or a [`ColumnBuilder`].
//!
//! **Static types.** The engine is statically typed: the binder coerces
//! every expression once (`ic_plan::coerce`), so each plan column has one
//! [`DataType`] and every column is built for it — [`ColumnBuilder::new`]
//! takes the type, and no builder looks at a value to choose its
//! representation. A column without a value (all NULL, or empty) carries no
//! type: an untyped NULL literal evaluates to one, and it appends to any
//! builder as NULLs ([`Column::is_all_null`]). Handing a builder another
//! non-NULL kind is a bug, caught by a `debug_assert` once per column.
//!
//! **Selection vectors.** A batch may carry a selection vector — physical
//! row indices, in order. Filters never materialize survivors; they only
//! shrink the selection, and downstream kernels iterate logical rows
//! through it. Materialization (a *gather*) happens only where an operator
//! genuinely reorders or combines rows (join output, sort) or at the wire.
//!
//! **Moving rows.** Every gather is one kernel, [`ColumnBuilder::extend_take`]
//! (and its [`Column::take`] wrapper): a list of physical row indices, with
//! [`NIL`] standing for a NULL, is copied per column by one typed loop —
//! the kind matched once per column, validity moved a word at a time. Join
//! output, build arenas, selection resolution, exchange coalescing, merges
//! and CASE all move values through it.
//!
//! **Row boundaries.** [`ColumnBatch::from_typed_rows`] /
//! [`ColumnBatch::to_rows`] are the only row↔column conversion points: rows
//! are packed once, by their schema, when they enter the engine (a bulk
//! load, an `INSERT`'s literals, a `VALUES` list), and unpacked at the final
//! client rowset (and the inputs of the row-internal nested-loop join).
//!
//! **Hash contract.** [`ColumnBatch::hash_keys`] is the routing hash: one
//! [`FxHasher`] per row, fed each key column's value by
//! [`Column::hash_at`]'s write sequence. Planner routing, storage
//! partitioning, DML pinning and exchange hashing all call it, and its
//! values are pinned in `crates/exec/tests/kernel_props.rs`. Int, Double
//! and Date values hash through their `f64` bits, so equal numbers hash
//! alike whatever their column type. A key column without NULLs is hashed
//! by one typed loop; strings feed their bytes without a UTF-8 re-check.
//! The zeros `-0.0` and `0.0` are one value and hash alike.
//!
//! **Key words.** [`ColumnBatch::key_words`] is the one key encoder: it
//! maps the key columns of each logical row (through the selection) to
//! fixed-width [`KeyWords`] whose unsigned order is [`Column::cmp_at`]'s
//! and whose equality is [`Column::eq_at`]'s — one `u64` per key:
//! sign-flipped Int and Date, bit-ordered Double with `-0.0` folded onto
//! `0.0`, Bool as 1 or 2, none of them `0`; a NULL is the fixed word `0`,
//! below every value whatever its buffer holds, so NULLs tie; every bit is
//! flipped for a descending key. A string key has no words (`None`), nor
//! does a key holding, in a valid row, a value without a word: a NaN, or
//! an Int `i64::MIN`, whose word would be the NULL word. Such keys keep
//! the comparator in their kernel. Sort, the merge-join cursors, the hash
//! join's chain walk and the group table's slots compare words; words of
//! two batches compare where [`KeyWords::comparable`] says their kinds
//! agree.

#![expect(clippy::disallowed_types, reason = "ColumnBatch::hash_keys, the routing hash, drives FxHasher over typed columns here")]

use crate::datum::{DataType, Datum};
use crate::hash::FxHasher;
use crate::row::Row;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Sentinel row index: "no row". [`ColumnBuilder::extend_take`] turns it
/// into a NULL (LEFT-join null extension); join chains end with it.
pub const NIL: u32 = u32::MAX;

/// Packed validity bitmap: bit `i` set ⇔ row `i` is valid (non-NULL).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Rebuild from packed words (wire decode). Bits past `len` must be 0.
    pub fn from_words(words: Vec<u64>, len: usize) -> Bitmap {
        Bitmap { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (true = valid).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        let w = self.len >> 6;
        if w == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[w] |= 1u64 << (self.len & 63);
        }
        self.len += 1;
    }

    /// `len` bits, all equal to `bit`.
    pub fn filled(len: usize, bit: bool) -> Bitmap {
        let mut b = Bitmap::new();
        b.push_n(bit, len);
        b
    }

    /// Append `n` copies of `bit`, a word at a time.
    pub fn push_n(&mut self, bit: bool, n: usize) {
        let new_len = self.len + n;
        if bit {
            let off = self.len & 63;
            if off != 0 && n > 0 {
                // Fill the open word's free high bits first.
                let fill = (64 - off).min(n);
                if let Some(last) = self.words.last_mut() {
                    *last |= (u64::MAX >> (64 - fill)) << off;
                }
            }
            self.words.resize(new_len.div_ceil(64), u64::MAX);
            if let Some(last) = self.words.last_mut().filter(|_| !new_len.is_multiple_of(64)) {
                *last &= (1u64 << (new_len % 64)) - 1;
            }
        } else {
            self.words.resize(new_len.div_ceil(64), 0);
        }
        self.len = new_len;
    }

    /// Append every bit of `other`, shifting whole words into place.
    pub fn append(&mut self, other: &Bitmap) {
        let off = self.len & 63;
        if off == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= w << off;
                }
                self.words.push(w >> (64 - off));
            }
        }
        self.len += other.len;
        // The shifted copy may leave one all-zero word past the end.
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Append bit `src[i]` for every `i` in `idx`, `NIL` giving 0 and a
    /// missing `src` (a column without NULLs) giving 1, packed 64 bits per
    /// word store. Returns how many of the appended bits are set.
    pub fn extend_take(&mut self, src: Option<&Bitmap>, idx: &[u32]) -> usize {
        match src {
            None if !idx.contains(&NIL) => {
                self.push_n(true, idx.len());
                idx.len()
            }
            None => self.append_with(idx, |i| i != NIL),
            Some(b) => self.append_with(idx, |i| i != NIL && b.get(i as usize)),
        }
    }

    /// Append `bit(i)` for every `i` in `idx`: bit by bit up to the next
    /// word boundary, then one packed word per 64 indices.
    #[inline(always)]
    fn append_with(&mut self, idx: &[u32], bit: impl Fn(u32) -> bool) -> usize {
        let head = ((64 - (self.len & 63)) & 63).min(idx.len());
        let mut set = 0;
        for &i in &idx[..head] {
            let b = bit(i);
            self.push(b);
            set += b as usize;
        }
        let rest = &idx[head..];
        self.words.reserve(rest.len().div_ceil(64));
        for chunk in rest.chunks(64) {
            let mut w = 0u64;
            for (j, &i) in chunk.iter().enumerate() {
                w |= (bit(i) as u64) << j;
            }
            set += w.count_ones() as usize;
            self.words.push(w);
            self.len += chunk.len();
        }
        set
    }

    /// Keep just the bits `rows` (increasing), in place; returns how many
    /// of them are set.
    pub fn keep(&mut self, rows: &[u32]) -> usize {
        let mut set = 0;
        for (j, &i) in rows.iter().enumerate() {
            // `i >= j`: bit `i` is read before anything is written over it.
            let bit = self.get(i as usize) as u64;
            let w = &mut self.words[j >> 6];
            *w = (*w & !(1u64 << (j & 63))) | bit << (j & 63);
            set += bit as usize;
        }
        self.len = rows.len();
        self.words.truncate(self.len.div_ceil(64));
        if let Some(last) = self.words.last_mut().filter(|_| !self.len.is_multiple_of(64)) {
            *last &= (1u64 << (self.len % 64)) - 1;
        }
        set
    }

    /// Clear bit `i` (mark row `i` NULL).
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Word-wise AND with a bitmap of the same length: a row of the result
    /// is valid iff it is valid in both.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect();
        Bitmap { words, len: self.len }
    }

    /// Number of set (valid) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed words (for wire encoding).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Typed value storage for one column.
#[derive(Debug, Clone)]
enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dates as epoch-day numbers.
    Date(Vec<i32>),
    /// Strings: value `i` is `bytes[offsets[i] .. offsets[i + 1]]`.
    Str {
        /// `len + 1` cumulative byte offsets (`offsets[0] == 0`).
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payload.
        bytes: Vec<u8>,
    },
}

impl ColumnData {
    /// Number of physical values.
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str { offsets, .. } => offsets.len().saturating_sub(1),
        }
    }

    /// The type these values hold.
    fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Double(_) => DataType::Double,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Whether the storage holds no values.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The UTF-8 bytes of string value `i`; empty for other kinds.
    #[inline]
    fn bytes_at(&self, i: usize) -> &[u8] {
        match self {
            ColumnData::Str { offsets, bytes } => &bytes[offsets[i] as usize..offsets[i + 1] as usize],
            _ => &[],
        }
    }

    /// Value equality of `self[i]` and `other[j]`, both non-NULL.
    #[inline]
    fn eq_values(&self, i: usize, other: &ColumnData, j: usize) -> bool {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Double(a), ColumnData::Double(b)) => a[i] == b[j],
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i] == b[j],
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => self.bytes_at(i) == other.bytes_at(j),
            // Two numbers of different kinds compare by value, as `Datum`s
            // do; only an ill-typed plan compares them.
            _ => self.cmp_numbers(i, other, j) == Some(Ordering::Equal),
        }
    }

    /// `Datum::cmp` of `self[i]` and `other[j]`, both non-NULL: a NaN
    /// sorts after every number and ties with a NaN.
    #[inline]
    fn cmp_values(&self, i: usize, other: &ColumnData, j: usize) -> Ordering {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i].cmp(&b[j]),
            (ColumnData::Double(a), ColumnData::Double(b)) => cmp_doubles(a[i], b[j]),
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i].cmp(&b[j]),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i].cmp(&b[j]),
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => self.bytes_at(i).cmp(other.bytes_at(j)),
            // Values of different kinds: only an ill-typed plan orders them.
            _ => self.cmp_numbers(i, other, j).unwrap_or_else(|| self.rank().cmp(&other.rank())),
        }
    }

    /// `Datum::cmp` of two numbers of different kinds; `None` unless both
    /// are numbers.
    fn cmp_numbers(&self, i: usize, other: &ColumnData, j: usize) -> Option<Ordering> {
        let number = |d: &ColumnData, i: usize| match d {
            ColumnData::Int(v) => Number::Whole(v[i]),
            ColumnData::Date(v) => Number::Whole(v[i] as i64),
            ColumnData::Double(v) => Number::Real(v[i]),
            _ => Number::None,
        };
        number(self, i).cmp(number(other, j))
    }

    /// `Datum`'s rank of a kind: Bool, then the numbers, then strings.
    fn rank(&self) -> u8 {
        match self {
            ColumnData::Bool(_) => 0,
            ColumnData::Str { .. } => 2,
            _ => 1,
        }
    }
}

/// The total order of doubles that `Datum::cmp` uses: `-0.0` ties with
/// `0.0`, and a NaN sorts after every number and ties with a NaN.
#[inline]
pub(crate) fn cmp_doubles(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// A value on `Datum`'s number line: Int and Date are whole, Double is
/// real.
#[derive(Clone, Copy)]
pub(crate) enum Number {
    Whole(i64),
    Real(f64),
    None,
}

impl Number {
    /// Two wholes compare exactly, a whole and a real as doubles
    /// ([`cmp_doubles`]); `None` unless both are numbers.
    pub(crate) fn cmp(self, other: Number) -> Option<Ordering> {
        let real = |n: Number| match n {
            Number::Whole(x) => Some(x as f64),
            Number::Real(x) => Some(x),
            Number::None => None,
        };
        match (self, other) {
            (Number::Whole(a), Number::Whole(b)) => Some(a.cmp(&b)),
            _ => Some(cmp_doubles(real(self)?, real(other)?)),
        }
    }
}

/// One column: typed values plus an optional validity bitmap
/// (`None` ⇔ every row is valid).
#[derive(Debug, Clone)]
pub struct Column {
    /// The typed value storage.
    data: ColumnData,
    /// Validity bitmap; absent means no NULLs.
    validity: Option<Bitmap>,
}

impl Column {
    fn new(data: ColumnData, validity: Option<Bitmap>) -> Column {
        debug_assert!(validity.as_ref().is_none_or(|v| v.len() == data.len()));
        Column { data, validity }
    }

    /// A column of Int `values`, NULL where `validity` (if any) is clear.
    pub fn from_ints(values: Vec<i64>, validity: Option<Bitmap>) -> Column {
        Column::new(ColumnData::Int(values), validity)
    }

    /// A column of Double `values`, NULL where `validity` (if any) is clear.
    pub fn from_doubles(values: Vec<f64>, validity: Option<Bitmap>) -> Column {
        Column::new(ColumnData::Double(values), validity)
    }

    /// A column of Bool `values`, NULL where `validity` (if any) is clear.
    pub fn from_bools(values: Vec<bool>, validity: Option<Bitmap>) -> Column {
        Column::new(ColumnData::Bool(values), validity)
    }

    /// A column of Date `values` (epoch days), NULL where `validity` (if
    /// any) is clear.
    pub fn from_dates(values: Vec<i32>, validity: Option<Bitmap>) -> Column {
        Column::new(ColumnData::Date(values), validity)
    }

    /// A column of strings: value `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    /// The caller has checked what [`Column::str_at`] relies on: `bytes` is
    /// UTF-8, and `offsets` never decrease, end at `bytes.len()` and fall on
    /// character boundaries.
    pub fn from_strs(offsets: Vec<u32>, bytes: Vec<u8>, validity: Option<Bitmap>) -> Column {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(bytes.len()));
        Column::new(ColumnData::Str { offsets, bytes }, validity)
    }

    /// The type of the values it holds.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The validity bitmap; `None` when no row is NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// An Int column's values and validity; `None` for another type.
    pub fn ints(&self) -> Option<(&[i64], Option<&Bitmap>)> {
        match &self.data {
            ColumnData::Int(v) => Some((v, self.validity())),
            _ => None,
        }
    }

    /// A Double column's values and validity; `None` for another type.
    pub fn doubles(&self) -> Option<(&[f64], Option<&Bitmap>)> {
        match &self.data {
            ColumnData::Double(v) => Some((v, self.validity())),
            _ => None,
        }
    }

    /// A Bool column's values and validity; `None` for another type.
    pub fn bools(&self) -> Option<(&[bool], Option<&Bitmap>)> {
        match &self.data {
            ColumnData::Bool(v) => Some((v, self.validity())),
            _ => None,
        }
    }

    /// A Date column's values (epoch days) and validity; `None` for another
    /// type.
    pub fn dates(&self) -> Option<(&[i32], Option<&Bitmap>)> {
        match &self.data {
            ColumnData::Date(v) => Some((v, self.validity())),
            _ => None,
        }
    }

    /// Number of physical rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Does the column hold no value — every row NULL, or no row at all?
    /// Such a column carries no type (see the module doc).
    pub fn is_all_null(&self) -> bool {
        self.validity.as_ref().map_or(self.is_empty(), |v| v.count_valid() == 0)
    }

    /// Is physical row `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            None => true,
            Some(b) => b.get(i),
        }
    }

    /// `n` copies of `d` as a typed column (a broadcast literal).
    pub fn repeat(d: &Datum, n: usize) -> Column {
        let data = match d {
            Datum::Null => {
                let validity = Some(Bitmap::filled(n, false)).filter(|_| n > 0);
                return Column { data: ColumnData::Int(vec![0; n]), validity };
            }
            Datum::Int(x) => ColumnData::Int(vec![*x; n]),
            Datum::Double(x) => ColumnData::Double(vec![*x; n]),
            Datum::Bool(x) => ColumnData::Bool(vec![*x; n]),
            Datum::Date(x) => ColumnData::Date(vec![*x; n]),
            Datum::Str(s) => ColumnData::Str {
                offsets: (0..=n as u32).map(|k| k * s.len() as u32).collect(),
                bytes: s.as_bytes().repeat(n),
            },
        };
        Column { data, validity: None }
    }

    /// Rows `idx` of this column, in order, `NIL` giving NULL — a fresh
    /// column through [`ColumnBuilder::extend_take`].
    pub fn take(&self, idx: &[u32]) -> Column {
        let mut b = ColumnBuilder::new(self.data_type());
        b.extend_take(self, idx);
        b.finish()
    }

    /// The UTF-8 bytes of the string at physical row `i`; only meaningful
    /// for a Str column. String kernels compare and search
    /// these directly — byte order is `str` order, and a valid UTF-8 needle
    /// only ever matches at a character boundary — so they skip the
    /// per-access re-validation [`Column::str_at`] pays.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        self.data.bytes_at(i)
    }

    /// String value at physical row `i`; only meaningful for a Str column
    /// with a valid row.
    #[inline]
    #[expect(clippy::expect_used, reason = "offsets/bytes are only ever written by the builder, which stores validated UTF-8, or by from_strs, whose callers check it")]
    pub fn str_at(&self, i: usize) -> &str {
        std::str::from_utf8(self.bytes_at(i)).expect("column stores valid UTF-8")
    }

    /// Materialize physical row `i` as a [`Datum`] (allocates for strings).
    pub fn datum_at(&self, i: usize) -> Datum {
        if !self.is_valid(i) {
            return Datum::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Datum::Int(v[i]),
            ColumnData::Double(v) => Datum::Double(v[i]),
            ColumnData::Bool(v) => Datum::Bool(v[i]),
            ColumnData::Date(v) => Datum::Date(v[i]),
            ColumnData::Str { .. } => Datum::str(self.str_at(i)),
        }
    }

    /// SQL value equality between `self[i]` and `other[j]` of a column of
    /// the same type, matching `Datum::eq`: NULL == NULL (group-key
    /// semantics).
    #[inline]
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => true,
            (true, true) => self.data.eq_values(i, &other.data, j),
            _ => false,
        }
    }

    /// Total order between `self[i]` and `other[j]` of a column of the same
    /// type, matching `Datum::cmp` (NULL first). Used by sort and merge
    /// kernels.
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => return Ordering::Equal,
            (false, true) => return Ordering::Less,
            (true, false) => return Ordering::Greater,
            _ => {}
        }
        self.data.cmp_values(i, &other.data, j)
    }

    /// The least and greatest non-NULL values among the logical rows
    /// (`sel`'s physical rows, or all) in `Datum`'s order, picked as
    /// `Iterator::min` / `max` pick them — the first of equal least values,
    /// the last of equal greatest — or `None` when every row is NULL.
    pub fn min_max(&self, sel: Option<&[u32]>) -> Option<(Datum, Datum)> {
        let n = sel.map_or(self.len(), <[u32]>::len);
        let rows = (0..n).map(|k| sel.map_or(k, |s| s[k] as usize)).filter(|&i| self.is_valid(i));
        let order = |a: &usize, b: &usize| self.cmp_at(*a, self, *b);
        let least = rows.clone().min_by(order)?;
        let greatest = rows.max_by(order)?;
        Some((self.datum_at(least), self.datum_at(greatest)))
    }

    /// Feed physical row `i` into `h` — the routing hash's write sequence
    /// for one value (the module doc's hash contract): a tag byte, then the
    /// value (numbers as `f64` bits, strings as bytes plus a `0xff`
    /// terminator; NULL is the tag alone).
    #[inline]
    pub fn hash_at(&self, i: usize, h: &mut FxHasher) {
        if !self.is_valid(i) {
            0u8.hash(h);
            return;
        }
        match &self.data {
            ColumnData::Int(v) => hash_num(v[i] as f64, h),
            ColumnData::Double(v) => hash_num(v[i], h),
            ColumnData::Date(v) => hash_num(v[i] as f64, h),
            ColumnData::Bool(v) => {
                1u8.hash(h);
                v[i].hash(h);
            }
            ColumnData::Str { .. } => hash_str(self.bytes_at(i), h),
        }
    }

    /// Drive every hasher in `hashers` through this column: hasher `k`
    /// receives logical row `k` (physical `sel[k]` when a selection is
    /// present). A column without NULLs matches its type once and runs one
    /// typed loop over the same per-type writes as [`Column::hash_at`]; a
    /// nullable or `Bool` column goes cell by cell through `hash_at`.
    fn hash_into(&self, sel: Option<&[u32]>, hashers: &mut [FxHasher]) {
        match (&self.data, &self.validity) {
            (ColumnData::Int(v), None) => {
                for_each_row(sel, hashers, |i, h| hash_num(v[i] as f64, h))
            }
            (ColumnData::Date(v), None) => {
                for_each_row(sel, hashers, |i, h| hash_num(v[i] as f64, h))
            }
            (ColumnData::Double(v), None) => for_each_row(sel, hashers, |i, h| hash_num(v[i], h)),
            (ColumnData::Str { offsets, bytes }, None) => for_each_row(sel, hashers, |i, h| {
                hash_str(&bytes[offsets[i] as usize..offsets[i + 1] as usize], h)
            }),
            _ => for_each_row(sel, hashers, |i, h| self.hash_at(i, h)),
        }
    }
}

/// The routing hash's writes for a number: the numeric tag, then the
/// `f64` bits (`Int` and `Date` canonicalize through `f64`, so `1` and
/// `1.0` hash alike).
#[inline]
fn hash_num(v: f64, h: &mut FxHasher) {
    2u8.hash(h);
    // `-0.0 + 0.0` is `0.0`: the two zeros are one value, so one hash.
    (v + 0.0).to_bits().hash(h);
}

/// The routing hash's writes for a string: the string tag, then its UTF-8
/// bytes and the `0xff` terminator, without re-validating them.
#[inline]
fn hash_str(bytes: &[u8], h: &mut FxHasher) {
    3u8.hash(h);
    h.write(bytes);
    h.write_u8(0xff);
}

/// Call `f(physical row, hasher)` for every hasher: hasher `k` gets logical
/// row `k`, i.e. physical `sel[k]` under a selection.
#[inline(always)]
fn for_each_row(
    sel: Option<&[u32]>,
    hashers: &mut [FxHasher],
    mut f: impl FnMut(usize, &mut FxHasher),
) {
    match sel {
        None => hashers.iter_mut().enumerate().for_each(|(i, h)| f(i, h)),
        Some(s) => hashers.iter_mut().zip(s).for_each(|(h, &i)| f(i as usize, h)),
    }
}

/// `idx` mapped through `src` (`NIL` → `nil`), appended to `dst`: the
/// value half of [`ColumnBuilder::extend_take`] for one fixed-width type.
#[inline(always)]
fn take_values<T: Copy>(dst: &mut Vec<T>, src: &[T], idx: &[u32], nil: T) {
    dst.reserve(idx.len());
    dst.extend(idx.iter().map(|&i| if i == NIL { nil } else { src[i as usize] }));
}

/// Incremental [`Column`] builder for one [`DataType`], fixed at
/// construction.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Bitmap,
    has_null: bool,
}

impl ColumnBuilder {
    /// An empty builder of `ty` values.
    pub fn new(ty: DataType) -> ColumnBuilder {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Str => ColumnData::Str { offsets: vec![0], bytes: Vec::new() },
        };
        ColumnBuilder { data, validity: Bitmap::new(), has_null: false }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// The type of the values it holds.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Whether no rows were pushed yet.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// [`Column::eq_at`] between pushed row `i` and `other[j]` (NULL ==
    /// NULL): how a growing key column finds a key it already holds.
    #[inline]
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.validity.get(i), other.is_valid(j)) {
            (false, false) => true,
            (true, true) => self.data.eq_values(i, &other.data, j),
            _ => false,
        }
    }

    /// `Datum::cmp` of pushed row `i` and `other[j]`, both non-NULL: how a
    /// MIN/MAX state column finds a better value.
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        self.data.cmp_values(i, &other.data, j)
    }

    /// Append a NULL.
    #[inline]
    pub fn push_null(&mut self) {
        self.push_nulls(1);
    }

    /// Append a datum of the builder's type (or NULL). String bytes copy
    /// straight into the arena.
    #[inline]
    pub fn push_datum(&mut self, d: &Datum) {
        match (&mut self.data, d) {
            (_, Datum::Null) => return self.push_null(),
            (ColumnData::Int(v), Datum::Int(x)) => v.push(*x),
            (ColumnData::Double(v), Datum::Double(x)) => v.push(*x),
            (ColumnData::Bool(v), Datum::Bool(x)) => v.push(*x),
            (ColumnData::Date(v), Datum::Date(x)) => v.push(*x),
            (ColumnData::Str { offsets, bytes }, Datum::Str(x)) => {
                bytes.extend_from_slice(x.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            (data, _) => {
                debug_assert!(false, "{d} pushed to a {} column", data.data_type());
                return self.push_null();
            }
        }
        self.validity.push(true);
    }

    /// Append `n` NULLs.
    pub fn push_nulls(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let len = self.len() + n;
        self.validity.push_n(false, n);
        self.has_null = true;
        match &mut self.data {
            ColumnData::Int(v) => v.resize(len, 0),
            ColumnData::Double(v) => v.resize(len, 0.0),
            ColumnData::Bool(v) => v.resize(len, false),
            ColumnData::Date(v) => v.resize(len, 0),
            ColumnData::Str { offsets, bytes } => offsets.resize(len + 1, bytes.len() as u32),
        }
    }

    /// `n` cells of `col`, which is not of the builder's kind: fine for a
    /// column without a value (it carries no type), a bug otherwise.
    fn push_untyped(&mut self, col: &Column, n: usize) {
        debug_assert!(
            col.is_all_null(),
            "a {} column appended to a {} builder",
            col.data_type(),
            self.data.data_type()
        );
        self.push_nulls(n);
    }

    /// Append `col[i]` for every `i` in `idx`, in order, with `NIL` giving a
    /// NULL — the one typed gather behind join output, build-arena appends,
    /// selection resolution and merges. The column's kind is matched once;
    /// then one tight loop copies the values (string bytes in one reserved
    /// run) and [`Bitmap::extend_take`] the validity a word at a time.
    pub fn extend_take(&mut self, col: &Column, idx: &[u32]) {
        match (&mut self.data, &col.data) {
            (ColumnData::Int(v), ColumnData::Int(s)) => take_values(v, s, idx, 0),
            (ColumnData::Double(v), ColumnData::Double(s)) => take_values(v, s, idx, 0.0),
            (ColumnData::Bool(v), ColumnData::Bool(s)) => take_values(v, s, idx, false),
            (ColumnData::Date(v), ColumnData::Date(s)) => take_values(v, s, idx, 0),
            (ColumnData::Str { offsets, bytes }, ColumnData::Str { offsets: so, bytes: sb }) => {
                // NULL cells copy no bytes, as `push_null` would.
                let copied = |i: u32| i != NIL && col.is_valid(i as usize);
                let span = |i: u32| so[i as usize] as usize..so[i as usize + 1] as usize;
                let total: usize = idx.iter().filter(|&&i| copied(i)).map(|&i| span(i).len()).sum();
                bytes.reserve(total);
                offsets.reserve(idx.len());
                for &i in idx {
                    if copied(i) {
                        bytes.extend_from_slice(&sb[span(i)]);
                    }
                    offsets.push(bytes.len() as u32);
                }
            }
            _ => return self.push_untyped(col, idx.len()),
        }
        let set = self.validity.extend_take(col.validity.as_ref(), idx);
        self.has_null |= set < idx.len();
    }

    /// Bulk-append a column, optionally through a physical selection:
    /// [`Self::extend_take`] for a selection, typed bulk copies for a dense
    /// column.
    pub fn append_column(&mut self, col: &Column, sel: Option<&[u32]>) {
        if let Some(s) = sel {
            self.extend_take(col, s);
            return;
        }
        let n = col.len();
        match (&mut self.data, &col.data) {
            (ColumnData::Int(v), ColumnData::Int(s)) => v.extend_from_slice(s),
            (ColumnData::Double(v), ColumnData::Double(s)) => v.extend_from_slice(s),
            (ColumnData::Bool(v), ColumnData::Bool(s)) => v.extend_from_slice(s),
            (ColumnData::Date(v), ColumnData::Date(s)) => v.extend_from_slice(s),
            (ColumnData::Str { offsets, bytes }, ColumnData::Str { offsets: so, bytes: sb }) => {
                // One byte run; offsets rebased onto the bytes already held.
                let (first, last) = (so[0], so[n]);
                let base = bytes.len() as u32;
                bytes.extend_from_slice(&sb[first as usize..last as usize]);
                offsets.extend(so[1..].iter().map(|&o| o - first + base));
            }
            _ => return self.push_untyped(col, n),
        }
        match &col.validity {
            None => self.validity.push_n(true, n),
            Some(b) => {
                self.validity.append(b);
                self.has_null |= b.count_valid() < n;
            }
        }
    }

    /// An Int builder's values so far; `None` for another type.
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Keep just the pushed rows `rows` (increasing), in place: the buffers
    /// keep their capacity, so a builder trimmed after every batch does not
    /// regrow from empty.
    pub fn keep(&mut self, rows: &[u32]) {
        fn compact<T: Copy>(v: &mut Vec<T>, rows: &[u32]) {
            for (j, &i) in rows.iter().enumerate() {
                v[j] = v[i as usize];
            }
            v.truncate(rows.len());
        }
        match &mut self.data {
            ColumnData::Int(v) => compact(v, rows),
            ColumnData::Double(v) => compact(v, rows),
            ColumnData::Bool(v) => compact(v, rows),
            ColumnData::Date(v) => compact(v, rows),
            ColumnData::Str { offsets, bytes } => {
                // `i >= j`, so value `i`'s offsets are read before the
                // `offsets[j + 1]` write can reach them.
                let mut end = 0;
                for (j, &i) in rows.iter().enumerate() {
                    let span = offsets[i as usize] as usize..offsets[i as usize + 1] as usize;
                    let len = span.len();
                    bytes.copy_within(span, end);
                    end += len;
                    offsets[j + 1] = end as u32;
                }
                bytes.truncate(end);
                offsets.truncate(rows.len() + 1);
            }
        }
        self.has_null = self.validity.keep(rows) < rows.len();
    }

    /// Finish into an immutable [`Column`].
    pub fn finish(self) -> Column {
        Column { data: self.data, validity: if self.has_null { Some(self.validity) } else { None } }
    }
}

/// The type of a run of columns that are to become one: that of the first
/// column holding a value. Columns without one carry no type (see the
/// module doc); when none holds a value, any type will do.
pub fn common_type<'a>(cols: impl IntoIterator<Item = &'a Column>) -> DataType {
    cols.into_iter().find(|c| !c.is_all_null()).map_or(DataType::Int, Column::data_type)
}

/// A batch of rows in columnar form: one [`Column`] per field plus an
/// optional selection vector of physical row indices.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    columns: Vec<Arc<Column>>,
    /// Physical row count (every column's length). Tracked separately so
    /// zero-width batches (`SELECT count(*)` inputs) still carry rows.
    nrows: usize,
    /// Selection: logical row `k` is physical row `sel[k]`. `None` ⇔ dense.
    sel: Option<Arc<Vec<u32>>>,
}

impl ColumnBatch {
    /// Assemble a dense batch from finished columns.
    pub fn new(columns: Vec<Arc<Column>>, nrows: usize) -> ColumnBatch {
        debug_assert!(columns.iter().all(|c| c.len() == nrows));
        ColumnBatch { columns, nrows, sel: None }
    }

    /// An empty batch of the given width.
    pub fn empty(width: usize) -> ColumnBatch {
        let col = Arc::new(Column { data: ColumnData::Int(Vec::new()), validity: None });
        ColumnBatch { columns: vec![col; width], nrows: 0, sel: None }
    }

    /// Pack row-major input by its field types (storage writes, `VALUES`
    /// lists and a DML statement's pinned key).
    pub fn from_typed_rows(types: &[DataType], rows: &[Row]) -> ColumnBatch {
        let mut builders: Vec<ColumnBuilder> = types.iter().map(|&t| ColumnBuilder::new(t)).collect();
        for r in rows {
            debug_assert_eq!(r.arity(), types.len(), "row arity differs from its schema");
            for (b, d) in builders.iter_mut().zip(&r.0) {
                b.push_datum(d);
            }
        }
        ColumnBatch {
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            nrows: rows.len(),
            sel: None,
        }
    }

    /// [`Self::from_typed_rows`] for rows without a schema at hand (tests
    /// and tools): each column takes the type of its first non-NULL value.
    pub fn from_rows(rows: &[Row]) -> ColumnBatch {
        let width = rows.first().map_or(0, |r| r.arity());
        let types: Vec<DataType> = (0..width)
            .map(|c| rows.iter().find_map(|r| r.0.get(c)?.data_type()).unwrap_or(DataType::Int))
            .collect();
        ColumnBatch::from_typed_rows(&types, rows)
    }

    /// Concatenate batches into one dense batch, resolving any selection
    /// vectors (per-column typed bulk appends). Used where many small
    /// batches would each pay a fixed cost downstream — e.g. per-message
    /// network latency at an exchange.
    pub fn concat(batches: &[ColumnBatch]) -> ColumnBatch {
        let width = batches.first().map_or(0, ColumnBatch::width);
        let types: Vec<DataType> =
            (0..width).map(|c| common_type(batches.iter().map(|b| &**b.col(c)))).collect();
        ColumnBatch::concat_as(&types, batches)
    }

    /// [`Self::concat`] into columns of the given types (a store's schema),
    /// so a column without a value still comes out of its schema type.
    pub fn concat_as(types: &[DataType], batches: &[ColumnBatch]) -> ColumnBatch {
        if batches.len() == 1 && batches[0].sel.is_none() {
            return batches[0].clone();
        }
        let nrows = batches.iter().map(ColumnBatch::num_rows).sum();
        let mut cols = Vec::with_capacity(types.len());
        for (c, &ty) in types.iter().enumerate() {
            let mut b = ColumnBuilder::new(ty);
            for batch in batches {
                b.append_column(batch.col(c), batch.selection());
            }
            cols.push(Arc::new(b.finish()));
        }
        ColumnBatch { columns: cols, nrows, sel: None }
    }

    /// Materialize as rows, honouring the selection (the client-rowset shim).
    pub fn to_rows(&self) -> Vec<Row> {
        let n = self.num_rows();
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            out.push(self.row_at(k));
        }
        out
    }

    /// Materialize logical row `k` as a [`Row`].
    pub fn row_at(&self, k: usize) -> Row {
        let i = self.phys_index(k);
        Row(self.columns.iter().map(|c| c.datum_at(i)).collect())
    }

    /// Materialize one value: logical row `k` of column `c`.
    pub fn datum_at(&self, c: usize, k: usize) -> Datum {
        self.columns[c].datum_at(self.phys_index(k))
    }

    /// Logical row count (selection length when present).
    #[inline]
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            None => self.nrows,
            Some(s) => s.len(),
        }
    }

    /// Physical row count of the underlying columns.
    #[inline]
    pub fn phys_rows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    #[inline]
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &Arc<Column> {
        &self.columns[c]
    }

    /// The selection vector, if any.
    #[inline]
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(|s| s.as_slice())
    }

    /// Physical index of logical row `k`.
    #[inline]
    pub fn phys_index(&self, k: usize) -> usize {
        match &self.sel {
            None => k,
            Some(s) => s[k] as usize,
        }
    }

    /// Lexicographic comparison of physical row `i`'s `cols` with physical
    /// row `j` of `other`'s `other_cols`, in [`Column::cmp_at`]'s total
    /// order (NULLs first).
    pub fn cmp_keys(
        &self,
        cols: &[usize],
        i: usize,
        other: &ColumnBatch,
        other_cols: &[usize],
        j: usize,
    ) -> Ordering {
        for (&a, &b) in cols.iter().zip(other_cols) {
            let ord = self.columns[a].cmp_at(i, &other.columns[b], j);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Replace the selection with `sel` (physical indices). The caller has
    /// already resolved any previous selection (filters produce physical
    /// indices directly).
    pub fn with_sel(&self, sel: Vec<u32>) -> ColumnBatch {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.nrows));
        ColumnBatch { columns: self.columns.clone(), nrows: self.nrows, sel: Some(Arc::new(sel)) }
    }

    /// The same rows over other columns, each [`Self::phys_rows`] long: the
    /// selection is kept (a projection's output).
    pub fn with_columns(&self, columns: Vec<Arc<Column>>) -> ColumnBatch {
        debug_assert!(columns.iter().all(|c| c.len() == self.nrows));
        ColumnBatch { columns, nrows: self.nrows, sel: self.sel.clone() }
    }

    /// Keep the logical rows listed in `keep` (logical indices, in order).
    pub fn select_logical(&self, keep: &[u32]) -> ColumnBatch {
        let sel: Vec<u32> = match &self.sel {
            None => keep.to_vec(),
            Some(s) => keep.iter().map(|&k| s[k as usize]).collect(),
        };
        self.with_sel(sel)
    }

    /// Logical rows `[start, start + len)` as a (selection-sliced) batch.
    pub fn slice_logical(&self, start: usize, len: usize) -> ColumnBatch {
        let sel: Vec<u32> = match &self.sel {
            None => (start as u32..(start + len) as u32).collect(),
            Some(s) => s[start..start + len].to_vec(),
        };
        self.with_sel(sel)
    }

    /// Keep a subset of columns (cheap: shares the column arcs and selection).
    pub fn project_cols(&self, cols: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            nrows: self.nrows,
            sel: self.sel.clone(),
        }
    }

    /// Densify: gather the selected rows into fresh contiguous columns.
    /// A dense batch is returned as-is (columns stay shared).
    pub fn gather(&self) -> ColumnBatch {
        match &self.sel {
            None => self.clone(),
            Some(s) => {
                let columns = self.columns.iter().map(|c| Arc::new(c.take(s))).collect();
                ColumnBatch { columns, nrows: s.len(), sel: None }
            }
        }
    }

    /// Per-logical-row key hashes over `cols` — the routing hash of the
    /// module doc's contract (one fresh [`FxHasher`] per row, columns in
    /// order).
    pub fn hash_keys(&self, cols: &[usize]) -> Vec<u64> {
        let n = self.num_rows();
        let mut hashers = vec![FxHasher::default(); n];
        let sel = self.selection();
        for &c in cols {
            self.columns[c].hash_into(sel, &mut hashers);
        }
        hashers.iter().map(|h| h.finish()).collect()
    }

    /// Sort permutation of a dense batch: the indices of its rows ordered by
    /// `keys` — `(column, descending)` pairs — with NULLs first per
    /// `Datum`'s total order and the original index as the final tie-break,
    /// so the permutation is stable and deterministic.
    ///
    /// The sort compares [`ColumnBatch::key_words`] where the keys have
    /// them; keys without words fall back to the [`Column::cmp_at`]
    /// comparator, which orders identically.
    pub fn sort_permutation(&self, keys: &[(usize, bool)]) -> Vec<u32> {
        debug_assert!(self.sel.is_none(), "sort_permutation needs a dense batch");
        let n = self.nrows;
        let mut idx: Vec<u32> = (0..n as u32).collect();
        if let Some(words) = self.key_words(keys) {
            if keys.len() == 1 {
                let mut dec: Vec<(u64, u32)> = words.words.into_iter().zip(0..n as u32).collect();
                dec.sort_unstable();
                return dec.into_iter().map(|(_, i)| i).collect();
            }
            idx.sort_unstable_by(|&a, &b| {
                words.cmp_rows(a as usize, &words, b as usize).then(a.cmp(&b))
            });
            return idx;
        }
        idx.sort_unstable_by(|&a, &b| {
            for &(c, desc) in keys {
                let col = &self.columns[c];
                let mut ord = col.cmp_at(a as usize, col, b as usize);
                if desc {
                    ord = ord.reverse();
                }
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });
        idx
    }

    /// The key words of every logical row over `keys` — `(column,
    /// descending)` pairs — or `None` when some key has none (a string
    /// column, or a NaN or `i64::MIN` in a valid row): the module doc's
    /// key-word contract.
    pub fn key_words(&self, keys: &[(usize, bool)]) -> Option<KeyWords> {
        self.encode_keys(keys.iter().copied())
    }

    /// [`Self::key_words`] over ascending `cols`: the words the join and
    /// group kernels compare.
    pub fn key_words_asc(&self, cols: &[usize]) -> Option<KeyWords> {
        self.encode_keys(cols.iter().map(|&c| (c, false)))
    }

    /// The one key-word encoder: row-major, one word per key column, each
    /// column filled by one typed loop over the selection.
    fn encode_keys(&self, keys: impl ExactSizeIterator<Item = (usize, bool)>) -> Option<KeyWords> {
        let (rows, width) = (self.num_rows(), keys.len());
        if width > KeyWords::MAX_WIDTH {
            return None;
        }
        let mut out = KeyWords { words: vec![0; rows * width], width, kinds: 0 };
        let sel = self.selection();
        for (k, (c, desc)) in keys.enumerate() {
            let col = &self.columns[c];
            let lane = Lane { words: &mut out.words, width, at: k, sel, validity: col.validity(), desc };
            let kind = match &col.data {
                _ if col.is_all_null() => {
                    lane.fill(|_| 0);
                    KeyWords::ANY
                }
                ColumnData::Int(v) => {
                    // `i64::MIN` would take the NULL word.
                    if lane.any(|i| v[i] == i64::MIN) {
                        return None;
                    }
                    lane.fill(|i| (v[i] as u64) ^ SIGN);
                    KeyWords::WHOLE
                }
                ColumnData::Date(v) => {
                    lane.fill(|i| (v[i] as i64 as u64) ^ SIGN);
                    KeyWords::WHOLE
                }
                ColumnData::Bool(v) => {
                    lane.fill(|i| v[i] as u64 + 1);
                    KeyWords::BOOL
                }
                ColumnData::Double(v) => {
                    if lane.any(|i| v[i].is_nan()) {
                        return None;
                    }
                    lane.fill(|i| {
                        // `-0.0 + 0.0` is `0.0`: the zeros tie, as in `cmp_at`.
                        let bits = (v[i] + 0.0).to_bits();
                        if bits & SIGN != 0 { !bits } else { bits | SIGN }
                    });
                    KeyWords::REAL
                }
                ColumnData::Str { .. } => return None,
            };
            out.kinds |= kind << (4 * k);
        }
        Some(out)
    }

    /// Memory-accounting cells: `width.max(1) × logical rows` (matches the
    /// row plane's `arity.max(1) × len`).
    pub fn cells(&self) -> usize {
        self.width().max(1) * self.num_rows()
    }
}

/// The sign bit of a 64-bit word.
const SIGN: u64 = 1 << 63;

/// Key words: order-preserving fixed-width words for the key columns of a
/// batch's logical rows (the module doc's key-word contract), row-major,
/// one `u64` per key column. The sort, merge-join, hash-join and group
/// kernels compare these instead of matching on two column enums per key
/// and row.
#[derive(Debug, Clone)]
pub struct KeyWords {
    words: Vec<u64>,
    width: usize,
    /// Per key column, a 4-bit kind code (`ANY`, `WHOLE`, `REAL`, `BOOL`)
    /// at bit `4 × column`: words of two kinds do not compare.
    kinds: u64,
}

impl KeyWords {
    /// The most key columns a row of words holds (the kind codes' room).
    const MAX_WIDTH: usize = 16;
    /// A column without a value: only NULL words, which compare with any
    /// kind.
    const ANY: u64 = 0;
    /// Int and Date: one integer number line.
    const WHOLE: u64 = 1;
    /// Double.
    const REAL: u64 = 2;
    /// Bool.
    const BOOL: u64 = 3;

    /// No rows yet, for keys of `types`, grown by [`Self::push_row`] (a
    /// group table's keys); `None` where a type has no words (Str), or
    /// for no keys.
    pub fn empty(types: &[DataType]) -> Option<KeyWords> {
        if types.is_empty() || types.len() > Self::MAX_WIDTH {
            return None;
        }
        let mut kinds = 0;
        for (k, ty) in types.iter().enumerate() {
            let kind = match ty {
                DataType::Int | DataType::Date => Self::WHOLE,
                DataType::Double => Self::REAL,
                DataType::Bool => Self::BOOL,
                DataType::Str => return None,
            };
            kinds |= kind << (4 * k);
        }
        Some(KeyWords { words: Vec::new(), width: types.len(), kinds })
    }

    /// Row `k`'s words, one per key column.
    #[inline]
    pub fn row(&self, k: usize) -> &[u64] {
        &self.words[k * self.width..(k + 1) * self.width]
    }

    /// Whether rows of `self` and `other` compare: the same key count, and
    /// in each key column the same kind or a column without a value.
    pub fn comparable(&self, other: &KeyWords) -> bool {
        self.width == other.width
            && (0..self.width).all(|k| {
                let (a, b) = ((self.kinds >> (4 * k)) & 15, (other.kinds >> (4 * k)) & 15);
                a == b || a == Self::ANY || b == Self::ANY
            })
    }

    /// Row `k` against row `j` of `other` — [`ColumnBatch::cmp_keys`]'s
    /// order (each key reversed where descending).
    #[inline]
    pub fn cmp_rows(&self, k: usize, other: &KeyWords, j: usize) -> Ordering {
        match self.width {
            1 => self.words[k].cmp(&other.words[j]),
            _ => self.row(k).cmp(other.row(j)),
        }
    }

    /// Whether row `k` and row `j` of `other` hold equal keys, as
    /// [`Column::eq_at`] on every key column says (NULL == NULL).
    #[inline]
    pub fn eq_rows(&self, k: usize, other: &KeyWords, j: usize) -> bool {
        match self.width {
            1 => self.words[k] == other.words[j],
            _ => self.row(k) == other.row(j),
        }
    }

    /// Append row `k` of `other`.
    pub fn push_row(&mut self, other: &KeyWords, k: usize) {
        self.words.extend_from_slice(other.row(k));
    }

    /// Keep just `rows` (increasing), renumbered from 0 in that order.
    pub fn keep(&mut self, rows: &[u32]) {
        let w = self.width;
        for (to, &from) in rows.iter().enumerate() {
            let from = from as usize;
            self.words.copy_within(from * w..(from + 1) * w, to * w);
        }
        self.words.truncate(rows.len() * w);
    }

    /// Drop the first `n` rows.
    pub fn drain_front(&mut self, n: usize) {
        self.words.drain(..n * self.width);
    }
}

/// One key column's words being written by [`ColumnBatch::key_words`]:
/// logical row `k` reads physical row `sel[k]` (`k` when dense).
struct Lane<'a> {
    words: &'a mut [u64],
    width: usize,
    /// The key column's position in a row of words.
    at: usize,
    sel: Option<&'a [u32]>,
    validity: Option<&'a Bitmap>,
    desc: bool,
}

impl Lane<'_> {
    /// Whether `pred` holds for the physical row of some valid logical row.
    fn any(&self, pred: impl Fn(usize) -> bool) -> bool {
        let valid = |i: usize| self.validity.is_none_or(|v| v.get(i));
        match self.sel {
            None => (0..self.words.len() / self.width).any(|i| valid(i) && pred(i)),
            Some(s) => s.iter().any(|&i| valid(i as usize) && pred(i as usize)),
        }
    }

    /// Write each logical row's word: `value` of its physical row, which
    /// is never `0`, or `0` for a NULL whatever its buffer holds — all bits
    /// flipped when descending.
    #[inline(always)]
    fn fill(self, value: impl Fn(usize) -> u64) {
        let Lane { words, width, at, sel, validity, desc } = self;
        let flip = if desc { u64::MAX } else { 0 };
        let word = |i: usize| match validity {
            Some(v) if !v.get(i) => flip,
            _ => value(i) ^ flip,
        };
        let lane = words.iter_mut().skip(at).step_by(width);
        match sel {
            None => lane.enumerate().for_each(|(i, w)| *w = word(i)),
            Some(s) => lane.zip(s).for_each(|(w, &i)| *w = word(i as usize)),
        }
    }
}

/// The first index of `from..to` where `below` is false, for a `below`
/// that holds on a prefix of the range: probes `from`, then steps that
/// double, then a binary search in the last step — one probe when the
/// answer is `from`, `O(log d)` for an answer `d` rows on.
#[inline]
pub fn gallop(from: usize, to: usize, below: impl Fn(usize) -> bool) -> usize {
    // Every index of `from..lo` is below; `hi` is the next probe.
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < to && below(hi) {
        lo = hi + 1;
        hi = lo + step;
        step *= 2;
    }
    let mut hi = hi.min(to);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[&[Datum]]) -> Vec<Row> {
        vals.iter().map(|v| Row(v.to_vec())).collect()
    }

    #[test]
    fn row_roundtrip_typed() {
        let input = rows(&[
            &[Datum::Int(1), Datum::str("a"), Datum::Double(1.5)],
            &[Datum::Null, Datum::str(""), Datum::Null],
            &[Datum::Int(-3), Datum::Null, Datum::Double(2.5)],
        ]);
        let b = ColumnBatch::from_rows(&input);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.width(), 3);
        assert_eq!(b.col(0).data_type(), DataType::Int);
        assert_eq!(b.col(1).data_type(), DataType::Str);
        assert_eq!(b.to_rows(), input);
    }

    #[test]
    fn int_double_mix_not_promoted() {
        // Display distinguishes Int(2) ("2") from Double(2.0) ("2.0000"):
        // each column keeps its schema type exactly.
        let input = rows(&[&[Datum::Int(2), Datum::Double(2.0)]]);
        let b = ColumnBatch::from_typed_rows(&[DataType::Int, DataType::Double], &input);
        assert!(matches!(b.datum_at(0, 0), Datum::Int(2)));
        assert!(matches!(b.datum_at(1, 0), Datum::Double(_)));
    }

    #[test]
    fn all_null_column_roundtrips() {
        let input = rows(&[&[Datum::Null], &[Datum::Null]]);
        let b = ColumnBatch::from_typed_rows(&[DataType::Str], &input);
        assert_eq!(b.col(0).data_type(), DataType::Str);
        assert_eq!(b.to_rows(), input);
    }

    /// A column without a value carries no type: it appends to a builder of
    /// any type as NULLs, and `common_type` looks past it.
    #[test]
    fn all_null_columns_fit_any_builder() {
        let untyped = Column::repeat(&Datum::Null, 2);
        let strs = Column::repeat(&Datum::str("s"), 1);
        assert_eq!(common_type([&untyped, &strs]), DataType::Str);
        let mut b = ColumnBuilder::new(DataType::Str);
        b.append_column(&untyped, None);
        b.extend_take(&strs, &[0, NIL]);
        b.extend_take(&untyped, &[1]);
        let col = b.finish();
        let got: Vec<Datum> = (0..col.len()).map(|i| col.datum_at(i)).collect();
        assert_eq!(got, [Datum::Null, Datum::Null, Datum::str("s"), Datum::Null, Datum::Null]);
        let empty = ColumnBatch::empty(1);
        let batch = ColumnBatch::concat(&[empty, ColumnBatch::from_rows(&rows(&[&[Datum::str("t")]]))]);
        assert_eq!(batch.to_rows(), rows(&[&[Datum::str("t")]]));
    }

    #[test]
    fn selection_views_and_gather() {
        let input = rows(&[
            &[Datum::Int(0)],
            &[Datum::Int(1)],
            &[Datum::Int(2)],
            &[Datum::Int(3)],
        ]);
        let b = ColumnBatch::from_rows(&input);
        let filtered = b.with_sel(vec![1, 3]);
        assert_eq!(filtered.num_rows(), 2);
        assert_eq!(filtered.phys_rows(), 4);
        assert_eq!(filtered.row_at(1), Row(vec![Datum::Int(3)]));
        // Narrowing an existing selection resolves through it.
        let narrowed = filtered.select_logical(&[1]);
        assert_eq!(narrowed.to_rows(), rows(&[&[Datum::Int(3)]]));
        let dense = filtered.gather();
        assert_eq!(dense.phys_rows(), 2);
        assert!(dense.selection().is_none());
        assert_eq!(dense.to_rows(), rows(&[&[Datum::Int(1)], &[Datum::Int(3)]]));
    }

    #[test]
    fn eq_and_cmp_match_datum_semantics() {
        let a = ColumnBatch::from_rows(&rows(&[&[Datum::Int(2)], &[Datum::Null], &[Datum::Int(3)]]));
        let b = ColumnBatch::from_rows(&rows(&[&[Datum::Int(2)], &[Datum::Null]]));
        assert!(a.col(0).eq_at(0, b.col(0), 0));
        assert!(a.col(0).eq_at(1, b.col(0), 1)); // NULL == NULL (group keys)
        assert!(!a.col(0).eq_at(0, b.col(0), 1));
        assert!(!a.col(0).eq_at(2, b.col(0), 0));
        // NULL sorts first, as in Datum::cmp.
        assert_eq!(a.col(0).cmp_at(1, a.col(0), 0), Ordering::Less);
        assert_eq!(a.col(0).cmp_at(0, b.col(0), 0), Ordering::Equal);
        assert_eq!(a.col(0).cmp_at(2, b.col(0), 0), Ordering::Greater);
    }

    /// NULL rows tie in a sort key whatever their buffers hold — here
    /// leftovers that order the other way round — so the next key, then
    /// the row index, orders them: ascending and descending, one key and
    /// two.
    #[test]
    fn sort_ties_null_rows_holding_differing_values() {
        let mut nulls = Bitmap::new();
        [false, true, false, true, false].into_iter().for_each(|v| nulls.push(v));
        let a = Column::from_ints(vec![9, 3, 5, 1, 7], Some(nulls));
        let b = Column::from_ints(vec![0, 0, 2, 0, 1], None);
        let batch = ColumnBatch::new(vec![Arc::new(a), Arc::new(b)], 5);
        assert_eq!(batch.sort_permutation(&[(0, false)]), [0, 2, 4, 3, 1]);
        assert_eq!(batch.sort_permutation(&[(0, true)]), [1, 3, 0, 2, 4]);
        assert_eq!(batch.sort_permutation(&[(0, false), (1, false)]), [0, 4, 2, 3, 1]);
        assert_eq!(batch.sort_permutation(&[(0, true), (1, true)]), [1, 3, 2, 4, 0]);
    }

    #[test]
    fn zero_width_batches_track_rows() {
        let input = rows(&[&[], &[], &[]]);
        let b = ColumnBatch::from_rows(&input);
        assert_eq!(b.width(), 0);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.cells(), 3);
        assert_eq!(b.to_rows(), input);
    }

    #[test]
    fn bitmap_packing() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0);
        }
        assert_eq!(bm.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        let rebuilt = Bitmap::from_words(bm.words().to_vec(), bm.len());
        assert_eq!(rebuilt, bm);
        // Bulk constructors keep the bits past `len` zero, like `push`.
        for len in [0, 1, 64, 130] {
            assert_eq!(Bitmap::filled(len, true).count_valid(), len);
            assert_eq!(Bitmap::filled(len, false).count_valid(), 0);
        }
        let mut all = Bitmap::filled(130, true);
        assert_eq!(all.and(&bm), bm);
        all.clear(129);
        assert!(!all.get(129) && all.get(128));
    }

    #[test]
    fn repeat_and_bytes_at() {
        let values =
            [Datum::Int(3), Datum::Double(0.5), Datum::Bool(true), Datum::Date(9), Datum::str("né")];
        for d in values.into_iter().chain([Datum::Null]) {
            let col = Column::repeat(&d, 3);
            assert_eq!(col.len(), 3);
            for i in 0..3 {
                assert_eq!(col.datum_at(i), d);
                assert_eq!(col.datum_at(i).data_type(), d.data_type());
            }
        }
        let col = Column::repeat(&Datum::str("né"), 2);
        assert_eq!(col.bytes_at(1), "né".as_bytes());
        assert_eq!(col.str_at(1), "né");
    }
}
