//! Property tests for the typed take — `ColumnBuilder::extend_take` and
//! `append_column` — against per-cell pushes of the same values, and for
//! the word-wise `Bitmap` appends against bit-by-bit `push`.
//!
//! The take matches a column's kind once and copies values and validity in
//! bulk; the reference pushes one cell at a time. They must agree on every
//! value, every validity bit, whether a validity bitmap exists at all, and
//! the type the builder's column ends in, for every column type,
//! with and without NULLs, through a selection or through indices carrying
//! `NIL`, onto a builder that already holds leading NULLs or values — and
//! for a column without a value (an untyped NULL literal's), which appends
//! to a builder of any type as NULLs.

use ic_common::{Bitmap, Column, ColumnBuilder, DataType, Datum, NIL};
use proptest::prelude::*;

const WORDS: [&str; 6] = ["", "a", "order", "clerk#7", "línea", "Σφ"];
const TYPES: [DataType; 5] =
    [DataType::Int, DataType::Double, DataType::Bool, DataType::Date, DataType::Str];

/// A value of `TYPES[kind]` from `bits`. With `nullable`, a quarter of the
/// cells are NULL.
fn cell(kind: u8, nullable: bool, bits: u64) -> Datum {
    if nullable && bits.is_multiple_of(4) {
        return Datum::Null;
    }
    let v = bits >> 2;
    match kind {
        0 => Datum::Int((v % 2000) as i64 - 1000),
        1 => Datum::Double(((v % 2000) as i64 - 1000) as f64 / 4.0),
        2 => Datum::Bool(v & 1 == 1),
        3 => Datum::Date((v % 9999) as i32),
        _ => Datum::str(WORDS[(v % 6) as usize]),
    }
}

/// A builder of `TYPES[kind]` already holding `prefix`.
fn prefixed(kind: u8, prefix: &[Datum]) -> ColumnBuilder {
    let mut b = ColumnBuilder::new(TYPES[kind as usize]);
    for d in prefix {
        b.push_datum(d);
    }
    b
}

/// A column of `kind` over `raw` — or, `untyped`, one without a value, as
/// a NULL literal evaluates to. With `spurious`, a column without NULLs
/// still carries an all-valid bitmap, as evaluator output may.
fn column(kind: u8, nullable: bool, untyped: bool, spurious: bool, raw: &[u64]) -> Column {
    if untyped {
        return Column::repeat(&Datum::Null, raw.len());
    }
    let cells: Vec<Datum> = raw.iter().map(|&b| cell(kind, nullable, b)).collect();
    let col = prefixed(kind, &cells).finish();
    if !spurious || col.validity().is_some() {
        return col;
    }
    let all = Some(Bitmap::filled(col.len(), true));
    match TYPES[kind as usize] {
        DataType::Int => Column::from_ints(col.ints().unwrap().0.to_vec(), all),
        DataType::Double => Column::from_doubles(col.doubles().unwrap().0.to_vec(), all),
        DataType::Bool => Column::from_bools(col.bools().unwrap().0.to_vec(), all),
        DataType::Date => Column::from_dates(col.dates().unwrap().0.to_vec(), all),
        DataType::Str => {
            let values: Vec<&[u8]> = (0..col.len()).map(|i| col.bytes_at(i)).collect();
            let mut offsets = vec![0u32];
            values.iter().for_each(|v| offsets.push(offsets[offsets.len() - 1] + v.len() as u32));
            Column::from_strs(offsets, values.concat(), all)
        }
    }
}

/// The reference: one `push_datum` (or `push_null` for `NIL`) per index.
fn per_cell(kind: u8, prefix: &[Datum], col: &Column, idx: &[u32]) -> Column {
    let mut b = prefixed(kind, prefix);
    for &i in idx {
        if i == NIL {
            b.push_null();
        } else {
            b.push_datum(&col.datum_at(i as usize));
        }
    }
    b.finish()
}

/// Same rows, same validity, same type.
fn same_column(got: &Column, want: &Column) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.validity().is_some(), want.validity().is_some());
    prop_assert_eq!(got.data_type(), want.data_type(), "got {:?}, want {:?}", got, want);
    for i in 0..got.len() {
        prop_assert_eq!(got.is_valid(i), want.is_valid(i), "row {}", i);
        // Debug, not `==`: `Datum` equality coerces Int 2 to Double 2.0.
        let (g, w) = (format!("{:?}", got.datum_at(i)), format!("{:?}", want.datum_at(i)));
        prop_assert_eq!(g, w, "row {}", i);
    }
    Ok(())
}

/// Indices into a column of `n` rows: with `from_selection` the rows whose
/// pick is odd, in order (a selection vector); otherwise one arbitrary row
/// per pick, repeats allowed, a fifth of them `NIL`.
fn indices(n: usize, from_selection: bool, picks: &[u64]) -> Vec<u32> {
    if from_selection {
        (0..n as u32).filter(|&i| picks.get(i as usize).is_some_and(|p| p & 1 == 1)).collect()
    } else {
        let pick =
            |p: u64| if p.is_multiple_of(5) || n == 0 { NIL } else { ((p >> 3) % n as u64) as u32 };
        picks.iter().map(|&p| pick(p)).collect()
    }
}

/// A bitmap of `bits`, pushed one at a time.
fn bits_of(bits: &[bool]) -> Bitmap {
    let mut b = Bitmap::new();
    for &bit in bits {
        b.push(bit);
    }
    b
}

proptest! {
    /// `extend_take` ≡ per-cell pushes, through a selection (increasing
    /// physical rows) or through arbitrary indices with repeats and `NIL`s.
    #[test]
    fn extend_take_matches_per_cell(
        (kind, nullable, untyped, spurious) in (0u8..5, any::<bool>(), any::<bool>(), any::<bool>()),
        raw in collection::vec(any::<u64>(), 0..200),
        (pnullable, plen) in (any::<bool>(), 0usize..70),
        praw in collection::vec(any::<u64>(), 70),
        (from_selection, picks) in (any::<bool>(), collection::vec(any::<u64>(), 0..200)),
    ) {
        let col = column(kind, nullable, untyped, spurious, &raw);
        let prefix: Vec<Datum> = praw[..plen].iter().map(|&b| cell(kind, pnullable, b)).collect();
        let idx = indices(col.len(), from_selection, &picks);
        let mut got = prefixed(kind, &prefix);
        got.extend_take(&col, &idx);
        same_column(&got.finish(), &per_cell(kind, &prefix, &col, &idx))?;
        if !untyped {
            same_column(&col.take(&idx), &per_cell(kind, &[], &col, &idx))?;
        }
        if from_selection {
            // `keep` is the same take of increasing rows, in place.
            let mut kept = prefixed(kind, &[]);
            kept.append_column(&col, None);
            kept.keep(&idx);
            same_column(&kept.finish(), &per_cell(kind, &[], &col, &idx))?;
        }
    }

    /// Dense `append_column` (the typed bulk arms, `Bool` and `Str`
    /// included) ≡ per-cell pushes of every row, onto any prefix, also when
    /// two columns are appended back to back.
    #[test]
    fn dense_append_matches_per_cell(
        (kind, nullable, untyped, spurious) in (0u8..5, any::<bool>(), any::<bool>(), any::<bool>()),
        raw in collection::vec(any::<u64>(), 0..200),
        (nullable2, untyped2) in (any::<bool>(), any::<bool>()),
        raw2 in collection::vec(any::<u64>(), 0..100),
        (pnullable, plen) in (any::<bool>(), 0usize..70),
        praw in collection::vec(any::<u64>(), 70),
    ) {
        let col = column(kind, nullable, untyped, spurious, &raw);
        let col2 = column(kind, nullable2, untyped2, false, &raw2);
        let prefix: Vec<Datum> = praw[..plen].iter().map(|&b| cell(kind, pnullable, b)).collect();
        let mut got = prefixed(kind, &prefix);
        got.append_column(&col, None);
        got.append_column(&col2, None);
        let mut want = prefixed(kind, &prefix);
        for (c, n) in [(&col, col.len()), (&col2, col2.len())] {
            for i in 0..n {
                want.push_datum(&c.datum_at(i));
            }
        }
        same_column(&got.finish(), &want.finish())?;
    }

    /// The word-wise appends ≡ bit-by-bit `push`, from any starting offset
    /// within a word: the packed words (bits past the end stay 0), the
    /// length, and `extend_take`'s count of set bits.
    #[test]
    fn bitmap_appends_match_push(
        prefix in collection::vec(any::<bool>(), 0..140),
        (bit, n) in (any::<bool>(), 0usize..200),
        other in collection::vec(any::<bool>(), 0..200),
        (has_src, from_selection) in (any::<bool>(), any::<bool>()),
        picks in collection::vec(any::<u64>(), 0..200),
    ) {
        let mut got = bits_of(&prefix);
        got.push_n(bit, n);
        let mut want = prefix.clone();
        want.extend(std::iter::repeat_n(bit, n));
        prop_assert_eq!(&got, &bits_of(&want));

        let mut got = bits_of(&prefix);
        got.append(&bits_of(&other));
        let want: Vec<bool> = prefix.iter().chain(&other).copied().collect();
        prop_assert_eq!(&got, &bits_of(&want));

        let src = bits_of(&other);
        let idx = indices(other.len(), from_selection, &picks);
        let taken: Vec<bool> =
            idx.iter().map(|&i| i != NIL && (!has_src || other[i as usize])).collect();
        let mut got = bits_of(&prefix);
        let set = got.extend_take(has_src.then_some(&src), &idx);
        prop_assert_eq!(set, taken.iter().filter(|&&b| b).count());
        let want: Vec<bool> = prefix.iter().chain(&taken).copied().collect();
        prop_assert_eq!(&got, &bits_of(&want));

        if from_selection {
            let mut got = bits_of(&other);
            let set = got.keep(&idx);
            let want: Vec<bool> = idx.iter().map(|&i| other[i as usize]).collect();
            prop_assert_eq!(set, want.iter().filter(|&&b| b).count());
            prop_assert_eq!(&got, &bits_of(&want));
        }
    }
}
