//! Wire-size accounting and payload encoding for shipped batches.
//!
//! Exchange payloads are column-contiguous: a [`ColumnBatch`] frames as a
//! header plus one typed value run per column (validity words, then the
//! values back to back), so same-typed data stays adjacent on the wire and
//! a selection vector is resolved at encode time — only the selected rows
//! are framed and charged to `net.transfer.bytes`. The frame is the one
//! byte model: exchanges, write replication and rebalance all charge a
//! batch's [`WireSize`], the exact length of its frame.

use bytes::{BufMut, Bytes, BytesMut};
use ic_common::{Bitmap, Column, ColumnBatch, DataType};
use std::sync::Arc;

/// Types that can report their serialized size, used by the network
/// simulator to charge bandwidth.
pub trait WireSize {
    fn wire_size(&self) -> usize;
}

fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if data.len() < n {
        return None;
    }
    let (head, rest) = data.split_at(n);
    *data = rest;
    Some(head)
}

fn take_u32(data: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(data, 4)?.try_into().ok()?))
}

// ------------------------------------------------- column-contiguous frame

/// Column type tags of the columnar frame.
const COL_INT: u8 = 0;
const COL_DOUBLE: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_DATE: u8 = 3;
const COL_STR: u8 = 4;

fn col_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => COL_INT,
        DataType::Double => COL_DOUBLE,
        DataType::Bool => COL_BOOL,
        DataType::Date => COL_DATE,
        DataType::Str => COL_STR,
    }
}

/// Logical validity of column `c` over the batch's selection: packed words
/// plus whether any row is NULL (all-valid columns skip the words on the
/// wire).
fn logical_validity(batch: &ColumnBatch, c: usize) -> (Vec<u64>, bool) {
    let n = batch.num_rows();
    let col = batch.col(c);
    let mut words = vec![0u64; n.div_ceil(64)];
    let mut any_invalid = false;
    for k in 0..n {
        if col.is_valid(batch.phys_index(k)) {
            words[k / 64] |= 1u64 << (k % 64);
        } else {
            any_invalid = true;
        }
    }
    (words, any_invalid)
}

impl WireSize for ColumnBatch {
    /// Exact size of the column-contiguous frame: header, then per column a
    /// tag, a validity flag (plus packed words when any row is NULL), and
    /// one contiguous typed value run covering only the *selected* rows.
    fn wire_size(&self) -> usize {
        let n = self.num_rows();
        let mut size = 8; // nrows + ncols
        for c in 0..self.width() {
            let col = self.col(c);
            let (_, any_invalid) = logical_validity(self, c);
            size += 2; // tag + validity flag
            if any_invalid {
                size += 8 * n.div_ceil(64);
            }
            size += match col.data_type() {
                DataType::Int | DataType::Double => 8 * n,
                DataType::Bool => n,
                DataType::Date => 4 * n,
                DataType::Str => {
                    4 * (n + 1)
                        + (0..n)
                            .map(|k| {
                                let i = self.phys_index(k);
                                if col.is_valid(i) { col.bytes_at(i).len() } else { 0 }
                            })
                            .sum::<usize>()
                }
            };
        }
        size
    }
}

/// Encode a columnar batch into its column-contiguous frame.
pub fn encode_columns(batch: &ColumnBatch) -> Bytes {
    let mut buf = BytesMut::with_capacity(batch.wire_size());
    encode_columns_into(batch, &mut buf);
    buf.freeze()
}

/// [`encode_columns`], appending into a caller-owned buffer. The selection
/// vector is resolved here: only selected rows are framed, and string
/// offsets are recomputed over the selected run. Values are read through
/// the column's typed views; a NULL row's value slot travels as stored, and
/// its validity bit (sent alongside) masks it again on decode.
pub fn encode_columns_into(batch: &ColumnBatch, buf: &mut BytesMut) {
    buf.reserve(batch.wire_size());
    let n = batch.num_rows();
    buf.put_u32_le(n as u32);
    buf.put_u32_le(batch.width() as u32);
    let rows = || (0..n).map(|k| batch.phys_index(k));
    for c in 0..batch.width() {
        let col = batch.col(c);
        let (words, any_invalid) = logical_validity(batch, c);
        buf.put_u8(col_tag(col.data_type()));
        buf.put_u8(any_invalid as u8);
        if any_invalid {
            for w in &words {
                buf.put_u64_le(*w);
            }
        }
        if let Some((v, _)) = col.ints() {
            rows().for_each(|i| buf.put_i64_le(v[i]));
        } else if let Some((v, _)) = col.doubles() {
            rows().for_each(|i| buf.put_f64_le(v[i]));
        } else if let Some((v, _)) = col.bools() {
            rows().for_each(|i| buf.put_u8(v[i] as u8));
        } else if let Some((v, _)) = col.dates() {
            rows().for_each(|i| buf.put_i32_le(v[i]));
        } else {
            // Strings: the selected rows' offsets, rebased to 0, then their
            // bytes; a NULL row's value is empty.
            let bytes = |i: usize| if col.is_valid(i) { col.bytes_at(i) } else { &[] };
            let mut off = 0u32;
            buf.put_u32_le(0);
            for i in rows() {
                off += bytes(i).len() as u32;
                buf.put_u32_le(off);
            }
            rows().for_each(|i| buf.put_slice(bytes(i)));
        }
    }
}

/// Decode a column-contiguous frame produced by [`encode_columns`] into a
/// dense (selection-free) [`ColumnBatch`].
pub fn decode_columns(mut data: &[u8]) -> Option<ColumnBatch> {
    let n = take_u32(&mut data)? as usize;
    let ncols = take_u32(&mut data)? as usize;
    let mut cols: Vec<Arc<Column>> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let tag = take(&mut data, 1)?[0];
        let any_invalid = take(&mut data, 1)?[0] != 0;
        let validity = if any_invalid {
            let nwords = n.div_ceil(64);
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(u64::from_le_bytes(take(&mut data, 8)?.try_into().ok()?));
            }
            Some(Bitmap::from_words(words, n))
        } else {
            None
        };
        let col = match tag {
            COL_INT => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(i64::from_le_bytes(take(&mut data, 8)?.try_into().ok()?));
                }
                Column::from_ints(v, validity)
            }
            COL_DOUBLE => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(f64::from_le_bytes(take(&mut data, 8)?.try_into().ok()?));
                }
                Column::from_doubles(v, validity)
            }
            COL_BOOL => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(take(&mut data, 1)?[0] != 0);
                }
                Column::from_bools(v, validity)
            }
            COL_DATE => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(i32::from_le_bytes(take(&mut data, 4)?.try_into().ok()?));
                }
                Column::from_dates(v, validity)
            }
            COL_STR => {
                let mut offsets = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    offsets.push(take_u32(&mut data)?);
                }
                if offsets.windows(2).any(|w| w[1] < w[0]) {
                    return None;
                }
                let total = *offsets.last()? as usize;
                let bytes = take(&mut data, total)?.to_vec();
                let s = std::str::from_utf8(&bytes).ok()?;
                if offsets.iter().any(|&o| !s.is_char_boundary(o as usize)) {
                    return None;
                }
                Column::from_strs(offsets, bytes, validity)
            }
            _ => return None,
        };
        cols.push(Arc::new(col));
    }
    Some(ColumnBatch::new(cols, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{Datum, Row};

    fn sample_columns() -> ColumnBatch {
        ColumnBatch::from_rows(&[
            Row(vec![Datum::Int(42), Datum::str("hello"), Datum::Null, Datum::Bool(true)]),
            Row(vec![Datum::Int(7), Datum::Null, Datum::Double(1.5), Datum::Null]),
            Row(vec![Datum::Null, Datum::str("wörld"), Datum::Double(-2.0), Datum::Bool(false)]),
        ])
    }

    #[test]
    fn columns_roundtrip_with_nulls() {
        let b = sample_columns();
        let enc = encode_columns(&b);
        let dec = decode_columns(&enc).unwrap();
        assert_eq!(b.to_rows(), dec.to_rows());
    }

    #[test]
    fn columns_roundtrip_resolves_selection() {
        let b = sample_columns();
        let view = b.select_logical(&[0, 2]);
        let enc = encode_columns(&view);
        let dec = decode_columns(&enc).unwrap();
        assert!(dec.selection().is_none(), "decoded batch must be dense");
        assert_eq!(dec.to_rows(), view.to_rows());
        // The dropped middle row must not be framed or charged.
        assert_eq!(enc.len(), view.wire_size());
        assert!(view.wire_size() < b.wire_size());
    }

    #[test]
    fn columns_wire_size_is_exact() {
        let b = sample_columns();
        assert_eq!(b.wire_size(), encode_columns(&b).len());
        let empty = ColumnBatch::from_rows(&[]);
        assert_eq!(empty.wire_size(), encode_columns(&empty).len());
    }

    #[test]
    fn columns_decode_rejects_garbage() {
        assert!(decode_columns(&[9, 9, 9]).is_none());
        let mut enc = encode_columns(&sample_columns()).to_vec();
        enc.truncate(enc.len() - 2);
        assert!(decode_columns(&enc).is_none());
    }
}
