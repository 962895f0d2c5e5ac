//! Property test for the wire layer: the column-contiguous frame of an
//! arbitrary batch — a column of every type, NULLs, a selection vector — is exactly `wire_size()` bytes, and a truncated frame
//! never decodes into the batch that was sent.

use ic_common::{ColumnBatch, Datum, Row};
use ic_net::wire::{decode_columns, encode_columns};
use ic_net::WireSize;
use proptest::prelude::*;

/// One cell of a column of type `ty`; every fourth value is NULL.
/// The shim proptest has no `prop_flat_map`, so the test draws raw bits and
/// types them here.
fn cell(ty: u8, bits: u64) -> Datum {
    if bits.is_multiple_of(4) {
        return Datum::Null;
    }
    match ty {
        0 => Datum::Int(bits as i64),
        1 => Datum::Double((bits >> 11) as f64 / 8.0),
        2 => Datum::Bool(bits & 2 == 2),
        3 => Datum::Date(bits as i32),
        _ => Datum::str("clerk#7 Σφ".chars().take((bits % 11) as usize).collect::<String>()),
    }
}

proptest! {
    #[test]
    fn truncation_detected(
        types in proptest::collection::vec(0u8..5, 1..4),
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 3), 1..10),
        keep in proptest::collection::vec(any::<bool>(), 10),
        cut in 1usize..32,
    ) {
        let rows: Vec<Row> = raw
            .iter()
            .map(|r| Row(types.iter().zip(r).map(|(&t, &bits)| cell(t, bits)).collect()))
            .collect();
        let sel: Vec<u32> = (0..rows.len() as u32).filter(|&i| keep[i as usize]).collect();
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);
        let encoded = encode_columns(&view);
        prop_assert_eq!(encoded.len(), view.wire_size());
        if cut < encoded.len() {
            if let Some(decoded) = decode_columns(&encoded[..encoded.len() - cut]) {
                prop_assert_ne!(decoded.to_rows(), view.to_rows());
            }
        }
    }
}
