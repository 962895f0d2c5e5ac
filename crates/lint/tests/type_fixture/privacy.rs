//! The red case of rustc's privacy pass, which runs only on a crate without
//! other errors: a `Column` literal names private fields. The rest is the
//! green half — a read through a typed view — and must raise nothing.

use ic_common::Column;

pub fn literal() -> Column {
    Column { validity: None, ..Column::from_ints(Vec::new(), None) } // trips: E0451
}

/// Values and validity come together, through a typed view.
pub fn sum(col: &Column) -> i64 {
    let Some((values, validity)) = col.ints() else { return 0 };
    let valid = |i: usize| validity.is_none_or(|v| v.get(i));
    (0..values.len()).filter(|&i| valid(i)).map(|i| values[i]).sum()
}
