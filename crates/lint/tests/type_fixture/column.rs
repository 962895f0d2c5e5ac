//! Red cases rustc rejects while resolving names and checking types: the
//! column layout is private to `ic_common::col`, so the storage enum cannot
//! be named and `Column`'s buffers cannot be read outside it. `// trips:`
//! names the error a line must raise.

use ic_common::col::ColumnData; // trips: E0603
use ic_common::Column;

pub fn field(col: &Column) -> usize {
    let _ = &col.data; // trips: E0616
    col.len()
}
