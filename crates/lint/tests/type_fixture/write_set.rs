//! A partition's write lock is private to `ic_storage::table`: outside it
//! the only way to take one is `write_set`, which takes every lock of its
//! set in (table id, partition) order. `// trips:` names the error a line
//! must raise; the write set below them must raise nothing.

use ic_storage::{write_set, TableData};
use std::sync::Arc;

pub fn by_hand(data: &TableData) {
    let _ = &data.partitions; // trips: E0616
    let _ = data.write_lock(0); // trips: E0624
}

/// Partition `p` of every table, locked as one set.
pub fn through_the_set(tables: &[Arc<TableData>], p: usize) -> usize {
    let _set = write_set(tables, p..p + 1);
    tables.len()
}
