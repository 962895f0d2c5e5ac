//! DML plan nodes.
//!
//! DML rides the same plan pipeline as queries instead of a side channel
//! (the Calcite adapter-design argument): the binder emits a [`BoundDml`],
//! and the optimizer turns it into a [`DmlPlan`] that records the one
//! decision it owns — whether the predicate pins the write to a single
//! partition. How the write then fans out (a replicated table's broadcast,
//! an insert's per-row split, one partition or all) is the storage write
//! path's decision alone.

use ic_storage::{TableId, WriteOp};

/// A bound (typed, name-resolved) DML statement, before routing.
#[derive(Debug, Clone)]
pub struct BoundDml {
    pub table: TableId,
    pub op: WriteOp,
}

/// A routed, executable DML plan.
#[derive(Debug, Clone)]
pub struct DmlPlan {
    pub table: TableId,
    pub op: WriteOp,
    partition: Option<usize>,
}

impl DmlPlan {
    /// `stmt`, pinned to `partition` when its predicate fixes the
    /// distribution key (Ignite's single-key `put`/`remove` fast path).
    pub fn new(stmt: BoundDml, partition: Option<usize>) -> DmlPlan {
        DmlPlan { table: stmt.table, op: stmt.op, partition }
    }

    /// The partition pin handed to the storage write engine (`None` = not
    /// pinned).
    pub fn pinned_partition(&self) -> Option<usize> {
        self.partition
    }
}
