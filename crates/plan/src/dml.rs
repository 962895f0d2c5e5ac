//! DML plan nodes.
//!
//! DML rides the same plan pipeline as queries instead of a side channel
//! (the Calcite adapter-design argument): the binder emits a [`BoundDml`],
//! and the optimizer routes it by the table's partitioning trait into a
//! [`DmlPlan`] whose [`DmlTarget`] records how the write fans out — pinned
//! to one partition when the distribution key is fully determined by the
//! predicate, all partitions otherwise, or a broadcast for replicated
//! tables.

use ic_storage::{TableId, WriteOp};
use std::fmt;

/// A bound (typed, name-resolved) DML statement, before routing.
#[derive(Debug, Clone)]
pub struct BoundDml {
    pub table: TableId,
    pub op: WriteOp,
}

/// How a routed DML statement fans out over the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmlTarget {
    /// The predicate pins the distribution key: touch exactly one
    /// partition (Ignite's single-key `put`/`remove` fast path).
    SinglePartition(usize),
    /// Scatter to every partition of a hash-partitioned table.
    AllPartitions,
    /// Replicated table: one logical copy, broadcast-confirmed commit.
    Broadcast,
}

impl fmt::Display for DmlTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmlTarget::SinglePartition(p) => write!(f, "partition {p}"),
            DmlTarget::AllPartitions => write!(f, "all partitions"),
            DmlTarget::Broadcast => write!(f, "broadcast"),
        }
    }
}

/// A routed, executable DML plan.
#[derive(Debug, Clone)]
pub struct DmlPlan {
    pub table: TableId,
    pub op: WriteOp,
    pub target: DmlTarget,
}

impl DmlPlan {
    /// The partition pin handed to the storage write engine (`None` = not
    /// pinned).
    pub fn pinned_partition(&self) -> Option<usize> {
        match self.target {
            DmlTarget::SinglePartition(p) => Some(p),
            DmlTarget::AllPartitions | DmlTarget::Broadcast => None,
        }
    }
}
