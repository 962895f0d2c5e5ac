//! Plan-node enumeration for tracing: assigns every physical operator a
//! pre-order index, builds the [`OpMeta`] table `EXPLAIN ANALYZE` renders,
//! and maps runtime objects (plan-node pointers, exchange ids) back to
//! those indexes.

use crate::fragment::{ExchangeId, ExchangeRegistry};
use ic_common::obs::OpMeta;
use ic_common::FxHashMap;
use ic_plan::ops::{PhysOp, PhysPlan};
use std::sync::Arc;

/// Lookup tables from runtime identities to pre-order plan-node indexes.
#[derive(Debug, Default)]
pub struct OpIndex {
    /// `Arc::as_ptr` of each plan node → its pre-order index. Valid only
    /// for the exact plan instance that was enumerated (the uniquified
    /// per-variant copies share structure with it by construction).
    by_ptr: FxHashMap<usize, u32>,
    /// Exchange id → the Exchange node's pre-order index (for crediting
    /// the messages its producers ship).
    by_exchange: FxHashMap<usize, u32>,
}

impl OpIndex {
    /// The pre-order index of `node`, if it was part of the enumerated plan.
    pub fn of(&self, node: &Arc<PhysPlan>) -> Option<u32> {
        self.by_ptr.get(&(Arc::as_ptr(node) as usize)).copied()
    }

    /// The pre-order index of the Exchange node with id `ex`.
    pub fn of_exchange(&self, ex: ExchangeId) -> Option<u32> {
        self.by_exchange.get(&ex.0).copied()
    }
}

/// Walk `plan` in pre-order, producing the static [`OpMeta`] table (labels,
/// tree shape, optimizer estimates) plus the runtime lookup index.
pub fn enumerate_ops(plan: &Arc<PhysPlan>, registry: &ExchangeRegistry) -> (Vec<OpMeta>, OpIndex) {
    let mut metas = Vec::new();
    let mut index = OpIndex::default();
    walk(plan, registry, None, 0, &mut metas, &mut index);
    (metas, index)
}

fn walk(
    node: &Arc<PhysPlan>,
    registry: &ExchangeRegistry,
    parent: Option<u32>,
    depth: u32,
    metas: &mut Vec<OpMeta>,
    index: &mut OpIndex,
) {
    let idx = metas.len() as u32;
    metas.push(OpMeta {
        label: node.label(),
        detail: format!("dist={}, width={}", node.dist, node.schema.arity()),
        parent,
        depth,
        est_rows: node.rows,
    });
    index.by_ptr.insert(Arc::as_ptr(node) as usize, idx);
    if matches!(node.op, PhysOp::Exchange { .. }) {
        if let Some(ex) = registry.id_of(node) {
            index.by_exchange.insert(ex.0, idx);
        }
    }
    for child in node.children() {
        walk(child, registry, Some(idx), depth + 1, metas, index);
    }
}
