//! Variant fragments — Algorithm 3 of the paper (§5.3).
//!
//! A non-root fragment may be duplicated into `n` variant fragments, each
//! running in its own thread at the same site. Every *source* (table scan,
//! index scan, receiver) in the copy becomes either a **splitter** — which
//! passes only every `n`-th tuple, creating runtime sub-partitions — or a
//! **duplicator** — which passes everything. The left input of an inner
//! join is a duplicator (so each variant joins a full left side against a
//! right slice); a LEFT outer join flips that — left sliced, right
//! duplicated — because padding against a partial right side would emit
//! unmatched left rows once per variant. Everything else defaults to
//! splitter. Fragments containing a reduction operator (complete/final
//! aggregates, sorts, limits) or a semi/anti join are skipped, as are
//! root fragments.

use ic_plan::ops::{AggPhase, JoinKind, PhysOp, PhysPlan};
use std::sync::Arc;

/// How a source behaves inside a variant fragment (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceMode {
    /// Pass only tuples with `counter % n == variant_id`.
    Splitter,
    /// Pass every tuple to this variant.
    Duplicator,
}

/// One step of the VFC recursion: the modes the inputs of `op` are reached
/// in when `op` itself is reached in `mode` (a source keeps `mode` for
/// itself), or `None` when `op` makes its fragment ineligible for variants —
/// a reduction operator (Algorithm 3 raises on them) or a semi/anti join,
/// whose split-side matches cannot be unioned across variants.
/// [`crate::fragment::place`] carries the modes down its walk.
pub(crate) fn assign_modes(
    op: &PhysOp<Arc<PhysPlan>>,
    mode: SourceMode,
) -> Option<[SourceMode; 2]> {
    match op {
        PhysOp::HashAggregate { phase, .. } | PhysOp::SortAggregate { phase, .. }
            if matches!(phase, AggPhase::Complete | AggPhase::Final) =>
        {
            None
        }
        PhysOp::Sort { .. } | PhysOp::Limit { .. } => None,
        PhysOp::NestedLoopJoin { kind, .. }
        | PhysOp::HashJoin { kind, .. }
        | PhysOp::MergeJoin { kind, .. } => match kind {
            // Inner: full left side against a right slice (Algorithm 3).
            JoinKind::Inner => Some([SourceMode::Duplicator, mode]),
            // LEFT outer must flip: against a right *slice* every variant
            // would NULL-pad left rows whose match lives in another
            // variant's slice, duplicating them once per variant. Slice
            // the left instead (each left row settles in exactly one
            // variant) and give every variant the full right side.
            JoinKind::Left => Some([mode, SourceMode::Duplicator]),
            JoinKind::Semi | JoinKind::Anti => None,
        },
        _ => Some([mode; 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::tests::{exchange, healthy, node, scan as scan_with};
    use crate::fragment::{place, Placement};
    use ic_common::Expr;
    use ic_plan::ops::SortKey;
    use ic_plan::Distribution;

    fn scan() -> Arc<PhysPlan> {
        scan_with(Distribution::Hash(vec![0]))
    }

    /// `plan` placed on two sites with two variants requested.
    fn placed(plan: &Arc<PhysPlan>) -> Placement {
        place(plan, &healthy(2), 2, false)
    }

    /// `root` as the root of fragment 1: node 1, below the exchange at node 0.
    fn below_exchange(root: Arc<PhysPlan>) -> Arc<PhysPlan> {
        exchange(root, Distribution::Single)
    }

    fn join(kind: JoinKind) -> Arc<PhysPlan> {
        node(
            PhysOp::HashJoin {
                left: scan(),
                right: scan(),
                kind,
                left_keys: vec![0],
                right_keys: vec![0],
                residual: Expr::lit(true),
            },
            Distribution::Hash(vec![0]),
        )
    }

    #[test]
    fn plain_scan_fragment_splits() {
        let plan = below_exchange(scan());
        let p = placed(&plan);
        assert_eq!(p.fragments[1].variants, 2);
        assert_eq!(p.nodes[1].mode, SourceMode::Splitter);
    }

    #[test]
    fn root_fragments_never_multithread() {
        let plan = scan();
        assert_eq!(placed(&plan).fragments[0].variants, 1);
        let plan = below_exchange(scan());
        assert_eq!(placed(&plan).fragments[0].variants, 1);
    }

    #[test]
    fn join_left_becomes_duplicator() {
        let plan = below_exchange(join(JoinKind::Inner));
        let p = placed(&plan);
        assert_eq!(p.fragments[1].variants, 2);
        assert_eq!(p.nodes[2].mode, SourceMode::Duplicator);
        assert_eq!(p.nodes[3].mode, SourceMode::Splitter);
    }

    #[test]
    fn left_join_slices_left_and_duplicates_right() {
        // Found by differential fuzzing: with the inner-join assignment
        // (full left × right slice) each variant NULL-pads left rows
        // whose match lives in another variant's slice, so every LEFT
        // JOIN result row came out once per variant.
        let plan = below_exchange(join(JoinKind::Left));
        let p = placed(&plan);
        assert_eq!(p.nodes[2].mode, SourceMode::Splitter);
        assert_eq!(p.nodes[3].mode, SourceMode::Duplicator);
    }

    #[test]
    fn reduction_operators_skip_fragment() {
        let agg = |phase, dist| {
            below_exchange(node(
                PhysOp::HashAggregate { input: scan(), group: vec![0], aggs: vec![], phase },
                dist,
            ))
        };
        let plan = agg(AggPhase::Complete, Distribution::Single);
        assert_eq!(placed(&plan).fragments[1].variants, 1);
        // Partial (map-phase) aggregates are fine.
        let plan = agg(AggPhase::Partial, Distribution::Hash(vec![0]));
        assert_eq!(placed(&plan).fragments[1].variants, 2);
        // Sorts and semi joins are reductions too.
        let plan = below_exchange(node(
            PhysOp::Sort { input: scan(), keys: vec![SortKey::asc(0)] },
            Distribution::Single,
        ));
        assert_eq!(placed(&plan).fragments[1].variants, 1);
        let plan = below_exchange(join(JoinKind::Semi));
        assert_eq!(placed(&plan).fragments[1].variants, 1);
    }

    /// A receiver is a source like a scan: it takes the mode the walk reaches
    /// it in, and a reduction above it does not reach into its producer.
    #[test]
    fn receiver_modes_follow_the_walk() {
        let left = exchange(scan(), Distribution::Hash(vec![0]));
        let right = exchange(scan(), Distribution::Hash(vec![0]));
        let join = node(
            PhysOp::HashJoin {
                left,
                right,
                kind: JoinKind::Inner,
                left_keys: vec![0],
                right_keys: vec![0],
                residual: Expr::lit(true),
            },
            Distribution::Hash(vec![0]),
        );
        let filter = node(
            PhysOp::Filter { input: join, predicate: Expr::lit(true) },
            Distribution::Hash(vec![0]),
        );
        let top = exchange(filter, Distribution::Single);
        let plan =
            node(PhysOp::Limit { input: top, fetch: Some(1), offset: 0 }, Distribution::Single);
        let p = placed(&plan);
        // limit(0) ex(1) filter(2) join(3) ex(4) scan(5) ex(6) scan(7)
        let variants: Vec<_> = p.fragments.iter().map(|f| f.variants).collect();
        assert_eq!(variants, vec![1, 2, 2, 2]);
        let middle = &p.fragments[1];
        assert_eq!(middle.inputs, vec![1, 2]);
        assert_eq!((p.exchanges[1].node, p.exchanges[1].mode), (4, SourceMode::Duplicator));
        assert_eq!((p.exchanges[2].node, p.exchanges[2].mode), (6, SourceMode::Splitter));
        // Each producer starts over as a splitter.
        assert_eq!(p.nodes[5].mode, SourceMode::Splitter);
        assert_eq!(p.nodes[7].mode, SourceMode::Splitter);
    }
}
