//! Relational-algebra layer: logical and physical operators, physical
//! traits, metadata (logical properties) and the cost model.
//!
//! This crate is the analogue of Apache Calcite's `RelNode`/`RelTrait`/
//! `RelMetadataQuery` layer plus Ignite's cost model (§3 of the paper):
//!
//! * [`ops`] — logical ([`ops::RelOp`]) and physical ([`ops::PhysOp`])
//!   operators, generic over the child-link type so that both plan *trees*
//!   and memo *expressions* reuse them.
//! * [`dist`] — the distribution trait (§3.2.2): [`dist::Distribution`],
//!   the Table 1 satisfaction matrix and the Table 2 / §5.1.1 join
//!   distribution mappings.
//! * [`props`] — logical properties: row-count and distinct-value
//!   estimation, including both the baseline's buggy join-size estimator
//!   and the improved Eq. 3 estimator (§4.1).
//! * [`cost`] — Eq. 2/4/5/6/7/9 cost models, the Algorithm 2 distribution
//!   factor, and the baseline's cost bugs behind [`PlannerFlags`].
//! * [`explain`] — plan pretty-printing for EXPLAIN and tests.
//! * [`coerce`] — the implicit-cast lattice the binder applies once.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod coerce;
pub mod cost;
pub mod dist;
pub mod dml;
pub mod explain;
pub mod ops;
pub mod props;
pub mod validate;

pub use cost::{Cost, CostContext};
pub use dml::{BoundDml, DmlPlan};
pub use dist::{DistReq, Distribution};
pub use ops::{AggCall, AggPhase, JoinKind, LogicalPlan, PhysOp, PhysPlan, RelOp, SortKey};
pub use props::LogicalProps;
pub use validate::ValidateError;

/// Which of the paper's behaviours are enabled — the switch between the
/// baseline system (IC), the improved system (IC+), and the improved system
/// with multithreading (IC+M) of §6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerFlags {
    /// §4.1: Eq. 3 join-size estimation instead of the baseline algorithm
    /// whose small-input edge case collapses estimates to 1.
    pub improved_join_estimation: bool,
    /// §4.2: cardinality-only memory/network cost units (Eq. 5) instead of
    /// byte-based units that over-weight wide relations (Eq. 4).
    pub cost_unit_fix: bool,
    /// §4.2: Algorithm 2 distribution factor rewarding distributed
    /// execution (Eq. 6).
    pub distribution_factor: bool,
    /// §4.1: apply the multi-target exchange penalty (the baseline's
    /// constant-shadowing bug silently skips it).
    pub exchange_penalty_fix: bool,
    /// §5.1.2: the hash-join operator.
    pub hash_join: bool,
    /// §5.1.1: the fully-distributed (broadcast one side, keep the other
    /// partitioned in place) join distribution mapping.
    pub broadcast_join_mapping: bool,
    /// §4.1: the FILTER_CORRELATE-style rule pushing filters past joins
    /// produced by subquery decorrelation.
    pub filter_correlate_rule: bool,
    /// §5.2: OR-of-ANDs common-condition extraction on join predicates.
    pub join_condition_simplify: bool,
    /// §4.3: two-phase plan generation (logical then physical) with
    /// conditional disabling of the join-reordering rules.
    pub two_phase: bool,
    /// §5.3: multithreaded variant fragments; the number of variants per
    /// fragment (the paper found 2 best). 1 disables multithreading.
    pub variant_fragments: usize,
    /// VolcanoPlanner exploration budget in transformation-rule firings —
    /// exceeding it reproduces the paper's planning failures/timeouts.
    pub planner_budget: u64,
}

impl PlannerFlags {
    /// The baseline system: stock Ignite 2.16 + Calcite.
    pub fn ic() -> PlannerFlags {
        PlannerFlags {
            improved_join_estimation: false,
            cost_unit_fix: false,
            distribution_factor: false,
            exchange_penalty_fix: false,
            hash_join: false,
            broadcast_join_mapping: false,
            filter_correlate_rule: false,
            join_condition_simplify: false,
            two_phase: false,
            variant_fragments: 1,
            planner_budget: 40_000,
        }
    }

    /// IC+ : query-planner changes and join optimizations (§4, §5.1, §5.2).
    pub fn ic_plus() -> PlannerFlags {
        PlannerFlags {
            improved_join_estimation: true,
            cost_unit_fix: true,
            distribution_factor: true,
            exchange_penalty_fix: true,
            hash_join: true,
            broadcast_join_mapping: true,
            filter_correlate_rule: true,
            join_condition_simplify: true,
            two_phase: true,
            variant_fragments: 1,
            planner_budget: 40_000,
        }
    }

    /// IC+M : IC+ with multithreaded (dual-variant) execution plans (§5.3).
    pub fn ic_plus_m() -> PlannerFlags {
        PlannerFlags { variant_fragments: 2, ..PlannerFlags::ic_plus() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_presets() {
        let ic = PlannerFlags::ic();
        assert!(!ic.hash_join && !ic.two_phase && ic.variant_fragments == 1);
        let icp = PlannerFlags::ic_plus();
        assert!(icp.hash_join && icp.two_phase && icp.variant_fragments == 1);
        let icpm = PlannerFlags::ic_plus_m();
        assert_eq!(icpm.variant_fragments, 2);
        assert!(icpm.hash_join);
    }
}
