//! Query optimization — the two Calcite planner engines as configured by
//! Ignite (§3.2.1), plus every planner change from §4 and §5:
//!
//! * [`hep`] — the HepPlanner: an exhaustive fixpoint rewriter applying
//!   logical rules until the tree stops changing. Ignite's first
//!   optimization stage runs three of these with different rule lists.
//! * [`rules`] — the logical rewrite rules (filter pushdown, project
//!   fusion, the FILTER_CORRELATE-style push the baseline is missing, and
//!   the §5.2 join-condition simplification).
//! * [`volcano`] — the cost-based VolcanoPlanner: a memo of expression
//!   groups, transformation rules (JoinCommute / JoinAssociate, standing in
//!   for Calcite's JoinCommuteRule / JoinPushThroughJoinRule), physical
//!   implementation rules, trait-driven enforcer insertion (exchanges and
//!   sorts), and an exploration budget whose exhaustion reproduces the
//!   paper's planning failures.
//! * [`trim`] — field trimming: the required-columns pass over the plan
//!   the Volcano stage chose, so no operator carries a column nothing reads.
//! * [`pipeline`] — ties the stages together: the baseline single-phase
//!   pipeline vs. the improved two-phase pipeline with conditional
//!   disabling of the join-reordering rules (§4.3).
//! * [`params`] — lifting a statement's literals out of its plan and
//!   binding them back, so the engine's plan cache plans a shape once.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod dml;
pub mod hep;
pub mod params;
pub mod pipeline;
pub mod rules;
pub mod trim;
pub mod volcano;

pub use dml::plan_dml;
pub use pipeline::{optimize_query, Optimized};
pub use volcano::VolcanoPlanner;
