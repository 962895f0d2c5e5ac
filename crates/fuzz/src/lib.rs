//! Differential SQL fuzzing + deterministic whole-cluster simulation.
//!
//! One `u64` seed deterministically controls everything about a scenario:
//! the bench schema and data, the generated query ([`gen`]), the fault
//! schedule and lease-pressure timing ([`sim`]), and the failover jitter
//! inside the cluster. Three differential oracles ([`oracle`]) must agree:
//!
//! 1. **optimized vs. unoptimized plans** — the `IC` variant (heuristics
//!    off) against `ICPlus`/`ICPlusM`;
//! 2. **kernel vs. naive operators** — the engine against an independent
//!    row-at-a-time reference evaluator ([`reference`]);
//! 3. **1-site vs. N-site clusters** — distributed execution under fault
//!    and revocation interleavings must agree with the single-site answer
//!    or fail with a retryable/terminal [`ic_common::IcError`], never
//!    return wrong results or panic.
//!
//! On disagreement, [`minimize`] shrinks the query AST and fault schedule
//! to a minimal reproducer, emitted as a self-contained fixture
//! ([`fixture`]) that replays byte-identically from its recorded inputs.
//!
//! A fourth, write-aware oracle ([`dml`]) replays seeded interleaved
//! INSERT/UPDATE/DELETE streams with topology churn against a `BTreeMap`
//! shadow of the table, checking that no acknowledged write is ever lost,
//! no delete resurrects, and no read observes a torn value. DML scenarios
//! run on fresh (never cached) clusters and have their own greedy op-list
//! minimizer ([`minimize_dml`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod dml;
pub mod fixture;
pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod reference;
pub mod sim;

pub use dml::{minimize_dml, run_dml_scenario, DmlOp, DmlOutcome, DmlScenario};
pub use fixture::Fixture;
pub use gen::{generate_query, SchemaInfo};
pub use minimize::minimize;
pub use sim::{run_scenario, BenchSchema, Env, Outcome, Scenario};
