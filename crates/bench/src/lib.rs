//! The paper reproduction: data loading, the §6.1 measurement protocol, the
//! multi-client AQL driver (§6.3) and the one sweep `--bin paper` runs and
//! derives every table and figure from. The other bins (`scaling`,
//! `overload`, `chaos`, `trace_overhead`) go beyond the paper and share the
//! record emitter.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(clippy::disallowed_methods, reason = "a benchmark harness times queries and paces clients on the wall clock")]

pub mod aql;
pub mod harness;
pub mod load;
pub mod runner;

pub use aql::run_aql;
pub use harness::{ms, MeasureOutcome, FULL, SITES, SMOKE};
pub use load::load_tpch;
pub use runner::{calibrated_network, overall, run_sweep, Figure, Sweep};
