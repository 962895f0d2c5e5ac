//! # ignite-calcite-rs — a composable database system in Rust
//!
//! A from-scratch Rust reproduction of the system studied in *"Apache
//! Ignite + Calcite Composable Database System: Experimental Evaluation
//! and Analysis"* (EDBT 2025): a distributed in-memory store (Ignite)
//! composed with a modular SQL planner (Calcite), including every
//! enhancement the paper implements, switchable between the three
//! evaluated system variants:
//!
//! * [`SystemVariant::IC`] — the baseline, with the paper's documented
//!   defects faithfully reproduced (join-size estimation collapse, missing
//!   FILTER_CORRELATE rule, exchange cost bug, byte-based cost units,
//!   single-phase planning, no hash join, no fully-distributed joins,
//!   single-threaded fragments).
//! * [`SystemVariant::ICPlus`] — the paper's §4/§5.1/§5.2 improvements.
//! * [`SystemVariant::ICPlusM`] — IC+ with §5.3 multithreaded variant
//!   fragments.
//!
//! ## Quickstart
//!
//! ```
//! use ic_core::{Cluster, ClusterConfig, SystemVariant};
//!
//! let cluster = Cluster::new(ClusterConfig {
//!     sites: 2,
//!     variant: SystemVariant::ICPlus,
//!     ..ClusterConfig::test_default()
//! });
//! cluster
//!     .run("CREATE TABLE employee (id BIGINT, name VARCHAR, PRIMARY KEY (id))")
//!     .unwrap();
//! cluster
//!     .run("CREATE TABLE sales (sale_id BIGINT, emp_id BIGINT, amount DOUBLE, PRIMARY KEY (sale_id))")
//!     .unwrap();
//! // load rows programmatically (or via the benchmark loaders)…
//! let result = cluster
//!     .query("SELECT * FROM employee INNER JOIN sales ON employee.id = sales.emp_id WHERE employee.id = 10")
//!     .unwrap();
//! assert_eq!(result.columns.len(), 5);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(clippy::disallowed_methods, reason = "the runtime cap, admission waits, retry backoff and stage timings are wall-clock by design")]

pub mod cluster;
pub mod governor;
mod plan_cache;
pub mod rebalance;
pub mod result;

pub use cluster::{Cluster, ClusterConfig, SystemVariant};
pub use governor::{Admission, Governor, GovernorConfig, GovernorStats};
pub use plan_cache::PlanCacheStats;
pub use rebalance::RepairReport;
pub use ic_common::{Datum, IcError, IcResult, MemoryLease, MemoryPool, Row};
pub use ic_net::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, NetworkConfig, SiteId, TICK_FOREVER,
};
pub use result::{DmlResult, QueryResult};
