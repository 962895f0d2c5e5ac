//! The distributed execution engine — Ignite's execution substrate.
//!
//! An optimized physical plan is *placed* once ([`fragment::place`]): cut
//! into fragments at its exchange operators (Algorithm 1, §3.2.3), each
//! fragment instantiated once per partition at the site serving it (once, at
//! the coordinator, when its output is not partitioned) and — in IC+M mode —
//! duplicated into *variant fragments* whose splitter/duplicator sources
//! create runtime sub-partitions (Algorithm 3, §5.3, [`variant`]), with
//! exchanges becoming sender/receiver pairs over the simulated network.
//! [`runtime::execute_plan`] turns that into one shared `Execution` value,
//! and there is one kind of thread: a *driver* per fragment instance, which
//! runs the instance's operator chain sequentially — the root's on the
//! calling thread, every other one as a job on the process's pool of reused
//! driver threads (`driver_pool`), so a query starts no thread of its own.
//! Variant fragments are the only intra-site parallelism.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod driver_pool;
pub mod fragment;
pub mod kernels;
pub mod operators;
pub mod runtime;
pub mod variant;

pub use fragment::{place, Exchange, Fragment, Placement, Slot};
pub use runtime::{execute_plan, ExecOptions, QueryStats};
pub use variant::SourceMode;
