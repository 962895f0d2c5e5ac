//! The distributed execution engine — Ignite's execution substrate.
//!
//! An optimized physical plan is *placed* once ([`fragment::place`]): cut
//! into fragments at its exchange operators (Algorithm 1, §3.2.3), each
//! fragment instantiated at its processing sites and — in IC+M mode —
//! duplicated into *variant fragments* whose splitter/duplicator sources
//! create runtime sub-partitions (Algorithm 3, §5.3, [`variant`]), with
//! exchanges becoming sender/receiver pairs over the simulated network.
//! [`runtime::execute_plan`] turns that into one `Execution` value and lends
//! it to every thread of the query, and there is one kind of thread: a
//! scoped thread borrowing the execution — one *driver* per fragment
//! instance and, where an instance's chain compiles into a pipeline
//! ([`pipeline`]), its *lanes*, which pull the region's morsels from one
//! shared queue ([`pool`]).

pub mod fragment;
pub mod kernels;
pub mod operators;
pub mod pipeline;
pub mod pool;
pub mod runtime;
pub mod variant;

pub use fragment::{place, Exchange, Fragment, Placement};
pub use pool::MorselSupply;
pub use runtime::{execute_plan, ExecOptions, QueryStats, DEFAULT_MORSEL_ROWS};
pub use variant::SourceMode;
