//! The distributed execution engine — Ignite's execution substrate.
//!
//! An optimized physical plan is cut into *fragments* at its exchange
//! operators (Algorithm 1, §3.2.3); each fragment is instantiated at its
//! processing sites (one driver thread per instance), exchanges become
//! sender/receiver pairs over the simulated network, and — in IC+M mode —
//! eligible fragments are duplicated into *variant fragments* whose
//! splitter/duplicator sources create runtime sub-partitions
//! (Algorithm 3, §5.3). Within a fragment instance, chains that compile
//! into pipelines ([`pipeline`]) run morsel-parallel over a per-site
//! worker pool with work stealing ([`pool`]).

pub mod analyze;
pub mod fragment;
pub mod kernels;
pub mod operators;
pub mod pipeline;
pub mod pool;
pub mod runtime;
pub mod variant;

pub use fragment::{fragment_plan, Fragment, FragmentId, Sink};
pub use pool::{MorselSupply, SitePools, WorkerPool};
pub use runtime::{execute_plan, ExecOptions, QueryStats, DEFAULT_MORSEL_ROWS};
pub use variant::{plan_variants, SourceMode};
