//! Partitioned in-memory storage — the Apache Ignite substrate.
//!
//! Ignite stores each table ("cache") as hash-partitioned rows spread over
//! the cluster's sites, or fully replicated on every site. This crate
//! provides that store for the simulated cluster: a [`Catalog`] of table and
//! index definitions, per-partition columnar chunk storage
//! ([`table::TableData`]), sorted secondary indexes ([`index::Index`]) held
//! as chunk runs of the same form, and the per-table /
//! per-column [`stats::TableStats`] that Ignite serves to Calcite through
//! its metadata provider hooks (§3.2 of the paper).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod catalog;
pub mod index;
pub mod stats;
pub mod table;
pub mod write;

pub use catalog::{Catalog, IndexDef, IndexId, TableDef, TableDistribution, TableId};
pub use index::Index;
pub use stats::{ColumnStats, TableStats};
pub use table::{write_set, Chunks, PartStore, TableData};
pub use write::{execute_dml, WriteOp, WriteOutcome};
