//! Shared substrate for the Ignite+Calcite reproduction.
//!
//! This crate defines the row/value model ([`Datum`], [`Row`]), schemas
//! ([`Schema`], [`Field`], [`DataType`]), scalar expressions and their
//! row evaluator ([`expr::Expr`]), its vectorized twin over column batches
//! ([`eval`]), aggregate functions ([`agg`]), date helpers
//! ([`dates`]) and the common error type ([`IcError`]).
//!
//! Everything above this crate — storage, SQL frontend, planner, executor —
//! speaks these types, mirroring how Apache Calcite's `RexNode`/`RelDataType`
//! layer underpins the whole Ignite+Calcite stack.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod agg;
pub mod col;
pub mod datum;
pub mod dates;
pub mod error;
pub mod eval;
pub mod expr;
pub mod hash;
pub mod lease;
pub mod obs;
pub mod row;
pub mod schema;
pub mod sync;

pub use col::{gallop, Bitmap, Column, ColumnBatch, ColumnBuilder, KeyWords, NIL};
pub use datum::{DataType, Datum};
pub use error::{panic_message, IcError, IcResult};
pub use expr::{BinOp, Expr, FuncKind};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, HashDir};
pub use lease::{MemoryLease, MemoryPool, LEASE_CHUNK_CELLS};
pub use row::Row;
pub use schema::{Field, Schema};
