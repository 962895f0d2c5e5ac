//! The SQL frontend — the Apache Calcite parser/validator substrate.
//!
//! An SQL string flows through the [`lexer`], the recursive-descent
//! [`parser`] (producing the [`ast`]), and the [`binder`], which resolves
//! names against the catalog, type-checks, constant-folds date/interval
//! arithmetic, decorrelates subqueries into (semi/anti/inner) joins marked
//! `from_correlate`, and emits a [`ic_plan::LogicalPlan`] — the query tree
//! of §3.1 (Figure 2).
//!
//! Supported surface: the full TPC-H (minus Q15's VIEWs, which raise
//! [`ic_common::IcError::Unsupported`] exactly as the paper reports; Q20
//! binds and runs, though the paper's protocol leaves it out) and Star
//! Schema Benchmark dialects, plus CREATE TABLE / CREATE INDEX DDL. What the
//! binder rejects of correlated subqueries is in [`binder`]'s docs.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;
pub mod unparse;

pub use binder::{bind_dml, bind_statement, data_type_of, Bound};
pub use parser::parse_sql;
pub use unparse::unparse;
