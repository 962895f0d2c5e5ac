//! Benchmark workloads: deterministic Rust reimplementations of the TPC-H
//! and Star Schema Benchmark generators (the paper's §6 workloads), plus
//! the DDL and query texts in this system's SQL dialect.
//!
//! The generators preserve the properties the 22+13 queries depend on —
//! key ranges, foreign-key relationships (lineitem suppliers drawn from
//! the part's partsupp pairs), date ranges, value domains (brands, types,
//! containers, ship modes, priorities, market segments, nations/regions,
//! phone country codes) and the comment phrases Q13/Q16 grep for — while
//! being scale-factor parameterized so laptop-scale runs (SF 0.01–0.1)
//! regenerate the paper's plan shapes.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod ssb;
pub mod text;
pub mod tpch;

/// A generated table: name plus rows matching its DDL column order.
pub struct TableData {
    pub name: &'static str,
    pub rows: Vec<ic_common::Row>,
}
