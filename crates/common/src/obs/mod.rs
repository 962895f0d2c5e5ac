//! Query-level observability: per-query traces, process-wide metrics, and
//! renderers (`EXPLAIN ANALYZE`, Chrome-trace JSON).
//!
//! Three pieces, all std-only and allocation-light:
//!
//! * [`Trace`] — a per-query tree of *spans* (plan, admission, attempt,
//!   fragment instance, operator lifetime, network transfer) plus instant
//!   *events* (faults, sheds, revocations). Every timestamp comes from the
//!   trace's own monotonic clock ([`Trace::now_ns`]); the single wall-clock
//!   read behind it is the sanctioned boundary: clippy's clock ban
//!   (`crates/clippy.toml`) keeps traced code off `std::time::Instant`.
//! * [`MetricsRegistry`] — process-wide named counters / gauges /
//!   histograms (`exec.batch.rows`, `mem.lease.revocations`, …), updated at
//!   batch/operation granularity, never per row. See OBSERVABILITY.md for
//!   the naming convention.
//! * [`TraceSink`] — renders a finished trace as (a) an `EXPLAIN ANALYZE`
//!   tree (the optimizer's estimates printed side-by-side with observed
//!   rows, batches, self-time and shipped bytes per operator) and (b) a
//!   Chrome-trace-format JSON that loads in `chrome://tracing`.
//!
//! The executor aggregates per-operator actuals into an [`AttemptStats`]
//! table registered per execution attempt (failover replans re-register),
//! so `EXPLAIN ANALYZE` can join estimates and actuals by plan-node index
//! without keeping a span per batch.

mod metrics;
mod sink;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use sink::{chrome_trace_json, render_explain_analyze, TraceSink};
pub use trace::{AttemptStats, EventRec, OpMeta, SpanGuard, SpanId, SpanRec, Trace};
