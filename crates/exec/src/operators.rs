//! Physical operator implementations: pull-based batch iterators
//! (Volcano-style execution, batched to amortize channel overhead).
//!
//! The data plane is columnar: operators exchange [`ColumnBatch`]es —
//! typed column vectors with validity bitmaps and an optional selection
//! vector — so filters shrink the selection instead of materializing
//! output, projections share column `Arc`s, and the join/agg/sort kernels
//! in [`crate::kernels`] run tight per-column loops. Storage is columnar
//! too: [`ScanSource`] hands out the partition's (or index run's) stored
//! chunks by `Arc` clone. Rows exist only inside the row-internal operators
//! ([`NestedLoopJoinExec`], [`SortAggExec`]), whose per-row predicates and
//! streaming group logic gain nothing from columns, and at the client
//! rowset.

use crate::kernels::{gather_join_output, ColGroupTable, ColJoinTable, NIL};
use crate::pool::{Morsel, MorselSupply};
use ic_common::eval::{eval_expr, eval_filter_sel};
use ic_common::agg::Accumulator;
use ic_common::obs::{AttemptStats, Counter, SpanId, Trace};
use ic_common::row::BATCH_SIZE;
use ic_common::{
    Batch, Column, ColumnBatch, ColumnBuilder, Datum, Expr, IcError, IcResult, MemoryLease,
    MemoryPool, Row,
};
use ic_plan::ops::{AggCall, AggPhase, JoinKind, SortKey};
use ic_storage::Chunks;
use std::cmp::Ordering as CmpOrdering;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-query observability context, attached to the [`ControlBlock`] when
/// the caller requested a trace. Carries the trace (clock + span store),
/// the current attempt's per-operator aggregate table, and pre-resolved
/// global metric handles so hot paths never take the registry lock.
#[derive(Debug, Clone)]
pub struct ExecObs {
    /// The query's trace; also the clock all operator spans are keyed to.
    pub trace: Arc<Trace>,
    /// Estimated-vs-actual table for the current execution attempt.
    pub attempt: Arc<AttemptStats>,
    /// Global `exec.op.rows` counter (resolved once per query).
    pub op_rows: Arc<Counter>,
    /// Global `exec.op.batches` counter (resolved once per query).
    pub op_batches: Arc<Counter>,
    /// Global `exec.batch.batches` counter: column batches emitted.
    pub batch_batches: Arc<Counter>,
    /// Global `exec.batch.rows` counter: logical rows emitted (after
    /// selection). `rows / batches` is the mean rows-per-batch.
    pub batch_rows: Arc<Counter>,
    /// Global `exec.batch.phys_rows` counter: physical rows backing those
    /// batches. `rows / phys_rows` is the mean selection density.
    pub batch_phys_rows: Arc<Counter>,
}

impl ExecObs {
    /// Build an obs context for one attempt, resolving the global metric
    /// handles up front.
    pub fn new(trace: Arc<Trace>, attempt: Arc<AttemptStats>) -> ExecObs {
        let reg = ic_common::obs::MetricsRegistry::global();
        ExecObs {
            trace,
            attempt,
            op_rows: reg.counter("exec.op.rows"),
            op_batches: reg.counter("exec.op.batches"),
            batch_batches: reg.counter("exec.batch.batches"),
            batch_rows: reg.counter("exec.batch.rows"),
            batch_phys_rows: reg.counter("exec.batch.phys_rows"),
        }
    }
}

/// Shared per-query control: wall-clock deadline (the paper's runtime
/// limit), a cancellation flag set when any fragment fails, and the
/// query's [`MemoryLease`] on the cluster's shared pool. All buffered
/// operator state is accounted through the lease — never through a
/// private counter (ic-lint rule L006).
#[derive(Debug)]
pub struct ControlBlock {
    pub deadline: Option<Instant>,
    pub cancelled: AtomicBool,
    pub limit_ms: u64,
    lease: MemoryLease,
    obs: Option<ExecObs>,
}

impl ControlBlock {
    pub fn new(deadline: Option<Instant>, limit_ms: u64) -> Arc<ControlBlock> {
        Self::with_memory_limit(deadline, limit_ms, u64::MAX)
    }

    /// Standalone form: a private unbounded pool so only the per-query
    /// limit applies (tests, direct `execute_plan` callers without a
    /// governor).
    pub fn with_memory_limit(
        deadline: Option<Instant>,
        limit_ms: u64,
        memory_limit_rows: u64,
    ) -> Arc<ControlBlock> {
        Self::with_lease(deadline, limit_ms, MemoryPool::unbounded().lease(memory_limit_rows))
    }

    /// Governed form: account this query against a shared-pool lease.
    pub fn with_lease(
        deadline: Option<Instant>,
        limit_ms: u64,
        lease: MemoryLease,
    ) -> Arc<ControlBlock> {
        Self::with_lease_obs(deadline, limit_ms, lease, None)
    }

    /// Governed + traced form: as [`ControlBlock::with_lease`], with an
    /// optional observability context the operator open/next/close hooks
    /// report into.
    pub fn with_lease_obs(
        deadline: Option<Instant>,
        limit_ms: u64,
        lease: MemoryLease,
        obs: Option<ExecObs>,
    ) -> Arc<ControlBlock> {
        Arc::new(ControlBlock {
            deadline,
            cancelled: AtomicBool::new(false),
            limit_ms,
            lease,
            obs,
        })
    }

    /// Account for a batch buffered in operator state (cells = rows × width).
    pub fn reserve_batch(&self, batch: &ColumnBatch) -> IcResult<()> {
        self.reserve(batch.cells())
    }

    /// Account for `n` buffered cells against the query's memory lease.
    /// A failed reservation (per-query limit, pool exhaustion, or lease
    /// revocation) cancels the whole query.
    pub fn reserve(&self, n: usize) -> IcResult<()> {
        match self.lease.reserve(n as u64) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.cancel();
                Err(e)
            }
        }
    }

    /// Check for revocation/timeout/cancellation; call this in every
    /// operator loop — it is the cooperative batch-boundary point where a
    /// revoked query notices and unwinds.
    pub fn check(&self) -> IcResult<()> {
        if self.lease.is_revoked() {
            self.cancel();
            return Err(self.lease.revoked_error());
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(IcError::Exec("query cancelled".into()));
        }
        if let Some(d) = self.deadline {
            // ic-lint: allow(L007) because the deadline check reads the wall clock that defines the runtime cap, not a span timestamp
            if Instant::now() > d {
                return Err(IcError::ExecTimeout { limit_ms: self.limit_ms });
            }
        }
        Ok(())
    }

    /// The query's memory lease (for telemetry and final error mapping).
    pub fn lease(&self) -> &MemoryLease {
        &self.lease
    }

    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Non-failing form of [`ControlBlock::check`]: has the query been
    /// cancelled or its deadline passed? Polled by in-flight network
    /// transfers so a long bandwidth sleep stops at the deadline.
    pub fn is_stopped(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        // ic-lint: allow(L007) because the deadline check reads the wall clock that defines the runtime cap, not a span timestamp
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    // ------------------------------------------- operator tracing hooks

    /// The query's observability context, if tracing is enabled.
    pub fn obs(&self) -> Option<&ExecObs> {
        self.obs.as_ref()
    }

    /// Open hook: the current trace-clock reading in nanoseconds (0 when
    /// untraced). Operators take this before and after work to attribute
    /// busy time; the trace clock is the only sanctioned time source here
    /// (ic-lint rule L007).
    pub fn op_now_ns(&self) -> u64 {
        self.obs.as_ref().map_or(0, |o| o.trace.now_ns())
    }

    /// Next hook: charge one `next_batch` call against plan node `node` —
    /// `rows` emitted, `busy_ns` inside the subtree, `produced` whether a
    /// batch came back. No-op when untraced.
    pub fn op_next(&self, node: u32, rows: u64, busy_ns: u64, produced: bool) {
        if let Some(o) = &self.obs {
            o.attempt.record_next(node, rows, busy_ns, produced);
        }
    }

    /// Close hook: record the operator instance's lifetime span and flush
    /// its totals to the global metrics registry. No-op when untraced.
    #[allow(clippy::too_many_arguments)]
    pub fn op_close(
        &self,
        node: u32,
        label: &str,
        lane: u32,
        parent: Option<SpanId>,
        open_ns: u64,
        rows: u64,
        batches: u64,
        busy_ns: u64,
    ) {
        if let Some(o) = &self.obs {
            o.op_rows.add(rows);
            o.op_batches.add(batches);
            o.trace.record_span(
                label,
                "operator",
                parent,
                lane,
                open_ns,
                o.trace.now_ns(),
                vec![("node", u64::from(node)), ("rows", rows), ("batches", batches), ("busy_ns", busy_ns)],
            );
        }
    }
}

/// Transparent tracing wrapper: decorates any [`RowSource`] with the
/// open/next/close hooks on the shared [`ControlBlock`]. Built only when
/// the query is traced, so untraced execution pays nothing.
pub struct TracedSource {
    inner: BoxedSource,
    ctrl: Arc<ControlBlock>,
    node: u32,
    label: String,
    lane: u32,
    parent: Option<SpanId>,
    open_ns: u64,
    rows: u64,
    batches: u64,
    /// Physical rows backing the emitted batches; `rows / phys_rows` is
    /// this operator's output selection density.
    phys_rows: u64,
    busy_ns: u64,
}

impl TracedSource {
    /// Wrap `inner` (the operator instance for plan node `node`), counting
    /// it as one runtime instance and opening its lifetime span.
    pub fn new(
        inner: BoxedSource,
        ctrl: Arc<ControlBlock>,
        node: u32,
        label: String,
        lane: u32,
        parent: Option<SpanId>,
    ) -> TracedSource {
        if let Some(o) = ctrl.obs() {
            o.attempt.record_instance(node);
        }
        let open_ns = ctrl.op_now_ns();
        TracedSource {
            inner,
            ctrl,
            node,
            label,
            lane,
            parent,
            open_ns,
            rows: 0,
            batches: 0,
            phys_rows: 0,
            busy_ns: 0,
        }
    }
}

impl RowSource for TracedSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        let t0 = self.ctrl.op_now_ns();
        let result = self.inner.next_batch();
        let dt = self.ctrl.op_now_ns().saturating_sub(t0);
        self.busy_ns += dt;
        let (rows, phys, produced) = match &result {
            Ok(Some(b)) => (b.num_rows() as u64, b.phys_rows() as u64, true),
            _ => (0, 0, false),
        };
        self.rows += rows;
        self.phys_rows += phys;
        self.batches += u64::from(produced);
        self.ctrl.op_next(self.node, rows, dt, produced);
        result
    }

    // Forward the row-format path so tracing a query doesn't force
    // column↔row conversions the untraced plan wouldn't pay. A row batch
    // has no selection vector, so physical == logical rows.
    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        let t0 = self.ctrl.op_now_ns();
        let result = self.inner.next_rows();
        let dt = self.ctrl.op_now_ns().saturating_sub(t0);
        self.busy_ns += dt;
        let (rows, produced) = match &result {
            Ok(Some(b)) => (b.len() as u64, true),
            _ => (0, false),
        };
        self.rows += rows;
        self.phys_rows += rows;
        self.batches += u64::from(produced);
        self.ctrl.op_next(self.node, rows, dt, produced);
        result
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        if let Some(o) = self.ctrl.obs() {
            if self.batches > 0 {
                o.batch_batches.add(self.batches);
                o.batch_rows.add(self.rows);
                o.batch_phys_rows.add(self.phys_rows);
            }
        }
        self.ctrl.op_close(
            self.node,
            &self.label,
            self.lane,
            self.parent,
            self.open_ns,
            self.rows,
            self.batches,
            self.busy_ns,
        );
    }
}

/// A pull-based columnar batch stream.
pub trait RowSource: Send {
    /// The next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>>;

    /// The next batch in row format. Row-internal operators (nested-loop
    /// join, sort aggregate) and `Values` override this so chains of row
    /// operators hand rows across directly instead of round-tripping every
    /// batch through columns; the default converts at the boundary.
    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        Ok(self.next_batch()?.map(|b| b.to_rows()))
    }
}

pub type BoxedSource = Box<dyn RowSource>;

/// Drain a source into a row vector (the final client rowset shim).
pub fn drain(mut src: BoxedSource) -> IcResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(mut b) = src.next_rows()? {
        out.append(&mut b);
    }
    Ok(out)
}

/// Account for a row-format buffer against the query lease (the
/// row-internal operators' edges; cells = rows × width).
fn reserve_rows(ctrl: &ControlBlock, rows: &[Row]) -> IcResult<()> {
    let cells = rows.first().map_or(0, |r| r.arity().max(1)) * rows.len();
    ctrl.reserve(cells)
}

// ----------------------------------------------------------------- sources

/// In-memory source (tests, Values): converts rows to columns at the
/// boundary, one batch per `BATCH_SIZE` chunk.
pub struct VecSource {
    rows: Vec<Row>,
    pos: usize,
}

impl VecSource {
    pub fn new(rows: Vec<Row>) -> VecSource {
        VecSource { rows, pos: 0 }
    }
}

impl RowSource for VecSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(self.rows.len());
        let batch = ColumnBatch::from_rows(&self.rows[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }

    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(self.rows.len());
        let out = self.rows[self.pos..end].to_vec();
        self.pos = end;
        Ok(Some(out))
    }
}

/// Where a [`ScanSource`] gets its morsels from.
enum MorselFeed {
    /// The fragment's driver scans everything itself: one morsel per
    /// partition, in partition order. `base` is the absolute row index of
    /// the next partition's first row.
    Sequential { next_part: usize, base: usize },
    /// A pipeline lane pulling from the pipeline's shared supply.
    Shared { supply: Arc<MorselSupply>, lane: usize },
}

/// Scan over stored chunk runs — partition snapshots or an index's sorted
/// run — morsel by morsel. Nothing is copied: a whole stored chunk is
/// emitted by `Arc` clone, a sliced one (tiny morsels) as a selection view,
/// and §5.3.2 variant splitting — a splitter reads everything but passes
/// only every `n`-th tuple — as a stride selection vector, which keeps a
/// sorted run sorted. `ControlBlock::check` runs per chunk: the chunk
/// boundary is the revocation point, never mid-kernel.
pub struct ScanSource {
    partitions: Arc<Vec<Chunks>>,
    feed: MorselFeed,
    /// The morsel being emitted, its next chunk, and that chunk's first
    /// row's absolute index.
    cur: Option<(Morsel, usize, usize)>,
    /// (variant_id, total_variants); `None` passes everything.
    split: Option<(usize, usize)>,
    ctrl: Arc<ControlBlock>,
}

impl ScanSource {
    /// Scan all of `partitions` in order on the calling thread.
    pub fn new(
        partitions: Vec<Chunks>,
        split: Option<(usize, usize)>,
        ctrl: Arc<ControlBlock>,
    ) -> ScanSource {
        ScanSource {
            partitions: Arc::new(partitions),
            feed: MorselFeed::Sequential { next_part: 0, base: 0 },
            cur: None,
            split,
            ctrl,
        }
    }

    /// One lane of a morsel-parallel scan of `partitions`.
    pub(crate) fn over_supply(
        partitions: Arc<Vec<Chunks>>,
        supply: Arc<MorselSupply>,
        lane: usize,
        split: Option<(usize, usize)>,
        ctrl: Arc<ControlBlock>,
    ) -> ScanSource {
        ScanSource { partitions, feed: MorselFeed::Shared { supply, lane }, cur: None, split, ctrl }
    }

    fn next_morsel(&mut self) -> Option<Morsel> {
        match &mut self.feed {
            MorselFeed::Shared { supply, lane } => supply.pull(*lane),
            MorselFeed::Sequential { next_part, base } => loop {
                let part = *next_part;
                let chunks = self.partitions.get(part)?;
                *next_part += 1;
                if let Some(last) = chunks.last() {
                    let rows: usize = chunks.iter().map(|c| c.num_rows()).sum();
                    let m = Morsel {
                        part,
                        start: 0,
                        end: chunks.len(),
                        lo: 0,
                        hi: last.num_rows(),
                        base: *base,
                        rows,
                        assigned: 0,
                    };
                    *base += rows;
                    return Some(m);
                }
            },
        }
    }
}

impl RowSource for ScanSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            let (m, c, abs) = match self.cur {
                Some(cur) if cur.1 < cur.0.end => cur,
                _ => match self.next_morsel() {
                    Some(m) => (m, m.start, m.base),
                    None => return Ok(None),
                },
            };
            let chunk = &self.partitions[m.part][c];
            let lo = if c == m.start { m.lo } else { 0 };
            let hi = if c + 1 == m.end { m.hi } else { chunk.num_rows() };
            self.cur = Some((m, c + 1, abs + (hi - lo)));
            return Ok(Some(match self.split {
                None if hi - lo == chunk.num_rows() => (**chunk).clone(),
                None => chunk.slice_logical(lo, hi - lo),
                Some((vid, n)) => {
                    // Absolute row index ≡ the sequential scan's tuple
                    // counter, so the splitter keeps exactly the same
                    // tuples no matter which lane processes the morsel, or
                    // when.
                    let first = lo + (vid + n - abs % n) % n;
                    let sel: Vec<u32> = (first..hi).step_by(n).map(|r| r as u32).collect();
                    if sel.is_empty() {
                        continue;
                    }
                    chunk.with_sel(sel)
                }
            }));
        }
    }
}

/// Order-preserving k-way merge of sorted runs, each a list of batches:
/// the per-lane runs of a parallel sort, or the per-partition runs of an
/// index scan at a site serving several partitions. The comparator matches
/// `sort_permutation`'s total order — `cmp_at` NULLs-first semantics,
/// `DESC` reversal per key — with the run index as the tie-break, so merged
/// output is deterministic given the runs. Variant splitting (`split`)
/// passes every `n`-th merged tuple, which preserves the order.
pub struct MergeRunsSource {
    runs: Vec<Vec<ColumnBatch>>,
    /// Per run, the (batch, logical row) of its next row; a batch index
    /// past the run's end means the run is exhausted.
    cursors: Vec<(usize, usize)>,
    keys: Vec<SortKey>,
    split: Option<(usize, usize)>,
    merged: usize,
    ctrl: Arc<ControlBlock>,
}

impl MergeRunsSource {
    pub fn new(
        mut runs: Vec<Vec<ColumnBatch>>,
        keys: Vec<SortKey>,
        split: Option<(usize, usize)>,
        ctrl: Arc<ControlBlock>,
    ) -> MergeRunsSource {
        for run in &mut runs {
            run.retain(|b| b.num_rows() > 0);
        }
        let cursors = vec![(0, 0); runs.len()];
        MergeRunsSource { runs, cursors, keys, split, merged: 0, ctrl }
    }

    /// Run `r`'s next row as (batch, physical row), if any.
    fn head(&self, r: usize) -> Option<(&ColumnBatch, usize)> {
        let (b, k) = self.cursors[r];
        self.runs[r].get(b).map(|batch| (batch, batch.phys_index(k)))
    }

    fn advance(&mut self, r: usize) {
        let (b, k) = &mut self.cursors[r];
        *k += 1;
        if *k >= self.runs[r][*b].num_rows() {
            (*b, *k) = (*b + 1, 0);
        }
    }

    fn head_cmp(&self, a: (&ColumnBatch, usize), b: (&ColumnBatch, usize)) -> CmpOrdering {
        for k in &self.keys {
            let mut ord = a.0.col(k.col).cmp_at(a.1, b.0.col(k.col), b.1);
            if k.desc {
                ord = ord.reverse();
            }
            if ord != CmpOrdering::Equal {
                return ord;
            }
        }
        CmpOrdering::Equal
    }
}

impl RowSource for MergeRunsSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        let width = self.runs.iter().flatten().next().map_or(0, ColumnBatch::width);
        let mut builders: Vec<ColumnBuilder> = (0..width).map(|_| ColumnBuilder::new()).collect();
        let mut n = 0usize;
        while n < BATCH_SIZE {
            // Linear min-scan: k = lanes or partitions per site, single
            // digits. Strict `Less` keeps the earliest run on ties.
            let mut best: Option<(usize, (&ColumnBatch, usize))> = None;
            for r in 0..self.runs.len() {
                let Some(head) = self.head(r) else { continue };
                if best.is_none_or(|(_, b)| self.head_cmp(head, b) == CmpOrdering::Less) {
                    best = Some((r, head));
                }
            }
            let Some((r, (batch, i))) = best else { break };
            let keep = self.split.is_none_or(|(vid, of)| self.merged % of == vid);
            if keep {
                for (c, bld) in builders.iter_mut().enumerate() {
                    bld.push_from_column(batch.col(c), i);
                }
                n += 1;
            }
            self.merged += 1;
            self.advance(r);
        }
        if n == 0 {
            return Ok(None);
        }
        let cols = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Ok(Some(ColumnBatch::new(cols, n)))
    }
}

// ------------------------------------------------------------ row shapers

/// Filter: vectorized predicate evaluation that never materializes — the
/// surviving rows are expressed as a (composed) selection vector over the
/// input batch's physical columns.
pub struct FilterExec {
    pub input: BoxedSource,
    pub predicate: Expr,
    pub ctrl: Arc<ControlBlock>,
}

impl FilterExec {
    pub fn new(input: BoxedSource, predicate: Expr, ctrl: Arc<ControlBlock>) -> FilterExec {
        FilterExec { input, predicate, ctrl }
    }
}

impl RowSource for FilterExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let sel = eval_filter_sel(&self.predicate, &batch)?;
            if sel.len() == batch.num_rows() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.select_logical(&sel)));
            }
        }
    }

    /// Row-format consumers (merge join, NLJ) get row-at-a-time filtering
    /// over the input's row stream — the two paths agree by the
    /// `eval_filter_sel` ≡ per-row `eval_filter` property (kernel_props).
    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        loop {
            self.ctrl.check()?;
            let Some(rows) = self.input.next_rows()? else { return Ok(None) };
            let mut out = Batch::with_capacity(rows.len());
            for row in rows {
                if self.predicate.eval_filter(&row)? {
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

/// Projection: bare column references share the input column `Arc`s (and
/// keep the selection vector untouched); computed expressions run through
/// the vectorized evaluator one output column at a time.
pub struct ProjectExec {
    pub input: BoxedSource,
    pub exprs: Vec<Expr>,
    pub ctrl: Arc<ControlBlock>,
    /// When every expression is a bare column reference, the column indices
    /// — projection is then an `Arc` clone per column, no evaluator
    /// dispatch and no data movement.
    cols: Option<Vec<usize>>,
}

impl ProjectExec {
    pub fn new(input: BoxedSource, exprs: Vec<Expr>, ctrl: Arc<ControlBlock>) -> ProjectExec {
        let cols = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(c) => Some(*c),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>();
        ProjectExec { input, exprs, ctrl, cols }
    }
}

impl RowSource for ProjectExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        let Some(batch) = self.input.next_batch()? else { return Ok(None) };
        if let Some(cols) = &self.cols {
            return Ok(Some(batch.project_cols(cols)));
        }
        let out: Vec<Arc<Column>> =
            self.exprs.iter().map(|e| eval_expr(e, &batch)).collect::<IcResult<_>>()?;
        Ok(Some(ColumnBatch::new(out, batch.num_rows())))
    }

    /// Bare-column projections stay in row format for row consumers;
    /// computed expressions fall back to the vectorized evaluator and
    /// convert at this edge.
    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        let Some(cols) = self.cols.clone() else {
            return Ok(self.next_batch()?.map(|b| b.to_rows()));
        };
        self.ctrl.check()?;
        let Some(rows) = self.input.next_rows()? else { return Ok(None) };
        Ok(Some(rows.iter().map(|r| r.project(&cols)).collect()))
    }
}

// ----------------------------------------------------------------- joins

/// Nested-loop join: buffers the right side, streams the left. Output is
/// produced in bounded batches — the loop state (left batch position,
/// right position) persists across `next_batch` calls so a high-fan-out
/// join never materializes more than one batch of output. Row-internal:
/// the arbitrary `on` predicate is evaluated per joined row.
pub struct NestedLoopJoinExec {
    pub left: BoxedSource,
    pub right: BoxedSource,
    pub kind: JoinKind,
    pub on: Expr,
    pub right_arity: usize,
    right_rows: Option<Vec<Row>>,
    current: Option<Vec<Row>>,
    li: usize,
    ri: usize,
    matched: bool,
    pub ctrl: Arc<ControlBlock>,
}

impl NestedLoopJoinExec {
    pub fn new(
        left: BoxedSource,
        right: BoxedSource,
        kind: JoinKind,
        on: Expr,
        right_arity: usize,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        NestedLoopJoinExec {
            left,
            right,
            kind,
            on,
            right_arity,
            right_rows: None,
            current: None,
            li: 0,
            ri: 0,
            matched: false,
            ctrl,
        }
    }
}

impl NestedLoopJoinExec {
    fn produce(&mut self) -> IcResult<Option<Batch>> {
        if self.right_rows.is_none() {
            let mut rows = Vec::new();
            while let Some(mut b) = self.right.next_rows()? {
                self.ctrl.check()?;
                reserve_rows(&self.ctrl, &b)?;
                rows.append(&mut b);
            }
            self.right_rows = Some(rows);
        }
        let Some(right) = self.right_rows.as_ref() else {
            return Err(IcError::Internal("nested-loop join: build side missing after build phase".into()));
        };
        let mut out = Batch::new();
        loop {
            if self.current.is_none() {
                match self.left.next_rows()? {
                    Some(b) => {
                        self.current = Some(b);
                        self.li = 0;
                        self.ri = 0;
                        self.matched = false;
                    }
                    None => {
                        return Ok(if out.is_empty() { None } else { Some(out) });
                    }
                }
            }
            let Some(batch) = self.current.as_ref() else {
                return Err(IcError::Internal("nested-loop join: probe batch missing".into()));
            };
            while self.li < batch.len() {
                let left_row = &batch[self.li];
                self.ctrl.check()?;
                while self.ri < right.len() {
                    let r = &right[self.ri];
                    self.ri += 1;
                    let joined = left_row.concat(r);
                    if !self.on.eval_filter(&joined)? {
                        continue;
                    }
                    match self.kind {
                        JoinKind::Inner | JoinKind::Left => {
                            self.matched = true;
                            out.push(joined);
                            if out.len() >= BATCH_SIZE {
                                return Ok(Some(out));
                            }
                        }
                        JoinKind::Semi => {
                            out.push(left_row.clone());
                            self.matched = true;
                            self.ri = right.len(); // short-circuit
                        }
                        JoinKind::Anti => {
                            self.matched = true;
                            self.ri = right.len();
                        }
                    }
                }
                // End of the right side for this left row.
                match self.kind {
                    JoinKind::Left if !self.matched => {
                        let nulls = Row(vec![Datum::Null; self.right_arity]);
                        out.push(left_row.concat(&nulls));
                    }
                    JoinKind::Anti if !self.matched => out.push(left_row.clone()),
                    _ => {}
                }
                self.li += 1;
                self.ri = 0;
                self.matched = false;
                if out.len() >= BATCH_SIZE {
                    return Ok(Some(out));
                }
            }
            self.current = None;
        }
    }
}

impl RowSource for NestedLoopJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        Ok(self.produce()?.map(|b| ColumnBatch::from_rows(&b)))
    }

    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        self.produce()
    }
}

/// Hash join (§5.1.2): builds on the right input, probes with the left —
/// fully columnar on both sides.
///
/// The build side goes into a [`ColJoinTable`]: batches are appended
/// column-wise into a contiguous arena and chained by 64-bit key hash, so
/// the build loop never clones a key datum. Probes hash the key columns
/// vectorized, walk each chain with typed column-vs-column equality, and
/// produce `(probe row, arena row)` index pairs; output is materialized by
/// [`gather_join_output`] one column at a time (`NIL` pairs drive LEFT
/// null-extension). SEMI/ANTI joins skip materialization entirely — the
/// result is a selection over the probe batch. Chains preserve build
/// insertion order, keeping output bit-identical to the row plane.
pub struct HashJoinExec {
    pub left: BoxedSource,
    pub right: BoxedSource,
    pub kind: JoinKind,
    pub left_keys: Vec<usize>,
    pub right_keys: Vec<usize>,
    pub residual: Expr,
    pub right_arity: usize,
    table: Option<ColJoinTable>,
    /// Output batches for the probe batch being processed (pairs are
    /// segmented at batch-size boundaries without splitting a probe row's
    /// match run).
    output: VecDeque<ColumnBatch>,
    /// Probe rows consumed so far; flushed to `exec.join.probe_rows` once
    /// on drop so the hot loop only bumps a local integer.
    probed: u64,
    pub ctrl: Arc<ControlBlock>,
}

impl HashJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedSource,
        right: BoxedSource,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Expr,
        right_arity: usize,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        HashJoinExec {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            right_arity,
            table: None,
            output: VecDeque::new(),
            probed: 0,
            ctrl,
        }
    }
}

impl Drop for HashJoinExec {
    fn drop(&mut self) {
        if self.probed > 0 {
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.join.probe_rows")
                .add(self.probed);
        }
    }
}

/// Push `pairs[start..]` through [`gather_join_output`] in batch-sized
/// segments, cutting only at probe-row boundaries so one probe row's match
/// run is never split across output batches.
fn emit_pair_segments(
    probe: &ColumnBatch,
    pks: &[u32],
    arena: &ColumnBatch,
    bis: &[u32],
    out: &mut VecDeque<ColumnBatch>,
) {
    let mut start = 0;
    while start < pks.len() {
        let mut end = (start + BATCH_SIZE).min(pks.len());
        while end < pks.len() && pks[end] == pks[end - 1] {
            end += 1;
        }
        out.push_back(gather_join_output(probe, &pks[start..end], arena, &bis[start..end]));
        start = end;
    }
}

/// Probe one batch against the build table, appending output batches.
fn probe_batch(
    table: &ColJoinTable,
    kind: JoinKind,
    left_keys: &[usize],
    residual: Option<&Expr>,
    batch: &ColumnBatch,
    out: &mut VecDeque<ColumnBatch>,
) -> IcResult<()> {
    match (kind, residual) {
        (JoinKind::Semi | JoinKind::Anti, None) => {
            // Selection-only path: no output materialization at all.
            let matched = table.probe_matched(batch, left_keys);
            let want = kind == JoinKind::Semi;
            let keep: Vec<u32> = matched
                .iter()
                .enumerate()
                .filter_map(|(k, &m)| (m == want).then_some(k as u32))
                .collect();
            if !keep.is_empty() {
                out.push_back(batch.select_logical(&keep));
            }
        }
        (JoinKind::Inner | JoinKind::Left, None) => {
            let (pks, bis) = table.probe_pairs(batch, left_keys, kind == JoinKind::Left);
            emit_pair_segments(batch, &pks, table.arena(), &bis, out);
        }
        (_, Some(res)) => {
            // Gather real pairs, run the residual vectorized over the
            // joined batch, then regroup pass/fail per probe row.
            let (pks, bis) = table.probe_pairs(batch, left_keys, false);
            let joined = gather_join_output(batch, &pks, table.arena(), &bis);
            let sel = eval_filter_sel(res, &joined)?;
            let mut pass = vec![false; pks.len()];
            for &j in &sel {
                pass[j as usize] = true;
            }
            match kind {
                JoinKind::Inner | JoinKind::Left => {
                    let mut out_pks = Vec::with_capacity(sel.len());
                    let mut out_bis = Vec::with_capacity(sel.len());
                    fold_verdicts(batch.num_rows(), &pks, &pass, |k, hit| match hit {
                        Some(i) => {
                            out_pks.push(k);
                            out_bis.push(bis[i]);
                        }
                        None if kind == JoinKind::Left => {
                            out_pks.push(k);
                            out_bis.push(NIL);
                        }
                        None => {}
                    });
                    emit_pair_segments(batch, &out_pks, table.arena(), &out_bis, out);
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let keep = verdict_selection(kind, batch.num_rows(), &pks, &pass);
                    if !keep.is_empty() {
                        out.push_back(batch.select_logical(&keep));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Regroup per-pair residual verdicts by probe row. `pks` holds the probe
/// row of every candidate pair, in probe order; `visit(k, Some(i))` is
/// called for each passing pair `i` of probe row `k`, `visit(k, None)` for
/// each of the `n` probe rows left without a passing pair — all in probe
/// order.
fn fold_verdicts(n: usize, pks: &[u32], pass: &[bool], mut visit: impl FnMut(u32, Option<usize>)) {
    let mut i = 0;
    for k in 0..n as u32 {
        let mut any = false;
        while i < pks.len() && pks[i] == k {
            if pass[i] {
                visit(k, Some(i));
                any = true;
            }
            i += 1;
        }
        if !any {
            visit(k, None);
        }
    }
}

/// SEMI/ANTI result of residual-checked candidate pairs: the probe rows
/// with (SEMI) or without (ANTI) a passing pair.
fn verdict_selection(kind: JoinKind, n: usize, pks: &[u32], pass: &[bool]) -> Vec<u32> {
    let want_match = kind == JoinKind::Semi;
    let mut keep: Vec<u32> = Vec::new();
    fold_verdicts(n, pks, pass, |k, hit| {
        if hit.is_some() == want_match && keep.last() != Some(&k) {
            keep.push(k);
        }
    });
    keep
}

impl RowSource for HashJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.table.is_none() {
            // Build phase: batches append column-wise into the arena; rows
            // with NULL key columns are skipped (they never match).
            let mut table = ColJoinTable::new(self.right_keys.clone(), self.right_arity);
            while let Some(b) = self.right.next_batch()? {
                self.ctrl.check()?;
                self.ctrl.reserve_batch(&b)?;
                table.insert_batch(&b);
            }
            table.finish_build();
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.join.build_rows")
                .add(table.len() as u64);
            self.table = Some(table);
        }
        let residual =
            if self.residual.is_true_literal() { None } else { Some(self.residual.clone()) };
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some(batch) = self.left.next_batch()? else { return Ok(None) };
            self.probed += batch.num_rows() as u64;
            let Some(table) = self.table.as_ref() else {
                return Err(IcError::Internal("hash join: hash table missing after build phase".into()));
            };
            probe_batch(table, self.kind, &self.left_keys, residual.as_ref(), &batch, &mut self.output)?;
        }
    }
}

/// Probe side of a hash join whose build table is shared, read-only,
/// across pipeline lanes (morsel-parallel execution): the driver resolves
/// the build once behind the build barrier, every lane probes the same
/// [`ColJoinTable`] through the same vectorized [`probe_batch`] path as
/// [`HashJoinExec`].
pub struct SharedProbeExec {
    input: BoxedSource,
    table: Arc<ColJoinTable>,
    kind: JoinKind,
    left_keys: Vec<usize>,
    residual: Option<Expr>,
    output: VecDeque<ColumnBatch>,
    /// Probe rows consumed; flushed to `exec.join.probe_rows` on drop.
    probed: u64,
    ctrl: Arc<ControlBlock>,
}

impl SharedProbeExec {
    pub fn new(
        input: BoxedSource,
        table: Arc<ColJoinTable>,
        kind: JoinKind,
        left_keys: Vec<usize>,
        residual: Expr,
        ctrl: Arc<ControlBlock>,
    ) -> SharedProbeExec {
        let residual = if residual.is_true_literal() { None } else { Some(residual) };
        SharedProbeExec {
            input,
            table,
            kind,
            left_keys,
            residual,
            output: VecDeque::new(),
            probed: 0,
            ctrl,
        }
    }
}

impl Drop for SharedProbeExec {
    fn drop(&mut self) {
        if self.probed > 0 {
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.join.probe_rows")
                .add(self.probed);
        }
    }
}

impl RowSource for SharedProbeExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            self.probed += batch.num_rows() as u64;
            probe_batch(
                &self.table,
                self.kind,
                &self.left_keys,
                self.residual.as_ref(),
                &batch,
                &mut self.output,
            )?;
        }
    }
}

/// Lexicographic key comparison between row `ai` of `a` and row `bi` of `b`
/// (physical indices), in `Datum`'s total order.
fn cmp_keys(
    a: &ColumnBatch,
    a_keys: &[usize],
    ai: usize,
    b: &ColumnBatch,
    b_keys: &[usize],
    bi: usize,
) -> CmpOrdering {
    for (&ac, &bc) in a_keys.iter().zip(b_keys) {
        let ord = a.col(ac).cmp_at(ai, b.col(bc), bi);
        if ord != CmpOrdering::Equal {
            return ord;
        }
    }
    CmpOrdering::Equal
}

/// The candidate pairs of one left batch against the buffered right side,
/// in left-row order with each row's matches in right order: left logical
/// row, right physical row (`NIL` = null-extended), and the right batch the
/// row lives in.
#[derive(Default)]
struct MergePairs {
    pks: Vec<u32>,
    bis: Vec<u32>,
    rbs: Vec<u32>,
}

impl MergePairs {
    fn push(&mut self, pk: u32, bi: u32, rb: usize) {
        self.pks.push(pk);
        self.bis.push(bi);
        self.rbs.push(rb as u32);
    }

    /// Maximal runs of pairs whose right rows live in one right batch, as
    /// (pair range, that batch); null-extended pairs ride with their
    /// neighbours (`None`: the run has no right row at all).
    fn runs(&self) -> Vec<(std::ops::Range<usize>, Option<usize>)> {
        let mut runs = Vec::new();
        let mut start = 0;
        while start < self.pks.len() {
            let mut arena = None;
            let mut end = start;
            while end < self.pks.len() {
                if self.bis[end] != NIL {
                    match arena {
                        None => arena = Some(self.rbs[end] as usize),
                        Some(a) if a != self.rbs[end] as usize => break,
                        Some(_) => {}
                    }
                }
                end += 1;
            }
            runs.push((start..end, arena));
            start = end;
        }
        runs
    }
}

/// Merge join: inputs sorted ascending on the keys. Column-native: the
/// right side is buffered as the batches it arrived in, the left streams
/// through, and both are walked in place with (batch, row) cursors and
/// typed `cmp_at` key comparisons — no input row is ever materialized,
/// copied or concatenated. Matches become index pairs and go through the
/// hash join's output path ([`gather_join_output`], vectorized residual,
/// [`emit_pair_segments`]), one (left batch, right batch) run at a time.
pub struct MergeJoinExec {
    left: BoxedSource,
    right: BoxedSource,
    kind: JoinKind,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    residual: Option<Expr>,
    /// Stand-in right batch for runs made of null-extended pairs only.
    no_right: ColumnBatch,
    ctrl: Arc<ControlBlock>,
    /// The buffered right side; `None` until the first pull.
    right_batches: Option<Arc<Vec<ColumnBatch>>>,
    /// (batch, logical row) of the first right row not yet known to sort
    /// before the current left key. Only ever moves forward.
    right_pos: (usize, usize),
    output: VecDeque<ColumnBatch>,
}

impl MergeJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedSource,
        right: BoxedSource,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Expr,
        right_arity: usize,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        MergeJoinExec {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual: if residual.is_true_literal() { None } else { Some(residual) },
            no_right: ColumnBatch::empty(right_arity),
            ctrl,
            right_batches: None,
            right_pos: (0, 0),
            output: VecDeque::new(),
        }
    }

    /// Candidate pairs of `lb` against the right side, advancing the right
    /// cursor past every key smaller than `lb`'s last. With `pad`, a left
    /// row without a key match contributes one null-extended pair.
    fn match_batch(&mut self, lb: &ColumnBatch, right: &[ColumnBatch], pad: bool) -> MergePairs {
        let step = |(b, k): (usize, usize)| {
            if k + 1 < right[b].num_rows() {
                (b, k + 1)
            } else {
                (b + 1, 0)
            }
        };
        let mut pairs = MergePairs::default();
        let mut pos = self.right_pos;
        for k in 0..lb.num_rows() {
            let li = lb.phys_index(k);
            let before = pairs.pks.len();
            // NULL keys match nothing.
            if self.left_keys.iter().all(|&c| lb.col(c).is_valid(li)) {
                let cmp_right = |(b, rk): (usize, usize)| {
                    let rb = &right[b];
                    cmp_keys(rb, &self.right_keys, rb.phys_index(rk), lb, &self.left_keys, li)
                };
                while pos.0 < right.len() && cmp_right(pos) == CmpOrdering::Less {
                    pos = step(pos);
                }
                // Walk the equal-key group from the cursor without moving
                // it: the next left row may carry the same key.
                let mut group = pos;
                while group.0 < right.len() && cmp_right(group) == CmpOrdering::Equal {
                    let bi = right[group.0].phys_index(group.1);
                    pairs.push(k as u32, bi as u32, group.0);
                    group = step(group);
                }
            }
            if pad && pairs.pks.len() == before {
                pairs.push(k as u32, NIL, pos.0);
            }
        }
        self.right_pos = pos;
        pairs
    }

    /// Gather `pairs` into output batches, one run at a time.
    fn emit(&mut self, lb: &ColumnBatch, right: &[ColumnBatch], pairs: &MergePairs) {
        for (range, arena) in pairs.runs() {
            let arena = arena.map_or(&self.no_right, |a| &right[a]);
            emit_pair_segments(lb, &pairs.pks[range.clone()], arena, &pairs.bis[range], &mut self.output);
        }
    }

    /// Join one left batch, queueing its output.
    fn join_batch(&mut self, lb: &ColumnBatch, right: &[ColumnBatch]) -> IcResult<()> {
        let n = lb.num_rows();
        let Some(residual) = self.residual.clone() else {
            let pairs = self.match_batch(lb, right, self.kind == JoinKind::Left);
            match self.kind {
                JoinKind::Inner | JoinKind::Left => self.emit(lb, right, &pairs),
                JoinKind::Semi | JoinKind::Anti => {
                    let pass = vec![true; pairs.pks.len()];
                    let keep = verdict_selection(self.kind, n, &pairs.pks, &pass);
                    if !keep.is_empty() {
                        self.output.push_back(lb.select_logical(&keep));
                    }
                }
            }
            return Ok(());
        };
        // Run the residual vectorized over each run's joined batch, then
        // regroup pass/fail per left row across the runs.
        let pairs = self.match_batch(lb, right, false);
        let mut pass = vec![false; pairs.pks.len()];
        for (range, arena) in pairs.runs() {
            let Some(arena) = arena else { continue };
            let joined = gather_join_output(
                lb,
                &pairs.pks[range.clone()],
                &right[arena],
                &pairs.bis[range.clone()],
            );
            for j in eval_filter_sel(&residual, &joined)? {
                pass[range.start + j as usize] = true;
            }
        }
        match self.kind {
            JoinKind::Inner | JoinKind::Left => {
                let mut kept = MergePairs::default();
                fold_verdicts(n, &pairs.pks, &pass, |k, hit| match hit {
                    Some(i) => kept.push(k, pairs.bis[i], pairs.rbs[i] as usize),
                    None if self.kind == JoinKind::Left => kept.push(k, NIL, 0),
                    None => {}
                });
                self.emit(lb, right, &kept);
            }
            JoinKind::Semi | JoinKind::Anti => {
                let keep = verdict_selection(self.kind, n, &pairs.pks, &pass);
                if !keep.is_empty() {
                    self.output.push_back(lb.select_logical(&keep));
                }
            }
        }
        Ok(())
    }
}

impl RowSource for MergeJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.right_batches.is_none() {
            let mut batches = Vec::new();
            while let Some(b) = self.right.next_batch()? {
                self.ctrl.check()?;
                if b.num_rows() > 0 {
                    self.ctrl.reserve_batch(&b)?;
                    batches.push(b);
                }
            }
            self.right_batches = Some(Arc::new(batches));
        }
        let right = self.right_batches.clone().unwrap_or_default();
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some(lb) = self.left.next_batch()? else { return Ok(None) };
            self.join_batch(&lb, &right)?;
        }
    }
}

// ------------------------------------------------------------- aggregates

/// Hash aggregate in any phase (§3.2's map-reduce split) — columnar build.
///
/// Groups live in a [`ColGroupTable`]: each input batch is resolved to
/// group slots in one vectorized-hash pass (key datums are cloned exactly
/// once, at first sight of each group), then each aggregate folds its
/// argument column in one typed loop that skips validity-masked rows. The
/// Final phase merges accumulator states row-wise (state rows are short and
/// heterogeneous). Output is emitted lazily in batch-sized chunks, one per
/// `next_batch` call, so buffered state stays at the (already reserved)
/// group table instead of doubling into an output queue.
pub struct HashAggExec {
    pub input: BoxedSource,
    pub group: Vec<usize>,
    pub aggs: Vec<AggCall>,
    pub phase: AggPhase,
    pub ctrl: Arc<ControlBlock>,
    done: bool,
    groups: Option<ColGroupTable>,
    emit_pos: usize,
}

impl HashAggExec {
    pub fn new(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        HashAggExec { input, group, aggs, phase, ctrl, done: false, groups: None, emit_pos: 0 }
    }

    fn update_group(&self, accs: &mut [Accumulator], row: &Row) -> IcResult<()> {
        apply_row(self.phase, &self.group, &self.aggs, accs, row)
    }

    fn finish_group(&self, key: Vec<Datum>, accs: &[Accumulator], out: &mut Batch) {
        finish_group_row(self.phase, key, accs, out)
    }

    fn build(&mut self) -> IcResult<()> {
        let mut groups = ColGroupTable::new(self.group.clone(), self.aggs.len());
        let mut slots: Vec<u32> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            self.ctrl.check()?;
            let before = groups.len();
            groups.slots_for_batch(&batch, &self.aggs, &mut slots);
            match self.phase {
                AggPhase::Complete | AggPhase::Partial => {
                    for (j, call) in self.aggs.iter().enumerate() {
                        match &call.arg {
                            // Physical input columns fold directly through
                            // the batch's selection vector.
                            Some(Expr::Col(c)) => {
                                groups.accumulate(j, batch.col(*c), batch.selection(), &slots)?;
                            }
                            // Computed arguments evaluate vectorized into a
                            // logically dense column first.
                            Some(e) => {
                                let col = eval_expr(e, &batch)?;
                                groups.accumulate(j, &col, None, &slots)?;
                            }
                            None => groups.accumulate_count_star(j, &slots)?,
                        }
                    }
                }
                AggPhase::Final => {
                    // State rows are short (group keys + a few state
                    // datums); merge them row-wise.
                    for (k, &slot) in slots.iter().enumerate() {
                        let row = batch.row_at(k);
                        apply_row(self.phase, &self.group, &self.aggs, groups.accs_mut(slot as usize), &row)?;
                    }
                }
            }
            let width = self.group.len() + self.aggs.len() * 2 + 1;
            self.ctrl.reserve((groups.len() - before) * width)?;
        }
        // Scalar aggregates emit one row even on empty input.
        if self.group.is_empty() {
            groups.ensure_scalar_group(&self.aggs);
        }
        ic_common::obs::MetricsRegistry::global()
            .counter("exec.agg.groups")
            .add(groups.len() as u64);
        self.groups = Some(groups);
        Ok(())
    }
}

impl RowSource for HashAggExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if !self.done {
            self.build()?;
            self.done = true;
        }
        self.ctrl.check()?;
        let Some(groups) = self.groups.as_mut() else {
            return Err(IcError::Internal("hash agg: group table missing after build phase".into()));
        };
        if self.emit_pos >= groups.len() {
            return Ok(None);
        }
        let end = (self.emit_pos + BATCH_SIZE).min(groups.len());
        let mut out = Batch::with_capacity(end - self.emit_pos);
        for slot in self.emit_pos..end {
            let (key, accs) = groups.take_group(slot);
            finish_group_row(self.phase, key, accs, &mut out);
        }
        self.emit_pos = end;
        Ok(Some(ColumnBatch::from_rows(&out)))
    }
}

/// Apply one input row to a group's accumulators (phase-dependent).
fn apply_row(
    phase: AggPhase,
    group: &[usize],
    aggs: &[AggCall],
    accs: &mut [Accumulator],
    row: &Row,
) -> IcResult<()> {
    match phase {
        AggPhase::Complete | AggPhase::Partial => {
            for (acc, call) in accs.iter_mut().zip(aggs) {
                let v = match &call.arg {
                    // Plain column refs skip the expression walk.
                    Some(Expr::Col(c)) => row.0[*c].clone(),
                    Some(e) => e.eval(row)?,
                    None => Datum::Int(1), // COUNT(*)
                };
                acc.update(v)?;
            }
        }
        AggPhase::Final => {
            // Row layout: group keys then accumulator states.
            let mut pos = group.len();
            for (acc, call) in accs.iter_mut().zip(aggs) {
                let w = Accumulator::state_width(call.func);
                let state = &row.0[pos..pos + w];
                acc.merge(Accumulator::from_state(call.func, state)?)?;
                pos += w;
            }
        }
    }
    Ok(())
}

/// Emit one finished group as an output row (phase-dependent shape).
fn finish_group_row(phase: AggPhase, key: Vec<Datum>, accs: &[Accumulator], out: &mut Batch) {
    let mut vals = key;
    match phase {
        AggPhase::Complete | AggPhase::Final => {
            vals.extend(accs.iter().map(Accumulator::finish));
        }
        AggPhase::Partial => {
            for acc in accs {
                vals.extend(acc.to_state());
            }
        }
    }
    out.push(Row(vals));
}

/// Streaming aggregate over input sorted on the group keys (the paper's
/// "sort-based aggregation on an already sorted input", §6.2.1 / Q14).
/// Row-internal: group boundaries are detected row by row.
pub struct SortAggExec {
    inner: HashAggExec,
    current_key: Option<Vec<Datum>>,
    current_accs: Vec<Accumulator>,
    pending: Option<Batch>,
    exhausted: bool,
}

impl SortAggExec {
    pub fn new(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        SortAggExec {
            inner: HashAggExec::new(input, group, aggs, phase, ctrl),
            current_key: None,
            current_accs: vec![],
            pending: None,
            exhausted: false,
        }
    }
}

impl SortAggExec {
    fn produce(&mut self) -> IcResult<Option<Batch>> {
        if self.exhausted {
            return Ok(self.pending.take());
        }
        let mut out = Batch::new();
        loop {
            self.inner.ctrl.check()?;
            match self.inner.input.next_rows()? {
                Some(rows) => {
                    for row in rows {
                        let key: Vec<Datum> =
                            self.inner.group.iter().map(|&c| row.0[c].clone()).collect();
                        if self.current_key.as_ref() != Some(&key) {
                            if let Some(k) = self.current_key.take() {
                                self.inner.finish_group(k, &self.current_accs, &mut out);
                            }
                            self.current_key = Some(key);
                            self.current_accs = self
                                .inner
                                .aggs
                                .iter()
                                .map(|a| Accumulator::new(a.func))
                                .collect();
                        }
                        self.inner.update_group(&mut self.current_accs, &row)?;
                    }
                    if out.len() >= BATCH_SIZE {
                        return Ok(Some(out));
                    }
                }
                None => {
                    self.exhausted = true;
                    if let Some(k) = self.current_key.take() {
                        self.inner.finish_group(k, &self.current_accs, &mut out);
                    } else if self.inner.group.is_empty() {
                        let accs: Vec<Accumulator> = self
                            .inner
                            .aggs
                            .iter()
                            .map(|a| Accumulator::new(a.func))
                            .collect();
                        self.inner.finish_group(vec![], &accs, &mut out);
                    }
                    return Ok(if out.is_empty() { None } else { Some(out) });
                }
            }
        }
    }
}

impl RowSource for SortAggExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        Ok(self.produce()?.map(|b| ColumnBatch::from_rows(&b)))
    }

    fn next_rows(&mut self) -> IcResult<Option<Batch>> {
        self.produce()
    }
}

// ------------------------------------------------------- sort/limit/values

/// Sort: concatenates input batches column-wise into one dense batch,
/// computes a sort permutation over the key columns (typed `cmp_at`
/// comparisons, no key decoration buffer), and emits batch-sized selection
/// views over the dense batch — output batches share the sorted data via
/// `Arc`, nothing is re-materialized.
pub struct SortExec {
    pub input: BoxedSource,
    pub keys: Vec<SortKey>,
    pub ctrl: Arc<ControlBlock>,
    done: bool,
    output: VecDeque<ColumnBatch>,
}

impl SortExec {
    pub fn new(input: BoxedSource, keys: Vec<SortKey>, ctrl: Arc<ControlBlock>) -> SortExec {
        SortExec { input, keys, ctrl, done: false, output: Default::default() }
    }
}

impl RowSource for SortExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if !self.done {
            let mut builders: Option<Vec<ColumnBuilder>> = None;
            let mut total = 0usize;
            while let Some(b) = self.input.next_batch()? {
                self.ctrl.check()?;
                self.ctrl.reserve_batch(&b)?;
                let bs = builders
                    .get_or_insert_with(|| (0..b.width()).map(|_| ColumnBuilder::new()).collect());
                for (bld, col) in bs.iter_mut().zip(b.columns()) {
                    bld.append_column(col, b.selection());
                }
                total += b.num_rows();
            }
            if let Some(bs) = builders {
                let cols: Vec<Arc<Column>> =
                    bs.into_iter().map(|b| Arc::new(b.finish())).collect();
                let dense = ColumnBatch::new(cols, total);
                let order = crate::kernels::sort_permutation(&dense, &self.keys);
                for chunk in order.chunks(BATCH_SIZE) {
                    self.output.push_back(dense.with_sel(chunk.to_vec()));
                }
            }
            self.done = true;
        }
        Ok(self.output.pop_front())
    }
}

/// Limit/offset: pure slicing of the logical row range — no data movement.
pub struct LimitExec {
    pub input: BoxedSource,
    pub fetch: Option<u64>,
    pub offset: u64,
    skipped: u64,
    emitted: u64,
    pub ctrl: Arc<ControlBlock>,
}

impl LimitExec {
    pub fn new(input: BoxedSource, fetch: Option<u64>, offset: u64, ctrl: Arc<ControlBlock>) -> Self {
        LimitExec { input, fetch, offset, skipped: 0, emitted: 0, ctrl }
    }
}

impl RowSource for LimitExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if let Some(f) = self.fetch {
                if self.emitted >= f {
                    return Ok(None);
                }
            }
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let n = batch.num_rows() as u64;
            let skip = (self.offset - self.skipped).min(n);
            self.skipped += skip;
            let mut take = n - skip;
            if let Some(f) = self.fetch {
                take = take.min(f - self.emitted);
            }
            if take == 0 {
                continue;
            }
            self.emitted += take;
            return Ok(Some(batch.slice_logical(skip as usize, take as usize)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> Arc<ControlBlock> {
        ControlBlock::new(None, 0)
    }

    fn rows(vals: &[&[i64]]) -> Vec<Row> {
        vals.iter()
            .map(|r| Row(r.iter().map(|&v| Datum::Int(v)).collect()))
            .collect()
    }

    fn src(vals: &[&[i64]]) -> BoxedSource {
        Box::new(VecSource::new(rows(vals)))
    }

    #[test]
    fn filter_and_project() {
        let f = FilterExec::new(
            src(&[&[1, 10], &[2, 20], &[3, 30]]),
            Expr::binary(ic_common::BinOp::Gt, Expr::col(0), Expr::lit(1i64)),
            ctrl(),
        );
        // Bare-column projection exercises the fast path.
        let p = ProjectExec::new(Box::new(f), vec![Expr::col(1)], ctrl());
        assert_eq!(drain(Box::new(p)).unwrap(), rows(&[&[20], &[30]]));
    }

    #[test]
    fn project_expression_path() {
        let p = ProjectExec::new(
            src(&[&[1, 10], &[2, 20]]),
            vec![Expr::binary(ic_common::BinOp::Add, Expr::col(0), Expr::col(1))],
            ctrl(),
        );
        assert_eq!(drain(Box::new(p)).unwrap(), rows(&[&[11], &[22]]));
    }

    #[test]
    fn hash_join_kinds() {
        let mk = |kind| {
            HashJoinExec::new(
                src(&[&[1], &[2], &[3]]),
                src(&[&[2, 20], &[3, 30], &[3, 31]]),
                kind,
                vec![0],
                vec![0],
                Expr::lit(true),
                2,
                ctrl(),
            )
        };
        assert_eq!(
            drain(Box::new(mk(JoinKind::Inner))).unwrap(),
            rows(&[&[2, 2, 20], &[3, 3, 30], &[3, 3, 31]])
        );
        let left = drain(Box::new(mk(JoinKind::Left))).unwrap();
        assert_eq!(left.len(), 4);
        assert!(left[0].0[1].is_null()); // 1 null-extended
        assert_eq!(drain(Box::new(mk(JoinKind::Semi))).unwrap(), rows(&[&[2], &[3]]));
        assert_eq!(drain(Box::new(mk(JoinKind::Anti))).unwrap(), rows(&[&[1]]));
    }

    #[test]
    fn hash_join_residual() {
        let hj = HashJoinExec::new(
            src(&[&[1, 5]]),
            src(&[&[1, 3], &[1, 9]]),
            JoinKind::Inner,
            vec![0],
            vec![0],
            // l.c1 > r.c1  (cols: l0 l1 r0 r1)
            Expr::binary(ic_common::BinOp::Gt, Expr::col(1), Expr::col(3)),
            2,
            ctrl(),
        );
        assert_eq!(drain(Box::new(hj)).unwrap(), rows(&[&[1, 5, 1, 3]]));
    }

    #[test]
    fn nlj_matches_hash_join() {
        let on = Expr::eq(Expr::col(0), Expr::col(1));
        let nlj = NestedLoopJoinExec::new(
            src(&[&[1], &[2], &[3]]),
            src(&[&[2], &[3]]),
            JoinKind::Inner,
            on,
            1,
            ctrl(),
        );
        assert_eq!(drain(Box::new(nlj)).unwrap(), rows(&[&[2, 2], &[3, 3]]));
    }

    #[test]
    fn merge_join_sorted_inputs() {
        let mj = MergeJoinExec::new(
            src(&[&[1], &[2], &[2], &[4]]),
            src(&[&[2, 20], &[3, 30], &[4, 40]]),
            JoinKind::Inner,
            vec![0],
            vec![0],
            Expr::lit(true),
            2,
            ctrl(),
        );
        assert_eq!(
            drain(Box::new(mj)).unwrap(),
            rows(&[&[2, 2, 20], &[2, 2, 20], &[4, 4, 40]])
        );
        // Anti join keeps unmatched left rows.
        let mj = MergeJoinExec::new(
            src(&[&[1], &[2], &[4]]),
            src(&[&[2, 0]]),
            JoinKind::Anti,
            vec![0],
            vec![0],
            Expr::lit(true),
            2,
            ctrl(),
        );
        assert_eq!(drain(Box::new(mj)).unwrap(), rows(&[&[1], &[4]]));
    }

    #[test]
    fn hash_agg_complete() {
        use ic_common::agg::AggFunc;
        let agg = HashAggExec::new(
            src(&[&[1, 10], &[1, 20], &[2, 5]]),
            vec![0],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }],
            AggPhase::Complete,
            ctrl(),
        );
        let mut out = drain(Box::new(agg)).unwrap();
        out.sort();
        assert_eq!(out, rows(&[&[1, 30], &[2, 5]]));
    }

    #[test]
    fn partial_final_roundtrip() {
        use ic_common::agg::AggFunc;
        let aggs = vec![
            AggCall { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
        ];
        // Two partials over disjoint halves.
        let p1 = HashAggExec::new(
            src(&[&[1, 10], &[2, 8]]),
            vec![0],
            aggs.clone(),
            AggPhase::Partial,
            ctrl(),
        );
        let p2 = HashAggExec::new(
            src(&[&[1, 30]]),
            vec![0],
            aggs.clone(),
            AggPhase::Partial,
            ctrl(),
        );
        let mut partial_rows = drain(Box::new(p1)).unwrap();
        partial_rows.extend(drain(Box::new(p2)).unwrap());
        let fin = HashAggExec::new(
            Box::new(VecSource::new(partial_rows)),
            vec![0],
            aggs,
            AggPhase::Final,
            ctrl(),
        );
        let mut out = drain(Box::new(fin)).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                Row(vec![Datum::Int(1), Datum::Double(20.0), Datum::Int(2)]),
                Row(vec![Datum::Int(2), Datum::Double(8.0), Datum::Int(1)]),
            ]
        );
    }

    #[test]
    fn scalar_agg_empty_input() {
        use ic_common::agg::AggFunc;
        let agg = HashAggExec::new(
            src(&[]),
            vec![],
            vec![AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() }],
            AggPhase::Complete,
            ctrl(),
        );
        assert_eq!(drain(Box::new(agg)).unwrap(), rows(&[&[0]]));
    }

    #[test]
    fn sort_agg_streams_groups() {
        use ic_common::agg::AggFunc;
        let agg = SortAggExec::new(
            src(&[&[1, 10], &[1, 20], &[2, 5], &[3, 1]]),
            vec![0],
            vec![AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "m".into() }],
            AggPhase::Complete,
            ctrl(),
        );
        assert_eq!(drain(Box::new(agg)).unwrap(), rows(&[&[1, 20], &[2, 5], &[3, 1]]));
    }

    #[test]
    fn sort_and_limit() {
        let s = SortExec::new(
            src(&[&[3], &[1], &[2]]),
            vec![SortKey::desc(0)],
            ctrl(),
        );
        let l = LimitExec::new(Box::new(s), Some(2), 1, ctrl());
        assert_eq!(drain(Box::new(l)).unwrap(), rows(&[&[2], &[1]]));
    }

    /// Store `rows` the way a partition does: dense chunks of `per_chunk`.
    fn chunked(rows: &[Row], per_chunk: usize) -> Chunks {
        Arc::new(rows.chunks(per_chunk).map(|c| Arc::new(ColumnBatch::from_rows(c))).collect())
    }

    #[test]
    fn scan_emits_stored_chunks_without_copying() {
        let data: Vec<Row> = (0..10i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let stored = chunked(&data, 4);
        let mut scan = ScanSource::new(vec![stored.clone()], None, ctrl());
        for chunk in stored.iter() {
            let b = scan.next_batch().unwrap().unwrap();
            assert!(b.selection().is_none());
            assert!(Arc::ptr_eq(b.col(0), chunk.col(0)), "scan must share the stored column");
        }
        assert!(scan.next_batch().unwrap().is_none());
    }

    #[test]
    fn scan_variant_splitting_partitions_rows() {
        let data: Vec<Row> = (0..10i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        // Two partitions, odd chunk sizes: the stride must carry across
        // chunk and partition boundaries.
        let parts = vec![chunked(&data[..7], 3), chunked(&data[7..], 3)];
        let v0 = ScanSource::new(parts.clone(), Some((0, 2)), ctrl());
        let v1 = ScanSource::new(parts, Some((1, 2)), ctrl());
        let r0 = drain(Box::new(v0)).unwrap();
        let r1 = drain(Box::new(v1)).unwrap();
        assert_eq!(r0, rows(&[&[0], &[2], &[4], &[6], &[8]]));
        assert_eq!(r1, rows(&[&[1], &[3], &[5], &[7], &[9]]));
    }

    #[test]
    fn merge_runs_source_merges_chunked_runs() {
        let a = vec![ColumnBatch::from_rows(&rows(&[&[1], &[4]])), ColumnBatch::from_rows(&rows(&[&[7]]))];
        // A run may carry selection views (a sorted lane's output does).
        let b = vec![ColumnBatch::from_rows(&rows(&[&[9], &[2], &[3]])).with_sel(vec![1, 2, 0])];
        let m = MergeRunsSource::new(vec![a.clone(), b.clone()], vec![SortKey::asc(0)], None, ctrl());
        assert_eq!(drain(Box::new(m)).unwrap(), rows(&[&[1], &[2], &[3], &[4], &[7], &[9]]));
        // The splitter passes every n-th merged tuple.
        let m = MergeRunsSource::new(vec![a, b], vec![SortKey::asc(0)], Some((1, 2)), ctrl());
        assert_eq!(drain(Box::new(m)).unwrap(), rows(&[&[2], &[4], &[9]]));
    }

    #[test]
    fn timeout_aborts() {
        let ctrl = ControlBlock::new(Some(Instant::now() - std::time::Duration::from_secs(1)), 5);
        let mut s = ScanSource::new(vec![chunked(&rows(&[&[1]]), 1)], None, ctrl);
        assert!(matches!(s.next_batch(), Err(IcError::ExecTimeout { .. })));
    }

    #[test]
    fn cancellation_aborts() {
        let c = ctrl();
        c.cancel();
        let mut s = ScanSource::new(vec![chunked(&rows(&[&[1]]), 1)], None, c);
        assert!(s.next_batch().is_err());
    }

    #[test]
    fn filter_composes_selection_without_materializing() {
        // Two stacked filters: the surviving rows must still be a selection
        // view over the original physical columns.
        let f1 = FilterExec::new(
            src(&[&[1], &[2], &[3], &[4], &[5], &[6]]),
            Expr::binary(ic_common::BinOp::Gt, Expr::col(0), Expr::lit(1i64)),
            ctrl(),
        );
        let mut f2 = FilterExec::new(
            Box::new(f1),
            Expr::binary(ic_common::BinOp::Lt, Expr::col(0), Expr::lit(6i64)),
            ctrl(),
        );
        let b = f2.next_batch().unwrap().unwrap();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.phys_rows(), 6, "filter must shrink the selection, not copy columns");
        assert_eq!(b.to_rows(), rows(&[&[2], &[3], &[4], &[5]]));
    }

    #[test]
    fn limit_slices_across_batches() {
        let many: Vec<Row> = (0..3000i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let l = LimitExec::new(Box::new(VecSource::new(many)), Some(10), 1500, ctrl());
        let out = drain(Box::new(l)).unwrap();
        let vals: Vec<i64> = out.iter().map(|r| r.0[0].as_int().unwrap()).collect();
        assert_eq!(vals, (1500..1510).collect::<Vec<i64>>());
    }
}
