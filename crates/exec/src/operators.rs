//! Physical operator implementations: pull-based batch iterators
//! (Volcano-style execution, batched to amortize channel overhead).
//!
//! The data plane is columnar: operators exchange [`ColumnBatch`]es —
//! typed column vectors with validity bitmaps and an optional selection
//! vector — so filters shrink the selection instead of materializing
//! output, projections share column `Arc`s, and the join/agg/sort kernels
//! in [`crate::kernels`] run tight per-column loops. Storage is columnar
//! too: [`ScanSource`] hands out one partition's (or its index run's)
//! stored chunks by `Arc` clone. Aggregation is columnar too: group keys
//! and `Partial` state live in typed columns, a `Final` phase merges state
//! columns, and groups are emitted as column batches. Rows exist only at the
//! edges: `Values` input ([`VecSource`]) and the client rowset ([`drain`]).
//!
//! Every operator loop calls [`ControlBlock::check`] and every buffering one
//! [`ControlBlock::reserve`] — an operator that keeps whole input batches
//! through [`LeasedBatches`], the one way to do so. Those two record the
//! limits they enforce as the query's cause of failure, and once the query
//! is over — for that or any other reason — `check` returns
//! [`IcError::Cancelled`], so an operator never has to tell a cause from a
//! symptom: it returns what it got.

use crate::kernels::{gather_join_output, ColGroupTable, ColJoinTable};
use ic_common::eval::{eval_expr, eval_filter_sel};
use ic_common::obs::{AttemptStats, Counter, SpanId, Trace};
use ic_common::row::BATCH_SIZE;
use ic_common::{
    gallop, Column, ColumnBatch, DataType, Expr, IcError, IcResult, KeyWords, MemoryLease, MemoryPool,
    Row, NIL,
};
use ic_plan::ops::{AggCall, AggPhase, JoinKind, SortKey};
use ic_storage::index::chunks_below;
use ic_storage::Chunks;
use std::cmp::Ordering as CmpOrdering;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
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
            batch_batches: reg.counter("exec.batch.batches"),
            batch_rows: reg.counter("exec.batch.rows"),
            batch_phys_rows: reg.counter("exec.batch.phys_rows"),
        }
    }
}

/// Shared per-query control: the *stop cell*, the wall-clock deadline (the
/// paper's runtime limit) and the query's [`MemoryLease`] on the cluster's
/// shared pool. All buffered operator state is accounted through the lease:
/// whole input batches through [`LeasedBatches`], whose only growth method
/// takes the control block, and an aggregate's groups through
/// [`ControlBlock::reserve`].
///
/// The cell is written once: unset while the query runs, then either
/// *finished* ([`ControlBlock::finish`], the root has its answer) or *failed*
/// with the one cause the client will see ([`ControlBlock::fail`]). Whoever
/// decides a failure records it: [`ControlBlock::reserve`] and
/// [`ControlBlock::check`] for the limits they enforce, a thread's top level
/// for whatever else its operators returned, a `join` for a panic. Every
/// thread that only *notices* the stop — `check` once the cell is set, a send
/// that found its link's peer gone — unwinds with the marker
/// [`IcError::Cancelled`], which `fail` refuses to store: whatever order the
/// threads unwind in, a symptom is never the cause.
#[derive(Debug)]
pub struct ControlBlock {
    stop: OnceLock<Option<IcError>>,
    deadline: Option<Instant>,
    limit_ms: u64,
    lease: MemoryLease,
    obs: Option<ExecObs>,
}

impl ControlBlock {
    /// `deadline`/`limit_ms`: when the runtime cap passes, and the cap to
    /// report then. `obs`: the attempt's observability context, when traced.
    pub fn new(
        deadline: Option<Instant>,
        limit_ms: u64,
        lease: MemoryLease,
        obs: Option<ExecObs>,
    ) -> Arc<ControlBlock> {
        Arc::new(ControlBlock { stop: OnceLock::new(), deadline, limit_ms, lease, obs })
    }

    /// Test helper: no deadline, no memory limit, untraced.
    pub fn unlimited() -> Arc<ControlBlock> {
        Self::new(None, 0, MemoryPool::unbounded().lease(u64::MAX), None)
    }

    /// Stop the query with `cause` as its result — unless it is over already
    /// (the first cause stays) or `cause` is only the [`IcError::Cancelled`]
    /// marker. Hands `cause` back for the caller to unwind with.
    pub fn fail(&self, cause: IcError) -> IcError {
        if cause != IcError::Cancelled && self.stop.set(Some(cause.clone())).is_ok() {
            if let Some(o) = &self.obs {
                o.trace.event("exec.stop", "exec", Trace::COORD_LANE, cause.to_string());
            }
        }
        cause
    }

    /// Stop the query without a cause: the root has its answer, and producers
    /// still shipping (a `LIMIT` satisfied early) have nobody to ship to.
    pub fn finish(&self) {
        let _ = self.stop.set(None);
    }

    /// Why the query failed, if it did.
    pub fn cause(&self) -> Option<IcError> {
        self.stop.get().cloned().flatten()
    }

    /// Account for a batch buffered in operator state (cells = rows × width).
    pub fn reserve_batch(&self, batch: &ColumnBatch) -> IcResult<()> {
        self.reserve(batch.cells())
    }

    /// Account for `n` buffered cells against the query's memory lease.
    /// A failed reservation (per-query limit, pool exhaustion, or lease
    /// revocation) fails the whole query.
    pub fn reserve(&self, n: usize) -> IcResult<()> {
        self.lease.reserve(n as u64).map_err(|e| self.fail(e))
    }

    /// Give back `n` cells an operator no longer holds.
    fn release(&self, n: usize) {
        self.lease.release(n as u64);
    }

    /// The cooperative stop point, called in every operator loop (and by an
    /// exchange receiver between waits): a revoked lease or a passed
    /// deadline fails the query here, with that as the cause, and a query
    /// that is over already returns [`IcError::Cancelled`].
    pub fn check(&self) -> IcResult<()> {
        if self.stop.get().is_some() {
            return Err(IcError::Cancelled);
        }
        if self.lease.is_revoked() {
            return Err(self.fail(self.lease.revoked_error()));
        }
        #[expect(clippy::disallowed_methods, reason = "the deadline check reads the wall clock that defines the runtime cap, not a span timestamp")]
        let expired = self.deadline.is_some_and(|d| Instant::now() > d);
        if expired {
            return Err(self.fail(IcError::ExecTimeout { limit_ms: self.limit_ms }));
        }
        Ok(())
    }

    /// The query's memory lease (for telemetry).
    pub fn lease(&self) -> &MemoryLease {
        &self.lease
    }

    /// The query's observability context, if tracing is enabled.
    pub fn obs(&self) -> Option<&ExecObs> {
        self.obs.as_ref()
    }
}

/// Transparent tracing wrapper: times any [`RowSource`] on the trace clock —
/// the only sanctioned time source here (clippy's clock ban) — and reports it
/// under its plan node. Built only when the query is traced, so untraced
/// execution pays nothing.
pub struct TracedSource {
    inner: BoxedSource,
    obs: ExecObs,
    node: u32,
    label: String,
    /// The node's schema types, which every emitted column must have
    /// (checked in debug builds).
    types: Vec<DataType>,
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
        obs: ExecObs,
        node: u32,
        label: String,
        types: Vec<DataType>,
        lane: u32,
        parent: Option<SpanId>,
    ) -> TracedSource {
        obs.attempt.record_instance(node);
        let open_ns = obs.trace.now_ns();
        TracedSource {
            inner,
            obs,
            node,
            label,
            types,
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
        let t0 = self.obs.trace.now_ns();
        let result = self.inner.next_batch();
        let dt = self.obs.trace.now_ns().saturating_sub(t0);
        self.busy_ns += dt;
        let (rows, phys, produced) = match &result {
            Ok(Some(b)) => {
                debug_assert!(
                    fits_schema(&self.types, b),
                    "{} emitted columns of types {:?}, its schema says {:?}",
                    self.label,
                    b.columns().iter().map(|c| c.data_type()).collect::<Vec<_>>(),
                    self.types
                );
                (b.num_rows() as u64, b.phys_rows() as u64, true)
            }
            _ => (0, 0, false),
        };
        self.rows += rows;
        self.phys_rows += phys;
        self.batches += u64::from(produced);
        self.obs.attempt.record_next(self.node, rows, dt, produced);
        result
    }

    /// Forwarded, so a traced run does the same work as an untraced one.
    fn seek(&mut self, cols: &[usize], key: &ColumnBatch, key_cols: &[usize], row: usize) {
        self.inner.seek(cols, key, key_cols, row);
    }
}

/// Does every column of `b` have its schema type? A column without a value
/// (an untyped NULL literal's) fits any.
fn fits_schema(types: &[DataType], b: &ColumnBatch) -> bool {
    b.width() == types.len()
        && b.columns().iter().zip(types).all(|(c, &t)| c.is_all_null() || c.data_type() == t)
}

/// Close: record the operator instance's lifetime span and flush its totals
/// to the global metrics registry.
impl Drop for TracedSource {
    fn drop(&mut self) {
        let o = &self.obs;
        if self.batches > 0 {
            o.batch_batches.add(self.batches);
            o.batch_rows.add(self.rows);
            o.batch_phys_rows.add(self.phys_rows);
        }
        o.trace.record_span(
            self.label.as_str(),
            "operator",
            self.parent,
            self.lane,
            self.open_ns,
            o.trace.now_ns(),
            vec![("node", u64::from(self.node)), ("rows", self.rows), ("batches", self.batches), ("busy_ns", self.busy_ns)],
        );
    }
}

/// A pull-based columnar batch stream.
pub trait RowSource: Send {
    /// The next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>>;

    /// Advice from the consumer: rows whose `cols` sort below the key at
    /// physical row `row` of `key`'s `key_cols` (in `cmp_at` order) are no
    /// longer wanted, so later batches *may* omit them. Targets never move
    /// backwards. A source sorted on a prefix of `cols`' order can skip
    /// stored data; a wrapper that only drops or reorders columns passes the
    /// advice on. The default ignores it — correctness never depends on a
    /// source honouring it.
    fn seek(&mut self, _cols: &[usize], _key: &ColumnBatch, _key_cols: &[usize], _row: usize) {}
}

pub type BoxedSource = Box<dyn RowSource>;

/// Drain a source into a row vector (the final client rowset shim).
pub fn drain(mut src: BoxedSource) -> IcResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(b) = src.next_batch()? {
        out.append(&mut b.to_rows());
    }
    Ok(out)
}

// ----------------------------------------------------------------- sources

/// In-memory source (tests, Values): packs rows by their field types at
/// the boundary, one batch per `BATCH_SIZE` chunk.
pub struct VecSource {
    types: Vec<DataType>,
    rows: Vec<Row>,
    pos: usize,
}

impl VecSource {
    pub fn new(types: Vec<DataType>, rows: Vec<Row>) -> VecSource {
        VecSource { types, rows, pos: 0 }
    }
}

impl RowSource for VecSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(self.rows.len());
        let batch = ColumnBatch::from_typed_rows(&self.types, &self.rows[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }
}

/// Scan over one stored chunk run — a partition snapshot or an index's
/// sorted run — chunk by chunk. Nothing is copied: a stored chunk is emitted
/// by `Arc` clone, and §5.3.2 variant splitting — a splitter reads
/// everything but passes only every `n`-th tuple — as a stride selection
/// vector, which keeps a sorted run sorted. `ControlBlock::check` runs per
/// chunk: the chunk boundary is the revocation point, never mid-kernel.
///
/// Over an index run ([`ScanSource::sorted_on`]) a seek on a prefix of the
/// run's keys skips the stored chunks that end below the target, found by
/// one binary search ([`chunks_below`]); it never slices a chunk. Skipped
/// rows still count towards the tuple counter, so a splitter's stride
/// phase holds.
pub struct ScanSource {
    chunks: Chunks,
    /// The next chunk, and its first row's index in the run.
    chunk: usize,
    abs: usize,
    /// (variant_id, total_variants); `None` passes everything.
    split: Option<(usize, usize)>,
    /// The columns the chunks are sorted on, ascending; empty when a seek
    /// cannot skip anything.
    sorted_on: Vec<usize>,
    /// Rows seeks skipped that this scan would have passed; flushed to
    /// `exec.scan.rows_skipped` on drop.
    skipped: u64,
    ctrl: Arc<ControlBlock>,
}

impl ScanSource {
    /// Scan `chunks` in order.
    pub fn new(chunks: Chunks, split: Option<(usize, usize)>, ctrl: Arc<ControlBlock>) -> ScanSource {
        ScanSource { chunks, chunk: 0, abs: 0, split, sorted_on: Vec::new(), skipped: 0, ctrl }
    }

    /// Declare the chunks sorted on `sort` (an index run's collation): seeks
    /// on a prefix of its ascending keys are honoured.
    pub fn sorted_on(mut self, sort: &[SortKey]) -> ScanSource {
        self.sorted_on = sort.iter().take_while(|k| !k.desc).map(|k| k.col).collect();
        self
    }
}

/// How many of the tuple counter's positions `from..from + rows` a
/// splitter passes (all of them without one).
fn passed(split: Option<(usize, usize)>, from: usize, rows: usize) -> usize {
    match split {
        None => rows,
        // Positions below `x` that are ≡ vid (mod n).
        Some((vid, n)) => {
            let upto = |x: usize| (x + n - 1 - vid) / n;
            upto(from + rows) - upto(from)
        }
    }
}

impl RowSource for ScanSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            let Some(chunk) = self.chunks.get(self.chunk) else { return Ok(None) };
            let (abs, rows) = (self.abs, chunk.num_rows());
            (self.chunk, self.abs) = (self.chunk + 1, abs + rows);
            let Some((vid, n)) = self.split else { return Ok(Some((**chunk).clone())) };
            // Row index in the run ≡ the scan's tuple counter, so the stride
            // runs on across chunk edges.
            let first = (vid + n - abs % n) % n;
            let sel: Vec<u32> = (first..rows).step_by(n).map(|r| r as u32).collect();
            if !sel.is_empty() {
                return Ok(Some(chunk.with_sel(sel)));
            }
        }
    }

    fn seek(&mut self, cols: &[usize], key: &ColumnBatch, key_cols: &[usize], row: usize) {
        if cols.is_empty() || !self.sorted_on.starts_with(cols) {
            return;
        }
        let rest = &self.chunks[self.chunk.min(self.chunks.len())..];
        let skip = chunks_below(rest, cols, key, key_cols, row);
        let rows: usize = rest[..skip].iter().map(|c| c.num_rows()).sum();
        self.skipped += passed(self.split, self.abs, rows) as u64;
        (self.chunk, self.abs) = (self.chunk + skip, self.abs + rows);
    }
}

impl Drop for ScanSource {
    fn drop(&mut self) {
        if self.skipped > 0 {
            let registry = ic_common::obs::MetricsRegistry::global();
            registry.counter("exec.scan.rows_skipped").add(self.skipped);
        }
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
                return Ok(Some(batch.with_sel(sel)));
            }
        }
    }

    fn seek(&mut self, cols: &[usize], key: &ColumnBatch, key_cols: &[usize], row: usize) {
        self.input.seek(cols, key, key_cols, row);
    }
}

/// Projection: every expression evaluates in the input's physical row
/// space, so the output keeps the input's selection — a bare column
/// reference shares the input column's `Arc`, a computed one is written at
/// the selected rows.
pub struct ProjectExec {
    pub input: BoxedSource,
    pub exprs: Vec<Expr>,
    pub ctrl: Arc<ControlBlock>,
}

impl ProjectExec {
    pub fn new(input: BoxedSource, exprs: Vec<Expr>, ctrl: Arc<ControlBlock>) -> ProjectExec {
        ProjectExec { input, exprs, ctrl }
    }
}

impl RowSource for ProjectExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        let Some(batch) = self.input.next_batch()? else { return Ok(None) };
        let out: Vec<Arc<Column>> =
            self.exprs.iter().map(|e| eval_expr(e, &batch)).collect::<IcResult<_>>()?;
        Ok(Some(batch.with_columns(out)))
    }

    /// Forwarded when every key column is a bare column reference, renamed
    /// to the input's columns; ignored otherwise.
    fn seek(&mut self, cols: &[usize], key: &ColumnBatch, key_cols: &[usize], row: usize) {
        let input_cols: Option<Vec<usize>> = cols
            .iter()
            .map(|&c| match self.exprs.get(c) {
                Some(Expr::Col(i)) => Some(*i),
                _ => None,
            })
            .collect();
        if let Some(input_cols) = input_cols {
            self.input.seek(&input_cols, key, key_cols, row);
        }
    }
}

// ----------------------------------------------------------------- joins
//
// One relational operator, three physical implementations (Calcite's
// model): hash, merge and nested-loop join differ only in how they find
// *candidate pairs* — a hash chain walk, a sorted merge, or every left ×
// right combination. Everything after that — residual evaluation, the
// per-`JoinKind` verdict fold, output materialization — is [`JoinEmitter`].

/// Candidate or output pairs of one left batch against the right batches a
/// join holds (a hash join's arena, a merge join's window, a nested-loop
/// join's right side), in left-row order with each row's matches in right
/// order: left logical row, right physical row (`NIL` = null-extended), and
/// the right batch the row lives in.
#[derive(Default)]
struct JoinPairs {
    pks: Vec<u32>,
    bis: Vec<u32>,
    rbs: Vec<u32>,
}

impl JoinPairs {
    /// Pairs whose right rows all live in one batch (a hash join's arena, a
    /// nested-loop join's right side).
    fn in_one_batch(pks: Vec<u32>, bis: Vec<u32>) -> JoinPairs {
        let rbs = vec![0; pks.len()];
        JoinPairs { pks, bis, rbs }
    }

    fn push(&mut self, pk: u32, bi: u32, rb: u32) {
        self.pks.push(pk);
        self.bis.push(bi);
        self.rbs.push(rb);
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

/// Push pairs through [`gather_join_output`] in batch-sized segments,
/// cutting only at probe-row boundaries so one probe row's match run is
/// never split across output batches.
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

/// A join predicate rewritten over just the joined-row columns it reads, so
/// that checking candidates gathers those columns and no others.
struct Residual {
    /// The joined-row columns read, ascending — left columns first.
    cols: Vec<usize>,
    /// The predicate over a row made of `cols`, in that order.
    expr: Expr,
}

/// The output path the three joins share: candidate pairs in, joined
/// batches out.
struct JoinEmitter {
    kind: JoinKind,
    /// The predicate candidates must still pass (`None`: all do) — a hash
    /// or merge join's residual, a nested-loop join's whole `ON`.
    residual: Option<Residual>,
    /// Stand-in right batch for runs made of null-extended pairs only.
    no_right: ColumnBatch,
}

impl JoinEmitter {
    fn new(kind: JoinKind, residual: Expr, right_arity: usize) -> JoinEmitter {
        let residual = (!residual.is_true_literal()).then(|| {
            let cols: Vec<usize> = residual.columns().into_iter().collect();
            let expr = residual.map_cols(&|c| cols.partition_point(|&seen| seen < c));
            Residual { cols, expr }
        });
        JoinEmitter { kind, residual, no_right: ColumnBatch::empty(right_arity) }
    }

    /// Join left batch `lb` given its candidate `pairs` (no `NIL`s) into
    /// `right`: run the residual vectorized over each run's candidates
    /// (gathering only the columns it reads), fold the verdicts per left row
    /// as the join kind demands
    /// — INNER keeps the passing pairs, LEFT null-extends rows left without
    /// one, SEMI/ANTI select the left rows with/without one — and queue the
    /// output.
    fn emit(
        &self,
        lb: &ColumnBatch,
        right: &[ColumnBatch],
        pairs: JoinPairs,
        out: &mut VecDeque<ColumnBatch>,
    ) -> IcResult<()> {
        let n = lb.num_rows();
        let arena = |rb: Option<usize>| rb.map_or(&self.no_right, |a| &right[a]);
        let mut pass = vec![self.residual.is_none(); pairs.pks.len()];
        if let Some(residual) = &self.residual {
            let (left_cols, right_cols) =
                residual.cols.split_at(residual.cols.partition_point(|&c| c < lb.width()));
            let left = lb.project_cols(left_cols);
            let right_cols: Vec<usize> = right_cols.iter().map(|c| c - lb.width()).collect();
            for (range, rb) in pairs.runs() {
                let joined = gather_join_output(
                    &left,
                    &pairs.pks[range.clone()],
                    &arena(rb).project_cols(&right_cols),
                    &pairs.bis[range.clone()],
                );
                for j in eval_filter_sel(&residual.expr, &joined)? {
                    pass[range.start + j as usize] = true;
                }
            }
        }
        let kept = match self.kind {
            JoinKind::Semi | JoinKind::Anti => {
                let want_match = self.kind == JoinKind::Semi;
                let mut keep: Vec<u32> = Vec::new();
                fold_verdicts(n, &pairs.pks, &pass, |k, hit| {
                    if hit.is_some() == want_match && keep.last() != Some(&k) {
                        keep.push(k);
                    }
                });
                if !keep.is_empty() {
                    out.push_back(lb.select_logical(&keep));
                }
                return Ok(());
            }
            JoinKind::Inner if self.residual.is_none() => pairs,
            JoinKind::Inner | JoinKind::Left => {
                let mut kept = JoinPairs::default();
                fold_verdicts(n, &pairs.pks, &pass, |k, hit| match hit {
                    Some(i) => kept.push(k, pairs.bis[i], pairs.rbs[i]),
                    None if self.kind == JoinKind::Left => kept.push(k, NIL, 0),
                    None => {}
                });
                kept
            }
        };
        for (range, rb) in kept.runs() {
            emit_pair_segments(lb, &kept.pks[range.clone()], arena(rb), &kept.bis[range], out);
        }
        Ok(())
    }
}

/// Input batches an operator keeps, each charged to the query's lease as it
/// arrives and given back as it is drained: the one way an operator here
/// buffers its input. The only growth method takes the [`ControlBlock`], so
/// no batch is kept uncharged.
#[derive(Default)]
pub struct LeasedBatches {
    batches: Vec<ColumnBatch>,
}

impl LeasedBatches {
    /// Keep `b`, charging its cells to the query's lease — after the stop
    /// check every operator loop makes. A batch without rows is not kept.
    pub fn push(&mut self, ctrl: &ControlBlock, b: ColumnBatch) -> IcResult<()> {
        ctrl.check()?;
        if b.num_rows() > 0 {
            ctrl.reserve_batch(&b)?;
            self.batches.push(b);
        }
        Ok(())
    }

    /// Drop the first `n` batches, giving their cells back to the lease.
    pub fn drain_front(&mut self, ctrl: &ControlBlock, n: usize) {
        ctrl.release(self.batches.drain(..n).map(|b| b.cells()).sum());
    }

    /// The batches, still charged: the caller holds them from here on.
    pub fn into_vec(self) -> Vec<ColumnBatch> {
        self.batches
    }
}

impl std::ops::Deref for LeasedBatches {
    type Target = [ColumnBatch];
    fn deref(&self) -> &[ColumnBatch] {
        &self.batches
    }
}

/// Pull an input dry, accounting every batch kept against the query lease.
fn buffer_input(src: &mut BoxedSource, ctrl: &ControlBlock) -> IcResult<Vec<ColumnBatch>> {
    let mut batches = LeasedBatches::default();
    while let Some(b) = src.next_batch()? {
        batches.push(ctrl, b)?;
    }
    Ok(batches.into_vec())
}

/// Candidate pairs a nested-loop join generates per step. A step covers
/// whole left rows (at least one), so a row's candidates never straddle two
/// steps; the budget bounds the pair vectors and the gathered candidate
/// batch, and is the interval of the revocation/deadline check.
pub const NLJ_PAIR_BUDGET: usize = 8 * BATCH_SIZE;

/// Nested-loop join: buffers the right side as one dense batch, streams the
/// left. The candidate pairs of a left row are *all* right rows, in right
/// order; the `ON` predicate is the emitter's residual, evaluated
/// vectorized over a budget's worth of candidates at a time. Output keeps
/// left order.
pub struct NestedLoopJoinExec {
    left: BoxedSource,
    right: BoxedSource,
    emitter: JoinEmitter,
    ctrl: Arc<ControlBlock>,
    /// The buffered right side; `None` until the first pull.
    right_batch: Option<ColumnBatch>,
    /// The left batch in progress and its first row not yet joined.
    current: Option<(ColumnBatch, usize)>,
    output: VecDeque<ColumnBatch>,
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
            emitter: JoinEmitter::new(kind, on, right_arity),
            ctrl,
            right_batch: None,
            current: None,
            output: VecDeque::new(),
        }
    }
}

impl RowSource for NestedLoopJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        let right = match &self.right_batch {
            Some(right) => right.clone(),
            None => {
                let batches = buffer_input(&mut self.right, &self.ctrl)?;
                // One dense batch: a step's candidates are then one run,
                // one gather and one residual evaluation, however the
                // right side was cut on arrival.
                let right = if batches.is_empty() {
                    self.emitter.no_right.clone()
                } else {
                    ColumnBatch::concat(&batches)
                };
                self.right_batch.insert(right).clone()
            }
        };
        let per_step = (NLJ_PAIR_BUDGET / right.num_rows().max(1)).max(1);
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let (lb, lo) = match self.current.take() {
                Some(cur) => cur,
                None => match self.left.next_batch()? {
                    Some(lb) => (lb, 0),
                    None => return Ok(None),
                },
            };
            let hi = (lo + per_step).min(lb.num_rows());
            let rows =
                if hi - lo == lb.num_rows() { lb.clone() } else { lb.slice_logical(lo, hi - lo) };
            let mut pks = Vec::with_capacity(rows.num_rows() * right.num_rows());
            let mut bis = Vec::with_capacity(pks.capacity());
            for k in 0..rows.num_rows() as u32 {
                pks.extend(std::iter::repeat_n(k, right.num_rows()));
                match right.selection() {
                    Some(sel) => bis.extend_from_slice(sel),
                    None => bis.extend(0..right.num_rows() as u32),
                }
            }
            let pairs = JoinPairs::in_one_batch(pks, bis);
            self.emitter.emit(&rows, std::slice::from_ref(&right), pairs, &mut self.output)?;
            if hi < lb.num_rows() {
                self.current = Some((lb, hi));
            }
        }
    }
}

/// A hash join's build side: the source the join drains on its first
/// pull, then the table built from it.
enum JoinBuild {
    Source(BoxedSource),
    Table(ColJoinTable),
}

/// Hash join (§5.1.2): builds on the right input, probes with the left —
/// fully columnar on both sides.
///
/// The build side goes into a [`ColJoinTable`], built in one shot once the
/// probe's first pull has drained it: the batches concatenate into one
/// arena whose rows link through a sized bucket directory, so the build
/// never rehashes or clones a key datum. Probes hash the key columns
/// vectorized, walk each chain comparing key words, and
/// produce `(probe row, arena row)` index pairs; output is materialized by
/// [`gather_join_output`] one column at a time (`NIL` pairs drive LEFT
/// null-extension). SEMI/ANTI joins skip materialization entirely — the
/// result is a selection over the probe batch. Chains preserve build
/// insertion order, so a probe row's matches come out in build order.
pub struct HashJoinExec {
    left: BoxedSource,
    /// `Source` until the first pull drains it, `Table` from then on.
    build: JoinBuild,
    emitter: JoinEmitter,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// Output batches for the probe batch being processed (pairs are
    /// segmented at batch-size boundaries without splitting a probe row's
    /// match run).
    output: VecDeque<ColumnBatch>,
    /// Probe rows consumed so far; flushed to `exec.join.probe_rows` once
    /// on drop so the hot loop only bumps a local integer.
    probed: u64,
    ctrl: Arc<ControlBlock>,
}

impl HashJoinExec {
    #[expect(clippy::too_many_arguments, reason = "a join's inputs, keys, residual and control block are all required; a builder would only rename them")]
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
            build: JoinBuild::Source(right),
            emitter: JoinEmitter::new(kind, residual, right_arity),
            left_keys,
            right_keys,
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

/// Probe one batch against the build table, appending output batches.
/// Without a residual the key match *is* the verdict, so the fast paths
/// skip the emitter: SEMI/ANTI never materialize a pair, INNER/LEFT gather
/// the probed pairs as they are.
fn probe_batch(
    table: &ColJoinTable,
    emitter: &JoinEmitter,
    left_keys: &[usize],
    batch: &ColumnBatch,
    out: &mut VecDeque<ColumnBatch>,
) -> IcResult<()> {
    match (emitter.kind, &emitter.residual) {
        (JoinKind::Semi | JoinKind::Anti, None) => {
            let matched = table.probe_matched(batch, left_keys);
            let want = emitter.kind == JoinKind::Semi;
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
            let (pks, bis) = table.probe_pairs(batch, left_keys, emitter.kind == JoinKind::Left);
            emit_pair_segments(batch, &pks, table.arena(), &bis, out);
        }
        (_, Some(_)) => {
            let (pks, bis) = table.probe_pairs(batch, left_keys, false);
            let arena = std::slice::from_ref(table.arena());
            emitter.emit(batch, arena, JoinPairs::in_one_batch(pks, bis), out)?;
        }
    }
    Ok(())
}

impl RowSource for HashJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if let JoinBuild::Source(right) = &mut self.build {
            let arity = self.emitter.no_right.width();
            let batches = buffer_input(right, &self.ctrl)?;
            let table = ColJoinTable::build(self.right_keys.clone(), arity, batches);
            self.build = JoinBuild::Table(table);
        }
        let JoinBuild::Table(table) = &self.build else {
            return Err(IcError::Internal("hash join: hash table missing after build phase".into()));
        };
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some(batch) = self.left.next_batch()? else { return Ok(None) };
            self.probed += batch.num_rows() as u64;
            probe_batch(table, &self.emitter, &self.left_keys, &batch, &mut self.output)?;
        }
    }
}

/// Merge join: inputs sorted ascending on the keys, walked in place with
/// (batch, row) cursors that compare key words ([`KeyOrder`]) — no input
/// row is ever materialized, copied or concatenated. Key matches become
/// candidate pairs for the shared [`JoinEmitter`], one (left batch, right
/// batch) run at a time.
///
/// The left side streams; the right side streams through a *window*: the
/// right batches from the cursor's on, pulled as the cursor (or an
/// equal-key group) walks off its end, and dropped once the output of the
/// left batch that passed them is queued. Each side is told where the other
/// stands ([`RowSource::seek`]), so a sorted source can skip stored chunks
/// that cannot match:
///
/// * before every right pull the right side seeks to the current left key:
///   no join kind emits an unmatched right row;
/// * INNER and SEMI joins seek the left side to the right cursor's key
///   before every left pull, and end once the right side is exhausted.
///   LEFT and ANTI joins emit unmatched left rows, so they read every one.
///
/// Both cursors gallop ([`gallop`]): the right cursor checks a batch's last
/// key once on entering it and passes the batch whole when that sorts below
/// the left key, else gallops to the first row that does not; the left
/// cursor gallops past every left row below the right cursor's key. Both
/// inputs are pulled at least once, right first, before the join ends — the
/// order every instance follows, so no two instances wait on each other's
/// exchanges — and a Sort or hash build below an input drains its exchange
/// on that first pull, so an early end leaves no producer shipping into a
/// dropped link.
pub struct MergeJoinExec {
    left: BoxedSource,
    right: BoxedSource,
    emitter: JoinEmitter,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    ctrl: Arc<ControlBlock>,
    /// INNER or SEMI: only left rows with a match are emitted.
    seeks_left: bool,
    /// The right batches from the cursor's on, each charged to the lease on
    /// arrival and given back once the cursor has passed it.
    window: LeasedBatches,
    /// The key words of each window batch (`None`: keys without words).
    window_words: Vec<Option<KeyWords>>,
    /// The right side has returned `None`.
    right_done: bool,
    /// (window batch, logical row) of the first right row not yet known to
    /// sort before the current left key. Only ever moves forward.
    right_pos: (usize, usize),
    /// The cursor's batch has had its last key checked.
    entered: bool,
    left_pulled: bool,
    output: VecDeque<ColumnBatch>,
}

/// How the logical rows of one right batch compare with those of one left
/// batch: by key words where both batches have comparable ones, else key
/// column by key column ([`ColumnBatch::cmp_keys`], [`Column::eq_at`]).
struct KeyOrder<'a> {
    right: &'a ColumnBatch,
    right_keys: &'a [usize],
    left: &'a ColumnBatch,
    left_keys: &'a [usize],
    /// (right words, left words).
    words: Option<(&'a KeyWords, &'a KeyWords)>,
}

impl<'a> KeyOrder<'a> {
    fn new(
        (right, right_keys, right_words): (&'a ColumnBatch, &'a [usize], Option<&'a KeyWords>),
        (left, left_keys, left_words): (&'a ColumnBatch, &'a [usize], Option<&'a KeyWords>),
    ) -> KeyOrder<'a> {
        let words = right_words.zip(left_words).filter(|(r, l)| r.comparable(l));
        KeyOrder { right, right_keys, left, left_keys, words }
    }

    /// Right row `r` against left row `k` in `cmp_at` order.
    #[inline]
    fn cmp(&self, r: usize, k: usize) -> CmpOrdering {
        match self.words {
            Some((rw, lw)) => rw.cmp_rows(r, lw, k),
            None => self.right.cmp_keys(
                self.right_keys,
                self.right.phys_index(r),
                self.left,
                self.left_keys,
                self.left.phys_index(k),
            ),
        }
    }

    /// Whether right row `r` holds left row `k`'s key, for a left row
    /// without a NULL key: SQL key equality, under which a NaN equals
    /// nothing (a NaN has no words, so the columns decide).
    #[inline]
    fn eq(&self, r: usize, k: usize) -> bool {
        match self.words {
            Some((rw, lw)) => rw.eq_rows(r, lw, k),
            None => {
                let (ri, li) = (self.right.phys_index(r), self.left.phys_index(k));
                let mut keys = self.right_keys.iter().zip(self.left_keys);
                keys.all(|(&rc, &lc)| self.right.col(rc).eq_at(ri, self.left.col(lc), li))
            }
        }
    }
}

impl MergeJoinExec {
    #[expect(clippy::too_many_arguments, reason = "a join's inputs, keys, residual and control block are all required; a builder would only rename them")]
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
            emitter: JoinEmitter::new(kind, residual, right_arity),
            left_keys,
            right_keys,
            ctrl,
            seeks_left: matches!(kind, JoinKind::Inner | JoinKind::Semi),
            window: LeasedBatches::default(),
            window_words: Vec::new(),
            right_done: false,
            right_pos: (0, 0),
            entered: false,
            left_pulled: false,
            output: VecDeque::new(),
        }
    }

    /// Pull the next non-empty right batch into the window, with its key
    /// words — first telling the right side that rows below `target` (a
    /// left batch and physical row) are not wanted. `false` once the right
    /// side is exhausted.
    fn pull_right(&mut self, target: Option<(&ColumnBatch, usize)>) -> IcResult<bool> {
        if self.right_done {
            return Ok(false);
        }
        if let Some((lb, li)) = target {
            self.right.seek(&self.right_keys, lb, &self.left_keys, li);
        }
        while let Some(b) = self.right.next_batch()? {
            let held = self.window.len();
            let words = b.key_words_asc(&self.right_keys);
            self.window.push(&self.ctrl, b)?;
            if self.window.len() > held {
                self.window_words.push(words);
                return Ok(true);
            }
        }
        self.right_done = true;
        Ok(false)
    }

    /// How window batch `b` compares with the left batch `lb` (words `lw`).
    fn order<'a>(&'a self, b: usize, lb: &'a ColumnBatch, lw: Option<&'a KeyWords>) -> Option<KeyOrder<'a>> {
        let right = (self.window.get(b)?, &self.right_keys[..], self.window_words[b].as_ref());
        Some(KeyOrder::new(right, (lb, &self.left_keys, lw)))
    }

    /// Move the right cursor to the first right row whose key does not sort
    /// below logical row `k` of `lb`, pulling the right side as the window
    /// runs out.
    fn advance_right(&mut self, lb: &ColumnBatch, lw: Option<&KeyWords>, k: usize) -> IcResult<()> {
        loop {
            let (b, r) = self.right_pos;
            let Some(order) = self.order(b, lb, lw) else {
                if self.pull_right(Some((lb, lb.phys_index(k))))? {
                    continue;
                }
                return Ok(());
            };
            let n = order.right.num_rows();
            let below = |r: usize| order.cmp(r, k) == CmpOrdering::Less;
            let pass = !self.entered && below(n - 1);
            let r = if pass { n } else { gallop(r, n, below) };
            if r < n {
                (self.right_pos, self.entered) = ((b, r), true);
                return Ok(());
            }
            (self.right_pos, self.entered) = ((b + 1, 0), false);
        }
    }

    /// Candidate pairs of `lb` against the right side, advancing the right
    /// cursor past every key smaller than `lb`'s last. Left rows go by runs
    /// of one key: a run's end is a gallop, its right group is walked once,
    /// and every row of the run takes the group's pairs.
    fn match_batch(&mut self, lb: &ColumnBatch) -> IcResult<JoinPairs> {
        let lw = lb.key_words_asc(&self.left_keys);
        let lw = lw.as_ref();
        // Whether left rows `j` and `k` hold one key.
        let left_keys = self.left_keys.clone();
        let same_left = |j: usize, k: usize| match lw {
            Some(lw) => lw.eq_rows(j, lw, k),
            None => {
                let (i, h) = (lb.phys_index(j), lb.phys_index(k));
                left_keys.iter().all(|&c| lb.col(c).eq_at(i, lb.col(c), h))
            }
        };
        let mut pairs = JoinPairs::default();
        // The current run's right group: (physical row, window batch).
        let mut group: Vec<(u32, u32)> = Vec::new();
        let n = lb.num_rows();
        let mut k = 0;
        while k < n {
            let li = lb.phys_index(k);
            // NULL keys match nothing.
            if !left_keys.iter().all(|&c| lb.col(c).is_valid(li)) {
                k += 1;
                continue;
            }
            self.advance_right(lb, lw, k)?;
            // Past the right side's last row: no later left row matches.
            let Some(order) = self.order(self.right_pos.0, lb, lw) else { break };
            let r = self.right_pos.1;
            if order.cmp(r, k) == CmpOrdering::Greater {
                // Every left row below the cursor's key matches nothing.
                k = gallop(k + 1, n, |j| order.cmp(r, j) == CmpOrdering::Greater);
                continue;
            }
            let run = k..gallop(k + 1, n, |j| same_left(j, k));
            // Walk the equal-key group from the cursor without moving it:
            // the next left batch may carry the same key.
            group.clear();
            let mut at = self.right_pos;
            loop {
                let Some(order) = self.order(at.0, lb, lw) else {
                    if self.pull_right(Some((lb, li)))? {
                        continue;
                    }
                    break;
                };
                let rows = order.right.num_rows();
                let mut r = at.1;
                while r < rows && order.eq(r, k) {
                    group.push((order.right.phys_index(r) as u32, at.0 as u32));
                    r += 1;
                }
                if r < rows {
                    break;
                }
                at = (at.0 + 1, 0);
            }
            for j in run.clone() {
                group.iter().for_each(|&(ri, rb)| pairs.push(j as u32, ri, rb));
            }
            k = run.end;
        }
        Ok(pairs)
    }
}

impl RowSource for MergeJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        // The first pull opens with one right batch, so the right cursor
        // has a key to seek the left side to.
        if !self.left_pulled && self.window.is_empty() {
            self.pull_right(None)?;
        }
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            if self.seeks_left {
                match self.window.get(self.right_pos.0) {
                    Some(rb) => {
                        let ri = rb.phys_index(self.right_pos.1);
                        self.left.seek(&self.left_keys, rb, &self.right_keys, ri);
                    }
                    // Every right row is behind the cursor: nothing left
                    // can match.
                    None if self.right_done && self.left_pulled => return Ok(None),
                    None => {}
                }
            }
            let Some(lb) = self.left.next_batch()? else { return Ok(None) };
            self.left_pulled = true;
            let pairs = self.match_batch(&lb)?;
            self.emitter.emit(&lb, &self.window, pairs, &mut self.output)?;
            // The cursor only moves forward: batches before it are done.
            self.window.drain_front(&self.ctrl, self.right_pos.0);
            self.window_words.drain(..self.right_pos.0);
            self.right_pos.0 = 0;
        }
    }
}

// ------------------------------------------------------------- aggregates

/// Aggregate in any phase (§3.2's map-reduce split) over a
/// [`ColGroupTable`], with one of two slot strategies:
///
/// * **hash** ([`AggExec::hash`]): each input batch is resolved to group
///   slots in one vectorized-hash pass; every group stays open until the
///   input ends, then the table's columns are emitted in batch-sized
///   chunks.
/// * **sorted** ([`AggExec::sorted`], the paper's "sort-based aggregation
///   on an already sorted input", §6.2.1 / Q14): input arrives sorted on
///   the group keys, so a row either continues the newest group or opens
///   the next one. Groups close in input order and are emitted — and
///   forgotten — after every input batch: state is one open group plus
///   one batch's worth of closed ones.
///
/// Either way each aggregate folds its argument column — or, `Final`, its
/// shipped state columns — in one typed loop that skips NULLs, and the
/// output is the table's key and state columns as they are.
pub struct AggExec {
    input: BoxedSource,
    group: Vec<usize>,
    aggs: Vec<AggCall>,
    phase: AggPhase,
    ctrl: Arc<ControlBlock>,
    sorted: bool,
    groups: ColGroupTable,
    slots: Vec<u32>,
    input_done: bool,
    /// Closed groups' output, batch-sized, not yet emitted.
    output: VecDeque<ColumnBatch>,
    /// Groups emitted; flushed to `exec.agg.groups` on drop.
    emitted: u64,
}

impl AggExec {
    /// Hash aggregate: input in any order. `types` are the output field
    /// types: the group keys', then each aggregate's value (or state
    /// columns, in the `Partial` phase).
    pub fn hash(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        types: Vec<DataType>,
        ctrl: Arc<ControlBlock>,
    ) -> AggExec {
        AggExec::new(input, group, aggs, phase, types, ctrl, false)
    }

    /// Streaming aggregate: input sorted on `group`.
    pub fn sorted(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        types: Vec<DataType>,
        ctrl: Arc<ControlBlock>,
    ) -> AggExec {
        AggExec::new(input, group, aggs, phase, types, ctrl, true)
    }

    fn new(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        types: Vec<DataType>,
        ctrl: Arc<ControlBlock>,
        sorted: bool,
    ) -> AggExec {
        let groups = ColGroupTable::new(group.clone(), &aggs, phase, &types);
        AggExec {
            input,
            group,
            aggs,
            phase,
            ctrl,
            sorted,
            groups,
            slots: Vec::new(),
            input_done: false,
            output: VecDeque::new(),
            emitted: 0,
        }
    }

    /// Fold one input batch into the group table.
    fn fold(&mut self, batch: &ColumnBatch) -> IcResult<()> {
        let groups = &mut self.groups;
        let before = groups.len();
        groups.assign_slots(batch, self.sorted, &mut self.slots);
        // `Final` input: the group keys, then each aggregate's state.
        let mut state_at = self.group.len();
        for (j, call) in self.aggs.iter().enumerate() {
            let arg;
            // Every argument column is in the batch's physical row space
            // and folds through its selection.
            let cols: Vec<&Column> = match (self.phase, &call.arg) {
                (AggPhase::Final, _) => {
                    let state = &batch.columns()[state_at..state_at + call.func.state_width()];
                    state_at += state.len();
                    state.iter().map(|c| &**c).collect()
                }
                (_, Some(e)) => {
                    arg = eval_expr(e, batch)?;
                    vec![&*arg]
                }
                (_, None) => vec![],
            };
            groups.fold(j, &cols, batch.selection(), &self.slots)?;
        }
        // A hash table holds every group until the end; the streaming one
        // forgets closed groups batch by batch and holds nothing to charge.
        if !self.sorted {
            let width = self.group.len() + self.aggs.len() * 2 + 1;
            self.ctrl.reserve((groups.len() - before) * width)?;
        }
        Ok(())
    }

    /// Close the first `n` groups: their output waits to be emitted, in
    /// batches gathered from it past one batch (a batch-sized selection
    /// over all of them would make each expression above pay for every
    /// group per batch).
    fn close(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let cols = self.groups.split_front(n).into_iter().map(Arc::new).collect();
        let closed = ColumnBatch::new(cols, n);
        for at in (0..n).step_by(BATCH_SIZE) {
            let part = || closed.slice_logical(at, BATCH_SIZE.min(n - at)).gather();
            self.output.push_back(if n <= BATCH_SIZE { closed.clone() } else { part() });
        }
    }
}

impl Drop for AggExec {
    fn drop(&mut self) {
        if self.emitted > 0 {
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.agg.groups")
                .add(self.emitted);
        }
    }
}

impl RowSource for AggExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if let Some(out) = self.output.pop_front() {
                self.emitted += out.num_rows() as u64;
                return Ok(Some(out));
            }
            if self.input_done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                Some(batch) => {
                    self.fold(&batch)?;
                    // Sorted input closes every group but the newest.
                    if self.sorted {
                        self.close(self.groups.len().saturating_sub(1));
                    }
                }
                None => {
                    self.input_done = true;
                    // Scalar aggregates emit one row even on empty input.
                    if self.group.is_empty() {
                        self.groups.ensure_scalar_group();
                    }
                    self.close(self.groups.len());
                }
            }
        }
    }
}

// ------------------------------------------------------- sort/limit/values

/// Sort: concatenates input batches into one dense batch,
/// computes a sort permutation over the key columns (their key words, or
/// `cmp_at` comparisons for keys without words), and gathers each output
/// batch from the dense batch as it is pulled. A batch-sized selection
/// over the whole input would make every expression above the sort pay
/// for the whole input per batch (`ic_common::eval` computes in the
/// batch's physical row space).
pub struct SortExec {
    pub input: BoxedSource,
    pub keys: Vec<SortKey>,
    pub ctrl: Arc<ControlBlock>,
    done: bool,
    /// The dense input and the permutation's rows not yet emitted.
    sorted: Option<(ColumnBatch, std::vec::IntoIter<u32>)>,
}

impl SortExec {
    pub fn new(input: BoxedSource, keys: Vec<SortKey>, ctrl: Arc<ControlBlock>) -> SortExec {
        SortExec { input, keys, ctrl, done: false, sorted: None }
    }
}

impl RowSource for SortExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if !self.done {
            let batches = buffer_input(&mut self.input, &self.ctrl)?;
            if !batches.is_empty() {
                let dense = ColumnBatch::concat(&batches);
                drop(batches);
                let order = crate::kernels::sort_permutation(&dense, &self.keys);
                self.sorted = Some((dense, order.into_iter()));
            }
            self.done = true;
        }
        let Some((dense, order)) = &mut self.sorted else { return Ok(None) };
        let chunk: Vec<u32> = order.take(BATCH_SIZE).collect();
        if chunk.is_empty() {
            self.sorted = None;
            return Ok(None);
        }
        Ok(Some(dense.with_sel(chunk).gather()))
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
#[expect(clippy::disallowed_methods, reason = "a deadline already passed is an Instant in the past")]
mod tests {
    use super::*;
    use ic_common::Datum;

    fn ctrl() -> Arc<ControlBlock> {
        ControlBlock::unlimited()
    }

    fn rows(vals: &[&[i64]]) -> Vec<Row> {
        vals.iter()
            .map(|r| Row(r.iter().map(|&v| Datum::Int(v)).collect()))
            .collect()
    }

    fn ints(n: usize) -> Vec<DataType> {
        vec![DataType::Int; n]
    }

    /// An Int-typed source of `vals`.
    fn src(vals: &[&[i64]]) -> BoxedSource {
        Box::new(VecSource::new(ints(vals.first().map_or(0, |r| r.len())), rows(vals)))
    }

    /// In debug builds a traced operator checks each batch against its
    /// node's schema: an all-NULL column (an untyped NULL literal's) fits
    /// any type, a column of another type is a bug.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "its schema says [Str]")]
    fn traced_source_rejects_a_batch_of_another_type() {
        let obs = ExecObs::new(Trace::new(), Arc::new(AttemptStats::new(Vec::new())));
        let traced = |vals: Vec<Datum>| {
            let rows = vals.into_iter().map(|d| Row(vec![d])).collect();
            let inner = Box::new(VecSource::new(ints(1), rows));
            TracedSource::new(inner, obs.clone(), 0, "Scan".into(), vec![DataType::Str], 0, None)
        };
        assert!(traced(vec![Datum::Null]).next_batch().unwrap().is_some());
        let _ = traced(vec![Datum::Int(7)]).next_batch();
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
    fn nlj_kinds_keep_left_order() {
        // ON l.c0 < r.c0 (cols: l0 r0 r1): a non-equi predicate no other
        // join can run. Matches come out in left order, right order within.
        let mk = |kind| {
            NestedLoopJoinExec::new(
                src(&[&[3], &[1], &[2]]),
                src(&[&[2, 20], &[3, 30]]),
                kind,
                Expr::binary(ic_common::BinOp::Lt, Expr::col(0), Expr::col(1)),
                2,
                ctrl(),
            )
        };
        assert_eq!(
            drain(Box::new(mk(JoinKind::Inner))).unwrap(),
            rows(&[&[1, 2, 20], &[1, 3, 30], &[2, 3, 30]])
        );
        let left = drain(Box::new(mk(JoinKind::Left))).unwrap();
        assert_eq!(left.len(), 4);
        assert!(left[0].0[1].is_null() && left[0].0[2].is_null()); // 3 null-extended
        assert_eq!(drain(Box::new(mk(JoinKind::Semi))).unwrap(), rows(&[&[1], &[2]]));
        assert_eq!(drain(Box::new(mk(JoinKind::Anti))).unwrap(), rows(&[&[3]]));
    }

    #[test]
    fn nlj_steps_cover_whole_left_rows() {
        // A right side of more than half the pair budget: every step joins
        // exactly one left row, mid-batch.
        let n = NLJ_PAIR_BUDGET as i64 / 2 + 1;
        let right: Vec<Row> = (0..n).map(|i| Row(vec![Datum::Int(i)])).collect();
        let nlj = NestedLoopJoinExec::new(
            src(&[&[0], &[n - 1], &[n]]),
            Box::new(VecSource::new(ints(1), right)),
            JoinKind::Inner,
            Expr::eq(Expr::col(0), Expr::col(1)),
            1,
            ctrl(),
        );
        assert_eq!(drain(Box::new(nlj)).unwrap(), rows(&[&[0, 0], &[n - 1, n - 1]]));
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

    /// A merge join holds only its window of the right side on the lease:
    /// the batches its cursor has passed are given back. Here the window
    /// never holds more than three of the right side's sixteen batches, and
    /// the lease's cap sits between the two.
    #[test]
    fn merge_join_charges_only_its_window() {
        let n = 16 * BATCH_SIZE as i64;
        let left: Vec<Row> = (0..n).map(|k| Row(vec![Datum::Int(k)])).collect();
        let right: Vec<Row> = (0..n).map(|k| Row(vec![Datum::Int(k), Datum::Int(-k)])).collect();
        let window_cells = 3 * 2 * BATCH_SIZE as u64;
        let limit = window_cells + 2 * BATCH_SIZE as u64;
        assert!(limit < 2 * n as u64, "the cap must be below the right side's cells");
        let ctrl = ControlBlock::new(None, 0, MemoryPool::unbounded().lease(limit), None);
        let mj = MergeJoinExec::new(
            Box::new(VecSource::new(ints(1), left)),
            Box::new(VecSource::new(ints(2), right)),
            JoinKind::Inner,
            vec![0],
            vec![0],
            Expr::lit(true),
            2,
            ctrl.clone(),
        );
        let want: Vec<Row> = (0..n).map(|k| Row(vec![Datum::Int(k), Datum::Int(k), Datum::Int(-k)])).collect();
        assert_eq!(drain(Box::new(mj)).unwrap(), want);
        assert!(ctrl.lease().peak_used() <= window_cells, "peak {}", ctrl.lease().peak_used());
    }

    #[test]
    fn hash_agg_complete() {
        use ic_common::agg::AggFunc;
        let agg = AggExec::hash(
            src(&[&[1, 10], &[1, 20], &[2, 5]]),
            vec![0],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }],
            AggPhase::Complete,
            ints(2),
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
        // Two partials over disjoint halves: key, AVG's sum and count, COUNT(*).
        let partial = vec![DataType::Int, DataType::Double, DataType::Int, DataType::Int];
        let p1 = AggExec::hash(
            src(&[&[1, 10], &[2, 8]]),
            vec![0],
            aggs.clone(),
            AggPhase::Partial,
            partial.clone(),
            ctrl(),
        );
        let p2 = AggExec::hash(
            src(&[&[1, 30]]),
            vec![0],
            aggs.clone(),
            AggPhase::Partial,
            partial.clone(),
            ctrl(),
        );
        let mut partial_rows = drain(Box::new(p1)).unwrap();
        partial_rows.extend(drain(Box::new(p2)).unwrap());
        let fin = AggExec::hash(
            Box::new(VecSource::new(partial, partial_rows)),
            vec![0],
            aggs,
            AggPhase::Final,
            vec![DataType::Int, DataType::Double, DataType::Int],
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
        let agg = AggExec::hash(
            src(&[]),
            vec![],
            vec![AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() }],
            AggPhase::Complete,
            ints(1),
            ctrl(),
        );
        assert_eq!(drain(Box::new(agg)).unwrap(), rows(&[&[0]]));
    }

    #[test]
    fn sort_agg_streams_groups() {
        use ic_common::agg::AggFunc;
        let agg = AggExec::sorted(
            src(&[&[1, 10], &[1, 20], &[2, 5], &[3, 1]]),
            vec![0],
            vec![AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "m".into() }],
            AggPhase::Complete,
            ints(2),
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
        let mut scan = ScanSource::new(stored.clone(), None, ctrl());
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
        // Odd chunk sizes: the stride must carry across chunk boundaries.
        let run = chunked(&data, 3);
        let v0 = ScanSource::new(run.clone(), Some((0, 2)), ctrl());
        let v1 = ScanSource::new(run, Some((1, 2)), ctrl());
        let r0 = drain(Box::new(v0)).unwrap();
        let r1 = drain(Box::new(v1)).unwrap();
        assert_eq!(r0, rows(&[&[0], &[2], &[4], &[6], &[8]]));
        assert_eq!(r1, rows(&[&[1], &[3], &[5], &[7], &[9]]));
    }

    #[test]
    fn seek_passes_through_filters_and_bare_projections() {
        // (payload, key) rows sorted on the key, one chunk per two rows.
        let data: Vec<Row> = (0..10i64).map(|k| Row(vec![Datum::Int(-k), Datum::Int(k)])).collect();
        let target = ColumnBatch::from_rows(&rows(&[&[5]]));
        let scan = |ctrl: &Arc<ControlBlock>| -> BoxedSource {
            let scan = ScanSource::new(chunked(&data, 2), None, ctrl.clone());
            let scan = Box::new(scan.sorted_on(&[SortKey::asc(1)]));
            Box::new(FilterExec::new(scan, Expr::lit(true), ctrl.clone()))
        };
        // The key is output column 0 of a bare projection: the scan skips
        // the chunks holding 0..3 and starts at the one holding 4 and 5.
        let c = ctrl();
        let mut p = ProjectExec::new(scan(&c), vec![Expr::col(1), Expr::col(0)], c);
        p.seek(&[0], &target, &[0], 0);
        let first = p.next_batch().unwrap().unwrap().to_rows();
        assert_eq!(first, rows(&[&[4, -4], &[5, -5]]));
        // A computed key column is not the scan's order: nothing skipped.
        let c = ctrl();
        let plus_one = Expr::binary(ic_common::BinOp::Add, Expr::col(1), Expr::lit(1i64));
        let mut p = ProjectExec::new(scan(&c), vec![plus_one, Expr::col(0)], c);
        p.seek(&[0], &target, &[0], 0);
        assert_eq!(p.next_batch().unwrap().unwrap().to_rows(), rows(&[&[1, 0], &[2, -1]]));
        // Neither is a seek on a column the run is not sorted on.
        let c = ctrl();
        let mut s = scan(&c);
        s.seek(&[0], &target, &[0], 0);
        assert_eq!(s.next_batch().unwrap().unwrap().num_rows(), 2);
        assert_eq!(drain(s).unwrap().len(), 8);
    }

    #[test]
    fn timeout_aborts() {
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let ctrl = ControlBlock::new(Some(past), 5, MemoryPool::unbounded().lease(u64::MAX), None);
        let mut s = ScanSource::new(chunked(&rows(&[&[1]]), 1), None, ctrl.clone());
        // Whoever notices the deadline records it; from then on it is a stop
        // like any other.
        assert_eq!(s.next_batch().unwrap_err(), IcError::ExecTimeout { limit_ms: 5 });
        assert_eq!(s.next_batch().unwrap_err(), IcError::Cancelled);
        assert_eq!(ctrl.cause(), Some(IcError::ExecTimeout { limit_ms: 5 }));
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
        let vals: Vec<Datum> = (0..4).map(|k| b.datum_at(0, k)).collect();
        assert_eq!(vals, [2, 3, 4, 5].map(Datum::Int));
    }

    #[test]
    fn limit_slices_across_batches() {
        let many: Vec<Row> = (0..3000i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let l = LimitExec::new(Box::new(VecSource::new(ints(1), many)), Some(10), 1500, ctrl());
        let out = drain(Box::new(l)).unwrap();
        let vals: Vec<i64> = out.iter().map(|r| r.0[0].as_int().unwrap()).collect();
        assert_eq!(vals, (1500..1510).collect::<Vec<i64>>());
    }
}
