//! Query runtime: one [`Execution`] per query attempt, shared by the
//! query's drivers, which run on the caller's thread (the root) and on
//! reused driver-pool threads (every other fragment instance).
//!
//! [`execute_plan`] places the plan once ([`crate::fragment::place`]: the
//! fragments, the exchanges and a per-node table, a node being its pre-order
//! position), opens one simulated-network link per (exchange, consumer
//! instance, consumer variant), and puts that — with the catalog, the
//! surviving-site assignment and the query's control block — into the
//! `Execution`. Nothing about a running query lives anywhere else, and
//! nothing in it is cloned per thread: each driver holds an `Arc` of it.
//!
//! Each fragment instance (fragment × partition × variant) has a *driver*
//! (§3.2.3's one thread per fragment, × §5.3's variants), run by the one
//! [`launch_instance`] — on the calling thread for the root, as a job on the
//! process's driver pool ([`crate::driver_pool`]) for every other instance,
//! so a query starts no thread of its own once the pool is warm. The driver
//! builds the instance's operator chain with [`BuildCtx::build`], the only
//! plan → operator mapping there is, and pushes its output into the instance's
//! [`InstanceSink`] — the staging half of [`ExchangeCore`] coalesces
//! sub-batch outputs per destination — and ends the stream when the chain
//! is drained. An instance of a partitioned fragment reads its one partition
//! and nothing else — a site serving two partitions runs two instances — and
//! a hash exchange addresses its destination instance by partition. Variant
//! fragments are the only intra-site parallelism: each variant instance is
//! one more driver.
//!
//! There is no EOF message ([`Msg`]): a producer instance's final batch on a
//! link carries a `last` flag, and a link with no rows left at the flush gets
//! one bare end marker instead (DESIGN.md *Exchange protocol*).
//!
//! How a query ends is one cell in its [`ControlBlock`]. Every thread records
//! what its operators returned, once, at its top level
//! ([`ControlBlock::fail`]; the limits record themselves in `reserve` and
//! `check`, a driver catches its own panic and records it), the first cause
//! stays, and a thread that only noticed the stop — a `check` after it, a
//! send whose receiver is gone — unwinds with [`IcError::Cancelled`], which
//! the cell does not take. [`execute_plan`] returns the root's rows or the cell's cause, and
//! decides nothing itself. It returns only after every driver has dropped
//! all of its state — operators, batches, lease cells, spans, its share of
//! the `Execution` — and counted down the query's latch, so the memory
//! lease balances and the drivers' workers are idle by the time it does.

use crate::driver_pool::{self, Job, Latch};
use crate::fragment::{place, NodeRef, Placement, Slot};
use crate::operators::*;
use crate::variant::SourceMode;
use ic_common::obs::{AttemptStats, SpanId, Trace};
use ic_common::row::BATCH_SIZE;
use ic_common::{panic_message, ColumnBatch, IcError, IcResult, Row};
use ic_net::{
    net_channel, split_by_partition, Assignment, FailoverError, NetError, NetObs, NetReceiver,
    NetSender, NetStats, Network, SiteId, WireSize,
};
use ic_plan::ops::{PhysOp, PhysPlan};
use ic_plan::Distribution;
use ic_storage::Catalog;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Variant fragments per eligible fragment (§5.3); 1 disables.
    pub variant_fragments: usize,
    /// Wall-clock execution limit (the paper's runtime cap).
    pub timeout: Option<Duration>,
    /// Memory budget per query, in buffered cells (rows × columns) despite
    /// the name (Ignite's resource limit).
    pub memory_limit_rows: u64,
    /// Shared cluster memory pool to lease the query's buffer budget from.
    /// `None` (standalone executor use) accounts against a private
    /// unbounded pool, so only `memory_limit_rows` applies.
    pub pool: Option<Arc<ic_common::MemoryPool>>,
    /// Per-query trace to record spans and per-operator actuals into.
    /// `None` (the default) executes fully uninstrumented.
    pub trace: Option<Arc<Trace>>,
    /// Parent span (e.g. the coordinator's `attempt` span) for everything
    /// this execution records.
    pub trace_parent: Option<SpanId>,
    /// Ignored: nothing reads it. It stays only so that callers which set it
    /// by name keep compiling.
    pub worker_threads: usize,
    /// Ignored: nothing reads it. It stays only so that callers which set it
    /// by name keep compiling.
    pub morsel_rows: usize,
}

/// Exchange backpressure window, in batches: how many messages a link holds
/// in flight or undelivered before its sender blocks (Ignite's window of
/// unacknowledged batches).
const CHANNEL_WINDOW: usize = 16;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            variant_fragments: 1,
            timeout: None,
            memory_limit_rows: 60_000_000,
            pool: None,
            trace: None,
            trace_parent: None,
            worker_threads: 1,
            morsel_rows: 65_536,
        }
    }
}

/// Telemetry for one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    pub fragments: usize,
    pub threads: usize,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub elapsed: Duration,
    /// Time the query spent queued in the admission controller before its
    /// slot was granted. Filled by `Cluster::query`.
    pub queue_wait: Duration,
    /// High-water mark of buffered cells (rows × columns, despite the name)
    /// held by this query's blocking operators and client rowset, as
    /// accounted by its memory lease.
    pub peak_buffered_rows: u64,
}

/// A message on an exchange link. Batches cross the wire in the
/// column-contiguous framing (`ic_net::wire::encode_columns`), whose exact
/// size [`WireSize`] reports — selection vectors are resolved by the frame,
/// so only selected rows are charged to `net.transfer.bytes` — plus one
/// flag byte. A producer instance's final message on a link *is* that
/// link's end-of-stream.
#[derive(Clone)]
pub enum Msg {
    /// Rows; `last` marks the sender's final message on this link.
    Batch { rows: ColumnBatch, last: bool },
    /// Bare end marker: the final message on a link with no rows left for it.
    End,
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Batch { rows, .. } => rows.wire_size() + 1,
            Msg::End => 8,
        }
    }
}

/// Classify a failed send: dead sites and lost exchange messages are
/// *retryable* causes ([`IcError::SiteUnavailable`]) — the coordinator replans
/// against the surviving topology. The rest are symptoms of a stop decided
/// elsewhere: the consumer unwound and dropped its receiver. (A send does not
/// time out.)
fn net_err(dst: SiteId, e: NetError) -> IcError {
    match e {
        NetError::SiteDead(s) => IcError::SiteUnavailable {
            site: s.0,
            detail: format!("{s} crashed during an exchange transfer"),
        },
        NetError::LinkFault => IcError::SiteUnavailable {
            site: dst.0,
            detail: format!("link to {dst} dropped an exchange message"),
        },
        NetError::Disconnected | NetError::Timeout => IcError::Cancelled,
    }
}

/// Classify a failed assignment: no survivable placement exists right now,
/// which the retry loop may still recover from (a transient crash ends) or
/// turn into [`IcError::RetriesExhausted`].
fn failover_err(e: FailoverError) -> IcError {
    match e {
        FailoverError::NoLiveSites { coordinator } => {
            IcError::SiteUnavailable { site: coordinator.0, detail: e.to_string() }
        }
        FailoverError::PartitionLost { primary, .. } => {
            IcError::SiteUnavailable { site: primary.0, detail: e.to_string() }
        }
    }
}

/// Coalescing buffer of one route: rows wait here as selection views over
/// the batches they arrived in.
#[derive(Default)]
struct Stage {
    pending: Vec<ColumnBatch>,
    rows: usize,
}

/// The sending side of one fragment instance's sink, owned by the
/// instance's driver. A dispatch does not wait for the wire: it reserves the
/// site's NIC and enqueues the message, and the receiver waits for it to
/// land.
///
/// Endpoints are grouped into *routes* — the endpoints that receive the
/// very same messages — with one stage each: a hash exchange has a route
/// per destination partition, Single and Broadcast one for all their
/// instances, and a Splitter consumer (each row to exactly one of an
/// instance's variants) multiplies that by its variant count, where a
/// Duplicator's variants share their instance's route. Every endpoint is in
/// exactly one route, so a route's final message is each of its links' final
/// message.
pub struct ExchangeCore {
    to: Distribution,
    assignment: Arc<Assignment>,
    /// Whether rows route by partition: a hash exchange into a partitioned
    /// consumer, whose instance for partition `p` is destination `p`. Any
    /// other exchange has one destination, all its instances.
    by_partition: bool,
    /// Routes per destination — the consumer's variant count under a
    /// splitter, 1 under a duplicator. Route `destination × spread + k` is
    /// variant `k` there.
    spread: usize,
    routes: Vec<Vec<(SiteId, NetSender<Msg>)>>,
    /// Splitter cursor: the variant the next incoming batch goes to
    /// (batch-level round-robin realizes the splitter's arbitrary disjoint
    /// partitioning).
    rr: usize,
    /// One stage per route. The simulated network charges latency per
    /// message, so a route ships when *its* stage holds `BATCH_SIZE` rows,
    /// never a sliver per incoming batch — and a full stage waits for the
    /// next rows behind it (or the flush) before it leaves, so that the
    /// last one out can carry the end-of-stream flag.
    stages: Vec<Stage>,
    /// Traced: (attempt table, this exchange's plan node) credited with
    /// every message the network charged.
    shipped: Option<(Arc<AttemptStats>, u32)>,
}

impl ExchangeCore {
    /// `endpoints`: (consumer instance, consumer variant, sender from this
    /// producer's site to that endpoint), the same variants at every
    /// instance.
    pub fn new(
        to: Distribution,
        assignment: Arc<Assignment>,
        endpoints: Vec<(Slot, usize, NetSender<Msg>)>,
        mode: SourceMode,
        shipped: Option<(Arc<AttemptStats>, u32)>,
    ) -> ExchangeCore {
        let by_partition = matches!(to, Distribution::Hash(_))
            && endpoints.iter().all(|(slot, _, _)| slot.partition.is_some());
        let destinations = if by_partition { assignment.num_partitions() } else { 1 };
        let spread = match mode {
            SourceMode::Splitter => endpoints.iter().map(|(_, v, _)| v + 1).max().unwrap_or(1),
            SourceMode::Duplicator => 1,
        };
        let mut routes = vec![Vec::new(); destinations * spread];
        for (slot, v, tx) in endpoints {
            let dest = slot.partition.filter(|_| by_partition).unwrap_or(0);
            routes[dest * spread + v % spread].push((slot.site, tx));
        }
        let stages = routes.iter().map(|_| Stage::default()).collect();
        ExchangeCore {
            to,
            assignment,
            by_partition,
            spread,
            routes,
            rr: 0,
            stages,
            shipped,
        }
    }

    /// Attach transfer-span recording to every endpoint (traced queries).
    fn set_obs(&mut self, obs: NetObs) {
        for (_, tx) in self.routes.iter_mut().flatten() {
            tx.set_obs(obs.clone());
        }
    }

    /// Stage `batch`'s rows on their routes and ship every route that was
    /// already full when more rows arrived for it.
    pub fn send_batch(&mut self, batch: ColumnBatch) -> IcResult<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        let variant = self.rr;
        self.rr = (variant + 1) % self.spread;
        let pieces: Vec<(usize, ColumnBatch)> = match &self.to {
            Distribution::Hash(keys) if self.by_partition => {
                // Storage's router: one selection view per destination
                // partition, renumbered to its route; rows gather at ship.
                let mut pieces = split_by_partition(&batch, keys, self.assignment.num_partitions());
                pieces.iter_mut().for_each(|(route, _)| *route = *route * self.spread + variant);
                pieces
            }
            Distribution::Random => return Err(IcError::Exec("cannot exchange to random".into())),
            _ => vec![(variant, batch)],
        };
        for (route, piece) in pieces {
            if self.stages[route].rows >= BATCH_SIZE {
                let full = std::mem::take(&mut self.stages[route]);
                let rows = ColumnBatch::concat(&full.pending);
                self.ship(route, Msg::Batch { rows, last: false })?;
            }
            let stage = &mut self.stages[route];
            stage.rows += piece.num_rows();
            stage.pending.push(piece);
        }
        Ok(())
    }

    /// End the stream on every link: each route ships what it still has
    /// staged, flagged as last, or a bare end marker when that is nothing.
    pub fn flush(&mut self) -> IcResult<()> {
        for (route, stage) in std::mem::take(&mut self.stages).into_iter().enumerate() {
            let msg = match stage.rows {
                0 => Msg::End,
                _ => Msg::Batch { rows: ColumnBatch::concat(&stage.pending), last: true },
            };
            self.ship(route, msg)?;
        }
        Ok(())
    }

    /// One message to every endpoint of `route`.
    fn ship(&self, route: usize, msg: Msg) -> IcResult<()> {
        for (site, tx) in &self.routes[route] {
            let charged = tx.send(msg.clone()).map_err(|e| net_err(*site, e))?;
            if let Some((attempt, node)) = self.shipped.as_ref().filter(|_| charged > 0) {
                attempt.record_shipped(*node, charged as u64);
            }
        }
        Ok(())
    }
}

/// Where a fragment instance's output rows go.
pub(crate) enum InstanceSink<'a> {
    /// Non-root instances: into the exchange's coalescing stage.
    Exchange(&'a mut ExchangeCore),
    /// The root instance: straight into the client rowset — buffered state
    /// like any other, so it is leased before it grows. (A runaway result
    /// ends in `MemoryLimit`, not in however many rows fit before the
    /// deadline.)
    Rows(&'a mut Vec<Row>, &'a ControlBlock),
}

impl InstanceSink<'_> {
    pub(crate) fn push(&mut self, batch: ColumnBatch) -> IcResult<()> {
        match self {
            InstanceSink::Exchange(core) => core.send_batch(batch),
            InstanceSink::Rows(rows, ctrl) => {
                ctrl.reserve_batch(&batch)?;
                rows.append(&mut batch.to_rows());
                Ok(())
            }
        }
    }
}

/// The receiving end of an exchange inside a fragment instance — where a
/// query waits for the wire, since a message is handed out only once it has
/// landed. It waits in 50 ms steps and checks the stop cell between them, so
/// a stopped query never waits out a message in flight. A producer whose
/// site goes down fails its next send, and that fault is recorded in the
/// stop cell, so a wait ends by a message or by the cell.
pub(crate) struct ReceiverSource {
    rx: NetReceiver<Msg>,
    /// Producer instances that have not sent their final message yet.
    open_producers: usize,
    ctrl: Arc<ControlBlock>,
}

impl RowSource for ReceiverSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if self.open_producers == 0 {
                return Ok(None);
            }
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Msg::Batch { rows, last }) => {
                    self.open_producers -= last as usize;
                    return Ok(Some(rows));
                }
                Ok(Msg::End) => self.open_producers -= 1,
                Err(NetError::Timeout) => continue,
                // Every sender is gone before its final message: the
                // producers unwound, for a reason of their own.
                Err(_) => return Err(IcError::Cancelled),
            }
        }
    }
}

/// Everything one query execution is, built once by [`execute_plan`] and
/// shared by every thread of the query: each driver holds an `Arc` of it
/// until its instance is done.
pub(crate) struct Execution {
    catalog: Arc<Catalog>,
    /// The surviving-site partition map this query attempt executes under.
    assignment: Arc<Assignment>,
    /// The plan's fragments, exchanges and per-node table.
    placement: Placement,
    /// Per exchange, a sender prototype for every consumer endpoint
    /// (instance, variant), in instance-major order; a producer instance
    /// stamps its own site on its copies.
    senders: Vec<Vec<(Slot, usize, NetSender<Msg>)>>,
    /// Stop cell, deadline, memory lease and (traced) the attempt's
    /// observability context.
    ctrl: Arc<ControlBlock>,
    exec_span: Option<SpanId>,
}

/// What a fragment instance's driver owns: which instance it is, and its
/// exchange receivers.
struct Instance {
    fi: usize,
    slot: Slot,
    vid: usize,
    /// Receiver endpoints by their Exchange plan node, each taken by the
    /// `build` that reaches the node.
    receivers: Vec<(u32, ReceiverSource)>,
}

impl Execution {
    /// How the source at plan node `at` splits across `inst`'s variants:
    /// `None` passes everything.
    fn split_for(&self, inst: &Instance, at: u32) -> Option<(usize, usize)> {
        let variants = self.placement.fragments[inst.fi].variants;
        let splitter = self.placement.nodes[at as usize].mode == SourceMode::Splitter;
        (variants > 1 && splitter).then_some((inst.vid, variants))
    }
}

/// The plan → operator builder of one fragment instance's driver.
struct BuildCtx<'a> {
    ex: &'a Execution,
    /// The driver's trace lane.
    lane: u32,
    /// The fragment-instance span every operator span parents to.
    parent_span: Option<SpanId>,
}

impl BuildCtx<'_> {
    fn build(&self, at: NodeRef, inst: &mut Instance) -> IcResult<BoxedSource> {
        let ex = self.ex;
        let ctrl = ex.ctrl.clone();
        let src: BoxedSource = match &at.plan.op {
            PhysOp::TableScan { table, .. } => {
                let split = ex.split_for(inst, at.id);
                let (_, store) = ex.catalog.scan_store(*table, inst.slot.site, inst.slot.partition)?;
                Box::new(ScanSource::new(store.chunks().clone(), split, ctrl))
            }
            PhysOp::IndexScan { table, index, sort, .. } => {
                let split = ex.split_for(inst, at.id);
                let ix = ex
                    .catalog
                    .index(*index)
                    .ok_or_else(|| IcError::Exec("unknown index".into()))?;
                // The partition's sorted run, as of the very snapshot a table
                // scan would read here (re-sorted on demand when a write
                // moved the partition past the cached run).
                let (p, store) = ex.catalog.scan_store(*table, inst.slot.site, inst.slot.partition)?;
                Box::new(ScanSource::new(ix.run_for(p, &store), split, ctrl).sorted_on(sort))
            }
            PhysOp::Values { schema, rows } => {
                // A splitter passes every n-th tuple, like the scans.
                let rows = match ex.split_for(inst, at.id) {
                    Some((vid, n)) => rows.iter().skip(vid).step_by(n).cloned().collect(),
                    None => rows.clone(),
                };
                Box::new(VecSource::new(schema.types(), rows))
            }
            PhysOp::Filter { input, predicate } => {
                let input = self.build(at.first(input), inst)?;
                Box::new(FilterExec::new(input, predicate.clone(), ctrl))
            }
            PhysOp::Project { input, exprs, .. } => {
                Box::new(ProjectExec::new(self.build(at.first(input), inst)?, exprs.clone(), ctrl))
            }
            PhysOp::NestedLoopJoin { left, right, kind, on } => Box::new(NestedLoopJoinExec::new(
                self.build(at.first(left), inst)?,
                self.build(ex.placement.second(&at, right), inst)?,
                *kind,
                on.clone(),
                right.schema.arity(),
                ctrl,
            )),
            PhysOp::HashJoin { left, right, kind, left_keys, right_keys, residual } => {
                Box::new(HashJoinExec::new(
                    self.build(at.first(left), inst)?,
                    self.build(ex.placement.second(&at, right), inst)?,
                    *kind,
                    left_keys.clone(),
                    right_keys.clone(),
                    residual.clone(),
                    right.schema.arity(),
                    ctrl,
                ))
            }
            PhysOp::MergeJoin { left, right, kind, left_keys, right_keys, residual } => {
                Box::new(MergeJoinExec::new(
                    self.build(at.first(left), inst)?,
                    self.build(ex.placement.second(&at, right), inst)?,
                    *kind,
                    left_keys.clone(),
                    right_keys.clone(),
                    residual.clone(),
                    right.schema.arity(),
                    ctrl,
                ))
            }
            PhysOp::HashAggregate { input, group, aggs, phase } => Box::new(AggExec::hash(
                self.build(at.first(input), inst)?,
                group.clone(),
                aggs.clone(),
                *phase,
                at.plan.schema.types(),
                ctrl,
            )),
            PhysOp::SortAggregate { input, group, aggs, phase } => Box::new(AggExec::sorted(
                self.build(at.first(input), inst)?,
                group.clone(),
                aggs.clone(),
                *phase,
                at.plan.schema.types(),
                ctrl,
            )),
            PhysOp::Sort { input, keys } => {
                Box::new(SortExec::new(self.build(at.first(input), inst)?, keys.clone(), ctrl))
            }
            PhysOp::Limit { input, fetch, offset } => {
                Box::new(LimitExec::new(self.build(at.first(input), inst)?, *fetch, *offset, ctrl))
            }
            PhysOp::Exchange { .. } => {
                let rx = inst.receivers.iter().position(|(node, _)| *node == at.id).ok_or_else(
                    || IcError::Exec(format!("missing receiver for exchange node {}", at.id)),
                )?;
                Box::new(inst.receivers.swap_remove(rx).1)
            }
        };
        // Traced queries wrap every operator in a `TracedSource`, under the
        // node's pre-order position; untraced queries return the bare
        // operator (zero overhead).
        match ex.ctrl.obs() {
            Some(obs) => Ok(Box::new(TracedSource::new(
                src,
                obs.clone(),
                at.id,
                at.plan.label(),
                at.plan.schema.types(),
                self.lane,
                self.parent_span,
            ))),
            _ => Ok(src),
        }
    }
}

/// Run one fragment instance to completion on the calling thread — the
/// coordinator's for the root, a driver pool thread's for every other — and
/// return the rows it produced for the client (none unless it is the root).
fn launch_instance(ex: &Execution, mut inst: Instance) -> IcResult<Vec<Row>> {
    let (fi, slot, vid) = (inst.fi, inst.slot, inst.vid);
    let fragment = &ex.placement.fragments[fi];
    let obs = ex.ctrl.obs();
    // One trace lane + fragment span per instance, declared before the
    // build context so the span closes after every operator (and its span)
    // has been dropped. The root shares the coordinator's lane.
    let (lane, frag_span) = match obs {
        Some(o) => {
            let (lane, name) = match fragment.sink {
                Some(_) => {
                    let name = format!("f{fi} @{slot} v{vid}");
                    (o.trace.lane(name.clone()), name)
                }
                None => (Trace::COORD_LANE, format!("f{fi} @{slot} (root)")),
            };
            let span = o.trace.span(format!("fragment {name}"), "fragment", ex.exec_span, lane);
            (lane, Some(span))
        }
        None => (Trace::COORD_LANE, None),
    };
    let parent_span = frag_span.as_ref().map(|g| g.id());
    // Where the output ships to; `None` for the root instance, whose rows
    // are the client's.
    let mut core = fragment.sink.map(|sink| {
        let exchange = &ex.placement.exchanges[sink];
        let endpoints = ex.senders[sink]
            .iter()
            .map(|(s, v, tx)| (*s, *v, tx.with_src(slot.site)))
            .collect();
        // Traced: the Exchange node is credited with the messages charged.
        let shipped = obs.map(|o| (o.attempt.clone(), exchange.node));
        let (to, asg) = (exchange.to.clone(), ex.assignment.clone());
        let mut core = ExchangeCore::new(to, asg, endpoints, exchange.mode, shipped);
        if let Some(o) = obs {
            core.set_obs(NetObs { trace: o.trace.clone(), lane });
        }
        core
    });
    let mut rows = Vec::new();
    let mut sink = match &mut core {
        Some(core) => InstanceSink::Exchange(core),
        None => InstanceSink::Rows(&mut rows, &ex.ctrl),
    };
    let mut src = BuildCtx { ex, lane, parent_span }.build(fragment.root.clone(), &mut inst)?;
    while let Some(b) = src.next_batch()? {
        sink.push(b)?;
    }
    drop(src);
    if let Some(core) = &mut core {
        core.flush()?;
    }
    Ok(rows)
}

/// Execute an optimized physical plan on the simulated cluster, returning
/// the result rows and execution telemetry.
pub fn execute_plan(
    plan: &Arc<PhysPlan>,
    catalog: &Arc<Catalog>,
    network: &Arc<Network>,
    opts: &ExecOptions,
) -> IcResult<(Vec<Row>, QueryStats)> {
    // Only bound plans execute. Release builds skip the walk: there the
    // evaluator answers the same error when a batch reaches the placeholder.
    if cfg!(debug_assertions) && plan.has_param() {
        return Err(IcError::Internal("plan template with an unbound parameter executed".into()));
    }
    #[expect(clippy::disallowed_methods, reason = "the exec timeout is the paper's wall-clock runtime cap, not simulated time")]
    let start = Instant::now();
    // This execution's own cross-site traffic, whatever else the cluster
    // ships meanwhile; every sender below counts into it.
    let traffic = Arc::new(NetStats::default());
    // Plan placement against the *surviving* topology: sites down at the
    // current tick are excluded and their partitions served by backup
    // owners. Fails retryably when a partition has no live copy.
    let assignment =
        Arc::new(catalog.membership().assignment(&network.down_sites()).map_err(failover_err)?);
    // Placement, once: fragments, exchanges and the per-node table, a node
    // being its pre-order position. A traced run registers that table as
    // this attempt's estimated-vs-actual table, and resolves metric handles
    // once so operator hot paths never touch the registry lock.
    let mut placement = place(plan, &assignment, opts.variant_fragments, opts.trace.is_some());
    let obs = opts.trace.as_ref().map(|trace| {
        let attempt = trace.register_attempt(std::mem::take(&mut placement.metas));
        ExecObs::new(trace.clone(), attempt)
    });
    let mut exec_span = opts
        .trace
        .as_ref()
        .map(|t| t.span("execute", "exec", opts.trace_parent, Trace::COORD_LANE));

    let deadline = opts.timeout.map(|t| start + t);
    let limit_ms = opts.timeout.map(|t| t.as_millis() as u64).unwrap_or(0);
    // Lease the query's buffer budget: from the shared governor pool when
    // one is configured, else from a private unbounded pool (per-query
    // limit only). Each failover attempt gets a fresh lease, so budget is
    // never double-counted across replans.
    let lease = match &opts.pool {
        Some(pool) => pool.lease(opts.memory_limit_rows),
        None => ic_common::MemoryPool::unbounded().lease(opts.memory_limit_rows),
    };
    let ctrl = ControlBlock::new(deadline, limit_ms, lease, obs);

    // One link per (exchange, consumer instance, consumer variant): the receiving
    // end goes to the consumer instance, the sending end is the prototype
    // every producer instance copies. Fragment 0's only instance, the root,
    // comes first.
    let mut senders: Vec<_> = placement.exchanges.iter().map(|_| Vec::new()).collect();
    let mut instances = Vec::new();
    for (fi, fragment) in placement.fragments.iter().enumerate() {
        for &slot in &fragment.slots {
            for vid in 0..fragment.variants {
                let receivers = fragment.inputs.iter().map(|&input| {
                    let exchange = &placement.exchanges[input];
                    let producer = &placement.fragments[exchange.producer];
                    let unstamped = SiteId(usize::MAX);
                    let (tx, rx) =
                        net_channel::<Msg>(network.clone(), unstamped, slot.site, CHANNEL_WINDOW);
                    senders[input].push((slot, vid, tx.with_tally(traffic.clone())));
                    let source = ReceiverSource {
                        rx,
                        open_producers: producer.slots.len() * producer.variants,
                        ctrl: ctrl.clone(),
                    };
                    (exchange.node, source)
                });
                instances.push(Instance { fi, slot, vid, receivers: receivers.collect() });
            }
        }
    }
    let fragments = placement.fragments.len();
    let ex = Arc::new(Execution {
        catalog: catalog.clone(),
        assignment,
        placement,
        senders,
        ctrl,
        exec_span: exec_span.as_ref().map(|g| g.id()),
    });
    let ctrl = &ex.ctrl;

    // --- run the fragment instances ----------------------------------------
    // Every non-root instance is a job on the driver pool; the root fragment
    // runs on this thread.
    let mut instances = instances.into_iter();
    let root = instances
        .next()
        .ok_or_else(|| IcError::Internal("the root fragment has no instance".into()))?;
    let threads = instances.len();
    // Each thread records what its operators returned; the cell keeps the
    // first cause and refuses the `Cancelled` of those who only saw the stop.
    // A driver's panic is a cause too, recorded where it happens — the
    // execution's sender prototypes keep every link open, so a consumer
    // learns of a dead producer only through the cell.
    let jobs = instances.map(|inst| {
        let driver = ex.clone();
        Box::new(move || {
            let (fi, slot, vid) = (inst.fi, inst.slot, inst.vid);
            let run = AssertUnwindSafe(|| launch_instance(&driver, inst));
            let outcome = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
                let panic = panic_message(&*payload);
                Err(IcError::Exec(format!("fragment {fi} at {slot} (variant {vid}) panicked: {panic}")))
            });
            if let Err(e) = outcome {
                driver.ctrl.fail(e);
            }
        }) as Job
    });
    let drivers = Arc::new(Latch::default());
    if let Err(e) = driver_pool::run(jobs.collect(), &drivers) {
        ctrl.fail(e);
    }
    let root_result = launch_instance(&ex, root).map_err(|e| ctrl.fail(e));
    // Stop the drivers either way (a no-op after a failure): the root may
    // have finished without draining its producers (a bare LIMIT satisfied
    // early), whose receivers are gone — stop them instead of letting them
    // grind until a send hits the dead channel.
    ctrl.finish();
    // Return only once every driver has dropped its state — operators,
    // batches, lease cells, spans, its share of the execution — and its
    // worker is idle again for the next query.
    drivers.wait();
    let threads = threads + 1;
    let peak_buffered_rows = ctrl.lease().peak_used();
    if let Some(g) = &mut exec_span {
        g.arg("fragments", fragments as u64);
        g.arg("threads", threads as u64);
        g.arg("peak_buffered_cells", peak_buffered_rows);
    }
    drop(exec_span);
    // The root's answer, or the one cause the cell kept — the root's own
    // error if that came first, what it was stopped for if not.
    let rows = root_result.map_err(|_| {
        ctrl.cause().unwrap_or_else(|| IcError::Internal("query stopped without a cause".into()))
    })?;
    let (net_messages, net_bytes, _) = traffic.snapshot();
    Ok((
        rows,
        QueryStats {
            fragments,
            threads,
            net_messages,
            net_bytes,
            elapsed: start.elapsed(),
            queue_wait: Duration::ZERO,
            peak_buffered_rows,
        },
    ))
}
