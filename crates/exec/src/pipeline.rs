//! Pipeline compilation and morsel-parallel fragment execution.
//!
//! A fragment instance's operator chain is split into a *parallel region*
//! — a spine of vectorized operators over a single `TableScan` leaf
//! (filter, project, hash-join probe, partial hash aggregate) — and the
//! order/merge-sensitive sinks above it (sort, limit, final aggregate
//! merge). The region is replicated into lanes — scoped threads of the
//! instance's driver, borrowing the driver's build context and the query's
//! `Execution` — each pulling morsels from the shared [`MorselSupply`]; the
//! sinks run once on the driver over the lanes' combined output.
//!
//! Lanes and driver build their chains with the one plan → operator
//! builder, [`BuildCtx::build`]; this module only decides *what stands in
//! for which plan node* on each side ([`Sub`]) and runs the barriers:
//!
//! * **Hash joins**: build sides are resolved before the lanes start —
//!   scan-chain build subtrees are themselves built in parallel (per-lane
//!   partial batch runs merged into one table under the build barrier) —
//!   and every lane's join probes the shared, read-only table.
//! * **Aggregates**: a splittable `Complete` aggregate directly above the
//!   region runs as its `Partial` half in each lane and its `Final` half
//!   over their state rows on the driver; unsplittable ones (COUNT
//!   DISTINCT) aggregate the lanes' raw output on the driver.
//! * **Sorts**: a sort directly above the region is sorted per lane, and
//!   the driver k-way merges the sorted runs order-preservingly, reading
//!   the lanes' batches in place.
//! * **Nothing above the region**: lanes stream straight into the shared
//!   instance sink — the exchange stage coalesces sub-batch outputs
//!   *across* lanes exactly as the sequential sender coalesces across
//!   batches.
//!
//! Fragments that don't fit this shape (nested-loop and merge joins,
//! streaming aggregates, index scans, receiver-fed spines, a bare LIMIT
//! that profits from sequential early-exit, fewer than two morsels) run
//! as one sequential chain on the driver: the same build with nothing
//! substituted. Receivers never run inside lanes: every exchange consumed
//! by a fragment is drained either on the driver (sequential spine) or
//! before the lanes start (join build sides), so the
//! producer-drains-consumer liveness argument of the thread-per-fragment
//! model carries over unchanged.

use crate::fragment::NodeRef;
use crate::kernels::ColJoinTable;
use crate::operators::{drain_join_table, ControlBlock, RowSource};
use crate::pool::MorselSupply;
use crate::runtime::{BuildCtx, Execution, Instance, InstanceSink, Sub};
use ic_common::hash::FxHashMap;
use ic_common::{panic_message, ColumnBatch, IcError, IcResult};
use ic_plan::ops::{AggPhase, PhysOp};
use ic_storage::Chunks;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// The parallel region of a fragment's chain: a spine of lane-replicable
/// operators over one `TableScan` leaf.
struct Region<'p> {
    root: NodeRef<'p>,
    /// The scan leaf (its table feeds the morsel supply).
    scan: NodeRef<'p>,
    /// `HashJoin` spine nodes whose build sides the driver resolves
    /// before the lanes start.
    joins: Vec<NodeRef<'p>>,
    /// The sort or splittable `Complete` aggregate directly above `root`,
    /// whose work splits into a lane half and a driver half.
    split: Option<NodeRef<'p>>,
}

/// Walk a region spine: only vectorized, lane-replicable operators over
/// exactly one `TableScan` leaf. Build sides of hash joins may be
/// arbitrary subtrees (the driver resolves them), so only the probe spine
/// is constrained. Returns the scan leaf.
fn region_of<'p>(at: NodeRef<'p>, joins: &mut Vec<NodeRef<'p>>) -> Option<NodeRef<'p>> {
    match &at.plan.op {
        PhysOp::TableScan { .. } => Some(at),
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => {
            region_of(at.first(input), joins)
        }
        PhysOp::HashAggregate { input, phase: AggPhase::Partial, aggs, .. }
            if aggs.iter().all(|a| a.func.splittable()) =>
        {
            region_of(at.first(input), joins)
        }
        PhysOp::HashJoin { left, .. } => {
            joins.push(at);
            region_of(at.first(left), joins)
        }
        _ => None,
    }
}

/// Find the parallel region of a fragment's chain, or `None` when the
/// shape doesn't profit from (or doesn't support) morsel parallelism.
fn compile(root: NodeRef<'_>) -> Option<Region<'_>> {
    // Descend through the sinks the driver runs once above the lanes; a
    // blocking aggregate ends the descent (below it lane order is free).
    let (mut node, mut above) = (root, None);
    loop {
        let (input, blocking) = match &node.plan.op {
            PhysOp::Sort { input, .. } | PhysOp::Limit { input, .. } => (input, false),
            PhysOp::HashAggregate { input, phase: AggPhase::Complete, .. } => (input, true),
            _ => break,
        };
        (above, node) = (Some(node), node.first(input));
        if blocking {
            break;
        }
    }
    let split = match above.map(|p| &p.plan.op) {
        // A bare LIMIT directly over the region early-exits sequentially (it
        // stops pulling after `fetch` rows); parallel lanes would scan
        // everything for nothing.
        Some(PhysOp::Limit { .. }) => return None,
        Some(PhysOp::Sort { .. }) => above,
        Some(PhysOp::HashAggregate { aggs, .. }) if aggs.iter().all(|a| a.func.splittable()) => {
            above
        }
        _ => None,
    };
    let mut joins = Vec::new();
    let scan = region_of(node, &mut joins)?;
    Some(Region { root: node, scan, joins, split })
}

/// A region's scan leaf as this instance reads it, cut into morsels.
struct Feed {
    scan: u32,
    partitions: Arc<Vec<Chunks>>,
    /// Cut once: going parallel at all ("at least two morsels") and the lane
    /// count both read what was actually cut.
    supply: Arc<MorselSupply>,
    split: Option<(usize, usize)>,
}

impl Feed {
    fn of(ex: &Execution<'_>, inst: &Instance, scan: NodeRef<'_>) -> IcResult<Feed> {
        let PhysOp::TableScan { table, .. } = &scan.plan.op else {
            return Err(IcError::Internal("pipeline: region leaf not a scan".into()));
        };
        let partitions = ex.table_partitions(inst.site, *table)?;
        let supply = MorselSupply::new(&partitions, ex.morsel_rows, ex.worker_threads);
        Ok(Feed {
            scan: scan.id,
            partitions: Arc::new(partitions),
            supply: Arc::new(supply),
            split: ex.split_for(inst, scan.id),
        })
    }
}

/// How often a driver waiting for its lanes looks at its control block.
const DRIVER_TICK: Duration = Duration::from_millis(10);

/// Fan the chain under `top` out over the feed's lanes — scoped threads of
/// the calling driver, at `site` — and wait for all of them. Every lane
/// builds the chain through its own copy of `base`, with its share of the
/// morsel supply standing in for the scan leaf. Lanes push their output into
/// `stream` when there is one, else they collect it and the per-lane runs
/// are returned. A lane records its own failure in the stop cell — it is a
/// thread of the query like any driver — so which lane's error the region
/// fails with does not matter. The driver ticks its control block while the
/// lanes are out, so a revoked or timed-out query converges even when every
/// lane is blocked in a backpressured send (the consumer unwinding unblocks
/// those).
fn run_lanes(
    base: &BuildCtx<'_>,
    site: ic_net::SiteId,
    top: NodeRef<'_>,
    feed: Feed,
    stream: Option<&InstanceSink<'_>>,
) -> IcResult<Vec<Vec<ColumnBatch>>> {
    let ctrl = &base.ex.ctrl;
    let lanes = feed.supply.lanes();
    base.ex.lane_threads.fetch_add(lanes, Ordering::Relaxed);
    let lane_body = |lane: usize| -> IcResult<Vec<ColumnBatch>> {
        let mut ctx = base.clone();
        if let Some(o) = ctrl.obs() {
            ctx.lane = o.trace.lane(format!("worker @{site} #{lane}"));
        }
        let (partitions, supply) = (feed.partitions.clone(), feed.supply.clone());
        ctx.subs.insert(feed.scan, Sub::Morsels { partitions, supply, split: feed.split });
        let mut src = ctx.build(top, None)?;
        let mut run = Vec::new();
        while let Some(b) = src.next_batch()? {
            match stream {
                Some(s) => s.push(b)?,
                None => {
                    // Collected runs are buffered state: account them
                    // against the query's memory lease before holding on
                    // to them (L006).
                    ctrl.reserve_batch(&b)?;
                    run.push(b);
                }
            }
        }
        Ok(run)
    };
    let mut runs = Ok(vec![Vec::new(); lanes]);
    std::thread::scope(|s| {
        let (done, results) = mpsc::channel();
        let threads: Vec<_> = (0..lanes)
            .map(|lane| {
                let (done, lane_body) = (done.clone(), &lane_body);
                // A lane that panics sends nothing; its `join` below tells.
                s.spawn(move || done.send((lane, lane_body(lane).map_err(|e| ctrl.fail(e)))))
            })
            .collect();
        drop(done);
        loop {
            match results.recv_timeout(DRIVER_TICK) {
                Ok((lane, Ok(run))) => {
                    if let Ok(runs) = &mut runs {
                        runs[lane] = run;
                    }
                }
                // Any lane's error fails the region: the cell has the cause.
                Ok((_, Err(e))) => runs = Err(e),
                // Deadline and revocation are recorded by `check` itself.
                Err(RecvTimeoutError::Timeout) => drop(ctrl.check()),
                // Every lane has reported or died.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for thread in threads {
            if let Err(payload) = thread.join() {
                let msg = panic_message(&*payload);
                ctrl.fail(IcError::Exec(format!("pipeline lane panicked: {msg}")));
            }
        }
    });
    ctrl.check()?;
    runs
}

/// Resolve the build side of every region hash join into a shared
/// [`ColJoinTable`] before the lanes start, returned as the substitution
/// for its join node. Scan-chain build subtrees are built in parallel:
/// lanes collect partial batch runs, the build barrier fires, and the
/// driver builds one table over the runs, lane by lane. Anything else
/// (receivers, other joins) builds sequentially through the instance's own
/// context — which also keeps every receiver drain on the driver thread.
fn resolve_builds(
    ctx: &mut BuildCtx<'_>,
    inst: &mut Instance,
    region: &Region<'_>,
) -> IcResult<FxHashMap<u32, Sub>> {
    let mut subs = FxHashMap::default();
    for &join in &region.joins {
        let PhysOp::HashJoin { right, right_keys, .. } = &join.plan.op else {
            return Err(IcError::Internal("pipeline: join list holds non-join".into()));
        };
        let right = ctx.ex.placement.second(join, right);
        let arity = right.plan.schema.arity();
        let mut sub_joins = Vec::new();
        let feed = match region_of(right, &mut sub_joins).filter(|_| sub_joins.is_empty()) {
            Some(scan) => Some(Feed::of(ctx.ex, inst, scan)?),
            None => None,
        };
        let table = match feed {
            Some(feed) if feed.supply.lanes() >= 2 => {
                let runs = run_lanes(ctx, inst.site, right, feed, None)?;
                let batches = runs.into_iter().flatten().collect();
                Arc::new(ColJoinTable::build(right_keys.clone(), arity, batches))
            }
            _ => {
                let mut src = ctx.build(right, Some(inst))?;
                drain_join_table(&mut src, right_keys.clone(), arity, &ctx.ex.ctrl)?
            }
        };
        subs.insert(join.id, Sub::Table(table));
    }
    Ok(subs)
}

/// Run one fragment instance: morsel-parallel below the drain barrier when
/// the plan shape and the input size allow it, and in any case one
/// sequential chain on the driver — over the lanes' runs where there were
/// lanes, over the stored data where not. All output goes through `sink`;
/// ending the exchange streams (`ExchangeCore::flush`) stays with the caller.
pub(crate) fn run_instance(
    ctx: &mut BuildCtx<'_>,
    inst: &mut Instance,
    root: NodeRef<'_>,
    sink: &InstanceSink<'_>,
) -> IcResult<()> {
    if let Some(region) = compile(root) {
        let feed = Feed::of(ctx.ex, inst, region.scan)?;
        if feed.supply.total() >= 2 {
            // Build barrier, then the scan/probe lanes.
            let mut lane_ctx = ctx.clone();
            lane_ctx.subs = resolve_builds(ctx, inst, &region)?;
            let top = region.split.unwrap_or(region.root);
            if region.root.id == root.id {
                run_lanes(&lane_ctx, inst.site, top, feed, Some(sink))?;
                return Ok(());
            }
            if let Some(p) = region.split {
                lane_ctx.subs.insert(p.id, Sub::LaneHalf);
                ctx.subs.insert(p.id, Sub::DriverHalf);
            }
            // Drain barrier: the rest of the chain runs over the lanes' runs.
            let runs = run_lanes(&lane_ctx, inst.site, top, feed, None)?;
            ctx.subs.insert(region.root.id, Sub::Runs(runs));
        }
    }
    let mut src = ctx.build(root, Some(inst))?;
    while let Some(b) = src.next_batch()? {
        sink.push(b)?;
    }
    Ok(())
}

/// Replays the lanes' collected batch runs to the driver's chain.
pub(crate) struct RunsSource {
    batches: VecDeque<ColumnBatch>,
    ctrl: Arc<ControlBlock>,
}

impl RunsSource {
    pub(crate) fn new(runs: Vec<Vec<ColumnBatch>>, ctrl: Arc<ControlBlock>) -> RunsSource {
        RunsSource { batches: runs.into_iter().flatten().collect(), ctrl }
    }
}

impl RowSource for RunsSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        Ok(self.batches.pop_front())
    }
}
