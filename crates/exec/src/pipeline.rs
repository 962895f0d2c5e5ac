//! Pipeline compilation and morsel-parallel fragment execution.
//!
//! A fragment instance's operator chain is split into a *parallel region*
//! — a spine of vectorized operators over a single `TableScan` leaf
//! (filter, project, hash-join probe, partial hash aggregate) — and the
//! order/merge-sensitive sinks above it (sort, limit, final aggregate
//! merge). The region is replicated into lanes, one per pool worker, each
//! pulling morsels from the shared [`MorselSupply`]; the sinks run once on
//! the fragment's driver thread over the lanes' combined output.
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

use crate::kernels::ColJoinTable;
use crate::operators::{drain_join_table, finish_join_table, ControlBlock, RowSource};
use crate::pool::{Latch, LatchGuard, MorselSupply, SitePools, WorkerPool};
use crate::runtime::{node_key, record_first_error, BuildCtx, InstanceCtx, InstanceSink, Sub};
use ic_common::hash::FxHashMap;
use ic_common::{panic_message, ColumnBatch, IcError, IcResult};
use ic_plan::ops::{AggPhase, PhysOp, PhysPlan};
use ic_storage::Chunks;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// The parallel region of a fragment's chain: a spine of lane-replicable
/// operators over one `TableScan` leaf.
struct Region {
    root: Arc<PhysPlan>,
    /// The scan leaf (its table feeds the morsel supply).
    scan: Arc<PhysPlan>,
    /// `HashJoin` spine nodes whose build sides the driver resolves
    /// before the lanes start.
    joins: Vec<Arc<PhysPlan>>,
    /// The sort or splittable `Complete` aggregate directly above `root`,
    /// whose work splits into a lane half and a driver half.
    split: Option<Arc<PhysPlan>>,
}

/// Walk a region spine: only vectorized, lane-replicable operators over
/// exactly one `TableScan` leaf. Build sides of hash joins may be
/// arbitrary subtrees (the driver resolves them), so only the probe spine
/// is constrained. Returns the scan leaf.
fn region_of(node: &Arc<PhysPlan>, joins: &mut Vec<Arc<PhysPlan>>) -> Option<Arc<PhysPlan>> {
    match &node.op {
        PhysOp::TableScan { .. } => Some(node.clone()),
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => region_of(input, joins),
        PhysOp::HashAggregate { input, phase: AggPhase::Partial, aggs, .. }
            if aggs.iter().all(|a| a.func.splittable()) =>
        {
            region_of(input, joins)
        }
        PhysOp::HashJoin { left, .. } => {
            joins.push(node.clone());
            region_of(left, joins)
        }
        _ => None,
    }
}

/// Find the parallel region of a fragment's chain, or `None` when the
/// shape doesn't profit from (or doesn't support) morsel parallelism.
fn compile(root: &Arc<PhysPlan>) -> Option<Region> {
    // Descend through the sinks the driver runs once above the lanes; a
    // blocking aggregate ends the descent (below it lane order is free).
    let (mut node, mut above) = (root, None);
    loop {
        let (input, blocking) = match &node.op {
            PhysOp::Sort { input, .. } | PhysOp::Limit { input, .. } => (input, false),
            PhysOp::HashAggregate { input, phase: AggPhase::Complete, .. } => (input, true),
            _ => break,
        };
        (above, node) = (Some(node), input);
        if blocking {
            break;
        }
    }
    let split = match above.map(|p| &p.op) {
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
    Some(Region { root: node.clone(), scan, joins, split: split.cloned() })
}

/// A region's scan leaf as this instance reads it.
struct Feed {
    scan: usize,
    partitions: Arc<Vec<Chunks>>,
    split: Option<(usize, usize)>,
}

impl Feed {
    fn of(inst: &InstanceCtx<'_>, scan: &Arc<PhysPlan>) -> IcResult<Feed> {
        let PhysOp::TableScan { table, .. } = &scan.op else {
            return Err(IcError::Internal("pipeline: region leaf not a scan".into()));
        };
        Ok(Feed {
            scan: node_key(scan),
            partitions: Arc::new(inst.table_partitions(*table)?),
            split: inst.split_for(inst.vplan.scan_mode(scan)),
        })
    }

    fn morsels(&self, morsel_rows: usize) -> usize {
        let rows: usize = self.partitions.iter().flat_map(|p| p.iter()).map(|c| c.num_rows()).sum();
        rows.div_ceil(morsel_rows.max(64))
    }

    /// Lane count: never more lanes than morsels, never more than workers.
    fn lanes(&self, morsel_rows: usize, threads: usize) -> usize {
        self.morsels(morsel_rows).min(threads)
    }
}

/// Fan the chain under `top` out over `lanes` lanes of the pool and wait
/// at the barrier. Every lane builds the chain through its own copy of
/// `base`, with its share of the morsel supply standing in for the scan
/// leaf. Lanes push their output into `stream` when there is one, else
/// they collect it and the per-lane runs are returned. Fails with the first
/// lane error. The driver polls its control block while waiting, so a
/// revoked/cancelled query converges even when lanes are blocked in
/// backpressured sends (the exchange abort hook unblocks those).
fn run_lanes(
    pool: &WorkerPool,
    lanes: usize,
    base: &BuildCtx,
    top: &Arc<PhysPlan>,
    feed: &Feed,
    morsel_rows: usize,
    stream: Option<&InstanceSink>,
) -> IcResult<Vec<Vec<ColumnBatch>>> {
    let supply = Arc::new(MorselSupply::new(&feed.partitions, morsel_rows, lanes));
    let error = Arc::new(Mutex::named(None, "exec.lane_error"));
    let runs = Arc::new(Mutex::named(vec![Vec::new(); lanes], "exec.lane_runs"));
    let latch = Latch::new(lanes);
    for lane in 0..lanes {
        let mut ctx = base.clone();
        let (partitions, supply, split) = (feed.partitions.clone(), supply.clone(), feed.split);
        ctx.subs.insert(feed.scan, Sub::Morsels { partitions, supply, lane, split });
        let (top, stream, latch) = (top.clone(), stream.cloned(), latch.clone());
        let (error, runs) = (error.clone(), runs.clone());
        pool.submit(Box::new(move |worker_lane| {
            let _guard = LatchGuard(latch);
            ctx.lane = worker_lane;
            let ctrl = ctx.ctrl.clone();
            let body = || -> IcResult<()> {
                let mut src = ctx.build(&top, None)?;
                let mut run: Vec<ColumnBatch> = Vec::new();
                while let Some(b) = src.next_batch()? {
                    match &stream {
                        Some(s) => s.push(b)?,
                        None => {
                            // Collected runs are buffered state: account
                            // them against the query's memory lease
                            // before holding on to them (L006).
                            ctrl.reserve_batch(&b)?;
                            run.push(b);
                        }
                    }
                }
                runs.lock()[lane] = run;
                Ok(())
            };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => record_first_error(&error, &ctrl, e),
                Err(payload) => {
                    let msg = panic_message(&*payload);
                    let e = IcError::Exec(format!("pipeline lane panicked: {msg}"));
                    record_first_error(&error, &ctrl, e);
                }
            }
        }));
    }
    latch.wait(|| {
        if base.ctrl.check().is_err() {
            base.ctrl.cancel();
        }
    });
    if let Some(e) = error.lock().take() {
        return Err(e);
    }
    base.ctrl.check()?;
    let runs = std::mem::take(&mut *runs.lock());
    Ok(runs)
}

/// Resolve the build side of every region hash join into a shared
/// [`ColJoinTable`] before the lanes start, returned as the substitution
/// for its join node. Scan-chain build subtrees are built in parallel:
/// lanes collect partial batch runs, the build barrier fires, and the
/// driver merges the runs into one table. Anything else (receivers, other
/// joins) builds sequentially through the instance's own context — which
/// also keeps every receiver drain on the driver thread.
fn resolve_builds(
    ctx: &mut BuildCtx,
    inst: &mut InstanceCtx<'_>,
    region: &Region,
    pool: &WorkerPool,
    morsel_rows: usize,
) -> IcResult<FxHashMap<usize, Sub>> {
    let mut subs = FxHashMap::default();
    for join in &region.joins {
        let PhysOp::HashJoin { right, right_keys, .. } = &join.op else {
            return Err(IcError::Internal("pipeline: join list holds non-join".into()));
        };
        let arity = right.schema.arity();
        let mut sub_joins = Vec::new();
        let feed = match region_of(right, &mut sub_joins).filter(|_| sub_joins.is_empty()) {
            Some(scan) => Some(Feed::of(inst, &scan)?),
            None => None,
        };
        let lanes = feed.as_ref().map_or(0, |f| f.lanes(morsel_rows, pool.threads()));
        let table = match feed {
            Some(feed) if lanes >= 2 => {
                let runs = run_lanes(pool, lanes, ctx, right, &feed, morsel_rows, None)?;
                let mut table = ColJoinTable::new(right_keys.clone(), arity);
                for b in runs.iter().flatten() {
                    table.insert_batch(b);
                }
                finish_join_table(table)
            }
            _ => {
                let mut src = ctx.build(right, Some(inst))?;
                drain_join_table(&mut src, right_keys.clone(), arity, &ctx.ctrl)?
            }
        };
        subs.insert(node_key(join), Sub::Table(table));
    }
    Ok(subs)
}

/// Run one fragment instance: morsel-parallel below the drain barrier when
/// the plan shape and the input size allow it, and in any case one
/// sequential chain on the driver — over the lanes' runs where there were
/// lanes, over the stored data where not. All output goes through `sink`;
/// ending the exchange streams (`ExchangeCore::flush`) stays with the caller.
pub(crate) fn run_instance(
    ctx: &mut BuildCtx,
    inst: &mut InstanceCtx<'_>,
    root: &Arc<PhysPlan>,
    pools: &SitePools,
    morsel_rows: usize,
    sink: &InstanceSink,
) -> IcResult<()> {
    if let Some(region) = compile(root) {
        let feed = Feed::of(inst, &region.scan)?;
        if feed.morsels(morsel_rows) >= 2 {
            let pool = pools.for_site(inst.site);
            let lanes = feed.lanes(morsel_rows, pool.threads()).max(1);
            // Build barrier, then the scan/probe lanes.
            let mut lane_ctx = ctx.clone();
            lane_ctx.subs = resolve_builds(ctx, inst, &region, &pool, morsel_rows)?;
            let top = region.split.as_ref().unwrap_or(&region.root);
            if Arc::ptr_eq(&region.root, root) {
                run_lanes(&pool, lanes, &lane_ctx, top, &feed, morsel_rows, Some(sink))?;
                return Ok(());
            }
            if let Some(p) = &region.split {
                lane_ctx.subs.insert(node_key(p), Sub::LaneHalf);
                ctx.subs.insert(node_key(p), Sub::DriverHalf);
            }
            // Drain barrier: the rest of the chain runs over the lanes' runs.
            let runs = run_lanes(&pool, lanes, &lane_ctx, top, &feed, morsel_rows, None)?;
            ctx.subs.insert(node_key(&region.root), Sub::Runs(runs));
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
