//! The plan cache behind [`crate::Cluster`]'s one optimizer call: statement
//! shape (`ic_opt::params::lift`) → the [`Optimized`] template planned for
//! it, validated on every lookup against the catalog's per-table plan
//! generations.
//!
//! One cache per `Cluster`: planner flags are fixed per cluster, and
//! clusters derived with `with_variant` share a catalog but must not share
//! plans. Nothing registers an invalidation hook — an entry remembers the
//! generation of each table it scans, read *before* planning started, and
//! is stale once any has moved
//! ([`ic_storage::Catalog::plan_generation`]). Which sites are alive is not
//! part of an entry: the planner never reads liveness or ownership (only
//! the membership map's partition count, fixed for the cluster's life);
//! `execute_plan` resolves placement against the surviving sites on every
//! execution.

use ic_common::hash::FxHashMap;
use ic_common::obs::{Counter, MetricsRegistry};
use ic_common::sync::Mutex;
use ic_opt::pipeline::Optimized;
use ic_plan::ops::{LogicalPlan, RelOp};
use ic_storage::{Catalog, TableId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most shapes one cluster keeps a template for; the least recently used
/// one goes first. Four times the shapes the paper's workloads submit (20
/// TPC-H + 13 SSB, a few more when two AQL parameters collide) at a few KB
/// per template, and small enough that finding the eviction victim by scan
/// is noise beside the planner run that precedes every insert.
pub(crate) const MAX_SHAPES: usize = 128;

/// What a lookup found; the `cache` arg of the `plan` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// No template for this shape: plan it.
    Miss = 0,
    /// A template planned under the current generations: bind it.
    Hit = 1,
    /// A template some scanned table has outgrown: plan again, replace it.
    Stale = 2,
}

/// Generations of the tables a shape scans, as read at one moment.
type Generations = Vec<(TableId, u64)>;

struct Entry {
    template: Arc<Optimized>,
    generations: Generations,
    last_used: u64,
}

#[derive(Default)]
struct Shapes {
    by_shape: FxHashMap<Arc<LogicalPlan>, Entry>,
    /// Lookup clock for `Entry::last_used`.
    tick: u64,
}

/// One cluster's plan-cache counts ([`crate::Cluster::plan_cache_stats`]);
/// the `opt.plan_cache.*` metrics are these summed over every cluster of
/// the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from a current template.
    pub hits: u64,
    /// Lookups of a shape with no template.
    pub misses: u64,
    /// Lookups that found a template planned under older generations.
    pub stale: u64,
    /// Templates dropped at the bound.
    pub evictions: u64,
    /// Templates held now.
    pub shapes: usize,
}

/// A count kept per cluster and fed to the process-wide registry.
struct Tally {
    here: AtomicU64,
    global: Arc<Counter>,
}

impl Tally {
    fn new(global: Arc<Counter>) -> Tally {
        Tally { here: AtomicU64::new(0), global }
    }

    fn inc(&self) {
        self.here.fetch_add(1, Ordering::Relaxed);
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.here.load(Ordering::Relaxed)
    }
}

pub(crate) struct PlanCache {
    /// A leaf lock: held for one map operation, never across planning or a
    /// catalog call.
    shapes: Mutex<Shapes>,
    hits: Tally,
    misses: Tally,
    stale: Tally,
    evictions: Tally,
}

impl PlanCache {
    pub(crate) fn new() -> PlanCache {
        let reg = MetricsRegistry::global();
        PlanCache {
            shapes: Mutex::new(Shapes::default()),
            hits: Tally::new(reg.counter("opt.plan_cache.hits")),
            misses: Tally::new(reg.counter("opt.plan_cache.misses")),
            stale: Tally::new(reg.counter("opt.plan_cache.stale")),
            evictions: Tally::new(reg.counter("opt.plan_cache.evictions")),
        }
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            stale: self.stale.get(),
            evictions: self.evictions.get(),
            shapes: self.shapes.lock().by_shape.len(),
        }
    }

    /// The template for `shape` if one is stored and still current. The map
    /// compares whole trees (`LogicalPlan: Eq`); the hash only finds the
    /// bucket, so a collision cannot serve another statement's plan.
    pub(crate) fn lookup(
        &self,
        shape: &Arc<LogicalPlan>,
        catalog: &Catalog,
    ) -> (Lookup, Option<Arc<Optimized>>) {
        let found = {
            let mut shapes = self.shapes.lock();
            shapes.tick += 1;
            let tick = shapes.tick;
            shapes.by_shape.get_mut(shape).map(|entry| {
                entry.last_used = tick;
                (Arc::clone(&entry.template), entry.generations.clone())
            })
        };
        match found {
            None => {
                self.misses.inc();
                (Lookup::Miss, None)
            }
            Some((template, generations)) if generations == generations_of(shape, catalog) => {
                self.hits.inc();
                (Lookup::Hit, Some(template))
            }
            Some(_) => {
                self.stale.inc();
                (Lookup::Stale, None)
            }
        }
    }

    /// Keep `template` for `shape`, planned while the tables it scans were
    /// at `generations` (read before planning: a bump that raced the
    /// planner makes the entry stale, not wrong). Replaces the shape's
    /// previous entry; at the bound, evicts the least recently used one.
    pub(crate) fn store(
        &self,
        shape: Arc<LogicalPlan>,
        generations: Generations,
        template: Arc<Optimized>,
    ) {
        let mut shapes = self.shapes.lock();
        shapes.tick += 1;
        let entry = Entry { template, generations, last_used: shapes.tick };
        if shapes.by_shape.len() >= MAX_SHAPES && !shapes.by_shape.contains_key(&shape) {
            let oldest =
                shapes.by_shape.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| Arc::clone(k));
            if let Some(oldest) = oldest {
                shapes.by_shape.remove(&oldest);
                self.evictions.inc();
            }
        }
        shapes.by_shape.insert(shape, entry);
    }
}

/// The current plan generation of every table `shape` scans, in plan order.
pub(crate) fn generations_of(shape: &LogicalPlan, catalog: &Catalog) -> Generations {
    fn walk(node: &LogicalPlan, catalog: &Catalog, out: &mut Generations) {
        if let RelOp::Scan { table, .. } = &node.op {
            out.push((*table, catalog.plan_generation(*table)));
        }
        for child in node.children() {
            walk(child, catalog, out);
        }
    }
    let mut out = Vec::new();
    walk(shape, catalog, &mut out);
    out
}
