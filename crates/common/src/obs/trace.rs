//! The per-query trace: hierarchical spans, instant events, and per-attempt
//! operator aggregates, all timestamped from one monotonic clock.

use crate::sync::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a span within one [`Trace`], allocated in open order.
///
/// Parents are always opened before their children, so `parent.0 < child.0`
/// for every recorded edge — a property the well-formedness checker
/// ([`Trace::validate`]) relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

/// A closed span: one timed interval in the query's execution.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Open-order id, unique within the trace.
    pub id: SpanId,
    /// Enclosing span, if any. Roots (the `query` span) have `None`.
    pub parent: Option<SpanId>,
    /// Human-readable name, e.g. `"HashJoin"` or `"fragment f1"`.
    pub name: String,
    /// Coarse category used for Chrome-trace colouring and filtering:
    /// `"query"`, `"plan"`, `"exec"`, `"fragment"`, `"operator"`, `"net"`.
    pub cat: &'static str,
    /// Lane (Chrome-trace `tid`): one per fragment-instance thread.
    pub lane: u32,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace epoch, nanoseconds.
    pub end_ns: u64,
    /// Attached counters, e.g. `("rows", 1024)`.
    pub args: Vec<(&'static str, u64)>,
}

/// An instant event: something that happened at a point in time
/// (a shed decision, a lease revocation, an injected fault).
#[derive(Debug, Clone)]
pub struct EventRec {
    /// Event name, e.g. `"governor.shed"` or `"net.fault"`.
    pub name: String,
    /// Category, same vocabulary as [`SpanRec::cat`].
    pub cat: &'static str,
    /// Lane the event belongs to.
    pub lane: u32,
    /// Offset from the trace epoch, nanoseconds.
    pub ts_ns: u64,
    /// Free-form detail string (kept out of hot paths).
    pub detail: String,
}

/// Static description of one physical plan node, captured when an execution
/// attempt registers its plan with the trace.
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// Operator label as printed by `plan::explain` (e.g. `"HashJoin"`).
    pub label: String,
    /// Distribution / detail suffix rendered after the label.
    pub detail: String,
    /// Pre-order index of the parent node; `None` for the root.
    pub parent: Option<u32>,
    /// Depth in the plan tree (root = 0); drives indentation.
    pub depth: u32,
    /// Optimizer's row-count estimate for this node.
    pub est_rows: f64,
}

/// Per-node observed totals, accumulated across all parallel instances of
/// the operator (fragments × sites × variants). All counters are atomics
/// bumped at batch granularity — never per row.
#[derive(Debug, Default)]
struct OpAgg {
    rows: AtomicU64,
    batches: AtomicU64,
    busy_ns: AtomicU64,
    shipped_bytes: AtomicU64,
    shipped_msgs: AtomicU64,
    instances: AtomicU64,
}

/// Estimated-vs-actual table for one execution attempt.
///
/// A failover retry re-plans against the surviving sites, so each attempt
/// registers its own `AttemptStats`; `EXPLAIN ANALYZE` renders the last
/// one (the attempt that produced the result).
pub struct AttemptStats {
    ops: Vec<OpMeta>,
    aggs: Vec<OpAgg>,
}

impl fmt::Debug for AttemptStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttemptStats").field("ops", &self.ops.len()).finish()
    }
}

impl AttemptStats {
    /// Build an empty aggregate table over a pre-order enumeration of the
    /// physical plan.
    pub fn new(ops: Vec<OpMeta>) -> AttemptStats {
        let aggs = ops.iter().map(|_| OpAgg::default()).collect();
        AttemptStats { ops, aggs }
    }

    /// The registered plan nodes, in pre-order.
    pub fn ops(&self) -> &[OpMeta] {
        &self.ops
    }

    /// Record one `next_batch` call against node `node`: `rows` rows
    /// emitted (0 at EOF), `busy_ns` spent inside the operator subtree,
    /// `produced` whether a batch came back.
    pub fn record_next(&self, node: u32, rows: u64, busy_ns: u64, produced: bool) {
        if let Some(agg) = self.aggs.get(node as usize) {
            agg.rows.fetch_add(rows, Ordering::Relaxed);
            agg.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            if produced {
                agg.batches.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Credit one cross-site message of `bytes` to node `node` (an
    /// Exchange). Recorded by the sending side for exactly the messages the
    /// network charged, so an attempt's Exchange nodes sum to its
    /// `net_messages` / `net_bytes`.
    pub fn record_shipped(&self, node: u32, bytes: u64) {
        if let Some(agg) = self.aggs.get(node as usize) {
            agg.shipped_bytes.fetch_add(bytes, Ordering::Relaxed);
            agg.shipped_msgs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one runtime instance of node `node` (an operator is
    /// instantiated once per fragment × partition × variant).
    pub fn record_instance(&self, node: u32) {
        if let Some(agg) = self.aggs.get(node as usize) {
            agg.instances.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total rows emitted by node `node` across all instances.
    pub fn rows(&self, node: u32) -> u64 {
        self.aggs.get(node as usize).map_or(0, |a| a.rows.load(Ordering::Relaxed))
    }

    /// Total non-empty batches emitted by node `node`.
    pub fn batches(&self, node: u32) -> u64 {
        self.aggs.get(node as usize).map_or(0, |a| a.batches.load(Ordering::Relaxed))
    }

    /// Total time spent inside node `node`'s subtree (inclusive), ns.
    pub fn busy_ns(&self, node: u32) -> u64 {
        self.aggs.get(node as usize).map_or(0, |a| a.busy_ns.load(Ordering::Relaxed))
    }

    /// Wire bytes charged for node `node`'s cross-site messages.
    pub fn shipped_bytes(&self, node: u32) -> u64 {
        self.aggs.get(node as usize).map_or(0, |a| a.shipped_bytes.load(Ordering::Relaxed))
    }

    /// Cross-site messages sent on behalf of node `node`.
    pub fn shipped_msgs(&self, node: u32) -> u64 {
        self.aggs.get(node as usize).map_or(0, |a| a.shipped_msgs.load(Ordering::Relaxed))
    }

    /// Number of runtime instances of node `node` that were built.
    pub fn instances(&self, node: u32) -> u64 {
        self.aggs.get(node as usize).map_or(0, |a| a.instances.load(Ordering::Relaxed))
    }

    /// Exclusive (self) time of node `node`: inclusive busy time minus the
    /// inclusive busy time of its direct children, clamped at zero.
    ///
    /// Across an Exchange boundary producer and consumer run on different
    /// threads, so a consumer's self-time includes waiting for the wire —
    /// which is exactly the shipping cost the paper attributes there.
    pub fn self_ns(&self, node: u32) -> u64 {
        let mut child_ns = 0u64;
        for (i, op) in self.ops.iter().enumerate() {
            if op.parent == Some(node) {
                child_ns = child_ns.saturating_add(self.busy_ns(i as u32));
            }
        }
        self.busy_ns(node).saturating_sub(child_ns)
    }
}

#[derive(Default)]
struct TraceState {
    spans: Vec<SpanRec>,
    events: Vec<EventRec>,
    lanes: Vec<String>,
    next_span: u32,
    open_spans: u32,
    attempts: Vec<Arc<AttemptStats>>,
}

/// A per-query trace. Cheap to share (`Arc`), safe to record into from
/// every fragment thread; all timestamps are offsets from a single epoch
/// captured at construction, read through [`Trace::now_ns`].
pub struct Trace {
    epoch: Instant,
    state: Mutex<TraceState>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Trace")
            .field("spans", &st.spans.len())
            .field("events", &st.events.len())
            .field("open", &st.open_spans)
            .finish()
    }
}

impl Trace {
    /// Lane 0: the coordinator thread (parse, plan, admission, root
    /// fragment).
    pub const COORD_LANE: u32 = 0;

    /// Start a new trace; the epoch (timestamp zero) is now.
    pub fn new() -> Arc<Trace> {
        #[expect(clippy::disallowed_methods, reason = "this epoch anchor is the single sanctioned wall-clock read that every span timestamp derives from")]
        let epoch = Instant::now();
        Arc::new(Trace {
            epoch,
            state: Mutex::new(TraceState {
                lanes: vec!["coordinator".to_string()],
                ..TraceState::default()
            }),
        })
    }

    /// Nanoseconds since the trace epoch — the clock every span and event
    /// in this trace is keyed to. This is the only sanctioned time source
    /// in traced code paths (clippy's clock ban, `crates/clippy.toml`).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocate a named lane (Chrome-trace `tid`) for a worker thread.
    pub fn lane(&self, name: impl Into<String>) -> u32 {
        let mut st = self.state.lock();
        st.lanes.push(name.into());
        (st.lanes.len() - 1) as u32
    }

    /// Open a span; it closes (and is recorded) when the returned guard
    /// drops. The guard may move across threads.
    pub fn span(
        self: &Arc<Self>,
        name: impl Into<String>,
        cat: &'static str,
        parent: Option<SpanId>,
        lane: u32,
    ) -> SpanGuard {
        let id = {
            let mut st = self.state.lock();
            let id = st.next_span;
            st.next_span += 1;
            st.open_spans += 1;
            SpanId(id)
        };
        SpanGuard {
            trace: Arc::clone(self),
            id,
            parent,
            name: name.into(),
            cat,
            lane,
            start_ns: self.now_ns(),
            args: Vec::new(),
        }
    }

    /// Record an already-timed interval directly (used for per-transfer
    /// network spans where the open/close pairing is a single call site).
    #[expect(clippy::too_many_arguments, reason = "a span record is these fields; callers pass an interval they timed themselves")]
    pub fn record_span(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        parent: Option<SpanId>,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        let mut st = self.state.lock();
        let id = SpanId(st.next_span);
        st.next_span += 1;
        st.spans.push(SpanRec {
            id,
            parent,
            name: name.into(),
            cat,
            lane,
            start_ns,
            end_ns,
            args,
        });
    }

    /// Record an instant event at the current trace time.
    pub fn event(&self, name: impl Into<String>, cat: &'static str, lane: u32, detail: impl Into<String>) {
        let ts_ns = self.now_ns();
        let mut st = self.state.lock();
        st.events.push(EventRec { name: name.into(), cat, lane, ts_ns, detail: detail.into() });
    }

    /// Register the per-operator aggregate table for one execution attempt.
    pub fn register_attempt(&self, ops: Vec<OpMeta>) -> Arc<AttemptStats> {
        let attempt = Arc::new(AttemptStats::new(ops));
        self.state.lock().attempts.push(Arc::clone(&attempt));
        attempt
    }

    /// All registered attempts, in order; the last one produced the result.
    pub fn attempts(&self) -> Vec<Arc<AttemptStats>> {
        self.state.lock().attempts.clone()
    }

    /// Snapshot of all closed spans (open guards are not included).
    pub fn spans(&self) -> Vec<SpanRec> {
        self.state.lock().spans.clone()
    }

    /// Snapshot of all instant events.
    pub fn events(&self) -> Vec<EventRec> {
        self.state.lock().events.clone()
    }

    /// Lane names, indexed by lane id.
    pub fn lanes(&self) -> Vec<String> {
        self.state.lock().lanes.clone()
    }

    /// Number of spans currently open (guards alive). Zero once the query
    /// has fully finished.
    pub fn open_spans(&self) -> u32 {
        self.state.lock().open_spans
    }

    /// Check span-tree well-formedness: every opened span was closed, every
    /// interval is non-negative, every parent exists, and every child
    /// interval nests inside its parent's. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let st = self.state.lock();
        if st.open_spans != 0 {
            return Err(format!("{} spans still open", st.open_spans));
        }
        let mut by_id: Vec<Option<&SpanRec>> = vec![None; st.next_span as usize];
        for s in &st.spans {
            by_id[s.id.0 as usize] = Some(s);
        }
        for s in &st.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {:?} `{}` ends before it starts", s.id, s.name));
            }
            if let Some(pid) = s.parent {
                let p = by_id
                    .get(pid.0 as usize)
                    .copied()
                    .flatten()
                    .ok_or_else(|| format!("span {:?} `{}` has unknown parent {:?}", s.id, s.name, pid))?;
                if pid.0 >= s.id.0 {
                    return Err(format!("span {:?} `{}` opened before its parent {:?}", s.id, s.name, pid));
                }
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {:?} `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                        s.id, s.name, s.start_ns, s.end_ns, p.name, p.start_ns, p.end_ns
                    ));
                }
            }
        }
        Ok(())
    }
}

/// RAII handle for an open span; records the closed [`SpanRec`] on drop.
pub struct SpanGuard {
    trace: Arc<Trace>,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    cat: &'static str,
    lane: u32,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// This span's id, for use as a child's `parent`.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The trace this span records into.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// Open a span nested under this one, on the same lane.
    pub fn child(&self, name: impl Into<String>, cat: &'static str) -> SpanGuard {
        self.trace.span(name, cat, Some(self.id), self.lane)
    }

    /// Attach a named counter to the span (rendered in Chrome-trace args).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        self.args.push((key, value));
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.trace.now_ns();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            lane: self.lane,
            start_ns: self.start_ns,
            end_ns,
            args: std::mem::take(&mut self.args),
        };
        let mut st = self.trace.state.lock();
        st.open_spans = st.open_spans.saturating_sub(1);
        st.spans.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_validate() {
        let t = Trace::new();
        {
            let root = t.span("query", "query", None, Trace::COORD_LANE);
            {
                let mut child = t.span("plan", "plan", Some(root.id()), Trace::COORD_LANE);
                child.arg("rules", 7);
            }
            let lane = t.lane("worker");
            let frag = t.span("fragment f1", "fragment", Some(root.id()), lane);
            drop(frag);
        }
        assert_eq!(t.open_spans(), 0);
        t.validate().expect("well-formed");
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().any(|s| s.name == "plan" && s.args == vec![("rules", 7)]));
    }

    #[test]
    fn validate_catches_open_span() {
        let t = Trace::new();
        let guard = t.span("query", "query", None, 0);
        assert!(t.validate().is_err());
        drop(guard);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn attempt_stats_aggregate() {
        let t = Trace::new();
        let ops = vec![
            OpMeta { label: "Agg".into(), detail: String::new(), parent: None, depth: 0, est_rows: 10.0 },
            OpMeta { label: "Scan".into(), detail: String::new(), parent: Some(0), depth: 1, est_rows: 100.0 },
        ];
        let a = t.register_attempt(ops);
        a.record_instance(0);
        a.record_instance(1);
        a.record_next(1, 100, 2_000, true);
        a.record_next(1, 0, 50, false);
        a.record_next(0, 10, 5_000, true);
        a.record_shipped(1, 800);
        assert_eq!(a.rows(1), 100);
        assert_eq!(a.batches(1), 1);
        assert_eq!((a.shipped_bytes(1), a.shipped_msgs(1)), (800, 1));
        assert_eq!(a.self_ns(0), 5_000 - 2_050);
        assert_eq!(t.attempts().len(), 1);
    }

    #[test]
    fn events_are_timestamped_in_order() {
        let t = Trace::new();
        t.event("governor.shed", "query", 0, "queue full");
        t.event("net.fault", "net", 1, "s1->s2 link drop");
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].ts_ns <= ev[1].ts_ns);
    }
}
