//! Cluster-wide resource governor: admission control + shared memory pool.
//!
//! Every `Cluster::query` call passes through [`Governor::admit`] before
//! planning. The governor holds two levers:
//!
//! * **Admission control** — at most `max_concurrent` queries execute at
//!   once, with per-client *fair-share* slots (`max_concurrent / active
//!   clients`, floor 1) so one chatty client cannot starve the rest. A
//!   query that cannot run immediately waits in a bounded queue; when the
//!   queue is full, or the query's deadline already cannot be met at the
//!   current service rate, it is *shed* immediately with the typed,
//!   client-retryable [`IcError::Overloaded`] instead of thrashing the
//!   cluster — the graceful version of the paper's §5.4 throughput
//!   collapse under 128 AQL terminals.
//!
//! * **Memory governance** — admitted queries draw buffered-operator
//!   memory from one shared [`MemoryPool`] via per-query
//!   [`ic_common::MemoryLease`]s; under pressure the pool revokes the
//!   largest lease (see `ic_common::lease` for the protocol), surfacing
//!   [`IcError::ResourcesRevoked`].
//!
//! Telemetry is exposed as a [`GovernorStats`] snapshot: admission
//! counters, pool peaks, and a queue-wait histogram.

use ic_common::hash::FxHashMap;
use ic_common::sync::{Condvar, Mutex};
use ic_common::{IcError, IcResult, MemoryPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Governor sizing knobs.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Shared buffered-cell budget for all concurrently running queries.
    /// Defaults to 4× the default per-query limit, so a handful of heavy
    /// queries can coexist before revocation kicks in.
    pub pool_budget_cells: u64,
    /// Maximum queries executing simultaneously (admission slots).
    pub max_concurrent: usize,
    /// Maximum queries waiting for a slot; beyond this, shed.
    pub max_queue: usize,
    /// How long a starved lease waits for freed pool budget before
    /// self-revoking (passed through to the [`MemoryPool`]).
    pub grant_timeout: Duration,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            pool_budget_cells: 240_000_000,
            max_concurrent: 16,
            max_queue: 64,
            grant_timeout: Duration::from_millis(500),
        }
    }
}

impl GovernorConfig {
    /// Generous limits for unit tests: admission never interferes unless a
    /// test opts into tighter settings.
    pub fn test_default() -> GovernorConfig {
        GovernorConfig { grant_timeout: Duration::from_millis(200), ..GovernorConfig::default() }
    }
}

/// Queue-wait histogram bucket upper bounds, in milliseconds; the final
/// bucket is unbounded.
pub const QUEUE_WAIT_BUCKETS_MS: [u64; 5] = [1, 4, 16, 64, 256];

/// Mutable admission state, guarded by the governor's mutex.
#[derive(Debug, Default)]
struct AdmitState {
    running: usize,
    running_per_client: FxHashMap<u64, usize>,
    queued: usize,
    queued_per_client: FxHashMap<u64, usize>,
    /// Exponentially-weighted mean service time (µs) of completed queries;
    /// drives the deadline-feasibility check and `retry_after_ms` hints.
    ewma_service_us: u64,
    peak_running: usize,
}

/// The cluster's resource governor. Shared (`Arc`) between the cluster
/// facade and its `with_variant` clones so all variants contend for the
/// same slots and pool, like sessions on one Ignite cluster.
#[derive(Debug)]
pub struct Governor {
    cfg: GovernorConfig,
    pool: Arc<MemoryPool>,
    state: Mutex<AdmitState>,
    slot_freed: Condvar,
    admitted: AtomicU64,
    queued_total: AtomicU64,
    shed: AtomicU64,
    queue_wait_hist: [AtomicU64; 6],
    /// Global metric handles (`core.admission.*`), resolved once at
    /// construction so admit/shed paths never take the registry lock.
    m_admitted: Arc<ic_common::obs::Counter>,
    m_shed: Arc<ic_common::obs::Counter>,
    m_queue_wait_us: Arc<ic_common::obs::Histogram>,
}

impl Governor {
    /// Build a governor (admission state + shared memory pool) from its
    /// sizing knobs.
    pub fn new(cfg: GovernorConfig) -> Arc<Governor> {
        let pool = MemoryPool::with_grant_timeout(cfg.pool_budget_cells, cfg.grant_timeout);
        let reg = ic_common::obs::MetricsRegistry::global();
        Arc::new(Governor {
            cfg,
            pool,
            state: Mutex::new(AdmitState::default()),
            slot_freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            queued_total: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_wait_hist: Default::default(),
            m_admitted: reg.counter("core.admission.admitted"),
            m_shed: reg.counter("core.admission.shed"),
            m_queue_wait_us: reg.histogram("core.admission.queue_wait_us"),
        })
    }

    /// The shared memory pool queries lease their buffer budget from.
    pub fn pool(&self) -> &Arc<MemoryPool> {
        &self.pool
    }

    /// The sizing knobs this governor was built with.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Request an execution slot for `client`. Blocks in the bounded wait
    /// queue when the cluster is busy; sheds with [`IcError::Overloaded`]
    /// when the queue is full, the deadline is already unmeetable at the
    /// observed service rate, or the deadline passes while queued.
    ///
    /// The returned [`Admission`] guard holds the slot until dropped —
    /// `Cluster::query` holds it across its whole failover-retry loop, so
    /// replans never double-count admission (or, per-attempt, pool) budget.
    pub fn admit(self: &Arc<Self>, client: u64, deadline: Option<Instant>) -> IcResult<Admission> {
        let arrive = Instant::now();
        let mut st = self.state.lock();
        let mut queued = false;
        loop {
            let mine = st.running_per_client.get(&client).copied().unwrap_or(0);
            if st.running < self.cfg.max_concurrent && mine < self.fair_share(&st, client) {
                if queued {
                    st.queued -= 1;
                    dec(&mut st.queued_per_client, client);
                }
                st.running += 1;
                *st.running_per_client.entry(client).or_insert(0) += 1;
                st.peak_running = st.peak_running.max(st.running);
                drop(st);
                // Immediate grants report zero; lock-acquisition noise is
                // not queueing.
                let queue_wait = if queued { arrive.elapsed() } else { Duration::ZERO };
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.m_admitted.inc();
                if queued {
                    self.record_queue_wait(queue_wait);
                }
                return Ok(Admission {
                    gov: Arc::clone(self),
                    client,
                    queue_wait,
                    started: Instant::now(),
                });
            }
            if !queued {
                if st.queued >= self.cfg.max_queue {
                    let hint = self.retry_after_ms(&st);
                    drop(st);
                    self.note_shed(None);
                    return Err(IcError::Overloaded { retry_after_ms: hint });
                }
                if let Some(d) = deadline {
                    if arrive + self.projected_wait(&st) > d {
                        let hint = self.retry_after_ms(&st);
                        drop(st);
                        self.note_shed(None);
                        return Err(IcError::Overloaded { retry_after_ms: hint });
                    }
                }
                st.queued += 1;
                *st.queued_per_client.entry(client).or_insert(0) += 1;
                queued = true;
                self.queued_total.fetch_add(1, Ordering::Relaxed);
            } else if deadline.is_some_and(|d| Instant::now() > d) {
                st.queued -= 1;
                dec(&mut st.queued_per_client, client);
                let hint = self.retry_after_ms(&st);
                drop(st);
                // A shed-after-queueing query *did* wait; its wasted wait
                // belongs in the histogram just like an admitted query's.
                self.note_shed(Some(arrive.elapsed()));
                return Err(IcError::Overloaded { retry_after_ms: hint });
            }
            st = self.slot_freed.wait_timeout(st, Duration::from_millis(5));
        }
    }

    /// This client's slot cap: an equal split of the admission slots over
    /// the clients currently running or waiting (floor 1).
    fn fair_share(&self, st: &AdmitState, client: u64) -> usize {
        let mut active = st.running_per_client.len();
        for other in st.queued_per_client.keys() {
            if !st.running_per_client.contains_key(other) {
                active += 1;
            }
        }
        if !st.running_per_client.contains_key(&client)
            && !st.queued_per_client.contains_key(&client)
        {
            active += 1;
        }
        (self.cfg.max_concurrent / active.max(1)).max(1)
    }

    /// Rough time until a newly queued query would get a slot, from the
    /// observed mean service time. Zero until any query has completed.
    fn projected_wait(&self, st: &AdmitState) -> Duration {
        if st.ewma_service_us == 0 {
            return Duration::ZERO;
        }
        let waves = (st.queued as u64 + 1).div_ceil(self.cfg.max_concurrent as u64);
        Duration::from_micros(st.ewma_service_us.saturating_mul(waves))
    }

    fn retry_after_ms(&self, st: &AdmitState) -> u64 {
        (self.projected_wait(st).as_millis() as u64).max(1)
    }

    fn record_queue_wait(&self, wait: Duration) {
        let ms = wait.as_millis() as u64;
        let idx = QUEUE_WAIT_BUCKETS_MS
            .iter()
            .position(|&b| ms < b)
            .unwrap_or(QUEUE_WAIT_BUCKETS_MS.len());
        self.queue_wait_hist[idx].fetch_add(1, Ordering::Relaxed);
        self.m_queue_wait_us.record(wait.as_micros() as u64);
    }

    /// Count one shed in the local counter and the global metric; a query
    /// shed *after* queueing also contributes its (wasted) queue wait.
    fn note_shed(&self, queued_wait: Option<Duration>) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.m_shed.inc();
        if let Some(wait) = queued_wait {
            self.record_queue_wait(wait);
        }
    }

    fn release(&self, client: u64, service: Duration) {
        let mut st = self.state.lock();
        st.running = st.running.saturating_sub(1);
        dec(&mut st.running_per_client, client);
        let us = (service.as_micros() as u64).max(1);
        st.ewma_service_us =
            if st.ewma_service_us == 0 { us } else { (3 * st.ewma_service_us + us) / 4 };
        drop(st);
        self.slot_freed.notify_all();
    }

    /// A point-in-time telemetry snapshot.
    pub fn stats(&self) -> GovernorStats {
        let (peak_concurrent, ewma_service_us) = {
            let st = self.state.lock();
            (st.peak_running, st.ewma_service_us)
        };
        let mut queue_wait_hist = [0u64; 6];
        for (slot, counter) in queue_wait_hist.iter_mut().zip(&self.queue_wait_hist) {
            *slot = counter.load(Ordering::Relaxed);
        }
        GovernorStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued_total.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            revoked: self.pool.revocations(),
            pool_capacity: self.pool.capacity(),
            pool_in_use: self.pool.in_use(),
            peak_pool_used: self.pool.peak_used(),
            peak_concurrent,
            ewma_service_us,
            queue_wait_hist,
        }
    }
}

/// Decrement a per-client counter, removing the entry at zero so
/// fair-share `len()` counts only active clients.
fn dec(map: &mut FxHashMap<u64, usize>, client: u64) {
    if let Some(n) = map.get_mut(&client) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            map.remove(&client);
        }
    }
}

/// An admission slot, held for the query's whole lifetime (including
/// failover replans). Dropping it frees the slot, feeds the service-time
/// EWMA, and wakes queued waiters.
#[derive(Debug)]
pub struct Admission {
    gov: Arc<Governor>,
    client: u64,
    queue_wait: Duration,
    started: Instant,
}

impl Admission {
    /// How long this query waited in the admission queue.
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// The client id this slot was granted to.
    pub fn client(&self) -> u64 {
        self.client
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.gov.release(self.client, self.started.elapsed());
    }
}

/// Governor telemetry snapshot (counters since cluster creation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Queries granted an execution slot.
    pub admitted: u64,
    /// Admitted queries that had to wait in the queue first.
    pub queued: u64,
    /// Queries rejected with [`IcError::Overloaded`].
    pub shed: u64,
    /// Memory leases revoked under pool pressure.
    pub revoked: u64,
    /// Fixed pool size (cells).
    pub pool_capacity: u64,
    /// Cells currently granted out — zero when the cluster is idle (the
    /// "no budget leaked" invariant).
    pub pool_in_use: u64,
    /// High-water mark of granted cells.
    pub peak_pool_used: u64,
    /// Most queries ever running simultaneously.
    pub peak_concurrent: usize,
    /// Mean observed service time, µs (EWMA).
    pub ewma_service_us: u64,
    /// Queue-wait counts bucketed by [`QUEUE_WAIT_BUCKETS_MS`] (last
    /// bucket = beyond the largest bound).
    pub queue_wait_hist: [u64; 6],
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn tight(max_concurrent: usize, max_queue: usize) -> Arc<Governor> {
        Governor::new(GovernorConfig {
            max_concurrent,
            max_queue,
            ..GovernorConfig::test_default()
        })
    }

    #[test]
    fn admit_up_to_capacity_then_queue() {
        let gov = tight(1, 4);
        let first = gov.admit(0, None).unwrap();
        assert_eq!(first.queue_wait(), Duration::ZERO);
        let gov2 = Arc::clone(&gov);
        let waiter = thread::spawn(move || gov2.admit(0, None).map(|a| a.queue_wait()));
        // Wait until the second client is actually queued, then release.
        let t0 = Instant::now();
        while gov.stats().queued == 0 && t0.elapsed() < Duration::from_secs(5) {
            thread::yield_now();
        }
        assert_eq!(gov.stats().queued, 1);
        drop(first);
        let wait = waiter.join().expect("waiter panicked").expect("queued admit should succeed");
        assert!(wait > Duration::ZERO);
        let stats = gov.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.queue_wait_hist.iter().sum::<u64>(), 1);
        assert_eq!(stats.peak_concurrent, 1);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let gov = tight(1, 0);
        let held = gov.admit(0, None).unwrap();
        let err = gov.admit(1, None).unwrap_err();
        assert!(matches!(err, IcError::Overloaded { retry_after_ms } if retry_after_ms >= 1));
        assert!(err.is_retryable());
        assert!(!err.is_failover_retryable());
        assert_eq!(gov.stats().shed, 1);
        drop(held);
        assert!(gov.admit(1, None).is_ok());
    }

    #[test]
    fn expired_deadline_sheds_instead_of_queueing() {
        let gov = tight(1, 8);
        let _held = gov.admit(0, None).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        let err = gov.admit(1, Some(past)).unwrap_err();
        assert!(matches!(err, IcError::Overloaded { .. }), "{err}");
    }

    #[test]
    fn deadline_passing_while_queued_sheds() {
        let gov = tight(1, 8);
        let _held = gov.admit(0, None).unwrap();
        let soon = Instant::now() + Duration::from_millis(20);
        let err = gov.admit(1, Some(soon)).unwrap_err();
        assert!(matches!(err, IcError::Overloaded { .. }), "{err}");
        let stats = gov.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.queued, 1, "the query queued before its deadline expired");
    }

    #[test]
    fn fair_share_caps_a_greedy_client() {
        let gov = tight(4, 8);
        // Client 0 takes two slots, client 1 one: two active clients, so
        // each client's share is 2 even though a slot is still free.
        let _a = gov.admit(0, None).unwrap();
        let _b = gov.admit(0, None).unwrap();
        let c1 = gov.admit(1, None).unwrap();
        let gov2 = Arc::clone(&gov);
        let greedy = thread::spawn(move || gov2.admit(0, None).map(|_| ()));
        let t0 = Instant::now();
        while gov.stats().queued == 0 && t0.elapsed() < Duration::from_secs(5) {
            thread::yield_now();
        }
        // Client 1 still fits inside its own share while client 0 waits.
        let c1b = gov.admit(1, None).unwrap();
        assert_eq!(c1b.queue_wait(), Duration::ZERO);
        // Freeing client 1's slots drops active clients to one; client 0's
        // share grows back to 4 and the queued admit completes.
        drop(c1);
        drop(c1b);
        greedy.join().expect("greedy client panicked").expect("queued admit should succeed");
    }

    #[test]
    fn release_feeds_service_time_ewma() {
        let gov = tight(4, 4);
        let a = gov.admit(0, None).unwrap();
        thread::sleep(Duration::from_millis(2));
        drop(a);
        assert!(gov.stats().ewma_service_us >= 1_000);
    }
}
