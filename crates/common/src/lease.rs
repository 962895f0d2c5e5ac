//! Cluster-wide memory pool with revocable per-query leases.
//!
//! This replaces the flat per-query `buffered_rows` counter the executor
//! used before the governor existed. Every buffering operator now accounts
//! its cells (rows × arity) against a [`MemoryLease`]; leases acquire
//! budget from a shared [`MemoryPool`] in chunks of [`LEASE_CHUNK_CELLS`]
//! so the pool mutex is touched once per ~16K cells, not once per batch.
//!
//! Revocation protocol (the governor's pressure valve):
//!
//! 1. A lease that needs more budget than the pool has free picks a
//!    *victim*: the live lease with the largest grant (ties broken toward
//!    the lowest — oldest — lease id, so the choice is deterministic).
//! 2. If the victim is another query, its `revoked` flag is raised. The
//!    victim notices cooperatively at its next batch boundary
//!    (`ControlBlock::check`), fails itself with the revocation as the
//!    cause, and its lease `Drop` returns the grant to the pool.
//! 3. The requester blocks on a condvar until budget frees, re-checking
//!    each wakeup; if its grant timeout expires first it revokes *itself*.
//! 4. If the requester is itself the largest lease, it self-revokes — or,
//!    when no other lease holds any budget (so waiting cannot help), it
//!    fails terminally with [`IcError::MemoryLimit`]: the pool is simply
//!    too small for the query.
//!
//! A revoked query surfaces [`IcError::ResourcesRevoked`] — retryable by
//! the client, never by the coordinator's failover loop.

#![expect(clippy::disallowed_methods, reason = "a lease waiting for budget gives up after the pool's wall-clock grant timeout")]

use crate::error::{IcError, IcResult};
use crate::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Granularity of pool acquisition: a lease grows its grant in multiples
/// of this many cells, amortizing the pool lock across many reserves.
pub const LEASE_CHUNK_CELLS: u64 = 16_384;

/// Per-lease bookkeeping the pool holds under its lock.
#[derive(Debug)]
struct LeaseEntry {
    id: u64,
    granted: u64,
    revoked: Arc<AtomicBool>,
}

#[derive(Debug, Default)]
struct PoolState {
    /// Sum of all live grants; invariant: `used <= capacity` and
    /// `used == leases.iter().map(|l| l.granted).sum()`.
    used: u64,
    leases: Vec<LeaseEntry>,
    next_id: u64,
}

/// The shared, fixed-capacity memory budget all queries draw from.
///
/// Cheap to share (`Arc<MemoryPool>`); all mutation goes through one
/// internal mutex plus a condvar that wakes waiters when budget frees.
///
/// The load-bearing invariant is *drop balances to zero*: every cell a
/// lease ever acquired returns to the pool when the lease drops, so after
/// the last lease is gone `in_use()` is exactly zero — no leaked budget,
/// even on error and revocation paths.
///
/// ```
/// use ic_common::{MemoryPool, LEASE_CHUNK_CELLS};
///
/// let pool = MemoryPool::new(4 * LEASE_CHUNK_CELLS);
/// {
///     let lease = pool.lease(u64::MAX);
///     lease.reserve(100).unwrap();
///     assert_eq!(pool.in_use(), LEASE_CHUNK_CELLS); // chunk-granular
/// } // lease drops here
/// assert_eq!(pool.in_use(), 0);
/// assert_eq!(pool.active_leases(), 0);
/// ```
#[derive(Debug)]
pub struct MemoryPool {
    capacity: u64,
    grant_timeout: Duration,
    state: Mutex<PoolState>,
    freed: Condvar,
    peak_used: AtomicU64,
    revocations: AtomicU64,
    /// Global `mem.lease.grants` handle, resolved once at construction so
    /// the grant path never touches the registry lock.
    m_grants: Arc<crate::obs::Counter>,
    /// Global `mem.lease.revocations` handle (same caching rationale).
    m_revocations: Arc<crate::obs::Counter>,
}

impl MemoryPool {
    /// A pool with `capacity` cells and the default 500 ms grant timeout.
    pub fn new(capacity: u64) -> Arc<Self> {
        Self::with_grant_timeout(capacity, Duration::from_millis(500))
    }

    /// A pool with an explicit bound on how long a starved lease waits for
    /// freed budget before revoking itself.
    pub fn with_grant_timeout(capacity: u64, grant_timeout: Duration) -> Arc<Self> {
        let reg = crate::obs::MetricsRegistry::global();
        Arc::new(MemoryPool {
            capacity,
            grant_timeout,
            state: Mutex::new(PoolState::default()),
            freed: Condvar::new(),
            peak_used: AtomicU64::new(0),
            revocations: AtomicU64::new(0),
            m_grants: reg.counter("mem.lease.grants"),
            m_revocations: reg.counter("mem.lease.revocations"),
        })
    }

    /// An effectively infinite pool, for standalone executor use (tests,
    /// direct `execute_plan` callers) where only the per-lease limit —
    /// the old per-query `memory_limit_rows` semantics — should apply.
    pub fn unbounded() -> Arc<Self> {
        Self::new(u64::MAX)
    }

    /// Open a lease capped at `limit` cells (the per-query memory limit).
    pub fn lease(self: &Arc<Self>, limit: u64) -> MemoryLease {
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        let revoked = Arc::new(AtomicBool::new(false));
        st.leases.push(LeaseEntry { id, granted: 0, revoked: Arc::clone(&revoked) });
        MemoryLease {
            pool: Arc::clone(self),
            id,
            limit,
            revoked,
            used: AtomicU64::new(0),
            granted: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Total cells currently granted out. Zero once every lease has
    /// dropped — the "pool leaks no budget" invariant the chaos tests and
    /// the overload bench assert.
    pub fn in_use(&self) -> u64 {
        self.state.lock().used
    }

    /// Number of live (not yet dropped) leases.
    pub fn active_leases(&self) -> usize {
        self.state.lock().leases.len()
    }

    /// Fixed pool size in cells (rows × arity), set at construction.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// High-water mark of granted cells over the pool's lifetime.
    pub fn peak_used(&self) -> u64 {
        self.peak_used.load(Ordering::Relaxed)
    }

    /// Total leases ever revoked (victim or self) under pressure.
    pub fn revocations(&self) -> u64 {
        self.revocations.load(Ordering::Relaxed)
    }

    /// Count one revocation in both the pool-local counter and the global
    /// `mem.lease.revocations` metric.
    fn note_revocation(&self) {
        self.revocations.fetch_add(1, Ordering::Relaxed);
        self.m_revocations.inc();
    }
}

/// One query's revocable claim on the shared pool.
///
/// Shared across the query's fragment threads (behind the executor's
/// `Arc<ControlBlock>`); `reserve` is lock-free while the current chunk
/// lasts. Dropping the lease returns its whole grant to the pool and wakes
/// waiters.
///
/// The two failure modes split on retryability:
///
/// - [`IcError::ResourcesRevoked`] — this lease lost the revocation
///   protocol (victim or self-revoked under starvation). *Client*-
///   retryable: the pressure is transient, so resubmitting later can
///   succeed. Never failover-retryable — replanning around a "dead" site
///   cannot conjure memory.
/// - [`IcError::MemoryLimit`] — the per-query cap or the whole pool is
///   smaller than the query's working set. Terminal: retrying reproduces
///   the same demand.
///
/// ```
/// use ic_common::{IcError, MemoryPool, LEASE_CHUNK_CELLS};
/// use std::time::Duration;
///
/// let pool = MemoryPool::with_grant_timeout(2 * LEASE_CHUNK_CELLS, Duration::from_millis(20));
/// let hog = pool.lease(u64::MAX);
/// hog.reserve(2 * LEASE_CHUNK_CELLS).unwrap();
///
/// // The starved second lease revokes the hog, waits out the grant
/// // timeout, then self-revokes with the *retryable* error…
/// let err = pool.lease(u64::MAX).reserve(1).unwrap_err();
/// assert!(matches!(err, IcError::ResourcesRevoked { .. }));
/// assert!(err.is_retryable() && !err.is_failover_retryable());
/// assert!(hog.is_revoked());
///
/// // …whereas a solo lease outgrowing the pool is a terminal limit.
/// drop(hog);
/// let err = pool.lease(u64::MAX).reserve(3 * LEASE_CHUNK_CELLS).unwrap_err();
/// assert!(matches!(err, IcError::MemoryLimit { .. }));
/// assert!(!err.is_retryable());
/// ```
#[derive(Debug)]
pub struct MemoryLease {
    pool: Arc<MemoryPool>,
    id: u64,
    /// Per-query cap (cells) — the old `memory_limit_rows` semantics.
    limit: u64,
    revoked: Arc<AtomicBool>,
    used: AtomicU64,
    /// Local mirror of the pool-side grant; refreshed under the pool lock.
    granted: AtomicU64,
    peak: AtomicU64,
}

impl MemoryLease {
    /// Account `cells` more buffered cells against this lease, acquiring
    /// more pool budget (possibly revoking a victim, possibly blocking
    /// briefly) when the current chunk is exhausted.
    pub fn reserve(&self, cells: u64) -> IcResult<()> {
        if self.revoked.load(Ordering::Relaxed) {
            return Err(self.revoked_error());
        }
        let used = self.used.fetch_add(cells, Ordering::Relaxed) + cells;
        self.peak.fetch_max(used, Ordering::Relaxed);
        if used > self.limit {
            return Err(IcError::MemoryLimit { limit_rows: self.limit });
        }
        if used > self.granted.load(Ordering::Relaxed) {
            self.acquire_grant(used)?;
        }
        Ok(())
    }

    /// Give back `cells` this lease's holder no longer buffers. Only the
    /// lease's use falls: the pool grant stays until the lease drops, so a
    /// query that buffers again reuses it without touching the pool.
    pub fn release(&self, cells: u64) {
        let before = self.used.fetch_sub(cells, Ordering::Relaxed);
        debug_assert!(before >= cells, "released {cells} cells of {before} in use");
    }

    /// Grow the pool-side grant to cover at least `min_target` cells,
    /// rounded up to the chunk size. Runs the revocation protocol under
    /// pressure (see module docs).
    fn acquire_grant(&self, min_target: u64) -> IcResult<()> {
        let wait_deadline = Instant::now() + self.pool.grant_timeout;
        let mut st = self.pool.state.lock();
        loop {
            if self.revoked.load(Ordering::Relaxed) {
                return Err(self.revoked_error());
            }
            let Some(idx) = st.leases.iter().position(|l| l.id == self.id) else {
                return Err(IcError::Internal("memory lease missing from its pool".into()));
            };
            // Another of this query's threads may have grown the grant
            // while we waited for the lock; recompute against live `used`.
            let need = self.used.load(Ordering::Relaxed).max(min_target);
            let target = round_up_chunk(need);
            let have = st.leases[idx].granted;
            if have >= target {
                self.granted.fetch_max(have, Ordering::Relaxed);
                return Ok(());
            }
            let want = target - have;
            if self.pool.capacity - st.used >= want {
                st.used += want;
                st.leases[idx].granted += want;
                let granted = st.leases[idx].granted;
                self.pool.peak_used.fetch_max(st.used, Ordering::Relaxed);
                self.granted.fetch_max(granted, Ordering::Relaxed);
                self.pool.m_grants.inc();
                return Ok(());
            }

            // Pressure: pick the victim — largest live grant, oldest wins
            // ties, so the decision is deterministic under replay.
            let victim = st
                .leases
                .iter()
                .filter(|l| !l.revoked.load(Ordering::Relaxed))
                .max_by_key(|l| (l.granted, std::cmp::Reverse(l.id)))
                .map(|l| (l.id, Arc::clone(&l.revoked)));
            match victim {
                Some((vid, flag)) if vid != self.id => {
                    flag.store(true, Ordering::Relaxed);
                    self.pool.note_revocation();
                    // Fall through and wait for the victim to unwind.
                }
                _ => {
                    // We hold the largest grant ourselves (or everyone else
                    // is already revoked). If nothing else holds budget,
                    // waiting cannot help: the pool is too small, period.
                    let others: u64 =
                        st.leases.iter().filter(|l| l.id != self.id).map(|l| l.granted).sum();
                    if others == 0 {
                        return Err(IcError::MemoryLimit { limit_rows: self.pool.capacity });
                    }
                    self.revoked.store(true, Ordering::Relaxed);
                    self.pool.note_revocation();
                    return Err(self.revoked_error());
                }
            }

            let now = Instant::now();
            if now >= wait_deadline {
                self.revoked.store(true, Ordering::Relaxed);
                self.pool.note_revocation();
                return Err(self.revoked_error());
            }
            let step = (wait_deadline - now).min(Duration::from_millis(10));
            st = self.pool.freed.wait_timeout(st, step);
        }
    }

    /// Raised by the pool when this lease was chosen as a revocation
    /// victim; checked cooperatively at batch boundaries.
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::Relaxed)
    }

    /// Force-revoke (used by tests and the governor's shutdown path).
    pub fn revoke(&self) {
        if !self.revoked.swap(true, Ordering::Relaxed) {
            self.pool.note_revocation();
        }
        self.pool.freed.notify_all();
    }

    /// The error a revoked query surfaces.
    pub fn revoked_error(&self) -> IcError {
        IcError::ResourcesRevoked { lease_cells: self.granted.load(Ordering::Relaxed) }
    }

    /// Cells currently accounted against this lease.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of cells accounted against this lease.
    pub fn peak_used(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// The pool this lease draws from.
    pub fn pool(&self) -> &Arc<MemoryPool> {
        &self.pool
    }
}

impl Drop for MemoryLease {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock();
        if let Some(pos) = st.leases.iter().position(|l| l.id == self.id) {
            let entry = st.leases.swap_remove(pos);
            st.used = st.used.saturating_sub(entry.granted);
        }
        drop(st);
        self.pool.freed.notify_all();
    }
}

fn round_up_chunk(cells: u64) -> u64 {
    match cells.checked_add(LEASE_CHUNK_CELLS - 1) {
        Some(n) => (n / LEASE_CHUNK_CELLS) * LEASE_CHUNK_CELLS,
        None => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn reserve_within_limit_succeeds_and_tracks_peak() {
        let pool = MemoryPool::new(1_000_000);
        let lease = pool.lease(100_000);
        lease.reserve(10).unwrap();
        lease.reserve(90).unwrap();
        assert_eq!(lease.used(), 100);
        assert_eq!(lease.peak_used(), 100);
        // First chunk acquired from the pool.
        assert_eq!(pool.in_use(), LEASE_CHUNK_CELLS);
        assert!(pool.peak_used() >= LEASE_CHUNK_CELLS);
    }

    #[test]
    fn per_query_limit_fires_before_pool() {
        let pool = MemoryPool::new(1_000_000);
        let lease = pool.lease(500);
        let err = lease.reserve(501).unwrap_err();
        assert_eq!(err, IcError::MemoryLimit { limit_rows: 500 });
        assert!(!err.is_retryable());
    }

    #[test]
    fn solo_lease_exceeding_pool_is_terminal_memory_limit() {
        let pool = MemoryPool::new(LEASE_CHUNK_CELLS);
        let lease = pool.lease(u64::MAX);
        let err = lease.reserve(LEASE_CHUNK_CELLS + 1).unwrap_err();
        assert_eq!(err, IcError::MemoryLimit { limit_rows: LEASE_CHUNK_CELLS });
        assert!(!err.is_retryable());
    }

    #[test]
    fn pressure_revokes_the_largest_lease() {
        // Pool fits three chunks; big takes two, small takes one, then
        // small needs another -> big (largest) is revoked.
        let pool = MemoryPool::with_grant_timeout(3 * LEASE_CHUNK_CELLS, Duration::from_secs(5));
        let big = pool.lease(u64::MAX);
        big.reserve(2 * LEASE_CHUNK_CELLS).unwrap();
        let small = pool.lease(u64::MAX);
        small.reserve(LEASE_CHUNK_CELLS).unwrap();
        assert_eq!(pool.in_use(), 3 * LEASE_CHUNK_CELLS);

        // The requester blocks until the victim's lease drops, so run the
        // victim's unwind on another thread (as the real executor does).
        let waiter = thread::spawn(move || small.reserve(1).map(|_| small.used()));
        // Busy-wait for the revocation flag, then drop `big` to free budget.
        let t0 = Instant::now();
        while !big.is_revoked() && t0.elapsed() < Duration::from_secs(5) {
            thread::yield_now();
        }
        assert!(big.is_revoked(), "largest lease should be chosen as victim");
        assert!(matches!(big.revoked_error(), IcError::ResourcesRevoked { .. }));
        drop(big);
        let used = waiter.join().expect("waiter panicked").expect("waiter should get budget");
        assert_eq!(used, LEASE_CHUNK_CELLS + 1);
        assert_eq!(pool.revocations(), 1);
    }

    #[test]
    fn starved_requester_self_revokes_after_timeout() {
        // Victim is revoked but never unwinds -> the waiter gives up and
        // self-revokes with a retryable error.
        let pool = MemoryPool::with_grant_timeout(2 * LEASE_CHUNK_CELLS, Duration::from_millis(30));
        let hog = pool.lease(u64::MAX);
        hog.reserve(2 * LEASE_CHUNK_CELLS).unwrap();
        let small = pool.lease(u64::MAX);
        let err = small.reserve(1).unwrap_err();
        assert!(matches!(err, IcError::ResourcesRevoked { .. }));
        assert!(err.is_retryable());
        assert!(hog.is_revoked());
    }

    #[test]
    fn release_lowers_use_and_the_pool_still_balances() {
        let pool = MemoryPool::new(10 * LEASE_CHUNK_CELLS);
        {
            let lease = pool.lease(2 * LEASE_CHUNK_CELLS);
            lease.reserve(2 * LEASE_CHUNK_CELLS).unwrap();
            lease.release(2 * LEASE_CHUNK_CELLS);
            assert_eq!((lease.used(), lease.peak_used()), (0, 2 * LEASE_CHUNK_CELLS));
            // Released cells fit under the per-query cap again, on the grant
            // the lease already holds.
            lease.reserve(2 * LEASE_CHUNK_CELLS).unwrap();
            assert_eq!(pool.in_use(), 2 * LEASE_CHUNK_CELLS);
            lease.release(LEASE_CHUNK_CELLS);
        }
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.active_leases(), 0);
    }

    #[test]
    fn drop_returns_every_cell_to_the_pool() {
        let pool = MemoryPool::new(10 * LEASE_CHUNK_CELLS);
        {
            let a = pool.lease(u64::MAX);
            let b = pool.lease(u64::MAX);
            a.reserve(3 * LEASE_CHUNK_CELLS).unwrap();
            b.reserve(100).unwrap();
            assert!(pool.in_use() > 0);
            assert_eq!(pool.active_leases(), 2);
        }
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.active_leases(), 0);
    }

    #[test]
    fn concurrent_leases_never_exceed_capacity_and_balance_to_zero() {
        let pool = MemoryPool::with_grant_timeout(8 * LEASE_CHUNK_CELLS, Duration::from_millis(50));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    let lease = pool.lease(u64::MAX);
                    // Mixed sizes force chunk growth and occasional pressure.
                    let _ = lease.reserve(LEASE_CHUNK_CELLS / 2);
                    let _ = lease.reserve(2 * LEASE_CHUNK_CELLS);
                    assert!(pool.in_use() <= pool.capacity());
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.active_leases(), 0);
        assert!(pool.peak_used() <= pool.capacity());
    }
}
