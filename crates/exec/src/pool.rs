//! Morsel scheduling for intra-fragment parallelism.
//!
//! A fragment instance whose operator chain compiles into a pipeline (see
//! [`crate::pipeline`]) splits its scan input into [`Morsel`]s — runs of a
//! partition snapshot's stored chunks, about `ExecOptions::morsel_rows` rows
//! each — and runs one *lane* per morsel, up to
//! `ExecOptions::worker_threads`, each a scoped thread of the instance's
//! driver. Lanes pull morsels from the front of the pipeline's one shared
//! FIFO, the [`MorselSupply`], whichever lane asks: a lane that finishes
//! early simply pulls the next morsel, so skew inside one pipeline
//! self-balances without any lane owning a share. The morsel boundary is the cooperative
//! revocation/cancellation point: lanes call `ControlBlock::check` between
//! morsels and batches, never mid-kernel.
//!
//! Nothing here caps threads across queries. Fairness across concurrent
//! queries stays where PR 4 put it: the governor's admission slots bound how
//! many queries execute at once, and the memory lease revokes the buffers of
//! a query that must yield — a revoked query's lanes notice at the next morsel
//! boundary and unwind.

use ic_common::obs::{Counter, Histogram, MetricsRegistry};
use ic_storage::Chunks;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock (the governor's idiom): a lane that panicked fails
/// the query on its own; the queue state itself is still consistent.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A run of one scan partition's stored chunks, the unit of work a lane
/// claims: chunks `start..end`, from row `lo` of the first to row `hi`
/// (exclusive) of the last. A morsel is whole chunks unless a single chunk
/// outsizes the morsel size, in which case the chunk is sliced. `base` is
/// the absolute row index of the morsel's first row across the whole scan
/// (all partitions in scan order), so §5.3 splitter filtering
/// (`absolute_index % n == vid`) is independent of which lane processes
/// the morsel and in what order.
#[derive(Debug, Clone, Copy)]
pub struct Morsel {
    pub part: usize,
    pub start: usize,
    pub end: usize,
    pub lo: usize,
    pub hi: usize,
    pub base: usize,
    pub rows: usize,
}

/// Pre-resolved `exec.morsel.*` metric handles — one registry lookup per
/// supply, not per pull.
struct MorselMetrics {
    dispatched: Arc<Counter>,
    rows: Arc<Histogram>,
}

impl MorselMetrics {
    fn resolve() -> MorselMetrics {
        let reg = MetricsRegistry::global();
        MorselMetrics {
            dispatched: reg.counter("exec.morsel.dispatched"),
            rows: reg.histogram("exec.morsel.rows"),
        }
    }
}

/// The shared morsel queue of one pipeline: lanes pull from the front, so
/// the queue never starves while any lane is idle.
pub struct MorselSupply {
    queue: Mutex<VecDeque<Morsel>>,
    total: usize,
    lanes: usize,
    metrics: MorselMetrics,
}

impl MorselSupply {
    /// Morselize partition snapshots for at most `threads` lanes, walked in
    /// the same partition/row order as a sequential scan, with absolute row
    /// indices threaded through for splitter equivalence: whole chunks are
    /// grouped up to `morsel_rows` rows, a chunk larger than that is sliced.
    pub fn new(partitions: &[Chunks], morsel_rows: usize, threads: usize) -> MorselSupply {
        let step = morsel_rows.max(64);
        let mut queue = VecDeque::new();
        let mut base = 0usize;
        let mut push = |part, start, end, lo, hi, base, rows| {
            queue.push_back(Morsel { part, start, end, lo, hi, base, rows });
        };
        for (part, chunks) in partitions.iter().enumerate() {
            let mut c = 0usize;
            while c < chunks.len() {
                let n = chunks[c].num_rows();
                if n > step {
                    for lo in (0..n).step_by(step) {
                        let hi = (lo + step).min(n);
                        push(part, c, c + 1, lo, hi, base + lo, hi - lo);
                    }
                    base += n;
                    c += 1;
                    continue;
                }
                let (first, mut rows) = (c, 0usize);
                while c < chunks.len() && rows + chunks[c].num_rows() <= step {
                    rows += chunks[c].num_rows();
                    c += 1;
                }
                push(part, first, c, 0, chunks[c - 1].num_rows(), base, rows);
                base += rows;
            }
        }
        let total = queue.len();
        let lanes = total.min(threads.max(1));
        MorselSupply { queue: Mutex::new(queue), total, lanes, metrics: MorselMetrics::resolve() }
    }

    /// Morsels at creation. What was actually cut, which a rows ÷
    /// `morsel_rows` estimate misses whenever chunks do not pack evenly: the
    /// "at least two morsels" test for going parallel reads this.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Lanes to run: never more lanes than morsels, never more than
    /// `threads`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Claim the next morsel (a dispatch), or `None` when the pipeline's
    /// input is exhausted.
    pub fn pull(&self) -> Option<Morsel> {
        let m = locked(&self.queue).pop_front()?;
        self.metrics.dispatched.add(1);
        self.metrics.rows.record(m.rows as u64);
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{ColumnBatch, Datum, Row};

    fn chunks(sizes: &[usize]) -> Chunks {
        let chunk = |n: usize| {
            let rows: Vec<Row> = (0..n).map(|i| Row(vec![Datum::Int(i as i64)])).collect();
            Arc::new(ColumnBatch::from_rows(&rows))
        };
        Arc::new(sizes.iter().map(|&n| chunk(n)).collect())
    }

    /// Chunks that do not pack evenly cut more morsels than rows ÷
    /// `morsel_rows` says (260 rows at 128: 3, but each 130-row chunk is
    /// sliced in two), and `total` / `lanes` report what was cut.
    #[test]
    fn total_and_lanes_count_the_morsels_actually_cut() {
        let supply = MorselSupply::new(&[chunks(&[130, 130])], 128, 8);
        assert_eq!((supply.total(), supply.lanes()), (4, 4));
        let pulled: Vec<Morsel> = std::iter::from_fn(|| supply.pull()).collect();
        let cut: Vec<_> = pulled.iter().map(|m| (m.start, m.lo, m.hi, m.base)).collect();
        assert_eq!(cut, vec![(0, 0, 128, 0), (0, 128, 130, 128), (1, 0, 128, 130), (1, 128, 130, 258)]);
        // Never more lanes than threads.
        let supply = MorselSupply::new(&[chunks(&[130, 130])], 128, 3);
        assert_eq!((supply.total(), supply.lanes()), (4, 3));
        assert_eq!(std::iter::from_fn(|| supply.pull()).count(), 4);
        // One morsel, or none: nothing to go parallel over.
        assert_eq!(MorselSupply::new(&[chunks(&[100])], 128, 3).total(), 1);
        assert_eq!(MorselSupply::new(&[chunks(&[])], 128, 3).lanes(), 0);
    }
}
