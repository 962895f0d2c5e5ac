//! The §6.3 average-query-latency (AQL) driver: one or more *terminals*
//! (client threads) submit randomized TPC-H queries back-to-back until a
//! time budget elapses; AQL is the arithmetic mean latency of all
//! completed requests.

use ic_core::Cluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// AQL run result.
#[derive(Debug, Clone)]
pub struct AqlResult {
    pub completed: usize,
    pub failed: usize,
    pub mean_latency: Duration,
}

/// Run the AQL protocol against a cluster: `clients` terminals (paper:
/// 2/4/8) for `duration` (paper: 300 s), drawing from [`aql_query_set`]
/// with a fixed seed per terminal.
pub fn run_aql(cluster: &Arc<Cluster>, clients: usize, duration: Duration) -> AqlResult {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for client in 0..clients {
        let cluster = cluster.clone();
        let stop = stop.clone();
        let queries = aql_query_set();
        let seed = 42 + client as u64 * 7919;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut latencies: Vec<Duration> = Vec::new();
            let mut failed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let q = queries[rng.gen_range(0..queries.len())];
                let sql = ic_benchdata::tpch::query_randomized(q, &mut rng);
                let t0 = Instant::now();
                match cluster.query(&sql) {
                    Ok(_) => latencies.push(t0.elapsed()),
                    Err(_) => failed += 1,
                }
            }
            (latencies, failed)
        }));
    }
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut all = Vec::new();
    let mut failed = 0;
    for h in handles {
        #[expect(clippy::expect_used, reason = "a panicking worker thread should abort the bench run loudly rather than skew the latency sample")]
        let (lat, f) = h.join().expect("terminal thread");
        all.extend(lat);
        failed += f;
    }
    let mean = if all.is_empty() {
        Duration::ZERO
    } else {
        all.iter().sum::<Duration>() / all.len() as u32
    };
    AqlResult { completed: all.len(), failed, mean_latency: mean }
}

/// The TPC-H query set for AQL runs: all queries minus the unsupported
/// ones and minus the queries that fail on the baseline (§6.3: "disabled
/// for this test suite to ensure a fair comparison").
pub fn aql_query_set() -> Vec<usize> {
    let mut set = crate::runner::tpch_query_set();
    set.retain(|q| !ic_benchdata::tpch::EXCLUDED_BASELINE_FAILING.contains(q));
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_set_excludes_failures() {
        let set = aql_query_set();
        assert!(!set.contains(&15));
        assert!(!set.contains(&20));
        assert!(!set.contains(&2));
        assert!(!set.contains(&19));
        assert!(set.contains(&1));
        assert_eq!(set.len(), 22 - 2 - 6);
    }
}
