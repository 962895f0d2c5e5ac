//! Measurement protocol (§6.1/§6.2): a *test* is one warm-up execution
//! followed by N measured executions; the mean response time is the
//! query's time for that test. Failures (planning errors, unsupported
//! features, runtime-limit timeouts) are first-class outcomes, because the
//! baseline system produces all three.

use ic_core::{Cluster, IcError};
use std::time::Duration;

/// Scale factors swept by the paper (0.5–3); the harness defaults scale
/// these down ~50× so a full sweep runs on one machine. Override with the
/// `IC_BENCH_SF` environment variable (comma-separated).
pub const DEFAULT_SCALE_FACTORS: &[f64] = &[0.01, 0.02];

/// Scale factors to use, honoring `IC_BENCH_SF`.
pub fn scale_factors() -> Vec<f64> {
    match std::env::var("IC_BENCH_SF") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse::<f64>().ok())
            .collect(),
        Err(_) => DEFAULT_SCALE_FACTORS.to_vec(),
    }
}

/// Number of measured repetitions per test (paper: 3).
pub fn repetitions() -> usize {
    std::env::var("IC_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Record a bench bin's result as `BENCH_<name>.json`: `fields` are the
/// bin's own JSON members, written after the header every record shares —
/// host cores and git revision, without which a number cannot be compared
/// with the next run's. A default-size run writes the committed record in
/// the working directory; a `reduced` one (`--smoke`, shrunk env knobs)
/// goes to `target/bench/`, so CI smoke runs never overwrite it. Returns
/// the path written.
pub fn write_bench_json(name: &str, reduced: bool, fields: &str) -> std::io::Result<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let dir = if reduced { "target/bench" } else { "." };
    let path = format!("{dir}/BENCH_{name}.json");
    let json = format!("{{\n  \"host_cores\": {cores}, \"git_rev\": \"{rev}\",\n{fields}}}\n");
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Outcome of measuring one query on one system.
#[derive(Debug, Clone)]
pub enum MeasureOutcome {
    /// Mean response time over the measured repetitions.
    Ok(Duration),
    /// The planner failed to generate an execution plan (IC's Q2/Q5/Q9).
    PlanFailure(String),
    /// Execution exceeded the runtime limit (IC's Q17/Q19/Q21).
    Timeout,
    /// Execution exceeded the memory budget (the paper's "system
    /// resource limit" failures).
    MemoryLimit,
    /// Feature unsupported (Q15 views, Q20).
    Unsupported(String),
    /// Shed by admission control ([`IcError::Overloaded`]) — retryable;
    /// single-stream harness runs should never see this.
    Shed,
    /// Memory lease revoked under cluster pressure
    /// ([`IcError::ResourcesRevoked`]) — retryable.
    Revoked,
    /// Any other error.
    Error(String),
}

impl MeasureOutcome {
    pub fn ok_time(&self) -> Option<Duration> {
        match self {
            MeasureOutcome::Ok(d) => Some(*d),
            _ => None,
        }
    }

    pub fn label(&self) -> String {
        match self {
            MeasureOutcome::Ok(d) => format!("{:.1} ms", d.as_secs_f64() * 1000.0),
            MeasureOutcome::PlanFailure(_) => "PLAN-FAIL".into(),
            MeasureOutcome::Timeout => "TIMEOUT".into(),
            MeasureOutcome::MemoryLimit => "MEM-LIMIT".into(),
            MeasureOutcome::Unsupported(_) => "UNSUPPORTED".into(),
            MeasureOutcome::Shed => "SHED".into(),
            MeasureOutcome::Revoked => "REVOKED".into(),
            MeasureOutcome::Error(e) => format!("ERROR({e})"),
        }
    }
}

/// One (query, system, configuration) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub query: String,
    pub system: String,
    pub outcome: MeasureOutcome,
    pub rows: usize,
}

/// §6.2 protocol: one warm-up + `reps` measured executions; mean response
/// time. Classifies failures instead of panicking.
pub fn measure_query(cluster: &Cluster, sql: &str, reps: usize) -> (MeasureOutcome, usize) {
    let (outcome, rows, _) = measure_query_waits(cluster, sql, reps);
    (outcome, rows)
}

/// [`measure_query`], additionally reporting the mean admission queue wait
/// over the measured repetitions. `QueryStats::queue_wait` was always
/// measured but the harness dropped it, so summary lines could not show
/// when a "slow" query was actually a *queued* query.
pub fn measure_query_waits(
    cluster: &Cluster,
    sql: &str,
    reps: usize,
) -> (MeasureOutcome, usize, Duration) {
    // Warm-up execution.
    let rows = match cluster.query(sql) {
        Ok(r) => r.rows.len(),
        Err(e) => return (classify(e), 0, Duration::ZERO),
    };
    let mut total = Duration::ZERO;
    let mut queue_wait = Duration::ZERO;
    for _ in 0..reps {
        match cluster.query(sql) {
            Ok(r) => {
                total += r.total_time();
                queue_wait += r.stats.queue_wait;
            }
            Err(e) => return (classify(e), rows, Duration::ZERO),
        }
    }
    let n = reps.max(1) as u32;
    (MeasureOutcome::Ok(total / n), rows, queue_wait / n)
}

/// Suffix for harness summary lines: the mean queue wait when it is
/// nonzero, empty otherwise (the common uncontended case stays clean).
pub fn queue_wait_suffix(queue_wait: Duration) -> String {
    if queue_wait.is_zero() {
        String::new()
    } else {
        format!(" (queued {:.1} ms)", queue_wait.as_secs_f64() * 1000.0)
    }
}

fn classify(e: IcError) -> MeasureOutcome {
    match e {
        IcError::ExecTimeout { .. } => MeasureOutcome::Timeout,
        IcError::MemoryLimit { .. } => MeasureOutcome::MemoryLimit,
        IcError::Unsupported(m) => MeasureOutcome::Unsupported(m),
        IcError::Overloaded { .. } => MeasureOutcome::Shed,
        IcError::ResourcesRevoked { .. } => MeasureOutcome::Revoked,
        e if e.is_planner_failure() => MeasureOutcome::PlanFailure(e.to_string()),
        other => MeasureOutcome::Error(other.to_string()),
    }
}

/// Arithmetic mean of durations.
pub fn mean(values: &[Duration]) -> Option<Duration> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<Duration>() / values.len() as u32)
}

/// Geometric mean of speedup ratios (robust figure-of-merit for "X× over
/// baseline" summaries).
pub fn geo_mean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|r| *r <= 0.0) {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(
            mean(&[Duration::from_secs(1), Duration::from_secs(3)]),
            Some(Duration::from_secs(2))
        );
        assert_eq!(mean(&[]), None);
        let g = geo_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geo_mean(&[1.0, -1.0]), None);
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(MeasureOutcome::Timeout.label(), "TIMEOUT");
        assert!(MeasureOutcome::Ok(Duration::from_millis(5)).label().contains("ms"));
        assert!(MeasureOutcome::Ok(Duration::from_millis(5)).ok_time().is_some());
        assert!(MeasureOutcome::Timeout.ok_time().is_none());
    }
}
