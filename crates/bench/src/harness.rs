//! Measurement protocol (§6.1/§6.2): a *test* is one warm-up execution
//! followed by N measured executions; the mean response time is the
//! query's time for that test. Failures (planning errors, unsupported
//! features, runtime-limit timeouts) are first-class outcomes, because the
//! baseline system produces all three.

use ic_core::{Cluster, IcError};
use std::time::Duration;

/// The §6.1 protocol sizes of one `--bin paper` run. There are exactly two:
/// [`FULL`], whose record is committed, and [`SMOKE`], selected by `--smoke`.
#[derive(Debug)]
pub struct Protocol {
    /// Scale factors swept and averaged over (paper: 0.5–3, ~50× these).
    pub scale_factors: &'static [f64],
    /// Measured repetitions after the one warm-up (paper: 3).
    pub reps: usize,
    /// Per-query runtime limit (paper: 4 h).
    pub timeout: Duration,
    /// Length of one AQL cell (paper: 300 s); run at `scale_factors[0]`.
    pub aql_cell: Duration,
}

/// The largest doubling pair of scale factors whose sweep finishes inside
/// 15 minutes on the 2-core host (10–11.5 min; 0.01 + 0.02 takes 9, and at
/// 0.04 + 0.08 the sweep is estimated at 15–16 min — EXPERIMENTS.md). The time
/// goes to the IC queries that run to the limit — about seven per cluster —
/// and to IC's Q5/Q7/Q22, which finish in seconds, four executions each.
pub const FULL: Protocol = Protocol {
    scale_factors: &[0.02, 0.04],
    reps: 3,
    timeout: Duration::from_secs(15),
    aql_cell: Duration::from_secs(5),
};

/// CI size: every code path of [`FULL`] in under a minute.
pub const SMOKE: Protocol = Protocol {
    scale_factors: &[0.001, 0.002],
    reps: 1,
    timeout: Duration::from_secs(1),
    aql_cell: Duration::from_millis(250),
};

/// Site counts of every figure and table (paper: 4 and 8 machines).
pub const SITES: [usize; 2] = [4, 8];

/// Record a bench bin's result as `BENCH_<name>.json`: `fields` are the
/// bin's own JSON members, written after the header every record shares —
/// host cores and git revision, without which a number cannot be compared
/// with the next run's. A full-size run writes the committed record in
/// the working directory; a `reduced` one (`--smoke`) goes to
/// `target/bench/`, so CI smoke runs never overwrite it. Returns the path
/// written.
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

/// Milliseconds, the unit of every printed and recorded time.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
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
    /// Feature unsupported (Q15 views).
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
            MeasureOutcome::Ok(d) => format!("{:.1} ms", ms(*d)),
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

/// §6.2 protocol: one warm-up + `reps` measured executions; mean response
/// time. Classifies failures instead of panicking. The warm-up also plans
/// the statement, so the measured executions bind its cached template — as
/// Benchbase's warm-up fills Ignite's `QueryPlanCache`; a planner failure is
/// not cached and fails the warm-up itself.
pub fn measure_query(cluster: &Cluster, sql: &str, reps: usize) -> MeasureOutcome {
    let mut total = Duration::ZERO;
    for rep in 0..=reps {
        match cluster.query(sql) {
            Ok(_) if rep == 0 => {}
            Ok(r) => total += r.total_time(),
            Err(e) => return classify(e),
        }
    }
    MeasureOutcome::Ok(total / reps.max(1) as u32)
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
