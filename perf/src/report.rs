//! The one emitter: result lines, run files and their header, and `agree`.

use crate::json::Json;
use crate::spec::{Better, Metric, DRIVER_WORKLOADS, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workload::{self as wl, Workload};
use std::path::PathBuf;
use std::process::Command;

/// `{"name": {"value": v, "unit": u}, ...}` in the table's order.
pub fn metrics_json(table: &[Metric], value_of: impl Fn(&str) -> f64) -> Json {
    Json::obj(table.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(value_of(m.name))),
                ("unit", Json::str(m.unit)),
            ]),
        )
    }))
}

/// The result line the driver reads: exactly these four keys.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

/// Where run files and traces go: `perf/` under cargo's target directory.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf")
}

pub fn write_file(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What a number was measured on and with; every run file starts with it.
pub fn header(seed: u64, seconds: f64) -> Json {
    Json::obj([
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("variant", Json::str("ICPlus")),
        ("sites", Json::Num(wl::SITES as f64)),
        ("worker_threads", Json::Num(wl::WORKER_THREADS as f64)),
        ("morsel_rows", Json::Num(wl::MORSEL_ROWS as f64)),
        ("aql_clients", Json::Num(wl::AQL_CLIENTS as f64)),
        (
            "network",
            Json::str(format!(
                "simulated: {} MB/s + {} us/message, charged by sleeping",
                wl::NET_MBPS,
                wl::NET_LATENCY_US
            )),
        ),
        (
            "scale_factors",
            Json::obj(Workload::ALL.map(|w| (w.name(), Json::Num(w.scale_factor())))),
        ),
    ])
}

/// One metric × workload row of `agree`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    Disagree,
    /// A set's own quartile spread exceeds the bound: the pair cannot be told apart.
    Unresolved,
}

/// Two sets of values of one metric, compared.
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    /// B's median relative to A's, positive when B is the worse one.
    pub worse: f64,
    /// The larger of the two sets' own quartile spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn compare(metric: &Metric, a: &[f64], b: &[f64]) -> Comparison {
    let (ma, mb) = (median(a), median(b));
    let worse = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse.abs() > metric.bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    };
    Comparison {
        median_a: ma,
        median_b: mb,
        worse,
        spread,
        verdict,
    }
}

fn values_of(files: &[Json], workload: Workload, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload.name())?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// `agree A.json … -- B.json …`: do two sets of run files of one commit tell
/// the same story? Prints one row per end-to-end metric × workload; returns
/// whether no pair of a driver workload disagrees.
pub fn agree(set_a: &[Json], set_b: &[Json]) -> bool {
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread", "bound"
    );
    let mut ok = true;
    for w in Workload::ALL {
        for metric in END_TO_END {
            let (a, b) = (
                values_of(set_a, w, metric.name),
                values_of(set_b, w, metric.name),
            );
            if a.is_empty() || b.is_empty() {
                println!("{:<12} {:<18} missing from a set", w.name(), metric.name);
                ok = false;
                continue;
            }
            let c = compare(metric, &a, &b);
            // Workloads the driver does not run are compared but not held to the bounds.
            let bounded = DRIVER_WORKLOADS.contains(&w);
            ok &= !bounded || c.verdict != Verdict::Disagree;
            println!(
                "{:<12} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                w.name(),
                metric.name,
                c.median_a,
                c.median_b,
                c.worse * 100.0,
                c.spread * 100.0,
                metric.bound * 100.0,
                match c.verdict {
                    Verdict::Agree => "agree",
                    Verdict::Disagree if bounded => "DISAGREE",
                    Verdict::Disagree => "differ (workload not bounded)",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = metrics_json(
            END_TO_END,
            |name| if name == "setup_s" { 0.8127 } else { 1.2034 },
        );
        let line = result_line(true, 1000, 0, metrics);
        let parsed = Json::parse(&line.to_string()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let got = parsed.get("metrics").unwrap();
        assert_eq!(got.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            got.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.8127)
        );
        assert_eq!(
            got.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert_eq!(line.to_string().lines().count(), 1);
        assert_eq!(
            metrics_json(PER_LAYER, |_| 0.0).as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn compare_honours_direction_bound_and_spread() {
        let lower = Metric {
            name: "latency_ms_p50",
            unit: "ms",
            better: Better::Lower,
            bound: 0.05,
        };
        let higher = Metric {
            name: "throughput_ops_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.05,
        };
        // 2 % apart: agree.
        assert_eq!(
            compare(&lower, &[100.0, 100.5, 99.5], &[102.0, 102.5, 101.5]).verdict,
            Verdict::Agree
        );
        // 10 % slower: disagree, and the sign says B is worse.
        let c = compare(&lower, &[100.0, 100.5, 99.5], &[110.0, 110.5, 109.5]);
        assert!(c.worse > 0.09 && c.verdict == Verdict::Disagree);
        // 10 % more throughput in B: B is better, still a disagreement between equal commits.
        let c = compare(&higher, &[100.0, 100.5, 99.5], &[110.0, 110.5, 109.5]);
        assert!(c.worse < -0.09 && c.verdict == Verdict::Disagree);
        // A set that cannot repeat within the bound resolves nothing.
        assert_eq!(
            compare(&lower, &[80.0, 100.0, 120.0], &[110.0, 110.5, 109.5]).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn run_file_round_trips_through_values_of() {
        let file = Json::obj([
            ("header", header(42, 15.0)),
            (
                "workloads",
                Json::obj([(
                    "ssb_serial",
                    Json::obj([("end_to_end", metrics_json(END_TO_END, |_| 3.25))]),
                )]),
            ),
        ]);
        let parsed = Json::parse(&file.to_string()).unwrap();
        assert_eq!(parsed, file);
        assert_eq!(
            values_of(
                std::slice::from_ref(&parsed),
                Workload::SsbSerial,
                "peak_rss_mb"
            ),
            [3.25]
        );
        assert!(values_of(&[parsed], Workload::PointMix, "peak_rss_mb").is_empty());
        assert_eq!(
            file.get("header").unwrap().get("sites").unwrap().as_f64(),
            Some(4.0)
        );
    }
}
