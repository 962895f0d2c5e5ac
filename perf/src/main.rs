//! `ic-perf` — the repo's benchmark. See README.md for what every metric
//! means and how to read a run.
//!
//! ```text
//! ic-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of stdout is the result as JSON
//! ic-perf run [--seed <n>] [--seconds <s>] [--smoke]
//!     all four workloads, each in its own child process, untraced then
//!     traced; writes <target>/perf/run-<seed>.json
//! ic-perf agree A.json [A2.json ...] -- B.json [B2.json ...]
//!     do two sets of run files agree within the end-to-end bounds?
//! ```

mod json;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod workload;

use json::Json;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::{Command, ExitCode, Stdio};
use workload::Workload;

/// `--smoke`: each workload cut to about four seconds, for the edit loop.
const SMOKE_SECONDS: f64 = 4.0;
/// Share of `--seconds` a traced run spends in the untraced section that
/// gives the reference latencies; the replay, traced pass and probes follow.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.35;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn main() -> ExitCode {
    // The engine charges simulated network time by sleeping. Linux rounds a
    // normal thread's sleeps up by as much as its 50 µs timer slack, at the
    // kernel's convenience, which adds a quarter to every 200 µs message and
    // varies from run to run. Threads inherit the slack of the thread that
    // starts them, so setting it here makes the model charge what it states.
    // Best effort: without the file the numbers are just noisier.
    let _ = std::fs::write("/proc/self/timerslack_ns", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("agree") => agree(&args[1..]),
        Some(_) if flag(&args, "--workload").is_some() => one_workload(&args),
        _ => Err(
            "usage: ic-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                  ic-perf run [--seed <n>] [--seconds <s>] [--smoke]\n       \
                  ic-perf agree A.json ... -- B.json ..."
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ic-perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// Enough ops for a stream workload to outlast `seconds` on a host several
/// times faster than the reference (point ops take ~3 ms, AQL queries ~55).
fn op_budget(workload: Workload, seconds: f64) -> usize {
    let per_second = if workload == Workload::PointMix {
        2000.0
    } else {
        200.0
    };
    (seconds * per_second) as usize + 4 * workload.pass_len()
}

/// Contract mode: measure one workload and print its result line.
fn one_workload(args: &[String]) -> Result<bool, String> {
    let name: String = parse(args, "--workload", None)?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = parse(args, "--seed", None)?;
    let seconds: f64 = parse(args, "--seconds", None)?;
    let trace = match parse::<u8>(args, "--trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }

    let mut setup = run::set_up(workload, seed, op_budget(workload, seconds))?;
    let counters_before = layers::Counters::read(&setup.cluster);
    let timed_seconds = if trace {
        seconds * TRACED_RUN_UNTRACED_SHARE
    } else {
        seconds
    };
    let mut timed = run::timed_section(&mut setup, timed_seconds);
    let counters = layers::Counters::read(&setup.cluster).since(counters_before);
    let mut end_to_end = spec::Values::new();
    // Without one complete pass there is nothing to report.
    let measured = run::end_to_end(workload, &timed, &mut end_to_end);

    let (table, values) = if trace {
        let mut values: spec::Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        layers::from_timed(&timed, counters, &mut values);
        // The tail is reported here, unbounded: see README, *Demoted*.
        values.extend(
            end_to_end
                .get_key_value("latency_ms_p95")
                .map(|(k, v)| (*k, *v)),
        );
        let mut spans = layers::Spans::new();
        layers::measure(&mut setup, &mut timed, &mut spans, &mut values);
        let (_, tables) = run::after_timing(&setup, &mut timed, 0);
        layers::data_probes(&setup, &tables, &mut values);
        let path = report::write_file(
            &format!("{}.trace.json", workload.name()),
            &spans.chrome_json(),
        )
        .map_err(|e| format!("writing the trace: {e}"))?;
        println!("benchmark spans: {}", path.display());
        (PER_LAYER, values)
    } else {
        let (extra, _) = run::after_timing(&setup, &mut timed, run::SETUP_REPS - 1);
        let mut setups = vec![setup.setup_s];
        setups.extend(extra);
        end_to_end.insert("setup_s", stats::median(&setups));
        (END_TO_END, end_to_end)
    };
    let value_of = |name: &str| values.get(name).copied().unwrap_or(0.0);

    for m in &timed.messages {
        eprintln!("ic-perf: {}: {m}", workload.name());
    }
    let correct = timed.failed == 0 && measured;

    let samples = timed.records.len();
    println!(
        "{} seed {seed}: {samples} ops in {} complete passes, {:.2} s timed; percentiles are per pass \
         ({} ops), median over passes; the pooled sample supports up to p{}",
        workload.name(),
        run::passes(workload, &timed.records).len(),
        timed.wall_s,
        workload.pass_len(),
        stats::supported_percentile(samples).map_or("-".into(), |p| p.to_string()),
    );
    let medians = run::class_medians(workload, &timed.records);
    for (class, (name, ms)) in workload.classes().iter().zip(medians).enumerate() {
        if let Some(ms) = ms {
            let n = timed.records.iter().filter(|r| r.class == class).count();
            println!("  {name:<8} median {ms:>10.3} ms  (n = {n})");
        }
    }
    for m in table {
        println!("  {:<34} {:>16.4} {}", m.name, value_of(m.name), m.unit);
    }
    let metrics = report::metrics_json(table, value_of);
    println!(
        "{}",
        report::result_line(correct, timed.attempted.max(1), timed.failed, metrics)
    );
    Ok(correct)
}

/// Run one workload in a child process and parse the result line it prints.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no output", workload.name()))?;
    Json::parse(line).map_err(|e| format!("{}: result line: {e}", workload.name()))
}

/// All four workloads, each in its own process (so one workload's heap never
/// reaches another's resident set), untraced then traced.
fn run_all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parse(args, "--seed", Some(42))?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    };
    let seconds: f64 = parse(args, "--seconds", Some(default_seconds))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let end_to_end = child(w, seed, seconds, false)?;
        let per_layer = child(w, seed, seconds, true)?;
        let correct = [&end_to_end, &per_layer]
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let part = |r: &Json, key: &str| r.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            w.name(),
            Json::obj([
                ("why", Json::str(spec::why(w))),
                ("correct", Json::Bool(correct)),
                ("attempted", part(&end_to_end, "attempted")),
                ("failed", part(&end_to_end, "failed")),
                ("end_to_end", part(&end_to_end, "metrics")),
                ("per_layer", part(&per_layer, "metrics")),
            ]),
        ));
    }
    let doc = Json::obj([
        ("header", report::header(seed, seconds)),
        ("workloads", Json::obj(workloads)),
    ]);
    let name = if smoke {
        format!("smoke-{seed}.json")
    } else {
        format!("run-{seed}.json")
    };
    let path = report::write_file(&name, &doc).map_err(|e| format!("writing the run file: {e}"))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn agree(args: &[String]) -> Result<bool, String> {
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut sets = args.split(|a| a == "--");
    let set_a: Vec<Json> = sets
        .next()
        .unwrap_or(&[])
        .iter()
        .map(read)
        .collect::<Result<_, _>>()?;
    let set_b: Vec<Json> = sets
        .next()
        .unwrap_or(&[])
        .iter()
        .map(read)
        .collect::<Result<_, _>>()?;
    if set_a.is_empty() || set_b.is_empty() {
        return Err("agree needs two sets of run files: A.json ... -- B.json ...".into());
    }
    Ok(report::agree(&set_a, &set_b))
}
