//! `ic-fuzz` — deterministic differential fuzzing driver.
//!
//! Modes:
//!   --smoke [--max-secs N]   seed range 0..200 through all three oracles,
//!                            with periodic fresh-process determinism
//!                            re-checks and a minimizer self-test.
//!   --seeds A..B             run an explicit seed range.
//!   --replay SEED            re-run one scenario, print its digest.
//!   --replay-fixture PATH    replay a .fix reproducer file.
//!   --dml-smoke              DML write-stream seeds 0..60 through the
//!                            write-aware oracle, with determinism checks.
//!   --dml-seeds A..B         run an explicit DML seed range.
//!   --dml-replay SEED        re-run one DML scenario, print its digest.
//!
//! Every failure message leads with the governing seed; `--replay SEED`
//! reproduces the exact scenario byte-for-byte.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(clippy::disallowed_methods, reason = "the fuzz driver enforces its --max-secs wall-clock cap")]

use ic_fuzz::{minimize, Env, Fixture, Scenario};
use ic_sql::ast::{Query, TableRef};
use std::time::Instant;

const SMOKE_SEEDS: u64 = 200;
const DML_SMOKE_SEEDS: u64 = 60;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_secs: u64 = 600;
    let mut mode: Option<Mode> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => mode = Some(Mode::Seeds(0, SMOKE_SEEDS, true)),
            "--seeds" => {
                let spec = it.next().unwrap_or_else(|| usage("--seeds needs A..B"));
                let (a, b) = spec
                    .split_once("..")
                    .unwrap_or_else(|| usage("--seeds needs A..B"));
                let a = a.parse().unwrap_or_else(|_| usage("bad seed range"));
                let b = b.parse().unwrap_or_else(|_| usage("bad seed range"));
                mode = Some(Mode::Seeds(a, b, false));
            }
            "--replay" => {
                let s = it.next().unwrap_or_else(|| usage("--replay needs SEED"));
                mode = Some(Mode::Replay(s.parse().unwrap_or_else(|_| usage("bad seed"))));
            }
            "--replay-fixture" => {
                let p = it.next().unwrap_or_else(|| usage("--replay-fixture needs PATH"));
                mode = Some(Mode::Fixture(p.clone()));
            }
            "--dml-smoke" => mode = Some(Mode::DmlSeeds(0, DML_SMOKE_SEEDS, true)),
            "--dml-seeds" => {
                let spec = it.next().unwrap_or_else(|| usage("--dml-seeds needs A..B"));
                let (a, b) = spec
                    .split_once("..")
                    .unwrap_or_else(|| usage("--dml-seeds needs A..B"));
                let a = a.parse().unwrap_or_else(|_| usage("bad seed range"));
                let b = b.parse().unwrap_or_else(|_| usage("bad seed range"));
                mode = Some(Mode::DmlSeeds(a, b, false));
            }
            "--dml-replay" => {
                let s = it.next().unwrap_or_else(|| usage("--dml-replay needs SEED"));
                mode =
                    Some(Mode::DmlReplay(s.parse().unwrap_or_else(|_| usage("bad seed"))));
            }
            "--max-secs" => {
                let s = it.next().unwrap_or_else(|| usage("--max-secs needs N"));
                max_secs = s.parse().unwrap_or_else(|_| usage("bad --max-secs"));
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let code = match mode {
        Some(Mode::Seeds(a, b, smoke)) => run_seeds(a, b, smoke, max_secs),
        Some(Mode::Replay(seed)) => replay(seed),
        Some(Mode::Fixture(path)) => replay_fixture(&path),
        Some(Mode::DmlSeeds(a, b, smoke)) => run_dml_seeds(a, b, smoke, max_secs),
        Some(Mode::DmlReplay(seed)) => dml_replay(seed),
        None => usage("pick a mode"),
    };
    std::process::exit(code);
}

enum Mode {
    /// (from, to, is_smoke)
    Seeds(u64, u64, bool),
    Replay(u64),
    Fixture(String),
    /// (from, to, is_smoke)
    DmlSeeds(u64, u64, bool),
    DmlReplay(u64),
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "ic-fuzz: {msg}\n\
         usage: ic-fuzz --smoke [--max-secs N]\n\
         \x20      ic-fuzz --seeds A..B [--max-secs N]\n\
         \x20      ic-fuzz --replay SEED\n\
         \x20      ic-fuzz --replay-fixture PATH\n\
         \x20      ic-fuzz --dml-smoke [--max-secs N]\n\
         \x20      ic-fuzz --dml-seeds A..B [--max-secs N]\n\
         \x20      ic-fuzz --dml-replay SEED"
    );
    std::process::exit(2);
}

fn run_dml_seeds(from: u64, to: u64, smoke: bool, max_secs: u64) -> i32 {
    let t0 = Instant::now();
    let mut ran = 0u64;
    let mut failures = 0u64;
    let (mut refused_reads, mut failed_writes) = (0, 0);
    for seed in from..to {
        if t0.elapsed().as_secs() >= max_secs {
            println!(
                "WALL CAP: stopping after {ran}/{} DML scenarios ({max_secs}s budget); \
                 seeds {seed}..{to} not run",
                to - from
            );
            break;
        }
        let scenario = ic_fuzz::DmlScenario::from_seed(seed);
        let outcome = ic_fuzz::run_dml_scenario(&scenario);
        ran += 1;
        refused_reads += outcome.refused_reads;
        failed_writes += outcome.failed_writes;
        if let Some(d) = &outcome.disagreement {
            failures += 1;
            println!("DML FUZZ FAILURE seed={seed}\n{d}");
            println!("replay with: cargo run -p ic-fuzz -- --dml-replay {seed}");
            print_dml_minimized(seed);
        }
        // Replay determinism: same seed, fresh cluster, identical digest.
        if smoke && seed % 10 == 0 {
            let out2 = ic_fuzz::run_dml_scenario(&scenario);
            if out2.digest != outcome.digest {
                failures += 1;
                println!(
                    "DML FUZZ FAILURE seed={seed}: replay digest differs\n\
                     first:  {}\nsecond: {}",
                    outcome.digest, out2.digest
                );
            }
        }
    }
    println!(
        "ic-fuzz dml: {ran} scenarios, {failures} failures, {refused_reads} refused reads, \
         {failed_writes} failed writes, {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    if failures == 0 {
        0
    } else {
        1
    }
}

fn dml_replay(seed: u64) -> i32 {
    let scenario = ic_fuzz::DmlScenario::from_seed(seed);
    let outcome = ic_fuzz::run_dml_scenario(&scenario);
    println!("digest: {}", outcome.digest);
    match &outcome.disagreement {
        Some(d) => {
            println!("DML FUZZ FAILURE seed={seed}\n{d}");
            print_dml_minimized(seed);
            1
        }
        None => {
            println!("dml seed {seed}: write oracle agrees");
            0
        }
    }
}

/// Shrink a failing DML stream and print the minimal op list so the
/// failure log carries a ready-to-commit regression scenario.
fn print_dml_minimized(seed: u64) {
    let scenario = ic_fuzz::DmlScenario::from_seed(seed);
    let mut fails =
        |s: &ic_fuzz::DmlScenario| ic_fuzz::run_dml_scenario(s).disagreement.is_some();
    let (small, steps) = ic_fuzz::minimize_dml(&scenario, &mut fails);
    println!(
        "--- minimized DML scenario ({steps} shrink steps; save under tests/regressions/) ---"
    );
    println!("seed={} {}", small.seed, small.spec());
    println!("--- end scenario ---");
}

fn run_seeds(from: u64, to: u64, smoke: bool, max_secs: u64) -> i32 {
    let t0 = Instant::now();
    let mut env = Env::new();
    let mut ran = 0u64;
    let mut failures = 0u64;
    for seed in from..to {
        if t0.elapsed().as_secs() >= max_secs {
            println!(
                "WALL CAP: stopping after {ran}/{} scenarios ({max_secs}s budget); \
                 seeds {seed}..{to} not run",
                to - from
            );
            break;
        }
        let scenario = Scenario::from_seed(seed, &mut env);
        let outcome = ic_fuzz::run_scenario(&mut env, &scenario);
        ran += 1;
        if let Some(d) = &outcome.disagreement {
            failures += 1;
            println!("FUZZ FAILURE seed={seed}\n{d}");
            println!("replay with: cargo run -p ic-fuzz -- --replay {seed}");
            print_minimized(&mut env, seed);
        }
        // Fresh-environment replay: the digest (inputs + canonical
        // reference result) must be byte-identical, or seeds are not
        // reproducible and every fixture is worthless.
        if smoke && seed % 10 == 0 {
            let mut fresh = Env::new();
            let sc2 = Scenario::from_seed(seed, &mut fresh);
            let out2 = ic_fuzz::run_scenario(&mut fresh, &sc2);
            if out2.digest != outcome.digest {
                failures += 1;
                println!(
                    "FUZZ FAILURE seed={seed}: replay digest differs\n\
                     first:  {}\nsecond: {}",
                    outcome.digest, out2.digest
                );
            }
        }
    }
    println!(
        "ic-fuzz: {ran} scenarios, {failures} failures, {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    let minimizer_ok = if smoke { minimizer_selftest(&mut env) } else { true };
    if failures == 0 && minimizer_ok {
        0
    } else {
        1
    }
}

fn replay(seed: u64) -> i32 {
    let mut env = Env::new();
    let scenario = Scenario::from_seed(seed, &mut env);
    let outcome = ic_fuzz::run_scenario(&mut env, &scenario);
    println!("digest: {}", outcome.digest);
    match &outcome.disagreement {
        Some(d) => {
            println!("FUZZ FAILURE seed={seed}\n{d}");
            print_minimized(&mut env, seed);
            1
        }
        None => {
            println!("seed {seed}: all oracles agree");
            0
        }
    }
}

fn replay_fixture(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ic-fuzz: cannot read {path}: {e}");
            return 2;
        }
    };
    let fx = match Fixture::parse(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ic-fuzz: bad fixture {path}: {e}");
            return 2;
        }
    };
    let mut env = Env::new();
    match fx.replay(&mut env) {
        Ok(out) => match out.disagreement {
            Some(d) => {
                println!("FIXTURE FAILURE {path} (seed={})\n{d}", fx.seed);
                1
            }
            None => {
                println!("fixture {path}: all oracles agree");
                0
            }
        },
        Err(e) => {
            eprintln!("ic-fuzz: fixture {path} did not replay: {e}");
            2
        }
    }
}

/// On a real disagreement, shrink it and print the reproducer fixture so
/// the failure log carries a ready-to-commit regression test.
fn print_minimized(env: &mut Env, seed: u64) {
    let scenario = Scenario::from_seed(seed, env);
    let mut fails =
        |env: &mut Env, s: &Scenario| ic_fuzz::run_scenario(env, s).disagreement.is_some();
    let (small, steps) = minimize(env, &scenario, &mut fails);
    let out = ic_fuzz::run_scenario(env, &small);
    let notes = vec![
        format!("found by seed {seed}; minimized in {steps} steps"),
        format!(
            "disagreement: {}",
            out.disagreement.as_deref().unwrap_or("(no longer fails)").lines().next().unwrap_or("")
        ),
    ];
    let fx = Fixture::from_scenario(&small, &notes);
    println!("--- minimized reproducer (save under tests/regressions/) ---");
    print!("{}", fx.render());
    println!("--- end reproducer ---");
}

fn has_left_join(q: &Query) -> bool {
    fn in_ref(tr: &TableRef) -> bool {
        match tr {
            TableRef::Table { .. } => false,
            TableRef::Derived { query, .. } => has_left_join(query),
            TableRef::Join { left, right, kind, .. } => {
                matches!(kind, ic_sql::ast::AstJoinKind::Left)
                    || in_ref(left)
                    || in_ref(right)
            }
        }
    }
    q.from.iter().any(in_ref)
}

/// Minimizer self-test: inject a fake bug ("any scenario whose query has
/// a LEFT JOIN and returns rows is wrong" — the shape of the real ICPlusM
/// duplication bug this fuzzer found), shrink a rich failing scenario,
/// and require that (a) the shrink made real progress, (b) the minimal
/// scenario is still red under the injected oracle, and (c) its fixture
/// replays green through the real oracles.
fn minimizer_selftest(env: &mut Env) -> bool {
    let mut fails = |env: &mut Env, s: &Scenario| {
        if !has_left_join(&s.query) {
            return false;
        }
        match ic_fuzz::run_scenario(env, s) {
            out if out.disagreement.is_some() => false, // real failure: not our injected bug
            out => out.digest.contains("ref_rows=") && !out.digest.contains("ref_rows=0 "),
        }
    };
    // Find a seed exhibiting the injected bug with room to shrink.
    let mut picked = None;
    for seed in 0..SMOKE_SEEDS {
        let s = Scenario::from_seed(seed, env);
        let rich = s.query.where_clause.is_some()
            || s.query.order_by.len() + s.query.select.len() > 2
            || s.faults.is_some();
        if rich && has_left_join(&s.query) && fails(env, &s) {
            picked = Some(s);
            break;
        }
    }
    let Some(scenario) = picked else {
        println!("minimizer self-test: SKIP (no LEFT JOIN scenario in range)");
        return true;
    };
    let before = scenario.sql().len();
    let (small, steps) = minimize(env, &scenario, &mut fails);
    let after = small.sql().len();
    let still_red = fails(env, &small);
    let replay_green = Fixture::from_scenario(&small, &[])
        .replay(env)
        .map(|o| o.disagreement.is_none())
        .unwrap_or(false);
    let ok = steps > 0 && after < before && still_red && replay_green;
    println!(
        "minimizer self-test (seed {}): {} — {steps} shrink steps, sql {before}B -> {after}B, \
         injected-oracle still red: {still_red}, fixture replays green: {replay_green}",
        scenario.seed,
        if ok { "OK" } else { "FAILED" },
    );
    ok
}
