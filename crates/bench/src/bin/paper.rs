//! The paper's evaluation (§6) as one run: Tables 1–2 from the live planner
//! code, then one sweep ([`ic_bench::run_sweep`]) that loads each (scale
//! factor, site count) cluster once and measures IC, IC+ and IC+M once each
//! — and the failure inventory (§1), Figures 7–10 (TPC-H), Table 3 (AQL)
//! and Figure 11 (SSB) all printed from those same points. Writes
//! `BENCH_paper.json`, the record `git diff` tracks figure shape with.
//!
//! `--smoke` runs the reduced protocol ([`ic_bench::SMOKE`]) and writes under
//! `target/bench/`; `--trace` also writes a Chrome trace per measured query
//! under `target/bench/traces/`. Exits non-zero unless every IC+ and IC+M
//! query of the sweep completes.

use ic_bench::runner::{write_paper_record, AQL_CLIENTS};
use ic_bench::{ms, overall, run_sweep, Figure, Sweep, FULL, SITES, SMOKE};
use ic_core::SystemVariant::{self, ICPlus, ICPlusM, IC};
use ic_plan::dist::{join_mappings, satisfies_dist, Distribution};
use ic_plan::JoinKind;
use std::time::Duration;

/// Tables 1 & 2 — the distribution satisfaction matrix and the join
/// distribution mappings, printed from the live implementation (also
/// pinned by unit tests in `ic-plan`).
fn print_tables_1_2() {
    let dists = [
        ("single", Distribution::Single),
        ("broadcast", Distribution::Broadcast),
        ("hash", Distribution::Hash(vec![0])),
    ];
    println!("=== Table 1: Distribution Satisfaction Matrix (source -> target) ===");
    println!("{:<12} {:>8} {:>10} {:>6}", "src\\tgt", "single", "broadcast", "hash");
    for (sname, s) in &dists {
        let row = dists.each_ref().map(|(_, t)| if satisfies_dist(s, t) { "Yes" } else { "No" });
        println!("{:<12} {:>8} {:>10} {:>6}", sname, row[0], row[1], row[2]);
    }
    println!("(hash->hash is Yes only for the same keys; hash->broadcast is No in a");
    println!(" zero-backup partitioned cache — the paper's footnote conditions)");

    println!("\n=== Table 2: Join Operator Distribution Mappings ===");
    for (label, enabled) in [("baseline (IC)", false), ("improved (IC+, §5.1.1)", true)] {
        println!("{label}:");
        for m in join_mappings(JoinKind::Inner, &[0], &[0], enabled) {
            println!("  {:<16} left={:?} right={:?}", m.name, m.left, m.right);
        }
    }
}

/// §1/§6: which TPC-H queries fail on which system and why, at 4 sites.
fn print_failure_inventory(sweep: &Sweep) {
    println!("\n=== Failure inventory (TPC-H, {} sites) ===", SITES[0]);
    println!("{:<5} {:>14} {:>14}", "query", "IC", "IC+");
    let outcomes = overall(&sweep.tpch);
    for q in 1..=22 {
        let query = format!("Q{q:02}");
        let label = |v| match outcomes.get(&(query.clone(), v, SITES[0])) {
            Some(Ok(mean)) => format!("{:.1} ms", ms(*mean)),
            Some(Err(failure)) => failure.clone(),
            None => "EXCLUDED".into(),
        };
        println!("{query}   {:>14} {:>14}", label(IC), label(ICPlus));
    }
    println!("(mean over the scale factors, or the first failure and the scale factor it");
    println!(" happened at; Q15/Q20 are outside the sweep, as in the paper's protocol)");
    println!("\npaper: Q15 views unsupported; Q20 planner bug; Q2/Q5/Q9 no plan on IC;");
    println!("Q17/Q19/Q21 exceed the runtime limit on IC; all six complete on IC+.");
}

/// The Figure 7 / 8 / 11 layout: both systems' times and the speedup, per
/// query and site count.
fn print_speedup_figure(title: &str, fig: &Figure) {
    let (base, new) = (fig.base.label(), fig.new.label());
    println!("\n=== {title} ===");
    println!(
        "{:<6} {}",
        "query",
        SITES
            .map(|s| format!("{:>10} {:>10} {:>8}", format!("{base}({s})"), format!("{new}({s})"), "speedup"))
            .join("  ")
    );
    let time = |t: Option<Duration>| t.map_or("DNF".into(), |d| format!("{:.1}", ms(d)));
    for (query, cells) in &fig.rows {
        let mut line = format!("{query:<6}");
        for cell in cells {
            let speedup = cell.speedup().map_or("-".into(), |r| format!("{r:.2}x"));
            line += &format!(" {:>10} {:>10} {speedup:>8}", time(cell.base), time(cell.new));
        }
        println!("{line}");
    }
    for s in &fig.summary {
        if let Some(g) = s.geo_mean {
            println!(
                "geometric-mean speedup @{} sites: {g:.2}x over {} of {} queries",
                s.sites, s.completed, s.attempted
            );
        }
    }
    println!("(times in ms; DNF = did not finish: plan failure, timeout or unsupported)");
}

/// Figures 9 & 10: the same IC+ → IC+M comparison, one site count at a
/// time, as the percentage multithreading adds on top of IC+.
fn print_fig9_10(fig: &Figure) {
    for (i, name) in ["Figure 9", "Figure 10"].into_iter().enumerate() {
        let sites = SITES[i];
        println!(
            "\n=== {name}: IC+ vs IC+M ({sites} sites) — incremental effect of multithreading ==="
        );
        println!("{:<6} {:>10} {:>10} {:>9}", "query", "IC+ (ms)", "IC+M (ms)", "change");
        for (query, cells) in &fig.rows {
            match (cells[i].base, cells[i].new, cells[i].speedup()) {
                (Some(b), Some(n), Some(r)) => println!(
                    "{query:<6} {:>10.1} {:>10.1} {:>+8.1}%",
                    ms(b),
                    ms(n),
                    (r - 1.0) * 100.0
                ),
                _ => println!("{query:<6} {:>10} {:>10} {:>9}", "DNF", "DNF", "-"),
            }
        }
        println!("(positive = multithreading helped; the paper reports +15–35% for");
        println!(" distributed-computation-heavy queries and slight regressions for");
        println!(" reduction-operator / root-fragment-bound queries)");
    }
}

/// Table 3 — average query latency per (clients, sites) for the three
/// systems, the six baseline-failing queries disabled as in §6.3.
fn print_table3(sweep: &Sweep) {
    println!("\n=== Table 3: Average Query Latency ===");
    println!("{:<8} {:<6} {:>10} {:>10} {:>10}", "clients", "sites", "IC", "IC+", "IC+M");
    for sites in SITES {
        for clients in AQL_CLIENTS {
            let cell = |v: SystemVariant| {
                sweep
                    .aql
                    .iter()
                    .find(|p| (p.sites, p.clients, p.variant) == (sites, clients, v))
                    .map_or("-".into(), |p| format!("{:.3}s", p.result.mean_latency.as_secs_f64()))
            };
            println!(
                "{clients:<8} {sites:<6} {:>10} {:>10} {:>10}",
                cell(IC),
                cell(ICPlus),
                cell(ICPlusM)
            );
        }
    }
    println!("(the paper reports 20–40% AQL reductions for IC+/IC+M over IC, with");
    println!(" IC+M losing its edge as clients exceed CPU cores)");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = std::env::args().any(|a| a == "--trace");
    let protocol = if smoke { &SMOKE } else { &FULL };
    eprintln!("# protocol: {protocol:?}");

    print_tables_1_2();
    let sweep = run_sweep(protocol, trace);
    let [(_, fig7), (_, fig8), (_, fig9_10), (_, fig11)] = sweep.figures();
    print_failure_inventory(&sweep);
    print_speedup_figure("Figure 7: IC+ vs IC per-query response time (TPC-H)", &fig7);
    print_speedup_figure("Figure 8: IC+M vs IC per-query response time (TPC-H)", &fig8);
    print_fig9_10(&fig9_10);
    print_table3(&sweep);
    print_speedup_figure("Figure 11: SSB per-query performance, IC vs IC+M", &fig11);
    println!("QS2/QS4 excluded per §6.4 (planner search-space limits)");

    let path = write_paper_record(smoke, protocol, &sweep).expect("write BENCH_paper.json");
    println!("\nwrote {path}");

    let improved = sweep.tpch.iter().chain(&sweep.ssb).filter(|p| p.variant != IC);
    let unfinished = improved.filter(|p| p.outcome.ok_time().is_none()).count();
    if unfinished > 0 {
        eprintln!("{unfinished} IC+ / IC+M measurements did not complete (see the log above)");
        std::process::exit(1);
    }
}
