//! Harness integration: a miniature AQL run completes, the figures derive
//! correctly from a fixed point set, and a reduced record lands where a
//! smoke run may write.

use ic_bench::runner::{write_paper_record, Cell, RunPoint};
use ic_bench::{load_tpch, run_aql, MeasureOutcome, Sweep, SMOKE};
use ic_core::SystemVariant::{ICPlus, ICPlusM, IC};
use ic_core::{Cluster, ClusterConfig, SystemVariant};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mini_aql_run() {
    let cluster = Cluster::new(ClusterConfig {
        sites: 2,
        variant: SystemVariant::ICPlus,
        network: ic_core::NetworkConfig::instant(),
        ..ClusterConfig::test_default()
    });
    load_tpch(&cluster, 0.001, 42).unwrap();
    let cluster = Arc::new(cluster);
    let result = run_aql(&cluster, 2, Duration::from_millis(1500));
    assert!(result.completed > 0, "no queries completed");
    assert!(result.mean_latency > Duration::ZERO);
    // The AQL set avoids the baseline-failing queries, so nothing should
    // fail on the improved system either.
    assert_eq!(result.failed, 0, "{result:?}");
}

fn ms(ms: u64) -> Option<Duration> {
    Some(Duration::from_millis(ms))
}

/// Two scale factors × 4 sites × three systems × three queries: Q01 clean
/// everywhere, Q02 timing out on IC at the larger scale factor, Q03 hitting
/// the memory limit on IC+M at the smaller one.
fn fixed_points() -> Vec<RunPoint> {
    let ok = |ms: u64| MeasureOutcome::Ok(Duration::from_millis(ms));
    let table = [
        ("Q01", IC, ok(100), ok(300)),
        ("Q01", ICPlus, ok(40), ok(60)),
        ("Q01", ICPlusM, ok(20), ok(30)),
        ("Q02", IC, ok(50), MeasureOutcome::Timeout),
        ("Q02", ICPlus, ok(10), ok(30)),
        ("Q02", ICPlusM, ok(5), ok(15)),
        ("Q03", IC, ok(900), ok(1100)),
        ("Q03", ICPlus, ok(100), ok(150)),
        ("Q03", ICPlusM, MeasureOutcome::MemoryLimit, ok(150)),
    ];
    let mut points = Vec::new();
    for (query, variant, small, large) in table {
        for (sf, outcome) in [(0.01, small), (0.02, large)] {
            points.push(RunPoint { sf, sites: 4, variant, query: query.into(), outcome });
        }
    }
    points
}

#[test]
fn mean_times_marks_partial_failures() {
    let sweep = Sweep { tpch: fixed_points(), ..Sweep::default() };
    let outcomes = ic_bench::overall(&sweep.tpch);
    // Q01 averages both scale factors.
    assert_eq!(outcomes[&("Q01".to_string(), IC, 4)], Ok(Duration::from_millis(200)));
    // A query failing at any scale factor is failed overall (DNF), and says
    // where it first failed.
    assert_eq!(outcomes[&("Q02".to_string(), IC, 4)], Err("TIMEOUT@0.02".into()));
    assert_eq!(outcomes[&("Q03".to_string(), ICPlusM, 4)], Err("MEM-LIMIT@0.01".into()));

    let [(_, fig7), (_, fig8), (_, fig9_10), (_, fig11)] = sweep.figures();
    let queries = |f: &ic_bench::Figure| f.rows.iter().map(|r| r.0.clone()).collect::<Vec<_>>();
    let column = |f: &ic_bench::Figure, i: usize| f.rows.iter().map(|r| r.1[i]).collect::<Vec<_>>();
    let dnf = Cell { base: None, new: None };

    // Figure 7, IC → IC+: rows in sweep order; Q02's DNF on IC leaves IC+'s
    // time standing but yields no ratio and stays out of the mean.
    assert_eq!(queries(&fig7), ["Q01", "Q02", "Q03"]);
    assert_eq!(
        column(&fig7, 0),
        [
            Cell { base: ms(200), new: ms(50) },
            Cell { base: None, new: ms(20) },
            Cell { base: ms(1000), new: ms(125) },
        ]
    );
    let speedups = |f: &ic_bench::Figure| column(f, 0).iter().map(Cell::speedup).collect::<Vec<_>>();
    assert_eq!(speedups(&fig7), [Some(4.0), None, Some(8.0)]);
    let s = &fig7.summary[0];
    assert_eq!((s.sites, s.completed, s.attempted), (4, 2, 3));
    let close = |mean: Option<f64>, want: f64| (mean.unwrap() - want).abs() < 1e-9;
    assert!(close(s.geo_mean, 32f64.sqrt()));

    // Figure 8, IC → IC+M: a DNF on the *new* side is no ratio either, so
    // only Q01 is left.
    assert_eq!(speedups(&fig8), [Some(8.0), None, None]);
    assert_eq!(fig8.summary[0].completed, 1);
    assert!(close(fig8.summary[0].geo_mean, 8.0));

    // Figures 9/10, IC+ → IC+M: Q02 counts here, because both improved
    // systems finish it.
    assert_eq!(speedups(&fig9_10), [Some(2.0), Some(2.0), None]);
    assert_eq!(fig9_10.summary[0].completed, 2);
    assert!(close(fig9_10.summary[0].geo_mean, 2.0));

    // Nothing was measured at 8 sites or on SSB: all-DNF columns, no mean.
    assert_eq!(column(&fig7, 1), [dnf; 3]);
    assert_eq!((fig7.summary[1].sites, fig7.summary[1].geo_mean), (8, None));
    assert!(fig11.rows.is_empty());
}

#[test]
fn reduced_record_lands_under_target_bench_only() {
    let sweep = Sweep { tpch: fixed_points(), ..Sweep::default() };
    let path = write_paper_record(true, &SMOKE, &sweep).unwrap();
    assert_eq!(path, "target/bench/BENCH_paper.json");
    assert!(!std::path::Path::new("BENCH_paper.json").exists(), "a reduced run wrote the committed record");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    for key in ["\"host_cores\"", "\"git_rev\"", "\"protocol\"", "\"scale_factors\"", "\"figures\""] {
        assert_eq!(json.matches(key).count(), 1, "{key} in {json}");
    }
    assert!(json.find("\"host_cores\"") < json.find("\"protocol\""), "header comes first");
    let points: Vec<&str> = json.lines().filter(|l| l.contains("\"bench\": \"tpch\"")).collect();
    assert_eq!(points.len(), sweep.tpch.len());
    assert!(points[0].contains("\"query\": \"Q01\", \"outcome\": \"OK\", \"ms\": 100.000"), "{}", points[0]);
    assert!(points[7].contains("\"system\": \"IC\", \"query\": \"Q02\", \"outcome\": \"TIMEOUT\"}"), "{}", points[7]);
}
