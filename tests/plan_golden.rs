//! The benchmark's plans as a golden: `EXPLAIN` of the 20 TPC-H and 7 SSB
//! (QS1 + QS3) statements on a 4-site cluster over scale-factor 0.01 data
//! of seed 42, one file per variant under `tests/plans/`. IC's planner
//! errors are recorded as their message. A change anywhere between the
//! binder and the physical plan — a rule, a cost, a selectivity, a
//! statistic — shows here as a diff, statement by statement.
//!
//! `UPDATE_GOLDEN=1 cargo test --test plan_golden` rewrites the files.

use ignite_calcite_rs::benchdata::{ssb, tpch, TableData};
use ignite_calcite_rs::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use std::fmt::Write as _;
use std::path::PathBuf;

const SF: f64 = 0.01;
const SITES: usize = 4;
const SEED: u64 = 42;

fn loaded(ddl: &[&[&str]], tables: Vec<TableData>) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: SITES,
        network: NetworkConfig::instant(),
        ..ClusterConfig::default()
    });
    for stmt in ddl.iter().copied().flatten() {
        cluster.run(stmt).unwrap();
    }
    for t in tables {
        cluster.insert(t.name, t.rows).unwrap();
    }
    cluster.analyze_all().unwrap();
    cluster
}

/// Each statement's label and its `EXPLAIN` (or planner error) on
/// `cluster`, as the golden file's text.
fn render(cluster: &Cluster, statements: &[(String, String)], out: &mut String) {
    for (label, sql) in statements {
        writeln!(out, "== {label}").unwrap();
        match cluster.explain(sql) {
            Ok(plan) => out.push_str(&plan),
            Err(e) => writeln!(out, "error: {e}").unwrap(),
        }
        out.push('\n');
    }
}

fn golden_path(variant: SystemVariant) -> PathBuf {
    let name = match variant {
        SystemVariant::IC => "ic",
        SystemVariant::ICPlus => "ic_plus",
        SystemVariant::ICPlusM => "ic_plus_m",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/plans").join(format!("{name}.txt"))
}

/// The first statement whose section differs between two renderings.
fn first_difference(want: &str, got: &str) -> String {
    let sections = |s: &str| s.split("== ").map(str::to_owned).collect::<Vec<_>>();
    let (want, got) = (sections(want), sections(got));
    let differing = want.iter().zip(&got).find(|(w, g)| w != g);
    match differing {
        Some((w, g)) => format!("--- golden\n{w}+++ now\n{g}"),
        None => format!("{} statements in the golden, {} now", want.len() - 1, got.len() - 1),
    }
}

#[test]
fn benchmark_plans_match_the_golden() {
    let tpch_statements: Vec<(String, String)> = (1..=22)
        .filter(|q| !tpch::EXCLUDED_UNSUPPORTED.contains(q))
        .map(|q| (format!("TPC-H Q{q}"), tpch::query(q)))
        .collect();
    let ssb_statements: Vec<(String, String)> = ssb::QUERIES
        .iter()
        .filter(|(id, _)| id.starts_with("Q1") || id.starts_with("Q3"))
        .map(|(id, sql)| (format!("SSB {id}"), sql.to_string()))
        .collect();
    assert_eq!((tpch_statements.len(), ssb_statements.len()), (20, 7));
    let tpch = loaded(&[tpch::DDL, tpch::INDEX_DDL], tpch::generate(SF, SEED));
    let ssb = loaded(&[ssb::DDL, ssb::INDEX_DDL], ssb::generate(SF, SEED));
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let mut stale = Vec::new();
    for variant in SystemVariant::all() {
        let mut got = String::new();
        render(&tpch.with_variant(variant), &tpch_statements, &mut got);
        render(&ssb.with_variant(variant), &ssb_statements, &mut got);
        let path = golden_path(variant);
        if update {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (UPDATE_GOLDEN=1 writes it)", path.display()));
        if want != got {
            stale.push(format!("{}:\n{}", path.display(), first_difference(&want, &got)));
        }
    }
    assert!(stale.is_empty(), "plans differ from the golden (UPDATE_GOLDEN=1 rewrites it):\n{}", stale.join("\n"));
}
