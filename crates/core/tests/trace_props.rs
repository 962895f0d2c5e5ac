//! Property tests for query-level tracing: across randomized table sizes,
//! group cardinalities, and query shapes (scans, filters, co-located and
//! redistributing joins, partial/final aggregation, sorts), every traced
//! execution yields a well-formed span tree — every span closed, intervals
//! nested inside their parents — with all five span categories present,
//! per-operator actuals that agree with the result, and Chrome JSON that
//! stays structurally sound.

use ic_common::{Datum, Row};
use ic_core::{Cluster, ClusterConfig};
use proptest::prelude::*;
use std::collections::HashSet;

fn traced_cluster(rows: i64, groups: i64) -> Cluster {
    traced_cluster_with(ClusterConfig::test_default(), rows, groups)
}

fn traced_cluster_with(config: ClusterConfig, rows: i64, groups: i64) -> Cluster {
    let cluster = Cluster::new(config);
    cluster
        .run("CREATE TABLE fact (id BIGINT, grp BIGINT, val BIGINT, PRIMARY KEY (id))")
        .unwrap();
    cluster.run("CREATE TABLE dim (grp BIGINT, name VARCHAR, PRIMARY KEY (grp))").unwrap();
    let fact: Vec<Row> = (0..rows)
        .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % groups), Datum::Int(i * 7 % 101)]))
        .collect();
    let dim: Vec<Row> =
        (0..groups).map(|g| Row(vec![Datum::Int(g), Datum::str(format!("g{g}"))])).collect();
    cluster.insert("fact", fact).unwrap();
    cluster.insert("dim", dim).unwrap();
    cluster.analyze_all().unwrap();
    cluster
}

/// The query shapes the executor can produce, parameterized so each case
/// exercises a different plan tree.
fn query_shape(shape: usize, groups: i64) -> String {
    match shape % 5 {
        0 => "SELECT * FROM fact".into(),
        1 => format!("SELECT id, val FROM fact WHERE grp < {}", (groups / 2).max(1)),
        // Redistributing join: dim is keyed by grp, fact by id, so joining
        // on grp forces an exchange.
        2 => "SELECT name, count(*) AS n FROM fact INNER JOIN dim ON fact.grp = dim.grp \
              GROUP BY name"
            .into(),
        3 => "SELECT grp, sum(val) AS s FROM fact GROUP BY grp ORDER BY grp".into(),
        _ => "SELECT fact.id, dim.name FROM fact INNER JOIN dim ON fact.grp = dim.grp \
              ORDER BY fact.id LIMIT 50"
            .into(),
    }
}

proptest! {
    // Each case builds a cluster and runs a full distributed query.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn traced_queries_yield_wellformed_span_trees(
        rows in 1i64..400,
        groups in 1i64..20,
        shape in 0usize..5,
    ) {
        let cluster = traced_cluster(rows, groups);
        let sql = query_shape(shape, groups);
        let (result, trace) = cluster.query_traced(0, &sql);
        let result = result.expect("traced query");

        // Span tree: closed, nested, categorized.
        trace.validate().expect("span tree well-formed");
        prop_assert_eq!(trace.open_spans(), 0);
        let cats: HashSet<&'static str> = trace.spans().iter().map(|s| s.cat).collect();
        for cat in ["query", "plan", "exec", "fragment", "operator"] {
            prop_assert!(cats.contains(cat), "missing span category {} for {}", cat, sql);
        }

        // Per-operator actuals: the root operator's recorded row count is
        // exactly what the client received.
        let attempt = trace.attempts().into_iter().last().expect("one attempt");
        prop_assert_eq!(attempt.rows(0), result.rows.len() as u64);

        // Renderers stay sound on every shape.
        let sink = ic_common::obs::TraceSink::new(trace);
        let text = sink.explain_analyze().expect("explain analyze");
        for line in text.lines() {
            prop_assert!(
                line.contains("rows est=") && line.contains(" act="),
                "unannotated plan line: {}", line
            );
        }
        let json = sink.chrome_json();
        prop_assert_eq!(json.matches('{').count(), json.matches('}').count());
        prop_assert!(json.starts_with("{\"traceEvents\":["));
    }

    // Morsel-parallel pipelines: with a multi-worker pool and tiny morsels,
    // region operators run as lane replicas on `worker @sN #i` lanes, which
    // pull morsels from one shared queue in whatever order they get there.
    // The span tree must stay well-formed, and every operator span recorded
    // on a worker lane — whichever morsels its lane pulled — must parent
    // to the owning pipeline's *fragment* span, never to another worker's
    // span or to a different fragment.
    #[test]
    fn morsel_parallel_spans_attribute_to_fragment(
        rows in 1i64..600,
        groups in 1i64..20,
        shape in 0usize..5,
        threads in 2usize..4,
    ) {
        let config = ClusterConfig {
            worker_threads: threads,
            morsel_rows: 128,
            ..ClusterConfig::test_default()
        };
        let cluster = traced_cluster_with(config, rows, groups);
        let sql = query_shape(shape, groups);
        let (result, trace) = cluster.query_traced(0, &sql);
        result.expect("traced query");

        trace.validate().expect("span tree well-formed");
        prop_assert_eq!(trace.open_spans(), 0);

        let lanes = trace.lanes();
        let spans = trace.spans();
        let by_id: std::collections::HashMap<_, _> =
            spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            let lane_name = &lanes[s.lane as usize];
            if !lane_name.starts_with("worker @") {
                continue;
            }
            prop_assert_eq!(
                s.cat, "operator",
                "non-operator span `{}` on worker lane {}", s.name, lane_name
            );
            let parent = s.parent.and_then(|p| by_id.get(&p).copied());
            let parent = parent.unwrap_or_else(|| {
                panic!("worker-lane span `{}` has no parent", s.name)
            });
            prop_assert_eq!(
                parent.cat, "fragment",
                "worker-lane span `{}` parents to `{}` ({}), not a fragment span",
                s.name, parent.name, parent.cat
            );
        }
    }
}

/// Guard against the proptest above passing vacuously: a scan big enough
/// to split into many morsels per site must actually record operator spans
/// on worker lanes.
#[test]
fn worker_lanes_record_operator_spans() {
    let config = ClusterConfig {
        worker_threads: 3,
        morsel_rows: 128,
        ..ClusterConfig::test_default()
    };
    let cluster = traced_cluster_with(config, 900, 10);
    let (result, trace) = cluster.query_traced(0, "SELECT id, val FROM fact WHERE val >= 0");
    result.expect("traced query");
    trace.validate().expect("span tree well-formed");
    let lanes = trace.lanes();
    let worker_spans = trace
        .spans()
        .into_iter()
        .filter(|s| lanes[s.lane as usize].starts_with("worker @"))
        .count();
    assert!(worker_spans > 0, "no operator spans recorded on worker lanes");
}
