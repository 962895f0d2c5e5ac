//! Property tests for query-level tracing: across randomized table sizes,
//! group cardinalities, and query shapes (scans, filters, co-located and
//! redistributing joins, partial/final aggregation, sorts), every traced
//! execution yields a well-formed span tree — every span closed, intervals
//! nested inside their parents — with all five span categories present,
//! per-operator actuals that agree with the result, and Chrome JSON that
//! stays structurally sound.

use ic_common::{Datum, FxHashMap, FxHashSet, Row};
use ic_core::{Cluster, ClusterConfig, SystemVariant};
use proptest::prelude::*;

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
        let cats: FxHashSet<&'static str> = trace.spans().iter().map(|s| s.cat).collect();
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

    // IC+M's variant fragments: each variant instance of a fragment is a
    // driver with its own trace lane (`fN @sM vK`). The span tree must stay
    // well-formed, and every operator span on a variant instance's lane must
    // parent to that instance's own fragment span — never to another
    // variant's, or to another fragment's.
    #[test]
    fn variant_spans_attribute_to_their_fragment(
        rows in 1i64..600,
        groups in 1i64..20,
        shape in 0usize..5,
    ) {
        let config = ClusterConfig { variant: SystemVariant::ICPlusM, ..ClusterConfig::test_default() };
        let cluster = traced_cluster_with(config, rows, groups);
        let sql = query_shape(shape, groups);
        let (result, trace) = cluster.query_traced(0, &sql);
        result.expect("traced query");

        trace.validate().expect("span tree well-formed");
        prop_assert_eq!(trace.open_spans(), 0);

        let lanes = trace.lanes();
        let spans = trace.spans();
        let by_id: FxHashMap<_, _> =
            spans.iter().map(|s| (s.id, s)).collect();
        for s in spans.iter().filter(|s| s.cat == "operator") {
            let lane_name = &lanes[s.lane as usize];
            if !is_variant_lane(lane_name) {
                continue;
            }
            let parent = s.parent.and_then(|p| by_id.get(&p).copied());
            let parent = parent.unwrap_or_else(|| {
                panic!("variant-lane span `{}` has no parent", s.name)
            });
            let own = format!("fragment {lane_name}");
            prop_assert_eq!(
                &parent.name, &own,
                "span `{}` on lane {} parents to `{}` ({})", s.name, lane_name, parent.name, parent.cat
            );
        }
    }
}

/// A variant instance's driver lane: `f{fragment} @{site} p{partition}
/// v{variant}`, without ` p{partition}` for an instance at the coordinator.
fn is_variant_lane(name: &str) -> bool {
    let Some((f, v)) = name.rsplit_once(" v") else { return false };
    let f = f.rsplit_once(" p").filter(|(_, p)| p.parse::<usize>().is_ok()).map_or(f, |(f, _)| f);
    f.starts_with('f') && f.contains(" @site") && v.parse::<usize>().is_ok()
}

/// Guard against the proptest above passing vacuously: on IC+M a scan
/// fragment runs as two variant instances per site, and the second one must
/// actually record operator spans on its own lane.
#[test]
fn variant_lanes_record_operator_spans() {
    let config = ClusterConfig { variant: SystemVariant::ICPlusM, ..ClusterConfig::test_default() };
    let cluster = traced_cluster_with(config, 900, 10);
    let (result, trace) = cluster.query_traced(0, "SELECT id, val FROM fact WHERE val >= 0");
    result.expect("traced query");
    trace.validate().expect("span tree well-formed");
    let lanes = trace.lanes();
    let second_variant_spans = trace
        .spans()
        .into_iter()
        .filter(|s| s.cat == "operator" && lanes[s.lane as usize].ends_with(" v1"))
        .count();
    assert!(second_variant_spans > 0, "no operator spans recorded on a second variant's lane: {lanes:?}");
}
