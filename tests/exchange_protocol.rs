//! The exchange protocol end to end, read off the engine's own trace: over
//! the TPC-H queries on IC+ and IC+M, no link pays for a bare end marker
//! behind data it already carried, and the `shipped=` figures of an
//! attempt's Exchange nodes are that attempt's `QueryStats` traffic.

use ignite_calcite_rs::benchdata::tpch;
use ignite_calcite_rs::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use std::collections::BTreeMap;
use std::time::Duration;

/// Wire size of `Msg::End`.
const END_MARKER_BYTES: u64 = 8;

#[test]
fn end_of_stream_rides_the_last_batch_and_exchanges_account_for_the_traffic() {
    let plus = Cluster::new(ClusterConfig {
        sites: 4,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(60)),
        ..ClusterConfig::default()
    });
    for ddl in tpch::DDL.iter().chain(tpch::INDEX_DDL) {
        plus.run(ddl).unwrap();
    }
    for t in tpch::generate(0.002, 42) {
        plus.insert(t.name, t.rows).unwrap();
    }
    plus.analyze_all().unwrap();
    let plus_m = plus.with_variant(SystemVariant::ICPlusM);
    let variants = SystemVariant::ICPlusM.flags().variant_fragments;

    let mut markers_seen = 0;
    for (cluster, variants) in [(&plus, 1), (&plus_m, variants)] {
        for q in (1..=22).filter(|q| !tpch::EXCLUDED_UNSUPPORTED.contains(q)) {
            let label = format!("Q{q} on {}", cluster.variant().label());
            let (result, trace) = cluster.query_traced(0, &tpch::query(q));
            let result = result.unwrap_or_else(|e| panic!("{label}: {e}"));

            // (producer instance = sending lane, destination site) →
            // (data messages, bare end markers). A destination hosts one
            // endpoint per consumer variant; under a splitter all but the
            // one that takes the flushed rows end on a bare marker, under a
            // duplicator (and on IC+) none may.
            let mut links: BTreeMap<(u32, u64), (usize, usize)> = BTreeMap::new();
            let (mut span_msgs, mut span_bytes) = (0u64, 0u64);
            for span in trace.spans().iter().filter(|s| s.cat == "net") {
                let arg = |name| span.args.iter().find(|(k, _)| *k == name).unwrap().1;
                assert_ne!(arg("src"), arg("dst"), "{label}: a same-site hand-off was traced");
                let link = links.entry((span.lane, arg("dst"))).or_default();
                if arg("bytes") == END_MARKER_BYTES {
                    link.1 += 1;
                } else {
                    link.0 += 1;
                }
                span_msgs += 1;
                span_bytes += arg("bytes");
            }
            for ((lane, dst), (data, markers)) in links {
                let allowed = if data > 0 { variants - 1 } else { variants };
                assert!(
                    markers <= allowed,
                    "{label}: lane {lane} -> s{dst}: {markers} end markers beside {data} data messages"
                );
                markers_seen += markers;
            }

            // Sender-side accounting: the attempt's Exchange nodes sum to its
            // traffic, which is what the trace's transfer spans recorded too.
            let attempt = trace.attempts().pop().expect("one attempt");
            let (mut msgs, mut bytes) = (0, 0);
            for (node, meta) in attempt.ops().iter().enumerate() {
                let node = node as u32;
                let shipped = (attempt.shipped_msgs(node), attempt.shipped_bytes(node));
                assert!(
                    meta.label.starts_with("Exchange") || shipped == (0, 0),
                    "{label}: {} shipped {shipped:?}",
                    meta.label
                );
                msgs += shipped.0;
                bytes += shipped.1;
            }
            assert_eq!(
                (msgs, bytes),
                (result.stats.net_messages, result.stats.net_bytes),
                "{label}: shipped= vs QueryStats"
            );
            assert_eq!((msgs, bytes), (span_msgs, span_bytes), "{label}: shipped= vs xfer spans");
            assert!(msgs > 0, "{label}: a 4-site query ships something");
        }
    }
    // The check above can tell a marker from data: some link did carry one.
    assert!(markers_seen > 0, "no bare end marker seen on any link");
}
