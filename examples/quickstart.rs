//! Quickstart: create a cluster, define a schema, load rows, and run the
//! paper's running example (Figure 1, Query A) on all three system
//! variants — then, on IC+, let the query and a write explain themselves
//! (`EXPLAIN ANALYZE`, `query_traced`, `dml_traced`).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ignite_calcite_rs::common::obs::Trace;
use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, Row, SystemVariant};

/// The coordinator's spans of a traced statement, indented by nesting.
fn print_stages(trace: &Trace) {
    let mut spans = trace.spans();
    spans.sort_by_key(|s| s.id.0); // a parent's id precedes its children's
    let mut depth = std::collections::HashMap::new();
    for s in &spans {
        let d: usize = s.parent.map_or(0, |p| depth[&p] + 1);
        depth.insert(s.id, d);
        if s.lane == Trace::COORD_LANE && s.cat != "operator" {
            let us = (s.end_ns - s.start_ns) / 1000;
            println!("  {}{} {us} µs {:?}", "  ".repeat(d), s.name, s.args);
        }
    }
}

fn main() {
    for variant in SystemVariant::all() {
        let cluster = Cluster::new(ClusterConfig {
            sites: 4,
            variant,
            ..ClusterConfig::default()
        });

        // Figure 1's schema: employee(id, name), sales(sale_id, emp_id, amount).
        cluster
            .run("CREATE TABLE employee (id BIGINT, name VARCHAR, PRIMARY KEY (id))")
            .expect("create employee");
        cluster
            .run(
                "CREATE TABLE sales (sale_id BIGINT, emp_id BIGINT, amount DOUBLE, \
                 PRIMARY KEY (sale_id))",
            )
            .expect("create sales");

        let employees: Vec<Row> = (0..1000)
            .map(|i| Row(vec![Datum::Int(i), Datum::str(format!("employee-{i}"))]))
            .collect();
        let sales: Vec<Row> = (0..20_000)
            .map(|i| {
                Row(vec![Datum::Int(i), Datum::Int(i % 1000), Datum::Double((i % 500) as f64)])
            })
            .collect();
        cluster.insert("employee", employees).unwrap();
        cluster.insert("sales", sales).unwrap();
        cluster.analyze_all().unwrap();

        // Query A from Figure 1.
        let sql = "SELECT * FROM employee INNER JOIN sales \
                   ON employee.id = sales.emp_id WHERE employee.id = 10";
        let result = cluster.query(sql).expect("query A");
        println!(
            "[{}] Query A: {} rows in {:?} ({} fragments, {} threads, {} net msgs)",
            variant.label(),
            result.rows.len(),
            result.total_time(),
            result.stats.fragments,
            result.stats.threads,
            result.stats.net_messages,
        );

        // And its physical plan — compare how the variants differ.
        println!("{}", cluster.explain(sql).unwrap());

        if variant == SystemVariant::ICPlus {
            // The same plan with what each operator actually did; its header
            // says the plan was the one cached by the query above.
            println!("{}", cluster.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap().to_table());
            // …and where a read's and a write's time went, stage by stage: a
            // statement shape is planned the first time it is seen, and its
            // template bound (`plan [cache = 1]`, no optimizer stage) from
            // then on, whatever the literals.
            for id in [10, 11] {
                let sql = format!(
                    "SELECT * FROM employee INNER JOIN sales ON employee.id = sales.emp_id \
                     WHERE employee.id = {id} ORDER BY sale_id"
                );
                let (read, trace) = cluster.query_traced(0, &sql);
                println!("traced read: {} rows", read.expect("traced read").rows.len());
                print_stages(&trace);
            }
            let (write, trace) =
                cluster.dml_traced(0, "UPDATE sales SET amount = amount + 1 WHERE emp_id = 10");
            println!("traced write: {} rows", write.expect("traced write").rows_affected);
            print_stages(&trace);
            println!();
        }
    }
}
