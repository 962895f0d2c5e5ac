//! The full benchmark dialect parses and binds: all 22 TPC-H and 13 SSB
//! query texts go through lexer → parser → binder against their real
//! schemas, pinning the SQL surface the paper's workload needs.

use ic_common::IcError;
use ic_sql::ast::Statement;
use ic_sql::{bind_statement, data_type_of, parse_sql};
use ic_storage::{Catalog, TableDistribution};
use std::sync::Arc;

/// Build a catalog directly from DDL text (mirrors ic-core's DDL handling
/// without depending on it).
fn catalog_from_ddl(ddl: &[&str]) -> Arc<Catalog> {
    let cat = Catalog::new(2, 0);
    for stmt in ddl {
        match parse_sql(stmt).unwrap() {
            Statement::CreateTable(ct) => {
                let fields: Vec<ic_common::Field> = ct
                    .columns
                    .iter()
                    .map(|(n, t)| ic_common::Field::new(n.clone(), data_type_of(t).unwrap()))
                    .collect();
                let schema = ic_common::Schema::new(fields);
                let pk: Vec<usize> =
                    ct.primary_key.iter().map(|c| schema.index_of(c).unwrap()).collect();
                let dist = if ct.replicated {
                    TableDistribution::Replicated
                } else {
                    let keys = ct
                        .partition_by
                        .as_ref()
                        .map(|cols| cols.iter().map(|c| schema.index_of(c).unwrap()).collect())
                        .unwrap_or_else(|| pk.clone());
                    TableDistribution::HashPartitioned { key_cols: keys }
                };
                cat.create_table(&ct.name, schema, pk, dist).unwrap();
            }
            other => panic!("expected CREATE TABLE, got {other:?}"),
        }
    }
    cat
}

#[test]
fn all_tpch_queries_parse_and_bind() {
    let cat = catalog_from_ddl(ic_benchdata::tpch::DDL);
    for q in 1..=22usize {
        let sql = ic_benchdata::tpch::query(q);
        let parsed = parse_sql(&sql);
        if q == 15 {
            // CREATE VIEW — unsupported, as in the paper.
            assert!(matches!(parsed, Err(IcError::Unsupported(_))), "Q15 should be unsupported");
            continue;
        }
        let Statement::Query(ast) = parsed.unwrap_or_else(|e| panic!("Q{q} parse: {e}")) else {
            panic!("Q{q}: expected a query");
        };
        let bound = bind_statement(&ast, &cat).unwrap_or_else(|e| panic!("Q{q} bind: {e}"));
        assert!(bound.plan.schema.arity() > 0, "Q{q} output schema");
        assert!(!bound.output_names.is_empty(), "Q{q} output names");
    }
}

#[test]
fn all_randomized_tpch_queries_bind() {
    use rand::SeedableRng;
    let cat = catalog_from_ddl(ic_benchdata::tpch::DDL);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for seed_round in 0..4 {
        for q in 1..=22usize {
            if ic_benchdata::tpch::EXCLUDED_UNSUPPORTED.contains(&q) {
                continue;
            }
            let sql = ic_benchdata::tpch::query_randomized(q, &mut rng);
            let Statement::Query(ast) = parse_sql(&sql).unwrap_or_else(|e| panic!("Q{q}: {e}"))
            else {
                panic!("Q{q}")
            };
            bind_statement(&ast, &cat)
                .unwrap_or_else(|e| panic!("round {seed_round} Q{q} bind: {e}\n{sql}"));
        }
    }
}

#[test]
fn all_ssb_queries_parse_and_bind() {
    let cat = catalog_from_ddl(ic_benchdata::ssb::DDL);
    for (id, sql) in ic_benchdata::ssb::QUERIES {
        let Statement::Query(ast) = parse_sql(sql).unwrap_or_else(|e| panic!("{id}: {e}")) else {
            panic!("{id}: expected query");
        };
        let bound = bind_statement(&ast, &cat).unwrap_or_else(|e| panic!("{id} bind: {e}"));
        assert!(bound.plan.schema.arity() >= 1, "{id}");
    }
}

#[test]
fn index_ddl_matches_schemas() {
    // Every index DDL statement references existing tables/columns.
    for (ddl, index_ddl) in [
        (ic_benchdata::tpch::DDL, ic_benchdata::tpch::INDEX_DDL),
        (ic_benchdata::ssb::DDL, ic_benchdata::ssb::INDEX_DDL),
    ] {
        let cat = catalog_from_ddl(ddl);
        for stmt in index_ddl {
            let Statement::CreateIndex(ci) = parse_sql(stmt).unwrap() else {
                panic!("expected CREATE INDEX: {stmt}");
            };
            let table = cat
                .table_by_name(&ci.table)
                .unwrap_or_else(|| panic!("unknown table in {stmt}"));
            let def = cat.table_def(table).unwrap();
            for col in &ci.columns {
                assert!(def.schema.index_of(col).is_some(), "unknown column {col} in {stmt}");
            }
        }
    }
}

#[test]
fn explain_statement_parses() {
    let Statement::Explain(q) = parse_sql("EXPLAIN SELECT 1 FROM part").unwrap() else {
        panic!("expected EXPLAIN");
    };
    assert_eq!(q.select.len(), 1);
}

#[test]
fn explain_analyze_statement_parses() {
    let Statement::ExplainAnalyze(q) =
        parse_sql("EXPLAIN ANALYZE SELECT 1 FROM part").unwrap() else {
        panic!("expected EXPLAIN ANALYZE");
    };
    assert_eq!(q.select.len(), 1);
    // ANALYZE is only a keyword after EXPLAIN; elsewhere it stays an ident.
    assert!(parse_sql("SELECT analyze FROM part").is_ok());
}
