//! DML routing: the partition pin of a bound write.
//!
//! The pin is the DML counterpart of the Volcano distribution traits: the
//! table's partitioning trait plus the predicate's determined columns
//! decide whether an `UPDATE` / `DELETE` takes the single-partition fast
//! path (Ignite's keyed `put`/`remove`). Everything else about how a write
//! fans out is `ic_storage::execute_dml`'s.

use ic_common::{BinOp, ColumnBatch, DataType, Datum, Expr, IcError, IcResult, Row};
use ic_plan::dml::{BoundDml, DmlPlan};
use ic_storage::{Catalog, TableDistribution, WriteOp};

/// Plan a bound DML statement: pinned to one partition when its predicate
/// fixes a hash-partitioned table's whole distribution key, unpinned
/// otherwise (inserts are split per row by the write engine, and a
/// replicated table has no partitions).
pub fn plan_dml(catalog: &Catalog, stmt: BoundDml) -> IcResult<DmlPlan> {
    let def = catalog
        .table_def(stmt.table)
        .ok_or_else(|| IcError::Plan(format!("unknown table {}", stmt.table)))?;
    let partition = match (&def.distribution, &stmt.op) {
        (
            TableDistribution::HashPartitioned { key_cols },
            WriteOp::Update { predicate: Some(predicate), .. } | WriteOp::Delete { predicate: Some(predicate) },
        ) => pin_partition(catalog, predicate, key_cols, &def),
        _ => None,
    };
    Ok(DmlPlan::new(stmt, partition))
}

/// If `predicate` pins every distribution-key column to a literal (a
/// conjunction of `col = lit` terms), hash the pinned key to its partition:
/// the routing hash of a one-row batch of the key columns' types, as the
/// write path routes the row itself.
fn pin_partition(
    catalog: &Catalog,
    predicate: &Expr,
    key_cols: &[usize],
    def: &ic_storage::TableDef,
) -> Option<usize> {
    let mut pinned: Vec<Option<Datum>> = vec![None; def.schema.arity()];
    collect_equalities(predicate, &mut pinned);
    let mut key = Vec::with_capacity(key_cols.len());
    for &k in key_cols {
        let mut value = pinned.get_mut(k)?.take()?;
        if !value.fit_to(def.schema.field(k).dtype) {
            return None;
        }
        key.push(value);
    }
    let types: Vec<DataType> = key_cols.iter().map(|&k| def.schema.field(k).dtype).collect();
    let batch = ColumnBatch::from_typed_rows(&types, &[Row(key)]);
    let cols: Vec<usize> = (0..key_cols.len()).collect();
    let map = catalog.membership().snapshot();
    Some(map.partition_of_hash(batch.hash_keys(&cols)[0]))
}

/// Walk the top-level AND tree collecting `col = literal` bindings. A
/// column equated to two different literals keeps the first; the predicate
/// is still evaluated row-by-row at apply time, so over-approximation here
/// only costs the fast path, never correctness — except that contradictory
/// pins would route to a partition where the predicate matches nothing,
/// which is also correct (zero rows affected).
fn collect_equalities(e: &Expr, pinned: &mut [Option<Datum>]) {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            collect_equalities(left, pinned);
            collect_equalities(right, pinned);
        }
        Expr::Binary { op: BinOp::Eq, left, right } => match (&**left, &**right) {
            (Expr::Col(c), Expr::Lit(d)) | (Expr::Lit(d), Expr::Col(c)) => {
                if let Some(slot) = pinned.get_mut(*c) {
                    if slot.is_none() && !d.is_null() {
                        *slot = Some(d.clone());
                    }
                }
            }
            _ => {}
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Field, Schema};
    use ic_storage::TableId;
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, TableId, TableId) {
        let cat = Catalog::new(4, 1);
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let part = cat
            .create_table(
                "t",
                schema.clone(),
                vec![0],
                TableDistribution::HashPartitioned { key_cols: vec![0] },
            )
            .unwrap();
        let repl = cat.create_table("r", schema, vec![0], TableDistribution::Replicated).unwrap();
        (cat, part, repl)
    }

    fn key_eq(id: i64) -> Expr {
        Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Lit(Datum::Int(id))),
        }
    }

    #[test]
    fn keyed_delete_pins_single_partition() {
        let (cat, part, _) = setup();
        let plan = plan_dml(
            &cat,
            BoundDml { table: part, op: WriteOp::Delete { predicate: Some(key_eq(17)) } },
        )
        .unwrap();
        let key = ColumnBatch::from_rows(&[Row(vec![Datum::Int(17)])]);
        let expected = cat.membership().snapshot().partition_of_hash(key.hash_keys(&[0])[0]);
        assert_eq!(plan.pinned_partition(), Some(expected));
    }

    #[test]
    fn conjunction_with_key_still_pins() {
        let (cat, part, _) = setup();
        let pred = Expr::Binary {
            op: BinOp::And,
            left: Box::new(key_eq(3)),
            right: Box::new(Expr::Binary {
                op: BinOp::Gt,
                left: Box::new(Expr::Col(1)),
                right: Box::new(Expr::Lit(Datum::Int(0))),
            }),
        };
        let plan = plan_dml(
            &cat,
            BoundDml {
                table: part,
                op: WriteOp::Update {
                    assignments: vec![(1, Expr::Lit(Datum::Int(9)))],
                    predicate: Some(pred),
                },
            },
        )
        .unwrap();
        assert!(plan.pinned_partition().is_some());
    }

    #[test]
    fn non_key_predicate_scatters() {
        let (cat, part, _) = setup();
        let pred = Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::Col(1)),
            right: Box::new(Expr::Lit(Datum::Int(5))),
        };
        let plan = plan_dml(
            &cat,
            BoundDml { table: part, op: WriteOp::Delete { predicate: Some(pred) } },
        )
        .unwrap();
        assert_eq!(plan.pinned_partition(), None);
        // An unpredicated delete scatters too.
        let plan = plan_dml(
            &cat,
            BoundDml { table: part, op: WriteOp::Delete { predicate: None } },
        )
        .unwrap();
        assert_eq!(plan.pinned_partition(), None);
    }

    #[test]
    fn replicated_routes_broadcast_and_inserts_scatter() {
        let (cat, part, repl) = setup();
        let plan = plan_dml(
            &cat,
            BoundDml { table: repl, op: WriteOp::Delete { predicate: Some(key_eq(1)) } },
        )
        .unwrap();
        assert_eq!(plan.pinned_partition(), None);
        let plan = plan_dml(
            &cat,
            BoundDml {
                table: part,
                op: WriteOp::Insert {
                    rows: ColumnBatch::from_rows(&[Row(vec![Datum::Int(1), Datum::Int(2)])]),
                },
            },
        )
        .unwrap();
        assert_eq!(plan.pinned_partition(), None);
    }
}
