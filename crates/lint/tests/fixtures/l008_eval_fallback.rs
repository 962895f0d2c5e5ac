//! L008/L012 fixture: the expression evaluator is a kernel root. Linted as
//! `crates/common/src/eval.rs`, a per-row fallback — every selected row
//! rebuilt as a `Row` of `Datum`s and run through a row interpreter — trips
//! the same rules that keep `ic_exec::kernels` columnar; linted anywhere
//! else in ic-common it does not.

pub fn eval_fallback(e: &Expr, batch: &ColumnBatch) -> IcResult<Arc<Column>> {
    let mut b = ColumnBuilder::new();
    for k in 0..batch.num_rows() {
        let mut row = vec![Datum::Null; batch.width()];
        for c in e.columns() {
            row[c] = batch.datum_at(c, k);
        }
        b.push_datum(e.eval(&Row(row))?);
    }
    Ok(Arc::new(b.finish()))
}

pub fn per_row(n: usize, mut f: impl FnMut(usize) -> IcResult<Datum>) -> IcResult<Column> {
    let mut b = ColumnBuilder::new();
    for i in 0..n {
        // ic-lint: allow(L008) because the fixture demonstrates a justified per-row callback
        b.push_datum(f(i)?);
    }
    Ok(b.finish())
}

/// A loop over CASE arms, not rows: the evaluator re-enters itself once
/// per arm, and a root reached that way is not a per-element helper.
pub fn case(arms: &[Expr], batch: &ColumnBatch) -> IcResult<Vec<Arc<Column>>> {
    let mut out = Vec::new();
    for arm in arms {
        out.push(eval_arm(arm, batch)?);
    }
    Ok(out)
}

pub fn eval_arm(arm: &Expr, batch: &ColumnBatch) -> IcResult<Arc<Column>> {
    let rows: Vec<u32> = (0..batch.num_rows() as u32).collect();
    eval_fallback(arm, &batch.select_logical(&rows))
}
