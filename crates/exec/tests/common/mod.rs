//! Shared by the operator and kernel property tests: a brute-force oracle
//! over `Vec<Row>` that shares no code with the engine's join emitter or
//! group table, and a source that feeds operators tiny, irregular batches.

#![allow(dead_code)]

use ic_common::agg::Accumulator;
use ic_common::{ColumnBatch, DataType, Datum, Expr, IcResult, Row};
use ic_exec::operators::{BoxedSource, RowSource};
use ic_plan::ops::{AggCall, AggPhase, JoinKind};

/// Reference join: nested loops and `Expr::eval_filter`, one joined row at a
/// time. Output is in left order with each left row's matches in right order
/// — the order every engine join must produce.
pub fn join_oracle(l: &[Row], r: &[Row], kind: JoinKind, on: &Expr, right_arity: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for lr in l {
        let matches: Vec<Row> =
            r.iter().map(|rr| lr.concat(rr)).filter(|j| on.eval_filter(j).unwrap()).collect();
        match kind {
            JoinKind::Inner => out.extend(matches),
            JoinKind::Left if matches.is_empty() => {
                out.push(lr.concat(&Row(vec![Datum::Null; right_arity])));
            }
            JoinKind::Left => out.extend(matches),
            JoinKind::Semi if !matches.is_empty() => out.push(lr.clone()),
            JoinKind::Anti if matches.is_empty() => out.push(lr.clone()),
            JoinKind::Semi | JoinKind::Anti => {}
        }
    }
    out
}

/// Reference `Complete`/`Partial` aggregate: a linear search for each row's
/// group by the key order's tie (`Datum::cmp`, under which NaNs are one
/// key), feeding `Accumulator`s row by row. Groups come
/// out in first-seen order — hash aggregation's slot order, and input order
/// for a streaming aggregate over sorted input.
pub fn agg_oracle(rows: &[Row], group: &[usize], aggs: &[AggCall], phase: AggPhase) -> Vec<Row> {
    let fresh = || aggs.iter().map(|a| Accumulator::new(a.func)).collect::<Vec<_>>();
    let mut groups: Vec<(Vec<Datum>, Vec<Accumulator>)> = Vec::new();
    for row in rows {
        let key: Vec<Datum> = group.iter().map(|&c| row.0[c].clone()).collect();
        let slot = groups.iter().position(|(k, _)| k.cmp(&key).is_eq()).unwrap_or_else(|| {
            groups.push((key, fresh()));
            groups.len() - 1
        });
        for (acc, call) in groups[slot].1.iter_mut().zip(aggs) {
            let v = call.arg.as_ref().map_or(Ok(Datum::Int(1)), |e| e.eval(row)).unwrap();
            acc.update(v).unwrap();
        }
    }
    // A scalar aggregate emits one row even on empty input.
    if group.is_empty() && groups.is_empty() {
        groups.push((vec![], fresh()));
    }
    groups
        .into_iter()
        .map(|(mut out, accs)| {
            for acc in &accs {
                match phase {
                    AggPhase::Partial => out.extend(acc.to_state()),
                    _ => out.push(acc.finish()),
                }
            }
            Row(out)
        })
        .collect()
}

/// A source replaying pre-cut batches, so inputs reach an operator in
/// chunks far smaller than `BATCH_SIZE`.
pub struct BatchesSource(pub std::collections::VecDeque<ColumnBatch>);

impl RowSource for BatchesSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        Ok(self.0.pop_front())
    }
}

/// A row no property generates, of the column types of `rows`: -1, false
/// or "decoy" in each column's type (NULL where the column holds none).
fn decoy(rows: &[Row]) -> Row {
    let value = |c: usize| match rows.iter().find_map(|r| r.0[c].data_type()) {
        Some(DataType::Int) => Datum::Int(-1),
        Some(DataType::Double) => Datum::Double(-1.0),
        Some(DataType::Date) => Datum::Date(-1),
        Some(DataType::Bool) => Datum::Bool(false),
        Some(DataType::Str) => Datum::str("decoy"),
        None => Datum::Null,
    };
    Row((0..rows[0].arity()).map(value).collect())
}

/// Cut `rows` into batches of the given sizes (cycled). Every other batch is
/// a selection view over a physically larger batch, so cursors must resolve
/// logical rows through the selection.
pub fn chunked_src(rows: &[Row], sizes: &[usize]) -> BoxedSource {
    let mut batches = std::collections::VecDeque::new();
    let (mut at, mut i) = (0, 0);
    while at < rows.len() {
        let n = sizes[i % sizes.len()].min(rows.len() - at);
        let piece = &rows[at..at + n];
        if i % 2 == 0 {
            batches.push_back(ColumnBatch::from_rows(piece));
        } else {
            // Physical layout: a decoy row before each real row.
            let decoy = decoy(piece);
            let padded: Vec<Row> = piece.iter().flat_map(|r| [decoy.clone(), r.clone()]).collect();
            let sel = (0..n as u32).map(|k| 2 * k + 1).collect();
            batches.push_back(ColumnBatch::from_rows(&padded).with_sel(sel));
        }
        at += n;
        i += 1;
    }
    Box::new(BatchesSource(batches))
}
