//! Result comparison and error classification for the three oracles.
//!
//! Rows are compared as unordered multisets (generated ORDER BY is only a
//! partial order, and distributed merge order is nondeterministic): both
//! sides are sorted by a canonical string key and then compared pairwise
//! with a small relative tolerance on doubles, the same regime the chaos
//! tests use. When a LIMIT actually truncated the result (reference row
//! count hit the limit), only counts are compared — which rows survive a
//! truncation under a partial order is implementation-defined.
//!
//! Errors are classified into [`ErrorClass`]es. In a fault-free run every
//! engine error except a *resource* verdict is a bug; under faults any
//! [`ErrorClass::Retryable`] or [`ErrorClass::Resource`] outcome is an
//! allowed refusal, while wrong rows, panics, and [`IcError::Internal`]
//! remain disagreements.

use ic_common::{Datum, IcError, Row};

/// What an engine outcome means to the differential harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Site loss / failover exhaustion / shedding / lease revocation —
    /// legitimate refusals under faults or pressure.
    Retryable,
    /// Deterministic resource verdicts (timeout, memory, planner budget):
    /// allowed per variant; a plan may legitimately exceed a budget.
    Resource,
    /// The frontend rejected the statement. A generator/dialect gap when
    /// the local bind succeeded — surfaced as a disagreement then.
    Rejected,
    /// Engine invariant broken — always a disagreement.
    Bug,
}

/// Classify an [`IcError`] by what the harness should do with it.
pub fn classify(err: &IcError) -> ErrorClass {
    match err {
        IcError::SiteUnavailable { .. }
        | IcError::RetriesExhausted { .. }
        | IcError::Overloaded { .. }
        | IcError::ResourcesRevoked { .. }
        | IcError::WriteConflict { .. }
        | IcError::RebalanceInProgress { .. } => ErrorClass::Retryable,
        IcError::ExecTimeout { .. }
        | IcError::MemoryLimit { .. }
        | IcError::PlannerBudgetExceeded { .. } => ErrorClass::Resource,
        IcError::Parse(_)
        | IcError::Bind(_)
        | IcError::Plan(_)
        | IcError::Unsupported(_)
        | IcError::Catalog(_) => ErrorClass::Rejected,
        // `Cancelled` is a thread's sight of a stop, never a query's result.
        IcError::Exec(_) | IcError::Internal(_) | IcError::Cancelled => ErrorClass::Bug,
    }
}

/// Canonical sort key for a row: every datum stringified, doubles at
/// fixed precision so equal-within-tolerance values collate together.
fn row_key(row: &Row) -> String {
    let mut key = String::new();
    for d in &row.0 {
        match d {
            Datum::Double(v) => key.push_str(&format!("{v:.6}")),
            other => key.push_str(&other.to_string()),
        }
        key.push('\u{1}');
    }
    key
}

fn datum_close(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Double(x), Datum::Double(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-6 * scale
        }
        // Mixed Int/Double appears when an optimized plan folds an integer
        // expression the unoptimized plan computes in floating point.
        (Datum::Int(x), Datum::Double(y)) | (Datum::Double(y), Datum::Int(x)) => {
            (*x as f64 - y).abs() <= 1e-6 * y.abs().max(1.0)
        }
        _ => a == b,
    }
}

/// Compare two result sets as unordered multisets with double tolerance.
/// Returns a human-readable description of the first difference.
pub fn compare_rows(left: &[Row], right: &[Row]) -> Result<(), String> {
    if left.len() != right.len() {
        return Err(format!("row count mismatch: {} vs {}", left.len(), right.len()));
    }
    let mut ls: Vec<&Row> = left.iter().collect();
    let mut rs: Vec<&Row> = right.iter().collect();
    ls.sort_by_key(|r| row_key(r));
    rs.sort_by_key(|r| row_key(r));
    for (i, (l, r)) in ls.iter().zip(&rs).enumerate() {
        if l.0.len() != r.0.len() {
            return Err(format!(
                "arity mismatch at sorted row {i}: {} vs {} columns",
                l.0.len(),
                r.0.len()
            ));
        }
        for (c, (a, b)) in l.0.iter().zip(&r.0).enumerate() {
            if !datum_close(a, b) {
                return Err(format!("sorted row {i} col {c}: {a} vs {b}"));
            }
        }
    }
    Ok(())
}

/// Compare an engine result against the reference, honouring `limit`:
/// when the reference row count shows the LIMIT actually truncated,
/// only the (post-truncation) counts must match.
pub fn compare_limited(
    reference: &[Row],
    engine: &[Row],
    limit: Option<u64>,
) -> Result<(), String> {
    if let Some(n) = limit {
        if reference.len() as u64 == n {
            return if engine.len() as u64 == n {
                Ok(())
            } else {
                Err(format!(
                    "LIMIT {n}: reference kept {} rows, engine kept {}",
                    reference.len(),
                    engine.len()
                ))
            };
        }
    }
    compare_rows(reference, engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[Datum]) -> Row {
        Row(vals.to_vec())
    }

    #[test]
    fn unordered_multiset_with_tolerance() {
        let a = vec![
            row(&[Datum::Int(1), Datum::Double(3.0000001)]),
            row(&[Datum::Int(2), Datum::Null]),
        ];
        let b = vec![
            row(&[Datum::Int(2), Datum::Null]),
            row(&[Datum::Int(1), Datum::Double(3.0)]),
        ];
        assert!(compare_rows(&a, &b).is_ok());
        let c = vec![
            row(&[Datum::Int(2), Datum::Null]),
            row(&[Datum::Int(1), Datum::Double(3.1)]),
        ];
        assert!(compare_rows(&a, &c).is_err());
    }

    #[test]
    fn limit_truncation_compares_counts_only() {
        let reference = vec![row(&[Datum::Int(1)]), row(&[Datum::Int(2)])];
        let engine = vec![row(&[Datum::Int(2)]), row(&[Datum::Int(3)])];
        // limit=2 and reference hit it: rows may differ, counts must not.
        assert!(compare_limited(&reference, &engine, Some(2)).is_ok());
        // no limit: full comparison fails.
        assert!(compare_limited(&reference, &engine, None).is_err());
    }

    #[test]
    fn classification() {
        assert_eq!(
            classify(&IcError::SiteUnavailable { site: 1, detail: "x".into() }),
            ErrorClass::Retryable
        );
        assert_eq!(classify(&IcError::MemoryLimit { limit_rows: 1 }), ErrorClass::Resource);
        assert_eq!(classify(&IcError::Bind("x".into())), ErrorClass::Rejected);
        assert_eq!(classify(&IcError::Internal("x".into())), ErrorClass::Bug);
        assert_eq!(classify(&IcError::Cancelled), ErrorClass::Bug);
    }
}
