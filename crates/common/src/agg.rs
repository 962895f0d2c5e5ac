//! Aggregate functions with map/partial/final decomposition.
//!
//! The executor runs aggregates in two modes mirroring Ignite's map-reduce
//! aggregation (§3.2, §5.3): a *complete* aggregate on one site, or a
//! *partial* aggregate on every partition followed by a *final* aggregate
//! that folds the partial states after an exchange. [`AggFunc`] owns the
//! state layout both sides agree on ([`AggFunc::state_width`]); the
//! executor keeps that state as typed columns (`ic-exec`'s group table).
//!
//! [`Accumulator`] is the row-at-a-time reference semantics, one value at a
//! time over [`Datum`]s: the oracles (the differential fuzzer's reference
//! evaluator, the kernel property tests) use it, and no engine code does.

use crate::datum::Datum;
use crate::error::{IcError, IcResult};
use crate::hash::FxHashSet;
use std::fmt;

/// Aggregate function kinds supported by the SQL frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// COUNT(expr) — counts non-NULL values.
    Count,
    /// COUNT(*) — counts rows regardless of NULLs.
    CountStar,
    /// COUNT(DISTINCT expr) — unsplittable (see [`AggFunc::splittable`]).
    CountDistinct,
    /// SUM(expr).
    Sum,
    /// AVG(expr).
    Avg,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
}

impl AggFunc {
    /// Whether the partial/final split is supported. COUNT DISTINCT must see
    /// all rows in one place, so it is a *reduction operator* in the paper's
    /// §5.3 sense and blocks the two-phase split and variant fragments.
    pub fn splittable(&self) -> bool {
        !matches!(self, AggFunc::CountDistinct)
    }

    /// Number of state columns a `Partial` aggregate ships per call: AVG's
    /// sum and count, one value for the rest. COUNT(DISTINCT) never ships a
    /// state; it counts as one for the plan validator's arithmetic.
    pub fn state_width(&self) -> usize {
        match self {
            AggFunc::Avg => 2,
            AggFunc::Count
            | AggFunc::CountStar
            | AggFunc::CountDistinct
            | AggFunc::Sum
            | AggFunc::Min
            | AggFunc::Max => 1,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::CountDistinct => "COUNT(DISTINCT)",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// Reference accumulator for one aggregate over one group, fed one
/// [`Datum`] at a time.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// Row/value count (COUNT and COUNT(*)).
    Count(i64),
    /// Running sum in the argument's type — Int adds wrapping, as Int
    /// arithmetic does — NULL until a value is seen (SUM of nothing is NULL).
    Sum(Datum),
    /// Running sum + count for AVG.
    Avg {
        /// Sum of inputs.
        sum: f64,
        /// Count of non-NULL inputs.
        count: i64,
    },
    /// Running minimum (None until a value is seen).
    Min(Option<Datum>),
    /// Running maximum (None until a value is seen).
    Max(Option<Datum>),
    /// Distinct-value set for COUNT(DISTINCT).
    Distinct(FxHashSet<Datum>),
}

impl Accumulator {
    /// Fresh accumulator for the function.
    pub fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count | AggFunc::CountStar => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum(Datum::Null),
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::CountDistinct => Accumulator::Distinct(FxHashSet::default()),
        }
    }

    /// Feed one input value; NULL counts for nothing. COUNT(*) is fed a
    /// non-NULL placeholder per row.
    pub fn update(&mut self, value: Datum) -> IcResult<()> {
        use std::cmp::Ordering::{Greater, Less};
        if value.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Count(c) => *c += 1,
            // Int adds wrapping, as Int arithmetic does.
            Accumulator::Sum(sum) => {
                *sum = match (&*sum, value) {
                    (Datum::Null, v @ (Datum::Int(_) | Datum::Double(_))) => v,
                    (Datum::Int(a), Datum::Int(b)) => Datum::Int(a.wrapping_add(b)),
                    (Datum::Double(a), Datum::Double(b)) => Datum::Double(a + b),
                    (_, v) => return Err(IcError::Exec(format!("SUM on non-numeric {v}"))),
                }
            }
            Accumulator::Avg { sum, count } => {
                let bad = || IcError::Exec(format!("AVG on non-numeric {value}"));
                *sum += value.as_double().ok_or_else(bad)?;
                *count += 1;
            }
            Accumulator::Min(best) => {
                if best.as_ref().is_none_or(|b| value.cmp(b) == Less) {
                    *best = Some(value);
                }
            }
            Accumulator::Max(best) => {
                if best.as_ref().is_none_or(|b| value.cmp(b) == Greater) {
                    *best = Some(value);
                }
            }
            Accumulator::Distinct(set) => {
                set.insert(value);
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finish(&self) -> Datum {
        match self {
            Accumulator::Count(c) => Datum::Int(*c),
            Accumulator::Sum(sum) => sum.clone(),
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Datum::Null
                } else {
                    Datum::Double(*sum / *count as f64)
                }
            }
            Accumulator::Min(b) | Accumulator::Max(b) => b.clone().unwrap_or(Datum::Null),
            Accumulator::Distinct(set) => Datum::Int(set.len() as i64),
        }
    }

    /// The `Partial` state columns' values, [`AggFunc::state_width`] of them.
    pub fn to_state(&self) -> Vec<Datum> {
        match self {
            Accumulator::Count(c) => vec![Datum::Int(*c)],
            Accumulator::Sum(sum) => vec![sum.clone()],
            Accumulator::Avg { sum, count } => vec![Datum::Double(*sum), Datum::Int(*count)],
            Accumulator::Min(b) | Accumulator::Max(b) => vec![b.clone().unwrap_or(Datum::Null)],
            Accumulator::Distinct(_) => {
                unreachable!("COUNT DISTINCT is never split into partial/final phases")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_ignores_nulls() {
        let mut a = Accumulator::new(AggFunc::Count);
        a.update(Datum::Int(1)).unwrap();
        a.update(Datum::Null).unwrap();
        a.update(Datum::Int(3)).unwrap();
        assert_eq!(a.finish(), Datum::Int(2));
    }

    #[test]
    fn sum_int_stays_int() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(Datum::Int(2)).unwrap();
        a.update(Datum::Null).unwrap();
        a.update(Datum::Int(3)).unwrap();
        assert!(matches!(a.finish(), Datum::Int(5)));
        let mut d = Accumulator::new(AggFunc::Sum);
        d.update(Datum::Double(0.5)).unwrap();
        assert!(matches!(d.finish(), Datum::Double(x) if x == 0.5));
        // The partial state is the running sum itself, NULL before a value.
        assert_eq!(Accumulator::new(AggFunc::Sum).to_state(), vec![Datum::Null]);
        assert!(d.update(Datum::str("x")).is_err());
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Datum::Null);
        assert_eq!(Accumulator::new(AggFunc::Avg).finish(), Datum::Null);
        assert_eq!(Accumulator::new(AggFunc::Min).finish(), Datum::Null);
        assert_eq!(Accumulator::new(AggFunc::Count).finish(), Datum::Int(0));
    }

    #[test]
    fn min_max() {
        let mut mn = Accumulator::new(AggFunc::Min);
        let mut mx = Accumulator::new(AggFunc::Max);
        for v in [3i64, 1, 4, 1, 5] {
            mn.update(Datum::Int(v)).unwrap();
            mx.update(Datum::Int(v)).unwrap();
        }
        assert_eq!(mn.finish(), Datum::Int(1));
        assert_eq!(mx.finish(), Datum::Int(5));
    }

    #[test]
    fn avg() {
        let mut a = Accumulator::new(AggFunc::Avg);
        for v in [1i64, 2, 3, 4] {
            a.update(Datum::Int(v)).unwrap();
        }
        assert_eq!(a.finish(), Datum::Double(2.5));
    }

    #[test]
    fn distinct() {
        let mut a = Accumulator::new(AggFunc::CountDistinct);
        for v in [1i64, 2, 2, 3, 3, 3] {
            a.update(Datum::Int(v)).unwrap();
        }
        assert_eq!(a.finish(), Datum::Int(3));
        assert!(!AggFunc::CountDistinct.splittable());
        assert!(AggFunc::Sum.splittable());
    }
}
