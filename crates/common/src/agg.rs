//! Aggregate functions with map/partial/final decomposition.
//!
//! The executor runs aggregates in two modes mirroring Ignite's map-reduce
//! aggregation (§3.2, §5.3): a *complete* aggregate on one site, or a
//! *partial* aggregate on every partition followed by a *final* aggregate
//! that merges the partial accumulator states after an exchange.

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

/// Runtime accumulator for one aggregate over one group.
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

    /// Feed one input value. `count_star` accumulators receive a non-null
    /// placeholder from the executor.
    #[inline]
    // ic-lint: allow(L012) because format! runs only in the terminal type-mismatch error arms, never on the per-element happy path
    pub fn update(&mut self, value: Datum) -> IcResult<()> {
        match self {
            Accumulator::Count(c) => {
                if !value.is_null() {
                    *c += 1;
                }
            }
            Accumulator::Sum(sum) => add_to_sum(sum, value)
                .map_err(|v| IcError::Exec(format!("SUM on non-numeric {v}")))?,
            Accumulator::Avg { sum, count } => match value {
                Datum::Null => {}
                other => {
                    let d = other
                        .as_double()
                        .ok_or_else(|| IcError::Exec(format!("AVG on non-numeric {other}")))?;
                    *sum += d;
                    *count += 1;
                }
            },
            Accumulator::Min(best) => {
                if !value.is_null()
                    && best.as_ref().is_none_or(|b| value.sql_cmp(b) == Some(std::cmp::Ordering::Less))
                {
                    *best = Some(value);
                }
            }
            Accumulator::Max(best) => {
                if !value.is_null()
                    && best
                        .as_ref()
                        .is_none_or(|b| value.sql_cmp(b) == Some(std::cmp::Ordering::Greater))
                {
                    *best = Some(value);
                }
            }
            Accumulator::Distinct(set) => {
                if !value.is_null() {
                    set.insert(value);
                }
            }
        }
        Ok(())
    }

    /// Merge another accumulator of the same shape (the *final* phase).
    pub fn merge(&mut self, other: Accumulator) -> IcResult<()> {
        match (self, other) {
            (Accumulator::Count(a), Accumulator::Count(b)) => *a += b,
            (Accumulator::Sum(a), Accumulator::Sum(b)) => add_to_sum(a, b)
                .map_err(|v| IcError::Exec(format!("mismatched SUM state {v}")))?,
            (Accumulator::Avg { sum: a, count: ca }, Accumulator::Avg { sum: b, count: cb }) => {
                *a += b;
                *ca += cb;
            }
            (Accumulator::Min(a), Accumulator::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv.sql_cmp(av) == Some(std::cmp::Ordering::Less)) {
                        *a = Some(bv);
                    }
                }
            }
            (Accumulator::Max(a), Accumulator::Max(b)) => {
                if let Some(bv) = b {
                    if a
                        .as_ref()
                        .is_none_or(|av| bv.sql_cmp(av) == Some(std::cmp::Ordering::Greater))
                    {
                        *a = Some(bv);
                    }
                }
            }
            (Accumulator::Distinct(a), Accumulator::Distinct(b)) => a.extend(b),
            _ => return Err(IcError::Exec("mismatched accumulator merge".into())),
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

    /// Serialize the accumulator state into datums for shipping between the
    /// partial and final phases (the exchange carries these as row columns).
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

    /// Number of state columns `to_state` produces for a function.
    pub fn state_width(func: AggFunc) -> usize {
        match func {
            AggFunc::Avg => 2,
            AggFunc::Count
            | AggFunc::CountStar
            | AggFunc::Sum
            | AggFunc::Min
            | AggFunc::Max
            | AggFunc::CountDistinct => 1,
        }
    }

    /// Rebuild an accumulator from shipped state columns.
    pub fn from_state(func: AggFunc, state: &[Datum]) -> IcResult<Accumulator> {
        let bad = || IcError::Exec(format!("bad {func} accumulator state"));
        Ok(match func {
            AggFunc::Count | AggFunc::CountStar => {
                Accumulator::Count(state[0].as_int().ok_or_else(bad)?)
            }
            AggFunc::Sum => Accumulator::Sum(state[0].clone()),
            AggFunc::Avg => Accumulator::Avg {
                sum: state[0].as_double().ok_or_else(bad)?,
                count: state[1].as_int().ok_or_else(bad)?,
            },
            AggFunc::Min => Accumulator::Min(if state[0].is_null() {
                None
            } else {
                Some(state[0].clone())
            }),
            AggFunc::Max => Accumulator::Max(if state[0].is_null() {
                None
            } else {
                Some(state[0].clone())
            }),
            AggFunc::CountDistinct => return Err(bad()),
        })
    }
}

/// Add `value` (NULL: nothing) to a running SUM of the same type; a value
/// of another type comes back as the error.
#[inline]
fn add_to_sum(sum: &mut Datum, value: Datum) -> Result<(), Datum> {
    *sum = match (&*sum, value) {
        (_, Datum::Null) => return Ok(()),
        (Datum::Null, v @ (Datum::Int(_) | Datum::Double(_))) => v,
        (Datum::Int(a), Datum::Int(b)) => Datum::Int(a.wrapping_add(b)),
        (Datum::Double(a), Datum::Double(b)) => Datum::Double(a + b),
        (_, other) => return Err(other),
    };
    Ok(())
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

    #[test]
    fn partial_final_roundtrip_matches_complete() {
        // Split the input across two partial accumulators, ship the state,
        // merge, and compare against a single complete accumulator.
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let input: Vec<Datum> = (0..100).map(|i| Datum::Int(i * 7 % 13)).collect();
            let mut complete = Accumulator::new(func);
            for v in &input {
                complete.update(v.clone()).unwrap();
            }
            let mut p1 = Accumulator::new(func);
            let mut p2 = Accumulator::new(func);
            for (i, v) in input.iter().enumerate() {
                if i % 2 == 0 {
                    p1.update(v.clone()).unwrap();
                } else {
                    p2.update(v.clone()).unwrap();
                }
            }
            let s1 = p1.to_state();
            let s2 = p2.to_state();
            assert_eq!(s1.len(), Accumulator::state_width(func));
            let mut fin = Accumulator::from_state(func, &s1).unwrap();
            fin.merge(Accumulator::from_state(func, &s2).unwrap()).unwrap();
            assert_eq!(fin.finish(), complete.finish(), "func {func}");
        }
    }
}
