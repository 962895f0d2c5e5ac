//! Runtime values ([`Datum`]) and their types ([`DataType`]).
//!
//! The value model is deliberately small: TPC-H and SSB only need integers,
//! decimals (modelled as `f64`, sufficient for plan-shape reproduction),
//! fixed/variable strings, dates and booleans. Strings are reference-counted
//! so rows can be cloned cheaply as they flow between operators and across
//! the simulated network.

use crate::col::Number;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// SQL BOOLEAN.
    Bool,
    /// SQL BIGINT (64-bit signed).
    Int,
    /// SQL DOUBLE; also models DECIMAL.
    Double,
    /// SQL VARCHAR/CHAR.
    Str,
    /// Days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A single runtime value.
///
/// SQL `NULL` is an explicit variant; comparison helpers implement SQL
/// three-valued logic at the expression layer, while the [`Ord`] impl gives a
/// total order (NULL first) used by sort operators and BTree indexes.
#[derive(Debug, Clone)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A double (also models DECIMAL).
    Double(f64),
    /// A reference-counted string.
    Str(Arc<str>),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Datum {
    /// Construct a string datum.
    pub fn str(s: impl AsRef<str>) -> Datum {
        Datum::Str(Arc::from(s.as_ref()))
    }

    /// Is this the NULL variant?
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The runtime type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Int(_) => Some(DataType::Int),
            Datum::Double(_) => Some(DataType::Double),
            Datum::Str(_) => Some(DataType::Str),
            Datum::Date(_) => Some(DataType::Date),
        }
    }

    /// Fit a value from outside the engine (a bulk-loaded row, an `INSERT`
    /// literal) to a column of type `want`, in place: NULL fits, a value of
    /// `want` fits, and an Int widens into a Double. `false` when it does
    /// not fit; each caller raises its own error.
    pub fn fit_to(&mut self, want: DataType) -> bool {
        match (&*self, want) {
            (Datum::Int(i), DataType::Double) => *self = Datum::Double(*i as f64),
            (d, want) => return d.data_type().is_none_or(|t| t == want),
        }
        true
    }

    /// The boolean value, if this is a [`Datum::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer value; dates coerce to their day number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            Datum::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// The double value; integers coerce.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Datum::Double(d) => Some(*d),
            Datum::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string value, if this is a [`Datum::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric coercion rank used when comparing Int and Double.
    fn numeric(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL comparison: returns `None` if either side is NULL, otherwise the
    /// ordering. Mixed Int/Double comparisons coerce to double, as the
    /// binder's implicit numeric casts would in Calcite.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Date(a), Datum::Date(b)) => Some(a.cmp(b)),
            (Datum::Str(a), Datum::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Date(a), Datum::Int(b)) => Some((*a as i64).cmp(b)),
            (Datum::Int(a), Datum::Date(b)) => Some(a.cmp(&(*b as i64))),
            _ => {
                let (a, b) = (self.numeric()?, other.numeric()?);
                a.partial_cmp(&b)
            }
        }
    }
}

/// SQL value equality with NULL == NULL (group-key semantics): the values
/// [`Datum::cmp`] ties, except that a NaN equals nothing.
impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal && !self.is_nan()
    }
}

impl Eq for Datum {}

/// Total order used by sorts and indexes: NULL sorts first, then Bool,
/// then the numbers — Int, Double and Date on one number line, compared by
/// value, a NaN after every number — then strings. `cmp` is `Equal`
/// exactly where `==` holds, and for two NaNs.
impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        let number = |d: &Datum| match d {
            Datum::Int(i) => Number::Whole(*i),
            Datum::Date(d) => Number::Whole(*d as i64),
            Datum::Double(x) => Number::Real(*x),
            _ => Number::None,
        };
        match (self, other) {
            (Datum::Str(a), Datum::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
            _ => number(self)
                .cmp(number(other))
                .unwrap_or_else(|| self.type_rank().cmp(&other.type_rank())),
        }
    }
}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Datum {
    /// [`Datum::cmp`]'s order of kinds; the numbers share a rank.
    fn type_rank(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) | Datum::Double(_) | Datum::Date(_) => 2,
            Datum::Str(_) => 3,
        }
    }

    /// Is this a Double NaN?
    fn is_nan(&self) -> bool {
        matches!(self, Datum::Double(d) if d.is_nan())
    }
}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Datum::Null => 0u8.hash(state),
            Datum::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Double that compare equal must hash equal: hash every
            // numeric through its f64 bits when it is representable, and the
            // raw i64 otherwise.
            Datum::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            // The zeros are one value, and every NaN is one NaN.
            Datum::Double(d) => {
                2u8.hash(state);
                crate::col::canonical_bits(*d).hash(state);
            }
            Datum::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            // Date compares equal to Int of the same day count, so it must
            // hash identically (numeric tag).
            Datum::Date(d) => {
                2u8.hash(state);
                (*d as f64).to_bits().hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => f.write_str("NULL"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Double(d) => write!(f, "{d:.4}"),
            Datum::Str(s) => write!(f, "{s}"),
            Datum::Date(d) => {
                let (y, m, dd) = crate::dates::from_epoch_days(*d);
                write!(f, "{y:04}-{m:02}-{dd:02}")
            }
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Double(v)
    }
}
impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxBuildHasher;
    use std::hash::BuildHasher;

    fn hash_of(d: &Datum) -> u64 {
        FxBuildHasher::default().hash_one(d)
    }

    #[test]
    fn null_ordering_is_first() {
        assert!(Datum::Null < Datum::Int(i64::MIN));
        assert_eq!(Datum::Null.cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn mixed_numeric_compare() {
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Double(2.0)), Some(Ordering::Equal));
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Double(2.5)), Some(Ordering::Less));
        assert_eq!(Datum::Double(3.0).sql_cmp(&Datum::Int(2)), Some(Ordering::Greater));
    }

    /// Int, Double and Date are one number line: the cycle the type-rank
    /// fallback made (a Date below an Int below a Double below the Date)
    /// is gone, a NaN follows every number and ties only with a NaN, and
    /// the kinds order Bool, numbers, strings.
    #[test]
    fn numbers_share_one_order_across_kinds() {
        let (d, i, x) = (Datum::Date(10), Datum::Int(20), Datum::Double(30.0));
        assert!(d < i && i < x && d < x);
        assert_eq!(Datum::Date(2), Datum::Double(2.0));
        assert_eq!(Datum::Double(-0.0), Datum::Double(0.0));
        assert_eq!(hash_of(&Datum::Double(-0.0)), hash_of(&Datum::Int(0)));
        let nan = Datum::Double(f64::NAN);
        assert!(nan > Datum::Double(f64::INFINITY) && nan > Datum::Int(i64::MAX));
        assert_eq!(nan.cmp(&Datum::Double(f64::NAN)), Ordering::Equal);
        assert_ne!(nan, Datum::Double(f64::NAN));
        assert!(Datum::Bool(true) < Datum::Int(i64::MIN) && Datum::Date(0) < Datum::str(""));
    }

    #[test]
    fn int_double_equal_hash_equal() {
        let a = Datum::Int(7);
        let b = Datum::Double(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn string_ordering() {
        assert!(Datum::str("apple") < Datum::str("banana"));
        assert_eq!(Datum::str("x"), Datum::str("x"));
    }

    #[test]
    fn fit_to_admits_null_same_type_and_int_widening() {
        let fit = |mut d: Datum, want| d.fit_to(want).then_some(d);
        assert_eq!(fit(Datum::Null, DataType::Str), Some(Datum::Null));
        assert_eq!(fit(Datum::str("a"), DataType::Str), Some(Datum::str("a")));
        assert!(matches!(fit(Datum::Int(3), DataType::Double), Some(Datum::Double(x)) if x == 3.0));
        assert_eq!(fit(Datum::Double(3.0), DataType::Int), None);
        assert_eq!(fit(Datum::str("1995-01-01"), DataType::Date), None);
    }

    #[test]
    fn date_display() {
        assert_eq!(Datum::Date(0).to_string(), "1970-01-01");
    }

    #[test]
    fn data_types() {
        assert_eq!(Datum::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Datum::Null.data_type(), None);
        assert_eq!(DataType::Str.to_string(), "VARCHAR");
    }
}
