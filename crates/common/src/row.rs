//! Rows and batches — the unit of data flow between operators.

use crate::datum::Datum;
use std::fmt;

/// A single tuple. Cloning is cheap-ish: fixed-width datums copy, strings
/// bump a refcount.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row(pub Vec<Datum>);

impl Row {
    /// Build a row from its datums.
    pub fn new(values: Vec<Datum>) -> Row {
        Row(values)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The datum in column `i` (panics when out of range).
    pub fn get(&self, i: usize) -> &Datum {
        &self.0[i]
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v)
    }

    /// Project the given column indices into a new row.
    pub fn project(&self, cols: &[usize]) -> Row {
        Row(cols.iter().map(|&c| self.0[c].clone()).collect())
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl From<Vec<Datum>> for Row {
    fn from(v: Vec<Datum>) -> Self {
        Row(v)
    }
}

/// Default number of rows per batch at exchange boundaries.
pub const BATCH_SIZE: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[i64]) -> Row {
        Row(vals.iter().map(|&v| Datum::Int(v)).collect())
    }

    #[test]
    fn concat_and_project() {
        let a = r(&[1, 2]);
        let b = r(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.project(&[2, 0]), r(&[3, 1]));
    }

    #[test]
    fn hash_key_depends_only_on_projection() {
        let a = Row(vec![Datum::Int(1), Datum::str("x")]);
        let b = Row(vec![Datum::Int(1), Datum::str("y")]);
        let batch = crate::ColumnBatch::from_rows(&[a, b]);
        let (key, other) = (batch.hash_keys(&[0]), batch.hash_keys(&[1]));
        assert_eq!(key[0], key[1]);
        assert_ne!(other[0], other[1]);
    }

    #[test]
    fn row_ordering() {
        assert!(r(&[1, 2]) < r(&[1, 3]));
        assert!(r(&[1]) < r(&[2]));
    }
}
