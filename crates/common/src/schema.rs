//! Schemas: named, typed column lists attached to every plan node.

use crate::datum::DataType;
use std::fmt;
use std::sync::Arc;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name (folded case-insensitively on lookup).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Build a field from a name and type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype }
    }
}

/// An ordered list of fields. Cheap to clone (Arc'd), like Calcite's
/// `RelDataType` row types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    /// Build a schema from an ordered field list.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields: Arc::new(fields) }
    }

    /// The zero-column schema.
    pub fn empty() -> Schema {
        Schema::new(Vec::new())
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The field at position `i` (panics when out of range).
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// The field types in order.
    pub fn types(&self) -> Vec<DataType> {
        self.fields.iter().map(|f| f.dtype).collect()
    }

    /// Case-insensitive column lookup, as SQL identifiers are folded.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Concatenate two schemas (join output schema).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = (*self.fields).clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Project a subset of fields.
    pub fn project(&self, cols: &[usize]) -> Schema {
        Schema::new(cols.iter().map(|&c| self.fields[c].clone()).collect())
    }

    /// Average row width in columns — `deg(A)` in the paper's Eq. 4.
    pub fn degree(&self) -> usize {
        self.arity()
    }

    /// Rough per-row byte width estimate for this schema, used by the
    /// baseline cost model (AFS × deg) and the network simulator defaults.
    pub fn est_row_bytes(&self) -> usize {
        self.fields
            .iter()
            .map(|f| match f.dtype {
                DataType::Bool => 1,
                DataType::Int => 8,
                DataType::Double => 8,
                DataType::Str => 16,
                DataType::Date => 4,
            })
            .sum()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fl) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", fl.name, fl.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(s().index_of("ID"), Some(0));
        assert_eq!(s().index_of("Name"), Some(1));
        assert_eq!(s().index_of("missing"), None);
    }

    #[test]
    fn join_concats() {
        let j = s().join(&s());
        assert_eq!(j.arity(), 4);
        assert_eq!(j.field(2).name, "id");
    }

    #[test]
    fn project_selects() {
        let p = s().project(&[1]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.field(0).name, "name");
    }

    #[test]
    fn degree_and_bytes() {
        assert_eq!(s().degree(), 2);
        assert_eq!(s().est_row_bytes(), 24);
    }
}
