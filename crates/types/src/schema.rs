//! Schemas: named, typed columns.

use crate::datatype::DataType;
use crate::error::{FudjError, Result};
use std::fmt;
use std::sync::Arc;

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered set of fields. Shared behind [`SchemaRef`] between batches.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Schema from a field list.
    ///
    /// # Panics
    /// Panics on duplicate column names — schemas are constructed by the
    /// binder/planner, which must qualify ambiguous names first.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[i + 1..] {
                assert_ne!(f.name, g.name, "duplicate column name {:?}", f.name);
            }
        }
        Schema { fields }
    }

    /// Convenience: `Schema::new` wrapped in an `Arc`.
    pub fn shared(fields: Vec<Field>) -> SchemaRef {
        Arc::new(Schema::new(fields))
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of column `name`, or an error naming the candidates.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| FudjError::ColumnNotFound {
                name: name.to_owned(),
                schema: self.to_string(),
            })
    }

    /// The field called `name`.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// New schema with both field lists concatenated; a right-side name
    /// already taken gets a `right.` prefix, repeated until it is free (how
    /// the join operators build output schemas: a third joined input's `id`
    /// beside `id` and `right.id` is `right.right.id`).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let mut name = f.name.clone();
            while fields.iter().any(|g| g.name == name) {
                name = format!("right.{name}");
            }
            fields.push(Field::new(name, f.data_type.clone()));
        }
        Schema::new(fields)
    }

    /// New schema keeping only the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.data_type)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Uuid),
            Field::new("tags", DataType::String),
            Field::new("boundary", DataType::Polygon),
        ])
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        assert_eq!(s.index_of("tags").unwrap(), 1);
        assert!(matches!(
            s.index_of("nope"),
            Err(FudjError::ColumnNotFound { .. })
        ));
        assert_eq!(s.field("boundary").unwrap().data_type, DataType::Polygon);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn rejects_duplicates() {
        let _ = Schema::new(vec![
            Field::new("id", DataType::Uuid),
            Field::new("id", DataType::Int64),
        ]);
    }

    #[test]
    fn join_prefixes_collisions() {
        let left = sample();
        let right = Schema::new(vec![
            Field::new("id", DataType::Uuid),
            Field::new("temp", DataType::Int64),
        ]);
        let j = left.join(&right);
        assert_eq!(j.len(), 5);
        assert!(j.index_of("right.id").is_ok());
        assert!(j.index_of("temp").is_ok());
    }

    #[test]
    fn join_qualifies_a_repeated_name_until_it_is_free() {
        let ids = |names: &[&str]| {
            let fields = names.iter().map(|n| Field::new(*n, DataType::Int64));
            Schema::new(fields.collect())
        };
        // Three inputs that all have `id`, joined left-deep.
        let three = ids(&["id"]).join(&ids(&["id"])).join(&ids(&["id", "x"]));
        let names: Vec<&str> = three.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["id", "right.id", "right.right.id", "x"]);
        // A right side holding the qualified name too keeps it as it is.
        let j = ids(&["id"]).join(&ids(&["right.id", "id"]));
        let names: Vec<&str> = j.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["id", "right.id", "right.right.id"]);
    }

    #[test]
    fn project_reorders() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.fields()[0].name, "boundary");
        assert_eq!(p.fields()[1].name, "id");
    }

    #[test]
    fn display() {
        assert_eq!(
            sample().to_string(),
            "id: uuid, tags: string, boundary: polygon"
        );
    }
}
