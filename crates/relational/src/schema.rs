//! Table schemas: named, typed, nullable columns plus an optional primary
//! key. Contributor databases in the paper range from clean per-form tables
//! (the "naïve schema") to generic Entity–Attribute–Value layouts; both are
//! described with the same schema machinery.

use crate::error::{RelError, RelResult};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Column {
    /// A nullable column — the common case for clinical form fields, which
    /// are unanswered until a provider fills them in.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A NOT NULL column (identifiers, audit sentinels).
    pub fn required(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// Check that `value` may be stored in this column.
    pub fn check(&self, value: &Value) -> RelResult<()> {
        match value.data_type() {
            None if self.nullable => Ok(()),
            None => Err(RelError::NullViolation(self.name.clone())),
            Some(t) if self.data_type.accepts(t) => Ok(()),
            Some(t) => Err(RelError::TypeMismatch {
                column: self.name.clone(),
                expected: self.data_type,
                got: Some(t),
            }),
        }
    }
}

/// Schema of a table: ordered columns and an optional primary key (column
/// indexes). Column names are unique (case-sensitive).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    pub name: String,
    columns: Vec<Column>,
    /// Indexes into `columns` forming the primary key, empty = no key.
    primary_key: Vec<usize>,
}

impl Schema {
    /// Build a schema, validating column-name uniqueness.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> RelResult<Schema> {
        let name = name.into();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(RelError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema {
            name,
            columns,
            primary_key: Vec::new(),
        })
    }

    /// Declare the primary key by column names. Key columns become NOT NULL.
    pub fn with_primary_key(mut self, key: &[&str]) -> RelResult<Schema> {
        let mut pk = Vec::with_capacity(key.len());
        for k in key {
            let idx = self.index_of(k).ok_or_else(|| RelError::UnknownColumn {
                table: self.name.clone(),
                column: (*k).to_owned(),
            })?;
            self.columns[idx].nullable = false;
            pk.push(idx);
        }
        self.primary_key = pk;
        Ok(self)
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column by name, with a table-qualified error on miss.
    pub fn column(&self, name: &str) -> RelResult<&Column> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| RelError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })
    }

    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Forget the primary key; the columns keep their nullability.
    pub(crate) fn drop_key(&mut self) {
        self.primary_key.clear();
    }

    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validate a full row against this schema (arity, types, nullability).
    pub fn check_row(&self, row: &[Value]) -> RelResult<()> {
        if row.len() != self.columns.len() {
            return Err(RelError::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (c, v) in self.columns.iter().zip(row) {
            c.check(v)?;
        }
        Ok(())
    }

    /// Two schemas are *union-compatible* when their column types align
    /// positionally (names may differ — the left schema's names win).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.data_type == b.data_type)
    }

    /// A renamed copy (used by `Rename` plan nodes and temporary tables).
    pub fn renamed(&self, name: impl Into<String>) -> Schema {
        Schema {
            name: name.into(),
            ..self.clone()
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
            if !c.nullable {
                f.write_str(" NOT NULL")?;
            }
        }
        if !self.primary_key.is_empty() {
            let keys: Vec<&str> = self
                .primary_key
                .iter()
                .map(|&i| self.columns[i].name.as_str())
                .collect();
            write!(f, ", PRIMARY KEY({})", keys.join(", "))?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::new(
            "procedures",
            vec![
                Column::required("id", DataType::Int),
                Column::new("smoker", DataType::Bool),
                Column::new("packs_per_day", DataType::Float),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap()
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = Schema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("a", DataType::Text),
            ],
        )
        .unwrap_err();
        assert_eq!(err, RelError::DuplicateColumn("a".into()));
    }

    #[test]
    fn primary_key_resolves_and_forces_not_null() {
        let s = demo();
        assert_eq!(s.primary_key(), &[0]);
        assert!(!s.columns()[0].nullable);
    }

    #[test]
    fn unknown_pk_column_rejected() {
        let err = Schema::new("t", vec![Column::new("a", DataType::Int)])
            .unwrap()
            .with_primary_key(&["nope"])
            .unwrap_err();
        assert!(matches!(err, RelError::UnknownColumn { .. }));
    }

    #[test]
    fn check_row_validates_arity_types_nulls() {
        let s = demo();
        assert!(s
            .check_row(&[Value::Int(1), Value::Bool(true), Value::Float(0.5)])
            .is_ok());
        // Int widens into the Float column.
        assert!(s
            .check_row(&[Value::Int(1), Value::Null, Value::Int(2)])
            .is_ok());
        assert!(matches!(
            s.check_row(&[Value::Int(1), Value::Bool(true)]),
            Err(RelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check_row(&[Value::Null, Value::Null, Value::Null]),
            Err(RelError::NullViolation(_))
        ));
        assert!(matches!(
            s.check_row(&[Value::Int(1), Value::text("yes"), Value::Null]),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn union_compatibility_is_positional_by_type() {
        let a = demo();
        let b = Schema::new(
            "other",
            vec![
                Column::new("key", DataType::Int),
                Column::new("flag", DataType::Bool),
                Column::new("x", DataType::Float),
            ],
        )
        .unwrap();
        assert!(a.union_compatible(&b));
        let c = Schema::new("c", vec![Column::new("key", DataType::Text)]).unwrap();
        assert!(!a.union_compatible(&c));
    }

    #[test]
    fn display_renders_ddl_like() {
        let s = demo().to_string();
        assert!(s.contains("procedures("));
        assert!(s.contains("id INT NOT NULL"));
        assert!(s.contains("PRIMARY KEY(id)"));
    }
}
