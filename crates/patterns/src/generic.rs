//! The Generic (Entity–Attribute–Value) design pattern.
//!
//! "The most frequent type of schematic heterogeneity arises because
//! contributors often use a generic database layout, where each row in the
//! database looks like Entity, Attribute, Value" (Section 3.2). Table 1
//! describes the decode direction as "execute an un-pivot operation" —
//! reading EAV triples back into wide naïve rows is the pivot our algebra
//! provides natively.

use crate::structural::passthrough;
use guava_relational::algebra::Plan;
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::schema::{Column, Schema};
use guava_relational::table::{Row, Table};
use guava_relational::value::{DataType, Value};
use serde::{Deserialize, Serialize};

/// One form's naïve table stored generically as (entity, attribute, value)
/// triples. Unanswered controls have no row at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenericPattern {
    pub table: String,
    pub physical_table: String,
    pub entity_column: String,
    pub attr_column: String,
    pub value_column: String,
    pub key: String,
    pub pre: Schema,
}

impl GenericPattern {
    pub fn new(pre: &Schema, physical_table: impl Into<String>) -> RelResult<GenericPattern> {
        let key = match pre.primary_key() {
            [k] => pre.columns()[*k].name.clone(),
            _ => {
                return Err(RelError::Plan(format!(
                    "Generic requires a single-column key on `{}`",
                    pre.name
                )))
            }
        };
        Ok(GenericPattern {
            table: pre.name.clone(),
            physical_table: physical_table.into(),
            entity_column: "entity".into(),
            attr_column: "attribute".into(),
            value_column: "value".into(),
            key,
            pre: pre.clone(),
        })
    }

    fn physical_schema(&self) -> RelResult<Schema> {
        let key_type = self.pre.column(&self.key)?.data_type;
        Schema::new(
            self.physical_table.clone(),
            vec![
                Column::required(self.entity_column.clone(), key_type),
                Column::required(self.attr_column.clone(), DataType::Text),
                Column::new(self.value_column.clone(), DataType::Text),
            ],
        )?
        .with_primary_key(&[&self.entity_column, &self.attr_column])
    }

    /// The attribute list and target types for the pivot, from the naïve
    /// schema (everything except the key).
    fn attrs(&self) -> Vec<(String, DataType)> {
        self.pre
            .columns()
            .iter()
            .filter(|c| c.name != self.key)
            .map(|c| (c.name.clone(), c.data_type))
            .collect()
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut out: Vec<Schema> = input
            .iter()
            .filter(|s| s.name != self.table)
            .cloned()
            .collect();
        out.push(self.physical_schema()?);
        Ok(out)
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let key_idx = t.schema().index_of(&self.key).expect("validated key");
        // One attribute-name cell per column and one sentinel, shared by
        // every row that names them.
        let names: Vec<Value> = t
            .schema()
            .columns()
            .iter()
            .map(|c| Value::text(c.name.as_str()))
            .collect();
        let present = Value::text("__present");
        let mut rows: Vec<Row> = Vec::new();
        for r in t.iter_rows() {
            for (i, name) in names.iter().enumerate() {
                if i == key_idx || r[i].is_null() {
                    continue;
                }
                let value = match &r[i] {
                    Value::Text(_) => r[i].clone(),
                    other => Value::text(other.to_string()),
                };
                rows.push(vec![r[key_idx].clone(), name.clone(), value]);
            }
            // An instance with every optional control blank still exists:
            // record its presence with a sentinel row so decode can
            // resurrect the all-NULL naïve row.
            if t.schema()
                .columns()
                .iter()
                .enumerate()
                .all(|(i, _)| i == key_idx || r[i].is_null())
            {
                rows.push(vec![r[key_idx].clone(), present.clone(), Value::Null]);
            }
        }
        out.put_table(Table::from_rows(self.physical_schema()?, rows)?);
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        let pivot = Plan::Pivot {
            input: Box::new(Plan::scan(self.physical_table.clone())),
            keys: vec![self.entity_column.clone()],
            attr_col: self.attr_column.clone(),
            val_col: self.value_column.clone(),
            attrs: self.attrs(),
        };
        // The pivot's key column carries the physical entity name; restore
        // the naïve key name.
        Ok(Some(pivot.rename_columns(vec![(
            self.entity_column.clone(),
            self.key.clone(),
        )])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pre() -> Schema {
        Schema::new(
            "history",
            vec![
                Column::required("instance_id", DataType::Int),
                Column::new("smoking", DataType::Int),
                Column::new("packs", DataType::Float),
                Column::new("note", DataType::Text),
            ],
        )
        .unwrap()
        .with_primary_key(&["instance_id"])
        .unwrap()
    }

    fn naive_db() -> Database {
        let mut db = Database::new("n");
        db.create_table(
            Table::from_rows(
                pre(),
                vec![
                    vec![1.into(), 1.into(), Value::Float(2.5), "ex-smoker".into()],
                    vec![2.into(), 0.into(), Value::Null, Value::Null],
                    vec![3.into(), Value::Null, Value::Null, Value::Null],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn encode_produces_triples() {
        let p = GenericPattern::new(&pre(), "data").unwrap();
        let phys = p.encode(&naive_db()).unwrap();
        let t = phys.table("data").unwrap();
        // instance 1: 3 triples, instance 2: 1 triple, instance 3: presence marker.
        assert_eq!(t.len(), 5);
        assert!(!phys.has_table("history"), "naive table replaced");
    }

    #[test]
    fn decode_roundtrips_including_all_null_instance() {
        let p = GenericPattern::new(&pre(), "data").unwrap();
        let naive = naive_db();
        let phys = p.encode(&naive).unwrap();
        let plan = p.decode_scan("history").unwrap().unwrap();
        let back = plan.sort_by(&["instance_id"]).eval(&phys).unwrap();
        let orig = naive.table("history").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.schema().column_names(), orig.schema().column_names());
        for (a, b) in orig.iter_rows().zip(back.iter_rows()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn other_tables_untouched() {
        let p = GenericPattern::new(&pre(), "data").unwrap();
        assert!(p.decode_scan("unrelated").unwrap().is_none());
    }

    #[test]
    fn requires_single_key() {
        let s = Schema::new("t", vec![Column::new("a", DataType::Int)]).unwrap();
        assert!(GenericPattern::new(&s, "d").is_err());
    }
}
