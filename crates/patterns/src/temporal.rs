//! Temporal design patterns: physical layouts that never destroy history.
//!
//! Table 1, *Audit*: "No rows are ever deleted or updated. Rows can be
//! deprecated by setting the value in a column. The reporting tool only
//! displays current data. — Pull only data where C = 0". **Versioned** is
//! one of the further identified patterns: every edit appends a new row
//! with a version number; current data is the maximum version per instance.

use crate::structural::passthrough;
use guava_relational::algebra::{AggFunc, Aggregate, JoinKind, Plan};
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::expr::Expr;
use guava_relational::schema::{Column, Schema};
use guava_relational::table::{Row, Table};
use guava_relational::value::{DataType, Value};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

/// Soft deletion: a flag column marks deprecated rows; `0` means live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditPattern {
    pub table: String,
    pub flag_column: String,
    pub pre: Schema,
}

impl AuditPattern {
    pub fn new(pre: &Schema, flag_column: impl Into<String>) -> RelResult<AuditPattern> {
        let flag_column = flag_column.into();
        if pre.index_of(&flag_column).is_some() {
            return Err(RelError::DuplicateColumn(flag_column));
        }
        Ok(AuditPattern {
            table: pre.name.clone(),
            flag_column,
            pre: pre.clone(),
        })
    }

    /// The physical schema: naïve columns plus the flag; no primary key,
    /// because deprecated copies of a row share the instance id.
    fn physical_schema(&self) -> RelResult<Schema> {
        let mut cols = self.pre.columns().to_vec();
        cols.push(Column::required(self.flag_column.clone(), DataType::Int));
        Schema::new(self.table.clone(), cols)
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        input
            .iter()
            .map(|s| {
                if s.name == self.table {
                    self.physical_schema()
                } else {
                    Ok(s.clone())
                }
            })
            .collect()
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let rows: Vec<Row> = t
            .iter_rows()
            .map(|r| {
                let mut row = r.clone();
                row.push(Value::Int(0));
                row
            })
            .collect();
        out.put_table(Table::from_rows(self.physical_schema()?, rows)?);
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        let cols: Vec<&str> = self.pre.column_names();
        Ok(Some(
            Plan::scan(self.table.clone())
                .select(Expr::col(self.flag_column.clone()).eq(Expr::lit(0i64)))
                .project_cols(&cols),
        ))
    }

    /// Deprecate rows matching `pred` in a *physical* database, simulating
    /// the reporting tool's edit behaviour (the old row is kept, flagged).
    pub fn deprecate(&self, physical: &mut Database, pred: &Expr) -> RelResult<usize> {
        let t = physical.table_mut(&self.table)?;
        let schema = t.schema().clone();
        let flag_idx =
            schema
                .index_of(&self.flag_column)
                .ok_or_else(|| RelError::UnknownColumn {
                    table: self.table.clone(),
                    column: self.flag_column.clone(),
                })?;
        t.update_where(
            |row| pred.matches(&schema, row).unwrap_or(false) && row[flag_idx] == Value::Int(0),
            |row| row[flag_idx] = Value::Int(1),
        )
    }
}

// ---------------------------------------------------------------------------
// Versioned
// ---------------------------------------------------------------------------

/// Append-only edits with explicit version numbers; the current state of an
/// instance is its highest version. Decode aggregates max(version) per
/// instance and joins back — the most expensive decode in the catalog,
/// which the pattern-overhead benchmark makes visible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionedPattern {
    pub table: String,
    pub version_column: String,
    pub key: String,
    pub pre: Schema,
}

impl VersionedPattern {
    pub fn new(pre: &Schema, version_column: impl Into<String>) -> RelResult<VersionedPattern> {
        let version_column = version_column.into();
        if pre.index_of(&version_column).is_some() {
            return Err(RelError::DuplicateColumn(version_column));
        }
        let key = match pre.primary_key() {
            [k] => pre.columns()[*k].name.clone(),
            _ => {
                return Err(RelError::Plan(format!(
                    "Versioned requires a single-column key on `{}`",
                    pre.name
                )))
            }
        };
        Ok(VersionedPattern {
            table: pre.name.clone(),
            version_column,
            key,
            pre: pre.clone(),
        })
    }

    fn physical_schema(&self) -> RelResult<Schema> {
        let mut cols = self.pre.columns().to_vec();
        cols.push(Column::required(self.version_column.clone(), DataType::Int));
        Schema::new(self.table.clone(), cols)?
            .with_primary_key(&[self.key.as_str(), self.version_column.as_str()])
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        input
            .iter()
            .map(|s| {
                if s.name == self.table {
                    self.physical_schema()
                } else {
                    Ok(s.clone())
                }
            })
            .collect()
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let rows: Vec<Row> = t
            .iter_rows()
            .map(|r| {
                let mut row = r.clone();
                row.push(Value::Int(1));
                row
            })
            .collect();
        out.put_table(Table::from_rows(self.physical_schema()?, rows)?);
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        // γ key → max(version), then join back to pick the current rows.
        let current = Plan::scan(self.table.clone()).aggregate(
            &[self.key.as_str()],
            vec![Aggregate {
                func: AggFunc::Max(self.version_column.clone()),
                alias: "__max_version".into(),
            }],
        );
        let joined = current.join(
            Plan::scan(self.table.clone()),
            vec![
                (self.key.as_str(), self.key.as_str()),
                ("__max_version", &self.version_column),
            ],
            JoinKind::Inner,
        );
        // Left side holds (key, __max_version); right side holds the full
        // physical row, its key disambiguated as `{table}.{key}`.
        let columns: Vec<(String, Expr)> = self
            .pre
            .columns()
            .iter()
            .map(|c| (c.name.clone(), Expr::col(c.name.clone())))
            .collect();
        Ok(Some(Plan::Project {
            input: Box::new(joined),
            columns,
        }))
    }

    /// Append a new version of an instance to a physical database,
    /// simulating an edit in the reporting tool. `new_row` is the naïve row
    /// (without the version column).
    pub fn append_version(&self, physical: &mut Database, new_row: Row) -> RelResult<()> {
        let t = physical.table_mut(&self.table)?;
        let schema = t.schema().clone();
        let key_idx = schema.index_of(&self.key).expect("key exists");
        let ver_idx = schema
            .index_of(&self.version_column)
            .expect("version exists");
        if new_row.len() + 1 != schema.arity() {
            return Err(RelError::ArityMismatch {
                table: self.table.clone(),
                expected: schema.arity() - 1,
                got: new_row.len(),
            });
        }
        let key = &new_row[key_idx];
        let next_version = t
            .iter_rows()
            .filter(|r| r[key_idx].sql_eq(key) == Some(true))
            .filter_map(|r| r[ver_idx].as_i64())
            .max()
            .unwrap_or(0)
            + 1;
        let mut row = new_row;
        row.push(Value::Int(next_version));
        t.insert(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pre() -> Schema {
        Schema::new(
            "procedure",
            vec![
                Column::required("instance_id", DataType::Int),
                Column::new("hypoxia", DataType::Bool),
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
                vec![vec![1.into(), true.into()], vec![2.into(), false.into()]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn audit_roundtrip_and_deprecation() {
        let p = AuditPattern::new(&pre(), "_deleted").unwrap();
        let mut phys = p.encode(&naive_db()).unwrap();
        assert_eq!(phys.table("procedure").unwrap().schema().arity(), 3);

        // Decode sees both rows while nothing is deprecated.
        let plan = p.decode_scan("procedure").unwrap().unwrap();
        assert_eq!(plan.eval(&phys).unwrap().len(), 2);

        // Deprecate instance 2: the row stays but decode hides it.
        let n = p
            .deprecate(&mut phys, &Expr::col("instance_id").eq(Expr::lit(2i64)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            phys.table("procedure").unwrap().len(),
            2,
            "row physically retained"
        );
        let visible = plan.eval(&phys).unwrap();
        assert_eq!(visible.len(), 1);
        assert_eq!(visible.row_at(0).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn audit_rejects_colliding_flag() {
        assert!(AuditPattern::new(&pre(), "hypoxia").is_err());
    }

    #[test]
    fn versioned_decode_picks_max_version() {
        let p = VersionedPattern::new(&pre(), "_version").unwrap();
        let mut phys = p.encode(&naive_db()).unwrap();
        // Edit instance 1 twice.
        p.append_version(&mut phys, vec![1.into(), false.into()])
            .unwrap();
        p.append_version(&mut phys, vec![1.into(), true.into()])
            .unwrap();
        assert_eq!(phys.table("procedure").unwrap().len(), 4);

        let plan = p.decode_scan("procedure").unwrap().unwrap();
        let current = plan.eval(&phys).unwrap();
        assert_eq!(current.len(), 2);
        let r1 = current.iter_rows().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(r1[1], Value::Bool(true), "latest version wins");
    }

    #[test]
    fn versioned_requires_single_key() {
        let s = Schema::new("t", vec![Column::new("a", DataType::Int)]).unwrap();
        assert!(VersionedPattern::new(&s, "_v").is_err());
    }

    #[test]
    fn append_version_arity_checked() {
        let p = VersionedPattern::new(&pre(), "_version").unwrap();
        let mut phys = p.encode(&naive_db()).unwrap();
        assert!(p.append_version(&mut phys, vec![1.into()]).is_err());
    }
}
