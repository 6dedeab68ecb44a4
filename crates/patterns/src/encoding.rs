//! Value-encoding design patterns: the physical database stores a value in
//! a different representation than the UI control produced.
//!
//! These are three of the "11 distinct database patterns" the paper reports
//! identifying beyond the ones in Table 1: booleans persisted as `'Y'/'N'`
//! or `1/0` codes, NULLs persisted as sentinel values, and coded columns
//! normalized into lookup tables.

use crate::structural::passthrough;
use guava_relational::algebra::{JoinKind, Plan};
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::expr::Expr;
use guava_relational::schema::{Column, Schema};
use guava_relational::table::{Row, Table};
use guava_relational::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// BoolEncode
// ---------------------------------------------------------------------------

/// A boolean control stored as a coded value (`'Y'/'N'`, `1/0`, ...).
/// Decode maps the codes back; anything else decodes to NULL, which is what
/// an analyst sees for corrupt legacy codes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoolEncodePattern {
    pub table: String,
    pub column: String,
    pub true_repr: Value,
    pub false_repr: Value,
    pub pre: Schema,
}

impl BoolEncodePattern {
    pub fn new(
        pre: &Schema,
        column: &str,
        true_repr: impl Into<Value>,
        false_repr: impl Into<Value>,
    ) -> RelResult<BoolEncodePattern> {
        let (true_repr, false_repr) = (true_repr.into(), false_repr.into());
        let c = pre.column(column)?;
        if c.data_type != DataType::Bool {
            return Err(RelError::TypeMismatch {
                column: column.to_owned(),
                expected: DataType::Bool,
                got: Some(c.data_type),
            });
        }
        if true_repr.data_type() != false_repr.data_type() || true_repr.is_null() {
            return Err(RelError::Plan(
                "bool encodings must share a non-null type".into(),
            ));
        }
        if true_repr == false_repr {
            return Err(RelError::Plan("true/false encodings must differ".into()));
        }
        Ok(BoolEncodePattern {
            table: pre.name.clone(),
            column: column.to_owned(),
            true_repr,
            false_repr,
            pre: pre.clone(),
        })
    }

    fn physical_schema(&self) -> RelResult<Schema> {
        let ty = self.true_repr.data_type().expect("validated non-null");
        let cols: Vec<Column> = self
            .pre
            .columns()
            .iter()
            .map(|c| {
                if c.name == self.column {
                    Column {
                        data_type: ty,
                        ..c.clone()
                    }
                } else {
                    c.clone()
                }
            })
            .collect();
        let pk: Vec<String> = self
            .pre
            .primary_key()
            .iter()
            .map(|&i| self.pre.columns()[i].name.clone())
            .collect();
        let mut s = Schema::new(self.table.clone(), cols)?;
        if !pk.is_empty() {
            let refs: Vec<&str> = pk.iter().map(String::as_str).collect();
            s = s.with_primary_key(&refs)?;
        }
        Ok(s)
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
        let idx = t.schema().index_of(&self.column).expect("validated column");
        let rows: Vec<Row> = t
            .iter_rows()
            .map(|r| {
                let mut row = r.clone();
                row[idx] = match &row[idx] {
                    Value::Bool(true) => self.true_repr.clone(),
                    Value::Bool(false) => self.false_repr.clone(),
                    Value::Null => Value::Null,
                    v => v.clone(),
                };
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
        let decode = Expr::Case {
            arms: vec![
                (
                    Expr::col(self.column.clone()).eq(Expr::Lit(self.true_repr.clone())),
                    Expr::lit(true),
                ),
                (
                    Expr::col(self.column.clone()).eq(Expr::Lit(self.false_repr.clone())),
                    Expr::lit(false),
                ),
            ],
            default: Box::new(Expr::Lit(Value::Null)),
        };
        let columns: Vec<(String, Expr)> = self
            .pre
            .columns()
            .iter()
            .map(|c| {
                let e = if c.name == self.column {
                    decode.clone()
                } else {
                    Expr::col(c.name.clone())
                };
                (c.name.clone(), e)
            })
            .collect();
        Ok(Some(Plan::Project {
            input: Box::new(Plan::scan(self.table.clone())),
            columns,
        }))
    }
}

// ---------------------------------------------------------------------------
// NullSentinel
// ---------------------------------------------------------------------------

/// The physical column is NOT NULL; an unanswered control is stored as a
/// sentinel (`-9`, `'N/A'`, ...). Decode turns the sentinel back into NULL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NullSentinelPattern {
    pub table: String,
    pub column: String,
    pub sentinel: Value,
    pub pre: Schema,
}

impl NullSentinelPattern {
    pub fn new(
        pre: &Schema,
        column: &str,
        sentinel: impl Into<Value>,
    ) -> RelResult<NullSentinelPattern> {
        let sentinel = sentinel.into();
        let c = pre.column(column)?;
        match sentinel.data_type() {
            Some(t) if c.data_type.accepts(t) => {}
            _ => {
                return Err(RelError::TypeMismatch {
                    column: column.to_owned(),
                    expected: c.data_type,
                    got: sentinel.data_type(),
                })
            }
        }
        Ok(NullSentinelPattern {
            table: pre.name.clone(),
            column: column.to_owned(),
            sentinel,
            pre: pre.clone(),
        })
    }

    fn physical_schema(&self) -> RelResult<Schema> {
        let cols: Vec<Column> = self
            .pre
            .columns()
            .iter()
            .map(|c| {
                if c.name == self.column {
                    Column {
                        nullable: false,
                        ..c.clone()
                    }
                } else {
                    c.clone()
                }
            })
            .collect();
        let pk: Vec<String> = self
            .pre
            .primary_key()
            .iter()
            .map(|&i| self.pre.columns()[i].name.clone())
            .collect();
        let mut s = Schema::new(self.table.clone(), cols)?;
        if !pk.is_empty() {
            let refs: Vec<&str> = pk.iter().map(String::as_str).collect();
            s = s.with_primary_key(&refs)?;
        }
        Ok(s)
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
        let idx = t.schema().index_of(&self.column).expect("validated column");
        let rows: Vec<Row> = t
            .iter_rows()
            .map(|r| {
                let mut row = r.clone();
                if row[idx].is_null() {
                    row[idx] = self.sentinel.clone();
                }
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
        let decode = Expr::Case {
            arms: vec![(
                Expr::col(self.column.clone()).eq(Expr::Lit(self.sentinel.clone())),
                Expr::Lit(Value::Null),
            )],
            default: Box::new(Expr::col(self.column.clone())),
        };
        let columns: Vec<(String, Expr)> = self
            .pre
            .columns()
            .iter()
            .map(|c| {
                let e = if c.name == self.column {
                    decode.clone()
                } else {
                    Expr::col(c.name.clone())
                };
                (c.name.clone(), e)
            })
            .collect();
        Ok(Some(Plan::Project {
            input: Box::new(Plan::scan(self.table.clone())),
            columns,
        }))
    }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

/// A coded column normalized into a lookup table: the fact table stores a
/// surrogate integer key, the lookup table maps keys to the control's
/// stored values. Decode joins them back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LookupPattern {
    pub table: String,
    pub column: String,
    pub lookup_table: String,
    pub pre: Schema,
    /// Fixed code assignments `(code, value)`, captured at encode time so
    /// decode plans are stable. Codes are assigned 1.. in value order.
    pub codes: Vec<(i64, Value)>,
}

impl LookupPattern {
    /// `domain` lists every value the column can store (from the g-tree's
    /// option list) — the lookup table is the coded form of that domain.
    pub fn new(pre: &Schema, column: &str, domain: Vec<Value>) -> RelResult<LookupPattern> {
        let c = pre.column(column)?;
        let mut domain = domain;
        domain.sort();
        domain.dedup();
        if domain.iter().any(Value::is_null) {
            return Err(RelError::Plan("lookup domain cannot contain NULL".into()));
        }
        for v in &domain {
            if let Some(t) = v.data_type() {
                if !c.data_type.accepts(t) {
                    return Err(RelError::TypeMismatch {
                        column: column.to_owned(),
                        expected: c.data_type,
                        got: Some(t),
                    });
                }
            }
        }
        let codes = domain
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as i64 + 1, v))
            .collect();
        Ok(LookupPattern {
            table: pre.name.clone(),
            column: column.to_owned(),
            lookup_table: format!("{}_{}_lookup", pre.name, column),
            pre: pre.clone(),
            codes,
        })
    }

    fn key_col(&self) -> String {
        format!("{}__code", self.column)
    }

    fn label_col(&self) -> String {
        format!("{}__label", self.column)
    }

    fn fact_schema(&self) -> RelResult<Schema> {
        let cols: Vec<Column> = self
            .pre
            .columns()
            .iter()
            .map(|c| {
                if c.name == self.column {
                    Column {
                        data_type: DataType::Int,
                        ..c.clone()
                    }
                } else {
                    c.clone()
                }
            })
            .collect();
        let pk: Vec<String> = self
            .pre
            .primary_key()
            .iter()
            .map(|&i| self.pre.columns()[i].name.clone())
            .collect();
        let mut s = Schema::new(self.table.clone(), cols)?;
        if !pk.is_empty() {
            let refs: Vec<&str> = pk.iter().map(String::as_str).collect();
            s = s.with_primary_key(&refs)?;
        }
        Ok(s)
    }

    fn lookup_schema(&self) -> RelResult<Schema> {
        let value_type = self.pre.column(&self.column)?.data_type;
        Schema::new(
            self.lookup_table.clone(),
            vec![
                Column::required(self.key_col(), DataType::Int),
                Column::new(self.label_col(), value_type),
            ],
        )?
        .with_primary_key(&[&self.key_col()])
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut out: Vec<Schema> = input
            .iter()
            .map(|s| {
                if s.name == self.table {
                    self.fact_schema()
                } else {
                    Ok(s.clone())
                }
            })
            .collect::<RelResult<_>>()?;
        out.push(self.lookup_schema()?);
        Ok(out)
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let idx = t.schema().index_of(&self.column).expect("validated column");
        let code_of: BTreeMap<&Value, i64> = self.codes.iter().map(|(k, v)| (v, *k)).collect();
        let rows: Vec<Row> = t
            .iter_rows()
            .map(|r| {
                let mut row = r.clone();
                row[idx] = match &row[idx] {
                    Value::Null => Value::Null,
                    v => match code_of.get(v) {
                        Some(k) => Value::Int(*k),
                        None => {
                            return Err(RelError::Eval(format!(
                                "value {v} of `{}` outside lookup domain",
                                self.column
                            )))
                        }
                    },
                };
                Ok(row)
            })
            .collect::<RelResult<_>>()?;
        out.put_table(Table::from_rows(self.fact_schema()?, rows)?);
        let lookup_rows: Vec<Row> = self
            .codes
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), v.clone()])
            .collect();
        out.put_table(Table::from_rows(self.lookup_schema()?, lookup_rows)?);
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        let plan = Plan::scan(self.table.clone()).join(
            Plan::scan(self.lookup_table.clone()),
            vec![(self.column.as_str(), &self.key_col())],
            JoinKind::Left,
        );
        let columns: Vec<(String, Expr)> = self
            .pre
            .columns()
            .iter()
            .map(|c| {
                let e = if c.name == self.column {
                    Expr::col(self.label_col())
                } else {
                    Expr::col(c.name.clone())
                };
                (c.name.clone(), e)
            })
            .collect();
        Ok(Some(Plan::Project {
            input: Box::new(plan),
            columns,
        }))
    }
}
