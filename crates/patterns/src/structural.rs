//! Structural design patterns: layouts that move whole columns or rows
//! between tables without re-encoding individual values.
//!
//! From Table 1 of the paper: **Merge** ("data from several forms are drawn
//! from the same table — pull only data where C = form name") and **Split**
//! ("attributes from a single form are distributed over several tables —
//! join"). We add **Rename** (vendor column-naming conventions) and
//! **HorizontalPartition** (rows routed across tables by a predicate),
//! two of the further patterns the paper reports identifying.

use guava_relational::algebra::{JoinKind, Plan};
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::expr::Expr;
use guava_relational::schema::{Column, Schema};
use guava_relational::table::{Row, Table};
use guava_relational::value::Value;
use serde::{Deserialize, Serialize};

/// Copy every table from `input` except those in `consumed`.
pub(crate) fn passthrough(input: &Database, consumed: &[&str]) -> Database {
    let mut out = Database::new(input.name.clone());
    for t in input.tables() {
        if !consumed.contains(&t.schema().name.as_str()) {
            out.put_table(t.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rename
// ---------------------------------------------------------------------------

/// Physical names differ from the UI's control names — e.g. a vendor stores
/// the `smoking` control in column `c_smk` of table `tblHist`. Pure
/// bidirectional renaming.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenamePattern {
    pub table: String,
    pub physical_table: String,
    /// `(naive_column, physical_column)` pairs; unlisted columns keep names.
    pub columns: Vec<(String, String)>,
}

impl RenamePattern {
    pub fn new(
        pre: &Schema,
        physical_table: impl Into<String>,
        columns: Vec<(&str, &str)>,
    ) -> RelResult<RenamePattern> {
        for (naive, _) in &columns {
            pre.column(naive)?;
        }
        Ok(RenamePattern {
            table: pre.name.clone(),
            physical_table: physical_table.into(),
            columns: columns
                .into_iter()
                .map(|(a, b)| (a.to_owned(), b.to_owned()))
                .collect(),
        })
    }

    fn physical_name(&self, naive: &str) -> String {
        self.columns
            .iter()
            .find(|(n, _)| n == naive)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(|| naive.to_owned())
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut out = Vec::with_capacity(input.len());
        for s in input {
            if s.name != self.table {
                out.push(s.clone());
                continue;
            }
            let cols: Vec<Column> = s
                .columns()
                .iter()
                .map(|c| Column {
                    name: self.physical_name(&c.name),
                    ..c.clone()
                })
                .collect();
            let pk_names: Vec<String> = s
                .primary_key()
                .iter()
                .map(|&i| self.physical_name(&s.columns()[i].name))
                .collect();
            let mut schema = Schema::new(self.physical_table.clone(), cols)?;
            if !pk_names.is_empty() {
                let refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
                schema = schema.with_primary_key(&refs)?;
            }
            out.push(schema);
        }
        Ok(out)
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let schemas = self.transform_schemas(&[t.schema().clone()])?;
        out.put_table(Table::from_rows(schemas[0].clone(), t.rows_from(0))?);
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        let renames: Vec<(String, String)> = self
            .columns
            .iter()
            .map(|(n, p)| (p.clone(), n.clone()))
            .collect();
        Ok(Some(
            Plan::scan(self.physical_table.clone()).rename_columns(renames),
        ))
    }
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// Table 1, *Merge*: "data from several forms are drawn from the same
/// table". The physical table unions the forms' columns plus a
/// discriminator column holding the form name; decode for one form is
/// `WHERE discriminator = 'form'` plus a projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergePattern {
    pub target: String,
    pub discriminator: String,
    /// Pre-pattern schemas of the merged forms (captured so decode can
    /// reconstruct each form's exact column list).
    pub sources: Vec<Schema>,
}

impl MergePattern {
    pub fn new(
        target: impl Into<String>,
        discriminator: impl Into<String>,
        sources: Vec<Schema>,
    ) -> RelResult<MergePattern> {
        let discriminator = discriminator.into();
        // Same-named columns across sources must agree on type.
        for (i, s) in sources.iter().enumerate() {
            for c in s.columns() {
                if c.name == discriminator {
                    return Err(RelError::DuplicateColumn(discriminator));
                }
                for other in &sources[..i] {
                    if let Ok(oc) = other.column(&c.name) {
                        if oc.data_type != c.data_type {
                            return Err(RelError::TypeMismatch {
                                column: c.name.clone(),
                                expected: oc.data_type,
                                got: Some(c.data_type),
                            });
                        }
                    }
                }
            }
        }
        Ok(MergePattern {
            target: target.into(),
            discriminator,
            sources,
        })
    }

    fn merged_schema(&self) -> RelResult<Schema> {
        let mut cols: Vec<Column> = vec![Column::required(
            self.discriminator.clone(),
            guava_relational::value::DataType::Text,
        )];
        for s in &self.sources {
            for c in s.columns() {
                if !cols.iter().any(|e| e.name == c.name) {
                    // All data columns become nullable: a row from form A
                    // has NULLs in B-only columns.
                    cols.push(Column::new(c.name.clone(), c.data_type));
                }
            }
        }
        Schema::new(self.target.clone(), cols)
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut out: Vec<Schema> = input
            .iter()
            .filter(|s| !self.sources.iter().any(|src| src.name == s.name))
            .cloned()
            .collect();
        out.push(self.merged_schema()?);
        Ok(out)
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let consumed: Vec<&str> = self.sources.iter().map(|s| s.name.as_str()).collect();
        let mut out = passthrough(input, &consumed);
        let merged = self.merged_schema()?;
        let mut rows: Vec<Row> = Vec::new();
        for src in &self.sources {
            let t = input.table(&src.name)?;
            // One discriminator cell per source, shared by its rows.
            let tag = Value::text(src.name.as_str());
            for row in t.iter_rows() {
                let mut mrow: Row = Vec::with_capacity(merged.arity());
                for c in merged.columns() {
                    if c.name == self.discriminator {
                        mrow.push(tag.clone());
                    } else if let Some(idx) = t.schema().index_of(&c.name) {
                        mrow.push(row[idx].clone());
                    } else {
                        mrow.push(Value::Null);
                    }
                }
                rows.push(mrow);
            }
        }
        out.put_table(Table::from_rows(merged, rows)?);
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        let Some(src) = self.sources.iter().find(|s| s.name == table) else {
            return Ok(None);
        };
        let plan = Plan::scan(self.target.clone())
            .select(Expr::col(self.discriminator.clone()).eq(Expr::lit(src.name.clone())));
        let cols: Vec<&str> = src.column_names();
        Ok(Some(plan.project_cols(&cols)))
    }
}

// ---------------------------------------------------------------------------
// Split
// ---------------------------------------------------------------------------

/// Table 1, *Split*: "attributes from a single form are distributed over
/// several tables"; decode is a join on the instance key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitPattern {
    pub table: String,
    pub key: String,
    /// Fragment table name → the data columns it holds (key is implicit).
    pub fragments: Vec<(String, Vec<String>)>,
    /// Pre-pattern schema, for decode projections and fragment typing.
    pub pre: Schema,
}

impl SplitPattern {
    pub fn new(pre: &Schema, fragments: Vec<(&str, Vec<&str>)>) -> RelResult<SplitPattern> {
        let key = match pre.primary_key() {
            [k] => pre.columns()[*k].name.clone(),
            _ => {
                return Err(RelError::Plan(format!(
                    "Split requires a single-column key on `{}`",
                    pre.name
                )))
            }
        };
        // Every non-key column must land in exactly one fragment.
        let mut assigned: Vec<&str> = Vec::new();
        for (_, cols) in &fragments {
            for c in cols {
                pre.column(c)?;
                if *c == key {
                    return Err(RelError::Plan("key column cannot be split".into()));
                }
                if assigned.contains(c) {
                    return Err(RelError::DuplicateColumn((*c).to_owned()));
                }
                assigned.push(c);
            }
        }
        for c in pre.columns() {
            if c.name != key && !assigned.contains(&c.name.as_str()) {
                return Err(RelError::Plan(format!(
                    "column `{}` of `{}` not assigned to a fragment",
                    c.name, pre.name
                )));
            }
        }
        Ok(SplitPattern {
            table: pre.name.clone(),
            key,
            fragments: fragments
                .into_iter()
                .map(|(n, cs)| (n.to_owned(), cs.into_iter().map(str::to_owned).collect()))
                .collect(),
            pre: pre.clone(),
        })
    }

    fn fragment_schema(&self, name: &str, cols: &[String]) -> RelResult<Schema> {
        let mut columns = vec![self.pre.column(&self.key)?.clone()];
        for c in cols {
            columns.push(self.pre.column(c)?.clone());
        }
        Schema::new(name.to_owned(), columns)?.with_primary_key(&[self.key.as_str()])
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut out: Vec<Schema> = input
            .iter()
            .filter(|s| s.name != self.table)
            .cloned()
            .collect();
        for (name, cols) in &self.fragments {
            out.push(self.fragment_schema(name, cols)?);
        }
        Ok(out)
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let key_idx = t.schema().index_of(&self.key).expect("validated key");
        for (name, cols) in &self.fragments {
            let schema = self.fragment_schema(name, cols)?;
            let idxs: Vec<usize> = cols
                .iter()
                .map(|c| t.schema().index_of(c).expect("validated column"))
                .collect();
            let rows: Vec<Row> = t
                .iter_rows()
                .map(|r| {
                    let mut row = vec![r[key_idx].clone()];
                    row.extend(idxs.iter().map(|&i| r[i].clone()));
                    row
                })
                .collect();
            out.put_table(Table::from_rows(schema, rows)?);
        }
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        let mut iter = self.fragments.iter();
        let (first, _) = iter
            .next()
            .ok_or_else(|| RelError::Plan("split with no fragments".into()))?;
        let mut plan = Plan::scan(first.clone());
        for (frag, _) in iter {
            plan = plan.join(
                Plan::scan(frag.clone()),
                vec![(self.key.as_str(), self.key.as_str())],
                JoinKind::Inner,
            );
        }
        // Reassemble the naïve column order; the key comes from fragment 1,
        // duplicated key columns from later fragments are dropped here.
        let cols: Vec<&str> = self.pre.column_names();
        Ok(Some(plan.project_cols(&cols)))
    }
}

// ---------------------------------------------------------------------------
// HorizontalPartition
// ---------------------------------------------------------------------------

/// Rows of one form routed to different tables by a predicate — e.g. one
/// table per clinic site or per procedure year. Decode is the union of the
/// partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HPartitionPattern {
    pub table: String,
    /// `(partition_table, routing_predicate)`; a row lands in the first
    /// partition whose predicate matches.
    pub parts: Vec<(String, Expr)>,
    pub pre: Schema,
}

impl HPartitionPattern {
    pub fn new(pre: &Schema, parts: Vec<(&str, Expr)>) -> RelResult<HPartitionPattern> {
        if parts.is_empty() {
            return Err(RelError::Plan(
                "horizontal partition needs at least one part".into(),
            ));
        }
        for (_, p) in &parts {
            for c in p.referenced_columns() {
                pre.column(c)?;
            }
        }
        Ok(HPartitionPattern {
            table: pre.name.clone(),
            parts: parts.into_iter().map(|(n, p)| (n.to_owned(), p)).collect(),
            pre: pre.clone(),
        })
    }

    fn part_schema(&self, name: &str) -> Schema {
        self.pre.renamed(name.to_owned())
    }

    pub fn transform_schemas(&self, input: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut out: Vec<Schema> = input
            .iter()
            .filter(|s| s.name != self.table)
            .cloned()
            .collect();
        for (name, _) in &self.parts {
            out.push(self.part_schema(name));
        }
        Ok(out)
    }

    pub fn encode(&self, input: &Database) -> RelResult<Database> {
        let mut out = passthrough(input, &[&self.table]);
        let t = input.table(&self.table)?;
        let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); self.parts.len()];
        'rows: for row in t.iter_rows() {
            for (i, (_, pred)) in self.parts.iter().enumerate() {
                if pred.matches(t.schema(), row)? {
                    buckets[i].push(row.clone());
                    continue 'rows;
                }
            }
            return Err(RelError::Plan(format!(
                "row of `{}` matched no partition predicate",
                self.table
            )));
        }
        for ((name, _), rows) in self.parts.iter().zip(buckets) {
            out.put_table(Table::from_rows(self.part_schema(name), rows)?);
        }
        Ok(out)
    }

    pub fn decode_scan(&self, table: &str) -> RelResult<Option<Plan>> {
        if table != self.table {
            return Ok(None);
        }
        Ok(Some(Plan::union(
            self.parts
                .iter()
                .map(|(n, _)| Plan::scan(n.clone()))
                .collect(),
        )))
    }
}
