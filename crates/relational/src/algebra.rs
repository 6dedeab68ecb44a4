//! Relational algebra plans and their evaluator.
//!
//! GUAVA translates a query against a g-tree into a plan against the
//! contributor's physical database (Section 3.2); MultiClass compiles
//! studies into a chain of plans executed by ETL components (Figure 6).
//! The operator set is deliberately the paper's target language:
//! conjunctive queries with union, plus the pivot/un-pivot operators that
//! the Generic design pattern requires, plus aggregation for study reports.

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::expr::Expr;
use crate::schema::{Column, Schema};
use crate::table::{Row, Table};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Join variants. `Left` keeps unmatched left rows with NULL right columns —
/// needed when a form's optional sub-table (Split pattern) has no row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    Inner,
    Left,
}

/// An aggregate function over a column (or `*` for `CountAll`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggFunc {
    CountAll,
    /// COUNT(col): non-null values.
    Count(String),
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
}

/// One output column of an aggregation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    pub func: AggFunc,
    pub alias: String,
}

/// A logical query plan. Evaluation is bottom-up and materializing: each
/// node produces a [`Table`]. That matches the paper's ETL model, where each
/// component writes a temporary database read by the next (Figure 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Plan {
    /// Read a named table from the database.
    Scan(String),
    /// Inline constant relation.
    Values { schema: Schema, rows: Vec<Row> },
    /// σ: keep rows satisfying the predicate.
    Select { input: Box<Plan>, predicate: Expr },
    /// π with computed columns: each output column is `(alias, expr)`.
    Project {
        input: Box<Plan>,
        columns: Vec<(String, Expr)>,
    },
    /// ρ: rename the relation and/or individual columns.
    Rename {
        input: Box<Plan>,
        table: Option<String>,
        columns: Vec<(String, String)>,
    },
    /// Equi-join on pairs of column names `(left_col, right_col)`.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
        kind: JoinKind,
    },
    /// ∪ (bag union; wrap in Distinct for set union). Inputs must be
    /// union-compatible; the left schema's names win.
    Union { inputs: Vec<Plan> },
    /// δ: remove duplicate rows.
    Distinct { input: Box<Plan> },
    /// Un-pivot (the Generic pattern's *encode* direction): turn wide rows
    /// into Entity–Attribute–Value triples. `keys` are carried through;
    /// every other column becomes one (attribute, value-as-text) row.
    Unpivot {
        input: Box<Plan>,
        keys: Vec<String>,
        attr_col: String,
        val_col: String,
    },
    /// Pivot (the Generic pattern's *decode* direction): fold EAV triples
    /// back into wide rows. `attrs` fixes the output columns and their
    /// types; values are parsed from text. Missing attributes yield NULL.
    Pivot {
        input: Box<Plan>,
        keys: Vec<String>,
        attr_col: String,
        val_col: String,
        attrs: Vec<(String, DataType)>,
    },
    /// γ: group by columns and compute aggregates.
    AggregateBy {
        input: Box<Plan>,
        group_by: Vec<String>,
        aggregates: Vec<Aggregate>,
    },
    /// Sort by columns (all ascending; NULLs first via total order).
    Sort { input: Box<Plan>, by: Vec<String> },
    /// Keep the first `n` rows.
    Limit { input: Box<Plan>, n: usize },
}

impl Plan {
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan(table.into())
    }

    pub fn select(self, predicate: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, columns: Vec<(impl Into<String>, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    /// Shorthand projection keeping named columns untouched.
    pub fn project_cols(self, cols: &[&str]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: cols
                .iter()
                .map(|c| ((*c).to_owned(), Expr::col(*c)))
                .collect(),
        }
    }

    pub fn rename_table(self, table: impl Into<String>) -> Plan {
        Plan::Rename {
            input: Box::new(self),
            table: Some(table.into()),
            columns: Vec::new(),
        }
    }

    pub fn rename_columns(self, renames: Vec<(impl Into<String>, impl Into<String>)>) -> Plan {
        Plan::Rename {
            input: Box::new(self),
            table: None,
            columns: renames
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
        }
    }

    pub fn join(self, right: Plan, on: Vec<(&str, &str)>, kind: JoinKind) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on
                .into_iter()
                .map(|(a, b)| (a.to_owned(), b.to_owned()))
                .collect(),
            kind,
        }
    }

    pub fn union(inputs: Vec<Plan>) -> Plan {
        Plan::Union { inputs }
    }

    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    pub fn sort_by(self, by: &[&str]) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            by: by.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    pub fn aggregate(self, group_by: &[&str], aggregates: Vec<Aggregate>) -> Plan {
        Plan::AggregateBy {
            input: Box::new(self),
            group_by: group_by.iter().map(|s| (*s).to_owned()).collect(),
            aggregates,
        }
    }

    /// Names of every base table this plan scans (transitively).
    pub fn scanned_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk_scans(&mut |t| {
            if !out.contains(&t) {
                out.push(t);
            }
        });
        out
    }

    fn walk_scans<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Plan::Scan(t) => f(t),
            Plan::Values { .. } => {}
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Distinct { input }
            | Plan::Unpivot { input, .. }
            | Plan::Pivot { input, .. }
            | Plan::AggregateBy { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.walk_scans(f),
            Plan::Join { left, right, .. } => {
                left.walk_scans(f);
                right.walk_scans(f);
            }
            Plan::Union { inputs } => inputs.iter().for_each(|p| p.walk_scans(f)),
        }
    }

    /// The operator's inputs, in child order (a join's left, then right).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan(_) | Plan::Values { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Distinct { input }
            | Plan::Unpivot { input, .. }
            | Plan::Pivot { input, .. }
            | Plan::AggregateBy { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Evaluate the plan against a database with the default
    /// [`Executor`](crate::exec::Executor) — hold one and call its
    /// `execute` to evaluate many plans, or to set a thread count.
    ///
    /// Execution routes through the batch executor ([`crate::exec`]),
    /// where scans read the source table's `Arc`-shared storage
    /// without copying it and chains of Select/Project/Rename run fused,
    /// one pass over 1024-row batches. Only the blocking operators
    /// (Pivot, AggregateBy, Sort) gather their full input. The original
    /// operator-at-a-time interpreter remains available as
    /// [`Plan::eval_materialized`] and serves as the oracle the executor is
    /// property-tested against.
    pub fn eval(&self, db: &Database) -> RelResult<Table> {
        crate::exec::Executor::new().execute(self, db)
    }

    /// Evaluate the plan by materializing a full [`Table`] at every
    /// operator.
    ///
    /// This is the reference interpreter: simple, obviously correct, and
    /// the cross-validation oracle for the batch executor —
    /// `tests/algebra_properties.rs` checks [`Plan::eval`] agrees with it
    /// on random plans, including failing ones. It is not a configuration
    /// of the executor and reads none. Prefer `eval` unless you
    /// specifically want operator-at-a-time materialization.
    pub fn eval_materialized(&self, db: &Database) -> RelResult<Table> {
        self.interpret(db)
    }

    /// The materializing interpreter itself: the recursion behind
    /// [`Plan::eval_materialized`].
    pub(crate) fn interpret(&self, db: &Database) -> RelResult<Table> {
        match self {
            // O(1) since table row storage is Arc-shared.
            Plan::Scan(name) => db.table(name).cloned(),
            Plan::Values { schema, rows } => Table::from_rows(schema.clone(), rows.clone()),
            Plan::Select { input, predicate } => {
                let t = input.interpret(db)?;
                let schema = t.schema().clone();
                let mut rows = Vec::new();
                for r in t.into_rows() {
                    if predicate.matches(&schema, &r)? {
                        rows.push(r);
                    }
                }
                Table::from_rows(keyless(schema), rows)
            }
            Plan::Project { input, columns } => {
                let t = input.interpret(db)?;
                let in_schema = t.schema().clone();
                let schema = project_output_schema(&in_schema, columns)?;
                let rows: Vec<Row> = t
                    .iter_rows()
                    .map(|r| columns.iter().map(|(_, e)| e.eval(&in_schema, r)).collect())
                    .collect::<RelResult<Vec<Row>>>()?;
                Table::from_rows(schema, rows)
            }
            Plan::Rename {
                input,
                table,
                columns,
            } => {
                let t = input.interpret(db)?;
                let schema = rename_output_schema(t.schema(), table.as_deref(), columns)?;
                Table::from_rows(schema, t.into_rows())
            }
            Plan::Join {
                left,
                right,
                on,
                kind,
            } => eval_join(db, left, right, on, *kind),
            Plan::Union { inputs } => {
                let mut iter = inputs.iter();
                let first = iter
                    .next()
                    .ok_or_else(|| RelError::Plan("union of zero inputs".into()))?
                    .interpret(db)?;
                let schema = keyless(first.schema().clone());
                let mut rows = first.into_rows();
                for p in iter {
                    let t = p.interpret(db)?;
                    check_union_compatible(&schema, t.schema())?;
                    rows.extend(t.into_rows());
                }
                Table::from_rows(schema, rows)
            }
            Plan::Distinct { input } => {
                let t = input.interpret(db)?;
                let schema = keyless(t.schema().clone());
                let mut seen = std::collections::HashSet::new();
                let rows: Vec<Row> = t
                    .into_rows()
                    .into_iter()
                    .filter(|r| seen.insert(r.clone()))
                    .collect();
                Table::from_rows(schema, rows)
            }
            Plan::Unpivot {
                input,
                keys,
                attr_col,
                val_col,
            } => eval_unpivot(db, input, keys, attr_col, val_col),
            Plan::Pivot {
                input,
                keys,
                attr_col,
                val_col,
                attrs,
            } => eval_pivot(db, input, keys, attr_col, val_col, attrs),
            Plan::AggregateBy {
                input,
                group_by,
                aggregates,
            } => eval_aggregate(db, input, group_by, aggregates),
            Plan::Sort { input, by } => {
                let t = input.interpret(db)?;
                let schema = keyless(t.schema().clone());
                let idxs = resolve_columns(&schema, by)?;
                let mut rows = t.into_rows();
                sort_rows(&mut rows, &idxs);
                Table::from_rows(schema, rows)
            }
            Plan::Limit { input, n } => {
                let t = input.interpret(db)?;
                let schema = keyless(t.schema().clone());
                let rows: Vec<Row> = t.into_rows().into_iter().take(*n).collect();
                Table::from_rows(schema, rows)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binding and row-level kernels, shared between the materializing
// interpreter above and the batch executor (`crate::exec`). Keeping both
// evaluators on the same schema computations and per-row algorithms is what
// makes them provably interchangeable.
// ---------------------------------------------------------------------------

/// Intermediate results drop primary keys: operators may legitimately
/// produce duplicate key values (e.g. projection away from the key).
pub(crate) fn keyless(schema: Schema) -> Schema {
    Schema::new(schema.name.clone(), schema.columns().to_vec()).expect("schema was valid")
}

/// Resolve column names to positions in `s`, with the table-qualified error
/// every operator reports for a missing column.
pub(crate) fn resolve_columns<'a, I>(s: &Schema, names: I) -> RelResult<Vec<usize>>
where
    I: IntoIterator<Item = &'a String>,
{
    names
        .into_iter()
        .map(|c| {
            s.index_of(c).ok_or_else(|| RelError::UnknownColumn {
                table: s.name.clone(),
                column: c.clone(),
            })
        })
        .collect()
}

pub(crate) fn resolve_column(s: &Schema, name: &str) -> RelResult<usize> {
    s.index_of(name).ok_or_else(|| RelError::UnknownColumn {
        table: s.name.clone(),
        column: name.to_owned(),
    })
}

pub(crate) fn check_union_compatible(left: &Schema, right: &Schema) -> RelResult<()> {
    if !left.union_compatible(right) {
        return Err(RelError::Plan(format!(
            "union-incompatible schemas `{left}` and `{right}`"
        )));
    }
    Ok(())
}

pub(crate) fn project_output_schema(
    in_schema: &Schema,
    columns: &[(String, Expr)],
) -> RelResult<Schema> {
    let mut out_cols = Vec::with_capacity(columns.len());
    for (alias, e) in columns {
        out_cols.push(Column::new(alias.clone(), e.infer_type(in_schema)?));
    }
    Schema::new(in_schema.name.clone(), out_cols)
}

pub(crate) fn rename_output_schema(
    s: &Schema,
    table: Option<&str>,
    columns: &[(String, String)],
) -> RelResult<Schema> {
    let mut cols = s.columns().to_vec();
    for (from, to) in columns {
        let idx = s.index_of(from).ok_or_else(|| RelError::UnknownColumn {
            table: s.name.clone(),
            column: from.clone(),
        })?;
        cols[idx].name = to.clone();
    }
    let name = table.map(str::to_owned).unwrap_or_else(|| s.name.clone());
    Schema::new(name, cols)
}

/// Output schema of `plan`'s root operator over inputs with the given
/// schemas (one per child, in child order), or the binding error the
/// operator raises — the schema half of what the executor's `compile`
/// resolves, for the rewrite that runs before it ([`mod@crate::optimize`]).
pub(crate) fn bind_node(plan: &Plan, inputs: &[Schema], db: &Database) -> RelResult<Schema> {
    Ok(match plan {
        Plan::Scan(name) => db.table(name)?.schema().clone(),
        Plan::Values { schema, .. } => schema.clone(),
        Plan::Select { .. } | Plan::Distinct { .. } | Plan::Limit { .. } => {
            keyless(inputs[0].clone())
        }
        Plan::Project { columns, .. } => project_output_schema(&inputs[0], columns)?,
        Plan::Rename { table, columns, .. } => {
            rename_output_schema(&inputs[0], table.as_deref(), columns)?
        }
        Plan::Join { on, kind, .. } => {
            let (ls, rs) = (&inputs[0], &inputs[1]);
            resolve_columns(ls, on.iter().map(|(l, _)| l))?;
            resolve_columns(rs, on.iter().map(|(_, r)| r))?;
            join_output_schema(ls, rs, *kind)?
        }
        Plan::Union { .. } => {
            let first = inputs
                .first()
                .ok_or_else(|| RelError::Plan("union of zero inputs".into()))?;
            let schema = keyless(first.clone());
            for s in &inputs[1..] {
                check_union_compatible(&schema, s)?;
            }
            schema
        }
        Plan::Unpivot {
            keys,
            attr_col,
            val_col,
            ..
        } => {
            let key_idx = resolve_columns(&inputs[0], keys)?;
            unpivot_output_schema(&inputs[0], &key_idx, attr_col, val_col)?
        }
        Plan::Pivot {
            keys,
            attr_col,
            val_col,
            attrs,
            ..
        } => {
            let key_idx = resolve_columns(&inputs[0], keys)?;
            resolve_column(&inputs[0], attr_col)?;
            resolve_column(&inputs[0], val_col)?;
            pivot_output_schema(&inputs[0], &key_idx, attrs)?
        }
        Plan::AggregateBy {
            group_by,
            aggregates,
            ..
        } => {
            let g_idx = resolve_columns(&inputs[0], group_by)?;
            let agg_idx = resolve_aggregate_columns(&inputs[0], aggregates)?;
            aggregate_output_schema(&inputs[0], &g_idx, &agg_idx, aggregates)?
        }
        Plan::Sort { by, .. } => {
            let schema = keyless(inputs[0].clone());
            resolve_columns(&schema, by)?;
            schema
        }
    })
}

/// Output schema of a join: left columns, then right columns. Name
/// collisions get a `right.`-style disambiguating prefix; left-join right
/// columns become nullable even if declared NOT NULL.
pub(crate) fn join_output_schema(ls: &Schema, rs: &Schema, kind: JoinKind) -> RelResult<Schema> {
    let mut cols = ls.columns().to_vec();
    for c in rs.columns() {
        let mut c = c.clone();
        if ls.index_of(&c.name).is_some() {
            c.name = format!("{}.{}", rs.name, c.name);
        }
        if kind == JoinKind::Left {
            c.nullable = true;
        }
        cols.push(c);
    }
    Schema::new(format!("{}_{}", ls.name, rs.name), cols)
}

pub(crate) fn unpivot_output_schema(
    s: &Schema,
    key_idx: &[usize],
    attr_col: &str,
    val_col: &str,
) -> RelResult<Schema> {
    let mut cols: Vec<Column> = key_idx.iter().map(|&i| s.columns()[i].clone()).collect();
    cols.push(Column::new(attr_col, DataType::Text));
    cols.push(Column::new(val_col, DataType::Text));
    Schema::new(format!("{}_eav", s.name), cols)
}

/// Encode wide rows into EAV triples. Infallible: output columns are
/// carried keys plus freshly built text values.
pub(crate) fn unpivot_rows(
    s: &Schema,
    rows: &[Row],
    key_idx: &[usize],
    data_idx: &[usize],
) -> Vec<Row> {
    // One attribute-name cell per data column, shared by every EAV row
    // that names it; a text value is shared with its source row.
    let names: Vec<Value> = data_idx
        .iter()
        .map(|&di| Value::text(s.columns()[di].name.as_str()))
        .collect();
    let mut out = Vec::new();
    for row in rows {
        for (&di, name) in data_idx.iter().zip(&names) {
            if row[di].is_null() {
                continue; // unanswered controls simply have no EAV row
            }
            let mut r: Row = Vec::with_capacity(key_idx.len() + 2);
            r.extend(key_idx.iter().map(|&i| row[i].clone()));
            r.push(name.clone());
            r.push(match &row[di] {
                Value::Text(_) => row[di].clone(),
                other => Value::text(other.to_string()),
            });
            out.push(r);
        }
    }
    out
}

pub(crate) fn pivot_output_schema(
    s: &Schema,
    key_idx: &[usize],
    attrs: &[(String, DataType)],
) -> RelResult<Schema> {
    let mut cols: Vec<Column> = key_idx.iter().map(|&i| s.columns()[i].clone()).collect();
    for (name, ty) in attrs {
        cols.push(Column::new(name.clone(), *ty));
    }
    Schema::new(format!("{}_wide", s.name), cols)
}

/// Decode EAV triples back into wide rows, preserving first-seen entity
/// order for deterministic output.
pub(crate) fn pivot_rows(
    rows: &[impl AsRef<[Value]>],
    key_idx: &[usize],
    attr_idx: usize,
    val_idx: usize,
    attrs: &[(String, DataType)],
) -> RelResult<Vec<Row>> {
    use std::collections::hash_map::Entry;
    // Groups map entity keys to slots in `out`, so rows land directly in
    // first-seen order with no final reordering pass.
    let mut out: Vec<Row> = Vec::new();
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    let attr_pos: HashMap<&str, usize> = attrs
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    for row in rows {
        let row = row.as_ref();
        let key: Vec<Value> = key_idx.iter().map(|&i| row[i].clone()).collect();
        let slot = match groups.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let mut r: Row = Vec::with_capacity(key_idx.len() + attrs.len());
                r.extend(e.key().iter().cloned());
                r.extend(std::iter::repeat_n(Value::Null, attrs.len()));
                out.push(r);
                *e.insert(out.len() - 1)
            }
        };
        if let Some((pos, v)) = pivot_cell(row, attr_idx, val_idx, &attr_pos, attrs)? {
            out[slot][key_idx.len() + pos] = v;
        }
    }
    Ok(out)
}

/// What a pivot makes of one EAV row: the output column (as a position in
/// `attrs`) its attribute names, and its value cast to that column's
/// type. `None` when the row writes no cell — attributes outside `attrs`
/// are silently dropped (the g-tree query asked only for these nodes),
/// and a NULL value leaves its cell alone.
pub(crate) type PivotCell = Option<(usize, Value)>;

/// Validate and cast one pivot input row: the attribute cell must be
/// text, and a non-null value for a requested attribute must cast to the
/// attribute's declared type.
pub(crate) fn pivot_cell(
    row: &[Value],
    attr_idx: usize,
    val_idx: usize,
    attr_pos: &HashMap<&str, usize>,
    attrs: &[(String, DataType)],
) -> RelResult<PivotCell> {
    let attr = match &row[attr_idx] {
        Value::Text(a) => &**a,
        other => {
            return Err(RelError::Eval(format!(
                "pivot attribute column holds non-text value {other}"
            )))
        }
    };
    let Some(&pos) = attr_pos.get(attr) else {
        return Ok(None);
    };
    Ok(match &row[val_idx] {
        Value::Null => None,
        Value::Text(t) => Some((pos, cast_cell(t, attrs[pos].1)?)),
        other => Some((pos, cast_text(&other.to_string(), attrs[pos].1)?)),
    })
}

/// Resolve each aggregate's source column (`None` for `COUNT(*)`).
pub(crate) fn resolve_aggregate_columns(
    s: &Schema,
    aggregates: &[Aggregate],
) -> RelResult<Vec<Option<usize>>> {
    aggregates
        .iter()
        .map(|a| match &a.func {
            AggFunc::CountAll => Ok(None),
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Avg(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c) => s
                .index_of(c)
                .map(Some)
                .ok_or_else(|| RelError::UnknownColumn {
                    table: s.name.clone(),
                    column: c.clone(),
                }),
        })
        .collect()
}

pub(crate) fn aggregate_output_schema(
    s: &Schema,
    g_idx: &[usize],
    agg_idx: &[Option<usize>],
    aggregates: &[Aggregate],
) -> RelResult<Schema> {
    let mut cols: Vec<Column> = g_idx.iter().map(|&i| s.columns()[i].clone()).collect();
    for (a, idx) in aggregates.iter().zip(agg_idx) {
        let ty = match &a.func {
            AggFunc::CountAll | AggFunc::Count(_) => DataType::Int,
            AggFunc::Avg(_) => DataType::Float,
            AggFunc::Sum(_) | AggFunc::Min(_) | AggFunc::Max(_) => {
                s.columns()[idx.expect("column agg")].data_type
            }
        };
        cols.push(Column::new(a.alias.clone(), ty));
    }
    Schema::new(format!("{}_agg", s.name), cols)
}

/// Running accumulators for one aggregate of one group.
///
/// The state is **mergeable**: [`AggAcc::merge`] combines two accumulators
/// built over disjoint row ranges into the accumulator the full range would
/// have produced. That is what lets the parallel executor
/// (`exec::blocking`) fold per-morsel partial states in a final reduce.
/// Every combining operation here is associative (integer sums use
/// wrapping addition; min/max keep the first-seen extremum), **except**
/// the `f64` sum used for FLOAT columns — which is why the executor falls
/// back to the serial kernel for SUM/AVG over FLOAT (see `exec`).
#[derive(Default, Clone)]
pub(crate) struct AggAcc {
    count: i64,
    sum: f64,
    sum_is_float: bool,
    sum_int: i64,
    min: Option<Value>,
    max: Option<Value>,
    non_null: i64,
}

impl AggAcc {
    /// Fold one row into the accumulator. `idx` is the aggregate's source
    /// column (`None` for `COUNT(*)`).
    pub(crate) fn update(&mut self, idx: Option<usize>, row: &[Value]) {
        self.count += 1;
        if let Some(i) = idx {
            let v = &row[i];
            if v.is_null() {
                return;
            }
            self.non_null += 1;
            if let Some(f) = v.as_f64() {
                self.sum += f;
                if let Value::Int(n) = v {
                    self.sum_int = self.sum_int.wrapping_add(*n);
                } else {
                    self.sum_is_float = true;
                }
            }
            if self.min.as_ref().is_none_or(|m| v < m) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|m| v > m) {
                self.max = Some(v.clone());
            }
        }
    }

    /// Fold one non-null INT input off a typed lane — [`Self::update`]
    /// specialized to `Value::Int(n)` so the vectorized aggregation kernel
    /// (`exec::blocking`) skips the per-row `Value` fetch.
    pub(crate) fn update_int(&mut self, n: i64) {
        self.count += 1;
        self.non_null += 1;
        self.sum += n as f64;
        self.sum_int = self.sum_int.wrapping_add(n);
        let v = Value::Int(n);
        if self.min.as_ref().is_none_or(|m| &v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| &v > m) {
            self.max = Some(v);
        }
    }

    /// Fold one non-null FLOAT input off a typed lane — [`Self::update`]
    /// specialized to `Value::Float(f)`. The `f64` running sum adds in
    /// call order, so serial lane aggregation stays bit-identical to the
    /// row kernel.
    pub(crate) fn update_float(&mut self, f: f64) {
        self.count += 1;
        self.non_null += 1;
        self.sum += f;
        self.sum_is_float = true;
        let v = Value::Float(f);
        if self.min.as_ref().is_none_or(|m| &v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| &v > m) {
            self.max = Some(v);
        }
    }

    /// Fold one NULL input: only the raw row count moves, exactly as
    /// [`Self::update`] behaves when the source value is NULL.
    pub(crate) fn update_null(&mut self) {
        self.count += 1;
    }

    /// Un-fold one previously-folded row (the differential evaluator's
    /// *retract* operation, see [`crate::delta`]). Only sound for the
    /// retractable accumulator states — COUNT(*), COUNT(col), and SUM/AVG
    /// over INT-typed columns, whose exact `sum_int` path inverts under
    /// wrapping subtraction. Min/max extrema and the non-associative `f64`
    /// running sum cannot be un-folded; callers must fall back to
    /// recomputing the group before reading those through `finish`.
    pub(crate) fn retract(&mut self, idx: Option<usize>, row: &[Value]) {
        self.count -= 1;
        if let Some(i) = idx {
            let v = &row[i];
            if v.is_null() {
                return;
            }
            self.non_null -= 1;
            if let Some(f) = v.as_f64() {
                self.sum -= f;
                if let Value::Int(n) = v {
                    self.sum_int = self.sum_int.wrapping_sub(*n);
                }
            }
        }
    }

    /// Combine with an accumulator over a *later* row range. Ties in
    /// min/max keep `self`'s value, matching the serial kernel's
    /// first-occurrence-wins behaviour.
    pub(crate) fn merge(&mut self, other: AggAcc) {
        self.count += other.count;
        self.non_null += other.non_null;
        self.sum += other.sum;
        self.sum_int = self.sum_int.wrapping_add(other.sum_int);
        self.sum_is_float |= other.sum_is_float;
        if let Some(m) = other.min {
            if self.min.as_ref().is_none_or(|s| &m < s) {
                self.min = Some(m);
            }
        }
        if let Some(m) = other.max {
            if self.max.as_ref().is_none_or(|s| &m > s) {
                self.max = Some(m);
            }
        }
    }

    /// Final value of one aggregate function over this accumulator.
    pub(crate) fn finish(self, func: &AggFunc) -> Value {
        match func {
            AggFunc::CountAll => Value::Int(self.count),
            AggFunc::Count(_) => Value::Int(self.non_null),
            AggFunc::Sum(_) => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_is_float {
                    Value::Float(self.sum)
                } else {
                    Value::Int(self.sum_int)
                }
            }
            AggFunc::Avg(_) => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_is_float {
                    Value::Float(self.sum / self.non_null as f64)
                } else {
                    // All inputs were integers: average the exact integer
                    // sum so the result is independent of accumulation
                    // order (the f64 running sum is not associative).
                    Value::Float(self.sum_int as f64 / self.non_null as f64)
                }
            }
            AggFunc::Min(_) => self.min.unwrap_or(Value::Null),
            AggFunc::Max(_) => self.max.unwrap_or(Value::Null),
        }
    }
}

/// Grouped aggregation state of the row kernel ([`aggregate_rows`]):
/// accumulators per group key, with groups kept in first-seen order.
struct GroupedAggState {
    order: Vec<Vec<Value>>,
    groups: HashMap<Vec<Value>, Vec<AggAcc>>,
    n_aggs: usize,
}

impl GroupedAggState {
    /// Fresh state. When `global` (no GROUP BY), the single output group is
    /// pre-seeded: SQL's COUNT(*) over an empty input is one `0` row.
    fn new(global: bool, n_aggs: usize) -> GroupedAggState {
        let mut st = GroupedAggState {
            order: Vec::new(),
            groups: HashMap::new(),
            n_aggs,
        };
        if global {
            st.order.push(Vec::new());
            st.groups
                .insert(Vec::new(), (0..n_aggs).map(|_| AggAcc::default()).collect());
        }
        st
    }

    /// Fold one row into its group's accumulators.
    fn update(&mut self, row: &[Value], g_idx: &[usize], agg_idx: &[Option<usize>]) {
        let key: Vec<Value> = g_idx.iter().map(|&i| row[i].clone()).collect();
        let n_aggs = self.n_aggs;
        let accs = self.groups.entry(key.clone()).or_insert_with(|| {
            self.order.push(key);
            (0..n_aggs).map(|_| AggAcc::default()).collect()
        });
        for (idx, acc) in agg_idx.iter().zip(accs.iter_mut()) {
            acc.update(*idx, row);
        }
    }

    /// Emit one output row per group, in first-seen order.
    fn finish(mut self, aggregates: &[Aggregate]) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.order.len());
        for key in self.order {
            let accs = self.groups.remove(&key).expect("group exists");
            let mut row = key;
            for (a, acc) in aggregates.iter().zip(accs) {
                row.push(acc.finish(&a.func));
            }
            out.push(row);
        }
        out
    }
}

/// Group rows and fold aggregates. Infallible once columns are resolved;
/// group order is first-seen, matching the interpreter.
pub(crate) fn aggregate_rows(
    rows: &[Row],
    g_idx: &[usize],
    agg_idx: &[Option<usize>],
    aggregates: &[Aggregate],
) -> Vec<Row> {
    let mut st = GroupedAggState::new(g_idx.is_empty(), aggregates.len());
    for row in rows {
        st.update(row, g_idx, agg_idx);
    }
    st.finish(aggregates)
}

/// Sort rows by the given column positions (ascending, NULLs first via the
/// value total order).
pub(crate) fn sort_rows(rows: &mut [Row], idxs: &[usize]) {
    rows.sort_by(|a, b| {
        idxs.iter()
            .map(|&i| a[i].total_cmp(&b[i]))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn eval_join(
    db: &Database,
    left: &Plan,
    right: &Plan,
    on: &[(String, String)],
    kind: JoinKind,
) -> RelResult<Table> {
    let lt = left.interpret(db)?;
    let rt = right.interpret(db)?;
    let (ls, rs) = (lt.schema().clone(), rt.schema().clone());
    let l_idx = resolve_columns(&ls, on.iter().map(|(l, _)| l))?;
    let r_idx = resolve_columns(&rs, on.iter().map(|(_, r)| r))?;
    let schema = join_output_schema(&ls, &rs, kind)?;

    // Hash join, build side = right. NULL keys never match (SQL semantics).
    let mut index: HashMap<Vec<&Value>, Vec<&Row>> = HashMap::new();
    for row in rt.iter_rows() {
        let key: Vec<&Value> = r_idx.iter().map(|&i| &row[i]).collect();
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        index.entry(key).or_default().push(row);
    }
    let (l_arity, r_arity) = (ls.arity(), rs.arity());
    let mut out: Vec<Row> = Vec::new();
    for lrow in lt.iter_rows() {
        let key: Vec<&Value> = l_idx.iter().map(|&i| &lrow[i]).collect();
        let matches = if key.iter().any(|v| v.is_null()) {
            None
        } else {
            index.get(&key)
        };
        match matches {
            Some(rrows) => {
                for rrow in rrows {
                    let mut row = Vec::with_capacity(l_arity + r_arity);
                    row.extend(lrow.iter().cloned());
                    row.extend(rrow.iter().cloned());
                    out.push(row);
                }
            }
            None if kind == JoinKind::Left => {
                let mut row = Vec::with_capacity(l_arity + r_arity);
                row.extend(lrow.iter().cloned());
                row.extend(std::iter::repeat_n(Value::Null, r_arity));
                out.push(row);
            }
            None => {}
        }
    }
    Table::from_rows(schema, out)
}

fn eval_unpivot(
    db: &Database,
    input: &Plan,
    keys: &[String],
    attr_col: &str,
    val_col: &str,
) -> RelResult<Table> {
    let t = input.interpret(db)?;
    let s = t.schema().clone();
    let key_idx = resolve_columns(&s, keys)?;
    let data_idx: Vec<usize> = (0..s.arity()).filter(|i| !key_idx.contains(i)).collect();
    let schema = unpivot_output_schema(&s, &key_idx, attr_col, val_col)?;
    let rows = unpivot_rows(&s, &t.into_rows(), &key_idx, &data_idx);
    Table::from_rows(schema, rows)
}

/// [`cast_text`] of a text cell: a TEXT target shares the cell's
/// allocation instead of copying it.
pub(crate) fn cast_cell(text: &Arc<str>, ty: DataType) -> RelResult<Value> {
    match ty {
        DataType::Text => Ok(Value::Text(text.clone())),
        _ => cast_text(text, ty),
    }
}

/// Parse a textual EAV value back into a typed column value.
pub fn cast_text(text: &str, ty: DataType) -> RelResult<Value> {
    let v = match ty {
        DataType::Text => Some(Value::text(text)),
        DataType::Bool => match text {
            "TRUE" | "true" | "1" => Some(Value::Bool(true)),
            "FALSE" | "false" | "0" => Some(Value::Bool(false)),
            _ => None,
        },
        DataType::Int => text.parse::<i64>().ok().map(Value::Int),
        DataType::Float => text.parse::<f64>().ok().map(Value::Float),
        DataType::Date => parse_iso_date(text),
    };
    v.ok_or_else(|| RelError::Eval(format!("cannot cast '{text}' to {ty}")))
}

fn parse_iso_date(s: &str) -> Option<Value> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(Value::date_from_ymd(y, m, d))
}

fn eval_pivot(
    db: &Database,
    input: &Plan,
    keys: &[String],
    attr_col: &str,
    val_col: &str,
    attrs: &[(String, DataType)],
) -> RelResult<Table> {
    let t = input.interpret(db)?;
    let s = t.schema().clone();
    let key_idx = resolve_columns(&s, keys)?;
    let attr_idx = resolve_column(&s, attr_col)?;
    let val_idx = resolve_column(&s, val_col)?;
    let schema = pivot_output_schema(&s, &key_idx, attrs)?;
    let rows = pivot_rows(&t.into_rows(), &key_idx, attr_idx, val_idx, attrs)?;
    Table::from_rows(schema, rows)
}

fn eval_aggregate(
    db: &Database,
    input: &Plan,
    group_by: &[String],
    aggregates: &[Aggregate],
) -> RelResult<Table> {
    let t = input.interpret(db)?;
    let s = t.schema().clone();
    let g_idx = resolve_columns(&s, group_by)?;
    let agg_idx = resolve_aggregate_columns(&s, aggregates)?;
    let schema = aggregate_output_schema(&s, &g_idx, &agg_idx, aggregates)?;
    let rows = aggregate_rows(&t.into_rows(), &g_idx, &agg_idx, aggregates);
    Table::from_rows(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn db() -> Database {
        let mut db = Database::new("clinic");
        let procs = Schema::new(
            "procedures",
            vec![
                Column::required("proc_id", DataType::Int),
                Column::new("patient", DataType::Text),
                Column::new("packs", DataType::Int),
                Column::new("hypoxia", DataType::Bool),
            ],
        )
        .unwrap()
        .with_primary_key(&["proc_id"])
        .unwrap();
        db.create_table(
            Table::from_rows(
                procs,
                vec![
                    vec![1.into(), "ada".into(), 0.into(), true.into()],
                    vec![2.into(), "bob".into(), 3.into(), false.into()],
                    vec![3.into(), "cyd".into(), Value::Null, true.into()],
                    vec![4.into(), "ada".into(), 1.into(), false.into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let findings = Schema::new(
            "findings",
            vec![
                Column::required("proc_id", DataType::Int),
                Column::new("finding", DataType::Text),
            ],
        )
        .unwrap();
        db.create_table(
            Table::from_rows(
                findings,
                vec![
                    vec![1.into(), "polyp".into()],
                    vec![1.into(), "fissure".into()],
                    vec![2.into(), "polyp".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn select_project() {
        let db = db();
        let t = Plan::scan("procedures")
            .select(Expr::col("hypoxia").eq(Expr::lit(true)))
            .project_cols(&["patient"])
            .eval(&db)
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_at(0).unwrap()[0], Value::text("ada"));
    }

    #[test]
    fn computed_projection_types() {
        let db = db();
        let t = Plan::scan("procedures")
            .project(vec![(
                "double_packs",
                Expr::col("packs").mul(Expr::lit(2i64)),
            )])
            .eval(&db)
            .unwrap();
        assert_eq!(t.schema().columns()[0].data_type, DataType::Int);
        assert_eq!(t.row_at(1).unwrap()[0], Value::Int(6));
        assert!(t.row_at(2).unwrap()[0].is_null());
    }

    #[test]
    fn inner_and_left_join() {
        let db = db();
        let inner = Plan::scan("procedures")
            .join(
                Plan::scan("findings"),
                vec![("proc_id", "proc_id")],
                JoinKind::Inner,
            )
            .eval(&db)
            .unwrap();
        assert_eq!(inner.len(), 3);
        // Collision on proc_id gets prefixed.
        assert!(inner.schema().index_of("findings.proc_id").is_some());

        let left = Plan::scan("procedures")
            .join(
                Plan::scan("findings"),
                vec![("proc_id", "proc_id")],
                JoinKind::Left,
            )
            .eval(&db)
            .unwrap();
        assert_eq!(left.len(), 5); // procs 3 and 4 padded with NULLs
        let pad = left.iter_rows().find(|r| r[0] == Value::Int(3)).unwrap();
        assert!(pad[5].is_null());
    }

    #[test]
    fn union_and_distinct() {
        let db = db();
        let p = Plan::scan("procedures").project_cols(&["patient"]);
        let u = Plan::union(vec![p.clone(), p]).eval(&db).unwrap();
        assert_eq!(u.len(), 8);
        let d = Plan::union(vec![
            Plan::scan("procedures").project_cols(&["patient"]),
            Plan::scan("procedures").project_cols(&["patient"]),
        ])
        .distinct()
        .eval(&db)
        .unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn union_incompatible_rejected() {
        let db = db();
        let err = Plan::union(vec![
            Plan::scan("procedures").project_cols(&["patient"]),
            Plan::scan("procedures").project_cols(&["packs"]),
        ])
        .eval(&db)
        .unwrap_err();
        assert!(matches!(err, RelError::Plan(_)));
    }

    #[test]
    fn unpivot_then_pivot_roundtrips() {
        let db = db();
        let eav = Plan::Unpivot {
            input: Box::new(Plan::scan("procedures")),
            keys: vec!["proc_id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
        };
        let eav_t = eav.clone().eval(&db).unwrap();
        // 4 procs × 3 data cols, minus 1 NULL packs
        assert_eq!(eav_t.len(), 11);

        let wide = Plan::Pivot {
            input: Box::new(eav),
            keys: vec!["proc_id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
            attrs: vec![
                ("patient".into(), DataType::Text),
                ("packs".into(), DataType::Int),
                ("hypoxia".into(), DataType::Bool),
            ],
        }
        .eval(&db)
        .unwrap();
        assert_eq!(wide.len(), 4);
        let orig = db.table("procedures").unwrap();
        for (a, b) in orig.iter_rows().zip(wide.iter_rows()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn aggregate_by_group() {
        let db = db();
        let t = Plan::scan("procedures")
            .aggregate(
                &["patient"],
                vec![
                    Aggregate {
                        func: AggFunc::CountAll,
                        alias: "n".into(),
                    },
                    Aggregate {
                        func: AggFunc::Sum("packs".into()),
                        alias: "total_packs".into(),
                    },
                    Aggregate {
                        func: AggFunc::Avg("packs".into()),
                        alias: "avg_packs".into(),
                    },
                ],
            )
            .sort_by(&["patient"])
            .eval(&db)
            .unwrap();
        assert_eq!(t.len(), 3);
        // ada: rows 1 & 4, packs 0 + 1
        assert_eq!(
            t.row_at(0).unwrap(),
            &vec![Value::text("ada"), 2.into(), 1.into(), Value::Float(0.5)]
        );
        // cyd: packs NULL → SUM NULL, COUNT(*)=1
        assert_eq!(t.row_at(2).unwrap()[0], Value::text("cyd"));
        assert!(t.row_at(2).unwrap()[2].is_null());
    }

    #[test]
    fn count_distinct_via_distinct_plan() {
        let db = db();
        let t = Plan::scan("findings")
            .project_cols(&["finding"])
            .distinct()
            .aggregate(
                &[],
                vec![Aggregate {
                    func: AggFunc::CountAll,
                    alias: "n".into(),
                }],
            )
            .eval(&db)
            .unwrap();
        assert_eq!(t.row_at(0).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let mut db = Database::new("d");
        let s = Schema::new("e", vec![Column::new("x", DataType::Int)]).unwrap();
        db.create_table(Table::new(s)).unwrap();
        let t = Plan::scan("e")
            .aggregate(
                &[],
                vec![
                    Aggregate {
                        func: AggFunc::CountAll,
                        alias: "n".into(),
                    },
                    Aggregate {
                        func: AggFunc::Sum("x".into()),
                        alias: "s".into(),
                    },
                    Aggregate {
                        func: AggFunc::Min("x".into()),
                        alias: "m".into(),
                    },
                ],
            )
            .eval(&db)
            .unwrap();
        assert_eq!(
            t.len(),
            1,
            "SQL: COUNT(*) over empty input is a single 0 row"
        );
        assert_eq!(t.row_at(0).unwrap()[0], Value::Int(0));
        assert!(t.row_at(0).unwrap()[1].is_null());
        assert!(t.row_at(0).unwrap()[2].is_null());
        // Grouped aggregation over empty input stays empty.
        let g = Plan::scan("e")
            .aggregate(
                &["x"],
                vec![Aggregate {
                    func: AggFunc::CountAll,
                    alias: "n".into(),
                }],
            )
            .eval(&db)
            .unwrap();
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn sort_and_limit() {
        let db = db();
        let t = Plan::scan("procedures")
            .sort_by(&["packs"])
            .limit(2)
            .eval(&db)
            .unwrap();
        assert_eq!(t.len(), 2);
        assert!(
            t.row_at(0).unwrap()[2].is_null(),
            "NULL sorts first under total order"
        );
    }

    #[test]
    fn scanned_tables_transitive() {
        let p = Plan::scan("a")
            .join(Plan::scan("b"), vec![("x", "x")], JoinKind::Inner)
            .select(Expr::col("x").is_not_null());
        assert_eq!(p.scanned_tables(), vec!["a", "b"]);
    }

    #[test]
    fn cast_text_all_types() {
        assert_eq!(cast_text("42", DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            cast_text("2.5", DataType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            cast_text("TRUE", DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            cast_text("2006-03-26", DataType::Date).unwrap(),
            Value::date_from_ymd(2006, 3, 26)
        );
        assert!(cast_text("notanint", DataType::Int).is_err());
        assert!(cast_text("2006-13-01", DataType::Date).is_err());
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new("t");
        let s = Schema::new("l", vec![Column::new("k", DataType::Int)]).unwrap();
        db.create_table(Table::from_rows(s, vec![vec![Value::Null], vec![1.into()]]).unwrap())
            .unwrap();
        let s = Schema::new("r", vec![Column::new("k", DataType::Int)]).unwrap();
        db.create_table(Table::from_rows(s, vec![vec![Value::Null], vec![1.into()]]).unwrap())
            .unwrap();
        let t = Plan::scan("l")
            .join(Plan::scan("r"), vec![("k", "k")], JoinKind::Inner)
            .eval(&db)
            .unwrap();
        assert_eq!(t.len(), 1);
    }
}
