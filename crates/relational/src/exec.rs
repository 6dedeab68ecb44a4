//! Batch executor: the physical execution layer behind [`Plan::eval`].
//!
//! The logical algebra in [`crate::algebra`] can be interpreted
//! operator-at-a-time by [`Plan::eval_materialized`], which builds a full
//! [`Table`] at every node — simple and obviously correct, but each
//! operator re-validates and re-allocates every intermediate row. This
//! module compiles the same plans into one tree of physical operators
//! (`exec::ops`): one `Op` enum, one columnar `Batch` currency flowing
//! between them, and one `Op::run` that runs each node's children to
//! completion, in order, before it calls the node's kernel over their
//! output — operator at a time over batches, with no intermediate table.
//!
//! * **What runs is what was asked for.** [`Executor::execute`] first
//!   rewrites the plan ([`crate::optimize::prepare`]): a selection over a
//!   join filters the join's inputs instead (when it cannot fail),
//!   projection outputs nobody reads go (likewise), projection towers fuse
//!   into one row build, an identity projection under a pivot and a lookup
//!   join nobody consumes disappear — same table, same schema, same first
//!   error as the plan as written. `compile` below never knows.
//! * **Scans are zero-copy.** A scan compiles to a leaf holding the
//!   table's sealed chunks ([`crate::segment`]): it enters the tree as one
//!   shared window per chunk — the chunk's segment and its dead bits; the
//!   `column ⟨op⟩ literal` conjuncts of the filters above consult zone
//!   maps before a batch is formed and then run as lane masks straight
//!   over the segment's column storage (serial or parallel), and rows are
//!   cloned only when a stage rebuilds them. Chunks are sealed once — on the first scan
//!   that meets them — and stay sealed across installs, deletes included
//!   (DESIGN.md §18). There is no other resting format to scan; an inline
//!   `Plan::Values` relation does not rest at all and enters as one owned
//!   batch of its validated rows, like the output of a child operator.
//! * **Select / Project / Rename chains fuse** into a single pipeline
//!   node: a row flows through every predicate and projection before
//!   the next row is touched, with no intermediate tables. Rename is free
//!   — it only rewrites the schema at compile time. A pipeline that is
//!   nothing but lane-resolved filters copies no row at all: each window
//!   goes on with the rows it drops marked dead (`exec::vector`), and the
//!   sink keeps it as a chunk of the result, over the same backing and
//!   seal (`table::TableBuilder`). Only a `Sort`, which moves its input
//!   rows into its output, has them copied per morsel instead.
//! * **Union forwards** batches in child order; **Join** builds a hash
//!   index over its build side (run first) and probes batch-by-batch —
//!   unless its right side is a bare scan of a table keyed by exactly the
//!   join's right columns, which it does not read at all: each probe row
//!   looks its key up in that table's primary-key index (a property of
//!   the schema, never of statistics; join order and sides stay as
//!   written); **Distinct** keeps first occurrences in input order.
//! * The blocking operators — Pivot, AggregateBy, Sort, and the join's
//!   build side — read their input batches *by reference*, skipping dead
//!   rows: no shared row is copied
//!   to be grouped, indexed or pivoted (sort clones
//!   each shared row once, into its output slot). A pivot reads a shared
//!   window's entity, attribute and value columns off its sealed segment
//!   instead of its rows: per segment each attribute dictionary code
//!   resolves to its attribute once, each value code's cast to a declared
//!   type is made once and kept with the segment's column, and only owned
//!   batches and columns no dictionary images are read row by row. A
//!   pivot stores only the columns the stages fused over it read, and a
//!   projection of bare columns folds into that list; every declared
//!   attribute is still cast, so its errors surface where they did
//!   (DESIGN.md §13, *Pivot*).
//! * A projection binds each expression once: a `CASE` whose leading
//!   guards are literals becomes the arm or default they select, and one
//!   that binds to a bare column is a clone per row (DESIGN.md §12, *One
//!   classifier evaluator*).
//!
//! Parallelism selection is **per operator**: `Op::run` hands the
//! session's [`Executor`] to each node's kernel (`exec::vector`'s window
//! walk for fused pipelines, the lane kernels of `exec::blocking` for
//! join/aggregate/pivot/sort), which takes its morsel-parallel variant
//! (`exec::morsel`) when the input is large enough. There is exactly one
//! operator tree shape and one kernel per operator.
//!
//! Compilation ("binding") resolves every schema and column position up
//! front, so schema-level errors — unknown tables or columns, incompatible
//! unions, duplicate output columns — surface before any data flows.
//! Data-dependent errors (expression evaluation, EAV cast failures)
//! surface in row order as the operators run. For plans with a single
//! fault this reproduces the materializing interpreter's error exactly;
//! when a plan contains several independent faults the two evaluators may
//! report different ones (both still fail). `tests/algebra_properties.rs`
//! cross-validates the evaluators on random plans.
//!
//! # Parallel execution
//!
//! Large inputs take a **morsel-parallel** path (see [`morsel`]): the
//! input — one gathered row list, or for the fused pipeline and the join
//! probe the *list of windows* a scan arrived as — is cut into row ranges
//! of at most a morsel, never across a window, and a small work-stealing
//! scheduler runs the kernel over the morsels on scoped threads, merging
//! per-morsel results strictly in morsel-index order. That merge rule,
//! together with morsel boundaries that depend on the input's window
//! layout and the morsel size but never on the thread count, makes
//! parallel output **byte-identical** to serial output at any thread
//! count; errors keep row order because the lowest-index failing morsel
//! wins. The choice
//! between the serial and parallel path is made per operator from the
//! [`Executor`] the plan runs under: inputs below its
//! `parallel_threshold` stay serial, and so does everything when its
//! thread count is 1. The thread count defaults to the host's
//! [`available_parallelism`](std::thread::available_parallelism) — a
//! value the code works out for itself, so there is no environment
//! variable, and [`Executor::threads`] is the one way to say otherwise.
//! This module is the only place a plan or a workflow spawns threads
//! (DESIGN.md §10 records the paired runs that decided it). SUM/AVG over
//! FLOAT columns always run serially: `f64`
//! addition is not associative, and bit-for-bit agreement with the serial
//! kernel matters more than parallel speedup there.
//!
//! # Lanes and the `Executor` session API
//!
//! [`Executor`] is the single handle: the three knobs and the one
//! `execute` every other evaluator (`Plan::eval`, `EtlWorkflow::run*`,
//! `Engine`) goes through; a `DeltaPlan` runs the same `prepare` and this
//! module's stage walk (`apply_stages`) over its delta rows. Fused
//! Select/Project chains evaluate the leading filters that decompose into
//! `column ⟨op⟩ literal` conjuncts as
//! lane masks over segment storage and walk the selected rows, in row
//! order, through everything else (`exec::vector`; DESIGN.md §11 records
//! why no wider expression-kernel catalog exists); the blocking operators
//! shred the columns they read into typed lanes with null masks
//! (`exec::batch`) and run the lane kernels of `exec::blocking` (hashed
//! key lanes for join build/probe, distinct, and grouping; typed
//! accumulator lanes for aggregation; slot filling from segment dictionary
//! codes for pivot;
//! columnar sort keys with a parallel merge-path kernel for sort), with
//! non-conforming columns falling back to row values — byte-identical
//! results and error parity throughout (DESIGN.md §11, §13). The
//! operator-at-a-time reference
//! interpreter stays available as [`Plan::eval_materialized`] — not a
//! configuration of this executor but the oracle it is held to:
//! `tests/algebra_properties.rs` checks both lanes against it on random
//! plans, tables and errors alike.

mod batch;
mod blocking;
pub mod morsel;
mod ops;
mod vector;

use crate::algebra::{
    aggregate_output_schema, check_union_compatible, join_output_schema, keyless,
    pivot_output_schema, project_output_schema, rename_output_schema, resolve_aggregate_columns,
    resolve_column, resolve_columns, unpivot_output_schema, Plan,
};
use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::expr::Expr;
use crate::schema::Schema;
use crate::table::{Row, Table, TableBuilder};
use crate::value::Value;
use ops::Op;
use std::borrow::Cow;

/// Target number of rows per batch. Large enough to amortize per-batch
/// dispatch, small enough that a pipeline's working set stays cache-sized.
pub const BATCH_SIZE: usize = 1024;

/// Default minimum input cardinality for an operator to go parallel.
/// Below this, spawning threads costs more than the scan saves.
pub const PARALLEL_THRESHOLD: usize = 4096;

/// The executor: one `Copy` handle that says how plans use the machine
/// and evaluates any number of them. `Plan::eval`, the ETL workflow
/// runners and the warehouse `Engine` all go through one; every operator
/// and kernel receives it by value.
///
/// ```
/// use guava_relational::exec::Executor;
/// # use guava_relational::database::Database;
/// # use guava_relational::algebra::Plan;
/// # use guava_relational::schema::{Column, Schema};
/// # use guava_relational::table::Table;
/// # use guava_relational::value::DataType;
/// # let schema = Schema::new("t", vec![Column::new("x", DataType::Int)]).unwrap();
/// # let mut db = Database::new("d");
/// # db.create_table(Table::from_rows(schema, vec![]).unwrap()).unwrap();
/// let exec = Executor::new().threads(2).morsel_size(512);
/// let table = exec.execute(&Plan::scan("t"), &db).unwrap();
/// # assert_eq!(table.len(), 0);
/// ```
///
/// The builder methods move `self`, so a shared executor is cheap to
/// specialize: `base.threads(1)` copies the handle. The configuration
/// never changes *what* a plan evaluates to — every thread count produces
/// byte-identical tables and errors (see [`morsel`]) — only how much
/// hardware the kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    /// Worker threads for parallel operators. `1` forces the serial path.
    threads: usize,
    /// Minimum input rows before an operator considers going parallel.
    parallel_threshold: usize,
    /// Rows per morsel. Fixed morsel boundaries (independent of thread
    /// count) are what make parallel output deterministic; change this
    /// only to exercise merge logic in tests.
    morsel_size: usize,
}

impl Default for Executor {
    /// Threads from [`std::thread::available_parallelism`], the default
    /// cardinality threshold, and the default morsel size.
    fn default() -> Executor {
        Executor {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            parallel_threshold: PARALLEL_THRESHOLD,
            morsel_size: morsel::MORSEL_SIZE,
        }
    }
}

impl Executor {
    /// An executor with the default configuration.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Set the worker thread count (min 1; `1` forces the serial path).
    pub fn threads(mut self, n: usize) -> Executor {
        self.threads = n.max(1);
        self
    }

    /// Set the rows-per-morsel size (min 1).
    pub fn morsel_size(mut self, m: usize) -> Executor {
        self.morsel_size = m.max(1);
        self
    }

    /// Set the minimum input cardinality for operators to go parallel.
    pub fn parallel_threshold(mut self, rows: usize) -> Executor {
        self.parallel_threshold = rows;
        self
    }

    /// Should an operator over `rows` input rows take the parallel path?
    fn parallel_for(&self, rows: usize) -> bool {
        self.threads > 1 && rows > 0 && rows >= self.parallel_threshold
    }

    /// Evaluate `plan` against `db`. Results are identical for every
    /// configuration.
    pub fn execute(&self, plan: &Plan, db: &Database) -> RelResult<Table> {
        // A bare scan (or inline relation) at the root returns the stored table
        // itself — primary key included — exactly like the materializing
        // interpreter. A table clone shares every chunk, so it is O(#chunks).
        match plan {
            Plan::Scan(name) => return db.table(name).cloned(),
            Plan::Values { schema, rows } => return Table::from_rows(schema.clone(), rows.clone()),
            _ => {}
        }
        // What runs is the plan as asked for, not as written: dead columns,
        // projection towers and unread lookups go first (`crate::optimize`).
        let prepared = crate::optimize::prepare(plan, db);
        let plan = prepared.as_ref().unwrap_or(plan);
        let (schema, op) = compile(plan, db)?;
        // Every operator validated its own output wherever validation can fail
        // at all, so assembling the result does not re-check rows: a shared
        // window becomes a chunk of the result as it is.
        let mut out = TableBuilder::new(schema);
        for batch in op.run(*self)? {
            match batch {
                batch::Batch::Shared(w) => out.window(w),
                batch::Batch::Owned(rows) => out.rows(rows),
            }
        }
        out.finish()
    }
}

/// Compile a plan into its output schema and physical operator tree.
/// Binding recurses children-first, so schema errors surface in the same
/// order the materializing interpreter reports them.
fn compile<'p>(plan: &'p Plan, db: &Database) -> RelResult<(Schema, Op<'p>)> {
    Ok(match plan {
        Plan::Scan(name) => {
            let t = db.table(name)?;
            (t.schema().clone(), Op::Leaf(t.scan_parts()))
        }
        Plan::Values { schema, rows } => {
            // Inline relations validate eagerly — duplicate-key checks
            // included — mirroring `Table::from_rows` in the interpreter.
            // They are literals evaluated once, so sealing them would cost
            // more than every lane it could save: the rows go in owned and
            // are moved.
            let t = Table::from_rows(schema.clone(), rows.clone())?;
            (t.schema().clone(), Op::Rows(t.into_rows()))
        }
        Plan::Select { input, predicate } => {
            let (in_schema, child) = compile(input, db)?;
            let out = keyless(in_schema.clone());
            let stage = Stage::Filter {
                predicate: Cow::Borrowed(predicate),
                schema: in_schema,
            };
            (out, child.piped(stage))
        }
        Plan::Project { input, columns } => {
            let (in_schema, child) = compile(input, db)?;
            let out = project_output_schema(&in_schema, columns)?;
            let stage = Stage::Map(MapStage::new(columns.as_slice(), in_schema, out.clone()));
            (out, child.piped(stage))
        }
        Plan::Rename {
            input,
            table,
            columns,
        } => {
            // Pure metadata: rows pass through untouched, so Rename costs
            // nothing at run time.
            let (in_schema, child) = compile(input, db)?;
            let out = rename_output_schema(&in_schema, table.as_deref(), columns)?;
            (out, child)
        }
        Plan::Join {
            left,
            right,
            on,
            kind,
        } => {
            let (lschema, left) = compile(left, db)?;
            // A stored table keyed by exactly the right columns is probed
            // through its primary-key index; anything else is hashed.
            let (rschema, build) = match crate::optimize::keyed_lookup(right, on, db) {
                Some((table, order)) => (
                    table.schema().clone(),
                    ops::Build::Key {
                        table: table.clone(),
                        order,
                    },
                ),
                None => {
                    let (rschema, right) = compile(right, db)?;
                    (rschema, ops::Build::Hash(Box::new(right)))
                }
            };
            let l_idx = resolve_columns(&lschema, on.iter().map(|(l, _)| l))?;
            let r_idx = resolve_columns(&rschema, on.iter().map(|(_, r)| r))?;
            let schema = join_output_schema(&lschema, &rschema, *kind)?;
            let op = Op::Join {
                left: Box::new(left),
                lschema,
                rschema,
                l_idx,
                r_idx,
                kind: *kind,
                build,
            };
            (schema, op)
        }
        Plan::Union { inputs } => {
            let mut iter = inputs.iter();
            let first = iter
                .next()
                .ok_or_else(|| RelError::Plan("union of zero inputs".into()))?;
            let (first_schema, first_child) = compile(first, db)?;
            let schema = keyless(first_schema);
            let mut children = vec![first_child];
            for p in iter {
                let (s, c) = compile(p, db)?;
                check_union_compatible(&schema, &s)?;
                children.push(c);
            }
            let op = Op::Union {
                inputs: children,
                schema: schema.clone(),
            };
            (schema, op)
        }
        Plan::Distinct { input } => {
            let (in_schema, child) = compile(input, db)?;
            let schema = keyless(in_schema);
            let op = Op::Distinct {
                input: Box::new(child),
                schema: schema.clone(),
            };
            (schema, op)
        }
        Plan::Unpivot {
            input,
            keys,
            attr_col,
            val_col,
        } => {
            let (s, child) = compile(input, db)?;
            let key_idx = resolve_columns(&s, keys)?;
            let data_idx: Vec<usize> = (0..s.arity()).filter(|i| !key_idx.contains(i)).collect();
            let schema = unpivot_output_schema(&s, &key_idx, attr_col, val_col)?;
            let op = Op::Unpivot {
                input: Box::new(child),
                in_schema: s,
                key_idx,
                data_idx,
            };
            (schema, op)
        }
        Plan::Pivot {
            input,
            keys,
            attr_col,
            val_col,
            attrs,
        } => {
            let (s, child) = compile(input, db)?;
            let key_idx = resolve_columns(&s, keys)?;
            let attr_idx = resolve_column(&s, attr_col)?;
            let val_idx = resolve_column(&s, val_col)?;
            let schema = pivot_output_schema(&s, &key_idx, attrs)?;
            let op = Op::Pivot {
                input: Box::new(child),
                arity: s.arity(),
                key_idx,
                attr_idx,
                val_idx,
                attrs,
                stored: (0..schema.arity()).collect(),
            };
            (schema, op)
        }
        Plan::AggregateBy {
            input,
            group_by,
            aggregates,
        } => {
            let (s, child) = compile(input, db)?;
            let g_idx = resolve_columns(&s, group_by)?;
            let agg_idx = resolve_aggregate_columns(&s, aggregates)?;
            let schema = aggregate_output_schema(&s, &g_idx, &agg_idx, aggregates)?;
            let op = Op::Aggregate {
                input: Box::new(child),
                in_schema: s,
                out_schema: schema.clone(),
                g_idx,
                agg_idx,
                aggregates,
            };
            (schema, op)
        }
        Plan::Sort { input, by } => {
            let (in_schema, child) = compile(input, db)?;
            let schema = keyless(in_schema);
            let idxs = resolve_columns(&schema, by)?;
            let op = Op::Sort {
                input: Box::new(child),
                schema: schema.clone(),
                idxs,
            };
            (schema, op)
        }
        Plan::Limit { input, n } => {
            let (in_schema, child) = compile(input, db)?;
            let op = Op::Limit {
                input: Box::new(child),
                n: *n,
            };
            (keyless(in_schema), op)
        }
    })
}

/// One fused per-row transform. A compiled plan borrows its expressions;
/// a resident `crate::delta` pipeline owns them and runs the same walk
/// ([`apply_stages`]) over its delta rows.
#[derive(Clone)]
pub(crate) enum Stage<'p> {
    /// σ — drop rows failing the predicate (from `Plan::Select`).
    Filter {
        predicate: Cow<'p, Expr>,
        schema: Schema,
    },
    /// π — evaluate expressions into a fresh row (from `Plan::Project`).
    Map(MapStage<'p>),
}

impl<'p> Stage<'p> {
    /// The input positions this stage reads.
    fn reads(&self) -> Vec<usize> {
        let (exprs, schema): (Vec<&Expr>, _) = match self {
            Stage::Filter { predicate, schema } => (vec![predicate], schema),
            Stage::Map(map) => (map.exprs.iter().map(|e| &**e).collect(), &map.in_schema),
        };
        exprs
            .into_iter()
            .flat_map(Expr::referenced_columns)
            .filter_map(|c| schema.index_of(c))
            .collect()
    }

    /// This stage over rows that hold only the input columns at `keep`,
    /// in that order, each under its name here; `None` if such a row
    /// cannot be described.
    fn narrowed(&self, keep: &[usize]) -> Option<Stage<'p>> {
        let restrict = |s: &Schema| {
            let cols = keep.iter().map(|&c| s.columns()[c].clone()).collect();
            Schema::new(s.name.clone(), cols).ok()
        };
        Some(match self {
            Stage::Filter { predicate, schema } => Stage::Filter {
                predicate: predicate.clone(),
                schema: restrict(schema)?,
            },
            Stage::Map(map) => Stage::Map(map.rebound(restrict(&map.in_schema)?)),
        })
    }
}

/// A fused projection, bound to its input and output schemas.
#[derive(Clone)]
pub(crate) struct MapStage<'p> {
    /// Per output column: its expression as bound ([`bind_guards`]).
    exprs: Vec<Cow<'p, Expr>>,
    /// Per output expression: the input position of a bare column
    /// reference, resolved once at compile time; `None` for anything
    /// [`Expr::eval`] has to compute.
    cols: Vec<Option<usize>>,
    in_schema: Schema,
    out_schema: Schema,
}

impl<'p> MapStage<'p> {
    /// Bind `exprs` to the schema they read and the one they produce —
    /// `out_schema` is the projection's as written, which every output
    /// row is checked against.
    pub(crate) fn new(
        exprs: impl Into<Cow<'p, [(String, Expr)]>>,
        in_schema: Schema,
        out_schema: Schema,
    ) -> MapStage<'p> {
        let exprs = match exprs.into() {
            Cow::Borrowed(exprs) => exprs
                .iter()
                .map(|(_, e)| Cow::Borrowed(bind_guards(e)))
                .collect(),
            Cow::Owned(exprs) => exprs
                .iter()
                .map(|(_, e)| Cow::Owned(bind_guards(e).clone()))
                .collect(),
        };
        MapStage::bind(exprs, in_schema, out_schema)
    }

    fn bind(exprs: Vec<Cow<'p, Expr>>, in_schema: Schema, out_schema: Schema) -> MapStage<'p> {
        let cols = exprs
            .iter()
            .map(|e| match &**e {
                Expr::Col(name) => in_schema.index_of(name),
                _ => None,
            })
            .collect();
        MapStage {
            exprs,
            cols,
            in_schema,
            out_schema,
        }
    }

    /// The input positions of a projection of distinct bare columns whose
    /// row check cannot fail — every output column of its input column's
    /// type, and nullable where that one is — in output order; `None` for
    /// any other projection.
    fn folded(&self) -> Option<Vec<usize>> {
        let mut cols = Vec::with_capacity(self.cols.len());
        for (col, out) in self.cols.iter().zip(self.out_schema.columns()) {
            let c = (*col)?;
            let input = &self.in_schema.columns()[c];
            if cols.contains(&c)
                || input.data_type != out.data_type
                || (input.nullable && !out.nullable)
            {
                return None;
            }
            cols.push(c);
        }
        Some(cols)
    }

    /// The same projection over rows that `in_schema` describes.
    fn rebound(&self, in_schema: Schema) -> MapStage<'p> {
        MapStage::bind(self.exprs.clone(), in_schema, self.out_schema.clone())
    }

    /// Build the output row for `row` — the one projection implementation,
    /// behind the owned and the borrowed walk alike. The result is
    /// validated against `out_schema`, exactly as `Table::from_rows` would
    /// in the interpreter.
    fn map_row(&self, row: &[Value]) -> RelResult<Row> {
        let mut out = Vec::with_capacity(self.exprs.len());
        for (e, col) in self.exprs.iter().zip(&self.cols) {
            out.push(match col {
                Some(c) => row[*c].clone(),
                None => e.eval(&self.in_schema, row)?,
            });
        }
        self.out_schema.check_row(&out)?;
        Ok(out)
    }
}

/// `e` with its leading literal `CASE` guards resolved, again while the
/// result is such a `CASE`: a guard equal to TRUE makes the `CASE` its
/// arm's value, any other literal guard (FALSE, NULL) drops its arm, and
/// a `CASE` with no arm left is its default. Evaluating the result is
/// evaluating `e` — a literal guard reads nothing and cannot raise — so a
/// `Map` pays per row only for the value it keeps (DESIGN.md §12, *One
/// classifier evaluator*): `CASE WHEN TRUE THEN c ELSE NULL END` binds to
/// the bare column `c`. The output type and nullability stay those of `e`
/// as written ([`MapStage::new`]).
fn bind_guards(mut e: &Expr) -> &Expr {
    'bind: while let Expr::Case { arms, default } = e {
        for (guard, value) in arms {
            match guard {
                Expr::Lit(v) if *v == Value::Bool(true) => {
                    e = value;
                    continue 'bind;
                }
                Expr::Lit(_) => {}
                _ => break 'bind,
            }
        }
        e = default;
    }
    e
}

/// Run one owned row through the fused stages — the walk for batches a
/// child operator produced, which can be moved rather than cloned, and
/// for a resident plan's delta rows.
pub(crate) fn apply_stages(stages: &[Stage], mut row: Row) -> RelResult<Option<Row>> {
    for stage in stages {
        match stage {
            Stage::Filter { predicate, schema } => {
                if !predicate.matches(schema, &row)? {
                    return Ok(None);
                }
            }
            Stage::Map(map) => row = map.map_row(&row)?,
        }
    }
    Ok(Some(row))
}

/// Run one row of a shared scan window through the fused stages by
/// reference: filters read the borrowed row, the first `Map` builds the
/// output row and the rest is [`apply_stages`] over it — so a row is
/// cloned only when it survives a chain that has no `Map` to rebuild it.
fn apply_stages_ref(stages: &[Stage], row: &Row) -> RelResult<Option<Row>> {
    for (i, stage) in stages.iter().enumerate() {
        match stage {
            Stage::Filter { predicate, schema } => {
                if !predicate.matches(schema, row)? {
                    return Ok(None);
                }
            }
            Stage::Map(map) => return apply_stages(&stages[i + 1..], map.map_row(row)?),
        }
    }
    Ok(Some(row.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{AggFunc, Aggregate, JoinKind};
    use crate::schema::Column;
    use crate::value::DataType;

    fn wide_db(n: i64) -> Database {
        let schema = Schema::new(
            "t",
            vec![
                Column::required("id", DataType::Int),
                Column::new("grp", DataType::Text),
                Column::new("x", DataType::Int),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::text(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::Int(i % 7),
                ]
            })
            .collect();
        let mut db = Database::new("d");
        db.create_table(Table::from_rows(schema, rows).unwrap())
            .unwrap();
        db
    }

    /// `plan` gives the oracle's table, schema included, or its error, on
    /// the default executor, on one thread, and on two at a morsel of one
    /// row.
    fn assert_agrees(plan: &Plan, db: &Database) {
        let want = plan.eval_materialized(db);
        for exec in [
            Executor::new(),
            Executor::new().threads(1),
            Executor::new()
                .threads(2)
                .parallel_threshold(1)
                .morsel_size(1),
        ] {
            match (exec.execute(plan, db), &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.schema(), want.schema(), "{plan:?}");
                    assert_eq!(&got, want, "{plan:?}");
                }
                (Err(got), Err(want)) => assert_eq!(&got, want, "{plan:?}"),
                (got, want) => panic!("evaluators disagree for {plan:?}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn root_scan_shares_storage() {
        let db = wide_db(100);
        let t = Plan::scan("t").eval(&db).unwrap();
        // Same chunks: root scans share the stored table, not copy it.
        assert!(t.same_storage(db.table("t").unwrap()));
        assert_eq!(t.schema().primary_key(), &[0]);
    }

    #[test]
    fn fused_pipeline_matches_oracle_across_batches() {
        // > BATCH_SIZE rows so the pipeline crosses batch boundaries.
        let db = wide_db(3000);
        let plan = Plan::scan("t")
            .select(Expr::col("x").ge(Expr::lit(2i64)))
            .project(vec![
                ("id".to_owned(), Expr::col("id")),
                ("x2".to_owned(), Expr::col("x").mul(Expr::lit(2i64))),
            ])
            .select(Expr::col("x2").lt(Expr::lit(10i64)));
        assert_agrees(&plan, &db);
    }

    #[test]
    fn pipeline_emits_bounded_batches() {
        let db = wide_db(2500);
        let plan = Plan::scan("t").select(Expr::lit(true));
        let serial = Executor::new().threads(1);
        let (_, op) = compile(&plan, &db).unwrap();
        let batches = op.run(serial).unwrap();
        let mut total = 0;
        for b in &batches {
            assert!(b.len() > 0 && b.len() <= BATCH_SIZE);
            total += b.len();
        }
        assert_eq!(total, 2500);
    }

    #[test]
    fn filter_only_pipes_hand_windows_to_by_reference_consumers() {
        // Rows the pipeline clones, counted — not timed.
        let cloned = |plan: &Plan, db: &Database, cfg: Executor| {
            let (_, op) = compile(plan, db).unwrap();
            let batches = op.run(cfg).unwrap();
            let rows: usize = batches.iter().map(batch::Batch::len).sum();
            let owned = batches
                .iter()
                .filter(|b| matches!(b, batch::Batch::Owned(_)));
            (owned.map(batch::Batch::len).sum::<usize>(), rows)
        };
        for n in [2_000, 200_000] {
            let db = wide_db(n as i64);
            let n_even = n / 2;
            let all_pass = Plan::scan("t").select(Expr::col("x").ge(Expr::lit(0i64)));
            let alternating = Plan::scan("t").select(Expr::col("grp").eq(Expr::lit("even")));
            let rebuilt = all_pass.clone().project_cols(&["id"]);
            for cfg in [Executor::new().threads(1), Executor::new().threads(2)] {
                // A lane-resolved filter copies nothing, at any run
                // length: its windows carry the dropped rows as dead bits.
                assert_eq!(cloned(&all_pass, &db, cfg), (0, n));
                assert_eq!(cloned(&alternating, &db, cfg), (0, n_even));
                // A `Map` rebuilds rows anyway.
                assert_eq!(cloned(&rebuilt, &db, cfg), (n, n));
            }
        }
    }

    #[test]
    fn join_union_distinct_agree() {
        let db = wide_db(500);
        let join = Plan::scan("t").join(
            Plan::scan("t").project_cols(&["id", "grp"]),
            vec![("id", "id")],
            JoinKind::Inner,
        );
        assert_agrees(&join, &db);

        let left = Plan::scan("t")
            .select(Expr::col("x").ge(Expr::lit(3i64)))
            .join(
                Plan::scan("t").select(Expr::col("x").lt(Expr::lit(3i64))),
                vec![("id", "id")],
                JoinKind::Left,
            );
        assert_agrees(&left, &db);

        let union = Plan::union(vec![
            Plan::scan("t").project_cols(&["grp"]),
            Plan::scan("t").project_cols(&["grp"]),
        ])
        .distinct();
        assert_agrees(&union, &db);
    }

    #[test]
    fn blocking_operators_agree() {
        let db = wide_db(300);
        let agg = Plan::scan("t")
            .aggregate(
                &["grp"],
                vec![
                    Aggregate {
                        func: AggFunc::CountAll,
                        alias: "n".into(),
                    },
                    Aggregate {
                        func: AggFunc::Sum("x".into()),
                        alias: "sx".into(),
                    },
                ],
            )
            .sort_by(&["grp"]);
        assert_agrees(&agg, &db);

        let eav = Plan::Unpivot {
            input: Box::new(Plan::scan("t")),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
        };
        let roundtrip = Plan::Pivot {
            input: Box::new(eav.clone()),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
            attrs: vec![("grp".into(), DataType::Text), ("x".into(), DataType::Int)],
        };
        assert_agrees(&eav, &db);
        assert_agrees(&roundtrip, &db);
    }

    #[test]
    fn binding_errors_match_interpreter() {
        let db = wide_db(10);
        assert_agrees(&Plan::scan("nope"), &db);
        assert_agrees(&Plan::scan("t").sort_by(&["nope"]), &db);
        assert_agrees(
            &Plan::scan("t").join(Plan::scan("t"), vec![("nope", "id")], JoinKind::Inner),
            &db,
        );
        assert_agrees(
            &Plan::union(vec![
                Plan::scan("t").project_cols(&["id"]),
                Plan::scan("t").project_cols(&["grp"]),
            ]),
            &db,
        );
        assert_agrees(&Plan::Union { inputs: vec![] }, &db);
    }

    #[test]
    fn row_level_errors_match_interpreter() {
        let db = wide_db(10);
        // Division by zero deep in the data: x is 0 for id 0 and 7.
        let plan = Plan::scan("t").project(vec![(
            "q".to_owned(),
            Expr::lit(100i64).div(Expr::col("x")),
        )]);
        assert_agrees(&plan, &db);
        // Unknown column inside a predicate only fails when a row is
        // actually evaluated — over an empty input both evaluators succeed.
        let empty = Plan::scan("t")
            .select(Expr::lit(false))
            .select(Expr::col("ghost").is_null());
        assert_agrees(&empty, &db);
    }

    #[test]
    fn limit_drains_input_for_error_parity() {
        let db = wide_db(10);
        // The failing row (x == 0 at id 7) lies beyond the limit cutoff;
        // the interpreter still reports it, so the executor must too.
        let plan = Plan::scan("t")
            .select(Expr::col("id").ge(Expr::lit(1i64)))
            .project(vec![(
                "q".to_owned(),
                Expr::lit(100i64).div(Expr::col("x")),
            )])
            .limit(2);
        assert_agrees(&plan, &db);
        assert!(plan.eval(&db).is_err());
        // And a plain limit still truncates correctly.
        assert_agrees(&Plan::scan("t").project_cols(&["id"]).limit(3), &db);
    }

    #[test]
    fn distinct_dedupes_across_batch_boundaries() {
        let db = wide_db(2600);
        let plan = Plan::scan("t").project_cols(&["x"]).distinct();
        let t = plan.eval(&db).unwrap();
        assert_eq!(t.len(), 7);
        assert_agrees(&plan, &db);
    }

    #[test]
    fn values_root_and_intermediate() {
        let db = wide_db(5);
        let schema = Schema::new("v", vec![Column::required("k", DataType::Int)])
            .unwrap()
            .with_primary_key(&["k"])
            .unwrap();
        let values = Plan::Values {
            schema: schema.clone(),
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        let root = values.eval(&db).unwrap();
        assert_eq!(root.schema().primary_key(), &[0]);
        assert_agrees(&values, &db);
        // Duplicate keys in an inline relation fail in both evaluators.
        let dup = Plan::Values {
            schema,
            rows: vec![vec![Value::Int(1)], vec![Value::Int(1)]],
        };
        assert_agrees(&dup, &db);
        assert_agrees(&dup.clone().project_cols(&["k"]), &db);
    }

    fn case(arms: Vec<(Expr, Expr)>, default: Expr) -> Expr {
        Expr::Case {
            arms,
            default: Box::new(default),
        }
    }

    #[test]
    fn a_literal_case_guard_binds_to_its_value() {
        let db = wide_db(10);
        let null = || Expr::Lit(Value::Null);
        // What a TRUE guard binds to raises where it did: 1 / (x - 3)
        // divides by zero at id 3, before id 5 adds a number to text.
        let inner = case(
            vec![(
                Expr::col("id").eq(Expr::lit(5i64)),
                Expr::col("grp").add(Expr::lit(1i64)),
            )],
            Expr::lit(1i64).div(Expr::col("x").sub(Expr::lit(3i64))),
        );
        let div =
            Plan::scan("t").project(vec![("q", case(vec![(Expr::lit(true), inner)], null()))]);
        assert_agrees(&div, &db);
        let err = div.eval_materialized(&db).unwrap_err();
        assert_eq!(err, RelError::Eval("division by zero".into()));
        // FALSE and NULL guards drop their arms; with none left, the
        // default is the value.
        let dropped = case(
            vec![
                (Expr::lit(false), Expr::col("id")),
                (null(), Expr::col("x").add(Expr::lit(100i64))),
            ],
            Expr::col("x"),
        );
        let z = Plan::scan("t").project(vec![("v", dropped)]);
        assert_agrees(&z, &db);
        let z = z.eval_materialized(&db).unwrap();
        let xs: Vec<Value> = z.iter_rows().map(|r| r[0].clone()).collect();
        assert_eq!(xs, (0..10).map(|i| Value::Int(i % 7)).collect::<Vec<_>>());
        // A NOT NULL column under a TRUE guard keeps the nullable output
        // column the projection as written has.
        let kept = case(vec![(Expr::lit(true), Expr::col("id"))], null());
        let t = Plan::scan("t").project(vec![("id", kept)]);
        assert_agrees(&t, &db);
        let t = t.eval_materialized(&db).unwrap();
        assert!(!db.table("t").unwrap().schema().columns()[0].nullable);
        assert!(t.schema().columns()[0].nullable);
    }

    #[test]
    fn binding_resolves_only_leading_literal_guards() {
        let (t, f) = (Expr::lit(true), Expr::lit(false));
        let bound = |e: &Expr| bind_guards(e).clone();
        let c = |n: &str| Expr::col(n);
        let guard = c("x").ge(Expr::lit(1i64));
        // A TRUE arm after dropped ones; nested CASEs resolve in turn.
        let nested = case(vec![(t.clone(), c("b"))], c("z"));
        assert_eq!(
            bound(&case(
                vec![(f.clone(), c("a")), (t.clone(), nested)],
                c("z")
            )),
            c("b")
        );
        // A non-literal guard first: nothing after it moves.
        let opaque = case(vec![(guard, c("a")), (t.clone(), c("b"))], c("z"));
        assert_eq!(bound(&opaque), opaque);
        // A literal that is not TRUE never fires, whatever its type.
        assert_eq!(
            bound(&case(vec![(Expr::lit(1i64), c("a"))], c("z"))),
            c("z")
        );
    }

    #[test]
    fn a_pivot_stores_only_the_columns_its_stages_read() {
        let db = wide_db(50);
        let eav = Plan::Unpivot {
            input: Box::new(Plan::scan("t")),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
        };
        let pivot = Plan::Pivot {
            input: Box::new(eav),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
            attrs: vec![("grp".into(), DataType::Text), ("x".into(), DataType::Int)],
        };
        // The stored list of the pivot under the compiled pipeline.
        let stored = |plan: &Plan| {
            let (_, op) = compile(plan, &db).unwrap();
            let Op::Pipeline { input, .. } = op else {
                panic!("a pipeline at the root of {plan:?}");
            };
            let Op::Pivot { stored, .. } = *input else {
                panic!("a pivot under the pipeline of {plan:?}");
            };
            stored
        };
        // Bare columns fold: the pivot stores them in their order and no
        // pipeline is left.
        let bare = pivot.clone().project_cols(&["x", "id"]);
        let (_, op) = compile(&bare, &db).unwrap();
        assert!(matches!(&op, Op::Pivot { stored, .. } if stored == &[2, 0]));
        // A filter reading a column the map does not keeps the map, over
        // the read columns in the row's order.
        let filtered = pivot
            .clone()
            .select(Expr::col("grp").eq(Expr::lit("odd")))
            .project_cols(&["id"]);
        assert_eq!(stored(&filtered), [0, 1]);
        // A computed map stays, over what it reads.
        let computed = pivot
            .clone()
            .project(vec![("x2", Expr::col("x").mul(Expr::lit(2i64)))]);
        assert_eq!(stored(&computed), [2]);
        // A map over a folded one narrows the list again, through it.
        let twice = bare
            .clone()
            .project(vec![("x2", Expr::col("x").mul(Expr::lit(2i64)))]);
        assert_eq!(stored(&twice), [2]);
        // No map: everything is stored.
        let all = pivot.clone().select(Expr::col("x").ge(Expr::lit(3i64)));
        assert_eq!(stored(&all), [0, 1, 2]);
        for plan in [bare, filtered, computed, twice, all] {
            assert_agrees(&plan, &db);
        }
    }

    #[test]
    fn executor_builder_clamps_and_composes() {
        let exec = Executor::new()
            .threads(0)
            .morsel_size(0)
            .parallel_threshold(17);
        assert_eq!(exec.threads, 1);
        assert_eq!(exec.morsel_size, 1);
        assert_eq!(exec.parallel_threshold, 17);
        // Builder methods copy the handle: specializing one executor
        // leaves the original untouched.
        let base = Executor::new().threads(4);
        let small = base.morsel_size(64);
        assert_eq!(base.morsel_size, morsel::MORSEL_SIZE);
        assert_eq!(small.morsel_size, 64);
        assert_eq!(small.threads, 4);
    }

    #[test]
    fn executor_has_exactly_three_knobs() {
        // Exhaustive on purpose: a fourth field fails to compile here. Each
        // independently settable value doubles the configurations the
        // property suites and the benchmark must cover (simplicity guide,
        // *Options*): add one only when two callers that already exist
        // need different values; otherwise use a constant or work the
        // value out from the input.
        let Executor {
            threads,
            parallel_threshold,
            morsel_size,
        } = Executor::new();
        assert!(threads >= 1);
        assert_eq!(parallel_threshold, PARALLEL_THRESHOLD);
        assert_eq!(morsel_size, morsel::MORSEL_SIZE);
    }

    #[test]
    fn all_modes_agree_on_a_fused_pipeline() {
        let db = wide_db(2000);
        let plan = Plan::scan("t")
            .select(Expr::col("x").ge(Expr::lit(1i64)))
            .project(vec![
                ("id".to_owned(), Expr::col("id")),
                ("x2".to_owned(), Expr::col("x").mul(Expr::lit(2i64))),
            ])
            .select(Expr::col("x2").lt(Expr::lit(12i64)));
        let oracle = plan.eval_materialized(&db).unwrap();
        for threads in [1, 3] {
            let exec = Executor::new()
                .threads(threads)
                .parallel_threshold(1)
                .morsel_size(64);
            let got = exec.execute(&plan, &db).unwrap();
            assert_eq!(got, oracle, "{threads} threads");
        }
    }
}
