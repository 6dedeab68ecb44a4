//! Columnar batch kernels for vectorized `Expr` evaluation.
//!
//! This module is the MonetDB/X100-style execution lane behind the fused
//! pipeline operator: instead of calling
//! `Expr::eval` once per row — one enum dispatch, one `schema.index_of`
//! name lookup, and one boxed `Value` allocation per column reference per
//! row — the fused pipeline hands a whole slice of a scan window (at most
//! [`super::BATCH_SIZE`] rows, or one morsel) to [`run_batch_seeded`],
//! which:
//!
//! 1. **Builds lanes** ([`ColumnBatch`]): the first epoch's lanes arrive
//!    pre-built, sliced from the window's sealed segment; for each column
//!    a later epoch references that its `Map` did not compute, the
//!    `Value`s are shredded once into a typed array
//!    (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`, borrowed `&str`s, date days)
//!    plus a null mask. Columns whose stored values do not all match the
//!    declared type — notably FLOAT columns holding widened INT values,
//!    which must round-trip losslessly — keep a *row fallback lane* that
//!    reads `Value`s straight out of the batch rows.
//! 2. **Runs compiled kernels** ([`Kernel`]): comparison, arithmetic, and
//!    boolean loops over the lanes produce a selection mask for `Select`
//!    stages and output columns for `Project` stages. Operand combinations
//!    without a specialized loop fall back to a per-row loop over
//!    `expr::eval_bin` — the same function the row path calls — so the
//!    scalar semantics cannot drift.
//! 3. **Falls back per expression**: `CASE` and `COALESCE` evaluate their
//!    branches lazily in the row path (a skipped branch's error must not
//!    surface), so [`Kernel::compile`] refuses them — and unresolvable
//!    column names, which must fail per evaluated row, not at compile time
//!    — and the stage driver evaluates those expressions row-at-a-time via
//!    `Expr::eval` inside the same batch walk.
//!
//! # Error parity
//!
//! The row path stops at the first failing row; within a row it evaluates
//! projection expressions left-to-right and each expression tree
//! depth-first left-to-right (AND/OR do **not** short-circuit), then
//! validates the projected row column-by-column. The vectorized path
//! evaluates column-at-a-time, so it may *compute* past a failing row; to
//! report identically it records every error keyed by **original row
//! index** in an [`ErrAcc`] (first error per row wins, matching depth-first
//! order because kernels run in exactly that order), deselects failing rows
//! so later stages skip them (the row path never reaches a later stage for
//! a row that already failed), and finally reports the lowest-row error —
//! the same first-error-in-row-order rule the morsel merge uses (DESIGN.md
//! §10), which is what lets serial slices and morsel workers share the
//! one driver.
//!
//! Kernels never evaluate deselected rows in ways that can fail: loops
//! either skip unselected rows outright or compute only infallible
//! branchless forms over them, so a row dropped by an earlier filter can
//! never contribute an error the row path would not report.

use super::batch::{ColumnBatch, Lane};
use super::Stage;
use crate::error::{RelError, RelResult};
use crate::expr::{eval_bin, BinOp, Expr};
use crate::schema::{Column, Schema};
use crate::table::Row;
use crate::value::{DataType, Value};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Compiled stage programs
// ---------------------------------------------------------------------------

/// A compiled expression: a tree of column kernels, or the row-fallback
/// marker for expressions outside the kernel catalog.
pub(super) enum ExprProg {
    Kernel(Kernel),
    /// Evaluate via `Expr::eval` row-at-a-time inside the batch walk.
    Row,
}

/// One fused pipeline stage, compiled for vectorized execution. Parallel to
/// [`Stage`]: the driver walks both slices together.
pub(super) enum StageProg {
    /// σ — produce a selection update from the predicate kernel (`None`
    /// falls back to `Expr::matches` per selected row).
    Filter(Option<Kernel>),
    /// π — one program per output expression, in output-column order.
    Map(Vec<ExprProg>),
}

/// Compile every stage of a fused pipeline. Infallible: anything the
/// kernel compiler cannot express simply keeps the row path.
pub(super) fn compile_stages(stages: &[Stage<'_>]) -> Vec<StageProg> {
    stages
        .iter()
        .map(|stage| match stage {
            Stage::Filter { predicate, schema } => {
                StageProg::Filter(Kernel::compile(predicate, schema))
            }
            Stage::Map {
                exprs, in_schema, ..
            } => StageProg::Map(
                exprs
                    .iter()
                    .map(|(_, e)| {
                        Kernel::compile(e, in_schema).map_or(ExprProg::Row, ExprProg::Kernel)
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// A vectorizable expression with column references resolved to positions.
/// Mirrors [`Expr`] minus `Case`/`Coalesce` (lazy branch semantics — see
/// module docs) and minus unresolved column names.
pub(super) enum Kernel {
    Col(usize),
    Lit(Value),
    Bin(BinOp, Box<Kernel>, Box<Kernel>),
    Not(Box<Kernel>),
    Neg(Box<Kernel>),
    IsNull(Box<Kernel>),
    IsNotNull(Box<Kernel>),
    InList(Box<Kernel>, Vec<Value>),
}

impl Kernel {
    /// Lower `expr` against `schema`, or `None` if any part of the tree
    /// must stay on the row path.
    pub(super) fn compile(expr: &Expr, schema: &Schema) -> Option<Kernel> {
        Some(match expr {
            Expr::Col(name) => Kernel::Col(schema.index_of(name)?),
            Expr::Lit(v) => Kernel::Lit(v.clone()),
            Expr::Bin(op, a, b) => Kernel::Bin(
                *op,
                Box::new(Kernel::compile(a, schema)?),
                Box::new(Kernel::compile(b, schema)?),
            ),
            Expr::Not(e) => Kernel::Not(Box::new(Kernel::compile(e, schema)?)),
            Expr::Neg(e) => Kernel::Neg(Box::new(Kernel::compile(e, schema)?)),
            Expr::IsNull(e) => Kernel::IsNull(Box::new(Kernel::compile(e, schema)?)),
            Expr::IsNotNull(e) => Kernel::IsNotNull(Box::new(Kernel::compile(e, schema)?)),
            Expr::InList(e, vs) => {
                Kernel::InList(Box::new(Kernel::compile(e, schema)?), vs.clone())
            }
            Expr::Coalesce(_) | Expr::Case { .. } => return None,
        })
    }

    /// The same kernel with every column reference `j` replaced by
    /// `mapping[j]` — how filters compiled against a passthrough Map's
    /// output schema are re-targeted at the Map's input columns, letting
    /// the whole filter tower run over one batch without materializing
    /// the projected rows in between.
    fn remap(&self, mapping: &[usize]) -> Kernel {
        match self {
            Kernel::Col(j) => Kernel::Col(mapping[*j]),
            Kernel::Lit(v) => Kernel::Lit(v.clone()),
            Kernel::Bin(op, a, b) => {
                Kernel::Bin(*op, Box::new(a.remap(mapping)), Box::new(b.remap(mapping)))
            }
            Kernel::Not(e) => Kernel::Not(Box::new(e.remap(mapping))),
            Kernel::Neg(e) => Kernel::Neg(Box::new(e.remap(mapping))),
            Kernel::IsNull(e) => Kernel::IsNull(Box::new(e.remap(mapping))),
            Kernel::IsNotNull(e) => Kernel::IsNotNull(Box::new(e.remap(mapping))),
            Kernel::InList(e, vs) => Kernel::InList(Box::new(e.remap(mapping)), vs.clone()),
        }
    }

    /// Column positions referenced by this kernel tree (with duplicates).
    fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            Kernel::Col(i) => out.push(*i),
            Kernel::Lit(_) => {}
            Kernel::Bin(_, a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Kernel::Not(e) | Kernel::Neg(e) | Kernel::IsNull(e) | Kernel::IsNotNull(e) => {
                e.collect_cols(out)
            }
            Kernel::InList(e, _) => e.collect_cols(out),
        }
    }
}

// ---------------------------------------------------------------------------
// Error accumulation
// ---------------------------------------------------------------------------

/// Row-ordered error accumulator: the first error recorded for a row wins
/// (kernels run in the row path's depth-first order, so that is the error
/// the row path would raise), and [`ErrAcc::first`] yields the lowest-row
/// entry — the globally first failing row.
#[derive(Default)]
pub(super) struct ErrAcc {
    errs: BTreeMap<usize, RelError>,
}

impl ErrAcc {
    fn record(&mut self, row: usize, err: RelError) {
        self.errs.entry(row).or_insert(err);
    }

    fn first(self) -> Option<RelError> {
        self.errs.into_iter().next().map(|(_, e)| e)
    }
}

// Column lanes ([`Lane`], [`ColumnBatch`]) live in `exec::batch` — the
// blocking operators in `exec::blocking` shred batches with the same
// machinery, so the lane contract is defined once for both consumers.

// ---------------------------------------------------------------------------
// Kernel outputs and operand views
// ---------------------------------------------------------------------------

/// Result of evaluating one kernel over a batch. Lanes are only valid at
/// selected row positions; unselected slots hold nulls/garbage that no
/// consumer observes.
enum Out {
    /// Same value for every row.
    Const(Value),
    /// The kernel is a bare column reference; resolve through the batch.
    ColRef(usize),
    Int(Vec<i64>, Vec<bool>),
    Float(Vec<f64>, Vec<bool>),
    Bool(Vec<bool>, Vec<bool>),
    /// Generic row-fallback output.
    Vals(Vec<Value>),
}

/// A borrowed, resolved operand: what the op loops actually read.
enum View<'v, 'a> {
    Const(&'v Value),
    Int(&'v [i64], &'v [bool]),
    Float(&'v [f64], &'v [bool]),
    Bool(&'v [bool], &'v [bool]),
    Str(&'v [&'a str], &'v [bool]),
    Date(&'v [i64], &'v [bool]),
    /// Dictionary-encoded TEXT from segment storage: values are
    /// `dict[codes[i]]`, read through the codes without decoding except
    /// where a consumer materializes the value.
    Dict {
        codes: &'v [u32],
        nulls: &'v [bool],
        dict: &'a [String],
    },
    /// Column `c` through the row fallback lane.
    Rows(usize),
    Vals(&'v [Value]),
}

fn view<'v, 'a>(out: &'v Out, batch: &'v ColumnBatch<'a>) -> View<'v, 'a> {
    match out {
        Out::Const(v) => View::Const(v),
        Out::ColRef(c) => match &batch.lanes[*c] {
            Some(Lane::Int { vals, nulls }) => View::Int(vals, nulls),
            Some(Lane::Float { vals, nulls }) => View::Float(vals, nulls),
            Some(Lane::Bool { vals, nulls }) => View::Bool(vals, nulls),
            Some(Lane::Str { vals, nulls }) => View::Str(vals, nulls),
            Some(Lane::Date { vals, nulls }) => View::Date(vals, nulls),
            Some(Lane::Dict { codes, nulls, dict }) => View::Dict { codes, nulls, dict },
            Some(Lane::Vals(vals)) => View::Vals(vals),
            Some(Lane::Rows) | None => View::Rows(*c),
        },
        Out::Int(vals, nulls) => View::Int(vals, nulls),
        Out::Float(vals, nulls) => View::Float(vals, nulls),
        Out::Bool(vals, nulls) => View::Bool(vals, nulls),
        Out::Vals(vals) => View::Vals(vals),
    }
}

impl View<'_, '_> {
    /// Materialize row `i` as a `Value` (exact — row-lane and `Vals` reads
    /// return the stored value, typed lanes rebuild it losslessly).
    fn get(&self, batch: &ColumnBatch<'_>, i: usize) -> Value {
        match self {
            View::Const(v) => (*v).clone(),
            View::Int(vals, nulls) => lane_value(nulls, i, || Value::Int(vals[i])),
            View::Float(vals, nulls) => lane_value(nulls, i, || Value::Float(vals[i])),
            View::Bool(vals, nulls) => lane_value(nulls, i, || Value::Bool(vals[i])),
            View::Str(vals, nulls) => lane_value(nulls, i, || Value::text(vals[i])),
            View::Date(vals, nulls) => lane_value(nulls, i, || Value::Date(vals[i])),
            View::Dict { codes, nulls, dict } => {
                lane_value(nulls, i, || Value::text(dict[codes[i] as usize].as_str()))
            }
            View::Rows(c) => batch.rows[i][*c].clone(),
            View::Vals(vals) => vals[i].clone(),
        }
    }

    fn is_null(&self, batch: &ColumnBatch<'_>, i: usize) -> bool {
        match self {
            View::Const(v) => v.is_null(),
            View::Int(_, nulls)
            | View::Float(_, nulls)
            | View::Bool(_, nulls)
            | View::Str(_, nulls)
            | View::Date(_, nulls)
            | View::Dict { nulls, .. } => nulls[i],
            View::Rows(c) => batch.rows[i][*c].is_null(),
            View::Vals(vals) => vals[i].is_null(),
        }
    }
}

fn lane_value(nulls: &[bool], i: usize, v: impl FnOnce() -> Value) -> Value {
    if nulls[i] {
        Value::Null
    } else {
        v()
    }
}

// ---------------------------------------------------------------------------
// Specialized operand classes
// ---------------------------------------------------------------------------

/// A numeric operand for the arithmetic/comparison fast loops: a typed
/// lane or a non-null numeric constant.
enum Num<'v> {
    Ints(&'v [i64], &'v [bool]),
    Floats(&'v [f64], &'v [bool]),
    IntConst(i64),
    FloatConst(f64),
}

impl Num<'_> {
    fn classify<'v>(v: &View<'v, '_>) -> Option<Num<'v>> {
        match v {
            View::Int(vals, nulls) => Some(Num::Ints(vals, nulls)),
            View::Float(vals, nulls) => Some(Num::Floats(vals, nulls)),
            View::Const(Value::Int(i)) => Some(Num::IntConst(*i)),
            View::Const(Value::Float(f)) => Some(Num::FloatConst(*f)),
            _ => None,
        }
    }

    fn is_int(&self) -> bool {
        matches!(self, Num::Ints(..) | Num::IntConst(_))
    }

    fn null_at(&self, i: usize) -> bool {
        match self {
            Num::Ints(_, nulls) | Num::Floats(_, nulls) => nulls[i],
            _ => false,
        }
    }

    fn i64_at(&self, i: usize) -> i64 {
        match self {
            Num::Ints(vals, _) => vals[i],
            Num::IntConst(c) => *c,
            _ => unreachable!("i64_at on a float operand"),
        }
    }

    fn f64_at(&self, i: usize) -> f64 {
        match self {
            Num::Ints(vals, _) => vals[i] as f64,
            Num::Floats(vals, _) => vals[i],
            Num::IntConst(c) => *c as f64,
            Num::FloatConst(c) => *c,
        }
    }

    /// Rebuild the exact `Value` at row `i`, for delegated error messages.
    fn value_at(&self, i: usize) -> Value {
        match self {
            Num::Ints(vals, nulls) => lane_value(nulls, i, || Value::Int(vals[i])),
            Num::Floats(vals, nulls) => lane_value(nulls, i, || Value::Float(vals[i])),
            Num::IntConst(c) => Value::Int(*c),
            Num::FloatConst(c) => Value::Float(*c),
        }
    }
}

/// A boolean operand for the AND/OR fast loop: a Bool lane, a Bool
/// constant, or the NULL constant.
enum BoolOp<'v> {
    Lane(&'v [bool], &'v [bool]),
    Const(Option<bool>),
}

impl BoolOp<'_> {
    fn classify<'v>(v: &View<'v, '_>) -> Option<BoolOp<'v>> {
        match v {
            View::Bool(vals, nulls) => Some(BoolOp::Lane(vals, nulls)),
            View::Const(Value::Bool(b)) => Some(BoolOp::Const(Some(*b))),
            View::Const(Value::Null) => Some(BoolOp::Const(None)),
            _ => None,
        }
    }

    fn at(&self, i: usize) -> Option<bool> {
        match self {
            BoolOp::Lane(vals, nulls) => (!nulls[i]).then(|| vals[i]),
            BoolOp::Const(c) => *c,
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel evaluation
// ---------------------------------------------------------------------------

impl Kernel {
    /// Evaluate over `batch`, computing only rows with `sel[i]` set
    /// wherever evaluation can fail or allocate. Errors are recorded per
    /// current-batch row into `errs`; output slots for unselected or
    /// failed rows hold nulls that no consumer reads.
    fn eval(&self, batch: &ColumnBatch<'_>, sel: &[bool], errs: &mut ErrAcc) -> Out {
        let n = batch.len();
        match self {
            Kernel::Col(c) => Out::ColRef(*c),
            Kernel::Lit(v) => Out::Const(v.clone()),
            Kernel::Bin(op, a, b) => {
                let l = a.eval(batch, sel, errs);
                let r = b.eval(batch, sel, errs);
                eval_bin_vec(*op, &l, &r, batch, sel, errs)
            }
            Kernel::Not(e) => {
                let v = e.eval(batch, sel, errs);
                match view(&v, batch) {
                    View::Bool(vals, nulls) => {
                        Out::Bool(vals.iter().map(|b| !b).collect(), nulls.to_vec())
                    }
                    View::Const(Value::Null) => Out::Const(Value::Null),
                    View::Const(Value::Bool(b)) => Out::Const(Value::Bool(!b)),
                    w => masked_unary(n, sel, errs, |i| match w.get(batch, i) {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        v => Err(RelError::Eval(format!("NOT applied to non-boolean {v}"))),
                    }),
                }
            }
            Kernel::Neg(e) => {
                let v = e.eval(batch, sel, errs);
                match view(&v, batch) {
                    View::Float(vals, nulls) => {
                        Out::Float(vals.iter().map(|f| -f).collect(), nulls.to_vec())
                    }
                    w => masked_unary(n, sel, errs, |i| match w.get(batch, i) {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        v => Err(RelError::Eval(format!("unary - applied to {v}"))),
                    }),
                }
            }
            Kernel::IsNull(e) => {
                let v = e.eval(batch, sel, errs);
                is_null_out(&view(&v, batch), batch, n, false)
            }
            Kernel::IsNotNull(e) => {
                let v = e.eval(batch, sel, errs);
                is_null_out(&view(&v, batch), batch, n, true)
            }
            Kernel::InList(e, vs) => {
                let v = e.eval(batch, sel, errs);
                let w = view(&v, batch);
                masked_unary(n, sel, errs, |i| {
                    let v = w.get(batch, i);
                    if v.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Bool(vs.iter().any(|c| v.sql_eq(c) == Some(true))))
                })
            }
        }
    }
}

/// Per-selected-row loop for unary fallbacks (NOT/NEG over non-lane
/// operands, IN-list membership). Infallible rows still allocate a `Value`;
/// these shapes are rare and never on the hot scan path.
fn masked_unary(
    n: usize,
    sel: &[bool],
    errs: &mut ErrAcc,
    mut f: impl FnMut(usize) -> RelResult<Value>,
) -> Out {
    let mut out = Vec::with_capacity(n);
    for (i, &keep) in sel.iter().enumerate().take(n) {
        if !keep {
            out.push(Value::Null);
            continue;
        }
        match f(i) {
            Ok(v) => out.push(v),
            Err(e) => {
                errs.record(i, e);
                out.push(Value::Null);
            }
        }
    }
    Out::Vals(out)
}

/// IS NULL / IS NOT NULL: pure null-mask reads, branchless and infallible.
fn is_null_out(w: &View<'_, '_>, batch: &ColumnBatch<'_>, n: usize, negate: bool) -> Out {
    if let View::Const(v) = w {
        return Out::Const(Value::Bool(v.is_null() != negate));
    }
    let vals = (0..n).map(|i| w.is_null(batch, i) != negate).collect();
    Out::Bool(vals, vec![false; n])
}

/// Binary-operator dispatch: route to a specialized lane loop when both
/// operands fit a fast class, otherwise run the generic per-row loop over
/// [`eval_bin`].
fn eval_bin_vec(
    op: BinOp,
    l: &Out,
    r: &Out,
    batch: &ColumnBatch<'_>,
    sel: &[bool],
    errs: &mut ErrAcc,
) -> Out {
    let n = batch.len();
    let (lv, rv) = (view(l, batch), view(r, batch));
    // A NULL constant operand short-circuits arithmetic and ordering to
    // NULL for every row (the row path checks nulls before anything else,
    // including operand types and division by zero). AND/OR must not fold:
    // `FALSE AND NULL` is FALSE, and a non-boolean other side still errors.
    if !matches!(op, BinOp::And | BinOp::Or) {
        if let (View::Const(Value::Null), _) | (_, View::Const(Value::Null)) = (&lv, &rv) {
            return Out::Const(Value::Null);
        }
    }
    match op {
        BinOp::And | BinOp::Or => match (BoolOp::classify(&lv), BoolOp::classify(&rv)) {
            (Some(a), Some(b)) => logic_loop(op, &a, &b, n),
            _ => generic_bin(op, &lv, &rv, batch, sel, errs),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            match (Num::classify(&lv), Num::classify(&rv)) {
                (Some(a), Some(b)) => arith_loop(op, &a, &b, n, sel, errs),
                _ => generic_bin(op, &lv, &rv, batch, sel, errs),
            }
        }
        BinOp::Eq | BinOp::Ne => {
            let negate = op == BinOp::Ne;
            match (&lv, &rv) {
                _ if Num::classify(&lv).is_some() && Num::classify(&rv).is_some() => {
                    let (a, b) = (Num::classify(&lv).unwrap(), Num::classify(&rv).unwrap());
                    eq_num_loop(&a, &b, n, negate)
                }
                (View::Str(av, an), View::Str(bv, bn)) => {
                    cmp_mask_loop(n, an, bn, |i| av[i] == bv[i], negate)
                }
                (View::Str(av, an), View::Const(Value::Text(c)))
                | (View::Const(Value::Text(c)), View::Str(av, an)) => {
                    // == is symmetric, so const side order does not matter.
                    cmp_mask_loop(n, an, an, |i| av[i] == c.as_str(), negate)
                }
                (View::Dict { codes, nulls, dict }, View::Const(Value::Text(c)))
                | (View::Const(Value::Text(c)), View::Dict { codes, nulls, dict }) => {
                    // Dictionary-aware compare: test the literal against
                    // each distinct string once, then compare codes.
                    let hit: Vec<bool> = dict.iter().map(|s| s == c).collect();
                    cmp_mask_loop(n, nulls, nulls, |i| hit[codes[i] as usize], negate)
                }
                (View::Dict { codes, nulls, dict }, View::Str(bv, bn)) => {
                    cmp_mask_loop(n, nulls, bn, |i| dict[codes[i] as usize] == bv[i], negate)
                }
                (View::Str(av, an), View::Dict { codes, nulls, dict }) => {
                    cmp_mask_loop(n, an, nulls, |i| av[i] == dict[codes[i] as usize], negate)
                }
                (
                    View::Dict {
                        codes: ac,
                        nulls: an,
                        dict: ad,
                    },
                    View::Dict {
                        codes: bc,
                        nulls: bn,
                        dict: bd,
                    },
                ) => cmp_mask_loop(
                    n,
                    an,
                    bn,
                    |i| ad[ac[i] as usize] == bd[bc[i] as usize],
                    negate,
                ),
                (View::Date(av, an), View::Date(bv, bn)) => {
                    cmp_mask_loop(n, an, bn, |i| av[i] == bv[i], negate)
                }
                (View::Date(av, an), View::Const(Value::Date(c)))
                | (View::Const(Value::Date(c)), View::Date(av, an)) => {
                    cmp_mask_loop(n, an, an, |i| av[i] == *c, negate)
                }
                _ => generic_bin(op, &lv, &rv, batch, sel, errs),
            }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            match (Num::classify(&lv), Num::classify(&rv)) {
                (Some(a), Some(b)) => ord_num_loop(op, &a, &b, n, sel, errs),
                _ => match (&lv, &rv) {
                    (View::Str(av, an), View::Str(bv, bn)) => {
                        ord_apply_loop(op, n, an, bn, |i| av[i].cmp(bv[i]))
                    }
                    (View::Str(av, an), View::Const(Value::Text(c))) => {
                        ord_apply_loop(op, n, an, an, |i| av[i].cmp(c.as_str()))
                    }
                    (View::Const(Value::Text(c)), View::Str(bv, bn)) => {
                        ord_apply_loop(op, n, bn, bn, |i| c.as_str().cmp(bv[i]))
                    }
                    (View::Dict { codes, nulls, dict }, View::Const(Value::Text(c))) => {
                        // Dictionary-aware ordering: rank the literal
                        // against each distinct string once.
                        let ords: Vec<std::cmp::Ordering> =
                            dict.iter().map(|s| s.as_str().cmp(c.as_str())).collect();
                        ord_apply_loop(op, n, nulls, nulls, |i| ords[codes[i] as usize])
                    }
                    (View::Const(Value::Text(c)), View::Dict { codes, nulls, dict }) => {
                        let ords: Vec<std::cmp::Ordering> =
                            dict.iter().map(|s| c.as_str().cmp(s.as_str())).collect();
                        ord_apply_loop(op, n, nulls, nulls, |i| ords[codes[i] as usize])
                    }
                    (View::Date(av, an), View::Date(bv, bn)) => {
                        ord_apply_loop(op, n, an, bn, |i| av[i].cmp(&bv[i]))
                    }
                    (View::Date(av, an), View::Const(Value::Date(c))) => {
                        ord_apply_loop(op, n, an, an, |i| av[i].cmp(c))
                    }
                    (View::Const(Value::Date(c)), View::Date(bv, bn)) => {
                        ord_apply_loop(op, n, bn, bn, |i| c.cmp(&bv[i]))
                    }
                    _ => generic_bin(op, &lv, &rv, batch, sel, errs),
                },
            }
        }
    }
}

/// Generic per-row binary loop: fetch both operands as `Value`s and call
/// the scalar [`eval_bin`] — parity by construction. Only selected rows
/// evaluate (the row path never reaches dropped rows).
fn generic_bin(
    op: BinOp,
    l: &View<'_, '_>,
    r: &View<'_, '_>,
    batch: &ColumnBatch<'_>,
    sel: &[bool],
    errs: &mut ErrAcc,
) -> Out {
    let n = batch.len();
    let mut out = Vec::with_capacity(n);
    for (i, &keep) in sel.iter().enumerate().take(n) {
        if !keep {
            out.push(Value::Null);
            continue;
        }
        match eval_bin(op, &l.get(batch, i), &r.get(batch, i)) {
            Ok(v) => out.push(v),
            Err(e) => {
                errs.record(i, e);
                out.push(Value::Null);
            }
        }
    }
    Out::Vals(out)
}

/// Three-valued AND/OR over boolean operands. Infallible (both sides are
/// statically boolean or NULL), so it runs branchless over all rows.
fn logic_loop(op: BinOp, a: &BoolOp<'_>, b: &BoolOp<'_>, n: usize) -> Out {
    let mut vals = vec![false; n];
    let mut nulls = vec![false; n];
    for i in 0..n {
        let v = match op {
            BinOp::And => match (a.at(i), b.at(i)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (a.at(i), b.at(i)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        match v {
            Some(b) => vals[i] = b,
            None => nulls[i] = true,
        }
    }
    Out::Bool(vals, nulls)
}

/// `+ - * /` over numeric lanes. Two INT operands stay integral with
/// wrapping arithmetic (except `/`, which produces FLOAT); any FLOAT
/// operand widens both sides to `f64`. Division by zero is the only error
/// and is recorded for selected rows only.
fn arith_loop(
    op: BinOp,
    a: &Num<'_>,
    b: &Num<'_>,
    n: usize,
    sel: &[bool],
    errs: &mut ErrAcc,
) -> Out {
    let div_err = || RelError::Eval("division by zero".into());
    if a.is_int() && b.is_int() && op != BinOp::Div {
        let mut vals = vec![0i64; n];
        let mut nulls = vec![false; n];
        for i in 0..n {
            if a.null_at(i) || b.null_at(i) {
                nulls[i] = true;
                continue;
            }
            let (x, y) = (a.i64_at(i), b.i64_at(i));
            vals[i] = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                _ => x.wrapping_mul(y),
            };
        }
        return Out::Int(vals, nulls);
    }
    if a.is_int() && b.is_int() {
        // INT / INT: division by zero checks the integer zero, then the
        // quotient widens to FLOAT exactly as the scalar path does.
        let mut vals = vec![0f64; n];
        let mut nulls = vec![false; n];
        for i in 0..n {
            if a.null_at(i) || b.null_at(i) {
                nulls[i] = true;
                continue;
            }
            let y = b.i64_at(i);
            if y == 0 {
                if sel[i] {
                    errs.record(i, div_err());
                }
                nulls[i] = true;
                continue;
            }
            vals[i] = a.i64_at(i) as f64 / y as f64;
        }
        return Out::Float(vals, nulls);
    }
    let mut vals = vec![0f64; n];
    let mut nulls = vec![false; n];
    for i in 0..n {
        if a.null_at(i) || b.null_at(i) {
            nulls[i] = true;
            continue;
        }
        let (x, y) = (a.f64_at(i), b.f64_at(i));
        vals[i] = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            _ => {
                if y == 0.0 {
                    if sel[i] {
                        errs.record(i, div_err());
                    }
                    nulls[i] = true;
                    continue;
                }
                x / y
            }
        };
    }
    Out::Float(vals, nulls)
}

/// `=` / `<>` over numeric lanes: two INT operands compare exactly; any
/// FLOAT operand compares by `f64::total_cmp`, mirroring
/// [`Value::total_cmp`]'s Int/Float interleaving (so `-0.0 <> 0.0` here,
/// exactly as in the row path). Never errors.
fn eq_num_loop(a: &Num<'_>, b: &Num<'_>, n: usize, negate: bool) -> Out {
    let mut vals = vec![false; n];
    let mut nulls = vec![false; n];
    let both_int = a.is_int() && b.is_int();
    for i in 0..n {
        if a.null_at(i) || b.null_at(i) {
            nulls[i] = true;
            continue;
        }
        let eq = if both_int {
            a.i64_at(i) == b.i64_at(i)
        } else {
            a.f64_at(i).total_cmp(&b.f64_at(i)).is_eq()
        };
        vals[i] = eq != negate;
    }
    Out::Bool(vals, nulls)
}

/// `< <= > >=` over numeric lanes. [`Value::sql_cmp`] compares *all*
/// numeric pairs — Int/Int included — through `f64::partial_cmp`, so this
/// loop does the same; an incomparable pair (NaN) delegates to the scalar
/// path for the identical error message, recorded for selected rows only.
fn ord_num_loop(
    op: BinOp,
    a: &Num<'_>,
    b: &Num<'_>,
    n: usize,
    sel: &[bool],
    errs: &mut ErrAcc,
) -> Out {
    let mut vals = vec![false; n];
    let mut nulls = vec![false; n];
    for i in 0..n {
        if a.null_at(i) || b.null_at(i) {
            nulls[i] = true;
            continue;
        }
        match a.f64_at(i).partial_cmp(&b.f64_at(i)) {
            Some(ord) => vals[i] = apply_ord(op, ord),
            None => {
                if sel[i] {
                    let e = eval_bin(op, &a.value_at(i), &b.value_at(i))
                        .expect_err("NaN comparison errors in the scalar path");
                    errs.record(i, e);
                }
                nulls[i] = true;
            }
        }
    }
    Out::Bool(vals, nulls)
}

fn apply_ord(op: BinOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        _ => ord.is_ge(),
    }
}

/// Branchless equality loop over two null masks and an infallible per-row
/// predicate (strings, dates).
fn cmp_mask_loop(
    n: usize,
    an: &[bool],
    bn: &[bool],
    eq: impl Fn(usize) -> bool,
    negate: bool,
) -> Out {
    let mut vals = vec![false; n];
    let mut nulls = vec![false; n];
    for i in 0..n {
        if an[i] || bn[i] {
            nulls[i] = true;
        } else {
            vals[i] = eq(i) != negate;
        }
    }
    Out::Bool(vals, nulls)
}

/// Branchless ordering loop for totally-ordered lane pairs (strings,
/// dates): never errors, null propagates.
fn ord_apply_loop(
    op: BinOp,
    n: usize,
    an: &[bool],
    bn: &[bool],
    ord: impl Fn(usize) -> std::cmp::Ordering,
) -> Out {
    let mut vals = vec![false; n];
    let mut nulls = vec![false; n];
    for i in 0..n {
        if an[i] || bn[i] {
            nulls[i] = true;
        } else {
            vals[i] = apply_ord(op, ord(i));
        }
    }
    Out::Bool(vals, nulls)
}

// ---------------------------------------------------------------------------
// Batch driver
// ---------------------------------------------------------------------------

/// Run the compiled stage chain over one slice of shared-scan rows,
/// returning the surviving output rows or the first failing row's error
/// (in row order — see module docs). This is the vectorized replacement
/// for the per-row `apply_stages` walk; serial slices and parallel
/// morsels both call it, so the morsel merge rules apply unchanged.
/// `seed` holds pre-built lanes for the first epoch's columns, sliced
/// straight out of the window's segment (`batch::segment_lanes`) so the
/// epoch never shreds a row; they must describe exactly `rows` (same
/// window, same order).
pub(super) fn run_batch_seeded<'a>(
    stages: &[Stage<'_>],
    progs: &[StageProg],
    rows: &'a [Row],
    seed: Vec<Option<Lane<'a>>>,
) -> RelResult<Vec<Row>> {
    debug_assert_eq!(stages.len(), progs.len());
    let mut errs = ErrAcc::default();
    let orig: Vec<usize> = (0..rows.len()).collect();
    let out = run_from(
        stages,
        progs,
        rows,
        &orig,
        vec![true; rows.len()],
        &mut errs,
        seed,
    );
    match errs.first() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Process `stages` over one row epoch: apply every leading filter, then
/// either gather the survivors (no stages left) or project them through
/// the first Map and recurse over the new, compacted epoch. `orig` maps
/// current positions to original batch rows so errors from different
/// epochs still order correctly. `carry` holds lanes the previous epoch's
/// Map already computed for this epoch's columns (compacted to the
/// surviving rows), so the next `ColumnBatch` skips re-shredding them —
/// this is what keeps multi-epoch arithmetic pipelines columnar end to
/// end instead of round-tripping through `Value` rows at each Map.
#[allow(clippy::too_many_arguments)]
fn run_from<'a>(
    stages: &[Stage<'_>],
    progs: &[StageProg],
    rows: &'a [Row],
    orig: &[usize],
    mut sel: Vec<bool>,
    errs: &mut ErrAcc,
    carry: Vec<Option<Lane<'a>>>,
) -> Vec<Row> {
    // Lanes are shared by every consecutive filter and the following Map
    // (if any): they all read this epoch's rows.
    let mut at = 0;
    let mut cols: Vec<usize> = Vec::new();
    while let Some(StageProg::Filter(k)) = progs.get(at) {
        if let Some(k) = k {
            k.collect_cols(&mut cols);
        }
        at += 1;
    }
    let map_at = at;
    let passthrough = passthrough_epoch(stages, progs, map_at);
    if let Some(p) = &passthrough {
        for k in &p.tail {
            k.collect_cols(&mut cols);
        }
    } else if let Some(StageProg::Map(exprs)) = progs.get(map_at) {
        for p in exprs {
            if let ExprProg::Kernel(k) = p {
                k.collect_cols(&mut cols);
            }
        }
    }
    let epoch_schema = stages.first().map(stage_in_schema);
    let batch = match epoch_schema {
        Some(s) => ColumnBatch::build_seeded(rows, s, &cols, carry),
        None => ColumnBatch {
            rows,
            lanes: Vec::new(),
        },
    };

    // Apply the leading filters in order.
    for (stage, prog) in stages.iter().zip(progs).take(map_at) {
        let (StageProg::Filter(kernel), Stage::Filter { predicate, schema }) = (prog, stage) else {
            unreachable!("stage programs parallel the stage chain");
        };
        let mut step = ErrAcc::default();
        match kernel {
            Some(k) => {
                let out = k.eval(&batch, &sel, &mut step);
                // Absorb kernel errors before applying the predicate
                // result: a failing row carries a placeholder NULL, which
                // the filter would deselect — and a deselected row's error
                // would then be dropped as if the row had been filtered
                // away before it failed.
                absorb(step, &mut sel, orig, errs);
                step = ErrAcc::default();
                apply_filter(&view(&out, &batch), &batch, &mut sel, &mut step);
            }
            None => {
                for (i, s) in sel.iter_mut().enumerate() {
                    if !*s {
                        continue;
                    }
                    match predicate.matches(schema, &rows[i]) {
                        Ok(keep) => *s = keep,
                        Err(e) => {
                            step.record(i, e);
                        }
                    }
                }
            }
        }
        absorb(step, &mut sel, orig, errs);
    }

    // A passthrough epoch consumed every remaining stage: run the
    // remapped tail filters over the same batch, then gather the mapped
    // columns straight out of the input rows — the projected rows the row
    // path materializes in between are never built.
    if let Some(p) = &passthrough {
        for k in &p.tail {
            let mut step = ErrAcc::default();
            let out = k.eval(&batch, &sel, &mut step);
            absorb(step, &mut sel, orig, errs);
            let mut step = ErrAcc::default();
            apply_filter(&view(&out, &batch), &batch, &mut sel, &mut step);
            absorb(step, &mut sel, orig, errs);
        }
        return rows
            .iter()
            .zip(&sel)
            .filter(|(_, s)| **s)
            .map(|(r, _)| p.mapping.iter().map(|&c| r[c].clone()).collect())
            .collect();
    }

    let Some(Stage::Map {
        exprs,
        in_schema,
        out_schema,
    }) = stages.get(map_at)
    else {
        // No projection left: the survivors are the output.
        return rows
            .iter()
            .zip(&sel)
            .filter(|(_, s)| **s)
            .map(|(r, _)| r.clone())
            .collect();
    };
    let Some(StageProg::Map(eprogs)) = progs.get(map_at) else {
        unreachable!("stage programs parallel the stage chain");
    };

    // Evaluate the projection expressions column-at-a-time, in output
    // order (the row path's left-to-right expression order).
    let mut outs: Vec<Out> = Vec::with_capacity(eprogs.len());
    for ((_, expr), prog) in exprs.iter().zip(eprogs) {
        let mut step = ErrAcc::default();
        let out = match prog {
            ExprProg::Kernel(k) => k.eval(&batch, &sel, &mut step),
            ExprProg::Row => masked_unary(batch.len(), &sel, &mut step, |i| {
                expr.eval(in_schema, &rows[i])
            }),
        };
        absorb(step, &mut sel, orig, errs);
        outs.push(out);
    }

    // Gather the survivors into fresh compact rows, then validate only the
    // columns whose values could possibly violate the (always-nullable)
    // projected schema — a lane of the declared type can be skipped.
    let views: Vec<View<'_, '_>> = outs.iter().map(|o| view(o, &batch)).collect();
    let lax: Vec<(usize, &Column)> = out_schema
        .columns()
        .iter()
        .enumerate()
        .filter(|(k, col)| !out_satisfies(&views[*k], in_schema, col))
        .collect();
    let survivors = sel.iter().filter(|s| **s).count();
    let mut new_rows: Vec<Row> = Vec::with_capacity(survivors);
    let mut new_orig: Vec<usize> = Vec::with_capacity(survivors);
    let mut kept: Vec<usize> = Vec::with_capacity(survivors);
    for i in 0..batch.len() {
        if !sel[i] {
            continue;
        }
        let row: Row = views.iter().map(|v| v.get(&batch, i)).collect();
        // Columns are checked in schema order; skipped columns are
        // provably valid, so the first failure matches `check_row`. A
        // failing row is dropped from the next epoch entirely: the row
        // path stops at its error, so later stages must never see it.
        match lax.iter().find_map(|&(k, col)| col.check(&row[k]).err()) {
            Some(e) => errs.record(orig[i], e),
            None => {
                new_orig.push(orig[i]);
                new_rows.push(row);
                kept.push(i);
            }
        }
    }

    let rest = map_at + 1;
    if rest >= stages.len() {
        return new_rows;
    }
    // Thread the Map's output lanes into the next epoch: typed kernel
    // outputs and lane-backed column passthroughs, compacted to the kept
    // rows, seed the next `ColumnBatch` so chained Maps never re-shred
    // columns they just computed. The carried values are exactly what
    // `View::get` stored into `new_rows`, so the seeded lanes and the
    // rows stay in lockstep.
    let next_carry: Vec<Option<Lane<'_>>> =
        outs.iter().map(|o| carry_lane(o, &batch, &kept)).collect();
    let n = new_rows.len();
    run_from(
        &stages[rest..],
        &progs[rest..],
        &new_rows,
        &new_orig,
        vec![true; n],
        errs,
        next_carry,
    )
}

/// Compact a Map output column into a lane for the next epoch, or `None`
/// when the output has no typed columnar form (constants, mixed values,
/// or a passthrough of a column that never had a lane).
fn carry_lane<'a>(out: &Out, batch: &ColumnBatch<'a>, kept: &[usize]) -> Option<Lane<'a>> {
    fn compact<T: Copy>(vals: &[T], kept: &[usize]) -> Vec<T> {
        kept.iter().map(|&i| vals[i]).collect()
    }
    match out {
        Out::Int(vals, nulls) => Some(Lane::Int {
            vals: compact(vals, kept).into(),
            nulls: compact(nulls, kept).into(),
        }),
        Out::Float(vals, nulls) => Some(Lane::Float {
            vals: compact(vals, kept).into(),
            nulls: compact(nulls, kept).into(),
        }),
        Out::Bool(vals, nulls) => Some(Lane::Bool {
            vals: compact(vals, kept).into(),
            nulls: compact(nulls, kept).into(),
        }),
        Out::ColRef(c) => match batch.lanes.get(*c).and_then(|l| l.as_ref())? {
            Lane::Int { vals, nulls } => Some(Lane::Int {
                vals: compact(vals, kept).into(),
                nulls: compact(nulls, kept).into(),
            }),
            Lane::Float { vals, nulls } => Some(Lane::Float {
                vals: compact(vals, kept).into(),
                nulls: compact(nulls, kept).into(),
            }),
            Lane::Bool { vals, nulls } => Some(Lane::Bool {
                vals: compact(vals, kept).into(),
                nulls: compact(nulls, kept).into(),
            }),
            Lane::Str { vals, nulls } => Some(Lane::Str {
                vals: compact(vals, kept),
                nulls: compact(nulls, kept).into(),
            }),
            Lane::Date { vals, nulls } => Some(Lane::Date {
                vals: compact(vals, kept).into(),
                nulls: compact(nulls, kept).into(),
            }),
            // A passthrough of a dictionary lane decodes to strings
            // borrowed from the dictionary (still zero-copy per string).
            // Null rows must not be decoded: they carry code 0, which an
            // all-null column's empty dictionary cannot even index.
            Lane::Dict { codes, nulls, dict } => Some(Lane::Str {
                vals: kept
                    .iter()
                    .map(|&i| {
                        if nulls[i] {
                            ""
                        } else {
                            dict[codes[i] as usize].as_str()
                        }
                    })
                    .collect(),
                nulls: compact(nulls, kept).into(),
            }),
            Lane::Rows | Lane::Vals(_) => None,
        },
        Out::Const(_) | Out::Vals(_) => None,
    }
}

/// A fully-vectorizable epoch tail: a pure column-passthrough Map (every
/// output expression is a bare column reference, e.g. `project_cols` or a
/// Rename) followed only by kernel filters. The filters are remapped onto
/// the Map's *input* columns so the whole tower runs over one batch.
struct Passthrough {
    /// Output column `k` is input column `mapping[k]`.
    mapping: Vec<usize>,
    /// The remaining filters, remapped onto the input columns.
    tail: Vec<Kernel>,
}

/// Detect a passthrough epoch at `map_at`. Requires the Map's output
/// schema to be statically satisfied by the passed-through columns (so
/// the per-row output check can be skipped entirely — a bare passthrough
/// can then never fail) and every remaining stage to be a kernel filter.
fn passthrough_epoch(
    stages: &[Stage<'_>],
    progs: &[StageProg],
    map_at: usize,
) -> Option<Passthrough> {
    let Some(Stage::Map {
        in_schema,
        out_schema,
        ..
    }) = stages.get(map_at)
    else {
        return None;
    };
    let Some(StageProg::Map(eprogs)) = progs.get(map_at) else {
        return None;
    };
    if map_at + 1 >= progs.len() {
        // Nothing after the Map: the normal gather is already final.
        return None;
    }
    let mut mapping = Vec::with_capacity(eprogs.len());
    for p in eprogs {
        match p {
            ExprProg::Kernel(Kernel::Col(c)) => mapping.push(*c),
            _ => return None,
        }
    }
    for (col, &src) in out_schema.columns().iter().zip(&mapping) {
        if !col.nullable || !col.data_type.accepts(in_schema.columns()[src].data_type) {
            return None;
        }
    }
    let mut tail = Vec::with_capacity(progs.len() - map_at - 1);
    for p in &progs[map_at + 1..] {
        match p {
            StageProg::Filter(Some(k)) => tail.push(k.remap(&mapping)),
            _ => return None,
        }
    }
    Some(Passthrough { mapping, tail })
}

fn stage_in_schema<'s>(stage: &'s Stage<'_>) -> &'s Schema {
    match stage {
        Stage::Filter { schema, .. } => schema,
        Stage::Map { in_schema, .. } => in_schema,
    }
}

/// Merge one kernel's errors into the batch accumulator (translated to
/// original row indexes) and deselect the failing rows so no later kernel
/// or stage evaluates them — the row path stops at the first error, so a
/// failed row must contribute nothing further.
fn absorb(step: ErrAcc, sel: &mut [bool], orig: &[usize], errs: &mut ErrAcc) {
    for (i, e) in step.errs {
        if sel[i] {
            sel[i] = false;
            errs.record(orig[i], e);
        }
    }
}

/// AND a predicate result into the selection: TRUE keeps, FALSE and NULL
/// drop, and a non-boolean value is the row path's "predicate evaluated to
/// non-boolean" error for every selected row it reaches.
fn apply_filter(w: &View<'_, '_>, batch: &ColumnBatch<'_>, sel: &mut [bool], errs: &mut ErrAcc) {
    match w {
        View::Bool(vals, nulls) => {
            for (i, s) in sel.iter_mut().enumerate() {
                *s = *s && !nulls[i] && vals[i];
            }
        }
        View::Const(Value::Bool(true)) => {}
        View::Const(Value::Bool(false)) | View::Const(Value::Null) => sel.fill(false),
        w => {
            for (i, s) in sel.iter_mut().enumerate() {
                if !*s {
                    continue;
                }
                match w.get(batch, i) {
                    Value::Bool(b) => *s = b,
                    Value::Null => *s = false,
                    v => {
                        errs.record(
                            i,
                            RelError::Eval(format!("predicate evaluated to non-boolean {v}")),
                        );
                    }
                }
            }
        }
    }
}

/// Can every value this output produces be stored in `col` without a
/// per-row check? Projected schemas are always nullable (see
/// `project_output_schema`), so this is mostly a static type check; the
/// row fallback lane and generic outputs always re-check.
fn out_satisfies(w: &View<'_, '_>, in_schema: &Schema, col: &Column) -> bool {
    if !col.nullable {
        return false;
    }
    match w {
        View::Const(v) => col.check(v).is_ok(),
        View::Int(..) => col.data_type.accepts(DataType::Int),
        View::Float(..) => col.data_type.accepts(DataType::Float),
        View::Bool(..) => col.data_type == DataType::Bool,
        View::Str(..) | View::Dict { .. } => col.data_type == DataType::Text,
        View::Date(..) => col.data_type == DataType::Date,
        // A raw column passthrough holds values of the input column's
        // declared type (or INTs widened into a FLOAT column, which only a
        // FLOAT output column accepts — covered by `accepts`).
        View::Rows(c) => col.data_type.accepts(in_schema.columns()[*c].data_type),
        View::Vals(_) => false,
    }
}
