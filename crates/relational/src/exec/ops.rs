//! The physical operator layer: one [`Op`] shape that `compile` produces
//! and one [`Op::run`] that executes it, operator at a time.
//!
//! # Execution model
//!
//! [`Op::run`] runs a node's children to completion, in order, and then
//! calls the node's kernel over their whole output — MonetDB/X100's
//! operator-at-a-time model over vectors of rows. No kernel sees a batch
//! before every input it reads is complete, so the order in which the
//! children run is the only runtime order there is. Three rules fix it,
//! and each is written out in its arm of `run`:
//!
//! * a hashed join runs its build (right) side before its probe side, so
//!   a build-side error wins; a join that probes a stored table's key has
//!   no build side to run;
//! * a union checks input k's rows against its NOT NULL columns before
//!   input k + 1 runs;
//! * `Limit` runs its child to completion, so an error past the cutoff
//!   still surfaces — the materializing interpreter evaluates the full
//!   input before truncating.
//!
//! Parallelism selection happens **per kernel call**: `run` hands the
//! session's [`Executor`] to each kernel (`exec::vector`,
//! `exec::blocking`), which takes its morsel-parallel variant when the
//! input is large enough. The fused pipeline and the join probe cut
//! morsels over the *window list* a scan produced
//! ([`morsel::run_windows`]), one window per chunk, dead rows skipped.
//! Both dispatch targets are byte-identical — rows, order, and
//! first-error-in-row-order — so the choice is invisible in the output.
//!
//! # Error ordering
//!
//! Errors surface where the materializing interpreter raises them for
//! single-fault plans: a child's data-dependent error ends the run before
//! its parent's kernel is called, and blocking kernels re-raise their own
//! first-row-order error. Plans with several independent faults may
//! report a different one of them than the interpreter does; the property
//! suites hold all lanes to exact error parity on single-fault plans only.

use super::batch::{key_hashes, keys_eq, Batch, Gathered, HashBuckets};
use super::blocking;
use super::morsel;
use super::vector::{self, SimplePred, Sliced};
use super::{apply_stages, Executor, Stage};
use crate::algebra::{unpivot_rows, AggFunc, Aggregate, JoinKind};
use crate::error::RelResult;
use crate::schema::Schema;
use crate::segment::Window;
use crate::table::{Row, Table};
use crate::value::DataType;

/// A compiled physical plan: leaves are zero-copy handles on table
/// storage (or the owned rows of an inline relation), every other node is
/// one kernel over its children's output.
pub(super) enum Op<'p> {
    /// A table scan (DESIGN.md §14): the table's chunks in row order as
    /// windows, none for an empty table. It emits one zero-copy batch per
    /// chunk — its [`Segment`](crate::segment::Segment) and its dead bits
    /// — so a pipeline above can evaluate lane masks over it, and skip a
    /// window whose zone maps prove its filters empty.
    Leaf(Vec<Window>),
    /// An inline relation (`Plan::Values`): its rows, already validated,
    /// emitted as one owned batch — none when it is empty.
    Rows(Vec<Row>),
    /// Fused Select/Project chain: one pass per slice of input, no
    /// intermediate tables (see [`pipeline`]).
    Pipeline {
        input: Box<Op<'p>>,
        stages: Vec<Stage<'p>>,
    },
    /// Equi-join of `left`'s rows with the [`Build`] side, probe batches
    /// cut into morsels over the whole batch list.
    Join {
        left: Box<Op<'p>>,
        lschema: Schema,
        rschema: Schema,
        l_idx: Vec<usize>,
        r_idx: Vec<usize>,
        kind: JoinKind,
        build: Build<'p>,
    },
    /// Bag union: batches pass straight through in input order. Rows from
    /// non-leading inputs are re-checked against `schema` only when some
    /// column is NOT NULL — the one way union rows can be rejected, since
    /// union compatibility already fixed the types.
    Union { inputs: Vec<Op<'p>>, schema: Schema },
    /// δ: first occurrences across all input batches, bucketed by lane key
    /// hash and verified with [`keys_eq`] — the same equality relation as
    /// the interpreter's seen-set (`Value` equality is
    /// `total_cmp`-consistent, and so is the lane hash), so the emitted
    /// first-occurrence sequence is identical.
    Distinct { input: Box<Op<'p>>, schema: Schema },
    /// Un-pivot: each input batch expands into EAV triples, read in place
    /// when it is a shared window.
    Unpivot {
        input: Box<Op<'p>>,
        in_schema: Schema,
        key_idx: Vec<usize>,
        data_idx: Vec<usize>,
    },
    /// Grouped aggregation: the lane kernel, or its morsel-parallel
    /// variant when every aggregate is associative.
    Aggregate {
        input: Box<Op<'p>>,
        in_schema: Schema,
        out_schema: Schema,
        g_idx: Vec<usize>,
        agg_idx: Vec<Option<usize>>,
        aggregates: &'p [Aggregate],
    },
    /// Pivot: [`blocking::PivotKernel`] over the input — shared windows
    /// read off their segments' dictionary codes, owned batches row by row
    /// — per morsel when the input is large, with wide rows merged
    /// entity-by-entity in morsel order. Each row stores the output
    /// positions `stored` lists, in that order: every one, unless the
    /// stages fused over the pivot read fewer ([`Op::piped`]).
    Pivot {
        input: Box<Op<'p>>,
        arity: usize,
        key_idx: Vec<usize>,
        attr_idx: usize,
        val_idx: usize,
        attrs: &'p [(String, DataType)],
        stored: Vec<usize>,
    },
    /// Sort via [`blocking::sort_gathered`]: lane sort keys, and the
    /// parallel merge-path kernel over sorted morsel runs for large inputs.
    Sort {
        input: Box<Op<'p>>,
        schema: Schema,
        idxs: Vec<usize>,
    },
    /// At most `n` rows of the input, which still runs to completion.
    Limit { input: Box<Op<'p>>, n: usize },
}

/// Where a join's probe rows find their partners.
pub(super) enum Build<'p> {
    /// The right child's output, indexed by reference (`u64` key hash →
    /// positions, candidates verified with [`keys_eq`] at probe time).
    Hash(Box<Op<'p>>),
    /// A stored table keyed by exactly the join's right columns
    /// (`optimize::keyed_lookup`): each probe row looks its key up in the
    /// table's primary-key index, so nothing is gathered or hashed. `order`
    /// maps each key column to its position in the join's `on` list.
    Key { table: Table, order: Vec<usize> },
}

impl<'p> Op<'p> {
    /// `self` with `stage` fused on: appended to its pipeline, or the
    /// first stage of one over it. The first `Map` fused over a pivot
    /// narrows what the pivot stores to what the stages read
    /// ([`narrow`]), and may fold away.
    pub(super) fn piped(self, stage: Stage<'p>) -> Op<'p> {
        let (mut input, mut stages) = match self {
            Op::Pipeline { input, stages } => (input, stages),
            input => (Box::new(input), Vec::new()),
        };
        let first_map =
            matches!(stage, Stage::Map(_)) && !stages.iter().any(|s| matches!(s, Stage::Map(_)));
        stages.push(stage);
        if let (Op::Pivot { stored, .. }, true) = (&mut *input, first_map) {
            stages = narrow(stored, stages);
        }
        if stages.is_empty() {
            *input
        } else {
            Op::Pipeline { input, stages }
        }
    }

    /// Run this node: its children to completion, in order, then its
    /// kernel over their output.
    pub(super) fn run(self, cfg: Executor) -> RelResult<Vec<Batch>> {
        Ok(match self {
            Op::Leaf(parts) => parts.into_iter().map(Batch::Shared).collect(),
            Op::Rows(rows) => owned(rows),
            Op::Pipeline { input, stages } => {
                // The decomposable leading filters, extracted once: a scan
                // leaf prunes whole segments with them, the pipeline masks
                // the surviving windows with them (see `vector`).
                let groups = vector::prune_groups(&stages);
                let batches = match *input {
                    Op::Leaf(parts) => parts
                        .into_iter()
                        .filter(|part| !vector::segment_pruned(&part.seg, &groups))
                        .map(Batch::Shared)
                        .collect(),
                    input => input.run(cfg)?,
                };
                pipeline(&stages, &groups, batches, cfg)?
            }
            Op::Join {
                left,
                lschema,
                rschema,
                l_idx,
                r_idx,
                kind,
                build,
            } => {
                let r_arity = rschema.arity();
                let joined = match build {
                    Build::Key { table, order } => {
                        // Probe key columns in the table's primary-key order.
                        let l_idx: Vec<usize> = order.iter().map(|&i| l_idx[i]).collect();
                        let probes = left.run(cfg)?;
                        morsel::run_windows(&extents(&probes), cfg, |w, lo, hi| {
                            let lrows = &slice(&probes, w, lo, hi);
                            Ok(blocking::probe_key(lrows, &table, &l_idx, kind, r_arity))
                        })?
                    }
                    Build::Hash(right) => {
                        // The build side runs to completion before the
                        // probe side starts, so its error is the one raised.
                        let build = Gathered::from_batches(right.run(cfg)?);
                        let probes = left.run(cfg)?;
                        let right = build.rows();
                        let index = if cfg.parallel_for(right.len()) {
                            blocking::par_build_hash_index(&right, &rschema, &r_idx, cfg)
                        } else {
                            blocking::build_hash_index(&right, &rschema, &r_idx)
                        };
                        morsel::run_windows(&extents(&probes), cfg, |w, lo, hi| {
                            Ok(blocking::probe_hash(
                                &slice(&probes, w, lo, hi),
                                &lschema,
                                &index,
                                &right,
                                &l_idx,
                                &r_idx,
                                kind,
                                r_arity,
                            ))
                        })?
                    }
                };
                joined
                    .into_iter()
                    .filter_map(|(_, rows)| Batch::from_rows(rows))
                    .collect()
            }
            Op::Union { inputs, schema } => {
                // Later inputs may be nullable where the leading schema
                // says NOT NULL; re-check rows only when that can reject.
                let check_rows = schema.columns().iter().any(|c| !c.nullable);
                let mut out = Vec::new();
                for (k, input) in inputs.into_iter().enumerate() {
                    let batches = input.run(cfg)?;
                    // Input k is checked before input k + 1 runs: its NOT
                    // NULL violation wins over a later input's error.
                    if check_rows && k > 0 {
                        for batch in &batches {
                            let rows: Vec<&Row> = batch.rows().collect();
                            if cfg.parallel_for(rows.len()) {
                                morsel::par_check_rows(&rows, &schema, cfg)?;
                            } else {
                                rows.iter().try_for_each(|row| schema.check_row(row))?;
                            }
                        }
                    }
                    out.extend(batches);
                }
                out
            }
            Op::Distinct { input, schema } => {
                let cols: Vec<usize> = (0..schema.arity()).collect();
                let mut buckets = HashBuckets::<Vec<u32>>::default();
                let mut kept: Vec<Row> = Vec::new();
                for batch in input.run(cfg)? {
                    let rows: Vec<&Row> = batch.rows().collect();
                    // The hash pass is columnar (and morsel-parallel for
                    // large shared windows); the bucket walk stays serial to
                    // keep first-occurrence order.
                    let (hashes, _) = if cfg.parallel_for(rows.len()) {
                        blocking::par_key_hashes(&rows, &schema, &cols, cfg)
                    } else {
                        key_hashes(&rows, &schema, &cols)
                    };
                    for (row, hash) in rows.into_iter().zip(hashes) {
                        let bucket = buckets.entry(hash).or_default();
                        let dup = bucket
                            .iter()
                            .any(|&s| keys_eq(row, &cols, &kept[s as usize], &cols));
                        if !dup {
                            bucket.push(kept.len() as u32);
                            kept.push(row.clone());
                        }
                    }
                }
                owned(kept)
            }
            Op::Unpivot {
                input,
                in_schema,
                key_idx,
                data_idx,
            } => input
                .run(cfg)?
                .into_iter()
                .filter_map(|batch| {
                    Batch::from_rows(unpivot_rows(&in_schema, batch.rows(), &key_idx, &data_idx))
                })
                .collect(),
            Op::Aggregate {
                input,
                in_schema,
                out_schema,
                g_idx,
                agg_idx,
                aggregates,
            } => {
                // Integer sums are wrapping, hence associative; `f64` sums
                // are not, so SUM/AVG over a FLOAT column pins the serial
                // kernel, which adds in row order like the interpreter, to
                // keep parallel results bit-identical to serial ones.
                let associative = aggregates.iter().zip(&agg_idx).all(|(a, idx)| {
                    !matches!((&a.func, idx), (AggFunc::Sum(_) | AggFunc::Avg(_), Some(i))
                        if in_schema.columns()[*i].data_type == DataType::Float)
                });
                let g = Gathered::from_batches(input.run(cfg)?);
                let rows = g.rows();
                let out = if associative && cfg.parallel_for(rows.len()) {
                    blocking::par_lane_aggregate(
                        &rows, &in_schema, &g_idx, &agg_idx, aggregates, cfg,
                    )
                } else {
                    blocking::lane_aggregate(&rows, &in_schema, &g_idx, &agg_idx, aggregates)
                };
                // Validate emitted rows exactly where the materializing
                // interpreter's `from_rows` does — e.g. SUM over a TEXT
                // column emits INT into a TEXT-typed output column.
                out.iter().try_for_each(|r| out_schema.check_row(r))?;
                owned(out)
            }
            Op::Pivot {
                input,
                arity,
                key_idx,
                attr_idx,
                val_idx,
                attrs,
                stored,
            } => {
                let windows = input.run(cfg)?;
                let kernel = blocking::PivotKernel::new(
                    &windows, &key_idx, attr_idx, val_idx, attrs, arity, &stored,
                );
                let lens = extents(&windows);
                owned(if cfg.parallel_for(lens.iter().sum()) {
                    morsel::par_pivot(&lens, cfg, |w, lo, hi| {
                        let mut slots = kernel.slots();
                        kernel.pivot_into(w, lo, hi, &mut slots).map(|()| slots)
                    })?
                } else {
                    kernel.pivot_all()?
                })
            }
            Op::Sort {
                input,
                schema,
                idxs,
            } => {
                let g = Gathered::from_batches(input.run(cfg)?);
                owned(blocking::sort_gathered(g, &schema, &idxs, cfg))
            }
            Op::Limit { input, n } => {
                // The child runs to completion: an error past the cutoff
                // surfaces, and batches past it are dropped here.
                let mut remaining = n;
                let mut out = Vec::new();
                for batch in input.run(cfg)? {
                    let take = remaining.min(batch.len());
                    if take > 0 {
                        remaining -= take;
                        out.push(batch.take_prefix(take));
                    }
                }
                out
            }
        })
    }
}

/// Narrow a pivot's `stored` list to what `stages` read — filters, then
/// the first `Map`, all over the pivot's row — and bind the stages to the
/// narrowed row (DESIGN.md §13, *Pivot*). Each stage keeps its own column
/// names, restricted to the positions kept.
///
/// A `Map` of distinct bare columns that reads every column the filters
/// do, and whose row check cannot fail, folds into the list: the pivot
/// stores exactly its columns in its order and no row is rebuilt. Any
/// other `Map` stays, over the read columns in the row's own order.
/// Unknown names keep failing where they did: a narrowed schema keeps its
/// table name, and nothing but known columns is dropped from it.
fn narrow<'p>(stored: &mut Vec<usize>, mut stages: Vec<Stage<'p>>) -> Vec<Stage<'p>> {
    let Some((Stage::Map(map), filters)) = stages.split_last() else {
        return stages;
    };
    let mut read: Vec<usize> = filters.iter().flat_map(Stage::reads).collect();
    let keep = match map.folded() {
        Some(cols) if read.iter().all(|c| cols.contains(c)) => {
            stages.pop();
            cols
        }
        _ => {
            read.extend(stages.last().into_iter().flat_map(Stage::reads));
            read.sort_unstable();
            read.dedup();
            read
        }
    };
    let Some(narrowed) = stages.iter().map(|s| s.narrowed(&keep)).collect() else {
        return stages;
    };
    *stored = keep.iter().map(|&c| stored[c]).collect();
    narrowed
}

/// `rows` as output batches: one owned batch, none when there are none —
/// operators never emit empty batches.
fn owned(rows: Vec<Row>) -> Vec<Batch> {
    Batch::from_rows(rows).into_iter().collect()
}

/// The physical rows each batch spans: what morsels cut.
fn extents(batches: &[Batch]) -> Vec<usize> {
    batches.iter().map(Batch::extent).collect()
}

/// The rows of batch `w` at physical positions `lo..hi`, by reference.
fn slice(batches: &[Batch], w: usize, lo: usize, hi: usize) -> Vec<&Row> {
    batches[w].live(lo, hi).map(|(_, row)| row).collect()
}

/// Run `batches` through the fused `stages`, output in input order.
/// Consecutive shared windows run together — one slice of at most a
/// morsel per task, morsel-parallel when the windows together are large
/// enough ([`morsel::run_windows`]) — lane masks first, then the row walk
/// ([`vector::run_window`]). A window the lane masks alone resolve goes on
/// as one window, its dropped rows marked dead; owned batches
/// (child-produced rows, which can be moved rather than cloned) walk
/// [`apply_stages`] row by row. `groups` are the
/// [`vector::prune_groups`] of `stages`.
fn pipeline(
    stages: &[Stage],
    groups: &[Vec<SimplePred>],
    batches: Vec<Batch>,
    cfg: Executor,
) -> RelResult<Vec<Batch>> {
    let mut out = Vec::new();
    let mut windows = Vec::new();
    for batch in batches {
        match batch {
            Batch::Shared(w) => windows.push(w),
            Batch::Owned(rows) => {
                // Output order is input order: the windows before go first.
                run_windows(stages, groups, std::mem::take(&mut windows), cfg, &mut out)?;
                let mut kept = Vec::with_capacity(rows.len());
                for row in rows {
                    kept.extend(apply_stages(stages, row)?);
                }
                out.extend(Batch::from_rows(kept));
            }
        }
    }
    run_windows(stages, groups, windows, cfg, &mut out)?;
    Ok(out)
}

/// Run consecutive shared `windows` through the stages, slice by slice in
/// window order. Every slice reads its lanes straight from its window's
/// segment at the slice's offset, serial or parallel; the slices of one
/// window fill one set of dead bits.
fn run_windows(
    stages: &[Stage],
    groups: &[Vec<SimplePred>],
    windows: Vec<Window>,
    cfg: Executor,
    out: &mut Vec<Batch>,
) -> RelResult<()> {
    let lens: Vec<usize> = windows.iter().map(|w| w.seg.len()).collect();
    let sliced = morsel::run_windows(&lens, cfg, |w, lo, hi| {
        vector::run_window(stages, groups, &windows[w], lo, hi)
    })?;
    let mut sliced = sliced.into_iter().peekable();
    for (w, window) in windows.into_iter().enumerate() {
        let mut dropped = Vec::new();
        while let Some((_, made)) = sliced.next_if(|s| s.0 == w) {
            match made {
                Sliced::Dropped { lo, bits } => dropped.push((lo, bits)),
                Sliced::Rows(rows) => out.extend(Batch::from_rows(rows)),
            }
        }
        if !dropped.is_empty() {
            out.extend(vector::drop_rows(window, dropped).map(Batch::Shared));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::Column;
    use crate::value::Value;
    use std::borrow::Cow;

    fn int_rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    #[test]
    fn run_emits_leaves_zero_copy() {
        let schema = Schema::new("t", vec![Column::new("i", DataType::Int)]).unwrap();
        let leaf = |t: &Table| Op::Leaf(t.scan_parts()).run(Executor::new());
        let mut t = Table::from_rows(schema.clone(), int_rows(4)).unwrap();
        let batches = leaf(&t).unwrap();
        assert!(matches!(&batches[..], [Batch::Shared(w)] if w.dead.is_none() && w.seg.len() == 4));
        // The window is the table's own backing, not a copy of it.
        let first = batches[0].rows().next().unwrap();
        assert_eq!(batches[0].len(), t.len());
        assert!(std::ptr::eq(first, t.row_at(0).unwrap()));
        // A delete leaves one window over the whole chunk, the deleted
        // row dead in it.
        t.delete_where(|r| r[0] == Value::Int(0)).unwrap();
        let batches = leaf(&t).unwrap();
        let [Batch::Shared(w)] = &batches[..] else {
            panic!("one window per chunk");
        };
        assert_eq!((w.seg.len(), w.live()), (4, 3));
        assert!(std::ptr::eq(
            batches[0].rows().next().unwrap(),
            t.row_at(0).unwrap()
        ));
        // An empty table has no chunk, hence no window at all.
        assert!(leaf(&Table::new(schema)).unwrap().is_empty());
    }

    #[test]
    fn limit_truncates_across_batches_without_cutting_its_child_short() {
        let schema = Schema::new("t", vec![Column::new("i", DataType::Int)]).unwrap();
        // Three owned batches of 2, 2 and 5 rows, in that order.
        let batches = |last: Op<'static>| Op::Union {
            inputs: vec![Op::Rows(int_rows(2)), Op::Rows(int_rows(2)), last],
            schema: schema.clone(),
        };
        let limit = |input| Op::Limit {
            input: Box::new(batches(input)),
            n: 3,
        };
        let out = limit(Op::Rows(int_rows(5))).run(Executor::new()).unwrap();
        assert_eq!(out.len(), 2, "the batch past the cutoff is dropped");
        let rows = super::super::batch::tests::rows_of(&out);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(0)]
            ]
        );
        // Past the cutoff the child still runs: its error surfaces.
        let failing = Op::Rows(int_rows(5)).piped(Stage::Filter {
            predicate: Cow::Owned(Expr::lit(1i64).div(Expr::col("i")).ge(Expr::lit(0i64))),
            schema: schema.clone(),
        });
        assert!(limit(failing).run(Executor::new()).is_err());
    }
}
