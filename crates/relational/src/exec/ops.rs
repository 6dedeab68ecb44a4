//! The push-based physical operator layer: one [`PhysicalOperator`] trait
//! that every operator implements, one [`OpTree`] shape that `compile`
//! produces, and one [`drive`] loop that executes it.
//!
//! # Execution model
//!
//! [`drive`] walks the tree bottom-up: for each node it calls `open`,
//! drives every child in order — pushing each child batch tagged with its
//! input index — and finally calls `finish` to collect the node's output
//! batches. Children are driven *fully, in child order*: input 0 is
//! exhausted before input 1 produces its first batch. For a hash join that
//! means the build side (input 0, the plan's right child) is always
//! complete before a probe row is read — the same runtime order the
//! pull-based executor had; a join that probes a stored table's key has
//! its probe side as its only child — and for a union it means children
//! concatenate in declaration order.
//!
//! Parallelism selection happens **per operator**: each operator holds a
//! copy of the session's [`Executor`] and dispatches to its kernel (`exec::vector`,
//! `exec::blocking`) or that kernel's morsel-parallel variant. The streaming operators that do real per-row work — the fused
//! pipeline and the join probe — buffer the shared windows a scan hands
//! them and cut morsels over the *window list*
//! ([`morsel::run_windows`]): parallel when the windows together clear
//! [`Executor::parallel_threshold`], one window per chunk, dead rows
//! skipped. Both dispatch targets are
//! byte-identical — rows, order, and first-error-in-row-order — so the
//! choice is invisible in the output.
//!
//! # Error ordering
//!
//! Errors surface where the old pull executor surfaced them for
//! single-fault plans: a child's data-dependent error aborts the drive
//! before the parent consumes the failing batch, blocking operators
//! re-raise their kernel's first-row-order error, and `Limit` never cuts
//! a drive short (its child is always fully driven, so an error past the
//! cutoff still surfaces — the materializing interpreter evaluates the
//! full input before truncating). Plans with several independent faults
//! may report a different one of them than a pull-order executor would;
//! the property suites hold all lanes to exact error parity on
//! single-fault plans only, as before.

use super::batch::{key_hashes, keys_eq, Batch, Gathered, HashBuckets};
use super::blocking;
use super::morsel;
use super::vector::{self, SimplePred, Sliced};
use super::{apply_stages, Executor, Stage};
use crate::algebra::{unpivot_rows, Aggregate, JoinKind};
use crate::error::RelResult;
use crate::schema::Schema;
use crate::segment::Window;
use crate::table::{Row, Table};
use crate::value::DataType;
use std::mem;
use std::sync::Arc;

/// A push-based physical operator. The driver pushes every input batch
/// via [`push_batch`] (tagged with the producing child's index) and
/// collects the output from [`finish`]. Streaming operators accumulate
/// transformed batches as input arrives; blocking operators buffer until
/// `finish` runs their kernel.
///
/// [`push_batch`]: PhysicalOperator::push_batch
/// [`finish`]: PhysicalOperator::finish
pub(super) trait PhysicalOperator {
    /// Consume one batch from child `input`.
    fn push_batch(&mut self, input: usize, batch: Batch) -> RelResult<()>;

    /// All inputs are exhausted: emit the output batches.
    fn finish(&mut self) -> RelResult<Vec<Batch>>;
}

/// A compiled physical plan: leaves are zero-copy handles on table
/// storage (or the owned rows of an inline relation), nodes are operators
/// over their children's output.
pub(super) enum OpTree<'p> {
    /// A table scan (DESIGN.md §14): the table's chunks in row order as
    /// windows, none for an empty table. Emits one zero-copy batch per
    /// chunk — its [`Segment`](crate::segment::Segment) and its dead bits
    /// — so the pipeline above can evaluate lane masks over it. `prune`
    /// holds the simple filter conjuncts of that pipeline (stage-ordered,
    /// shared with its [`PipelineOp`]) that zone maps test to skip a
    /// window before a batch is formed.
    Leaf {
        parts: Vec<Window>,
        prune: Arc<[Vec<SimplePred>]>,
    },
    /// An inline relation (`Plan::Values`): its rows, already validated,
    /// emitted as one owned batch — none when it is empty.
    Rows(Vec<Row>),
    Node {
        op: Box<dyn PhysicalOperator + 'p>,
        children: Vec<OpTree<'p>>,
    },
}

/// Execute an operator tree: drive each child fully in order, pushing its
/// batches into the parent, then finish the parent. The recursion is the
/// entire control flow of the executor — operators never pull.
pub(super) fn drive(tree: OpTree<'_>) -> RelResult<Vec<Batch>> {
    match tree {
        OpTree::Leaf { parts, prune } => Ok(parts
            .into_iter()
            .filter(|part| !vector::segment_pruned(&part.seg, &prune))
            .map(Batch::Shared)
            .collect()),
        OpTree::Rows(rows) => {
            let mut out = Vec::new();
            push_rows(&mut out, rows);
            Ok(out)
        }
        OpTree::Node { mut op, children } => {
            for (i, child) in children.into_iter().enumerate() {
                for batch in drive(child)? {
                    op.push_batch(i, batch)?;
                }
            }
            op.finish()
        }
    }
}

/// Push `rows` as an owned output batch, dropping empties (operators never
/// emit empty batches, matching the pull executor's contract).
fn push_rows(out: &mut Vec<Batch>, rows: Vec<Row>) {
    out.extend(Batch::from_rows(rows));
}

// ---------------------------------------------------------------------------
// Fused Select/Project pipeline
// ---------------------------------------------------------------------------

/// Fused Select/Project chain: one pass per slice of input, no
/// intermediate tables. Shared windows are buffered and run together —
/// one slice of at most a morsel per task, morsel-parallel when the
/// windows together are large enough ([`morsel::run_windows`]) — lane
/// masks first, then the row walk ([`vector::run_window`]). A window the
/// lane masks alone resolve goes on as one window, its dropped rows marked
/// dead; owned batches (child-produced rows, which can be moved rather
/// than cloned) walk [`apply_stages`] row by row.
pub(super) struct PipelineOp<'p> {
    stages: Vec<Stage<'p>>,
    /// [`vector::prune_groups`] of `stages`, computed once at compile time
    /// and shared with the scan leaf below, if there is one.
    groups: Arc<[Vec<SimplePred>]>,
    cfg: Executor,
    /// Consecutive shared windows not yet run (a scan's parts).
    windows: Vec<Window>,
    out: Vec<Batch>,
}

impl<'p> PipelineOp<'p> {
    pub(super) fn new(
        stages: Vec<Stage<'p>>,
        groups: Arc<[Vec<SimplePred>]>,
        cfg: Executor,
    ) -> PipelineOp<'p> {
        PipelineOp {
            stages,
            groups,
            cfg,
            windows: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Run the buffered windows through the stages, slice by slice in
    /// window order. Every slice reads its lanes straight from its
    /// window's segment at the slice's offset, serial or parallel; the
    /// slices of one window fill one set of dead bits.
    fn flush(&mut self) -> RelResult<()> {
        let windows = mem::take(&mut self.windows);
        let lens: Vec<usize> = windows.iter().map(|w| w.seg.len()).collect();
        let sliced = morsel::run_windows(&lens, self.cfg, |w, lo, hi| {
            vector::run_window(&self.stages, &self.groups, &windows[w], lo, hi)
        })?;
        let mut sliced = sliced.into_iter().peekable();
        for (w, window) in windows.into_iter().enumerate() {
            let mut dropped = Vec::new();
            while let Some((_, out)) = sliced.next_if(|s| s.0 == w) {
                match out {
                    Sliced::Dropped { lo, bits } => dropped.push((lo, bits)),
                    Sliced::Rows(rows) => self.out.extend(Batch::from_rows(rows)),
                }
            }
            if !dropped.is_empty() {
                self.out
                    .extend(vector::drop_rows(window, dropped).map(Batch::Shared));
            }
        }
        Ok(())
    }
}

impl PhysicalOperator for PipelineOp<'_> {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        if self.stages.is_empty() {
            self.out.push(batch);
            return Ok(());
        }
        match batch {
            Batch::Shared(w) => self.windows.push(w),
            Batch::Owned(batch_rows) => {
                // Output order is input order: what is buffered goes first.
                self.flush()?;
                let mut rows = Vec::with_capacity(batch_rows.len());
                for row in batch_rows {
                    if let Some(r) = apply_stages(&self.stages, row)? {
                        rows.push(r);
                    }
                }
                push_rows(&mut self.out, rows);
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        self.flush()?;
        Ok(mem::take(&mut self.out))
    }
}

// ---------------------------------------------------------------------------
// Equi-join
// ---------------------------------------------------------------------------

/// Equi-join. Its inputs are buffered and the join runs in [`finish`],
/// the probe batches cut into morsels over the whole batch list
/// ([`morsel::run_windows`]); where a probe row finds its partners is the
/// [`Build`].
///
/// [`finish`]: PhysicalOperator::finish
pub(super) struct JoinOp {
    lschema: Schema,
    /// Probe key columns — for [`Build::Key`], in the table's primary-key
    /// order.
    l_idx: Vec<usize>,
    kind: JoinKind,
    r_arity: usize,
    cfg: Executor,
    build: Build,
    probe_buf: Vec<Batch>,
}

/// The right side of a [`JoinOp`].
pub(super) enum Build {
    /// The right child's output: input 0, which the driver exhausts before
    /// the probe child (input 1) starts, indexed by reference in `finish`
    /// (`u64` key hash → positions, candidates verified with [`keys_eq`]
    /// at probe time).
    Hash {
        schema: Schema,
        r_idx: Vec<usize>,
        batches: Vec<Batch>,
    },
    /// A stored table keyed by exactly the join's right columns
    /// (`optimize::keyed_lookup`): each probe row looks its key up in the
    /// table's primary-key index, so nothing is gathered or hashed. There
    /// is no build input — the probe is input 0 — and a bound scan raises
    /// nothing, so no error is skipped.
    Key(Table),
}

impl JoinOp {
    pub(super) fn new(
        lschema: Schema,
        l_idx: Vec<usize>,
        kind: JoinKind,
        r_arity: usize,
        build: Build,
        cfg: Executor,
    ) -> JoinOp {
        JoinOp {
            lschema,
            l_idx,
            kind,
            r_arity,
            cfg,
            build,
            probe_buf: Vec::new(),
        }
    }
}

impl PhysicalOperator for JoinOp {
    fn push_batch(&mut self, input: usize, batch: Batch) -> RelResult<()> {
        match &mut self.build {
            Build::Hash { batches, .. } if input == 0 => batches.push(batch),
            _ => self.probe_buf.push(batch),
        }
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        let probes = mem::take(&mut self.probe_buf);
        let (l_idx, kind, r_arity, cfg) = (&self.l_idx, self.kind, self.r_arity, self.cfg);
        let lens: Vec<usize> = probes.iter().map(Batch::extent).collect();
        // A slice's probe rows, by reference.
        let slice =
            |w: usize, lo, hi| -> Vec<&Row> { probes[w].live(lo, hi).map(|(_, r)| r).collect() };
        let joined = match &mut self.build {
            Build::Key(table) => morsel::run_windows(&lens, cfg, |w, lo, hi| {
                Ok(blocking::probe_key(
                    &slice(w, lo, hi),
                    table,
                    l_idx,
                    kind,
                    r_arity,
                ))
            }),
            Build::Hash {
                schema,
                r_idx,
                batches,
            } => {
                let build = Gathered::from_batches(mem::take(batches));
                let right = build.rows();
                let index = if cfg.parallel_for(right.len()) {
                    blocking::par_build_hash_index(&right, schema, r_idx, cfg)
                } else {
                    blocking::build_hash_index(&right, schema, r_idx)
                };
                morsel::run_windows(&lens, cfg, |w, lo, hi| {
                    Ok(blocking::probe_hash(
                        &slice(w, lo, hi),
                        &self.lschema,
                        &index,
                        &right,
                        l_idx,
                        r_idx,
                        kind,
                        r_arity,
                    ))
                })
            }
        }?;
        Ok(joined
            .into_iter()
            .filter_map(|(_, rows)| Batch::from_rows(rows))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

/// Bag union: batches pass straight through in child order. Rows from
/// non-leading inputs are re-checked against the output schema only when
/// some column is NOT NULL — the one way union rows can be rejected, since
/// union compatibility already fixed the types — morsel-parallel for large
/// shared windows.
pub(super) struct UnionOp {
    schema: Schema,
    check_rows: bool,
    cfg: Executor,
    out: Vec<Batch>,
}

impl UnionOp {
    pub(super) fn new(schema: Schema, check_rows: bool, cfg: Executor) -> UnionOp {
        UnionOp {
            schema,
            check_rows,
            cfg,
            out: Vec::new(),
        }
    }
}

impl PhysicalOperator for UnionOp {
    fn push_batch(&mut self, input: usize, batch: Batch) -> RelResult<()> {
        if self.check_rows && input > 0 {
            let rows: Vec<&Row> = batch.rows().collect();
            if self.cfg.parallel_for(rows.len()) {
                morsel::par_check_rows(&rows, &self.schema, self.cfg)?;
            } else {
                for row in rows {
                    self.schema.check_row(row)?;
                }
            }
        }
        self.out.push(batch);
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        Ok(mem::take(&mut self.out))
    }
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

/// Streaming δ: forwards first occurrences across all input batches.
/// First occurrences are bucketed by lane key hash and candidates verified
/// with [`keys_eq`] — the same equality relation as the interpreter's
/// seen-set (`Value` equality is `total_cmp`-consistent, and so is the
/// lane hash), so the emitted first-occurrence sequence is identical.
pub(super) struct DistinctOp {
    schema: Schema,
    /// All column positions — distinct keys on the whole row.
    cols: Vec<usize>,
    cfg: Executor,
    buckets: HashBuckets<Vec<u32>>,
    kept: Vec<Row>,
}

impl DistinctOp {
    pub(super) fn new(schema: Schema, cfg: Executor) -> DistinctOp {
        DistinctOp {
            cols: (0..schema.arity()).collect(),
            schema,
            cfg,
            buckets: HashBuckets::default(),
            kept: Vec::new(),
        }
    }
}

impl PhysicalOperator for DistinctOp {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        let rows: Vec<&Row> = batch.rows().collect();
        // The hash pass is columnar (and morsel-parallel for large shared
        // windows); the bucket walk stays serial to keep first-occurrence
        // order.
        let (hashes, _) = if self.cfg.parallel_for(rows.len()) {
            blocking::par_key_hashes(&rows, &self.schema, &self.cols, self.cfg)
        } else {
            key_hashes(&rows, &self.schema, &self.cols)
        };
        for (i, row) in rows.iter().enumerate() {
            let bucket = self.buckets.entry(hashes[i]).or_default();
            let dup = bucket
                .iter()
                .any(|&s| keys_eq(row, &self.cols, &self.kept[s as usize], &self.cols));
            if !dup {
                bucket.push(self.kept.len() as u32);
                self.kept.push((*row).clone());
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        let mut out = Vec::new();
        push_rows(&mut out, mem::take(&mut self.kept));
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Unpivot
// ---------------------------------------------------------------------------

/// Streaming un-pivot: each input batch expands independently into EAV
/// triples, read in place when the input is a shared window.
pub(super) struct UnpivotOp {
    in_schema: Schema,
    key_idx: Vec<usize>,
    data_idx: Vec<usize>,
    out: Vec<Batch>,
}

impl UnpivotOp {
    pub(super) fn new(in_schema: Schema, key_idx: Vec<usize>, data_idx: Vec<usize>) -> UnpivotOp {
        UnpivotOp {
            in_schema,
            key_idx,
            data_idx,
            out: Vec::new(),
        }
    }
}

impl PhysicalOperator for UnpivotOp {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        let rows = unpivot_rows(&self.in_schema, batch.rows(), &self.key_idx, &self.data_idx);
        push_rows(&mut self.out, rows);
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        Ok(mem::take(&mut self.out))
    }
}

// ---------------------------------------------------------------------------
// Blocking operators: aggregate, pivot, sort
// ---------------------------------------------------------------------------

/// Grouped aggregation: buffers its input, then dispatches on
/// associativity × cardinality to the lane kernel or its morsel-parallel
/// variant. SUM/AVG over FLOAT pins the serial kernel — `f64` addition is
/// not associative, and the serial kernel adds in row order like the
/// interpreter, so results stay bit-identical.
pub(super) struct AggregateOp<'p> {
    in_schema: Schema,
    out_schema: Schema,
    g_idx: Vec<usize>,
    agg_idx: Vec<Option<usize>>,
    aggregates: &'p [Aggregate],
    associative: bool,
    cfg: Executor,
    buf: Vec<Batch>,
}

impl<'p> AggregateOp<'p> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        in_schema: Schema,
        out_schema: Schema,
        g_idx: Vec<usize>,
        agg_idx: Vec<Option<usize>>,
        aggregates: &'p [Aggregate],
        associative: bool,
        cfg: Executor,
    ) -> AggregateOp<'p> {
        AggregateOp {
            in_schema,
            out_schema,
            g_idx,
            agg_idx,
            aggregates,
            associative,
            cfg,
            buf: Vec::new(),
        }
    }
}

impl PhysicalOperator for AggregateOp<'_> {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        self.buf.push(batch);
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        let g = Gathered::from_batches(mem::take(&mut self.buf));
        let rows = g.rows();
        let par = self.associative && self.cfg.parallel_for(rows.len());
        let out = if par {
            blocking::par_lane_aggregate(
                &rows,
                &self.in_schema,
                &self.g_idx,
                &self.agg_idx,
                self.aggregates,
                self.cfg,
            )
        } else {
            blocking::lane_aggregate(
                &rows,
                &self.in_schema,
                &self.g_idx,
                &self.agg_idx,
                self.aggregates,
            )
        };
        // Validate emitted rows exactly where the materializing
        // interpreter's `from_rows` does — e.g. SUM over a TEXT column
        // emits INT into a TEXT-typed output column.
        for r in &out {
            self.out_schema.check_row(r)?;
        }
        let mut batches = Vec::new();
        push_rows(&mut batches, out);
        Ok(batches)
    }
}

/// Pivot: buffers its input, then runs [`blocking::PivotKernel`] over it —
/// shared windows read off their segments' dictionary codes, owned
/// batches row by row — per morsel when the input is large, with wide
/// rows merged entity-by-entity in morsel order.
pub(super) struct PivotOp<'p> {
    in_schema: Schema,
    key_idx: Vec<usize>,
    attr_idx: usize,
    val_idx: usize,
    attrs: &'p [(String, DataType)],
    cfg: Executor,
    buf: Vec<Batch>,
}

impl<'p> PivotOp<'p> {
    pub(super) fn new(
        in_schema: Schema,
        key_idx: Vec<usize>,
        attr_idx: usize,
        val_idx: usize,
        attrs: &'p [(String, DataType)],
        cfg: Executor,
    ) -> PivotOp<'p> {
        PivotOp {
            in_schema,
            key_idx,
            attr_idx,
            val_idx,
            attrs,
            cfg,
            buf: Vec::new(),
        }
    }
}

impl PhysicalOperator for PivotOp<'_> {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        self.buf.push(batch);
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        let windows = mem::take(&mut self.buf);
        let kernel = blocking::PivotKernel::new(
            &windows,
            &self.key_idx,
            self.attr_idx,
            self.val_idx,
            self.attrs,
            self.in_schema.arity(),
        );
        let lens: Vec<usize> = windows.iter().map(Batch::extent).collect();
        let out = if self.cfg.parallel_for(lens.iter().sum()) {
            morsel::par_pivot(&lens, self.cfg, |w, lo, hi| {
                let mut slots = kernel.slots();
                kernel.pivot_into(w, lo, hi, &mut slots).map(|()| slots)
            })?
        } else {
            kernel.pivot_all()?
        };
        let mut batches = Vec::new();
        push_rows(&mut batches, out);
        Ok(batches)
    }
}

/// Sort: buffers its input, then sorts via [`blocking::sort_gathered`] —
/// lane sort keys, and the parallel merge-path kernel over sorted morsel
/// runs for large inputs.
pub(super) struct SortOp {
    schema: Schema,
    idxs: Vec<usize>,
    cfg: Executor,
    buf: Vec<Batch>,
}

impl SortOp {
    pub(super) fn new(schema: Schema, idxs: Vec<usize>, cfg: Executor) -> SortOp {
        SortOp {
            schema,
            idxs,
            cfg,
            buf: Vec::new(),
        }
    }
}

impl PhysicalOperator for SortOp {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        self.buf.push(batch);
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        let g = Gathered::from_batches(mem::take(&mut self.buf));
        let rows = blocking::sort_gathered(g, &self.schema, &self.idxs, self.cfg);
        let mut batches = Vec::new();
        push_rows(&mut batches, rows);
        Ok(batches)
    }
}

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

/// Emits at most `n` rows. The driver still pushes every input batch —
/// the child is always fully driven — so an error past the cutoff
/// surfaces exactly as the materializing interpreter reports it; batches
/// past the cutoff are simply dropped here.
pub(super) struct LimitOp {
    remaining: usize,
    out: Vec<Batch>,
}

impl LimitOp {
    pub(super) fn new(n: usize) -> LimitOp {
        LimitOp {
            remaining: n,
            out: Vec::new(),
        }
    }
}

impl PhysicalOperator for LimitOp {
    fn push_batch(&mut self, _input: usize, batch: Batch) -> RelResult<()> {
        if self.remaining == 0 || batch.len() == 0 {
            return Ok(());
        }
        let take = usize::min(self.remaining, batch.len());
        self.remaining -= take;
        self.out.push(batch.take_prefix(take));
        Ok(())
    }

    fn finish(&mut self) -> RelResult<Vec<Batch>> {
        Ok(mem::take(&mut self.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::table::Table;
    use crate::value::Value;

    fn int_rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    #[test]
    fn drive_emits_leaves_zero_copy() {
        let schema = Schema::new("t", vec![Column::new("i", DataType::Int)]).unwrap();
        let leaf = |t: &Table| OpTree::Leaf {
            parts: t.scan_parts(),
            prune: Arc::new([]),
        };
        let mut t = Table::from_rows(schema.clone(), int_rows(4)).unwrap();
        let batches = drive(leaf(&t)).unwrap();
        assert!(matches!(&batches[..], [Batch::Shared(w)] if w.dead.is_none() && w.seg.len() == 4));
        // The window is the table's own backing, not a copy of it.
        let first = batches[0].rows().next().unwrap();
        assert_eq!(batches[0].len(), t.len());
        assert!(std::ptr::eq(first, t.row_at(0).unwrap()));
        // A delete leaves one window over the whole chunk, the deleted
        // row dead in it.
        t.delete_where(|r| r[0] == Value::Int(0)).unwrap();
        let batches = drive(leaf(&t)).unwrap();
        let [Batch::Shared(w)] = &batches[..] else {
            panic!("one window per chunk");
        };
        assert_eq!((w.seg.len(), w.live()), (4, 3));
        assert!(std::ptr::eq(
            batches[0].rows().next().unwrap(),
            t.row_at(0).unwrap()
        ));
        // An empty table has no chunk, hence no window at all.
        assert!(drive(leaf(&Table::new(schema))).unwrap().is_empty());
    }

    #[test]
    fn limit_truncates_across_batches_without_cutting_the_drive() {
        let mut op = LimitOp::new(3);
        op.push_batch(0, Batch::Owned(int_rows(2))).unwrap();
        op.push_batch(0, Batch::Owned(int_rows(2))).unwrap();
        // Past the cutoff: still pushed (the driver always drains the
        // child), silently dropped here.
        op.push_batch(0, Batch::Owned(int_rows(5))).unwrap();
        let out = op.finish().unwrap();
        let rows = super::super::batch::tests::rows_of(&out);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(0)]
            ]
        );
    }
}
