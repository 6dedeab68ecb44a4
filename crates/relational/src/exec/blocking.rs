//! Lane-aware kernels for the blocking operators: hash-join build/probe,
//! grouped aggregation, pivot, and sort.
//!
//! These are the executor's counterparts of the row kernels the
//! materializing interpreter runs (`aggregate_rows` / `pivot_rows` /
//! `sort_rows` and the join loop in [`crate::algebra`]). Each one
//! consumes typed column lanes ([`super::batch`]) instead of materializing
//! a `Vec<Value>` key or fetching `Value`s per row:
//!
//! * **Join** builds a `u64-hash → build positions` index from
//!   [`key_hashes`] and probes with the same hashes; candidates verify
//!   with [`keys_eq`], so the emitted (probe row × postings) sequence is
//!   identical to the `HashMap<Vec<&Value>, _>` index the interpreter uses.
//!   Against a stored table keyed by exactly the join's right columns it
//!   builds nothing: [`probe_key`] looks each probe key up in the table's
//!   own primary-key index.
//! * **Aggregation** ([`lane_aggregate`]) groups by lane hash and feeds
//!   INT/FLOAT source columns into [`AggAcc`] through monomorphic
//!   `update_int` / `update_float` calls; every other source type goes
//!   through the generic `update`, so accumulator semantics cannot drift.
//! * **Pivot** ([`PivotKernel`]) reads shared windows off their sealed
//!   segments: attribute dictionary codes resolve to output positions and
//!   value codes cast to each declared type once per segment, so an EAV
//!   row costs array reads. Owned batches and columns no dictionary
//!   images take the row kernel's `pivot_cell` per row, in the same slot
//!   map (the exact row-kernel errors included).
//! * **Sort** ([`sort_gathered`]) sorts an index permutation against
//!   pre-shredded [`SortKeys`]; the parallel path stable-sorts each morsel
//!   run and merges adjacent runs pairwise ("merge path"), with the left
//!   run winning ties — provably equal to a full stable sort, so the
//!   output is byte-identical to `sort_rows` at any morsel size or thread
//!   count.
//!
//! Every kernel reads its blocking input in place — through [`RowRef`]
//! (a slice of rows or a [`Gathered`] list of row references), or for the
//! pivot the windows themselves — so an input that arrived as several
//! shared windows (any table after its first install) is never copied to
//! be aggregated, indexed or pivoted.
//!
//! Every kernel here is held to the executor's hard bar: rows, order, and
//! first-error-in-row-order byte-identical to the materializing oracle —
//! see `tests/exec_vectorized.rs` and the property suites.

use super::batch::{
    build_lane, column_eq, column_hash, key_hashes, keys_eq, value_hash, Batch, Gathered,
    HashBuckets, Lane, RowRef, SortKeys, HASH_SEED,
};
use super::morsel::{morsel_bounds, n_morsels, run_tasks};
use super::Executor;
use crate::algebra::{cast_cell, cast_text, pivot_cell, AggAcc, Aggregate, JoinKind, PivotCell};
use crate::error::RelResult;
use crate::schema::Schema;
use crate::segment::{is_dead, ColumnData, Segment, SegmentColumn, Window};
use crate::table::{Row, Table};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Lane-hash join index: `u64 key hash → build-side row positions`, in
/// build-row order. NULL keys are absent (SQL: NULL never matches). Hash
/// collisions are resolved at probe time with [`keys_eq`], so the postings
/// a probe row actually joins against are exactly those of the
/// interpreter's value-keyed index, in the same order.
pub(super) struct HashIndex {
    buckets: HashBuckets<Vec<u32>>,
}

pub(super) fn build_hash_index<R: RowRef>(rows: &[R], schema: &Schema, idx: &[usize]) -> HashIndex {
    let (hashes, has_null) = key_hashes(rows, schema, idx);
    let mut buckets: HashBuckets<Vec<u32>> = HashBuckets::default();
    for i in 0..rows.len() {
        if !has_null[i] {
            buckets.entry(hashes[i]).or_default().push(i as u32);
        }
    }
    HashIndex { buckets }
}

/// Morsel-parallel lane-hash index build: morsel-local buckets (with
/// global row positions) merged in morsel order, so every postings list
/// stays sorted by build-row position exactly like a serial build.
pub(super) fn par_build_hash_index<R: RowRef>(
    rows: &[R],
    schema: &Schema,
    idx: &[usize],
    cfg: Executor,
) -> HashIndex {
    let parts = run_tasks(n_morsels(rows.len(), cfg.morsel_size), cfg.threads, |m| {
        let (lo, hi) = morsel_bounds(m, rows.len(), cfg.morsel_size);
        let (hashes, has_null) = key_hashes(&rows[lo..hi], schema, idx);
        let mut buckets: HashBuckets<Vec<u32>> = HashBuckets::default();
        for off in 0..hi - lo {
            if !has_null[off] {
                buckets
                    .entry(hashes[off])
                    .or_default()
                    .push((lo + off) as u32);
            }
        }
        buckets
    });
    let mut parts = parts.into_iter();
    let mut buckets = parts.next().unwrap_or_default();
    for part in parts {
        for (h, mut positions) in part {
            buckets.entry(h).or_default().append(&mut positions);
        }
    }
    HashIndex { buckets }
}

/// Probe a chunk of left rows against the lane-hash index. Key hashes come
/// off the probe side's lanes; candidate postings are verified with
/// [`keys_eq`] in postings order, so output rows, order, and left-join
/// NULL padding match the interpreter's join byte for byte.
#[allow(clippy::too_many_arguments)]
pub(super) fn probe_hash<L: RowRef, R: RowRef>(
    lrows: &[L],
    lschema: &Schema,
    index: &HashIndex,
    right: &[R],
    l_idx: &[usize],
    r_idx: &[usize],
    kind: JoinKind,
    r_arity: usize,
) -> Vec<Row> {
    let (hashes, has_null) = key_hashes(lrows, lschema, l_idx);
    let mut out: Vec<Row> = Vec::with_capacity(lrows.len());
    for (i, lrow) in lrows.iter().enumerate() {
        let lrow = lrow.as_ref();
        let mut matched = false;
        if !has_null[i] {
            if let Some(cands) = index.buckets.get(&hashes[i]) {
                for &ri in cands {
                    let rrow = right[ri as usize].as_ref();
                    if keys_eq(lrow, l_idx, rrow, r_idx) {
                        matched = true;
                        out.push(joined_row(lrow, rrow.iter().cloned(), r_arity));
                    }
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            out.push(joined_row(
                lrow,
                std::iter::repeat_n(Value::Null, r_arity),
                r_arity,
            ));
        }
    }
    out
}

/// Probe a chunk of left rows against a stored table keyed by exactly the
/// join's right columns; `l_idx` lists the probe columns in the table's
/// primary-key order. A unique key matches at most once, so the output is
/// in probe order; a key holding a NULL matches nothing (the join's rule,
/// checked here rather than left to the key columns' NOT NULL); and the index
/// hashes and compares keys by `Value`'s `Hash`/`Eq` — the relation
/// [`key_hashes`] and [`keys_eq`] implement (`Int(2)` matches
/// `Float(2.0)`, NaN matches NaN, `-0.0` does not match `0.0`) — so the
/// rows are those [`probe_hash`] emits over the table's live rows.
pub(super) fn probe_key<L: RowRef>(
    lrows: &[L],
    table: &Table,
    l_idx: &[usize],
    kind: JoinKind,
    r_arity: usize,
) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::with_capacity(lrows.len());
    let mut key: Vec<Value> = Vec::with_capacity(l_idx.len());
    for lrow in lrows {
        let lrow = lrow.as_ref();
        key.clear();
        key.extend(l_idx.iter().map(|&i| lrow[i].clone()));
        let hit = if key.iter().any(Value::is_null) {
            None
        } else {
            table.get_by_key(&key)
        };
        match hit {
            Some(rrow) => out.push(joined_row(lrow, rrow.iter().cloned(), r_arity)),
            None if kind == JoinKind::Left => out.push(joined_row(
                lrow,
                std::iter::repeat_n(Value::Null, r_arity),
                r_arity,
            )),
            None => {}
        }
    }
    out
}

/// A join output row: `lrow` followed by the `r_arity` right values.
fn joined_row(lrow: &[Value], right: impl Iterator<Item = Value>, r_arity: usize) -> Row {
    let mut row = Vec::with_capacity(lrow.len() + r_arity);
    row.extend(lrow.iter().cloned());
    row.extend(right);
    row
}

/// Morsel-parallel [`key_hashes`]: per-morsel hash chunks concatenated in
/// morsel order (hashing is per-row, so the result is position-identical).
pub(super) fn par_key_hashes<R: RowRef>(
    rows: &[R],
    schema: &Schema,
    idx: &[usize],
    cfg: Executor,
) -> (Vec<u64>, Vec<bool>) {
    let parts = run_tasks(n_morsels(rows.len(), cfg.morsel_size), cfg.threads, |m| {
        let (lo, hi) = morsel_bounds(m, rows.len(), cfg.morsel_size);
        key_hashes(&rows[lo..hi], schema, idx)
    });
    let mut hashes = Vec::with_capacity(rows.len());
    let mut has_null = Vec::with_capacity(rows.len());
    for (h, n) in parts {
        hashes.extend(h);
        has_null.extend(n);
    }
    (hashes, has_null)
}

// ---------------------------------------------------------------------------
// Lane-aware grouped aggregation
// ---------------------------------------------------------------------------

/// Where one aggregate reads its per-row input from: a typed lane (the
/// vectorized fast path, feeding `AggAcc::update_int` / `update_float`),
/// or the generic row fallback (`AggAcc::update`, so Bool/Text/Date and
/// mixed-storage columns keep identical semantics by construction).
enum AggSrc {
    CountAll,
    Col(usize),
    Int(Vec<i64>, Vec<bool>),
    Float(Vec<f64>, Vec<bool>),
}

struct LaneGroup {
    hash: u64,
    /// First input row of this group: supplies the emitted key values
    /// (the row the serial kernel cloned its key from).
    rep: u32,
    accs: Vec<AggAcc>,
}

/// Grouped aggregation state over lane-hashed keys, mirroring the row
/// kernel behind `algebra::aggregate_rows`: groups in first-seen order, a
/// bucket map from key hash to group slots, and per-group accumulators.
/// Partial states over disjoint morsel ranges merge in morsel order.
pub(super) struct LaneAggState<'a, R> {
    rows: &'a [R],
    buckets: HashBuckets<Vec<u32>>,
    groups: Vec<LaneGroup>,
    n_aggs: usize,
}

impl<'a, R: RowRef> LaneAggState<'a, R> {
    fn new(rows: &'a [R], global: bool, n_aggs: usize) -> LaneAggState<'a, R> {
        let mut st = LaneAggState {
            rows,
            buckets: HashBuckets::default(),
            groups: Vec::new(),
            n_aggs,
        };
        if global {
            // Global aggregation always emits exactly one row, even over
            // zero input rows; the rep index is never read (no key
            // columns), so 0 is safe on an empty input.
            st.buckets.insert(HASH_SEED, vec![0]);
            st.groups.push(LaneGroup {
                hash: HASH_SEED,
                rep: 0,
                accs: vec![AggAcc::default(); n_aggs],
            });
        }
        st
    }

    /// Group slot for the key of input row `rep` (hash `h`), or `None`.
    fn find_group(&self, h: u64, rep: usize, g_idx: &[usize]) -> Option<usize> {
        self.buckets
            .get(&h)?
            .iter()
            .copied()
            .find(|&g| {
                keys_eq(
                    self.rows[rep].as_ref(),
                    g_idx,
                    self.rows[self.groups[g as usize].rep as usize].as_ref(),
                    g_idx,
                )
            })
            .map(|g| g as usize)
    }

    fn insert_group(&mut self, h: u64, rep: u32, accs: Vec<AggAcc>) -> usize {
        let g = self.groups.len();
        self.buckets.entry(h).or_default().push(g as u32);
        self.groups.push(LaneGroup { hash: h, rep, accs });
        g
    }

    /// Fold input rows `lo..hi` into the state, columnar: key hashes and
    /// INT/FLOAT aggregate sources come off lanes built once per range;
    /// rows then update their group's accumulators in row order (which is
    /// what keeps the serial FLOAT running sum bit-identical to the row
    /// kernel's).
    fn update_range(
        &mut self,
        lo: usize,
        hi: usize,
        schema: &Schema,
        g_idx: &[usize],
        agg_idx: &[Option<usize>],
    ) {
        let rows = self.rows;
        let slice = &rows[lo..hi];
        let (hashes, _) = key_hashes(slice, schema, g_idx);
        let srcs: Vec<AggSrc> = agg_idx
            .iter()
            .map(|idx| match idx {
                None => AggSrc::CountAll,
                Some(c) => match build_lane(slice, *c, schema.columns()[*c].data_type) {
                    Lane::Int { vals, nulls } => AggSrc::Int(vals, nulls),
                    Lane::Float { vals, nulls } => AggSrc::Float(vals, nulls),
                    _ => AggSrc::Col(*c),
                },
            })
            .collect();
        for off in 0..slice.len() {
            let i = lo + off;
            let slot = match self.find_group(hashes[off], i, g_idx) {
                Some(g) => g,
                None => {
                    self.insert_group(hashes[off], i as u32, vec![AggAcc::default(); self.n_aggs])
                }
            };
            let accs = &mut self.groups[slot].accs;
            for (src, acc) in srcs.iter().zip(accs.iter_mut()) {
                match src {
                    AggSrc::CountAll => acc.update(None, rows[i].as_ref()),
                    AggSrc::Col(c) => acc.update(Some(*c), rows[i].as_ref()),
                    AggSrc::Int(vals, nulls) => {
                        if nulls[off] {
                            acc.update_null();
                        } else {
                            acc.update_int(vals[off]);
                        }
                    }
                    AggSrc::Float(vals, nulls) => {
                        if nulls[off] {
                            acc.update_null();
                        } else {
                            acc.update_float(vals[off]);
                        }
                    }
                }
            }
        }
    }

    /// Merge a partial state over a *later* morsel range, walking the
    /// other state's groups in its first-seen order: its new groups append
    /// after `self`'s, and because morsels are contiguous row ranges,
    /// group output order stays first-seen across the whole input.
    fn merge(&mut self, other: LaneAggState<'a, R>, g_idx: &[usize]) {
        for g in other.groups {
            match self.find_group(g.hash, g.rep as usize, g_idx) {
                Some(slot) => {
                    let accs = &mut self.groups[slot].accs;
                    for (acc, inc) in accs.iter_mut().zip(g.accs) {
                        acc.merge(inc);
                    }
                }
                None => {
                    self.insert_group(g.hash, g.rep, g.accs);
                }
            }
        }
    }

    /// Emit one row per group in first-seen order: key values cloned from
    /// the group's first input row, then each accumulator's final value.
    fn finish(self, g_idx: &[usize], aggregates: &[Aggregate]) -> Vec<Row> {
        let rows = self.rows;
        self.groups
            .into_iter()
            .map(|g| {
                let mut row: Row = g_idx
                    .iter()
                    .map(|&c| rows[g.rep as usize].as_ref()[c].clone())
                    .collect();
                for (a, acc) in aggregates.iter().zip(g.accs) {
                    row.push(acc.finish(&a.func));
                }
                row
            })
            .collect()
    }
}

/// Serial lane-aware grouped aggregation; byte-identical to
/// `aggregate_rows` (group order, key representation, accumulator
/// semantics — including the order-sensitive FLOAT running sum, which this
/// serial kernel feeds in row order exactly like the row path).
pub(super) fn lane_aggregate<R: RowRef>(
    rows: &[R],
    schema: &Schema,
    g_idx: &[usize],
    agg_idx: &[Option<usize>],
    aggregates: &[Aggregate],
) -> Vec<Row> {
    let mut st = LaneAggState::new(rows, g_idx.is_empty(), aggregates.len());
    st.update_range(0, rows.len(), schema, g_idx, agg_idx);
    st.finish(g_idx, aggregates)
}

/// Morsel-parallel lane-aware aggregation: per-morsel partial states
/// merged in morsel order. Only called when every SUM/AVG input is
/// non-FLOAT (`f64` addition is not associative).
pub(super) fn par_lane_aggregate<R: RowRef>(
    rows: &[R],
    schema: &Schema,
    g_idx: &[usize],
    agg_idx: &[Option<usize>],
    aggregates: &[Aggregate],
    cfg: Executor,
) -> Vec<Row> {
    let global = g_idx.is_empty();
    let n_aggs = aggregates.len();
    let parts = run_tasks(n_morsels(rows.len(), cfg.morsel_size), cfg.threads, |m| {
        let (lo, hi) = morsel_bounds(m, rows.len(), cfg.morsel_size);
        let mut st = LaneAggState::new(rows, global, n_aggs);
        st.update_range(lo, hi, schema, g_idx, agg_idx);
        st
    });
    let mut parts = parts.into_iter();
    let mut st = parts
        .next()
        .unwrap_or_else(|| LaneAggState::new(rows, global, n_aggs));
    for part in parts {
        st.merge(part, g_idx);
    }
    st.finish(g_idx, aggregates)
}

// ---------------------------------------------------------------------------
// Pivot over dictionary codes
// ---------------------------------------------------------------------------

/// A pivot's output while it is built: one row per entity in first-seen
/// order, holding only the cells the pivot stores ([`PivotKernel`]'s
/// stored list): key cells at the positions `key_at` names, attribute
/// cells where the kernel puts them, NULL until written. Each entity's
/// key is kept apart, `klen` values per slot, so an entity is found
/// whether or not its key is stored. The previous row's entity is tried
/// first, before any hash: EAV inputs cluster one entity's attribute
/// rows together. Otherwise entities are found by lane key hash
/// ([`value_hash`] of a row, [`column_hash`] of a segment row — equal for
/// equal values) along a chain of the slots that share it, each candidate
/// verified by value equality.
pub(super) struct PivotSlots<'k> {
    klen: usize,
    width: usize,
    /// (row position, key column) of each stored key cell.
    key_at: &'k [(usize, usize)],
    /// Slot `s`'s key at `s * klen..(s + 1) * klen`.
    keys: Vec<Value>,
    out: Vec<Row>,
    /// Per slot: its key hash, and the previous slot with the same hash.
    hashes: Vec<u64>,
    chain: Vec<Option<u32>>,
    /// Key hash → the newest slot with that hash.
    heads: HashBuckets<u32>,
    last: Option<usize>,
}

impl<'k> PivotSlots<'k> {
    fn key(&self, s: usize) -> &[Value] {
        &self.keys[s * self.klen..(s + 1) * self.klen]
    }

    /// The slot of the entity whose key passes `eq`, or its key hash `h`
    /// when it has none yet. `h` is computed only when the previous row's
    /// entity is not this one.
    fn find(
        &mut self,
        h: impl FnOnce() -> u64,
        eq: impl Fn(&[Value]) -> bool,
    ) -> Result<usize, u64> {
        if let Some(s) = self.last.filter(|&s| eq(self.key(s))) {
            return Ok(s);
        }
        let h = h();
        let mut next = self.heads.get(&h).copied();
        while let Some(s) = next.map(|s| s as usize) {
            if eq(self.key(s)) {
                self.last = Some(s);
                return Ok(s);
            }
            next = self.chain[s];
        }
        Err(h)
    }

    /// A new slot for `key`, whose hash is `h`, holding `row`.
    fn insert(&mut self, h: u64, key: impl Iterator<Item = Value>, row: Row) -> usize {
        let s = self.out.len();
        self.keys.extend(key);
        self.chain.push(self.heads.insert(h, s as u32));
        self.hashes.push(h);
        self.out.push(row);
        self.last = Some(s);
        s
    }

    /// The slot of the entity whose key passes `eq` and hashes to `h`,
    /// made from `key` and NULL cells on the entity's first row.
    fn entity(
        &mut self,
        h: impl FnOnce() -> u64,
        eq: impl Fn(&[Value]) -> bool,
        key: impl Iterator<Item = Value>,
    ) -> usize {
        self.find(h, eq).unwrap_or_else(|h| {
            let s = self.insert(h, key, vec![Value::Null; self.width]);
            for &(p, i) in self.key_at {
                self.out[s][p] = self.keys[s * self.klen + i].clone();
            }
            s
        })
    }

    /// Write stored cell `pos` of slot `s`.
    fn set(&mut self, s: usize, pos: usize, v: Value) {
        self.out[s][pos] = v;
    }

    /// Fold in the slots a later morsel filled: an entity seen for the
    /// first time takes its partial row and key as they are, a known one
    /// its non-NULL cells — a partial's NULL cell means "no write in that
    /// morsel", so the last written value wins, as in a serial pass.
    pub(super) fn merge(&mut self, mut part: PivotSlots<'k>) {
        let klen = self.klen;
        for (t, (h, row)) in part.hashes.into_iter().zip(part.out).enumerate() {
            let key = &mut part.keys[t * klen..(t + 1) * klen];
            match self.find(|| h, |k| k == key) {
                Ok(s) => {
                    for (cell, v) in self.out[s].iter_mut().zip(row) {
                        if !v.is_null() {
                            *cell = v;
                        }
                    }
                }
                Err(h) => {
                    let key = key.iter_mut().map(|v| std::mem::replace(v, Value::Null));
                    self.insert(h, key, row);
                }
            }
        }
    }

    pub(super) fn into_rows(self) -> Vec<Row> {
        self.out
    }
}

/// A pivot over its gathered input windows, resolved before any row is
/// read. Its rows store only the cells of `stored` — positions of the
/// pivot's declared output, keys then attributes, in the order its
/// consumer reads them (`Op::Pivot`); every declared attribute is still
/// resolved and its value cast, so a cast error is raised at its row
/// whether or not the cell is stored, and an unstored cell is neither
/// cloned nor kept. A shared window is read from its sealed segment's
/// columns (DESIGN.md §13, *Pivot*): per segment, each attribute
/// dictionary code resolves to its attribute once, and each value code's
/// cast to a declared type is made once and kept with the value column
/// ([`SegmentColumn::cast`]), so an EAV row costs array reads and the
/// clone of a ready cell. Owned batches and the cells no dictionary
/// answers go through the row kernel's own [`pivot_cell`]. Stored rows,
/// order and first error are `pivot_rows`'s.
pub(super) struct PivotKernel<'a> {
    windows: &'a [Batch],
    key_idx: &'a [usize],
    attr_idx: usize,
    val_idx: usize,
    attrs: &'a [(String, DataType)],
    attr_pos: HashMap<&'a str, usize>,
    /// Stored row width, and the (row position, key column) of each
    /// stored key cell.
    width: usize,
    key_at: Vec<(usize, usize)>,
    /// Per attribute: its stored row position; `None` when it is only
    /// checked.
    attr_at: Vec<Option<usize>>,
    /// Per window: its segment's tables in `segs`; `None` for an owned
    /// batch.
    seg_of: Vec<Option<usize>>,
    segs: Vec<SegPivot<'a>>,
}

/// What a pivot reads of one sealed segment: its key, attribute and value
/// columns, and the attribute dictionary resolved to attributes.
struct SegPivot<'a> {
    keys: Vec<&'a SegmentColumn>,
    attr: &'a SegmentColumn,
    val: &'a SegmentColumn,
    /// Attribute code → position in `attrs`, `None` when not requested;
    /// empty unless the attribute column is dictionary-coded.
    attr_code: Vec<Option<usize>>,
}

impl<'a> PivotKernel<'a> {
    /// `arity` is the pivot's input width: a shared window reaches the
    /// pivot through lane filters and renames only, which move no column,
    /// so its positions are its segment's. `stored` lists the output
    /// positions each row keeps, in row order.
    pub(super) fn new(
        windows: &'a [Batch],
        key_idx: &'a [usize],
        attr_idx: usize,
        val_idx: usize,
        attrs: &'a [(String, DataType)],
        arity: usize,
        stored: &[usize],
    ) -> PivotKernel<'a> {
        let attr_pos: HashMap<&str, usize> = attrs
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.as_str(), i))
            .collect();
        let klen = key_idx.len();
        let mut key_at = Vec::new();
        let mut attr_at = vec![None; attrs.len()];
        for (p, &c) in stored.iter().enumerate() {
            match c.checked_sub(klen) {
                Some(a) => attr_at[a] = Some(p),
                None => key_at.push((p, c)),
            }
        }
        let mut segs = Vec::new();
        let mut seen: HashMap<*const Segment, usize> = HashMap::new();
        let seg_of = windows
            .iter()
            .map(|w| {
                let Batch::Shared(Window { seg, .. }) = w else {
                    return None;
                };
                debug_assert_eq!(
                    seg.arity(),
                    arity,
                    "a shared window reaches the pivot as stored"
                );
                let d = *seen.entry(Arc::as_ptr(seg)).or_insert_with(|| {
                    segs.push(SegPivot::new(seg, key_idx, attr_idx, val_idx, &attr_pos));
                    segs.len() - 1
                });
                Some(d)
            })
            .collect();
        PivotKernel {
            windows,
            key_idx,
            attr_idx,
            val_idx,
            attrs,
            attr_pos,
            width: stored.len(),
            key_at,
            attr_at,
            seg_of,
            segs,
        }
    }

    /// Empty slots for this pivot's output rows.
    pub(super) fn slots(&self) -> PivotSlots<'_> {
        PivotSlots {
            klen: self.key_idx.len(),
            width: self.width,
            key_at: &self.key_at,
            keys: Vec::new(),
            out: Vec::new(),
            hashes: Vec::new(),
            chain: Vec::new(),
            heads: HashBuckets::default(),
            last: None,
        }
    }

    /// Pivot the rows at physical positions `lo..hi` of window `w` into
    /// `slots` in row order, stopping at the first error.
    pub(super) fn pivot_into(
        &self,
        w: usize,
        lo: usize,
        hi: usize,
        slots: &mut PivotSlots,
    ) -> RelResult<()> {
        let window = &self.windows[w];
        if let (Some(d), Batch::Shared(win)) = (self.seg_of[w], window) {
            let live = (lo..hi).filter(|&j| !is_dead(win.dead(), j));
            return self.segs[d].pivot_into(self, live, slots);
        }
        let key_idx = self.key_idx;
        for (_, row) in window.live(lo, hi) {
            let s = slots.entity(
                || {
                    key_idx
                        .iter()
                        .fold(HASH_SEED, |h, &c| value_hash(h, &row[c]))
                },
                |k| key_idx.iter().zip(k).all(|(&c, v)| row[c] == *v),
                key_idx.iter().map(|&c| row[c].clone()),
            );
            let cell = pivot_cell(row, self.attr_idx, self.val_idx, &self.attr_pos, self.attrs)?;
            if let Some((pos, v)) = self.stored(cell) {
                slots.set(s, pos, v);
            }
        }
        Ok(())
    }

    /// The whole input in one serial pass.
    pub(super) fn pivot_all(&self) -> RelResult<Vec<Row>> {
        let mut slots = self.slots();
        for (w, window) in self.windows.iter().enumerate() {
            self.pivot_into(w, 0, window.extent(), &mut slots)?;
        }
        Ok(slots.into_rows())
    }

    /// A checked cell at its stored row position, or `None` when the
    /// row writes no stored cell.
    fn stored(&self, cell: PivotCell) -> Option<(usize, Value)> {
        cell.and_then(|(a, v)| Some((self.attr_at[a]?, v)))
    }
}

impl<'a> SegPivot<'a> {
    /// Image the three columns (each at most once per segment, shared
    /// with every later reader) and resolve the attribute codes.
    fn new(
        seg: &'a Segment,
        key_idx: &[usize],
        attr_idx: usize,
        val_idx: usize,
        attr_pos: &HashMap<&str, usize>,
    ) -> SegPivot<'a> {
        let attr = seg.column(attr_idx);
        let attr_code = match &attr.data {
            ColumnData::Dict { dict, .. } => {
                dict.iter().map(|a| attr_pos.get(&**a).copied()).collect()
            }
            _ => Vec::new(),
        };
        SegPivot {
            keys: key_idx.iter().map(|&c| seg.column(c)).collect(),
            attr,
            val: seg.column(val_idx),
            attr_code,
        }
    }

    /// Pivot segment rows `rows` into `slots` in row order, stopping at
    /// the first error.
    fn pivot_into(
        &self,
        k: &PivotKernel<'_>,
        rows: impl Iterator<Item = usize>,
        slots: &mut PivotSlots,
    ) -> RelResult<()> {
        let keys = &self.keys;
        for j in rows {
            let s = slots.entity(
                || keys.iter().fold(HASH_SEED, |h, col| column_hash(h, col, j)),
                |key| keys.iter().zip(key).all(|(col, v)| column_eq(col, j, v)),
                keys.iter().map(|col| col.value(j)),
            );
            if let Some((pos, v)) = self.cell(k, j)? {
                slots.set(s, pos, v);
            }
        }
        Ok(())
    }

    /// [`pivot_cell`] of segment row `j` at its stored row position, read
    /// off the codes where the columns are dictionary-coded. The cast of
    /// an attribute nobody reads is checked and dropped.
    fn cell(&self, k: &PivotKernel<'_>, j: usize) -> RelResult<Option<(usize, Value)>> {
        let (attr, val) = (self.attr, self.val);
        let pos = match &attr.data {
            ColumnData::Dict { codes, .. } if !attr.nulls[j] => self.attr_code[codes[j] as usize],
            // A NULL, plain-string or non-text attribute: the row kernel's
            // own cell, its errors included.
            _ => {
                let row = [attr.value(j), val.value(j)];
                return Ok(k.stored(pivot_cell(&row, 0, 1, &k.attr_pos, k.attrs)?));
            }
        };
        let Some(pos) = pos else {
            return Ok(None);
        };
        if val.nulls[j] {
            return Ok(None);
        }
        let (ty, at) = (k.attrs[pos].1, k.attr_at[pos]);
        if let Some(cast) = val.cast(j, ty) {
            let v = cast.as_ref().map_err(Clone::clone)?;
            return Ok(at.map(|p| (p, v.clone())));
        }
        let v = match &val.data {
            ColumnData::Str(texts) => cast_cell(&texts[j], ty)?,
            _ => match val.value(j) {
                Value::Text(t) => cast_cell(&t, ty)?,
                other => cast_text(&other.to_string(), ty)?,
            },
        };
        Ok(at.map(|p| (p, v)))
    }
}

// ---------------------------------------------------------------------------
// Sort: lane keys + parallel merge path
// ---------------------------------------------------------------------------

/// Sort a gathered input: stable-sort an index permutation against
/// [`SortKeys`] read off the input by reference, then take the rows out in
/// that order — owned rows move, rows of shared windows are cloned once,
/// into their output slot. The parallel path stable-sorts per-morsel index
/// runs and merges adjacent runs pairwise with left-wins-ties — equivalent
/// to one full stable sort, so the output is independent of morsel size
/// and thread count and byte-identical to the serial kernel (and to the
/// interpreter's `sort_rows`).
pub(super) fn sort_gathered(
    g: Gathered,
    schema: &Schema,
    idxs: &[usize],
    cfg: Executor,
) -> Vec<Row> {
    let perm = {
        let rows = g.rows();
        let n = rows.len();
        let keys = SortKeys::build(&rows, schema, idxs);
        if cfg.parallel_for(n) {
            par_sort_indices(n, cfg, |a, b| keys.cmp(a, b))
        } else {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            // Stable sort over ascending initial indices == stable row sort.
            perm.sort_by(|&a, &b| keys.cmp(a as usize, b as usize));
            perm
        }
    };
    g.into_rows_ordered(&perm, cfg)
}

/// Parallel merge-path index sort: stable-sort each morsel's index run,
/// then repeatedly merge adjacent run pairs (an odd trailing run carries
/// over) until one run remains. Runs always cover ascending disjoint
/// position ranges, so left-wins-ties at every merge reproduces global
/// stable-sort order.
fn par_sort_indices(
    n: usize,
    cfg: Executor,
    cmp: impl Fn(usize, usize) -> Ordering + Sync,
) -> Vec<u32> {
    let mut runs: Vec<Vec<u32>> = run_tasks(n_morsels(n, cfg.morsel_size), cfg.threads, |m| {
        let (lo, hi) = morsel_bounds(m, n, cfg.morsel_size);
        let mut run: Vec<u32> = (lo as u32..hi as u32).collect();
        run.sort_by(|&a, &b| cmp(a as usize, b as usize));
        run
    });
    if runs.is_empty() {
        return Vec::new();
    }
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let mut merged = run_tasks(pairs, cfg.threads, |p| {
            merge_runs(&runs[2 * p], &runs[2 * p + 1], &cmp)
        });
        if runs.len() % 2 == 1 {
            merged.push(runs.pop().expect("odd run checked non-empty"));
        }
        runs = merged;
    }
    runs.pop().expect("one run remains")
}

/// Two-pointer merge of sorted index runs; the left run wins ties (its
/// positions precede the right run's, which is what stability demands).
fn merge_runs<F: Fn(usize, usize) -> Ordering>(a: &[u32], b: &[u32], cmp: &F) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i] as usize, b[j] as usize) != Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::super::batch::{tests::whole_window, Batch};
    use super::*;
    use crate::algebra::{aggregate_rows, sort_rows, AggFunc, Plan};
    use crate::database::Database;
    use crate::schema::Column;

    fn kv_schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Float),
            ],
        )
        .unwrap()
    }

    fn kv_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 3)
                    },
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 2.0)
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn hash_index_probe_matches_row_probe() {
        let schema = kv_schema();
        let rows = kv_rows(50);
        let hash_index = build_hash_index(&rows, &schema, &[0]);
        // The row probe is the interpreter's value-keyed join loop.
        let values = |names: [&str; 2]| Plan::Values {
            schema: Schema::new(
                "t",
                vec![
                    Column::new(names[0], DataType::Int),
                    Column::new(names[1], DataType::Float),
                ],
            )
            .unwrap(),
            rows: rows.clone(),
        };
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let want = values(["k", "v"])
                .join(values(["rk", "rv"]), vec![("k", "rk")], kind)
                .interpret(&Database::new("d"))
                .unwrap()
                .into_rows();
            let got = probe_hash(&rows, &schema, &hash_index, &rows, &[0], &[0], kind, 2);
            assert_eq!(got, want, "{kind:?}");
            // The build side read by reference joins identically.
            let refs: Vec<&Row> = rows.iter().collect();
            let by_ref = build_hash_index(&refs, &schema, &[0]);
            let got = probe_hash(&rows, &schema, &by_ref, &refs, &[0], &[0], kind, 2);
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn lane_aggregate_matches_row_aggregate() {
        let schema = kv_schema();
        let rows = kv_rows(60);
        let aggregates = vec![
            Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            },
            Aggregate {
                func: AggFunc::Sum("v".into()),
                alias: "sv".into(),
            },
            Aggregate {
                func: AggFunc::Min("v".into()),
                alias: "mv".into(),
            },
        ];
        let agg_idx = vec![None, Some(1), Some(1)];
        for g_idx in [vec![0], vec![]] {
            let want = aggregate_rows(&rows, &g_idx, &agg_idx, &aggregates);
            let got = lane_aggregate(&rows, &schema, &g_idx, &agg_idx, &aggregates);
            assert_eq!(got, want, "group by {g_idx:?}");
            let par = par_lane_aggregate(
                &rows,
                &schema,
                &g_idx,
                &agg_idx,
                &aggregates,
                Executor {
                    threads: 3,
                    parallel_threshold: 1,
                    morsel_size: 7,
                },
            );
            assert_eq!(par, want, "parallel, group by {g_idx:?}");
        }
    }

    #[test]
    fn merge_path_sort_is_stable_at_any_morsel_size() {
        let schema = kv_schema();
        let rows = kv_rows(120);
        let mut want = rows.clone();
        sort_rows(&mut want, &[0]);
        for morsel in [1, 7, 64, 1024] {
            let cfg = Executor {
                threads: 4,
                parallel_threshold: 1,
                morsel_size: morsel,
            };
            let owned = Gathered::from_batches(vec![Batch::Owned(rows.clone())]);
            assert_eq!(
                sort_gathered(owned, &schema, &[0], cfg),
                want,
                "morsel {morsel}"
            );
            // The same input as two shared windows and an owned batch
            // between them: read by reference, identical output.
            let split = Gathered::from_batches(vec![
                whole_window(&schema, rows.clone()).take_prefix(40),
                Batch::Owned(rows[40..90].to_vec()),
                Batch::Owned(Vec::new()),
                Batch::Owned(rows[90..].to_vec()),
            ]);
            let got = sort_gathered(split, &schema, &[0], cfg);
            assert_eq!(got, want, "morsel {morsel}");
        }
    }
}
