//! The executor's batch currency: row chunks, typed column lanes, and the
//! lane-level key kernels shared by every physical operator.
//!
//! [`Batch`] is the single unit of data flowing between the physical
//! operators ([`Op`](super::ops::Op)): either a zero-copy
//! window over a table's sealed storage — a whole chunk plus the dead bits
//! of the rows not in the batch — or an owned vector produced by an
//! upstream operator. Every consumer reads its live rows through one
//! accessor ([`Batch::live`]); blocking operators collect their batches
//! into a [`Gathered`] input and read it by reference — a list of `&Row`
//! across the windows — so no shared window is ever deep-copied; every
//! kernel here is generic over [`RowRef`] (`&[Row]` or `&[&Row]`) for
//! that reason.
//!
//! [`Lane`] is the columnar decomposition used by the lane-aware blocking
//! kernels (`exec::blocking`): each key or value column they read is
//! shredded once into a typed array plus a null mask, with [`Lane::Rows`]
//! as the fallback for columns whose stored values are not uniformly of
//! the declared type (e.g. INT values widened into a FLOAT column, which
//! must round-trip losslessly). (The fused pipeline shreds nothing: its
//! lane masks read segment storage in place — `exec::vector`.)
//!
//! # Key hashing
//!
//! [`key_hashes`] computes one 64-bit hash per row over a set of key
//! columns, columnar where lanes permit. The per-value contribution mixes
//! the same `(tag, payload)` pairs as `Value`'s `Hash` impl — in
//! particular `Int(i)` hashes through `(i as f64).to_bits()` with the
//! same tag as `Float`, so values equal under `Value::total_cmp`
//! (`Int(2) == Float(2.0)`) always hash equally, whether the hash was
//! computed from a typed lane or from the row fallback. Hash-equal
//! candidates are verified with [`keys_eq`] (plain `Value` equality, i.e.
//! `total_cmp`), so collisions cost a comparison, never correctness.

use super::morsel::{morsel_bounds, n_morsels, run_tasks};
use super::Executor;
use crate::schema::Schema;
use crate::segment::{is_dead, no_dead, select_live, ColumnData, SegmentColumn, Window};
use crate::table::Row;
use crate::value::{DataType, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

/// One unit of data flowing between physical operators: a chunk of rows,
/// all matching the producing operator's output schema. `Shared` batches
/// are zero-copy windows over a table's sealed storage — a whole chunk and
/// the dead bits of the rows not in the batch; `Owned` batches carry rows
/// built by an upstream operator. Either way its rows are read through
/// [`Batch::live`] or [`Batch::rows`], which skip the dead ones.
pub(super) enum Batch {
    /// Every row of a chunk's sealed segment, minus its dead rows: row `k`
    /// of the batch is segment row `k`, so the fused pipeline evaluates
    /// its lane masks straight over columnar storage, and a filter that
    /// changes no row hands on the same segment with more dead bits.
    Shared(Window),
    Owned(Vec<Row>),
}

impl Batch {
    /// `rows` as an owned batch — none when there are none: operators
    /// never emit empty batches.
    pub(super) fn from_rows(rows: Vec<Row>) -> Option<Batch> {
        (!rows.is_empty()).then_some(Batch::Owned(rows))
    }

    /// The rows in the batch.
    pub(super) fn len(&self) -> usize {
        match self {
            Batch::Shared(w) => w.live(),
            Batch::Owned(rows) => rows.len(),
        }
    }

    /// The physical rows the batch spans, dead ones included: what
    /// morsels cut.
    pub(super) fn extent(&self) -> usize {
        match self {
            Batch::Shared(w) => w.seg.len(),
            Batch::Owned(rows) => rows.len(),
        }
    }

    /// The rows at physical positions `lo..hi` that are in the batch,
    /// with their positions, in order.
    pub(super) fn live(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, &Row)> + '_ {
        let (rows, dead) = match self {
            Batch::Shared(w) => (w.seg.rows(), w.dead()),
            Batch::Owned(rows) => (rows.as_slice(), None),
        };
        (lo..hi)
            .filter(move |&k| !is_dead(dead, k))
            .map(move |k| (k, &rows[k]))
    }

    /// Every row in the batch, in order.
    pub(super) fn rows(&self) -> impl Iterator<Item = &Row> + '_ {
        self.live(0, self.extent()).map(|(_, row)| row)
    }

    /// The first `n` rows (for `Limit`): a shared window marks the rest
    /// dead.
    pub(super) fn take_prefix(self, n: usize) -> Batch {
        match self {
            Batch::Shared(w) if n < w.live() => {
                let cut = select_live(w.dead(), n);
                let mut bits = w.dead().map_or_else(|| no_dead(w.seg.len()), Box::from);
                bits[cut / 64] |= !0u64 << (cut % 64);
                bits[cut / 64 + 1..].fill(!0);
                Batch::Shared(Window {
                    seg: w.seg,
                    dead: Some(Arc::new(bits)),
                })
            }
            Batch::Owned(mut rows) => {
                rows.truncate(n);
                Batch::Owned(rows)
            }
            whole => whole,
        }
    }
}

/// Anything a kernel can read a row through: `Row` itself (a contiguous
/// slice of rows) or `&Row` (a [`Gathered`] list of references into
/// several windows).
pub(super) trait RowRef: AsRef<[Value]> + Sync {}

impl<T: AsRef<[Value]> + Sync> RowRef for T {}

/// A blocking operator's fully-gathered input: the batches as they
/// arrived. Kernels read it through [`Gathered::rows`] — one `&Row` per
/// input row, whichever window or owned batch holds it — so gathering
/// costs a pointer per row and never a row copy; the one kernel that must
/// hand rows on (sort) takes them out in output order with
/// [`Gathered::into_rows_ordered`].
pub(super) struct Gathered {
    batches: Vec<Batch>,
}

impl Gathered {
    pub(super) fn from_batches(batches: Vec<Batch>) -> Gathered {
        Gathered { batches }
    }

    /// Every input row, in input order, by reference.
    pub(super) fn rows(&self) -> Vec<&Row> {
        let mut refs = Vec::with_capacity(self.batches.iter().map(Batch::len).sum());
        refs.extend(self.batches.iter().flat_map(Batch::rows));
        refs
    }

    /// The input rows rearranged by `perm` (a permutation of input
    /// positions): owned rows move, rows of shared windows are cloned —
    /// once, straight into their output slot, per morsel of the output
    /// in parallel when `cfg` would run that many rows in parallel.
    pub(super) fn into_rows_ordered(mut self, perm: &[u32], cfg: Executor) -> Vec<Row> {
        enum Src<'a> {
            Owned(Option<Row>),
            Shared(&'a Row),
        }
        let mut src: Vec<Src<'_>> = Vec::with_capacity(perm.len());
        for b in self.batches.iter_mut() {
            if let Batch::Owned(rows) = b {
                src.extend(
                    std::mem::take(rows)
                        .into_iter()
                        .map(|r| Src::Owned(Some(r))),
                );
            } else {
                let b: &Batch = b;
                src.extend(b.rows().map(Src::Shared));
            }
        }
        // Clone the shared rows into place; an owned row's slot stays
        // empty until the serial pass below moves the row in.
        let threads = if cfg.parallel_for(perm.len()) {
            cfg.threads
        } else {
            1
        };
        let (n, size) = (perm.len(), cfg.morsel_size);
        let parts = run_tasks(n_morsels(n, size), threads, |m| {
            let (lo, hi) = morsel_bounds(m, n, size);
            let slot = |&i: &u32| match &src[i as usize] {
                Src::Shared(row) => Row::clone(row),
                Src::Owned(_) => Row::new(),
            };
            perm[lo..hi].iter().map(slot).collect::<Vec<Row>>()
        });
        let mut out: Vec<Row> = parts.into_iter().flatten().collect();
        for (slot, &i) in out.iter_mut().zip(perm) {
            if let Src::Owned(row) = &mut src[i as usize] {
                *slot = row.take().expect("permutation visits each row once");
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Column lanes
// ---------------------------------------------------------------------------

/// One column of a blocking operator's input in typed form, shredded out
/// of the row-major `Value`s by [`build_lane`]. The typed variants carry a
/// parallel null mask; [`Lane::Rows`] is the fallback lane for columns
/// whose values are not uniformly of the lane type (e.g. INT values stored
/// in a FLOAT column), read back row-major.
pub(super) enum Lane<'a> {
    Int {
        vals: Vec<i64>,
        nulls: Vec<bool>,
    },
    Float {
        vals: Vec<f64>,
        nulls: Vec<bool>,
    },
    Bool {
        vals: Vec<bool>,
        nulls: Vec<bool>,
    },
    Str {
        vals: Vec<&'a str>,
        nulls: Vec<bool>,
    },
    Date {
        vals: Vec<i64>,
        nulls: Vec<bool>,
    },
    /// Mixed/non-conforming storage: fetch `Value`s from the rows.
    Rows,
}

macro_rules! build_lane {
    ($rows:expr, $col:expr, $variant:ident, $pat:pat => $val:expr, $default:expr) => {{
        let mut vals = Vec::with_capacity($rows.len());
        let mut nulls = Vec::with_capacity($rows.len());
        for row in $rows {
            match &row.as_ref()[$col] {
                Value::Null => {
                    vals.push($default);
                    nulls.push(true);
                }
                $pat => {
                    vals.push($val);
                    nulls.push(false);
                }
                _ => return Lane::Rows,
            }
        }
        Lane::$variant { vals, nulls }
    }};
}

/// Shred one column into a typed lane, guided by the declared type; any
/// value outside the declared type demotes the column to the row fallback
/// lane (this is how FLOAT columns holding widened INTs stay lossless).
pub(super) fn build_lane<R: RowRef>(rows: &[R], col: usize, decl: DataType) -> Lane<'_> {
    match decl {
        DataType::Int => build_lane!(rows, col, Int, Value::Int(i) => *i, 0),
        DataType::Float => build_lane!(rows, col, Float, Value::Float(f) => *f, 0.0),
        DataType::Bool => build_lane!(rows, col, Bool, Value::Bool(b) => *b, false),
        DataType::Text => build_lane!(rows, col, Str, Value::Text(s) => &**s, ""),
        DataType::Date => build_lane!(rows, col, Date, Value::Date(d) => *d, 0),
    }
}

// ---------------------------------------------------------------------------
// Lane key hashing
// ---------------------------------------------------------------------------

/// Seed for the columnar key hash (an arbitrary odd constant). Also the
/// hash of an *empty* key, which is how global (group-less) aggregation
/// pre-seeds its single group.
pub(super) const HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hasher for bucket maps keyed by lane hashes: [`mix`]'s splitmix64
/// finalizer already diffused the key bits, so the map passes the `u64`
/// through instead of re-hashing it with SipHash. Only sound for keys
/// that went through `mix` — never use this for raw values.
#[derive(Default)]
pub(super) struct PremixedHasher(u64);

impl std::hash::Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("bucket maps are keyed by pre-mixed u64 hashes");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `u64 lane hash → V` with pass-through hashing.
pub(super) type HashBuckets<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<PremixedHasher>>;

/// Mix one `(tag, payload)` pair into a running hash (splitmix64-style
/// finalizer). The tags mirror `Value`'s `Hash` impl: 0 NULL, 1 BOOL,
/// 2 numeric (Int *and* Float, payload `f64::to_bits`), 3 TEXT, 4 DATE.
#[inline]
fn mix(h: u64, tag: u8, payload: u64) -> u64 {
    let mut x = h ^ payload
        .wrapping_add(u64::from(tag))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the string bytes, as the TEXT payload.
#[inline]
fn str_payload(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Mix one `Value` into a running key hash. The canonical `(tag, payload)`
/// pairs guarantee `a == b` (under `total_cmp`) implies equal hashes:
/// `Int` goes through its `f64` widening exactly like `Value`'s `Hash`.
pub(super) fn value_hash(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => mix(h, 0, 0),
        Value::Bool(b) => mix(h, 1, u64::from(*b)),
        Value::Int(i) => mix(h, 2, (*i as f64).to_bits()),
        Value::Float(f) => mix(h, 2, f.to_bits()),
        Value::Text(s) => mix(h, 3, str_payload(s)),
        Value::Date(d) => mix(h, 4, *d as u64),
    }
}

/// Mix segment row `i` of `col` into a running key hash: what
/// [`value_hash`] makes of the value the row stores, read off the typed
/// storage instead of the row.
pub(super) fn column_hash(h: u64, col: &SegmentColumn, i: usize) -> u64 {
    if col.nulls[i] {
        return mix(h, 0, 0);
    }
    match &col.data {
        ColumnData::Int(v) => mix(h, 2, (v[i] as f64).to_bits()),
        ColumnData::Float(v) => mix(h, 2, v[i].to_bits()),
        ColumnData::Bool(v) => mix(h, 1, u64::from(v[i])),
        ColumnData::Date(v) => mix(h, 4, v[i] as u64),
        ColumnData::Str(v) => mix(h, 3, str_payload(&v[i])),
        ColumnData::Dict { codes, dict } => mix(h, 3, str_payload(&dict[codes[i] as usize])),
        ColumnData::Mixed(v) => value_hash(h, &v[i]),
    }
}

/// Whether segment row `i` of `col` equals `v` under `Value` equality
/// (`total_cmp`, as [`keys_eq`] compares), read off the typed storage
/// where the variants line up and through [`SegmentColumn::value`]
/// otherwise.
pub(super) fn column_eq(col: &SegmentColumn, i: usize, v: &Value) -> bool {
    match (&col.data, v) {
        _ if col.nulls[i] => v.is_null(),
        (ColumnData::Int(a), Value::Int(b)) | (ColumnData::Date(a), Value::Date(b)) => a[i] == *b,
        (ColumnData::Dict { codes, dict }, Value::Text(b)) => *dict[codes[i] as usize] == **b,
        (ColumnData::Str(a), Value::Text(b)) => *a[i] == **b,
        _ => col.value(i) == *v,
    }
}

/// Per-row key hashes over `idx` columns, computed columnar where lanes
/// permit. Returns `(hashes, has_null)`: NULLs *do* contribute to the hash
/// (grouping treats NULL as an ordinary key value), and `has_null[i]`
/// flags rows whose key contains a NULL so joins can skip them (SQL: NULL
/// never matches).
pub(super) fn key_hashes<R: RowRef>(
    rows: &[R],
    schema: &Schema,
    idx: &[usize],
) -> (Vec<u64>, Vec<bool>) {
    let n = rows.len();
    let mut hashes = vec![HASH_SEED; n];
    let mut has_null = vec![false; n];
    for &c in idx {
        match build_lane(rows, c, schema.columns()[c].data_type) {
            Lane::Int { vals, nulls } => {
                for i in 0..n {
                    hashes[i] = if nulls[i] {
                        has_null[i] = true;
                        mix(hashes[i], 0, 0)
                    } else {
                        mix(hashes[i], 2, (vals[i] as f64).to_bits())
                    };
                }
            }
            Lane::Float { vals, nulls } => {
                for i in 0..n {
                    hashes[i] = if nulls[i] {
                        has_null[i] = true;
                        mix(hashes[i], 0, 0)
                    } else {
                        mix(hashes[i], 2, vals[i].to_bits())
                    };
                }
            }
            Lane::Bool { vals, nulls } => {
                for i in 0..n {
                    hashes[i] = if nulls[i] {
                        has_null[i] = true;
                        mix(hashes[i], 0, 0)
                    } else {
                        mix(hashes[i], 1, u64::from(vals[i]))
                    };
                }
            }
            Lane::Str { vals, nulls } => {
                for i in 0..n {
                    hashes[i] = if nulls[i] {
                        has_null[i] = true;
                        mix(hashes[i], 0, 0)
                    } else {
                        mix(hashes[i], 3, str_payload(vals[i]))
                    };
                }
            }
            Lane::Date { vals, nulls } => {
                for i in 0..n {
                    hashes[i] = if nulls[i] {
                        has_null[i] = true;
                        mix(hashes[i], 0, 0)
                    } else {
                        mix(hashes[i], 4, vals[i] as u64)
                    };
                }
            }
            Lane::Rows => {
                for (i, row) in rows.iter().enumerate() {
                    let v = &row.as_ref()[c];
                    has_null[i] |= v.is_null();
                    hashes[i] = value_hash(hashes[i], v);
                }
            }
        }
    }
    (hashes, has_null)
}

/// Verify a hash-equal key candidate: positional `Value` equality (i.e.
/// `total_cmp`, so `Int(2)` matches `Float(2.0)` and NULL matches NULL —
/// join callers have already excluded NULL keys via `has_null`).
#[inline]
pub(super) fn keys_eq(a: &[Value], a_idx: &[usize], b: &[Value], b_idx: &[usize]) -> bool {
    a_idx.iter().zip(b_idx).all(|(&ai, &bi)| a[ai] == b[bi])
}

// ---------------------------------------------------------------------------
// Lane sort keys
// ---------------------------------------------------------------------------

/// Pre-shredded sort-key columns: compares two row positions with the same
/// lexicographic `Value::total_cmp` order as `algebra::sort_rows`, but
/// against typed lanes (NULLs first; Int lanes compare exactly; Float
/// lanes by `f64::total_cmp`). Non-conforming columns fall back to the
/// row-major compare.
pub(super) struct SortKeys<'a, R> {
    rows: &'a [R],
    keys: Vec<(usize, Lane<'a>)>,
}

impl<'a, R: RowRef> SortKeys<'a, R> {
    pub(super) fn build(rows: &'a [R], schema: &Schema, idxs: &[usize]) -> SortKeys<'a, R> {
        let keys = idxs
            .iter()
            .map(|&c| (c, build_lane(rows, c, schema.columns()[c].data_type)))
            .collect();
        SortKeys { rows, keys }
    }

    /// Compare rows `a` and `b` by every sort column in order.
    pub(super) fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        for (c, lane) in &self.keys {
            let o = match lane {
                Lane::Int { vals, nulls } => {
                    cmp_masked(nulls[a], nulls[b], || vals[a].cmp(&vals[b]))
                }
                Lane::Float { vals, nulls } => {
                    cmp_masked(nulls[a], nulls[b], || vals[a].total_cmp(&vals[b]))
                }
                Lane::Bool { vals, nulls } => {
                    cmp_masked(nulls[a], nulls[b], || vals[a].cmp(&vals[b]))
                }
                Lane::Str { vals, nulls } => {
                    cmp_masked(nulls[a], nulls[b], || vals[a].cmp(vals[b]))
                }
                Lane::Date { vals, nulls } => {
                    cmp_masked(nulls[a], nulls[b], || vals[a].cmp(&vals[b]))
                }
                Lane::Rows => self.rows[a].as_ref()[*c].total_cmp(&self.rows[b].as_ref()[*c]),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }
}

/// NULLs-first comparison over a null-masked lane pair, matching
/// `Value::total_cmp`'s rank rule (NULL ranks below every value, and
/// `NULL == NULL`).
#[inline]
fn cmp_masked(
    a_null: bool,
    b_null: bool,
    cmp: impl FnOnce() -> std::cmp::Ordering,
) -> std::cmp::Ordering {
    match (a_null, b_null) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => cmp(),
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::segment::Segment;

    /// `rows` as a scan hands them over: one shared window over the whole
    /// vector, imaged by a segment sealed from it.
    pub(in crate::exec) fn whole_window(schema: &Schema, rows: Vec<Row>) -> Batch {
        let hi = rows.len();
        let seg = Arc::new(Segment::shell(schema, Arc::new(rows), 0, hi));
        Batch::Shared(Window { seg, dead: None })
    }

    /// The rows of `batches`, in order, cloned.
    pub(in crate::exec) fn rows_of(batches: &[Batch]) -> Vec<Row> {
        batches.iter().flat_map(Batch::rows).cloned().collect()
    }

    fn mixed_schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
                Column::new("b", DataType::Bool),
                Column::new("d", DataType::Date),
            ],
        )
        .unwrap()
    }

    fn mixed_rows() -> Vec<Row> {
        vec![
            vec![
                Value::Int(2),
                Value::Float(2.0),
                Value::text("x"),
                Value::Bool(true),
                Value::Date(10),
            ],
            vec![
                Value::Null,
                Value::Float(-0.0),
                Value::Null,
                Value::Bool(false),
                Value::Null,
            ],
            vec![
                Value::Int(-7),
                Value::Float(f64::NAN),
                Value::text(""),
                Value::Null,
                Value::Date(-3),
            ],
        ]
    }

    #[test]
    fn lane_hashes_match_row_fallback_hashes() {
        let schema = mixed_schema();
        let rows = mixed_rows();
        let idx: Vec<usize> = (0..schema.arity()).collect();
        let (lane_hashes, lane_nulls) = key_hashes(&rows, &schema, &idx);
        for (i, row) in rows.iter().enumerate() {
            let mut h = HASH_SEED;
            let mut any_null = false;
            for &c in &idx {
                h = value_hash(h, &row[c]);
                any_null |= row[c].is_null();
            }
            assert_eq!(lane_hashes[i], h, "row {i}");
            assert_eq!(lane_nulls[i], any_null, "row {i}");
        }
    }

    #[test]
    fn column_hashes_and_equality_match_the_values_they_image() {
        let schema = mixed_schema();
        let mut rows = mixed_rows();
        // A FLOAT column holding a widened INT images as `mixed`.
        rows[1][1] = Value::Int(2);
        let seg = Segment::shell(&schema, Arc::new(rows.clone()), 0, rows.len());
        assert_eq!(seg.column(1).encoding(), "mixed");
        for c in 0..schema.arity() {
            let col = seg.column(c);
            for (i, row) in rows.iter().enumerate() {
                let v = &row[c];
                assert_eq!(column_hash(HASH_SEED, col, i), value_hash(HASH_SEED, v));
                for other in rows.iter().flatten() {
                    assert_eq!(column_eq(col, i, other), v == other, "{v:?} vs {other:?}");
                }
            }
        }
    }

    #[test]
    fn equal_values_hash_equal_across_types() {
        // Int(2) == Float(2.0) under total_cmp, so they must hash equal —
        // including through an INT lane vs a FLOAT lane.
        let h_int = value_hash(HASH_SEED, &Value::Int(2));
        let h_float = value_hash(HASH_SEED, &Value::Float(2.0));
        assert_eq!(h_int, h_float);
        // And a FLOAT column storing a widened INT takes the Rows fallback
        // in key_hashes, which must agree with the typed INT lane.
        let schema = Schema::new("a", vec![Column::new("k", DataType::Float)]).unwrap();
        let rows = vec![vec![Value::Int(2)]];
        let (h, _) = key_hashes(&rows, &schema, &[0]);
        assert_eq!(h[0], h_float);
    }

    #[test]
    fn sort_keys_mirror_total_cmp() {
        let schema = mixed_schema();
        let rows = mixed_rows();
        let idx: Vec<usize> = (0..schema.arity()).collect();
        let keys = SortKeys::build(&rows, &schema, &idx);
        for a in 0..rows.len() {
            for b in 0..rows.len() {
                let want = idx
                    .iter()
                    .map(|&c| rows[a][c].total_cmp(&rows[b][c]))
                    .find(|o| !o.is_eq())
                    .unwrap_or(std::cmp::Ordering::Equal);
                assert_eq!(keys.cmp(a, b), want, "rows {a} vs {b}");
            }
        }
    }

    #[test]
    fn batch_prefix_and_ownership() {
        let schema = Schema::new("t", vec![Column::new("i", DataType::Int)]).unwrap();
        let rows: Vec<Row> = (0..130).map(|i| vec![Value::Int(i)]).collect();
        let b = whole_window(&schema, rows.clone()).take_prefix(3);
        assert_eq!((b.len(), b.extent()), (3, 130));
        assert_eq!(rows_of(&[b]), rows[..3].to_vec());
        // A window with dead rows keeps its first `n` live ones, whichever
        // word the cut falls in.
        let Batch::Shared(w) = whole_window(&schema, rows.clone()) else {
            unreachable!()
        };
        let mut bits = no_dead(130);
        for k in [0, 63, 64, 100] {
            bits[k / 64] |= 1 << (k % 64);
        }
        let bits = Arc::new(bits);
        let masked = || {
            let (seg, dead) = (Arc::clone(&w.seg), Some(Arc::clone(&bits)));
            Batch::Shared(Window { seg, dead })
        };
        let live: Vec<Row> = (0..130)
            .filter(|k| ![0, 63, 64, 100].contains(k))
            .map(|k| rows[k].clone())
            .collect();
        for n in [1, 62, 63, 96, 126, 200] {
            let b = masked().take_prefix(n);
            assert_eq!(rows_of(&[b]), live[..n.min(126)].to_vec(), "prefix {n}");
        }
        // A gathered input reads shared windows in place: the references
        // point into the shared storage itself, across batch kinds, and
        // skip dead rows.
        let whole = whole_window(&schema, rows[..5].to_vec());
        let mut in_place = whole.rows();
        let first: *const Row = in_place.next().unwrap();
        let last: *const Row = in_place.last().unwrap();
        let g = Gathered::from_batches(vec![
            Batch::Owned(rows[..2].to_vec()),
            whole_window(&schema, rows[..5].to_vec()).take_prefix(1),
            masked(),
            whole,
        ]);
        let refs = g.rows();
        assert_eq!(refs.len(), 2 + 1 + 126 + 5);
        assert!(std::ptr::eq(refs[129], first));
        assert!(std::ptr::eq(refs[133], last));
        assert_eq!(
            refs[3], &rows[1],
            "the masked window starts at its first live row"
        );
        // Taking the rows out in a permuted order — serially, or per
        // morsel of 7 on two threads — moves the owned ones and clones the
        // shared ones into place.
        let perm: Vec<u32> = (0..refs.len() as u32).rev().collect();
        let mut want: Vec<Row> = refs.into_iter().cloned().collect();
        want.reverse();
        let batches = g.batches;
        let again = batches.iter().map(|b| match b {
            Batch::Owned(rows) => Batch::Owned(rows.clone()),
            Batch::Shared(w) => Batch::Shared(w.clone()),
        });
        let g2 = Gathered::from_batches(again.collect());
        let g = Gathered::from_batches(batches);
        let serial = Executor::new().threads(1);
        let parallel = Executor::new()
            .threads(2)
            .morsel_size(7)
            .parallel_threshold(1);
        assert_eq!(g.into_rows_ordered(&perm, serial), want);
        assert_eq!(g2.into_rows_ordered(&perm, parallel), want);
    }
}
