//! Columnar resting storage: immutable, typed column segments.
//!
//! A [`Segment`] is the columnar image of one frozen window of a table's
//! rows: per column, one typed vector plus a parallel validity (null)
//! mask, a [`ZoneMap`] (min/max/null statistics), and — for text columns
//! of modest cardinality — dictionary encoding. A table seals each of its
//! storage chunks at most once, over the chunk's *physical* rows, and
//! never re-seals on a delete (DESIGN.md §18); a [`SegmentList`] is the
//! sealed view of one table version: every chunk's segment, in row order.
//!
//! Sealing builds a *shell*: the window's length, declared types and a
//! handle on its rows. Each [`SegmentColumn`] is imaged from those rows
//! the first time [`Segment::column`] or [`Segment::zone`] asks for it,
//! at most once (morsel threads racing on one column wait for one build),
//! and is then shared with every scan and generation that holds the
//! segment. A scan whose consumer only walks rows builds no column; a
//! filter builds the columns its conjuncts name. A dictionary-coded
//! column a pivot reads also keeps its codes' casts to each declared type,
//! each made when a row first reaches it (`SegmentColumn::cast`).
//!
//! Segments are what make typed column lanes the *resting* format: the
//! executor ([`exec`](crate::exec)) consults zone maps to skip whole
//! segments before a batch is ever formed and evaluates the same
//! `column ⟨op⟩ literal` conjuncts as lane masks directly over segment
//! storage, reading only the columns they name (DESIGN.md §11, §14).
//!
//! ## Storage contract
//!
//! Column storage is guided by the *declared* type, mirroring the
//! blocking operators' shredding rule (`build_lane`): a column stores
//! typed vectors only when every non-null value is exactly of the
//! declared variant; otherwise it
//! falls back to [`ColumnData::Mixed`] row-major values (this is how FLOAT
//! columns holding widened INTs stay lossless). Text columns
//! dictionary-encode when the segment has at most [`DICT_MAX`] distinct
//! strings and fall back to plain string storage above that. Both hold
//! the rows' own `Arc<str>` cells, so imaging a text column copies no
//! string and [`SegmentColumn::value`] hands back the allocation the row
//! already holds.
//!
//! ## Zone-map contract
//!
//! A segment describes the rows it was sealed over: the physical rows
//! `lo..hi` of a backing the shell holds and nobody may change (a sealed
//! chunk never grows in place, and a delete sets a bit in the chunk's
//! mask, not in the rows). So a column imaged long after the seal, past
//! any number of deletes, images exactly what one built at the seal
//! would have. The rows a scan *emits* from it are a subset — rows
//! deleted since stay in the segment — so every zone-map field is a
//! bound over a **superset** of the live
//! rows: `min`/`max` are the extrema of the sealed non-null values under
//! [`Value::total_cmp`] (so NaN sorts above all numbers and `-0.0` below
//! `0.0`; `Value::Null` when there are none) and therefore bracket the
//! live ones; `null_count` counts sealed NULL rows, at least the live
//! ones; `has_nan` is set if any sealed float is NaN. Scan pruning is
//! sound for any subset (the per-arm argument sits on `SimplePred` in
//! [`crate::exec`]): a range that excludes a literal for more rows
//! excludes it for fewer, "no sealed row is NULL" and "every sealed row
//! is NULL" both survive deleting rows, and a deleted NaN or NULL can
//! only make a prune *refuse* — `has_nan` blocks ordering skips that
//! could suppress the row walk's "cannot compare" error, and a refused
//! skip merely scans rows that then produce nothing.

use crate::algebra::cast_cell;
use crate::error::RelResult;
use crate::schema::Schema;
use crate::table::Row;
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Target row count per sealed segment. Large enough that per-segment
/// bookkeeping (zone maps, dictionary headers, per-segment pipeline
/// entry) is noise, small enough that zone maps retain pruning power on
/// clustered data.
pub const SEGMENT_ROWS: usize = 32_768;

/// Maximum distinct strings a segment's text column may hold and still
/// dictionary-encode; above this the column stores plain strings.
pub const DICT_MAX: usize = 1_024;

/// Typed column storage inside a [`Segment`]. Typed variants hold one
/// entry per row with nulls masked out-of-band (the slot holds a default);
/// [`ColumnData::Mixed`] is the lossless fallback for columns whose values
/// are not uniformly of the declared type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// INT column: `i64` per row.
    Int(Vec<i64>),
    /// FLOAT column: `f64` per row.
    Float(Vec<f64>),
    /// BOOL column: `bool` per row.
    Bool(Vec<bool>),
    /// DATE column: days since the Unix epoch per row.
    Date(Vec<i64>),
    /// TEXT column above [`DICT_MAX`] distinct values: the rows' own
    /// strings (null rows hold an empty string, masked).
    Str(Vec<Arc<str>>),
    /// Dictionary-encoded TEXT column: `codes[i]` indexes into `dict`
    /// (null rows carry code 0 and are masked by the null mask). `dict`
    /// is ordered by first appearance and holds the first such row's
    /// own `Arc<str>` for each string.
    Dict {
        /// Per-row dictionary code.
        codes: Vec<u32>,
        /// Distinct strings, indexed by code.
        dict: Vec<Arc<str>>,
    },
    /// Non-conforming column (e.g. INTs widened into a FLOAT column):
    /// row-major values, read back exactly as stored.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Human-readable encoding name, for stats and tests.
    pub fn encoding(&self) -> &'static str {
        match self {
            ColumnData::Int(_) => "int",
            ColumnData::Float(_) => "float",
            ColumnData::Bool(_) => "bool",
            ColumnData::Date(_) => "date",
            ColumnData::Str(_) => "str",
            ColumnData::Dict { .. } => "dict",
            ColumnData::Mixed(_) => "mixed",
        }
    }
}

/// Per-segment, per-column min/max statistics consulted by scan pruning.
/// See the module docs for the exact contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Least non-null value under [`Value::total_cmp`]; `Null` if none.
    pub min: Value,
    /// Greatest non-null value under [`Value::total_cmp`]; `Null` if none.
    pub max: Value,
    /// Number of null rows the segment was sealed over (an upper bound
    /// on the live ones).
    pub null_count: usize,
    /// Whether any sealed float value is NaN. Ordering predicates error
    /// on NaN in the row walk, so pruning must not skip segments that
    /// could have raised that error.
    pub has_nan: bool,
}

/// One column of a [`Segment`]: typed storage, a validity mask, and the
/// zone map.
#[derive(Debug, Clone)]
pub struct SegmentColumn {
    pub(crate) data: ColumnData,
    /// `true` where the row is NULL (parallel to `data`).
    pub(crate) nulls: Vec<bool>,
    pub(crate) zone: ZoneMap,
    /// For a dictionary-coded column: `cast_cell` of code `c` to declared
    /// type `t` at `c * N_TYPES + t`, laid out the first time a pivot
    /// casts one of the column's codes and each slot filled when a row
    /// first reaches it — by whichever execution or morsel does, like the
    /// column image itself. At most [`DICT_MAX`] × `N_TYPES` slots.
    casts: OnceLock<Box<[OnceLock<RelResult<Value>>]>>,
}

/// How many declared types a dictionary code can be cast to: one slot per
/// [`DataType`] variant, indexed by its discriminant.
const N_TYPES: usize = 5;

impl SegmentColumn {
    /// The column's zone map.
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// The column's storage encoding (`"dict"`, `"mixed"`, ...).
    pub fn encoding(&self) -> &'static str {
        self.data.encoding()
    }

    fn build(decl: DataType, rows: &[Row], col: usize) -> SegmentColumn {
        let mut nulls = Vec::with_capacity(rows.len());
        let mut zone = ZoneMap {
            min: Value::Null,
            max: Value::Null,
            null_count: 0,
            has_nan: false,
        };
        for row in rows {
            let v = &row[col];
            nulls.push(v.is_null());
            if v.is_null() {
                zone.null_count += 1;
                continue;
            }
            if let Value::Float(f) = v {
                zone.has_nan |= f.is_nan();
            }
            if zone.min.is_null() || v.total_cmp(&zone.min).is_lt() {
                zone.min = v.clone();
            }
            if zone.max.is_null() || v.total_cmp(&zone.max).is_gt() {
                zone.max = v.clone();
            }
        }
        let data = Self::build_data(decl, rows, col)
            .unwrap_or_else(|| ColumnData::Mixed(rows.iter().map(|r| r[col].clone()).collect()));
        SegmentColumn {
            data,
            nulls,
            zone,
            casts: OnceLock::new(),
        }
    }

    /// Typed storage for the declared type, or `None` when some non-null
    /// value is not exactly of the declared variant (the `Mixed` fallback
    /// mirrors `build_lane`'s demotion to the row lane).
    fn build_data(decl: DataType, rows: &[Row], col: usize) -> Option<ColumnData> {
        macro_rules! typed {
            ($variant:ident, $pat:pat => $val:expr, $default:expr) => {{
                let mut vals = Vec::with_capacity(rows.len());
                for row in rows {
                    match &row[col] {
                        Value::Null => vals.push($default),
                        $pat => vals.push($val),
                        _ => return None,
                    }
                }
                Some(ColumnData::$variant(vals))
            }};
        }
        match decl {
            DataType::Int => typed!(Int, Value::Int(i) => *i, 0),
            DataType::Float => typed!(Float, Value::Float(f) => *f, 0.0),
            DataType::Bool => typed!(Bool, Value::Bool(b) => *b, false),
            DataType::Date => typed!(Date, Value::Date(d) => *d, 0),
            DataType::Text => Self::build_text(rows, col),
        }
    }

    /// Dictionary-encode a text column, falling back to plain strings
    /// past [`DICT_MAX`] distinct values and to `None` (mixed) when a
    /// non-null value is not text.
    fn build_text(rows: &[Row], col: usize) -> Option<ColumnData> {
        let mut codes = Vec::with_capacity(rows.len());
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut index: HashMap<&str, u32> = HashMap::new();
        for row in rows {
            match &row[col] {
                Value::Null => codes.push(0),
                Value::Text(s) => {
                    if let Some(&c) = index.get(&**s) {
                        codes.push(c);
                    } else {
                        if dict.len() >= DICT_MAX {
                            // Overflow: re-collect as plain strings.
                            return Self::build_plain_text(rows, col);
                        }
                        let c = dict.len() as u32;
                        dict.push(s.clone());
                        index.insert(s, c);
                        codes.push(c);
                    }
                }
                _ => return None,
            }
        }
        Some(ColumnData::Dict { codes, dict })
    }

    fn build_plain_text(rows: &[Row], col: usize) -> Option<ColumnData> {
        let mut vals = Vec::with_capacity(rows.len());
        let empty: Arc<str> = Arc::from("");
        for row in rows {
            match &row[col] {
                Value::Null => vals.push(empty.clone()),
                Value::Text(s) => vals.push(s.clone()),
                _ => return None,
            }
        }
        Some(ColumnData::Str(vals))
    }

    /// `cast_cell` of non-null row `i`'s text to `ty` in a
    /// dictionary-coded column: made the first time any reader reaches
    /// the row's code and kept with the column, its error included, so a
    /// caller raises it only at a row that reaches that code. `None` when
    /// the column is not dictionary-coded.
    pub(crate) fn cast(&self, i: usize, ty: DataType) -> Option<&RelResult<Value>> {
        let ColumnData::Dict { codes, dict } = &self.data else {
            return None;
        };
        let casts = self
            .casts
            .get_or_init(|| (0..dict.len() * N_TYPES).map(|_| OnceLock::new()).collect());
        let c = codes[i] as usize;
        Some(casts[c * N_TYPES + ty as usize].get_or_init(|| cast_cell(&dict[c], ty)))
    }

    /// Read one value back, exactly as the row stored it.
    pub fn value(&self, i: usize) -> Value {
        if self.nulls[i] {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Str(v) => Value::Text(v[i].clone()),
            ColumnData::Dict { codes, dict } => Value::Text(dict[codes[i] as usize].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }
}

/// The columnar image of a frozen window of a table's rows, shared
/// (`Arc`) between the owning chunk, every generation that keeps it and
/// any scans in flight. It holds the window's rows and declared types and
/// images each column on first read, at most once (see the module docs).
#[derive(Debug)]
pub struct Segment {
    rows: Arc<Vec<Row>>,
    lo: usize,
    hi: usize,
    types: Vec<DataType>,
    cols: Vec<OnceLock<SegmentColumn>>,
}

impl Segment {
    /// Seal rows `lo..hi` of `rows`, which nobody may change from here
    /// on: a shell that images no column until one is read.
    pub(crate) fn shell(schema: &Schema, rows: Arc<Vec<Row>>, lo: usize, hi: usize) -> Segment {
        debug_assert!(lo <= hi && hi <= rows.len());
        let types: Vec<DataType> = schema.columns().iter().map(|c| c.data_type).collect();
        Segment {
            cols: types.iter().map(|_| OnceLock::new()).collect(),
            rows,
            lo,
            hi,
            types,
        }
    }

    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The column at position `c`, imaged from the rows on first read.
    pub fn column(&self, c: usize) -> &SegmentColumn {
        self.cols[c]
            .get_or_init(|| SegmentColumn::build(self.types[c], &self.rows[self.lo..self.hi], c))
    }

    /// The zone map for column `c` (imaging the column on first read).
    pub fn zone(&self, c: usize) -> &ZoneMap {
        &self.column(c).zone
    }

    /// How many columns have been imaged so far.
    pub(crate) fn imaged_columns(&self) -> usize {
        self.cols.iter().filter(|c| c.get().is_some()).count()
    }

    /// The rows the segment was sealed over: row `k` is segment row `k`.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows[self.lo..self.hi]
    }

    /// The backing vector and the window `lo..hi` of it the segment
    /// images, for a chunk over the same rows.
    pub(crate) fn backing(&self) -> (&Arc<Vec<Row>>, usize, usize) {
        (&self.rows, self.lo, self.hi)
    }
}

/// Which rows of a window are not shown: bit `k` set means row `k` is
/// dead — deleted from its chunk, or dropped by a filter. Padding bits past
/// the window are set, so `!word` holds live bits only. One type for a
/// chunk's mask, a scan window's and a result chunk's, shared
/// copy-on-write between them.
pub(crate) type DeadBits = Arc<Box<[u64]>>;

/// A bitmap over `len` rows with none dead.
pub(crate) fn no_dead(len: usize) -> Box<[u64]> {
    let words = len.div_ceil(64);
    let mut m = vec![0u64; words].into_boxed_slice();
    if !len.is_multiple_of(64) {
        m[words - 1] = !0u64 << (len % 64);
    }
    m
}

/// Is row `k` dead under `dead` (no bitmap: nothing is)?
pub(crate) fn is_dead(dead: Option<&[u64]>, k: usize) -> bool {
    dead.is_some_and(|m| m[k / 64] >> (k % 64) & 1 != 0)
}

/// The live rows of a `len`-row window under `dead`.
pub(crate) fn live_count(dead: Option<&[u64]>, len: usize) -> usize {
    dead.map_or(len, |m| m.iter().map(|w| (!w).count_ones() as usize).sum())
}

/// Offset of the `k`-th (0-based) live row of a window with `k` below its
/// live count.
pub(crate) fn select_live(dead: Option<&[u64]>, mut k: usize) -> usize {
    let Some(mask) = dead else {
        return k;
    };
    let mut w = 0;
    loop {
        let alive = (!mask[w]).count_ones() as usize;
        if k < alive {
            let mut bits = !mask[w];
            for _ in 0..k {
                bits &= bits - 1;
            }
            return w * 64 + bits.trailing_zeros() as usize;
        }
        k -= alive;
        w += 1;
    }
}

/// A zero-copy window over shared table storage: every row of a chunk's
/// sealed [`Segment`] (which holds the rows), and the dead bits saying
/// which of them are not in the window — deleted from the chunk, or
/// dropped by a filter. A table scans as one window per chunk, its own
/// mask as the dead bits; a filter hands on the same segment with more
/// bits set, and a result keeps it as a chunk (`table::TableBuilder`).
#[derive(Debug, Clone)]
pub(crate) struct Window {
    pub(crate) seg: Arc<Segment>,
    pub(crate) dead: Option<DeadBits>,
}

impl Window {
    /// The dead bits as words.
    pub(crate) fn dead(&self) -> Option<&[u64]> {
        self.dead.as_deref().map(|m| &**m)
    }

    /// How many rows are in the window.
    pub(crate) fn live(&self) -> usize {
        live_count(self.dead(), self.seg.len())
    }
}

/// The sealed view of one table version: the segment of every storage
/// chunk, in row order. Together they describe a superset of the table's
/// `covered` live rows (see the zone-map contract in the module docs).
#[derive(Debug, Clone)]
pub struct SegmentList {
    segments: Vec<Arc<Segment>>,
    covered: usize,
}

impl SegmentList {
    /// Assemble a list from the table's per-chunk seals, which describe
    /// (at least) its `covered` live rows.
    pub(crate) fn from_parts(segments: Vec<Arc<Segment>>, covered: usize) -> SegmentList {
        SegmentList { segments, covered }
    }

    /// The sealed segments, in row order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Number of live table rows the segments cover — all of them: a
    /// sealed view has no row-form remainder.
    pub fn covered(&self) -> usize {
        self.covered
    }
}
