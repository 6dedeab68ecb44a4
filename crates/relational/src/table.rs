//! In-memory tables: a schema plus persistent, generation-shared row
//! storage with primary-key enforcement (DESIGN.md §18).
//!
//! A [`Table`] is a *persistent value*: its resting format is a sequence
//! of immutable row chunks — each a window of at most [`SEGMENT_ROWS`]
//! rows over an `Arc`'d backing vector, sealed at most once into the
//! columnar segment of §14 — plus a copy-on-write primary-key index made
//! of a shared base map and a small patch overlay. Cloning a table is
//! O(#chunks), and [`Table::apply_delta`] builds the next generation of a
//! *shared* table while allocating only O(delta): untouched chunks, their
//! sealed segments (deletes included — a delete sets a mask bit and leaves
//! the seal alone), and the pk base map are shared by pointer with every
//! older generation still alive.
//!
//! # Layout invariants
//!
//! Every path that opens a chunk or deletes from one ([`Table::insert`],
//! [`Table::delete_where`], [`Table::apply_delta`]) re-establishes, at a
//! cost of O([`SEGMENT_ROWS`]) rows per touched chunk:
//!
//! * no chunk is dead (zero live rows) and none holds more than
//!   [`SEGMENT_ROWS`] physical rows;
//! * the live rows of a chunk form at most [`MAX_LIVE_RUNS`] maximal runs
//!   — a chunk fragmented past that is rewritten without its dead rows;
//! * of two adjacent *small* chunks (fewer than [`SMALL_CHUNK_ROWS`] live
//!   rows) the earlier holds more than twice the live rows of the later,
//!   so small chunks merge geometrically: a row is copied O(log) times on
//!   its way into a chunk that is no longer small, and a maximal run of
//!   small chunks is at most [`MAX_SMALL_RUN`] long.
//!
//! Together: `chunks ≤ (MAX_SMALL_RUN + 1) · (⌈live / SMALL_CHUNK_ROWS⌉ + 1)`
//! and `scan parts ≤ MAX_LIVE_RUNS · chunks` at every generation, whatever
//! the history of inserts and deletes — [`TableLayout::within_bounds`]
//! states it, and [`Table::row_at`] / [`Table::key_position`] walk a chunk
//! list of that bounded length.

use crate::delta::{Patch, TableDelta};
use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::segment::{ScanPart, Segment, SegmentList, SEGMENT_ROWS};
use crate::value::Value;
use serde::{json_get, DeError, Deserialize, Json, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A row is a boxed slice of values; arity always matches the table schema.
pub type Row = Vec<Value>;

/// A chunk with fewer live rows than this is *small*: adjacent small
/// chunks merge geometrically (see the module docs). An eighth of a
/// segment, so a chunk that has outgrown merging still amortizes its
/// dictionaries and zone maps over thousands of rows.
pub const SMALL_CHUNK_ROWS: usize = SEGMENT_ROWS / 8;

/// A chunk whose live rows have split into more runs than this is
/// rewritten without its dead rows, so a scan never emits more than this
/// many windows per chunk.
pub const MAX_LIVE_RUNS: usize = 256;

/// Longest possible run of adjacent small chunks: their live counts more
/// than halve from one to the next, starting below [`SMALL_CHUNK_ROWS`].
pub const MAX_SMALL_RUN: usize = SMALL_CHUNK_ROWS.ilog2() as usize;

/// Address of a row in the table's virtual address space. Every chunk
/// owns the range `base .. base + len`; ranges ascend with chunk order
/// and are never renumbered, so an address survives every structural
/// edit of *other* chunks (removal, merge, rewrite) — only rows that are
/// physically copied get new addresses, and the copy patches the index.
type Addr = u64;

/// One immutable storage chunk: a window `lo..hi` of an `Arc`'d row
/// vector, an optional dead-row bitmap, and a lazily built columnar seal.
/// The backing vector only ever grows in place while this table holds
/// the *sole* reference to it and the chunk is unsealed; the moment it is
/// shared (a table clone, a scan in flight) or sealed it is
/// frozen and further inserts open a new chunk.
#[derive(Debug, Clone)]
struct Chunk {
    rows: Arc<Vec<Row>>,
    /// Physical rows of this chunk: `rows[lo..hi]`, at most
    /// [`SEGMENT_ROWS`] of them. Offsets below are relative to `lo`.
    lo: usize,
    hi: usize,
    /// Address of `rows[lo]`.
    base: Addr,
    /// Visible rows: `hi - lo` minus dead bits in `mask`.
    live: usize,
    /// Dead-row bitmap (bit set = deleted), present only once a delete
    /// has touched the chunk. Padding bits past the window are pre-set so
    /// word-wise popcounts over live bits need no boundary handling.
    mask: Option<Arc<Box<[u64]>>>,
    /// The sealed columnar image of **all** physical rows `lo..hi`: a
    /// shell over `rows` made by the first scan, at most once, and never
    /// reset — it images a column when a lane first reads one. Deletes
    /// only set mask bits, so the segment describes a superset of the
    /// live rows (the §14 zone-map contract) and is shared with every
    /// generation that keeps the chunk, whether or not it deleted from it.
    seal: Arc<OnceLock<Arc<Segment>>>,
}

impl Chunk {
    fn window(rows: Arc<Vec<Row>>, lo: usize, hi: usize, base: Addr) -> Chunk {
        debug_assert!(hi - lo <= SEGMENT_ROWS);
        Chunk {
            rows,
            lo,
            hi,
            base,
            live: hi - lo,
            mask: None,
            seal: Arc::new(OnceLock::new()),
        }
    }

    /// `backing` cut into consecutive chunks of at most [`SEGMENT_ROWS`]
    /// rows, addressed from `base`.
    fn windows(backing: Arc<Vec<Row>>, base: Addr) -> impl Iterator<Item = Chunk> {
        (0..backing.len()).step_by(SEGMENT_ROWS).map(move |lo| {
            let hi = usize::min(lo + SEGMENT_ROWS, backing.len());
            Chunk::window(Arc::clone(&backing), lo, hi, base + lo as Addr)
        })
    }

    /// The physical rows `from..to` of this chunk as a chunk of their own:
    /// a narrower window over the same backing with this chunk's dead
    /// bits; every row keeps its address. The piece gets a seal of its
    /// own — this chunk's images rows the piece no longer holds.
    fn slice(&self, from: usize, to: usize) -> Chunk {
        let mut piece = Chunk::window(
            Arc::clone(&self.rows),
            self.lo + from,
            self.lo + to,
            self.base + from as Addr,
        );
        if self.mask.is_some() {
            for off in (from..to).filter(|&off| self.is_dead(off)) {
                piece.mark_dead(off - from);
            }
        }
        piece
    }

    /// Physical rows in this chunk.
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    fn row(&self, off: usize) -> &Row {
        &self.rows[self.lo + off]
    }

    fn is_dead(&self, off: usize) -> bool {
        dead_bit(self.mask.as_deref().map(|m| &**m), off)
    }

    fn mark_dead(&mut self, off: usize) {
        let len = self.len();
        let mask = self.mask.get_or_insert_with(|| {
            let words = len.div_ceil(64);
            let mut m = vec![0u64; words].into_boxed_slice();
            if !len.is_multiple_of(64) {
                m[words - 1] = !0u64 << (len % 64);
            }
            Arc::new(m)
        });
        Arc::make_mut(mask)[off / 64] |= 1 << (off % 64);
        self.live -= 1;
    }

    /// Offset of the `k`-th (0-based) live row.
    fn select_live(&self, mut k: usize) -> usize {
        debug_assert!(k < self.live);
        let Some(mask) = &self.mask else {
            return k;
        };
        for (w, &word) in mask.iter().enumerate() {
            let alive = (!word).count_ones() as usize;
            if k < alive {
                let mut bits = !word;
                loop {
                    let b = bits.trailing_zeros() as usize;
                    if k == 0 {
                        return w * 64 + b;
                    }
                    k -= 1;
                    bits &= bits - 1;
                }
            }
            k -= alive;
        }
        unreachable!("select past live rows")
    }

    /// Number of live rows at offsets below `off`.
    fn rank_live(&self, off: usize) -> usize {
        let Some(mask) = &self.mask else {
            return off;
        };
        let mut n = 0;
        for w in 0..off / 64 {
            n += (!mask[w]).count_ones() as usize;
        }
        if !off.is_multiple_of(64) {
            n += (!mask[off / 64] & ((1u64 << (off % 64)) - 1)).count_ones() as usize;
        }
        n
    }

    /// Number of maximal runs of live rows: a run starts at every live
    /// bit whose predecessor is dead (or absent).
    fn run_count(&self) -> usize {
        let Some(mask) = &self.mask else {
            return usize::from(self.live > 0);
        };
        let mut runs = 0;
        let mut prev_live = 0u64;
        for &word in mask.iter() {
            let live = !word;
            runs += (live & !(live << 1 | prev_live)).count_ones() as usize;
            prev_live = live >> 63;
        }
        runs
    }

    /// The maximal runs of live rows, as ascending `(from, to)` offset
    /// ranges. O(mask words + runs).
    fn live_runs(&self) -> Vec<(usize, usize)> {
        let len = self.len();
        let Some(mask) = &self.mask else {
            return if len == 0 { Vec::new() } else { vec![(0, len)] };
        };
        // First offset at or after `from` whose dead bit equals `dead`;
        // `len` when there is none (padding bits are set, so a search for
        // a dead bit only runs off the end of a 64-aligned window).
        let next = |from: usize, dead: bool| -> usize {
            let mut w = from / 64;
            let mut skip = from % 64;
            while w < mask.len() {
                let word = if dead { mask[w] } else { !mask[w] };
                let word = word & (!0u64 << skip);
                if word != 0 {
                    return w * 64 + word.trailing_zeros() as usize;
                }
                w += 1;
                skip = 0;
            }
            len
        };
        let mut runs = Vec::new();
        let mut from = next(0, false);
        while from < len {
            let to = next(from, true);
            runs.push((from, to));
            from = next(to, false);
        }
        runs
    }

    /// Hand this chunk's live rows to `out` — the chunk is about to be
    /// replaced. Moved when nothing else (another table generation, a
    /// sibling window, a scan in flight) reads the backing, cloned
    /// otherwise. The chunk's own seal lets go of the backing first: its
    /// shell images rows that are leaving.
    fn take_live(&mut self, out: &mut Vec<Row>) {
        reset_cache(&mut self.seal);
        let mask = self.mask.as_deref().map(|m| &**m);
        match Arc::get_mut(&mut self.rows) {
            Some(backing) => out.extend(
                backing[self.lo..self.hi]
                    .iter_mut()
                    .enumerate()
                    .filter(|(off, _)| !dead_bit(mask, *off))
                    .map(|(_, row)| std::mem::take(row)),
            ),
            None => out.extend(self.iter_live().cloned()),
        }
    }

    fn iter_live(&self) -> impl Iterator<Item = &Row> + '_ {
        self.rows[self.lo..self.hi]
            .iter()
            .enumerate()
            .filter(|(off, _)| !self.is_dead(*off))
            .map(|(_, r)| r)
    }

    /// This chunk's sealed columnar segment over all its physical rows:
    /// a shell made on first use, which freezes the chunk.
    fn segment(&self, schema: &Schema) -> &Arc<Segment> {
        self.seal.get_or_init(|| {
            Arc::new(Segment::shell(
                schema,
                Arc::clone(&self.rows),
                self.lo,
                self.hi,
            ))
        })
    }
}

/// Is the bit for offset `off` set in a chunk's dead-row bitmap?
fn dead_bit(mask: Option<&[u64]>, off: usize) -> bool {
    mask.is_some_and(|m| m[off / 64] >> (off % 64) & 1 != 0)
}

/// Overlay fold point: the persistent pk overlay is kept within O(√n) of
/// the base, so per-install overlay clones stay sub-linear while folds
/// into a fresh base stay rare enough to amortize away.
fn overlay_fold_threshold(base: usize) -> usize {
    4096.max(16 * (base as f64).sqrt() as usize)
}

/// Forget a cached derived view. The cell is cleared in place when this
/// table is its only holder; a cell shared with a clone is left to the
/// clone (which it still describes) and replaced.
fn reset_cache<T>(cell: &mut Arc<OnceLock<T>>) {
    match Arc::get_mut(cell) {
        Some(c) => {
            c.take();
        }
        None => *cell = Arc::new(OnceLock::new()),
    }
}

/// Primary-key patch target used while validating an edit
/// ([`Table::apply_delta`], [`Table::patch`]): either a fresh
/// uniquely-owned base (overlay
/// folded in) or a copy of the small overlay layered over the shared
/// base.
enum PkPatch<'a> {
    Folded(HashMap<Vec<Value>, Addr>),
    Overlaid {
        base: &'a HashMap<Vec<Value>, Addr>,
        overlay: HashMap<Vec<Value>, Option<Addr>>,
    },
}

impl PkPatch<'_> {
    fn lookup(&self, key: &[Value]) -> Option<Addr> {
        match self {
            PkPatch::Folded(base) => base.get(key).copied(),
            PkPatch::Overlaid { base, overlay } => match overlay.get(key) {
                Some(patch) => *patch,
                None => base.get(key).copied(),
            },
        }
    }

    fn put(&mut self, key: Vec<Value>, addr: Addr) {
        match self {
            PkPatch::Folded(base) => {
                base.insert(key, addr);
            }
            PkPatch::Overlaid { overlay, .. } => {
                overlay.insert(key, Some(addr));
            }
        }
    }

    fn del(&mut self, key: Vec<Value>) {
        match self {
            PkPatch::Folded(base) => {
                base.remove(&key);
            }
            PkPatch::Overlaid { overlay, .. } => {
                overlay.insert(key, None);
            }
        }
    }
}

/// A keyed table's index after an edit: a fresh base when the overlay was
/// folded into one, and the overlay over the base.
struct PkNext {
    base: Option<HashMap<Vec<Value>, Addr>>,
    overlay: HashMap<Vec<Value>, Option<Addr>>,
}

/// The physical shape of a table at one generation, for tests, benches
/// and `guava explain --analyze`: what a scan will walk and how much of
/// it is already columnar. Reading it seals nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableLayout {
    /// Live rows.
    pub rows: usize,
    /// Storage chunks (each at most [`SEGMENT_ROWS`] physical rows).
    pub chunks: usize,
    /// Zero-copy windows a scan emits: one per maximal run
    /// of live rows in each chunk.
    pub scan_parts: usize,
    /// Chunks sealed under a columnar segment (a scan has met them).
    pub sealed_spans: usize,
    /// Columns imaged across those segments: each is built on first read,
    /// so this counts (segment, column) pairs some lane or prune has read.
    pub imaged_columns: usize,
    /// Deleted rows that sealed segments still describe (their zone maps
    /// are bounds over a superset of the live rows).
    pub dead_rows_under_seals: usize,
    /// Trailing chunks with fewer than [`SMALL_CHUNK_ROWS`] live rows.
    pub small_tail_chunks: usize,
}

impl TableLayout {
    /// The bound the maintenance rules guarantee at every generation (see
    /// the module docs of [`crate::table`]).
    pub fn within_bounds(&self) -> bool {
        self.chunks <= (MAX_SMALL_RUN + 1) * (self.rows.div_ceil(SMALL_CHUNK_ROWS) + 1)
            && self.scan_parts <= MAX_LIVE_RUNS * self.chunks
            && self.small_tail_chunks <= MAX_SMALL_RUN
    }
}

impl fmt::Display for TableLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunks={} scan_parts={} sealed_spans={} imaged_columns={} dead_under_seals={} small_tail={}",
            self.chunks,
            self.scan_parts,
            self.sealed_spans,
            self.imaged_columns,
            self.dead_rows_under_seals,
            self.small_tail_chunks
        )
    }
}

/// An in-memory table. Rows are stored in insertion order across
/// immutable chunks; a hash index over the primary key (if declared)
/// enforces uniqueness and gives O(1) lookup.
///
/// Everything heavy is `Arc`-shared: cloning a table is O(#chunks), and
/// [`Table::apply_delta`] produces the next generation while sharing all
/// untouched storage with this one. A table has two representations, its
/// row chunks and their sealed segments; rows are read in place through
/// [`Table::iter_rows`] and [`Table::row_at`], and copied out only on
/// request ([`Table::rows_from`], [`Table::into_rows`]).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    chunks: Vec<Chunk>,
    /// Total visible rows across all chunks.
    live: usize,
    /// PK tuple → row address, shared across generations.
    pk_base: Arc<HashMap<Vec<Value>, Addr>>,
    /// Per-generation patches over `pk_base`: `Some` overrides the
    /// address, `None` tombstones a deleted key. Folded into a fresh
    /// base when it outgrows [`overlay_fold_threshold`].
    pk_overlay: Arc<HashMap<Vec<Value>, Option<Addr>>>,
    /// The sealed columnar view (DESIGN.md §14) of *this* table version:
    /// every chunk's segment, in row order. Assembled lazily — sealing
    /// whatever chunks no earlier generation sealed — and shared O(1)
    /// with clones; any mutation forgets it (the per-chunk seals it was
    /// assembled from survive). Derived state: excluded from serde and
    /// equality.
    seg_view: Arc<OnceLock<SegmentList>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        Table::assemble(schema, Vec::new())
    }

    /// Build a table from rows, checking each against the schema and the
    /// primary key in row order (the first offending row's error wins).
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Row>) -> RelResult<Table> {
        let rows = rows.into_iter();
        let mut checked: Vec<Row> = Vec::with_capacity(rows.size_hint().0);
        let probe = Table::new(schema);
        let mut base = HashMap::new();
        for row in rows {
            probe.schema.check_row(&row)?;
            probe.claim_key(&mut base, &row, checked.len() as Addr)?;
            checked.push(row);
        }
        let mut t = Table::assemble(probe.schema, checked);
        t.pk_base = Arc::new(base);
        Ok(t)
    }

    /// Assemble a table around `rows` — chunks are consecutive windows of
    /// the one backing vector, so a row's address is its position — with
    /// an *empty* pk index; callers reindex (or know the schema is
    /// keyless).
    fn assemble(schema: Schema, rows: Vec<Row>) -> Table {
        Table {
            schema,
            live: rows.len(),
            chunks: Chunk::windows(Arc::new(rows), 0).collect(),
            pk_base: Arc::new(HashMap::new()),
            pk_overlay: Arc::new(HashMap::new()),
            seg_view: Arc::new(OnceLock::new()),
        }
    }

    /// Construct a table from rows the streaming executor has already
    /// validated against `schema`, skipping the per-row re-checks of
    /// [`Table::from_rows`]. The primary-key index is still rebuilt, so key
    /// uniqueness is enforced whenever `schema` declares a key.
    pub(crate) fn from_validated(schema: Schema, rows: Vec<Row>) -> RelResult<Table> {
        let mut t = Table::assemble(schema, rows);
        t.reindex()?;
        Ok(t)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// This table under another name. Only the schema is copied: chunks,
    /// seals, index and sealed view stay shared with every clone of
    /// `self`, so [`Table::same_storage`] holds between the two.
    pub fn renamed(mut self, name: impl Into<String>) -> Table {
        self.schema = self.schema.renamed(name);
        self
    }

    /// An owned copy of the visible rows, O(rows): [`Table::rows_from`]
    /// from 0. Kept for the `benchmark/` harness, which compares row
    /// vectors; read [`Table::iter_rows`] or [`Table::row_at`] instead.
    #[deprecated(
        note = "an O(rows) copy kept for `benchmark/` until ROADMAP item 4 B1(i); \
                read `iter_rows`, `row_at` or `rows_from`"
    )]
    pub fn rows(&self) -> Vec<Row> {
        self.rows_from(0)
    }

    /// The one backing vector this table's chunks window end to end, in
    /// order and with nothing deleted — if that is still its shape.
    fn whole_backing(&self) -> Option<&Arc<Vec<Row>>> {
        let backing = &self.chunks.first()?.rows;
        let mut expect = 0;
        for c in &self.chunks {
            if !Arc::ptr_eq(&c.rows, backing) || c.lo != expect || c.mask.is_some() {
                return None;
            }
            expect = c.hi;
        }
        (expect == backing.len()).then_some(backing)
    }

    /// Iterate the visible rows in order, in place.
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> + '_ {
        self.chunks.iter().flat_map(|c| c.iter_live())
    }

    /// The visible row at position `pos`, or `None` past the end.
    /// O(#chunks + mask words) with #chunks bounded as in the module
    /// docs, never O(rows).
    pub fn row_at(&self, mut pos: usize) -> Option<&Row> {
        for c in &self.chunks {
            if pos < c.live {
                return Some(c.row(c.select_live(pos)));
            }
            pos -= c.live;
        }
        None
    }

    /// Clone out the visible rows from position `from` on — O(#chunks +
    /// rows returned); refresh paths use it to pull just-appended rows.
    pub fn rows_from(&self, mut from: usize) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.live.saturating_sub(from));
        for c in &self.chunks {
            if from >= c.live {
                from -= c.live;
                continue;
            }
            if c.mask.is_none() {
                out.extend_from_slice(&c.rows[c.lo + from..c.hi]);
            } else {
                out.extend(c.iter_live().skip(from).cloned());
            }
            from = 0;
        }
        out
    }

    /// Whether two tables share identical physical storage: every chunk
    /// the same window of the same `Arc`'d rows with the same dead mask.
    /// Implies equal row content; used as a cheap change prefilter.
    pub fn same_storage(&self, other: &Table) -> bool {
        self.live == other.live
            && self.chunks.len() == other.chunks.len()
            && self.chunks.iter().zip(&other.chunks).all(|(a, b)| {
                Arc::ptr_eq(&a.rows, &b.rows)
                    && (a.lo, a.hi) == (b.lo, b.hi)
                    && match (&a.mask, &b.mask) {
                        (None, None) => true,
                        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                        _ => false,
                    }
            })
    }

    /// How many of this table's chunks `prev` does not also hold — the
    /// same window of the same backing. It is what getting from `prev` to
    /// `self` had to build, and what a scan of `self` has to seal that a
    /// scan of `prev` did not: O(delta) after [`Table::apply_delta`] or
    /// [`Table::apply_patch`], every chunk after a rebuild. Mask bits do
    /// not count: a delete leaves the chunk, and its seal, in place.
    pub fn chunks_not_in(&self, prev: &Table) -> usize {
        let window = |c: &Chunk| (Arc::as_ptr(&c.rows), c.lo, c.hi);
        let held: std::collections::HashSet<_> = prev.chunks.iter().map(window).collect();
        self.chunks
            .iter()
            .filter(|c| !held.contains(&window(c)))
            .count()
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn key_of(&self, row: &[Value]) -> Option<Vec<Value>> {
        let pk = self.schema.primary_key();
        if pk.is_empty() {
            None
        } else {
            Some(pk.iter().map(|&i| row[i].clone()).collect())
        }
    }

    fn dup_err(&self, key: &[Value]) -> RelError {
        RelError::DuplicateKey {
            table: self.schema.name.clone(),
            key: format!(
                "({})",
                key.iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }

    /// Index `row` at `addr` in a pk map under construction; a key
    /// already claimed is the duplicate-key error. No-op for keyless
    /// schemas.
    fn claim_key(
        &self,
        index: &mut HashMap<Vec<Value>, Addr>,
        row: &[Value],
        addr: Addr,
    ) -> RelResult<()> {
        if let Some(key) = self.key_of(row) {
            match index.entry(key) {
                Entry::Occupied(e) => return Err(self.dup_err(e.key())),
                Entry::Vacant(e) => e.insert(addr),
            };
        }
        Ok(())
    }

    fn lookup_addr(&self, key: &[Value]) -> Option<Addr> {
        match self.pk_overlay.get(key) {
            Some(patch) => *patch,
            None => self.pk_base.get(key).copied(),
        }
    }

    /// Resolve an address to `(chunk ordinal, offset in chunk)`: chunk
    /// address ranges ascend, so this is a binary search over the chunk
    /// list.
    fn locate(&self, addr: Addr) -> (usize, usize) {
        let ci = self.chunks.partition_point(|c| c.base <= addr) - 1;
        (ci, (addr - self.chunks[ci].base) as usize)
    }

    /// First address past the last chunk: where the next chunk opens.
    fn end_addr(&self) -> Addr {
        self.chunks.last().map_or(0, |c| c.base + c.len() as Addr)
    }

    /// Record `key → addr`, patching the shared index copy-on-write: the
    /// base map is touched only while uniquely owned, otherwise the small
    /// overlay absorbs the edit.
    fn pk_put(&mut self, key: Vec<Value>, addr: Addr) {
        if self.pk_overlay.is_empty() {
            if let Some(base) = Arc::get_mut(&mut self.pk_base) {
                base.insert(key, addr);
                return;
            }
        }
        Arc::make_mut(&mut self.pk_overlay).insert(key, Some(addr));
    }

    /// Remove `key`, tombstoning it in the overlay when the base map is
    /// shared with other generations.
    fn pk_del(&mut self, key: Vec<Value>) {
        if self.pk_overlay.is_empty() {
            if let Some(base) = Arc::get_mut(&mut self.pk_base) {
                base.remove(&key);
                return;
            }
        }
        Arc::make_mut(&mut self.pk_overlay).insert(key, None);
    }

    /// The index as one map: the base with the overlay folded in.
    fn folded_pk(&self) -> HashMap<Vec<Value>, Addr> {
        let mut base = (*self.pk_base).clone();
        for (k, patch) in self.pk_overlay.iter() {
            match patch {
                Some(addr) => {
                    base.insert(k.clone(), *addr);
                }
                None => {
                    base.remove(k);
                }
            }
        }
        base
    }

    /// Insert a row, validating schema and primary-key uniqueness.
    pub fn insert(&mut self, row: Row) -> RelResult<()> {
        self.schema.check_row(&row)?;
        let key = self.key_of(&row);
        if let Some(key) = &key {
            if self.lookup_addr(key).is_some() {
                return Err(self.dup_err(key));
            }
        }
        reset_cache(&mut self.seg_view);
        let addr = self.push_row(row);
        if let Some(key) = key {
            // Row-at-a-time inserts have no batch edit to fold the overlay
            // for them: fold it here once it reaches the threshold, or a
            // stream of inserts into a shared table grows it without bound.
            if self.pk_overlay.len() >= overlay_fold_threshold(self.pk_base.len()) {
                self.pk_base = Arc::new(self.folded_pk());
                self.pk_overlay = Arc::new(HashMap::new());
            }
            self.pk_put(key, addr);
        }
        self.live += 1;
        self.settle_at(self.chunks.len() - 1);
        Ok(())
    }

    /// Append one row: grow the last chunk in place when its backing is
    /// uniquely owned and the chunk is unmasked, unsealed and not yet a
    /// full segment; open a new chunk otherwise. Sealing or sharing
    /// therefore freezes a chunk for good.
    fn push_row(&mut self, row: Row) -> Addr {
        if let Some(c) = self.chunks.last_mut() {
            if c.mask.is_none() && c.seal.get().is_none() && c.len() < SEGMENT_ROWS {
                if let Some(backing) = Arc::get_mut(&mut c.rows) {
                    if c.hi == backing.len() {
                        backing.push(row);
                        c.hi += 1;
                        c.live += 1;
                        return c.base + (c.len() - 1) as Addr;
                    }
                }
            }
        }
        let base = self.end_addr();
        self.chunks
            .push(Chunk::window(Arc::new(vec![row]), 0, 1, base));
        base
    }

    /// Look a row up by primary key. `None` if the table has no key or no
    /// matching row.
    pub fn get_by_key(&self, key: &[Value]) -> Option<&Row> {
        let (ci, off) = self.locate(self.lookup_addr(key)?);
        Some(self.chunks[ci].row(off))
    }

    /// Look a row up by primary key, returning its *visible position*
    /// alongside the row — O(#chunks + mask words), #chunks bounded as in
    /// the module docs.
    pub fn key_position(&self, key: &[Value]) -> Option<(usize, &Row)> {
        let (ci, off) = self.locate(self.lookup_addr(key)?);
        let before: usize = self.chunks[..ci].iter().map(|c| c.live).sum();
        let c = &self.chunks[ci];
        Some((before + c.rank_live(off), c.row(off)))
    }

    /// Update every row matching `pred` by applying `f`; returns the number
    /// of rows changed. The PK index is rebuilt afterwards; key collisions
    /// introduced by the update are reported.
    pub fn update_where<P, F>(&mut self, pred: P, mut f: F) -> RelResult<usize>
    where
        P: Fn(&[Value]) -> bool,
        F: FnMut(&mut Row),
    {
        let mut n = 0;
        let mut rows: Vec<Row> = Vec::with_capacity(self.live);
        for row in self.iter_rows() {
            let mut row = row.clone();
            if pred(&row) {
                f(&mut row);
                self.schema.check_row(&row)?;
                n += 1;
            }
            rows.push(row);
        }
        if n == 0 {
            return Ok(0);
        }
        *self = Table::from_validated(self.schema.clone(), rows)?;
        Ok(n)
    }

    /// Delete every row matching `pred`; returns the number removed.
    ///
    /// Deletes only set dead bits in the touched chunks' masks and patch
    /// the persistent pk overlay — the index is *not* rebuilt and sealed
    /// segments stay as they are, so a delete-heavy revision batch costs
    /// O(scan + deleted) plus the bounded layout upkeep of the module
    /// docs, not O(rows) of re-hashing or re-sealing.
    pub fn delete_where<P: Fn(&[Value]) -> bool>(&mut self, pred: P) -> RelResult<usize> {
        let mut doomed: Vec<(usize, usize)> = Vec::new();
        for (ci, c) in self.chunks.iter().enumerate() {
            for off in 0..c.len() {
                if !c.is_dead(off) && pred(c.row(off)) {
                    doomed.push((ci, off));
                }
            }
        }
        if doomed.is_empty() {
            return Ok(0);
        }
        reset_cache(&mut self.seg_view);
        let mut touched: Vec<usize> = Vec::new();
        for &(ci, off) in &doomed {
            if let Some(key) = self.key_of(self.chunks[ci].row(off)) {
                self.pk_del(key);
            }
            self.chunks[ci].mark_dead(off);
            if touched.last() != Some(&ci) {
                touched.push(ci);
            }
        }
        self.live -= doomed.len();
        self.settle(&touched);
        Ok(doomed.len())
    }

    /// Rebuild the PK index from the visible rows (e.g. after
    /// deserialization — serde skips the index).
    pub fn reindex(&mut self) -> RelResult<()> {
        let mut base = HashMap::new();
        if !self.schema.primary_key().is_empty() {
            for c in &self.chunks {
                for off in (0..c.len()).filter(|&off| !c.is_dead(off)) {
                    self.claim_key(&mut base, c.row(off), c.base + off as Addr)?;
                }
            }
        }
        self.pk_base = Arc::new(base);
        self.pk_overlay = Arc::new(HashMap::new());
        Ok(())
    }

    /// Apply a captured [`TableDelta`] to this (possibly shared) table,
    /// building the next generation as a new value. All chunks, sealed
    /// segments, and pk-index state untouched by the delta are shared by
    /// pointer with `self` — and so is the sealed segment of a chunk the
    /// delta *deleted from*: deletes set copy-on-write mask bits and
    /// tombstone the pk overlay, inserts form one new tail chunk per
    /// [`SEGMENT_ROWS`] rows, and the layout upkeep of the module docs
    /// copies O([`SEGMENT_ROWS`]) rows per touched chunk at worst,
    /// O(delta · log) amortized.
    ///
    /// Inserted rows are validated exactly as [`Table::from_rows`] over
    /// the merged row set would: schema check first, then uniqueness
    /// against the post-delete index, in insertion order — so the first
    /// error (and its message) is byte-identical to a wholesale rebuild.
    pub fn apply_delta(&self, delta: &TableDelta) -> RelResult<Table> {
        if delta.pre_len != self.live {
            return Err(RelError::Plan(format!(
                "delta captured against {} rows, table has {}",
                delta.pre_len, self.live
            )));
        }
        if !delta.deleted.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(RelError::Plan(
                "delta deleted ordinals must be strictly ascending".into(),
            ));
        }
        debug_assert!(
            delta
                .deleted
                .iter()
                .all(|(pos, row)| self.row_at(*pos).is_none_or(|r| r == row)),
            "delta row mismatch"
        );
        let tail = [(self.live, delta.inserted.as_slice())];
        let groups = if delta.inserted.is_empty() {
            &tail[..0]
        } else {
            &tail[..]
        };
        let mut next = self.clone();
        next.edit(delta.deleted.iter().map(|(pos, _)| *pos), groups)?;
        Ok(next)
    }

    /// Apply a positional [`Patch`] — the edit script a
    /// [`crate::delta::DeltaPlan`] refresh emits — building the next
    /// generation as a new value: [`Table::patch`] on a clone, so
    /// everything the patch does not touch is shared by pointer with
    /// `self`, which stays as it is.
    pub fn apply_patch(&self, patch: &Patch) -> RelResult<Table> {
        let mut next = self.clone();
        next.patch(patch)?;
        Ok(next)
    }

    /// Apply a positional [`Patch`] in place, with [`Table::apply_delta`]'s
    /// contract and [`Patch::apply`]'s row order: ordinal deletes become
    /// mask bits; each insert group becomes new chunks spliced in *before*
    /// the pre-state row at its position. A position inside a chunk cuts
    /// that chunk's window in two over the same backing (no row is
    /// copied; the two pieces are sealed afresh when next scanned), a
    /// position at a chunk boundary or the append point cuts nothing, and
    /// the layout bounds of the module docs are re-established around
    /// every chunk the patch touched.
    ///
    /// Storage another table (an older generation, a clone) or a scan
    /// still holds is frozen and copied on write — chunks no edit falls
    /// into, their seals and the pk base stay shared by pointer. What this
    /// table alone holds is edited where it is: a mask takes its bits in
    /// place and a layout repair *moves* the rows it rewrites, so the
    /// holder of the only handle (a resident plan's cached output nobody
    /// else kept) pays for a scattered delete what `Vec::retain` would.
    ///
    /// Inserted rows are validated first, as [`Table::from_rows`] over the
    /// merged rows would, in merged-row order; on error the table is
    /// untouched. On a *keyed* table that order interleaves with retained
    /// rows unless every insert lands at the append point, and a row
    /// address between two chunks does not exist (addresses ascend with
    /// chunk order and are never renumbered under a pk index) — so a
    /// keyed table taking a mid-table insert is rebuilt wholesale through
    /// `from_rows` itself.
    pub fn patch(&mut self, patch: &Patch) -> RelResult<()> {
        if !patch.valid_for(self.live) {
            return Err(RelError::Plan(format!(
                "patch does not fit a table of {} rows",
                self.live
            )));
        }
        let keyed = !self.schema.primary_key().is_empty();
        if keyed && patch.inserted().iter().any(|(pos, _)| *pos < self.live) {
            let merged = patch.apply(self.iter_rows().cloned().collect());
            *self = Table::from_rows(self.schema.clone(), merged)?;
            return Ok(());
        }
        let groups: Vec<(usize, &[Row])> = patch
            .inserted()
            .iter()
            .map(|(pos, rows)| (*pos, rows.as_slice()))
            .collect();
        self.edit(patch.deleted().iter().copied(), &groups)
    }

    /// Take out the rows at the strictly ascending pre-state ordinals
    /// `deleted` and put each group of `inserted` (strictly ascending
    /// pre-state positions) in new chunks before the pre-state row at its
    /// position. Validates, then edits: an error leaves the table as it
    /// was. Keyed tables insert at the append point only.
    fn edit(
        &mut self,
        deleted: impl ExactSizeIterator<Item = usize> + Clone,
        inserted: &[(usize, &[Row])],
    ) -> RelResult<()> {
        if deleted.len() == 0 && inserted.is_empty() {
            return Ok(());
        }
        if let Some(pos) = deleted.clone().last().filter(|&pos| pos >= self.live) {
            return Err(RelError::Plan(format!(
                "delta deletes row {pos} past the table end"
            )));
        }
        let n_deleted = deleted.len();
        let n_inserted: usize = inserted.iter().map(|(_, rows)| rows.len()).sum();
        let pk = self.validate_edit(deleted.clone(), inserted, n_deleted + n_inserted)?;

        // From here on nothing fails.
        reset_cache(&mut self.seg_view);
        let old_chunks = std::mem::take(&mut self.chunks);
        let mut chunks: Vec<Chunk> = Vec::with_capacity(old_chunks.len() + 2 * inserted.len());
        let mut touched: Vec<usize> = Vec::new();
        let mut next_addr = old_chunks.last().map_or(0, |c| c.base + c.len() as Addr);
        let mut splice = |chunks: &mut Vec<Chunk>, rows: &[Row]| {
            chunks.extend(Chunk::windows(Arc::new(rows.to_vec()), next_addr));
            next_addr += rows.len() as Addr;
        };
        let mut deleted = deleted.peekable();
        let mut groups = inserted
            .iter()
            .filter(|(_, rows)| !rows.is_empty())
            .peekable();
        // Pre-state ordinals deleted from the chunk at hand.
        let mut gone: Vec<usize> = Vec::new();
        let mut start = 0;
        for mut c in old_chunks {
            let end = start + c.live;
            // The j-th pre-state row of the chunk is its (j - d)-th live
            // row once the d deletes below it are marked.
            gone.clear();
            while let Some(pos) = deleted.next_if(|&pos| pos < end) {
                debug_assert!(
                    pos >= start && gone.last().is_none_or(|&g| g < pos),
                    "deleted ordinals must ascend"
                );
                c.mark_dead(c.select_live(pos - start - gone.len()));
                gone.push(pos);
            }
            // The chunk before each group's position is done: push it and
            // carry on with the rest of the window.
            let mut from = 0;
            while let Some((pos, rows)) = groups.next_if(|(pos, _)| *pos < end) {
                let k = pos - start - gone.partition_point(|&g| g < *pos);
                let cut = match k {
                    0 => from,
                    k if k < c.live => c.select_live(k),
                    _ => c.len(),
                };
                if cut > from {
                    let piece = c.slice(from, cut);
                    if piece.live > 0 {
                        touched.push(chunks.len());
                        chunks.push(piece);
                    }
                    from = cut;
                }
                splice(&mut chunks, rows);
                touched.push(chunks.len() - 1);
            }
            if from > 0 {
                c = c.slice(from, c.len());
            }
            if from > 0 || !gone.is_empty() {
                touched.push(chunks.len());
            }
            chunks.push(c);
            start = end;
        }
        for (_, rows) in groups {
            splice(&mut chunks, rows);
            touched.push(chunks.len() - 1);
        }
        match pk {
            // Spliced and cut chunks sit between addresses that were
            // adjacent; with no index to patch, re-addressing is free.
            None => {
                let mut base = 0;
                for c in &mut chunks {
                    c.base = base;
                    base += c.len() as Addr;
                }
            }
            Some(next) => {
                if let Some(base) = next.base {
                    self.pk_base = Arc::new(base);
                }
                self.pk_overlay = Arc::new(next.overlay);
            }
        }
        self.chunks = chunks;
        self.live = self.live - n_deleted + n_inserted;
        self.settle(&touched);
        Ok(())
    }

    /// Check the rows an [`edit`](Self::edit) inserts exactly as
    /// [`Table::from_rows`] over the merged rows would — schema, then on a
    /// keyed table uniqueness against the index without the deleted rows,
    /// row by row in merged order — and work out the keyed table's next
    /// index: a fresh base when the overlay would outgrow its fold
    /// threshold (`Some(base)`), and the overlay over it. `None` for a
    /// keyless table.
    fn validate_edit(
        &self,
        deleted: impl Iterator<Item = usize>,
        inserted: &[(usize, &[Row])],
        n_edits: usize,
    ) -> RelResult<Option<PkNext>> {
        if self.schema.primary_key().is_empty() {
            for row in inserted.iter().flat_map(|(_, rows)| rows.iter()) {
                self.schema.check_row(row)?;
            }
            return Ok(None);
        }
        let mut pk = if self.pk_overlay.len() + n_edits > overlay_fold_threshold(self.pk_base.len())
        {
            PkPatch::Folded(self.folded_pk())
        } else {
            PkPatch::Overlaid {
                base: &self.pk_base,
                overlay: (*self.pk_overlay).clone(),
            }
        };
        // Ordinals are relative to self's masks: one forward walk.
        let mut chunks = self.chunks.iter();
        let mut here = chunks.next();
        let mut start = 0;
        for pos in deleted {
            let c = loop {
                let c = here.expect("a deleted ordinal is in range");
                if pos < start + c.live {
                    break c;
                }
                start += c.live;
                here = chunks.next();
            };
            let row = c.row(c.select_live(pos - start));
            pk.del(self.key_of(row).expect("keyed"));
        }
        debug_assert!(inserted.iter().all(|(pos, _)| *pos == self.live));
        let appended = inserted.iter().flat_map(|(_, rows)| rows.iter());
        for (addr, row) in (self.end_addr()..).zip(appended) {
            self.schema.check_row(row)?;
            let key = self.key_of(row).expect("keyed");
            if pk.lookup(&key).is_some() {
                return Err(self.dup_err(&key));
            }
            pk.put(key, addr);
        }
        Ok(Some(match pk {
            PkPatch::Folded(base) => PkNext {
                base: Some(base),
                overlay: HashMap::new(),
            },
            PkPatch::Overlaid { overlay, .. } => PkNext {
                base: None,
                overlay,
            },
        }))
    }

    /// Re-establish the layout invariants (module docs) around the chunks
    /// at the ascending ordinals `touched`, which lost rows or were just
    /// appended. Highest first, so an ordinal still names its chunk when
    /// its turn comes (upkeep only ever removes chunks at or above the
    /// one it is looking at, or folds a lower chunk into its neighbour
    /// in place).
    fn settle(&mut self, touched: &[usize]) {
        for &k in touched.iter().rev() {
            if k < self.chunks.len() {
                self.settle_at(k);
            }
        }
    }

    /// Upkeep at chunk `k`: drop it if dead, rewrite it if fragmented,
    /// then merge small neighbours — forwards, then backwards — until no
    /// adjacent pair around it violates the geometric rule. Every step
    /// copies fewer than [`SEGMENT_ROWS`] rows and removes a chunk, and
    /// at most [`MAX_SMALL_RUN`] steps can chain.
    fn settle_at(&mut self, mut k: usize) {
        if self.chunks[k].live == 0 {
            self.chunks.remove(k);
            if k == 0 {
                return;
            }
            // Its neighbours are adjacent now.
            k -= 1;
        } else if self.chunks[k].run_count() > MAX_LIVE_RUNS {
            self.compact(k, 1);
        }
        loop {
            if self.mergeable(k) {
                self.compact(k, 2);
            } else if k > 0 && self.mergeable(k - 1) {
                k -= 1;
                self.compact(k, 2);
            } else {
                return;
            }
        }
    }

    /// Do chunks `k` and `k + 1` break the geometric rule — both small,
    /// the earlier at most twice the later?
    fn mergeable(&self, k: usize) -> bool {
        matches!(
            self.chunks.get(k..k + 2),
            Some([a, b])
                if a.live < SMALL_CHUNK_ROWS && b.live < SMALL_CHUNK_ROWS && a.live <= 2 * b.live
        )
    }

    /// Replace chunks `k .. k + n` by one fresh chunk holding their live
    /// rows (at most [`SEGMENT_ROWS`] of them), re-addressed from the
    /// first chunk's base — its range only shrinks, so it stays below the
    /// next chunk's — with the moved rows' pk entries patched. Row order
    /// is unchanged.
    fn compact(&mut self, k: usize, n: usize) {
        let base = self.chunks[k].base;
        let doomed = &mut self.chunks[k..k + n];
        let mut rows: Vec<Row> = Vec::with_capacity(doomed.iter().map(|c| c.live).sum());
        for c in doomed {
            c.take_live(&mut rows);
        }
        debug_assert!(rows.len() <= SEGMENT_ROWS);
        if !self.schema.primary_key().is_empty() {
            for (off, row) in rows.iter().enumerate() {
                let key = self.key_of(row).expect("pk is non-empty");
                self.pk_put(key, base + off as Addr);
            }
        }
        let hi = rows.len();
        let merged = Chunk::window(Arc::new(rows), 0, hi, base);
        self.chunks.splice(k..k + n, [merged]);
    }

    /// The sealed columnar view of this table: every chunk's
    /// [`crate::segment::Segment`] in row order, sealing on first use
    /// whichever chunks no earlier generation sealed. Sealing images no
    /// column: each is built when first read. A segment images
    /// *all* physical rows of its chunk, deleted ones included (see
    /// [`TableLayout::dead_rows_under_seals`]), so its statistics bound a
    /// superset of the rows a scan emits.
    pub fn segments(&self) -> &SegmentList {
        self.seg_view.get_or_init(|| {
            let segs = self
                .chunks
                .iter()
                .map(|c| Arc::clone(c.segment(&self.schema)))
                .collect();
            SegmentList::from_parts(segs, self.live)
        })
    }

    /// The physical scan layout: one zero-copy window per maximal run of
    /// live rows, each carrying its chunk's segment and the window's
    /// offset into it. Seals whatever is not sealed yet — a shell per
    /// chunk; a column is imaged only when a lane mask or prune reads it.
    pub(crate) fn scan_parts(&self) -> Vec<ScanPart> {
        let mut parts = Vec::with_capacity(self.chunks.len());
        for c in &self.chunks {
            let seg = c.segment(&self.schema);
            for (from, to) in c.live_runs() {
                parts.push(ScanPart {
                    rows: Arc::clone(&c.rows),
                    lo: c.lo + from,
                    hi: c.lo + to,
                    seg: Arc::clone(seg),
                    seg_off: from,
                });
            }
        }
        parts
    }

    /// Live rows in chunks no scan (of this or an earlier generation) has
    /// sealed yet.
    pub fn unsealed_rows(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.seal.get().is_none())
            .map(|c| c.live)
            .sum()
    }

    /// The physical shape of this table version (see [`TableLayout`]).
    pub fn layout(&self) -> TableLayout {
        let sealed = || {
            self.chunks
                .iter()
                .filter_map(|c| c.seal.get().map(|seg| (c, seg)))
        };
        TableLayout {
            rows: self.live,
            chunks: self.chunks.len(),
            scan_parts: self.chunks.iter().map(Chunk::run_count).sum(),
            sealed_spans: sealed().count(),
            imaged_columns: sealed().map(|(_, seg)| seg.imaged_columns()).sum(),
            dead_rows_under_seals: sealed().map(|(c, _)| c.len() - c.live).sum(),
            small_tail_chunks: self
                .chunks
                .iter()
                .rev()
                .take_while(|c| c.live < SMALL_CHUNK_ROWS)
                .count(),
        }
    }

    /// Consume the table into its rows (used by plan evaluation).
    ///
    /// Row storage is `Arc`-shared: when this table's chunks window one
    /// backing vector end to end and it holds the only references — no
    /// scan window in flight and no clone of the table — the storage is
    /// unwrapped in O(#chunks) and no row is
    /// copied. Otherwise the shared storage stays intact for the other
    /// holders and the rows are cloned out here, which is the only point
    /// the sharing ever costs a copy.
    pub fn into_rows(self) -> Vec<Row> {
        if let Some(backing) = self.whole_backing().cloned() {
            // Release every other handle of ours on the backing: the
            // chunk windows (and the segment shells they seal) and the
            // sealed view.
            drop((self.chunks, self.seg_view));
            return Arc::try_unwrap(backing).unwrap_or_else(|shared| (*shared).clone());
        }
        self.iter_rows().cloned().collect()
    }

    /// Render the table as an ASCII grid — the shape analysts see when a
    /// study result is exported (and what the `tables` harness prints).
    pub fn render(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .iter_rows()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |row: &[String]| {
            let mut s = String::from("|");
            for (w, c) in widths.iter().zip(row) {
                s.push(' ');
                s.push_str(c);
                s.push_str(&" ".repeat(w - c.len() + 1));
                s.push('|');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &cells {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

/// Tables compare by schema and visible row content (the index, masks,
/// and caches are derived state).
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.live == other.live
            && (self.same_storage(other) || self.iter_rows().eq(other.iter_rows()))
    }
}

impl Eq for Table {}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Wire format: `{"schema": ..., "rows": [...]}` — the visible rows in
/// order, as when rows were stored contiguously, walked chunk by chunk.
/// Index and caches are derived state and are skipped.
impl Serialize for Table {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema".to_owned(), self.schema.to_json()),
            (
                "rows".to_owned(),
                Json::Array(self.iter_rows().map(Serialize::to_json).collect()),
            ),
        ])
    }
}

impl Deserialize for Table {
    fn from_json(v: &Json) -> Result<Table, DeError> {
        let Json::Object(fields) = v else {
            return Err(DeError::expected("an object for Table", v));
        };
        let schema = Schema::from_json(
            json_get(fields, "schema").ok_or_else(|| DeError::missing_field("Table", "schema"))?,
        )?;
        let rows = Vec::<Row>::from_json(
            json_get(fields, "rows").ok_or_else(|| DeError::missing_field("Table", "rows"))?,
        )?;
        // The pk index is rebuilt by `reindex`, exactly as before.
        Ok(Table::assemble(schema, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn patients() -> Table {
        let schema = Schema::new(
            "patients",
            vec![
                Column::required("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("smoker", DataType::Bool),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::text("ada"), Value::Bool(true)],
                vec![Value::Int(2), Value::text("bob"), Value::Bool(false)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_and_lookup_by_key() {
        let t = patients();
        assert_eq!(t.len(), 2);
        let row = t.get_by_key(&[Value::Int(2)]).unwrap();
        assert_eq!(row[1], Value::text("bob"));
        assert!(t.get_by_key(&[Value::Int(9)]).is_none());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = patients();
        let err = t
            .insert(vec![Value::Int(1), Value::text("dup"), Value::Null])
            .unwrap_err();
        assert!(matches!(err, RelError::DuplicateKey { .. }));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn update_where_reindexes() {
        let mut t = patients();
        let n = t
            .update_where(|r| r[0] == Value::Int(2), |r| r[0] = Value::Int(20))
            .unwrap();
        assert_eq!(n, 1);
        assert!(t.get_by_key(&[Value::Int(20)]).is_some());
        assert!(t.get_by_key(&[Value::Int(2)]).is_none());
    }

    #[test]
    fn update_into_duplicate_key_fails() {
        let mut t = patients();
        let err = t
            .update_where(|r| r[0] == Value::Int(2), |r| r[0] = Value::Int(1))
            .unwrap_err();
        assert!(matches!(err, RelError::DuplicateKey { .. }));
    }

    #[test]
    fn delete_where_removes_and_reindexes() {
        let mut t = patients();
        assert_eq!(t.delete_where(|r| r[2] == Value::Bool(false)).unwrap(), 1);
        assert_eq!(t.len(), 1);
        assert!(t.get_by_key(&[Value::Int(2)]).is_none());
        assert!(t.get_by_key(&[Value::Int(1)]).is_some());
    }

    #[test]
    fn typed_insert_rejected() {
        let mut t = patients();
        assert!(t
            .insert(vec![Value::Int(3), Value::Int(5), Value::Null])
            .is_err());
    }

    #[test]
    fn render_contains_headers_and_values() {
        let s = patients().render();
        assert!(s.contains("| id "));
        assert!(s.contains("ada"));
        assert!(s.contains("FALSE"));
    }

    #[test]
    fn serde_roundtrip_with_reindex() {
        let t = patients();
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Table = serde_json::from_str(&json).unwrap();
        assert!(
            back.get_by_key(&[Value::Int(1)]).is_none(),
            "index skipped by serde"
        );
        back.reindex().unwrap();
        assert!(back.get_by_key(&[Value::Int(1)]).is_some());

        // A table that took an install with deletes is multi-chunk and
        // masked: serializing walks the chunks, and the round trip is the
        // visible rows, re-keyable.
        let base = keyed(3 * SEGMENT_ROWS as i64);
        let delta = TableDelta {
            pre_len: base.len(),
            deleted: [0, 5, SEGMENT_ROWS + 1]
                .into_iter()
                .map(|p| (p, base.row_at(p).unwrap().clone()))
                .collect(),
            inserted: vec![vec![Value::Int(-1)], vec![Value::Int(-2)]],
        };
        let t = base.apply_delta(&delta).unwrap();
        assert!(t.chunks.len() > 1 && t.chunks.iter().any(|c| c.mask.is_some()));
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        back.reindex().unwrap();
        assert!(back.get_by_key(&[Value::Int(-2)]).is_some());
        assert!(back.get_by_key(&[Value::Int(5)]).is_none());
    }

    #[test]
    fn resident_scan_holds_the_table_it_read() {
        use crate::algebra::Plan;
        use crate::database::Database;
        use crate::delta::{Change, DeltaPlan, TableChanges};
        use crate::exec::Executor;

        // A plan that *is* the scan holds the table itself, not a copy —
        // at init, and when the wholesale fallback takes a masked,
        // multi-chunk table whole.
        let install = |t: &Table, drop: usize, add: &[i64]| {
            let delta = TableDelta {
                pre_len: t.len(),
                deleted: vec![(drop, t.row_at(drop).unwrap().clone())],
                inserted: add.iter().map(|&i| vec![Value::Int(i)]).collect(),
            };
            t.apply_delta(&delta).unwrap()
        };
        let masked = |t: &Table| t.chunks.len() > 1 && t.chunks.iter().any(|c| c.mask.is_some());
        let mut db = Database::new("d");
        db.put_table(install(&keyed(3 * SEGMENT_ROWS as i64), 5, &[-1]));
        let exec = Executor::new();
        let mut plan = DeltaPlan::init(&Plan::scan("revs"), &db, &exec).unwrap();
        let t = db.table("revs").unwrap();
        assert!(masked(t));
        assert!(plan.output().unwrap().same_storage(t));

        // No change claimed but the length moved: the wholesale fallback.
        let next = install(t, SEGMENT_ROWS + 1, &[-2, -3]);
        db.put_table(next);
        let change = plan.refresh(&db, &TableChanges::new(), &exec).unwrap();
        let t = db.table("revs").unwrap();
        assert!(masked(t));
        assert!(matches!(change, Change::Full(full) if full.same_storage(t)));
    }

    fn keyed(n: i64) -> Table {
        let schema = Schema::new("revs", vec![Column::required("id", DataType::Int)])
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap();
        Table::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)])).unwrap()
    }

    #[test]
    fn delete_heavy_batch_patches_pk_overlay_without_rebuild() {
        // A delete-heavy revision batch: drop most of a shared table and
        // check lookups stay correct while untouched storage is shared.
        let base = keyed(1000);
        let mut t = base.clone();
        assert_eq!(t.delete_where(|r| r[0] != Value::Int(7)).unwrap(), 999);
        assert_eq!(t.len(), 1);
        assert!(t.get_by_key(&[Value::Int(7)]).is_some());
        assert!(t.get_by_key(&[Value::Int(8)]).is_none());
        assert_eq!(t.row_at(0).unwrap()[0], Value::Int(7));
        // The base table is untouched and still shares its backing: the
        // delete only added a mask, never copied or re-hashed rows.
        assert_eq!(base.len(), 1000);
        assert!(base.get_by_key(&[Value::Int(8)]).is_some());
        assert!(Arc::ptr_eq(&t.chunks[0].rows, &base.chunks[0].rows));
        assert!(Arc::ptr_eq(&t.pk_base, &base.pk_base));
        assert!(!t.pk_overlay.is_empty(), "deletes land in the overlay");
    }

    #[test]
    fn apply_delta_shares_untouched_chunks() {
        let base = keyed(100);
        let delta = TableDelta {
            pre_len: 100,
            deleted: vec![(3, vec![Value::Int(3)]), (50, vec![Value::Int(50)])],
            inserted: vec![vec![Value::Int(200)], vec![Value::Int(201)]],
        };
        let next = base.apply_delta(&delta).unwrap();
        assert_eq!(next.len(), 100);
        assert!(next.get_by_key(&[Value::Int(3)]).is_none());
        assert!(next.get_by_key(&[Value::Int(200)]).is_some());
        assert!(Arc::ptr_eq(&next.chunks[0].rows, &base.chunks[0].rows));
        let flat: Vec<Row> = next.iter_rows().cloned().collect();
        let expect: Vec<Row> = (0..100)
            .filter(|&i| i != 3 && i != 50)
            .map(|i| vec![Value::Int(i)])
            .chain([vec![Value::Int(200)], vec![Value::Int(201)]])
            .collect();
        assert_eq!(flat, expect);
        assert_eq!(
            next.rows_from(97),
            vec![
                vec![Value::Int(99)],
                vec![Value::Int(200)],
                vec![Value::Int(201)],
            ]
        );
        assert_eq!(next.key_position(&[Value::Int(201)]).unwrap().0, 99);
    }

    #[test]
    fn apply_delta_refuses_unordered_ordinals() {
        // Each `(pos, row)` matches the table, so only the order is wrong:
        // descending, then repeated. Either must be refused whole, not
        // read as some other set of rows.
        let base = keyed(10);
        let at = |p: usize| (p, base.row_at(p).unwrap().clone());
        for deleted in [vec![at(5), at(2)], vec![at(3), at(3)]] {
            let delta = TableDelta {
                pre_len: 10,
                deleted,
                inserted: vec![],
            };
            let err = base.apply_delta(&delta).unwrap_err();
            assert!(matches!(err, RelError::Plan(_)), "{err}");
        }
        assert_eq!(base, keyed(10));
        assert!((0..10).all(|i| base.get_by_key(&[Value::Int(i)]).is_some()));
    }

    #[test]
    fn apply_delta_duplicate_insert_matches_rebuild_error() {
        let base = keyed(10);
        let delta = TableDelta {
            pre_len: 10,
            deleted: vec![],
            inserted: vec![vec![Value::Int(4)]],
        };
        let err = base.apply_delta(&delta).unwrap_err();
        let mut rows: Vec<Row> = base.iter_rows().cloned().collect();
        rows.push(vec![Value::Int(4)]);
        let rebuilt = Table::from_rows(base.schema().clone(), rows).unwrap_err();
        assert_eq!(err.to_string(), rebuilt.to_string());
    }

    #[test]
    fn apply_delta_deleting_deleted_position_tracks_visible_order() {
        let base = keyed(6);
        let d1 = TableDelta {
            pre_len: 6,
            deleted: vec![(2, vec![Value::Int(2)])],
            inserted: vec![],
        };
        let t1 = base.apply_delta(&d1).unwrap();
        // Visible order is now 0,1,3,4,5: position 2 is row `3`.
        let d2 = TableDelta {
            pre_len: 5,
            deleted: vec![(2, vec![Value::Int(3)])],
            inserted: vec![],
        };
        let t2 = t1.apply_delta(&d2).unwrap();
        let flat: Vec<Row> = t2.iter_rows().cloned().collect();
        assert_eq!(
            flat,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(4)],
                vec![Value::Int(5)],
            ]
        );
    }

    /// A plain-vector model of a keyed table under the same deltas.
    fn apply_to_model(model: &mut Vec<Row>, delta: &TableDelta) {
        for (pos, row) in delta.deleted.iter().rev() {
            assert_eq!(&model.remove(*pos), row);
        }
        model.extend(delta.inserted.iter().cloned());
    }

    fn assert_matches_model(t: &Table, model: &[Row]) {
        assert_eq!(t.len(), model.len());
        assert!(t.iter_rows().eq(model.iter()), "row content diverged");
        for (pos, row) in model.iter().enumerate().step_by(model.len() / 97 + 1) {
            assert_eq!(t.row_at(pos), Some(row));
            assert_eq!(t.key_position(&row[..1]), Some((pos, row)));
            assert_eq!(t.get_by_key(&row[..1]), Some(row));
        }
        assert_eq!(t.row_at(model.len()), None);
    }

    #[test]
    fn single_row_installs_merge_geometrically() {
        // One chunk per install is the shape `DeltaCatalog::insert` and
        // `audit_revise` produce; the chunk list must stay logarithmic.
        let mut t = keyed(0);
        let mut older = Vec::new();
        for i in 0..1000 {
            let delta = TableDelta {
                pre_len: t.len(),
                deleted: vec![],
                inserted: vec![vec![Value::Int(i)]],
            };
            let next = t.apply_delta(&delta).unwrap();
            older.push(std::mem::replace(&mut t, next));
            let layout = t.layout();
            assert!(layout.within_bounds(), "install {i}: {layout:?}");
            assert!(layout.chunks <= MAX_SMALL_RUN, "install {i}: {layout:?}");
            assert_eq!(layout.scan_parts, layout.chunks);
        }
        let model: Vec<Row> = (0..1000).map(|i| vec![Value::Int(i)]).collect();
        assert_matches_model(&t, &model);
        // Every older generation still reads its own rows.
        assert_matches_model(&older[500], &model[..500]);
    }

    #[test]
    fn mixed_installs_stay_within_the_layout_bounds() {
        // The engine fixture's shape: a base chunk past the small
        // threshold, then installs of 8 inserts, 2 amendments (delete +
        // re-insert) of scattered rows, and a retirement of the oldest.
        let base = SMALL_CHUNK_ROWS as i64 * 2;
        let mut t = keyed(base);
        let mut model: Vec<Row> = t.iter_rows().cloned().collect();
        let mut next_id = base;
        let mut rng = 0x5EED_u64;
        for install in 0..1000 {
            let mut positions = vec![0usize];
            while positions.len() < 3 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let p = (rng >> 33) as usize % model.len();
                if !positions.contains(&p) {
                    positions.push(p);
                }
            }
            positions.sort_unstable();
            let delta = TableDelta {
                pre_len: model.len(),
                deleted: positions.iter().map(|&p| (p, model[p].clone())).collect(),
                inserted: (0..10).map(|k| vec![Value::Int(next_id + k)]).collect(),
            };
            next_id += 10;
            t = t.apply_delta(&delta).unwrap();
            apply_to_model(&mut model, &delta);
            let layout = t.layout();
            assert!(layout.within_bounds(), "install {install}: {layout:?}");
            if install % 100 == 99 {
                assert_matches_model(&t, &model);
            }
        }
        // 2 000 scattered deletes hit the two base chunks (far more than
        // the run cap admits): neither ever ran past it.
        assert!(t.chunks.iter().all(|c| c.run_count() <= MAX_LIVE_RUNS));
        assert_matches_model(&t, &model);
    }

    /// A keyless twin of [`keyed`].
    fn keyless(n: i64) -> Table {
        let schema = Schema::new("revs", vec![Column::required("id", DataType::Int)]).unwrap();
        Table::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)])).unwrap()
    }

    /// Deterministic stream for the patch suites.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            (self.0 >> 33) as usize % n
        }
    }

    /// `k` distinct ascending ordinals below `n`.
    fn ordinals(rng: &mut Lcg, k: usize, n: usize) -> Vec<usize> {
        let mut picked = Vec::new();
        while picked.len() < k.min(n) {
            let p = rng.below(n);
            if !picked.contains(&p) {
                picked.push(p);
            }
        }
        picked.sort_unstable();
        picked
    }

    #[test]
    fn apply_patch_matches_the_vector_model() {
        // `Patch::apply` over a plain vector is the model. Random patches:
        // deletes anywhere, insert groups mid-table, at a deleted ordinal
        // and at the append point; every third round deletes exactly the
        // rows the round before inserted. Keyed tables take the same
        // patches (a mid-table insert rebuilds them wholesale).
        for is_keyed in [false, true] {
            let n = SEGMENT_ROWS as i64 + 500;
            let mut t = if is_keyed { keyed(n) } else { keyless(n) };
            let mut model: Vec<Row> = t.iter_rows().cloned().collect();
            let mut rng = Lcg(if is_keyed { 0xC0FFEE } else { 0x5EED });
            let mut next_id = n;
            let mut fresh: Vec<usize> = Vec::new();
            for round in 0..120 {
                let len = model.len();
                let deleted = if round % 3 == 2 && !fresh.is_empty() {
                    std::mem::take(&mut fresh)
                } else {
                    let k = rng.below(4);
                    ordinals(&mut rng, k, len)
                };
                let mut at = {
                    let k = rng.below(3);
                    ordinals(&mut rng, k, len)
                };
                if let Some(&d) = deleted.first() {
                    if !at.contains(&d) && round % 2 == 0 {
                        at.push(d);
                        at.sort_unstable();
                    }
                }
                if round % 4 != 3 {
                    at.push(len);
                }
                let inserted: Vec<(usize, Vec<Row>)> = at
                    .iter()
                    .map(|&pos| {
                        let rows = (0..1 + rng.below(3))
                            .map(|_| {
                                next_id += 1;
                                vec![Value::Int(next_id)]
                            })
                            .collect();
                        (pos, rows)
                    })
                    .collect();
                let patch = Patch::new(deleted, inserted).unwrap();
                let next = t.apply_patch(&patch).unwrap();
                let before = model.clone();
                model = patch.apply(model);
                // Where this round's rows sit in the new state.
                fresh = model
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| patch.new_rows().any(|n| n == *r))
                    .map(|(i, _)| i)
                    .collect();
                assert!(next.iter_rows().eq(model.iter()), "round {round}");
                assert!(
                    t.iter_rows().eq(before.iter()),
                    "round {round}: old generation moved"
                );
                let layout = next.layout();
                assert!(layout.within_bounds(), "round {round}: {layout:?}");
                t = next;
            }
            if is_keyed {
                assert_matches_model(&t, &model);
            }
        }
    }

    #[test]
    fn single_row_patches_stay_within_the_layout_bounds() {
        let mut t = keyless(2 * SMALL_CHUNK_ROWS as i64);
        let mut model: Vec<Row> = t.iter_rows().cloned().collect();
        let mut rng = Lcg(7);
        for i in 0..1000 {
            let pos = rng.below(model.len());
            let patch = match i % 3 {
                0 => Patch::new(vec![pos], vec![]),
                1 => Patch::new(vec![], vec![(pos, vec![vec![Value::Int(-i)]])]),
                // Replace in place: the shape a pivot emits for a revised group.
                _ => Patch::new(vec![pos], vec![(pos, vec![vec![Value::Int(-i)]])]),
            }
            .unwrap();
            t = t.apply_patch(&patch).unwrap();
            model = patch.apply(model);
            let layout = t.layout();
            assert!(layout.within_bounds(), "patch {i}: {layout:?}");
        }
        assert!(t.iter_rows().eq(model.iter()));
        assert!(t.chunks.iter().all(|c| c.run_count() <= MAX_LIVE_RUNS));
    }

    #[test]
    fn apply_patch_shares_untouched_chunks_and_their_seals() {
        let n = SEGMENT_ROWS;
        let base = keyless(3 * n as i64 + 10);
        base.segments();
        assert_eq!((base.layout().chunks, base.unsealed_rows()), (4, 0));
        let row = |i: i64| vec![Value::Int(i)];
        let patch = Patch::new(
            vec![5],
            vec![
                (2 * n + 100, vec![row(-1), row(-2)]),
                (3 * n, vec![row(-3)]),
                (3 * n + 10, vec![row(-4)]),
            ],
        )
        .unwrap();
        let next = base.apply_patch(&patch).unwrap();
        let model = patch.apply(base.iter_rows().cloned().collect());
        assert!(next.iter_rows().eq(model.iter()));
        let same =
            |a: &Chunk, b: &Chunk| Arc::ptr_eq(&a.rows, &b.rows) && (a.lo, a.hi) == (b.lo, b.hi);
        // Deleted from: the chunk and its seal stay, a mask appears.
        assert!(same(&next.chunks[0], &base.chunks[0]) && next.chunks[0].mask.is_some());
        assert!(Arc::ptr_eq(&next.chunks[0].seal, &base.chunks[0].seal));
        // Untouched: shared whole.
        assert!(same(&next.chunks[1], &base.chunks[1]) && next.chunks[1].mask.is_none());
        assert!(Arc::ptr_eq(&next.chunks[1].seal, &base.chunks[1].seal));
        // Cut at the mid-chunk insert: two windows over the old backing
        // around the new rows, no row copied, both to be sealed afresh.
        let (left, mid, right) = (&next.chunks[2], &next.chunks[3], &next.chunks[4]);
        assert!(Arc::ptr_eq(&left.rows, &base.chunks[2].rows));
        assert!(Arc::ptr_eq(&right.rows, &base.chunks[2].rows));
        assert_eq!((left.len(), mid.len(), right.len()), (100, 2, n - 100));
        // An insert at a chunk boundary cuts nothing; the new row in
        // front of the 10-row tail folds into it (small chunks merge).
        // Built: two cut pieces, the spliced rows, the 11-row merge, the
        // appended row.
        assert_eq!(next.layout().chunks, 7);
        assert_eq!(next.chunks_not_in(&base), 5);
        assert_eq!(next.unsealed_rows(), n + 2 + 12);
        assert!(next.layout().within_bounds());
        // A bare append on a sealed table builds exactly one chunk.
        let appended = base
            .apply_patch(&Patch::new(vec![], vec![(base.len(), vec![row(-5)])]).unwrap())
            .unwrap();
        assert_eq!(appended.chunks_not_in(&base), 1);
        assert_eq!(appended.unsealed_rows(), 1);
    }

    #[test]
    fn layout_repair_moves_the_rows_of_a_scanned_chunk_it_alone_holds() {
        // A scan's shell holds the chunk's backing; once the table is the
        // only holder again, a rewrite past the run cap still moves the
        // rows (the same heap strings) instead of cloning them.
        let schema = Schema::new("t", vec![Column::new("s", DataType::Text)]).unwrap();
        let rows = (0..2 * SMALL_CHUNK_ROWS).map(|i| vec![Value::text(format!("r{i}"))]);
        let mut t = Table::from_rows(schema, rows).unwrap();
        t.segments().segments()[0].column(0);
        assert_eq!(t.layout().imaged_columns, 1);
        let heap = |t: &Table, pos: usize| match &t.row_at(pos).unwrap()[0] {
            Value::Text(s) => s.as_ptr(),
            _ => unreachable!(),
        };
        let kept = heap(&t, 1);
        let scattered: Vec<usize> = (0..2 * MAX_LIVE_RUNS + 2).step_by(2).collect();
        t.patch(&Patch::new(scattered, vec![]).unwrap()).unwrap();
        assert_eq!(t.chunks[0].run_count(), 1, "rewritten past the run cap");
        assert_eq!(t.row_at(0).unwrap()[0], Value::text("r1"));
        assert_eq!(heap(&t, 0), kept, "the repair cloned the rows");
    }

    #[test]
    fn apply_patch_errors_are_the_rebuilds() {
        let rebuilt = |t: &Table, patch: &Patch| {
            Table::from_rows(
                t.schema().clone(),
                patch.apply(t.iter_rows().cloned().collect()),
            )
            .unwrap_err()
            .to_string()
        };
        // A type violation behind a valid row, keyless and mid-table.
        let t = keyless(10);
        let patch = Patch::new(
            vec![],
            vec![(4, vec![vec![Value::Int(-1)], vec![Value::text("x")]])],
        )
        .unwrap();
        assert_eq!(
            t.apply_patch(&patch).unwrap_err().to_string(),
            rebuilt(&t, &patch)
        );
        // A duplicate key: appended, and mid-table in front of its twin —
        // where the rebuild meets the *retained* row second.
        let t = keyed(10);
        for pos in [10, 2] {
            let patch = Patch::new(
                vec![0],
                vec![(pos, vec![vec![Value::Int(0)], vec![Value::Int(7)]])],
            )
            .unwrap();
            assert_eq!(
                t.apply_patch(&patch).unwrap_err().to_string(),
                rebuilt(&t, &patch)
            );
        }
        // A patch that fails leaves the table it was applied to in place
        // exactly as it was, mask bits included.
        let mut held = t.clone();
        let bad = Patch::new(vec![1, 5], vec![(10, vec![vec![Value::Int(9)]])]).unwrap();
        assert!(held.patch(&bad).is_err());
        assert!(held.same_storage(&t) && held.get_by_key(&[Value::Int(5)]).is_some());
        // Re-inserting a key the same patch deleted is no duplicate.
        let patch = Patch::new(vec![3], vec![(10, vec![vec![Value::Int(3)]])]).unwrap();
        let next = t.apply_patch(&patch).unwrap();
        assert_eq!(next.key_position(&[Value::Int(3)]).unwrap().0, 9);
        // Out of range is a plan error, not a panic.
        assert!(t
            .apply_patch(&Patch::new(vec![10], vec![]).unwrap())
            .is_err());
    }

    #[test]
    fn dead_and_fragmented_chunks_are_repaired_in_place() {
        let n = 2 * SEGMENT_ROWS as i64 + 10;
        let odd_head = |i: &i64| *i < 2000 && i % 2 == 1;
        let mut t = keyed(n);
        assert_eq!(t.layout().chunks, 3);
        let tail_addr = t.lookup_addr(&[Value::Int(n - 1)]).unwrap();
        // Fragment the first chunk past the run cap: it is rewritten
        // (one run again), the other chunks keep their storage.
        let before = t.clone();
        t.delete_where(|r| matches!(r[0], Value::Int(i) if odd_head(&i)))
            .unwrap();
        assert_eq!(t.chunks[0].run_count(), 1);
        assert!(t.chunks[0].mask.is_none());
        assert!(Arc::ptr_eq(&t.chunks[1].rows, &before.chunks[1].rows));
        // Kill the whole middle chunk: it is dropped, and rows behind it
        // keep their addresses — no index entry of theirs was touched.
        let (lo, hi) = (SEGMENT_ROWS as i64, 2 * SEGMENT_ROWS as i64);
        t.delete_where(|r| matches!(r[0], Value::Int(i) if (lo..hi).contains(&i)))
            .unwrap();
        assert_eq!(t.lookup_addr(&[Value::Int(n - 1)]), Some(tail_addr));
        let model: Vec<Row> = (0..n)
            .filter(|i| !odd_head(i) && !(lo..hi).contains(i))
            .map(|i| vec![Value::Int(i)])
            .collect();
        assert_matches_model(&t, &model);
        // The 10-row tail is small and now borders nothing small: 2 chunks.
        let layout = t.layout();
        assert_eq!((layout.chunks, layout.scan_parts), (2, 2), "{layout:?}");
        assert!(layout.within_bounds());
        // Deleting everything leaves no chunk behind, and the table still
        // takes inserts.
        t.delete_where(|_| true).unwrap();
        assert_eq!(t.layout().chunks, 0);
        t.insert(vec![Value::Int(7)]).unwrap();
        assert_matches_model(&t, &[vec![Value::Int(7)]]);
        // The clone taken before any of it is untouched.
        assert_eq!(before.len(), n as usize);
        assert_eq!(before.row_at(1), Some(&vec![Value::Int(1)]));
    }

    #[test]
    fn live_runs_agree_with_the_mask_bit_by_bit() {
        // Window lengths around the word boundary, with dead bits at the
        // edges, so padding and carry handling are both exercised.
        for len in [1usize, 63, 64, 65, 130] {
            for dead in [
                vec![],
                vec![0],
                vec![len - 1],
                vec![0, len - 1],
                (0..len).collect(),
            ] {
                let rows: Vec<Row> = (0..len as i64).map(|i| vec![Value::Int(i)]).collect();
                let mut c = Chunk::window(Arc::new(rows), 0, len, 0);
                for &off in &dead {
                    if !c.is_dead(off) {
                        c.mark_dead(off);
                    }
                }
                let mut want = Vec::new();
                let mut off = 0;
                while off < len {
                    if c.is_dead(off) {
                        off += 1;
                        continue;
                    }
                    let from = off;
                    while off < len && !c.is_dead(off) {
                        off += 1;
                    }
                    want.push((from, off));
                }
                assert_eq!(c.live_runs(), want, "len {len}, dead {dead:?}");
                assert_eq!(c.run_count(), want.len(), "len {len}, dead {dead:?}");
            }
        }
    }
}
