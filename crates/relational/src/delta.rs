//! Delta capture and differential plan evaluation.
//!
//! This module is the relational half of the warehouse's incremental
//! refresh path (DESIGN.md §12). It has three layers:
//!
//! 1. **Change capture** — [`DeltaCatalog`] wraps a [`Catalog`] and records
//!    every mutation as a per-table [`TableDelta`]: the set of deleted
//!    pre-state rows (by ordinal) plus the list of inserted rows. Updates
//!    are captured as delete + re-insert, so under the **canonical merge**
//!    an updated row moves to the end of its table. That merge — retained
//!    pre-state rows in their original order, then inserted rows in
//!    insertion order — is the documented deterministic row order every
//!    refresh consumer reproduces.
//! 2. **Differential operators** — [`DeltaPlan`] caches per-operator state
//!    for a [`Plan`] and, given a [`Change`] per scanned table, produces
//!    the output's change without recomputing unchanged rows.
//!    Select/Project map delta rows element-wise through the session
//!    executor (so delta batches run the same stage walk as full
//!    runs), Rename passes changes through untouched, Union shifts
//!    each child's change by the child's offset (only child *lengths*
//!    are kept; a replaced child becomes a delete-range plus an insert
//!    beside its siblings' patches), hash Join re-probes only delta left rows
//!    against the retained build side, and Aggregate/Pivot maintain group
//!    state with retraction where it is exact (COUNT, and SUM/AVG over
//!    INT columns) and per-group recompute where it is lossy (MIN/MAX,
//!    FLOAT sums). Sort/Distinct/Limit/Unpivot recompute from patched
//!    cached inputs.
//! 3. **Correctness bar** — a refreshed output is **byte-identical** to a
//!    from-scratch rebuild: same rows, same order, and the same first
//!    error. Retained rows can never raise an error (the previous run
//!    already evaluated them with the same expressions), so checking delta
//!    rows in input order reproduces the rebuild's first error; on any
//!    error the plan is *poisoned* and the next refresh falls back to full
//!    re-initialization.
//!
//! Refresh cost is **O(delta · log n)**, not O(n) (DESIGN.md §15):
//! Select positions are maintained by a rank index
//! ([`crate::rank::RankList`] — weight 1 per predicate-passing child
//! row, so a prefix-weight query turns a child position into an output
//! rank), and Aggregate/Pivot group order by a persistent
//! first-occurrence index ([`crate::rank::FirstSeenIndex`]), including
//! group death, revival, and first-occurrence promotion. The plan's
//! cached output is a persistent [`Table`] that takes the same patch
//! ([`Table::patch`]): O(delta) whoever else holds the previous
//! generation, and in place when nobody does — so landing a refresh is a
//! step with a delta form too, and the output a consumer lands
//! ([`DeltaPlan::output`]) shares the cache's storage instead of copying
//! it.
//!
//! # Worked example: one insert, one delete, through a grouped plan
//!
//! ```
//! use guava_relational::prelude::*;
//!
//! let schema = Schema::new("visits", vec![
//!     Column::required("id", DataType::Int),
//!     Column::new("site", DataType::Text),
//! ]).unwrap().with_primary_key(&["id"]).unwrap();
//! let mut db = Database::new("clinic");
//! db.create_table(Table::from_rows(schema, vec![
//!     vec![Value::Int(1), Value::text("a")],
//!     vec![Value::Int(2), Value::text("b")],
//!     vec![Value::Int(3), Value::text("a")],
//! ]).unwrap()).unwrap();
//! let mut cat = Catalog::new();
//! cat.insert(db);
//!
//! // Count visits per site; group order = first occurrence: [a, b].
//! let plan = Plan::scan("visits").aggregate(&["site"], vec![Aggregate {
//!     func: AggFunc::CountAll, alias: "n".into(),
//! }]);
//! let exec = Executor::new();
//! let mut dp = DeltaPlan::init(&plan, cat.database("clinic").unwrap(), &exec).unwrap();
//! assert_eq!(dp.len(), 2);
//!
//! // Capture one insert and one delete through the DeltaCatalog. Site
//! // "b" loses its only row (group death); site "c" is born.
//! let mut dc = DeltaCatalog::new(cat);
//! dc.insert("clinic", "visits", vec![Value::Int(4), Value::text("c")]).unwrap();
//! dc.delete_where("clinic", "visits", |r| r[0] == Value::Int(2)).unwrap();
//! let deltas = dc.take_deltas();
//! let mut changes = TableChanges::new();
//! changes.set("visits", deltas.get("clinic", "visits").unwrap().to_change());
//! let cat = dc.into_inner();
//!
//! // Refresh patches the cached state: "b" is deleted at its old rank,
//! // "c" appends at the end — no retained group is recomputed.
//! let db = cat.database("clinic").unwrap();
//! dp.refresh(db, &changes, &exec).unwrap();
//! let out = dp.output().unwrap();
//! assert_eq!(out.rows().iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
//!            vec![Value::text("a"), Value::text("c")]);
//! // Byte-identical to a from-scratch run on the merged state:
//! assert_eq!(out, exec.execute(&plan, db).unwrap());
//! ```

use crate::algebra::{
    aggregate_output_schema, check_union_compatible, join_output_schema, keyless, pivot_cell,
    pivot_output_schema, resolve_aggregate_columns, resolve_column, resolve_columns, sort_rows,
    unpivot_output_schema, unpivot_rows, AggAcc, AggFunc, Aggregate, JoinKind, PivotCell, Plan,
};
use crate::database::{Catalog, Database};
use crate::error::{RelError, RelResult};
use crate::exec::Executor;
use crate::expr::Expr;
use crate::rank::{FirstSeenIndex, InsertOutcome, RankList, RemoveOutcome};
use crate::schema::{Column, Schema};
use crate::table::{Row, Table};
use crate::value::{DataType, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// Patches: positional edits against a known previous row vector.
// ---------------------------------------------------------------------------

/// A positional edit script against a row vector of known length.
///
/// Positions are **pre-state** ordinals. Applying a patch walks the old
/// rows once: at each old position `i` (and at `i == old_len`, the append
/// point) the rows of the insert group at `i` are emitted first, then the
/// old row itself unless `i` is deleted. A "replace in place" is therefore
/// expressed as delete-at-`i` plus insert-at-`i`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Patch {
    /// Deleted pre-state ordinals, strictly ascending.
    deleted: Vec<usize>,
    /// Insert groups `(position, rows)`, strictly ascending by position;
    /// each group's rows are emitted in order before old row `position`.
    inserted: Vec<(usize, Vec<Row>)>,
}

impl Patch {
    /// Build a patch from raw parts, validating the ordering invariants.
    pub fn new(deleted: Vec<usize>, inserted: Vec<(usize, Vec<Row>)>) -> RelResult<Patch> {
        if !deleted.windows(2).all(|w| w[0] < w[1]) {
            return Err(RelError::Plan(
                "patch deleted ordinals must be strictly ascending".into(),
            ));
        }
        if !inserted.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(RelError::Plan(
                "patch insert positions must be strictly ascending".into(),
            ));
        }
        Ok(Patch { deleted, inserted })
    }

    /// Deleted pre-state ordinals (strictly ascending).
    pub fn deleted(&self) -> &[usize] {
        &self.deleted
    }

    /// Insert groups `(position, rows)` (strictly ascending by position).
    pub fn inserted(&self) -> &[(usize, Vec<Row>)] {
        &self.inserted
    }

    /// True when the patch performs no edit at all.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.inserted.is_empty()
    }

    /// Number of rows this patch deletes.
    pub fn rows_deleted(&self) -> usize {
        self.deleted.len()
    }

    /// Number of rows this patch inserts.
    pub fn rows_inserted(&self) -> usize {
        self.inserted.iter().map(|(_, rows)| rows.len()).sum()
    }

    /// Whether every position refers into a row vector of `old_len` rows.
    pub fn valid_for(&self, old_len: usize) -> bool {
        self.deleted.last().is_none_or(|&d| d < old_len)
            && self.inserted.last().is_none_or(|&(p, _)| p <= old_len)
    }

    /// Length of the row vector after applying this patch to `old_len` rows.
    pub fn new_len(&self, old_len: usize) -> usize {
        old_len - self.rows_deleted() + self.rows_inserted()
    }

    /// Inserted rows in patch-event order — which is exactly their relative
    /// order in the post-state row vector.
    pub fn new_rows(&self) -> impl Iterator<Item = &Row> {
        self.inserted.iter().flat_map(|(_, rows)| rows.iter())
    }

    /// Apply the edit script to the old rows.
    pub fn apply(&self, old: Vec<Row>) -> Vec<Row> {
        let old_len = old.len();
        debug_assert!(self.valid_for(old_len), "patch out of range");
        let mut out = Vec::with_capacity(self.new_len(old_len));
        let mut del = self.deleted.iter().peekable();
        let mut ins = self.inserted.iter().peekable();
        for (i, row) in old.into_iter().enumerate() {
            if ins.peek().is_some_and(|(p, _)| *p == i) {
                out.extend(ins.next().expect("peeked").1.iter().cloned());
            }
            if del.peek() == Some(&&i) {
                del.next();
            } else {
                out.push(row);
            }
        }
        if ins.peek().is_some_and(|(p, _)| *p == old_len) {
            out.extend(ins.next().expect("peeked").1.iter().cloned());
        }
        out
    }

    /// Apply the edit script in place. Equivalent to [`Patch::apply`] but
    /// reuses the existing allocation when every insert lands at the
    /// append point — the common shape for base-table deltas (scattered
    /// deletes plus appended rows). Arbitrary insert positions fall back
    /// to the rebuilding [`Patch::apply`].
    pub fn apply_in_place(&self, rows: &mut Vec<Row>) {
        let old_len = rows.len();
        debug_assert!(self.valid_for(old_len), "patch out of range");
        if self.inserted.iter().any(|(p, _)| *p < old_len) {
            *rows = self.apply(std::mem::take(rows));
            return;
        }
        if !self.deleted.is_empty() {
            let mut del = self.deleted.iter().peekable();
            let mut i = 0usize;
            rows.retain(|_| {
                let dead = del.peek() == Some(&&i);
                if dead {
                    del.next();
                }
                i += 1;
                !dead
            });
        }
        for (_, grp) in &self.inserted {
            rows.extend(grp.iter().cloned());
        }
    }
}

/// How one table (or one plan's output) changed between two states.
///
/// A wholesale replacement carries the complete new state as `F`. Across
/// a [`DeltaPlan`]'s boundary that is a [`Table`] sharing its storage with
/// whoever produced it — the plan's cached output, a landed ETL target —
/// so a `Full` costs O(#chunks) to hand on, never a copy of the rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Change<F = Table> {
    /// Byte-identical to the previous state.
    Unchanged,
    /// Positional edit script against the previous state.
    Patch(Patch),
    /// Replaced wholesale; carries the complete new state.
    Full(F),
}

impl<F> Change<F> {
    /// True for [`Change::Unchanged`].
    pub fn is_unchanged(&self) -> bool {
        matches!(self, Change::Unchanged)
    }
}

impl Change {
    /// Apply the change to a mirrored row vector in place.
    pub fn apply_to(&self, rows: &mut Vec<Row>) {
        match self {
            Change::Unchanged => {}
            Change::Patch(p) => p.apply_in_place(rows),
            Change::Full(new) => *rows = new.rows_from(0),
        }
    }
}

/// A change on its way from one operator of a [`DeltaPlan`] to its
/// parent: a wholesale replacement is an owned row vector, which the
/// parent consumes.
type Flow = Change<Vec<Row>>;

impl Flow {
    /// Apply the change to an operator's cached input rows in place.
    fn apply_to(self, rows: &mut Vec<Row>) {
        match self {
            Change::Unchanged => {}
            Change::Patch(p) => p.apply_in_place(rows),
            Change::Full(new) => *rows = new,
        }
    }
}

/// Incrementally assembles a [`Patch`]; positions must arrive
/// non-decreasing. Same-position insert groups merge in push order.
#[derive(Default)]
struct PatchBuilder {
    deleted: Vec<usize>,
    inserted: Vec<(usize, Vec<Row>)>,
}

impl PatchBuilder {
    fn delete(&mut self, pos: usize) {
        debug_assert!(self.deleted.last().is_none_or(|&d| d < pos));
        self.deleted.push(pos);
    }

    fn insert(&mut self, pos: usize, row: Row) {
        match self.inserted.last_mut() {
            Some((p, rows)) if *p == pos => rows.push(row),
            last => {
                debug_assert!(last.is_none_or(|(p, _)| *p < pos));
                self.inserted.push((pos, vec![row]));
            }
        }
    }

    fn insert_rows(&mut self, pos: usize, rows: Vec<Row>) {
        for row in rows {
            self.insert(pos, row);
        }
    }

    fn into_patch(self) -> Patch {
        Patch {
            deleted: self.deleted,
            inserted: self.inserted,
        }
    }

    fn into_change<F>(self) -> Change<F> {
        let patch = self.into_patch();
        if patch.is_empty() {
            Change::Unchanged
        } else {
            Change::Patch(patch)
        }
    }
}

// ---------------------------------------------------------------------------
// Captured deltas.
// ---------------------------------------------------------------------------

/// The recorded difference of one table between two capture points.
///
/// `deleted` holds `(pre-state ordinal, row)` pairs in ascending ordinal
/// order; `inserted` holds appended rows in insertion order. The canonical
/// merge ([`TableDelta::apply`]) keeps retained pre-state rows in their
/// original order and appends the inserted rows — updates captured as
/// delete + insert therefore move to the end of the table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    /// Row count of the pre-state the ordinals refer to.
    pub pre_len: usize,
    /// Deleted rows as `(pre-state ordinal, row)`, ascending by ordinal.
    pub deleted: Vec<(usize, Row)>,
    /// Rows appended after the retained pre-state rows, in order.
    pub inserted: Vec<Row>,
}

impl TableDelta {
    /// True when the delta records no change.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.inserted.is_empty()
    }

    /// Total number of row edits (deletes + inserts) recorded.
    pub fn rows_changed(&self) -> usize {
        self.deleted.len() + self.inserted.len()
    }

    /// The canonical deterministic merge: retained pre-state rows in their
    /// original order, then the inserted rows.
    pub fn apply(&self, pre: &[Row]) -> Vec<Row> {
        debug_assert_eq!(pre.len(), self.pre_len, "delta applied to wrong state");
        let dead: HashSet<usize> = self.deleted.iter().map(|&(i, _)| i).collect();
        let mut out = Vec::with_capacity(pre.len() - dead.len() + self.inserted.len());
        for (i, row) in pre.iter().enumerate() {
            if !dead.contains(&i) {
                out.push(row.clone());
            }
        }
        out.extend(self.inserted.iter().cloned());
        out
    }

    /// The delta as a positional [`Change`] over the pre-state: ordinal
    /// deletes plus one insert group at the append point.
    pub fn to_change(&self) -> Change {
        if self.is_empty() {
            return Change::Unchanged;
        }
        let mut inserted = Vec::new();
        if !self.inserted.is_empty() {
            inserted.push((self.pre_len, self.inserted.clone()));
        }
        Change::Patch(Patch {
            deleted: self.deleted.iter().map(|&(i, _)| i).collect(),
            inserted,
        })
    }
}

/// All table deltas captured between two [`DeltaCatalog::take_deltas`]
/// calls, keyed by `(database, table)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSet {
    map: BTreeMap<(String, String), TableDelta>,
}

impl DeltaSet {
    /// An empty delta set ("nothing changed").
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// True when no table changed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of changed tables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The delta for one table, if it changed.
    pub fn get(&self, db: &str, table: &str) -> Option<&TableDelta> {
        self.map.get(&(db.to_owned(), table.to_owned()))
    }

    /// Record (or replace) a table's delta.
    pub fn insert(&mut self, db: impl Into<String>, table: impl Into<String>, d: TableDelta) {
        self.map.insert((db.into(), table.into()), d);
    }

    /// Iterate `((database, table), delta)` in deterministic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &TableDelta)> {
        self.map.iter()
    }

    /// Total row edits across all tables.
    pub fn total_rows_changed(&self) -> usize {
        self.map.values().map(TableDelta::rows_changed).sum()
    }
}

/// Per-table change map for one [`DeltaPlan::refresh`] call, keyed by table
/// name within the plan's source database. Tables without an entry are
/// claimed unchanged (the plan still cross-checks schema and length).
#[derive(Debug, Clone, Default)]
pub struct TableChanges {
    map: HashMap<String, Change>,
}

impl TableChanges {
    /// Empty map: every scanned table is claimed unchanged.
    pub fn new() -> TableChanges {
        TableChanges::default()
    }

    /// Record how `table` changed.
    pub fn set(&mut self, table: impl Into<String>, change: Change) {
        self.map.insert(table.into(), change);
    }

    /// The recorded change for `table`, if any.
    pub fn get(&self, table: &str) -> Option<&Change> {
        self.map.get(table)
    }
}

/// Order-sensitive fingerprint of a table's schema and rows. Equal tables
/// always produce equal fingerprints; the workflow cache uses it as a
/// cheap pre-filter and confirms hits with a full comparison, so hash
/// collisions can never break the byte-identical refresh bar.
pub fn table_fingerprint(t: &Table) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.schema().to_string().hash(&mut h);
    t.len().hash(&mut h);
    for row in t.iter_rows() {
        row.hash(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Change capture.
// ---------------------------------------------------------------------------

/// Bookkeeping for one mutated table: a persistent pre-state snapshot
/// (a [`Table`] clone — O(#chunks), sharing all storage) plus the
/// ordinals of pre-state rows deleted so far (ascending) and the rows
/// inserted since. The table in the wrapped catalog always equals
/// `surviving pre rows (in order) ++ inserted rows` — the canonical
/// merge.
struct TrackedTable {
    pre: Table,
    deleted: Vec<usize>,
    inserted: Vec<Row>,
}

/// A change-capturing wrapper around a [`Catalog`].
///
/// All mutations must go through [`DeltaCatalog::insert`],
/// [`DeltaCatalog::delete_where`], and [`DeltaCatalog::update_where`]; each
/// is **atomic** (validation errors leave both the catalog and the recorded
/// delta untouched) and maintains the canonical merge order — in
/// particular, an update is captured as delete + re-insert, so the updated
/// row moves to the end of its table. [`DeltaCatalog::take_deltas`] drains
/// the recorded per-table deltas and starts a fresh capture window.
///
/// Reading through [`DeltaCatalog::catalog`] is always safe;
/// [`DeltaCatalog::catalog_mut`] bypasses capture and is only sound for
/// databases the capture window has not touched (e.g. ETL target
/// databases).
pub struct DeltaCatalog {
    catalog: Catalog,
    tracked: BTreeMap<(String, String), TrackedTable>,
}

impl DeltaCatalog {
    /// Wrap a catalog and start an empty capture window.
    pub fn new(catalog: Catalog) -> DeltaCatalog {
        DeltaCatalog {
            catalog,
            tracked: BTreeMap::new(),
        }
    }

    /// Read-only view of the wrapped catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Escape hatch for mutations that must not be captured (ETL loads
    /// into target databases). Mutating a table the current capture window
    /// already tracks makes the recorded delta stale — don't.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Unwrap, discarding any un-taken deltas.
    pub fn into_inner(self) -> Catalog {
        self.catalog
    }

    /// The catalog's `db.table`, ready to edit in place, and its capture
    /// bookkeeping — snapshotted on first touch in this capture window.
    fn touch(&mut self, db: &str, table: &str) -> RelResult<(&mut Table, &mut TrackedTable)> {
        let t = self.catalog.database_mut(db)?.table_mut(table)?;
        let tr = self
            .tracked
            .entry((db.to_owned(), table.to_owned()))
            .or_insert_with(|| TrackedTable {
                pre: t.clone(),
                deleted: Vec::new(),
                inserted: Vec::new(),
            });
        Ok((t, tr))
    }

    /// Append one row, validating it against the table schema (including
    /// primary-key uniqueness). Atomic: on error nothing changes. The
    /// table takes the row in place ([`Table::insert`]) and the window
    /// records it after that succeeds, so an insert copies nothing the
    /// window already holds.
    pub fn insert(&mut self, db: &str, table: &str, row: Row) -> RelResult<()> {
        let (t, tr) = self.touch(db, table)?;
        t.insert(row.clone())?;
        tr.inserted.push(row);
        Ok(())
    }

    /// Delete every live row matching `pred`; returns the count removed.
    /// Atomic like [`DeltaCatalog::insert`]: the table is patched in place
    /// first, and the window's bookkeeping follows only if that succeeds.
    pub fn delete_where(
        &mut self,
        db: &str,
        table: &str,
        pred: impl Fn(&Row) -> bool,
    ) -> RelResult<usize> {
        self.edit_where(db, table, pred, |_| Ok(None))
    }

    /// Update every live row matching `pred` by applying `f` to a copy,
    /// captured as delete + re-insert: updated rows move to the end of the
    /// table in their previous relative order (the canonical merge). This
    /// deliberately differs from [`Table::update_where`], which edits in
    /// place and records nothing. Atomic; returns the count updated.
    pub fn update_where(
        &mut self,
        db: &str,
        table: &str,
        pred: impl Fn(&Row) -> bool,
        mut f: impl FnMut(&mut Row),
    ) -> RelResult<usize> {
        let schema = self.catalog.database(db)?.table(table)?.schema().clone();
        self.edit_where(db, table, pred, |row| {
            let mut r = row.clone();
            f(&mut r);
            schema.check_row(&r)?;
            Ok(Some(r))
        })
    }

    /// Take out every live row matching `pred`, in row order, appending
    /// what `rewrite` turns each into (`None`: nothing) — one merge-walk
    /// over the window's pre-state and inserted rows, then one in-place
    /// [`Table::patch`]. `rewrite`'s first error, or the patch's (a
    /// duplicate key), leaves the table and the window as they were.
    fn edit_where(
        &mut self,
        db: &str,
        table: &str,
        pred: impl Fn(&Row) -> bool,
        mut rewrite: impl FnMut(&Row) -> RelResult<Option<Row>>,
    ) -> RelResult<usize> {
        let (t, tr) = self.touch(db, table)?;
        // Current positions of the doomed rows (`cur` counts only rows
        // still live), the pre-state ordinals the window deletes after the
        // edit, and which of the window's inserted rows stay.
        let mut doomed = Vec::new();
        let mut moved: Vec<Row> = Vec::new();
        let mut pre_deleted = Vec::with_capacity(tr.deleted.len());
        let mut dead = tr.deleted.iter().copied().peekable();
        let mut cur = 0;
        for (p, row) in tr.pre.iter_rows().enumerate() {
            if dead.next_if_eq(&p).is_some() {
                pre_deleted.push(p);
                continue;
            }
            if pred(row) {
                moved.extend(rewrite(row)?);
                pre_deleted.push(p);
                doomed.push(cur);
            }
            cur += 1;
        }
        let mut kept = Vec::with_capacity(tr.inserted.len());
        for row in &tr.inserted {
            let hit = pred(row);
            if hit {
                moved.extend(rewrite(row)?);
                doomed.push(cur);
            }
            kept.push(!hit);
            cur += 1;
        }
        let count = doomed.len();
        if count == 0 {
            return Ok(0);
        }
        let appended = if moved.is_empty() {
            Vec::new()
        } else {
            vec![(cur, moved.clone())]
        };
        t.patch(&Patch::new(doomed, appended)?)?;
        tr.deleted = pre_deleted;
        let mut i = 0;
        tr.inserted.retain(|_| {
            i += 1;
            kept[i - 1]
        });
        tr.inserted.extend(moved);
        Ok(count)
    }

    /// Drain the capture window: every touched table that actually changed
    /// yields its [`TableDelta`]; tracking restarts empty, so the next
    /// mutation snapshots the then-current state. O(delta) per table —
    /// deleted rows are fetched from the pre-state snapshot by ordinal.
    pub fn take_deltas(&mut self) -> DeltaSet {
        let mut set = DeltaSet::default();
        for ((db, table), tr) in std::mem::take(&mut self.tracked) {
            let deleted: Vec<(usize, Row)> = tr
                .deleted
                .iter()
                .map(|&i| {
                    (
                        i,
                        tr.pre.row_at(i).expect("tracked ordinal in range").clone(),
                    )
                })
                .collect();
            let delta = TableDelta {
                pre_len: tr.pre.len(),
                deleted,
                inserted: tr.inserted,
            };
            if !delta.is_empty() {
                set.insert(db, table, delta);
            }
        }
        set
    }
}

// ---------------------------------------------------------------------------
// Differential plan evaluation.
// ---------------------------------------------------------------------------

/// The result of pushing one input [`Patch`] through a
/// [`FirstSeenIndex`]: which groups were touched, the output rank each of
/// them held before the edit, and whether surviving-group order can have
/// changed. Shared by the Aggregate and Pivot differential rules.
struct FirstSeenPatch<T> {
    /// Touched group keys (keys of deleted and inserted rows), deduplicated
    /// in first-touch order.
    affected: Vec<Vec<Value>>,
    /// Pre-patch output rank of every affected key that existed.
    old_rank: HashMap<Vec<Value>, usize>,
    /// Pre-patch group count (the old output length).
    old_group_count: usize,
    /// Keys whose last occurrence vanished at some point during the patch;
    /// if such a key is live again afterwards it was *revived* and must
    /// re-enter output order at the end, like a rebuild would place it.
    died_once: HashSet<Vec<Value>>,
    /// A surviving group's first occurrence moved (deleted-first promotion
    /// or an insert in front of it): relative survivor order is no longer
    /// guaranteed and the caller must emit [`Change::Full`].
    order_broken: bool,
    /// What the index held of the deleted pre-state rows, in ascending
    /// ordinal order (for accumulator retraction).
    deleted: Vec<T>,
}

impl<T: Default> FirstSeenPatch<T> {
    /// Apply `p` to `idx`, classifying every group-order event on the way.
    /// `entries` are the patch's new rows as the index stores them —
    /// `(group key, payload)` in [`Patch::new_rows`] order. `O(delta ·
    /// log n)` plus promotion elections (see [`FirstSeenIndex::remove`]).
    fn apply(
        idx: &mut FirstSeenIndex<T>,
        p: &Patch,
        entries: Vec<(Vec<Value>, T)>,
    ) -> FirstSeenPatch<T> {
        // Pass A (read-only, pre-state coordinates): the affected key set
        // and each affected key's old rank.
        let mut affected: Vec<Vec<Value>> = Vec::new();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let deleted_keys = p.deleted().iter().map(|&i| idx.get(i).0);
        for key in deleted_keys.chain(entries.iter().map(|(key, _)| key.as_slice())) {
            if !seen.contains(key) {
                seen.insert(key.to_vec());
                affected.push(key.to_vec());
            }
        }
        let mut old_rank = HashMap::new();
        for key in &affected {
            if let Some(rk) = idx.rank_of(key) {
                old_rank.insert(key.clone(), rk);
            }
        }
        let old_group_count = idx.group_count();
        // Pass B (mutation): walk the patch events in *descending* position
        // order so every event applies at a still-valid pre-state ordinal.
        // At equal positions the delete goes first: the insert group at
        // `i` must land before old row `i`'s slot, which only works if row
        // `i` has already been taken out.
        let mut died_once = HashSet::new();
        let mut order_broken = false;
        // A promotion only breaks emission order when it moves the anchor
        // of a *continuously surviving* group; born or revived groups are
        // re-ranked from final state anyway.
        let survives = |key: &[Value], died_once: &HashSet<Vec<Value>>| {
            old_rank.contains_key(key) && !died_once.contains(key)
        };
        let mut deleted = Vec::with_capacity(p.deleted().len());
        let mut entries = entries.into_iter().rev();
        let mut di = p.deleted().len();
        let mut gi = p.inserted().len();
        while di > 0 || gi > 0 {
            let take_delete = di > 0 && (gi == 0 || p.deleted()[di - 1] >= p.inserted()[gi - 1].0);
            if take_delete {
                di -= 1;
                let (key, payload, outcome) = idx.remove(p.deleted()[di]);
                deleted.push(payload);
                match outcome {
                    RemoveOutcome::Died => {
                        died_once.insert(key.to_vec());
                    }
                    RemoveOutcome::Promoted => order_broken |= survives(&key, &died_once),
                    RemoveOutcome::Later => {}
                }
            } else {
                gi -= 1;
                // The group's rows go in back to front, each at the
                // group's position: the same sequence as front to back at
                // ascending positions, and `entries` is walked in reverse.
                let (pos, rows) = &p.inserted()[gi];
                for _ in 0..rows.len() {
                    let (key, payload) = entries.next().expect("one entry per new row");
                    let anchored = survives(&key, &died_once);
                    if idx.insert(*pos, key, payload) == InsertOutcome::Promoted {
                        order_broken |= anchored;
                    }
                }
            }
        }
        deleted.reverse();
        FirstSeenPatch {
            affected,
            old_rank,
            old_group_count,
            died_once,
            order_broken,
            deleted,
        }
    }

    /// Emit the output patch in pre-state output coordinates: deaths
    /// delete, surviving affected groups replace in place, and born or
    /// revived groups append at the old output end in their new rank
    /// order. Returns `None` when a rank patch cannot describe the edit —
    /// survivor order broke, or a (re)born group landed *between*
    /// survivors — and the caller must fall back to [`Change::Full`].
    fn emit(
        &self,
        idx: &FirstSeenIndex<T>,
        mut make_row: impl FnMut(&[Value]) -> Row,
    ) -> Option<Patch> {
        if self.order_broken {
            return None;
        }
        let mut vacated: Vec<(usize, Option<Vec<Value>>)> = Vec::new();
        let mut born: Vec<(usize, Vec<Value>)> = Vec::new();
        for key in &self.affected {
            let old = self.old_rank.get(key).copied();
            let live = idx.contains(key);
            match (old, live) {
                (Some(r), true) if !self.died_once.contains(key) => {
                    vacated.push((r, Some(key.clone())));
                }
                (Some(r), true) => {
                    // Died and revived within one patch: vacate the old
                    // slot and re-enter at the end.
                    vacated.push((r, None));
                    born.push((idx.rank_of(key).expect("live"), key.clone()));
                }
                (Some(r), false) => vacated.push((r, None)),
                (None, true) => born.push((idx.rank_of(key).expect("live"), key.clone())),
                (None, false) => {} // appeared and vanished within the patch
            }
        }
        // Every born group must rank after every survivor, or the patch
        // cannot express the reordering.
        let slots_vacated = vacated.iter().filter(|(_, k)| k.is_none()).count();
        let survivors = self.old_group_count - slots_vacated;
        if born.iter().any(|(rank, _)| *rank < survivors) {
            return None;
        }
        vacated.sort_unstable_by_key(|(r, _)| *r);
        born.sort_unstable_by_key(|(r, _)| *r);
        let mut pb = PatchBuilder::default();
        for (r, key) in vacated {
            pb.delete(r);
            if let Some(key) = key {
                pb.insert(r, make_row(&key));
            }
        }
        for (_, key) in born {
            pb.insert(self.old_group_count, make_row(&key));
        }
        Some(pb.into_patch())
    }
}

/// Rows go through the executor in slices of at most this many. The
/// executor copies and validates an inline relation once more, so a whole
/// decode input pushed through at once — a plan's first evaluation, a
/// wholesale refresh — would be resident three times over; a slice at a
/// time it is resident once, plus the slice. Large enough that a slice
/// still runs morsel-parallel.
const BATCH_ROWS: usize = 2 * crate::exec::PARALLEL_THRESHOLD;

/// Evaluate `predicate` over `rows` through the executor, returning a
/// pass/fail flag per row. A synthetic INT ordinal column (named to avoid
/// collisions) rides through the Select so surviving ordinals identify the
/// passing rows; predicate errors surface in row order, exactly as a full
/// evaluation over the same rows would report them.
fn select_batch<'r>(
    exec: &Executor,
    in_schema: &Schema,
    predicate: &Expr,
    rows: impl IntoIterator<Item = &'r Row>,
) -> RelResult<Vec<bool>> {
    let mut ord = "__delta_ord".to_owned();
    while in_schema.index_of(&ord).is_some() {
        ord.push('_');
    }
    let mut cols = in_schema.columns().to_vec();
    cols.push(Column::new(ord, DataType::Int));
    let schema = Schema::new(in_schema.name.clone(), cols)?;
    let mut passed = Vec::new();
    let mut rows = rows.into_iter().peekable();
    while rows.peek().is_some() {
        let base = passed.len();
        let slice: Vec<Row> = rows
            .by_ref()
            .take(BATCH_ROWS)
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.clone();
                r.push(Value::Int(i as i64));
                r
            })
            .collect();
        passed.resize(base + slice.len(), false);
        let plan = Plan::Values {
            schema: schema.clone(),
            rows: slice,
        }
        .select(predicate.clone());
        let out = exec.execute(&plan, &Database::new("__delta_batch__"))?;
        for r in out.iter_rows() {
            if let Some(Value::Int(i)) = r.last() {
                passed[base + *i as usize] = true;
            }
        }
    }
    Ok(passed)
}

/// Evaluate projection expressions over `rows` through the executor. Row
/// and in-row column error order match a full evaluation over these rows.
fn project_batch(
    exec: &Executor,
    in_schema: &Schema,
    columns: &[(String, Expr)],
    rows: Vec<Row>,
) -> RelResult<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    let mut rows = rows.into_iter().peekable();
    while rows.peek().is_some() {
        let plan = Plan::Values {
            schema: in_schema.clone(),
            rows: rows.by_ref().take(BATCH_ROWS).collect(),
        }
        .project(columns.to_vec());
        out.extend(
            exec.execute(&plan, &Database::new("__delta_batch__"))?
                .into_rows(),
        );
    }
    Ok(out)
}

/// Per-group accumulators plus the live row count that decides group death.
#[derive(Clone)]
struct GroupState {
    accs: Vec<AggAcc>,
    rows: i64,
}

/// Which recompute kernel a cache-and-recompute node runs.
#[derive(Clone)]
enum RecomputeKernel {
    Sort {
        idxs: Vec<usize>,
    },
    Distinct,
    Limit {
        n: usize,
    },
    Unpivot {
        key_idx: Vec<usize>,
        data_idx: Vec<usize>,
    },
}

impl RecomputeKernel {
    fn run(&self, in_schema: &Schema, rows: &[Row]) -> Vec<Row> {
        match self {
            RecomputeKernel::Sort { idxs } => {
                let mut out = rows.to_vec();
                sort_rows(&mut out, idxs);
                out
            }
            RecomputeKernel::Distinct => {
                let mut seen = HashSet::new();
                rows.iter()
                    .filter(|r| seen.insert((*r).clone()))
                    .cloned()
                    .collect()
            }
            RecomputeKernel::Limit { n } => rows.iter().take(*n).cloned().collect(),
            RecomputeKernel::Unpivot { key_idx, data_idx } => {
                unpivot_rows(in_schema, rows, key_idx, data_idx)
            }
        }
    }
}

/// One operator of a [`DeltaPlan`], holding whatever cached state its
/// differential rule needs. Mirrors [`Plan`] node for node.
#[derive(Clone)]
enum DNode {
    Scan {
        table: String,
        schema: Schema,
        len: usize,
    },
    Values,
    Select {
        input: Box<DNode>,
        in_schema: Schema,
        predicate: Expr,
        /// One entry per child row; weight 1 marks rows that pass the
        /// predicate, so `weight_before(i)` is child row `i`'s output rank
        /// in `O(log n)` and patch events splice in `O(log n)` each.
        lineage: RankList<()>,
    },
    Project {
        input: Box<DNode>,
        in_schema: Schema,
        columns: Vec<(String, Expr)>,
    },
    Rename {
        input: Box<DNode>,
    },
    Union {
        inputs: Vec<DNode>,
        /// Each child's current output length: all a child's change needs
        /// to become a change of the concatenation.
        child_lens: Vec<usize>,
        schema: Schema,
    },
    Join {
        left: Box<DNode>,
        right: Box<DNode>,
        /// The probe side's rows, for the day the build side changes and
        /// every one of them is probed again — `None` when the probe side
        /// is a stored table, which is read again then instead of being
        /// held twice.
        left_rows: Option<Vec<Row>>,
        right_rows: Vec<Row>,
        /// Build-side index: join key → right row ordinals, ascending.
        index: HashMap<Vec<Value>, Vec<usize>>,
        /// Output rows produced per left row (prefix sums give ranges).
        out_counts: Vec<usize>,
        l_idx: Vec<usize>,
        r_idx: Vec<usize>,
        r_arity: usize,
        kind: JoinKind,
    },
    Aggregate {
        input: Box<DNode>,
        /// Input rows plus persistent first-occurrence tracking: group
        /// output order is read from the index instead of a full
        /// first-seen rescan per refresh.
        rows_idx: FirstSeenIndex<Row>,
        groups: HashMap<Vec<Value>, GroupState>,
        g_idx: Vec<usize>,
        agg_idx: Vec<Option<usize>>,
        aggregates: Vec<Aggregate>,
        /// All aggregates invert exactly under retraction (COUNT, or
        /// SUM/AVG over an INT column). Otherwise affected groups recompute.
        retractable: bool,
        global: bool,
        /// Output schema, kept to validate emitted rows exactly where the
        /// rebuild's `from_rows` would (e.g. SUM over a TEXT column emits
        /// INT into a TEXT-typed output column and must fail here too).
        schema: Schema,
    },
    Pivot {
        input: Box<DNode>,
        /// One cast cell per input row, with first-occurrence tracking
        /// over the entity key (wide-row output order is entity
        /// first-seen order). The raw EAV rows are not kept: the cell is
        /// all a wide row is ever rebuilt from.
        cells: FirstSeenIndex<PivotCell>,
        key_idx: Vec<usize>,
        attr_idx: usize,
        val_idx: usize,
        attrs: Vec<(String, DataType)>,
    },
    Recompute {
        input: Box<DNode>,
        in_schema: Schema,
        in_rows: Vec<Row>,
        kernel: RecomputeKernel,
    },
}

/// Group key of a row under the GROUP BY columns.
fn row_key(row: &Row, idx: &[usize]) -> Vec<Value> {
    idx.iter().map(|&i| row[i].clone()).collect()
}

/// Fresh accumulators for one group.
fn new_group(n_aggs: usize) -> GroupState {
    GroupState {
        accs: vec![AggAcc::default(); n_aggs],
        rows: 0,
    }
}

/// Fold one row into grouped aggregate state.
fn agg_fold(
    groups: &mut HashMap<Vec<Value>, GroupState>,
    row: &Row,
    g_idx: &[usize],
    agg_idx: &[Option<usize>],
    n_aggs: usize,
) {
    let st = groups
        .entry(row_key(row, g_idx))
        .or_insert_with(|| new_group(n_aggs));
    for (idx, acc) in agg_idx.iter().zip(st.accs.iter_mut()) {
        acc.update(*idx, row);
    }
    st.rows += 1;
}

/// Build grouped state from scratch (output order lives in the
/// [`FirstSeenIndex`], not here).
fn agg_build(
    rows: &[Row],
    g_idx: &[usize],
    agg_idx: &[Option<usize>],
    n_aggs: usize,
    global: bool,
) -> HashMap<Vec<Value>, GroupState> {
    let mut groups = HashMap::new();
    if global {
        groups.insert(Vec::new(), new_group(n_aggs));
    }
    for row in rows {
        agg_fold(&mut groups, row, g_idx, agg_idx, n_aggs);
    }
    groups
}

/// Output row for one group: key values then finished aggregates.
fn agg_row(key: &[Value], st: &GroupState, aggregates: &[Aggregate]) -> Row {
    let mut row = key.to_vec();
    for (a, acc) in aggregates.iter().zip(&st.accs) {
        row.push(acc.clone().finish(&a.func));
    }
    row
}

/// All output rows in group order, read off the first-occurrence index
/// (`O(groups · log n)` — zero-weight subtrees are skipped).
fn agg_emit(
    idx: &FirstSeenIndex<Row>,
    groups: &HashMap<Vec<Value>, GroupState>,
    aggregates: &[Aggregate],
    global: bool,
) -> Vec<Row> {
    if global {
        return vec![agg_row(&[], &groups[&Vec::new()], aggregates)];
    }
    idx.keys_in_order()
        .map(|k| agg_row(k, &groups[k], aggregates))
        .collect()
}

/// The rows of an aggregate's input as its index stores them: keyed on
/// the GROUP BY columns, whole.
fn agg_entries(rows: impl IntoIterator<Item = Row>, g_idx: &[usize]) -> Vec<(Vec<Value>, Row)> {
    rows.into_iter().map(|r| (row_key(&r, g_idx), r)).collect()
}

/// The rows of a pivot's input as its index stores them — keyed on the
/// entity columns, one cast cell each — validated in input order exactly
/// as [`pivot_rows`] would.
fn pivot_entries<'r>(
    rows: impl IntoIterator<Item = &'r Row>,
    key_idx: &[usize],
    attr_idx: usize,
    val_idx: usize,
    attrs: &[(String, DataType)],
) -> RelResult<Vec<(Vec<Value>, PivotCell)>> {
    let attr_pos: HashMap<&str, usize> = attrs
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    rows.into_iter()
        .map(|r| {
            let cell = pivot_cell(r, attr_idx, val_idx, &attr_pos, attrs)?;
            Ok((row_key(r, key_idx), cell))
        })
        .collect()
}

/// One entity's wide row: its key, then per attribute the last cell
/// written among `cells` (the entity's occurrences in input order).
fn pivot_wide_row<'c>(
    key: &[Value],
    cells: impl IntoIterator<Item = &'c PivotCell>,
    n_attrs: usize,
) -> Row {
    let mut wide = key.to_vec();
    wide.extend(std::iter::repeat_n(Value::Null, n_attrs));
    for (pos, v) in cells.into_iter().flatten() {
        wide[key.len() + pos] = v.clone();
    }
    wide
}

/// Every wide row in entity first-seen order, from scratch.
fn pivot_emit(cells: &FirstSeenIndex<PivotCell>, n_attrs: usize) -> Vec<Row> {
    cells
        .keys_in_order()
        .map(|k| pivot_wide_row(k, cells.occurrences(k), n_attrs))
        .collect()
}

/// Build the hash-join build-side index over the right rows.
fn build_join_index(right_rows: &[Row], r_idx: &[usize]) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in right_rows.iter().enumerate() {
        let key = row_key(row, r_idx);
        if key.iter().any(Value::is_null) {
            continue;
        }
        index.entry(key).or_default().push(i);
    }
    index
}

/// Probe one left row against the build side, mirroring the interpreter's
/// join kernel: NULL keys never match, matches emit in right-row order,
/// and a LEFT join pads unmatched probes with NULLs.
fn probe_left(
    lrow: &Row,
    l_idx: &[usize],
    index: &HashMap<Vec<Value>, Vec<usize>>,
    right_rows: &[Row],
    r_arity: usize,
    kind: JoinKind,
) -> Vec<Row> {
    let key = row_key(lrow, l_idx);
    let matches = if key.iter().any(Value::is_null) {
        None
    } else {
        index.get(&key)
    };
    match matches {
        Some(idxs) => idxs
            .iter()
            .map(|&ri| {
                let mut row = Vec::with_capacity(lrow.len() + r_arity);
                row.extend(lrow.iter().cloned());
                row.extend(right_rows[ri].iter().cloned());
                row
            })
            .collect(),
        None if kind == JoinKind::Left => {
            let mut row = Vec::with_capacity(lrow.len() + r_arity);
            row.extend(lrow.iter().cloned());
            row.extend(std::iter::repeat_n(Value::Null, r_arity));
            vec![row]
        }
        None => Vec::new(),
    }
}

impl DNode {
    /// Evaluate `plan` bottom-up, caching per-operator state. Returns the
    /// node, its exact output schema, and its output rows — byte-identical
    /// to what the interpreter/executor produce (binding errors, row
    /// errors, and validation errors surface in the same order).
    fn init(plan: &Plan, db: &Database, exec: &Executor) -> RelResult<(DNode, Schema, Vec<Row>)> {
        match plan {
            Plan::Scan(name) => {
                let t = db.table(name)?;
                Ok((
                    DNode::Scan {
                        table: name.clone(),
                        schema: t.schema().clone(),
                        len: t.len(),
                    },
                    t.schema().clone(),
                    t.rows_from(0),
                ))
            }
            Plan::Values { schema, rows } => {
                let t = Table::from_rows(schema.clone(), rows.clone())?;
                let schema = t.schema().clone();
                Ok((DNode::Values, schema, t.into_rows()))
            }
            Plan::Select { input, predicate } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let schema = keyless(cs);
                let passed = select_batch(exec, &schema, predicate, &crows)?;
                let mut out = Vec::new();
                for (i, r) in crows.into_iter().enumerate() {
                    if passed[i] {
                        out.push(r);
                    }
                }
                let (lineage, _) =
                    RankList::from_entries(passed.iter().map(|&b| ((), u32::from(b))));
                Ok((
                    DNode::Select {
                        input: Box::new(child),
                        in_schema: schema.clone(),
                        predicate: predicate.clone(),
                        lineage,
                    },
                    schema,
                    out,
                ))
            }
            Plan::Project { input, columns } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let schema = crate::algebra::project_output_schema(&cs, columns)?;
                let in_schema = keyless(cs);
                let out = project_batch(exec, &in_schema, columns, crows)?;
                Ok((
                    DNode::Project {
                        input: Box::new(child),
                        in_schema,
                        columns: columns.clone(),
                    },
                    schema,
                    out,
                ))
            }
            Plan::Rename {
                input,
                table,
                columns,
            } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let schema = crate::algebra::rename_output_schema(&cs, table.as_deref(), columns)?;
                Ok((
                    DNode::Rename {
                        input: Box::new(child),
                    },
                    schema,
                    crows,
                ))
            }
            Plan::Union { inputs } => {
                let mut iter = inputs.iter();
                let first = iter
                    .next()
                    .ok_or_else(|| RelError::Plan("union of zero inputs".into()))?;
                let (n0, s0, r0) = DNode::init(first, db, exec)?;
                let schema = keyless(s0);
                let mut nodes = vec![n0];
                let mut child_rows = vec![r0];
                for p in iter {
                    let (n, s, r) = DNode::init(p, db, exec)?;
                    check_union_compatible(&schema, &s)?;
                    nodes.push(n);
                    child_rows.push(r);
                }
                // The union schema keeps child 0's nullability; rows of the
                // other children are the only operator outputs that can
                // fail output validation, exactly as `from_rows` reports.
                for rows in child_rows.iter().skip(1) {
                    for r in rows {
                        schema.check_row(r)?;
                    }
                }
                let child_lens = child_rows.iter().map(Vec::len).collect();
                let out: Vec<Row> = child_rows.into_iter().flatten().collect();
                Ok((
                    DNode::Union {
                        inputs: nodes,
                        child_lens,
                        schema: schema.clone(),
                    },
                    schema,
                    out,
                ))
            }
            Plan::Join {
                left,
                right,
                on,
                kind,
            } => {
                let (nl, ls, left_rows) = DNode::init(left, db, exec)?;
                let (nr, rs, right_rows) = DNode::init(right, db, exec)?;
                let l_idx = resolve_columns(&ls, on.iter().map(|(l, _)| l))?;
                let r_idx = resolve_columns(&rs, on.iter().map(|(_, r)| r))?;
                let schema = join_output_schema(&ls, &rs, *kind)?;
                let r_arity = rs.arity();
                let index = build_join_index(&right_rows, &r_idx);
                let mut out = Vec::new();
                let mut out_counts = Vec::with_capacity(left_rows.len());
                for lrow in &left_rows {
                    let outs = probe_left(lrow, &l_idx, &index, &right_rows, r_arity, *kind);
                    out_counts.push(outs.len());
                    out.extend(outs);
                }
                let left_rows = nl.stored(db).is_none().then_some(left_rows);
                Ok((
                    DNode::Join {
                        left: Box::new(nl),
                        right: Box::new(nr),
                        left_rows,
                        right_rows,
                        index,
                        out_counts,
                        l_idx,
                        r_idx,
                        r_arity,
                        kind: *kind,
                    },
                    schema,
                    out,
                ))
            }
            Plan::AggregateBy {
                input,
                group_by,
                aggregates,
            } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let g_idx = resolve_columns(&cs, group_by)?;
                let agg_idx = resolve_aggregate_columns(&cs, aggregates)?;
                let schema = aggregate_output_schema(&cs, &g_idx, &agg_idx, aggregates)?;
                let global = g_idx.is_empty();
                let retractable = aggregates
                    .iter()
                    .zip(&agg_idx)
                    .all(|(a, idx)| match a.func {
                        AggFunc::CountAll | AggFunc::Count(_) => true,
                        AggFunc::Sum(_) | AggFunc::Avg(_) => {
                            cs.columns()[idx.expect("column agg")].data_type == DataType::Int
                        }
                        AggFunc::Min(_) | AggFunc::Max(_) => false,
                    });
                let groups = agg_build(&crows, &g_idx, &agg_idx, aggregates.len(), global);
                let rows_idx = FirstSeenIndex::from_entries(agg_entries(crows, &g_idx));
                let out = agg_emit(&rows_idx, &groups, aggregates, global);
                for r in &out {
                    schema.check_row(r)?;
                }
                Ok((
                    DNode::Aggregate {
                        input: Box::new(child),
                        rows_idx,
                        groups,
                        g_idx,
                        agg_idx,
                        aggregates: aggregates.clone(),
                        retractable,
                        global,
                        schema: schema.clone(),
                    },
                    schema,
                    out,
                ))
            }
            Plan::Pivot {
                input,
                keys,
                attr_col,
                val_col,
                attrs,
            } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let key_idx = resolve_columns(&cs, keys)?;
                let attr_idx = resolve_column(&cs, attr_col)?;
                let val_idx = resolve_column(&cs, val_col)?;
                let schema = pivot_output_schema(&cs, &key_idx, attrs)?;
                let cells = FirstSeenIndex::from_entries(pivot_entries(
                    &crows, &key_idx, attr_idx, val_idx, attrs,
                )?);
                let out = pivot_emit(&cells, attrs.len());
                Ok((
                    DNode::Pivot {
                        input: Box::new(child),
                        cells,
                        key_idx,
                        attr_idx,
                        val_idx,
                        attrs: attrs.clone(),
                    },
                    schema,
                    out,
                ))
            }
            Plan::Sort { input, by } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let schema = keyless(cs);
                let idxs = resolve_columns(&schema, by)?;
                let kernel = RecomputeKernel::Sort { idxs };
                let out = kernel.run(&schema, &crows);
                Ok((
                    DNode::Recompute {
                        input: Box::new(child),
                        in_schema: schema.clone(),
                        in_rows: crows,
                        kernel,
                    },
                    schema,
                    out,
                ))
            }
            Plan::Distinct { input } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let schema = keyless(cs);
                let kernel = RecomputeKernel::Distinct;
                let out = kernel.run(&schema, &crows);
                Ok((
                    DNode::Recompute {
                        input: Box::new(child),
                        in_schema: schema.clone(),
                        in_rows: crows,
                        kernel,
                    },
                    schema,
                    out,
                ))
            }
            Plan::Limit { input, n } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let schema = keyless(cs);
                let kernel = RecomputeKernel::Limit { n: *n };
                let out = kernel.run(&schema, &crows);
                Ok((
                    DNode::Recompute {
                        input: Box::new(child),
                        in_schema: schema.clone(),
                        in_rows: crows,
                        kernel,
                    },
                    schema,
                    out,
                ))
            }
            Plan::Unpivot {
                input,
                keys,
                attr_col,
                val_col,
            } => {
                let (child, cs, crows) = DNode::init(input, db, exec)?;
                let key_idx = resolve_columns(&cs, keys)?;
                let data_idx: Vec<usize> =
                    (0..cs.arity()).filter(|i| !key_idx.contains(i)).collect();
                let schema = unpivot_output_schema(&cs, &key_idx, attr_col, val_col)?;
                let kernel = RecomputeKernel::Unpivot { key_idx, data_idx };
                let out = kernel.run(&cs, &crows);
                Ok((
                    DNode::Recompute {
                        input: Box::new(child),
                        in_schema: cs,
                        in_rows: crows,
                        kernel,
                    },
                    schema,
                    out,
                ))
            }
        }
    }

    /// The stored table whose rows are this node's output as they stand
    /// — a bare scan's (renames change no row). An operator above such a
    /// node need not cache its input: the database holds it.
    fn stored<'d>(&self, db: &'d Database) -> Option<RelResult<&'d Table>> {
        match self {
            DNode::Scan { table, .. } => Some(db.table(table)),
            DNode::Rename { input } => input.stored(db),
            _ => None,
        }
    }

    /// True when any scanned table's current schema differs from the one
    /// this node tree was initialized against (bindings would be stale).
    fn scans_stale(&self, db: &Database) -> bool {
        match self {
            DNode::Scan { table, schema, .. } => db
                .table(table)
                .map(|t| t.schema() != schema)
                .unwrap_or(false),
            DNode::Values => false,
            DNode::Select { input, .. }
            | DNode::Project { input, .. }
            | DNode::Rename { input }
            | DNode::Aggregate { input, .. }
            | DNode::Pivot { input, .. }
            | DNode::Recompute { input, .. } => input.scans_stale(db),
            DNode::Union { inputs, .. } => inputs.iter().any(|n| n.scans_stale(db)),
            DNode::Join { left, right, .. } => left.scans_stale(db) || right.scans_stale(db),
        }
    }

    /// Propagate input changes through this operator, updating cached
    /// state and returning how this node's output changed. Children
    /// refresh left-to-right before their parent (the interpreter's
    /// evaluation order), so errors surface in rebuild order.
    fn refresh(
        &mut self,
        db: &Database,
        changes: &TableChanges,
        exec: &Executor,
    ) -> RelResult<Flow> {
        match self {
            DNode::Scan { table, schema, len } => {
                let t = db.table(table)?;
                debug_assert_eq!(t.schema(), schema, "pre-checked by DeltaPlan::refresh");
                match changes.get(table) {
                    Some(Change::Patch(p)) if p.valid_for(*len) && p.new_len(*len) == t.len() => {
                        let out = Change::Patch(p.clone());
                        *len = t.len();
                        Ok(out)
                    }
                    None | Some(Change::Unchanged) if t.len() == *len => Ok(Change::Unchanged),
                    _ => {
                        // Claim missing, wholesale, or inconsistent with the
                        // table's actual size: fall back to the real rows.
                        *len = t.len();
                        Ok(Change::Full(t.rows_from(0)))
                    }
                }
            }
            DNode::Values => Ok(Change::Unchanged),
            DNode::Select {
                input,
                in_schema,
                predicate,
                lineage,
            } => match input.refresh(db, changes, exec)? {
                Change::Unchanged => Ok(Change::Unchanged),
                Change::Full(rows) => {
                    let passed = select_batch(exec, in_schema, predicate, &rows)?;
                    let mut out = Vec::new();
                    for (i, r) in rows.into_iter().enumerate() {
                        if passed[i] {
                            out.push(r);
                        }
                    }
                    let (lin, _) =
                        RankList::from_entries(passed.iter().map(|&b| ((), u32::from(b))));
                    *lineage = lin;
                    Ok(Change::Full(out))
                }
                Change::Patch(p) => {
                    // Only delta rows see the predicate (retained rows
                    // evaluated it in a previous successful run). Two
                    // passes over the patch events, each O(delta · log n):
                    // pass 1 reads output ranks against the pre-state
                    // lineage; pass 2 splices the events into the index.
                    let passed = select_batch(exec, in_schema, predicate, p.new_rows())?;
                    let mut pb = PatchBuilder::default();
                    // Pass 1 (ascending, read-only): inserts before the
                    // delete at the same child position, mirroring patch
                    // application order.
                    let mut del = p.deleted().iter().peekable();
                    let mut ins = p.inserted().iter().peekable();
                    let mut ci = 0usize; // candidate cursor
                    while del.peek().is_some() || ins.peek().is_some() {
                        let dp = del.peek().map_or(usize::MAX, |&&d| d);
                        let ip = ins.peek().map_or(usize::MAX, |(pos, _)| *pos);
                        if ip <= dp {
                            let (pos, rows) = ins.next().expect("peeked");
                            let rank = lineage.weight_before(*pos) as usize;
                            for r in rows {
                                if passed[ci] {
                                    pb.insert(rank, r.clone());
                                }
                                ci += 1;
                            }
                        } else {
                            let d = *del.next().expect("peeked");
                            if lineage.weight_of(lineage.id_at(d)) == 1 {
                                pb.delete(lineage.weight_before(d) as usize);
                            }
                        }
                    }
                    // Pass 2 (descending mutation): higher positions first
                    // so every event still applies at a valid pre-state
                    // ordinal; at equal positions the delete goes first.
                    let starts: Vec<usize> = {
                        let mut s = 0usize;
                        p.inserted()
                            .iter()
                            .map(|(_, rows)| {
                                let here = s;
                                s += rows.len();
                                here
                            })
                            .collect()
                    };
                    let mut di = p.deleted().len();
                    let mut gi = p.inserted().len();
                    while di > 0 || gi > 0 {
                        let take_delete =
                            di > 0 && (gi == 0 || p.deleted()[di - 1] >= p.inserted()[gi - 1].0);
                        if take_delete {
                            di -= 1;
                            lineage.remove_at(p.deleted()[di]);
                        } else {
                            gi -= 1;
                            let (pos, rows) = &p.inserted()[gi];
                            for k in 0..rows.len() {
                                lineage.insert_at(pos + k, (), u32::from(passed[starts[gi] + k]));
                            }
                        }
                    }
                    Ok(pb.into_change())
                }
            },
            DNode::Project {
                input,
                in_schema,
                columns,
            } => match input.refresh(db, changes, exec)? {
                Change::Unchanged => Ok(Change::Unchanged),
                Change::Full(rows) => {
                    Ok(Change::Full(project_batch(exec, in_schema, columns, rows)?))
                }
                Change::Patch(p) => {
                    // 1:1 positional: delta rows map through the executor,
                    // positions carry over unchanged.
                    let outs =
                        project_batch(exec, in_schema, columns, p.new_rows().cloned().collect())?;
                    let mut it = outs.into_iter();
                    let inserted = p
                        .inserted()
                        .iter()
                        .map(|(pos, rows)| (*pos, it.by_ref().take(rows.len()).collect()))
                        .collect();
                    Ok(Change::Patch(Patch {
                        deleted: p.deleted().to_vec(),
                        inserted,
                    }))
                }
            },
            DNode::Rename { input } => input.refresh(db, changes, exec),
            DNode::Union {
                inputs,
                child_lens,
                schema,
            } => {
                let mut ch = Vec::with_capacity(inputs.len());
                for n in inputs.iter_mut() {
                    ch.push(n.refresh(db, changes, exec)?);
                }
                if ch.iter().all(Change::is_unchanged) {
                    return Ok(Change::Unchanged);
                }
                // New rows from children ≥ 1 are the only fallible output
                // validation (the union schema keeps child 0's nullability);
                // check them in output order, as `from_rows` would.
                for c in ch.iter().skip(1) {
                    match c {
                        Change::Unchanged => {}
                        Change::Patch(p) => {
                            for r in p.new_rows() {
                                schema.check_row(r)?;
                            }
                        }
                        Change::Full(rows) => {
                            for r in rows {
                                schema.check_row(r)?;
                            }
                        }
                    }
                }
                if ch.iter().all(|c| matches!(c, Change::Full(_))) {
                    let mut out = Vec::new();
                    for (len, c) in child_lens.iter_mut().zip(ch) {
                        if let Change::Full(rows) = c {
                            *len = rows.len();
                            out.extend(rows);
                        }
                    }
                    return Ok(Change::Full(out));
                }
                // Shift each child's change by the child's old offset —
                // O(delta), only lengths are read. A patch keeps its
                // coordinates; a replaced child deletes its old range and
                // inserts its new rows where the range began. Child k's
                // appends land just before child k+1's position-0 inserts
                // at the same output position, matching the concatenated
                // rebuild.
                let mut pb = PatchBuilder::default();
                let mut off = 0usize;
                for (len, c) in child_lens.iter_mut().zip(ch) {
                    let old_len = *len;
                    match c {
                        Change::Unchanged => {}
                        Change::Patch(p) => {
                            *len = p.new_len(old_len);
                            for &d in p.deleted() {
                                pb.delete(off + d);
                            }
                            for (pos, grp) in p.inserted {
                                pb.insert_rows(off + pos, grp);
                            }
                        }
                        Change::Full(rows) => {
                            *len = rows.len();
                            pb.insert_rows(off, rows);
                            for d in off..off + old_len {
                                pb.delete(d);
                            }
                        }
                    }
                    off += old_len;
                }
                Ok(pb.into_change())
            }
            DNode::Join {
                left,
                right,
                left_rows,
                right_rows,
                index,
                out_counts,
                l_idx,
                r_idx,
                r_arity,
                kind,
            } => {
                let lc = left.refresh(db, changes, exec)?;
                let rc = right.refresh(db, changes, exec)?;
                match (lc, rc) {
                    (Change::Unchanged, Change::Unchanged) => Ok(Change::Unchanged),
                    (Change::Patch(p), Change::Unchanged) => {
                        // Probe-side delta: re-probe only delta left rows
                        // against the retained build side. Each old left
                        // row owns a contiguous output range given by the
                        // prefix sums of `out_counts`.
                        let mut prefix = Vec::with_capacity(out_counts.len() + 1);
                        prefix.push(0usize);
                        for &c in out_counts.iter() {
                            prefix.push(prefix.last().expect("nonempty") + c);
                        }
                        let old_counts = std::mem::take(out_counts);
                        let old_len = old_counts.len();
                        let mut new_counts = Vec::with_capacity(p.new_len(old_len));
                        let mut pb = PatchBuilder::default();
                        let mut del = p.deleted().iter().peekable();
                        let mut ins = p.inserted().iter().peekable();
                        for i in 0..=old_len {
                            while ins.peek().is_some_and(|(pos, _)| *pos == i) {
                                for r in &ins.next().expect("peeked").1 {
                                    let outs =
                                        probe_left(r, l_idx, index, right_rows, *r_arity, *kind);
                                    new_counts.push(outs.len());
                                    pb.insert_rows(prefix[i], outs);
                                }
                            }
                            if i == old_len {
                                break;
                            }
                            if del.peek() == Some(&&i) {
                                del.next();
                                for op in prefix[i]..prefix[i + 1] {
                                    pb.delete(op);
                                }
                            } else {
                                new_counts.push(old_counts[i]);
                            }
                        }
                        if let Some(rows) = left_rows {
                            p.apply_in_place(rows);
                        }
                        *out_counts = new_counts;
                        Ok(pb.into_change())
                    }
                    (lc, rc) => {
                        // Build side changed (or probe side replaced):
                        // rebuild the index and re-probe everything.
                        let reread;
                        let left_rows = match left_rows {
                            Some(rows) => {
                                lc.apply_to(rows);
                                &*rows
                            }
                            None => {
                                let stored = left.stored(db).expect("stored at init");
                                reread = stored?.rows_from(0);
                                &reread
                            }
                        };
                        rc.apply_to(right_rows);
                        *index = build_join_index(right_rows, r_idx);
                        let mut out = Vec::new();
                        out_counts.clear();
                        for lrow in left_rows {
                            let outs = probe_left(lrow, l_idx, index, right_rows, *r_arity, *kind);
                            out_counts.push(outs.len());
                            out.extend(outs);
                        }
                        Ok(Change::Full(out))
                    }
                }
            }
            DNode::Aggregate {
                input,
                rows_idx,
                groups,
                g_idx,
                agg_idx,
                aggregates,
                retractable,
                global,
                schema,
            } => {
                let n_aggs = aggregates.len();
                match input.refresh(db, changes, exec)? {
                    Change::Unchanged => Ok(Change::Unchanged),
                    Change::Full(rows) => {
                        *groups = agg_build(&rows, g_idx, agg_idx, n_aggs, *global);
                        *rows_idx = FirstSeenIndex::from_entries(agg_entries(rows, g_idx));
                        let out = agg_emit(rows_idx, groups, aggregates, *global);
                        for r in &out {
                            schema.check_row(r)?;
                        }
                        Ok(Change::Full(out))
                    }
                    Change::Patch(p) => {
                        // Splice the patch into the first-occurrence index;
                        // the returned classification carries deleted row
                        // content, old ranks, and order-breaking events.
                        let entries = agg_entries(p.new_rows().cloned(), g_idx);
                        let fsp = FirstSeenPatch::apply(rows_idx, &p, entries);
                        if *retractable {
                            for r in &fsp.deleted {
                                let key = row_key(r, g_idx);
                                let st = groups.get_mut(&key).expect("row was folded");
                                for (idx, acc) in agg_idx.iter().zip(st.accs.iter_mut()) {
                                    acc.retract(*idx, r);
                                }
                                st.rows -= 1;
                                if st.rows == 0 && !*global {
                                    groups.remove(&key);
                                }
                            }
                            for r in p.new_rows() {
                                agg_fold(groups, r, g_idx, agg_idx, n_aggs);
                            }
                        } else {
                            // Lossy retraction (MIN/MAX, FLOAT sums):
                            // recompute only the affected groups, folding
                            // each group's surviving occurrences in input
                            // order (float summation order matters).
                            for key in &fsp.affected {
                                groups.remove(key);
                            }
                            if *global && !groups.contains_key(&Vec::new()) {
                                groups.insert(Vec::new(), new_group(n_aggs));
                            }
                            for key in &fsp.affected {
                                for row in rows_idx.occurrences(key) {
                                    agg_fold(groups, row, g_idx, agg_idx, n_aggs);
                                }
                            }
                        }
                        // Changed output rows validate here; unchanged rows
                        // passed the identical check in the previous
                        // successful run, so the rebuild's first validation
                        // error is reproduced.
                        let out = if *global {
                            // Single output row, always at rank 0.
                            let mut pb = PatchBuilder::default();
                            pb.delete(0);
                            pb.insert(0, agg_row(&[], &groups[&Vec::new()], aggregates));
                            Some(pb.into_patch())
                        } else {
                            fsp.emit(rows_idx, |k| agg_row(k, &groups[k], aggregates))
                        };
                        match out {
                            Some(patch) if patch.is_empty() => Ok(Change::Unchanged),
                            Some(patch) => {
                                for r in patch.new_rows() {
                                    schema.check_row(r)?;
                                }
                                Ok(Change::Patch(patch))
                            }
                            None => {
                                let full = agg_emit(rows_idx, groups, aggregates, *global);
                                for r in &full {
                                    schema.check_row(r)?;
                                }
                                Ok(Change::Full(full))
                            }
                        }
                    }
                }
            }
            DNode::Pivot {
                input,
                cells,
                key_idx,
                attr_idx,
                val_idx,
                attrs,
            } => match input.refresh(db, changes, exec)? {
                Change::Unchanged => Ok(Change::Unchanged),
                Change::Full(rows) => {
                    *cells = FirstSeenIndex::from_entries(pivot_entries(
                        &rows, key_idx, *attr_idx, *val_idx, attrs,
                    )?);
                    Ok(Change::Full(pivot_emit(cells, attrs.len())))
                }
                Change::Patch(p) => {
                    // Delta rows validate first, in input order — retained
                    // rows passed the same checks in a previous run, so
                    // this reproduces the rebuild's first error.
                    let entries = pivot_entries(p.new_rows(), key_idx, *attr_idx, *val_idx, attrs)?;
                    let fsp = FirstSeenPatch::apply(cells, &p, entries);
                    // Affected entities' wide rows are rebuilt from each
                    // entity's surviving cells, in input order (last write
                    // per cell wins, as in `pivot_rows`).
                    let wide = |k: &[Value]| pivot_wide_row(k, cells.occurrences(k), attrs.len());
                    match fsp.emit(cells, wide) {
                        Some(patch) if patch.is_empty() => Ok(Change::Unchanged),
                        Some(patch) => Ok(Change::Patch(patch)),
                        None => Ok(Change::Full(pivot_emit(cells, attrs.len()))),
                    }
                }
            },
            DNode::Recompute {
                input,
                in_schema,
                in_rows,
                kernel,
            } => match input.refresh(db, changes, exec)? {
                Change::Unchanged => Ok(Change::Unchanged),
                c => {
                    // Order-sensitive whole-input operators (Sort,
                    // Distinct, Limit, Unpivot) recompute from the patched
                    // cached input; downstream sees a Full change.
                    c.apply_to(in_rows);
                    Ok(Change::Full(kernel.run(in_schema, in_rows)))
                }
            },
        }
    }
}

/// A plan with cached differential state: initialize once against a
/// database, then [`DeltaPlan::refresh`] after each batch of base-table
/// changes to get the new output without recomputing unchanged rows.
///
/// The output (rows **and** errors) is byte-identical to re-running the
/// plan from scratch on the current database state, provided the
/// [`TableChanges`] passed to each refresh accurately describe every
/// mutation since the previous call (changes captured through
/// [`DeltaCatalog`] satisfy this by construction; the plan additionally
/// cross-checks schemas and row counts and falls back to full
/// recomputation on any mismatch). After an error the plan is *poisoned*:
/// the next refresh re-initializes from scratch, reproducing the rebuild's
/// behavior — including the same error if the fault persists.
#[derive(Clone)]
pub struct DeltaPlan {
    plan: Plan,
    root: DNode,
    /// The cached output, a persistent [`Table`]: a refresh moves it by
    /// [`Table::apply_patch`], and [`DeltaPlan::output`] hands out clones
    /// that share its storage — the rows are resident once however many
    /// consumers (an ETL target, a workflow cache) hold the output.
    out: Table,
    poisoned: bool,
}

impl DeltaPlan {
    /// Evaluate `plan` once, caching per-operator differential state.
    pub fn init(plan: &Plan, db: &Database, exec: &Executor) -> RelResult<DeltaPlan> {
        let (root, out) = match plan {
            // A bare scan's output is the stored table itself, as it is
            // the executor's: the same storage, primary key included.
            Plan::Scan(name) => {
                let t = db.table(name)?;
                let root = DNode::Scan {
                    table: name.clone(),
                    schema: t.schema().clone(),
                    len: t.len(),
                };
                (root, t.clone())
            }
            _ => {
                let (root, schema, rows) = DNode::init(plan, db, exec)?;
                (root, Table::from_validated(schema, rows)?)
            }
        };
        Ok(DeltaPlan {
            plan: plan.clone(),
            root,
            out,
            poisoned: false,
        })
    }

    /// The plan's output schema.
    pub fn schema(&self) -> &Schema {
        self.out.schema()
    }

    /// Number of output rows currently cached.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when the cached output has no rows.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// True after a refresh error; the next refresh re-initializes.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The current output as a table — byte-identical to what
    /// `plan.eval(db)` returns for the current database state. O(#chunks):
    /// the result shares its storage with the plan's cache
    /// ([`Table::same_storage`]).
    pub fn output(&self) -> RelResult<Table> {
        Ok(self.out.clone())
    }

    /// Propagate base-table changes to the output. Returns how the output
    /// changed relative to the previous state ([`Change::Unchanged`] when
    /// nothing downstream-visible moved), for threading into consumers
    /// that cache this plan's output. The cached output takes the same
    /// change in O(delta) ([`Table::apply_patch`]); rows a patch inserts
    /// are validated against the output schema there, as a rebuild's
    /// `from_rows` would.
    pub fn refresh(
        &mut self,
        db: &Database,
        changes: &TableChanges,
        exec: &Executor,
    ) -> RelResult<Change> {
        if self.poisoned || self.root.scans_stale(db) {
            // Full re-initialization: either the previous refresh errored,
            // or a scanned table's schema changed under us (stale bindings).
            let fresh = DeltaPlan::init(&self.plan, db, exec)?;
            *self = fresh;
            return Ok(Change::Full(self.out.clone()));
        }
        // The cached output takes the change the operators report; a
        // bare scan's output is whatever table the database holds now.
        let landed = self.root.refresh(db, changes, exec).and_then(|flow| {
            let stored = match &self.plan {
                Plan::Scan(name) => Some(db.table(name)?),
                _ => None,
            };
            match (flow, stored) {
                (Change::Unchanged, _) => Ok(Change::Unchanged),
                (Change::Patch(p), Some(t)) => {
                    self.out = t.clone();
                    Ok(Change::Patch(p))
                }
                (Change::Patch(p), None) => {
                    // In place: an output nobody else holds — a
                    // subscription's — moves no row it keeps.
                    self.out.patch(&p)?;
                    Ok(Change::Patch(p))
                }
                (Change::Full(_), Some(t)) => {
                    self.out = t.clone();
                    Ok(Change::Full(t.clone()))
                }
                (Change::Full(rows), None) => {
                    self.out = Table::from_validated(self.out.schema().clone(), rows)?;
                    Ok(Change::Full(self.out.clone()))
                }
            }
        });
        self.poisoned = landed.is_err();
        landed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Aggregate;
    use crate::expr::Expr;

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn test_db() -> Database {
        let schema = Schema::new(
            "t",
            vec![
                Column::required("id", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("x", DataType::Int),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let mut db = Database::new("d");
        db.create_table(
            Table::from_rows(
                schema,
                (0..20i64)
                    .map(|i| row(&[i, i % 3, i * 10]))
                    .collect::<Vec<Row>>(),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn patch_apply_inserts_before_deletes_at_position() {
        let old = vec![row(&[0]), row(&[1]), row(&[2])];
        let p = Patch::new(vec![1], vec![(1, vec![row(&[10])]), (3, vec![row(&[30])])]).unwrap();
        assert_eq!(
            p.apply(old),
            vec![row(&[0]), row(&[10]), row(&[2]), row(&[30])]
        );
        assert_eq!(p.new_len(3), 4);
    }

    #[test]
    fn delta_catalog_canonical_merge_and_roundtrip() {
        let mut cat = Catalog::new();
        cat.insert(test_db());
        let pre = cat
            .database("d")
            .unwrap()
            .table("t")
            .unwrap()
            .rows()
            .to_vec();
        let mut dc = DeltaCatalog::new(cat);
        dc.insert("d", "t", row(&[100, 1, 5])).unwrap();
        let n = dc
            .update_where(
                "d",
                "t",
                |r| r[0] == Value::Int(3),
                |r| r[2] = Value::Int(999),
            )
            .unwrap();
        assert_eq!(n, 1);
        let n = dc
            .delete_where("d", "t", |r| r[0] == Value::Int(7))
            .unwrap();
        assert_eq!(n, 1);
        // Updated row moved to the end (after the explicit insert).
        let live = dc
            .catalog()
            .database("d")
            .unwrap()
            .table("t")
            .unwrap()
            .clone();
        let last = live.rows().last().unwrap();
        assert_eq!(last, &row(&[3, 0, 999]));
        let deltas = dc.take_deltas();
        let d = deltas.get("d", "t").unwrap();
        assert_eq!(d.pre_len, 20);
        assert_eq!(
            d.deleted.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![3, 7]
        );
        // Roundtrip: canonical merge of the delta over the pre-state
        // reproduces the live table exactly.
        assert_eq!(d.apply(&pre), live.rows());
        // Second window starts empty.
        assert!(dc.take_deltas().is_empty());
    }

    #[test]
    fn delta_catalog_insert_duplicate_key_is_atomic() {
        let mut cat = Catalog::new();
        cat.insert(test_db());
        let mut dc = DeltaCatalog::new(cat);
        let err = dc.insert("d", "t", row(&[5, 0, 0])).unwrap_err();
        assert!(matches!(err, RelError::DuplicateKey { .. }));
        assert!(dc.take_deltas().is_empty());
        assert_eq!(
            dc.catalog()
                .database("d")
                .unwrap()
                .table("t")
                .unwrap()
                .len(),
            20
        );
    }

    /// Refresh must match a from-scratch evaluation after every mutation
    /// batch, for a plan covering Select/Project/Join/Aggregate/Pivot.
    #[test]
    fn refresh_matches_rebuild_across_operators() {
        let exec = Executor::new();
        let plans: Vec<Plan> = vec![
            Plan::scan("t").select(Expr::col("x").gt(Expr::lit(40i64))),
            Plan::scan("t").project(vec![
                ("id2", Expr::col("id").mul(Expr::lit(2i64))),
                ("x", Expr::col("x")),
            ]),
            Plan::scan("t")
                .select(Expr::col("grp").ne(Expr::lit(1i64)))
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
                        Aggregate {
                            func: AggFunc::Min("x".into()),
                            alias: "mx".into(),
                        },
                    ],
                ),
            Plan::scan("t").join(
                Plan::scan("t").project(vec![("jg", Expr::col("grp")), ("jx", Expr::col("x"))]),
                vec![("grp", "jg")],
                JoinKind::Inner,
            ),
            Plan::scan("t").sort_by(&["grp", "x"]).limit(7),
        ];
        for plan in plans {
            let mut cat = Catalog::new();
            cat.insert(test_db());
            let mut dc = DeltaCatalog::new(cat);
            let mut dp =
                DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
            for step in 0..4 {
                dc.insert("d", "t", row(&[1000 + step, step % 3, step * 7]))
                    .unwrap();
                dc.delete_where("d", "t", |r| r[0] == Value::Int(step * 4))
                    .unwrap();
                dc.update_where(
                    "d",
                    "t",
                    |r| r[1] == Value::Int(step % 3) && r[2] == Value::Int(50),
                    |r| r[2] = Value::Int(51),
                )
                .unwrap();
                let deltas = dc.take_deltas();
                let mut changes = TableChanges::new();
                if let Some(d) = deltas.get("d", "t") {
                    changes.set("t", d.to_change());
                }
                let db = dc.catalog().database("d").unwrap();
                dp.refresh(db, &changes, &exec).unwrap();
                let fresh = exec.execute(&plan, db).unwrap();
                let incr = dp.output().unwrap();
                assert_eq!(incr.schema(), fresh.schema(), "plan {plan:?} step {step}");
                assert_eq!(incr.rows(), fresh.rows(), "plan {plan:?} step {step}");
            }
        }
    }

    /// An erroring refresh poisons the plan; the next refresh rebuilds and
    /// reproduces exactly what a from-scratch run produces.
    #[test]
    fn refresh_error_parity_and_poison_recovery() {
        let exec = Executor::new();
        // div by `x` errors when x == 0 arrives.
        let plan = Plan::scan("t").project(vec![("q", Expr::lit(100i64).div(Expr::col("x")))]);
        let mut cat = Catalog::new();
        cat.insert(test_db());
        // Row id=0 has x=0 — a full init must fail like eval does.
        let db_err = exec.execute(&plan, cat.database("d").unwrap()).unwrap_err();
        let dp_err = match DeltaPlan::init(&plan, cat.database("d").unwrap(), &exec) {
            Err(e) => e,
            Ok(_) => panic!("init should fail like eval"),
        };
        assert_eq!(format!("{db_err}"), format!("{dp_err}"));
        // Drop the bad row, init, then insert a new bad row via delta.
        let mut dc = DeltaCatalog::new(cat);
        dc.delete_where("d", "t", |r| r[2] == Value::Int(0))
            .unwrap();
        dc.take_deltas();
        let mut dp = DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
        dc.insert("d", "t", row(&[500, 0, 0])).unwrap();
        let deltas = dc.take_deltas();
        let mut changes = TableChanges::new();
        changes.set("t", deltas.get("d", "t").unwrap().to_change());
        let db = dc.catalog().database("d").unwrap();
        let incr_err = dp.refresh(db, &changes, &exec).unwrap_err();
        let full_err = exec.execute(&plan, db).unwrap_err();
        assert_eq!(format!("{incr_err}"), format!("{full_err}"));
        assert!(dp.is_poisoned());
        // Remove the bad row again: poisoned refresh re-inits and recovers.
        dc.delete_where("d", "t", |r| r[0] == Value::Int(500))
            .unwrap();
        dc.take_deltas();
        let db = dc.catalog().database("d").unwrap();
        dp.refresh(db, &TableChanges::new(), &exec).unwrap();
        assert!(!dp.is_poisoned());
        assert_eq!(
            dp.output().unwrap().rows(),
            exec.execute(&plan, db).unwrap().rows()
        );
    }

    #[test]
    fn unchanged_refresh_is_unchanged() {
        let exec = Executor::new();
        let plan = Plan::scan("t").select(Expr::col("grp").eq(Expr::lit(0i64)));
        let db = test_db();
        let mut dp = DeltaPlan::init(&plan, &db, &exec).unwrap();
        let c = dp.refresh(&db, &TableChanges::new(), &exec).unwrap();
        assert!(c.is_unchanged());
    }
}
