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
//!    the output's change without recomputing unchanged rows. The state
//!    is kept for the plan the executor runs ([`crate::optimize::prepare`]),
//!    bound before a row moves, and a first evaluation is a wholesale
//!    refresh of it: every leaf reports [`Change::Full`], so each rule's
//!    `Full` arm is the one place that builds its state from scratch.
//!    Select/Project/Rename chains fuse into one pipeline exactly as the
//!    executor compiles them, and delta rows run the executor's own stage
//!    walk through it, row by row in row order (a Rename only renames);
//!    Union shifts
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
//!    re-initialization. Binding errors surface before any row error, in
//!    the order the executor's `compile` raises them.
//!
//! Refresh cost is **O(delta · log n)**, not O(n) (DESIGN.md §15):
//! a filtering pipeline's positions are maintained by a rank index
//! ([`crate::rank::RankList`] — weight 1 per input row that reaches the
//! output, so a prefix-weight query turns an input position into an
//! output rank), and Aggregate/Pivot group order by a persistent
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
    bind_node, check_union_compatible, keyless, pivot_cell, resolve_aggregate_columns,
    resolve_column, resolve_columns, sort_rows, unpivot_rows, AggAcc, AggFunc, Aggregate, JoinKind,
    PivotCell, Plan,
};
use crate::database::{Catalog, Database};
use crate::error::{RelError, RelResult};
use crate::exec::{apply_stages, Executor, MapStage, Stage};
use crate::rank::{FirstSeenIndex, RankList};
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

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

    /// The patch as a change: [`Change::Unchanged`] when it edits nothing.
    fn into_change<F>(self) -> Change<F> {
        if self.is_empty() {
            Change::Unchanged
        } else {
            Change::Patch(self)
        }
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

    /// The same change, a wholesale one carrying what `f` makes of its state.
    fn map_full<G>(self, f: impl FnOnce(F) -> G) -> Change<G> {
        match self {
            Change::Unchanged => Change::Unchanged,
            Change::Patch(p) => Change::Patch(p),
            Change::Full(new) => Change::Full(f(new)),
        }
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
        self.into_patch().into_change()
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
/// name within the plan's source database. A table without an entry
/// carries no claim: the plan's scan calls it unchanged only when it is the
/// storage the scan last read ([`Table::same_storage`]), and reads it whole
/// otherwise.
#[derive(Debug, Clone, Default)]
pub struct TableChanges {
    map: HashMap<String, Change>,
}

impl TableChanges {
    /// Empty map: no claims, so every scan checks its table itself.
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
/// them held before the edit, and what the index held of the deleted
/// rows. Shared by the Aggregate and Pivot differential rules.
struct FirstSeenPatch<T> {
    /// Touched group keys (keys of deleted and inserted rows), deduplicated
    /// in first-touch order, each with its pre-patch output rank if it
    /// existed.
    affected: Vec<(Vec<Value>, Option<usize>)>,
    /// The deleted pre-state rows as the index held them — key and
    /// payload — in ascending ordinal order (for accumulator retraction).
    deleted: Vec<(Arc<[Value]>, T)>,
}

impl<T: Default> FirstSeenPatch<T> {
    /// Apply `p` to `idx`, noting every touched group's old rank on the
    /// way. `entries` are the patch's new rows as the index stores them —
    /// `(group key, payload)` in [`Patch::new_rows`] order. `O(delta ·
    /// log k · log n)` (see [`FirstSeenIndex::remove`]).
    fn apply(
        idx: &mut FirstSeenIndex<T>,
        p: &Patch,
        entries: Vec<(Vec<Value>, T)>,
    ) -> FirstSeenPatch<T> {
        // Pass A (read-only, pre-state coordinates): the affected key set
        // and each affected key's old rank.
        let mut affected = Vec::new();
        let mut seen: HashSet<&[Value]> = HashSet::new();
        let deleted_keys = p.deleted().iter().map(|&i| idx.get(i).0);
        for key in deleted_keys.chain(entries.iter().map(|(key, _)| key.as_slice())) {
            if seen.insert(key) {
                affected.push((key.to_vec(), idx.rank_of(key)));
            }
        }
        // Pass B (mutation): walk the patch events in *descending* position
        // order so every event applies at a still-valid pre-state ordinal.
        // At equal positions the delete goes first: the insert group at
        // `i` must land before old row `i`'s slot, which only works if row
        // `i` has already been taken out.
        let mut deleted = Vec::with_capacity(p.deleted().len());
        let mut entries = entries.into_iter().rev();
        let mut di = p.deleted().len();
        let mut gi = p.inserted().len();
        while di > 0 || gi > 0 {
            let take_delete = di > 0 && (gi == 0 || p.deleted()[di - 1] >= p.inserted()[gi - 1].0);
            if take_delete {
                di -= 1;
                deleted.push(idx.remove(p.deleted()[di]));
            } else {
                gi -= 1;
                // The group's rows go in back to front, each at the
                // group's position: the same sequence as front to back at
                // ascending positions, and `entries` is walked in reverse.
                let (pos, rows) = &p.inserted()[gi];
                for (key, payload) in entries.by_ref().take(rows.len()) {
                    idx.insert(*pos, key, payload);
                }
            }
        }
        deleted.reverse();
        FirstSeenPatch { affected, deleted }
    }

    /// Emit the output patch in pre-state output coordinates. Groups the
    /// patch did not touch keep their relative order (their first
    /// occurrences are retained rows), so every affected group's old row
    /// is deleted and each live one inserted again just after the last
    /// untouched group that precedes it in the new order: a group that
    /// kept its place is replaced in place, and a promotion, a birth
    /// between survivors or a revival is the same kind of patch.
    /// `O(a log a)` plus a rank query per affected group.
    fn emit(&self, idx: &FirstSeenIndex<T>, mut make_row: impl FnMut(&[Value]) -> Row) -> Patch {
        let mut vacated: Vec<usize> = self.affected.iter().filter_map(|(_, r)| *r).collect();
        vacated.sort_unstable();
        let mut live: Vec<(usize, &[Value])> = self
            .affected
            .iter()
            .filter_map(|(key, _)| Some((idx.rank_of(key)?, key.as_slice())))
            .collect();
        live.sort_unstable_by_key(|&(rank, _)| rank);
        let mut pb = PatchBuilder::default();
        for &r in &vacated {
            pb.delete(r);
        }
        // The i-th live affected group in new order has `u = rank − i`
        // untouched groups ahead of it; it goes in at the smallest
        // pre-state position with `u` untouched rows before it, which is
        // `u` plus the vacated slots below that position.
        let mut below = 0;
        for (i, (rank, key)) in live.into_iter().enumerate() {
            let u = rank - i;
            while vacated.get(below).is_some_and(|&v| v < u + below) {
                below += 1;
            }
            pb.insert(u + below, make_row(key));
        }
        pb.into_patch()
    }
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

/// A wholesale input as a rule that only reads it gets it: the rows a
/// child made, or a stored table's, read in place.
enum Whole<'d> {
    Made(Vec<Row>),
    Stored(&'d Table),
}

impl Whole<'_> {
    fn rows(&self) -> Box<dyn Iterator<Item = &Row> + '_> {
        match self {
            Whole::Made(rows) => Box::new(rows.iter()),
            Whole::Stored(t) => Box::new(t.iter_rows()),
        }
    }
}

/// One operator of a [`DeltaPlan`], holding whatever cached state its
/// differential rule needs. Mirrors the prepared [`Plan`] node for node.
#[derive(Clone)]
enum DNode {
    Scan {
        table: String,
        /// The table as last read — an O(#chunks) clone sharing its
        /// storage; `None` before the first refresh, which therefore reads
        /// it whole.
        held: Option<Table>,
    },
    /// An inline relation: its validated rows until the first refresh
    /// hands them on, then nothing — they never change.
    Values { rows: Option<Vec<Row>> },
    /// A fused Select/Project chain, as the executor's `compile` builds
    /// it (a `Rename` only rewrites the schema and leaves no node).
    Pipe {
        input: Box<DNode>,
        stages: Vec<Stage<'static>>,
        /// With a filter among the stages: one entry per input row, weight
        /// 1 marking rows that reach the output, so `weight_before(i)` is
        /// input row `i`'s output rank in `O(log n)` and patch events
        /// splice in `O(log n)` each. `None` when every stage maps a row
        /// to a row and positions carry over unchanged.
        lineage: Option<RankList<()>>,
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
        /// first-seen rescan per refresh. A row keeps only the columns
        /// its aggregates fold (`fold`) — none at all under COUNT(*).
        rows_idx: FirstSeenIndex<Folded>,
        groups: HashMap<Vec<Value>, GroupState>,
        g_idx: Vec<usize>,
        /// The input columns the aggregates read, each once.
        fold: Vec<usize>,
        /// Each aggregate's source as a position among a row's folded
        /// columns (`None` for COUNT(*)).
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

/// What an aggregate's index keeps of an input row: the columns its
/// aggregates fold, in [`DNode::Aggregate`]'s `fold` order.
type Folded = Box<[Value]>;

/// An aggregate's input row as its index stores it: keyed on the GROUP
/// BY columns, with the columns the aggregates fold.
fn agg_entry(row: &Row, g_idx: &[usize], fold: &[usize]) -> (Vec<Value>, Folded) {
    (
        row_key(row, g_idx),
        fold.iter().map(|&i| row[i].clone()).collect(),
    )
}

/// Fold one row's folded columns into its group's state.
fn agg_fold(
    groups: &mut HashMap<Vec<Value>, GroupState>,
    key: &[Value],
    folded: &[Value],
    agg_idx: &[Option<usize>],
    n_aggs: usize,
) {
    let fold = |st: &mut GroupState| {
        for (idx, acc) in agg_idx.iter().zip(st.accs.iter_mut()) {
            acc.update(*idx, folded);
        }
        st.rows += 1;
    };
    if let Some(st) = groups.get_mut(key) {
        fold(st);
    } else {
        let mut st = new_group(n_aggs);
        fold(&mut st);
        groups.insert(key.to_vec(), st);
    }
}

/// Build grouped state from scratch (output order lives in the
/// [`FirstSeenIndex`], not here).
fn agg_build(
    entries: &[(Vec<Value>, Folded)],
    agg_idx: &[Option<usize>],
    n_aggs: usize,
    global: bool,
) -> HashMap<Vec<Value>, GroupState> {
    let mut groups = HashMap::new();
    if global {
        groups.insert(Vec::new(), new_group(n_aggs));
    }
    for (key, folded) in entries {
        agg_fold(&mut groups, key, folded, agg_idx, n_aggs);
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
    idx: &FirstSeenIndex<Folded>,
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

/// How `t` changed since a scan last read `held`: a claimed patch that
/// fits the held and the current length; otherwise `Unchanged` exactly
/// when `t` is the storage the scan read ([`Table::same_storage`]), and
/// `Full` for everything else — a same-length edit nobody claimed, and the
/// first read, before which nothing is held.
fn scan_change(t: &Table, held: &mut Option<Table>, claim: Option<&Change>) -> Change<()> {
    let change = match (claim, held.as_ref()) {
        (Some(Change::Patch(p)), Some(old))
            if p.valid_for(old.len()) && p.new_len(old.len()) == t.len() =>
        {
            Change::Patch(p.clone())
        }
        (_, Some(old)) if old.same_storage(t) => Change::Unchanged,
        _ => Change::Full(()),
    };
    *held = Some(t.clone());
    change
}

impl DNode {
    /// Bind `plan` the way the executor's `compile` does — children first,
    /// each union input checked as it binds, an inline relation validated
    /// where it stands — so every binding error surfaces, in `compile`'s
    /// order, before any row moves. The schema half is [`bind_node`]'s;
    /// the node resolves its column positions and holds empty state. Its
    /// first refresh reads every leaf whole, so each rule's `Full` arm is
    /// what builds that state.
    fn bind(plan: &Plan, db: &Database) -> RelResult<(DNode, Schema)> {
        let mut children = Vec::new();
        let mut inputs: Vec<Schema> = Vec::new();
        for child in plan.children() {
            let (node, schema) = DNode::bind(child, db)?;
            if let (Plan::Union { .. }, Some(first)) = (plan, inputs.first()) {
                check_union_compatible(&keyless(first.clone()), &schema)?;
            }
            children.push(node);
            inputs.push(schema);
        }
        let schema = bind_node(plan, &inputs, db)?;
        let mut children = children.into_iter();
        let mut input = || Box::new(children.next().expect("one node per child"));
        let node = match plan {
            Plan::Scan(table) => DNode::Scan {
                table: table.clone(),
                held: None,
            },
            Plan::Values { schema, rows } => DNode::Values {
                rows: Some(Table::from_rows(schema.clone(), rows.clone())?.into_rows()),
            },
            Plan::Select { predicate, .. } => DNode::piped(
                *input(),
                Stage::Filter {
                    predicate: Cow::Owned(predicate.clone()),
                    schema: inputs[0].clone(),
                },
            ),
            Plan::Project { columns, .. } => DNode::piped(
                *input(),
                Stage::Map(MapStage::new(
                    columns.clone(),
                    inputs[0].clone(),
                    schema.clone(),
                )),
            ),
            Plan::Rename { .. } => *input(),
            Plan::Union { .. } => DNode::Union {
                inputs: children.collect(),
                child_lens: vec![0; inputs.len()],
                schema: schema.clone(),
            },
            Plan::Join { on, kind, .. } => {
                let (left, right) = (input(), input());
                DNode::Join {
                    left_rows: left.stored().is_none().then(Vec::new),
                    left,
                    right,
                    right_rows: Vec::new(),
                    index: HashMap::new(),
                    out_counts: Vec::new(),
                    l_idx: resolve_columns(&inputs[0], on.iter().map(|(l, _)| l))?,
                    r_idx: resolve_columns(&inputs[1], on.iter().map(|(_, r)| r))?,
                    r_arity: inputs[1].arity(),
                    kind: *kind,
                }
            }
            Plan::AggregateBy {
                group_by,
                aggregates,
                ..
            } => {
                let cs = &inputs[0];
                let sources = resolve_aggregate_columns(cs, aggregates)?;
                let retractable = aggregates
                    .iter()
                    .zip(&sources)
                    .all(|(a, idx)| match a.func {
                        AggFunc::CountAll | AggFunc::Count(_) => true,
                        AggFunc::Sum(_) | AggFunc::Avg(_) => {
                            idx.is_some_and(|i| cs.columns()[i].data_type == DataType::Int)
                        }
                        AggFunc::Min(_) | AggFunc::Max(_) => false,
                    });
                let mut fold: Vec<usize> = sources.iter().flatten().copied().collect();
                fold.sort_unstable();
                fold.dedup();
                let agg_idx = sources
                    .iter()
                    .map(|src| src.and_then(|c| fold.iter().position(|&f| f == c)))
                    .collect();
                DNode::Aggregate {
                    input: input(),
                    rows_idx: FirstSeenIndex::from_entries(Vec::new()),
                    groups: HashMap::new(),
                    g_idx: resolve_columns(cs, group_by)?,
                    fold,
                    agg_idx,
                    aggregates: aggregates.clone(),
                    retractable,
                    global: group_by.is_empty(),
                    schema: schema.clone(),
                }
            }
            Plan::Pivot {
                keys,
                attr_col,
                val_col,
                attrs,
                ..
            } => DNode::Pivot {
                input: input(),
                cells: FirstSeenIndex::from_entries(Vec::new()),
                key_idx: resolve_columns(&inputs[0], keys)?,
                attr_idx: resolve_column(&inputs[0], attr_col)?,
                val_idx: resolve_column(&inputs[0], val_col)?,
                attrs: attrs.clone(),
            },
            Plan::Sort { .. }
            | Plan::Distinct { .. }
            | Plan::Limit { .. }
            | Plan::Unpivot { .. } => {
                let cs = &inputs[0];
                let kernel = match plan {
                    Plan::Sort { by, .. } => RecomputeKernel::Sort {
                        idxs: resolve_columns(cs, by)?,
                    },
                    Plan::Limit { n, .. } => RecomputeKernel::Limit { n: *n },
                    Plan::Unpivot { keys, .. } => {
                        let key_idx = resolve_columns(cs, keys)?;
                        let data_idx = (0..cs.arity()).filter(|i| !key_idx.contains(i)).collect();
                        RecomputeKernel::Unpivot { key_idx, data_idx }
                    }
                    _ => RecomputeKernel::Distinct,
                };
                DNode::Recompute {
                    input: input(),
                    in_schema: cs.clone(),
                    in_rows: Vec::new(),
                    kernel,
                }
            }
        };
        Ok((node, schema))
    }

    /// `node` with `stage` fused on: appended to its pipeline, or the
    /// first stage of one over it.
    fn piped(node: DNode, stage: Stage<'static>) -> DNode {
        let (input, mut stages, mut lineage) = match node {
            DNode::Pipe {
                input,
                stages,
                lineage,
            } => (input, stages, lineage),
            other => (Box::new(other), Vec::new(), None),
        };
        if matches!(stage, Stage::Filter { .. }) {
            lineage.get_or_insert_with(RankList::new);
        }
        stages.push(stage);
        DNode::Pipe {
            input,
            stages,
            lineage,
        }
    }

    /// The stored table whose rows are this node's output as they stand
    /// — a bare scan's (renames change no row and leave no node). An
    /// operator above such a node need not cache its input: the database
    /// holds it.
    fn stored(&self) -> Option<&str> {
        match self {
            DNode::Scan { table, .. } => Some(table),
            _ => None,
        }
    }

    /// [`DNode::refresh`] for a rule that only reads a wholesale input:
    /// a stored table's rows are read where they rest ([`Whole::Stored`])
    /// instead of copied out for the rule to drop again.
    fn refresh_whole<'d>(
        &mut self,
        db: &'d Database,
        changes: &TableChanges,
    ) -> RelResult<Change<Whole<'d>>> {
        if let DNode::Scan { table, held } = self {
            let t = db.table(table)?;
            return Ok(scan_change(t, held, changes.get(table)).map_full(|()| Whole::Stored(t)));
        }
        Ok(self.refresh(db, changes)?.map_full(Whole::Made))
    }

    /// Propagate input changes through this operator, updating cached
    /// state and returning how this node's output changed. Children
    /// refresh before their parent in the order the executor drives them
    /// (a join's build side first), so errors surface in its order.
    fn refresh(&mut self, db: &Database, changes: &TableChanges) -> RelResult<Flow> {
        match self {
            DNode::Scan { table, held } => {
                let t = db.table(table)?;
                Ok(scan_change(t, held, changes.get(table)).map_full(|()| t.rows_from(0)))
            }
            DNode::Values { rows } => Ok(rows.take().map_or(Change::Unchanged, Change::Full)),
            DNode::Pipe {
                input,
                stages,
                lineage,
            } => {
                // Rows run every stage before the next row starts — the
                // executor's walk, so the first failing row raises what it
                // raises, whichever stage fails.
                let run = |rows: Vec<Row>| -> RelResult<Vec<Option<Row>>> {
                    rows.into_iter().map(|r| apply_stages(stages, r)).collect()
                };
                let p = match input.refresh(db, changes)? {
                    Change::Unchanged => return Ok(Change::Unchanged),
                    Change::Full(rows) => {
                        let outs = run(rows)?;
                        if let Some(lineage) = lineage {
                            let weights = outs.iter().map(|o| ((), u32::from(o.is_some())));
                            *lineage = RankList::from_entries(weights).0;
                        }
                        return Ok(Change::Full(outs.into_iter().flatten().collect()));
                    }
                    Change::Patch(p) => p,
                };
                // Only delta rows run the stages (retained rows ran them
                // in a previous successful run).
                let inserted = p
                    .inserted
                    .into_iter()
                    .map(|(pos, rows)| Ok((pos, run(rows)?)))
                    .collect::<RelResult<Vec<_>>>()?;
                let deleted = p.deleted;
                let Some(lineage) = lineage else {
                    let inserted = inserted
                        .into_iter()
                        .map(|(pos, outs)| (pos, outs.into_iter().flatten().collect()))
                        .collect();
                    return Ok(Change::Patch(Patch { deleted, inserted }));
                };
                // Two passes over the patch events, each O(delta · log n).
                // Pass 1 (ascending, read-only) reads output ranks against
                // the pre-state lineage: inserts before the delete at the
                // same input position, mirroring patch application order.
                let mut pb = PatchBuilder::default();
                let mut del = deleted.iter().peekable();
                let mut ins = inserted.iter().peekable();
                while del.peek().is_some() || ins.peek().is_some() {
                    let dp = del.peek().map_or(usize::MAX, |&&d| d);
                    let ip = ins.peek().map_or(usize::MAX, |(pos, _)| *pos);
                    if ip <= dp {
                        let (pos, outs) = ins.next().expect("peeked");
                        let rank = lineage.weight_before(*pos) as usize;
                        for r in outs.iter().flatten() {
                            pb.insert(rank, r.clone());
                        }
                    } else {
                        let d = *del.next().expect("peeked");
                        if lineage.weight_of(lineage.id_at(d)) == 1 {
                            pb.delete(lineage.weight_before(d) as usize);
                        }
                    }
                }
                // Pass 2 (descending mutation) splices the events into the
                // lineage, higher positions first so every event still
                // applies at a valid pre-state ordinal; at equal positions
                // the delete goes first.
                let (mut di, mut gi) = (deleted.len(), inserted.len());
                while di > 0 || gi > 0 {
                    if di > 0 && (gi == 0 || deleted[di - 1] >= inserted[gi - 1].0) {
                        di -= 1;
                        lineage.remove_at(deleted[di]);
                    } else {
                        gi -= 1;
                        let (pos, outs) = &inserted[gi];
                        for (k, o) in outs.iter().enumerate() {
                            lineage.insert_at(pos + k, (), u32::from(o.is_some()));
                        }
                    }
                }
                Ok(pb.into_change())
            }
            DNode::Union {
                inputs,
                child_lens,
                schema,
            } => {
                let mut ch = Vec::with_capacity(inputs.len());
                for n in inputs.iter_mut() {
                    let c = n.refresh(db, changes)?;
                    // New rows from children ≥ 1 are the only fallible
                    // output validation (the union schema keeps child 0's
                    // nullability); each child's are checked as it
                    // arrives, before the next child runs — the
                    // executor's order.
                    if !ch.is_empty() {
                        match &c {
                            Change::Unchanged => {}
                            Change::Patch(p) => {
                                p.new_rows().try_for_each(|r| schema.check_row(r))?
                            }
                            Change::Full(rows) => {
                                rows.iter().try_for_each(|r| schema.check_row(r))?
                            }
                        }
                    }
                    ch.push(c);
                }
                if ch.iter().all(Change::is_unchanged) {
                    return Ok(Change::Unchanged);
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
                // The build side first, as the executor drives it.
                let rc = right.refresh(db, changes)?;
                let lc = left.refresh(db, changes)?;
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
                        // rebuild the index and re-probe every probe row —
                        // the cached ones, the ones a wholesale change
                        // carries, or, over an unchanged or patched stored
                        // table nobody caches, the table read again.
                        let fresh;
                        let left_rows = match (left_rows, lc) {
                            (Some(rows), lc) => {
                                lc.apply_to(rows);
                                &*rows
                            }
                            (None, Change::Full(rows)) => {
                                fresh = rows;
                                &fresh
                            }
                            (None, _) => {
                                let stored = left.stored().expect("stored probe side");
                                fresh = db.table(stored)?.rows_from(0);
                                &fresh
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
                fold,
                agg_idx,
                aggregates,
                retractable,
                global,
                schema,
            } => {
                let n_aggs = aggregates.len();
                let patch = match input.refresh_whole(db, changes)? {
                    Change::Unchanged => return Ok(Change::Unchanged),
                    Change::Full(whole) => {
                        let entries: Vec<_> =
                            whole.rows().map(|r| agg_entry(r, g_idx, fold)).collect();
                        *groups = agg_build(&entries, agg_idx, n_aggs, *global);
                        *rows_idx = FirstSeenIndex::from_entries(entries);
                        let out = agg_emit(rows_idx, groups, aggregates, *global);
                        for r in &out {
                            schema.check_row(r)?;
                        }
                        return Ok(Change::Full(out));
                    }
                    Change::Patch(p) => p,
                };
                let entries: Vec<_> = patch
                    .new_rows()
                    .map(|r| agg_entry(r, g_idx, fold))
                    .collect();
                if *retractable {
                    // Exact accumulators commute: the new rows fold before
                    // the deleted ones retract, and a group left with no
                    // row has died.
                    for (key, folded) in &entries {
                        agg_fold(groups, key, folded, agg_idx, n_aggs);
                    }
                }
                // Splice the patch into the first-occurrence index; it
                // hands back each deleted row's key and folded columns and
                // every touched group's old rank.
                let fsp = FirstSeenPatch::apply(rows_idx, &patch, entries);
                if *retractable {
                    for (key, folded) in &fsp.deleted {
                        let Some(st) = groups.get_mut(&**key) else {
                            continue;
                        };
                        for (idx, acc) in agg_idx.iter().zip(st.accs.iter_mut()) {
                            acc.retract(*idx, folded);
                        }
                        st.rows -= 1;
                        if st.rows == 0 && !*global {
                            groups.remove(&**key);
                        }
                    }
                } else {
                    // Lossy retraction (MIN/MAX, FLOAT sums): recompute
                    // only the affected groups, folding each group's
                    // surviving occurrences in input order (float
                    // summation order matters).
                    for (key, _) in &fsp.affected {
                        groups.remove(key);
                    }
                    if *global && !groups.contains_key(&Vec::new()) {
                        groups.insert(Vec::new(), new_group(n_aggs));
                    }
                    for (key, _) in &fsp.affected {
                        for folded in rows_idx.occurrences(key) {
                            agg_fold(groups, key, folded, agg_idx, n_aggs);
                        }
                    }
                }
                // Changed output rows validate here; unchanged rows passed
                // the identical check in the previous successful run, so
                // the rebuild's first validation error is reproduced.
                let out = if *global {
                    // Single output row, always at rank 0.
                    let mut pb = PatchBuilder::default();
                    pb.delete(0);
                    pb.insert(0, agg_row(&[], &groups[&Vec::new()], aggregates));
                    pb.into_patch()
                } else {
                    fsp.emit(rows_idx, |k| agg_row(k, &groups[k], aggregates))
                };
                for r in out.new_rows() {
                    schema.check_row(r)?;
                }
                Ok(out.into_change())
            }
            DNode::Pivot {
                input,
                cells,
                key_idx,
                attr_idx,
                val_idx,
                attrs,
            } => match input.refresh_whole(db, changes)? {
                Change::Unchanged => Ok(Change::Unchanged),
                Change::Full(whole) => {
                    *cells = FirstSeenIndex::from_entries(pivot_entries(
                        whole.rows(),
                        key_idx,
                        *attr_idx,
                        *val_idx,
                        attrs,
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
                    Ok(fsp.emit(cells, wide).into_change())
                }
            },
            DNode::Recompute {
                input,
                in_schema,
                in_rows,
                kernel,
            } => match input.refresh(db, changes)? {
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
/// plan from scratch on the current database state, provided every patch
/// claimed in the [`TableChanges`] passed to a refresh accurately
/// describes its table's mutation since the previous call (changes
/// captured through [`DeltaCatalog`] satisfy this by construction). Each
/// scan holds the table it last read, so a table with no claim needs
/// none: it is unchanged only when it is that very storage
/// ([`Table::same_storage`]), and a patch that does not fit the held and
/// current lengths, or any other table, is read whole. A table whose
/// schema changed re-initializes the plan. After an error the plan is
/// *poisoned*: the next refresh re-initializes from scratch, reproducing
/// the rebuild's behavior — including the same error if the fault
/// persists.
///
/// Both take the session's executor handle. The rules run its stage code
/// row by row on the calling thread, so none of its settings changes what
/// a refresh computes or how.
#[derive(Clone)]
pub struct DeltaPlan {
    /// The plan as written: what a re-initialization prepares again.
    plan: Plan,
    /// Every table the plan as written scans, with the schema it had at
    /// init — a lookup table `prepare` dropped from the resident tree
    /// included, since its going or changing shape changes the plan's
    /// outcome.
    scans: Vec<(String, Schema)>,
    root: DNode,
    /// The cached output, a persistent [`Table`]: a refresh moves it by
    /// [`Table::apply_patch`], and [`DeltaPlan::output`] hands out clones
    /// that share its storage — the rows are resident once however many
    /// consumers (an ETL target, a workflow cache) hold the output.
    out: Table,
    poisoned: bool,
}

impl DeltaPlan {
    /// Evaluate `plan` once, caching per-operator differential state: the
    /// plan the executor would run ([`crate::optimize::prepare`]), bound
    /// before a row moves, then refreshed once with every leaf read whole.
    /// Table, schema and first error are those of
    /// [`Executor::execute`].
    pub fn init(plan: &Plan, db: &Database, _exec: &Executor) -> RelResult<DeltaPlan> {
        let prepared = crate::optimize::prepare(plan, db);
        let (root, schema) = DNode::bind(prepared.as_ref().unwrap_or(plan), db)?;
        let scans = plan
            .scanned_tables()
            .into_iter()
            .map(|t| Ok((t.to_owned(), db.table(t)?.schema().clone())))
            .collect::<RelResult<_>>()?;
        let mut dp = DeltaPlan {
            plan: plan.clone(),
            scans,
            root,
            out: Table::new(schema),
            poisoned: false,
        };
        dp.land(db, &TableChanges::new())?;
        Ok(dp)
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
        let stale = self
            .scans
            .iter()
            .any(|(name, schema)| db.table(name).map_or(true, |t| t.schema() != schema));
        if self.poisoned || stale {
            // Full re-initialization: the previous refresh errored, or a
            // table the plan as written scans went or changed its schema
            // (stale bindings) — which raises the executor's error if the
            // plan no longer runs.
            return match DeltaPlan::init(&self.plan, db, exec) {
                Ok(fresh) => {
                    *self = fresh;
                    Ok(Change::Full(self.out.clone()))
                }
                Err(e) => {
                    self.poisoned = true;
                    Err(e)
                }
            };
        }
        let landed = self.land(db, changes);
        self.poisoned = landed.is_err();
        landed
    }

    /// Push `changes` through the operators and move the cached output by
    /// what they report.
    fn land(&mut self, db: &Database, changes: &TableChanges) -> RelResult<Change> {
        if let (Plan::Scan(_), DNode::Scan { table, held }) = (&self.plan, &mut self.root) {
            // A bare scan's output is the stored table itself, as it is
            // the executor's: the same storage, primary key included.
            let t = db.table(table)?;
            self.out = t.clone();
            return Ok(scan_change(t, held, changes.get(table)).map_full(|()| t.clone()));
        }
        match self.root.refresh(db, changes)? {
            Change::Unchanged => Ok(Change::Unchanged),
            Change::Patch(p) => {
                // In place: an output nobody else holds — a
                // subscription's — moves no row it keeps.
                self.out.patch(&p)?;
                Ok(Change::Patch(p))
            }
            Change::Full(rows) => {
                self.out = Table::from_validated(self.out.schema().clone(), rows)?;
                Ok(Change::Full(self.out.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Aggregate;
    use crate::expr::Expr;
    use crate::schema::Column;

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

    /// A scan holds the table it last read, so an edit nobody claimed that
    /// keeps the table's length is read again instead of kept: on a bare
    /// scan (the plan's output is the stored table), a filtering pipe, and
    /// a join whose build side is the edited table. The next refresh, with
    /// nothing edited, is `Unchanged` again.
    #[test]
    fn an_unclaimed_same_length_edit_is_read_again() {
        let exec = Executor::new();
        let mut db = test_db();
        let u = Schema::new("u", vec![Column::required("g", DataType::Int)]).unwrap();
        db.create_table(Table::from_rows(u, (0..3i64).map(|g| row(&[g]))).unwrap())
            .unwrap();
        let plans = [
            Plan::scan("t"),
            Plan::scan("t").select(Expr::col("x").gt(Expr::lit(40i64))),
            Plan::scan("u").join(Plan::scan("t"), vec![("g", "grp")], JoinKind::Inner),
        ];
        for plan in plans {
            let mut db = db.clone();
            let mut dp = DeltaPlan::init(&plan, &db, &exec).unwrap();
            // Row 5 leaves the filter and moves to another join group.
            let edited = db
                .table_mut("t")
                .unwrap()
                .update_where(
                    |r| r[0] == Value::Int(5),
                    |r| r[1..].clone_from_slice(&row(&[0, 0])),
                )
                .unwrap();
            assert_eq!((edited, db.table("t").unwrap().len()), (1, 20));
            let want = exec.execute(&plan, &db).unwrap();
            let change = dp.refresh(&db, &TableChanges::new(), &exec).unwrap();
            assert!(
                matches!(&change, Change::Full(full) if *full == want),
                "{plan:?}: {change:?}"
            );
            assert_eq!(dp.output().unwrap(), want, "{plan:?}");
            let again = dp.refresh(&db, &TableChanges::new(), &exec).unwrap();
            assert!(again.is_unchanged(), "{plan:?}");
        }
    }

    /// Join nodes in a resident tree.
    fn joins(n: &DNode) -> usize {
        match n {
            DNode::Join { left, right, .. } => 1 + joins(left) + joins(right),
            DNode::Pipe { input, .. }
            | DNode::Aggregate { input, .. }
            | DNode::Pivot { input, .. }
            | DNode::Recompute { input, .. } => joins(input),
            DNode::Union { inputs, .. } => inputs.iter().map(joins).sum(),
            DNode::Scan { .. } | DNode::Values { .. } => 0,
        }
    }

    /// What stays resident is the plan the executor runs: a `Left` lookup
    /// join on the lookup table's key, with no right column read, leaves
    /// no `Join` node, and the output still equals `execute`'s across
    /// insert, amend and delete batches. The lookup table the tree no
    /// longer reads still decides when it must bind again: changing its
    /// schema or dropping it makes the next refresh raise `execute`'s
    /// error and poison the plan, and restoring it heals the plan.
    #[test]
    fn the_prepared_plan_is_what_stays_resident() {
        let exec = Executor::new();
        let lookup = |key: &str| {
            let schema = Schema::new(
                "l",
                vec![
                    Column::required(key, DataType::Int),
                    Column::new("label", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&[key])
            .unwrap();
            Table::from_rows(schema, (0..3i64).map(|g| row(&[g, g * 100]))).unwrap()
        };
        let mut db = test_db();
        db.create_table(lookup("k")).unwrap();
        let join = |kind| Plan::scan("t").join(Plan::scan("l"), vec![("grp", "k")], kind);
        let plan = join(JoinKind::Left).project_cols(&["id", "x"]);
        let dp = DeltaPlan::init(
            &join(JoinKind::Inner).project_cols(&["id", "x"]),
            &db,
            &exec,
        );
        assert_eq!(joins(&dp.unwrap().root), 1, "an inner join is read");
        let mut cat = Catalog::new();
        cat.insert(db);
        let mut dc = DeltaCatalog::new(cat);
        let mut dp = DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
        assert_eq!(joins(&dp.root), 0, "the unread lookup join stays resident");

        let refresh = |dc: &mut DeltaCatalog, dp: &mut DeltaPlan| {
            let mut changes = TableChanges::new();
            if let Some(d) = dc.take_deltas().get("d", "t") {
                changes.set("t", d.to_change());
            }
            let db = dc.catalog().database("d").unwrap();
            (dp.refresh(db, &changes, &exec), exec.execute(&plan, db))
        };
        for step in 0..3i64 {
            dc.insert("d", "t", row(&[100 + step, step + 1, step]))
                .unwrap();
            dc.update_where(
                "d",
                "t",
                |r| r[0] == Value::Int(step),
                |r| r[2] = Value::Int(-1),
            )
            .unwrap();
            dc.delete_where("d", "t", |r| r[0] == Value::Int(10 + step))
                .unwrap();
            let (got, want) = refresh(&mut dc, &mut dp);
            assert!(matches!(got, Ok(Change::Patch(_))), "step {step}");
            assert_eq!(dp.output().unwrap(), want.unwrap(), "step {step}");
        }

        fn tables(dc: &mut DeltaCatalog) -> &mut Database {
            dc.catalog_mut().database_mut("d").unwrap()
        }
        let kept = tables(&mut dc).drop_table("l").unwrap();
        tables(&mut dc).put_table(lookup("key"));
        for broken in ["schema changed", "dropped"] {
            if broken == "dropped" {
                tables(&mut dc).drop_table("l").unwrap();
            }
            let (got, want) = refresh(&mut dc, &mut dp);
            assert_eq!(got.err(), Some(want.unwrap_err()), "lookup table {broken}");
            assert!(dp.is_poisoned(), "lookup table {broken}");
        }
        tables(&mut dc).put_table(kept);
        let (got, want) = refresh(&mut dc, &mut dp);
        assert!(got.is_ok() && !dp.is_poisoned());
        assert_eq!(dp.output().unwrap(), want.unwrap());
        assert_eq!(joins(&dp.root), 0);
    }

    /// A selection over a join moves onto the join's inputs before anything
    /// stays resident: the tree is a `Join` over two filtering pipes, and
    /// it refreshes to what `execute` returns under insert, amend and
    /// delete batches on either side.
    #[test]
    fn a_selection_moved_past_a_join_is_what_stays_resident() {
        let exec = Executor::new();
        let mut db = test_db();
        let u = Schema::new(
            "u",
            vec![
                Column::required("g", DataType::Int),
                Column::new("w", DataType::Int),
            ],
        )
        .unwrap()
        .with_primary_key(&["g"])
        .unwrap();
        db.create_table(Table::from_rows(u, (0..4i64).map(|g| row(&[g, g * 5]))).unwrap())
            .unwrap();
        // `x <> 30` reads the left input only, `w <> 5` the right only.
        let plan = Plan::scan("t")
            .join(Plan::scan("u"), vec![("grp", "g")], JoinKind::Inner)
            .select(
                Expr::col("x")
                    .ne(Expr::lit(30i64))
                    .and(Expr::col("w").ne(Expr::lit(5i64))),
            );
        let mut cat = Catalog::new();
        cat.insert(db);
        let mut dc = DeltaCatalog::new(cat);
        let mut dp = DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
        let DNode::Join { left, right, .. } = &dp.root else {
            panic!("the selection stayed above the join")
        };
        assert!(matches!(**left, DNode::Pipe { .. }) && matches!(**right, DNode::Pipe { .. }));

        for step in 0..4i64 {
            dc.insert("d", "t", row(&[100 + step, step % 3, step * 15]))
                .unwrap();
            dc.update_where(
                "d",
                "t",
                |r| r[0] == Value::Int(step),
                |r| r[2] = Value::Int(30),
            )
            .unwrap();
            dc.delete_where("d", "t", |r| r[0] == Value::Int(10 + step))
                .unwrap();
            // A right row amended into and out of the filter, a key deleted
            // and inserted again.
            dc.update_where(
                "d",
                "u",
                |r| r[0] == Value::Int(step % 3),
                |r| r[1] = Value::Int(5 + 2 * (step % 2)),
            )
            .unwrap();
            if step == 1 {
                dc.delete_where("d", "u", |r| r[0] == Value::Int(3))
                    .unwrap();
            } else if step == 2 {
                dc.insert("d", "u", row(&[3, 20])).unwrap();
            }
            let deltas = dc.take_deltas();
            let mut changes = TableChanges::new();
            for name in ["t", "u"] {
                if let Some(d) = deltas.get("d", name) {
                    changes.set(name, d.to_change());
                }
            }
            let db = dc.catalog().database("d").unwrap();
            dp.refresh(db, &changes, &exec).unwrap();
            let want = exec.execute(&plan, db).unwrap();
            assert!(!want.is_empty(), "step {step}");
            assert_eq!(dp.output().unwrap(), want, "step {step}");
        }
    }
}
