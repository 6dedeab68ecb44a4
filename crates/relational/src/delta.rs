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
//!    runs), Rename passes changes through untouched, Union merges
//!    child patches by offset, hash Join re-probes only delta left rows
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
//! group death, revival, and first-occurrence promotion. The output row
//! vector itself absorbs patches lazily, so a refresh that only needs
//! the new length never pays the splice.
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
    aggregate_output_schema, cast_text, check_union_compatible, join_output_schema, keyless,
    pivot_output_schema, pivot_rows, resolve_aggregate_columns, resolve_column, resolve_columns,
    sort_rows, unpivot_output_schema, unpivot_rows, AggAcc, AggFunc, Aggregate, JoinKind, Plan,
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

/// How one table (or one operator's output) changed between two states.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Byte-identical to the previous state.
    Unchanged,
    /// Positional edit script against the previous state.
    Patch(Patch),
    /// Replaced wholesale; carries the complete new row vector.
    Full(Vec<Row>),
}

impl Change {
    /// True for [`Change::Unchanged`].
    pub fn is_unchanged(&self) -> bool {
        matches!(self, Change::Unchanged)
    }

    /// Apply the change to a cached row vector in place.
    pub fn apply_to(&self, rows: &mut Vec<Row>) {
        match self {
            Change::Unchanged => {}
            Change::Patch(p) => p.apply_in_place(rows),
            Change::Full(new) => *rows = new.clone(),
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

    fn into_change(self) -> Change {
        if self.deleted.is_empty() && self.inserted.is_empty() {
            Change::Unchanged
        } else {
            Change::Patch(Patch {
                deleted: self.deleted,
                inserted: self.inserted,
            })
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
#[derive(Clone)]
struct TrackedTable {
    pre: Table,
    deleted: Vec<usize>,
    inserted: Vec<Row>,
}

impl TrackedTable {
    /// Current live row count of the tracked table.
    fn live_len(&self) -> usize {
        self.pre.len() - self.deleted.len() + self.inserted.len()
    }
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

    /// Snapshot `db.table` on first touch in this capture window.
    fn touch(&mut self, db: &str, table: &str) -> RelResult<()> {
        let key = (db.to_owned(), table.to_owned());
        if let std::collections::btree_map::Entry::Vacant(e) = self.tracked.entry(key) {
            let t = self.catalog.database(db)?.table(table)?;
            e.insert(TrackedTable {
                pre: t.clone(),
                deleted: Vec::new(),
                inserted: Vec::new(),
            });
        }
        Ok(())
    }

    /// Patch the catalog table with this operation's [`TableDelta`] —
    /// [`Table::apply_delta`] revalidates inserted rows (primary key
    /// included) and shares all untouched storage with the replaced
    /// table, so each mutation costs O(op), not O(table). Called with
    /// candidate bookkeeping *before* committing it, so a duplicate-key
    /// error leaves everything unchanged.
    fn commit(
        &mut self,
        db: &str,
        table: &str,
        tr: TrackedTable,
        op: &TableDelta,
    ) -> RelResult<()> {
        let t = self.catalog.database(db)?.table(table)?.apply_delta(op)?;
        self.catalog.database_mut(db)?.put_table(t);
        self.tracked.insert((db.to_owned(), table.to_owned()), tr);
        Ok(())
    }

    /// Append one row, validating it against the table schema (including
    /// primary-key uniqueness). Atomic: on error nothing changes.
    pub fn insert(&mut self, db: &str, table: &str, row: Row) -> RelResult<()> {
        self.touch(db, table)?;
        let schema = self.catalog.database(db)?.table(table)?.schema().clone();
        schema.check_row(&row)?;
        let mut tr = self.tracked[&(db.to_owned(), table.to_owned())].clone();
        let op = TableDelta {
            pre_len: tr.live_len(),
            deleted: Vec::new(),
            inserted: vec![row.clone()],
        };
        tr.inserted.push(row);
        self.commit(db, table, tr, &op)
    }

    /// Delete every live row matching `pred`; returns the count removed.
    pub fn delete_where(
        &mut self,
        db: &str,
        table: &str,
        pred: impl Fn(&Row) -> bool,
    ) -> RelResult<usize> {
        self.touch(db, table)?;
        let tr = &self.tracked[&(db.to_owned(), table.to_owned())];
        let mut op = TableDelta {
            pre_len: tr.live_len(),
            deleted: Vec::new(),
            inserted: Vec::new(),
        };
        // One merge-walk over the pre-state: skip already-deleted
        // ordinals, record each newly doomed row at its *current*
        // position (`cur`), which counts only surviving rows.
        let mut new_deleted = Vec::with_capacity(tr.deleted.len());
        let mut dead = tr.deleted.iter().copied().peekable();
        let mut cur = 0;
        for (p, row) in tr.pre.iter_rows().enumerate() {
            if dead.peek() == Some(&p) {
                dead.next();
                new_deleted.push(p);
                continue;
            }
            if pred(row) {
                new_deleted.push(p);
                op.deleted.push((cur, row.clone()));
            }
            cur += 1;
        }
        let mut new_inserted = Vec::with_capacity(tr.inserted.len());
        for r in &tr.inserted {
            if pred(r) {
                op.deleted.push((cur, r.clone()));
            } else {
                new_inserted.push(r.clone());
            }
            cur += 1;
        }
        let removed = op.deleted.len();
        let tr = TrackedTable {
            pre: tr.pre.clone(),
            deleted: new_deleted,
            inserted: new_inserted,
        };
        self.commit(db, table, tr, &op)?;
        Ok(removed)
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
        self.touch(db, table)?;
        let schema = self.catalog.database(db)?.table(table)?.schema().clone();
        let tr = &self.tracked[&(db.to_owned(), table.to_owned())];
        let mut op = TableDelta {
            pre_len: tr.live_len(),
            deleted: Vec::new(),
            inserted: Vec::new(),
        };
        let mut moved: Vec<Row> = Vec::new();
        let mut new_deleted = Vec::with_capacity(tr.deleted.len());
        let mut dead = tr.deleted.iter().copied().peekable();
        let mut cur = 0;
        for (p, row) in tr.pre.iter_rows().enumerate() {
            if dead.peek() == Some(&p) {
                dead.next();
                new_deleted.push(p);
                continue;
            }
            if pred(row) {
                let mut r = row.clone();
                f(&mut r);
                schema.check_row(&r)?;
                moved.push(r);
                new_deleted.push(p);
                op.deleted.push((cur, row.clone()));
            }
            cur += 1;
        }
        let mut new_inserted = Vec::with_capacity(tr.inserted.len());
        for r in &tr.inserted {
            if pred(r) {
                let mut m = r.clone();
                f(&mut m);
                schema.check_row(&m)?;
                moved.push(m);
                op.deleted.push((cur, r.clone()));
            } else {
                new_inserted.push(r.clone());
            }
            cur += 1;
        }
        let count = moved.len();
        new_inserted.extend(moved.iter().cloned());
        op.inserted = moved;
        let tr = TrackedTable {
            pre: tr.pre.clone(),
            deleted: new_deleted,
            inserted: new_inserted,
        };
        self.commit(db, table, tr, &op)?;
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
struct FirstSeenPatch {
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
    /// Content of the deleted pre-state rows, in ascending ordinal order
    /// (captured before the index mutates, for accumulator retraction).
    deleted_rows: Vec<Row>,
}

impl FirstSeenPatch {
    /// Apply `p` to `idx`, classifying every group-order event on the way.
    /// `O(delta · log n)` plus promotion elections (see
    /// [`FirstSeenIndex::remove`]).
    fn apply(idx: &mut FirstSeenIndex, p: &Patch) -> FirstSeenPatch {
        // Pass A (read-only, pre-state coordinates): capture deleted row
        // content, the affected key set, and each affected key's old rank.
        let deleted_rows: Vec<Row> = p.deleted().iter().map(|&i| idx.row(i).clone()).collect();
        let mut affected: Vec<Vec<Value>> = Vec::new();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        for r in deleted_rows.iter().chain(p.new_rows()) {
            let key = idx.key_of(r);
            if seen.insert(key.clone()) {
                affected.push(key);
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
        let mut note = |key: &[Value], died_once: &HashSet<Vec<Value>>| {
            // A promotion only breaks emission order when it moves the
            // anchor of a *continuously surviving* group; born or revived
            // groups are re-ranked from final state anyway.
            if old_rank.contains_key(key) && !died_once.contains(key) {
                order_broken = true;
            }
        };
        let mut di = p.deleted().len();
        let mut gi = p.inserted().len();
        while di > 0 || gi > 0 {
            let take_delete = di > 0 && (gi == 0 || p.deleted()[di - 1] >= p.inserted()[gi - 1].0);
            if take_delete {
                di -= 1;
                let (row, outcome) = idx.remove(p.deleted()[di]);
                match outcome {
                    RemoveOutcome::Died => {
                        died_once.insert(idx.key_of(&row));
                    }
                    RemoveOutcome::Promoted => note(&idx.key_of(&row), &died_once),
                    RemoveOutcome::Later => {}
                }
            } else {
                gi -= 1;
                let (pos, rows) = &p.inserted()[gi];
                for (k, r) in rows.iter().enumerate() {
                    let key = idx.key_of(r);
                    match idx.insert(pos + k, r.clone()) {
                        InsertOutcome::Promoted => note(&key, &died_once),
                        InsertOutcome::NewKey | InsertOutcome::Later => {}
                    }
                }
            }
        }
        FirstSeenPatch {
            affected,
            old_rank,
            old_group_count,
            died_once,
            order_broken,
            deleted_rows,
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
        idx: &FirstSeenIndex,
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
        Some(match pb.into_change() {
            Change::Patch(p) => p,
            _ => Patch::default(),
        })
    }
}

/// A cached row vector that absorbs [`Change`]s lazily: patches are queued
/// and the length tracked in `O(1)`, so a refresh that only needs the new
/// length (or is followed by more patches) never pays the `O(n)` splice.
/// The queue is drained on [`LazyRows::rows`] access (and bounded, so
/// repeated refreshes without reads cannot accumulate unbounded work).
#[derive(Clone, Default)]
struct LazyRows {
    rows: Vec<Row>,
    pending: Vec<Patch>,
    len: usize,
}

/// Queue at most this many patches before folding them into `rows`.
const LAZY_FLUSH: usize = 32;

impl LazyRows {
    fn new(rows: Vec<Row>) -> LazyRows {
        LazyRows {
            len: rows.len(),
            rows,
            pending: Vec::new(),
        }
    }

    /// Post-change length, `O(1)`.
    fn len(&self) -> usize {
        self.len
    }

    /// Absorb one change. `O(1)` for patches (amortized; queued), `O(n)`
    /// for wholesale replacement.
    fn push(&mut self, change: &Change) {
        match change {
            Change::Unchanged => {}
            Change::Patch(p) => {
                self.len = p.new_len(self.len);
                self.pending.push(p.clone());
                if self.pending.len() >= LAZY_FLUSH {
                    self.flush();
                }
            }
            Change::Full(rows) => {
                self.pending.clear();
                self.rows = rows.clone();
                self.len = rows.len();
            }
        }
    }

    fn flush(&mut self) {
        for p in self.pending.drain(..) {
            p.apply_in_place(&mut self.rows);
        }
    }

    /// The materialized current rows (drains the queue).
    fn rows(&mut self) -> &Vec<Row> {
        self.flush();
        &self.rows
    }

    /// Current rows without mutable access: clones the base vector and
    /// replays any queued patches onto the clone.
    fn to_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        for p in &self.pending {
            p.apply_in_place(&mut rows);
        }
        rows
    }
}

/// Evaluate `predicate` over `rows` in one executor batch, returning a
/// pass/fail flag per row. A synthetic INT ordinal column (named to avoid
/// collisions) rides through the Select so surviving ordinals identify the
/// passing rows; predicate errors surface in row order, exactly as a full
/// evaluation over the same rows would report them.
fn select_batch(
    exec: &Executor,
    in_schema: &Schema,
    predicate: &Expr,
    rows: Vec<Row>,
) -> RelResult<Vec<bool>> {
    let n = rows.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut ord = "__delta_ord".to_owned();
    while in_schema.index_of(&ord).is_some() {
        ord.push('_');
    }
    let mut cols = in_schema.columns().to_vec();
    cols.push(Column::new(ord, DataType::Int));
    let schema = Schema::new(in_schema.name.clone(), cols)?;
    let rows: Vec<Row> = rows
        .into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            r.push(Value::Int(i as i64));
            r
        })
        .collect();
    let plan = Plan::Values { schema, rows }.select(predicate.clone());
    let out = exec.execute(&plan, &Database::new("__delta_batch__"))?;
    let mut passed = vec![false; n];
    for r in out.rows() {
        if let Some(Value::Int(i)) = r.last() {
            passed[*i as usize] = true;
        }
    }
    Ok(passed)
}

/// Evaluate projection expressions over `rows` in one executor batch. Row
/// and in-row column error order match a full evaluation over these rows.
fn project_batch(
    exec: &Executor,
    in_schema: &Schema,
    columns: &[(String, Expr)],
    rows: Vec<Row>,
) -> RelResult<Vec<Row>> {
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let plan = Plan::Values {
        schema: in_schema.clone(),
        rows,
    }
    .project(columns.to_vec());
    Ok(exec
        .execute(&plan, &Database::new("__delta_batch__"))?
        .into_rows())
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
        /// Per-child cached rows; all-patch refreshes only read lengths,
        /// so the splice cost is deferred until a child is materialized.
        child_rows: Vec<LazyRows>,
        schema: Schema,
    },
    Join {
        left: Box<DNode>,
        right: Box<DNode>,
        left_rows: Vec<Row>,
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
        rows_idx: FirstSeenIndex,
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
        /// Input rows with first-occurrence tracking over the entity key
        /// columns (wide-row output order is entity first-seen order).
        rows_idx: FirstSeenIndex,
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
    idx: &FirstSeenIndex,
    groups: &HashMap<Vec<Value>, GroupState>,
    aggregates: &[Aggregate],
    global: bool,
) -> Vec<Row> {
    if global {
        return vec![agg_row(&[], &groups[&Vec::new()], aggregates)];
    }
    idx.first_rows_in_order()
        .map(|first| {
            let k = idx.key_of(first);
            agg_row(&k, &groups[&k], aggregates)
        })
        .collect()
}

/// Validate one pivot input row exactly as [`pivot_rows`] would: the
/// attribute cell must be text, and a non-null value for a requested
/// attribute must cast to the attribute's declared type.
fn check_pivot_row(
    row: &Row,
    attr_idx: usize,
    val_idx: usize,
    attr_pos: &HashMap<&str, usize>,
    attrs: &[(String, DataType)],
) -> RelResult<()> {
    let attr = match &row[attr_idx] {
        Value::Text(a) => a.as_str(),
        other => {
            return Err(RelError::Eval(format!(
                "pivot attribute column holds non-text value {other}"
            )))
        }
    };
    if let Some(&pos) = attr_pos.get(attr) {
        match &row[val_idx] {
            Value::Null => {}
            Value::Text(t) => {
                cast_text(t, attrs[pos].1)?;
            }
            other => {
                cast_text(&other.to_string(), attrs[pos].1)?;
            }
        }
    }
    Ok(())
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
                let passed = select_batch(exec, &schema, predicate, crows.clone())?;
                let mut out = Vec::new();
                for (i, r) in crows.into_iter().enumerate() {
                    if passed[i] {
                        out.push(r);
                    }
                }
                let (lineage, _) =
                    RankList::from_entries(passed.iter().map(|&b| ((), u64::from(b))));
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
                let out: Vec<Row> = child_rows.iter().flat_map(|r| r.iter().cloned()).collect();
                Ok((
                    DNode::Union {
                        inputs: nodes,
                        child_rows: child_rows.into_iter().map(LazyRows::new).collect(),
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
                let rows_idx = FirstSeenIndex::from_rows(crows, g_idx.clone());
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
                let out = pivot_rows(&crows, &key_idx, attr_idx, val_idx, attrs)?;
                let rows_idx = FirstSeenIndex::from_rows(crows, key_idx.clone());
                Ok((
                    DNode::Pivot {
                        input: Box::new(child),
                        rows_idx,
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
    ) -> RelResult<Change> {
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
                    let passed = select_batch(exec, in_schema, predicate, rows.clone())?;
                    let mut out = Vec::new();
                    for (i, r) in rows.into_iter().enumerate() {
                        if passed[i] {
                            out.push(r);
                        }
                    }
                    let (lin, _) =
                        RankList::from_entries(passed.iter().map(|&b| ((), u64::from(b))));
                    *lineage = lin;
                    Ok(Change::Full(out))
                }
                Change::Patch(p) => {
                    // Only delta rows see the predicate (retained rows
                    // evaluated it in a previous successful run). Two
                    // passes over the patch events, each O(delta · log n):
                    // pass 1 reads output ranks against the pre-state
                    // lineage; pass 2 splices the events into the index.
                    let cands: Vec<Row> = p.new_rows().cloned().collect();
                    let passed = select_batch(exec, in_schema, predicate, cands)?;
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
                                lineage.insert_at(pos + k, (), u64::from(passed[starts[gi] + k]));
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
                child_rows,
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
                for (k, c) in ch.iter().enumerate() {
                    if k == 0 {
                        continue;
                    }
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
                if ch.iter().any(|c| matches!(c, Change::Full(_))) {
                    let mut out = Vec::new();
                    for (rows, c) in child_rows.iter_mut().zip(&ch) {
                        rows.push(c);
                        out.extend(rows.rows().iter().cloned());
                    }
                    return Ok(Change::Full(out));
                }
                // All patches: shift child coordinates by the child's old
                // offset — O(delta), only lengths are read. Child k's
                // appends land just before child k+1's position-0 inserts
                // at the same output position, matching the concatenated
                // rebuild.
                let mut pb = PatchBuilder::default();
                let mut off = 0usize;
                for (rows, c) in child_rows.iter_mut().zip(&ch) {
                    let old_len = rows.len();
                    if let Change::Patch(p) = c {
                        for &d in p.deleted() {
                            pb.delete(off + d);
                        }
                        for (pos, grp) in p.inserted() {
                            pb.insert_rows(off + pos, grp.clone());
                        }
                    }
                    rows.push(c);
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
                        let old_len = left_rows.len();
                        let old_counts = std::mem::take(out_counts);
                        let mut new_left = Vec::with_capacity(p.new_len(old_len));
                        let mut new_counts = Vec::with_capacity(p.new_len(old_len));
                        let mut pb = PatchBuilder::default();
                        let mut del = p.deleted().iter().peekable();
                        let mut ins = p.inserted().iter().peekable();
                        let mut old_iter = std::mem::take(left_rows).into_iter();
                        for i in 0..=old_len {
                            while ins.peek().is_some_and(|(pos, _)| *pos == i) {
                                for r in &ins.next().expect("peeked").1 {
                                    let outs =
                                        probe_left(r, l_idx, index, right_rows, *r_arity, *kind);
                                    new_counts.push(outs.len());
                                    pb.insert_rows(prefix[i], outs);
                                    new_left.push(r.clone());
                                }
                            }
                            if i == old_len {
                                break;
                            }
                            let row = old_iter.next().expect("in range");
                            if del.peek() == Some(&&i) {
                                del.next();
                                for op in prefix[i]..prefix[i + 1] {
                                    pb.delete(op);
                                }
                            } else {
                                new_left.push(row);
                                new_counts.push(old_counts[i]);
                            }
                        }
                        *left_rows = new_left;
                        *out_counts = new_counts;
                        Ok(pb.into_change())
                    }
                    (lc, rc) => {
                        // Build side changed (or probe side replaced):
                        // rebuild the index and re-probe everything.
                        lc.apply_to(left_rows);
                        rc.apply_to(right_rows);
                        *index = build_join_index(right_rows, r_idx);
                        let mut out = Vec::new();
                        out_counts.clear();
                        for lrow in left_rows.iter() {
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
                        *rows_idx = FirstSeenIndex::from_rows(rows, g_idx.clone());
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
                        let fsp = FirstSeenPatch::apply(rows_idx, &p);
                        if *retractable {
                            for r in &fsp.deleted_rows {
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
                                for pos in rows_idx.occurrence_positions(key) {
                                    agg_fold(groups, rows_idx.row(pos), g_idx, agg_idx, n_aggs);
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
                            Some(match pb.into_change() {
                                Change::Patch(patch) => patch,
                                _ => Patch::default(),
                            })
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
                rows_idx,
                key_idx,
                attr_idx,
                val_idx,
                attrs,
            } => match input.refresh(db, changes, exec)? {
                Change::Unchanged => Ok(Change::Unchanged),
                Change::Full(rows) => {
                    let out = pivot_rows(&rows, key_idx, *attr_idx, *val_idx, attrs)?;
                    *rows_idx = FirstSeenIndex::from_rows(rows, key_idx.clone());
                    Ok(Change::Full(out))
                }
                Change::Patch(p) => {
                    let attr_pos: HashMap<&str, usize> = attrs
                        .iter()
                        .enumerate()
                        .map(|(i, (n, _))| (n.as_str(), i))
                        .collect();
                    // Delta rows validate first, in input order — retained
                    // rows passed the same checks in a previous run, so
                    // this reproduces the rebuild's first error.
                    for r in p.new_rows() {
                        check_pivot_row(r, *attr_idx, *val_idx, &attr_pos, attrs)?;
                    }
                    let fsp = FirstSeenPatch::apply(rows_idx, &p);
                    // Rebuild affected entities' wide rows from each
                    // entity's surviving occurrences, in input order (last
                    // write per cell wins, as in `pivot_rows`).
                    let mut rebuilt: HashMap<Vec<Value>, Row> = HashMap::new();
                    for key in &fsp.affected {
                        for pos in rows_idx.occurrence_positions(key) {
                            let row = rows_idx.row(pos);
                            let slot = rebuilt.entry(key.clone()).or_insert_with_key(|k| {
                                let mut r = k.clone();
                                r.extend(std::iter::repeat_n(Value::Null, attrs.len()));
                                r
                            });
                            let attr = match &row[*attr_idx] {
                                Value::Text(a) => a.as_str(),
                                _ => unreachable!("validated above or in a previous run"),
                            };
                            if let Some(&apos) = attr_pos.get(attr) {
                                let v = match &row[*val_idx] {
                                    Value::Null => continue,
                                    Value::Text(t) => cast_text(t, attrs[apos].1)?,
                                    other => cast_text(&other.to_string(), attrs[apos].1)?,
                                };
                                slot[key_idx.len() + apos] = v;
                            }
                        }
                    }
                    match fsp.emit(rows_idx, |k| rebuilt[k].clone()) {
                        Some(patch) if patch.is_empty() => Ok(Change::Unchanged),
                        Some(patch) => Ok(Change::Patch(patch)),
                        None => {
                            let rows: Vec<Row> = rows_idx.rows_in_order().cloned().collect();
                            Ok(Change::Full(pivot_rows(
                                &rows, key_idx, *attr_idx, *val_idx, attrs,
                            )?))
                        }
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
    schema: Schema,
    rows: LazyRows,
    poisoned: bool,
}

impl DeltaPlan {
    /// Evaluate `plan` once, caching per-operator differential state.
    pub fn init(plan: &Plan, db: &Database, exec: &Executor) -> RelResult<DeltaPlan> {
        let (root, schema, rows) = DNode::init(plan, db, exec)?;
        Ok(DeltaPlan {
            plan: plan.clone(),
            root,
            schema,
            rows: LazyRows::new(rows),
            poisoned: false,
        })
    }

    /// The plan's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of output rows currently cached. `O(1)` — patch refreshes
    /// track the length without materializing the spliced row vector.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the cached output has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// True after a refresh error; the next refresh re-initializes.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The current output as a table — byte-identical to what
    /// `plan.eval(db)` returns for the current database state. `O(n)`:
    /// the cached rows are cloned (and any queued patches replayed).
    pub fn output(&self) -> RelResult<Table> {
        Table::from_validated(self.schema.clone(), self.rows.to_rows())
    }

    /// Propagate base-table changes to the output. Returns how the output
    /// changed relative to the previous state ([`Change::Unchanged`] when
    /// nothing downstream-visible moved), for threading into consumers
    /// that cache this plan's output.
    pub fn refresh(
        &mut self,
        db: &Database,
        changes: &TableChanges,
        exec: &Executor,
    ) -> RelResult<Change> {
        if self.poisoned || self.root.scans_stale(db) {
            // Full re-initialization: either the previous refresh errored,
            // or a scanned table's schema changed under us (stale bindings).
            let (root, schema, rows) = DNode::init(&self.plan, db, exec)?;
            self.root = root;
            self.schema = schema;
            self.rows = LazyRows::new(rows.clone());
            self.poisoned = false;
            return Ok(Change::Full(rows));
        }
        match self.root.refresh(db, changes, exec) {
            Ok(change) => {
                self.rows.push(&change);
                Ok(change)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
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
