//! The statistics catalog: per-table/per-column statistics feeding the
//! cost-based optimizer (DESIGN.md §17).
//!
//! # Lifecycle
//!
//! Statistics are **collected where the data already flows**, never by a
//! dedicated scan pass of their own:
//!
//! - *Segment sealing*: every sealed [`SegmentColumn`](crate::segment::SegmentColumn) carries a
//!   [`DistinctSketch`] accumulated while its zone map is built, so the
//!   sealed prefix of a table contributes row counts, min/max, null
//!   counts, and NDV for free ([`TableStats::from_table`] merely merges
//!   per-segment statistics).
//! - *Load*: the row-form delta tail past the sealed prefix is scanned
//!   once, row-wise, when the table's stats are first collected.
//! - *Refresh*: a [`TableDelta`] captured by a
//!   [`DeltaCatalog`](crate::delta::DeltaCatalog) **patches** the resting
//!   [`StatsCatalog`] in `O(delta)` — counts are adjusted exactly, while
//!   min/max/NDV only widen (see below). The warehouse service layer
//!   patches its snapshot's catalog on every generational install instead
//!   of rebuilding it.
//!
//! # Exact vs. conservative fields
//!
//! Row counts and null counts are maintained *exactly* under patches
//! (deletes carry their row content, so per-column null deltas are
//! known). Min/max and the NDV sketch are *widen-only*: inserts extend
//! them, deletes do not shrink them. Estimates therefore stay sound in
//! the direction the optimizer cares about — a too-wide range or a
//! too-high NDV only makes selectivity estimates more conservative, never
//! resurrects rows — and a full re-collect
//! ([`StatsCatalog::collect`]) re-tightens them whenever a table is
//! rebuilt anyway.
//!
//! Statistics are advisory: they influence which of several
//! byte-identical physical plans is chosen (see [`cost`]), never what a
//! plan evaluates to.

pub mod cost;
pub mod estimate;
pub mod explain;
pub mod sketch;

pub use cost::{optimize_with_stats, PlanCost};
pub use explain::explain_plan;
pub use sketch::DistinctSketch;

use crate::database::Database;
use crate::delta::{DeltaSet, TableDelta};
use crate::segment::ZoneMap;
use crate::table::{Row, Table};
use crate::value::Value;
use std::collections::BTreeMap;

/// Statistics for one column: exact null/row accounting plus widen-only
/// min/max and NDV (see module docs for the patch semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of NULL values (exact under patches).
    pub null_count: usize,
    /// Least non-null value seen ([`Value::total_cmp`]); `Null` if none.
    pub min: Value,
    /// Greatest non-null value seen; `Null` if none.
    pub max: Value,
    /// Distinct-value sketch over non-null values.
    pub sketch: DistinctSketch,
}

impl Default for ColumnStats {
    fn default() -> ColumnStats {
        ColumnStats {
            null_count: 0,
            min: Value::Null,
            max: Value::Null,
            sketch: DistinctSketch::new(),
        }
    }
}

impl ColumnStats {
    /// Observe one value (widens min/max, feeds the sketch, counts nulls).
    pub fn observe(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        if self.min.is_null() || v.total_cmp(&self.min).is_lt() {
            self.min = v.clone();
        }
        if self.max.is_null() || v.total_cmp(&self.max).is_gt() {
            self.max = v.clone();
        }
        self.sketch.insert(v);
    }

    /// Fold a sealed segment column's zone map and sketch in.
    fn absorb_segment(&mut self, zone: &ZoneMap, sketch: &DistinctSketch) {
        self.null_count += zone.null_count;
        if !zone.min.is_null() && (self.min.is_null() || zone.min.total_cmp(&self.min).is_lt()) {
            self.min = zone.min.clone();
        }
        if !zone.max.is_null() && (self.max.is_null() || zone.max.total_cmp(&self.max).is_gt()) {
            self.max = zone.max.clone();
        }
        self.sketch.merge(sketch);
    }

    /// Estimated number of distinct non-null values, clamped to at least
    /// 1 when any non-null value was observed (so selectivities never
    /// divide by zero) and exactly 0 for empty/all-NULL columns.
    pub fn ndv(&self) -> f64 {
        if self.sketch.is_empty() {
            0.0
        } else {
            self.sketch.estimate().max(1.0)
        }
    }

    /// Fraction of `rows` that are NULL in this column, clamped to `[0, 1]`.
    /// An empty table reports 0.
    pub fn null_fraction(&self, rows: usize) -> f64 {
        if rows == 0 {
            0.0
        } else {
            (self.null_count as f64 / rows as f64).clamp(0.0, 1.0)
        }
    }
}

/// Statistics for one table: a row count plus per-column stats in schema
/// order, addressable by column name.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    rows: usize,
    columns: Vec<(String, ColumnStats)>,
}

impl TableStats {
    /// Collect statistics for a table.
    ///
    /// Every chunk's sealed segment contributes its zone maps and NDV
    /// sketches (built at sealing time — no rescan). A segment describes
    /// all the rows it was sealed over, rows deleted since included, so
    /// collection follows the same contract as [`TableStats::patch`]: the
    /// nulls of those dead rows are retracted, which keeps `rows` and
    /// every `null_count` exact, while min/max/NDV stay widen-only
    /// (a deleted extreme is still a valid bound). As a side effect the
    /// table's chunks are sealed if they were not yet — stats collection
    /// warms the same resting format scans read from.
    pub fn from_table(t: &Table) -> TableStats {
        let mut stats = TableStats {
            rows: t.len(),
            columns: t
                .schema()
                .columns()
                .iter()
                .map(|c| (c.name.clone(), ColumnStats::default()))
                .collect(),
        };
        for seg in t.segments().segments() {
            for (i, (_, cs)) in stats.columns.iter_mut().enumerate() {
                let col = seg.column(i);
                cs.absorb_segment(col.zone(), col.ndv_sketch());
            }
        }
        for row in t.dead_sealed_rows() {
            stats.retract_nulls(row);
        }
        stats
    }

    /// Total row count (exact under patches).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Stats for a column, by name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Patch with a captured delta: row/null counts adjust exactly,
    /// min/max/NDV widen from the inserted rows (deletes never shrink
    /// them — see module docs). Rows whose arity does not match are
    /// ignored defensively; the delta layer validates rows before commit.
    pub fn patch(&mut self, delta: &TableDelta) {
        for (_, row) in &delta.deleted {
            self.rows = self.rows.saturating_sub(1);
            self.retract_nulls(row);
        }
        for row in &delta.inserted {
            self.rows += 1;
            if row.len() == self.columns.len() {
                for (i, (_, cs)) in self.columns.iter_mut().enumerate() {
                    cs.observe(&row[i]);
                }
            }
        }
    }

    fn retract_nulls(&mut self, row: &Row) {
        if row.len() != self.columns.len() {
            return;
        }
        for (i, (_, cs)) in self.columns.iter_mut().enumerate() {
            if row[i].is_null() {
                cs.null_count = cs.null_count.saturating_sub(1);
            }
        }
    }
}

/// The resting statistics catalog: [`TableStats`] per table name.
///
/// A catalog describes one [`Database`] (table names are unique within
/// it). It is collected once — [`StatsCatalog::collect`] — and then kept
/// warm by `O(delta)` patches from the same [`TableDelta`]s the
/// differential layer captures, so a long-lived engine never pays a
/// rescan on refresh.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsCatalog {
    tables: BTreeMap<String, TableStats>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> StatsCatalog {
        StatsCatalog::default()
    }

    /// Collect statistics for every table in `db`.
    pub fn collect(db: &Database) -> StatsCatalog {
        let mut cat = StatsCatalog::new();
        for name in db.table_names() {
            if let Ok(t) = db.table(name) {
                cat.tables
                    .insert(name.to_owned(), TableStats::from_table(t));
            }
        }
        cat
    }

    /// Stats for a table, by name.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Install (or replace) one table's statistics.
    pub fn insert(&mut self, name: impl Into<String>, stats: TableStats) {
        self.tables.insert(name.into(), stats);
    }

    /// Drop one table's statistics (e.g. when the table itself drops).
    pub fn remove(&mut self, name: &str) -> Option<TableStats> {
        self.tables.remove(name)
    }

    /// Patch one table's statistics with a captured delta. Unknown tables
    /// are ignored — a catalog only tracks what it collected.
    pub fn patch(&mut self, table: &str, delta: &TableDelta) {
        if let Some(t) = self.tables.get_mut(table) {
            t.patch(delta);
        }
    }

    /// Patch from a whole captured [`DeltaSet`] (every table the set
    /// touches, by table name — the catalog is per-database, so the set's
    /// database component is not consulted).
    pub fn patch_all(&mut self, deltas: &DeltaSet) {
        for ((_, table), delta) in deltas.iter() {
            self.patch(table, delta);
        }
    }

    /// Number of tables tracked.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog tracks no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}
