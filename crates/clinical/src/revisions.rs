//! Provider revisions as delta sources (Table 1's Audit pattern, made
//! incremental — DESIGN.md §12).
//!
//! The paper's Audit design pattern exists because contributor data keeps
//! changing: "no rows are ever deleted or updated" — a correction keeps
//! the superseded row, audit-flagged, and stores the amended report as
//! the new live row. [`crate::cori::physical_database`] bakes one round
//! of such edits into the initial load; this module performs *ongoing*
//! revisions through a [`DeltaCatalog`], so every correction is captured
//! as a per-table delta that the downstream refresh machinery
//! (`DeltaPlan`, `EtlWorkflow::run_incremental`, `StudyStore::refresh`)
//! can consume instead of triggering a full rebuild.
//!
//! Row-order contract: for each revised report the tombstone (the
//! superseded copy with the audit flag set) is appended first, then the
//! amended live row is re-inserted through
//! [`DeltaCatalog::update_where`] — which moves it to the end, per the
//! canonical merge. The post-state is therefore
//! `[untouched live rows…, tombstones…, amended rows…]`, deterministic
//! regardless of which rows matched.

use guava_relational::delta::DeltaCatalog;
use guava_relational::error::{RelError, RelResult};
use guava_relational::table::Row;
use guava_relational::value::Value;

use crate::cori;

/// Revise every live row of an audit-patterned table that matches
/// `select`: append a tombstone copy with `audit_flag` set to 1, then
/// re-insert the row amended by `amend`. Returns the number of reports
/// revised. Captured in the catalog's current delta window, and atomic
/// against a bad amendment: every amended row is built and checked
/// against the schema before the first tombstone goes in, so an `amend`
/// that breaks a row leaves the table and the window untouched.
pub fn audit_revise(
    dc: &mut DeltaCatalog,
    db: &str,
    table: &str,
    audit_flag: &str,
    select: impl Fn(&Row) -> bool,
    mut amend: impl FnMut(&mut Row),
) -> RelResult<usize> {
    let t = dc.catalog().database(db)?.table(table)?;
    let flag_idx = t
        .schema()
        .index_of(audit_flag)
        .ok_or_else(|| RelError::UnknownColumn {
            table: t.schema().name.clone(),
            column: audit_flag.to_owned(),
        })?;
    let live = |r: &Row| r[flag_idx] == Value::Int(0);
    let mut tombstones = Vec::new();
    let mut amended = Vec::new();
    for row in t.iter_rows().filter(|r| live(r) && select(r)) {
        let mut next = row.clone();
        amend(&mut next);
        t.schema().check_row(&next)?;
        amended.push(next);
        let mut tombstone = row.clone();
        tombstone[flag_idx] = Value::Int(1);
        tombstones.push(tombstone);
    }
    let n = amended.len();
    for tombstone in tombstones {
        dc.insert(db, table, tombstone)?;
    }
    // The tombstones just inserted have flag = 1, so the liveness guard
    // keeps this update from touching them; it meets the live matches in
    // the row order of the walk above, so each takes its own amendment.
    let mut amended = amended.into_iter();
    let revised = dc.update_where(
        db,
        table,
        |r| live(r) && select(r),
        |r| {
            if let Some(next) = amended.next() {
                *r = next;
            }
        },
    )?;
    debug_assert_eq!(revised, n);
    Ok(revised)
}

/// CORI-flavoured revision: amend the complication note of the named
/// reports in `tblProcedure`, tombstoning the superseded originals — the
/// ongoing version of the every-13th-report edit simulation in
/// [`crate::cori::physical_database`].
pub fn cori_amend_reports(
    dc: &mut DeltaCatalog,
    db: &str,
    instance_ids: &[i64],
    note: &str,
) -> RelResult<usize> {
    let t = dc.catalog().database(db)?.table(cori::PHYSICAL_TABLE)?;
    let schema = t.schema();
    let id_idx = schema
        .index_of("instance_id")
        .ok_or_else(|| RelError::UnknownColumn {
            table: schema.name.clone(),
            column: "instance_id".into(),
        })?;
    let note_idx =
        schema
            .index_of("other_complication")
            .ok_or_else(|| RelError::UnknownColumn {
                table: schema.name.clone(),
                column: "other_complication".into(),
            })?;
    let note = Value::text(note);
    audit_revise(
        dc,
        db,
        cori::PHYSICAL_TABLE,
        cori::AUDIT_FLAG,
        |r| {
            r[id_idx]
                .as_i64()
                .is_some_and(|id| instance_ids.contains(&id))
        },
        |r| r[note_idx] = note.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{generate, GeneratorConfig};
    use guava_relational::algebra::Plan;
    use guava_relational::delta::DeltaPlan;
    use guava_relational::exec::Executor;
    use guava_relational::expr::Expr;
    use guava_relational::prelude::Catalog;

    fn physical_catalog(n: usize) -> Catalog {
        let profiles = generate(&GeneratorConfig::default().with_size(n));
        let mut db = cori::physical_database(&profiles).unwrap();
        db.name = "cori".to_owned();
        let mut cat = Catalog::new();
        cat.insert(db);
        cat
    }

    #[test]
    fn revision_preserves_history_and_roundtrips_the_delta() {
        let cat = physical_catalog(60);
        let pre = cat
            .database("cori")
            .unwrap()
            .table(cori::PHYSICAL_TABLE)
            .unwrap()
            .clone();
        let flag_idx = pre.schema().index_of(cori::AUDIT_FLAG).unwrap();
        let pre_live = pre
            .iter_rows()
            .filter(|r| r[flag_idx] == Value::Int(0))
            .count();
        let pre_dead = pre.len() - pre_live;

        let mut dc = DeltaCatalog::new(cat);
        let revised = cori_amend_reports(&mut dc, "cori", &[5, 9], "follow-up added").unwrap();
        assert_eq!(revised, 2);

        let post = dc
            .catalog()
            .database("cori")
            .unwrap()
            .table(cori::PHYSICAL_TABLE)
            .unwrap()
            .clone();
        // History preserved: one new tombstone per revised report, the
        // live-row count unchanged.
        assert_eq!(post.len(), pre.len() + revised);
        let post_live = post
            .iter_rows()
            .filter(|r| r[flag_idx] == Value::Int(0))
            .count();
        assert_eq!(post_live, pre_live);
        assert_eq!(post.len() - post_live, pre_dead + revised);

        // The captured delta replays the pre-state into the post-state.
        let deltas = dc.take_deltas();
        let d = deltas.get("cori", cori::PHYSICAL_TABLE).unwrap();
        // Per revision: the live row's delete, its amended re-insert, and
        // the tombstone insert.
        assert_eq!(d.rows_changed(), 3 * revised);
        assert_eq!(d.apply(&pre.rows_from(0)), post.rows_from(0));
    }

    #[test]
    fn failing_amend_leaves_table_and_window_untouched() {
        let cat = physical_catalog(60);
        let pre = cat
            .database("cori")
            .unwrap()
            .table(cori::PHYSICAL_TABLE)
            .unwrap()
            .clone();
        let id_idx = pre.schema().index_of("instance_id").unwrap();
        let mut dc = DeltaCatalog::new(cat);
        // The first report amends cleanly, the second breaks its row: a
        // text in the INT key column fails the schema check.
        let mut calls = 0;
        let err = audit_revise(
            &mut dc,
            "cori",
            cori::PHYSICAL_TABLE,
            cori::AUDIT_FLAG,
            |r| matches!(r[id_idx].as_i64(), Some(5 | 9)),
            |r| {
                calls += 1;
                if calls == 2 {
                    r[id_idx] = Value::text("nine");
                }
            },
        );
        assert!(err.is_err());
        assert_eq!(calls, 2);
        let post = dc
            .catalog()
            .database("cori")
            .unwrap()
            .table(cori::PHYSICAL_TABLE)
            .unwrap();
        assert_eq!(post, &pre);
        assert!(dc.take_deltas().is_empty());
    }

    #[test]
    fn audit_filtered_plan_refreshes_incrementally() {
        // The Table 1 idiom "pull only data where C = 0" as a DeltaPlan:
        // a revision must update the filtered view byte-identically to a
        // from-scratch evaluation.
        let cat = physical_catalog(60);
        let exec = Executor::new();
        let plan = Plan::scan(cori::PHYSICAL_TABLE)
            .select(Expr::col(cori::AUDIT_FLAG).eq(Expr::lit(0i64)));

        let mut dc = DeltaCatalog::new(cat);
        let mut view =
            DeltaPlan::init(&plan, dc.catalog().database("cori").unwrap(), &exec).unwrap();

        cori_amend_reports(&mut dc, "cori", &[3, 7, 11], "amended again").unwrap();
        let deltas = dc.take_deltas();
        let d = deltas.get("cori", cori::PHYSICAL_TABLE).unwrap();

        let db = dc.catalog().database("cori").unwrap();
        let mut changes = guava_relational::delta::TableChanges::new();
        changes.set(cori::PHYSICAL_TABLE, d.to_change());
        view.refresh(db, &changes, &exec).unwrap();
        let fresh = exec.execute(&plan, db).unwrap();
        assert_eq!(view.output().unwrap(), fresh);
        // Tombstoned originals left the view; amended rows sit at the end.
        let note_idx = fresh.schema().index_of("other_complication").unwrap();
        assert!(fresh
            .iter_rows()
            .skip(fresh.len() - 3)
            .all(|r| r[note_idx] == Value::text("amended again")));
    }
}
