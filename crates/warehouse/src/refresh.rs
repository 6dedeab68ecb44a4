//! Incremental warehouse refresh (DESIGN.md §12; the differential layer
//! it builds on is specified by the incremental-maintenance contract in
//! DESIGN.md §15).
//!
//! A [`StudyStore`] holds the extracted naïve form plus whatever the
//! materialization policy turned into study tables. When contributor data
//! changes, the naïve form changes — as a [`TableDelta`] captured upstream
//! (a [`guava_relational::delta::DeltaCatalog`] over the naïve database, or
//! the change stream of an incremental ETL run). [`StudyStore::refresh`]
//! patches the store in place instead of rebuilding it:
//!
//! * the naïve form is replaced by the canonical merge (retained rows in
//!   their original order, then inserted rows — updates captured as
//!   delete + re-insert therefore move to the end, exactly as
//!   `DeltaCatalog::update_where` records them);
//! * the materialized table, if any, keeps every row whose `instance_id`
//!   was not deleted and classifies **only the inserted naïve rows**,
//!   appending their output.
//!
//! A materialized table is the plan
//! `π[instance_id, CASE…](σ[guard](naïve))` (see [`materialize`]), and
//! both of its operators are row-local: σ keeps or drops a row on that
//! row's values alone and π maps it to one output row, in input order. So
//! the plan over the merged naïve form is the plan over the retained rows
//! followed by the plan over the inserted rows, and patching is
//! byte-identical to a from-scratch [`StudyStore::build`]: the retained
//! outputs are what the rebuild would recompute (the classifiers are
//! pure), and the inserted rows run through the same plan here. The first
//! error is also identical: retained rows cannot fail (they succeeded
//! when the store was built), so the first failing inserted row — or the
//! first duplicate-key / type violation in the merged table — surfaces in
//! the same order a rebuild would surface it. The refresh is atomic: on
//! error the store is left untouched.
//!
//! [`materialize`]: crate::materialize::materialize
//!
//! Derived classifiers ([`StudyStore::register_derived`]) need no
//! refreshing of their own — they are computed on read from the (now
//! refreshed) materialized base column.

use crate::materialize::{classify, StudyStore};
use guava_multiclass::classifier::BoundClassifier;
use guava_relational::delta::TableDelta;
use guava_relational::error::{RelError, RelResult};
use guava_relational::table::{Row, Table};
use guava_relational::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

impl StudyStore {
    /// Patch this store in place with a delta over its naïve form.
    ///
    /// `entity_classifier` and `classifiers` must be the same bindings the
    /// store was [`build`](StudyStore::build)ed with — the store keeps
    /// classifier *output*, not the classifiers themselves. The result is
    /// byte-identical (same rows, same order, same first error) to
    /// rebuilding the store from the merged naïve form; see the module
    /// docs for the argument. `delta` must be a position-accurate window
    /// against the *current* naïve form (DESIGN.md §15 invariant D1):
    /// `pre_len` and every `(pos, row)` in `deleted` are verified before
    /// anything is mutated, so a stale or replayed delta fails cleanly.
    ///
    /// Cost is O(delta): the new naïve form is built by
    /// [`Table::apply_delta`] — every retained chunk of the pre-state is
    /// *shared* (same `Arc`s), only delete masks and the inserted tail are
    /// allocated — and the materialized table is patched the same way
    /// through its primary-key index, classifying only the inserted rows.
    /// Nothing O(n) happens on the install path; the per-operator
    /// sub-linear machinery of §15 lives in
    /// [`DeltaPlan`](guava_relational::delta::DeltaPlan) upstream.
    ///
    /// Returns the row-level delta the patch applied to the materialized
    /// study table — rows whose `instance_id` was deleted drop at their
    /// old ordinals, the freshly classified rows append — so a caller
    /// with resident plans over that table need not derive it again;
    /// `None` when the policy keeps no table or nothing in it changed.
    pub fn refresh(
        &mut self,
        delta: &TableDelta,
        entity_classifier: &BoundClassifier,
        classifiers: &[&BoundClassifier],
    ) -> RelResult<Option<TableDelta>> {
        let naive_schema = self.naive_form.schema();
        if delta.pre_len != self.naive_form.len() {
            return Err(RelError::Plan(format!(
                "refresh delta captured against {} naïve rows, store has {}",
                delta.pre_len,
                self.naive_form.len()
            )));
        }
        for (pos, row) in &delta.deleted {
            if self.naive_form.row_at(*pos) != Some(row) {
                return Err(RelError::Plan(format!(
                    "refresh delta does not match the stored naïve form at row {pos}"
                )));
            }
        }
        if delta.is_empty() {
            return Ok(None);
        }

        // 1. Canonical merge of the naïve form, structurally sharing every
        //    retained chunk with the pre-state. `apply_delta` revalidates
        //    the inserted rows exactly as a rebuild's input construction
        //    would (type checks, first duplicate key in merged order).
        let new_naive = Arc::new(self.naive_form.apply_delta(delta)?);

        // 2. Patch the materialized table, if the policy keeps one.
        let patched = match &self.materialized {
            None => None,
            Some(m) => {
                let iid = naive_schema.index_of("instance_id").ok_or_else(|| {
                    RelError::UnknownColumn {
                        table: naive_schema.name.clone(),
                        column: "instance_id".into(),
                    }
                })?;
                // Instance ids whose naïve rows were deleted (updates
                // re-insert, so their refreshed output re-appends below).
                // Resolve each to its materialized row through the
                // primary-key index — ids the entity classifier filtered
                // out have no materialized row and resolve to nothing.
                let mut seen: HashSet<&Value> = HashSet::new();
                let mut dropped: Vec<(usize, Row)> = Vec::new();
                for (_, row) in &delta.deleted {
                    let iid_v = &row[iid];
                    if seen.insert(iid_v) {
                        if let Some((pos, mrow)) = m.table.key_position(std::slice::from_ref(iid_v))
                        {
                            dropped.push((pos, mrow.clone()));
                        }
                    }
                }
                dropped.sort_by_key(|&(p, _)| p);
                // Classify only the inserted naïve rows, with the
                // classifiers the table materialized, in its column order.
                // The temp table cannot fail validation: its rows are a
                // subset of the merged rows step 1 already accepted.
                let subset: Vec<&BoundClassifier> = classifiers
                    .iter()
                    .filter(|c| m.materialized.contains(&c.name))
                    .copied()
                    .collect();
                let inserted = Table::from_rows(naive_schema.clone(), delta.inserted.clone())?;
                let fresh = classify(Arc::new(inserted), entity_classifier, &subset)?;
                let mdelta = TableDelta {
                    pre_len: m.table.len(),
                    deleted: dropped,
                    inserted: fresh.into_rows(),
                };
                if mdelta.is_empty() {
                    // Nothing materialized changed — the store keeps
                    // viewing the previous generation's table,
                    // pointer-identical.
                    None
                } else {
                    // `apply_delta` checks the inserted rows against the
                    // keyed schema and runs the same duplicate-key check
                    // against the retained index that a rebuild's final
                    // `from_rows` would hit first, so cross-partition
                    // duplicate keys error identically.
                    Some((Arc::new(m.table.apply_delta(&mdelta)?), mdelta))
                }
            }
        };

        // 3. Commit atomically — nothing above mutated `self`.
        self.naive_form = new_naive;
        let Some((table, mdelta)) = patched else {
            return Ok(None);
        };
        if let Some(m) = &mut self.materialized {
            m.table = table;
        }
        Ok(Some(mdelta))
    }
}

#[cfg(test)]
mod tests {
    use crate::materialize::{DerivedClassifier, MaterializationPolicy, StudyStore};
    use guava_forms::control::Control;
    use guava_forms::form::{FormDef, ReportingTool};
    use guava_gtree::tree::GTree;
    use guava_multiclass::prelude::*;
    use guava_relational::delta::DeltaCatalog;
    use guava_relational::expr::Expr;
    use guava_relational::prelude::*;

    fn setup() -> (GTree, StudySchema, Table) {
        let tool = ReportingTool::new(
            "cori",
            "1.0",
            vec![FormDef::new(
                "Procedure",
                "Procedure",
                vec![
                    Control::numeric("PacksPerDay", "Packs per day", DataType::Int),
                    Control::check_box("SurgeryPerformed", "Surgery?"),
                ],
            )],
        );
        let tree = GTree::derive(&tool).unwrap();
        let schema = StudySchema::new(
            "s",
            EntityDef::new("Procedure").with_attribute(AttributeDef::new(
                "Smoking",
                vec![
                    Domain::categorical("class", "classes", &["None", "Light", "Heavy"]),
                    Domain::new(
                        "packs",
                        "packs/day",
                        DomainSpec::Integer {
                            min: Some(0),
                            max: None,
                        },
                    ),
                ],
            )),
        );
        let naive = Table::from_rows(
            tool.forms[0].naive_schema(),
            vec![
                vec![1.into(), 0.into(), true.into()],
                vec![2.into(), 1.into(), true.into()],
                vec![3.into(), 5.into(), false.into()],
                vec![4.into(), 9.into(), true.into()],
            ],
        )
        .unwrap();
        (tree, schema, naive)
    }

    fn fixtures() -> (BoundClassifier, BoundClassifier, BoundClassifier, Table) {
        let (tree, schema, naive) = setup();
        let bind = |name: &str, target: Target, rules: &[&str]| {
            Classifier::parse_rules(name, "cori", "", target, rules)
                .unwrap()
                .bind(&tree, &schema)
                .unwrap()
        };
        let ec = bind(
            "Surgery Only",
            Target::Entity {
                entity: "Procedure".into(),
            },
            &["Procedure <- Procedure AND SurgeryPerformed = TRUE"],
        );
        let dom = |d: &str| Target::Domain {
            entity: "Procedure".into(),
            attribute: "Smoking".into(),
            domain: d.into(),
        };
        let c_class = bind(
            "C_class",
            dom("class"),
            &[
                "'None' <- PacksPerDay = 0",
                "'Light' <- PacksPerDay < 2",
                "'Heavy' <- PacksPerDay >= 2",
            ],
        );
        let c_packs = bind(
            "C_packs",
            dom("packs"),
            &["PacksPerDay <- PacksPerDay IS ANSWERED"],
        );
        (ec, c_class, c_packs, naive)
    }

    /// Apply a mixed batch of edits — an insert, a delete, an update that
    /// flips the entity-classifier guard on, and one that flips it off —
    /// through a `DeltaCatalog` over the naïve form, returning the delta
    /// and the post-state naïve table.
    fn mutate(naive: &Table) -> (guava_relational::delta::TableDelta, Table) {
        let mut db = Database::new("naive");
        db.create_table(naive.clone()).unwrap();
        let mut cat = Catalog::new();
        cat.insert(db);
        let mut dc = DeltaCatalog::new(cat);
        dc.insert("naive", "Procedure", vec![5.into(), 2.into(), true.into()])
            .unwrap();
        dc.delete_where("naive", "Procedure", |r| r[0] == Value::Int(2))
            .unwrap();
        // Guard flip ON: instance 3 had no surgery, now it does.
        dc.update_where(
            "naive",
            "Procedure",
            |r| r[0] == Value::Int(3),
            |r| r[2] = true.into(),
        )
        .unwrap();
        // Guard flip OFF: instance 4 leaves the study.
        dc.update_where(
            "naive",
            "Procedure",
            |r| r[0] == Value::Int(4),
            |r| r[2] = false.into(),
        )
        .unwrap();
        let deltas = dc.take_deltas();
        let delta = deltas.get("naive", "Procedure").unwrap().clone();
        let post = dc
            .catalog()
            .database("naive")
            .unwrap()
            .table("Procedure")
            .unwrap()
            .clone();
        (delta, post)
    }

    #[test]
    fn refresh_matches_rebuild_under_every_policy() {
        let (ec, c_class, c_packs, naive) = fixtures();
        let classifiers: Vec<&BoundClassifier> = vec![&c_class, &c_packs];
        let (delta, post_naive) = mutate(&naive);
        for policy in [
            MaterializationPolicy::Full,
            MaterializationPolicy::OnDemand,
            MaterializationPolicy::Selective(vec!["C_packs".into()]),
        ] {
            let mut store =
                StudyStore::build("cori", naive.clone(), &ec, &classifiers, policy.clone())
                    .unwrap();
            let before = store.materialized.clone();
            let mdelta = store.refresh(&delta, &ec, &classifiers).unwrap();
            let rebuilt = StudyStore::build(
                "cori",
                post_naive.clone(),
                &ec,
                &classifiers,
                policy.clone(),
            )
            .unwrap();
            assert_eq!(store, rebuilt, "policy {policy:?}");
            // The returned delta is the study table's own change — what
            // the engine hands its resident plans — and there is one
            // exactly when the policy keeps a table.
            let patched = before
                .zip(mdelta)
                .map(|(m, d)| m.table.apply_delta(&d).unwrap());
            assert_eq!(
                patched.as_ref(),
                store.materialized.as_ref().map(|m| &*m.table),
                "policy {policy:?}"
            );
            // Guard flips landed: 3 entered the study, 4 left it.
            let col = store
                .classifier_column("C_class", &ec, &classifiers)
                .unwrap();
            let ids: Vec<&Value> = col.iter().map(|(k, _)| k).collect();
            assert!(ids.contains(&&Value::Int(3)));
            assert!(!ids.contains(&&Value::Int(4)));
        }
    }

    #[test]
    fn refresh_is_atomic_on_stale_delta() {
        let (ec, c_class, c_packs, naive) = fixtures();
        let classifiers: Vec<&BoundClassifier> = vec![&c_class, &c_packs];
        let (delta, _) = mutate(&naive);
        let mut store = StudyStore::build(
            "cori",
            naive,
            &ec,
            &classifiers,
            MaterializationPolicy::Full,
        )
        .unwrap();
        let before = store.clone();
        // Apply once (fine), then replay the same window (stale: positions
        // no longer line up with the merged naïve form).
        store.refresh(&delta, &ec, &classifiers).unwrap();
        let after_first = store.clone();
        let err = store.refresh(&delta, &ec, &classifiers).unwrap_err();
        assert!(err.to_string().contains("delta"), "unexpected: {err}");
        assert_eq!(store, after_first, "failed refresh must not mutate");
        assert_ne!(before, after_first);
    }

    #[test]
    fn derived_classifier_recomputes_from_refreshed_base() {
        // Satellite: register_derived + classifier_column after a refresh.
        // The derivation reads the materialized base column on every call,
        // so refreshing the base must be enough — no re-registration.
        let (ec, c_class, c_packs, naive) = fixtures();
        let classifiers: Vec<&BoundClassifier> = vec![&c_class, &c_packs];
        let mut store = StudyStore::build(
            "cori",
            naive.clone(),
            &ec,
            &classifiers,
            MaterializationPolicy::Selective(vec!["C_packs".into()]),
        )
        .unwrap();
        store.register_derived(DerivedClassifier {
            name: "C_double".into(),
            base: "C_packs".into(),
            transform: Expr::col("C_packs").mul(Expr::lit(2i64)),
        });
        let before = store
            .classifier_column("C_double", &ec, &classifiers)
            .unwrap();
        assert!(before
            .iter()
            .any(|(k, v)| *k == Value::Int(4) && *v == Value::Int(18)));

        let (delta, post_naive) = mutate(&naive);
        store.refresh(&delta, &ec, &classifiers).unwrap();
        let after = store
            .classifier_column("C_double", &ec, &classifiers)
            .unwrap();
        // Instance 4 left the study; 3 and 5 entered with doubled packs.
        assert!(!after.iter().any(|(k, _)| *k == Value::Int(4)));
        assert!(after
            .iter()
            .any(|(k, v)| *k == Value::Int(3) && *v == Value::Int(10)));
        assert!(after
            .iter()
            .any(|(k, v)| *k == Value::Int(5) && *v == Value::Int(4)));

        // And the derived column over the refreshed store matches the one
        // over a rebuilt store exactly.
        let mut rebuilt = StudyStore::build(
            "cori",
            post_naive,
            &ec,
            &classifiers,
            MaterializationPolicy::Selective(vec!["C_packs".into()]),
        )
        .unwrap();
        rebuilt.register_derived(DerivedClassifier {
            name: "C_double".into(),
            base: "C_packs".into(),
            transform: Expr::col("C_packs").mul(Expr::lit(2i64)),
        });
        assert_eq!(
            after,
            rebuilt
                .classifier_column("C_double", &ec, &classifiers)
                .unwrap()
        );
    }
}
