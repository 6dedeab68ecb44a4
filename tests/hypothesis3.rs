//! Hypothesis #3 (paper Section 4.1): "It is possible to compile studies
//! into ETL workflows."
//!
//! Property-based experiment: for random synthetic datasets and random
//! study configurations (any subset of columns, either ex-smoker
//! semantics, any subset of contributors, optional filters), the compiled
//! four-stage ETL workflow over the *physical* databases produces exactly
//! the rows of direct row-at-a-time evaluation over the *naïve* databases
//! — i.e. the compilation is semantics-preserving across every design
//! pattern stack in the repository. The generated Datalog program is
//! cross-validated on the same runs.

use guava::clinical::prelude::*;
use guava::etl::prelude::*;
use guava::prelude::{Expr, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The pool of study columns and the classifiers realizing them.
const COLUMNS: &[(&str, &str, &str)] = &[
    ("ProcType", "kind", "Kind"),
    ("RefluxIndication", "yesno", "Reflux Indication"),
    ("RenalFailure", "yesno", "Renal Failure"),
    ("ExamsNormal", "yesno", "Exams Normal"),
    ("TransientHypoxia", "yesno", "Transient Hypoxia"),
    ("Hypoxia", "yesno", "Any Hypoxia"),
    ("Surgery", "yesno", "Surgery"),
    ("Smoking", "packs_per_day", "Packs Per Day"),
    ("Smoking", "status", "Status"),
    ("Smoking", "class", "Habits (Cancer)"),
    ("ExSmoker", "yesno", "ExSmoker (quit within a year)"),
    ("Alcohol", "use", "Alcohol"),
];

fn random_study(
    contributors: &[Contributor],
    column_mask: &[bool],
    contributor_mask: &[bool],
    filter_choice: u8,
) -> Option<guava::multiclass::study::Study> {
    let picked: Vec<&(&str, &str, &str)> = COLUMNS
        .iter()
        .zip(column_mask)
        .filter_map(|(c, &keep)| keep.then_some(c))
        .collect();
    if picked.is_empty() {
        return None;
    }
    let used: Vec<&Contributor> = contributors
        .iter()
        .zip(contributor_mask)
        .filter_map(|(c, &keep)| keep.then_some(c))
        .collect();
    if used.is_empty() {
        return None;
    }
    let mut study = guava::multiclass::study::Study::new(
        "random_study",
        "generated",
        "cori_procedures",
        "Procedure",
    );
    for (attr, dom, _) in &picked {
        study = study.with_column(guava::multiclass::study::StudyColumn::new(
            "Procedure",
            *attr,
            *dom,
        ));
    }
    for c in &used {
        study = study.with_selection(guava::multiclass::study::ContributorSelection {
            contributor: c.name().to_owned(),
            entity_classifiers: vec!["All Procedures".into()],
            domain_classifiers: picked.iter().map(|(_, _, cls)| (*cls).to_owned()).collect(),
            cleaning_classifiers: vec![],
        });
    }
    // Optionally filter on a boolean column the study actually produces.
    if filter_choice > 0 {
        if let Some((attr, dom, _)) = picked
            .iter()
            .filter(|(_, d, _)| *d == "yesno")
            .nth((filter_choice as usize - 1) % picked.len().max(1))
        {
            let col = format!("{attr}_{dom}");
            study = study.with_filter(Expr::col(col).eq(Expr::lit(filter_choice % 2 == 1)));
        }
    }
    Some(study)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The central H3 property: ETL(physical) == direct(naive), for random
    /// data and random study shapes.
    #[test]
    fn compiled_etl_equals_direct_evaluation(
        seed in 0u64..1_000,
        n in 10usize..60,
        column_mask in proptest::collection::vec(any::<bool>(), COLUMNS.len()),
        contributor_mask in proptest::collection::vec(any::<bool>(), 3),
        filter_choice in 0u8..6,
    ) {
        let profiles = generate(&GeneratorConfig::default().with_seed(seed).with_size(n));
        let contributors = build_all(&profiles).unwrap();
        let Some(study) = random_study(&contributors, &column_mask, &contributor_mask, filter_choice)
        else {
            return Ok(());
        };
        let compiled = compile(&study, &study_schema(), &registry(), &bindings(&contributors))
            .expect("random studies over the registry always compile");

        // ETL over physical databases.
        let mut catalog = physical_catalog(&contributors);
        compiled.workflow.run(&mut catalog).unwrap();
        let etl = catalog
            .database(&compiled.output_db)
            .unwrap()
            .table("Procedure")
            .unwrap();

        // Direct evaluation over naive databases.
        let direct = direct_eval(&compiled, &study, &naive_map(&contributors)).unwrap();

        let mut a = etl.rows_from(0);
        let mut b = direct.get("Procedure").cloned().unwrap_or_default();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The generated Datalog derives the same entity sets and classified
    /// values as the ETL pipeline (unfiltered studies; the Datalog
    /// translation covers classification, not the study filter).
    #[test]
    fn datalog_translation_is_faithful(
        seed in 0u64..1_000,
        n in 10usize..40,
        column_mask in proptest::collection::vec(any::<bool>(), COLUMNS.len()),
    ) {
        let profiles = generate(&GeneratorConfig::default().with_seed(seed).with_size(n));
        let contributors = build_all(&profiles).unwrap();
        let Some(study) = random_study(&contributors, &column_mask, &[true, true, true], 0)
        else {
            return Ok(());
        };
        let compiled = compile(&study, &study_schema(), &registry(), &bindings(&contributors))
            .unwrap();
        let mut catalog = physical_catalog(&contributors);
        compiled.workflow.run(&mut catalog).unwrap();
        let etl = catalog
            .database(&compiled.output_db)
            .unwrap()
            .table("Procedure")
            .unwrap();

        let program = study_to_datalog(&compiled);
        // Facts: each contributor's naive form table under the form name
        // the entity plans reference.
        let naive = naive_map(&contributors);
        // The program spans all contributors; assemble the full fact base
        // (form names are distinct per vendor) and evaluate once.
        let mut facts = BTreeMap::new();
        for ep in &compiled.entity_plans {
            let db = &naive[&ep.contributor];
            let t = db.table(&ep.form).unwrap();
            facts.insert(ep.form.clone(), (t.schema().clone(), t.rows_from(0)));
        }
        let derived = program.evaluate(&facts).unwrap();
        for ep in &compiled.entity_plans {
            let prefix = ep.contributor.replace(|c: char| !c.is_alphanumeric(), "_");
            // Per classified column, the derived relation agrees with the
            // ETL rows of this contributor.
            for (idx, (col, _)) in ep.domain_classifiers.iter().enumerate() {
                let head = format!("{prefix}__{}", col.column_name().to_lowercase());
                let tuples = derived.get(&head).cloned().unwrap_or_default();
                for row in etl.iter_rows().filter(|r| r[0] == Value::text(ep.contributor.clone())) {
                    let iid = &row[1];
                    let v = &row[2 + idx];
                    if v.is_null() {
                        prop_assert!(!tuples.iter().any(|t| &t[0] == iid));
                    } else {
                        prop_assert!(
                            tuples.iter().any(|t| &t[0] == iid && &t[1] == v),
                            "datalog misses {head}({iid}, {v})"
                        );
                    }
                }
            }
        }
    }
}

/// The deterministic Figure 6 shape check: per contributor exactly three
/// components (extract, entities, classify) plus one shared load.
#[test]
fn workflow_shape_is_three_components_per_contributor() {
    let profiles = generate(&GeneratorConfig::default().with_size(15));
    let contributors = build_all(&profiles).unwrap();
    for k in 1..=3usize {
        let used = &contributors[..k];
        let study = study2_definition(used, ExSmokerMeaning::QuitWithinYear);
        let compiled = compile(&study, &study_schema(), &registry(), &bindings(used)).unwrap();
        assert_eq!(compiled.workflow.component_count(), 3 * k + 1);
    }
}
