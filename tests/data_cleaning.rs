//! The Section 6 data-cleaning extension, end to end: "We want to extend
//! the classifier language to allow data cleaning, since analysts may also
//! choose to discard data based on the needs of the particular study."
//!
//! Cleaning classifiers write `DISCARD <- condition`; instances matching
//! any condition are dropped before entity selection — in the compiled ETL
//! pipeline, in direct evaluation, and in the generated Datalog alike.

use guava::clinical::prelude::*;
use guava::clinical::{classifiers, cori};
use guava::etl::prelude::*;
use guava::prelude::*;
use guava_relational::value::DataType;
use std::collections::BTreeMap;

/// A handcrafted CORI dataset with two deliberately implausible reports.
fn dirty_cori() -> (Database, Database) {
    let tool = cori::tool();
    let form = &tool.forms[0];
    let schema = form.naive_schema();
    let smoking = |id: i64, code: i64, packs: f64, quit: Option<i64>, hypoxia: bool| -> Row {
        let mut row = vec![Value::Null; schema.arity()];
        row[schema.index_of("instance_id").unwrap()] = Value::Int(id);
        row[schema.index_of("proc_type").unwrap()] = Value::Int(1);
        row[schema.index_of("smoking").unwrap()] = Value::Int(code);
        row[schema.index_of("frequency").unwrap()] = if code == 0 {
            Value::Null
        } else {
            Value::Float(packs)
        };
        row[schema.index_of("quit_months").unwrap()] = quit.map(Value::Int).unwrap_or(Value::Null);
        row[schema.index_of("hypoxia").unwrap()] = Value::Bool(hypoxia);
        row[schema.index_of("prolonged_hypoxia").unwrap()] = Value::Bool(false);
        row
    };
    let rows = vec![
        smoking(1, 2, 1.0, Some(6), true),   // clean ex-smoker
        smoking(2, 2, 0.5, Some(10), false), // clean ex-smoker
        smoking(3, 2, 14.0, Some(3), true),  // IMPLAUSIBLE: 14 packs/day
        smoking(4, 2, 1.0, Some(950), true), // IMPLAUSIBLE: quit 79 years ago
        smoking(5, 1, 2.0, None, true),      // current smoker
        smoking(6, 0, 0.0, None, false),     // never smoked
    ];
    let mut naive = Database::new("cori");
    naive
        .create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    let stack = cori::stack().unwrap();
    let physical = stack.encode(&naive).unwrap();
    (naive, physical)
}

fn study_with_cleaning(clean: bool) -> Study {
    let mut selection = ContributorSelection::new(
        "cori",
        vec!["All Procedures".into()],
        vec!["ExSmoker (ever quit)".into(), "Any Hypoxia".into()],
    );
    if clean {
        selection = selection.with_cleaning(vec!["Implausible Reports".into()]);
    }
    Study::new(
        if clean { "cleaned" } else { "raw" },
        "ex-smokers with hypoxia, cleaned",
        "cori_procedures",
        "Procedure",
    )
    .with_column(StudyColumn::new("Procedure", "ExSmoker", "yesno"))
    .with_column(StudyColumn::new("Procedure", "Hypoxia", "yesno"))
    .with_selection(selection)
}

fn run(study: &Study, physical: Database) -> (CompiledStudy, Table) {
    let tree = GTree::derive(&cori::tool()).unwrap();
    let stack = cori::stack().unwrap();
    let compiled = compile(
        study,
        &study_schema(),
        &registry(),
        &[ContributorBinding::new(tree, stack)],
    )
    .unwrap();
    let tables = run_compiled(&compiled, vec![physical]).unwrap();
    (compiled, tables["Procedure"].clone())
}

#[test]
fn cleaning_drops_implausible_instances() {
    let (_, physical) = dirty_cori();
    let (_, raw) = run(&study_with_cleaning(false), physical.clone());
    let (_, cleaned) = run(&study_with_cleaning(true), physical);
    assert_eq!(raw.len(), 6, "no cleaning: everything is an entity");
    assert_eq!(
        cleaned.len(),
        4,
        "the two implausible reports are discarded"
    );
    let ids: Vec<&Value> = cleaned.iter_rows().map(|r| &r[1]).collect();
    assert!(!ids.contains(&&Value::Int(3)));
    assert!(!ids.contains(&&Value::Int(4)));
    assert!(
        ids.contains(&&Value::Int(6)),
        "blank-smoking rows are NOT discarded (NULL-safe)"
    );
}

#[test]
fn cleaning_agrees_across_all_three_semantics() {
    let (naive, physical) = dirty_cori();
    let study = study_with_cleaning(true);
    let (compiled, etl_table) = run(&study, physical);

    // Direct evaluation.
    let direct = direct_eval(
        &compiled,
        &study,
        &BTreeMap::from([("cori".to_owned(), naive.clone())]),
    )
    .unwrap();
    let mut a = etl_table.rows_from(0);
    let mut b = direct["Procedure"].clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "ETL and direct evaluation agree under cleaning");

    // Datalog translation.
    let program = study_to_datalog(&compiled);
    let t = naive.table("procedure").unwrap();
    let facts = BTreeMap::from([("procedure".to_owned(), (t.schema().clone(), t.rows_from(0)))]);
    let derived = program.evaluate(&facts).unwrap();
    let entities = &derived["cori__procedure"];
    assert_eq!(entities.len(), 4, "datalog derives the cleaned entity set");
    assert!(!entities.iter().any(|t| t[0] == Value::Int(3)));
}

#[test]
fn cleaner_binding_is_validated() {
    let tool = ReportingTool::new(
        "t",
        "1",
        vec![FormDef::new(
            "f",
            "F",
            vec![Control::numeric("x", "x", DataType::Int)],
        )],
    );
    let tree = GTree::derive(&tool).unwrap();
    let schema = StudySchema::new("s", EntityDef::new("E"));

    // Correct shape binds.
    let ok = Classifier::parse_rules(
        "clean",
        "t",
        "",
        Target::Cleaner { entity: "E".into() },
        &["DISCARD <- x > 100"],
    )
    .unwrap();
    let bound = ok.bind(&tree, &schema).unwrap();
    assert!(bound.selects(&vec![Value::Int(101)]).unwrap());
    assert!(!bound.selects(&vec![Value::Int(5)]).unwrap());
    assert!(
        !bound.selects(&vec![Value::Null]).unwrap(),
        "NULL never discards"
    );

    // Wrong output shape rejected.
    let bad = Classifier::parse_rules(
        "bad",
        "t",
        "",
        Target::Cleaner { entity: "E".into() },
        &["'oops' <- x > 100"],
    )
    .unwrap();
    assert!(matches!(
        bad.bind(&tree, &schema),
        Err(ClassifierError::BadEntityOutput(_))
    ));
}

#[test]
fn cleaning_appears_in_generated_code() {
    let (_, physical) = dirty_cori();
    let (compiled, _) = run(&study_with_cleaning(true), physical);
    let xq = study_to_xquery(&compiled);
    assert!(
        xq.contains("not("),
        "XQuery where-clause negates the cleaning guard"
    );
    assert!(xq.contains("frequency") || xq.contains("cSmkFreq"));
    let dl = study_to_datalog(&compiled).to_string();
    assert!(
        dl.contains("NOT"),
        "datalog conditions carry the negated cleaning guard"
    );
}

#[test]
fn registry_ships_cleaners_for_every_vendor() {
    let reg = registry();
    for vendor in ["cori", "endopro", "gastrolink"] {
        let c = reg
            .get(vendor, "Implausible Reports")
            .unwrap_or_else(|| panic!("{vendor} has no cleaning classifier"));
        assert!(matches!(c.target, Target::Cleaner { .. }));
    }
    let _ = classifiers::cori();
}
