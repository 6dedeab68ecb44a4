//! Multi-entity studies: Figure 4's has-a tree in motion. The Procedure
//! entity and its child entity Finding (of fissure) are fed by two
//! different forms of one tool; the study produces one table per entity,
//! and the has-a relationship is realized by a parent-reference node that
//! classifies into the child's ParentProcedure attribute.

use guava::etl::prelude::*;
use guava::prelude::*;
use guava_relational::value::DataType;
use std::collections::BTreeMap;

fn tool() -> ReportingTool {
    ReportingTool::new(
        "endoclinic",
        "1.0",
        vec![
            FormDef::new(
                "procedure",
                "Procedure",
                vec![
                    Control::check_box("surgery", "Surgery performed?"),
                    Control::check_box("hypoxia", "Hypoxia?"),
                ],
            ),
            FormDef::new(
                "fissure_finding",
                "Finding of Fissure",
                vec![
                    Control::numeric("parent_procedure", "Procedure #", DataType::Int).required(),
                    Control::numeric("size_mm", "Size (mm)", DataType::Int),
                    Control::check_box("images_taken", "Images taken?"),
                ],
            ),
        ],
    )
}

fn study_schema() -> StudySchema {
    let root = EntityDef::new("Procedure")
        .with_attribute(AttributeDef::new(
            "Hypoxia",
            vec![Domain::boolean("yesno", "complication")],
        ))
        .with_child(
            EntityDef::new("Finding")
                .with_attribute(AttributeDef::new(
                    "ParentProcedure",
                    vec![Domain::new(
                        "id",
                        "owning procedure instance",
                        DomainSpec::Integer {
                            min: Some(1),
                            max: None,
                        },
                    )],
                ))
                .with_attribute(AttributeDef::new(
                    "Size",
                    vec![Domain::new(
                        "millimeters",
                        "Integer (mm)",
                        DomainSpec::Integer {
                            min: Some(0),
                            max: None,
                        },
                    )],
                )),
        );
    StudySchema::new("figure4_live", root)
}

fn registry() -> ClassifierRegistry {
    let mut reg = ClassifierRegistry::new();
    let mk = |name: &str, target: Target, rules: &[&str]| {
        Classifier::parse_rules(name, "endoclinic", "", target, rules).unwrap()
    };
    reg.register(mk(
        "all procedures",
        Target::Entity {
            entity: "Procedure".into(),
        },
        &["procedure <- procedure"],
    ))
    .unwrap();
    reg.register(mk(
        "all findings",
        Target::Entity {
            entity: "Finding".into(),
        },
        &["fissure_finding <- fissure_finding"],
    ))
    .unwrap();
    reg.register(mk(
        "hypoxia",
        Target::Domain {
            entity: "Procedure".into(),
            attribute: "Hypoxia".into(),
            domain: "yesno".into(),
        },
        &["hypoxia <- TRUE"],
    ))
    .unwrap();
    reg.register(mk(
        "parent link",
        Target::Domain {
            entity: "Finding".into(),
            attribute: "ParentProcedure".into(),
            domain: "id".into(),
        },
        &["parent_procedure <- parent_procedure IS ANSWERED"],
    ))
    .unwrap();
    reg.register(mk(
        "size",
        Target::Domain {
            entity: "Finding".into(),
            attribute: "Size".into(),
            domain: "millimeters".into(),
        },
        &["size_mm <- TRUE"],
    ))
    .unwrap();
    reg
}

fn naive_db() -> Database {
    let t = tool();
    let mut db = Database::new("endoclinic");
    let mut procs = Table::new(t.form("procedure").unwrap().naive_schema());
    for (id, surgery, hypoxia) in [(1i64, true, true), (2, false, false), (3, true, false)] {
        procs
            .insert(vec![
                Value::Int(id),
                Value::Bool(surgery),
                Value::Bool(hypoxia),
            ])
            .unwrap();
    }
    db.create_table(procs).unwrap();
    let mut findings = Table::new(t.form("fissure_finding").unwrap().naive_schema());
    for (id, parent, size, images) in [
        (10i64, 1i64, 4i64, true),
        (11, 1, 7, false),
        (12, 3, 2, true),
    ] {
        findings
            .insert(vec![
                Value::Int(id),
                Value::Int(parent),
                Value::Int(size),
                Value::Bool(images),
            ])
            .unwrap();
    }
    db.create_table(findings).unwrap();
    db
}

fn study() -> Study {
    Study::new(
        "multi_entity",
        "findings per procedure",
        "figure4_live",
        "Procedure",
    )
    .with_column(StudyColumn::new("Procedure", "Hypoxia", "yesno"))
    .with_column(StudyColumn::new("Finding", "ParentProcedure", "id"))
    .with_column(StudyColumn::new("Finding", "Size", "millimeters"))
    .with_selection(ContributorSelection::new(
        "endoclinic",
        vec!["all procedures".into(), "all findings".into()],
        vec!["hypoxia".into(), "parent link".into(), "size".into()],
    ))
}

#[test]
fn study_produces_one_table_per_entity() {
    let t = tool();
    let tree = GTree::derive(&t).unwrap();
    // Findings live generically; procedures naively.
    let finding_schema = t.form("fissure_finding").unwrap().naive_schema();
    let stack = PatternStack::new(
        "endoclinic",
        vec![PatternKind::Generic(
            GenericPattern::new(&finding_schema, "finding_facts").unwrap(),
        )],
    );
    let naive = naive_db();
    let physical = stack.encode(&naive).unwrap();

    let compiled = compile(
        &study(),
        &study_schema(),
        &registry(),
        &[ContributorBinding::new(tree, stack)],
    )
    .unwrap();
    // Two entities × 3 components + 2 load components.
    assert_eq!(compiled.workflow.component_count(), 8);
    let tables = run_compiled(&compiled, vec![physical]).unwrap();
    assert_eq!(tables.len(), 2);
    assert_eq!(tables["Procedure"].len(), 3);
    assert_eq!(tables["Finding"].len(), 3);

    // The has-a link is navigable: join findings to procedures.
    let mut db = Database::new("results");
    db.put_table(tables["Procedure"].clone());
    db.put_table(tables["Finding"].clone());
    let joined = Plan::scan("Finding")
        .join(
            Plan::scan("Procedure"),
            vec![("ParentProcedure_id", "instance_id")],
            JoinKind::Inner,
        )
        .eval(&db)
        .unwrap();
    assert_eq!(joined.len(), 3, "every finding joins its parent procedure");
    // Findings of procedure 1 see its hypoxia flag.
    let of_p1: Vec<_> = joined
        .iter_rows()
        .filter(|r| r[2] == Value::Int(1))
        .collect();
    assert_eq!(of_p1.len(), 2);
    let hypoxia_idx = joined.schema().index_of("Hypoxia_yesno").unwrap();
    assert!(of_p1.iter().all(|r| r[hypoxia_idx] == Value::Bool(true)));
}

#[test]
fn direct_eval_covers_all_entities() {
    let t = tool();
    let tree = GTree::derive(&t).unwrap();
    let stack = PatternStack::naive("endoclinic");
    let naive = naive_db();
    let physical = stack.encode(&naive).unwrap();
    let compiled = compile(
        &study(),
        &study_schema(),
        &registry(),
        &[ContributorBinding::new(tree, stack)],
    )
    .unwrap();
    let tables = run_compiled(&compiled, vec![physical]).unwrap();
    let direct = direct_eval(
        &compiled,
        &study(),
        &BTreeMap::from([("endoclinic".to_owned(), naive)]),
    )
    .unwrap();
    for entity in ["Procedure", "Finding"] {
        let mut a = tables[entity].rows_from(0);
        let mut b = direct[entity].clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{entity}: ETL == direct");
    }
}

#[test]
fn per_entity_columns_are_scoped() {
    // A classifier over the Finding form cannot satisfy a Procedure column:
    // the compiler reports the missing domain classifier rather than
    // silently mixing forms.
    let t = tool();
    let tree = GTree::derive(&t).unwrap();
    let stack = PatternStack::naive("endoclinic");
    let mut s = study();
    s.selections[0].domain_classifiers = vec!["parent link".into(), "size".into()];
    let err = compile(
        &s,
        &study_schema(),
        &registry(),
        &[ContributorBinding::new(tree, stack)],
    )
    .unwrap_err();
    assert!(matches!(err, CompileError::MissingDomainClassifier { .. }));
}
