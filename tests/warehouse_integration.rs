//! Warehouse-layer integration over the full clinical setup (Figure 7 and
//! the Section 4.2 materialization discussion): every policy yields the
//! same answers, storage scales with the classifier count, and the
//! materialized tables answer the paper's studies correctly. Last, on a
//! hand-built form: the warehouse, the compiled study and `direct_eval`
//! keep one classifier contract, single faults included.

use guava::clinical::prelude::*;
use guava::clinical::{classifiers, cori};
use guava::prelude::*;
use guava_relational::value::DataType;
use std::collections::BTreeMap;

struct Setup {
    profiles: Vec<Profile>,
    naive_form: Table,
    entity: BoundClassifier,
    domain: Vec<BoundClassifier>,
}

fn setup(n: usize) -> Setup {
    let profiles = generate(&GeneratorConfig::default().with_size(n));
    let physical = cori::physical_database(&profiles).unwrap();
    let stack = cori::stack().unwrap();
    let naive_form = stack.query(&physical, &Plan::scan("procedure")).unwrap();
    let tree = GTree::derive(&cori::tool()).unwrap();
    let schema = study_schema();
    let all = classifiers::cori();
    let entity = all
        .iter()
        .find(|c| matches!(c.target, Target::Entity { .. }))
        .unwrap()
        .bind(&tree, &schema)
        .unwrap();
    let domain: Vec<BoundClassifier> = all
        .iter()
        .filter(|c| matches!(c.target, Target::Domain { .. }))
        .map(|c| c.bind(&tree, &schema).unwrap())
        .collect();
    Setup {
        profiles,
        naive_form,
        entity,
        domain,
    }
}

#[test]
fn full_materialization_is_one_column_per_classifier() {
    let s = setup(200);
    let refs: Vec<&BoundClassifier> = s.domain.iter().collect();
    let m = materialize("cori", &s.naive_form, &s.entity, &refs).unwrap();
    assert_eq!(m.table.len(), 200, "All Procedures keeps every instance");
    assert_eq!(
        m.table.schema().arity(),
        refs.len() + 1,
        "instance_id + classifiers"
    );
    assert_eq!(m.materialized.len(), refs.len());
    // The Figure 7 point: the classifier axis dominates storage.
    assert_eq!(m.cell_count(), 200 * (refs.len() + 1));
}

#[test]
fn materialized_values_match_ground_truth() {
    let s = setup(150);
    let refs: Vec<&BoundClassifier> = s.domain.iter().collect();
    let m = materialize("cori", &s.naive_form, &s.entity, &refs).unwrap();
    let status_idx = m.table.schema().index_of("Status").unwrap();
    let ex_idx = m
        .table
        .schema()
        .index_of("ExSmoker (quit within a year)")
        .unwrap();
    for p in &s.profiles {
        let row = m
            .table
            .get_by_key(&[Value::Int(p.id)])
            .expect("instance materialized");
        if p.smoking_unanswered {
            assert!(row[status_idx].is_null());
            assert!(row[ex_idx].is_null());
            continue;
        }
        let expected_status = match p.smoking {
            Smoking::Never => "None",
            Smoking::Current => "Current",
            Smoking::Former => "Previous",
        };
        assert_eq!(
            row[status_idx],
            Value::text(expected_status),
            "instance {}",
            p.id
        );
        assert_eq!(
            row[ex_idx],
            Value::Bool(p.ex_smoker_strict()),
            "instance {}",
            p.id
        );
    }
}

#[test]
fn policies_agree_on_every_classifier_at_scale() {
    let s = setup(120);
    let refs: Vec<&BoundClassifier> = s.domain.iter().collect();
    let full = StudyStore::build(
        "cori",
        s.naive_form.clone(),
        &s.entity,
        &refs,
        MaterializationPolicy::Full,
    )
    .unwrap();
    let on_demand = StudyStore::build(
        "cori",
        s.naive_form.clone(),
        &s.entity,
        &refs,
        MaterializationPolicy::OnDemand,
    )
    .unwrap();
    let selective = StudyStore::build(
        "cori",
        s.naive_form.clone(),
        &s.entity,
        &refs,
        MaterializationPolicy::Selective(vec!["Status".into(), "Any Hypoxia".into()]),
    )
    .unwrap();
    for c in &refs {
        let a = full.classifier_column(&c.name, &s.entity, &refs).unwrap();
        let b = on_demand
            .classifier_column(&c.name, &s.entity, &refs)
            .unwrap();
        let d = selective
            .classifier_column(&c.name, &s.entity, &refs)
            .unwrap();
        assert_eq!(a, b, "{}", c.name);
        assert_eq!(a, d, "{}", c.name);
    }
    assert!(full.extra_cells() > selective.extra_cells());
    assert!(selective.extra_cells() > 0);
    assert_eq!(on_demand.extra_cells(), 0);
}

#[test]
fn storage_grows_linearly_with_classifier_count() {
    let s = setup(100);
    let mut last = 0usize;
    for k in [2usize, 4, 8] {
        let refs: Vec<&BoundClassifier> = s.domain.iter().take(k).collect();
        let m = materialize("cori", &s.naive_form, &s.entity, &refs).unwrap();
        assert_eq!(m.cell_count(), 100 * (k + 1));
        assert!(m.cell_count() > last);
        last = m.cell_count();
    }
}

#[test]
fn derived_classifier_chain() {
    // Base materialized, two derivations stacked on top of it.
    let s = setup(60);
    let refs: Vec<&BoundClassifier> = s.domain.iter().collect();
    let mut store = StudyStore::build(
        "cori",
        s.naive_form.clone(),
        &s.entity,
        &refs,
        MaterializationPolicy::Selective(vec!["Packs Per Day".into()]),
    )
    .unwrap();
    store.register_derived(DerivedClassifier {
        name: "Cigs".into(),
        base: "Packs Per Day".into(),
        transform: Expr::col("Packs Per Day").mul(Expr::lit(20i64)),
    });
    store.register_derived(DerivedClassifier {
        name: "HeavyFlag".into(),
        base: "Packs Per Day".into(),
        transform: Expr::col("Packs Per Day").ge(Expr::lit(2i64)),
    });
    let packs = store
        .classifier_column("Packs Per Day", &s.entity, &refs)
        .unwrap();
    let cigs = store.classifier_column("Cigs", &s.entity, &refs).unwrap();
    let heavy = store
        .classifier_column("HeavyFlag", &s.entity, &refs)
        .unwrap();
    for ((pk, pv), ((ck, cv), (hk, hv))) in packs.iter().zip(cigs.iter().zip(heavy.iter())) {
        assert_eq!(pk, ck);
        assert_eq!(pk, hk);
        match pv.as_f64() {
            Some(p) => {
                assert_eq!(cv.as_f64().unwrap(), p * 20.0);
                assert_eq!(hv, &Value::Bool(p >= 2.0));
            }
            None => {
                assert!(cv.is_null());
                assert!(hv.is_null());
            }
        }
    }
}

#[test]
fn warehouse_database_is_queryable_with_plans() {
    // "Getting data from the study schema reduces to select-project-join
    // queries" — run one over the materialized database.
    let s = setup(150);
    let refs: Vec<&BoundClassifier> = s.domain.iter().collect();
    let m = materialize("cori", &s.naive_form, &s.entity, &refs).unwrap();
    let table_name = m.table.schema().name.clone();
    let db = into_database("warehouse", vec![m]);
    let heavy_exsmokers = Plan::scan(table_name)
        .select(
            Expr::col("ExSmoker (ever quit)")
                .eq(Expr::lit(true))
                .and(Expr::col("Habits (Cancer)").eq(Expr::lit("Heavy"))),
        )
        .eval(&db)
        .unwrap();
    let expected = s
        .profiles
        .iter()
        .filter(|p| !p.smoking_unanswered && p.ex_smoker_loose() && p.packs_per_day >= 5.0)
        .count();
    assert_eq!(heavy_exsmokers.len(), expected);
}

// ---------------------------------------------------------------------------
// One classifier contract (DESIGN.md §12): a classifier means the `OR` of
// its guards and the `CASE` over its rules that the compiled study runs —
// `OR` evaluates every guard, `CASE` stops at the first TRUE arm — in the
// warehouse under every policy, in the compiled workflow and in
// `direct_eval` alike, single faults included.
// ---------------------------------------------------------------------------

/// A one-form tool, its study schema, and three rows where row 1 has
/// `PacksPerDay = 0`, so `100 / PacksPerDay` faults on it and nowhere else.
fn fault_fixture() -> (GTree, StudySchema, Table) {
    let tool = ReportingTool::new(
        "t",
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
    let schema = StudySchema::new(
        "s",
        EntityDef::new("Procedure").with_attribute(AttributeDef::new(
            "Smoking",
            vec![Domain::categorical(
                "class",
                "classes",
                &["None", "Light", "Heavy"],
            )],
        )),
    );
    let naive = Table::from_rows(
        tool.forms[0].naive_schema(),
        vec![
            vec![1.into(), 0.into(), true.into()],
            vec![2.into(), 5.into(), false.into()],
            vec![3.into(), 200.into(), false.into()],
        ],
    )
    .unwrap();
    (GTree::derive(&tool).unwrap(), schema, naive)
}

/// `(instance_id, class)` pairs in instance order, or the first error.
type Classified = RelResult<Vec<(Value, Value)>>;

/// Classify the fixture with entity classifier `entity_rules` and the
/// domain classifier `class` every way there is: the warehouse under each
/// policy, the compiled study's `run_on`, and `direct_eval`.
fn classify_every_way(entity_rules: &[&str]) -> Vec<(String, Classified)> {
    let (tree, schema, naive) = fault_fixture();
    let entity = Classifier::parse_rules(
        "study entities",
        "t",
        "",
        Target::Entity {
            entity: "Procedure".into(),
        },
        entity_rules,
    )
    .unwrap();
    // The later arm faults on row 1, which the first arm already takes.
    let class = Classifier::parse_rules(
        "class",
        "t",
        "",
        Target::Domain {
            entity: "Procedure".into(),
            attribute: "Smoking".into(),
            domain: "class".into(),
        },
        &[
            "'None' <- PacksPerDay = 0",
            "'Light' <- 100 / PacksPerDay > 1",
            "'Heavy' <- PacksPerDay > 0",
        ],
    )
    .unwrap();
    let (ec, dc) = (
        entity.bind(&tree, &schema).unwrap(),
        class.bind(&tree, &schema).unwrap(),
    );
    let sorted = |mut pairs: Vec<(Value, Value)>| {
        pairs.sort();
        pairs
    };
    let mut out = Vec::new();
    for policy in [
        MaterializationPolicy::Full,
        MaterializationPolicy::Selective(vec!["class".into()]),
        MaterializationPolicy::OnDemand,
    ] {
        let result = StudyStore::build("t", naive.clone(), &ec, &[&dc], policy.clone())
            .and_then(|store| store.classifier_column("class", &ec, &[&dc]))
            .map(sorted);
        out.push((format!("warehouse {policy:?}"), result));
    }

    let mut registry = ClassifierRegistry::new();
    registry.register(entity).unwrap();
    registry.register(class).unwrap();
    let study = Study::new("parity", "single faults", "s", "Procedure")
        .with_column(StudyColumn::new("Procedure", "Smoking", "class"))
        .with_selection(ContributorSelection::new(
            "t",
            vec!["study entities".into()],
            vec!["class".into()],
        ));
    let stack = PatternStack::naive("t");
    let compiled = compile(
        &study,
        &schema,
        &registry,
        &[ContributorBinding::new(tree, stack.clone())],
    )
    .unwrap();
    let mut naive_db = Database::new("t");
    naive_db.create_table(naive).unwrap();
    // `(source, instance_id, class)` study rows to `(instance_id, class)`.
    let study_pairs = |rows: Vec<Row>| {
        sorted(
            rows.into_iter()
                .map(|r| (r[1].clone(), r[2].clone()))
                .collect(),
        )
    };

    let mut catalog = Catalog::new();
    catalog.insert(stack.encode(&naive_db).unwrap());
    let etl = compiled
        .workflow
        .run_on(&mut catalog, &Executor::new())
        .and_then(|_| {
            let db = catalog.database(&compiled.output_db)?;
            Ok(study_pairs(
                db.table("Procedure")?.iter_rows().cloned().collect(),
            ))
        });
    out.push(("compiled study run_on".into(), etl));

    let direct = direct_eval(&compiled, &study, &BTreeMap::from([("t".into(), naive_db)]))
        .map(|mut by_entity| study_pairs(by_entity.remove("Procedure").unwrap_or_default()));
    out.push(("direct_eval".into(), direct));
    out
}

#[test]
fn a_later_entity_guard_fault_fails_every_evaluator_alike() {
    // Row 1 is selected by the first guard; the second divides by zero on
    // it. `OR` evaluates both, so every evaluator raises that one error —
    // none may stop at the first match and return the row.
    let results = classify_every_way(&[
        "Procedure <- Procedure AND SurgeryPerformed = TRUE",
        "Procedure <- 100 / PacksPerDay > 1",
    ]);
    for (who, result) in &results {
        let err = result.as_ref().expect_err(who);
        assert_eq!(
            err,
            &RelError::Eval("division by zero".into()),
            "{who}: {err}"
        );
    }
}

#[test]
fn a_later_case_arm_fault_is_skipped_by_every_evaluator_alike() {
    // Same shape in the domain classifier: row 1's first arm is TRUE, so
    // `CASE` never reaches the arm that would divide by zero.
    let results = classify_every_way(&["Procedure <- Procedure"]);
    let expected = vec![
        (Value::Int(1), Value::text("None")),
        (Value::Int(2), Value::text("Light")),
        (Value::Int(3), Value::text("Heavy")),
    ];
    for (who, result) in results {
        assert_eq!(result.as_ref().expect(&who), &expected, "{who}");
    }
}
