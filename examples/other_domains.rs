//! Section 6 generality check: "we are interested in exploring whether
//! GUAVA or MultiClass is able to provide benefits in other domains, such
//! as traffic data and financial applications."
//!
//! Two non-clinical reporting tools — a police traffic-incident form and a
//! bank loan-application form — run through the identical machinery:
//! g-tree derivation, pattern stacks, classifiers, compiled ETL. Nothing
//! in the architecture is clinical-specific.
//!
//! Run with: `cargo run --example other_domains`

use guava::prelude::*;
use guava_relational::value::DataType;

fn traffic_tool() -> ReportingTool {
    ReportingTool::new(
        "citypd",
        "3.1",
        vec![FormDef::new(
            "incident",
            "Traffic Incident Report",
            vec![
                Control::drop_down(
                    "severity",
                    "Incident severity",
                    vec![
                        ChoiceOption::new("Property damage only", 1i64),
                        ChoiceOption::new("Injury", 2i64),
                        ChoiceOption::new("Fatality", 3i64),
                    ],
                )
                .required(),
                Control::numeric("vehicles", "Vehicles involved", DataType::Int)
                    .with_range(1.0, 50.0),
                Control::check_box("injuries", "Any injuries reported?").child(
                    Control::numeric("injured_count", "Number injured", DataType::Int)
                        .enabled_when("injuries", EnableWhen::Equals(Value::Bool(true))),
                ),
                Control::drop_down(
                    "road_state",
                    "Road surface",
                    vec![
                        ChoiceOption::new("Dry", "DRY"),
                        ChoiceOption::new("Wet", "WET"),
                        ChoiceOption::new("Ice/Snow", "ICE"),
                    ],
                ),
            ],
        )],
    )
}

fn finance_tool() -> ReportingTool {
    ReportingTool::new(
        "lendco",
        "9.0",
        vec![FormDef::new(
            "application",
            "Loan Application",
            vec![
                Control::numeric("amount", "Requested amount ($)", DataType::Int).required(),
                Control::numeric("income", "Annual income ($)", DataType::Int),
                Control::radio(
                    "employment",
                    "Employment status",
                    vec![
                        ChoiceOption::new("Employed", 1i64),
                        ChoiceOption::new("Self-employed", 2i64),
                        ChoiceOption::new("Unemployed", 3i64),
                    ],
                )
                .child(
                    Control::numeric("years_employed", "Years at employer", DataType::Int)
                        .enabled_when(
                            "employment",
                            EnableWhen::OneOf(vec![Value::Int(1), Value::Int(2)]),
                        ),
                ),
            ],
        )],
    )
}

fn main() {
    // ── Traffic: EAV-stored incidents classified into a risk domain ─────
    let tool = traffic_tool();
    tool.validate().unwrap();
    let tree = GTree::derive(&tool).unwrap();
    println!("traffic g-tree:\n{}", tree.render());

    let naive_schema = tool.forms[0].naive_schema();
    let stack = PatternStack::new(
        "citypd",
        vec![PatternKind::Generic(
            GenericPattern::new(&naive_schema, "incident_facts").unwrap(),
        )],
    );
    let mut naive = Database::new("citypd");
    let mut t = Table::new(naive_schema);
    for (id, sev, veh, injured, road) in [
        (1i64, 1i64, 2i64, None, "DRY"),
        (2, 2, 3, Some(2i64), "WET"),
        (3, 3, 1, Some(1), "ICE"),
        (4, 1, 4, None, "ICE"),
    ] {
        t.insert(vec![
            Value::Int(id),
            Value::Int(sev),
            Value::Int(veh),
            Value::Bool(injured.is_some()),
            injured.map(Value::Int).unwrap_or(Value::Null),
            Value::text(road),
        ])
        .unwrap();
    }
    naive.create_table(t).unwrap();
    let physical = stack.encode(&naive).unwrap();

    let schema = StudySchema::new(
        "traffic",
        EntityDef::new("Incident").with_attribute(AttributeDef::new(
            "Risk",
            vec![Domain::categorical(
                "level",
                "Risk levels",
                &["Low", "Elevated", "Severe"],
            )],
        )),
    );
    let mut sys = GuavaSystem::new(schema);
    sys.add_contributor(tree, stack, physical).unwrap();
    sys.register_classifier(
        Classifier::parse_rules(
            "risk",
            "citypd",
            "risk ladder agreed with the safety board",
            Target::Domain {
                entity: "Incident".into(),
                attribute: "Risk".into(),
                domain: "level".into(),
            },
            &[
                "'Severe' <- severity = 3 OR injured_count >= 2",
                "'Elevated' <- severity = 2 OR road_state = 'ICE'",
                "'Low' <- severity = 1",
            ],
        )
        .unwrap(),
    )
    .unwrap();
    sys.register_classifier(
        Classifier::parse_rules(
            "all incidents",
            "citypd",
            "",
            Target::Entity {
                entity: "Incident".into(),
            },
            &["incident <- incident"],
        )
        .unwrap(),
    )
    .unwrap();

    let study = Study::new(
        "icy_risk",
        "risk profile of reported incidents",
        "traffic",
        "Incident",
    )
    .with_column(StudyColumn::new("Incident", "Risk", "level"))
    .with_selection(ContributorSelection::new(
        "citypd",
        vec!["all incidents".into()],
        vec!["risk".into()],
    ));
    let result = sys.run_study(&study).unwrap();
    println!("traffic study result:\n{}", result.tables["Incident"]);
    assert_eq!(result.tables["Incident"].len(), 4);

    // ── Finance: debt-to-income classifier with arithmetic rules ────────
    let tool = finance_tool();
    tool.validate().unwrap();
    let tree = GTree::derive(&tool).unwrap();
    let naive_schema = tool.forms[0].naive_schema();
    let stack = PatternStack::new(
        "lendco",
        vec![PatternKind::Audit(
            AuditPattern::new(&naive_schema, "archived").unwrap(),
        )],
    );
    let mut naive = Database::new("lendco");
    let mut t = Table::new(naive_schema);
    for (id, amount, income, emp, years) in [
        (1i64, 10_000i64, 80_000i64, 1i64, Some(5i64)),
        (2, 50_000, 60_000, 2, Some(1)),
        (3, 5_000, 20_000, 3, None),
    ] {
        t.insert(vec![
            Value::Int(id),
            Value::Int(amount),
            Value::Int(income),
            Value::Int(emp),
            years.map(Value::Int).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    naive.create_table(t).unwrap();
    let physical = stack.encode(&naive).unwrap();

    let schema = StudySchema::new(
        "lending",
        EntityDef::new("Application").with_attribute(AttributeDef::new(
            "LoanToIncome",
            vec![Domain::new(
                "ratio",
                "Requested amount over annual income",
                DomainSpec::Real {
                    min: Some(0.0),
                    max: None,
                },
            )],
        )),
    );
    let mut sys = GuavaSystem::new(schema);
    sys.add_contributor(tree, stack, physical).unwrap();
    sys.register_classifier(
        Classifier::parse_rules(
            "lti",
            "lendco",
            "same arithmetic-rule shape as the paper's Tumor Size classifier",
            Target::Domain {
                entity: "Application".into(),
                attribute: "LoanToIncome".into(),
                domain: "ratio".into(),
            },
            &["amount / income <- income > 0"],
        )
        .unwrap(),
    )
    .unwrap();
    sys.register_classifier(
        Classifier::parse_rules(
            "all applications",
            "lendco",
            "",
            Target::Entity {
                entity: "Application".into(),
            },
            &["application <- application"],
        )
        .unwrap(),
    )
    .unwrap();
    let study = Study::new(
        "lti_study",
        "loan-to-income ratios",
        "lending",
        "Application",
    )
    .with_column(StudyColumn::new("Application", "LoanToIncome", "ratio"))
    .with_selection(ContributorSelection::new(
        "lendco",
        vec!["all applications".into()],
        vec!["lti".into()],
    ));
    let result = sys.run_study(&study).unwrap();
    println!("finance study result:\n{}", result.tables["Application"]);
    let r2 = result.tables["Application"]
        .iter_rows()
        .find(|r| r[1] == Value::Int(2))
        .unwrap();
    assert_eq!(r2[2], Value::Float(50_000.0 / 60_000.0));

    println!("other_domains OK: the architecture is not clinical-specific");
}
