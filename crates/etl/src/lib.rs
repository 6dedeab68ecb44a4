//! # guava-etl
//!
//! The translation layer of the architecture (paper Section 4.1–4.2,
//! Figure 6): studies specified through GUAVA g-trees and MultiClass
//! classifiers compile into ordinary ETL workflows.
//!
//! * [`workflow`] — the ETL component/stage/workflow model with an
//!   executor over temporary databases.
//! * [`mod@compile`] — the study compiler (Hypothesis #3): per contributor,
//!   three components (extract through the pattern stack, entity
//!   selection, domain classification), then a union-and-filter load.
//! * [`datalog`] — executable Datalog translation plus a mini evaluator
//!   that cross-validates the compiled semantics.
//! * [`codegen`] — XQuery text generation, mirroring the paper's hand
//!   translations.

pub mod codegen;
pub mod compile;
pub mod datalog;
pub mod workflow;

pub mod prelude {
    pub use crate::codegen::{entity_plan_to_datalog, study_to_datalog, study_to_xquery};
    pub use crate::compile::{
        compile, direct_eval, run_compiled, CompileError, CompiledStudy, ContributorBinding,
        EntityPlan, INSTANCE_COLUMN, SOURCE_COLUMN,
    };
    pub use crate::datalog::{DatalogProgram, DatalogRule, HeadArg};
    pub use crate::workflow::{ComponentRun, EtlComponent, EtlStage, EtlWorkflow, WorkflowCache};
}

pub use prelude::*;

#[cfg(test)]
mod pipeline_tests {
    //! End-to-end compile/run/cross-validate tests over a two-contributor
    //! toy setup — the in-crate version of the Hypothesis #3 experiment.

    use crate::prelude::*;
    use guava_forms::control::{ChoiceOption, Control};
    use guava_forms::form::{FormDef, ReportingTool};
    use guava_gtree::tree::GTree;
    use guava_multiclass::prelude::*;
    use guava_patterns::prelude::*;
    use guava_relational::prelude::*;
    use std::collections::BTreeMap;

    fn tool(name: &str) -> ReportingTool {
        ReportingTool::new(
            name,
            "1.0",
            vec![FormDef::new(
                "Procedure",
                "Procedure",
                vec![
                    Control::numeric("PacksPerDay", "Packs per day", DataType::Int),
                    Control::check_box("Hypoxia", "Transient hypoxia?"),
                    Control::radio(
                        "Upper",
                        "Upper GI?",
                        vec![
                            ChoiceOption::new("No", 0i64),
                            ChoiceOption::new("Yes", 1i64),
                        ],
                    ),
                ],
            )],
        )
    }

    fn study_schema() -> StudySchema {
        let root = EntityDef::new("Procedure")
            .with_attribute(AttributeDef::new(
                "Smoking",
                vec![Domain::categorical(
                    "class",
                    "habit classes",
                    &["None", "Light", "Heavy"],
                )],
            ))
            .with_attribute(AttributeDef::new(
                "Hypoxia",
                vec![Domain::boolean("yesno", "Boolean")],
            ));
        StudySchema::new("toy", root)
    }

    fn registry(contributors: &[&str]) -> ClassifierRegistry {
        let mut reg = ClassifierRegistry::new();
        for c in contributors {
            reg.register(
                Classifier::parse_rules(
                    "habits",
                    *c,
                    "",
                    Target::Domain {
                        entity: "Procedure".into(),
                        attribute: "Smoking".into(),
                        domain: "class".into(),
                    },
                    &[
                        "'None' <- PacksPerDay = 0",
                        "'Light' <- PacksPerDay < 2",
                        "'Heavy' <- PacksPerDay >= 2",
                    ],
                )
                .unwrap(),
            )
            .unwrap();
            reg.register(
                Classifier::parse_rules(
                    "hypoxia",
                    *c,
                    "",
                    Target::Domain {
                        entity: "Procedure".into(),
                        attribute: "Hypoxia".into(),
                        domain: "yesno".into(),
                    },
                    &["Hypoxia <- Hypoxia IS ANSWERED"],
                )
                .unwrap(),
            )
            .unwrap();
            reg.register(
                Classifier::parse_rules(
                    "upper_gi_only",
                    *c,
                    "",
                    Target::Entity {
                        entity: "Procedure".into(),
                    },
                    &["Procedure <- Procedure AND Upper = 1"],
                )
                .unwrap(),
            )
            .unwrap();
        }
        reg
    }

    fn naive_db(name: &str, rows: Vec<Row>) -> Database {
        let schema = tool(name).forms[0].naive_schema();
        let mut db = Database::new(name.to_owned());
        db.create_table(Table::from_rows(schema, rows).unwrap())
            .unwrap();
        db
    }

    fn study(contributors: &[&str]) -> Study {
        let mut s = Study::new("toy_study", "who had hypoxia?", "toy", "Procedure")
            .with_column(StudyColumn::new("Procedure", "Smoking", "class"))
            .with_column(StudyColumn::new("Procedure", "Hypoxia", "yesno"));
        for c in contributors {
            s = s.with_selection(ContributorSelection {
                contributor: (*c).to_owned(),
                entity_classifiers: vec!["upper_gi_only".into()],
                domain_classifiers: vec!["habits".into(), "hypoxia".into()],
                cleaning_classifiers: vec![],
            });
        }
        s
    }

    /// Two contributors with *different physical layouts*; the compiled ETL
    /// must agree exactly with direct row-by-row evaluation.
    #[test]
    fn compiled_etl_matches_direct_evaluation() {
        let t1 = tool("alpha");
        let t2 = tool("beta");
        let g1 = GTree::derive(&t1).unwrap();
        let g2 = GTree::derive(&t2).unwrap();
        // alpha stores naively; beta stores generically with an audit flag.
        let s1 = PatternStack::naive("alpha");
        let beta_schema = t2.forms[0].naive_schema();
        let generic = GenericPattern::new(&beta_schema, "eav").unwrap();
        let eav_schema = generic
            .transform_schemas(std::slice::from_ref(&beta_schema))
            .unwrap();
        let audit = AuditPattern::new(
            eav_schema.iter().find(|s| s.name == "eav").unwrap(),
            "_deleted",
        )
        .unwrap();
        let s2 = PatternStack::new(
            "beta",
            vec![PatternKind::Generic(generic), PatternKind::Audit(audit)],
        );

        let naive_alpha = naive_db(
            "alpha",
            vec![
                vec![1.into(), 0.into(), true.into(), 1.into()],
                vec![2.into(), 3.into(), false.into(), 1.into()],
                vec![3.into(), 1.into(), true.into(), 0.into()], // not upper GI
            ],
        );
        let naive_beta = naive_db(
            "beta",
            vec![
                vec![1.into(), 5.into(), true.into(), 1.into()],
                vec![2.into(), Value::Null, Value::Null, 1.into()],
            ],
        );
        let phys_alpha = s1.encode(&naive_alpha).unwrap();
        let phys_beta = s2.encode(&naive_beta).unwrap();

        let reg = registry(&["alpha", "beta"]);
        let study = study(&["alpha", "beta"]);
        let compiled = compile(
            &study,
            &study_schema(),
            &reg,
            &[
                ContributorBinding::new(g1, s1),
                ContributorBinding::new(g2, s2),
            ],
        )
        .unwrap();

        // 2 contributors × 3 components + 1 load = 7.
        assert_eq!(compiled.workflow.component_count(), 7);
        assert_eq!(compiled.workflow.stages.len(), 4);

        let results = run_compiled(&compiled, vec![phys_alpha, phys_beta]).unwrap();
        let table = &results["Procedure"];
        // alpha: instances 1, 2 (3 excluded); beta: instances 1, 2.
        assert_eq!(table.len(), 4);

        let naive_dbs = BTreeMap::from([
            ("alpha".to_owned(), naive_alpha),
            ("beta".to_owned(), naive_beta),
        ]);
        let direct = direct_eval(&compiled, &study, &naive_dbs).unwrap();
        let mut etl_rows = table.rows_from(0);
        let mut direct_rows = direct["Procedure"].clone();
        etl_rows.sort();
        direct_rows.sort();
        assert_eq!(
            etl_rows, direct_rows,
            "H3: compiled ETL ≡ direct evaluation"
        );

        // And the classified values are what the classifiers say.
        let alpha1 = etl_rows
            .iter()
            .find(|r| r[0] == Value::text("alpha") && r[1] == Value::Int(1))
            .unwrap();
        assert_eq!(alpha1[2], Value::text("None"));
        assert_eq!(alpha1[3], Value::Bool(true));
        // beta instance 2: unanswered packs -> unclassified smoking; the
        // hypoxia classifier's guard (IS ANSWERED) fails -> NULL.
        let beta2 = etl_rows
            .iter()
            .find(|r| r[0] == Value::text("beta") && r[1] == Value::Int(2))
            .unwrap();
        assert!(beta2[2].is_null());
        assert!(beta2[3].is_null());
    }

    #[test]
    fn study_filter_applies_to_primary_entity() {
        let t = tool("alpha");
        let g = GTree::derive(&t).unwrap();
        let s = PatternStack::naive("alpha");
        let naive = naive_db(
            "alpha",
            vec![
                vec![1.into(), 0.into(), true.into(), 1.into()],
                vec![2.into(), 3.into(), false.into(), 1.into()],
            ],
        );
        let phys = s.encode(&naive).unwrap();
        let reg = registry(&["alpha"]);
        let study = study(&["alpha"]).with_filter(Expr::col("Hypoxia_yesno").eq(Expr::lit(true)));
        let compiled = compile(
            &study,
            &study_schema(),
            &reg,
            &[ContributorBinding::new(g, s)],
        )
        .unwrap();
        let results = run_compiled(&compiled, vec![phys]).unwrap();
        assert_eq!(results["Procedure"].len(), 1);
        // Direct evaluation applies the same filter.
        let direct = direct_eval(
            &compiled,
            &study,
            &BTreeMap::from([("alpha".to_owned(), naive)]),
        )
        .unwrap();
        assert_eq!(direct["Procedure"].len(), 1);
    }

    #[test]
    fn datalog_translation_agrees_with_etl() {
        let t = tool("alpha");
        let g = GTree::derive(&t).unwrap();
        let s = PatternStack::naive("alpha");
        let naive = naive_db(
            "alpha",
            vec![
                vec![1.into(), 0.into(), true.into(), 1.into()],
                vec![2.into(), 3.into(), false.into(), 1.into()],
                vec![3.into(), 1.into(), true.into(), 0.into()],
            ],
        );
        let phys = s.encode(&naive).unwrap();
        let reg = registry(&["alpha"]);
        let study = study(&["alpha"]);
        let compiled = compile(
            &study,
            &study_schema(),
            &reg,
            &[ContributorBinding::new(g, s)],
        )
        .unwrap();
        let results = run_compiled(&compiled, vec![phys]).unwrap();

        // Evaluate the generated Datalog over the naive facts.
        let program = study_to_datalog(&compiled);
        let form_table = naive.table("Procedure").unwrap();
        let facts = BTreeMap::from([(
            "Procedure".to_owned(),
            (form_table.schema().clone(), form_table.rows_from(0)),
        )]);
        let derived = program.evaluate(&facts).unwrap();

        // The entity relation has the instances the ETL kept.
        let entities = &derived["alpha__procedure"];
        assert_eq!(entities.len(), results["Procedure"].len());
        // The smoking relation agrees value-by-value with the ETL column.
        let smoking = &derived["alpha__smoking_class"];
        for row in results["Procedure"].iter_rows() {
            let iid = &row[1];
            let classified = &row[2];
            if classified.is_null() {
                assert!(!smoking.iter().any(|t| &t[0] == iid));
            } else {
                assert!(
                    smoking.iter().any(|t| &t[0] == iid && &t[1] == classified),
                    "datalog disagrees for instance {iid}"
                );
            }
        }
    }

    #[test]
    fn xquery_generation_mentions_all_parts() {
        let t = tool("alpha");
        let g = GTree::derive(&t).unwrap();
        let s = PatternStack::naive("alpha");
        let reg = registry(&["alpha"]);
        let study = study(&["alpha"]);
        let compiled = compile(
            &study,
            &study_schema(),
            &reg,
            &[ContributorBinding::new(g, s)],
        )
        .unwrap();
        let xq = study_to_xquery(&compiled);
        assert!(xq.contains("for $i in doc(\"alpha.xml\")//Procedure"));
        assert!(xq.contains("where"));
        assert!(xq.contains("let $Smoking_class"));
        assert!(xq.contains("($i/PacksPerDay = 0)"));
        assert!(xq.contains("return <Procedure source=\"alpha\">"));
    }

    #[test]
    fn compile_errors_are_specific() {
        let t = tool("alpha");
        let g = GTree::derive(&t).unwrap();
        let s = PatternStack::naive("alpha");
        let reg = registry(&["alpha"]);
        let schema = study_schema();
        let binding = [ContributorBinding::new(g, s)];

        // No columns.
        let empty = Study::new("e", "", "toy", "Procedure").with_selection(ContributorSelection {
            contributor: "alpha".into(),
            entity_classifiers: vec![],
            domain_classifiers: vec![],
            cleaning_classifiers: vec![],
        });
        assert!(matches!(
            compile(&empty, &schema, &reg, &binding),
            Err(CompileError::EmptyStudy(_))
        ));

        // Unknown classifier name in selection.
        let bad = study(&["alpha"]);
        let mut bad2 = bad.clone();
        bad2.selections[0].domain_classifiers = vec!["ghost".into(), "hypoxia".into()];
        assert!(matches!(
            compile(&bad2, &schema, &reg, &binding),
            Err(CompileError::UnknownClassifier { .. })
        ));

        // Missing entity classifier.
        let mut bad3 = bad.clone();
        bad3.selections[0].entity_classifiers = vec![];
        assert!(matches!(
            compile(&bad3, &schema, &reg, &binding),
            Err(CompileError::MissingEntityClassifier { .. })
        ));

        // Missing domain classifier for a column.
        let mut bad4 = bad.clone();
        bad4.selections[0].domain_classifiers = vec!["habits".into()];
        assert!(matches!(
            compile(&bad4, &schema, &reg, &binding),
            Err(CompileError::MissingDomainClassifier { .. })
        ));

        // Filter over a column the study doesn't produce.
        let bad5 = bad
            .clone()
            .with_filter(Expr::col("Ghost_col").eq(Expr::lit(1i64)));
        assert!(matches!(
            compile(&bad5, &schema, &reg, &binding),
            Err(CompileError::BadFilter(_))
        ));

        // Missing binding.
        let bad6 = study(&["alpha", "gamma"]);
        assert!(matches!(
            compile(&bad6, &schema, &reg, &binding),
            Err(CompileError::MissingBinding(_))
        ));
    }
}
