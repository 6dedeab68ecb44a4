//! End-to-end architecture test (paper Figure 1): contributors with
//! heterogeneous tools and physical layouts → GUAVA g-trees → MultiClass
//! classifiers and study schemas → compiled ETL → study results — through
//! the public `GuavaSystem` facade, with artifact persistence checked
//! along the way.

use guava::clinical::prelude::*;
use guava::clinical::{classifiers, cori};
use guava::prelude::*;

fn build_system(profiles: &[Profile]) -> (Vec<Contributor>, GuavaSystem) {
    let contributors = build_all(profiles).expect("contributors");
    let mut sys = GuavaSystem::new(study_schema());
    for c in &contributors {
        sys.add_contributor(c.tree.clone(), c.stack.clone(), c.physical.clone())
            .unwrap();
    }
    for cl in classifiers::cori()
        .into_iter()
        .chain(classifiers::endopro())
        .chain(classifiers::gastrolink())
    {
        sys.register_classifier(cl).unwrap();
    }
    (contributors, sys)
}

#[test]
fn figure1_pipeline_runs_both_studies() {
    let profiles = generate(&GeneratorConfig::default().with_size(150));
    let (contributors, mut sys) = build_system(&profiles);

    // Analysts explore g-trees, not database schemas.
    for name in ["cori", "endopro", "gastrolink"] {
        let g = sys.gtree(name).unwrap();
        assert!(g.attributes().len() >= 10, "{name} exposes its controls");
    }

    // Study 1.
    let study1 = study1_definition(&contributors);
    let r1 = sys.run_study(&study1).unwrap();
    let funnel = Study1Report::from_table(&r1.tables["Procedure"]).unwrap();
    let expected = Study1Report::expected(&profiles);
    assert_eq!(funnel.population, 3 * expected.population);
    assert_eq!(funnel.oxygen, 3 * expected.oxygen);

    // Study 2 under both semantics.
    let strict = study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear);
    let loose = study2_definition(&contributors, ExSmokerMeaning::EverQuit);
    let rs = sys.run_study(&strict).unwrap();
    let rl = sys.run_study(&loose).unwrap();
    assert!(rl.tables["Procedure"].len() > rs.tables["Procedure"].len());

    // All three studies are archived for reuse over the same schema.
    assert_eq!(sys.prior_studies().len(), 3);
}

#[test]
fn artifacts_serialize_and_reload() {
    // The paper stores g-trees as hierarchical documents; every MultiClass
    // artifact must survive a save/load cycle byte-identically.
    let tree = GTree::derive(&cori::tool()).unwrap();
    let json = tree.to_json().unwrap();
    assert_eq!(GTree::from_json(&json).unwrap(), tree);
    let xml = tree.to_xml();
    assert!(xml.contains("question=\"Does the patient smoke?\""));
    // XML round-trips for every vendor's g-tree (the paper's storage
    // format; only the root banner is regenerated).
    for tool in [
        cori::tool(),
        guava::clinical::endopro::tool(),
        guava::clinical::gastrolink::tool(),
    ] {
        let t = GTree::derive(&tool).unwrap();
        let back = GTree::from_xml_doc(&t.to_xml()).unwrap();
        assert_eq!(back.tool, t.tool);
        assert_eq!(back.root.children, t.root.children, "{}", t.tool);
    }

    let schema = study_schema();
    let json = serde_json::to_string(&schema).unwrap();
    let back: StudySchema = serde_json::from_str(&json).unwrap();
    assert_eq!(back, schema);

    for c in classifiers::cori() {
        let json = serde_json::to_string(&c).unwrap();
        let back: Classifier = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    let stack = cori::stack().unwrap();
    let json = serde_json::to_string(&stack).unwrap();
    let back: PatternStack = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stack);
}

#[test]
fn csv_export_roundtrips_study_results() {
    let profiles = generate(&GeneratorConfig::default().with_size(80));
    let (contributors, mut sys) = build_system(&profiles);
    let study = study2_definition(&contributors, ExSmokerMeaning::EverQuit);
    let result = sys.run_study(&study).unwrap();
    let table = &result.tables["Procedure"];
    let csv = guava::relational::csv::to_csv(table);
    let back = guava::relational::csv::from_csv(table.schema().clone(), &csv).unwrap();
    assert_eq!(back.rows(), table.rows());
}

#[test]
fn parallel_and_sequential_execution_agree() {
    // The facade runs the compiled workflow on the default executor; the
    // same workflow on one thread and on four lands the same study table.
    let profiles = generate(&GeneratorConfig::default().with_size(120));
    let (contributors, mut sys) = build_system(&profiles);
    let study = study1_definition(&contributors);
    let facade = sys.run_study(&study).unwrap();
    let compiled = sys.compile_study(&study).unwrap();
    for threads in [1, 4] {
        let mut catalog = Catalog::new();
        for c in &contributors {
            catalog.insert(c.physical.clone());
        }
        let exec = Executor::new().threads(threads).parallel_threshold(1);
        compiled.workflow.run_on(&mut catalog, &exec).unwrap();
        let landed = catalog.database(&compiled.output_db).unwrap();
        for (entity, table) in &compiled.output_tables {
            assert_eq!(
                landed.table(table).unwrap(),
                &facade.tables[entity],
                "{entity}, {threads} threads"
            );
        }
    }
}

#[test]
fn provenance_travels_with_artifacts() {
    let schema = study_schema();
    assert!(
        !schema.provenance.annotations.is_empty(),
        "study schema carries who/when/why"
    );
    for c in classifiers::cori() {
        assert!(
            c.provenance.created().is_some(),
            "classifier `{}` carries provenance",
            c.name
        );
    }
}
