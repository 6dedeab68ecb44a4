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

/// What one `run_on` of each study images. Every stage's scan seals the
/// table it meets, and a column is built only where a kernel reads it: the
/// extracts' own filters on the physical tables (lane masks, zone-map
/// prunes), the three columns EndoPro's pivot reads off the sealed EAV
/// table, and each study's `col = literal` over its classify outputs.
/// The `classify:*` scans feed `CASE` row walks and the `entities:*`
/// scans are the extracts' tables as they are, so neither images one.
#[test]
fn run_on_images_only_the_columns_lanes_read() {
    let profiles = generate(&GeneratorConfig::default().with_size(120));
    let contributors = build_all(&profiles).expect("contributors");
    let (schema, registry) = (study_schema(), classifiers::registry());
    let binds = bindings(&contributors);
    let mut catalog = physical_catalog(&contributors);
    let exec = Executor::new();
    // `(sealed_spans, imaged_columns)` of one landed table.
    let counts = |catalog: &Catalog, db: &str, table: &str| {
        let layout = catalog.database(db).unwrap().table(table).unwrap().layout();
        (layout.sealed_spans, layout.imaged_columns)
    };
    // Was `col` the column imaged? Reading an imaged column builds nothing.
    let is_imaged = |catalog: &Catalog, db: &str, table: &str, col: &str| {
        let t = catalog.database(db).unwrap().table(table).unwrap();
        let before = t.layout().imaged_columns;
        let c = t.schema().index_of(col).unwrap();
        for seg in t.segments().segments() {
            seg.column(c);
        }
        t.layout().imaged_columns == before
    };
    let studies = [
        (study1_definition(&contributors), "ProcType_kind"),
        (
            study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear),
            "ExSmoker_yesno",
        ),
    ];
    for (study, filter_col) in &studies {
        let compiled = compile(study, &schema, &registry, &binds).unwrap();
        compiled.workflow.run_on(&mut catalog, &exec).unwrap();
        for stage in &compiled.workflow.stages {
            for c in &stage.components {
                let (db, t) = (&c.target_db, &c.target_table);
                let got = counts(&catalog, db, t);
                match c.name.split(':').next().unwrap() {
                    "extract" | "entities" => assert_eq!(got, (1, 0), "{}", c.name),
                    "classify" => {
                        assert_eq!(got, (1, 1), "{}", c.name);
                        assert!(is_imaged(&catalog, db, t, filter_col), "{}", c.name);
                    }
                    // Nothing in the workflow reads what it lands.
                    "load" => assert_eq!(got.0, 0, "{}", c.name),
                    other => panic!("unexpected stage `{other}`"),
                }
            }
        }
    }
    // The physical tables: the extract's own filter, and on EndoPro's EAV
    // table the entity, attribute and value columns its pivot reads off
    // their dictionary codes. The lookup table behind GastroLink's unread
    // join is never scanned.
    for (db, table, cols) in [
        ("cori", "tblProcedure", &["recDeleted"][..]),
        (
            "endopro",
            "eav_records",
            &["is_void", "entity", "attribute", "value"],
        ),
        ("gastrolink", "gl_master", &["rec_type"]),
    ] {
        assert_eq!(counts(&catalog, db, table), (1, cols.len()), "{db}.{table}");
        for col in cols {
            assert!(is_imaged(&catalog, db, table, col), "{db}.{table}.{col}");
        }
    }
    let lookup = "gl_master_alcohol_code_lookup";
    assert_eq!(counts(&catalog, "gastrolink", lookup), (0, 0));
}
