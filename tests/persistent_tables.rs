//! Generation sharing across the storage → warehouse → service stack
//! (DESIGN.md §18): tables are persistent values, so installing a new
//! engine generation shares — pointer-identically — every table the
//! refresh did not touch and every sealed segment of the tables it did.
//!
//! These are *identity* assertions (`Arc::ptr_eq`), not equality
//! assertions: byte-identity of query results is covered by the §15/§16
//! property suites; this suite pins the O(delta) install claim itself —
//! an install that deep-copied would still be byte-identical, but it
//! would not be pointer-identical.

use guava::prelude::*;
use guava::warehouse::service::{Engine, EngineConfig};
use guava_relational::value::DataType;
use std::sync::Arc;

fn classifiers() -> (BoundClassifier, BoundClassifier, BoundClassifier) {
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
    (ec, c_class, c_packs)
}

fn build_engine() -> Engine {
    build_engine_over(vec![
        vec![1.into(), 0.into(), true.into()],
        vec![2.into(), 1.into(), true.into()],
        vec![3.into(), 5.into(), false.into()],
        vec![4.into(), 9.into(), true.into()],
    ])
}

fn build_engine_over(reports: Vec<Row>) -> Engine {
    let (ec, c_class, c_packs) = classifiers();
    let form = FormDef::new(
        "Procedure",
        "Procedure",
        vec![
            Control::numeric("PacksPerDay", "Packs per day", DataType::Int),
            Control::check_box("SurgeryPerformed", "Surgery?"),
        ],
    );
    let naive = Table::from_rows(form.naive_schema(), reports).unwrap();
    Engine::build(
        "cori",
        naive,
        &ec,
        &[&c_class, &c_packs],
        EngineConfig::default(),
    )
    .unwrap()
}

/// The study table the Full policy materializes for the fixture.
const STUDY: &str = "cori__Surgery_Only";

/// A snapshot's database *views* the store's tables — the same
/// `Arc<Table>` per table, never a second copy.
#[test]
fn snapshot_database_views_store_tables() {
    let engine = build_engine();
    let snap = engine.snapshot();
    let store = snap.store();
    assert!(Arc::ptr_eq(
        snap.database().shared_table(snap.naive_table()).unwrap(),
        &store.naive_form,
    ));
    assert!(Arc::ptr_eq(
        snap.database().shared_table(STUDY).unwrap(),
        &store.materialized.as_ref().unwrap().table,
    ));
}

/// Inserts that the entity classifier filters out change the naïve form
/// but leave the materialized study table untouched: across three such
/// generational installs, every new snapshot must carry the *same*
/// `Arc<Table>` for the study table — not an equal copy.
#[test]
fn unchanged_table_is_pointer_identical_across_generations() {
    let engine = build_engine();
    let mut prev = engine.snapshot();
    for i in 0..3i64 {
        // SurgeryPerformed = false → not selected into the study.
        engine
            .update(|cat| {
                cat.insert(
                    "cori",
                    "Procedure",
                    vec![(10 + i).into(), 1.into(), false.into()],
                )
            })
            .unwrap();
        let next = engine.snapshot();
        assert_eq!(next.generation(), prev.generation() + 1);
        // The untouched study table rides through pointer-identically...
        assert!(
            Arc::ptr_eq(
                prev.database().shared_table(STUDY).unwrap(),
                next.database().shared_table(STUDY).unwrap(),
            ),
            "generation {}: study table was copied, not shared",
            next.generation()
        );
        // ...while the naïve form is a new value (it did change).
        assert!(!Arc::ptr_eq(
            prev.database().shared_table("Procedure").unwrap(),
            next.database().shared_table("Procedure").unwrap(),
        ));
        prev = next;
    }
    // Generation 3's study table is still generation 0's, transitively.
    assert_eq!(engine.generation(), 3);
}

/// Sealed segments survive installs — *delete-bearing* ones included. A
/// chunk is sealed once over its physical rows and a delete only sets a
/// mask bit, so the segment `Arc`s of generation `g`'s tables reappear
/// pointer-identical in generations `g+1 ..`, whether an install
/// appended, amended or retired rows of the very chunk they describe.
/// (The base must be past `SMALL_CHUNK_ROWS`: smaller chunks are still
/// being merged, which is what rebuilding a seal is for.)
#[test]
fn sealed_segments_are_shared_across_generations() {
    use guava_relational::table::SMALL_CHUNK_ROWS;
    let base = SMALL_CHUNK_ROWS as i64 + 500;
    let engine = build_engine_over(
        (1..=base)
            .map(|i| vec![i.into(), (i % 4).into(), (i % 3 != 0).into()])
            .collect(),
    );
    let g0 = engine.snapshot();
    // Seal generation 0 (queries would do this anyway).
    let sealed = |snap: &guava::warehouse::service::Snapshot, table: &str| {
        snap.database()
            .table(table)
            .unwrap()
            .segments()
            .segments()
            .to_vec()
    };
    let base_naive = sealed(&g0, "Procedure");
    let base_study = sealed(&g0, STUDY);
    assert_eq!((base_naive.len(), base_study.len()), (1, 1));

    for i in 0..6i64 {
        engine
            .update(|cat| {
                cat.insert(
                    "cori",
                    "Procedure",
                    vec![(base + 1 + i).into(), 2.into(), true.into()],
                )?;
                // Amend one report in the middle of the sealed chunk and
                // retire the oldest one: both delete from it.
                cat.update_where(
                    "cori",
                    "Procedure",
                    |r| r[0] == Value::Int(2000 + 7 * i),
                    |r| r[1] = Value::Int(9),
                )?;
                cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(1 + i))
            })
            .unwrap();
        let next = engine.snapshot();
        for (table, base_segs) in [("Procedure", &base_naive), (STUDY, &base_study)] {
            let t = next.database().table(table).unwrap();
            assert!(
                Arc::ptr_eq(&base_segs[0], &t.segments().segments()[0]),
                "generation {}: {table}'s sealed segment was rebuilt, not shared",
                next.generation()
            );
            let layout = t.layout();
            assert!(layout.within_bounds(), "{table}: {layout:?}");
            // The segment now describes more rows than are live.
            assert!(layout.dead_rows_under_seals > 0, "{table}: {layout:?}");
            assert_eq!(t.segments().covered(), t.len());
            assert_eq!(t.unsealed_rows(), 0);
        }
    }
}

/// Mixed batches (deletes included) still answer byte-identically while
/// sharing: a pinned session at generation 0 re-queries byte-identical
/// results after every install, and the installs themselves never copy
/// the untouched study table.
#[test]
fn pinned_reads_survive_shared_structure_installs() {
    let engine = build_engine();
    let plan = Plan::scan("Procedure").sort_by(&["instance_id"]);
    let pinned = engine.pinned_session();
    let oracle = pinned.query(&plan).unwrap();

    for i in 0..3i64 {
        engine
            .update(|cat| {
                cat.insert(
                    "cori",
                    "Procedure",
                    vec![(30 + i).into(), 0.into(), false.into()],
                )?;
                cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(30 + i - 1))
            })
            .unwrap();
        assert_eq!(pinned.query(&plan).unwrap(), oracle);
    }
    assert_eq!(pinned.generation(), 0);
    assert_eq!(engine.generation(), 3);
}

/// One chunk per `DeltaCatalog::insert` used to be literal: 1 000 inserts
/// left 1 000 one-row chunks (and `audit_revise`, which tombstones row by
/// row, a 2 309-part scan at 30 000 reports). Every chunk-opening path
/// now merges small chunks geometrically, so both stay logarithmic —
/// which is also what bounds the chunk walk in `row_at` / `key_position`.
#[test]
fn single_row_catalog_inserts_and_audit_revisions_stay_within_the_layout_bounds() {
    use guava::clinical::{audit_revise, cori, generate, GeneratorConfig};
    use guava_relational::table::MAX_SMALL_RUN;

    // 1 000 single-row inserts into an empty keyed table.
    let schema = Schema::new("t", vec![Column::required("id", DataType::Int)])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
    let mut db = Database::new("d");
    db.create_table(Table::new(schema)).unwrap();
    let mut cat = Catalog::new();
    cat.insert(db);
    let mut dc = DeltaCatalog::new(cat);
    for i in 0..1000i64 {
        dc.insert("d", "t", vec![i.into()]).unwrap();
        let layout = dc
            .catalog()
            .database("d")
            .unwrap()
            .table("t")
            .unwrap()
            .layout();
        assert!(layout.within_bounds(), "insert {i}: {layout:?}");
        assert!(layout.scan_parts <= MAX_SMALL_RUN, "insert {i}: {layout:?}");
    }
    let t = dc.catalog().database("d").unwrap().table("t").unwrap();
    for i in [0i64, 499, 999] {
        assert_eq!(t.row_at(i as usize), Some(&vec![Value::Int(i)]));
        assert_eq!(t.key_position(&[Value::Int(i)]).unwrap().0, i as usize);
    }

    // `audit_revise` over every live report of a 1 000-report CORI load:
    // 1 000 single-row tombstone inserts, then one 1 000-row amendment.
    let profiles = generate(&GeneratorConfig::default().with_size(1000));
    let mut db = cori::physical_database(&profiles).unwrap();
    db.name = "cori".to_owned();
    let before = db.table(cori::PHYSICAL_TABLE).unwrap().len();
    let note_idx = db
        .table(cori::PHYSICAL_TABLE)
        .unwrap()
        .schema()
        .index_of("other_complication")
        .unwrap();
    let mut cat = Catalog::new();
    cat.insert(db);
    let mut dc = DeltaCatalog::new(cat);
    let revised = audit_revise(
        &mut dc,
        "cori",
        cori::PHYSICAL_TABLE,
        cori::AUDIT_FLAG,
        |_| true,
        |r| r[note_idx] = Value::text("amended"),
    )
    .unwrap();
    assert_eq!(revised, 1000);
    let t = dc
        .catalog()
        .database("cori")
        .unwrap()
        .table(cori::PHYSICAL_TABLE)
        .unwrap();
    assert_eq!(t.len(), before + 1000);
    let layout = t.layout();
    assert!(layout.within_bounds(), "{layout:?}");
    assert!(layout.chunks <= MAX_SMALL_RUN, "{layout:?}");
    assert_eq!(t.iter_rows().count(), t.len());
    assert_eq!(
        t.row_at(t.len() - 1).unwrap()[note_idx],
        Value::text("amended")
    );
}

/// What one install builds and ships does not grow with the table: the
/// same update — insert a report, amend one in the middle, retire the
/// oldest — over 2 000 and over 100 000 base reports builds the same few
/// chunks for the naïve form and the study table, and pushes each
/// standing query the same patch, and a subscriber's mirror of a broad
/// filter over the naïve form takes that patch by building the same few
/// chunks. The larger base spans several `SEGMENT_ROWS` chunks, so a
/// clone-based install, which builds every chunk of both tables again,
/// would count more there; a re-poll would ship whole results, and a
/// mirror rebuilt from its rows would build every chunk. These are
/// counts, not timings, so they hold on any host.
#[test]
fn install_and_push_cost_the_same_at_any_base_size() {
    use guava_relational::algebra::{AggFunc, Aggregate};

    let funnel = Plan::scan(STUDY).select(Expr::col("C_class").eq(Expr::lit("Heavy")));
    let groups = Plan::scan(STUDY).aggregate(
        &["C_class"],
        vec![Aggregate {
            func: AggFunc::CountAll,
            alias: "n".into(),
        }],
    );
    let broad = Plan::scan("Procedure").select(Expr::col("PacksPerDay").ge(Expr::lit(0i64)));
    // Per base size: the chunk counts of the naïve form and of the broad
    // mirror before the update, then the chunks the install built for the
    // naïve form and the study table, the (deleted, inserted) rows pushed
    // to each subscription, and the chunks the broad mirror built.
    let [(small_chunks, small), (large_chunks, large)] = [2_000i64, 100_000].map(|base| {
        let engine = build_engine_over(
            (1..=base)
                .map(|i| vec![i.into(), (i % 4).into(), (i % 3 != 0).into()])
                .collect(),
        );
        let session = engine.session();
        let mut subs = [
            session.subscribe(&funnel).unwrap(),
            session.subscribe(&groups).unwrap(),
        ];
        let mut mirror = session.subscribe(&broad).unwrap();
        let mirrored = mirror.table();
        let prev = engine.snapshot();
        // The middle report is in the study (not a multiple of 3) and
        // moves from 'None' (a multiple of 4) to 'Heavy'.
        let middle = Value::Int(base / 2);
        engine
            .update(|cat| {
                cat.insert(
                    "cori",
                    "Procedure",
                    vec![(base + 1).into(), 2.into(), true.into()],
                )?;
                cat.update_where(
                    "cori",
                    "Procedure",
                    |r| r[0] == middle,
                    |r| r[1] = Value::Int(9),
                )?;
                cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(1))
            })
            .unwrap();
        let next = engine.snapshot();
        let table = |snap: &guava::warehouse::service::Snapshot, name| {
            snap.database().table(name).unwrap().clone()
        };
        let built = ["Procedure", STUDY].map(|t| table(&next, t).chunks_not_in(&table(&prev, t)));
        let pushed = subs.each_mut().map(|sub| {
            let event = sub.try_next().unwrap().expect("one event per update");
            match event.change {
                Ok(Change::Patch(p)) => (p.deleted().len(), p.rows_inserted()),
                other => panic!("base {base}: {other:?}, not a patch"),
            }
        });
        assert_eq!(mirror.sync().unwrap(), 1, "base {base}");
        assert_eq!(mirror.table(), session.query(&broad).unwrap());
        let moved = mirror.table().chunks_not_in(&mirrored);
        let base_chunks = table(&prev, "Procedure").layout().chunks;
        (
            (base_chunks, mirrored.layout().chunks),
            (built, pushed, moved),
        )
    });
    assert!(
        large_chunks.0 > small_chunks.0 && large_chunks.1 > small_chunks.1,
        "base and mirror chunks: {small_chunks:?} vs {large_chunks:?}"
    );
    assert_eq!(large, small, "2 000 vs 100 000 base reports");
    let (built, pushed, moved) = small;
    assert!(built.iter().all(|&n| n <= 3), "chunks built: {built:?}");
    assert!(moved <= 3, "chunks the mirror built: {moved}");
    assert_eq!(
        pushed[0],
        (0, 2),
        "the funnel gains the insert and the amend"
    );
}
