//! What `Executor::execute` does before `compile` — dead-column pruning,
//! projection fusion, the identity projection under a pivot, the unread
//! lookup join (`relational::optimize::prepare`) — and the copy-free
//! filtered windows below it are invisible: on both executor lanes the
//! result, its schema and the first error are those of the plan *as
//! written* under the materializing interpreter.
//!
//! The suite goes where pruning could hide a fault: a narrow projection
//! over every pattern's decode tower, then a single fault planted in a
//! place nobody reads.

use guava::clinical::prelude::*;
use guava::prelude::*;
use guava::relational::optimize::prepare;
use guava_relational::value::DataType;

mod common;
use common::lanes;

/// `plan` evaluates on every executor lane exactly as the interpreter
/// evaluates it as written: the same table (schema included) or the same
/// error. Returns what that was.
fn assert_parity(label: &str, plan: &Plan, db: &Database) -> RelResult<Table> {
    let want = plan.eval_materialized(db);
    for (lane, exec) in lanes() {
        match (exec.execute(plan, db), &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.schema(), want.schema(), "{label}, {lane}: schema");
                assert_eq!(&got, want, "{label}, {lane}: rows");
            }
            (Err(got), Err(want)) => assert_eq!(&got, want, "{label}, {lane}: error"),
            (got, want) => panic!("{label}, {lane}: executor {got:?}, oracle {want:?}"),
        }
    }
    want
}

/// Nodes of `plan` that satisfy `pred`.
fn count(plan: &Plan, pred: &impl Fn(&Plan) -> bool) -> usize {
    let below: usize = plan.children().into_iter().map(|p| count(p, pred)).sum();
    below + usize::from(pred(plan))
}

fn joins(plan: &Plan) -> usize {
    count(plan, &|p| matches!(p, Plan::Join { .. }))
}

fn projects(plan: &Plan) -> usize {
    count(plan, &|p| matches!(p, Plan::Project { .. }))
}

// ---------------------------------------------------------------------------
// (i) A narrow projection over every pattern's decode tower
// ---------------------------------------------------------------------------

fn form1() -> Schema {
    Schema::new(
        "form1",
        vec![
            Column::required("instance_id", DataType::Int),
            Column::new("flag_a", DataType::Bool),
            Column::new("count_b", DataType::Int),
            Column::new("ratio_c", DataType::Float),
            Column::new("note_d", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["instance_id"])
    .unwrap()
}

fn form2() -> Schema {
    Schema::new(
        "form2",
        vec![
            Column::required("instance_id", DataType::Int),
            Column::new("score", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["instance_id"])
    .unwrap()
}

/// Sixty reports with NULLs in every optional control, and one report
/// with every control blank.
fn naive_db() -> Database {
    let opt = |keep: bool, v: Value| if keep { v } else { Value::Null };
    let rows: Vec<Row> = (1..=60i64)
        .map(|i| {
            let blank = i == 17;
            vec![
                Value::Int(i),
                opt(!blank && i % 5 != 0, Value::Bool(i % 2 == 0)),
                opt(!blank && i % 7 != 0, Value::Int(i % 4)),
                opt(!blank && i % 3 != 0, Value::Float(i as f64 / 4.0)),
                opt(!blank && i % 11 != 0, Value::text(format!("n{}", i % 6))),
            ]
        })
        .collect();
    let mut db = Database::new("naive");
    db.create_table(Table::from_rows(form1(), rows).unwrap())
        .unwrap();
    let scores = (1..=9i64).map(|i| vec![Value::Int(i), Value::Int(i * i)]);
    db.create_table(Table::from_rows(form2(), scores).unwrap())
        .unwrap();
    db
}

/// One stack per pattern kind of the catalog (paper Table 1).
fn one_of_each_kind() -> Vec<(&'static str, PatternStack)> {
    let s = form1();
    let generic = GenericPattern::new(&s, "eav_store").unwrap();
    let kinds = vec![
        ("naive", PatternKind::Naive),
        (
            "rename",
            PatternKind::Rename(
                RenamePattern::new(&s, "tbl_f1", vec![("flag_a", "fa"), ("count_b", "cb")])
                    .unwrap(),
            ),
        ),
        (
            "merge",
            PatternKind::Merge(
                MergePattern::new("all_forms", "form", vec![s.clone(), form2()]).unwrap(),
            ),
        ),
        (
            "split",
            PatternKind::Split(
                SplitPattern::new(
                    &s,
                    vec![
                        ("frag_left", vec!["flag_a", "count_b"]),
                        ("frag_right", vec!["ratio_c", "note_d"]),
                    ],
                )
                .unwrap(),
            ),
        ),
        (
            "hpartition",
            PatternKind::HorizontalPartition(
                HPartitionPattern::new(
                    &s,
                    vec![
                        ("f1_flagged", Expr::col("flag_a").eq(Expr::lit(true))),
                        ("f1_rest", Expr::lit(true)),
                    ],
                )
                .unwrap(),
            ),
        ),
        ("generic", PatternKind::Generic(generic)),
        (
            "audit",
            PatternKind::Audit(AuditPattern::new(&s, "_del").unwrap()),
        ),
        (
            "versioned",
            PatternKind::Versioned(VersionedPattern::new(&s, "_ver").unwrap()),
        ),
        (
            "lookup",
            PatternKind::Lookup(
                LookupPattern::new(&s, "count_b", (0..4).map(Value::Int).collect()).unwrap(),
            ),
        ),
        (
            "bool_encode",
            PatternKind::BoolEncode(BoolEncodePattern::new(&s, "flag_a", "Y", "N").unwrap()),
        ),
        (
            "null_sentinel",
            PatternKind::NullSentinel(NullSentinelPattern::new(&s, "count_b", -9i64).unwrap()),
        ),
    ];
    kinds
        .into_iter()
        .map(|(name, kind)| (name, PatternStack::new("c", vec![kind])))
        .collect()
}

/// Two columns of the form: one every encoding pattern touches, one none does.
fn narrow() -> Plan {
    Plan::scan("form1").project_cols(&["instance_id", "ratio_c"])
}

#[test]
fn narrow_projection_over_every_pattern_kind_matches_the_oracle() {
    let naive = naive_db();
    let stacks = one_of_each_kind();
    assert_eq!(stacks.len(), 11);
    for (name, stack) in stacks {
        let physical = stack.encode(&naive).unwrap();
        for (what, plan) in [
            ("narrow", narrow()),
            (
                "encoded column",
                Plan::scan("form1").project_cols(&["count_b", "flag_a"]),
            ),
            ("whole form", Plan::scan("form1")),
        ] {
            let decode = stack.decode_plan(&plan).unwrap();
            let got = assert_parity(&format!("{name}, {what}"), &decode, &physical).unwrap();
            assert_eq!(got.len(), 60, "{name}, {what}");
        }
    }
}

#[test]
fn clinical_extracts_match_the_oracle() {
    let profiles = generate(&GeneratorConfig::default().with_seed(23).with_size(120));
    let contributors = build_all(&profiles).unwrap();
    let catalog = physical_catalog(&contributors);
    let bindings = bindings(&contributors);
    let studies = [
        study1_definition(&contributors),
        study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear),
    ];
    for study in &studies {
        let compiled = compile(study, &study_schema(), &registry(), &bindings).unwrap();
        for comp in &compiled.workflow.stages[0].components {
            let db = catalog.database(&comp.source_db).unwrap();
            let got = assert_parity(&comp.name, &comp.plan, db).unwrap();
            assert_eq!(got.len(), profiles.len(), "{}", comp.name);
        }
    }
    // And each contributor's whole form, as the spine's decode probes ask.
    for c in &contributors {
        let full = Plan::scan(c.tool.forms[0].id.clone());
        let decode = c.stack.decode_plan(&full).unwrap();
        assert_parity(c.name(), &decode, &c.physical).unwrap();
    }
}

// ---------------------------------------------------------------------------
// (i, continued) Single faults in places nobody reads
// ---------------------------------------------------------------------------

fn small_db() -> Database {
    let t = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("s", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let rows = (0..40i64).map(|i| {
        vec![
            Value::Int(i),
            Value::Int(i % 5), // zero on every fifth row
            // NULL keys, and keys the dimension does not hold.
            if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int(i % 8)
            },
            Value::text(format!("s{}", i % 3)),
        ]
    });
    let keyed = |name: &str| {
        Schema::new(
            name,
            vec![
                Column::required("code", DataType::Int),
                Column::new("label", DataType::Text),
            ],
        )
        .unwrap()
    };
    let labels = |codes: &[i64]| -> Vec<Row> {
        codes
            .iter()
            .map(|c| vec![Value::Int(*c), Value::text(format!("label {c}"))])
            .collect()
    };
    let text_keyed = Schema::new(
        "dim_text",
        vec![
            Column::required("code", DataType::Text),
            Column::new("label", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["code"])
    .unwrap();
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(t, rows).unwrap()).unwrap();
    db.create_table(
        Table::from_rows(
            keyed("dim").with_primary_key(&["code"]).unwrap(),
            labels(&[0, 1, 2, 3, 4, 5]),
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(Table::from_rows(keyed("dim_dup"), labels(&[1, 1, 2, 2, 2, 7])).unwrap())
        .unwrap();
    db.create_table(
        Table::from_rows(text_keyed, vec![vec![Value::text("1"), Value::text("one")]]).unwrap(),
    )
    .unwrap();
    db
}

#[test]
fn a_fault_in_an_unread_place_still_surfaces() {
    // A non-numeric value under a typed attribute the query never reads:
    // the pivot casts every attribute it was given.
    let naive = naive_db();
    let (_, generic) = one_of_each_kind().remove(5);
    let mut physical = generic.encode(&naive).unwrap();
    physical
        .table_mut("eav_store")
        .unwrap()
        .update_where(
            |r| r[0] == Value::Int(33) && r[1] == Value::text("count_b"),
            |r| r[2] = Value::text("three"),
        )
        .unwrap();
    let decode = generic.decode_plan(&narrow()).unwrap();
    let err = assert_parity("malformed unread attribute", &decode, &physical).unwrap_err();
    assert!(matches!(err, RelError::Eval(_)), "{err:?}");

    let db = small_db();
    // A column that does not exist, in a projection output nobody reads.
    let ghost = Plan::scan("t")
        .project(vec![("id", Expr::col("id")), ("g", Expr::col("ghost"))])
        .project_cols(&["id"]);
    let err = assert_parity("ghost in a dead output", &ghost, &db).unwrap_err();
    assert!(matches!(err, RelError::UnknownColumn { .. }), "{err:?}");

    // A division nobody reads, over a zero.
    let dead_div = Plan::scan("t")
        .project(vec![
            ("id", Expr::col("id")),
            ("q", Expr::lit(100i64).div(Expr::col("a"))),
        ])
        .project_cols(&["id"]);
    let err = assert_parity("dead division by zero", &dead_div, &db).unwrap_err();
    assert_eq!(err, RelError::Eval("division by zero".into()));
    // The same division behind a CASE arm that never runs it stays lazy.
    let lazy = Plan::scan("t")
        .project(vec![
            ("id", Expr::col("id")),
            (
                "q",
                Expr::Case {
                    arms: vec![(
                        Expr::col("a").ne(Expr::lit(0i64)),
                        Expr::lit(100i64).div(Expr::col("a")),
                    )],
                    default: Box::new(Expr::Lit(Value::Null)),
                },
            ),
        ])
        .project_cols(&["id", "q"]);
    assert_parity("lazy division", &lazy, &db).unwrap();

    // An otherwise-eliminable lookup join against a table that is gone.
    let (_, lookup) = one_of_each_kind().remove(8);
    let mut physical = lookup.encode(&naive).unwrap();
    physical.drop_table("form1_count_b_lookup").unwrap();
    let decode = lookup.decode_plan(&narrow()).unwrap();
    let err = assert_parity("missing lookup table", &decode, &physical).unwrap_err();
    assert!(matches!(err, RelError::UnknownTable(_)), "{err:?}");

    // Join keys of different types match nothing and raise nothing —
    // eliminated or not.
    let mismatched = Plan::scan("t")
        .join(Plan::scan("dim_text"), vec![("k", "code")], JoinKind::Left)
        .project_cols(&["id", "s"]);
    let got = assert_parity("mismatched key types", &mismatched, &db).unwrap();
    assert_eq!(got.len(), 40);
}

// ---------------------------------------------------------------------------
// (ii) The lookup join goes only when that is sound
// ---------------------------------------------------------------------------

#[test]
fn join_elimination_only_when_sound() {
    let db = small_db();
    let left_only = |join: Plan| join.project_cols(&["id", "k"]);
    let on = || vec![("k", "code")];

    // Sound: Left join, the right side a stored table keyed by the join
    // column, nothing read from it. NULL and unmatched left keys pass
    // through padded — once.
    let eligible = left_only(Plan::scan("t").join(Plan::scan("dim"), on(), JoinKind::Left));
    assert_eq!(joins(&prepare(&eligible, &db).unwrap()), 0);
    let got = assert_parity("eligible", &eligible, &db).unwrap();
    assert_eq!(got.len(), 40);

    let stays = [
        (
            "non-unique right key",
            left_only(Plan::scan("t").join(Plan::scan("dim_dup"), on(), JoinKind::Left)),
            // Codes 1 and 2 are held two and three times: rows multiply.
            52,
        ),
        (
            "inner join",
            left_only(Plan::scan("t").join(Plan::scan("dim"), on(), JoinKind::Inner)),
            // NULL keys and the codes 6 and 7 match nothing: rows drop.
            25,
        ),
        (
            "right side not a bare scan",
            left_only(Plan::scan("t").join(
                Plan::scan("dim").select(Expr::col("code").ge(Expr::lit(0i64))),
                on(),
                JoinKind::Left,
            )),
            40,
        ),
        (
            "one live right column",
            Plan::scan("t")
                .join(Plan::scan("dim"), on(), JoinKind::Left)
                .project_cols(&["id", "label"]),
            40,
        ),
        (
            "keyed by another column",
            left_only(Plan::scan("t").join(Plan::scan("t"), vec![("k", "a")], JoinKind::Left)),
            // Keys 0..=4 match the eight rows holding them in `a`; the rest pad.
            180,
        ),
    ];
    for (label, plan, rows) in stays {
        assert_eq!(joins(&prepare(&plan, &db).unwrap()), 1, "{label}");
        let got = assert_parity(label, &plan, &db).unwrap();
        assert_eq!(got.len(), rows, "{label}");
    }
}

// ---------------------------------------------------------------------------
// (iii) Filtered windows reach by-reference consumers unchanged
// ---------------------------------------------------------------------------

/// An EAV table of `n` rows whose `void` flag is 1 where `voided(i)`.
fn eav(n: i64, voided: impl Fn(i64) -> bool) -> Table {
    let schema = Schema::new(
        "eav",
        vec![
            Column::required("entity", DataType::Int),
            Column::required("attribute", DataType::Text),
            Column::new("value", DataType::Text),
            Column::required("void", DataType::Int),
        ],
    )
    .unwrap();
    let rows = (0..n).map(|i| {
        vec![
            Value::Int(i / 3),
            Value::text(format!("a{}", i % 3)),
            Value::text((i % 7).to_string()),
            Value::Int(i64::from(voided(i))),
        ]
    });
    Table::from_rows(schema, rows).unwrap()
}

#[test]
fn filtered_windows_under_by_reference_consumers_match_the_oracle() {
    let dim = Schema::new(
        "dim",
        vec![
            Column::required("code", DataType::Int),
            Column::new("label", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["code"])
    .unwrap();
    let dim = Table::from_rows(
        dim,
        (0..50i64).map(|c| vec![Value::Int(c * 3), Value::text(format!("l{c}"))]),
    )
    .unwrap();

    let mut cut = eav(2_000, |_| false);
    cut.segments();
    // Deletes under a seal: the scan arrives as live runs at offsets > 0.
    cut.delete_where(|r| matches!(r[0], Value::Int(e) if e % 97 == 5 || (200..230).contains(&e)))
        .unwrap();
    let layout = cut.layout();
    assert!(layout.scan_parts > layout.chunks && layout.dead_rows_under_seals > 0);
    let fixtures = [
        ("all pass", eav(2_000, |_| false)),
        // CORI's recDeleted shape: seven in a hundred, scattered.
        ("scattered 7 %", eav(2_000, |i| (i * 37 + 11) % 100 < 7)),
        ("alternating", eav(2_000, |i| i % 2 == 1)),
        ("cut into live runs", cut),
    ];
    let live = || Plan::scan("eav").select(Expr::col("void").eq(Expr::lit(0i64)));
    let plans = [
        (
            "pivot",
            Plan::Pivot {
                input: Box::new(live()),
                keys: vec!["entity".into()],
                attr_col: "attribute".into(),
                val_col: "value".into(),
                attrs: (0..3).map(|a| (format!("a{a}"), DataType::Int)).collect(),
            },
        ),
        (
            "aggregate",
            live().aggregate(
                &["attribute"],
                vec![
                    Aggregate {
                        func: AggFunc::CountAll,
                        alias: "n".into(),
                    },
                    Aggregate {
                        func: AggFunc::Max("entity".into()),
                        alias: "hi".into(),
                    },
                ],
            ),
        ),
        (
            "join probe",
            live().join(Plan::scan("dim"), vec![("entity", "code")], JoinKind::Inner),
        ),
        (
            "join build",
            Plan::scan("dim").join(live(), vec![("code", "entity")], JoinKind::Left),
        ),
    ];
    for (shape, table) in fixtures {
        let mut db = Database::new("d");
        table.segments();
        db.create_table(table).unwrap();
        db.create_table(dim.clone()).unwrap();
        for (name, plan) in &plans {
            let want = plan.eval_materialized(&db).unwrap();
            assert!(!want.is_empty());
            for threads in [1, 2] {
                for morsel in [1, 2, 3, 5, 64, 1000, 4096] {
                    let exec = Executor::new()
                        .threads(threads)
                        .parallel_threshold(1)
                        .morsel_size(morsel);
                    let got = exec.execute(plan, &db).unwrap();
                    assert_eq!(
                        got, want,
                        "{name}, {shape}, {threads} threads, morsel {morsel}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (iv) Structure: what the clinical extracts run as
// ---------------------------------------------------------------------------

/// FNV-1a, for pinning a serialized artefact without quoting it.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn clinical_extracts_run_as_asked_for_and_compile_as_before() {
    let profiles = generate(&GeneratorConfig::default().with_seed(7).with_size(40));
    let contributors = build_all(&profiles).unwrap();
    let catalog = physical_catalog(&contributors);
    let bindings = bindings(&contributors);
    let studies = [
        study1_definition(&contributors),
        study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear),
    ];
    let mut digests = Vec::new();
    for study in &studies {
        let compiled = compile(study, &study_schema(), &registry(), &bindings).unwrap();
        for comp in &compiled.workflow.stages[0].components {
            let db = catalog.database(&comp.source_db).unwrap();
            let runs = prepare(&comp.plan, db).unwrap();
            // One row build per report, whatever the tower was.
            assert_eq!(projects(&runs), 1, "{}: {runs:?}", comp.name);
            assert!(matches!(runs, Plan::Project { .. }), "{}", comp.name);
            match comp.source_db.as_str() {
                // Nothing between the scan and the pivot builds a row.
                "endopro" => assert_eq!(count(&runs, &|p| matches!(p, Plan::Pivot { .. })), 1),
                // Neither study reads the alcohol label.
                "gastrolink" => {
                    assert_eq!(joins(&comp.plan), 1);
                    assert_eq!(joins(&runs), 0, "{runs:?}");
                }
                _ => {}
            }
        }
        digests.push((
            fnv(&serde_json::to_string(&compiled).unwrap()),
            fnv(&compiled.workflow.render()),
        ));
    }
    // What `compile` emits is Figure 6, the artefact: the rewrite is the
    // executor's business and never reaches it. Pinned at the commit
    // before the rewrite existed.
    assert_eq!(
        digests,
        [
            (0x587f_9f03_6e1e_97f7, 0x16fe_9cca_c7cf_8233),
            (0x19f3_42ca_fb0b_371d, 0xce45_3ae4_0622_81b1)
        ],
        "{digests:#x?}"
    );
}
