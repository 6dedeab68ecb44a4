//! What `Executor::execute` does before `compile` — a selection moved past
//! a join, dead-column pruning, projection fusion, the identity projection
//! under a pivot, the unread lookup join (`relational::optimize::prepare`)
//! — the key probe `compile` picks for a join against a keyed stored
//! table, and the copy-free filtered windows below it are invisible: on
//! both executor lanes the result, its schema and the first error are
//! those of the plan *as written* under the materializing interpreter.
//!
//! The suite goes where pruning could hide a fault: a narrow projection
//! over every pattern's decode tower, then a single fault planted in a
//! place nobody reads; and where a moved selection or a key probe could
//! change a row: unmatched rows, NULL and cross-type keys, edited tables.
//! Then random plans (section vii), generated so that every rule meets the
//! inputs it acts on and counted so that a rule that stops firing fails.

use guava::clinical::prelude::*;
use guava::prelude::*;
use guava::relational::optimize::prepare;
use guava_relational::value::DataType;
use proptest::TestRng;

mod common;
use common::lanes;

/// `plan` evaluates on every executor lane exactly as the interpreter
/// evaluates it as written: the same table (schema included) or the same
/// error. Returns what that was.
fn assert_parity(label: &str, plan: &Plan, db: &Database) -> RelResult<Table> {
    let lanes = lanes()
        .into_iter()
        .map(|(lane, exec)| (lane.to_owned(), exec));
    parity_on(label, plan, db, lanes)
}

/// [`assert_parity`] on one and two threads at morsel sizes from one row
/// up, so probe windows split anywhere.
fn assert_parity_at_morsels(label: &str, plan: &Plan, db: &Database) -> RelResult<Table> {
    let sweep = [1, 2].into_iter().flat_map(|threads| {
        [1, 3, 64, 4096].map(move |morsel| {
            let exec = Executor::new()
                .threads(threads)
                .parallel_threshold(1)
                .morsel_size(morsel);
            (format!("{threads} threads, morsel {morsel}"), exec)
        })
    });
    parity_on(label, plan, db, sweep)
}

fn parity_on(
    label: &str,
    plan: &Plan,
    db: &Database,
    lanes: impl IntoIterator<Item = (String, Executor)>,
) -> RelResult<Table> {
    let want = plan.eval_materialized(db);
    for (lane, exec) in lanes {
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

// ---------------------------------------------------------------------------
// (v) A selection over a join moves only what cannot fail
// ---------------------------------------------------------------------------

/// `l` (40 reports) and `r`, keyed by `code` 0..=5. `l.k` is NULL on every
/// ninth row and 6 or 7 — matching nothing — on others; `l.x` is zero
/// exactly on rows whose `k` is 7. `s` and `flag` exist on both sides, so
/// the join names the right ones `r.s` and `r.flag`.
fn join_db() -> Database {
    let l = Schema::new(
        "l",
        vec![
            Column::required("id", DataType::Int),
            Column::new("x", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("s", DataType::Text),
            Column::new("flag", DataType::Bool),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let rows = (0..40i64).map(|i| {
        let zero = i % 10 == 3;
        vec![
            Value::Int(i),
            Value::Int(if zero { 0 } else { i % 4 + 1 }),
            match i {
                _ if zero => Value::Int(7),
                _ if i % 9 == 0 => Value::Null,
                _ => Value::Int(i % 8),
            },
            Value::text(format!("s{}", i % 3)),
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Bool(i % 2 == 0)
            },
        ]
    });
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(l, rows).unwrap()).unwrap();
    db.create_table(r_table((0..6).map(|c| r_row(c, "label"))))
        .unwrap();
    db
}

fn r_table(rows: impl IntoIterator<Item = Row>) -> Table {
    let r = Schema::new(
        "r",
        vec![
            Column::required("code", DataType::Int),
            Column::new("label", DataType::Text),
            Column::new("s", DataType::Text),
            Column::new("flag", DataType::Bool),
        ],
    )
    .unwrap()
    .with_primary_key(&["code"])
    .unwrap();
    Table::from_rows(r, rows).unwrap()
}

fn r_row(code: i64, label: &str) -> Row {
    vec![
        Value::Int(code),
        Value::text(format!("{label} {code}")),
        Value::text(format!("s{}", code % 3)),
        Value::Bool(code % 2 == 1),
    ]
}

/// Where `prepare` leaves the selections around the one join of `plan`:
/// the predicate still above it, and those on its left and right inputs.
fn selections(plan: &Plan, db: &Database) -> [Option<Expr>; 3] {
    let prepared = prepare(plan, db).unwrap();
    let predicate = |p: &Plan| match p {
        Plan::Select { predicate, .. } => Some(predicate.clone()),
        _ => None,
    };
    let join = match &prepared {
        Plan::Select { input, .. } => &**input,
        other => other,
    };
    let Plan::Join { left, right, .. } = join else {
        panic!("{prepared:?}")
    };
    [predicate(&prepared), predicate(left), predicate(right)]
}

#[test]
fn selection_past_join_moves_only_what_cannot_fail() {
    let db = join_db();
    let join = |kind| Plan::scan("l").join(Plan::scan("r"), vec![("k", "code")], kind);
    let eq = |c: &str, v: &str| Expr::col(c).eq(Expr::lit(v));
    let mixed = || Expr::col("s").eq(Expr::col("r.s"));
    // 100 / x divides by zero on the rows whose key matches nothing.
    let div = || Expr::lit(100i64).div(Expr::col("x")).eq(Expr::lit(25.0));
    let flag = || Expr::col("flag").eq(Expr::lit(false));
    use JoinKind::{Inner, Left};
    let cases = [
        (
            "left-owned, inner",
            join(Inner).select(eq("s", "s1")),
            [None, Some(eq("s", "s1")), None],
        ),
        (
            "left-owned, left",
            join(Left).select(eq("s", "s1")),
            [None, Some(eq("s", "s1")), None],
        ),
        (
            "right-owned, inner",
            join(Inner).select(eq("label", "label 3")),
            [None, None, Some(eq("label", "label 3"))],
        ),
        (
            "right-owned, left: it reads padded rows",
            join(Left).select(eq("label", "label 3")),
            [Some(eq("label", "label 3")), None, None],
        ),
        (
            "collided right column",
            join(Inner).select(eq("r.s", "s2")),
            [None, None, Some(eq("s", "s2"))],
        ),
        (
            "mixed conjunct",
            join(Inner).select(mixed()),
            [Some(mixed()), None, None],
        ),
        (
            "each conjunct to its owner, the rest in order",
            join(Inner).select(
                eq("s", "s2")
                    .and(mixed())
                    .and(eq("label", "label 5"))
                    .and(flag()),
            ),
            [
                Some(mixed()),
                Some(eq("s", "s2").and(flag())),
                Some(eq("label", "label 5")),
            ],
        ),
        (
            "fallible conjunct over unmatched zeros",
            join(Inner).select(div()),
            [Some(div()), None, None],
        ),
        (
            "an infallible conjunct beside a fallible one",
            join(Inner).select(flag().and(div())),
            [Some(flag().and(div())), None, None],
        ),
    ];
    for (label, plan, want) in cases {
        assert_eq!(selections(&plan, &db), want, "{label}");
        let got = assert_parity_at_morsels(label, &plan, &db).unwrap();
        assert!(!got.is_empty(), "{label}");
    }
    // Through nested joins, each conjunct down to the input that owns it;
    // a selection already under the outer one moves on its own.
    let db = key_db();
    let three = |inner: Plan| inner.join(Plan::scan("m"), vec![("x", "p"), ("s", "q")], Inner);
    let nested = three(join(Inner)).select(
        eq("s", "s1")
            .and(eq("label", "label 2"))
            .and(Expr::col("w").ne(Expr::lit(11i64))),
    );
    let filtered = |table: &str, predicate: Expr| Plan::scan(table).select(predicate);
    assert_eq!(
        prepare(&nested, &db).unwrap(),
        filtered("l", eq("s", "s1"))
            .join(
                filtered("r", eq("label", "label 2")),
                vec![("k", "code")],
                Inner
            )
            .join(
                filtered("m", Expr::col("w").ne(Expr::lit(11i64))),
                vec![("x", "p"), ("s", "q")],
                Inner
            )
    );
    let stacked = three(join(Inner).select(eq("label", "label 2"))).select(eq("s", "s1"));
    for (label, plan) in [("nested joins", nested), ("stacked selections", stacked)] {
        let got = assert_parity_at_morsels(label, &plan, &db).unwrap();
        assert!(!got.is_empty(), "{label}");
    }

    // Moved, the division would meet the zeros the join drops.
    let moved = Plan::scan("l")
        .select(div())
        .join(Plan::scan("r"), vec![("k", "code")], Inner);
    assert_eq!(
        moved.eval_materialized(&db).unwrap_err(),
        RelError::Eval("division by zero".into())
    );
}

// ---------------------------------------------------------------------------
// (vi) A join against a keyed stored table probes that table's key
// ---------------------------------------------------------------------------

/// The `explain` line of the one join `Executor::execute` runs for `plan`.
fn join_line(plan: &Plan, db: &Database) -> String {
    let runs = prepare(plan, db).unwrap_or_else(|| plan.clone());
    let text = explain_plan(&runs, db, false).unwrap();
    let mut joins = text.lines().filter(|l| l.contains("Join"));
    let line = joins.next().unwrap().trim().to_owned();
    assert!(joins.next().is_none(), "{text}");
    line
}

/// Keys the primary-key index must match exactly as the hash join does:
/// a two-column key probed in the other order, FLOAT keys probed by INT
/// and FLOAT values, NaN and −0.0.
fn key_db() -> Database {
    let mut db = join_db();
    let m = Schema::new(
        "m",
        vec![
            Column::required("p", DataType::Int),
            Column::required("q", DataType::Text),
            Column::new("w", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["p", "q"])
    .unwrap();
    let m_rows = (0..4i64).flat_map(|p| {
        (0..3i64).map(move |q| {
            vec![
                Value::Int(p),
                Value::text(format!("s{q}")),
                Value::Int(p * 10 + q),
            ]
        })
    });
    db.create_table(Table::from_rows(m, m_rows).unwrap())
        .unwrap();
    let fk = Schema::new(
        "fk",
        vec![
            Column::required("v", DataType::Float),
            Column::new("name", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["v"])
    .unwrap();
    let keys = [0.0, -0.0, 1.0, 2.0, 2.5, f64::NAN];
    let fk_rows = keys
        .iter()
        .map(|&v| vec![Value::Float(v), Value::text(format!("{v:?}"))]);
    db.create_table(Table::from_rows(fk, fk_rows).unwrap())
        .unwrap();
    let probe = Schema::new(
        "probe",
        vec![
            Column::required("id", DataType::Int),
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
        ],
    )
    .unwrap();
    let ints = [Some(0), Some(1), Some(2), Some(3), None, Some(2), Some(-1)];
    let floats = [
        Some(0.0),
        Some(-0.0),
        Some(f64::NAN),
        Some(2.5),
        Some(2.0),
        None,
        Some(7.0),
    ];
    let probe_rows = ints
        .iter()
        .zip(&floats)
        .enumerate()
        .map(|(id, (i, f))| vec![Value::Int(id as i64), Value::from(*i), Value::from(*f)]);
    db.create_table(Table::from_rows(probe, probe_rows).unwrap())
        .unwrap();
    db
}

#[test]
fn a_join_against_a_keyed_table_probes_its_key() {
    let mut db = key_db();
    let probed = |table: &str| format!("[probe: key of {table}]");
    let hashed = || "[build: right]".to_owned();
    let l_r = |kind| Plan::scan("l").join(Plan::scan("r"), vec![("k", "code")], kind);
    let l_m = |kind, on: Vec<(&str, &str)>| Plan::scan("l").join(Plan::scan("m"), on, kind);
    let probe_fk = |col, kind| Plan::scan("probe").join(Plan::scan("fk"), vec![(col, "v")], kind);
    for kind in [JoinKind::Inner, JoinKind::Left] {
        let cases = [
            // NULL keys, and keys the table does not hold.
            ("key column", l_r(kind), probed("r")),
            (
                "two-column key, listed in the other order",
                l_m(kind, vec![("s", "q"), ("x", "p")]),
                probed("m"),
            ),
            ("INT probes a FLOAT key", probe_fk("i", kind), probed("fk")),
            ("FLOAT probes: NaN, -0.0", probe_fk("f", kind), probed("fk")),
            ("part of the key", l_m(kind, vec![("x", "p")]), hashed()),
            (
                "more than the key",
                Plan::scan("l").join(Plan::scan("r"), vec![("k", "code"), ("s", "s")], kind),
                hashed(),
            ),
            (
                // Two conditions on one key column: both must hold.
                "the key twice",
                Plan::scan("l").join(Plan::scan("r"), vec![("k", "code"), ("id", "code")], kind),
                hashed(),
            ),
            (
                "a filtered right side",
                Plan::scan("l").join(
                    Plan::scan("r").select(Expr::col("code").ge(Expr::lit(1i64))),
                    vec![("k", "code")],
                    kind,
                ),
                hashed(),
            ),
        ];
        for (label, plan, side) in cases {
            let label = format!("{label}, {kind:?}");
            assert!(join_line(&plan, &db).ends_with(&side), "{label}");
            let got = assert_parity_at_morsels(&label, &plan, &db).unwrap();
            assert!(!got.is_empty(), "{label}");
        }

        // A probe pipeline that fails fails as the oracle does.
        let fallible = Plan::scan("l")
            .project(vec![
                ("k", Expr::col("k")),
                ("q", Expr::lit(100i64).div(Expr::col("x"))),
            ])
            .join(Plan::scan("r"), vec![("k", "code")], kind);
        assert!(join_line(&fallible, &db).ends_with(&probed("r")));
        let err = assert_parity_at_morsels("fallible probe side", &fallible, &db).unwrap_err();
        assert_eq!(err, RelError::Eval("division by zero".into()));
    }

    // Edited key tables: deletes under a seal, keys deleted and inserted
    // again (a tombstone, then an overlay entry), and an empty table.
    let r = db.table("r").unwrap().clone();
    r.segments();
    let patched = r
        .apply_patch(
            &Patch::new(
                vec![1, 3],
                vec![(6, vec![r_row(3, "again"), r_row(7, "new")])],
            )
            .unwrap(),
        )
        .unwrap();
    let deleted = patched.row_at(0).unwrap().clone();
    let mut edited = patched
        .apply_delta(&TableDelta {
            pre_len: patched.len(),
            deleted: vec![(0, deleted)],
            inserted: vec![r_row(0, "back"), r_row(1, "back")],
        })
        .unwrap();
    edited.delete_where(|row| row[0] == Value::Int(4)).unwrap();
    edited.insert(r_row(4, "last")).unwrap();
    for (label, table, rows) in [
        ("edited key table", edited, [30, 40]),
        ("empty key table", r_table([]), [0, 40]),
    ] {
        db.put_table(table);
        for (kind, rows) in [JoinKind::Inner, JoinKind::Left].into_iter().zip(rows) {
            let plan = l_r(kind);
            let label = format!("{label}, {kind:?}");
            assert!(join_line(&plan, &db).ends_with(&probed("r")), "{label}");
            let got = assert_parity_at_morsels(&label, &plan, &db).unwrap();
            assert_eq!(got.len(), rows, "{label}");
        }
    }
}

// ---------------------------------------------------------------------------
// (vii) Random plans, biased so that every rule fires
// ---------------------------------------------------------------------------
//
// The contract, stated once: for every generated plan the interpreter
// gives `prepare(plan)` the table, the schema and the first error it gives
// `plan` — multi-fault plans included — and the executor lanes are held to
// the interpreter over `plan` as `tests/algebra_properties.rs` holds them
// (the same table on success, failure on both sides, one answer across
// lanes). Four generators, one per shape a rule meets: decode towers
// (liveness, fusion), a selection over a join, a lookup join, and a pivot
// over an identity projection. The suite counts what fired, from the two
// plans' structure, and fails if a rule never does.

/// Cases per run; `PROPTEST_RNG_SEED` picks the stream.
const CASES: u64 = 256;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Ty {
    Int,
    Bool,
    Text,
    Float,
}

/// Output columns of a generated subplan, with their types.
type Cols = Vec<(String, Ty)>;

fn one_in(rng: &mut TestRng, n: usize) -> bool {
    rng.below(n) == 0
}

fn pick<T: Clone>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len())].clone()
}

fn literal(rng: &mut TestRng, ty: Ty) -> Expr {
    match ty {
        Ty::Int => Expr::lit(rng.below(8) as i64),
        Ty::Bool => Expr::lit(one_in(rng, 2)),
        Ty::Text => Expr::lit(format!("s{}", rng.below(3))),
        Ty::Float => Expr::lit(rng.below(40) as f64),
    }
}

/// A BOOL conjunct `Expr::infallible` accepts: `=`, `<>` or a NULL test.
fn infallible_test(rng: &mut TestRng, (name, ty): &(String, Ty)) -> Expr {
    let c = Expr::col(name);
    match rng.below(4) {
        0 => c.is_null(),
        1 => c.is_not_null(),
        2 => c.ne(literal(rng, *ty)),
        _ => c.eq(literal(rng, *ty)),
    }
}

/// `t` with `a` zero on some rows, whose key `k` is then one `r` never
/// holds — so a division by `a` fails only on rows an inner join drops;
/// `r` keyed by `code`, `r_dup` not keyed, and an EAV table with a NOT
/// NULL key and an occasional malformed INT value.
fn random_db(rng: &mut TestRng) -> Database {
    let t = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Bool),
            Column::new("s", DataType::Text),
            Column::new("k", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let maybe = |rng: &mut TestRng, v: Value| if one_in(rng, 4) { Value::Null } else { v };
    let t_rows: Vec<Row> = (0..rng.below(24) as i64)
        .map(|id| {
            let [a, k, s] = [5, 8, 3].map(|n| rng.below(n) as i64);
            let a = maybe(rng, Value::Int(a));
            let k = if a == Value::Int(0) {
                Value::Int(6 + k % 2)
            } else {
                maybe(rng, Value::Int(k))
            };
            let b = one_in(rng, 2);
            let b = maybe(rng, Value::Bool(b));
            let s = maybe(rng, Value::text(format!("s{s}")));
            vec![Value::Int(id), a, b, s, k]
        })
        .collect();
    let r = Schema::new(
        "r",
        vec![
            Column::required("code", DataType::Int),
            Column::new("label", DataType::Text),
            Column::new("s", DataType::Text),
            Column::new("b", DataType::Bool),
        ],
    )
    .unwrap()
    .with_primary_key(&["code"])
    .unwrap();
    let r_rows: Vec<Row> = (0..6i64)
        .filter(|_| !one_in(rng, 4))
        .map(|code| {
            vec![
                Value::Int(code),
                Value::text(format!("label {code}")),
                Value::text(format!("s{}", code % 3)),
                Value::Bool(code % 2 == 1),
            ]
        })
        .collect();
    let r_dup = Schema::new(
        "r_dup",
        vec![
            Column::required("code", DataType::Int),
            Column::new("label", DataType::Text),
        ],
    )
    .unwrap();
    let dup_rows = (0..6).map(|i| vec![Value::Int(i / 2), Value::text(format!("dup {i}"))]);
    let eav = Schema::new(
        "eav",
        vec![
            Column::required("entity", DataType::Int),
            Column::required("attribute", DataType::Text),
            Column::new("value", DataType::Text),
            Column::required("void", DataType::Int),
        ],
    )
    .unwrap();
    let mut eav_rows = Vec::new();
    for entity in 0..rng.below(8) as i64 {
        for attr in 0..3 {
            if one_in(rng, 3) {
                continue;
            }
            let value = match rng.below(40) {
                0 => Value::text("many"),
                1..=4 => Value::Null,
                n => Value::text((n % 9).to_string()),
            };
            let void = Value::Int(i64::from(one_in(rng, 5)));
            eav_rows.push(vec![
                Value::Int(entity),
                Value::text(format!("a{attr}")),
                value,
                void,
            ]);
        }
    }
    let mut db = Database::new("d");
    for table in [
        Table::from_rows(t, t_rows),
        Table::from_rows(r, r_rows),
        Table::from_rows(r_dup, dup_rows),
        Table::from_rows(eav, eav_rows),
    ] {
        db.create_table(table.unwrap()).unwrap();
    }
    db
}

/// The names in `cols` of type `ty`.
fn of_type(cols: &Cols, ty: Ty) -> Vec<String> {
    cols.iter()
        .filter(|(_, t)| *t == ty)
        .map(|(n, _)| n.clone())
        .collect()
}

fn t_cols() -> Cols {
    [
        ("id", Ty::Int),
        ("a", Ty::Int),
        ("b", Ty::Bool),
        ("s", Ty::Text),
        ("k", Ty::Int),
    ]
    .map(|(n, ty)| (n.to_owned(), ty))
    .to_vec()
}

/// `π ∘ ρ ∘ σ ∘ π` over `input`: the inner projection decodes each column
/// as a pattern would — as itself, `=`, `IS NULL` or a `CASE` — beside an
/// occasional dead `100 / a` and, rarely, an unbound `ghost`; the
/// selection is infallible, an ordering comparison, a division or a test
/// of `ghost`; the rename renames a column, the relation or both; the
/// outer projection reads a subset.
fn tower(rng: &mut TestRng, input: Plan, cols: &Cols) -> (Plan, Cols) {
    let mut inner: Vec<(String, Expr, Ty)> = Vec::new();
    fn add(inner: &mut Vec<(String, Expr, Ty)>, name: String, e: Expr, ty: Ty) {
        if !inner.iter().any(|(n, ..)| *n == name) {
            inner.push((name, e, ty));
        }
    }
    for (c, ty) in cols {
        let col = Expr::col(c);
        match rng.below(8) {
            0 => {}
            1 => add(
                &mut inner,
                format!("{c}_eq"),
                col.eq(literal(rng, *ty)),
                Ty::Bool,
            ),
            2 => add(&mut inner, format!("{c}_null"), col.is_null(), Ty::Bool),
            3 => {
                // The CASE shapes BoolEncode and NullSentinel decode to.
                let (decoded, ty) = match ty {
                    Ty::Bool => (
                        Expr::Case {
                            arms: vec![
                                (col.clone().eq(Expr::lit(true)), Expr::lit("Y")),
                                (col.eq(Expr::lit(false)), Expr::lit("N")),
                            ],
                            default: Box::new(Expr::Lit(Value::Null)),
                        },
                        Ty::Text,
                    ),
                    _ => (
                        Expr::Case {
                            arms: vec![(col.clone().is_null(), literal(rng, *ty))],
                            default: Box::new(col),
                        },
                        *ty,
                    ),
                };
                add(&mut inner, format!("{c}_dec"), decoded, ty);
            }
            _ => add(&mut inner, c.clone(), col, *ty),
        }
    }
    let ints = of_type(cols, Ty::Int);
    if !ints.is_empty() && one_in(rng, 3) {
        let c = pick(rng, &ints);
        let inv = Expr::lit(100i64).div(Expr::col(&c));
        add(&mut inner, format!("{c}_inv"), inv, Ty::Float);
    }
    if one_in(rng, 16) {
        add(&mut inner, "g".to_owned(), Expr::col("ghost"), Ty::Int);
    }
    if inner.is_empty() {
        let (c, ty) = cols[0].clone();
        add(&mut inner, c.clone(), Expr::col(&c), ty);
    }
    let mut out: Cols = inner.iter().map(|(n, _, ty)| (n.clone(), *ty)).collect();
    let mut plan = input.project(inner.into_iter().map(|(n, e, _)| (n, e)).collect());

    let ints = of_type(&out, Ty::Int);
    let predicate = match rng.below(9) {
        0 | 1 => None,
        2..=5 => {
            let c = pick(rng, &out);
            Some(infallible_test(rng, &c))
        }
        6 if !ints.is_empty() => Some(Expr::col(pick(rng, &ints)).ge(literal(rng, Ty::Int))),
        7 if !ints.is_empty() => {
            let c = pick(rng, &ints);
            Some(Expr::lit(100i64).div(Expr::col(&c)).gt(Expr::lit(10i64)))
        }
        _ => Some(Expr::col("ghost").is_null()),
    };
    if let Some(p) = predicate {
        plan = plan.select(p);
    }

    let mut renamed = Vec::new();
    if one_in(rng, 2) {
        let i = rng.below(out.len());
        let to = format!("{}_r", out[i].0);
        if !out.iter().any(|(n, _)| *n == to) {
            renamed.push((out[i].0.clone(), to.clone()));
            out[i].0 = to;
        }
    }
    let table = one_in(rng, 3).then(|| "phys".to_owned());
    if table.is_some() || !renamed.is_empty() {
        plan = Plan::Rename {
            input: Box::new(plan),
            table,
            columns: renamed,
        };
    }

    let mut outer: Vec<(String, Expr)> = Vec::new();
    let mut kept: Cols = Vec::new();
    for (c, ty) in &out {
        if one_in(rng, 2) {
            outer.push((c.clone(), Expr::col(c)));
            kept.push((c.clone(), *ty));
        }
    }
    if kept.is_empty() || one_in(rng, 4) {
        let (c, ty) = pick(rng, &out);
        let alias = format!("{c}_o");
        if !kept.iter().any(|(n, _)| *n == alias) {
            let (e, ty) = if one_in(rng, 2) {
                (infallible_test(rng, &(c, ty)), Ty::Bool)
            } else if ty == Ty::Int {
                (Expr::col(&c).mul(Expr::lit(2i64)), Ty::Int)
            } else {
                (Expr::col(&c), ty)
            };
            outer.push((alias.clone(), e));
            kept.push((alias, ty));
        }
    }
    (plan.project(outer), kept)
}

/// One or two towers over `t`, under a consumer that reads all, some or
/// none of their columns by name.
fn towers(rng: &mut TestRng) -> Plan {
    let (mut plan, mut cols) = tower(rng, Plan::scan("t"), &t_cols());
    if one_in(rng, 3) {
        (plan, cols) = tower(rng, plan, &cols);
    }
    match rng.below(4) {
        0 => plan.sort_by(&[cols[0].0.as_str()]),
        1 => plan.limit(rng.below(10)),
        _ => plan,
    }
}

/// `σ` over a join of `t` with `r` (collided names `r.s`, `r.b`) or with
/// the keyless `r_dup`: one to three infallible conjuncts on the left,
/// right or both sides, sometimes beside one `>=` — a plain comparison or
/// a division by `a`, which is zero only on rows the inner join drops.
fn select_over_join(rng: &mut TestRng) -> Plan {
    let kind = if one_in(rng, 2) {
        JoinKind::Inner
    } else {
        JoinKind::Left
    };
    let left = if one_in(rng, 4) {
        Plan::scan("t").project_cols(&["id", "a", "b", "s", "k"])
    } else {
        Plan::scan("t")
    };
    let (right, right_cols) = if one_in(rng, 4) {
        ("r_dup", vec![("code", Ty::Int), ("label", Ty::Text)])
    } else {
        let cols = vec![
            ("code", Ty::Int),
            ("label", Ty::Text),
            ("r.s", Ty::Text),
            ("r.b", Ty::Bool),
        ];
        ("r", cols)
    };
    let cols: Cols = t_cols()
        .into_iter()
        .chain(right_cols.into_iter().map(|(n, ty)| (n.to_owned(), ty)))
        .collect();
    let mut conjuncts: Vec<Expr> = (0..1 + rng.below(3))
        .map(|_| {
            if right == "r" && one_in(rng, 5) {
                Expr::col("s").eq(Expr::col("r.s"))
            } else {
                let c = pick(rng, &cols);
                infallible_test(rng, &c)
            }
        })
        .collect();
    if one_in(rng, 2) {
        let ordered = if one_in(rng, 2) {
            Expr::lit(100i64).div(Expr::col("a")).ge(Expr::lit(20i64))
        } else {
            Expr::col(pick(rng, &["a", "k", "code"])).ge(literal(rng, Ty::Int))
        };
        let at = rng.below(conjuncts.len() + 1);
        conjuncts.insert(at, ordered);
    }
    let predicate = conjuncts.into_iter().reduce(Expr::and).unwrap();
    let plan = left
        .join(Plan::scan(right), vec![("k", "code")], kind)
        .select(predicate);
    if one_in(rng, 3) {
        plan.project_cols(&["id", "label"])
    } else {
        plan
    }
}

/// A lookup of `t.k` in `r` (keyed), `r_dup` (not keyed) or a table that
/// is gone, `Left` or `Inner`, with the label read or not.
fn lookup_join(rng: &mut TestRng) -> Plan {
    let kind = if one_in(rng, 4) {
        JoinKind::Inner
    } else {
        JoinKind::Left
    };
    let right = match rng.below(8) {
        0 => "r_dup",
        1 => "gone",
        _ => "r",
    };
    let left = if one_in(rng, 3) {
        Plan::scan("t").project(vec![
            ("id", Expr::col("id")),
            ("k", Expr::col("k")),
            ("s_null", Expr::col("s").is_null()),
        ])
    } else {
        Plan::scan("t")
    };
    let read: &[&str] = match rng.below(4) {
        0 => &["id", "label"],
        1 => &["k"],
        _ => &["id", "k"],
    };
    left.join(Plan::scan(right), vec![("k", "code")], kind)
        .project_cols(read)
}

/// A pivot of the EAV table over a projection that is the identity once
/// liveness has run — through an audit filter or not — under the plan's
/// root, a sort (both observe the key's nullability) or a projection.
fn pivot(rng: &mut TestRng) -> Plan {
    let mut input = Plan::scan("eav");
    if one_in(rng, 2) {
        input = input.select(Expr::col("void").eq(Expr::lit(0i64)));
    }
    let mut columns: Vec<(&str, Expr)> = ["entity", "attribute", "value"]
        .map(|c| (c, Expr::col(c)))
        .to_vec();
    match rng.below(3) {
        0 => columns.push(("void", Expr::col("void"))),
        1 => columns.push(("blank", Expr::col("value").is_null())),
        _ => {}
    }
    let plan = Plan::Pivot {
        input: Box::new(input.project(columns)),
        keys: vec!["entity".into()],
        attr_col: "attribute".into(),
        val_col: "value".into(),
        attrs: vec![
            ("a0".into(), DataType::Int),
            ("a1".into(), DataType::Int),
            ("a2".into(), DataType::Text),
        ],
    };
    match rng.below(4) {
        0 => plan,
        1 => plan.sort_by(&["entity"]),
        2 => plan.project_cols(&["entity", "a2"]),
        _ => plan.project_cols(&["a1"]),
    }
}

fn random_plan(rng: &mut TestRng) -> Plan {
    match rng.below(4) {
        0 => towers(rng),
        1 => select_over_join(rng),
        2 => lookup_join(rng),
        _ => pivot(rng),
    }
}

/// The contract above for one plan; returns what `prepare` made of it
/// where the plan binds.
fn random_parity(label: &str, plan: &Plan, db: &Database) -> Option<Plan> {
    let want = plan.eval_materialized(db);
    let prepared = prepare(plan, db);
    if let Some(prepared) = &prepared {
        match (prepared.eval_materialized(db), &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.schema(), want.schema(), "{label}: prepared schema");
                assert_eq!(&got, want, "{label}: prepared rows");
            }
            (Err(got), Err(want)) => assert_eq!(&got, want, "{label}: prepared error"),
            (got, want) => panic!("{label}: prepared {got:?}, as written {want:?}"),
        }
    }
    let mut answers = lanes().into_iter().map(|(lane, exec)| {
        let got = exec.execute(plan, db);
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.schema(), want.schema(), "{label}, {lane}: schema");
                assert_eq!(got, want, "{label}, {lane}: rows");
            }
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{label}, {lane}: executor {got:?}, oracle {want:?}"),
        }
        got
    });
    let first = answers.next().unwrap();
    for other in answers {
        assert_eq!(other, first, "{label}: the lanes disagree");
    }
    prepared
}

/// The output names of every projection in `plan`.
fn projections(plan: &Plan, out: &mut Vec<Vec<String>>) {
    if let Plan::Project { columns, .. } = plan {
        out.push(columns.iter().map(|(alias, _)| alias.clone()).collect());
    }
    for child in plan.children() {
        projections(child, out);
    }
}

/// `prepare`'s rules, in the order `marks` reads them.
const RULES: [&str; 5] = [
    "selection past join",
    "liveness",
    "fusion",
    "identity projection under a pivot",
    "unread lookup join",
];

/// Where each rule left its mark on `prepared`, read from its structure and
/// that of `written`: a join input gained a selection; a projection lost
/// outputs (its name list is in no projection as written); more
/// projections went than the pivot rule accounts for; a pivot lost the
/// projection under it; a join went.
fn marks(written: &Plan, prepared: &Plan) -> [bool; 5] {
    let filtered_join = |p: &Plan| match p {
        Plan::Join { left, right, .. } => {
            matches!(**left, Plan::Select { .. }) || matches!(**right, Plan::Select { .. })
        }
        _ => false,
    };
    let pivot_over_project = |p: &Plan| match p {
        Plan::Pivot { input, .. } => matches!(**input, Plan::Project { .. }),
        _ => false,
    };
    let under_pivot =
        count(written, &pivot_over_project).saturating_sub(count(prepared, &pivot_over_project));
    let (mut before, mut after) = (Vec::new(), Vec::new());
    projections(written, &mut before);
    projections(prepared, &mut after);
    let narrowed = after.iter().any(|names| {
        let Some(i) = before.iter().position(|b| b == names) else {
            return true;
        };
        before.swap_remove(i);
        false
    });
    [
        count(prepared, &filtered_join) > count(written, &filtered_join),
        narrowed,
        projects(written).saturating_sub(projects(prepared)) > under_pivot,
        under_pivot > 0,
        joins(prepared) < joins(written),
    ]
}

#[test]
fn prepare_is_invisible_on_random_plans() {
    let (mut binding, mut changed, mut fired) = (0, 0, [0usize; 5]);
    for case in 0..CASES {
        let mut rng =
            TestRng::for_case("decode_parity::prepare_is_invisible_on_random_plans", case);
        let db = random_db(&mut rng);
        let plan = random_plan(&mut rng);
        let Some(prepared) = random_parity(&format!("case {case}: {plan:?}"), &plan, &db) else {
            continue;
        };
        binding += 1;
        if prepared != plan {
            changed += 1;
            for (n, marked) in fired.iter_mut().zip(marks(&plan, &prepared)) {
                *n += usize::from(marked);
            }
        }
    }
    println!("prepare changed {changed} of {binding} binding plans in {CASES} cases");
    for (rule, n) in RULES.iter().zip(fired) {
        println!("  {rule}: {n}");
    }
    assert!(
        3 * changed >= binding,
        "a third of the binding plans must change"
    );
    for (rule, n) in RULES.iter().zip(fired) {
        assert!(n > 0, "{rule} never fired in {CASES} cases");
    }
}
