//! Integration suite for the warehouse service layer (DESIGN.md §16):
//! generational snapshot isolation, the Engine/Session API, and live
//! subscriptions.
//!
//! The correctness bars:
//!
//! * **Snapshot isolation** — a session pinned to generation `g` sees
//!   byte-identical query results however many generations the engine
//!   installs concurrently; readers never block refresh and refresh
//!   never invalidates readers.
//! * **Delta-push byte-identity** — applying the pushed delta stream
//!   client-side is byte-identical to re-running the subscribed plan on
//!   the post-refresh snapshot, for random plans under random mutation
//!   batches, across all executor lanes — including error rounds, where
//!   the pushed error and the re-query error must agree and the next
//!   round must recover byte-identically (§15 poison/re-init carried
//!   over the wire).
//! * **Atomicity** — a rejected refresh (stale delta, schema violation)
//!   installs nothing and pushes nothing.

use guava::prelude::*;
use guava::warehouse::service::{Engine, EngineConfig, ServiceError};
use guava_relational::algebra::{AggFunc, Aggregate};
use guava_relational::value::DataType;
use proptest::prelude::*;

mod common;
use common::lanes;

// ---------------------------------------------------------------------------
// Fixture: the CORI Procedure warehouse from the refresh suites.
// ---------------------------------------------------------------------------

fn setup() -> (GTree, StudySchema) {
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
    (tree, schema)
}

/// Entity classifier (surgery-only guard, so updates can move instances
/// in and out of the study) plus two domain classifiers.
fn classifiers() -> (BoundClassifier, BoundClassifier, BoundClassifier) {
    let (tree, schema) = setup();
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

fn naive_table(rows: Vec<Row>) -> Table {
    let form = FormDef::new(
        "Procedure",
        "Procedure",
        vec![
            Control::numeric("PacksPerDay", "Packs per day", DataType::Int),
            Control::check_box("SurgeryPerformed", "Surgery?"),
        ],
    );
    Table::from_rows(form.naive_schema(), rows).unwrap()
}

fn seed_rows() -> Vec<Row> {
    vec![
        vec![1.into(), 0.into(), true.into()],
        vec![2.into(), 1.into(), true.into()],
        vec![3.into(), 5.into(), false.into()],
        vec![4.into(), 9.into(), true.into()],
    ]
}

fn build_engine(rows: Vec<Row>, exec: &Executor) -> Engine {
    let (ec, c_class, c_packs) = classifiers();
    Engine::build(
        "cori",
        naive_table(rows),
        &ec,
        &[&c_class, &c_packs],
        EngineConfig::default().with_executor(*exec),
    )
    .unwrap()
}

/// The study table name the Full policy materializes for the fixture.
const STUDY: &str = "cori__Surgery_Only";

// ---------------------------------------------------------------------------
// Snapshot isolation under concurrency
// ---------------------------------------------------------------------------

/// A reader session pinned before a refresh must see byte-identical
/// results while the engine installs two successive generations from
/// another thread — and an auto-advancing session must land on the
/// final generation. Exercised per lane because each lane routes the
/// reads through different kernels over the shared snapshot.
#[test]
fn pinned_reader_is_isolated_across_two_generations() {
    for (lane, exec) in lanes() {
        let engine = build_engine(seed_rows(), &exec);
        let plan = Plan::scan("Procedure").join(
            Plan::scan(STUDY).rename_columns(vec![("instance_id", "iid")]),
            vec![("instance_id", "iid")],
            JoinKind::Inner,
        );
        let mut pinned = engine.pinned_session();
        let oracle = pinned.query(&plan).unwrap();

        std::thread::scope(|s| {
            let writer = {
                let engine = engine.clone();
                s.spawn(move || {
                    engine
                        .update(|cat| {
                            cat.insert("cori", "Procedure", vec![5.into(), 2.into(), true.into()])
                        })
                        .unwrap();
                    engine
                        .update(|cat| {
                            cat.update_where(
                                "cori",
                                "Procedure",
                                |r| r[0] == Value::Int(1),
                                |r| r[1] = 7.into(),
                            )
                        })
                        .unwrap();
                })
            };
            // Iterate the pinned query while the generations install;
            // every read must be byte-identical to the pre-refresh run.
            for _ in 0..40 {
                let t = pinned.query(&plan).unwrap();
                assert_eq!(t.rows(), oracle.rows(), "lane {lane}: pinned read drifted");
            }
            writer.join().unwrap();
        });

        // Still pinned at generation 0, still byte-identical.
        assert_eq!(pinned.generation(), 0, "lane {lane}");
        assert_eq!(pinned.query(&plan).unwrap().rows(), oracle.rows());

        // Advancing catches up to generation 2 and sees the new state.
        pinned.advance();
        assert_eq!(pinned.generation(), 2, "lane {lane}");
        let advanced = pinned.query(&plan).unwrap();
        assert_ne!(advanced.rows(), oracle.rows(), "lane {lane}");

        // An auto-advancing session was already there.
        let auto = engine.session();
        assert_eq!(auto.generation(), 2, "lane {lane}");
        assert_eq!(auto.query(&plan).unwrap().rows(), advanced.rows());
    }
}

/// Concurrent sessions on multiple threads, each alternating queries
/// with engine refreshes happening in between: every query must match a
/// from-scratch oracle run on whatever snapshot the session observed.
#[test]
fn concurrent_sessions_see_consistent_generations() {
    let engine = build_engine(seed_rows(), &Executor::new());
    let plan = Plan::scan("Procedure")
        .select(Expr::col("PacksPerDay").ge(Expr::lit(1i64)))
        .sort_by(&["instance_id"]);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = engine.clone();
            let plan = plan.clone();
            s.spawn(move || {
                for _ in 0..25 {
                    // Pinned, so the query reads the snapshot the oracle
                    // reads: an auto-advancing session's `snapshot` and
                    // `query` are two reads a refresh may install between.
                    let session = engine.pinned_session();
                    let snap = session.snapshot();
                    let t = session.query(&plan).unwrap();
                    // Oracle: evaluate directly on the pinned snapshot.
                    let oracle = engine.executor().execute(&plan, snap.database()).unwrap();
                    assert_eq!(t.rows(), oracle.rows());
                }
            });
        }
        let writer = engine.clone();
        s.spawn(move || {
            for i in 0..30i64 {
                writer
                    .update(|cat| {
                        cat.insert(
                            "cori",
                            "Procedure",
                            vec![(100 + i).into(), (i % 4).into(), (i % 2 == 0).into()],
                        )
                    })
                    .unwrap();
            }
        });
    });
    assert_eq!(engine.generation(), 30);
}

// ---------------------------------------------------------------------------
// Subscriptions: deterministic scenarios
// ---------------------------------------------------------------------------

#[test]
fn subscription_streams_apply_to_byte_identity() {
    for (lane, exec) in lanes() {
        let engine = build_engine(seed_rows(), &exec);
        let session = engine.session();
        let plans = vec![
            Plan::scan("Procedure"),
            Plan::scan(STUDY),
            Plan::scan("Procedure").select(Expr::col("SurgeryPerformed").eq(Expr::lit(true))),
            Plan::scan("Procedure").aggregate(
                &["SurgeryPerformed"],
                vec![
                    Aggregate {
                        func: AggFunc::CountAll,
                        alias: "n".into(),
                    },
                    Aggregate {
                        func: AggFunc::Sum("PacksPerDay".into()),
                        alias: "packs".into(),
                    },
                ],
            ),
        ];
        let mut subs: Vec<_> = plans
            .iter()
            .map(|p| session.subscribe(p).unwrap())
            .collect();
        assert_eq!(engine.subscriber_count(), plans.len());

        // Insert, guard flip on, guard flip off, delete — each installs a
        // generation; after sync every mirror equals a fresh re-query.
        type Mutation = Box<dyn Fn(&mut DeltaCatalog) -> RelResult<usize>>;
        let muts: Vec<Mutation> = vec![
            Box::new(|cat| {
                cat.insert("cori", "Procedure", vec![5.into(), 2.into(), true.into()])?;
                Ok(1)
            }),
            Box::new(|cat| {
                cat.update_where(
                    "cori",
                    "Procedure",
                    |r| r[0] == Value::Int(3),
                    |r| r[2] = true.into(),
                )
            }),
            Box::new(|cat| {
                cat.update_where(
                    "cori",
                    "Procedure",
                    |r| r[0] == Value::Int(4),
                    |r| r[2] = false.into(),
                )
            }),
            Box::new(|cat| cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(2))),
        ];
        for (round, m) in muts.iter().enumerate() {
            let (_, generation) = engine.update(m).unwrap();
            assert_eq!(generation, round as u64 + 1, "lane {lane}");
            for (sub, plan) in subs.iter_mut().zip(&plans) {
                let applied = sub.sync().unwrap();
                assert_eq!(applied, 1, "lane {lane} round {round}");
                assert_eq!(sub.generation(), generation);
                let oracle = engine.session().query(plan).unwrap();
                assert_eq!(
                    sub.rows(),
                    oracle.rows(),
                    "lane {lane} round {round}: mirror != re-query"
                );
                // And the mirror revalidates as a table.
                assert_eq!(sub.table().unwrap().rows(), oracle.rows());
            }
        }
    }
}

/// The group-count subscription on the study table, fed like a live
/// warehouse: every update retires the oldest report — usually its
/// group's first row, so the group's next row is promoted — appends two
/// new ones and amends one. Every pushed event is a patch (or nothing):
/// the group order a promotion moves ships as a patch, never as the
/// whole output again (DESIGN.md §15); and the mirror it moves equals a
/// re-query at every generation.
#[test]
fn group_count_subscription_patches_while_the_oldest_report_retires() {
    let seed: Vec<Row> = (1..=120i64)
        .map(|i| vec![i.into(), (i % 4).into(), (i % 7 != 0).into()])
        .collect();
    let plan = Plan::scan(STUDY).aggregate(
        &["C_class"],
        vec![Aggregate {
            func: AggFunc::CountAll,
            alias: "n".into(),
        }],
    );
    for (lane, exec) in lanes() {
        let engine = build_engine(seed.clone(), &exec);
        let mut sub = engine.session().subscribe(&plan).unwrap();
        let (mut patches, mut next) = (0, 121i64);
        for round in 1..=40i64 {
            let (_, generation) = engine
                .update(|cat| {
                    cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(round))?;
                    for _ in 0..2 {
                        cat.insert(
                            "cori",
                            "Procedure",
                            vec![next.into(), ((next * 5) % 4).into(), true.into()],
                        )?;
                        next += 1;
                    }
                    let amend = Value::Int(60 + round);
                    cat.update_where(
                        "cori",
                        "Procedure",
                        |r| r[0] == amend,
                        |r| r[1] = ((round * 3) % 4).into(),
                    )
                })
                .unwrap();
            let event = sub.try_next().unwrap().expect("one event per update");
            assert_eq!(event.generation, generation, "lane {lane}");
            match event.change {
                Ok(Change::Patch(_)) => patches += 1,
                Ok(Change::Unchanged) => {}
                other => panic!("lane {lane} round {round}: {other:?}, not a patch"),
            }
            assert_eq!(
                sub.rows(),
                engine.session().query(&plan).unwrap().rows(),
                "lane {lane} round {round}: mirror != re-query"
            );
        }
        assert!(patches > 30, "lane {lane}: only {patches} patches");
    }
}

#[test]
fn dropping_a_subscription_unregisters_it() {
    let engine = build_engine(seed_rows(), &Executor::new());
    let session = engine.session();
    let sub_a = session.subscribe(&Plan::scan("Procedure")).unwrap();
    let sub_b = session.subscribe(&Plan::scan(STUDY)).unwrap();
    assert_eq!(engine.subscriber_count(), 2);
    drop(sub_b);
    assert_eq!(engine.subscriber_count(), 1);
    // The engine keeps serving the surviving subscription.
    let mut sub_a = sub_a;
    engine
        .update(|cat| cat.insert("cori", "Procedure", vec![9.into(), 1.into(), false.into()]))
        .unwrap();
    assert_eq!(sub_a.sync().unwrap(), 1);
    assert_eq!(engine.subscriber_count(), 1);
}

#[test]
fn engine_drop_closes_subscriptions() {
    let engine = build_engine(seed_rows(), &Executor::new());
    let mut sub = engine
        .session()
        .subscribe(&Plan::scan("Procedure"))
        .unwrap();
    engine
        .update(|cat| cat.insert("cori", "Procedure", vec![6.into(), 0.into(), true.into()]))
        .unwrap();
    drop(engine);
    // The buffered event still applies; after that the closed channel
    // surfaces as EngineClosed.
    assert_eq!(sub.sync().unwrap(), 1);
    assert_eq!(sub.generation(), 1);
    assert_eq!(sub.sync(), Err(ServiceError::EngineClosed));
}

/// A panic while the writer lock is held installs nothing; the next
/// writer drops the subscriptions (their resident plans may have
/// advanced past the installed generation) and carries on.
#[test]
fn panic_mid_update_keeps_the_generation_and_closes_subscriptions() {
    let engine = build_engine(seed_rows(), &Executor::new());
    let mut sub = engine
        .session()
        .subscribe(&Plan::scan("Procedure"))
        .unwrap();
    let before = engine.snapshot();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.update(|cat| -> RelResult<()> {
            cat.insert("cori", "Procedure", vec![6.into(), 0.into(), true.into()])?;
            panic!("writer dies mid-update")
        })
    }));
    assert!(panicked.is_err());
    assert_eq!(engine.generation(), 0);
    assert_eq!(engine.snapshot().store(), before.store());

    assert_eq!(engine.subscriber_count(), 0);
    assert_eq!(sub.sync(), Err(ServiceError::EngineClosed));
    let (_, generation) = engine
        .update(|cat| cat.insert("cori", "Procedure", vec![6.into(), 0.into(), true.into()]))
        .unwrap();
    assert_eq!(generation, 1);
    assert_eq!(engine.snapshot().store().naive_form.len(), 5);
}

#[test]
fn stale_delta_is_rejected_atomically() {
    let engine = build_engine(seed_rows(), &Executor::new());
    let mut sub = engine
        .session()
        .subscribe(&Plan::scan("Procedure"))
        .unwrap();
    let before = engine.snapshot();

    // Wrong pre_len: a delta captured against some other generation.
    let stale = TableDelta {
        pre_len: 2,
        deleted: vec![],
        inserted: vec![vec![7.into(), 1.into(), true.into()]],
    };
    match engine.refresh(&stale) {
        Err(ServiceError::StaleDelta { generation, .. }) => assert_eq!(generation, 0),
        other => panic!("expected StaleDelta, got {other:?}"),
    }

    // Mismatched deleted row: right length, wrong content.
    let mismatched = TableDelta {
        pre_len: 4,
        deleted: vec![(0, vec![99.into(), 0.into(), true.into()])],
        inserted: vec![],
    };
    assert!(matches!(
        engine.refresh(&mismatched),
        Err(ServiceError::StaleDelta { .. })
    ));

    // A schema-invalid refresh (duplicate key) is also rejected whole.
    let dup = TableDelta {
        pre_len: 4,
        deleted: vec![],
        inserted: vec![vec![1.into(), 0.into(), true.into()]],
    };
    assert!(matches!(
        engine.refresh(&dup),
        Err(ServiceError::Relational(_))
    ));

    // Nothing was installed, nothing was pushed.
    assert_eq!(engine.generation(), 0);
    let after = engine.snapshot();
    assert_eq!(before.store(), after.store());
    assert_eq!(sub.sync().unwrap(), 0);
    assert_eq!(sub.generation(), 0);
}

/// A subscribed plan that faults on a specific row: the pushed event
/// must carry the same error a re-polling client would hit, and the
/// round that removes the faulty row must recover the mirror
/// byte-identically (the §15 poison/re-init contract over the wire).
#[test]
fn subscription_error_parity_and_recovery() {
    // The default seed contains PacksPerDay = 0, so the faulty plan
    // cannot even initialize: subscribe must fail with exactly the error
    // a query returns.
    {
        let engine = build_engine(seed_rows(), &Executor::new());
        let plan = Plan::scan("Procedure").select(
            Expr::lit(100i64)
                .div(Expr::col("PacksPerDay"))
                .gt(Expr::lit(1i64)),
        );
        let session = engine.session();
        let sub_err = match session.subscribe(&plan) {
            Err(e) => e,
            Ok(_) => panic!("subscribe to a faulty plan must fail at init"),
        };
        let query_err = session.query(&plan).unwrap_err();
        assert_eq!(sub_err, query_err);
        assert_eq!(engine.subscriber_count(), 0);
    }

    // Start from a clean seed (no zero packs) so init succeeds, then
    // introduce and remove the fault.
    for (lane, exec) in lanes() {
        let clean = vec![
            vec![1.into(), 2.into(), true.into()],
            vec![2.into(), 1.into(), true.into()],
        ];
        let engine = build_engine(clean, &exec);
        let plan = Plan::scan("Procedure").select(
            Expr::lit(100i64)
                .div(Expr::col("PacksPerDay"))
                .gt(Expr::lit(1i64)),
        );
        let session = engine.session();
        let mut sub = session.subscribe(&plan).unwrap();
        assert_eq!(sub.rows().len(), 2, "lane {lane}");

        // Round 1: insert the faulty row. The generation installs (the
        // *store* refresh is valid) and the pushed event carries the
        // evaluation error.
        engine
            .update(|cat| cat.insert("cori", "Procedure", vec![3.into(), 0.into(), true.into()]))
            .unwrap();
        let push_err = sub.sync().unwrap_err();
        let poll_err = engine.session().query(&plan).unwrap_err();
        assert_eq!(push_err, poll_err, "lane {lane}: push/poll error drift");

        // Round 2: remove the faulty row. The poisoned resident plan
        // re-initializes and pushes a Full recovery; the mirror matches
        // a re-query again.
        engine
            .update(|cat| cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(3)))
            .unwrap();
        assert_eq!(sub.sync().unwrap(), 1, "lane {lane}");
        let oracle = engine.session().query(&plan).unwrap();
        assert_eq!(sub.rows(), oracle.rows(), "lane {lane}: recovery drift");
        assert_eq!(sub.generation(), 2);
    }
}

/// Unified error surface: every service entry point returns
/// `ServiceError`, with `From` conversions from the substrate enums.
#[test]
fn service_error_unification() {
    let engine = build_engine(seed_rows(), &Executor::new());
    let session = engine.session();
    // Relational errors from query...
    match session.query(&Plan::scan("nope")) {
        Err(ServiceError::Relational(RelError::UnknownTable(t))) => assert_eq!(t, "nope"),
        other => panic!("expected unknown table, got {other:?}"),
    }
    // ...and from subscribe.
    assert!(matches!(
        session.subscribe(&Plan::scan("nope")),
        Err(ServiceError::Relational(_))
    ));
    // From impls + Display passthrough.
    let e: ServiceError = RelError::Plan("p".into()).into();
    assert_eq!(e.to_string(), RelError::Plan("p".into()).to_string());
    // The CLI-boundary shim.
    let boxed: Box<dyn std::error::Error> = Box::new(e);
    assert!(boxed.to_string().contains("p"));
}

// ---------------------------------------------------------------------------
// Subscription property test: random mutations, all lanes
// ---------------------------------------------------------------------------

/// One mutation against the Procedure naive form, primary-key safe.
#[derive(Debug, Clone)]
enum Op {
    Insert(Option<i64>, bool),
    /// Delete rows with `instance_id % m == r`.
    Delete(i64, i64),
    /// Set PacksPerDay for rows with `instance_id % m == r`.
    SetPacks(i64, i64, Option<i64>),
    /// Flip SurgeryPerformed for rows with `instance_id % m == r` — the
    /// entity-guard flip that moves instances in and out of the study.
    FlipSurgery(i64, i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (proptest::option::of(0i64..6), any::<bool>())
            .prop_map(|(p, s)| Op::Insert(p, s)),
        2 => (2i64..5, 0i64..5).prop_map(|(m, r)| Op::Delete(m, r % m)),
        2 => (2i64..5, 0i64..5, proptest::option::of(0i64..6))
            .prop_map(|(m, r, p)| Op::SetPacks(m, r % m, p)),
        2 => (2i64..5, 0i64..5).prop_map(|(m, r)| Op::FlipSurgery(m, r % m)),
    ]
}

fn apply_op(cat: &mut DeltaCatalog, op: &Op) -> RelResult<()> {
    let modmatch =
        |m: i64, r: i64| move |row: &Row| row[0].as_i64().is_some_and(|id| id.rem_euclid(m) == r);
    let next_id = cat
        .catalog()
        .database("cori")
        .unwrap()
        .table("Procedure")
        .unwrap()
        .rows()
        .iter()
        .filter_map(|r| r[0].as_i64())
        .max()
        .unwrap_or(0)
        + 1;
    match op {
        Op::Insert(packs, surgery) => cat.insert(
            "cori",
            "Procedure",
            vec![
                Value::Int(next_id),
                packs.map(Value::Int).unwrap_or(Value::Null),
                Value::Bool(*surgery),
            ],
        ),
        Op::Delete(m, r) => cat
            .delete_where("cori", "Procedure", modmatch(*m, *r))
            .map(|_| ()),
        Op::SetPacks(m, r, p) => {
            let v = p.map(Value::Int).unwrap_or(Value::Null);
            cat.update_where("cori", "Procedure", modmatch(*m, *r), |row| {
                row[1] = v.clone()
            })
            .map(|_| ())
        }
        Op::FlipSurgery(m, r) => cat
            .update_where("cori", "Procedure", modmatch(*m, *r), |row| {
                row[2] = match row[2] {
                    Value::Bool(x) => Value::Bool(!x),
                    _ => Value::Bool(true),
                }
            })
            .map(|_| ()),
    }
}

prop_compose! {
    fn arb_seed(max: usize)(
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..6), any::<bool>()),
            1..max,
        )
    ) -> Vec<Row> {
        rows.into_iter()
            .enumerate()
            .map(|(i, (p, s))| {
                vec![
                    Value::Int(i as i64 + 1),
                    p.map(Value::Int).unwrap_or(Value::Null),
                    Value::Bool(s),
                ]
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// For random seeds and random multi-round mutation batches, every
    /// subscription mirror — scans, a guard filter, the materialized
    /// study table, a naive↔study join, and a grouped aggregate — stays
    /// byte-identical to re-running its plan on the post-refresh
    /// snapshot, after every round, in every lane.
    #[test]
    fn pushed_stream_equals_requery(
        seed in arb_seed(10),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..4),
            1..4,
        ),
    ) {
        let plans = vec![
            Plan::scan("Procedure"),
            Plan::scan(STUDY),
            Plan::scan("Procedure").select(Expr::col("SurgeryPerformed").eq(Expr::lit(true))),
            Plan::scan("Procedure").join(
                Plan::scan(STUDY).rename_columns(vec![("instance_id", "iid")]),
                vec![("instance_id", "iid")],
                JoinKind::Left,
            ),
            Plan::scan(STUDY).aggregate(
                &["C_class"],
                vec![
                    Aggregate { func: AggFunc::CountAll, alias: "n".into() },
                    Aggregate { func: AggFunc::Sum("C_packs".into()), alias: "packs".into() },
                ],
            ),
        ];
        for (lane, exec) in lanes() {
            let engine = build_engine(seed.clone(), &exec);
            let session = engine.session();
            let mut subs: Vec<_> = plans
                .iter()
                .map(|p| session.subscribe(p).unwrap())
                .collect();
            // A session pinned at generation 0: the shared-structure
            // installs below reuse its snapshot's chunks and segments, so
            // its reads must stay byte-identical however many generations
            // land (DESIGN.md §18).
            let pinned = engine.pinned_session();
            let pinned_oracle: Vec<Vec<Row>> = plans
                .iter()
                .map(|p| pinned.query(p).unwrap().rows().to_vec())
                .collect();
            for batch in &batches {
                let result = engine.update(|cat| {
                    for op in batch {
                        apply_op(cat, op)?;
                    }
                    Ok(())
                });
                prop_assert!(result.is_ok(), "lane {}: {:?}", lane, result.err());
                for (sub, plan) in subs.iter_mut().zip(&plans) {
                    prop_assert_eq!(sub.sync().unwrap(), 1);
                    let oracle = engine.session().query(plan).unwrap();
                    prop_assert_eq!(
                        sub.rows(),
                        oracle.rows(),
                        "lane {}: mirror != re-query for {:?}",
                        lane,
                        plan
                    );
                }
                for (plan, want) in plans.iter().zip(&pinned_oracle) {
                    prop_assert_eq!(
                        pinned.query(plan).unwrap().rows(),
                        &want[..],
                        "lane {}: pinned read drifted for {:?}",
                        lane,
                        plan
                    );
                }
            }
            prop_assert_eq!(pinned.generation(), 0);
        }
    }
}
