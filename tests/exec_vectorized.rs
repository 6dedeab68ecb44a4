//! Differential tests for the executor's lane masks, row walk and lane
//! kernels: every plan here must produce byte-identical tables *and
//! errors* under the materializing oracle and under the executor, serial
//! and morsel-parallel (DESIGN.md §10–§11, §13).
//!
//! The cases target the spots where evaluation over columnar storage
//! could plausibly diverge from row-at-a-time semantics: null masks, rows
//! that error under a filter, error ordering across fused stages, NaN
//! comparisons, non-conforming storage, lazy expressions, and exact
//! 64-bit integer equality beyond f64 precision.

use guava::relational::prelude::*;

mod common;
use common::lanes;

/// Evaluate `plan` under every lane and assert each agrees exactly with
/// the materializing interpreter — including which error is reported.
/// Returns the oracle's result for additional assertions.
fn assert_all_modes(plan: &Plan, db: &Database) -> RelResult<Table> {
    let oracle = plan.eval_materialized(db);
    for (name, exec) in lanes() {
        let got = exec.execute(plan, db);
        match (&got, &oracle) {
            (Ok(g), Ok(o)) => assert_eq!(g, o, "{name} disagrees for {plan:?}"),
            (Err(g), Err(o)) => assert_eq!(g, o, "{name} error differs for {plan:?}"),
            _ => panic!("{name} disagrees for {plan:?}: {got:?} vs {oracle:?}"),
        }
    }
    oracle
}

/// A table mixing every lane-eligible type, with nulls in each nullable
/// column and enough rows to cross the 7-row test morsel boundary.
fn mixed_db() -> Database {
    let schema = Schema::new(
        "m",
        vec![
            Column::required("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("b", DataType::Bool),
            Column::new("s", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let rows: Vec<Row> = (0..40i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 11)
                },
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float(i as f64 / 4.0)
                },
                match i % 3 {
                    0 => Value::Null,
                    1 => Value::Bool(true),
                    _ => Value::Bool(false),
                },
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::text(format!("s{}", i % 6))
                },
            ]
        })
        .collect();
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    db
}

#[test]
fn null_masks_flow_through_kernels() {
    let db = mixed_db();
    // Arithmetic over nullable lanes: NULL propagates, never errors.
    assert_all_modes(
        &Plan::scan("m").project(vec![
            ("id".to_owned(), Expr::col("id")),
            ("q".to_owned(), Expr::col("a").add(Expr::col("f"))),
            (
                "r".to_owned(),
                Expr::col("a").mul(Expr::lit(3i64)).sub(Expr::col("id")),
            ),
        ]),
        &db,
    )
    .unwrap();
    // IS NULL / IS NOT NULL read the mask directly.
    assert_all_modes(&Plan::scan("m").select(Expr::col("a").is_null()), &db).unwrap();
    assert_all_modes(
        &Plan::scan("m").select(Expr::col("f").is_not_null().and(Expr::col("b").is_null())),
        &db,
    )
    .unwrap();
    // Comparisons and IN against NULL are NULL → the filter drops the row.
    assert_all_modes(
        &Plan::scan("m").select(Expr::col("a").lt(Expr::lit(5i64))),
        &db,
    )
    .unwrap();
    assert_all_modes(
        &Plan::scan("m").select(Expr::col("a").in_list(vec![Value::Int(1), Value::Null])),
        &db,
    )
    .unwrap();
    // Three-valued AND/OR over a nullable bool lane.
    assert_all_modes(
        &Plan::scan("m").select(Expr::col("b").or(Expr::col("a").ge(Expr::lit(8i64)))),
        &db,
    )
    .unwrap();
    // NOT over nulls, and negation through a null float lane.
    assert_all_modes(&Plan::scan("m").select(Expr::col("b").not()), &db).unwrap();
    assert_all_modes(
        &Plan::scan("m").project(vec![("nf".to_owned(), Expr::Neg(Box::new(Expr::col("f"))))]),
        &db,
    )
    .unwrap();
}

#[test]
fn division_by_zero_parity() {
    let db = mixed_db();
    // a == 0 on several rows: the executor must report the same
    // "division by zero" the interpreter reports, from the same row.
    let plan = Plan::scan("m").select(Expr::lit(100i64).div(Expr::col("a")).gt(Expr::lit(4i64)));
    assert!(assert_all_modes(&plan, &db).is_err());
    // Same through a projection.
    let plan = Plan::scan("m").project(vec![("q".to_owned(), Expr::col("id").div(Expr::col("a")))]);
    assert!(assert_all_modes(&plan, &db).is_err());
    // Float zero divisor errors too (f == 0.25 at id 1).
    let plan = Plan::scan("m").select(
        Expr::lit(1.0f64)
            .div(Expr::col("f").sub(Expr::lit(0.25f64)))
            .le(Expr::lit(10i64)),
    );
    assert!(assert_all_modes(&plan, &db).is_err());
}

#[test]
fn type_errors_survive_the_filter() {
    let db = mixed_db();
    // The failing rows produce a non-selecting placeholder under the
    // comparison; their error must still surface (not be filtered away).
    let plan = Plan::scan("m").select(Expr::lit(100i64).div(Expr::col("s")).gt(Expr::lit(4i64)));
    let err = assert_all_modes(&plan, &db).unwrap_err();
    assert!(err.to_string().contains("non-numeric"), "got {err}");
    // Non-boolean predicate error.
    let plan = Plan::scan("m").select(Expr::col("s"));
    assert!(assert_all_modes(&plan, &db).is_err());
    // AND over a non-boolean side errors even when the other side is FALSE.
    let plan = Plan::scan("m").select(
        Expr::lit(false).and(
            Expr::col("s")
                .is_null()
                .or(Expr::col("s").eq(Expr::lit("s1"))),
        ),
    );
    assert_all_modes(&plan, &db).unwrap();
}

#[test]
fn first_failing_row_in_row_order_wins() {
    // Row 0 fails only in the *second* fused stage; row 1 fails in the
    // first. The streaming row path runs each row through the whole
    // pipeline before the next row, so row 0's error wins — neither
    // filter decomposes, so both walk rows, in every lane (DESIGN.md
    // §10–§11). The materializing oracle is deliberately excluded
    // here: it evaluates operator-at-a-time and reports row 1's stage-1
    // error for this crafted crossing pattern, a divergence that exists
    // only when two different rows fault in two different fused stages.
    let schema = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("s", DataType::Text),
        ],
    )
    .unwrap();
    let rows = vec![
        vec![Value::Int(0), Value::Int(1), Value::text("x")],
        vec![Value::Int(1), Value::Int(0), Value::text("y")],
    ];
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    let plan = Plan::scan("t")
        .select(Expr::lit(10i64).div(Expr::col("a")).gt(Expr::lit(0i64)))
        .select(Expr::col("s").add(Expr::lit(1i64)).gt(Expr::lit(0i64)));
    for (name, exec) in lanes() {
        let err = exec.execute(&plan, &db).unwrap_err();
        assert!(
            err.to_string().contains("non-numeric"),
            "{name}: expected row 0's stage-2 error, got {err}"
        );
    }
}

#[test]
fn nan_comparison_parity() {
    let schema = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("f", DataType::Float),
        ],
    )
    .unwrap();
    let rows = vec![
        vec![Value::Int(0), Value::Float(1.5)],
        vec![Value::Int(1), Value::Float(f64::NAN)],
        vec![Value::Int(2), Value::Float(-0.0)],
    ];
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    // Ordering against NaN is an error in the scalar semantics; a NaN
    // in the sealed column keeps the comparison off the lanes, so the row
    // walk reports the exact message.
    let err = assert_all_modes(
        &Plan::scan("t").select(Expr::col("f").lt(Expr::lit(5.0f64))),
        &db,
    )
    .unwrap_err();
    assert!(err.to_string().contains("cannot compare"), "got {err}");
    // Equality is total: NaN == NaN holds, -0.0 == 0.0 does not.
    let t = assert_all_modes(
        &Plan::scan("t").select(Expr::col("f").eq(Expr::lit(f64::NAN))),
        &db,
    )
    .unwrap();
    assert_eq!(t.len(), 1);
    let t = assert_all_modes(
        &Plan::scan("t").select(Expr::col("f").eq(Expr::lit(0.0f64))),
        &db,
    )
    .unwrap();
    assert_eq!(t.len(), 0);
}

#[test]
fn int_values_in_float_column_fall_back_losslessly() {
    // FLOAT accepts INT, so a FLOAT-declared column may physically hold
    // Value::Int — the segment stores such a column as `Mixed`, lane
    // masks refuse it (no silent widening) and the rows are walked.
    let schema = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("f", DataType::Float),
        ],
    )
    .unwrap();
    let big = (1i64 << 53) + 1; // not representable in f64
    let rows = vec![
        vec![Value::Int(0), Value::Int(big)],
        vec![Value::Int(1), Value::Float(2.5)],
        vec![Value::Int(2), Value::Null],
    ];
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    let t = assert_all_modes(
        &Plan::scan("t").select(Expr::col("f").eq(Expr::lit(big))),
        &db,
    )
    .unwrap();
    assert_eq!(
        t.len(),
        1,
        "Int stored in a FLOAT column must compare exactly"
    );
    assert_all_modes(
        &Plan::scan("t").project(vec![("d".to_owned(), Expr::col("f").add(Expr::lit(1i64)))]),
        &db,
    )
    .unwrap();
}

#[test]
fn large_int_equality_is_exact() {
    let schema = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("a", DataType::Int),
        ],
    )
    .unwrap();
    let base = 1i64 << 53; // 2^53: base and base+1 collide in f64
    let rows = vec![
        vec![Value::Int(0), Value::Int(base)],
        vec![Value::Int(1), Value::Int(base + 1)],
    ];
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    let t = assert_all_modes(
        &Plan::scan("t").select(Expr::col("a").eq(Expr::lit(base + 1))),
        &db,
    )
    .unwrap();
    assert_eq!(t.len(), 1, "integer equality must not round through f64");
    // Ordering deliberately goes through f64 in the scalar path; the
    // lane masks must agree with that (lossy or not), not "improve" on it.
    assert_all_modes(
        &Plan::scan("t").select(Expr::col("a").gt(Expr::lit(base))),
        &db,
    )
    .unwrap();
}

#[test]
fn lazy_expressions_take_the_row_fallback() {
    let db = mixed_db();
    // COALESCE and CASE evaluate their branches lazily; mixing them with
    // bare columns and arithmetic in one projection exercises the
    // pre-resolved and the `Expr::eval` side of `map_row` together.
    let plan = Plan::scan("m").project(vec![
        ("id".to_owned(), Expr::col("id")),
        (
            "av".to_owned(),
            Expr::Coalesce(vec![Expr::col("a"), Expr::lit(-1i64)]),
        ),
        ("k".to_owned(), Expr::col("id").mul(Expr::lit(2i64))),
        (
            "bucket".to_owned(),
            Expr::Case {
                arms: vec![
                    (Expr::col("a").is_null(), Expr::lit("missing")),
                    (Expr::col("a").lt(Expr::lit(4i64)), Expr::lit("low")),
                ],
                default: Box::new(Expr::lit("high")),
            },
        ),
    ]);
    assert_all_modes(&plan, &db).unwrap();
    // CASE whose taken arm errors, but only for later rows: laziness
    // means early rows succeed and the error row is still reported
    // identically.
    let plan = Plan::scan("m").select(Expr::Case {
        arms: vec![(
            Expr::col("a").is_not_null(),
            Expr::lit(10i64).div(Expr::col("a")).gt(Expr::lit(1i64)),
        )],
        default: Box::new(Expr::lit(false)),
    });
    assert!(assert_all_modes(&plan, &db).is_err());
}

#[test]
fn fallback_and_kernel_filters_interleave() {
    let db = mixed_db();
    // lane-mask filter → row-walk filter → a decomposable filter behind
    // it (walked too: the lane phase ended) in one fused tower.
    let plan = Plan::scan("m")
        .select(Expr::col("id").ge(Expr::lit(2i64)))
        .select(Expr::Coalesce(vec![Expr::col("b"), Expr::lit(true)]))
        .select(Expr::col("a").is_not_null())
        .project(vec![
            ("id".to_owned(), Expr::col("id")),
            ("an".to_owned(), Expr::col("a").add(Expr::lit(1i64))),
        ])
        .select(Expr::col("an").le(Expr::lit(9i64)));
    assert_all_modes(&plan, &db).unwrap();
}

#[test]
fn only_leading_filters_run_as_lane_masks() {
    // lane-able filter → fallible Map → un-decomposable filter → a filter
    // of lane-able *shape*. Only the first may run as a mask: the last one
    // reads the Map's output, and a mask applied ahead of the Map would
    // drop rows whose errors the row walk reports.
    let schema = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("x", DataType::Int),
            Column::new("y", DataType::Int),
            Column::new("tag", DataType::Text),
        ],
    )
    .unwrap();
    let plan = Plan::scan("t")
        .select(Expr::col("id").ge(Expr::lit(1i64)))
        .project(vec![
            ("id".to_owned(), Expr::col("id")),
            ("q".to_owned(), Expr::lit(100i64).div(Expr::col("x"))),
            ("y".to_owned(), Expr::col("y")),
            ("tag".to_owned(), Expr::col("tag")),
        ])
        .select(
            Expr::Neg(Box::new(Expr::col("tag")))
                .is_null()
                .or(Expr::col("q").gt(Expr::lit(1000i64))),
        )
        .select(Expr::col("y").lt(Expr::lit(5i64)));
    // 20 rows span several 7-row morsels. Row 0 would divide by zero but
    // the leading mask drops it first; `div0` and `boom` name the rows
    // that fail in the Map and in the un-decomposable filter, and both
    // carry a `y` the trailing filter rejects.
    let db_with = |div0: i64, boom: i64| {
        let rows = (0..20i64).map(|i| {
            let faulty = i == div0 || i == boom;
            vec![
                Value::Int(i),
                Value::Int(if i == 0 || i == div0 { 0 } else { 1 + i % 3 }),
                Value::Int(if faulty { 9 } else { i % 8 }),
                if i == boom {
                    Value::text("boom")
                } else {
                    Value::Null
                },
            ]
        });
        let mut db = Database::new("d");
        db.create_table(Table::from_rows(schema.clone(), rows).unwrap())
            .unwrap();
        db
    };
    // No faults: rows and order agree with the oracle.
    let clean = assert_all_modes(&plan, &db_with(-1, -1)).unwrap();
    assert!(!clean.is_empty() && clean.len() < 19);
    // The Map fails first in row order — the oracle's order too.
    let err = assert_all_modes(&plan, &db_with(3, 12)).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    // The later stage fails on the earlier row: row order still wins in
    // every lane (the operator-at-a-time oracle reports the Map's row —
    // the documented cross-stage divergence, DESIGN.md §11).
    for (name, exec) in lanes() {
        let err = exec.execute(&plan, &db_with(12, 3)).unwrap_err();
        assert!(
            err.to_string().contains("unary - applied to"),
            "{name}: expected row 3's filter error, got {err}"
        );
    }
}

#[test]
fn empty_input_skips_row_errors() {
    let db = mixed_db();
    // An unknown column inside a predicate only fails when a row is
    // evaluated; over an empty selection every mode succeeds.
    let plan = Plan::scan("m")
        .select(Expr::lit(false))
        .select(Expr::col("ghost").is_null());
    let t = assert_all_modes(&plan, &db).unwrap();
    assert!(t.is_empty());
}

#[test]
fn inline_relations_scan_like_stored_tables() {
    // `Plan::Values` is validated and handed over as one owned batch,
    // so an empty relation contributes no batch at all — like an empty
    // stored table, which has no chunk to scan: no operator may
    // depend on seeing one.
    let db = mixed_db();
    let schema = Schema::new(
        "v",
        vec![
            Column::required("k", DataType::Int),
            Column::new("w", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["k"])
    .unwrap();
    let values = |rows: Vec<Row>| Plan::Values {
        schema: schema.clone(),
        rows,
    };
    let empty = values(vec![]);
    let some = values(
        (0..20i64)
            .map(|i| vec![Value::Int(i), Value::text(format!("w{}", i % 3))])
            .collect(),
    );
    let count = |p: Plan, by: &[&str]| {
        p.aggregate(
            by,
            vec![Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            }],
        )
    };
    let over_empty = [
        // A predicate that would fail on any row never sees one.
        empty.clone().select(Expr::col("ghost").is_null()),
        Plan::scan("m").join(empty.clone(), vec![("id", "k")], JoinKind::Inner),
        Plan::scan("m").join(empty.clone(), vec![("id", "k")], JoinKind::Left),
        empty
            .clone()
            .join(Plan::scan("m"), vec![("k", "id")], JoinKind::Left),
        Plan::union(vec![empty.clone(), some.clone(), empty.clone()]),
        count(empty.clone(), &["w"]),
        count(empty.clone(), &[]),
    ];
    for plan in &over_empty {
        assert_all_modes(plan, &db).unwrap();
    }
    // A non-empty relation under a fused pipeline and as a join's build
    // side (several test morsels long).
    let fused = some
        .clone()
        .select(Expr::col("k").ge(Expr::lit(3i64)))
        .project_cols(&["w", "k"]);
    assert_eq!(assert_all_modes(&fused, &db).unwrap().len(), 17);
    let joined = Plan::scan("m").join(some, vec![("id", "k")], JoinKind::Inner);
    assert_eq!(assert_all_modes(&joined, &db).unwrap().len(), 20);
    // Validation happens before the scan, exactly as in the interpreter:
    // a NOT NULL violation and a duplicate key fail identically in every
    // lane, whatever sits on top.
    let not_null = values(vec![
        vec![Value::Int(1), Value::Null],
        vec![Value::Null, Value::text("x")],
    ])
    .select(Expr::col("k").ge(Expr::lit(0i64)));
    assert!(assert_all_modes(&not_null, &db).is_err());
    let dup = values(vec![
        vec![Value::Int(1), Value::Null],
        vec![Value::Int(1), Value::text("x")],
    ])
    .project_cols(&["w"]);
    assert!(matches!(
        assert_all_modes(&dup, &db),
        Err(RelError::DuplicateKey { .. })
    ));
}

#[test]
fn join_keys_with_nan_and_negative_zero() {
    // The lane-hash join must agree with the row path on total-order key
    // equality: NaN joins NaN, -0.0 does NOT join 0.0 (total_cmp orders
    // them apart), and NULL keys never match — inner and left alike.
    let left = Schema::new(
        "l",
        vec![
            Column::required("id", DataType::Int),
            Column::new("k", DataType::Float),
        ],
    )
    .unwrap();
    let right = Schema::new(
        "r",
        vec![
            Column::new("rk", DataType::Float),
            Column::new("tag", DataType::Text),
        ],
    )
    .unwrap();
    let mut db = Database::new("d");
    db.create_table(
        Table::from_rows(
            left,
            vec![
                vec![Value::Int(0), Value::Float(f64::NAN)],
                vec![Value::Int(1), Value::Float(-0.0)],
                vec![Value::Int(2), Value::Float(0.0)],
                vec![Value::Int(3), Value::Null],
                vec![Value::Int(4), Value::Float(1.5)],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        Table::from_rows(
            right,
            vec![
                vec![Value::Float(f64::NAN), Value::text("nan")],
                vec![Value::Float(0.0), Value::text("poszero")],
                vec![Value::Null, Value::text("null")],
                vec![Value::Float(1.5), Value::text("plain")],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for kind in [JoinKind::Inner, JoinKind::Left] {
        let t = assert_all_modes(
            &Plan::scan("l").join(Plan::scan("r"), vec![("k", "rk")], kind),
            &db,
        )
        .unwrap();
        let tags: Vec<&Value> = t.iter_rows().map(|r| &r[3]).collect();
        match kind {
            // NaN matches NaN; 0.0 matches only the positive zero; NULLs
            // and -0.0 drop out.
            JoinKind::Inner => assert_eq!(
                tags,
                [
                    Value::text("nan"),
                    Value::text("poszero"),
                    Value::text("plain")
                ]
                .iter()
                .collect::<Vec<_>>(),
                "{kind:?}"
            ),
            JoinKind::Left => assert_eq!(t.len(), 5, "{kind:?}"),
        }
    }
}

#[test]
fn null_keys_group_and_order_like_the_row_path() {
    let db = mixed_db();
    // `a` is NULL on every fifth row: NULL is an ordinary grouping value
    // (one group, first-seen position), unlike join keys. Float AVG input
    // pins the serial kernel; the int SUM runs the lane accumulators.
    let plan = Plan::scan("m").aggregate(
        &["a"],
        vec![
            Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            },
            Aggregate {
                func: AggFunc::Sum("id".into()),
                alias: "total".into(),
            },
            Aggregate {
                func: AggFunc::Avg("f".into()),
                alias: "mean".into(),
            },
        ],
    );
    let t = assert_all_modes(&plan, &db).unwrap();
    // Row 0 has a NULL key, so the NULL group must come first.
    assert_eq!(t.row_at(0).unwrap()[0], Value::Null);
    // Two-column key with NULLs in both, plus distinct over the same
    // lanes (first-occurrence dedup via key hashing).
    assert_all_modes(
        &Plan::scan("m").aggregate(
            &["a", "b"],
            vec![Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            }],
        ),
        &db,
    )
    .unwrap();
    assert_all_modes(&Plan::scan("m").project_cols(&["a", "b"]).distinct(), &db).unwrap();
}

#[test]
fn errors_inside_a_join_build_side_surface_identically() {
    let db = mixed_db();
    // The build (right) side's projection faults on a row whose `a` is
    // zero. The join must report that exact error in every mode — the
    // build side runs before any probe batch arrives, so the error cannot
    // be masked by probe-side work.
    let bad_build = Plan::scan("m").project(vec![
        ("k".to_owned(), Expr::col("id")),
        ("q".to_owned(), Expr::lit(100i64).div(Expr::col("a"))),
    ]);
    let plan = Plan::scan("m").join(bad_build, vec![("id", "k")], JoinKind::Inner);
    let err = assert_all_modes(&plan, &db).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "got {err}");
    // Probe-side fault for completeness: same plan shape mirrored.
    let bad_probe = Plan::scan("m").project(vec![
        ("k".to_owned(), Expr::col("id")),
        ("q".to_owned(), Expr::lit(100i64).div(Expr::col("a"))),
    ]);
    let plan = bad_probe.join(
        Plan::scan("m")
            .project_cols(&["id"])
            .rename_columns(vec![("id", "rid")]),
        vec![("k", "rid")],
        JoinKind::Inner,
    );
    assert!(assert_all_modes(&plan, &db).is_err());
}

/// One thread, and two threads with every operator over the parallel
/// threshold: the run order below must not depend on the lane.
fn one_and_two_threads() -> [Executor; 2] {
    [
        Executor::new().threads(1),
        Executor::new().threads(2).parallel_threshold(1),
    ]
}

#[test]
fn a_hashed_join_raises_its_build_sides_error_before_its_probe_sides() {
    let db = mixed_db();
    // Both sides fault, each with an error of its own: the build (right)
    // side divides by zero where `a` is 0, the probe side names a column
    // that does not exist. The build side runs first, so its error wins.
    let build = Plan::scan("m").project(vec![
        ("k".to_owned(), Expr::col("id")),
        ("q".to_owned(), Expr::lit(100i64).div(Expr::col("a"))),
    ]);
    let probe = Plan::scan("m").select(Expr::col("ghost").is_null());
    let plan = probe
        .clone()
        .join(build.clone(), vec![("id", "k")], JoinKind::Inner);
    for exec in one_and_two_threads() {
        let build_err = exec.execute(&build, &db).unwrap_err();
        let probe_err = exec.execute(&probe, &db).unwrap_err();
        assert_ne!(build_err, probe_err);
        assert_eq!(exec.execute(&plan, &db).unwrap_err(), build_err, "{exec:?}");
    }
}

#[test]
fn a_union_checks_each_input_before_the_next_one_runs() {
    let db = mixed_db();
    // Input 0 keeps `id` NOT NULL; input 1 puts `a` — NULL on every fifth
    // row — under it; input 2 divides by zero where `a` is 0. Input 1's
    // rows are checked before input 2 runs, so the NULL wins.
    let replacing = |col: &str, e: Expr| {
        let cols = ["id", "a", "f", "b", "s"].map(|c| {
            (
                c.to_owned(),
                if c == col { e.clone() } else { Expr::col(c) },
            )
        });
        Plan::scan("m").project(cols.to_vec())
    };
    let dividing = replacing("f", Expr::lit(100i64).div(Expr::col("a")));
    let plan = Plan::union(vec![
        Plan::scan("m"),
        replacing("id", Expr::col("a")),
        dividing.clone(),
    ]);
    for exec in one_and_two_threads() {
        assert!(matches!(
            exec.execute(&dividing, &db),
            Err(RelError::Eval(_))
        ));
        assert_eq!(
            exec.execute(&plan, &db).unwrap_err(),
            RelError::NullViolation("id".into()),
            "{exec:?}"
        );
    }
}

#[test]
fn merge_path_sort_parity_across_morsel_sizes() {
    let db = mixed_db();
    // Duplicate sort keys (a repeats mod 11, s mod 6) make stability
    // observable: any unstable merge reorders the `id` column. Sweep
    // morsel sizes so runs split at every awkward boundary, and compare
    // against the serial oracle byte for byte.
    let plan = Plan::scan("m").sort_by(&["a", "s"]);
    let oracle = plan.eval_materialized(&db).unwrap();
    for morsel in [1usize, 3, 7, 16, 64] {
        let exec = Executor::new()
            .threads(4)
            .parallel_threshold(1)
            .morsel_size(morsel);
        let got = exec.execute(&plan, &db).unwrap();
        assert_eq!(got, oracle, "morsel {morsel}");
    }
}

#[test]
fn etl_workflows_run_under_a_shared_executor() {
    use guava::etl::prelude::*;

    let mut catalog = Catalog::new();
    let mut db = Database::new("src");
    let schema = Schema::new(
        "obs",
        vec![
            Column::required("id", DataType::Int),
            Column::new("v", DataType::Int),
        ],
    )
    .unwrap();
    let rows: Vec<Row> = (0..30i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 9)])
        .collect();
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    catalog.insert(db);

    let wf = EtlWorkflow {
        name: "w".into(),
        stages: vec![EtlStage {
            name: "s1".into(),
            components: vec![EtlComponent {
                name: "keep-small".into(),
                source_db: "src".into(),
                plan: Plan::scan("obs").select(Expr::col("v").lt(Expr::lit(5i64))),
                target_db: "out".into(),
                target_table: "kept".into(),
            }],
        }],
    };
    let mut expected_catalog = catalog.clone();
    let base = wf
        .run_on(&mut expected_catalog, &Executor::new().threads(1))
        .unwrap();
    for (name, exec) in lanes() {
        let mut c = catalog.clone();
        let runs = wf.run_on(&mut c, &exec).unwrap();
        assert_eq!(runs.len(), base.len());
        assert_eq!(
            c.database("out").unwrap().table("kept").unwrap(),
            expected_catalog
                .database("out")
                .unwrap()
                .table("kept")
                .unwrap(),
            "{name}"
        );
    }
}
