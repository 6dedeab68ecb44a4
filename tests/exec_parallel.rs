//! Morsel-parallel executor guarantees: determinism across thread counts
//! and morsel sizes, error parity with the serial path and the
//! materializing oracle, and path selection (`GUAVA_EXEC_THREADS`,
//! cardinality threshold, FLOAT-sum fallback).
//!
//! Tests that observe the scheduler-invocation counter or mutate the
//! process environment serialize behind [`PATH_LOCK`] — the counter is
//! process-global and `std::env` is shared.

use guava::prelude::*;
use guava_relational::algebra::{AggFunc, Aggregate};
use guava_relational::exec::{morsel, ExecConfig, THREADS_ENV};
use guava_relational::value::DataType;
use std::sync::Mutex;

/// Serializes every test in this binary: several of them assert on the
/// process-global scheduler-invocation counter (or flip
/// `GUAVA_EXEC_THREADS`), and a concurrently running parallel evaluation
/// from a sibling test would bump the counter mid-assertion.
static PATH_LOCK: Mutex<()> = Mutex::new(());

fn serialize_tests() -> std::sync::MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A table comfortably above the default parallel threshold, with enough
/// shape for every operator: a filterable Int, a low-cardinality group
/// key, a FLOAT column, and NULLs sprinkled in.
fn big_db(n: i64) -> Database {
    let schema = Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("grp", DataType::Text),
            Column::new("x", DataType::Int),
            Column::new("f", DataType::Float),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::text(match i % 5 {
                    0 => "alpha",
                    1 => "beta",
                    2 => "gamma",
                    3 => "delta",
                    _ => "epsilon",
                }),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 97)
                },
                Value::Float(i as f64 * 0.25),
            ]
        })
        .collect();
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    db
}

fn cfg(threads: usize) -> ExecConfig {
    ExecConfig {
        threads,
        parallel_threshold: 1,
        morsel_size: 1024,
    }
}

/// A plan exercising every parallel kernel at once: fused pipeline over
/// the scan, hash join build + probe over shared storage, and a grouped
/// aggregation over the join output, with a sort for a stable tail.
fn kitchen_sink() -> Plan {
    let right = Plan::scan("t").rename_columns(vec![
        ("id", "rid"),
        ("grp", "rgrp"),
        ("x", "rx"),
        ("f", "rf"),
    ]);
    Plan::scan("t")
        .select(Expr::col("x").ge(Expr::lit(3i64)))
        .project(vec![
            ("id".to_owned(), Expr::col("id")),
            ("grp".to_owned(), Expr::col("grp")),
            ("x2".to_owned(), Expr::col("x").mul(Expr::lit(2i64))),
        ])
        .join(right, vec![("id", "rid")], JoinKind::Left)
        .aggregate(
            &["grp"],
            vec![
                Aggregate {
                    func: AggFunc::CountAll,
                    alias: "n".into(),
                },
                Aggregate {
                    func: AggFunc::Sum("x2".into()),
                    alias: "sx".into(),
                },
                Aggregate {
                    func: AggFunc::Avg("rx".into()),
                    alias: "ax".into(),
                },
                Aggregate {
                    func: AggFunc::Min("rgrp".into()),
                    alias: "lo".into(),
                },
            ],
        )
        .sort_by(&["grp"])
}

#[test]
fn determinism_across_1_2_8_threads_is_byte_identical() {
    let _guard = serialize_tests();
    let db = big_db(12_000);
    let plan = kitchen_sink();
    let t1 = plan.eval_with(&db, &cfg(1)).unwrap();
    let t2 = plan.eval_with(&db, &cfg(2)).unwrap();
    let t8 = plan.eval_with(&db, &cfg(8)).unwrap();
    assert_eq!(t1, t2);
    assert_eq!(t1, t8);
    // Byte-identical, not just PartialEq-identical: the serialized tables
    // must match down to every value representation.
    let b1 = serde_json::to_string(&t1).unwrap();
    let b2 = serde_json::to_string(&t2).unwrap();
    let b8 = serde_json::to_string(&t8).unwrap();
    assert_eq!(b1, b2);
    assert_eq!(b1, b8);
    // And all of it agrees with the materializing oracle.
    assert_eq!(t1, plan.eval_materialized(&db).unwrap());
}

#[test]
fn determinism_across_morsel_sizes() {
    let _guard = serialize_tests();
    let db = big_db(6_000);
    let plan = kitchen_sink();
    let reference = plan.eval_with(&db, &ExecConfig::serial()).unwrap();
    for morsel_size in [7, 64, 1024, 100_000] {
        let t = plan
            .eval_with(
                &db,
                &ExecConfig {
                    threads: 4,
                    parallel_threshold: 1,
                    morsel_size,
                },
            )
            .unwrap();
        assert_eq!(t, reference, "morsel_size={morsel_size} diverged");
    }
}

#[test]
fn pivot_roundtrip_parallel_matches_serial() {
    let _guard = serialize_tests();
    let db = big_db(8_000);
    let eav = Plan::Unpivot {
        input: Box::new(Plan::scan("t")),
        keys: vec!["id".into()],
        attr_col: "attr".into(),
        val_col: "val".into(),
    };
    let roundtrip = Plan::Pivot {
        input: Box::new(eav),
        keys: vec!["id".into()],
        attr_col: "attr".into(),
        val_col: "val".into(),
        attrs: vec![
            ("grp".into(), DataType::Text),
            ("x".into(), DataType::Int),
            ("f".into(), DataType::Float),
        ],
    };
    let serial = roundtrip.eval_with(&db, &ExecConfig::serial()).unwrap();
    let parallel = roundtrip.eval_with(&db, &cfg(8)).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial, roundtrip.eval_materialized(&db).unwrap());
}

#[test]
fn row_level_errors_identical_beyond_first_morsel() {
    let _guard = serialize_tests();
    // The first failing row (x == 0, id == 0 is NULL so id == 97·k… the
    // first x == 0 with a non-null row is id 97) lies in morsel 0 for
    // serial and small-morsel parallel runs alike; a second fault region
    // deep in the data checks lowest-morsel-wins. All three evaluators
    // must report the *same* error value.
    let db = big_db(9_000);
    let plan = Plan::scan("t").project(vec![(
        "q".to_owned(),
        Expr::lit(1_000i64).div(Expr::col("x")),
    )]);
    let serial = plan.eval_with(&db, &ExecConfig::serial()).unwrap_err();
    let oracle = plan.eval_materialized(&db).unwrap_err();
    assert_eq!(serial, oracle);
    for threads in [2, 8] {
        let parallel = plan.eval_with(&db, &cfg(threads)).unwrap_err();
        assert_eq!(parallel, serial, "threads={threads}");
    }
    // Same with a tiny morsel size, so thousands of morsels merge.
    let parallel = plan
        .eval_with(
            &db,
            &ExecConfig {
                threads: 4,
                parallel_threshold: 1,
                morsel_size: 3,
            },
        )
        .unwrap_err();
    assert_eq!(parallel, serial);
}

#[test]
fn float_sums_fall_back_to_serial_kernel_and_agree() {
    let _guard = serialize_tests();
    let db = big_db(10_000);
    // SUM/AVG over the FLOAT column: the aggregation kernel itself must
    // stay serial (f64 addition is order-sensitive), and the result must
    // equal the serial and materialized runs exactly.
    let plan = Plan::scan("t").aggregate(
        &["grp"],
        vec![
            Aggregate {
                func: AggFunc::Sum("f".into()),
                alias: "sf".into(),
            },
            Aggregate {
                func: AggFunc::Avg("f".into()),
                alias: "af".into(),
            },
        ],
    );
    let serial = plan.eval_with(&db, &ExecConfig::serial()).unwrap();
    let parallel = plan.eval_with(&db, &cfg(8)).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial, plan.eval_materialized(&db).unwrap());
}

#[test]
fn env_var_one_forces_serial_path() {
    let _guard = serialize_tests();
    let db = big_db(20_000);
    // Large enough to clear the default threshold: without the override
    // this plan would be eligible for the parallel path wherever more
    // than one thread is available.
    let plan = Plan::scan("t")
        .select(Expr::col("x").ge(Expr::lit(1i64)))
        .project_cols(&["id", "grp"]);

    std::env::set_var(THREADS_ENV, "1");
    let before = morsel::scheduler_runs();
    let serial = plan.eval(&db).unwrap();
    assert_eq!(
        morsel::scheduler_runs(),
        before,
        "GUAVA_EXEC_THREADS=1 must not invoke the parallel scheduler"
    );

    std::env::set_var(THREADS_ENV, "4");
    let before = morsel::scheduler_runs();
    let parallel = plan.eval(&db).unwrap();
    assert!(
        morsel::scheduler_runs() > before,
        "GUAVA_EXEC_THREADS=4 over a large scan must take the parallel path"
    );
    std::env::remove_var(THREADS_ENV);

    assert_eq!(serial, parallel);
}

#[test]
fn small_inputs_stay_serial_under_default_threshold() {
    let _guard = serialize_tests();
    let db = big_db(100); // well under PARALLEL_THRESHOLD
    let plan = Plan::scan("t")
        .select(Expr::col("x").ge(Expr::lit(1i64)))
        .project_cols(&["id"]);
    let before = morsel::scheduler_runs();
    let t = plan.eval_with(&db, &ExecConfig::with_threads(8)).unwrap();
    assert_eq!(
        morsel::scheduler_runs(),
        before,
        "sub-threshold input must not spawn workers"
    );
    assert_eq!(t, plan.eval_materialized(&db).unwrap());
}

#[test]
fn explicit_parallel_config_actually_runs_scheduler() {
    let _guard = serialize_tests();
    let db = big_db(12_000);
    let before = morsel::scheduler_runs();
    let plan = kitchen_sink();
    let t = plan.eval_with(&db, &cfg(4)).unwrap();
    assert!(
        morsel::scheduler_runs() > before,
        "kitchen-sink plan above threshold must use the scheduler"
    );
    assert_eq!(t, plan.eval_materialized(&db).unwrap());
}

#[test]
fn etl_workflow_results_independent_of_exec_config() {
    let _guard = serialize_tests();
    use guava_etl::workflow::{EtlComponent, EtlStage, EtlWorkflow};

    let mk_catalog = || {
        let mut cat = Catalog::new();
        let mut src = Database::new("src");
        let t = big_db(8_000);
        src.create_table(t.table("t").unwrap().clone()).unwrap();
        cat.insert(src);
        cat
    };
    let wf = EtlWorkflow {
        name: "par".into(),
        stages: vec![EtlStage {
            name: "s".into(),
            components: vec![
                EtlComponent {
                    name: "filter".into(),
                    source_db: "src".into(),
                    plan: Plan::scan("t").select(Expr::col("x").ge(Expr::lit(10i64))),
                    target_db: "out".into(),
                    target_table: "hi".into(),
                },
                EtlComponent {
                    name: "agg".into(),
                    source_db: "src".into(),
                    plan: Plan::scan("t").aggregate(
                        &["grp"],
                        vec![Aggregate {
                            func: AggFunc::Sum("x".into()),
                            alias: "sx".into(),
                        }],
                    ),
                    target_db: "out".into(),
                    target_table: "sums".into(),
                },
            ],
        }],
    };
    let mut cat_serial = mk_catalog();
    let mut cat_parallel = mk_catalog();
    let runs_serial = wf.run_with(&mut cat_serial, &ExecConfig::serial()).unwrap();
    let runs_parallel = wf.run_with(&mut cat_parallel, &cfg(4)).unwrap();
    assert_eq!(runs_serial, runs_parallel);
    for table in ["hi", "sums"] {
        assert_eq!(
            cat_serial.database("out").unwrap().table(table).unwrap(),
            cat_parallel.database("out").unwrap().table(table).unwrap(),
        );
    }
}
