//! Satellite suite for the statistics catalog and the cost-based
//! optimizer (DESIGN.md §17): whatever plan the CBO picks must be
//! **observationally invisible** — byte-identical tables in both
//! executor lanes and under the materializing oracle, and exact error
//! parity on single-fault plans — while the statistics that drove the
//! choice stay sound under incremental patches.
//!
//! Bars, in order:
//!
//! * CBO-selected join orders ≡ the syntactic plan, lane by lane, for
//!   random Inner/Left chains over skewed tables (property test), with
//!   exact single-fault error parity.
//! * The CBO really does re-associate when statistics say so (the test
//!   would be vacuous if every chain came back untouched), and never
//!   picks a plan it costs higher than the syntactic one.
//! * Cross joins (`on = []`) introduced by re-association stay parity.
//! * NDV sketches honor their accuracy bound through the segment-merge
//!   collection path; selectivities clamp on empty and all-NULL columns.
//! * A patched [`StatsCatalog`] agrees with a re-collected one exactly
//!   on counts and conservatively (widen-only) on min/max/NDV — both at
//!   the relational layer and through the warehouse engine's
//!   generational refresh.

use guava::prelude::*;
use guava::warehouse::service::{Engine, EngineConfig};
use guava_relational::stats::cost::cost_plan;
use guava_relational::stats::estimate::{estimate_rows, selectivity};
use guava_relational::stats::{optimize_with_stats, StatsCatalog, TableStats};
use guava_relational::value::DataType;
use proptest::prelude::*;

mod common;
use common::lanes_with_oracle as lanes;

// ---------------------------------------------------------------------------
// Fixture: a four-table star/chain with globally distinct column names
// (the shape the re-association guard admits).
// ---------------------------------------------------------------------------

fn chain_schema(name: &str, cols: &[(&str, DataType)]) -> Schema {
    Schema::new(
        name,
        cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
    )
    .unwrap()
}

/// Four tables a/b/c/d where each table's first column keys into the
/// next table's reference column. `sizes` skews the chain so the DP has
/// something to gain by rotating.
fn chain_db(sizes: [usize; 4], dangle: i64) -> Database {
    let mut db = Database::new("chain");
    let int = DataType::Int;
    let tables = [
        ("a", vec![("a_id", int), ("a_k", int)]),
        ("b", vec![("b_id", int), ("b_a", int), ("b_k", int)]),
        ("c", vec![("c_id", int), ("c_b", int)]),
        ("d", vec![("d_id", int), ("d_c", int)]),
    ];
    for (ti, (name, cols)) in tables.iter().enumerate() {
        let n = sizes[ti];
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| {
                let mut row = vec![Value::Int(i)];
                // Reference column points into the previous table's id
                // space, with `dangle` widening it so some keys miss.
                for c in 1..cols.len() {
                    let prev = if ti == 0 { n } else { sizes[ti - 1] };
                    let span = (prev as i64 + dangle).max(1);
                    row.push(if (i + c as i64) % 7 == 6 {
                        Value::Null
                    } else {
                        Value::Int((i * 3 + c as i64) % span)
                    });
                }
                row
            })
            .collect();
        db.create_table(Table::from_rows(chain_schema(name, cols), rows).unwrap())
            .unwrap();
    }
    db
}

fn chain_plan(kinds: [JoinKind; 3]) -> Plan {
    Plan::scan("a")
        .join(Plan::scan("b"), vec![("a_id", "b_a")], kinds[0])
        .join(Plan::scan("c"), vec![("b_id", "c_b")], kinds[1])
        .join(Plan::scan("d"), vec![("c_id", "d_c")], kinds[2])
}

fn arb_kind() -> impl Strategy<Value = JoinKind> {
    prop_oneof![
        4 => Just(JoinKind::Inner),
        1 => Just(JoinKind::Left),
    ]
}

/// At most one fault source per plan, so exact error parity holds lane
/// by lane: a ghost column, or a division that faults iff the data puts
/// a zero in `b_k`.
fn arb_top_pred() -> impl Strategy<Value = Option<Expr>> {
    prop_oneof![
        3 => Just(None),
        3 => (0i64..40).prop_map(|k| Some(Expr::col("a_k").ge(Expr::lit(k)))),
        1 => Just(Some(Expr::col("ghost").is_null())),
        1 => Just(Some(
            Expr::lit(100i64).div(Expr::col("b_k")).gt(Expr::lit(0i64))
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The CBO's chosen join order is byte-identical to the syntactic
    /// plan in every lane; single-fault plans keep their exact error.
    #[test]
    fn cbo_join_order_is_observationally_identical(
        sizes in (1usize..40, 1usize..40, 1usize..40, 1usize..40),
        dangle in 0i64..8,
        kinds in (arb_kind(), arb_kind(), arb_kind()),
        pred in arb_top_pred(),
    ) {
        let db = chain_db([sizes.0, sizes.1, sizes.2, sizes.3], dangle);
        let catalog = StatsCatalog::collect(&db);
        let mut plan = chain_plan([kinds.0, kinds.1, kinds.2]);
        if let Some(p) = pred {
            plan = plan.select(p);
        }
        let chosen = optimize_with_stats(&plan, &db, &catalog);
        for (name, exec) in lanes() {
            let original = exec.execute(&plan, &db);
            let cbo = exec.execute(&chosen, &db);
            match (&original, &cbo) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b,
                    "{}: CBO changed the result of {:?}", name, plan
                ),
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "{}: CBO changed the error of {:?}", name, plan
                ),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: CBO changed success/failure for {plan:?}: \
                         {a:?} vs {b:?}"
                    )));
                }
            }
        }
    }
}

/// A chain skewed so the syntactic left-deep order materializes a wide
/// intermediate must actually be re-associated — and the chosen plan
/// must not cost more than the syntactic one under the same model.
#[test]
fn cbo_reassociates_skewed_chain_and_never_regresses_cost() {
    let db = chain_db([300, 300, 3, 3], 0);
    let catalog = StatsCatalog::collect(&db);
    let plan = chain_plan([JoinKind::Inner; 3]);
    let syntactic = optimize(&plan);
    let chosen = optimize_with_stats(&plan, &db, &catalog);
    assert_ne!(
        chosen, syntactic,
        "CBO left a 300x300x3x3 chain in syntactic order"
    );
    assert!(
        cost_plan(&chosen, &catalog).cost <= cost_plan(&syntactic, &catalog).cost,
        "CBO picked a plan it costs higher than the syntactic order"
    );
    let oracle = syntactic.eval_materialized(&db).unwrap();
    for (name, exec) in lanes() {
        assert_eq!(
            exec.execute(&chosen, &db).unwrap(),
            oracle,
            "lane {name}: re-associated plan diverged"
        );
    }
}

/// Cross joins — `on = []`, both written directly and arising inside
/// re-associated shapes — stay byte-identical across lanes.
#[test]
fn cross_join_chains_keep_parity() {
    let db = chain_db([6, 5, 4, 3], 2);
    let catalog = StatsCatalog::collect(&db);
    let plan = Plan::scan("a")
        .join(Plan::scan("b"), vec![], JoinKind::Inner)
        .join(Plan::scan("c"), vec![("b_id", "c_b")], JoinKind::Inner)
        .join(Plan::scan("d"), vec![("c_id", "d_c")], JoinKind::Inner);
    let chosen = optimize_with_stats(&plan, &db, &catalog);
    let oracle = plan.eval_materialized(&db).unwrap();
    for (name, exec) in lanes() {
        assert_eq!(
            exec.execute(&chosen, &db).unwrap(),
            oracle,
            "lane {name}: cross-join chain diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Statistics: NDV bounds, clamping, patch-vs-recollect agreement.
// ---------------------------------------------------------------------------

/// NDV through the full collection path (sealed segments merged, then
/// the row tail) stays within the KMV sketch's ±15% envelope at 10k
/// distinct values.
#[test]
fn ndv_estimate_within_bounds_through_segment_merge() {
    let schema = chain_schema("n", &[("n_id", DataType::Int), ("n_v", DataType::Int)]);
    let rows: Vec<Row> = (0..10_000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 97)])
        .collect();
    let t = Table::from_rows(schema, rows).unwrap();
    let stats = TableStats::from_table(&t);
    let ndv = stats.column("n_id").unwrap().ndv();
    assert!(
        (8_500.0..=11_500.0).contains(&ndv),
        "10k distinct estimated as {ndv}"
    );
    // A low-cardinality column is exact below the sketch budget.
    assert_eq!(stats.column("n_v").unwrap().ndv(), 97.0);
}

/// Empty tables and all-NULL columns: selectivities clamp into [0, 1],
/// estimates stay finite and non-negative, and the degenerate NDV/null
/// fractions are exact.
#[test]
fn selectivity_clamps_on_empty_and_null_only_columns() {
    let schema = chain_schema("e", &[("e_id", DataType::Int), ("e_n", DataType::Int)]);
    let empty = Table::from_rows(schema.clone(), vec![]).unwrap();
    let nulls = Table::from_rows(
        schema,
        (0..8i64)
            .map(|i| vec![Value::Int(i), Value::Null])
            .collect::<Vec<Row>>(),
    )
    .unwrap();
    let mut db = Database::new("deg");
    db.create_table(empty).unwrap();
    let mut db2 = Database::new("deg2");
    db2.create_table(nulls).unwrap();

    let cat = StatsCatalog::collect(&db);
    let cat2 = StatsCatalog::collect(&db2);
    let e = cat.table("e").unwrap();
    let n = cat2.table("e").unwrap();
    assert_eq!(e.rows(), 0);
    assert_eq!(e.column("e_n").unwrap().ndv(), 0.0);
    assert_eq!(e.column("e_n").unwrap().null_fraction(0), 0.0);
    assert_eq!(n.column("e_n").unwrap().ndv(), 0.0);
    assert_eq!(n.column("e_n").unwrap().null_fraction(n.rows()), 1.0);

    let preds = [
        Expr::col("e_n").eq(Expr::lit(5i64)),
        Expr::col("e_n").lt(Expr::lit(0i64)),
        Expr::col("e_n").is_null(),
        Expr::col("e_n").is_not_null(),
    ];
    for stats in [Some(e), Some(n), None] {
        for p in &preds {
            let s = selectivity(p, stats);
            assert!(
                s.is_finite() && (0.0..=1.0).contains(&s),
                "selectivity({p:?}) = {s} out of range"
            );
        }
    }
    for (db, cat) in [(&db, &cat), (&db2, &cat2)] {
        let _ = db;
        let plan = Plan::scan("e").select(Expr::col("e_n").eq(Expr::lit(1i64)));
        let r = estimate_rows(&plan, cat);
        assert!(r.is_finite() && r >= 0.0, "estimate_rows = {r}");
    }
}

/// Patching a collected catalog with a delta agrees with re-collecting
/// from the patched table: exactly on row/null counts, conservatively
/// (widen-only) on min/max and NDV.
#[test]
fn patched_catalog_agrees_with_recollection() {
    let schema = chain_schema("p", &[("p_id", DataType::Int), ("p_v", DataType::Int)]);
    let rows: Vec<Row> = (0..50i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 11)
                },
            ]
        })
        .collect();
    let t = Table::from_rows(schema.clone(), rows.clone()).unwrap();
    let mut db = Database::new("p");
    db.create_table(t).unwrap();
    let mut patched = StatsCatalog::collect(&db);

    // Delete rows 0 and 5 (both NULL in p_v), insert three new rows,
    // one widening the range.
    let delta = TableDelta {
        pre_len: rows.len(),
        deleted: vec![(0, rows[0].clone()), (5, rows[5].clone())],
        inserted: vec![
            vec![Value::Int(100), Value::Int(40)],
            vec![Value::Int(101), Value::Null],
            vec![Value::Int(102), Value::Int(2)],
        ],
    };
    patched.patch("p", &delta);

    let mut new_rows = rows;
    new_rows.remove(5);
    new_rows.remove(0);
    new_rows.extend(delta.inserted.iter().cloned());
    let recollected = TableStats::from_table(&Table::from_rows(schema, new_rows).unwrap());

    let p = patched.table("p").unwrap();
    assert_eq!(p.rows(), recollected.rows());
    for name in ["p_id", "p_v"] {
        let a = p.column(name).unwrap();
        let b = recollected.column(name).unwrap();
        assert_eq!(a.null_count, b.null_count, "{name}: null count drifted");
        assert!(a.min.total_cmp(&b.min).is_le(), "{name}: min narrowed");
        assert!(a.max.total_cmp(&b.max).is_ge(), "{name}: max narrowed");
        assert!(a.ndv() >= b.ndv(), "{name}: NDV shrank under patch");
    }
}

/// An engine over a two-control CORI form (surgery-only study, one
/// `packs` domain), loaded with `reports`.
fn packs_engine(reports: Vec<Row>) -> Engine {
    use guava::prelude::Target;

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
            vec![Domain::new(
                "packs",
                "packs/day",
                DomainSpec::Integer {
                    min: Some(0),
                    max: None,
                },
            )],
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
    let c_packs = bind(
        "C_packs",
        Target::Domain {
            entity: "Procedure".into(),
            attribute: "Smoking".into(),
            domain: "packs".into(),
        },
        &["PacksPerDay <- PacksPerDay IS ANSWERED"],
    );
    let naive = Table::from_rows(tool.forms[0].naive_schema(), reports).unwrap();
    Engine::build("cori", naive, &ec, &[&c_packs], EngineConfig::default()).unwrap()
}

/// The carried-forward catalog of `snap` must agree with a fresh
/// collection over its tables: exactly on row and null counts, and with
/// bounds no narrower than the collected ones.
fn assert_patched_stats_match_collection(snap: &guava::warehouse::service::Snapshot) {
    let fresh = StatsCatalog::collect(snap.database());
    for name in snap.database().table_names() {
        let patched = snap.stats().table(name).unwrap_or_else(|| {
            panic!("no patched stats for {name}");
        });
        let collected = fresh.table(name).unwrap();
        assert_eq!(patched.rows(), collected.rows(), "{name}: rows drifted");
        for col in collected.column_names() {
            let a = patched.column(col).unwrap();
            let b = collected.column(col).unwrap();
            assert_eq!(a.null_count, b.null_count, "{name}.{col}: nulls drifted");
            assert!(
                a.min.total_cmp(&b.min).is_le(),
                "{name}.{col}: min narrowed"
            );
            assert!(
                a.max.total_cmp(&b.max).is_ge(),
                "{name}.{col}: max narrowed"
            );
        }
    }
}

/// The warehouse engine's generational refresh must keep the snapshot's
/// statistics catalog warm by patching: after inserts, updates, and
/// deletes, the patched stats agree with the installed tables exactly on
/// counts — for the naïve form *and* the materialized study table.
#[test]
fn engine_refresh_patches_snapshot_stats() {
    let engine = packs_engine(
        (0..20i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 4), Value::Bool(i % 2 == 0)])
            .collect(),
    );

    engine
        .update(|cat| cat.insert("cori", "Procedure", vec![77.into(), 9.into(), true.into()]))
        .unwrap();
    engine
        .update(|cat| {
            cat.update_where(
                "cori",
                "Procedure",
                |r| r[0] == Value::Int(2),
                |r| r[2] = false.into(),
            )
        })
        .unwrap();
    engine
        .update(|cat| cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(4)))
        .unwrap();

    let snap = engine.snapshot();
    assert!(snap.generation() >= 3);
    assert_patched_stats_match_collection(&snap);
    // The inserted instance_id (77) must have widened the patched max.
    let naive_stats = snap.stats().table("Procedure").unwrap();
    assert_eq!(
        naive_stats.column("instance_id").unwrap().max,
        Value::Int(77)
    );
}

/// Sealed segments go on describing rows deleted after the seal, so a
/// fresh collection must retract their nulls to stay exact — the same
/// contract the carried-forward patches follow. Thirty mixed installs
/// through an `Engine` whose tables are queried (hence sealed) between
/// installs, deleting NULL-bearing rows from under the seals.
#[test]
fn collected_stats_stay_exact_over_sealed_spans_with_dead_rows() {
    use guava_relational::table::SMALL_CHUNK_ROWS;
    let base = SMALL_CHUNK_ROWS as i64 + 200;
    let packs = |i: i64| {
        if i % 5 == 0 {
            Value::Null
        } else {
            Value::Int(i % 4)
        }
    };
    let engine = packs_engine(
        (0..base)
            .map(|i| vec![Value::Int(i), packs(i), Value::Bool(i % 3 != 0)])
            .collect(),
    );
    let session = engine.session();
    for g in 0..30i64 {
        // Seal whatever the last install left unsealed.
        for table in ["Procedure", "cori__Surgery_Only"] {
            session
                .query(&Plan::scan(table).select(Expr::col("instance_id").ge(Expr::lit(0i64))))
                .unwrap();
        }
        engine
            .update(|cat| {
                for k in 0..4 {
                    let id = base + 4 * g + k;
                    cat.insert("cori", "Procedure", vec![id.into(), packs(id), true.into()])?;
                }
                // Amend a NULL-packs report, retire another: both rows
                // stay in the sealed segment they were deleted from.
                cat.update_where(
                    "cori",
                    "Procedure",
                    |r| r[0] == Value::Int(1000 + 10 * g),
                    |r| r[1] = Value::Int(7),
                )?;
                cat.delete_where("cori", "Procedure", |r| r[0] == Value::Int(5 * g))
            })
            .unwrap();
        let snap = engine.snapshot();
        assert_patched_stats_match_collection(&snap);
        let layout = snap.database().table("Procedure").unwrap().layout();
        assert!(layout.within_bounds(), "{layout:?}");
    }
    let layout = engine
        .snapshot()
        .database()
        .table("Procedure")
        .unwrap()
        .layout();
    assert!(layout.dead_rows_under_seals >= 60, "{layout:?}");
}
