//! Columnar resting storage (DESIGN.md §14): segment construction edge
//! cases — NaN / `-0.0` / huge-integer zone maps, null-only columns,
//! empty tables, dictionary overflow — plus the equivalence bar: scans
//! over sealed segments, in the serial and the parallel executor, must
//! stay **byte-identical** to the materializing interpreter (same rows,
//! same order, same first error) — the oracle reads the flat row view
//! and knows nothing of segments or zone maps — and `DeltaPlan`
//! refreshes must agree with a from-scratch evaluation round after
//! round.

use guava::prelude::*;
use guava_relational::segment::{DICT_MAX, SEGMENT_ROWS};
use proptest::prelude::*;

mod common;
use common::lanes;

/// One table, four columns: a monotone INT key (zone maps prune on it), a
/// FLOAT lane, a low-cardinality TEXT lane (dictionary-encodes), and a
/// BOOL lane. NULLs are sprinkled on every non-key column.
fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("b", DataType::Bool),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap()
}

fn db_of(rows: Vec<Row>) -> Database {
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema(), rows).unwrap())
        .unwrap();
    db
}

/// Assert segment scans agree with the oracle on `plan` in every lane:
/// equal tables on success, equal errors on failure (the plans passed
/// here have at most one fault).
fn assert_storage_agrees(plan: &Plan, db: &Database) {
    let oracle = plan.eval_materialized(db);
    for (name, exec) in lanes() {
        match (exec.execute(plan, db), &oracle) {
            (Ok(s), Ok(o)) => assert_eq!(&s, o, "{name}: segment != oracle for {plan:?}"),
            (Err(s), Err(o)) => assert_eq!(&s, o, "{name}: errors differ for {plan:?}"),
            (s, o) => panic!("{name}: disagrees with oracle for {plan:?}: {s:?} vs {o:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Zone-map edge cases
// ---------------------------------------------------------------------------

#[test]
fn nan_in_column_blocks_ordering_prunes_but_not_eq() {
    // A NaN row makes ordering comparisons a hard error in the row
    // walk; segment scans must refuse the zone-map skip (and the lane
    // mask) and reproduce that exact error rather than silently pruning
    // it away.
    let rows = vec![
        vec![Value::Int(0), Value::Float(1.0), Value::Null, Value::Null],
        vec![
            Value::Int(1),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Null,
        ],
    ];
    let db = db_of(rows);
    let ordering = Plan::scan("t").select(Expr::col("x").gt(Expr::lit(100.0)));
    assert_storage_agrees(&ordering, &db);
    assert!(ordering.eval(&db).is_err(), "NaN comparison must error");
    // Equality never errors, so it may prune — and must stay identical.
    let eq = Plan::scan("t").select(Expr::col("x").eq(Expr::lit(100.0)));
    assert_storage_agrees(&eq, &db);
    assert_eq!(eq.eval(&db).unwrap().len(), 0);
}

#[test]
fn negative_zero_is_not_pruned_into_wrong_results() {
    // sql_eq distinguishes -0.0 from 0.0 (total order), while sql_cmp
    // calls them equal — the prune triggers only on *strict* inequality,
    // so a -0.0 zone boundary must never skip a segment a 0.0 literal
    // could match (and vice versa).
    let rows = vec![
        vec![Value::Int(0), Value::Float(-0.0), Value::Null, Value::Null],
        vec![Value::Int(1), Value::Float(0.0), Value::Null, Value::Null],
        vec![Value::Int(2), Value::Float(2.5), Value::Null, Value::Null],
    ];
    let db = db_of(rows);
    for lit in [-0.0f64, 0.0] {
        let eq = Plan::scan("t").select(Expr::col("x").eq(Expr::lit(lit)));
        assert_storage_agrees(&eq, &db);
        assert_eq!(
            eq.eval(&db).unwrap().len(),
            1,
            "exactly one of ±0.0 matches {lit}"
        );
        let lt = Plan::scan("t").select(Expr::col("x").lt(Expr::lit(lit)));
        assert_storage_agrees(&lt, &db);
    }
}

#[test]
fn huge_integers_beyond_f64_precision_do_not_misprune() {
    const BIG: i64 = 1 << 53; // 2^53: BIG and BIG+1 collide as f64
    let mut rows: Vec<Row> = vec![
        vec![Value::Int(0), Value::Null, Value::Null, Value::Null],
        vec![Value::Int(BIG), Value::Null, Value::Null, Value::Null],
        vec![Value::Int(BIG + 1), Value::Null, Value::Null, Value::Null],
    ];
    let db = db_of(rows.clone());
    // sql_eq is exact on Int–Int: the filter must return exactly the
    // BIG+1 row even though the zone max compares f64-equal to BIG.
    let eq = Plan::scan("t").select(Expr::col("id").eq(Expr::lit(BIG + 1)));
    assert_storage_agrees(&eq, &db);
    let hit = eq.eval(&db).unwrap();
    assert_eq!(hit.len(), 1);
    assert_eq!(hit.rows()[0][0], Value::Int(BIG + 1));
    // And with BIG+1 absent, the (lossy) prune may skip but the result is
    // empty either way.
    rows.pop();
    let db = db_of(rows);
    let eq = Plan::scan("t").select(Expr::col("id").eq(Expr::lit(BIG + 1)));
    assert_storage_agrees(&eq, &db);
    assert_eq!(eq.eval(&db).unwrap().len(), 0);
}

#[test]
fn null_only_columns_scan_and_prune_correctly() {
    // Every non-key column all-NULL: zone min/max are Null, the text
    // dictionary is empty, and NULL-aware prunes apply.
    let rows: Vec<Row> = (0..100)
        .map(|i| vec![Value::Int(i), Value::Null, Value::Null, Value::Null])
        .collect();
    let db = db_of(rows);
    let seg = &db.table("t").unwrap().segments().segments()[0];
    let zone = seg.zone(1);
    assert!(zone.min.is_null() && zone.max.is_null());
    assert_eq!(zone.null_count, 100);
    for plan in [
        Plan::scan("t").select(Expr::col("x").is_null()),
        Plan::scan("t").select(Expr::col("s").is_not_null()),
        Plan::scan("t").select(Expr::col("x").lt(Expr::lit(5.0))),
        Plan::scan("t").select(Expr::col("s").eq(Expr::lit("a"))),
        Plan::scan("t").project_cols(&["s", "b"]),
    ] {
        assert_storage_agrees(&plan, &db);
    }
}

#[test]
fn empty_tables_and_filtered_out_segments() {
    let db = db_of(Vec::new());
    assert_eq!(db.table("t").unwrap().segments().segments().len(), 0);
    for plan in [
        Plan::scan("t").select(Expr::col("id").ge(Expr::lit(0i64))),
        Plan::scan("t").project_cols(&["id", "s"]),
        Plan::scan("t").select(Expr::lit(false)),
    ] {
        assert_storage_agrees(&plan, &db);
    }
}

// ---------------------------------------------------------------------------
// Dictionary encoding
// ---------------------------------------------------------------------------

#[test]
fn dictionary_overflow_falls_back_to_plain_strings() {
    let low: Vec<Row> = (0..2000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Null,
                Value::text(format!("tag-{}", i % 16)),
                Value::Null,
            ]
        })
        .collect();
    let db = db_of(low);
    let t = db.table("t").unwrap();
    assert_eq!(t.segments().segments()[0].column(2).encoding(), "dict");

    let high: Vec<Row> = (0..(DICT_MAX as i64 + 100))
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Null,
                Value::text(format!("unique-{i}")),
                Value::Null,
            ]
        })
        .collect();
    let db = db_of(high);
    let t = db.table("t").unwrap();
    assert_eq!(t.segments().segments()[0].column(2).encoding(), "str");
    // Both encodings answer string predicates identically.
    let plan = Plan::scan("t").select(Expr::col("s").eq(Expr::lit("unique-7")));
    assert_storage_agrees(&plan, &db);
    assert_eq!(plan.eval(&db).unwrap().len(), 1);
}

#[test]
fn dict_kernels_match_row_kernels_on_string_predicates() {
    let rows: Vec<Row> = (0..3000)
        .map(|i| {
            let s = if i % 11 == 0 {
                Value::Null
            } else {
                Value::text(format!("grp-{}", i % 5))
            };
            vec![Value::Int(i), Value::Null, s, Value::Bool(i % 2 == 0)]
        })
        .collect();
    let db = db_of(rows);
    for plan in [
        Plan::scan("t").select(Expr::col("s").eq(Expr::lit("grp-3"))),
        Plan::scan("t").select(Expr::col("s").ne(Expr::lit("grp-3"))),
        Plan::scan("t").select(Expr::col("s").lt(Expr::lit("grp-2"))),
        Plan::scan("t").select(Expr::col("s").ge(Expr::lit("grp-2"))),
        // The same comparison behind a projection: past the first Map
        // the filter walks rows instead of reading dictionary codes.
        Plan::scan("t")
            .project_cols(&["s", "b"])
            .select(Expr::col("s").eq(Expr::lit("grp-1"))),
        // Dictionary-stored text flowing into blocking operators.
        Plan::scan("t")
            .project_cols(&["s"])
            .distinct()
            .sort_by(&["s"]),
        Plan::scan("t").aggregate(
            &["s"],
            vec![Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            }],
        ),
    ] {
        assert_storage_agrees(&plan, &db);
    }
}

// ---------------------------------------------------------------------------
// Delta store and compaction
// ---------------------------------------------------------------------------

#[test]
fn inserts_scan_through_the_delta_tail_and_compact() {
    let rows: Vec<Row> = (0..1000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(i as f64),
                Value::Null,
                Value::Null,
            ]
        })
        .collect();
    let mut t = Table::from_rows(schema(), rows).unwrap();
    assert_eq!(t.segments().covered(), 1000);
    // A sealed chunk is frozen: appends open a new chunk behind it, which
    // grows in place and stays row-form until a scan seals it.
    for i in 1000..1400 {
        t.insert(vec![
            Value::Int(i),
            Value::Float(i as f64),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
    }
    assert_eq!(t.unsealed_rows(), 400);
    assert_eq!(t.layout().chunks, 2);
    let mut db = Database::new("d");
    db.create_table(t).unwrap();
    let plan = Plan::scan("t").select(Expr::col("id").ge(Expr::lit(990i64)));
    assert_storage_agrees(&plan, &db);
    assert_eq!(plan.eval(&db).unwrap().len(), 410);
    // The scan sealed the tail chunk too...
    let t = db.table_mut("t").unwrap();
    assert_eq!(t.unsealed_rows(), 0);
    assert_eq!(t.layout().sealed_spans, 2);
    // ...and further appends keep merging small chunks geometrically, so
    // the chunk list stays short however the inserts and scans interleave.
    for i in 1400..(1000 + SEGMENT_ROWS as i64 / 8) {
        t.insert(vec![Value::Int(i), Value::Null, Value::Null, Value::Null])
            .unwrap();
    }
    let layout = t.layout();
    assert!(layout.within_bounds(), "{layout:?}");
    assert!(layout.chunks <= 2, "{layout:?}");
    assert_eq!(t.segments().covered(), t.len());
    assert_eq!(t.unsealed_rows(), 0);
    let plan = Plan::scan("t").select(Expr::col("id").ge(Expr::lit(990i64)));
    assert_storage_agrees(&plan, &db);
}

#[test]
fn in_place_mutations_invalidate_the_sealed_prefix() {
    let rows: Vec<Row> = (0..50)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(i as f64),
                Value::Null,
                Value::Null,
            ]
        })
        .collect();
    let mut t = Table::from_rows(schema(), rows).unwrap();
    t.segments();
    t.update_where(|r| r[0] == Value::Int(3), |r| r[1] = Value::Float(99.0))
        .unwrap();
    // The rebuilt prefix reflects the update.
    let mut db = Database::new("d");
    db.create_table(t).unwrap();
    let plan = Plan::scan("t").select(Expr::col("x").gt(Expr::lit(90.0)));
    assert_storage_agrees(&plan, &db);
    assert_eq!(plan.eval(&db).unwrap().len(), 1);
    let t = db.table_mut("t").unwrap();
    t.delete_where(|r| r[0] == Value::Int(3)).unwrap();
    let plan = Plan::scan("t").select(Expr::col("x").gt(Expr::lit(90.0)));
    assert_storage_agrees(&plan, &db);
    assert_eq!(plan.eval(&db).unwrap().len(), 0);
}

// ---------------------------------------------------------------------------
// Property: segment scans ≡ row scans, everywhere
// ---------------------------------------------------------------------------

prop_compose! {
    fn arb_rows(max: usize)(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-8i64..100),
                proptest::option::of("[a-c]{1,2}"),
                proptest::option::of(any::<bool>()),
            ),
            0..max,
        )
    ) -> Vec<Row> {
        rows.into_iter()
            .enumerate()
            .map(|(i, (x, s, b))| {
                vec![
                    Value::Int(i as i64),
                    x.map(|v| Value::Float(v as f64 / 2.0)).unwrap_or(Value::Null),
                    s.map(Value::text).unwrap_or(Value::Null),
                    b.map(Value::Bool).unwrap_or(Value::Null),
                ]
            })
            .collect()
    }
}

/// Plans mixing prunable filters (on the monotone key and the other
/// lanes), non-decomposable predicates, faulty expressions (`ghost`
/// column, division by a sometimes-zero value), projections, and
/// blocking operators.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let cmp = (0usize..5, -2i64..60, any::<bool>()).prop_map(|(c, k, ge)| {
        let col = ["id", "x", "s", "b", "ghost"][c];
        if ge {
            Expr::col(col).ge(Expr::lit(k))
        } else {
            Expr::col(col).eq(Expr::lit(k))
        }
    });
    let pred = prop_oneof![
        4 => cmp.clone(),
        2 => (cmp.clone(), cmp.clone()).prop_map(|(p, q)| p.and(q)),
        1 => (0usize..4).prop_map(|c| Expr::col(["id", "x", "s", "b"][c]).is_null()),
        1 => Just(Expr::col("s").eq(Expr::lit("ab"))),
        1 => Just(Expr::lit(100i64).div(Expr::col("id")).gt(Expr::lit(2i64))),
    ];
    let leaf = Just(Plan::scan("t"));
    leaf.prop_recursive(3, 12, 2, move |inner| {
        prop_oneof![
            4 => (inner.clone(), pred.clone()).prop_map(|(p, e)| p.select(e)),
            2 => inner.clone().prop_map(|p| p.project_cols(&["id", "s"])),
            1 => inner.clone().prop_map(|p| p.project_cols(&["s"]).distinct()),
            1 => (inner.clone(), 0usize..20).prop_map(|(p, n)| p.sort_by(&["x", "id"]).limit(n)),
            1 => inner.prop_map(|p| {
                p.aggregate(
                    &["s"],
                    vec![Aggregate { func: AggFunc::CountAll, alias: "n".into() }],
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Segment-backed scans are byte-identical to the oracle's scans of
    /// the flat row view in both lanes: same table (schema, rows, order)
    /// on success, failure on both sides otherwise — and the two lanes
    /// byte-identical to each other, including which error a multi-fault
    /// plan reports.
    #[test]
    fn segment_scans_match_row_scans(rows in arb_rows(40), plan in arb_plan()) {
        let d = db_of(rows);
        let oracle = plan.eval_materialized(&d);
        let results: Vec<_> = lanes()
            .into_iter()
            .map(|(name, exec)| (name, exec.execute(&plan, &d)))
            .collect();
        for (name, seg) in &results {
            match (seg, &oracle) {
                (Ok(s), Ok(o)) => prop_assert_eq!(s, o, "{}: segment != oracle", name),
                (Err(_), Err(_)) => {}
                (s, o) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: disagrees with oracle for {plan:?}: {s:?} vs {o:?}"
                    )));
                }
            }
            prop_assert_eq!(seg, &results[0].1, "{} != {}", name, results[0].0);
        }
    }

    /// `DeltaPlan` incremental refresh agrees with a from-scratch
    /// evaluation after every round of captured inserts, in both lanes —
    /// the catalog path grows the tail chunk under seals earlier rounds'
    /// scans set.
    #[test]
    fn delta_plan_refresh_agrees_across_storage_modes(
        rows in arb_rows(20),
        plan in arb_plan(),
        extra in proptest::collection::vec(
            (proptest::option::of(-8i64..100), proptest::option::of("[a-c]{1,2}")),
            1..12,
        ),
    ) {
        let base = rows.len() as i64;
        let mut cat = Catalog::new();
        cat.insert(db_of(rows));
        let mut dc = DeltaCatalog::new(cat);
        // Faulty plans must fail to initialize exactly when a from-scratch
        // evaluation fails.
        let mut dplans = Vec::new();
        for (name, exec) in lanes() {
            let db = dc.catalog().database("d").unwrap();
            let init = DeltaPlan::init(&plan, db, &exec);
            prop_assert_eq!(init.is_ok(), exec.execute(&plan, db).is_ok(), "{}: init", name);
            dplans.extend(init.ok().map(|dplan| (name, exec, dplan)));
        }
        for (round, (x, s)) in extra.into_iter().enumerate() {
            let row = vec![
                Value::Int(base + round as i64),
                x.map(|v| Value::Float(v as f64 / 2.0)).unwrap_or(Value::Null),
                s.map(Value::text).unwrap_or(Value::Null),
                Value::Null,
            ];
            dc.insert("d", "t", row).unwrap();
            let deltas = dc.take_deltas();
            let mut changes = TableChanges::new();
            if let Some(d) = deltas.get("d", "t") {
                changes.set("t", d.to_change());
            }
            let db = dc.catalog().database("d").unwrap();
            for (name, exec, dplan) in &mut dplans {
                let refreshed = dplan
                    .refresh(db, &changes, exec)
                    .map_err(|e| e.to_string())
                    .map(|_| dplan.output().unwrap());
                let scratch = exec.execute(&plan, db).map_err(|e| e.to_string());
                prop_assert_eq!(refreshed, scratch, "{}: refresh vs eval at round {}", name, round);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: sealed storage under deletes
// ---------------------------------------------------------------------------

/// Deleting rows never re-seals: a segment goes on describing its dead
/// rows, so every zone-map field bounds a superset of what a scan emits.
/// The arms of the pruning rules must stay sound — and byte-identical to
/// the oracle — when exactly the row that set a bound is
/// the one deleted.
#[test]
fn zone_maps_over_deleted_rows_never_misprune() {
    let rows = vec![
        vec![
            Value::Int(0),
            Value::Float(1.0),
            Value::text("a"),
            Value::Null,
        ],
        vec![
            Value::Int(1),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Null,
        ],
        vec![
            Value::Int(2),
            Value::Float(100.0),
            Value::text("z"),
            Value::Null,
        ],
        vec![Value::Int(3), Value::Null, Value::text("m"), Value::Null],
        vec![
            Value::Int(4),
            Value::Float(50.0),
            Value::text("m"),
            Value::Null,
        ],
    ];
    let mut t = Table::from_rows(schema(), rows).unwrap();
    let sealed = std::sync::Arc::clone(&t.segments().segments()[0]);
    let plans = |k: f64| {
        vec![
            Plan::scan("t").select(Expr::col("x").gt(Expr::lit(k))),
            Plan::scan("t").select(Expr::col("x").le(Expr::lit(k))),
            Plan::scan("t").select(Expr::col("x").eq(Expr::lit(k))),
            Plan::scan("t").select(Expr::col("x").ne(Expr::lit(k))),
            Plan::scan("t").select(Expr::col("x").is_null()),
            Plan::scan("t").select(Expr::col("x").is_not_null()),
            Plan::scan("t").select(Expr::col("s").is_null()),
            Plan::scan("t").select(Expr::col("s").ge(Expr::lit("n"))),
        ]
    };
    // Delete, one at a time: the only NaN, the max, the only NULLs, the
    // min, and finally everything. After each, the segment is the same
    // object and every lane agrees with the oracle — errors included
    // (the ordering predicates fail while the NaN is live, and must stop
    // failing the moment it is deleted although `has_nan` stays set).
    for doomed in [1i64, 2, 3, 0, 4] {
        t.delete_where(|r| r[0] == Value::Int(doomed)).unwrap();
        if !t.is_empty() {
            assert!(std::sync::Arc::ptr_eq(&sealed, &t.segments().segments()[0]));
        }
        let mut db = Database::new("d");
        db.create_table(t.clone()).unwrap();
        for plan in [0.5, 50.0, 100.0, 1e9].into_iter().flat_map(plans) {
            assert_storage_agrees(&plan, &db);
            let oracle = plan.eval_materialized(&db);
            let seg = Executor::new().threads(1).execute(&plan, &db);
            assert_eq!(seg, oracle, "{plan:?} after deleting {doomed}");
            assert!(oracle.is_ok(), "no NaN is live: {plan:?}");
        }
    }
    assert_eq!(t.layout().chunks, 0);
}

/// Spans past the run cap are rewritten and dead spans dropped, on real
/// multi-segment tables; scans stay identical to the oracle throughout.
#[test]
fn fragmented_and_dead_spans_stay_bounded_and_identical() {
    use guava_relational::table::MAX_LIVE_RUNS;
    let n = 2 * SEGMENT_ROWS as i64 + 100;
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float((i % 1000) as f64),
                Value::text(format!("g{}", i % 7)),
                Value::Bool(i % 2 == 0),
            ]
        })
        .collect();
    let mut t = Table::from_rows(schema(), rows).unwrap();
    t.segments();
    let plans = [
        Plan::scan("t").select(Expr::col("id").ge(Expr::lit(SEGMENT_ROWS as i64 - 50))),
        Plan::scan("t").select(Expr::col("s").eq(Expr::lit("g3"))),
        Plan::scan("t").aggregate(
            &["s"],
            vec![Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            }],
        ),
        Plan::scan("t").project_cols(&["id"]).join(
            Plan::scan("t")
                .select(Expr::col("x").lt(Expr::lit(3.0)))
                .project(vec![("rid".to_owned(), Expr::col("id"))]),
            vec![("id", "rid")],
            JoinKind::Inner,
        ),
    ];
    let check = |t: &Table| {
        let layout = t.layout();
        assert!(layout.within_bounds(), "{layout:?}");
        let mut db = Database::new("d");
        db.create_table(t.clone()).unwrap();
        for plan in &plans {
            assert_storage_agrees(plan, &db);
        }
    };
    // 200 scattered deletes split the first span into 201 runs: under the
    // cap, so the span is scanned as 201 windows of its original segment.
    let first = std::sync::Arc::clone(&t.segments().segments()[0]);
    t.delete_where(|r| matches!(r[0], Value::Int(i) if i < 20_000 && i % 100 == 50))
        .unwrap();
    assert_eq!(t.layout().scan_parts, 201 + 2);
    assert!(std::sync::Arc::ptr_eq(&first, &t.segments().segments()[0]));
    check(&t);
    // Past the cap the span is rewritten — one window again.
    t.delete_where(|r| matches!(r[0], Value::Int(i) if i < 20_000 && i % 50 == 25))
        .unwrap();
    assert!(t.layout().scan_parts <= 3 && 201 + 400 > MAX_LIVE_RUNS);
    check(&t);
    // A whole span dies: it leaves the chunk list.
    let (lo, hi) = (SEGMENT_ROWS as i64, 2 * SEGMENT_ROWS as i64);
    t.delete_where(|r| matches!(r[0], Value::Int(i) if (lo..hi).contains(&i)))
        .unwrap();
    assert_eq!(t.layout().chunks, 2);
    check(&t);
}

/// A generated report: `(x in halves, x is NaN, s, b)`.
type NewRow = (Option<i64>, bool, Option<String>, Option<bool>);

/// One generation's worth of change.
#[derive(Debug, Clone)]
enum Step {
    /// Append rows.
    Insert(Vec<NewRow>),
    /// Delete the live rows at these positions (mod the live count).
    DeleteAt(Vec<usize>),
    /// Amend the row at this position (delete + re-insert at the end).
    AmendAt(usize),
    /// Delete every row holding the least / greatest non-NaN `x`.
    DeleteMinX,
    DeleteMaxX,
    /// Delete every NaN / every NULL `x`.
    DeleteNanX,
    DeleteNullX,
    /// Delete the oldest third of the table — whole leading spans die.
    DeletePrefix,
    DeleteAll,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let new_rows = proptest::collection::vec(
        (
            proptest::option::of(-8i64..100),
            (0u8..10).prop_map(|n| n == 0),
            proptest::option::of("[a-c]{1,2}"),
            proptest::option::of(any::<bool>()),
        ),
        1..12,
    );
    prop_oneof![
        8 => new_rows.prop_map(Step::Insert),
        5 => proptest::collection::vec(0usize..1000, 1..6).prop_map(Step::DeleteAt),
        4 => (0usize..1000).prop_map(Step::AmendAt),
        1 => Just(Step::DeleteMinX),
        1 => Just(Step::DeleteMaxX),
        1 => Just(Step::DeleteNanX),
        1 => Just(Step::DeleteNullX),
        1 => Just(Step::DeletePrefix),
        1 => Just(Step::DeleteAll),
    ]
}

/// Apply `step` through the capturing catalog (every mutation is one
/// `Table::apply_delta`) and to the plain-vector `model` alike.
fn apply_step(dc: &mut DeltaCatalog, model: &mut Vec<Row>, next_id: &mut i64, step: &Step) {
    let finite_x = |r: &Row| match r[1] {
        Value::Float(f) if !f.is_nan() => Some(f),
        _ => None,
    };
    let ids_at = |model: &Vec<Row>, at: &[usize]| -> Vec<Value> {
        if model.is_empty() {
            return Vec::new();
        }
        at.iter()
            .map(|p| model[p % model.len()][0].clone())
            .collect()
    };
    let delete = |dc: &mut DeltaCatalog, model: &mut Vec<Row>, doomed: &dyn Fn(&Row) -> bool| {
        dc.delete_where("d", "t", doomed).unwrap();
        model.retain(|r| !doomed(r));
    };
    match step {
        Step::Insert(rows) => {
            for (x, nan, s, b) in rows {
                let x = match (nan, x) {
                    (true, _) => Value::Float(f64::NAN),
                    (false, Some(v)) => Value::Float(*v as f64 / 2.0),
                    (false, None) => Value::Null,
                };
                let row = vec![
                    Value::Int(*next_id),
                    x,
                    s.clone().map(Value::text).unwrap_or(Value::Null),
                    b.map(Value::Bool).unwrap_or(Value::Null),
                ];
                *next_id += 1;
                dc.insert("d", "t", row.clone()).unwrap();
                model.push(row);
            }
        }
        Step::DeleteAt(at) => {
            let ids = ids_at(model, at);
            delete(dc, model, &|r| ids.contains(&r[0]));
        }
        Step::AmendAt(at) => {
            let ids = ids_at(model, &[*at]);
            let amend = |r: &mut Row| r[3] = Value::Bool(true);
            dc.update_where("d", "t", |r| ids.contains(&r[0]), amend)
                .unwrap();
            let (mut moved, kept): (Vec<Row>, Vec<Row>) =
                model.drain(..).partition(|r| ids.contains(&r[0]));
            moved.iter_mut().for_each(amend);
            *model = kept;
            model.extend(moved);
        }
        Step::DeleteMinX | Step::DeleteMaxX => {
            let xs = model.iter().filter_map(finite_x);
            let bound = if matches!(step, Step::DeleteMinX) {
                xs.fold(f64::INFINITY, f64::min)
            } else {
                xs.fold(f64::NEG_INFINITY, f64::max)
            };
            delete(dc, model, &|r| finite_x(r) == Some(bound));
        }
        Step::DeleteNanX => delete(
            dc,
            model,
            &|r| matches!(r[1], Value::Float(f) if f.is_nan()),
        ),
        Step::DeleteNullX => delete(dc, model, &|r| r[1].is_null()),
        Step::DeletePrefix => {
            let ids: Vec<Value> = model[..model.len() / 3]
                .iter()
                .map(|r| r[0].clone())
                .collect();
            delete(dc, model, &|r| ids.contains(&r[0]));
        }
        Step::DeleteAll => delete(dc, model, &|_| true),
    }
}

/// Every lane on `db` ≡ the oracle over a table rebuilt from `model`:
/// equal tables on success, failure on all sides otherwise, and the two
/// lanes byte-identical to each other, errors included.
fn check_generation(
    db: &Database,
    model: &[Row],
    plans: &[Plan],
    single_fault: &[Plan],
) -> Result<(), TestCaseError> {
    let layout = db.table("t").unwrap().layout();
    prop_assert!(layout.within_bounds(), "{:?}", layout);
    let rebuilt = db_of(model.to_vec());
    for plan in plans.iter().chain(single_fault) {
        let oracle = plan.eval_materialized(&rebuilt);
        let results: Vec<_> = lanes()
            .into_iter()
            .map(|(name, exec)| (name, exec.execute(plan, db)))
            .collect();
        for (name, got) in &results {
            match (got, &oracle) {
                (Ok(g), Ok(o)) => prop_assert_eq!(g, o, "{} != oracle for {:?}", name, plan),
                (Err(_), Err(_)) => {}
                (g, o) => prop_assert!(false, "{}: {:?} vs oracle {:?} for {:?}", name, g, o, plan),
            }
            prop_assert_eq!(
                got,
                &results[0].1,
                "{} != {} for {:?}",
                name,
                results[0].0,
                plan
            );
        }
        if single_fault.contains(plan) {
            prop_assert_eq!(&results[0].1, &oracle, "single-fault parity for {:?}", plan);
        }
        prop_assert_eq!(
            plan.eval_materialized(db),
            oracle,
            "oracle over persistent storage"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Fifty-plus generations of mixed deltas — including the deletes that
    /// take out exactly the row a zone map was built from — over one
    /// persistent table: every generation, the newest and pinned older
    /// ones, answers random plans byte-identically on both lanes and
    /// the oracle, single-fault error parity included, and never leaves
    /// the layout bounds.
    #[test]
    fn storage_under_deletes_matches_the_oracle_at_every_generation(
        rows in arb_rows(40),
        plan in arb_plan(),
        k in -2i64..60,
        steps in proptest::collection::vec(arb_step(), 50..60),
    ) {
        let mut model = rows.clone();
        let mut next_id = rows.len() as i64;
        let mut cat = Catalog::new();
        cat.insert(db_of(rows));
        let mut dc = DeltaCatalog::new(cat);
        // `x ⟨op⟩ k` errors exactly while a NaN is live: one fault, so
        // every evaluator must report the very same error.
        let single_fault = [
            Plan::scan("t").select(Expr::col("x").ge(Expr::lit(k as f64 / 2.0))),
            Plan::scan("t").select(Expr::col("x").lt(Expr::lit(k as f64 / 2.0))).project_cols(&["id"]),
        ];
        let plans = [
            plan,
            Plan::scan("t").select(Expr::col("x").eq(Expr::lit(k as f64 / 2.0))),
            Plan::scan("t").select(Expr::col("x").is_null()),
            Plan::scan("t").select(Expr::col("id").ge(Expr::lit(k))).project_cols(&["id", "s"]),
        ];
        let mut pinned: Vec<(Database, Vec<Row>)> = Vec::new();
        for (g, step) in steps.iter().enumerate() {
            apply_step(&mut dc, &mut model, &mut next_id, step);
            let db = dc.catalog().database("d").unwrap();
            // Scanning seals; the next generation deletes under that seal.
            check_generation(db, &model, &plans, &single_fault)?;
            if g % 16 == 3 {
                pinned.push((db.clone(), model.clone()));
            }
        }
        for (db, model) in &pinned {
            check_generation(db, model, &plans, &single_fault)?;
        }
    }
}
