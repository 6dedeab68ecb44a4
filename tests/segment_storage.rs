//! Columnar resting storage (DESIGN.md §14): segment construction edge
//! cases — NaN / `-0.0` / huge-integer zone maps, null-only columns,
//! empty tables, dictionary overflow — plus the equivalence bar: scans
//! over sealed segments, in the serial and the parallel executor, must
//! stay **byte-identical** to the materializing interpreter (same rows,
//! same order, same first error) — the oracle walks each table's rows
//! and knows nothing of segments or zone maps — and `DeltaPlan`
//! refreshes must agree with a from-scratch evaluation round after
//! round.

use guava::prelude::*;
use guava_relational::segment::{Segment, DICT_MAX, SEGMENT_ROWS};
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
    assert_eq!(hit.row_at(0).unwrap()[0], Value::Int(BIG + 1));
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

/// The `Arc<str>` a text cell holds.
fn text_arc(v: &Value) -> &std::sync::Arc<str> {
    match v {
        Value::Text(s) => s,
        other => panic!("not text: {other:?}"),
    }
}

/// A sealed text column holds the rows' own strings: rows that hold the
/// same string read back as one allocation from a dictionary (the first
/// such row's), and each row's own from plain storage. Every row here
/// allocates its string separately, so sharing can only come from the
/// segment handing cells back instead of copying them.
#[test]
fn sealed_text_cells_share_the_rows_allocations() {
    let rows: Vec<Row> = (0..2000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Null,
                Value::text(format!("tag-{}", i % 16)),
                Value::Null,
            ]
        })
        .collect();
    let db = db_of(rows);
    let t = db.table("t").unwrap();
    let col = t.segments().segments()[0].column(2);
    assert_eq!(col.encoding(), "dict");
    let (a, b) = (col.value(3), col.value(3 + 16));
    assert_eq!(a, b);
    assert!(std::sync::Arc::ptr_eq(text_arc(&a), text_arc(&b)));
    let own = t.row_at(3).unwrap();
    assert!(std::sync::Arc::ptr_eq(text_arc(&a), text_arc(&own[2])));
    assert!(!std::sync::Arc::ptr_eq(
        text_arc(&own[2]),
        text_arc(&t.row_at(3 + 16).unwrap()[2])
    ));

    let rows: Vec<Row> = (0..(DICT_MAX as i64 + 100))
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Null,
                Value::text(format!("unique-{i}")),
                Value::Null,
            ]
        })
        .collect();
    let db = db_of(rows);
    let t = db.table("t").unwrap();
    let col = t.segments().segments()[0].column(2);
    assert_eq!(col.encoding(), "str");
    for i in [0, 7, DICT_MAX + 99] {
        assert!(std::sync::Arc::ptr_eq(
            text_arc(&col.value(i)),
            text_arc(&t.row_at(i).unwrap()[2])
        ));
    }
}

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

    /// Segment-backed scans are byte-identical to the oracle's row walk
    /// in both lanes: same table (schema, rows, order)
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
    // cap, so the span is scanned as one window of its original segment,
    // 200 rows dead in it.
    let first = std::sync::Arc::clone(&t.segments().segments()[0]);
    t.delete_where(|r| matches!(r[0], Value::Int(i) if i < 20_000 && i % 100 == 50))
        .unwrap();
    let layout = t.layout();
    assert_eq!((layout.chunks, layout.dead_rows_under_seals), (3, 200));
    assert!(std::sync::Arc::ptr_eq(&first, &t.segments().segments()[0]));
    check(&t);
    // Past the cap (601 runs) the span is rewritten without its dead rows:
    // a segment of its own, nothing dead under any seal.
    t.delete_where(|r| matches!(r[0], Value::Int(i) if i < 20_000 && i % 50 == 25))
        .unwrap();
    const _: () = assert!(201 + 400 > MAX_LIVE_RUNS);
    assert!(!std::sync::Arc::ptr_eq(&first, &t.segments().segments()[0]));
    let layout = t.layout();
    assert_eq!((layout.chunks, layout.dead_rows_under_seals), (3, 0));
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

// ---------------------------------------------------------------------------
// Columns imaged on first read
// ---------------------------------------------------------------------------

/// One column per storage encoding (two FLOAT ones: `f` is clean, `g`
/// holds the only NaN), NULLs in each, 1 100 rows in one chunk.
fn encodings_table() -> Table {
    use DataType::*;
    let cols = [
        ("i", Int),
        ("f", Float),
        ("g", Float),
        ("b", Bool),
        ("d", Date),
        ("s", Text),
        ("t", Text),
        ("m", Float),
    ];
    let schema = Schema::new(
        "t",
        cols.iter().map(|(n, ty)| Column::new(*n, *ty)).collect(),
    )
    .unwrap();
    let rows = (0..1100i64).map(|k| {
        let nullable = |v: Value, every: i64| if k % every == 0 { Value::Null } else { v };
        let int = match k {
            // The extremes, each held by one row.
            40 => 1 << 53,
            41 => -(1 << 53),
            _ => k % 9 - 2,
        };
        let float = [-0.0, 0.0, 1.5, -3.25][k as usize % 4];
        vec![
            nullable(Value::Int(int), 11),
            nullable(Value::Float(if k == 77 { 1e9 } else { float }), 7),
            nullable(Value::Float(if k == 500 { f64::NAN } else { float }), 7),
            nullable(Value::Bool(k % 3 == 0), 5),
            nullable(Value::Date(k % 6), 13),
            // 1 100 distinct strings: past DICT_MAX, plain storage.
            nullable(Value::text(format!("s-{k:04}")), 17),
            nullable(Value::text(format!("grp-{}", k % 4)), 3),
            // INTs widened into a FLOAT column demote it to `Mixed`.
            nullable(
                if k % 2 == 0 {
                    Value::Int(k % 5)
                } else {
                    Value::Float(0.5)
                },
                19,
            ),
        ]
    });
    Table::from_rows(schema, rows).unwrap()
}

/// Every `column ⟨op⟩ literal` shape the lanes and zone maps take, over
/// every column of [`encodings_table`]: own-domain literals at and beyond
/// the bounds, a foreign literal, NULL and NaN.
fn encoding_plans() -> Vec<Plan> {
    let nan = Value::Float(f64::NAN);
    let own: [(&str, Vec<Value>, Value); 8] = [
        (
            "i",
            vec![Value::Int(3), Value::Int(1 << 53), Value::Float(2.5)],
            Value::text("3"),
        ),
        (
            "f",
            vec![Value::Float(-0.0), Value::Float(1e9), Value::Int(1)],
            Value::Bool(true),
        ),
        ("g", vec![Value::Float(1.5), Value::Int(0)], Value::Date(1)),
        (
            "b",
            vec![Value::Bool(true), Value::Bool(false)],
            Value::Int(1),
        ),
        ("d", vec![Value::Date(5), Value::Date(-1)], Value::Int(3)),
        (
            "s",
            vec![Value::text("s-0500"), Value::text("s-")],
            Value::Int(0),
        ),
        (
            "t",
            vec![Value::text("grp-3"), Value::text("zzz")],
            Value::Float(2.0),
        ),
        (
            "m",
            vec![Value::Int(2), Value::Float(0.5)],
            Value::text("2"),
        ),
    ];
    type Build = fn(Expr, Expr) -> Expr;
    let compare: [Build; 6] = [Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge];
    let mut plans = Vec::new();
    for (name, same_domain, foreign) in &own {
        let scan = || Plan::scan("t");
        plans.push(scan().select(Expr::col(*name).is_null()));
        plans.push(scan().select(Expr::col(*name).is_not_null()));
        for build in compare {
            let lits = same_domain.iter().chain([foreign, &Value::Null, &nan]);
            for lit in lits {
                plans.push(scan().select(build(Expr::col(*name), Expr::Lit(lit.clone()))));
            }
        }
    }
    plans
}

/// A column imaged after deletes that followed the seal is the column an
/// image built at the seal would have been — same storage, same nulls,
/// same zone map over the sealed superset — for every encoding and every
/// zone-map arm (NULL counts, the only NaN, both extremes, all deleted
/// before anything read them); and both answer every lane mask, prune and
/// first error exactly as the oracle does.
#[test]
fn columns_imaged_after_deletes_match_columns_imaged_at_the_seal() {
    // Rows that set a bound: the min and max of `i`, the max of `f`, the
    // only NaN of `g`, every NULL of `d`, plus a run and a stray.
    let dead = |r: &[Value]| {
        let key = match &r[5] {
            Value::Text(s) => s[2..].parse::<i64>().unwrap(),
            _ => return r[4].is_null(),
        };
        [40, 41, 77, 500, 707].contains(&key) || (300..310).contains(&key) || r[4].is_null()
    };
    let mut early = encodings_table();
    let arity = early.schema().arity();
    for c in 0..arity {
        early.segments().segments()[0].column(c);
    }
    let mut late = encodings_table();
    late.segments();
    early.delete_where(dead).unwrap();
    late.delete_where(dead).unwrap();
    let (e, l) = (early.layout(), late.layout());
    assert_eq!((e.imaged_columns, l.imaged_columns), (arity, 0));
    assert!(l.dead_rows_under_seals > 0, "{l:?}");

    let db = |t: &Table| {
        let mut db = Database::new("d");
        db.create_table(t.clone()).unwrap();
        db
    };
    let (early_db, late_db) = (db(&early), db(&late));
    let (mut errors, mut rows) = (0, 0);
    for plan in encoding_plans() {
        let oracle = plan.eval_materialized(&late_db);
        for (name, exec) in lanes() {
            let got_late = exec.execute(&plan, &late_db);
            assert_eq!(got_late, oracle, "{name}: late image vs oracle, {plan:?}");
            let got_early = exec.execute(&plan, &early_db);
            assert_eq!(got_early, oracle, "{name}: early image vs oracle, {plan:?}");
        }
        match oracle {
            Ok(t) => rows += t.len(),
            Err(_) => errors += 1,
        }
    }
    assert!(errors > 0 && rows > 0);
    // The plans read every column; each late image equals the early one.
    let (segs_e, segs_l) = (early.segments().segments(), late.segments().segments());
    assert_eq!(late.layout().imaged_columns, arity);
    let encodings: Vec<_> = (0..arity).map(|c| segs_l[0].column(c).encoding()).collect();
    assert_eq!(
        encodings,
        ["int", "float", "float", "bool", "date", "str", "dict", "mixed"]
    );
    for c in 0..arity {
        // Through `Debug`, where a NaN is equal to itself and `-0.0` is not
        // `0.0`: the images are the same bits.
        let image = |seg: &Segment| format!("{:?}", seg.column(c));
        assert!(image(&segs_l[0]) == image(&segs_e[0]), "column {c}");
    }
    // The superset, read late: the deleted rows still set the bounds.
    assert!(segs_l[0].zone(2).has_nan);
    assert_eq!(segs_l[0].zone(0).max, Value::Int(1 << 53));
    assert!(segs_l[0].zone(4).null_count > 0);
}

/// Scans in flight at once, serial and morsel-parallel at every morsel
/// size, race to image the same columns of one fresh table: each lands
/// the oracle's table, and between them they image exactly the columns a
/// lane mask or prune names — one per chunk, however many scans and
/// morsel workers asked for it. A row walk (a `CASE` projection, a filter
/// behind a projection) images none.
#[test]
fn racing_scans_image_each_named_column_once() {
    let row = |i: i64| {
        vec![
            Value::Int(i),
            if i % 9 == 0 {
                Value::Null
            } else {
                Value::Float((i % 100) as f64)
            },
            Value::text(format!("grp-{}", i % 5)),
            Value::Bool(i % 2 == 0),
        ]
    };
    // Four chunks: one past the small threshold, then appends that do not
    // merge (each is under half the one before).
    let fresh = || {
        let mut t = Table::from_rows(schema(), (0..5000).map(row)).unwrap();
        let mut next = 5000;
        for n in [2000, 900, 400] {
            let delta = TableDelta {
                pre_len: t.len(),
                deleted: Vec::new(),
                inserted: (next..next + n).map(row).collect(),
            };
            t = t.apply_delta(&delta).unwrap();
            next += n;
        }
        t
    };
    let chunks = fresh().layout().chunks;
    assert_eq!(chunks, 4);
    let plans = [
        Plan::scan("t").select(Expr::col("x").ge(Expr::lit(40.0))),
        Plan::scan("t").select(
            Expr::col("s")
                .eq(Expr::lit("grp-1"))
                .and(Expr::col("b").eq(Expr::lit(true))),
        ),
        Plan::scan("t").select(Expr::col("x").lt(Expr::lit(10.0))),
        Plan::scan("t")
            .project_cols(&["id", "x"])
            .select(Expr::col("id").ge(Expr::lit(100i64))),
        Plan::scan("t").project(vec![(
            "band".to_owned(),
            Expr::Case {
                arms: vec![(Expr::col("x").gt(Expr::lit(50.0)), Expr::lit("hi"))],
                default: Box::new(Expr::lit("lo")),
            },
        )]),
    ];
    let oracle_db = {
        let mut db = Database::new("d");
        db.create_table(fresh()).unwrap();
        db
    };
    let oracle: Vec<_> = plans
        .iter()
        .map(|p| p.eval_materialized(&oracle_db))
        .collect();
    for threads in [1, 2] {
        for morsel in [1, 3, 64, 1000, 4096] {
            let exec = Executor::new()
                .threads(threads)
                .parallel_threshold(1)
                .morsel_size(morsel);
            let mut db = Database::new("d");
            db.create_table(fresh()).unwrap();
            let db = &db;
            // The three scans start together, none having imaged anything.
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|scope| {
                let runs: Vec<_> = (0..3)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            plans.iter().map(|p| exec.execute(p, db)).collect()
                        })
                    })
                    .collect();
                for run in runs {
                    let got: Vec<_> = run.join().unwrap();
                    assert_eq!(got, oracle, "threads {threads}, morsel {morsel}");
                }
            });
            // `x`, `s` and `b`, once per chunk; `id` only behind a projection.
            let layout = db.table("t").unwrap().layout();
            assert_eq!(layout.imaged_columns, 3 * chunks, "morsel {morsel}");
        }
    }
}

/// A column imaged through one generation is the very column every
/// generation that keeps the chunk reads, deletes or not — and one first
/// read through a later generation is imaged for the earlier one too:
/// they share the segment, so they share its columns.
#[test]
fn imaged_columns_are_shared_across_generations() {
    use std::sync::Arc;
    let rows: Vec<Row> = (0..3000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(i as f64),
                Value::text(format!("grp-{}", i % 3)),
                Value::Null,
            ]
        })
        .collect();
    let g0 = Table::from_rows(schema(), rows).unwrap();
    let seg = Arc::clone(&g0.segments().segments()[0]);
    let x = seg.column(1);
    let delta = TableDelta {
        pre_len: g0.len(),
        deleted: vec![(7, g0.row_at(7).unwrap().clone())],
        inserted: vec![vec![Value::Int(-1), Value::Null, Value::Null, Value::Null]],
    };
    let g1 = g0.apply_delta(&delta).unwrap();
    let mut db = Database::new("d");
    db.create_table(g1.clone()).unwrap();
    let plan = Plan::scan("t").select(Expr::col("s").eq(Expr::lit("grp-1")));
    assert_storage_agrees(&plan, &db);
    let shared = &g1.segments().segments()[0];
    assert!(Arc::ptr_eq(&seg, shared));
    assert!(std::ptr::eq(x, shared.column(1)));
    // `s` was first read through g1, and g0 has it too.
    assert_eq!(g0.layout().imaged_columns, 2);
    assert!(std::ptr::eq(seg.column(2), shared.column(2)));
}

// ---------------------------------------------------------------------------
// Selections share their source
// ---------------------------------------------------------------------------

fn source_row(i: i64) -> Row {
    vec![
        Value::Int(i),
        Value::Float((i % 10) as f64),
        Value::text(format!("g{}", i % 3)),
        Value::Bool(i % 2 == 0),
    ]
}

/// Two sealed chunks — `head` rows, then `tail` appended after the seal
/// — with every `every`-th row and a run of 100 deleted under both seals
/// (too few runs for the edit path to rewrite a chunk).
fn masked_source(head: i64, tail: i64, every: i64) -> Table {
    let mut t = Table::from_rows(schema(), (0..head).map(source_row)).unwrap();
    t.segments();
    for i in head..head + tail {
        t.insert(source_row(i)).unwrap();
    }
    t.segments();
    t.delete_where(
        |r| matches!(r[0], Value::Int(i) if i % every == 0 || (1000..1100).contains(&i)),
    )
    .unwrap();
    let layout = t.layout();
    assert_eq!((layout.chunks, layout.sealed_spans), (2, 2), "{layout:?}");
    assert!(layout.dead_rows_under_seals > 300, "{layout:?}");
    t
}

fn db_with(t: &Table) -> Database {
    let mut db = Database::new("d");
    db.create_table(t.clone()).unwrap();
    db
}

/// Lane conjuncts first, then a conjunct that fails on every row it
/// reaches: the error is the first *live* selected row's, never that of
/// a dead row the lane masks also ran over — at the head of a chunk and
/// past the head of the appended one.
#[test]
fn a_fallible_conjunct_after_lane_conjuncts_raises_the_walks_first_error() {
    let t = masked_source(3000, 500, 13);
    let db = db_with(&t);
    let failing = Expr::col("s").lt(Expr::col("id"));
    for (lanes_first, dead, first) in [
        // Row 0 (g0, even) is dead; row 6 is the first live one.
        (
            Expr::col("b")
                .eq(Expr::lit(true))
                .and(Expr::col("s").eq(Expr::lit("g0"))),
            0,
            6,
        ),
        // Row 3003 (g0) is dead, in the chunk appended after the seal.
        (
            Expr::col("id")
                .ge(Expr::lit(3003i64))
                .and(Expr::col("s").eq(Expr::lit("g0"))),
            3003,
            3006,
        ),
    ] {
        let plan = Plan::scan("t").select(lanes_first).select(failing.clone());
        assert_storage_agrees(&plan, &db);
        let err = Executor::new().execute(&plan, &db).unwrap_err();
        let at = |i: i64| failing.matches(db.table("t").unwrap().schema(), &source_row(i));
        assert_eq!(Err(err.clone()), at(first), "{plan:?}");
        assert_ne!(Err(err), at(dead), "the walk reached a dead row: {plan:?}");
    }
}

/// A source whose chunks each keep more than a small chunk's worth of
/// live rows under a one-in-three selection, so results keep them as
/// windows.
fn large_masked_source() -> Table {
    masked_source(20_000, 15_000, 97)
}

/// A masked result is a table like any other: insert, delete and patch
/// it, and the source it shares chunks, seals and masks with is
/// untouched.
#[test]
fn a_masked_result_mutates_apart_from_its_source() {
    let t = large_masked_source();
    let before = t.rows_from(0);
    let db = db_with(&t);
    let plan = Plan::scan("t").select(Expr::col("s").eq(Expr::lit("g1")));
    for (name, exec) in lanes() {
        let mut r = exec.execute(&plan, &db).unwrap();
        assert_eq!(
            r.chunks_not_in(&t),
            0,
            "{name}: the result is the source's chunks"
        );
        let mut model = r.rows_from(0);
        r.insert(source_row(10_000)).unwrap();
        model.push(source_row(10_000));
        let fifth = |row: &[Value]| matches!(row[0], Value::Int(i) if i % 5 == 0);
        r.delete_where(fifth).unwrap();
        model.retain(|row| !fifth(row));
        let patch = Patch::new(vec![0, 7], vec![(3, vec![source_row(20_000)])]).unwrap();
        r.patch(&patch).unwrap();
        let model = patch.apply(model);
        assert!(r.iter_rows().eq(model.iter()), "{name}");
        let source = db.table("t").unwrap();
        assert!(source.same_storage(&t), "{name}: the source's masks moved");
        assert_eq!(source.rows_from(0), before, "{name}");
    }
}

/// A second query over a masked result reads its source's segments: a
/// column the first query imaged is not imaged again, and one it did not
/// is imaged once, for both tables.
#[test]
fn a_masked_result_scanned_again_reuses_its_sources_images() {
    let t = large_masked_source();
    let db = db_with(&t);
    let g1 = Expr::col("s").eq(Expr::lit("g1"));
    let r = Executor::new()
        .execute(&Plan::scan("t").select(g1.clone()), &db)
        .unwrap();
    let imaged = |t: &Table| t.layout().imaged_columns;
    let source = db.table("t").unwrap();
    assert_eq!((imaged(source), imaged(&r)), (2, 2));
    let again = db_with(&r);
    let same = Plan::scan("t").select(g1.clone());
    assert_storage_agrees(&same, &again);
    assert_eq!((imaged(source), imaged(&r)), (2, 2));
    let more = Plan::scan("t").select(g1.and(Expr::col("b").eq(Expr::lit(true))));
    assert_storage_agrees(&more, &again);
    assert_eq!((imaged(source), imaged(&r)), (4, 4));
}

/// On the wire a masked result is its live rows, exactly what a copied
/// result writes, and it reads back as that copy.
#[test]
fn a_masked_results_json_is_the_copied_results() {
    let t = large_masked_source();
    let db = db_with(&t);
    let plan = Plan::scan("t").select(Expr::col("s").eq(Expr::lit("g2")));
    for (name, exec) in lanes() {
        let r = exec.execute(&plan, &db).unwrap();
        assert!(r.layout().dead_rows_under_seals > 0, "{name}");
        let copied = Table::from_rows(r.schema().clone(), r.rows_from(0)).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(json, serde_json::to_string(&copied).unwrap(), "{name}");
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, copied, "{name}");
    }
}

/// `σ[lane-only](scan t)`, bare or under a `Rename`, clones no row: every
/// chunk of the result is a window of `t`'s own backing, its rows the
/// very rows `t` holds; a filter that drops nothing keeps `t`'s masks too.
#[test]
fn a_lane_only_selection_shares_its_sources_backing() {
    let n = 2 * SEGMENT_ROWS as i64 + 10_000;
    let t = Table::from_rows(schema(), (0..n).map(source_row)).unwrap();
    let db = db_with(&t);
    let even = Expr::col("b").eq(Expr::lit(true));
    let renamed = Plan::scan("t")
        .select(even.clone())
        .rename_columns(vec![("id", "key")]);
    for (name, exec) in lanes() {
        for plan in [Plan::scan("t").select(even.clone()), renamed.clone()] {
            let r = exec.execute(&plan, &db).unwrap();
            assert_eq!(r.len(), n as usize / 2, "{name}");
            assert_eq!(
                (r.layout().chunks, r.chunks_not_in(&t)),
                (3, 0),
                "{name}: {plan:?}"
            );
            assert!(std::ptr::eq(r.row_at(1).unwrap(), t.row_at(2).unwrap()));
            assert_eq!(r, plan.eval_materialized(&db).unwrap(), "{name}");
        }
        let all = Plan::scan("t").select(Expr::col("id").ge(Expr::lit(0i64)));
        assert!(exec.execute(&all, &db).unwrap().same_storage(&t), "{name}");
        // A few rows are copied rather than keep a chunk's backing alive.
        let few = Plan::scan("t").select(Expr::col("id").lt(Expr::lit(10i64)));
        let r = exec.execute(&few, &db).unwrap();
        assert_eq!((r.len(), r.chunks_not_in(&t)), (10, 1), "{name}");
        assert_eq!(r.layout().dead_rows_under_seals, 0, "{name}");
    }
}

/// Masked windows through every operator at morsel sizes 1, 7 and 1 024,
/// serial and on two threads: the oracle's tables, `Limit` cutting a
/// window's live rows included.
#[test]
fn masked_windows_agree_at_every_morsel_size() {
    let t = masked_source(3000, 500, 13);
    let db = db_with(&t);
    let g1 = || Plan::scan("t").select(Expr::col("s").eq(Expr::lit("g1")));
    let even = || Plan::scan("t").select(Expr::col("b").eq(Expr::lit(true)));
    let plans = [
        g1(),
        g1().limit(700),
        even().limit(1_700),
        g1().select(Expr::col("x").gt(Expr::lit(3.0))),
        g1().aggregate(
            &["b"],
            vec![Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            }],
        ),
        g1().join(
            even().project(vec![("eid".to_owned(), Expr::col("id"))]),
            vec![("id", "eid")],
            JoinKind::Left,
        ),
        Plan::union(vec![g1(), even()]),
        g1().project_cols(&["x"]).distinct(),
        even().sort_by(&["x"]),
        Plan::Unpivot {
            input: Box::new(g1().limit(50)),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
        },
    ];
    for plan in &plans {
        let oracle = plan.eval_materialized(&db).unwrap();
        for morsel in [1, 7, 1024] {
            for threads in [1, 2] {
                let exec = Executor::new()
                    .threads(threads)
                    .parallel_threshold(1)
                    .morsel_size(morsel);
                let got = exec.execute(plan, &db).unwrap();
                assert_eq!(got, oracle, "morsel {morsel}, {threads} threads: {plan:?}");
            }
        }
    }
}
