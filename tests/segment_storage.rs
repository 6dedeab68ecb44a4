//! Columnar resting storage (DESIGN.md §14): segment construction edge
//! cases — NaN / `-0.0` / huge-integer zone maps, null-only columns,
//! empty tables, dictionary overflow — plus the storage-mode equivalence
//! bar: scans over sealed segments must stay **byte-identical** to
//! row-store scans (same rows, same order, same first error) in the
//! serial and the parallel executor, and `DeltaPlan` refreshes must agree between the
//! two storage modes round after round.

use guava::prelude::*;
use guava_relational::segment::{DICT_MAX, SEGMENT_ROWS};
use proptest::prelude::*;

mod common;
use common::lanes_on as lanes;

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

/// Assert row and segment storage agree on `plan` in every lane: equal
/// tables on success, equal errors on failure.
fn assert_storage_agrees(plan: &Plan, db: &Database) {
    for ((name, row_exec), (_, seg_exec)) in lanes(StorageMode::Row)
        .into_iter()
        .zip(lanes(StorageMode::Segment))
    {
        let row = row_exec.execute(plan, db);
        let seg = seg_exec.execute(plan, db);
        match (row, seg) {
            (Ok(r), Ok(s)) => assert_eq!(r, s, "{name}: row != segment for {plan:?}"),
            (Err(r), Err(s)) => assert_eq!(r, s, "{name}: errors differ for {plan:?}"),
            (r, s) => panic!("{name}: storages disagree for {plan:?}: {r:?} vs {s:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Zone-map edge cases
// ---------------------------------------------------------------------------

#[test]
fn nan_in_column_blocks_ordering_prunes_but_not_eq() {
    // A NaN row makes ordering comparisons a hard error in the row
    // kernels; segment scans must refuse the zone-map skip and reproduce
    // that exact error rather than silently pruning it away.
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
        // Dict lane surviving a passthrough projection, then compared.
        Plan::scan("t")
            .project_cols(&["s", "b"])
            .select(Expr::col("s").eq(Expr::lit("grp-1"))),
        // Dict lane flowing into blocking operators.
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
    // Appends land in the row-form delta store past the sealed prefix.
    for i in 1000..1500 {
        t.insert(vec![
            Value::Int(i),
            Value::Float(i as f64),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
    }
    assert_eq!(t.unsealed_rows(), 500);
    assert!(!t.compact_segments(), "below the compaction threshold");
    let mut db = Database::new("d");
    db.create_table(t).unwrap();
    let plan = Plan::scan("t").select(Expr::col("id").ge(Expr::lit(990i64)));
    assert_storage_agrees(&plan, &db);
    assert_eq!(plan.eval(&db).unwrap().len(), 510);
    // Past the threshold the tail seals into fresh segments.
    let t = db.table_mut("t").unwrap();
    for i in 1500..(1000 + SEGMENT_ROWS as i64 / 8) {
        t.insert(vec![Value::Int(i), Value::Null, Value::Null, Value::Null])
            .unwrap();
    }
    assert!(t.compact_segments());
    assert_eq!(t.unsealed_rows(), 0);
    assert_eq!(t.segments().covered(), t.len());
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

    /// Segment-backed scans are byte-identical to row-store scans in
    /// both lanes: same table (schema, rows, order) on success, same
    /// error on failure.
    #[test]
    fn segment_scans_match_row_scans(rows in arb_rows(40), plan in arb_plan()) {
        let d = db_of(rows);
        for ((name, row_exec), (_, seg_exec)) in
            lanes(StorageMode::Row).into_iter().zip(lanes(StorageMode::Segment))
        {
            let row = row_exec.execute(&plan, &d);
            let seg = seg_exec.execute(&plan, &d);
            match (row, seg) {
                (Ok(r), Ok(s)) => prop_assert_eq!(r, s, "{}: row != segment", name),
                (Err(r), Err(s)) => prop_assert_eq!(r, s, "{}: errors differ", name),
                (r, s) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: storages disagree for {plan:?}: {r:?} vs {s:?}"
                    )));
                }
            }
        }
    }

    /// `DeltaPlan` incremental refresh agrees between the two storage
    /// modes after every round of captured inserts — the catalog path
    /// exercises segment adoption and compaction in `DeltaCatalog`.
    #[test]
    fn delta_plan_refresh_agrees_across_storage_modes(
        rows in arb_rows(20),
        plan in arb_plan(),
        extra in proptest::collection::vec(
            (proptest::option::of(-8i64..100), proptest::option::of("[a-c]{1,2}")),
            1..12,
        ),
    ) {
        let mut execs: Vec<(Executor, Option<DeltaPlan>)> = [StorageMode::Row, StorageMode::Segment]
            .into_iter()
            .map(|st| (Executor::new().threads(1).storage(st), None))
            .collect();
        let base = rows.len() as i64;
        let mut catalogs: Vec<DeltaCatalog> = (0..2)
            .map(|_| {
                let mut cat = Catalog::new();
                cat.insert({
                    let mut db = Database::new("d");
                    db.create_table(Table::from_rows(schema(), rows.clone()).unwrap()).unwrap();
                    db
                });
                DeltaCatalog::new(cat)
            })
            .collect();
        for (exec, slot) in &mut execs {
            // Faulty plans must fail identically under both storages.
            *slot = DeltaPlan::init(&plan, catalogs[0].catalog().database("d").unwrap(), exec).ok();
        }
        prop_assert_eq!(execs[0].1.is_some(), execs[1].1.is_some(), "init disagreement");
        for (round, (x, s)) in extra.into_iter().enumerate() {
            let row = vec![
                Value::Int(base + round as i64),
                x.map(|v| Value::Float(v as f64 / 2.0)).unwrap_or(Value::Null),
                s.map(Value::text).unwrap_or(Value::Null),
                Value::Null,
            ];
            let mut outputs = Vec::new();
            for ((exec, slot), dc) in execs.iter_mut().zip(&mut catalogs) {
                dc.insert("d", "t", row.clone()).unwrap();
                let deltas = dc.take_deltas();
                let mut changes = TableChanges::new();
                if let Some(d) = deltas.get("d", "t") {
                    changes.set("t", d.to_change());
                }
                let db = dc.catalog().database("d").unwrap();
                if let Some(dplan) = slot {
                    let refreshed = dplan.refresh(db, &changes, exec);
                    outputs.push(refreshed.err().map(|e| e.to_string()).map_or_else(
                        || Ok(dplan.output().unwrap()),
                        Err,
                    ));
                }
            }
            if let [a, b] = &outputs[..] {
                prop_assert_eq!(a, b, "row vs segment refresh disagree at round {}", round);
            }
        }
    }
}
