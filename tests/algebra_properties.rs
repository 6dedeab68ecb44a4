//! Property-based validation of the relational substrate — the algebraic
//! identities GUAVA's query rewriting silently relies on. If any of these
//! breaks, pattern decode plans stop being meaning-preserving.

use guava::prelude::*;
use guava_relational::algebra::{AggFunc, Aggregate};
use guava_relational::value::DataType;
use proptest::prelude::*;

mod common;
use common::lanes;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            Column::required("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Bool),
            Column::new("s", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap()
}

prop_compose! {
    fn arb_rows(max: usize)(
        rows in proptest::collection::vec(
            (
                proptest::option::of(0i64..50),
                proptest::option::of(any::<bool>()),
                proptest::option::of("[a-c]{1,3}"),
            ),
            0..max,
        )
    ) -> Vec<Row> {
        rows.into_iter()
            .enumerate()
            .map(|(i, (a, b, s))| {
                vec![
                    Value::Int(i as i64),
                    a.map(Value::Int).unwrap_or(Value::Null),
                    b.map(Value::Bool).unwrap_or(Value::Null),
                    s.map(Value::text).unwrap_or(Value::Null),
                ]
            })
            .collect()
    }
}

fn db(rows: Vec<Row>) -> Database {
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema(), rows).unwrap())
        .unwrap();
    db
}

fn sorted(t: &Table) -> Vec<Row> {
    let mut rows = t.rows_from(0);
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// σ_p(σ_q(T)) == σ_{p AND q}(T) — selections fuse.
    #[test]
    fn selection_fusion(rows in arb_rows(30), k in 0i64..50) {
        let d = db(rows);
        let p = Expr::col("a").ge(Expr::lit(k));
        let q = Expr::col("b").eq(Expr::lit(true));
        let nested = Plan::scan("t").select(q.clone()).select(p.clone()).eval(&d).unwrap();
        let fused = Plan::scan("t").select(p.and(q)).eval(&d).unwrap();
        prop_assert_eq!(sorted(&nested), sorted(&fused));
    }

    /// σ commutes with π when the projection keeps the predicate columns.
    #[test]
    fn selection_projection_commute(rows in arb_rows(30), k in 0i64..50) {
        let d = db(rows);
        let p = Expr::col("a").lt(Expr::lit(k));
        let before = Plan::scan("t")
            .select(p.clone())
            .project_cols(&["id", "a"])
            .eval(&d)
            .unwrap();
        let after = Plan::scan("t")
            .project_cols(&["id", "a"])
            .select(p)
            .eval(&d)
            .unwrap();
        prop_assert_eq!(sorted(&before), sorted(&after));
    }

    /// Bag union is commutative up to reordering, and distinct makes the
    /// two orders identical as sets.
    #[test]
    fn union_commutative_under_distinct(rows1 in arb_rows(20), rows2 in arb_rows(20)) {
        let d1 = db(rows1);
        let d2 = db(rows2);
        let mut d = Database::new("both");
        let mut t1 = d1.table("t").unwrap().clone();
        t1 = Table::from_rows(t1.schema().renamed("t1"), t1.into_rows()).unwrap();
        let mut t2 = d2.table("t").unwrap().clone();
        t2 = Table::from_rows(t2.schema().renamed("t2"), t2.into_rows()).unwrap();
        d.create_table(t1).unwrap();
        d.create_table(t2).unwrap();
        let ab = Plan::union(vec![Plan::scan("t1"), Plan::scan("t2")]).distinct().eval(&d).unwrap();
        let ba = Plan::union(vec![Plan::scan("t2"), Plan::scan("t1")]).distinct().eval(&d).unwrap();
        prop_assert_eq!(sorted(&ab), sorted(&ba));
    }

    /// Unpivot/pivot over the instance key is the identity on tables whose
    /// values survive textual round-trips (ints/bools/short text).
    #[test]
    fn unpivot_pivot_identity(rows in arb_rows(25)) {
        let d = db(rows);
        let eav = Plan::Unpivot {
            input: Box::new(Plan::scan("t")),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
        };
        let back = Plan::Pivot {
            input: Box::new(eav),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
            attrs: vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Bool),
                ("s".into(), DataType::Text),
            ],
        }
        .eval(&d)
        .unwrap();
        // Rows whose data columns are all NULL vanish in the EAV encoding
        // (the Generic *pattern* adds presence markers; the raw operator
        // does not). Compare against the non-empty rows.
        let original = d.table("t").unwrap();
        let expected: Vec<Row> = original
            .iter_rows()
            .filter(|r| r[1..].iter().any(|v| !v.is_null()))
            .cloned()
            .collect();
        prop_assert_eq!(sorted(&back), {
            let mut e = expected;
            e.sort();
            e
        });
    }

    /// COUNT(*) after a selection equals the number of rows matching the
    /// predicate under three-valued logic.
    #[test]
    fn count_matches_filter_semantics(rows in arb_rows(40), k in 0i64..50) {
        let d = db(rows);
        let p = Expr::col("a").gt(Expr::lit(k));
        let counted = Plan::scan("t")
            .select(p.clone())
            .aggregate(&[], vec![Aggregate { func: AggFunc::CountAll, alias: "n".into() }])
            .eval(&d)
            .unwrap();
        let manual = d
            .table("t")
            .unwrap()
            .iter_rows()
            .filter(|r| p.matches(&schema(), r).unwrap())
            .count();
        prop_assert_eq!(counted.row_at(0).unwrap()[0].clone(), Value::Int(manual as i64));
    }

    /// Join with an empty right side is empty (inner) or NULL-padded
    /// identity (left).
    #[test]
    fn join_with_empty(rows in arb_rows(20)) {
        let mut d = db(rows);
        d.create_table(Table::new(
            Schema::new("empty", vec![Column::new("id", DataType::Int)]).unwrap(),
        ))
        .unwrap();
        let inner = Plan::scan("t")
            .join(Plan::scan("empty"), vec![("id", "id")], JoinKind::Inner)
            .eval(&d)
            .unwrap();
        prop_assert_eq!(inner.len(), 0);
        let left = Plan::scan("t")
            .join(Plan::scan("empty"), vec![("id", "id")], JoinKind::Left)
            .eval(&d)
            .unwrap();
        prop_assert_eq!(left.len(), d.table("t").unwrap().len());
        prop_assert!(left.iter_rows().all(|r| r.last().unwrap().is_null()));
    }

    /// Sorting is stable with respect to content: sort(sort(T)) == sort(T),
    /// and a limit after sort is a prefix.
    #[test]
    fn sort_idempotent_and_limit_prefix(rows in arb_rows(30), n in 0usize..10) {
        let d = db(rows);
        let once = Plan::scan("t").sort_by(&["a", "id"]).eval(&d).unwrap();
        let twice = Plan::scan("t").sort_by(&["a", "id"]).sort_by(&["a", "id"]).eval(&d).unwrap();
        prop_assert_eq!(&once, &twice);
        let limited = Plan::scan("t").sort_by(&["a", "id"]).limit(n).eval(&d).unwrap();
        prop_assert_eq!(&limited.rows_from(0)[..], &once.rows_from(0)[..n.min(once.len())]);
    }

    /// CSV round-trips arbitrary tables (NULLs, quoting, unicode-free).
    #[test]
    fn csv_roundtrip(rows in arb_rows(30)) {
        let d = db(rows);
        let t = d.table("t").unwrap();
        let csv = guava::relational::csv::to_csv(t);
        let back = guava::relational::csv::from_csv(schema(), &csv).unwrap();
        prop_assert_eq!(&back, t);
    }
}

// ---------------------------------------------------------------------------
// Streaming executor ≡ materializing oracle
// ---------------------------------------------------------------------------
//
// `Plan::eval` routes through the batch-at-a-time executor in
// `guava_relational::exec`; `Plan::eval_materialized` is the original
// tree-walking interpreter, kept as a cross-validation oracle. The property
// below throws randomly composed plans — including deliberately broken ones
// referencing a `ghost` column or a `missing` table — at both evaluators and
// demands they agree: identical tables (schema, row order, primary key) on
// success, and an error from both on failure. Single-fault plans are held to
// exact error equality by the unit tests in `exec.rs`; the generator here can
// stack several faults in one plan, where the two evaluators may legitimately
// *report* a different one of the faults, so the property only requires that
// both fail.

/// Column pool for random plans: the four real columns of `t` plus a
/// nonexistent one so the generator produces binding/eval errors too.
fn arb_col() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| ["id", "a", "b", "s", "ghost"][i].to_string())
}

/// Random single-column comparison predicates. Comparing `b`/`s` against
/// an Int literal exercises runtime type errors; `ghost` exercises
/// unknown-column errors that only fire when a row is actually evaluated.
fn arb_cmp() -> impl Strategy<Value = Expr> {
    (arb_col(), 0i64..50, any::<bool>()).prop_map(|(c, k, ge)| {
        if ge {
            Expr::col(&c).ge(Expr::lit(k))
        } else {
            Expr::col(&c).lt(Expr::lit(k))
        }
    })
}

/// Random predicates on both sides of the lane-mask boundary (DESIGN.md
/// §11): plain comparisons and NULL tests, which decompose into
/// `column ⟨op⟩ literal` conjuncts, and everything that must walk rows
/// through `Expr::eval` — arithmetic inside comparisons (including `/ 0`
/// faults when `a` is 0), three-valued AND/OR, IN lists, and the
/// lazily-evaluated CASE/COALESCE forms.
fn arb_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        4 => arb_cmp(),
        2 => (arb_col(), 0i64..50).prop_map(|(c, k)| {
            Expr::col(&c)
                .mul(Expr::lit(2i64))
                .add(Expr::lit(k))
                .ge(Expr::lit(30i64))
        }),
        1 => (arb_col(), 0i64..5).prop_map(|(c, k)| {
            Expr::lit(100i64).div(Expr::col(&c)).gt(Expr::lit(k))
        }),
        2 => (arb_cmp(), arb_cmp(), any::<bool>()).prop_map(|(p, q, and)| {
            if and { p.and(q) } else { p.or(q) }
        }),
        1 => arb_cmp().prop_map(|p| p.not()),
        1 => arb_col().prop_map(|c| Expr::col(&c).is_null()),
        1 => (arb_col(), proptest::collection::vec(0i64..50, 1..4)).prop_map(|(c, vs)| {
            Expr::col(&c).in_list(vs.into_iter().map(Value::Int).collect())
        }),
        1 => (arb_col(), 0i64..50).prop_map(|(c, k)| {
            Expr::Coalesce(vec![Expr::col(&c), Expr::lit(k)]).lt(Expr::lit(25i64))
        }),
        1 => (arb_guards(), arb_col()).prop_map(|(guards, c)| Expr::Case {
            arms: guards
                .into_iter()
                .map(|g| (g, Expr::col(&c).is_not_null()))
                .collect(),
            default: Box::new(Expr::lit(false)),
        }),
    ]
}

/// One or two CASE guards: comparisons, and the literals TRUE, FALSE and
/// NULL that a projection resolves when the executor binds it.
fn arb_guards() -> impl Strategy<Value = Vec<Expr>> {
    let guard = prop_oneof![
        3 => arb_cmp(),
        1 => Just(Expr::lit(true)),
        1 => Just(Expr::lit(false)),
        1 => Just(Expr::Lit(Value::Null)),
    ];
    proptest::collection::vec(guard, 1..3)
}

/// Random plans over the fixture database: scans (occasionally of a missing
/// table) composed under selection, projection, rename, distinct, sort,
/// limit, union, join, unpivot, and aggregation.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![
        8 => Just(Plan::scan("t")),
        1 => Just(Plan::scan("missing")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), arb_pred()).prop_map(|(p, e)| p.select(e)),
            2 => (inner.clone(), proptest::collection::vec(arb_col(), 1..3)).prop_map(
                |(p, cols)| {
                    let refs: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
                    p.project_cols(&refs)
                }
            ),
            // Computed projections: an arithmetic output column next to a
            // lazily-evaluated COALESCE in one Map.
            2 => (inner.clone(), arb_col(), 0i64..10).prop_map(|(p, c, k)| {
                p.project(vec![
                    ("v".to_owned(), Expr::col(&c).add(Expr::lit(k))),
                    (
                        "w".to_owned(),
                        Expr::Coalesce(vec![Expr::col(&c), Expr::lit(-1i64)]),
                    ),
                ])
            }),
            // A CASE projection whose leading guards may be literals.
            1 => (inner.clone(), arb_guards(), arb_col(), arb_col()).prop_map(
                |(p, guards, c, d)| {
                    let arms = guards.into_iter().map(|g| (g, Expr::col(&c))).collect();
                    p.project(vec![
                        ("id".to_owned(), Expr::col("id")),
                        (
                            "k".to_owned(),
                            Expr::Case {
                                arms,
                                default: Box::new(Expr::col(&d)),
                            },
                        ),
                    ])
                }
            ),
            1 => (inner.clone(), arb_col()).prop_map(|(p, c)| {
                p.rename_columns(vec![(c, "renamed".to_owned())])
            }),
            1 => inner.clone().prop_map(|p| p.distinct()),
            1 => (inner.clone(), arb_col()).prop_map(|(p, c)| p.sort_by(&[c.as_str()])),
            1 => (inner.clone(), 0usize..40).prop_map(|(p, n)| p.limit(n)),
            1 => (inner.clone(), inner.clone()).prop_map(|(l, r)| Plan::union(vec![l, r])),
            1 => (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(l, r, left)| {
                let kind = if left { JoinKind::Left } else { JoinKind::Inner };
                l.join(r, vec![("id", "id")], kind)
            }),
            1 => inner.clone().prop_map(|p| Plan::Unpivot {
                input: Box::new(p),
                keys: vec!["id".into()],
                attr_col: "attr".into(),
                val_col: "val".into(),
            }),
            1 => (inner, arb_col()).prop_map(|(p, c)| {
                p.aggregate(
                    &[],
                    vec![
                        Aggregate { func: AggFunc::CountAll, alias: "n".into() },
                        Aggregate { func: AggFunc::Min(c), alias: "lo".into() },
                    ],
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Both physical lanes of the batch executor — serial and
    /// morsel-parallel — and the materializing
    /// interpreter are observationally identical: same table (schema,
    /// rows, order) on success, and failure on all sides for broken plans.
    #[test]
    fn streaming_executor_matches_materializing_oracle(
        rows in arb_rows(30),
        plan in arb_plan(),
    ) {
        let d = db(rows);
        let oracle = plan.eval_materialized(&d);
        let lanes: Vec<_> = lanes()
            .into_iter()
            .map(|(name, exec)| (name, exec.execute(&plan, &d)))
            .collect();
        for (which, result) in &lanes {
            match (result, &oracle) {
                (Ok(s), Ok(m)) => prop_assert_eq!(s, m, "{} != oracle", which),
                (Err(_), Err(_)) => {}
                (s, m) => prop_assert!(
                    false,
                    "{} executor disagrees with oracle for {:?}: {:?} vs {:?}",
                    which, plan, s, m
                ),
            }
        }
        // The executor lanes must also be byte-identical to *each other* —
        // including which error a multi-fault plan reports: morsel merges
        // keep row order, and within a slice lane masks cannot raise while
        // everything fallible walks rows in order (first-error-in-row-order,
        // DESIGN.md §11).
        let (first, reference) = &lanes[0];
        for (which, result) in &lanes[1..] {
            prop_assert_eq!(
                result, reference,
                "{} != {} for {:?}", which, first, plan
            );
        }
    }

    /// Well-formed single-fault plans fail with the *same* error from
    /// every evaluator — the executor binds schemas children-first, in the
    /// interpreter's evaluation order; the parallel path reports the
    /// lowest-morsel (i.e. first-row) error; and within a slice the row
    /// walk stops at the first failing row.
    #[test]
    fn single_fault_plans_fail_identically(rows in arb_rows(20), k in 0i64..50) {
        let d = db(rows);
        let faults = vec![
            Plan::scan("missing").select(Expr::col("a").ge(Expr::lit(k))),
            Plan::scan("t").project_cols(&["ghost"]),
            Plan::scan("t").sort_by(&["ghost"]).limit(3),
            Plan::scan("t")
                .project_cols(&["id", "a"])
                .join(Plan::scan("t"), vec![("ghost", "id")], JoinKind::Inner),
        ];
        for plan in faults {
            let oracle = plan.eval_materialized(&d).unwrap_err();
            for (name, exec) in lanes() {
                let got = exec.execute(&plan, &d).unwrap_err();
                prop_assert_eq!(&got, &oracle, "{}", name);
            }
        }
    }
}
