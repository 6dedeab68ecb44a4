//! Satellite property suite: `optimize()` rewrites are observationally
//! invisible. For random plans — biased toward the Select/Project/Rename
//! towers the pattern-decode rewriter emits, the optimizer's home turf —
//! the optimized plan must produce byte-identical tables in both
//! executor lanes (serial and parallel) and under the materializing
//! oracle, and must fail whenever the original fails.
//!
//! Multi-fault plans may legitimately *report* a different one of their
//! faults after a rewrite (distributing a faulty selection into a union
//! branch can reach fault B before fault A), so the random property only
//! demands fail-on-both. Single-fault plans are held to exact error
//! equality, lane by lane.

use guava::prelude::*;
use guava_relational::value::DataType;
use proptest::prelude::*;

mod common;
use common::lanes_with_oracle as lanes;

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
                proptest::option::of(0i64..12),
                proptest::option::of(any::<bool>()),
                proptest::option::of("[a-c]{1,2}"),
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

fn arb_col() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| ["id", "a", "b", "s", "ghost"][i].to_string())
}

/// Predicates with both binding faults (`ghost`) and row-level faults
/// (`100 / a` when a delta of the data puts a zero in `a`) — exactly the
/// error classes a pushdown could reorder if it were buggy.
fn arb_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        4 => (arb_col(), 0i64..12, any::<bool>()).prop_map(|(c, k, ge)| if ge {
            Expr::col(&c).ge(Expr::lit(k))
        } else {
            Expr::col(&c).lt(Expr::lit(k))
        }),
        1 => (0i64..4).prop_map(|k| Expr::lit(100i64).div(Expr::col("a")).gt(Expr::lit(k))),
        1 => (arb_col(), arb_col()).prop_map(|(c, d)| {
            Expr::col(&c).is_null().or(Expr::col(&d).is_not_null())
        }),
    ]
}

/// Plans shaped like what pattern decode produces — Select over towers of
/// Project/Rename with Union, Sort, Distinct, Limit, and Join mixed in —
/// so every optimizer rule (select fusion, select past rename/project/
/// union/sort, project fusion, identity-rename removal) actually fires.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![
        9 => Just(Plan::scan("t")),
        1 => Just(Plan::scan("missing")),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            4 => (inner.clone(), arb_pred()).prop_map(|(p, e)| p.select(e)),
            2 => (inner.clone(), proptest::collection::vec(arb_col(), 1..3)).prop_map(
                |(p, cols)| {
                    let refs: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
                    p.project_cols(&refs)
                }
            ),
            2 => (inner.clone(), arb_col(), 0i64..6).prop_map(|(p, c, k)| {
                p.project(vec![
                    ("id".to_owned(), Expr::col("id")),
                    ("v".to_owned(), Expr::col(&c).add(Expr::lit(k))),
                ])
            }),
            // Renames: a real one (select-past-rename must rewrite the
            // predicate through the inverse map) and the identity rename
            // (which the optimizer strips entirely).
            2 => inner.clone().prop_map(|p| {
                p.rename_columns(vec![("a".to_owned(), "a2".to_owned())])
            }),
            1 => inner.clone().prop_map(|p| Plan::Rename {
                input: Box::new(p),
                table: None,
                columns: vec![],
            }),
            1 => inner.clone().prop_map(|p| p.distinct()),
            1 => (inner.clone(), arb_col()).prop_map(|(p, c)| p.sort_by(&[c.as_str()])),
            1 => (inner.clone(), 0usize..20).prop_map(|(p, n)| p.limit(n)),
            2 => (inner.clone(), inner.clone()).prop_map(|(l, r)| Plan::union(vec![l, r])),
            1 => (inner, any::<bool>()).prop_map(|(l, left)| {
                let kind = if left { JoinKind::Left } else { JoinKind::Inner };
                l.join(
                    Plan::scan("t").rename_columns(vec![
                        ("id".to_owned(), "rid".to_owned()),
                        ("a".to_owned(), "ra".to_owned()),
                        ("b".to_owned(), "rb".to_owned()),
                        ("s".to_owned(), "rs".to_owned()),
                    ]),
                    vec![("id", "rid")],
                    kind,
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// optimize(plan) ≡ plan in every lane: identical tables (schema,
    /// rows, order, key) on success, failure on both sides otherwise —
    /// and each lane's optimized result also equals the materializing
    /// oracle's optimized result, so the rewrite cannot smuggle in a
    /// lane-specific divergence.
    #[test]
    fn optimized_plan_is_observationally_identical(
        rows in arb_rows(24),
        plan in arb_plan(),
    ) {
        let d = db(rows);
        let rewritten = optimize(&plan);
        for (name, exec) in lanes() {
            let original = exec.execute(&plan, &d);
            let optimized = exec.execute(&rewritten, &d);
            match (&original, &optimized) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b,
                    "{}: optimize changed the result of {:?}", name, plan
                ),
                (Err(_), Err(_)) => {}
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: optimize changed success/failure for {plan:?}: \
                         {a:?} vs {b:?}"
                    )));
                }
            }
        }
    }

    /// Single-fault plans keep their *exact* error through optimization,
    /// lane by lane: a binding fault under a pushed-down select, a ghost
    /// sort key behind a select, a faulty predicate pushed past a rename
    /// tower, and a faulty selection distributed into a union.
    #[test]
    fn single_fault_errors_survive_optimization(rows in arb_rows(16), k in 0i64..12) {
        let d = db(rows);
        let tower = Plan::scan("t")
            .rename_columns(vec![("a".to_owned(), "a2".to_owned())])
            .project(vec![
                ("id".to_owned(), Expr::col("id")),
                ("a2".to_owned(), Expr::col("a2")),
            ]);
        let faults = vec![
            // Unknown column in a predicate that fuses and pushes down.
            Plan::scan("t")
                .select(Expr::col("a").ge(Expr::lit(k)))
                .select(Expr::col("ghost").ge(Expr::lit(k))),
            // Unknown sort key below a pushed selection.
            Plan::scan("t")
                .sort_by(&["ghost"])
                .select(Expr::col("a").ge(Expr::lit(k))),
            // Row-level fault (100 / a with a = 0 rows possible) pushed
            // through rename + project.
            tower.select(Expr::lit(100i64).div(Expr::col("a2")).gt(Expr::lit(0i64))),
            // Faulty selection distributed into both union branches.
            Plan::union(vec![Plan::scan("t"), Plan::scan("t")])
                .select(Expr::col("ghost").is_null()),
            // Missing table under a select that would otherwise push.
            Plan::scan("missing").select(Expr::col("a").ge(Expr::lit(k))),
        ];
        for plan in faults {
            let rewritten = optimize(&plan);
            for (name, exec) in lanes() {
                let original = exec.execute(&plan, &d);
                let optimized = exec.execute(&rewritten, &d);
                match (&original, &optimized) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}: {:?}", name, plan),
                    (Err(a), Err(b)) => prop_assert_eq!(
                        a.to_string(), b.to_string(),
                        "{}: error changed for {:?}", name, plan
                    ),
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "{name}: {plan:?}: {a:?} vs {b:?}"
                        )));
                    }
                }
            }
        }
    }
}
