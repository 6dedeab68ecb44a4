//! Property suite for the incremental-refresh subsystem (DESIGN.md §12):
//! change capture through `DeltaCatalog`, differential plan maintenance
//! through `DeltaPlan`, cached ETL re-execution through
//! `EtlWorkflow::run_incremental`, and warehouse patching through
//! `StudyStore::refresh`.
//!
//! The correctness bar everywhere is **byte identity with a from-scratch
//! rebuild**: same rows, same order (after the documented canonical
//! merge — retained rows first, updated/inserted rows at the end), and
//! the same first error, under randomized plans and randomized update
//! sequences, across both executor lanes. A refresh that errors must poison itself and recover by
//! re-initializing on the next round — also byte-identically. The
//! grouped-aggregate suite additionally pins the §15 first-occurrence
//! lineage: group order under random insert/delete/revise interleavings
//! must match a from-scratch `first_seen` recomputation, including
//! group death and later revival at the end of group order.

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

fn catalog(rows: Vec<Row>) -> Catalog {
    let mut db = Database::new("d");
    db.create_table(Table::from_rows(schema(), rows).unwrap())
        .unwrap();
    let mut cat = Catalog::new();
    cat.insert(db);
    cat
}

// ---------------------------------------------------------------------------
// Random update sequences
// ---------------------------------------------------------------------------

/// One mutation against the tracked fixture table. Inserted rows pick the
/// next free id (primary-key safe); `a` values near zero are deliberately
/// common so predicates containing `100 / a` gain and lose faulty rows as
/// the sequence plays out.
#[derive(Debug, Clone)]
enum Op {
    Insert(Option<i64>, Option<bool>),
    /// Delete rows with `id % m == r`.
    Delete(i64, i64),
    /// Set `a` for rows with `id % m == r` (an update: delete + re-insert
    /// at the end under the canonical merge).
    SetA(i64, i64, Option<i64>),
    /// Flip `b` for rows with `id % m == r` — the classifier-guard flip
    /// shape: a boolean the downstream predicate/classifier branches on.
    FlipB(i64, i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (proptest::option::of(0i64..6), proptest::option::of(any::<bool>()))
            .prop_map(|(a, b)| Op::Insert(a, b)),
        2 => (2i64..5, 0i64..5).prop_map(|(m, r)| Op::Delete(m, r % m)),
        2 => (2i64..5, 0i64..5, proptest::option::of(0i64..6))
            .prop_map(|(m, r, a)| Op::SetA(m, r % m, a)),
        1 => (2i64..5, 0i64..5).prop_map(|(m, r)| Op::FlipB(m, r % m)),
    ]
}

/// Next free primary key in the fixture table (inserts stay PK-safe).
fn next_id(dc: &DeltaCatalog) -> i64 {
    dc.catalog()
        .database("d")
        .unwrap()
        .table("t")
        .unwrap()
        .iter_rows()
        .filter_map(|r| r[0].as_i64())
        .max()
        .unwrap_or(-1)
        + 1
}

fn apply_op(dc: &mut DeltaCatalog, op: &Op) {
    let modmatch =
        |m: i64, r: i64| move |row: &Row| row[0].as_i64().is_some_and(|id| id.rem_euclid(m) == r);
    match op {
        Op::Insert(a, b) => {
            let next = next_id(dc);
            dc.insert(
                "d",
                "t",
                vec![
                    Value::Int(next),
                    a.map(Value::Int).unwrap_or(Value::Null),
                    b.map(Value::Bool).unwrap_or(Value::Null),
                    Value::text("new"),
                ],
            )
            .unwrap();
        }
        Op::Delete(m, r) => {
            dc.delete_where("d", "t", modmatch(*m, *r)).unwrap();
        }
        Op::SetA(m, r, a) => {
            let v = a.map(Value::Int).unwrap_or(Value::Null);
            dc.update_where("d", "t", modmatch(*m, *r), |row| row[1] = v.clone())
                .unwrap();
        }
        Op::FlipB(m, r) => {
            dc.update_where("d", "t", modmatch(*m, *r), |row| {
                row[2] = match row[2] {
                    Value::Bool(x) => Value::Bool(!x),
                    _ => Value::Bool(true),
                }
            })
            .unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Random plans
// ---------------------------------------------------------------------------

fn arb_col() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| ["id", "a", "b", "s", "ghost"][i].to_string())
}

/// Predicates spanning the differential Select rule's failure modes:
/// plain comparisons, `100 / a` (rows with `a = 0` fault — and deltas
/// can introduce or remove exactly such rows), boolean guards (the
/// classifier-flip column), and unknown columns.
fn arb_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        4 => (arb_col(), 0i64..12, any::<bool>()).prop_map(|(c, k, ge)| if ge {
            Expr::col(&c).ge(Expr::lit(k))
        } else {
            Expr::col(&c).lt(Expr::lit(k))
        }),
        2 => Just(Expr::col("b").eq(Expr::lit(true))),
        1 => (0i64..4).prop_map(|k| Expr::lit(100i64).div(Expr::col("a")).gt(Expr::lit(k))),
        1 => arb_col().prop_map(|c| Expr::col(&c).is_null()),
    ]
}

/// Random plans over the fixture, covering every differential rule:
/// element-wise Select/Project/Rename/Union, delta re-probing Join,
/// accumulator-maintaining Aggregate (global and grouped, retractable
/// CountAll/Sum-shapes and recompute-fallback Min), order-sensitive
/// Pivot over Unpivot, and the Recompute nodes (Distinct/Sort/Limit).
fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![
        9 => Just(Plan::scan("t")),
        1 => Just(Plan::scan("missing")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), arb_pred()).prop_map(|(p, e)| p.select(e)),
            2 => (inner.clone(), arb_col(), 0i64..6).prop_map(|(p, c, k)| {
                p.project(vec![
                    ("id".to_owned(), Expr::col("id")),
                    ("v".to_owned(), Expr::col(&c).add(Expr::lit(k))),
                ])
            }),
            1 => inner.clone().prop_map(|p| {
                p.rename_columns(vec![("a".to_owned(), "a2".to_owned())])
            }),
            1 => inner.clone().prop_map(|p| p.distinct()),
            1 => (inner.clone(), arb_col()).prop_map(|(p, c)| p.sort_by(&[c.as_str()])),
            1 => (inner.clone(), 0usize..20).prop_map(|(p, n)| p.limit(n)),
            1 => (inner.clone(), inner.clone()).prop_map(|(l, r)| Plan::union(vec![l, r])),
            1 => (inner.clone(), any::<bool>()).prop_map(|(l, left)| {
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
            1 => inner.clone().prop_map(|p| Plan::Unpivot {
                input: Box::new(p),
                keys: vec!["id".into()],
                attr_col: "attr".into(),
                val_col: "val".into(),
            }),
            1 => inner.clone().prop_map(|p| Plan::Pivot {
                input: Box::new(Plan::Unpivot {
                    input: Box::new(p),
                    keys: vec!["id".into()],
                    attr_col: "attr".into(),
                    val_col: "val".into(),
                }),
                keys: vec!["id".into()],
                attr_col: "attr".into(),
                val_col: "val".into(),
                attrs: vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Bool),
                ],
            }),
            2 => (inner, arb_col(), any::<bool>()).prop_map(|(p, c, grouped)| {
                let by: &[&str] = if grouped { &["b"] } else { &[] };
                p.aggregate(
                    by,
                    vec![
                        Aggregate { func: AggFunc::CountAll, alias: "n".into() },
                        Aggregate { func: AggFunc::Sum(c.clone()), alias: "sm".into() },
                        Aggregate { func: AggFunc::Min(c), alias: "lo".into() },
                    ],
                )
            }),
        ]
    })
}

// ---------------------------------------------------------------------------
// DeltaPlan ≡ rebuild
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// For a random plan and a random multi-round update sequence, an
    /// incrementally refreshed `DeltaPlan` stays byte-identical to a
    /// from-scratch execution after every round, in every lane — same
    /// schema, same rows, same order, and on faulty plans the same error
    /// string, with poison-recovery re-init behaving identically too.
    #[test]
    fn delta_plan_refresh_matches_rebuild(
        rows in arb_rows(20),
        plan in arb_plan(),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..4),
            1..4,
        ),
    ) {
        for (name, exec) in lanes() {
            let mut dc = DeltaCatalog::new(catalog(rows.clone()));
            let fresh = exec.execute(&plan, dc.catalog().database("d").unwrap());
            let init = DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec);
            let mut dplan = match (init, fresh) {
                (Ok(p), Ok(t)) => {
                    prop_assert_eq!(&p.output().unwrap(), &t, "{}: init != execute", name);
                    p
                }
                (Err(e), Err(f)) => {
                    prop_assert_eq!(
                        e.to_string(), f.to_string(),
                        "{}: init error != execute error", name
                    );
                    continue;
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: init/execute disagree: {:?} vs {:?}",
                        a.map(|p| p.len()),
                        b.map(|t| t.len()),
                    )));
                }
            };
            for batch in &batches {
                for op in batch {
                    apply_op(&mut dc, op);
                }
                let deltas = dc.take_deltas();
                let mut changes = TableChanges::new();
                if let Some(d) = deltas.get("d", "t") {
                    changes.set("t", d.to_change());
                }
                let db = dc.catalog().database("d").unwrap();
                let refreshed = dplan.refresh(db, &changes, &exec);
                let rebuilt = exec.execute(&plan, db);
                match (refreshed, rebuilt) {
                    (Ok(_), Ok(t)) => {
                        prop_assert_eq!(
                            &dplan.output().unwrap(), &t,
                            "{}: refresh != rebuild", name
                        );
                    }
                    (Err(e), Err(f)) => {
                        // Same first error; the plan is now poisoned and
                        // must recover by re-init on the next round.
                        prop_assert_eq!(
                            e.to_string(), f.to_string(),
                            "{}: refresh error != rebuild error", name
                        );
                        prop_assert!(dplan.is_poisoned());
                    }
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "{name}: refresh/rebuild disagree: {a:?} vs {b:?}"
                        )));
                    }
                }
            }
        }
    }

    /// A refresh with no changes returns `Change::Unchanged` and leaves
    /// the output bit-for-bit alone.
    #[test]
    fn unchanged_refresh_reports_unchanged(rows in arb_rows(20), plan in arb_plan()) {
        let (_, exec) = lanes().remove(0);
        let cat = catalog(rows);
        let db = cat.database("d").unwrap();
        if let Ok(mut dplan) = DeltaPlan::init(&plan, db, &exec) {
            let before = dplan.output().unwrap();
            let change = dplan.refresh(db, &TableChanges::new(), &exec).unwrap();
            prop_assert!(change.is_unchanged());
            prop_assert_eq!(dplan.output().unwrap(), before);
        }
    }
}

/// Five rows, `a = 0` at id 2: `100 / a` fails there.
fn rows_with_a_zero() -> Vec<Row> {
    (0..5i64)
        .map(|i| {
            let a = if i == 2 { 0 } else { i + 1 };
            vec![
                Value::Int(i),
                Value::Int(a),
                Value::Bool(i % 2 == 0),
                Value::text("x"),
            ]
        })
        .collect()
}

/// `100 / a` per row, as `q`.
fn quotient() -> Plan {
    Plan::scan("t").project(vec![("q", Expr::lit(100i64).div(Expr::col("a")))])
}

/// Plans with a row fault (the division by the zero in `a`) and a second
/// fault elsewhere raise, at `DeltaPlan::init`, exactly what
/// `Executor::execute` raises — not the division error a node-by-node
/// evaluation meets first: a binding error anywhere in the tree, found
/// before any row moves, through a projection tower, a join and a union;
/// and between two row faults on the two sides of a join, the build
/// side's, which the executor drives first.
#[test]
fn multi_fault_init_raises_what_execute_raises() {
    let cat = catalog(rows_with_a_zero());
    let db = cat.database("d").unwrap();
    let plans = [
        quotient().project_cols(&["ghost"]),
        quotient().join(
            Plan::scan("t").project_cols(&["ghost"]),
            vec![("q", "ghost")],
            JoinKind::Inner,
        ),
        Plan::union(vec![quotient(), Plan::scan("missing").project_cols(&["q"])]),
        quotient().join(
            Plan::scan("t").select(Expr::col("ghost").is_null()),
            vec![("q", "id")],
            JoinKind::Inner,
        ),
    ];
    for plan in &plans {
        for (name, exec) in lanes() {
            let want = exec.execute(plan, db).unwrap_err();
            assert!(
                !want.to_string().contains("division"),
                "{name}: {plan:?} should fail elsewhere first, got {want}"
            );
            let got = DeltaPlan::init(plan, db, &exec).err();
            assert_eq!(got, Some(want), "{name}: {plan:?}");
        }
    }
}

/// A dead output that can fail stays in the plan `prepare` leaves, so a
/// delta that brings a zero into `a` still raises `execute`'s error from
/// the resident plan, and the plan heals once the row is gone.
#[test]
fn a_dead_fallible_output_still_fails_on_a_delta_row() {
    let plan = Plan::scan("t")
        .project(vec![
            ("id", Expr::col("id")),
            ("q", Expr::lit(100i64).div(Expr::col("a"))),
        ])
        .project_cols(&["id"]);
    let mut rows = rows_with_a_zero();
    rows.retain(|r| r[1] != Value::Int(0));
    for (name, exec) in lanes() {
        let mut dc = DeltaCatalog::new(catalog(rows.clone()));
        let mut dplan = DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
        let step = |dc: &mut DeltaCatalog, dplan: &mut DeltaPlan| {
            let mut changes = TableChanges::new();
            if let Some(d) = dc.take_deltas().get("d", "t") {
                changes.set("t", d.to_change());
            }
            let db = dc.catalog().database("d").unwrap();
            (dplan.refresh(db, &changes, &exec), exec.execute(&plan, db))
        };
        dc.insert(
            "d",
            "t",
            vec![Value::Int(9), Value::Int(0), Value::Null, Value::Null],
        )
        .unwrap();
        let (got, want) = step(&mut dc, &mut dplan);
        assert_eq!(got.err(), Some(want.unwrap_err()), "{name}");
        assert!(dplan.is_poisoned(), "{name}");
        dc.delete_where("d", "t", |r| r[0] == Value::Int(9))
            .unwrap();
        let (got, want) = step(&mut dc, &mut dplan);
        assert!(got.is_ok() && !dplan.is_poisoned(), "{name}");
        assert_eq!(dplan.output().unwrap(), want.unwrap(), "{name}");
    }
}

// ---------------------------------------------------------------------------
// Change capture ≡ the canonical merge, failed calls included
// ---------------------------------------------------------------------------

/// The canonical merge on plain vectors: a capture window's pre-state,
/// and its live rows, each tagged with the pre-state ordinal it is (`None`
/// for a row the window inserted or moved to the end by an update).
struct CaptureModel {
    pre: Vec<Row>,
    live: Vec<(Option<usize>, Row)>,
}

impl CaptureModel {
    fn open(dc: &DeltaCatalog) -> CaptureModel {
        let t = dc.catalog().database("d").unwrap().table("t").unwrap();
        let pre: Vec<Row> = t.iter_rows().cloned().collect();
        let live = pre
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (Some(i), r))
            .collect();
        CaptureModel { pre, live }
    }

    /// What [`apply_op`] does to the live rows.
    fn apply(&mut self, op: &Op) {
        let hit =
            |m: i64, r: i64, row: &Row| row[0].as_i64().is_some_and(|id| id.rem_euclid(m) == r);
        let mut update = |m: i64, r: i64, f: &dyn Fn(&mut Row)| {
            let (moved, kept): (Vec<_>, Vec<_>) =
                self.live.drain(..).partition(|(_, row)| hit(m, r, row));
            self.live = kept;
            self.live.extend(moved.into_iter().map(|(_, mut row)| {
                f(&mut row);
                (None, row)
            }));
        };
        match op {
            Op::Insert(a, b) => {
                let ids = self.live.iter().filter_map(|(_, r)| r[0].as_i64());
                let row = vec![
                    Value::Int(ids.max().unwrap_or(-1) + 1),
                    a.map(Value::Int).unwrap_or(Value::Null),
                    b.map(Value::Bool).unwrap_or(Value::Null),
                    Value::text("new"),
                ];
                self.live.push((None, row));
            }
            Op::Delete(m, r) => self.live.retain(|(_, row)| !hit(*m, *r, row)),
            Op::SetA(m, r, a) => {
                let v = a.map(Value::Int).unwrap_or(Value::Null);
                update(*m, *r, &|row| row[1] = v.clone());
            }
            Op::FlipB(m, r) => update(*m, *r, &|row| {
                row[2] = match row[2] {
                    Value::Bool(x) => Value::Bool(!x),
                    _ => Value::Bool(true),
                }
            }),
        }
    }

    /// The delta set the window must have captured.
    fn deltas(&self) -> DeltaSet {
        let kept: std::collections::HashSet<usize> =
            self.live.iter().filter_map(|(p, _)| *p).collect();
        let delta = TableDelta {
            pre_len: self.pre.len(),
            deleted: (0..self.pre.len())
                .filter(|p| !kept.contains(p))
                .map(|p| (p, self.pre[p].clone()))
                .collect(),
            inserted: self
                .live
                .iter()
                .filter(|(p, _)| p.is_none())
                .map(|(_, r)| r.clone())
                .collect(),
        };
        let mut set = DeltaSet::new();
        if !delta.is_empty() {
            set.insert("d", "t", delta);
        }
        set
    }
}

/// Calls that must fail, each leaving the table exactly as it was: a
/// duplicate key, a type error, and two `update_where`s — one whose edit
/// breaks the schema, one whose edited rows collide on the key.
fn failing_calls(dc: &mut DeltaCatalog) -> Result<(), TestCaseError> {
    let table = |dc: &DeltaCatalog| {
        dc.catalog()
            .database("d")
            .unwrap()
            .table("t")
            .unwrap()
            .clone()
    };
    let before = table(dc);
    let first = before.row_at(0).cloned();
    let mut errors = vec![dc.insert(
        "d",
        "t",
        vec![Value::Int(-1), Value::text("x"), Value::Null, Value::Null],
    )];
    if let Some(first) = first {
        errors.push(
            dc.update_where("d", "t", |_| true, |r| r[1] = Value::text("x"))
                .map(|_| ()),
        );
        errors.push(dc.insert("d", "t", first));
    }
    if before.len() >= 2 {
        errors.push(
            dc.update_where("d", "t", |_| true, |r| r[0] = Value::Int(-1))
                .map(|_| ()),
        );
    }
    for e in errors {
        prop_assert!(e.is_err(), "a call that must fail succeeded");
        let after = table(dc);
        prop_assert!(
            after.same_storage(&before) && after == before,
            "a failed call moved the table"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// Over the update stream the refresh suites use, every window
    /// captures exactly the canonical merge's delta and leaves the table
    /// equal to its live rows — with failing calls in the middle of the
    /// window changing neither.
    #[test]
    fn capture_is_the_canonical_merge_and_failed_calls_change_nothing(
        rows in arb_rows(20),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..5),
            1..5,
        ),
    ) {
        let mut dc = DeltaCatalog::new(catalog(rows));
        for batch in &batches {
            let mut model = CaptureModel::open(&dc);
            for (i, op) in batch.iter().enumerate() {
                apply_op(&mut dc, op);
                model.apply(op);
                if i == batch.len() / 2 {
                    failing_calls(&mut dc)?;
                }
            }
            let t = dc.catalog().database("d").unwrap().table("t").unwrap();
            prop_assert!(t.iter_rows().eq(model.live.iter().map(|(_, r)| r)));
            prop_assert_eq!(dc.take_deltas(), model.deltas());
        }
    }
}

// ---------------------------------------------------------------------------
// Grouped first-occurrence order ≡ from-scratch first_seen (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// A mutation tuned to stress `rank::FirstSeenIndex`: alongside the
/// generic ops it can delete *every* row of one group key (group death),
/// later insert a row carrying that key back (revival), and retire the
/// earliest row — the shapes that move a group's first occurrence rather
/// than just its count.
#[derive(Debug, Clone)]
enum GroupOp {
    Std(Op),
    /// Delete every row whose `s` equals the key — a group-death shape.
    KillKey(String),
    /// Insert one row with a chosen `s` key: a revival when the key is
    /// currently dead, a no-op on group order when it is alive.
    Reinsert(String, Option<i64>),
    /// Delete the earliest row: its group's first occurrence, so the
    /// group's next row is promoted (or the group dies) — the shape of an
    /// engine that retires its oldest report on every update.
    RetireFirst,
}

fn arb_group_op() -> impl Strategy<Value = GroupOp> {
    prop_oneof![
        4 => arb_op().prop_map(GroupOp::Std),
        2 => "[a-c]".prop_map(GroupOp::KillKey),
        2 => ("[a-c]", proptest::option::of(0i64..6))
            .prop_map(|(s, a)| GroupOp::Reinsert(s, a)),
        3 => Just(GroupOp::RetireFirst),
    ]
}

fn apply_group_op(dc: &mut DeltaCatalog, op: &GroupOp) {
    match op {
        GroupOp::Std(op) => apply_op(dc, op),
        GroupOp::KillKey(s) => {
            let key = Value::text(s.clone());
            dc.delete_where("d", "t", move |row| row[3] == key).unwrap();
        }
        GroupOp::Reinsert(s, a) => {
            let next = next_id(dc);
            dc.insert(
                "d",
                "t",
                vec![
                    Value::Int(next),
                    a.map(Value::Int).unwrap_or(Value::Null),
                    Value::Bool(true),
                    Value::text(s.clone()),
                ],
            )
            .unwrap();
        }
        GroupOp::RetireFirst => {
            let t = dc.catalog().database("d").unwrap().table("t").unwrap();
            if let Some(first) = t.row_at(0).map(|row| row[0].clone()) {
                dc.delete_where("d", "t", move |row| row[0] == first)
                    .unwrap();
            }
        }
    }
}

/// Grouped aggregates over deliberately low-cardinality keys (`s` draws
/// from ~12 strings, `b` from 3 values incl. NULL), so random op
/// sequences routinely empty and repopulate whole groups. The aggregate
/// list spans both maintenance paths: CountAll/Sum retract exactly, Min
/// falls back to per-group recompute. A pivot keyed on `b` or `a` keeps
/// its entity order by the same first-occurrence index.
fn arb_grouped_plan() -> impl Strategy<Value = Plan> {
    (0usize..5, any::<bool>()).prop_map(|(k, filtered)| {
        let base = if filtered {
            Plan::scan("t").select(Expr::col("a").ge(Expr::lit(3i64)))
        } else {
            Plan::scan("t")
        };
        if k >= 3 {
            // A NULL attribute name is a pivot error; keep it out.
            return Plan::Pivot {
                input: Box::new(base.select(Expr::col("s").is_not_null())),
                keys: vec![["b", "a"][k - 3].into()],
                attr_col: "s".into(),
                val_col: "a".into(),
                attrs: ["c", "aa", "ab", "new"]
                    .iter()
                    .map(|&n| (n.to_owned(), DataType::Int))
                    .collect(),
            };
        }
        let by: &[&str] = [&["s"][..], &["b"][..], &["b", "s"][..]][k];
        base.aggregate(
            by,
            vec![
                Aggregate {
                    func: AggFunc::CountAll,
                    alias: "n".into(),
                },
                Aggregate {
                    func: AggFunc::Sum("a".into()),
                    alias: "sm".into(),
                },
                Aggregate {
                    func: AggFunc::Min("id".into()),
                    alias: "lo".into(),
                },
            ],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// For random insert/delete/revise interleavings against grouped
    /// aggregate and pivot plans, the refreshed output — group
    /// membership, group *order* (the persistent `first_seen` lineage of
    /// DESIGN.md §15), and every accumulator value — stays byte-identical
    /// to a from-scratch execution whose group order is recomputed from
    /// scratch, after every batch, in every lane. So does a subscriber's
    /// mirror that only ever moves by the emitted change
    /// (`Change::apply_to`, a subscription's path), and a patched input
    /// never makes the grouped operator re-ship its output whole.
    #[test]
    fn grouped_refresh_preserves_first_seen_order(
        rows in arb_rows(16),
        plan in arb_grouped_plan(),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_group_op(), 1..5),
            1..5,
        ),
    ) {
        for (name, exec) in lanes() {
            let mut dc = DeltaCatalog::new(catalog(rows.clone()));
            let mut dplan =
                DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
            let mut mirror = dplan.output().unwrap();
            for batch in &batches {
                for op in batch {
                    apply_group_op(&mut dc, op);
                }
                let deltas = dc.take_deltas();
                let mut changes = TableChanges::new();
                if let Some(d) = deltas.get("d", "t") {
                    changes.set("t", d.to_change());
                }
                let db = dc.catalog().database("d").unwrap();
                let change = dplan.refresh(db, &changes, &exec).unwrap();
                prop_assert!(
                    !matches!(
                        (changes.get("t"), &change),
                        (Some(Change::Patch(_)), Change::Full(_))
                    ),
                    "{}: a patched input made the grouped operator emit Full", name
                );
                change.apply_to(&mut mirror).unwrap();
                let rebuilt = exec.execute(&plan, db).unwrap();
                prop_assert_eq!(
                    &dplan.output().unwrap(), &rebuilt,
                    "{}: grouped refresh diverged from from-scratch first_seen order", name
                );
                prop_assert_eq!(
                    &mirror.rows_from(0), &rebuilt.rows_from(0),
                    "{}: the emitted change does not move a mirror to the rebuild", name
                );
            }
        }
    }
}

/// DESIGN.md §15 death/revival semantics, pinned deterministically: when
/// a group loses its last row it leaves the output, and when its key
/// reappears in a *later* batch the group re-enters at the **end** of
/// group order — the new row is now the key's first occurrence — exactly
/// where a from-scratch rebuild places it. A revived group must not slide
/// back into its old slot.
#[test]
fn group_death_then_revival_moves_group_to_end() {
    let plan = Plan::scan("t").aggregate(
        &["s"],
        vec![
            Aggregate {
                func: AggFunc::CountAll,
                alias: "n".into(),
            },
            Aggregate {
                func: AggFunc::Sum("a".into()),
                alias: "sm".into(),
            },
        ],
    );
    let rows = vec![
        vec![
            Value::Int(0),
            Value::Int(1),
            Value::Bool(true),
            Value::text("a"),
        ],
        vec![
            Value::Int(1),
            Value::Int(2),
            Value::Bool(false),
            Value::text("b"),
        ],
        vec![
            Value::Int(2),
            Value::Int(3),
            Value::Bool(true),
            Value::text("a"),
        ],
        vec![
            Value::Int(3),
            Value::Int(4),
            Value::Bool(false),
            Value::text("c"),
        ],
    ];
    let group_keys = |t: &Table| -> Vec<Value> { t.iter_rows().map(|r| r[0].clone()).collect() };
    let keys = |ks: &[&str]| -> Vec<Value> { ks.iter().map(|k| Value::text(*k)).collect() };
    for (name, exec) in lanes() {
        let mut dc = DeltaCatalog::new(catalog(rows.clone()));
        let mut dplan = DeltaPlan::init(&plan, dc.catalog().database("d").unwrap(), &exec).unwrap();
        let step = |dc: &mut DeltaCatalog, dplan: &mut DeltaPlan| -> Table {
            let deltas = dc.take_deltas();
            let mut changes = TableChanges::new();
            if let Some(d) = deltas.get("d", "t") {
                changes.set("t", d.to_change());
            }
            let db = dc.catalog().database("d").unwrap();
            dplan.refresh(db, &changes, &exec).unwrap();
            let out = dplan.output().unwrap();
            let rebuilt = exec.execute(&plan, db).unwrap();
            assert_eq!(out, rebuilt, "{name}: refresh != rebuild");
            out
        };

        // Group order starts as first-occurrence order: a, b, c.
        assert_eq!(
            group_keys(&dplan.output().unwrap()),
            keys(&["a", "b", "c"]),
            "{name}: initial group order"
        );

        // Batch 1: "b" loses its only row — the group dies.
        dc.delete_where("d", "t", |row| row[3] == Value::text("b"))
            .unwrap();
        let out = step(&mut dc, &mut dplan);
        assert_eq!(
            group_keys(&out),
            keys(&["a", "c"]),
            "{name}: dead group must leave the output"
        );

        // Batch 2: a row carrying "b" returns. The revived group lands at
        // the end — its first occurrence is the new row, not the deleted
        // one — and the refreshed table is byte-identical to rebuild.
        dc.insert(
            "d",
            "t",
            vec![
                Value::Int(4),
                Value::Int(9),
                Value::Bool(true),
                Value::text("b"),
            ],
        )
        .unwrap();
        let out = step(&mut dc, &mut dplan);
        assert_eq!(
            group_keys(&out),
            keys(&["a", "c", "b"]),
            "{name}: revived group must re-enter at the end of group order"
        );
        assert_eq!(
            out.row_at(2).unwrap(),
            &vec![Value::text("b"), Value::Int(1), Value::Int(9)],
            "{name}: revived group restarts its accumulators from the new row"
        );
    }
}

// ---------------------------------------------------------------------------
// EtlWorkflow::run_incremental ≡ run_on
// ---------------------------------------------------------------------------

/// A three-stage workflow over the fixture: a filter and a computed
/// projection fan out concurrently, then a grouped aggregate and a second
/// filter consume the intermediates — so changes thread through both a
/// cached replay path and stage-to-stage `Change` propagation.
fn pipeline(k: i64) -> EtlWorkflow {
    EtlWorkflow {
        name: "inc".into(),
        stages: vec![
            EtlStage {
                name: "extract".into(),
                components: vec![
                    EtlComponent {
                        name: "filter".into(),
                        source_db: "d".into(),
                        plan: Plan::scan("t").select(Expr::col("a").ge(Expr::lit(k))),
                        target_db: "tmp".into(),
                        target_table: "f".into(),
                    },
                    EtlComponent {
                        name: "compute".into(),
                        source_db: "d".into(),
                        plan: Plan::scan("t").project(vec![
                            ("id".to_owned(), Expr::col("id")),
                            ("v".to_owned(), Expr::col("a").add(Expr::lit(1i64))),
                        ]),
                        target_db: "tmp".into(),
                        target_table: "p".into(),
                    },
                ],
            },
            EtlStage {
                name: "aggregate".into(),
                components: vec![EtlComponent {
                    name: "stats".into(),
                    source_db: "tmp".into(),
                    plan: Plan::scan("f").aggregate(
                        &["b"],
                        vec![
                            Aggregate {
                                func: AggFunc::CountAll,
                                alias: "n".into(),
                            },
                            Aggregate {
                                func: AggFunc::Sum("a".into()),
                                alias: "sm".into(),
                            },
                        ],
                    ),
                    target_db: "out".into(),
                    target_table: "stats".into(),
                }],
            },
            EtlStage {
                name: "load".into(),
                components: vec![EtlComponent {
                    name: "big_v".into(),
                    source_db: "tmp".into(),
                    plan: Plan::scan("p").select(Expr::col("v").ge(Expr::lit(k))),
                    target_db: "out".into(),
                    target_table: "pv".into(),
                }],
            },
        ],
    }
}

/// Deterministic snapshot of every table in every database.
fn all_tables(cat: &Catalog) -> Vec<(String, Vec<Table>)> {
    let mut names: Vec<String> = cat.names().map(str::to_owned).collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let db = cat.database(&n).unwrap();
            (n, db.tables().cloned().collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// After every random delta round, `run_incremental` leaves the
    /// catalog byte-identical to what a full `run_on` produces from the
    /// same source state — per-component row counts included — in every
    /// lane.
    #[test]
    fn workflow_incremental_matches_full_run(
        rows in arb_rows(20),
        k in 0i64..6,
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..4),
            1..3,
        ),
    ) {
        let wf = pipeline(k);
        for (name, exec) in lanes() {
            let mut inc_cat = catalog(rows.clone());
            let mut cache = WorkflowCache::new();
            let first = wf
                .run_incremental(&mut inc_cat, &DeltaSet::new(), &mut cache, &exec)
                .unwrap();
            let mut oracle_cat = catalog(rows.clone());
            let oracle = wf.run_on(&mut oracle_cat, &exec).unwrap();
            prop_assert_eq!(&first, &oracle, "{}: cold run != run_on", name);
            prop_assert_eq!(
                all_tables(&inc_cat), all_tables(&oracle_cat),
                "{}: cold catalogs differ", name
            );

            for batch in &batches {
                let mut dc = DeltaCatalog::new(inc_cat);
                for op in batch {
                    apply_op(&mut dc, op);
                }
                let deltas = dc.take_deltas();
                inc_cat = dc.into_inner();
                let inc_runs = wf
                    .run_incremental(&mut inc_cat, &deltas, &mut cache, &exec)
                    .unwrap();

                let mut oracle_cat = Catalog::new();
                oracle_cat.insert(inc_cat.database("d").unwrap().clone());
                let oracle_runs = wf.run_on(&mut oracle_cat, &exec).unwrap();
                prop_assert_eq!(&inc_runs, &oracle_runs, "{}: runs differ", name);
                prop_assert_eq!(
                    all_tables(&inc_cat), all_tables(&oracle_cat),
                    "{}: refreshed catalogs differ", name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Landing a change: O(delta) as a count, resident once, run_on's errors
// ---------------------------------------------------------------------------

/// The targets of [`pipeline`], by `(database, table)`.
const PIPELINE_TARGETS: [(&str, &str); 4] =
    [("tmp", "f"), ("tmp", "p"), ("out", "stats"), ("out", "pv")];

/// Chunks of every [`pipeline`] target that the refresh built — not held
/// by the target's previous generation — after one fixed five-row delta
/// (three inserts, a delete, an update) over an `n`-row source.
fn chunks_built_by_a_refresh(n: i64) -> Vec<usize> {
    let exec = Executor::new();
    let wf = pipeline(3);
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 12),
                Value::Bool(i % 3 == 0),
                Value::text("s"),
            ]
        })
        .collect();
    let mut cat = catalog(rows);
    let mut cache = WorkflowCache::new();
    wf.run_incremental(&mut cat, &DeltaSet::new(), &mut cache, &exec)
        .unwrap();
    let target =
        |cat: &Catalog, (db, t): (&str, &str)| cat.database(db).unwrap().table(t).unwrap().clone();
    let before: Vec<Table> = PIPELINE_TARGETS.iter().map(|t| target(&cat, *t)).collect();
    let mut dc = DeltaCatalog::new(cat);
    for (i, a) in [(n, 7), (n + 1, 0), (n + 2, 11)] {
        let row = vec![
            Value::Int(i),
            Value::Int(a),
            Value::Bool(true),
            Value::text("new"),
        ];
        dc.insert("d", "t", row).unwrap();
    }
    dc.delete_where("d", "t", |r| r[0] == Value::Int(n / 2))
        .unwrap();
    dc.update_where(
        "d",
        "t",
        |r| r[0] == Value::Int(n / 3),
        |r| r[1] = Value::Int(9),
    )
    .unwrap();
    let deltas = dc.take_deltas();
    let mut cat = dc.into_inner();
    wf.run_incremental(&mut cat, &deltas, &mut cache, &exec)
        .unwrap();
    let mut oracle = Catalog::new();
    oracle.insert(cat.database("d").unwrap().clone());
    wf.run_on(&mut oracle, &exec).unwrap();
    PIPELINE_TARGETS
        .iter()
        .zip(&before)
        .map(|(t, old)| {
            let new = target(&cat, *t);
            assert_eq!(new, target(&oracle, *t), "{t:?} at {n} rows");
            assert!(new.layout().within_bounds());
            new.chunks_not_in(old)
        })
        .collect()
}

/// Landing is O(delta) as a *count*: what a refresh builds of each target
/// does not depend on how large the target is. (A wholesale landing
/// builds every chunk, whatever the delta; the larger source is past
/// several `SEGMENT_ROWS` chunks so that its row-level targets span more
/// than one, where a wholesale landing would count more.)
#[test]
fn a_refresh_builds_the_same_chunks_at_any_table_size() {
    let small = chunks_built_by_a_refresh(2_000);
    let large = chunks_built_by_a_refresh(100_000);
    assert_eq!(small, large);
    assert!(small.iter().all(|&built| built <= 3), "{small:?}");
}

/// A component's output rows are resident once: after every kind of run
/// — cold, refreshed, replayed — the plan's cached output and the
/// catalog's target are one storage.
fn assert_resident_once(wf: &EtlWorkflow, cat: &Catalog, cache: &WorkflowCache) {
    for comp in wf.stages.iter().flat_map(|s| &s.components) {
        let target = cat
            .database(&comp.target_db)
            .unwrap()
            .table(&comp.target_table)
            .unwrap();
        let plan = cache.plan(&comp.name).expect("component ran");
        assert!(
            plan.output().unwrap().same_storage(target),
            "{}: plan vs target",
            comp.name
        );
    }
}

/// `all_tables(a) == all_tables(b)`, naming the table that differs
/// instead of printing two catalogs.
fn assert_same(a: &Catalog, b: &Catalog) {
    let (a, b) = (all_tables(a), all_tables(b));
    assert_eq!(a.len(), b.len(), "databases");
    for ((db, ours), (other_db, theirs)) in a.iter().zip(&b) {
        assert_eq!(db, other_db);
        assert_eq!(ours.len(), theirs.len(), "tables of {db}");
        for (t, u) in ours.iter().zip(theirs) {
            assert!(t == u, "{db}.{} differs", t.schema().name);
        }
    }
}

/// A delta row that faults in a *later* component of a stage — an
/// expression error, and a row that violates the landed table's schema —
/// gives `run_on`'s first error with `run_on`'s earlier loads applied,
/// and the next refresh, the fault repaired, equals a rebuild — although
/// an earlier component landed rows its consumers never took in.
#[test]
fn refresh_faults_are_run_ons_and_heal() {
    let exec = Executor::new();
    let quotient = Plan::scan("t").project(vec![
        ("id".to_owned(), Expr::col("id")),
        ("q".to_owned(), Expr::lit(100i64).div(Expr::col("a"))),
    ]);
    // `id` is required in `t` and nullable in `u`: a NULL id arriving
    // through the second child violates the union's (child 0's) schema.
    let required_first = Plan::union(vec![Plan::scan("t"), Plan::scan("u")]);
    for (faulty, fault_row, fault_table) in [
        (
            quotient,
            vec![Value::Int(900), Value::Int(0), Value::Null, Value::Null],
            "t",
        ),
        (
            required_first,
            vec![Value::Null, Value::Int(1), Value::Null, Value::Null],
            "u",
        ),
    ] {
        let mut wf = pipeline(2);
        wf.stages[0].components.insert(
            1,
            EtlComponent {
                name: "faulty".into(),
                source_db: "d".into(),
                plan: faulty,
                target_db: "tmp".into(),
                target_table: "q".into(),
            },
        );
        let rows = (1..40i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(1 + i % 5),
                    Value::Bool(i % 2 == 0),
                    Value::Null,
                ]
            })
            .collect();
        let mut cat = catalog(rows);
        let mut loose = schema().columns().to_vec();
        loose[0].nullable = true;
        let u = Table::from_rows(
            Schema::new("u", loose).unwrap(),
            vec![vec![
                Value::Int(-1),
                Value::Int(4),
                Value::Null,
                Value::Null,
            ]],
        )
        .unwrap();
        cat.database_mut("d").unwrap().create_table(u).unwrap();
        let mut cache = WorkflowCache::new();
        wf.run_incremental(&mut cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap();

        let mut dc = DeltaCatalog::new(cat);
        dc.insert(
            "d",
            "t",
            vec![
                Value::Int(800),
                Value::Int(3),
                Value::Bool(true),
                Value::Null,
            ],
        )
        .unwrap();
        dc.insert("d", fault_table, fault_row).unwrap();
        let deltas = dc.take_deltas();
        let mut cat = dc.into_inner();
        let mut oracle = cat.clone();
        let inc_err = wf
            .run_incremental(&mut cat, &deltas, &mut cache, &exec)
            .unwrap_err();
        let full_err = wf.run_on(&mut oracle, &exec).unwrap_err();
        assert_eq!(inc_err, full_err);
        // `filter` (declared before the fault) landed; `faulty` and
        // `compute` did not, in either catalog.
        assert_same(&cat, &oracle);
        // The run's deltas are spent: the cache keeps what landed and
        // forgets the rest, so nothing patches a state it never saw.
        assert!(cache.plan("filter").is_some());
        for lost in ["faulty", "compute", "stats", "big_v"] {
            assert!(cache.plan(lost).is_none(), "{lost}");
        }

        // Repair the fault; the next run recomputes what was forgotten
        // and the whole catalog equals a rebuild again.
        let mut dc = DeltaCatalog::new(cat);
        dc.delete_where("d", fault_table, |r| {
            r[0] == Value::Null || r[0] == Value::Int(900)
        })
        .unwrap();
        let deltas = dc.take_deltas();
        let mut cat = dc.into_inner();
        let runs = wf
            .run_incremental(&mut cat, &deltas, &mut cache, &exec)
            .unwrap();
        let mut oracle = Catalog::new();
        oracle.insert(cat.database("d").unwrap().clone());
        assert_eq!(runs, wf.run_on(&mut oracle, &exec).unwrap());
        assert_same(&cat, &oracle);
        assert_resident_once(&wf, &cat, &cache);
    }
}

/// A union with one wholesale child beside patched siblings stays a
/// patch: the replaced child's old range is deleted and its new rows are
/// inserted where the range began. `Sort` replaces its output whenever
/// its input moves, so the middle child is wholesale on every round.
#[test]
fn union_folds_a_wholesale_child_into_a_patch() {
    let plan = Plan::union(vec![
        Plan::scan("t").select(Expr::col("a").ge(Expr::lit(3i64))),
        Plan::scan("t").sort_by(&["a", "id"]),
        Plan::scan("t").select(Expr::col("a").lt(Expr::lit(3i64))),
    ]);
    for (name, exec) in lanes() {
        let rows = (0..30i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Null, Value::Null])
            .collect();
        let mut dc = DeltaCatalog::new(catalog(rows));
        let db = |dc: &DeltaCatalog| dc.catalog().database("d").unwrap().clone();
        let mut dplan = DeltaPlan::init(&plan, &db(&dc), &exec).unwrap();
        for round in 0..6i64 {
            apply_op(&mut dc, &Op::Insert(Some(round % 5), None));
            apply_op(&mut dc, &Op::Delete(7, round));
            apply_op(&mut dc, &Op::SetA(5, round % 5, Some(6 - round)));
            let deltas = dc.take_deltas();
            let mut changes = TableChanges::new();
            changes.set("t", deltas.get("d", "t").unwrap().to_change());
            let before = dplan.output().unwrap();
            let change = dplan.refresh(&db(&dc), &changes, &exec).unwrap();
            let Change::Patch(patch) = &change else {
                panic!("{name} round {round}: expected a patch, got {change:?}");
            };
            let rebuilt = exec.execute(&plan, &db(&dc)).unwrap();
            assert_eq!(dplan.output().unwrap(), rebuilt, "{name} round {round}");
            assert_eq!(
                before.apply_patch(patch).unwrap(),
                rebuilt,
                "{name} round {round}"
            );
        }
    }
}

/// A subtree that re-runs on the executor (`Sort`, `Limit`) reports
/// `Unchanged` while no table it scans moved, and runs once when it scans
/// none: beside a patched selection, under batches that touch only `t`,
/// the union's change is exactly the selection's patch — same deletes,
/// same inserts — and its output is what `execute` returns, on every lane.
#[test]
fn a_rerun_whose_tables_did_not_move_is_unchanged() {
    let row = |i: i64| vec![Value::Int(i), Value::Int(i % 5), Value::Null, Value::Null];
    let selection = Plan::scan("t").select(Expr::col("a").ge(Expr::lit(0i64)));
    let plan = Plan::union(vec![
        selection.clone(),
        Plan::scan("u").sort_by(&["a", "id"]),
        Plan::Values {
            schema: schema(),
            rows: (1..5).map(|i| row(-i)).collect(),
        }
        .limit(3),
    ]);
    for (name, exec) in lanes() {
        let mut cat = catalog((0..20).map(row).collect());
        let u = Table::from_rows(schema(), (0..6).map(row)).unwrap();
        cat.database_mut("d")
            .unwrap()
            .create_table(u.renamed("u"))
            .unwrap();
        let mut dc = DeltaCatalog::new(cat);
        let db = |dc: &DeltaCatalog| dc.catalog().database("d").unwrap().clone();
        let mut dplan = DeltaPlan::init(&plan, &db(&dc), &exec).unwrap();
        let mut dsel = DeltaPlan::init(&selection, &db(&dc), &exec).unwrap();
        for round in 0..5i64 {
            apply_op(&mut dc, &Op::Insert(Some(round % 5), None));
            apply_op(&mut dc, &Op::Delete(6, round));
            apply_op(&mut dc, &Op::SetA(4, round % 4, Some(round)));
            let deltas = dc.take_deltas();
            let mut changes = TableChanges::new();
            changes.set("t", deltas.get("d", "t").unwrap().to_change());
            let change = dplan.refresh(&db(&dc), &changes, &exec).unwrap();
            let moved = dsel.refresh(&db(&dc), &changes, &exec).unwrap();
            let (Change::Patch(got), Change::Patch(want)) = (&change, &moved) else {
                panic!("{name} round {round}: {change:?} beside the selection's {moved:?}");
            };
            assert_eq!(
                (got.rows_deleted(), got.rows_inserted()),
                (want.rows_deleted(), want.rows_inserted()),
                "{name} round {round}"
            );
            let rebuilt = exec.execute(&plan, &db(&dc)).unwrap();
            assert_eq!(dplan.output().unwrap(), rebuilt, "{name} round {round}");
        }
    }
}

/// Compiled studies over the three contributors under contributor
/// traffic: new reports typed into every tool, amendments through each
/// tool's own revision idiom, retirements.
mod studies {
    use super::*;
    use guava::clinical::prelude::*;
    use guava::clinical::{cori, endopro, gastrolink};

    const BASE_REPORTS: usize = 40;

    struct Clinic {
        dc: DeltaCatalog,
        stacks: Vec<PatternStack>,
        pool: Vec<Profile>,
        next_id: i64,
        live: Vec<i64>,
    }

    fn column(dc: &DeltaCatalog, db: &str, table: &str, name: &str) -> usize {
        let t = dc.catalog().database(db).unwrap().table(table).unwrap();
        t.schema().index_of(name).unwrap()
    }

    impl Clinic {
        /// Type `n` new reports into all three tools and store their
        /// physical rows (a lookup pattern's code rows exist already).
        fn insert(&mut self, n: usize) {
            let new: Vec<Profile> = (0..n)
                .map(|_| {
                    let mut p = self.pool[self.next_id as usize % self.pool.len()].clone();
                    p.id = self.next_id;
                    self.live.push(p.id);
                    self.next_id += 1;
                    p
                })
                .collect();
            let naive = [
                cori::naive_database(&new).unwrap(),
                endopro::naive_database(&new).unwrap(),
                gastrolink::naive_database(&new).unwrap(),
            ];
            for (stack, naive) in self.stacks.iter().zip(&naive) {
                let encoded = stack.encode(naive).unwrap();
                for table in encoded.tables() {
                    let name = &table.schema().name;
                    let key_cols = table.schema().primary_key().to_vec();
                    for row in table.iter_rows() {
                        let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
                        let stored = self.dc.catalog().database(&encoded.name).unwrap();
                        if key.is_empty() || stored.table(name).unwrap().get_by_key(&key).is_none()
                        {
                            self.dc.insert(&encoded.name, name, row.clone()).unwrap();
                        }
                    }
                }
            }
        }

        /// Revise report `id` the way each tool does: CORI and EndoPro
        /// keep the superseded row, audit-flagged; GastroLink overwrites.
        /// EndoPro's `procedure_code` cell is its entity's *first* EAV
        /// row, so revising it moves the group's first occurrence.
        fn amend(&mut self, id: i64, round: usize) {
            let note = format!("note {round}");
            assert_eq!(
                cori_amend_reports(&mut self.dc, "cori", &[id], &note),
                Ok(1)
            );
            let eav = endopro::PHYSICAL_TABLE;
            let (entity, attribute, value) = (
                column(&self.dc, "endopro", eav, "entity"),
                column(&self.dc, "endopro", eav, "attribute"),
                column(&self.dc, "endopro", eav, "value"),
            );
            let (attr, new) = [
                ("etoh", "Rare"),
                ("procedure_code", "EGD"),
                ("cigs_per_day", "9"),
            ][round % 3];
            audit_revise(
                &mut self.dc,
                "endopro",
                eav,
                "is_void",
                |r| r[entity] == Value::Int(id) && r[attribute] == Value::text(attr),
                |r| r[value] = Value::text(new),
            )
            .unwrap();
            let master = gastrolink::PHYSICAL_TABLE;
            let (instance, comments) = (
                column(&self.dc, "gastrolink", master, "instance_id"),
                column(&self.dc, "gastrolink", master, "comments"),
            );
            self.dc
                .update_where(
                    "gastrolink",
                    master,
                    |r| r[instance] == Value::Int(id),
                    |r| r[comments] = Value::text(format!("seen again, round {round}")),
                )
                .unwrap();
        }

        /// Remove report `id` from every contributor.
        fn retire(&mut self, id: i64) {
            self.live.retain(|&l| l != id);
            for (db, table, col) in [
                ("cori", cori::PHYSICAL_TABLE, "instance_id"),
                ("endopro", endopro::PHYSICAL_TABLE, "entity"),
                ("gastrolink", gastrolink::PHYSICAL_TABLE, "instance_id"),
            ] {
                let c = column(&self.dc, db, table, col);
                self.dc
                    .delete_where(db, table, |r| r[c] == Value::Int(id))
                    .unwrap();
            }
        }
    }

    #[test]
    fn study_refresh_matches_rebuild_and_is_resident_once() {
        let profiles = generate(&GeneratorConfig {
            procedures: BASE_REPORTS,
            ..GeneratorConfig::default()
        });
        let pool = generate(&GeneratorConfig {
            seed: 99,
            procedures: 64,
            ..GeneratorConfig::default()
        });
        let contributors = build_all(&profiles).unwrap();
        let studies = [
            study1_definition(&contributors),
            study2_definition(&contributors, ExSmokerMeaning::EverQuit),
        ];
        for study in &studies {
            let compiled = compile(
                study,
                &study_schema(),
                &registry(),
                &bindings(&contributors),
            )
            .unwrap();
            let wf = &compiled.workflow;
            for (lane, exec) in lanes() {
                let mut clinic = Clinic {
                    dc: DeltaCatalog::new(physical_catalog(&contributors)),
                    stacks: contributors.iter().map(|c| c.stack.clone()).collect(),
                    pool: pool.clone(),
                    next_id: BASE_REPORTS as i64 + 1,
                    live: (1..=BASE_REPORTS as i64).collect(),
                };
                let mut cache = WorkflowCache::new();
                let mut rng = 0x5EED_u64;
                for round in 0..14usize {
                    // Round 0 is the cold run; then batches of traffic.
                    if round > 0 {
                        for _ in 0..1 + round % 3 {
                            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let pick = clinic.live[(rng >> 33) as usize % clinic.live.len()];
                            match (rng >> 20) % 4 {
                                0 | 1 => clinic.insert(1 + (rng >> 40) as usize % 3),
                                2 => clinic.amend(pick, round),
                                _ => clinic.retire(pick),
                            }
                        }
                    }
                    let deltas = clinic.dc.take_deltas();
                    let runs = wf
                        .run_incremental(clinic.dc.catalog_mut(), &deltas, &mut cache, &exec)
                        .unwrap();
                    let mut oracle = physical_catalog(&contributors);
                    for c in &contributors {
                        oracle.insert(clinic.dc.catalog().database(c.name()).unwrap().clone());
                    }
                    let oracle_runs = wf.run_on(&mut oracle, &exec).unwrap();
                    let at = format!("{} / {lane} / round {round}", study.name);
                    assert_eq!(runs, oracle_runs, "{at}");
                    assert_eq!(all_tables(clinic.dc.catalog()), all_tables(&oracle), "{at}");
                    assert_resident_once(wf, clinic.dc.catalog(), &cache);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// StudyStore::refresh ≡ rebuild (randomized, classifier-guard flips)
// ---------------------------------------------------------------------------

mod store {
    use super::*;
    use guava_multiclass::classifier::BoundClassifier;

    fn tool() -> ReportingTool {
        ReportingTool::new(
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
        )
    }

    fn fixtures() -> (BoundClassifier, BoundClassifier, Schema) {
        let t = tool();
        let tree = GTree::derive(&t).unwrap();
        let schema = StudySchema::new(
            "s",
            EntityDef::new("Procedure").with_attribute(AttributeDef::new(
                "Smoking",
                vec![Domain::categorical(
                    "class",
                    "classes",
                    &["None", "Light", "Heavy"],
                )],
            )),
        );
        let ec = Classifier::parse_rules(
            "Surgery Only",
            "cori",
            "",
            Target::Entity {
                entity: "Procedure".into(),
            },
            &["Procedure <- Procedure AND SurgeryPerformed = TRUE"],
        )
        .unwrap()
        .bind(&tree, &schema)
        .unwrap();
        let c = Classifier::parse_rules(
            "C_class",
            "cori",
            "",
            Target::Domain {
                entity: "Procedure".into(),
                attribute: "Smoking".into(),
                domain: "class".into(),
            },
            &[
                "'None' <- PacksPerDay = 0",
                "'Light' <- PacksPerDay < 2",
                "'Heavy' <- PacksPerDay >= 2",
            ],
        )
        .unwrap()
        .bind(&tree, &schema)
        .unwrap();
        (ec, c, t.forms[0].naive_schema())
    }

    prop_compose! {
        fn arb_naive(max: usize)(
            rows in proptest::collection::vec(
                (proptest::option::of(0i64..6), any::<bool>()),
                1..max,
            )
        ) -> Vec<Row> {
            rows.into_iter()
                .enumerate()
                .map(|(i, (packs, surgery))| {
                    vec![
                        Value::Int(i as i64 + 1),
                        packs.map(Value::Int).unwrap_or(Value::Null),
                        Value::Bool(surgery),
                    ]
                })
                .collect()
        }
    }

    /// Naive-form mutations: insert a report, retract one, reclassify
    /// (packs change) and — crucially — flip `SurgeryPerformed`, the
    /// entity-classifier guard, so instances enter and leave the study.
    #[derive(Debug, Clone)]
    enum Edit {
        Insert(Option<i64>, bool),
        Delete(i64),
        SetPacks(i64, Option<i64>),
        FlipSurgery(i64),
    }

    fn arb_edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            2 => (proptest::option::of(0i64..6), any::<bool>())
                .prop_map(|(p, s)| Edit::Insert(p, s)),
            2 => (0i64..30).prop_map(Edit::Delete),
            2 => (0i64..30, proptest::option::of(0i64..6))
                .prop_map(|(id, p)| Edit::SetPacks(id, p)),
            3 => (0i64..30).prop_map(Edit::FlipSurgery),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

        /// Randomized update sequences over the naïve form — including
        /// classifier-guard flips — leave a refreshed `StudyStore` equal
        /// to a from-scratch rebuild under every materialization policy,
        /// and the delta round-trips the naïve table exactly.
        #[test]
        fn study_store_refresh_matches_rebuild(
            rows in arb_naive(16),
            edits in proptest::collection::vec(arb_edit(), 1..6),
        ) {
            let (ec, c, naive_schema) = fixtures();
            let classifiers: Vec<&BoundClassifier> = vec![&c];
            let naive = Table::from_rows(naive_schema, rows).unwrap();

            let mut db = Database::new("naive");
            db.create_table(naive.clone()).unwrap();
            let mut cat = Catalog::new();
            cat.insert(db);
            let mut dc = DeltaCatalog::new(cat);
            for e in &edits {
                match e {
                    Edit::Insert(p, s) => {
                        let next = dc
                            .catalog()
                            .database("naive").unwrap()
                            .table("Procedure").unwrap()
                            .iter_rows()
                            .filter_map(|r| r[0].as_i64())
                            .max()
                            .unwrap_or(0)
                            + 1;
                        dc.insert("naive", "Procedure", vec![
                            Value::Int(next),
                            p.map(Value::Int).unwrap_or(Value::Null),
                            Value::Bool(*s),
                        ]).unwrap();
                    }
                    Edit::Delete(id) => {
                        dc.delete_where("naive", "Procedure", |r| r[0] == Value::Int(*id))
                            .unwrap();
                    }
                    Edit::SetPacks(id, p) => {
                        let v = p.map(Value::Int).unwrap_or(Value::Null);
                        dc.update_where(
                            "naive",
                            "Procedure",
                            |r| r[0] == Value::Int(*id),
                            |r| r[1] = v.clone(),
                        ).unwrap();
                    }
                    Edit::FlipSurgery(id) => {
                        dc.update_where(
                            "naive",
                            "Procedure",
                            |r| r[0] == Value::Int(*id),
                            |r| {
                                r[2] = match r[2] {
                                    Value::Bool(b) => Value::Bool(!b),
                                    _ => Value::Bool(true),
                                }
                            },
                        ).unwrap();
                    }
                }
            }
            let deltas = dc.take_deltas();
            let post_naive = dc
                .catalog()
                .database("naive").unwrap()
                .table("Procedure").unwrap()
                .clone();

            for policy in [
                MaterializationPolicy::Full,
                MaterializationPolicy::OnDemand,
                MaterializationPolicy::Selective(vec!["C_class".into()]),
            ] {
                let mut store = StudyStore::build(
                    "cori", naive.clone(), &ec, &classifiers, policy.clone(),
                ).unwrap();
                match deltas.get("naive", "Procedure") {
                    Some(d) => {
                        prop_assert_eq!(&d.apply(&naive.rows_from(0)), &post_naive.rows_from(0));
                        store.refresh(d, &ec, &classifiers).unwrap();
                    }
                    None => prop_assert_eq!(&naive, &post_naive),
                }
                let rebuilt = StudyStore::build(
                    "cori", post_naive.clone(), &ec, &classifiers, policy.clone(),
                ).unwrap();
                prop_assert_eq!(&store, &rebuilt, "policy {:?}", policy);
            }
        }
    }
}
