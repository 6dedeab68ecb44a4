//! Table 1 experiment: per-pattern query-rewrite overhead.
//!
//! The same logical query (scan + predicate over the naive `form` table)
//! is evaluated through each design pattern's decode rewrite, against a
//! physical database encoded with that pattern. Expected shape: Naive <
//! Rename/BoolEncode/NullSentinel/Audit (constant per-row work) < Split/
//! Lookup (join) < Versioned (aggregate + join) ≈ Generic (pivot).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use guava::prelude::*;
use guava_relational::value::DataType;

const ROWS: usize = 2_000;

fn naive_schema() -> Schema {
    Schema::new(
        "form",
        vec![
            Column::required("instance_id", DataType::Int),
            Column::new("flag", DataType::Bool),
            Column::new("count", DataType::Int),
            Column::new("note", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["instance_id"])
    .unwrap()
}

fn naive_db() -> Database {
    let schema = naive_schema();
    let rows: Vec<Row> = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i + 1),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Bool(i % 2 == 0)
                },
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 100)
                },
                Value::text(format!("note{i}")),
            ]
        })
        .collect();
    let mut db = Database::new("naive");
    db.create_table(Table::from_rows(schema, rows).unwrap())
        .unwrap();
    db
}

fn stacks() -> Vec<(&'static str, PatternStack)> {
    let s = naive_schema();
    let second = Schema::new(
        "form2",
        vec![
            Column::required("instance_id", DataType::Int),
            Column::new("z", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["instance_id"])
    .unwrap();
    vec![
        ("Naive", PatternStack::naive("c")),
        (
            "Rename",
            PatternStack::new(
                "c",
                vec![PatternKind::Rename(
                    RenamePattern::new(&s, "tbl", vec![("flag", "f"), ("count", "n")]).unwrap(),
                )],
            ),
        ),
        (
            "Merge",
            PatternStack::new(
                "c",
                vec![PatternKind::Merge(
                    MergePattern::new("all", "form_name", vec![s.clone(), second]).unwrap(),
                )],
            ),
        ),
        (
            "Split",
            PatternStack::new(
                "c",
                vec![PatternKind::Split(
                    SplitPattern::new(
                        &s,
                        vec![("f1", vec!["flag", "count"]), ("f2", vec!["note"])],
                    )
                    .unwrap(),
                )],
            ),
        ),
        (
            "HorizontalPartition",
            PatternStack::new(
                "c",
                vec![PatternKind::HorizontalPartition(
                    HPartitionPattern::new(
                        &s,
                        vec![
                            ("p1", Expr::col("count").lt(Expr::lit(50i64))),
                            ("p2", Expr::lit(true)),
                        ],
                    )
                    .unwrap(),
                )],
            ),
        ),
        (
            "Generic",
            PatternStack::new(
                "c",
                vec![PatternKind::Generic(
                    GenericPattern::new(&s, "eav").unwrap(),
                )],
            ),
        ),
        (
            "Audit",
            PatternStack::new(
                "c",
                vec![PatternKind::Audit(AuditPattern::new(&s, "_del").unwrap())],
            ),
        ),
        (
            "Versioned",
            PatternStack::new(
                "c",
                vec![PatternKind::Versioned(
                    VersionedPattern::new(&s, "_ver").unwrap(),
                )],
            ),
        ),
        (
            "Lookup",
            PatternStack::new(
                "c",
                vec![PatternKind::Lookup(
                    LookupPattern::new(&s, "count", (0..100).map(Value::Int).collect()).unwrap(),
                )],
            ),
        ),
        (
            "BoolEncode",
            PatternStack::new(
                "c",
                vec![PatternKind::BoolEncode(
                    BoolEncodePattern::new(&s, "flag", "Y", "N").unwrap(),
                )],
            ),
        ),
        (
            "NullSentinel",
            PatternStack::new(
                "c",
                vec![PatternKind::NullSentinel(
                    NullSentinelPattern::new(&s, "count", -9i64).unwrap(),
                )],
            ),
        ),
    ]
}

fn bench_decode(c: &mut Criterion) {
    // The Merge pattern needs a (possibly empty) form2 table.
    let mut naive = naive_db();
    naive
        .create_table(Table::new(
            Schema::new(
                "form2",
                vec![
                    Column::required("instance_id", DataType::Int),
                    Column::new("z", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["instance_id"])
            .unwrap(),
        ))
        .unwrap();

    let query = Plan::scan("form").select(
        Expr::col("count")
            .ge(Expr::lit(25i64))
            .and(Expr::col("flag").eq(Expr::lit(true))),
    );

    let mut group = c.benchmark_group("pattern_decode");
    group.sample_size(20);
    for (name, stack) in stacks() {
        let physical = stack.encode(&naive).unwrap();
        // Sanity: the rewrite produces the same answer as the naive query.
        let expected = query.eval(&naive).unwrap().len();
        assert_eq!(stack.query(&physical, &query).unwrap().len(), expected);
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &physical,
            |b, physical| {
                b.iter(|| {
                    let t = stack.query(black_box(physical), black_box(&query)).unwrap();
                    black_box(t.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut naive = naive_db();
    naive
        .create_table(Table::new(
            Schema::new(
                "form2",
                vec![
                    Column::required("instance_id", DataType::Int),
                    Column::new("z", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["instance_id"])
            .unwrap(),
        ))
        .unwrap();
    let mut group = c.benchmark_group("pattern_encode");
    group.sample_size(20);
    for (name, stack) in stacks() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &naive, |b, naive| {
            b.iter(|| black_box(stack.encode(black_box(naive)).unwrap().total_rows()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decode, bench_encode);
criterion_main!(benches);
