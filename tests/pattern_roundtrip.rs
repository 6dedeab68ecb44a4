//! Property-based validation of the design-pattern catalog (paper
//! Table 1 / Section 4.2): for random tables and random pattern stacks,
//! `decode(encode(naive)) == naive` — the invariant that makes g-tree
//! queries trustworthy over any contributor layout.

use guava::prelude::*;
use guava_relational::value::DataType;
use proptest::prelude::*;

/// The naive schema all generated tables share.
fn naive_schema() -> Schema {
    Schema::new(
        "form1",
        vec![
            Column::required("instance_id", DataType::Int),
            Column::new("flag_a", DataType::Bool),
            Column::new("count_b", DataType::Int),
            Column::new("ratio_c", DataType::Float),
            Column::new("note_d", DataType::Text),
        ],
    )
    .unwrap()
    .with_primary_key(&["instance_id"])
    .unwrap()
}

prop_compose! {
    fn arb_value_bool()(o in proptest::option::of(any::<bool>())) -> Value {
        o.map(Value::Bool).unwrap_or(Value::Null)
    }
}

prop_compose! {
    /// Small non-negative ints, NULL-able; -9 excluded so the NullSentinel
    /// pattern stays injective.
    fn arb_value_int()(o in proptest::option::of(0i64..500)) -> Value {
        o.map(Value::Int).unwrap_or(Value::Null)
    }
}

prop_compose! {
    fn arb_value_float()(o in proptest::option::of(0u32..2000)) -> Value {
        // Quantized floats: text round-trips must be exact.
        o.map(|q| Value::Float(f64::from(q) / 4.0)).unwrap_or(Value::Null)
    }
}

prop_compose! {
    fn arb_value_text()(o in proptest::option::of("[a-z]{0,12}")) -> Value {
        o.map(Value::text).unwrap_or(Value::Null)
    }
}

prop_compose! {
    fn arb_rows(max: usize)(
        rows in proptest::collection::vec(
            (arb_value_bool(), arb_value_int(), arb_value_float(), arb_value_text()),
            0..max,
        )
    ) -> Vec<Row> {
        rows.into_iter()
            .enumerate()
            .map(|(i, (a, b, c, d))| vec![Value::Int(i as i64 + 1), a, b, c, d])
            .collect()
    }
}

/// Which patterns to stack, chosen by flags (order is fixed and sensible:
/// value encodings first, then structure, then audit).
#[allow(clippy::too_many_arguments)] // one flag per pattern under test
fn build_stack(
    rename: bool,
    bool_encode: bool,
    sentinel: bool,
    lookup: bool,
    split: bool,
    generic: bool,
    audit: bool,
    versioned: bool,
) -> PatternStack {
    let mut patterns: Vec<PatternKind> = Vec::new();
    let mut schema = naive_schema();
    if rename {
        let p = RenamePattern::new(&schema, "tbl_f1", vec![("flag_a", "fa"), ("note_d", "nd")])
            .unwrap();
        schema = p.transform_schemas(&[schema]).unwrap().remove(0);
        patterns.push(PatternKind::Rename(p));
    }
    if bool_encode {
        let col = if rename { "fa" } else { "flag_a" };
        let p = BoolEncodePattern::new(&schema, col, "Y", "N").unwrap();
        schema = p.transform_schemas(&[schema]).unwrap().remove(0);
        patterns.push(PatternKind::BoolEncode(p));
    }
    if sentinel {
        let p = NullSentinelPattern::new(&schema, "count_b", -9i64).unwrap();
        schema = p.transform_schemas(&[schema]).unwrap().remove(0);
        patterns.push(PatternKind::NullSentinel(p));
    }
    if lookup && !generic && !split {
        // Lookup needs a closed domain; use count_b's generated range.
        let domain: Vec<Value> = if sentinel {
            (0..500).map(Value::Int).chain([Value::Int(-9)]).collect()
        } else {
            (0..500).map(Value::Int).collect()
        };
        let p = LookupPattern::new(&schema, "count_b", domain).unwrap();
        schema = p
            .transform_schemas(&[schema])
            .unwrap()
            .into_iter()
            .find(|s| s.name != p.lookup_table)
            .unwrap();
        patterns.push(PatternKind::Lookup(p));
    }
    if split && !generic {
        let cols: Vec<String> = schema
            .column_names()
            .iter()
            .skip(1)
            .map(|s| (*s).to_string())
            .collect();
        let (left, right) = cols.split_at(2);
        let p = SplitPattern::new(
            &schema,
            vec![
                ("frag_left", left.iter().map(String::as_str).collect()),
                ("frag_right", right.iter().map(String::as_str).collect()),
            ],
        )
        .unwrap();
        patterns.push(PatternKind::Split(p));
        // Split produces two tables; stop structural stacking here.
    } else if generic {
        let p = GenericPattern::new(&schema, "eav_store").unwrap();
        let schemas = p.transform_schemas(&[schema.clone()]).unwrap();
        let eav = schemas
            .iter()
            .find(|s| s.name == "eav_store")
            .unwrap()
            .clone();
        patterns.push(PatternKind::Generic(p));
        if audit {
            let a = AuditPattern::new(&eav, "_del").unwrap();
            patterns.push(PatternKind::Audit(a));
        }
        if patterns.is_empty() {
            patterns.push(PatternKind::Naive);
        }
        return PatternStack::new("c", patterns);
    }
    if audit && !split {
        let a = AuditPattern::new(&schema, "_del").unwrap();
        patterns.push(PatternKind::Audit(a));
    } else if versioned && !split {
        let v = VersionedPattern::new(&schema, "_ver").unwrap();
        patterns.push(PatternKind::Versioned(v));
    }
    if patterns.is_empty() {
        patterns.push(PatternKind::Naive);
    }
    PatternStack::new("c", patterns)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// decode(encode(x)) == x for random data and random stacks.
    #[test]
    fn stacks_roundtrip(
        rows in arb_rows(40),
        rename in any::<bool>(),
        bool_encode in any::<bool>(),
        sentinel in any::<bool>(),
        lookup in any::<bool>(),
        split in any::<bool>(),
        generic in any::<bool>(),
        audit in any::<bool>(),
        versioned in any::<bool>(),
    ) {
        let schema = naive_schema();
        let mut naive = Database::new("naive");
        naive.create_table(Table::from_rows(schema.clone(), rows).unwrap()).unwrap();

        let stack = build_stack(rename, bool_encode, sentinel, lookup, split, generic, audit, versioned);
        let physical = stack.encode(&naive).unwrap();
        let decoded = stack
            .query(&physical, &Plan::scan("form1").sort_by(&["instance_id"]))
            .unwrap();

        let original = naive.table("form1").unwrap();
        prop_assert_eq!(decoded.len(), original.len());
        prop_assert_eq!(
            decoded.schema().column_names(),
            original.schema().column_names()
        );
        for (a, b) in original.rows().iter().zip(decoded.rows()) {
            prop_assert_eq!(a, b);
        }
    }

    /// The logical optimizer never changes decode-plan semantics: the
    /// optimized and unoptimized queries agree over every random stack.
    #[test]
    fn optimizer_preserves_decode_semantics(
        rows in arb_rows(30),
        rename in any::<bool>(),
        bool_encode in any::<bool>(),
        sentinel in any::<bool>(),
        generic in any::<bool>(),
        audit in any::<bool>(),
        threshold in 0i64..500,
    ) {
        let schema = naive_schema();
        let mut naive = Database::new("naive");
        naive.create_table(Table::from_rows(schema, rows).unwrap()).unwrap();
        let stack = build_stack(rename, bool_encode, sentinel, false, false, generic, audit, false);
        let physical = stack.encode(&naive).unwrap();
        let plan = Plan::scan("form1")
            .select(Expr::col("count_b").le(Expr::lit(threshold)))
            .sort_by(&["instance_id"]);
        let plain = stack.query(&physical, &plan).unwrap();
        let optimized = optimize(&stack.decode_plan(&plan).unwrap()).eval(&physical).unwrap();
        prop_assert_eq!(plain.rows(), optimized.rows());
    }

    /// Predicates written against naive columns evaluate identically over
    /// the naive table and through the pattern rewrite.
    #[test]
    fn predicates_survive_rewrite(
        rows in arb_rows(40),
        generic in any::<bool>(),
        threshold in 0i64..500,
    ) {
        let schema = naive_schema();
        let mut naive = Database::new("naive");
        naive.create_table(Table::from_rows(schema, rows).unwrap()).unwrap();
        let stack = build_stack(true, true, true, false, false, generic, true, false);
        let physical = stack.encode(&naive).unwrap();

        let predicate = Expr::col("count_b")
            .ge(Expr::lit(threshold))
            .and(Expr::col("flag_a").eq(Expr::lit(true)));
        let plan = Plan::scan("form1").select(predicate).sort_by(&["instance_id"]);
        let through_stack = stack.query(&physical, &plan).unwrap();
        let direct = plan.eval(&naive).unwrap();
        prop_assert_eq!(through_stack.rows(), direct.rows());
    }
}
