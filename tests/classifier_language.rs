//! Property-based validation of the classifier language (paper Figure 5 /
//! Section 4.2): printed expressions re-parse to themselves, evaluation is
//! total over well-typed rows, and the CASE compilation used by the ETL
//! generator agrees with first-match-wins rule walking on random inputs.

use guava::multiclass::lang::{parse_expr, parse_rule};
use guava::prelude::*;
use guava_relational::value::DataType;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(
        "form",
        vec![
            Column::new("packs", DataType::Int),
            Column::new("weight", DataType::Float),
            Column::new("smoker", DataType::Bool),
            Column::new("label", DataType::Text),
        ],
    )
    .unwrap()
}

/// Random expressions restricted to the classifier grammar (no CASE /
/// COALESCE, which the surface syntax does not include).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::col("packs")),
        Just(Expr::col("weight")),
        (0i64..100).prop_map(|i| Expr::Lit(Value::Int(i))),
        (0u32..400).prop_map(|q| Expr::Lit(Value::Float(f64::from(q) / 4.0))),
        Just(Expr::Lit(Value::Bool(true))),
        Just(Expr::Lit(Value::Bool(false))),
        "[a-z]{1,6}".prop_map(|s| Expr::Lit(Value::text(s))),
        Just(Expr::Lit(Value::Null)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.eq(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.le(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.gt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Expr::not),
            inner.clone().prop_map(Expr::is_null),
            inner.clone().prop_map(Expr::is_not_null),
            (inner.clone(), proptest::collection::vec(0i64..50, 1..4))
                .prop_map(|(e, vs)| e.in_list(vs.into_iter().map(Value::Int).collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// print → parse is the identity on the classifier-language fragment.
    #[test]
    fn display_reparses_to_same_ast(e in arb_expr()) {
        let text = e.to_string();
        let parsed = parse_expr(&text)
            .unwrap_or_else(|err| panic!("`{text}` failed to reparse: {err}"));
        prop_assert_eq!(parsed, e);
    }

    /// Rules of the form `A <- B` survive printing and reparsing too.
    #[test]
    fn rules_roundtrip(a in arb_expr(), b in arb_expr()) {
        let text = format!("{a} <- {b}");
        let (out, guard) = parse_rule(&text).unwrap();
        prop_assert_eq!(out, a);
        prop_assert_eq!(guard, b);
    }

    /// Evaluation over random rows never panics; it either yields a value
    /// or a typed error (no silent misbehavior in analyst-facing code).
    #[test]
    fn evaluation_is_total(
        e in arb_expr(),
        packs in proptest::option::of(0i64..50),
        weight in proptest::option::of(0u32..400),
    ) {
        let s = schema();
        let row = vec![
            packs.map(Value::Int).unwrap_or(Value::Null),
            weight.map(|q| Value::Float(f64::from(q) / 4.0)).unwrap_or(Value::Null),
            Value::Bool(true),
            Value::text("x"),
        ];
        let _ = e.eval(&s, &row); // must not panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The CASE compilation (used when generating ETL projections) agrees
    /// with first-match rule walking for arbitrary threshold ladders.
    #[test]
    fn case_compilation_matches_rule_walk(
        thresholds in proptest::collection::vec(0i64..50, 1..5),
        inputs in proptest::collection::vec(proptest::option::of(0i64..60), 1..30),
    ) {
        let mut sorted = thresholds.clone();
        sorted.sort_unstable();
        let rule_srcs: Vec<String> = sorted
            .iter()
            .enumerate()
            .map(|(i, t)| format!("'bucket{i}' <- packs <= {t}"))
            .collect();
        let refs: Vec<&str> = rule_srcs.iter().map(String::as_str).collect();
        let classifier = Classifier::parse_rules(
            "ladder",
            "t",
            "",
            Target::Domain { entity: "E".into(), attribute: "A".into(), domain: "D".into() },
            &refs,
        )
        .unwrap();

        // Bind against a minimal synthetic tree/schema.
        let tool = ReportingTool::new("t", "1", vec![FormDef::new(
            "f", "F", vec![Control::numeric("packs", "packs", DataType::Int)],
        )]);
        let tree = GTree::derive(&tool).unwrap();
        let labels: Vec<String> = (0..sorted.len()).map(|i| format!("bucket{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = StudySchema::new("s", EntityDef::new("E").with_attribute(
            AttributeDef::new("A", vec![Domain::categorical("D", "buckets", &label_refs)]),
        ));
        let bound = classifier.bind(&tree, &schema).unwrap();
        let case = bound.as_case_expr();
        for v in inputs {
            let row = vec![v.map(Value::Int).unwrap_or(Value::Null)];
            let walked = bound.classify(&row).unwrap();
            let cased = case.eval(&bound.eval_schema, &row).unwrap();
            prop_assert_eq!(walked, cased);
        }
    }
}

/// The Figure 5 classifiers parse from their exact paper syntax, including
/// the unicode arrow the paper typesets.
#[test]
fn figure5_surface_syntax() {
    for text in [
        "'None' \u{2190} PacksPerDay = 0",
        "'Light' \u{2190} 0 < PacksPerDay AND PacksPerDay < 2",
        "'Moderate' \u{2190} 2 \u{2264} PacksPerDay AND PacksPerDay < 5",
        "'Heavy' \u{2190} PacksPerDay \u{2265} 5",
        "TumorX * TumorY * TumorZ * 0.52 \u{2190} TumorX > 0 AND TumorY > 0 AND TumorZ > 0",
        "Procedure \u{2190} Procedure AND SurgeryPerformed = TRUE",
    ] {
        parse_rule(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
    }
}
