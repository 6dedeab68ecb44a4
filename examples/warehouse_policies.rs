//! Materialization policy comparison (paper Section 4.2, Figure 7):
//!
//! > "If the classifiers/domains ratio is high, then a comprehensive
//! > materialized study schema may be too large to manage. Alternatives
//! > include materializing only often-used classifiers or determining
//! > relationships between classifiers."
//!
//! Builds the CORI study store under all three policies, shows the
//! Figure 7 layout, verifies the policies agree on every query, and
//! reports the storage each one pays.
//!
//! Run with: `cargo run --example warehouse_policies`

use guava::clinical::prelude::*;
use guava::clinical::{classifiers, cori};
use guava::prelude::*;

fn main() {
    let config = GeneratorConfig::default().with_size(400);
    let profiles = generate(&config);

    // Extract CORI's naïve form rows through its pattern stack (stage 1 of
    // the ETL pipeline — the warehouse's raw input).
    let physical = cori::physical_database(&profiles).expect("physical db");
    let stack = cori::stack().expect("stack");
    let naive_form = stack
        .query(&physical, &Plan::scan("procedure"))
        .expect("decode");

    // Bind every CORI domain classifier plus the all-procedures entity
    // classifier.
    let tree = GTree::derive(&cori::tool()).unwrap();
    let schema = study_schema();
    let all: Vec<BoundClassifier> = classifiers::cori()
        .iter()
        .filter(|c| matches!(c.target, Target::Domain { .. }))
        .map(|c| c.bind(&tree, &schema).expect("binds"))
        .collect();
    let entity = classifiers::cori()
        .iter()
        .find(|c| matches!(c.target, Target::Entity { .. }))
        .unwrap()
        .bind(&tree, &schema)
        .unwrap();
    let refs: Vec<&BoundClassifier> = all.iter().collect();

    // Show the Figure 7 layout over a small slice.
    let small: Vec<Row> = naive_form.iter_rows().take(5).cloned().collect();
    let small_table = Table::from_rows(naive_form.schema().clone(), small).unwrap();
    let m = materialize("cori", &small_table, &entity, &refs[..4]).unwrap();
    let meta: Vec<(String, String, String)> = all[..4]
        .iter()
        .map(|c| {
            match classifiers::cori()
                .iter()
                .find(|x| x.name == c.name)
                .map(|x| x.target.clone())
            {
                Some(Target::Domain {
                    attribute, domain, ..
                }) => (c.name.clone(), attribute, domain),
                _ => (c.name.clone(), String::new(), String::new()),
            }
        })
        .collect();
    println!("Figure 7 — fully materialized study schema (first 5 instances):\n");
    println!("{}", render_figure7(&m, &meta));

    // Build the store under each policy and compare.
    println!(
        "\npolicy comparison over {} instances, {} classifiers:",
        naive_form.len(),
        refs.len()
    );
    println!("{:<44} {:>12}", "policy", "extra cells");
    let often_used = vec!["Habits (Cancer)".to_owned(), "Any Hypoxia".to_owned()];
    let policies = [
        ("Full (Figure 7)", MaterializationPolicy::Full),
        (
            "OnDemand (classify at query time)",
            MaterializationPolicy::OnDemand,
        ),
        (
            "Selective (often-used classifiers only)",
            MaterializationPolicy::Selective(often_used),
        ),
    ];
    let mut stores = Vec::new();
    for (label, policy) in policies {
        let store = StudyStore::build("cori", naive_form.clone(), &entity, &refs, policy).unwrap();
        println!("{:<44} {:>12}", label, store.extra_cells());
        stores.push(store);
    }

    // All policies must agree on every classifier column.
    for c in &refs {
        let baseline = stores[0]
            .classifier_column(&c.name, &entity, &refs)
            .unwrap();
        for store in &stores[1..] {
            let got = store.classifier_column(&c.name, &entity, &refs).unwrap();
            assert_eq!(baseline, got, "policy disagreement on `{}`", c.name);
        }
    }
    println!("\nall policies return identical classifier columns");

    // Algebraic derivation: cigarettes/day derived from materialized
    // packs/day — "materialize A's output and compute B as needed".
    let mut selective = StudyStore::build(
        "cori",
        naive_form,
        &entity,
        &refs,
        MaterializationPolicy::Selective(vec!["Packs Per Day".into()]),
    )
    .unwrap();
    selective.register_derived(DerivedClassifier {
        name: "Cigarettes Per Day".into(),
        base: "Packs Per Day".into(),
        transform: Expr::col("Packs Per Day").mul(Expr::lit(20i64)),
    });
    let col = selective
        .classifier_column("Cigarettes Per Day", &entity, &refs)
        .unwrap();
    let smokers = col
        .iter()
        .filter(|(_, v)| v.as_f64().is_some_and(|f| f > 0.0))
        .count();
    println!("derived `Cigarettes Per Day` without materializing it: {smokers} smokers");
    println!("warehouse_policies OK");
}
