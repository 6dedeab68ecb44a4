//! Materialized study schemas (paper Section 4.2, Figure 7).
//!
//! "The naïve approach is to materialize the output of individual
//! classifiers into relational tables ... one table per entity classifier
//! per entity, with columns representing classifier output. This option
//! allows for simple data retrieval because getting data from the study
//! schema reduces to select-project-join queries. If the
//! classifiers/domains ratio is high, then a comprehensive materialized
//! study schema may be too large to manage. Alternatives include
//! materializing only often-used classifiers or determining relationships
//! between classifiers" — all three alternatives are implemented here and
//! compared by the `materialization_policies` benchmark.

use guava_multiclass::classifier::BoundClassifier;
use guava_relational::algebra::Plan;
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::exec::Executor;
use guava_relational::expr::Expr;
use guava_relational::table::Table;
use guava_relational::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A classifier derived algebraically from another's output: `derived =
/// transform(base)`, where the transform references the single column
/// `base`. This is the paper's "if classifier A and classifier B share a
/// simple algebraic relationship, then we can materialize A's output and
/// compute B as needed".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivedClassifier {
    pub name: String,
    pub base: String,
    /// Expression over the column `base`, evaluated over the materialized
    /// table's rows.
    pub transform: Expr,
}

/// How the warehouse stores classifier outputs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaterializationPolicy {
    /// Figure 7: every classifier is a materialized column.
    Full,
    /// Nothing materialized; classify at query time from the naïve rows.
    OnDemand,
    /// Materialize only the named (often-used) classifiers.
    Selective(Vec<String>),
}

/// One materialized study table: `(source, entity classifier)` with the
/// instance id and one column per materialized classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaterializedTable {
    pub source: String,
    pub entity_classifier: String,
    /// The materialized rows, behind `Arc` so a generational install can
    /// view the same table value the previous generation owned.
    pub table: Arc<Table>,
    /// Classifier names materialized as columns (order = column order
    /// after `instance_id`).
    pub materialized: Vec<String>,
}

impl MaterializedTable {
    /// Cells occupied (the paper's "too large to manage" axis).
    pub fn cell_count(&self) -> usize {
        self.table.len() * self.table.schema().arity()
    }
}

/// Build the materialized table for one (source, entity classifier) from
/// the extracted naïve form table. `classifiers` are the domain classifiers
/// to materialize as columns (possibly a subset under Selective policy).
///
/// The rows are the plan
/// `π[instance_id, c.as_case_expr()…](σ[entity.guard_expr()](naïve))` run
/// on an [`Executor`] — the conditionals the compiled study runs (DESIGN.md
/// §12). The table is keyed by `instance_id` and named
/// `{source}__{entity classifier}`, with the column types the plan infers
/// for each classifier's `CASE`.
pub fn materialize(
    source: &str,
    naive_form: &Table,
    entity_classifier: &BoundClassifier,
    classifiers: &[&BoundClassifier],
) -> RelResult<MaterializedTable> {
    let out = classify(Arc::new(naive_form.clone()), entity_classifier, classifiers)?;
    let table_name = format!("{source}__{}", entity_classifier.name.replace(' ', "_"));
    let schema = out
        .schema()
        .renamed(table_name)
        .with_primary_key(&["instance_id"])?;
    Ok(MaterializedTable {
        source: source.to_owned(),
        entity_classifier: entity_classifier.name.clone(),
        table: Arc::new(Table::from_rows(schema, out.into_rows())?),
        materialized: classifiers.iter().map(|c| c.name.clone()).collect(),
    })
}

/// The warehouse's one classifier evaluator, behind [`materialize`],
/// on-demand reads and [`StudyStore::refresh`]: each rule is the
/// conditional the compiled study runs (paper §4.2), so a row is
/// classified, and fails, exactly as there. One output row per selected
/// naïve row, in naïve order; unkeyed.
pub(crate) fn classify(
    naive_form: Arc<Table>,
    entity_classifier: &BoundClassifier,
    classifiers: &[&BoundClassifier],
) -> RelResult<Table> {
    let mut columns = vec![("instance_id".to_owned(), Expr::col("instance_id"))];
    columns.extend(
        classifiers
            .iter()
            .map(|c| (c.name.clone(), c.as_case_expr())),
    );
    run_over(naive_form, |scan| {
        scan.select(entity_classifier.guard_expr()).project(columns)
    })
}

/// Run the plan `build` makes of a scan of `table` over that table alone.
fn run_over(table: Arc<Table>, build: impl FnOnce(Plan) -> Plan) -> RelResult<Table> {
    let plan = build(Plan::scan(table.schema().name.clone()));
    let mut db = Database::new("warehouse");
    db.put_shared(table);
    Executor::new().execute(&plan, &db)
}

/// `(instance_id, value)` pairs of column `idx` of a table whose first
/// column is the instance id.
fn pairs(t: &Table, idx: usize) -> Vec<(Value, Value)> {
    t.iter_rows()
        .map(|r| (r[0].clone(), r[idx].clone()))
        .collect()
}

/// A warehouse store for one entity: naïve rows (always kept — they are
/// the stage-1 extraction) plus whatever the policy materialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyStore {
    pub source: String,
    pub policy: MaterializationPolicy,
    /// The extracted naïve form rows (input to on-demand classification),
    /// shared structurally across store generations.
    pub naive_form: Arc<Table>,
    pub materialized: Option<MaterializedTable>,
    /// Registered algebraic derivations, by derived-classifier name.
    pub derived: BTreeMap<String, DerivedClassifier>,
}

impl StudyStore {
    /// Build a store under a policy.
    pub fn build(
        source: &str,
        naive_form: Table,
        entity_classifier: &BoundClassifier,
        classifiers: &[&BoundClassifier],
        policy: MaterializationPolicy,
    ) -> RelResult<StudyStore> {
        let materialized = match &policy {
            MaterializationPolicy::Full => Some(materialize(
                source,
                &naive_form,
                entity_classifier,
                classifiers,
            )?),
            MaterializationPolicy::OnDemand => None,
            MaterializationPolicy::Selective(names) => {
                let subset: Vec<&BoundClassifier> = classifiers
                    .iter()
                    .filter(|c| names.contains(&c.name))
                    .copied()
                    .collect();
                Some(materialize(
                    source,
                    &naive_form,
                    entity_classifier,
                    &subset,
                )?)
            }
        };
        Ok(StudyStore {
            source: source.to_owned(),
            policy,
            naive_form: Arc::new(naive_form),
            materialized,
            derived: BTreeMap::new(),
        })
    }

    /// Register an algebraic derivation (`derived = transform(base)`).
    pub fn register_derived(&mut self, d: DerivedClassifier) {
        self.derived.insert(d.name.clone(), d);
    }

    /// Fetch one classifier's output column as `(instance_id, value)`
    /// pairs, resolving through (in order): a materialized column, an
    /// algebraic derivation over a materialized base, or on-demand
    /// evaluation from the naïve rows.
    pub fn classifier_column(
        &self,
        name: &str,
        entity_classifier: &BoundClassifier,
        classifiers: &[&BoundClassifier],
    ) -> RelResult<Vec<(Value, Value)>> {
        // 1. Materialized column.
        if let Some(m) = &self.materialized {
            if let Some(idx) = m.table.schema().index_of(name) {
                return Ok(pairs(&m.table, idx));
            }
            // 2. Derivation over a materialized base.
            if let Some(d) = self.derived.get(name) {
                if m.table.schema().index_of(&d.base).is_some() {
                    let columns = vec![
                        ("instance_id".to_owned(), Expr::col("instance_id")),
                        (d.name.clone(), d.transform.clone()),
                    ];
                    let out = run_over(Arc::clone(&m.table), |scan| scan.project(columns))?;
                    return Ok(pairs(&out, 1));
                }
            }
        }
        // 3. On-demand evaluation.
        let c = classifiers
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| RelError::Eval(format!("unknown classifier `{name}`")))?;
        let out = classify(Arc::clone(&self.naive_form), entity_classifier, &[c])?;
        Ok(pairs(&out, 1))
    }

    /// Storage cells used by this store beyond the naïve extraction — the
    /// quantity the paper worries "may be too large to manage".
    pub fn extra_cells(&self) -> usize {
        self.materialized
            .as_ref()
            .map_or(0, MaterializedTable::cell_count)
    }
}

/// Render the Figure 7 layout: attribute/domain/classifier header rows over
/// the materialized table.
pub fn render_figure7(
    m: &MaterializedTable,
    classifier_meta: &[(String, String, String)], // (classifier, attribute, domain)
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Entity: Procedure, Data Source: {}, Entity Classifier: {}\n",
        m.source, m.entity_classifier
    ));
    let attr_row: Vec<String> = m
        .materialized
        .iter()
        .map(|c| {
            classifier_meta
                .iter()
                .find(|(cl, _, _)| cl == c)
                .map(|(_, a, _)| a.clone())
                .unwrap_or_default()
        })
        .collect();
    let dom_row: Vec<String> = m
        .materialized
        .iter()
        .map(|c| {
            classifier_meta
                .iter()
                .find(|(cl, _, _)| cl == c)
                .map(|(_, _, d)| d.clone())
                .unwrap_or_default()
        })
        .collect();
    out.push_str(&format!("Attributes:  {}\n", attr_row.join(" | ")));
    out.push_str(&format!("Domains:     {}\n", dom_row.join(" | ")));
    out.push_str(&format!("Classifiers: {}\n", m.materialized.join(" | ")));
    out.push_str(&m.table.render());
    out
}

/// Compose a database holding every materialized table (the study-schema
/// database of Figure 1's right-hand side).
pub fn into_database(name: &str, tables: Vec<MaterializedTable>) -> Database {
    let mut db = Database::new(name.to_owned());
    for m in tables {
        db.put_shared(m.table);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use guava_forms::control::Control;
    use guava_forms::form::{FormDef, ReportingTool};
    use guava_gtree::tree::GTree;
    use guava_multiclass::prelude::*;
    use guava_relational::value::DataType;

    fn setup() -> (GTree, StudySchema, Table) {
        let tool = ReportingTool::new(
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
        );
        let tree = GTree::derive(&tool).unwrap();
        let schema = StudySchema::new(
            "s",
            EntityDef::new("Procedure").with_attribute(AttributeDef::new(
                "Smoking",
                vec![
                    Domain::categorical("class", "classes", &["None", "Light", "Heavy"]),
                    Domain::new(
                        "packs",
                        "packs/day",
                        DomainSpec::Integer {
                            min: Some(0),
                            max: None,
                        },
                    ),
                ],
            )),
        );
        let naive = Table::from_rows(
            tool.forms[0].naive_schema(),
            vec![
                vec![1.into(), 0.into(), true.into()],
                vec![2.into(), 1.into(), true.into()],
                vec![3.into(), 5.into(), false.into()],
                vec![4.into(), 9.into(), true.into()],
            ],
        )
        .unwrap();
        (tree, schema, naive)
    }

    fn bound(
        tree: &GTree,
        schema: &StudySchema,
        name: &str,
        target: Target,
        rules: &[&str],
    ) -> BoundClassifier {
        Classifier::parse_rules(name, "cori", "", target, rules)
            .unwrap()
            .bind(tree, schema)
            .unwrap()
    }

    fn domain_target(domain: &str) -> Target {
        Target::Domain {
            entity: "Procedure".into(),
            attribute: "Smoking".into(),
            domain: domain.into(),
        }
    }

    fn fixtures() -> (BoundClassifier, BoundClassifier, BoundClassifier, Table) {
        let (tree, schema, naive) = setup();
        let ec = bound(
            &tree,
            &schema,
            "Surgery Only",
            Target::Entity {
                entity: "Procedure".into(),
            },
            &["Procedure <- Procedure AND SurgeryPerformed = TRUE"],
        );
        let c_class = bound(
            &tree,
            &schema,
            "C_class",
            domain_target("class"),
            &[
                "'None' <- PacksPerDay = 0",
                "'Light' <- PacksPerDay < 2",
                "'Heavy' <- PacksPerDay >= 2",
            ],
        );
        let c_packs = bound(
            &tree,
            &schema,
            "C_packs",
            domain_target("packs"),
            &["PacksPerDay <- PacksPerDay IS ANSWERED"],
        );
        (ec, c_class, c_packs, naive)
    }

    #[test]
    fn full_materialization_figure7_shape() {
        let (ec, c_class, c_packs, naive) = fixtures();
        let m = materialize("cori", &naive, &ec, &[&c_class, &c_packs]).unwrap();
        // Instance 3 excluded (no surgery).
        assert_eq!(m.table.len(), 3);
        assert_eq!(
            m.table.schema().column_names(),
            vec!["instance_id", "C_class", "C_packs"]
        );
        let r2 = m.table.get_by_key(&[Value::Int(2)]).unwrap();
        assert_eq!(r2[1], Value::text("Light"));
        assert_eq!(r2[2], Value::Int(1));
        assert_eq!(m.cell_count(), 9);
    }

    #[test]
    fn policies_agree_on_query_results() {
        let (ec, c_class, c_packs, naive) = fixtures();
        let classifiers: Vec<&BoundClassifier> = vec![&c_class, &c_packs];
        let full = StudyStore::build(
            "cori",
            naive.clone(),
            &ec,
            &classifiers,
            MaterializationPolicy::Full,
        )
        .unwrap();
        let on_demand = StudyStore::build(
            "cori",
            naive.clone(),
            &ec,
            &classifiers,
            MaterializationPolicy::OnDemand,
        )
        .unwrap();
        let selective = StudyStore::build(
            "cori",
            naive,
            &ec,
            &classifiers,
            MaterializationPolicy::Selective(vec!["C_class".into()]),
        )
        .unwrap();
        for name in ["C_class", "C_packs"] {
            let a = full.classifier_column(name, &ec, &classifiers).unwrap();
            let b = on_demand
                .classifier_column(name, &ec, &classifiers)
                .unwrap();
            let c = selective
                .classifier_column(name, &ec, &classifiers)
                .unwrap();
            assert_eq!(a, b, "{name}: full vs on-demand");
            assert_eq!(a, c, "{name}: full vs selective");
        }
        // Storage footprints differ in the expected direction.
        assert!(full.extra_cells() > selective.extra_cells());
        assert_eq!(on_demand.extra_cells(), 0);
    }

    #[test]
    fn algebraic_derivation_from_materialized_base() {
        let (ec, c_class, c_packs, naive) = fixtures();
        let classifiers: Vec<&BoundClassifier> = vec![&c_class, &c_packs];
        // Materialize only C_packs; derive a doubled-packs classifier.
        let mut store = StudyStore::build(
            "cori",
            naive,
            &ec,
            &classifiers,
            MaterializationPolicy::Selective(vec!["C_packs".into()]),
        )
        .unwrap();
        store.register_derived(DerivedClassifier {
            name: "C_double".into(),
            base: "C_packs".into(),
            transform: Expr::col("C_packs").mul(Expr::lit(2i64)),
        });
        let col = store
            .classifier_column("C_double", &ec, &classifiers)
            .unwrap();
        assert_eq!(col.len(), 3);
        let v2 = col.iter().find(|(k, _)| *k == Value::Int(2)).unwrap();
        assert_eq!(v2.1, Value::Int(2));
    }

    #[test]
    fn render_figure7_headers() {
        let (ec, c_class, c_packs, naive) = fixtures();
        let m = materialize("cori", &naive, &ec, &[&c_class, &c_packs]).unwrap();
        let meta = vec![
            (
                "C_class".to_owned(),
                "Smoking".to_owned(),
                "class".to_owned(),
            ),
            (
                "C_packs".to_owned(),
                "Smoking".to_owned(),
                "packs".to_owned(),
            ),
        ];
        let r = render_figure7(&m, &meta);
        assert!(r.contains("Entity Classifier: Surgery Only"));
        assert!(r.contains("Classifiers: C_class | C_packs"));
        assert!(r.contains("Domains:     class | packs"));
    }

    #[test]
    fn into_database_collects_tables() {
        let (ec, c_class, _, naive) = fixtures();
        let m = materialize("cori", &naive, &ec, &[&c_class]).unwrap();
        let db = into_database("warehouse", vec![m]);
        assert_eq!(db.table_count(), 1);
        assert!(db.has_table("cori__Surgery_Only"));
    }
}
