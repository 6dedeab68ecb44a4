//! The study compiler: GUAVA + MultiClass artifacts → an ETL workflow.
//!
//! Hypothesis #3: "It is possible to compile studies into ETL workflows ...
//! a study created over GUAVA and MultiClass has a logical translation to a
//! sequence of three ETL components, each executing a query over the
//! previous one's results" (Figure 6). Per contributor the three
//! components are:
//!
//! 1. **extract** — the g-tree query, rewritten through the contributor's
//!    design-pattern stack into a physical query; lands naïve-schema rows
//!    in a temporary database.
//! 2. **entities** — the entity classifier, as a selection; decides which
//!    form instances become study entities.
//! 3. **classify** — the domain classifiers, as computed projections (one
//!    CASE per classifier).
//!
//! MultiClass then "simply unions together the results of ETL workflows
//! from different contributors" (Section 3.1) and applies the study's
//! WHERE-style filter — the final load stage.

use crate::workflow::{EtlComponent, EtlStage, EtlWorkflow};
use guava_gtree::tree::GTree;
use guava_multiclass::classifier::{BoundClassifier, ClassifierError, Target};
use guava_multiclass::study::{Study, StudyColumn};
use guava_multiclass::study_schema::StudySchema;
use guava_multiclass::ClassifierRegistry;
use guava_patterns::stack::PatternStack;
use guava_relational::algebra::Plan;
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::expr::Expr;
use guava_relational::table::{Row, Table};
use guava_relational::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Everything known about one contributor: its g-tree (UI context) and its
/// design-pattern stack (storage binding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContributorBinding {
    pub tree: GTree,
    pub stack: PatternStack,
}

impl ContributorBinding {
    pub fn new(tree: GTree, stack: PatternStack) -> ContributorBinding {
        ContributorBinding { tree, stack }
    }

    pub fn name(&self) -> &str {
        &self.tree.tool
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    Classifier(ClassifierError),
    Rel(RelError),
    /// The study selects no contributor bindings / no columns.
    EmptyStudy(String),
    /// A selection names a classifier missing from the registry.
    UnknownClassifier {
        contributor: String,
        name: String,
    },
    /// No selected entity classifier targets this entity.
    MissingEntityClassifier {
        contributor: String,
        entity: String,
    },
    /// No selected domain classifier realizes this study column.
    MissingDomainClassifier {
        contributor: String,
        column: String,
    },
    /// A domain classifier reads a different form than the entity
    /// classifier that defines the entity's instances.
    FormMismatch {
        classifier: String,
        expected: String,
        got: String,
    },
    /// The study filter references a column the study does not produce.
    BadFilter(String),
    /// A binding for a selected contributor was not supplied.
    MissingBinding(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Classifier(e) => write!(f, "{e}"),
            CompileError::Rel(e) => write!(f, "{e}"),
            CompileError::EmptyStudy(m) => write!(f, "empty study: {m}"),
            CompileError::UnknownClassifier { contributor, name } => {
                write!(f, "selection names unknown classifier `{name}` for `{contributor}`")
            }
            CompileError::MissingEntityClassifier { contributor, entity } => {
                write!(f, "no entity classifier for `{entity}` selected for `{contributor}`")
            }
            CompileError::MissingDomainClassifier { contributor, column } => {
                write!(f, "no domain classifier for `{column}` selected for `{contributor}`")
            }
            CompileError::FormMismatch { classifier, expected, got } => write!(
                f,
                "classifier `{classifier}` reads form `{got}` but the entity is defined over `{expected}`"
            ),
            CompileError::BadFilter(m) => write!(f, "bad study filter: {m}"),
            CompileError::MissingBinding(c) => write!(f, "no binding supplied for `{c}`"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ClassifierError> for CompileError {
    fn from(e: ClassifierError) -> Self {
        CompileError::Classifier(e)
    }
}

impl From<RelError> for CompileError {
    fn from(e: RelError) -> Self {
        CompileError::Rel(e)
    }
}

/// The per-(contributor, entity) resolution the compiler produced — also
/// consumed by the code generators and the direct evaluator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityPlan {
    pub contributor: String,
    pub entity: String,
    /// The form whose instances feed this entity.
    pub form: String,
    pub entity_classifier: BoundClassifier,
    /// `(study column, bound domain classifier)` pairs, in study order.
    pub domain_classifiers: Vec<(StudyColumn, BoundClassifier)>,
    /// Cleaning classifiers (Section 6 extension): instances any of them
    /// marks DISCARD are dropped before entity selection.
    pub cleaners: Vec<BoundClassifier>,
    /// Every g-tree node the pipeline needs from the form.
    pub needed_nodes: Vec<String>,
}

impl EntityPlan {
    /// The stage-2 selection predicate: kept by the entity classifier AND
    /// not discarded by any cleaner.
    pub fn keep_predicate(&self) -> Expr {
        let mut p = self.entity_classifier.guard_expr();
        for cleaner in &self.cleaners {
            // NULL-safe negation: a row is discarded only when the cleaner
            // guard is definitely TRUE (COALESCE(guard, FALSE) = IS TRUE).
            p = p.and(Expr::Coalesce(vec![cleaner.guard_expr(), Expr::lit(false)]).not());
        }
        p
    }

    /// Should this naive row survive cleaning + entity selection?
    ///
    /// The row-walk form of [`EntityPlan::keep_predicate`]: like its
    /// `AND`, it evaluates the entity classifier and then every cleaner,
    /// each over all its guards, before deciding — so the first error is
    /// the compiled study's.
    pub fn keeps(
        &self,
        naive_schema: &guava_relational::schema::Schema,
        row: &Row,
    ) -> RelResult<bool> {
        let e_row = self.entity_classifier.eval_row_from(naive_schema, row)?;
        let mut keep = self.entity_classifier.selects(&e_row)?;
        for cleaner in &self.cleaners {
            let c_row = cleaner.eval_row_from(naive_schema, row)?;
            keep &= !cleaner.selects(&c_row)?;
        }
        Ok(keep)
    }
}

/// A compiled study: the ETL workflow plus its resolution metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledStudy {
    pub study_name: String,
    pub workflow: EtlWorkflow,
    /// Name of the catalog database the results land in.
    pub output_db: String,
    /// `(entity, table)` pairs in the output database.
    pub output_tables: Vec<(String, String)>,
    pub entity_plans: Vec<EntityPlan>,
}

/// The fixed provenance column added to every study result row.
pub const SOURCE_COLUMN: &str = "source";
/// The entity identity column carried through the pipeline.
pub const INSTANCE_COLUMN: &str = "instance_id";

/// Compile a study into an ETL workflow (Hypothesis #3).
pub fn compile(
    study: &Study,
    schema: &StudySchema,
    registry: &ClassifierRegistry,
    bindings: &[ContributorBinding],
) -> Result<CompiledStudy, CompileError> {
    if study.columns.is_empty() {
        return Err(CompileError::EmptyStudy(format!(
            "study `{}` selects no columns",
            study.name
        )));
    }
    if study.selections.is_empty() {
        return Err(CompileError::EmptyStudy(format!(
            "study `{}` selects no contributors",
            study.name
        )));
    }

    // Group the study's columns by entity (one output table per entity).
    let mut by_entity: BTreeMap<&str, Vec<&StudyColumn>> = BTreeMap::new();
    for c in &study.columns {
        by_entity.entry(&c.entity).or_default().push(c);
    }

    let tmp1 = format!("{}__tmp1", study.name);
    let tmp2 = format!("{}__tmp2", study.name);
    let tmp3 = format!("{}__tmp3", study.name);
    let output_db = format!("{}__results", study.name);

    let mut extract = Vec::new();
    let mut entities = Vec::new();
    let mut classify = Vec::new();
    let mut load = Vec::new();
    let mut entity_plans = Vec::new();
    let mut output_tables = Vec::new();

    // Resolve every (contributor, entity) pair.
    let mut union_inputs: BTreeMap<&str, Vec<Plan>> = BTreeMap::new();
    for selection in &study.selections {
        let binding = bindings
            .iter()
            .find(|b| b.name() == selection.contributor)
            .ok_or_else(|| CompileError::MissingBinding(selection.contributor.clone()))?;

        for (&entity, columns) in &by_entity {
            // Entity classifier: the selected one targeting this entity.
            let ec = selection
                .entity_classifiers
                .iter()
                .map(|name| {
                    registry.get(&selection.contributor, name).ok_or_else(|| {
                        CompileError::UnknownClassifier {
                            contributor: selection.contributor.clone(),
                            name: name.clone(),
                        }
                    })
                })
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .find(|c| matches!(&c.target, Target::Entity { entity: e } if e == entity))
                .ok_or_else(|| CompileError::MissingEntityClassifier {
                    contributor: selection.contributor.clone(),
                    entity: entity.to_owned(),
                })?;
            let bound_ec = ec.bind(&binding.tree, schema)?;
            let form = bound_ec.form.clone();

            // Domain classifiers, one per study column of this entity.
            let mut bound_dcs = Vec::with_capacity(columns.len());
            for col in columns {
                let dc = selection
                    .domain_classifiers
                    .iter()
                    .map(|name| {
                        registry.get(&selection.contributor, name).ok_or_else(|| {
                            CompileError::UnknownClassifier {
                                contributor: selection.contributor.clone(),
                                name: name.clone(),
                            }
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .find(|c| {
                        matches!(&c.target, Target::Domain { entity: e, attribute: a, domain: d }
                            if e == &col.entity && a == &col.attribute && d == &col.domain)
                    })
                    .ok_or_else(|| CompileError::MissingDomainClassifier {
                        contributor: selection.contributor.clone(),
                        column: col.to_string(),
                    })?;
                let bound = dc.bind(&binding.tree, schema)?;
                if bound.form != form {
                    return Err(CompileError::FormMismatch {
                        classifier: bound.name.clone(),
                        expected: form.clone(),
                        got: bound.form.clone(),
                    });
                }
                bound_dcs.push(((*col).clone(), bound));
            }

            // Cleaning classifiers (Section 6 extension), reading the
            // same form.
            let mut cleaners = Vec::with_capacity(selection.cleaning_classifiers.len());
            for name in &selection.cleaning_classifiers {
                let cl = registry.get(&selection.contributor, name).ok_or_else(|| {
                    CompileError::UnknownClassifier {
                        contributor: selection.contributor.clone(),
                        name: name.clone(),
                    }
                })?;
                let bound = cl.bind(&binding.tree, schema)?;
                if bound.form != form {
                    return Err(CompileError::FormMismatch {
                        classifier: bound.name.clone(),
                        expected: form.clone(),
                        got: bound.form.clone(),
                    });
                }
                cleaners.push(bound);
            }

            // Nodes the pipeline must extract.
            let mut needed: Vec<String> = bound_ec.attr_nodes.clone();
            for nodes in bound_dcs
                .iter()
                .map(|(_, dc)| &dc.attr_nodes)
                .chain(cleaners.iter().map(|c| &c.attr_nodes))
            {
                for n in nodes {
                    if !needed.contains(n) {
                        needed.push(n.clone());
                    }
                }
            }

            let slug = format!("{}__{}", selection.contributor, entity);

            // --- Component 1: extract (g-tree query through the pattern
            //     stack into physical storage).
            let mut proj: Vec<(String, Expr)> =
                vec![(INSTANCE_COLUMN.to_owned(), Expr::col(INSTANCE_COLUMN))];
            for n in &needed {
                proj.push((n.clone(), Expr::col(n.clone())));
            }
            let naive_plan = Plan::Project {
                input: Box::new(Plan::scan(form.clone())),
                columns: proj,
            };
            let physical_plan = binding.stack.decode_plan(&naive_plan)?;
            extract.push(EtlComponent {
                name: format!("extract:{slug}"),
                source_db: selection.contributor.clone(),
                plan: physical_plan,
                target_db: tmp1.clone(),
                target_table: slug.clone(),
            });

            // --- Component 3: classify (domain classifier CASEs).
            let mut columns_out: Vec<(String, Expr)> = vec![
                (
                    SOURCE_COLUMN.to_owned(),
                    Expr::lit(selection.contributor.clone()),
                ),
                (INSTANCE_COLUMN.to_owned(), Expr::col(INSTANCE_COLUMN)),
            ];
            for (col, dc) in &bound_dcs {
                columns_out.push((col.column_name(), dc.as_case_expr()));
            }
            classify.push(EtlComponent {
                name: format!("classify:{slug}"),
                source_db: tmp2.clone(),
                plan: Plan::Project {
                    input: Box::new(Plan::scan(slug.clone())),
                    columns: columns_out,
                },
                target_db: tmp3.clone(),
                target_table: slug.clone(),
            });
            union_inputs
                .entry(entity)
                .or_default()
                .push(Plan::scan(slug.clone()));

            let plan = EntityPlan {
                contributor: selection.contributor.clone(),
                entity: entity.to_owned(),
                form,
                entity_classifier: bound_ec,
                domain_classifiers: bound_dcs,
                cleaners,
                needed_nodes: needed,
            };
            // --- Component 2 uses the plan's keep predicate (cleaning +
            //     entity selection).
            //     A predicate that keeps every instance selects nothing:
            //     the component is the scan, and its target is the extract's
            //     table under another database — the same rows, not a copy.
            let keep = plan.keep_predicate();
            let instances = Plan::scan(slug.clone());
            entities.push(EtlComponent {
                name: format!("entities:{slug}"),
                source_db: tmp1.clone(),
                plan: if keep == Expr::lit(true) {
                    instances
                } else {
                    instances.select(keep)
                },
                target_db: tmp2.clone(),
                target_table: slug.clone(),
            });
            entity_plans.push(plan);
        }
    }

    // --- Load stage: union the contributors per entity and apply the
    //     study filter to the primary entity.
    for (&entity, inputs) in &union_inputs {
        let mut plan = Plan::union(inputs.clone());
        if entity == study.primary_entity {
            if let Some(filter) = &study.filter {
                validate_filter(study, filter)?;
                plan = plan.select(filter.clone());
            }
        }
        let table = entity.to_owned();
        load.push(EtlComponent {
            name: format!("load:{entity}"),
            source_db: tmp3.clone(),
            plan,
            target_db: output_db.clone(),
            target_table: table.clone(),
        });
        output_tables.push((entity.to_owned(), table));
    }

    let workflow = EtlWorkflow {
        name: study.name.clone(),
        stages: vec![
            EtlStage {
                name: "extract (GUAVA views)".into(),
                components: extract,
            },
            EtlStage {
                name: "entities (entity classifiers)".into(),
                components: entities,
            },
            EtlStage {
                name: "classify (domain classifiers)".into(),
                components: classify,
            },
            EtlStage {
                name: "union & filter (load)".into(),
                components: load,
            },
        ],
    };

    Ok(CompiledStudy {
        study_name: study.name.clone(),
        workflow,
        output_db,
        output_tables,
        entity_plans,
    })
}

fn validate_filter(study: &Study, filter: &Expr) -> Result<(), CompileError> {
    let produced: Vec<String> = study
        .columns
        .iter()
        .filter(|c| c.entity == study.primary_entity)
        .map(StudyColumn::column_name)
        .chain([SOURCE_COLUMN.to_owned(), INSTANCE_COLUMN.to_owned()])
        .collect();
    for c in filter.referenced_columns() {
        if !produced.iter().any(|p| p == c) {
            return Err(CompileError::BadFilter(format!(
                "filter references `{c}`, which the study does not produce (has: {})",
                produced.join(", ")
            )));
        }
    }
    Ok(())
}

/// Reference semantics for Hypothesis #3 testing: evaluate the study
/// directly over the contributors' *naïve* databases, row by row, with no
/// ETL, no pattern rewrites, and no relational plans. The compiled
/// workflow must produce exactly this (as a bag of rows per entity).
pub fn direct_eval(
    compiled: &CompiledStudy,
    study: &Study,
    naive_dbs: &BTreeMap<String, Database>,
) -> RelResult<BTreeMap<String, Vec<Row>>> {
    let mut out: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for ep in &compiled.entity_plans {
        let db = naive_dbs.get(&ep.contributor).ok_or_else(|| {
            RelError::UnknownTable(format!("naive database `{}`", ep.contributor))
        })?;
        let table = db.table(&ep.form)?;
        let naive_schema = table.schema();
        let iid =
            naive_schema
                .index_of(INSTANCE_COLUMN)
                .ok_or_else(|| RelError::UnknownColumn {
                    table: naive_schema.name.clone(),
                    column: INSTANCE_COLUMN.into(),
                })?;
        let rows = out.entry(ep.entity.clone()).or_default();
        for row in table.iter_rows() {
            if !ep.keeps(naive_schema, row)? {
                continue;
            }
            let mut out_row: Row = vec![Value::text(ep.contributor.clone()), row[iid].clone()];
            for (_, dc) in &ep.domain_classifiers {
                let dc_row = dc.eval_row_from(naive_schema, row)?;
                out_row.push(dc.classify(&dc_row)?);
            }
            rows.push(out_row);
        }
    }
    // Apply the study filter to the primary entity, same as the load stage.
    if let Some(filter) = &study.filter {
        if let Some(rows) = out.get_mut(&study.primary_entity) {
            // Build the output schema the filter sees.
            let ep = compiled
                .entity_plans
                .iter()
                .find(|e| e.entity == study.primary_entity)
                .ok_or_else(|| RelError::Plan("primary entity has no plan".into()))?;
            let mut cols = vec![
                guava_relational::schema::Column::new(
                    SOURCE_COLUMN,
                    guava_relational::value::DataType::Text,
                ),
                guava_relational::schema::Column::new(
                    INSTANCE_COLUMN,
                    guava_relational::value::DataType::Int,
                ),
            ];
            for (col, _) in &ep.domain_classifiers {
                // Filter comparisons go through sql_cmp, so the declared
                // type here only needs to exist; use Text as a neutral slot.
                cols.push(guava_relational::schema::Column::new(
                    col.column_name(),
                    guava_relational::value::DataType::Text,
                ));
            }
            let schema = guava_relational::schema::Schema::new("direct", cols)?;
            let mut kept = Vec::new();
            for r in rows.drain(..) {
                if filter.matches(&schema, &r)? {
                    kept.push(r);
                }
            }
            *rows = kept;
        }
    }
    Ok(out)
}

/// Convenience for tests: run the compiled workflow over physical databases
/// and return the per-entity result tables.
pub fn run_compiled(
    compiled: &CompiledStudy,
    physical_dbs: Vec<Database>,
) -> RelResult<BTreeMap<String, Table>> {
    let mut catalog = guava_relational::database::Catalog::new();
    for db in physical_dbs {
        catalog.insert(db);
    }
    compiled.workflow.run(&mut catalog)?;
    let results = catalog.database(&compiled.output_db)?;
    let mut out = BTreeMap::new();
    for (entity, table) in &compiled.output_tables {
        out.insert(entity.clone(), results.table(table)?.clone());
    }
    Ok(out)
}
