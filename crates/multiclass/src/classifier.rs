//! Classifiers: the MultiClass artifact that relates g-tree nodes to study
//! schema domains (Section 3.4, Figure 5).
//!
//! A classifier is an ordered list of guarded rules `output ← condition`;
//! the first rule whose condition holds produces the classified value.
//! *Entity classifiers* target an entity instead of a domain and "must
//! refer to at least one node in the g-tree that represents a form" — they
//! decide which form instances become study entities.

use crate::annotate::Provenance;
use crate::lang::{parse_rule, ParseError};
use crate::study_schema::{SchemaError, StudySchema};
use guava_gtree::tree::{GTree, GTreeError};
use guava_relational::error::{RelError, RelResult};
use guava_relational::expr::Expr;
use guava_relational::schema::{Column, Schema};
use guava_relational::table::Row;
use guava_relational::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a classifier maps *into*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// A domain of a study-schema attribute.
    Domain {
        entity: String,
        attribute: String,
        domain: String,
    },
    /// A study-schema entity (entity classifiers).
    Entity { entity: String },
    /// A data-cleaning classifier (the Section 6 extension): its rules
    /// read `DISCARD <- condition`, and instances matching any condition
    /// are dropped before entity selection. "Analysts may also choose to
    /// discard data based on the needs of the particular study."
    Cleaner { entity: String },
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Domain {
                entity,
                attribute,
                domain,
            } => {
                write!(f, "{entity}.{attribute} : {domain}")
            }
            Target::Entity { entity } => write!(f, "{entity}"),
            Target::Cleaner { entity } => write!(f, "{entity} (cleaner)"),
        }
    }
}

/// The reserved output identifier of cleaning rules.
pub const DISCARD: &str = "DISCARD";

/// One guarded rule `output ← guard`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    pub output: Expr,
    pub guard: Expr,
}

impl Rule {
    pub fn new(output: Expr, guard: Expr) -> Rule {
        Rule { output, guard }
    }

    /// Parse from the surface syntax `output <- guard`.
    pub fn parse(src: &str) -> Result<Rule, ParseError> {
        let (output, guard) = parse_rule(src)?;
        Ok(Rule { output, guard })
    }
}

/// Errors raised while checking or evaluating classifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierError {
    Parse(ParseError),
    GTree(GTreeError),
    Schema(SchemaError),
    /// Referenced nodes span more than one form (or none).
    FormAmbiguity(String),
    /// Entity classifier output is not a form node identifier.
    BadEntityOutput(String),
    /// A rule's literal output falls outside the target domain.
    OutsideDomain {
        classifier: String,
        value: String,
        domain: String,
    },
    /// Contributor the classifier is written for doesn't match.
    WrongContributor {
        expected: String,
        got: String,
    },
    Eval(RelError),
    /// A rule guard whose type is not BOOL: the rule walk, `CASE` and `OR`
    /// would each treat its values differently, so it is rejected at bind.
    NonBooleanGuard {
        classifier: String,
        guard: String,
        found: DataType,
    },
    /// A classified value fell outside the target domain at run time.
    RuntimeDomainViolation {
        classifier: String,
        value: String,
    },
    Empty(String),
}

impl fmt::Display for ClassifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifierError::Parse(e) => write!(f, "{e}"),
            ClassifierError::GTree(e) => write!(f, "{e}"),
            ClassifierError::Schema(e) => write!(f, "{e}"),
            ClassifierError::FormAmbiguity(m) => write!(f, "form ambiguity: {m}"),
            ClassifierError::BadEntityOutput(m) => write!(f, "bad entity output: {m}"),
            ClassifierError::OutsideDomain {
                classifier,
                value,
                domain,
            } => {
                write!(
                    f,
                    "classifier `{classifier}` outputs {value} outside domain `{domain}`"
                )
            }
            ClassifierError::WrongContributor { expected, got } => {
                write!(f, "classifier written for `{expected}`, applied to `{got}`")
            }
            ClassifierError::Eval(e) => write!(f, "{e}"),
            ClassifierError::NonBooleanGuard {
                classifier,
                guard,
                found,
            } => write!(
                f,
                "classifier `{classifier}` has guard {guard} of type {found}, not BOOL"
            ),
            ClassifierError::RuntimeDomainViolation { classifier, value } => {
                write!(
                    f,
                    "classifier `{classifier}` produced out-of-domain value {value}"
                )
            }
            ClassifierError::Empty(c) => write!(f, "classifier `{c}` has no rules"),
        }
    }
}

impl std::error::Error for ClassifierError {}

impl From<ParseError> for ClassifierError {
    fn from(e: ParseError) -> Self {
        ClassifierError::Parse(e)
    }
}

impl From<GTreeError> for ClassifierError {
    fn from(e: GTreeError) -> Self {
        ClassifierError::GTree(e)
    }
}

impl From<SchemaError> for ClassifierError {
    fn from(e: SchemaError) -> Self {
        ClassifierError::Schema(e)
    }
}

impl From<RelError> for ClassifierError {
    fn from(e: RelError) -> Self {
        ClassifierError::Eval(e)
    }
}

/// A classifier, as authored by an analyst: named, annotated, targeted, and
/// tied to one contributor's g-tree (its rules reference that tree's nodes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Classifier {
    pub name: String,
    /// The contributor (tool) whose g-tree this classifier reads.
    pub contributor: String,
    /// Free-text rationale, e.g. "Classifies packs per day according to
    /// conversations with cancer study on 5/3/02" (Figure 5a).
    pub note: String,
    pub target: Target,
    pub rules: Vec<Rule>,
    pub provenance: Provenance,
}

impl Classifier {
    pub fn new(
        name: impl Into<String>,
        contributor: impl Into<String>,
        note: impl Into<String>,
        target: Target,
        rules: Vec<Rule>,
    ) -> Classifier {
        Classifier {
            name: name.into(),
            contributor: contributor.into(),
            note: note.into(),
            target,
            rules,
            provenance: Provenance::new(),
        }
    }

    /// Build from surface-syntax rule strings.
    pub fn parse_rules(
        name: impl Into<String>,
        contributor: impl Into<String>,
        note: impl Into<String>,
        target: Target,
        rule_srcs: &[&str],
    ) -> Result<Classifier, ClassifierError> {
        let rules = rule_srcs
            .iter()
            .map(|s| Rule::parse(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Classifier::new(name, contributor, note, target, rules))
    }

    /// All g-tree node names referenced by any rule, in first-seen order.
    pub fn referenced_nodes(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for r in &self.rules {
            for c in r
                .output
                .referenced_columns()
                .into_iter()
                .chain(r.guard.referenced_columns())
            {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Bind the classifier against a g-tree and a study schema: resolve
    /// node references, determine the source form, type-check outputs
    /// against the target domain, and rewrite form-node references (which
    /// mean "the instance exists") to TRUE. Returns an executable
    /// [`BoundClassifier`].
    pub fn bind(
        &self,
        tree: &GTree,
        schema: &StudySchema,
    ) -> Result<BoundClassifier, ClassifierError> {
        if self.contributor != tree.tool {
            return Err(ClassifierError::WrongContributor {
                expected: self.contributor.clone(),
                got: tree.tool.clone(),
            });
        }
        if self.rules.is_empty() {
            return Err(ClassifierError::Empty(self.name.clone()));
        }
        // Partition references into attribute nodes and form nodes.
        let is_cleaner = matches!(self.target, Target::Cleaner { .. });
        let mut form: Option<String> = None;
        let mut attr_nodes: Vec<String> = Vec::new();
        let mut form_nodes: Vec<String> = Vec::new();
        for name in self.referenced_nodes() {
            if is_cleaner && name.eq_ignore_ascii_case(DISCARD) {
                continue; // the reserved cleaning token is not a node
            }
            let node = tree.node(name)?;
            if node.is_form() {
                form_nodes.push(name.to_owned());
                merge_form(&mut form, &node.name, &self.name)?;
            } else if node.is_attribute() {
                attr_nodes.push(name.to_owned());
                merge_form(&mut form, &node.source_form, &self.name)?;
            } else {
                return Err(ClassifierError::GTree(GTreeError::UnknownNode(format!(
                    "`{name}` is a decoration node and holds no data"
                ))));
            }
        }
        let form = form.ok_or_else(|| {
            ClassifierError::FormAmbiguity(format!(
                "classifier `{}` references no g-tree nodes",
                self.name
            ))
        })?;

        // Validate the target and, for domain targets, type-check literal
        // rule outputs against the domain.
        match &self.target {
            Target::Domain {
                entity,
                attribute,
                domain,
            } => {
                let d = schema.resolve(entity, attribute, domain)?;
                for r in &self.rules {
                    if let Expr::Lit(v) = &r.output {
                        if !d.spec.contains(v) {
                            return Err(ClassifierError::OutsideDomain {
                                classifier: self.name.clone(),
                                value: v.to_string(),
                                domain: domain.clone(),
                            });
                        }
                    }
                }
            }
            Target::Entity { entity } => {
                schema.entity(entity)?;
                // "The classifier must refer to at least one node in the
                // g-tree that represents a form", and its outputs must *be*
                // that form reference.
                if form_nodes.is_empty() {
                    return Err(ClassifierError::BadEntityOutput(format!(
                        "entity classifier `{}` references no form node",
                        self.name
                    )));
                }
                for r in &self.rules {
                    match &r.output {
                        Expr::Col(c) if *c == form => {}
                        other => {
                            return Err(ClassifierError::BadEntityOutput(format!(
                                "entity classifier `{}` must output the form node `{form}`, got {other}",
                                self.name
                            )))
                        }
                    }
                }
            }
            Target::Cleaner { entity } => {
                schema.entity(entity)?;
                // Every rule must read `DISCARD <- condition`.
                for r in &self.rules {
                    match &r.output {
                        Expr::Col(c) if c.eq_ignore_ascii_case(DISCARD) => {}
                        other => {
                            return Err(ClassifierError::BadEntityOutput(format!(
                                "cleaning classifier `{}` must output DISCARD, got {other}",
                                self.name
                            )))
                        }
                    }
                }
            }
        }

        // Rewrite form-node references to TRUE: when the classifier runs
        // over an instance's row, the instance exists by construction.
        let rewrite = |e: &Expr| -> Expr {
            substitute_columns(e, &|c| {
                if c == form {
                    Some(Expr::lit(true))
                } else {
                    None
                }
            })
        };
        let rules: Vec<Rule> = self
            .rules
            .iter()
            .map(|r| Rule {
                output: rewrite(&r.output),
                guard: rewrite(&r.guard),
            })
            .collect();

        // The evaluation schema: the form's attribute nodes, typed from the
        // g-tree. Rows handed to `classify` must carry these columns.
        let form_node = tree.node(&form)?;
        let mut columns = Vec::new();
        for n in tree.attributes() {
            if n.source_form == form_node.name {
                columns.push(Column::new(
                    n.name.clone(),
                    n.data_type.expect("attribute nodes are typed"),
                ));
            }
        }
        let eval_schema = Schema::new(form.clone(), columns).map_err(ClassifierError::Eval)?;
        for r in &rules {
            let found = r.guard.infer_type(&eval_schema)?;
            if found != DataType::Bool {
                return Err(ClassifierError::NonBooleanGuard {
                    classifier: self.name.clone(),
                    guard: r.guard.to_string(),
                    found,
                });
            }
        }

        Ok(BoundClassifier {
            name: self.name.clone(),
            contributor: self.contributor.clone(),
            target: self.target.clone(),
            form,
            attr_nodes,
            rules,
            eval_schema,
        })
    }
}

fn merge_form(
    form: &mut Option<String>,
    candidate: &str,
    classifier: &str,
) -> Result<(), ClassifierError> {
    match form {
        None => {
            *form = Some(candidate.to_owned());
            Ok(())
        }
        Some(f) if f == candidate => Ok(()),
        Some(f) => Err(ClassifierError::FormAmbiguity(format!(
            "classifier `{classifier}` references nodes from both `{f}` and `{candidate}`"
        ))),
    }
}

/// Substitute column references by expressions (partial).
fn substitute_columns(e: &Expr, f: &impl Fn(&str) -> Option<Expr>) -> Expr {
    match e {
        Expr::Col(c) => f(c).unwrap_or_else(|| Expr::Col(c.clone())),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(substitute_columns(a, f)),
            Box::new(substitute_columns(b, f)),
        ),
        Expr::Not(x) => Expr::Not(Box::new(substitute_columns(x, f))),
        Expr::Neg(x) => Expr::Neg(Box::new(substitute_columns(x, f))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(substitute_columns(x, f))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(substitute_columns(x, f))),
        Expr::InList(x, vs) => Expr::InList(Box::new(substitute_columns(x, f)), vs.clone()),
        Expr::Coalesce(es) => Expr::Coalesce(es.iter().map(|x| substitute_columns(x, f)).collect()),
        Expr::Case { arms, default } => Expr::Case {
            arms: arms
                .iter()
                .map(|(c, v)| (substitute_columns(c, f), substitute_columns(v, f)))
                .collect(),
            default: Box::new(substitute_columns(default, f)),
        },
    }
}

/// A classifier bound to a g-tree and study schema: executable over naïve
/// rows of its source form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundClassifier {
    pub name: String,
    pub contributor: String,
    pub target: Target,
    /// The form whose instances this classifier reads.
    pub form: String,
    /// Attribute nodes actually referenced (the classifier's data needs).
    pub attr_nodes: Vec<String>,
    /// Rules with form references resolved.
    pub rules: Vec<Rule>,
    /// Schema of the rows handed to [`BoundClassifier::classify`]: one
    /// column per attribute node of the form, in g-tree order.
    pub eval_schema: Schema,
}

impl BoundClassifier {
    /// Classify one instance row (columns per `eval_schema`). Returns the
    /// first matching rule's output; NULL when no rule matches — an
    /// unclassifiable instance.
    pub fn classify(&self, row: &Row) -> RelResult<Value> {
        for rule in &self.rules {
            if rule.guard.matches(&self.eval_schema, row)? {
                return rule.output.eval(&self.eval_schema, row);
            }
        }
        Ok(Value::Null)
    }

    /// The disjunction of all rule guards — "any rule matches". This is
    /// the selection predicate of entity classifiers and the discard
    /// predicate of cleaning classifiers.
    pub fn guard_expr(&self) -> Expr {
        self.rules
            .iter()
            .map(|r| r.guard.clone())
            .reduce(Expr::or)
            .expect("bound classifiers have at least one rule")
    }

    /// For entity classifiers: should this instance become a study entity?
    /// For cleaning classifiers: should this instance be discarded?
    ///
    /// The row-walk form of [`BoundClassifier::guard_expr`]: like its
    /// `OR`, it evaluates every guard — a guard that fails after an
    /// earlier one matched still fails the row — so the first error is
    /// the compiled study's.
    pub fn selects(&self, row: &Row) -> RelResult<bool> {
        let mut selected = false;
        for rule in &self.rules {
            selected |= rule.guard.matches(&self.eval_schema, row)?;
        }
        Ok(selected)
    }

    /// Project a naïve form row (which includes `instance_id` first) down to
    /// this classifier's evaluation row.
    pub fn eval_row_from(&self, naive_schema: &Schema, naive_row: &Row) -> RelResult<Row> {
        self.eval_schema
            .columns()
            .iter()
            .map(|c| {
                let idx =
                    naive_schema
                        .index_of(&c.name)
                        .ok_or_else(|| RelError::UnknownColumn {
                            table: naive_schema.name.clone(),
                            column: c.name.clone(),
                        })?;
                Ok(naive_row[idx].clone())
            })
            .collect()
    }

    /// Compile the rule list into a single CASE expression over the
    /// evaluation schema — the form MultiClass uses when generating ETL
    /// (each rule becomes a conditional, Section 4.2).
    pub fn as_case_expr(&self) -> Expr {
        Expr::Case {
            arms: self
                .rules
                .iter()
                .map(|r| (r.guard.clone(), r.output.clone()))
                .collect(),
            default: Box::new(Expr::Lit(Value::Null)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::study_schema::{AttributeDef, EntityDef};
    use guava_forms::control::{ChoiceOption, Control};
    use guava_forms::form::{FormDef, ReportingTool};

    fn tree() -> GTree {
        GTree::derive(&ReportingTool::new(
            "cori",
            "1.0",
            vec![FormDef::new(
                "Procedure",
                "Procedure",
                vec![
                    Control::numeric("PacksPerDay", "Packs per day", DataType::Int),
                    Control::check_box("SurgeryPerformed", "Surgery performed?"),
                    Control::drop_down(
                        "Alcohol",
                        "Alcohol use",
                        vec![
                            ChoiceOption::new("None", 0i64),
                            ChoiceOption::new("Heavy", 2i64),
                        ],
                    ),
                ],
            )],
        ))
        .unwrap()
    }

    fn schema() -> StudySchema {
        let root = EntityDef::new("Procedure").with_attribute(AttributeDef::new(
            "Smoking",
            vec![Domain::categorical(
                "class",
                "None, Light, Moderate, Heavy",
                &["None", "Light", "Moderate", "Heavy"],
            )],
        ));
        StudySchema::new("s", root)
    }

    fn habits_cancer() -> Classifier {
        Classifier::parse_rules(
            "Habits (Cancer)",
            "cori",
            "Classifies packs per day according to conversations with cancer study on 5/3/02",
            Target::Domain {
                entity: "Procedure".into(),
                attribute: "Smoking".into(),
                domain: "class".into(),
            },
            &[
                "'None' <- PacksPerDay = 0",
                "'Light' <- 0 < PacksPerDay AND PacksPerDay < 2",
                "'Moderate' <- 2 <= PacksPerDay AND PacksPerDay < 5",
                "'Heavy' <- PacksPerDay >= 5",
            ],
        )
        .unwrap()
    }

    #[test]
    fn bind_and_classify_figure5a() {
        let b = habits_cancer().bind(&tree(), &schema()).unwrap();
        assert_eq!(b.form, "Procedure");
        assert_eq!(b.attr_nodes, vec!["PacksPerDay"]);
        // eval schema covers all three attributes of the form.
        assert_eq!(b.eval_schema.arity(), 3);
        let classify = |packs: Value| b.classify(&vec![packs, Value::Null, Value::Null]).unwrap();
        assert_eq!(classify(Value::Int(0)), Value::text("None"));
        assert_eq!(classify(Value::Int(1)), Value::text("Light"));
        assert_eq!(classify(Value::Int(4)), Value::text("Moderate"));
        assert_eq!(classify(Value::Int(9)), Value::text("Heavy"));
        assert_eq!(
            classify(Value::Null),
            Value::Null,
            "unanswered -> unclassified"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let c = Classifier::parse_rules(
            "overlap",
            "cori",
            "",
            Target::Domain {
                entity: "Procedure".into(),
                attribute: "Smoking".into(),
                domain: "class".into(),
            },
            &["'Light' <- PacksPerDay >= 0", "'Heavy' <- PacksPerDay >= 5"],
        )
        .unwrap();
        let b = c.bind(&tree(), &schema()).unwrap();
        assert_eq!(
            b.classify(&vec![Value::Int(9), Value::Null, Value::Null])
                .unwrap(),
            Value::text("Light")
        );
    }

    #[test]
    fn out_of_domain_literal_rejected_at_bind() {
        let c = Classifier::parse_rules(
            "bad",
            "cori",
            "",
            Target::Domain {
                entity: "Procedure".into(),
                attribute: "Smoking".into(),
                domain: "class".into(),
            },
            &["'Sometimes' <- PacksPerDay = 1"],
        )
        .unwrap();
        assert!(matches!(
            c.bind(&tree(), &schema()),
            Err(ClassifierError::OutsideDomain { .. })
        ));
    }

    #[test]
    fn entity_classifier_figure5c() {
        let c = Classifier::parse_rules(
            "Relevant Procedures",
            "cori",
            "Only consider procedures where surgery was performed",
            Target::Entity {
                entity: "Procedure".into(),
            },
            &["Procedure <- Procedure AND SurgeryPerformed = TRUE"],
        )
        .unwrap();
        let b = c.bind(&tree(), &schema()).unwrap();
        assert!(b
            .selects(&vec![Value::Null, Value::Bool(true), Value::Null])
            .unwrap());
        assert!(!b
            .selects(&vec![Value::Null, Value::Bool(false), Value::Null])
            .unwrap());
        assert!(!b
            .selects(&vec![Value::Null, Value::Null, Value::Null])
            .unwrap());
    }

    #[test]
    fn entity_classifier_requires_form_reference() {
        let c = Classifier::parse_rules(
            "noform",
            "cori",
            "",
            Target::Entity {
                entity: "Procedure".into(),
            },
            &["SurgeryPerformed <- SurgeryPerformed = TRUE"],
        )
        .unwrap();
        assert!(matches!(
            c.bind(&tree(), &schema()),
            Err(ClassifierError::BadEntityOutput(_))
        ));
    }

    #[test]
    fn wrong_contributor_rejected() {
        let c = habits_cancer();
        let mut other = tree();
        other.tool = "endosoft".into();
        assert!(matches!(
            c.bind(&other, &schema()),
            Err(ClassifierError::WrongContributor { .. })
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let c = Classifier::parse_rules(
            "ghost",
            "cori",
            "",
            Target::Domain {
                entity: "Procedure".into(),
                attribute: "Smoking".into(),
                domain: "class".into(),
            },
            &["'None' <- GhostNode = 0"],
        )
        .unwrap();
        assert!(matches!(
            c.bind(&tree(), &schema()),
            Err(ClassifierError::GTree(_))
        ));
    }

    #[test]
    fn empty_classifier_rejected() {
        let c = Classifier::new(
            "empty",
            "cori",
            "",
            Target::Entity {
                entity: "Procedure".into(),
            },
            vec![],
        );
        assert!(matches!(
            c.bind(&tree(), &schema()),
            Err(ClassifierError::Empty(_))
        ));
    }

    #[test]
    fn non_boolean_guard_rejected() {
        let c = Classifier::parse_rules(
            "bare",
            "cori",
            "",
            Target::Domain {
                entity: "Procedure".into(),
                attribute: "Smoking".into(),
                domain: "class".into(),
            },
            &["'None' <- PacksPerDay = 0", "'Heavy' <- PacksPerDay"],
        )
        .unwrap();
        let err = c.bind(&tree(), &schema()).unwrap_err();
        assert!(
            matches!(
                &err,
                ClassifierError::NonBooleanGuard { classifier, found: DataType::Int, .. }
                    if classifier == "bare"
            ),
            "{err}"
        );
    }

    #[test]
    fn selects_evaluates_every_guard_like_guard_expr() {
        let b = Classifier::parse_rules(
            "Surgery Or Heavy",
            "cori",
            "",
            Target::Entity {
                entity: "Procedure".into(),
            },
            &[
                "Procedure <- Procedure AND SurgeryPerformed = TRUE",
                "Procedure <- 100 / PacksPerDay > 1",
            ],
        )
        .unwrap()
        .bind(&tree(), &schema())
        .unwrap();
        // The first guard selects the row; the second divides by zero.
        let row = vec![Value::Int(0), Value::Bool(true), Value::Null];
        let walked = b.selects(&row).unwrap_err();
        let spec = b.guard_expr().matches(&b.eval_schema, &row).unwrap_err();
        assert_eq!(walked, spec);
        assert!(walked.to_string().contains("division by zero"), "{walked}");
        let row = vec![Value::Int(10), Value::Bool(true), Value::Null];
        assert!(b.selects(&row).unwrap());
    }

    #[test]
    fn case_expr_equivalent_to_rule_walk() {
        let b = habits_cancer().bind(&tree(), &schema()).unwrap();
        let case = b.as_case_expr();
        for packs in [0i64, 1, 3, 7] {
            let row = vec![Value::Int(packs), Value::Null, Value::Null];
            assert_eq!(
                case.eval(&b.eval_schema, &row).unwrap(),
                b.classify(&row).unwrap()
            );
        }
    }

    #[test]
    fn eval_row_projection() {
        let b = habits_cancer().bind(&tree(), &schema()).unwrap();
        let naive = Schema::new(
            "Procedure",
            vec![
                Column::required("instance_id", DataType::Int),
                Column::new("PacksPerDay", DataType::Int),
                Column::new("SurgeryPerformed", DataType::Bool),
                Column::new("Alcohol", DataType::Int),
            ],
        )
        .unwrap();
        let row = vec![
            Value::Int(7),
            Value::Int(3),
            Value::Bool(true),
            Value::Int(0),
        ];
        let eval_row = b.eval_row_from(&naive, &row).unwrap();
        assert_eq!(b.classify(&eval_row).unwrap(), Value::text("Moderate"));
    }
}
