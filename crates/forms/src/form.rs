//! Forms (screens) and reporting tools (applications).
//!
//! "Each screen of the tool corresponds to a table, and each control
//! corresponds to a column. We call this design the *naïve schema* for a
//! tool" (Section 3.2). This module derives that naïve schema from the
//! declarative control tree.

use crate::control::{depth_first, Control, ControlKind};
use guava_relational::schema::{Column, Schema};
use guava_relational::value::DataType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The synthetic key column present in every naïve-schema table: one row
/// per saved form instance (an endoscopy report, a medication entry, ...).
pub const INSTANCE_ID: &str = "instance_id";

/// A form definition: one screen of a reporting tool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FormDef {
    /// Identifier, unique within the tool; the naïve-schema table name.
    pub id: String,
    /// The window title the clinician sees.
    pub title: String,
    /// Top-level controls in layout order.
    pub controls: Vec<Control>,
}

/// Errors detected while validating a form definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormError {
    DuplicateControlId(String),
    /// An enablement rule names a controller that does not exist.
    UnknownController {
        control: String,
        controller: String,
    },
    /// An enablement rule names a controller that stores no data.
    DatalessController {
        control: String,
        controller: String,
    },
    /// A control's default value fails its own validation.
    BadDefault {
        control: String,
        reason: String,
    },
    /// A required control is enablement-dependent (can never be guaranteed).
    RequiredButConditional(String),
    DuplicateFormId(String),
}

impl std::fmt::Display for FormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormError::DuplicateControlId(c) => write!(f, "duplicate control id `{c}`"),
            FormError::UnknownController {
                control,
                controller,
            } => {
                write!(
                    f,
                    "control `{control}` depends on unknown controller `{controller}`"
                )
            }
            FormError::DatalessController {
                control,
                controller,
            } => {
                write!(
                    f,
                    "control `{control}` depends on dataless controller `{controller}`"
                )
            }
            FormError::BadDefault { control, reason } => {
                write!(f, "bad default on `{control}`: {reason}")
            }
            FormError::RequiredButConditional(c) => {
                write!(f, "control `{c}` is required but conditionally enabled")
            }
            FormError::DuplicateFormId(id) => write!(f, "duplicate form id `{id}`"),
        }
    }
}

impl std::error::Error for FormError {}

impl FormDef {
    pub fn new(id: impl Into<String>, title: impl Into<String>, controls: Vec<Control>) -> FormDef {
        FormDef {
            id: id.into(),
            title: title.into(),
            controls,
        }
    }

    /// Depth-first iteration over every control of the form, on one
    /// stack for the whole form.
    pub fn walk(&self) -> impl Iterator<Item = &Control> {
        depth_first(self.controls.iter().rev().collect())
    }

    /// Controls that store data, in document order — the naïve columns.
    pub fn data_controls(&self) -> Vec<&Control> {
        self.walk().filter(|c| c.kind.stores_data()).collect()
    }

    /// Structural validation of the form (unique ids, sound enablement
    /// references, valid defaults).
    pub fn validate(&self) -> Result<(), Vec<FormError>> {
        let mut errors = Vec::new();
        let mut seen: BTreeMap<&str, &Control> = BTreeMap::new();
        for c in self.walk() {
            if seen.insert(&c.id, c).is_some() {
                errors.push(FormError::DuplicateControlId(c.id.clone()));
            }
        }
        for c in self.walk() {
            if let Some(rule) = &c.enable {
                match seen.get(rule.controller.as_str()) {
                    None => errors.push(FormError::UnknownController {
                        control: c.id.clone(),
                        controller: rule.controller.clone(),
                    }),
                    Some(ctrl) if !ctrl.kind.stores_data() => {
                        errors.push(FormError::DatalessController {
                            control: c.id.clone(),
                            controller: rule.controller.clone(),
                        })
                    }
                    Some(_) => {}
                }
                if c.required {
                    errors.push(FormError::RequiredButConditional(c.id.clone()));
                }
            }
            if let Some(d) = &c.default {
                if let Err(reason) = c.validate_value(d) {
                    errors.push(FormError::BadDefault {
                        control: c.id.clone(),
                        reason,
                    });
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Derive the form's naïve schema: `instance_id` key plus one column per
    /// data-bearing control, in document order.
    pub fn naive_schema(&self) -> Schema {
        let mut cols = vec![Column::required(INSTANCE_ID, DataType::Int)];
        for c in self.data_controls() {
            let ty = c.kind.data_type().expect("data control has a type");
            let mut col = Column::new(c.id.clone(), ty);
            // A drop-down that allows free text must store text, because
            // "other" answers bypass the coded option values.
            if let ControlKind::DropDownList {
                allows_other: true, ..
            } = &c.kind
            {
                col.data_type = DataType::Text;
            }
            cols.push(col);
        }
        Schema::new(self.id.clone(), cols)
            .expect("validated form has unique control ids")
            .with_primary_key(&[INSTANCE_ID])
            .expect("instance_id exists")
    }
}

/// A reporting tool: a named application made of several forms, versioned
/// so that tool upgrades (Section 6 future work) can be modeled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportingTool {
    /// Vendor/application name ("CORI", "EndoSoft", ...).
    pub name: String,
    /// Version string; classifier propagation compares versions.
    pub version: String,
    pub forms: Vec<FormDef>,
}

impl ReportingTool {
    pub fn new(
        name: impl Into<String>,
        version: impl Into<String>,
        forms: Vec<FormDef>,
    ) -> ReportingTool {
        ReportingTool {
            name: name.into(),
            version: version.into(),
            forms,
        }
    }

    pub fn form(&self, id: &str) -> Option<&FormDef> {
        self.forms.iter().find(|f| f.id == id)
    }

    /// Validate every form plus cross-form constraints.
    pub fn validate(&self) -> Result<(), Vec<FormError>> {
        let mut errors = Vec::new();
        for (i, f) in self.forms.iter().enumerate() {
            if self.forms[..i].iter().any(|p| p.id == f.id) {
                errors.push(FormError::DuplicateFormId(f.id.clone()));
            }
            if let Err(mut e) = f.validate() {
                errors.append(&mut e);
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The tool's full naïve schema: one table per form.
    pub fn naive_schemas(&self) -> Vec<Schema> {
        self.forms.iter().map(FormDef::naive_schema).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ChoiceOption, EnableWhen};
    use guava_relational::value::Value;

    fn form() -> FormDef {
        FormDef::new(
            "history",
            "Medical History",
            vec![Control::group("habits", "Habits")
                .child(
                    Control::radio(
                        "smoking",
                        "Does the patient smoke?",
                        vec![
                            ChoiceOption::new("No", 0i64),
                            ChoiceOption::new("Yes", 1i64),
                        ],
                    )
                    .child(
                        Control::numeric("frequency", "Packs per day?", DataType::Float)
                            .enabled_when("smoking", EnableWhen::Equals(Value::Int(1))),
                    ),
                )
                .child(Control::check_box("alcohol", "Alcohol use?").with_default(false))],
        )
    }

    #[test]
    fn valid_form_passes() {
        form().validate().unwrap();
    }

    #[test]
    fn naive_schema_has_key_and_data_columns_only() {
        let s = form().naive_schema();
        assert_eq!(s.name, "history");
        assert_eq!(
            s.column_names(),
            vec![INSTANCE_ID, "smoking", "frequency", "alcohol"],
            "group box contributes no column"
        );
        assert_eq!(s.primary_key().len(), 1);
        assert_eq!(s.column("smoking").unwrap().data_type, DataType::Int);
    }

    #[test]
    fn other_dropdown_widens_to_text() {
        let f = FormDef::new(
            "f",
            "f",
            vec![
                Control::drop_down("alcohol", "Alcohol?", vec![ChoiceOption::new("None", 0i64)])
                    .allows_other(),
            ],
        );
        assert_eq!(
            f.naive_schema().column("alcohol").unwrap().data_type,
            DataType::Text
        );
    }

    #[test]
    fn duplicate_ids_detected() {
        let f = FormDef::new(
            "f",
            "f",
            vec![Control::check_box("x", "a"), Control::check_box("x", "b")],
        );
        let errs = f.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FormError::DuplicateControlId(_))));
    }

    #[test]
    fn unknown_controller_detected() {
        let f = FormDef::new(
            "f",
            "f",
            vec![Control::check_box("x", "a").enabled_when("ghost", EnableWhen::Answered)],
        );
        let errs = f.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FormError::UnknownController { .. })));
    }

    #[test]
    fn dataless_controller_detected() {
        let f = FormDef::new(
            "f",
            "f",
            vec![
                Control::group("g", "box"),
                Control::check_box("x", "a").enabled_when("g", EnableWhen::Answered),
            ],
        );
        let errs = f.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FormError::DatalessController { .. })));
    }

    #[test]
    fn required_conditional_detected() {
        let f = FormDef::new(
            "f",
            "f",
            vec![
                Control::check_box("a", "a"),
                Control::check_box("b", "b")
                    .enabled_when("a", EnableWhen::Answered)
                    .required(),
            ],
        );
        let errs = f.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FormError::RequiredButConditional(_))));
    }

    #[test]
    fn bad_default_detected() {
        let f = FormDef::new(
            "f",
            "f",
            vec![Control::radio("r", "r", vec![ChoiceOption::new("A", 1i64)]).with_default(9i64)],
        );
        let errs = f.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FormError::BadDefault { .. })));
    }

    #[test]
    fn tool_detects_duplicate_forms() {
        let t = ReportingTool::new("demo", "1.0", vec![form(), form()]);
        let errs = t.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FormError::DuplicateFormId(_))));
    }

    #[test]
    fn tool_naive_schemas_one_per_form() {
        let t = ReportingTool::new("demo", "1.0", vec![form()]);
        assert_eq!(t.naive_schemas().len(), 1);
        assert!(t.form("history").is_some());
        assert!(t.form("nope").is_none());
    }
}
