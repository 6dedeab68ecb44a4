//! The data-entry engine: simulates a clinician filling in a form.
//!
//! "As a normal part of using the reporting tool, when the user enters data
//! into a field, the reporting tool places that data into the database"
//! (Section 3.2). A [`DataEntrySession`] enforces the UI semantics that give
//! GUAVA its context: defaults pre-filled, disabled controls un-fillable,
//! dependent answers cleared when their controller changes, required
//! controls enforced at save time.

use crate::control::Control;
use crate::form::FormDef;
use guava_relational::table::Row;
use guava_relational::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A saved form instance: one endoscopy report, one medication entry, ...
/// Holds only answers for data-bearing controls; unanswered = absent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FormInstance {
    pub form_id: String,
    pub instance_id: i64,
    pub answers: BTreeMap<String, Value>,
}

impl FormInstance {
    /// The value of a control in this instance (NULL if unanswered).
    pub fn answer(&self, control_id: &str) -> Value {
        self.answers.get(control_id).cloned().unwrap_or(Value::Null)
    }

    /// Render the instance as a row of the form's naïve schema:
    /// `instance_id`, then one answer per data control in document order.
    pub fn naive_row(&self, form: &FormDef) -> Row {
        std::iter::once(Value::Int(self.instance_id))
            .chain(form.data_controls().iter().map(|c| self.answer(&c.id)))
            .collect()
    }
}

/// Errors raised while entering data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    UnknownControl(String),
    /// Tried to answer a control that is currently disabled.
    Disabled {
        control: String,
        reason: String,
    },
    /// Value rejected by the control's own validation.
    Invalid {
        control: String,
        reason: String,
    },
    /// Save attempted with an unanswered required control.
    MissingRequired(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::UnknownControl(c) => write!(f, "unknown control `{c}`"),
            EntryError::Disabled { control, reason } => {
                write!(f, "control `{control}` is disabled ({reason})")
            }
            EntryError::Invalid { control, reason } => {
                write!(f, "invalid value for `{control}`: {reason}")
            }
            EntryError::MissingRequired(c) => write!(f, "required control `{c}` unanswered"),
        }
    }
}

impl std::error::Error for EntryError {}

/// An in-progress form filling session.
///
/// The session indexes its form once, when it opens: the controls in walk
/// order, each enablement rule's controller as a position, and the answers
/// by position. A duplicated id resolves to its first occurrence, as a
/// search of the walk would. Nothing after `open` walks the control tree
/// again: `set`, `get` and `is_enabled` are one position lookup each, and
/// an enablement chain is followed by index.
pub struct DataEntrySession<'a> {
    form: &'a FormDef,
    instance_id: i64,
    /// Every control of the form, in walk (document) order.
    controls: Vec<&'a Control>,
    /// Per control, the position of its rule's controller; `None` when the
    /// control has no rule or the controller does not exist.
    controllers: Vec<Option<usize>>,
    /// Per control, its answer. Only the first occurrence of an id holds one.
    values: Vec<Option<Value>>,
}

impl<'a> DataEntrySession<'a> {
    /// Open the form: defaults are pre-filled exactly as the real tool
    /// would render them.
    pub fn open(form: &'a FormDef, instance_id: i64) -> DataEntrySession<'a> {
        let controls: Vec<&Control> = form.walk().collect();
        let position = |id: &str| controls.iter().position(|c| c.id == id);
        let controllers = controls
            .iter()
            .map(|c| c.enable.as_ref().and_then(|r| position(&r.controller)))
            .collect();
        let mut values = vec![None; controls.len()];
        for (at, c) in controls.iter().enumerate() {
            if let (true, Some(d)) = (c.kind.stores_data(), &c.default) {
                values[position(&c.id).unwrap_or(at)] = Some(d.clone());
            }
        }
        let mut s = DataEntrySession {
            form,
            instance_id,
            controls,
            controllers,
            values,
        };
        s.clear_disabled();
        s
    }

    /// Where the control `id` sits in walk order (its first occurrence).
    fn position(&self, id: &str) -> Option<usize> {
        self.controls.iter().position(|c| c.id == id)
    }

    fn known(&self, id: &str) -> Result<usize, EntryError> {
        self.position(id)
            .ok_or_else(|| EntryError::UnknownControl(id.to_owned()))
    }

    /// Is `control` currently enabled, given the values entered so far?
    /// A control is disabled while its own rule is unsatisfied *or* while
    /// any ancestor in the enablement chain is disabled.
    pub fn is_enabled(&self, id: &str) -> Result<bool, EntryError> {
        self.enabled_at(self.known(id)?)
    }

    fn enabled_at(&self, mut at: usize) -> Result<bool, EntryError> {
        let mut hops = 0;
        while let Some(rule) = &self.controls[at].enable {
            let controller = self.controllers[at];
            let value = controller.and_then(|c| self.values[c].as_ref());
            if !rule.when.satisfied_by(value.unwrap_or(&Value::Null)) {
                return Ok(false);
            }
            at = controller.ok_or_else(|| EntryError::UnknownControl(rule.controller.clone()))?;
            hops += 1;
            if hops > 64 {
                // Defensive: cyclic rules are rejected by FormDef::validate
                // in practice, but never loop forever.
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Enter (or overwrite) an answer. Clears any dependent answers whose
    /// controls become disabled, mirroring real form behaviour.
    pub fn set(&mut self, id: &str, value: impl Into<Value>) -> Result<(), EntryError> {
        let value = value.into();
        let at = self.known(id)?;
        let control = self.controls[at];
        if !control.kind.stores_data() {
            return Err(EntryError::Invalid {
                control: id.to_owned(),
                reason: "control stores no data".into(),
            });
        }
        if !self.enabled_at(at)? {
            let reason = control
                .enable
                .as_ref()
                .map(|r| r.when.describe(&r.controller))
                .unwrap_or_else(|| "ancestor disabled".into());
            return Err(EntryError::Disabled {
                control: id.to_owned(),
                reason,
            });
        }
        control
            .validate_value(&value)
            .map_err(|reason| EntryError::Invalid {
                control: id.to_owned(),
                reason,
            })?;
        self.values[at] = (!value.is_null()).then_some(value);
        self.clear_disabled();
        Ok(())
    }

    /// Clear an answer (e.g. the clinician un-selects a drop-down).
    pub fn clear(&mut self, id: &str) -> Result<(), EntryError> {
        self.set(id, Value::Null)
    }

    /// Current value of a control (NULL if unanswered or disabled).
    pub fn get(&self, id: &str) -> Value {
        self.position(id)
            .and_then(|at| self.values[at].clone())
            .unwrap_or(Value::Null)
    }

    fn clear_disabled(&mut self) {
        // Iterate to a fixed point: clearing one answer may disable others.
        // Only a control with a rule can be disabled.
        loop {
            let stale: Vec<usize> = (0..self.controls.len())
                .filter(|&at| {
                    self.values[at].is_some()
                        && self.controls[at].enable.is_some()
                        && !self.enabled_at(at).unwrap_or(false)
                })
                .collect();
            if stale.is_empty() {
                break;
            }
            for at in stale {
                self.values[at] = None;
            }
        }
    }

    /// Save the form: required controls must be answered; returns the
    /// immutable instance.
    pub fn save(self) -> Result<FormInstance, EntryError> {
        for (at, c) in self.controls.iter().enumerate() {
            if c.required
                && c.kind.stores_data()
                && self.values[self.position(&c.id).unwrap_or(at)].is_none()
            {
                return Err(EntryError::MissingRequired(c.id.clone()));
            }
        }
        let mut answers = BTreeMap::new();
        for (c, v) in self.controls.iter().zip(self.values) {
            if let Some(v) = v {
                answers.insert(c.id.clone(), v);
            }
        }
        Ok(FormInstance {
            form_id: self.form.id.clone(),
            instance_id: self.instance_id,
            answers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ChoiceOption, EnableWhen};
    use guava_relational::value::DataType;

    fn form() -> FormDef {
        FormDef::new(
            "history",
            "Medical History",
            vec![
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
                Control::check_box("alcohol", "Alcohol use?").with_default(false),
                Control::text_box("surgeon", "Surgeon name").required(),
            ],
        )
    }

    #[test]
    fn defaults_prefilled() {
        let f = form();
        let s = DataEntrySession::open(&f, 1);
        assert_eq!(s.get("alcohol"), Value::Bool(false));
        assert_eq!(s.get("smoking"), Value::Null);
    }

    #[test]
    fn disabled_control_rejects_entry() {
        let f = form();
        let mut s = DataEntrySession::open(&f, 1);
        let err = s.set("frequency", 2.0).unwrap_err();
        assert!(matches!(err, EntryError::Disabled { .. }));
        s.set("smoking", 1i64).unwrap();
        s.set("frequency", 2.0).unwrap();
        assert_eq!(s.get("frequency"), Value::Float(2.0));
    }

    #[test]
    fn changing_controller_clears_dependents() {
        let f = form();
        let mut s = DataEntrySession::open(&f, 1);
        s.set("smoking", 1i64).unwrap();
        s.set("frequency", 2.0).unwrap();
        s.set("smoking", 0i64).unwrap();
        assert_eq!(
            s.get("frequency"),
            Value::Null,
            "frequency cleared when smoking = No"
        );
    }

    #[test]
    fn required_enforced_at_save() {
        let f = form();
        let s = DataEntrySession::open(&f, 1);
        assert_eq!(
            s.save().unwrap_err(),
            EntryError::MissingRequired("surgeon".into())
        );

        let mut s = DataEntrySession::open(&f, 1);
        s.set("surgeon", "Dr. Terwilliger").unwrap();
        let inst = s.save().unwrap();
        assert_eq!(inst.answer("surgeon"), Value::text("Dr. Terwilliger"));
        assert_eq!(
            inst.answer("alcohol"),
            Value::Bool(false),
            "default persisted"
        );
    }

    #[test]
    fn invalid_values_rejected() {
        let f = form();
        let mut s = DataEntrySession::open(&f, 1);
        assert!(matches!(
            s.set("smoking", 7i64),
            Err(EntryError::Invalid { .. })
        ));
        assert!(matches!(
            s.set("ghost", 1i64),
            Err(EntryError::UnknownControl(_))
        ));
    }

    #[test]
    fn naive_row_layout() {
        let f = form();
        let mut s = DataEntrySession::open(&f, 42);
        s.set("smoking", 1i64).unwrap();
        s.set("frequency", 1.5).unwrap();
        s.set("surgeon", "Dr. L").unwrap();
        let inst = s.save().unwrap();
        let row = inst.naive_row(&f);
        // instance_id, smoking, frequency, alcohol, surgeon
        assert_eq!(
            row,
            vec![
                Value::Int(42),
                Value::Int(1),
                Value::Float(1.5),
                Value::Bool(false),
                Value::text("Dr. L"),
            ]
        );
    }

    #[test]
    fn clear_removes_answer() {
        let f = form();
        let mut s = DataEntrySession::open(&f, 1);
        s.set("smoking", 0i64).unwrap();
        s.clear("smoking").unwrap();
        assert_eq!(s.get("smoking"), Value::Null);
    }

    #[test]
    fn chained_enablement_via_ancestors() {
        let f = FormDef::new(
            "f",
            "f",
            vec![
                Control::check_box("a", "a"),
                Control::check_box("b", "b")
                    .enabled_when("a", EnableWhen::Equals(Value::Bool(true))),
                Control::check_box("c", "c")
                    .enabled_when("b", EnableWhen::Equals(Value::Bool(true))),
            ],
        );
        let mut s = DataEntrySession::open(&f, 1);
        assert!(!s.is_enabled("c").unwrap());
        s.set("a", true).unwrap();
        s.set("b", true).unwrap();
        assert!(s.is_enabled("c").unwrap());
        s.set("c", true).unwrap();
        // Turning `a` off disables b AND transitively c; both answers clear.
        s.set("a", false).unwrap();
        assert_eq!(s.get("b"), Value::Null);
        assert_eq!(s.get("c"), Value::Null);
    }
}
