//! UI controls of a clinical reporting tool.
//!
//! The paper's prototype extends Visual Studio .NET form components so the
//! IDE can generate a g-tree from the GUI code (Hypothesis #1). We replace
//! the pixel-level GUI with a *declarative control tree* carrying exactly
//! the information the g-tree needs: the question wording, the answer
//! options, defaults, required flags, and enablement dependencies ("the
//! frequency textbox does not become enabled until someone answers the
//! smoking question", Figure 2).

use guava_relational::value::{DataType, Value};
use serde::{Deserialize, Serialize};

/// One selectable option of a radio list or drop-down: the caption shown to
/// the clinician and the value stored in the database. The split is the
/// heart of GUAVA's context argument — "a `1` in the field *smoker* might
/// mean the patient is a current smoker, or that they quit a year ago".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChoiceOption {
    /// Exact wording displayed on screen.
    pub caption: String,
    /// Value the reporting tool stores when this option is selected.
    pub stored: Value,
}

impl ChoiceOption {
    pub fn new(caption: impl Into<String>, stored: impl Into<Value>) -> ChoiceOption {
        ChoiceOption {
            caption: caption.into(),
            stored: stored.into(),
        }
    }
}

/// When does a dependent control become enabled? Disabled controls cannot
/// hold data — their value is NULL by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnableWhen {
    /// Enabled once the controller control has *any* answer.
    Answered,
    /// Enabled when the controller's stored value equals this value.
    Equals(Value),
    /// Enabled when the controller's stored value is one of these.
    OneOf(Vec<Value>),
}

impl EnableWhen {
    /// Does the controller's current value satisfy this rule?
    pub fn satisfied_by(&self, controller_value: &Value) -> bool {
        match self {
            EnableWhen::Answered => !controller_value.is_null(),
            EnableWhen::Equals(v) => controller_value.sql_eq(v) == Some(true),
            EnableWhen::OneOf(vs) => vs.iter().any(|v| controller_value.sql_eq(v) == Some(true)),
        }
    }

    /// Human-readable form, used in g-tree node detail printouts (Figure 3c).
    pub fn describe(&self, controller: &str) -> String {
        match self {
            EnableWhen::Answered => format!("enabled when `{controller}` is answered"),
            EnableWhen::Equals(v) => format!("enabled when `{controller}` = {v}"),
            EnableWhen::OneOf(vs) => {
                let list: Vec<String> = vs.iter().map(Value::to_string).collect();
                format!("enabled when `{controller}` in ({})", list.join(", "))
            }
        }
    }
}

/// An enablement dependency: this control is active only while `controller`
/// (another control on the same form) satisfies `when`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnableRule {
    pub controller: String,
    pub when: EnableWhen,
}

/// The kind of a control, with kind-specific configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlKind {
    /// A visual grouping box. Stores no data but appears in the g-tree —
    /// "there is a node in the g-tree for every control on the screen, even
    /// those that do not normally store data, such as group boxes".
    GroupBox,
    /// Static text. Stores no data.
    Label,
    /// Free-text entry.
    TextBox,
    /// Numeric entry with optional bounds.
    NumericBox {
        data_type: DataType,
        min: Option<f64>,
        max: Option<f64>,
    },
    /// Date entry.
    DateBox,
    /// Boolean check box.
    CheckBox,
    /// Radio list: exactly one of `options`, but *starts unselected* —
    /// Figure 3b shows the smoking node with "an option for unselected".
    RadioGroup { options: Vec<ChoiceOption> },
    /// Drop-down list; `allows_other` adds a free-text escape ("an option
    /// for free text", Figure 3a).
    DropDownList {
        options: Vec<ChoiceOption>,
        allows_other: bool,
    },
}

impl ControlKind {
    /// Whether this control stores a data value (group boxes and labels do
    /// not — they only contribute context).
    pub fn stores_data(&self) -> bool {
        !matches!(self, ControlKind::GroupBox | ControlKind::Label)
    }

    /// The database type of the stored value, if any.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ControlKind::GroupBox | ControlKind::Label => None,
            ControlKind::TextBox => Some(DataType::Text),
            ControlKind::NumericBox { data_type, .. } => Some(*data_type),
            ControlKind::DateBox => Some(DataType::Date),
            ControlKind::CheckBox => Some(DataType::Bool),
            ControlKind::RadioGroup { options } | ControlKind::DropDownList { options, .. } => {
                options
                    .iter()
                    .find_map(|o| o.stored.data_type())
                    .or(Some(DataType::Text))
            }
        }
    }

    /// Short name used in g-tree renderings.
    pub fn name(&self) -> &'static str {
        match self {
            ControlKind::GroupBox => "GroupBox",
            ControlKind::Label => "Label",
            ControlKind::TextBox => "TextBox",
            ControlKind::NumericBox { .. } => "NumericBox",
            ControlKind::DateBox => "DateBox",
            ControlKind::CheckBox => "CheckBox",
            ControlKind::RadioGroup { .. } => "RadioGroup",
            ControlKind::DropDownList { .. } => "DropDownList",
        }
    }
}

/// One control on a form, with its nested children. Children of a
/// data-bearing control are controls that only make sense once it is
/// answered (the smoking → frequency nesting of Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Control {
    /// Identifier, unique within the form; becomes the naïve-schema column.
    pub id: String,
    /// The exact question wording displayed next to the control.
    pub caption: String,
    pub kind: ControlKind,
    /// Pre-filled value when the form opens, if any.
    pub default: Option<Value>,
    /// Must the clinician answer before saving?
    pub required: bool,
    /// Enablement dependency on another control.
    pub enable: Option<EnableRule>,
    pub children: Vec<Control>,
}

impl Control {
    pub fn new(id: impl Into<String>, caption: impl Into<String>, kind: ControlKind) -> Control {
        Control {
            id: id.into(),
            caption: caption.into(),
            kind,
            default: None,
            required: false,
            enable: None,
            children: Vec::new(),
        }
    }

    pub fn group(id: impl Into<String>, caption: impl Into<String>) -> Control {
        Control::new(id, caption, ControlKind::GroupBox)
    }

    pub fn text_box(id: impl Into<String>, caption: impl Into<String>) -> Control {
        Control::new(id, caption, ControlKind::TextBox)
    }

    pub fn check_box(id: impl Into<String>, caption: impl Into<String>) -> Control {
        Control::new(id, caption, ControlKind::CheckBox)
    }

    pub fn date_box(id: impl Into<String>, caption: impl Into<String>) -> Control {
        Control::new(id, caption, ControlKind::DateBox)
    }

    pub fn numeric(
        id: impl Into<String>,
        caption: impl Into<String>,
        data_type: DataType,
    ) -> Control {
        Control::new(
            id,
            caption,
            ControlKind::NumericBox {
                data_type,
                min: None,
                max: None,
            },
        )
    }

    pub fn radio(
        id: impl Into<String>,
        caption: impl Into<String>,
        options: Vec<ChoiceOption>,
    ) -> Control {
        Control::new(id, caption, ControlKind::RadioGroup { options })
    }

    pub fn drop_down(
        id: impl Into<String>,
        caption: impl Into<String>,
        options: Vec<ChoiceOption>,
    ) -> Control {
        Control::new(
            id,
            caption,
            ControlKind::DropDownList {
                options,
                allows_other: false,
            },
        )
    }

    pub fn with_default(mut self, v: impl Into<Value>) -> Control {
        self.default = Some(v.into());
        self
    }

    pub fn required(mut self) -> Control {
        self.required = true;
        self
    }

    pub fn with_range(mut self, min: f64, max: f64) -> Control {
        if let ControlKind::NumericBox { min: m, max: x, .. } = &mut self.kind {
            *m = Some(min);
            *x = Some(max);
        }
        self
    }

    pub fn allows_other(mut self) -> Control {
        if let ControlKind::DropDownList { allows_other, .. } = &mut self.kind {
            *allows_other = true;
        }
        self
    }

    pub fn enabled_when(mut self, controller: impl Into<String>, when: EnableWhen) -> Control {
        self.enable = Some(EnableRule {
            controller: controller.into(),
            when,
        });
        self
    }

    pub fn child(mut self, c: Control) -> Control {
        self.children.push(c);
        self
    }

    /// Depth-first iteration over this control and all descendants.
    pub fn walk(&self) -> impl Iterator<Item = &Control> {
        depth_first(vec![self])
    }

    /// Validate a single entered value against this control's constraints
    /// (option membership, numeric bounds, type).
    pub fn validate_value(&self, v: &Value) -> Result<(), String> {
        if v.is_null() {
            return Ok(()); // nullability/required is checked at form level
        }
        match &self.kind {
            ControlKind::GroupBox | ControlKind::Label => {
                Err(format!("control `{}` stores no data", self.id))
            }
            ControlKind::TextBox => match v {
                Value::Text(_) => Ok(()),
                _ => Err(format!("`{}` expects text, got {v}", self.id)),
            },
            ControlKind::DateBox => match v {
                Value::Date(_) => Ok(()),
                _ => Err(format!("`{}` expects a date, got {v}", self.id)),
            },
            ControlKind::CheckBox => match v {
                Value::Bool(_) => Ok(()),
                _ => Err(format!("`{}` expects a boolean, got {v}", self.id)),
            },
            ControlKind::NumericBox {
                data_type,
                min,
                max,
            } => {
                let n = match (data_type, v) {
                    (DataType::Int, Value::Int(i)) => *i as f64,
                    (DataType::Float, Value::Float(f)) => *f,
                    (DataType::Float, Value::Int(i)) => *i as f64,
                    _ => return Err(format!("`{}` expects {data_type}, got {v}", self.id)),
                };
                if min.is_some_and(|m| n < m) || max.is_some_and(|m| n > m) {
                    return Err(format!("`{}` value {n} outside allowed range", self.id));
                }
                Ok(())
            }
            ControlKind::RadioGroup { options } => {
                if options.iter().any(|o| o.stored.sql_eq(v) == Some(true)) {
                    Ok(())
                } else {
                    Err(format!("`{}` has no option storing {v}", self.id))
                }
            }
            ControlKind::DropDownList {
                options,
                allows_other,
            } => {
                let coded = options.iter().any(|o| o.stored.sql_eq(v) == Some(true));
                if coded || (*allows_other && matches!(v, Value::Text(_))) {
                    Ok(())
                } else {
                    Err(format!("`{}` has no option storing {v}", self.id))
                }
            }
        }
    }
}

/// Depth-first, document-order iteration from `stack`, whose last entry
/// comes first (so callers push siblings in reverse).
pub(crate) fn depth_first(mut stack: Vec<&Control>) -> impl Iterator<Item = &Control> {
    std::iter::from_fn(move || {
        let next = stack.pop()?;
        // Push children reversed so iteration is document order.
        stack.extend(next.children.iter().rev());
        Some(next)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoking_control() -> Control {
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
                .with_range(0.0, 20.0)
                .enabled_when("smoking", EnableWhen::Equals(Value::Int(1))),
        )
    }

    #[test]
    fn walk_is_document_order() {
        let c = Control::group("g", "Medical History")
            .child(smoking_control())
            .child(Control::check_box("alcohol", "Alcohol use?"));
        let ids: Vec<&str> = c.walk().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, vec!["g", "smoking", "frequency", "alcohol"]);
    }

    #[test]
    fn group_boxes_store_no_data() {
        assert!(!ControlKind::GroupBox.stores_data());
        assert!(ControlKind::GroupBox.data_type().is_none());
        assert!(ControlKind::CheckBox.stores_data());
    }

    #[test]
    fn choice_data_type_from_options() {
        let c = smoking_control();
        assert_eq!(c.kind.data_type(), Some(DataType::Int));
        let d = Control::drop_down("d", "x", vec![ChoiceOption::new("A", "a")]);
        assert_eq!(d.kind.data_type(), Some(DataType::Text));
    }

    #[test]
    fn validate_radio_membership() {
        let c = smoking_control();
        assert!(c.validate_value(&Value::Int(1)).is_ok());
        assert!(c.validate_value(&Value::Int(7)).is_err());
        assert!(c.validate_value(&Value::Null).is_ok());
    }

    #[test]
    fn validate_numeric_bounds() {
        let c = Control::numeric("n", "x", DataType::Float).with_range(0.0, 5.0);
        assert!(c.validate_value(&Value::Float(2.5)).is_ok());
        assert!(
            c.validate_value(&Value::Int(3)).is_ok(),
            "int widens to float box"
        );
        assert!(c.validate_value(&Value::Float(6.0)).is_err());
        assert!(c.validate_value(&Value::text("two")).is_err());
    }

    #[test]
    fn drop_down_other_allows_free_text() {
        let base = Control::drop_down("d", "x", vec![ChoiceOption::new("A", "a")]);
        assert!(base.validate_value(&Value::text("freeform")).is_err());
        let other = base.allows_other();
        assert!(other.validate_value(&Value::text("freeform")).is_ok());
    }

    #[test]
    fn enable_when_semantics() {
        assert!(EnableWhen::Answered.satisfied_by(&Value::Int(0)));
        assert!(!EnableWhen::Answered.satisfied_by(&Value::Null));
        assert!(EnableWhen::Equals(Value::Int(1)).satisfied_by(&Value::Int(1)));
        assert!(!EnableWhen::Equals(Value::Int(1)).satisfied_by(&Value::Null));
        assert!(EnableWhen::OneOf(vec![Value::Int(1), Value::Int(2)]).satisfied_by(&Value::Int(2)));
    }

    #[test]
    fn group_box_rejects_values() {
        let g = Control::group("g", "box");
        assert!(g.validate_value(&Value::Int(1)).is_err());
    }
}
