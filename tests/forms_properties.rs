//! Property-based validation of the data-entry engine — the UI semantics
//! that give g-trees their meaning. Whatever sequence of actions a
//! clinician performs, the saved instance obeys the enablement invariants
//! that classifiers rely on ("disabled controls hold no data").

use guava::prelude::*;
use guava_relational::value::DataType;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{BTreeMap, BTreeSet};

/// A form with a two-level enablement chain and typed controls.
fn form() -> FormDef {
    FormDef::new(
        "visit",
        "Visit",
        vec![
            Control::radio(
                "smoking",
                "Smoke?",
                vec![
                    ChoiceOption::new("Never", 0i64),
                    ChoiceOption::new("Current", 1i64),
                    ChoiceOption::new("Former", 2i64),
                ],
            )
            .child(
                Control::numeric("packs", "Packs/day", DataType::Float)
                    .with_range(0.0, 20.0)
                    .enabled_when(
                        "smoking",
                        EnableWhen::OneOf(vec![Value::Int(1), Value::Int(2)]),
                    ),
            )
            .child(
                Control::numeric("quit_months", "Months since quit", DataType::Int)
                    .with_range(0.0, 1200.0)
                    .enabled_when("smoking", EnableWhen::Equals(Value::Int(2))),
            ),
            Control::check_box("hypoxia", "Hypoxia?").with_default(false),
            Control::text_box("note", "Notes"),
        ],
    )
}

/// One random user action.
#[derive(Debug, Clone)]
enum Action {
    SetSmoking(i64),
    ClearSmoking,
    SetPacks(u32),
    SetQuit(u32),
    SetHypoxia(bool),
    SetNote(String),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0i64..3).prop_map(Action::SetSmoking),
        Just(Action::ClearSmoking),
        (0u32..80).prop_map(Action::SetPacks),
        (0u32..1200).prop_map(Action::SetQuit),
        any::<bool>().prop_map(Action::SetHypoxia),
        "[a-z ]{0,10}".prop_map(Action::SetNote),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// After any action sequence, enablement invariants hold on the saved
    /// instance: packs only when smoking ∈ {1,2}, quit_months only when
    /// smoking = 2, and all values type-check against their controls.
    #[test]
    fn entry_invariants_hold_under_random_actions(actions in proptest::collection::vec(arb_action(), 0..25)) {
        let f = form();
        let mut s = DataEntrySession::open(&f, 1);
        for a in &actions {
            // Individual actions may be rejected (disabled control, bad
            // value); the session must stay consistent regardless.
            let _ = match a {
                Action::SetSmoking(v) => s.set("smoking", *v),
                Action::ClearSmoking => s.clear("smoking"),
                Action::SetPacks(q) => s.set("packs", f64::from(*q) / 4.0),
                Action::SetQuit(v) => s.set("quit_months", i64::from(*v)),
                Action::SetHypoxia(b) => s.set("hypoxia", *b),
                Action::SetNote(t) => s.set("note", t.clone()),
            };
        }
        let instance = s.save().unwrap();
        let smoking = instance.answer("smoking");
        let packs = instance.answer("packs");
        let quit = instance.answer("quit_months");

        // Enablement: dependents are NULL unless their controller allows.
        let smoking_code = smoking.as_i64();
        if !matches!(smoking_code, Some(1) | Some(2)) {
            prop_assert!(packs.is_null(), "packs present without active smoking: {smoking}");
        }
        if smoking_code != Some(2) {
            prop_assert!(quit.is_null(), "quit_months present without Former status");
        }
        // Type/range validity of every answer.
        for c in f.walk() {
            if c.kind.stores_data() {
                prop_assert!(c.validate_value(&instance.answer(&c.id)).is_ok());
            }
        }
        // The naive row always fits the naive schema.
        let schema = f.naive_schema();
        prop_assert!(schema.check_row(&instance.naive_row(&f)).is_ok());
    }

    /// The g-tree derived from a form agrees with the session about
    /// enablement: a node's enable rule predicts exactly when the engine
    /// accepts input.
    #[test]
    fn gtree_enablement_predicts_engine(smoking in 0i64..3) {
        let f = form();
        let tool = ReportingTool::new("t", "1", vec![f.clone()]);
        let tree = GTree::derive(&tool).unwrap();
        let mut s = DataEntrySession::open(&f, 1);
        s.set("smoking", smoking).unwrap();
        for node_name in ["packs", "quit_months"] {
            let node = tree.node(node_name).unwrap();
            let rule = node.enable.as_ref().unwrap();
            let predicted = rule.when.satisfied_by(&Value::Int(smoking));
            let actual = s.is_enabled(node_name).unwrap();
            prop_assert_eq!(predicted, actual, "node {}", node_name);
        }
    }
}

// ------------------------------------------------ differential: session vs spec

/// Today's data-entry algorithm, kept as the spec the session must match:
/// answers in a map keyed by id, every control found by walking the form,
/// and every answer re-checked after each entry until nothing changes.
struct Reference<'a> {
    form: &'a FormDef,
    instance_id: i64,
    values: BTreeMap<String, Value>,
}

impl<'a> Reference<'a> {
    fn open(form: &'a FormDef, instance_id: i64) -> Reference<'a> {
        let mut values = BTreeMap::new();
        for c in form.walk() {
            if let (true, Some(d)) = (c.kind.stores_data(), &c.default) {
                values.insert(c.id.clone(), d.clone());
            }
        }
        let mut r = Reference {
            form,
            instance_id,
            values,
        };
        r.clear_disabled();
        r
    }

    fn control(&self, id: &str) -> Result<&'a Control, EntryError> {
        self.form
            .walk()
            .find(|c| c.id == id)
            .ok_or_else(|| EntryError::UnknownControl(id.to_owned()))
    }

    fn is_enabled(&self, id: &str) -> Result<bool, EntryError> {
        let mut current = self.control(id)?;
        let mut hops = 0;
        while let Some(rule) = &current.enable {
            let value = self.get(&rule.controller);
            if !rule.when.satisfied_by(&value) {
                return Ok(false);
            }
            current = self.control(&rule.controller)?;
            hops += 1;
            if hops > 64 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn set(&mut self, id: &str, value: Value) -> Result<(), EntryError> {
        let control = self.control(id)?;
        if !control.kind.stores_data() {
            return Err(EntryError::Invalid {
                control: id.to_owned(),
                reason: "control stores no data".into(),
            });
        }
        if !self.is_enabled(id)? {
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
        if value.is_null() {
            self.values.remove(id);
        } else {
            self.values.insert(id.to_owned(), value);
        }
        self.clear_disabled();
        Ok(())
    }

    fn get(&self, id: &str) -> Value {
        self.values.get(id).cloned().unwrap_or(Value::Null)
    }

    fn clear_disabled(&mut self) {
        loop {
            let stale: Vec<String> = self
                .values
                .keys()
                .filter(|id| !self.is_enabled(id).unwrap_or(false))
                .cloned()
                .collect();
            if stale.is_empty() {
                break;
            }
            for id in stale {
                self.values.remove(&id);
            }
        }
    }

    fn save(self) -> Result<FormInstance, EntryError> {
        for c in self.form.walk() {
            if c.required && c.kind.stores_data() && !self.values.contains_key(&c.id) {
                return Err(EntryError::MissingRequired(c.id.clone()));
            }
        }
        Ok(FormInstance {
            form_id: self.form.id.clone(),
            instance_id: self.instance_id,
            answers: self.values,
        })
    }
}

fn one_in(rng: &mut TestRng, n: usize) -> bool {
    rng.below(n) == 0
}

fn pick<T: Clone>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len())].clone()
}

/// Values a control of this kind accepts (NULL aside).
fn domain(kind: &ControlKind) -> Vec<Value> {
    match kind {
        ControlKind::GroupBox | ControlKind::Label => vec![],
        ControlKind::CheckBox => vec![Value::Bool(false), Value::Bool(true)],
        ControlKind::TextBox => vec![Value::text("a"), Value::text("b")],
        ControlKind::NumericBox { .. } => (0..4).map(Value::Int).collect(),
        ControlKind::DateBox => vec![Value::Date(1), Value::Date(2)],
        ControlKind::RadioGroup { options } | ControlKind::DropDownList { options, .. } => {
            options.iter().map(|o| o.stored.clone()).collect()
        }
    }
}

/// Anything a clinician (or a buggy caller) might try to enter.
fn any_value(rng: &mut TestRng) -> Value {
    pick(
        rng,
        &[
            Value::Null,
            Value::Bool(true),
            Value::Int(1),
            Value::Int(9),
            Value::Float(1.5),
            Value::text("other words"),
            Value::Date(2),
        ],
    )
}

fn random_rule(rng: &mut TestRng, controller: &Control) -> EnableWhen {
    let values = domain(&controller.kind);
    match rng.below(3) {
        _ if values.is_empty() => EnableWhen::Answered,
        0 => EnableWhen::Answered,
        1 => EnableWhen::Equals(pick(rng, &values)),
        _ => EnableWhen::OneOf((0..1 + rng.below(2)).map(|_| pick(rng, &values)).collect()),
    }
}

/// A random form: group boxes and data controls of every kind, nested up
/// to a few levels; enablement chains up to depth 3 over `Answered`,
/// `Equals` and `OneOf`; defaults (on dependents too) and required
/// controls. Each case also draws, each with even odds, one rule on an
/// unknown controller, one duplicated id and one 2-cycle of rules between
/// two defaulted controls.
fn random_form(rng: &mut TestRng) -> FormDef {
    let n = 4 + rng.below(9);
    let mut controls: Vec<Control> = Vec::with_capacity(n);
    let mut parents: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut depth = vec![0usize; n];
    for i in 0..n {
        let id = format!("c{i}");
        let mut c = match rng.below(7) {
            0 => Control::group(id, "group"),
            1 => Control::check_box(id, "check"),
            2 => Control::radio(
                id,
                "radio",
                vec![
                    ChoiceOption::new("Never", 0i64),
                    ChoiceOption::new("Current", 1i64),
                    ChoiceOption::new("Former", 2i64),
                ],
            ),
            3 => Control::numeric(id, "numeric", DataType::Int).with_range(0.0, 3.0),
            4 => Control::text_box(id, "text"),
            5 => Control::date_box(id, "date"),
            _ => Control::drop_down(
                id,
                "drop",
                vec![
                    ChoiceOption::new("None", "None"),
                    ChoiceOption::new("Light", "Light"),
                ],
            )
            .allows_other(),
        };
        let dataful: Vec<usize> = (0..i)
            .filter(|&j| controls[j].kind.stores_data() && depth[j] < 3)
            .collect();
        if !dataful.is_empty() && one_in(rng, 2) {
            let j = pick(rng, &dataful);
            let when = random_rule(rng, &controls[j]);
            c = c.enabled_when(controls[j].id.clone(), when);
            depth[i] = depth[j] + 1;
        }
        if c.kind.stores_data() && one_in(rng, 3) {
            let values = domain(&c.kind);
            c = c.with_default(pick(rng, &values));
        }
        if c.kind.stores_data() && one_in(rng, 10) {
            c = c.required();
        }
        parents.push((i > 0 && one_in(rng, 3)).then(|| rng.below(i)));
        controls.push(c);
    }
    if one_in(rng, 2) {
        let i = rng.below(n);
        controls[i].enable = Some(EnableRule {
            controller: "ghost".into(),
            when: EnableWhen::Answered,
        });
    }
    if one_in(rng, 2) {
        let i = 1 + rng.below(n - 1);
        controls[i].id = controls[rng.below(i)].id.clone();
    }
    let dataful: Vec<usize> = (0..n).filter(|&i| controls[i].kind.stores_data()).collect();
    if dataful.len() >= 2 && one_in(rng, 2) {
        let (a, b) = (dataful[0], dataful[dataful.len() - 1]);
        for (x, y) in [(a, b), (b, a)] {
            let controller = controls[y].id.clone();
            let default = pick(rng, &domain(&controls[x].kind));
            controls[x].enable = Some(EnableRule {
                controller,
                when: EnableWhen::Answered,
            });
            controls[x].default = Some(default);
        }
    }
    // Hang each control under its parent; going backwards, a control's own
    // children are already in place when it moves.
    let mut slots: Vec<Option<Control>> = controls.into_iter().map(Some).collect();
    for i in (0..n).rev() {
        if let Some(p) = parents[i] {
            let child = slots[i].take().expect("each control moves once");
            slots[p]
                .as_mut()
                .expect("parents precede children")
                .children
                .insert(0, child);
        }
    }
    FormDef::new("random", "Random", slots.into_iter().flatten().collect())
}

/// The session and the reference agree on every observable — each
/// `set`/`clear` result (error variant and text), every control's `get`
/// and `is_enabled` after each action, and the `save()` result — over
/// random forms driven by random actions, unknown ids and group boxes
/// included. A saved instance's `naive_row` follows `naive_schema()`'s
/// column order wherever that schema exists (no duplicated id).
#[test]
fn session_matches_the_reference_on_random_forms() {
    const CASES: u64 = 512;
    // How often each outcome came up, so a generator that stops reaching
    // one fails here instead of passing vacuously.
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..CASES {
        let mut rng = TestRng::for_case(
            "forms_properties::session_matches_the_reference_on_random_forms",
            case,
        );
        let form = random_form(&mut rng);
        let mut ids: Vec<String> = form.walk().map(|c| c.id.clone()).collect();
        ids.push("ghost".into());
        ids.push("nope".into());
        let ctx = |what: &str| format!("case {case}, {what}, form {form:#?}");

        let instance_id = rng.below(1000) as i64;
        let mut session = DataEntrySession::open(&form, instance_id);
        let mut reference = Reference::open(&form, instance_id);
        for step in 0..rng.below(30) {
            let id = pick(&mut rng, &ids);
            let before: Vec<String> = reference.values.keys().cloned().collect();
            let (ours, theirs) = if one_in(&mut rng, 4) {
                (session.clear(&id), reference.set(&id, Value::Null))
            } else {
                let values = form
                    .walk()
                    .find(|c| c.id == id)
                    .map(|c| domain(&c.kind))
                    .unwrap_or_default();
                let value = if values.is_empty() || one_in(&mut rng, 3) {
                    any_value(&mut rng)
                } else {
                    pick(&mut rng, &values)
                };
                (session.set(&id, value.clone()), reference.set(&id, value))
            };
            assert_eq!(ours, theirs, "{}", ctx(&format!("step {step}: set {id}")));
            let outcome = match &ours {
                Ok(())
                    if before
                        .iter()
                        .any(|k| *k != id && !reference.values.contains_key(k)) =>
                {
                    "set that cleared a dependent"
                }
                Ok(()) => "set",
                Err(EntryError::UnknownControl(_)) => "unknown control",
                Err(EntryError::Invalid { reason, .. }) if reason == "control stores no data" => {
                    "dataless control"
                }
                Err(EntryError::Disabled { .. }) => "disabled",
                Err(EntryError::Invalid { .. }) => "invalid",
                Err(EntryError::MissingRequired(_)) => unreachable!("only save checks required"),
            };
            *seen.entry(outcome).or_default() += 1;
            for id in &ids {
                assert_eq!(
                    session.get(id),
                    reference.get(id),
                    "{}",
                    ctx(&format!("step {step}: get {id}"))
                );
                assert_eq!(
                    session.is_enabled(id),
                    reference.is_enabled(id),
                    "{}",
                    ctx(&format!("step {step}: is_enabled {id}"))
                );
            }
        }
        let saved = session.save();
        assert_eq!(saved, reference.save(), "{}", ctx("save"));
        *seen
            .entry(if saved.is_ok() {
                "saved"
            } else {
                "save refused"
            })
            .or_default() += 1;

        let unique =
            form.walk().map(|c| &c.id).collect::<BTreeSet<_>>().len() == form.walk().count();
        if let (true, Ok(instance)) = (unique, saved) {
            let by_schema: Vec<Value> = form
                .naive_schema()
                .columns()
                .iter()
                .map(|c| {
                    if c.name == INSTANCE_ID {
                        Value::Int(instance.instance_id)
                    } else {
                        instance.answer(&c.name)
                    }
                })
                .collect();
            assert_eq!(instance.naive_row(&form), by_schema, "{}", ctx("naive_row"));
            *seen.entry("naive row").or_default() += 1;
        }
    }
    println!("session vs reference over {CASES} random forms: {seen:?}");
    assert_eq!(seen.len(), 9, "every outcome is reached: {seen:?}");
}
