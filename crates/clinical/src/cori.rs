//! The CORI reporting tool — the paper's own data source (Section 2),
//! including the exact Figure 2 dialog (Complications / Medical History
//! groups, frequency nested under smoking) and the Figure 3 node contexts
//! (alcohol drop-down with free text, smoking radio starting unselected,
//! frequency enabled by the smoking answer).
//!
//! Physical layout: vendor-prefixed names (Rename) plus soft deletion
//! (Audit) — "no rows are ever deleted or updated" (Table 1).

use crate::profile::{ProcedureKind, Profile, Smoking};
use guava_forms::control::{ChoiceOption, Control, EnableWhen};
use guava_forms::entry::DataEntrySession;
use guava_forms::form::{FormDef, ReportingTool};
use guava_patterns::kind::PatternKind;
use guava_patterns::stack::PatternStack;
use guava_patterns::structural::RenamePattern;
use guava_patterns::temporal::AuditPattern;
use guava_relational::database::Database;
use guava_relational::error::RelResult;
use guava_relational::table::Table;
use guava_relational::value::{DataType, Value};

/// The physical table CORI stores procedure reports in.
pub const PHYSICAL_TABLE: &str = "tblProcedure";
/// The audit flag column ("pull only data where C = 0", Table 1).
pub const AUDIT_FLAG: &str = "recDeleted";

/// The CORI procedure form — a superset of the Figure 2 dialog.
pub fn tool() -> ReportingTool {
    let procedure = FormDef::new(
        "procedure",
        "Procedure",
        vec![
            Control::group("proc_info", "Procedure Information")
                .child(
                    Control::drop_down(
                        "proc_type",
                        "Procedure performed",
                        vec![
                            ChoiceOption::new("Upper GI Endoscopy (EGD)", 1i64),
                            ChoiceOption::new("Colonoscopy", 2i64),
                        ],
                    )
                    .required(),
                )
                .child(Control::date_box("proc_date", "Date of procedure")),
            Control::group("indications", "Indications").child(Control::check_box(
                "ind_reflux",
                "Asthma-specific ENT/Pulmonary Reflux symptoms",
            )),
            Control::group("exams", "Examinations")
                .child(Control::check_box(
                    "cardio_wnl",
                    "Cardiopulmonary examination within normal limits",
                ))
                .child(Control::check_box(
                    "abdominal_wnl",
                    "Abdominal examination within normal limits",
                )),
            Control::group("medical_history", "Medical History")
                .child(Control::check_box(
                    "renal_failure",
                    "History of renal failure",
                ))
                .child(
                    Control::radio(
                        "smoking",
                        "Does the patient smoke?",
                        vec![
                            ChoiceOption::new("Never smoked", 0i64),
                            ChoiceOption::new("Currently smokes", 1i64),
                            ChoiceOption::new("Smoked previously", 2i64),
                        ],
                    )
                    .child(
                        Control::numeric("frequency", "How many packs per day?", DataType::Float)
                            .with_range(0.0, 20.0)
                            .enabled_when(
                                "smoking",
                                EnableWhen::OneOf(vec![Value::Int(1), Value::Int(2)]),
                            ),
                    )
                    .child(
                        Control::numeric(
                            "quit_months",
                            "How many months since quitting?",
                            DataType::Int,
                        )
                        .with_range(0.0, 1200.0)
                        .enabled_when("smoking", EnableWhen::Equals(Value::Int(2))),
                    ),
                )
                .child(
                    Control::drop_down(
                        "alcohol",
                        "Alcohol use",
                        vec![
                            ChoiceOption::new("None", "None"),
                            ChoiceOption::new("Light", "Light"),
                            ChoiceOption::new("Heavy", "Heavy"),
                        ],
                    )
                    .allows_other(),
                ),
            Control::group("complications", "Complications")
                .child(Control::check_box("hypoxia", "Transient hypoxia"))
                .child(Control::check_box("prolonged_hypoxia", "Prolonged hypoxia"))
                .child(Control::check_box("surgeon_consulted", "Surgeon Consulted"))
                .child(Control::text_box("other_complication", "Other")),
            Control::group("interventions", "Interventions")
                .child(Control::check_box("int_surgery", "Surgery required"))
                .child(Control::check_box(
                    "int_iv_fluids",
                    "IV fluids administered",
                ))
                .child(Control::check_box("int_oxygen", "Oxygen administered")),
        ],
    );
    ReportingTool::new("cori", "1.0", vec![procedure])
}

/// The CORI storage binding: physical names differ from control ids, and
/// rows are audit-flagged rather than deleted.
pub fn stack() -> RelResult<PatternStack> {
    let naive = tool().forms[0].naive_schema();
    let rename = RenamePattern::new(
        &naive,
        PHYSICAL_TABLE,
        vec![
            ("proc_type", "cProcType"),
            ("smoking", "cSmk"),
            ("frequency", "cSmkFreq"),
            ("quit_months", "cSmkQuit"),
            ("hypoxia", "cCompHypox"),
        ],
    )?;
    let renamed = rename.transform_schemas(&[naive])?;
    let audit = AuditPattern::new(&renamed[0], AUDIT_FLAG)?;
    Ok(PatternStack::new(
        "cori",
        vec![PatternKind::Rename(rename), PatternKind::Audit(audit)],
    ))
}

/// Type one profile into the CORI form through the data-entry engine,
/// exercising defaults, enablement, and validation exactly as a provider
/// would.
pub fn enter<'f>(form: &'f FormDef, p: &Profile) -> DataEntrySession<'f> {
    let mut s = DataEntrySession::open(form, p.id);
    s.set(
        "proc_type",
        match p.kind {
            ProcedureKind::UpperGi => 1i64,
            ProcedureKind::Colonoscopy => 2i64,
        },
    )
    .expect("proc_type");
    s.set("proc_date", Value::Date(p.date_days))
        .expect("proc_date");
    s.set("ind_reflux", p.reflux_indication)
        .expect("ind_reflux");
    s.set("cardio_wnl", p.cardio_wnl).expect("cardio_wnl");
    s.set("abdominal_wnl", p.abdominal_wnl)
        .expect("abdominal_wnl");
    s.set("renal_failure", p.renal_failure)
        .expect("renal_failure");
    if !p.smoking_unanswered {
        let code = match p.smoking {
            Smoking::Never => 0i64,
            Smoking::Current => 1,
            Smoking::Former => 2,
        };
        s.set("smoking", code).expect("smoking");
        if p.smoking != Smoking::Never {
            s.set("frequency", p.packs_per_day).expect("frequency");
        }
        if p.smoking == Smoking::Former {
            s.set("quit_months", p.months_since_quit)
                .expect("quit_months");
        }
    }
    // A sliver of providers use the free-text escape of the alcohol
    // drop-down (Figure 3a) — those answers defy the coded domain.
    if p.alcohol == 2 && p.id % 31 == 0 {
        s.set("alcohol", "social drinker, weekends only")
            .expect("alcohol other");
    } else {
        s.set("alcohol", ["None", "Light", "Heavy"][p.alcohol as usize])
            .expect("alcohol");
    }
    s.set("hypoxia", p.transient_hypoxia).expect("hypoxia");
    s.set("prolonged_hypoxia", p.prolonged_hypoxia)
        .expect("prolonged_hypoxia");
    s.set("int_surgery", p.surgery).expect("int_surgery");
    s.set("int_iv_fluids", p.iv_fluids).expect("int_iv_fluids");
    s.set("int_oxygen", p.oxygen).expect("int_oxygen");
    s
}

/// Build the naïve database from profiles (what the tool holds in memory).
pub fn naive_database(profiles: &[Profile]) -> RelResult<Database> {
    let t = tool();
    let form = &t.forms[0];
    let schema = form.naive_schema();
    let mut table = Table::new(schema);
    for p in profiles {
        let instance = enter(form, p).save().expect("complete CORI report");
        table.insert(instance.naive_row(form))?;
    }
    let mut db = Database::new("cori_naive");
    db.create_table(table)?;
    Ok(db)
}

/// Build the physical database: encode through the pattern stack, then
/// simulate provider edits — for every 13th report the original row is
/// kept but audit-flagged, and a corrected copy becomes the live row.
pub fn physical_database(profiles: &[Profile]) -> RelResult<Database> {
    encode(&stack()?, &naive_database(profiles)?)
}

/// [`physical_database`] from a naïve database already typed in.
pub(crate) fn encode(stack: &PatternStack, naive: &Database) -> RelResult<Database> {
    let mut physical = stack.encode(naive)?;
    let table = physical.table_mut(PHYSICAL_TABLE)?;
    let schema = table.schema().clone();
    let flag_idx = schema.index_of(AUDIT_FLAG).expect("audit column");
    let id_idx = schema.index_of("instance_id").expect("instance id");
    let note_idx = schema.index_of("other_complication").expect("note column");
    let revised = |r: &[Value]| r[id_idx].as_i64().is_some_and(|i| i % 13 == 0);
    let tombstones: Vec<Vec<Value>> = table
        .iter_rows()
        .filter(|r| revised(r))
        .map(|r| {
            let mut old = r.clone();
            old[flag_idx] = Value::Int(1);
            old
        })
        .collect();
    // The live rows get the corrected note in place; the superseded
    // originals follow, audit-flagged, in table order.
    table.update_where(
        |r| revised(r) && r[flag_idx] == Value::Int(0),
        |r| r[note_idx] = Value::text("amended report"),
    )?;
    for old in tombstones {
        table.insert(old)?;
    }
    Ok(physical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{generate, GeneratorConfig};
    use guava_gtree::tree::GTree;
    use guava_relational::algebra::Plan;

    #[test]
    fn tool_validates_and_matches_figure2_shape() {
        let t = tool();
        t.validate().unwrap();
        let g = GTree::derive(&t).unwrap();
        // Figure 2's hallmarks: group boxes present as nodes, frequency a
        // child of smoking, smoking radio starts unselected.
        assert!(g.node("complications").is_ok());
        let smoking = g.node("smoking").unwrap();
        assert!(smoking.children.iter().any(|c| c.name == "frequency"));
        assert!(smoking.unselected_option);
        let alcohol = g.node("alcohol").unwrap();
        assert!(alcohol.free_text_option, "Figure 3a: free-text escape");
    }

    #[test]
    fn stack_validates_against_naive_schema() {
        let s = stack().unwrap();
        s.validate(&tool().naive_schemas()).unwrap();
    }

    #[test]
    fn entry_respects_enablement() {
        let profiles = generate(&GeneratorConfig::default().with_size(60));
        let t = tool();
        let form = &t.forms[0];
        for p in &profiles {
            let inst = enter(form, p).save().unwrap();
            if p.smoking_unanswered {
                assert!(inst.answer("smoking").is_null());
                assert!(inst.answer("frequency").is_null(), "disabled => blank");
                assert!(inst.answer("quit_months").is_null());
            } else if p.smoking == Smoking::Never {
                assert!(inst.answer("frequency").is_null());
            } else if p.smoking == Smoking::Former {
                assert_eq!(inst.answer("quit_months"), Value::Int(p.months_since_quit));
            }
        }
    }

    #[test]
    fn physical_roundtrips_through_decode() {
        let profiles = generate(&GeneratorConfig::default().with_size(80));
        let naive = naive_database(&profiles).unwrap();
        let physical = physical_database(&profiles).unwrap();
        let s = stack().unwrap();
        let decoded = s
            .query(
                &physical,
                &Plan::scan("procedure").sort_by(&["instance_id"]),
            )
            .unwrap();
        let original = naive.table("procedure").unwrap();
        assert_eq!(decoded.len(), original.len(), "audit hides superseded rows");
        // Spot-check: smoking codes survive the rename + audit round trip.
        for (a, b) in original.iter_rows().zip(decoded.iter_rows()) {
            assert_eq!(a[0], b[0], "instance ids align");
            let smoking_idx = original.schema().index_of("smoking").unwrap();
            assert_eq!(a[smoking_idx], b[smoking_idx]);
        }
    }

    #[test]
    fn physical_table_contains_deprecated_rows() {
        let profiles = generate(&GeneratorConfig::default().with_size(80));
        let physical = physical_database(&profiles).unwrap();
        let t = physical.table(PHYSICAL_TABLE).unwrap();
        assert!(t.len() > 80, "superseded originals are retained");
        let flag_idx = t.schema().index_of(AUDIT_FLAG).unwrap();
        assert!(t.iter_rows().any(|r| r[flag_idx] == Value::Int(1)));
    }

    /// One `update_where` over every revised report builds the table the
    /// per-report loop built (one `update_where` and one tombstone per
    /// report, each call re-copying the table) — row for row, in order.
    #[test]
    fn physical_database_matches_the_per_report_revision_loop() {
        let profiles = generate(&GeneratorConfig::default().with_size(400));
        let mut per_report = stack()
            .unwrap()
            .encode(&naive_database(&profiles).unwrap())
            .unwrap();
        let table = per_report.table_mut(PHYSICAL_TABLE).unwrap();
        let schema = table.schema().clone();
        let flag_idx = schema.index_of(AUDIT_FLAG).unwrap();
        let id_idx = schema.index_of("instance_id").unwrap();
        let note_idx = schema.index_of("other_complication").unwrap();
        let edited: Vec<Vec<Value>> = table
            .iter_rows()
            .filter(|r| r[id_idx].as_i64().is_some_and(|i| i % 13 == 0))
            .cloned()
            .collect();
        assert!(edited.len() > 20, "a few dozen revised reports");
        for mut old in edited {
            let id = old[id_idx].clone();
            table
                .update_where(
                    |r| r[id_idx] == id && r[flag_idx] == Value::Int(0),
                    |r| r[note_idx] = Value::text("amended report"),
                )
                .unwrap();
            old[flag_idx] = Value::Int(1);
            table.insert(old).unwrap();
        }

        let batched = physical_database(&profiles).unwrap();
        assert_eq!(
            batched.table_names().collect::<Vec<_>>(),
            per_report.table_names().collect::<Vec<_>>()
        );
        for name in per_report.table_names() {
            let (ours, theirs) = (
                batched.table(name).unwrap(),
                per_report.table(name).unwrap(),
            );
            assert_eq!(ours, theirs, "table {name}");
        }
    }
}
