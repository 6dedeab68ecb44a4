//! "EndoPro" — a simulated commercial vendor tool (Section 2: "several
//! commercial reporting tool vendors have expressed an interest in
//! contributing data to CORI's clinical data warehouse").
//!
//! EndoPro differs from CORI in every way the paper cares about:
//! *vocabulary* (complications are "adverse events", indications use GERD
//! terminology), *polarity* (it records exams as *abnormal*, the inverse
//! of CORI's within-normal-limits), *units* (cigarettes per day, not
//! packs), *encodings* (text status codes, Y/N booleans), and *physical
//! layout* (a generic Entity–Attribute–Value table behind an audit flag —
//! the "most frequent type of schematic heterogeneity", Section 3.2).

use crate::profile::{ProcedureKind, Profile, Smoking};
use guava_forms::control::{ChoiceOption, Control, EnableWhen};
use guava_forms::entry::DataEntrySession;
use guava_forms::form::{FormDef, ReportingTool};
use guava_patterns::encoding::BoolEncodePattern;
use guava_patterns::generic::GenericPattern;
use guava_patterns::kind::PatternKind;
use guava_patterns::stack::PatternStack;
use guava_patterns::temporal::AuditPattern;
use guava_relational::database::Database;
use guava_relational::error::RelResult;
use guava_relational::table::Table;
use guava_relational::value::{DataType, Value};

/// The physical EAV table.
pub const PHYSICAL_TABLE: &str = "eav_records";

/// The EndoPro exam report form.
pub fn tool() -> ReportingTool {
    let report = FormDef::new(
        "exam_report",
        "Exam Report",
        vec![
            Control::drop_down(
                "procedure_code",
                "Procedure",
                vec![
                    ChoiceOption::new("Esophagogastroduodenoscopy", "EGD"),
                    ChoiceOption::new("Colonoscopy", "COLON"),
                ],
            )
            .required(),
            Control::date_box("exam_date", "Exam date"),
            Control::check_box("indication_gerd_asthma", "GERD with asthma/ENT symptoms"),
            Control::group("physical_exam", "Physical Exam")
                .child(Control::check_box(
                    "cardio_abnormal",
                    "Cardiopulmonary exam abnormal",
                ))
                .child(Control::check_box(
                    "abdomen_abnormal",
                    "Abdominal exam abnormal",
                )),
            Control::group("history", "Patient History")
                .child(Control::check_box("renal_hx", "Renal failure in history"))
                .child(
                    Control::drop_down(
                        "smoker_status",
                        "Tobacco use",
                        vec![
                            ChoiceOption::new("Never used", "NEVER"),
                            ChoiceOption::new("Active use", "CURRENT"),
                            ChoiceOption::new("Former use", "FORMER"),
                        ],
                    )
                    .child(
                        Control::numeric("cigs_per_day", "Cigarettes per day", DataType::Int)
                            .with_range(0.0, 200.0)
                            .enabled_when(
                                "smoker_status",
                                EnableWhen::OneOf(vec![
                                    Value::text("CURRENT"),
                                    Value::text("FORMER"),
                                ]),
                            ),
                    )
                    .child(
                        Control::numeric("quit_months_ago", "Months since quit", DataType::Int)
                            .with_range(0.0, 1200.0)
                            .enabled_when(
                                "smoker_status",
                                EnableWhen::Equals(Value::text("FORMER")),
                            ),
                    ),
                )
                .child(Control::drop_down(
                    "etoh",
                    "Alcohol (EtOH) use",
                    vec![
                        ChoiceOption::new("None", "NONE"),
                        ChoiceOption::new("Light", "LIGHT"),
                        ChoiceOption::new("Heavy", "HEAVY"),
                    ],
                )),
            Control::group("adverse_events", "Adverse Events")
                .child(Control::check_box(
                    "ae_hypoxia_transient",
                    "Transient hypoxia",
                ))
                .child(Control::check_box(
                    "ae_hypoxia_prolonged",
                    "Prolonged hypoxia",
                )),
            Control::group("treatments", "Treatments Administered")
                .child(Control::check_box("tx_surgery", "Surgical treatment"))
                .child(Control::check_box("tx_ivf", "IV fluids"))
                .child(Control::check_box("tx_o2", "Supplemental oxygen")),
        ],
    );
    ReportingTool::new("endopro", "4.2", vec![report])
}

/// EndoPro's storage binding: Y/N-coded booleans, then the whole form
/// flattened into EAV triples, behind an audit flag.
pub fn stack() -> RelResult<PatternStack> {
    let naive = tool().forms[0].naive_schema();
    let enc1 = BoolEncodePattern::new(&naive, "cardio_abnormal", "Y", "N")?;
    let s1 = &enc1.transform_schemas(&[naive])?[0];
    let enc2 = BoolEncodePattern::new(s1, "renal_hx", "Y", "N")?;
    let s2 = &enc2.transform_schemas(std::slice::from_ref(s1))?[0];
    let generic = GenericPattern::new(s2, PHYSICAL_TABLE)?;
    let s3 = generic.transform_schemas(std::slice::from_ref(s2))?;
    let eav = s3
        .iter()
        .find(|s| s.name == PHYSICAL_TABLE)
        .expect("eav schema");
    let audit = AuditPattern::new(eav, "is_void")?;
    Ok(PatternStack::new(
        "endopro",
        vec![
            PatternKind::BoolEncode(enc1),
            PatternKind::BoolEncode(enc2),
            PatternKind::Generic(generic),
            PatternKind::Audit(audit),
        ],
    ))
}

/// Type one profile into the EndoPro form. Note the polarity inversion on
/// exams and the cigarettes/packs unit change.
pub fn enter<'f>(form: &'f FormDef, p: &Profile) -> DataEntrySession<'f> {
    let mut s = DataEntrySession::open(form, p.id);
    s.set(
        "procedure_code",
        match p.kind {
            ProcedureKind::UpperGi => "EGD",
            ProcedureKind::Colonoscopy => "COLON",
        },
    )
    .expect("procedure_code");
    s.set("exam_date", Value::Date(p.date_days))
        .expect("exam_date");
    s.set("indication_gerd_asthma", p.reflux_indication)
        .expect("indication");
    s.set("cardio_abnormal", !p.cardio_wnl)
        .expect("cardio_abnormal");
    s.set("abdomen_abnormal", !p.abdominal_wnl)
        .expect("abdomen_abnormal");
    s.set("renal_hx", p.renal_failure).expect("renal_hx");
    if !p.smoking_unanswered {
        let status = match p.smoking {
            Smoking::Never => "NEVER",
            Smoking::Current => "CURRENT",
            Smoking::Former => "FORMER",
        };
        s.set("smoker_status", status).expect("smoker_status");
        if p.smoking != Smoking::Never {
            s.set("cigs_per_day", (p.packs_per_day * 20.0) as i64)
                .expect("cigs_per_day");
        }
        if p.smoking == Smoking::Former {
            s.set("quit_months_ago", p.months_since_quit)
                .expect("quit_months_ago");
        }
    }
    s.set("etoh", ["NONE", "LIGHT", "HEAVY"][p.alcohol as usize])
        .expect("etoh");
    s.set("ae_hypoxia_transient", p.transient_hypoxia)
        .expect("transient");
    s.set("ae_hypoxia_prolonged", p.prolonged_hypoxia)
        .expect("prolonged");
    s.set("tx_surgery", p.surgery).expect("tx_surgery");
    s.set("tx_ivf", p.iv_fluids).expect("tx_ivf");
    s.set("tx_o2", p.oxygen).expect("tx_o2");
    s
}

/// Build the naïve database from profiles.
pub fn naive_database(profiles: &[Profile]) -> RelResult<Database> {
    let t = tool();
    let form = &t.forms[0];
    let mut table = Table::new(form.naive_schema());
    for p in profiles {
        let instance = enter(form, p).save().expect("complete EndoPro report");
        table.insert(instance.naive_row(form))?;
    }
    let mut db = Database::new("endopro_naive");
    db.create_table(table)?;
    Ok(db)
}

/// Build the physical database (EAV triples behind the audit flag).
pub fn physical_database(profiles: &[Profile]) -> RelResult<Database> {
    stack()?.encode(&naive_database(profiles)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{generate, GeneratorConfig};
    use guava_relational::algebra::Plan;
    use guava_relational::expr::Expr;

    #[test]
    fn tool_validates() {
        tool().validate().unwrap();
        stack().unwrap().validate(&tool().naive_schemas()).unwrap();
    }

    #[test]
    fn physical_layout_is_eav() {
        let profiles = generate(&GeneratorConfig::default().with_size(40));
        let physical = physical_database(&profiles).unwrap();
        assert!(physical.has_table(PHYSICAL_TABLE));
        assert!(!physical.has_table("exam_report"));
        let t = physical.table(PHYSICAL_TABLE).unwrap();
        assert_eq!(
            t.schema().column_names(),
            vec!["entity", "attribute", "value", "is_void"]
        );
        assert!(t.len() > 40 * 5, "several triples per report");
    }

    #[test]
    fn decode_reconstructs_naive_rows() {
        let profiles = generate(&GeneratorConfig::default().with_size(60));
        let naive = naive_database(&profiles).unwrap();
        let physical = physical_database(&profiles).unwrap();
        let s = stack().unwrap();
        let decoded = s
            .query(
                &physical,
                &Plan::scan("exam_report").sort_by(&["instance_id"]),
            )
            .unwrap();
        let original = naive.table("exam_report").unwrap();
        assert_eq!(decoded.len(), original.len());
        for (a, b) in original.iter_rows().zip(decoded.iter_rows()) {
            assert_eq!(a, b, "full row round-trip through BoolEncode+Generic+Audit");
        }
    }

    /// The executor's pivot reads EndoPro's value column off its
    /// dictionary codes, and the dictionary holds the first EAV row's own
    /// cell for each string: every TEXT output cell is that allocation,
    /// however many reports share the answer.
    #[test]
    fn endopro_pivot_cells_of_one_code_share_one_allocation() {
        use guava_relational::exec::Executor;
        use std::collections::HashMap;
        use std::sync::Arc;
        let profiles = generate(&GeneratorConfig::default().with_size(200));
        let physical = physical_database(&profiles).unwrap();
        let eav = physical.table(PHYSICAL_TABLE).unwrap();
        let segs = eav.segments();
        assert_eq!(segs.segments().len(), 1, "one segment: one code per string");
        let value_col = eav.schema().index_of("value").unwrap();
        assert_eq!(segs.segments()[0].column(value_col).encoding(), "dict");
        let mut first_row: HashMap<&str, &Arc<str>> = HashMap::new();
        for row in eav.iter_rows() {
            if let Value::Text(s) = &row[value_col] {
                first_row.entry(&**s).or_insert(s);
            }
        }

        let plan = stack()
            .unwrap()
            .decode_plan(&Plan::scan("exam_report"))
            .unwrap();
        let out = Executor::new().execute(&plan, &physical).unwrap();
        let mut cells = 0;
        for row in out.iter_rows() {
            for v in row {
                if let Value::Text(s) = v {
                    assert!(Arc::ptr_eq(first_row[&**s], s), "{s:?} copied");
                    cells += 1;
                }
            }
        }
        assert!(cells > 400, "text cells repeat across reports ({cells})");
    }

    #[test]
    fn polarity_inversion_is_visible_in_data() {
        let profiles = generate(&GeneratorConfig::default().with_size(60));
        let physical = physical_database(&profiles).unwrap();
        let s = stack().unwrap();
        // A CORI-style analyst querying `cardio_abnormal = FALSE` gets the
        // within-normal-limits patients.
        let wnl = s
            .query(
                &physical,
                &Plan::scan("exam_report")
                    .select(Expr::col("cardio_abnormal").eq(Expr::lit(false))),
            )
            .unwrap();
        let expected = profiles.iter().filter(|p| p.cardio_wnl).count();
        assert_eq!(wnl.len(), expected);
    }
}
