//! "GastroLink" — the second simulated commercial vendor.
//!
//! GastroLink models smoking *differently in kind* from CORI and EndoPro:
//! a single "uses tobacco" check box plus a months-since-quit counter
//! (0 = still smoking). No representation maps losslessly onto CORI's
//! three-way radio — the integration-must-lose-information situation the
//! paper opens with. Its physical layout merges every form into one master
//! table (Table 1's Merge), stores unanswered counters as a `-9` sentinel,
//! and normalizes the alcohol code into a lookup table.

use crate::profile::{ProcedureKind, Profile, Smoking};
use guava_forms::control::{ChoiceOption, Control, EnableWhen};
use guava_forms::entry::DataEntrySession;
use guava_forms::form::{FormDef, ReportingTool};
use guava_patterns::encoding::{LookupPattern, NullSentinelPattern};
use guava_patterns::kind::PatternKind;
use guava_patterns::stack::PatternStack;
use guava_patterns::structural::MergePattern;
use guava_relational::database::Database;
use guava_relational::error::RelResult;
use guava_relational::table::Table;
use guava_relational::value::{DataType, Value};

/// The merged physical table.
pub const PHYSICAL_TABLE: &str = "gl_master";
/// Discriminator column holding the form name (Table 1's "C").
pub const DISCRIMINATOR: &str = "rec_type";
/// Sentinel for unanswered quit_months.
pub const QUIT_SENTINEL: i64 = -9;

/// The GastroLink tool: the procedure report plus a QA survey form that
/// shares the master table (making Merge observable).
pub fn tool() -> ReportingTool {
    let visit = FormDef::new(
        "visit",
        "Procedure Visit",
        vec![
            Control::radio(
                "study_type",
                "Study performed",
                vec![
                    ChoiceOption::new("Upper endoscopy", 10i64),
                    ChoiceOption::new("Lower endoscopy", 20i64),
                ],
            )
            .required(),
            Control::date_box("visit_date", "Visit date"),
            Control::check_box("reflux_sx", "Reflux symptoms with asthma/ENT involvement"),
            Control::check_box("renal_dx", "Renal failure diagnosis"),
            Control::check_box("cp_exam_ok", "Cardiopulmonary exam unremarkable"),
            Control::check_box("abd_exam_ok", "Abdominal exam unremarkable"),
            Control::check_box("tobacco", "Uses or has used tobacco")
                .child(
                    Control::numeric("packs_per_day", "Packs per day", DataType::Float)
                        .with_range(0.0, 20.0)
                        .enabled_when("tobacco", EnableWhen::Equals(Value::Bool(true))),
                )
                .child(
                    Control::numeric(
                        "quit_months",
                        "Months since quit (0 if still smoking)",
                        DataType::Int,
                    )
                    .with_range(0.0, 1200.0)
                    .enabled_when("tobacco", EnableWhen::Equals(Value::Bool(true))),
                ),
            Control::drop_down(
                "alcohol_code",
                "Alcohol consumption",
                vec![
                    ChoiceOption::new("Abstinent", 0i64),
                    ChoiceOption::new("Occasional", 1i64),
                    ChoiceOption::new("Frequent", 2i64),
                ],
            ),
            Control::check_box("c_hypoxia_t", "Complication: transient hypoxia"),
            Control::check_box("c_hypoxia_p", "Complication: prolonged hypoxia"),
            Control::check_box("rx_surgery", "Resolved surgically"),
            Control::check_box("rx_fluids", "Resolved with IV fluids"),
            Control::check_box("rx_oxygen", "Resolved with oxygen"),
        ],
    );
    let survey = FormDef::new(
        "qa_survey",
        "Quality Survey",
        vec![
            Control::numeric("satisfaction", "Satisfaction (1-5)", DataType::Int)
                .with_range(1.0, 5.0),
            Control::text_box("comments", "Comments"),
        ],
    );
    ReportingTool::new("gastrolink", "7.1", vec![visit, survey])
}

/// GastroLink's storage binding: merge both forms into `gl_master`, store
/// unanswered quit counters as -9, normalize alcohol codes via a lookup.
pub fn stack() -> RelResult<PatternStack> {
    let naive = tool().naive_schemas();
    let merge = MergePattern::new(PHYSICAL_TABLE, DISCRIMINATOR, naive.clone())?;
    let merged = merge.transform_schemas(&naive)?;
    let master = merged
        .iter()
        .find(|s| s.name == PHYSICAL_TABLE)
        .expect("merged schema");
    let sentinel = NullSentinelPattern::new(master, "quit_months", QUIT_SENTINEL)?;
    let s2 = &sentinel.transform_schemas(std::slice::from_ref(master))?[0];
    let lookup = LookupPattern::new(
        s2,
        "alcohol_code",
        vec![Value::Int(0), Value::Int(1), Value::Int(2)],
    )?;
    Ok(PatternStack::new(
        "gastrolink",
        vec![
            PatternKind::Merge(merge),
            PatternKind::NullSentinel(sentinel),
            PatternKind::Lookup(lookup),
        ],
    ))
}

/// Type one profile into the GastroLink visit form.
pub fn enter<'f>(form: &'f FormDef, p: &Profile) -> DataEntrySession<'f> {
    let mut s = DataEntrySession::open(form, p.id);
    s.set(
        "study_type",
        match p.kind {
            ProcedureKind::UpperGi => 10i64,
            ProcedureKind::Colonoscopy => 20i64,
        },
    )
    .expect("study_type");
    s.set("visit_date", Value::Date(p.date_days))
        .expect("visit_date");
    s.set("reflux_sx", p.reflux_indication).expect("reflux_sx");
    s.set("renal_dx", p.renal_failure).expect("renal_dx");
    s.set("cp_exam_ok", p.cardio_wnl).expect("cp_exam_ok");
    s.set("abd_exam_ok", p.abdominal_wnl).expect("abd_exam_ok");
    if !p.smoking_unanswered {
        s.set("tobacco", p.smoking != Smoking::Never)
            .expect("tobacco");
        if p.smoking != Smoking::Never {
            s.set("packs_per_day", p.packs_per_day)
                .expect("packs_per_day");
            let quit = if p.smoking == Smoking::Former {
                p.months_since_quit
            } else {
                0
            };
            s.set("quit_months", quit).expect("quit_months");
        }
    }
    s.set("alcohol_code", p.alcohol).expect("alcohol_code");
    s.set("c_hypoxia_t", p.transient_hypoxia)
        .expect("c_hypoxia_t");
    s.set("c_hypoxia_p", p.prolonged_hypoxia)
        .expect("c_hypoxia_p");
    s.set("rx_surgery", p.surgery).expect("rx_surgery");
    s.set("rx_fluids", p.iv_fluids).expect("rx_fluids");
    s.set("rx_oxygen", p.oxygen).expect("rx_oxygen");
    s
}

/// Build the naïve database: every profile gets a visit; every fourth
/// profile also returns a QA survey (populating the merged table's second
/// record type).
pub fn naive_database(profiles: &[Profile]) -> RelResult<Database> {
    let t = tool();
    let visit_form = t.form("visit").expect("visit form");
    let survey_form = t.form("qa_survey").expect("survey form");
    let mut visits = Table::new(visit_form.naive_schema());
    let mut surveys = Table::new(survey_form.naive_schema());
    for p in profiles {
        let instance = enter(visit_form, p).save().expect("complete visit");
        visits.insert(instance.naive_row(visit_form))?;
        if p.id % 4 == 0 {
            let mut s = DataEntrySession::open(survey_form, p.id);
            s.set("satisfaction", 1 + (p.id % 5)).expect("satisfaction");
            let instance = s.save().expect("survey");
            surveys.insert(instance.naive_row(survey_form))?;
        }
    }
    let mut db = Database::new("gastrolink_naive");
    db.create_table(visits)?;
    db.create_table(surveys)?;
    Ok(db)
}

/// Build the physical database.
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
    fn tool_and_stack_validate() {
        tool().validate().unwrap();
        stack().unwrap().validate(&tool().naive_schemas()).unwrap();
    }

    #[test]
    fn merge_puts_both_forms_in_master() {
        let profiles = generate(&GeneratorConfig::default().with_size(40));
        let physical = physical_database(&profiles).unwrap();
        let master = physical.table(PHYSICAL_TABLE).unwrap();
        assert_eq!(master.len(), 40 + 10, "visits plus every-4th surveys");
        assert!(physical.has_table("gl_master_alcohol_code_lookup"));
        // The sentinel is physically present for tobacco-free patients.
        let qm = master.schema().index_of("quit_months").unwrap();
        assert!(master
            .iter_rows()
            .any(|r| r[qm] == Value::Int(QUIT_SENTINEL)));
    }

    #[test]
    fn both_forms_decode_independently() {
        let profiles = generate(&GeneratorConfig::default().with_size(48));
        let naive = naive_database(&profiles).unwrap();
        let physical = physical_database(&profiles).unwrap();
        let s = stack().unwrap();
        for form in ["visit", "qa_survey"] {
            let decoded = s
                .query(&physical, &Plan::scan(form).sort_by(&["instance_id"]))
                .unwrap();
            let original = naive.table(form).unwrap();
            assert_eq!(decoded.len(), original.len(), "{form} row count");
            for (a, b) in original.iter_rows().zip(decoded.iter_rows()) {
                assert_eq!(a, b, "{form} row round-trip");
            }
        }
    }

    #[test]
    fn sentinel_decodes_to_null() {
        let profiles = generate(&GeneratorConfig::default().with_size(48));
        let physical = physical_database(&profiles).unwrap();
        let s = stack().unwrap();
        let never = s
            .query(
                &physical,
                &Plan::scan("visit").select(
                    Expr::col("tobacco")
                        .eq(Expr::lit(false))
                        .and(Expr::col("quit_months").is_null()),
                ),
            )
            .unwrap();
        let expected = profiles
            .iter()
            .filter(|p| !p.smoking_unanswered && p.smoking == Smoking::Never)
            .count();
        assert_eq!(
            never.len(),
            expected,
            "never-smokers have NULL quit_months through decode"
        );
    }
}
