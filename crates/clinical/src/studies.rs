//! The paper's two worked studies (Section 2), end to end.
//!
//! *Study 1*: "of all patients undergoing upper GI endoscopy, how many
//! (what proportion) had the indication of Asthma-specific ENT/Pulmonary
//! Reflux symptoms? Of these, include only those with no history of renal
//! failure and with cardiopulmonary and abdominal examinations within
//! normal limits. How many of these suffered the complication of transient
//! hypoxia? Of these, how many required each of the following
//! interventions: surgery, IV fluids, or oxygen administration?"
//!
//! *Study 2*: "Of all procedures on ex-smokers, how many had a
//! complication of hypoxia?" — run twice, with the two ex-smoker
//! classifiers, to reproduce the paper's context-sensitivity point.

use crate::classifiers::registry;
use crate::contributors::{bindings, naive_map, physical_catalog, Contributor};
use crate::profile::Profile;
use crate::schema_def::study_schema;
use guava_etl::compile::{compile, direct_eval, CompileError, CompiledStudy};
use guava_multiclass::annotate::Annotation;
use guava_multiclass::study::{ContributorSelection, Study, StudyColumn};
use guava_relational::error::RelError;
use guava_relational::expr::Expr;
use guava_relational::table::Table;
use guava_relational::value::Value;
use serde::{Deserialize, Serialize};

fn col(attribute: &str, domain: &str) -> StudyColumn {
    StudyColumn::new("Procedure", attribute, domain)
}

fn selections(
    contributors: &[Contributor],
    domain_classifiers: &[&str],
) -> Vec<ContributorSelection> {
    contributors
        .iter()
        .map(|c| ContributorSelection {
            contributor: c.name().to_owned(),
            entity_classifiers: vec!["All Procedures".into()],
            domain_classifiers: domain_classifiers.iter().map(|s| (*s).to_owned()).collect(),
            cleaning_classifiers: vec![],
        })
        .collect()
}

/// The Study 1 definition.
pub fn study1_definition(contributors: &[Contributor]) -> Study {
    let mut study = Study::new(
        "study1_reflux_hypoxia",
        "Of all patients undergoing upper GI endoscopy, how many had the indication of \
         Asthma-specific ENT/Pulmonary Reflux symptoms? Of these, include only those with no \
         history of renal failure and with cardiopulmonary and abdominal examinations within \
         normal limits. How many of these suffered the complication of transient hypoxia? Of \
         these, how many required each of the following interventions: surgery, IV fluids, or \
         oxygen administration?",
        "cori_procedures",
        "Procedure",
    )
    .with_column(col("ProcType", "kind"))
    .with_column(col("RefluxIndication", "yesno"))
    .with_column(col("RenalFailure", "yesno"))
    .with_column(col("ExamsNormal", "yesno"))
    .with_column(col("TransientHypoxia", "yesno"))
    .with_column(col("Surgery", "yesno"))
    .with_column(col("IvFluids", "yesno"))
    .with_column(col("Oxygen", "yesno"))
    .with_filter(Expr::col("ProcType_kind").eq(Expr::lit("UpperGI")));
    for s in selections(
        contributors,
        &[
            "Kind",
            "Reflux Indication",
            "Renal Failure",
            "Exams Normal",
            "Transient Hypoxia",
            "Surgery",
            "IV Fluids",
            "Oxygen",
        ],
    ) {
        study = study.with_selection(s);
    }
    study.provenance.annotate(Annotation::new(
        "analyst",
        "2006-02-01T00:00:00",
        "Study 1 from the motivating scenario",
    ));
    study
}

/// The funnel counts Study 1 reports, per contributor and overall.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Study1Report {
    /// Upper-GI procedures (the population).
    pub population: usize,
    /// ... with the reflux indication.
    pub indicated: usize,
    /// ... minus renal failure, exams within normal limits.
    pub eligible: usize,
    /// ... with transient hypoxia.
    pub hypoxia: usize,
    /// Intervention breakdown among the hypoxia cases.
    pub surgery: usize,
    pub iv_fluids: usize,
    pub oxygen: usize,
}

impl Study1Report {
    /// Walk the funnel over a study result table (any subset of rows).
    pub fn from_table(table: &Table) -> Result<Study1Report, RelError> {
        let s = table.schema();
        let idx = |name: &str| {
            s.index_of(name).ok_or_else(|| RelError::UnknownColumn {
                table: s.name.clone(),
                column: name.to_owned(),
            })
        };
        let (reflux, renal, exams, hypo, surg, iv, o2) = (
            idx("RefluxIndication_yesno")?,
            idx("RenalFailure_yesno")?,
            idx("ExamsNormal_yesno")?,
            idx("TransientHypoxia_yesno")?,
            idx("Surgery_yesno")?,
            idx("IvFluids_yesno")?,
            idx("Oxygen_yesno")?,
        );
        let t = |v: &Value| *v == Value::Bool(true);
        let mut r = Study1Report {
            population: table.len(),
            indicated: 0,
            eligible: 0,
            hypoxia: 0,
            surgery: 0,
            iv_fluids: 0,
            oxygen: 0,
        };
        for row in table.iter_rows() {
            if !t(&row[reflux]) {
                continue;
            }
            r.indicated += 1;
            if t(&row[renal]) || !t(&row[exams]) {
                continue;
            }
            r.eligible += 1;
            if !t(&row[hypo]) {
                continue;
            }
            r.hypoxia += 1;
            r.surgery += usize::from(t(&row[surg]));
            r.iv_fluids += usize::from(t(&row[iv]));
            r.oxygen += usize::from(t(&row[o2]));
        }
        Ok(r)
    }

    /// The expected funnel straight from ground truth (for one copy of the
    /// profile set — i.e. per contributor).
    pub fn expected(profiles: &[Profile]) -> Study1Report {
        Study1Report {
            population: profiles.iter().filter(|p| p.study1_population()).count(),
            indicated: profiles.iter().filter(|p| p.study1_indicated()).count(),
            eligible: profiles.iter().filter(|p| p.study1_eligible()).count(),
            hypoxia: profiles.iter().filter(|p| p.study1_complicated()).count(),
            surgery: profiles
                .iter()
                .filter(|p| p.study1_complicated() && p.surgery)
                .count(),
            iv_fluids: profiles
                .iter()
                .filter(|p| p.study1_complicated() && p.iv_fluids)
                .count(),
            oxygen: profiles
                .iter()
                .filter(|p| p.study1_complicated() && p.oxygen)
                .count(),
        }
    }
}

/// Which ex-smoker semantics Study 2 runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExSmokerMeaning {
    /// "Quit in the last year" — the study's actual definition.
    QuitWithinYear,
    /// "Anyone who has ever smoked (and stopped)" — the trap.
    EverQuit,
}

impl ExSmokerMeaning {
    pub fn classifier_name(self) -> &'static str {
        match self {
            ExSmokerMeaning::QuitWithinYear => "ExSmoker (quit within a year)",
            ExSmokerMeaning::EverQuit => "ExSmoker (ever quit)",
        }
    }
}

/// The Study 2 definition under a chosen ex-smoker meaning.
pub fn study2_definition(contributors: &[Contributor], meaning: ExSmokerMeaning) -> Study {
    let mut study = Study::new(
        format!("study2_exsmoker_{meaning:?}"),
        "Of all procedures on ex-smokers, how many had a complication of hypoxia?",
        "cori_procedures",
        "Procedure",
    )
    .with_column(col("ExSmoker", "yesno"))
    .with_column(col("Hypoxia", "yesno"))
    .with_filter(Expr::col("ExSmoker_yesno").eq(Expr::lit(true)));
    for s in selections(contributors, &[meaning.classifier_name(), "Any Hypoxia"]) {
        study = study.with_selection(s);
    }
    study
}

/// Study 2 result: ex-smoker procedures and how many had hypoxia.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Study2Report {
    pub ex_smokers: usize,
    pub with_hypoxia: usize,
}

impl Study2Report {
    pub fn from_table(table: &Table) -> Result<Study2Report, RelError> {
        let s = table.schema();
        let hyp = s
            .index_of("Hypoxia_yesno")
            .ok_or_else(|| RelError::UnknownColumn {
                table: s.name.clone(),
                column: "Hypoxia_yesno".into(),
            })?;
        Ok(Study2Report {
            ex_smokers: table.len(),
            with_hypoxia: table
                .iter_rows()
                .filter(|r| r[hyp] == Value::Bool(true))
                .count(),
        })
    }

    /// Ground-truth expectation per contributor copy, restricted to what
    /// the database can know (unanswered smoking questions are invisible).
    pub fn expected(profiles: &[Profile], meaning: ExSmokerMeaning) -> Study2Report {
        let is_ex = |p: &&Profile| {
            !p.smoking_unanswered
                && match meaning {
                    ExSmokerMeaning::QuitWithinYear => p.ex_smoker_strict(),
                    ExSmokerMeaning::EverQuit => p.ex_smoker_loose(),
                }
        };
        Study2Report {
            ex_smokers: profiles.iter().filter(is_ex).count(),
            with_hypoxia: profiles
                .iter()
                .filter(is_ex)
                .filter(|p| p.hypoxia())
                .count(),
        }
    }
}

/// Compile and run a study over the contributors' physical databases,
/// returning the primary-entity result table and the compiled artifacts.
pub fn run_study(
    study: &Study,
    contributors: &[Contributor],
) -> Result<(CompiledStudy, Table), CompileError> {
    let compiled = compile(study, &study_schema(), &registry(), &bindings(contributors))?;
    let mut catalog = physical_catalog(contributors);
    compiled
        .workflow
        .run(&mut catalog)
        .map_err(CompileError::Rel)?;
    let table = catalog
        .database(&compiled.output_db)
        .and_then(|db| db.table("Procedure"))
        .map_err(CompileError::Rel)?
        .clone();
    Ok((compiled, table))
}

/// Cross-check a compiled study against direct (ETL-free) evaluation over
/// the naïve databases — the Hypothesis-3 oracle.
pub fn cross_check(
    compiled: &CompiledStudy,
    study: &Study,
    contributors: &[Contributor],
    etl_table: &Table,
) -> Result<bool, RelError> {
    let direct = direct_eval(compiled, study, &naive_map(contributors))?;
    let mut a = etl_table.rows().to_vec();
    let mut b = direct.get("Procedure").cloned().unwrap_or_default();
    a.sort();
    b.sort();
    Ok(a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contributors::build_all;
    use crate::profile::{generate, GeneratorConfig};

    fn setup(n: usize) -> (Vec<Profile>, Vec<Contributor>) {
        let profiles = generate(&GeneratorConfig::default().with_size(n));
        let contributors = build_all(&profiles).unwrap();
        (profiles, contributors)
    }

    #[test]
    fn study1_counts_match_ground_truth_across_vendors() {
        let (profiles, contributors) = setup(160);
        let study = study1_definition(&contributors);
        let (compiled, table) = run_study(&study, &contributors).unwrap();
        // Every contributor holds a copy of the same reality, so the
        // overall funnel is 3× the per-copy expectation.
        let expected = Study1Report::expected(&profiles);
        let got = Study1Report::from_table(&table).unwrap();
        assert_eq!(got.population, 3 * expected.population);
        assert_eq!(got.indicated, 3 * expected.indicated);
        assert_eq!(got.eligible, 3 * expected.eligible);
        assert_eq!(got.hypoxia, 3 * expected.hypoxia);
        assert_eq!(got.surgery, 3 * expected.surgery);
        assert_eq!(got.iv_fluids, 3 * expected.iv_fluids);
        assert_eq!(got.oxygen, 3 * expected.oxygen);
        // H3: compiled ETL ≡ direct evaluation.
        assert!(cross_check(&compiled, &study, &contributors, &table).unwrap());
    }

    #[test]
    fn study2_meaning_changes_the_answer() {
        let (profiles, contributors) = setup(200);
        let strict_study = study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear);
        let (compiled_s, table_s) = run_study(&strict_study, &contributors).unwrap();
        let strict = Study2Report::from_table(&table_s).unwrap();
        let loose_study = study2_definition(&contributors, ExSmokerMeaning::EverQuit);
        let (_, table_l) = run_study(&loose_study, &contributors).unwrap();
        let loose = Study2Report::from_table(&table_l).unwrap();

        let exp_strict = Study2Report::expected(&profiles, ExSmokerMeaning::QuitWithinYear);
        let exp_loose = Study2Report::expected(&profiles, ExSmokerMeaning::EverQuit);
        assert_eq!(strict.ex_smokers, 3 * exp_strict.ex_smokers);
        assert_eq!(strict.with_hypoxia, 3 * exp_strict.with_hypoxia);
        assert_eq!(loose.ex_smokers, 3 * exp_loose.ex_smokers);
        assert_eq!(loose.with_hypoxia, 3 * exp_loose.with_hypoxia);
        // The paper's point: the same question, different classifier
        // semantics, materially different cohort.
        assert!(loose.ex_smokers > strict.ex_smokers);
        assert!(cross_check(&compiled_s, &strict_study, &contributors, &table_s).unwrap());
    }

    #[test]
    fn study1_workflow_shape_matches_figure6() {
        let (_, contributors) = setup(20);
        let study = study1_definition(&contributors);
        let (compiled, _) = run_study(&study, &contributors).unwrap();
        // Three per-contributor components per stage + one load component.
        assert_eq!(compiled.workflow.stages.len(), 4);
        assert_eq!(compiled.workflow.stages[0].components.len(), 3);
        assert_eq!(compiled.workflow.stages[1].components.len(), 3);
        assert_eq!(compiled.workflow.stages[2].components.len(), 3);
        assert_eq!(compiled.workflow.stages[3].components.len(), 1);
    }
}
