//! Gold standards for Hypothesis #2 ("analysts should be able to extract
//! only and all relevant data from contributors without technical help").
//!
//! The gold standard is *data-visible* truth: what a flawless analyst
//! could extract from the databases. Instances whose smoking question was
//! left blank are invisible to any classifier, so they are excluded from
//! smoking-based cohorts here too — extraction quality measures the
//! classifier, not the providers' diligence.

use crate::profile::Profile;
use crate::studies::ExSmokerMeaning;
use guava_relational::table::Table;
use guava_relational::value::Value;
use guava_warehouse::eval_harness::Item;
use std::collections::BTreeSet;

/// Gold cohort: ex-smokers under a given meaning, replicated across the
/// named contributors (each holds a copy of the same reality).
pub fn gold_ex_smokers(
    profiles: &[Profile],
    meaning: ExSmokerMeaning,
    contributors: &[&str],
) -> BTreeSet<Item> {
    let mut out = BTreeSet::new();
    for p in profiles {
        if p.smoking_unanswered {
            continue;
        }
        let is_ex = match meaning {
            ExSmokerMeaning::QuitWithinYear => p.ex_smoker_strict(),
            ExSmokerMeaning::EverQuit => p.ex_smoker_loose(),
        };
        if is_ex {
            for c in contributors {
                out.insert(((*c).to_owned(), p.id));
            }
        }
    }
    out
}

/// Gold cohort for Study 1's eligible set.
pub fn gold_study1_eligible(profiles: &[Profile], contributors: &[&str]) -> BTreeSet<Item> {
    let mut out = BTreeSet::new();
    for p in profiles {
        if p.study1_eligible() {
            for c in contributors {
                out.insert(((*c).to_owned(), p.id));
            }
        }
    }
    out
}

/// Turn a study result table (with `source` and `instance_id` as the first
/// two columns) into an extraction item set.
pub fn extraction_from_table(table: &Table) -> BTreeSet<Item> {
    table
        .rows()
        .iter()
        .filter_map(|r| match (&r[0], &r[1]) {
            (Value::Text(src), Value::Int(id)) => Some((src.to_string(), *id)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{generate, GeneratorConfig};

    #[test]
    fn gold_sets_replicate_across_contributors() {
        let profiles = generate(&GeneratorConfig::default().with_size(100));
        let strict = gold_ex_smokers(&profiles, ExSmokerMeaning::QuitWithinYear, &["a", "b"]);
        assert_eq!(strict.len() % 2, 0);
        let per_contributor = strict.iter().filter(|(c, _)| c == "a").count();
        assert_eq!(strict.len(), 2 * per_contributor);
    }

    #[test]
    fn strict_gold_is_subset_of_loose() {
        let profiles = generate(&GeneratorConfig::default().with_size(200));
        let strict = gold_ex_smokers(&profiles, ExSmokerMeaning::QuitWithinYear, &["cori"]);
        let loose = gold_ex_smokers(&profiles, ExSmokerMeaning::EverQuit, &["cori"]);
        assert!(strict.is_subset(&loose));
        assert!(strict.len() < loose.len());
    }

    #[test]
    fn unanswered_instances_are_invisible() {
        let profiles = generate(&GeneratorConfig::default().with_size(300));
        let loose = gold_ex_smokers(&profiles, ExSmokerMeaning::EverQuit, &["cori"]);
        for p in profiles.iter().filter(|p| p.smoking_unanswered) {
            assert!(!loose.contains(&("cori".to_owned(), p.id)));
        }
    }
}
