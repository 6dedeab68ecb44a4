//! # guava-bench
//!
//! Artifact regeneration: shared fixtures plus the `tables` binary that
//! rebuilds every figure, table, worked study and hypothesis experiment
//! the reproduction claims, end to end, from the seeded clinical
//! generator through compiled ETL to study output.
//!
//! The paper evaluates GUAVA/MultiClass by hypotheses rather than by
//! wall-clock numbers, so what this crate produces is text, not timings:
//! `tables --size 1000` prints the committed `tables_output.txt` byte for
//! byte, and `scripts/check.sh` diffs the two. Timings come from the
//! `benchmark/` crate that `BENCHMARK.json` declares.
//!
//! Fixtures here are deterministic (seeded generator, fixed sizes), so two
//! runs print identical output on any machine.

use guava::clinical::prelude::*;
use guava::etl::prelude::*;
use guava::prelude::*;

/// A fully-built experimental setup at a given dataset size.
pub struct Fixture {
    pub profiles: Vec<Profile>,
    pub contributors: Vec<Contributor>,
}

impl Fixture {
    /// Deterministic fixture: `n` procedures per contributor.
    pub fn new(n: usize) -> Fixture {
        let profiles = generate(&GeneratorConfig::default().with_size(n));
        let contributors = build_all(&profiles).expect("contributors build");
        Fixture {
            profiles,
            contributors,
        }
    }

    pub fn bindings(&self) -> Vec<ContributorBinding> {
        bindings(&self.contributors)
    }

    pub fn catalog(&self) -> Catalog {
        physical_catalog(&self.contributors)
    }

    /// The CORI contributor.
    pub fn cori(&self) -> &Contributor {
        &self.contributors[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_runs() {
        let f = Fixture::new(25);
        assert_eq!(f.contributors.len(), 3);
        let study = study2_definition(&f.contributors, ExSmokerMeaning::EverQuit);
        let compiled = compile(&study, &study_schema(), &registry(), &f.bindings()).unwrap();
        let mut catalog = f.catalog();
        compiled.workflow.run(&mut catalog).unwrap();
        let out = catalog.database(&compiled.output_db).unwrap();
        assert!(!out.table("Procedure").unwrap().is_empty());
    }
}
