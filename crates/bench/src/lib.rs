//! # guava-bench
//!
//! The measurement harness: shared fixtures plus the `tables` binary that
//! regenerates the paper-reproduction artifacts (`TABLES.md`) and the
//! executor benchmark (`BENCH_executor.json`).
//!
//! The paper evaluates GUAVA/MultiClass by hypotheses rather than by
//! wall-clock numbers, so this crate plays two roles:
//!
//! * **Artifact regeneration** — `tables` (no flags) rebuilds every figure
//!   and table the reproduction claims, end to end, from the seeded
//!   clinical generator through compiled ETL to study output.
//! * **Executor benchmarking** — `tables --bench-executor` times the
//!   materializing interpreter ([`Plan::eval_materialized`]) against the
//!   streaming executor ([`Plan::eval`]) over each contributor's decode
//!   stack, sweeps the morsel-parallel executor across a threads axis
//!   (`1` serial baseline, then 2/4/8 via
//!   [`Executor::threads`]), and times the serial [`Executor`]'s
//!   columnar expression and blocking kernels against the interpreter.
//!   Results land in
//!   `BENCH_executor.json`; EXPERIMENTS.md documents how to read and
//!   regenerate them.
//!
//! Fixtures here are deterministic (seeded generator, fixed sizes) so two
//! runs on the same machine produce comparable timings and *identical*
//! row counts — every benchmark asserts that all executors agree on output
//! cardinality before a timing is recorded.
//!
//! [`Plan::eval`]: guava::relational::algebra::Plan::eval
//! [`Plan::eval_materialized`]: guava::relational::algebra::Plan::eval_materialized
//! [`Executor::threads`]: guava::relational::exec::Executor::threads
//! [`Executor`]: guava::relational::exec::Executor

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

/// Compile and fully run a study over the fixture; returns the primary
/// result table length (used as a black-box value in benches).
pub fn run_study_len(fixture: &Fixture, study: &guava::multiclass::Study) -> usize {
    let compiled =
        compile(study, &study_schema(), &registry(), &fixture.bindings()).expect("study compiles");
    let mut catalog = fixture.catalog();
    compiled.workflow.run(&mut catalog).expect("workflow runs");
    catalog
        .database(&compiled.output_db)
        .unwrap()
        .table("Procedure")
        .unwrap()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_runs() {
        let f = Fixture::new(25);
        assert_eq!(f.contributors.len(), 3);
        let study = study2_definition(&f.contributors, ExSmokerMeaning::EverQuit);
        assert!(run_study_len(&f, &study) > 0);
    }
}
