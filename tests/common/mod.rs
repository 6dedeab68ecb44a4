//! The lane matrix every parity suite runs: the serial and the
//! morsel-parallel executor — the whole configuration space of
//! `Executor` — plus the materializing interpreter
//! (`Plan::eval_materialized`) as the oracle both are held to.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use guava::relational::prelude::*;

/// The serial and the parallel executor — the whole configuration space
/// the parity suites must cover. The parallel lane uses several workers,
/// no cardinality threshold, and a deliberately odd 7-row morsel so even
/// the suites' tiny fixtures span multiple morsels and exercise the merge
/// logic.
pub fn lanes() -> Vec<(&'static str, Executor)> {
    let parallel = Executor::new()
        .threads(3)
        .parallel_threshold(1)
        .morsel_size(7);
    vec![
        ("serial", Executor::new().threads(1)),
        ("parallel", parallel),
    ]
}

/// One way to evaluate a plan: an executor lane, or the oracle.
#[derive(Clone, Copy)]
pub enum Lane {
    Exec(Executor),
    Oracle,
}

impl Lane {
    pub fn execute(&self, plan: &Plan, db: &Database) -> RelResult<Table> {
        match self {
            Lane::Exec(exec) => exec.execute(plan, db),
            Lane::Oracle => plan.eval_materialized(db),
        }
    }
}

/// [`lanes`] plus the oracle, for suites that check a plan *rewrite* is
/// invisible under every evaluator, the interpreter included.
pub fn lanes_with_oracle() -> Vec<(&'static str, Lane)> {
    let mut all: Vec<_> = lanes()
        .into_iter()
        .map(|(name, exec)| (name, Lane::Exec(exec)))
        .collect();
    all.push(("materialized", Lane::Oracle));
    all
}
