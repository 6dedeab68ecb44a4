//! The lane matrix every parity suite runs: {serial, morsel-parallel} ×
//! {segment, row} resting storage — the whole configuration space of
//! `ExecConfig` — plus the materializing interpreter
//! (`Plan::eval_materialized`) as the oracle all of them are held to.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use guava::relational::prelude::*;

/// The serial and the parallel executor over one [`StorageMode`]. The
/// parallel lane uses several workers, no cardinality threshold, and a
/// deliberately odd 7-row morsel so even the suites' tiny fixtures span
/// multiple morsels and exercise the merge logic.
pub fn lanes_on(storage: StorageMode) -> Vec<(&'static str, Executor)> {
    let serial = Executor::new().threads(1).storage(storage);
    let parallel = Executor::new()
        .threads(3)
        .parallel_threshold(1)
        .morsel_size(7)
        .storage(storage);
    match storage {
        StorageMode::Segment => vec![("serial-segment", serial), ("parallel-segment", parallel)],
        StorageMode::Row => vec![("serial-row", serial), ("parallel-row", parallel)],
    }
}

/// All four executor lanes, the shipped default storage first.
pub fn lanes() -> Vec<(&'static str, Executor)> {
    let mut all = lanes_on(StorageMode::Segment);
    all.extend(lanes_on(StorageMode::Row));
    all
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
