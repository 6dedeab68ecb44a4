//! `compare A.json B.json` — the no-regression table.

use crate::metrics::{Better, Workload, END_TO_END};
use crate::stats::{iqr_share, median};
use serde::Json;

/// Counts that must repeat exactly between two sets of the same commit.
const EXACT: &[&str] = &[
    "warehouse.events_per_update",
    "warehouse.full_resync_share",
    "etl.delta_rows_in",
];

/// Every value of `metric` on `workload` in a result file's records.
fn values(records: &[Json], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(trace)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The stamped run records of a result file (a JSON array).
pub fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match serde_json::from_str::<Json>(&text).map_err(|e| format!("{path}: {e}"))? {
        Json::Array(a) => Ok(a),
        _ => Err(format!("{path}: not a JSON array of run records")),
    }
}

/// Print, per workload × end-to-end metric, both medians, the ratio with
/// its base, the bound and a verdict:
///
/// * `worse` — B's median is worse than A's by more than the bound;
/// * `unresolved` — either side's run-to-run spread (interquartile
///   distance ÷ median) is wider than the bound, unless every run of B
///   reads better than every run of A;
/// * `ok` — otherwise.
///
/// Returns whether every row is `ok` and every exact count repeats.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut all_ok = true;
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>18} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "A iqr", "B iqr"
    );
    for w in Workload::ALL {
        for m in END_TO_END {
            let (va, vb) = (
                values(&a, w.name(), false, m.name),
                values(&b, w.name(), false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<18} {:<14} missing in {}",
                    w.name(),
                    m.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                all_ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            let b_dominates = match m.better {
                Better::Lower => vb.iter().all(|x| va.iter().all(|y| x < y)),
                Better::Higher => vb.iter().all(|x| va.iter().all(|y| x > y)),
            };
            let verdict = if (sa > m.bound || sb > m.bound) && !b_dominates {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{:<18} {:<14} {:>12.4} {:>12.4} {:>9.4} ({:>7.2}) {:>6.2} {:>7.4} {:>7.4}  {verdict}",
                w.name(), m.name, ma, mb, mb / ma, ma, m.bound, sa, sb
            );
        }
        let failed = |r: &[Json]| -> (u64, u64) {
            r.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
                .fold((0, 0), |(f, n), r| {
                    (
                        f + r.get("failed").and_then(Json::as_u64).unwrap_or(0),
                        n + r.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                    )
                })
        };
        let ((fa, na), (fb, nb)) = (failed(&a), failed(&b));
        let verdict = if fa == 0 && fb == 0 { "ok" } else { "worse" };
        all_ok &= verdict == "ok";
        println!(
            "{:<18} {:<14} {fa:>5}/{na:<6} {fb:>5}/{nb:<6} failed/attempted ops  {verdict}",
            w.name(),
            "failed_ops"
        );
        for name in EXACT {
            let (mut va, mut vb) = (
                values(&a, w.name(), true, name),
                values(&b, w.name(), true, name),
            );
            va.dedup();
            vb.dedup();
            if va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue; // a layer this workload never calls
            }
            let verdict = if va.len() == 1 && va == vb {
                "ok"
            } else {
                "differs"
            };
            all_ok &= verdict == "ok";
            println!(
                "{:<18} {:<34} A {va:?}  B {vb:?}  {verdict}",
                w.name(),
                name
            );
        }
    }
    Ok(all_ok)
}
