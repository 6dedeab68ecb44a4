//! `--smoke`-sized runs of all four workloads with every output check
//! on, plus the contracts that keep `BENCHMARK.json`, the metric tables
//! and the benchmark-owned CORI fixture honest.

use guava::clinical::cori;
use guava::prelude::*;
use guava_benchmark::fixture::{cori_physical, profiles};
use guava_benchmark::metrics::{spec_json, Workload, END_TO_END, PER_LAYER};
use guava_benchmark::run::{run, RunConfig, DEFAULT_SEED};

fn metric(o: &guava_benchmark::run::Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
        .1
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_declared_metrics() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let o = run(&RunConfig {
                workload,
                seed: DEFAULT_SEED,
                seconds: 0.5,
                trace,
                smoke: true,
            });
            let what = format!("{} (trace {trace})", workload.name());
            assert!(o.errors.is_empty(), "{what}: {:?}", o.errors);
            assert!(o.correct, "{what}: output checks failed");
            assert_eq!(o.failed, 0, "{what}");
            assert!(
                o.attempted as usize > o.ops_measured && o.ops_measured >= 4,
                "{what}"
            );

            let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
            if trace {
                let want: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
                assert_eq!(names, want, "{what}");
                assert!(o.metrics.iter().all(|m| m.1.is_finite()), "{what}");
                // The layer self times must explain the traced operation.
                assert!(metric(&o, "trace.attribution_share") >= 0.85, "{what}");
                assert!(o.trace.is_some());
                let subscriptions = match workload {
                    Workload::WarehouseTrickle => 8.0,
                    Workload::AnalystQueries => 4.0,
                    _ => 0.0,
                };
                assert_eq!(
                    metric(&o, "warehouse.events_per_update"),
                    subscriptions,
                    "{what}"
                );
            } else {
                let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
                assert_eq!(names, want, "{what}");
                // End-to-end metrics are never 0.
                assert!(
                    o.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                    "{what}"
                );
            }

            let line = o.result_line();
            let keys: Vec<&str> = line
                .as_object()
                .expect("result line is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn benchmark_json_is_generated_from_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed.trim(),
        spec_json(),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
    );
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|l| l.name))
        .chain(Workload::ALL.into_iter().map(Workload::name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
}

/// The benchmark builds CORI's physical database with one `audit_revise`
/// batch instead of `cori::physical_database`'s per-report rescans. Same
/// data: it decodes to the (amended) naïve form, and holds the same rows as the
/// library's builder as a multiset (row order differs — `audit_revise`
/// appends tombstones, then the amended live rows).
#[test]
fn benchmark_cori_fixture_holds_the_same_rows_as_physical_database() {
    let (base, _) = profiles(DEFAULT_SEED, 300);
    let naive = cori::naive_database(&base).unwrap();
    let stack = cori::stack().unwrap();
    let ours = cori_physical(&naive, &stack).unwrap();

    // Decoding hides the tombstones and shows the amended note on every
    // 13th report; everything else is the naïve form as typed.
    let decoded = stack
        .query(&ours, &Plan::scan("procedure").sort_by(&["instance_id"]))
        .unwrap();
    let typed = naive.table("procedure").unwrap();
    let note = typed.schema().index_of("other_complication").unwrap();
    let mut expected = typed.rows().to_vec();
    for row in expected
        .iter_mut()
        .filter(|r| r[0].as_i64().unwrap() % 13 == 0)
    {
        row[note] = Value::text("amended report");
    }
    assert_eq!(decoded.rows(), expected);

    let theirs = cori::physical_database(&base).unwrap();
    let sorted = |db: &Database| {
        let mut rows = db.table(cori::PHYSICAL_TABLE).unwrap().rows().to_vec();
        rows.sort();
        rows
    };
    assert_eq!(sorted(&ours), sorted(&theirs));
    assert!(sorted(&ours).len() > base.len(), "tombstones are retained");
}
