//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each is predicted to move. `BENCHMARK.json` at the repository root
//! is generated from these tables ([`spec_json`]); `tests/smoke.rs` fails
//! when the committed file drifts from them.

use serde::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyBatch,
    WarehouseTrickle,
    AnalystQueries,
    EtlStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StudyBatch,
        Workload::WarehouseTrickle,
        Workload::AnalystQueries,
        Workload::EtlStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyBatch => "study_batch",
            Workload::WarehouseTrickle => "warehouse_trickle",
            Workload::AnalystQueries => "analyst_queries",
            Workload::EtlStream => "etl_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: the layers that do its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::StudyBatch => "batch path: pattern decode, expression kernels and blocking operators do the work; delta, install and fan-out do none",
            Workload::WarehouseTrickle => "write path with no reads: delta capture, store refresh, generation install, stats patch and fan-out to 8 subscribers do the work",
            Workload::AnalystQueries => "reads after every write: first and warm dashboard passes show what installs and scans cost each other (sealing, copy-on-write)",
            Workload::EtlStream => "incremental ETL: resident DeltaPlans over whole decode stacks refresh from small insert and amend deltas instead of a store patch",
        }
    }

    /// What `units_per_s` counts on this workload.
    pub fn unit_of_work(self) -> &'static str {
        match self {
            Workload::StudyBatch => "physical input rows",
            Workload::WarehouseTrickle => "engine updates",
            Workload::AnalystQueries => "update + two dashboard passes",
            Workload::EtlStream => "reports inserted or amended",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these from its untraced run.
///
/// The bounds are sized from the run-to-run spread measured on the
/// 2-core sandbox this benchmark was defined on (see README, *Steadiness*):
/// the host's speed drifts by several percent over tens of seconds, more
/// on the memory-heavy workloads, and a bound tighter than three times
/// that spread would reject unchanged code.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fresh_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this number should move.
    pub moves: &'static str,
}

const fn ms(name: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit: "ms",
        better: Better::Lower,
        moves,
    }
}

const fn us(name: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit: "us",
        better: Better::Lower,
        moves,
    }
}

const STUDY: &str = "op_ms_p50, units_per_s on study_batch";
const SETUP_ENGINE: &str = "setup_s on warehouse_trickle, analyst_queries";
const WRITE: &str =
    "fresh_ms_p50, units_per_s on warehouse_trickle; warehouse.update_sync_ms_p50 on analyst_queries (write after read)";
const FIRST: &str = "fresh_ms_p50, op_ms_p50 on analyst_queries (first pass)";
const WARM: &str = "op_ms_p50 on analyst_queries (warm pass) and on study_batch";
const ETL: &str = "fresh_ms_p50, units_per_s on etl_stream";

/// Every workload reports every one of these from its traced run; a layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[Layer] = &[
    us(
        "forms.entry_us",
        "setup_s everywhere; units_per_s on warehouse_trickle",
    ),
    ms(
        "gtree.derive_ms",
        "op_ms_p50 on study_batch (expected < 1 %)",
    ),
    us(
        "patterns.rewrite_us",
        "op_ms_p50 on study_batch (expected < 1 %)",
    ),
    ms(
        "etl.compile_ms",
        "op_ms_p50 on study_batch (expected < 1 %)",
    ),
    ms(
        "patterns.encode_ms",
        "setup_s everywhere; op_ms_p50 on etl_stream",
    ),
    ms("patterns.decode_ms.cori", STUDY),
    ms("patterns.decode_ms.endopro", STUDY),
    ms("patterns.decode_ms.gastrolink", STUDY),
    ms("etl.run_ms.study1", STUDY),
    ms("etl.run_ms.study2", STUDY),
    Layer {
        name: "etl.rows_examined_per_row_out",
        unit: "ratio",
        better: Better::Lower,
        moves: STUDY,
    },
    ms("multiclass.classify_ms", SETUP_ENGINE),
    ms("warehouse.store_build_ms", SETUP_ENGINE),
    ms(
        "relational.capture_ms",
        "fresh_ms_p50 on warehouse_trickle, analyst_queries, etl_stream",
    ),
    ms("warehouse.store_refresh_ms", WRITE),
    ms("relational.delta_plan_refresh_ms", WRITE),
    ms("warehouse.engine_residual_ms", WRITE),
    ms("warehouse.sync_ms", WRITE),
    ms(
        "warehouse.update_sync_ms_p50",
        "fresh_ms_p50 on warehouse_trickle (equal to it) and on analyst_queries (its write-after-read part)",
    ),
    Layer {
        name: "warehouse.full_resync_share",
        unit: "ratio",
        better: Better::Lower,
        moves: "fresh_ms_tail on warehouse_trickle (a rise predicts a worse tail)",
    },
    Layer {
        name: "warehouse.events_per_update",
        unit: "count",
        better: Better::Lower,
        moves: "none: must equal the number of subscriptions",
    },
    ms("relational.seal_ms", FIRST),
    ms("relational.q_full_scan_ms.first", FIRST),
    ms("relational.q_full_scan_ms.warm", WARM),
    ms("relational.q_zone_prune_ms.first", FIRST),
    ms("relational.q_zone_prune_ms.warm", WARM),
    ms("relational.q_dict_eq_ms.first", FIRST),
    ms("relational.q_dict_eq_ms.warm", WARM),
    ms("relational.q_group_by_ms.first", FIRST),
    ms("relational.q_group_by_ms.warm", WARM),
    ms("relational.q_join_ms.first", FIRST),
    ms("relational.q_join_ms.warm", WARM),
    us(
        "relational.optimize_us",
        "none: Session::query runs plans as given",
    ),
    ms("dashboard_first_ms_p50", FIRST),
    ms("dashboard_warm_ms_p50", WARM),
    ms("etl.run_incremental_ms.insert", ETL),
    ms("etl.run_incremental_ms.amend", ETL),
    ms(
        "etl.rebuild_ms",
        "none: the baseline etl.incremental_speedup divides by",
    ),
    Layer {
        name: "etl.incremental_speedup",
        unit: "ratio",
        better: Better::Higher,
        moves: ETL,
    },
    Layer {
        name: "etl.delta_rows_in",
        unit: "count",
        better: Better::Lower,
        moves: "none: exact size of the first measured delta",
    },
    ms(
        "op_ms_tail",
        "none: stored tail of op_ms (percentile in op_tail_pct)",
    ),
    ms(
        "fresh_ms_tail",
        "none: stored tail of fresh_ms (percentile in op_tail_pct)",
    ),
    Layer {
        name: "op_tail_pct",
        unit: "%",
        better: Better::Higher,
        moves: "none: highest percentile with ten samples beyond it",
    },
    Layer {
        name: "op_samples",
        unit: "count",
        better: Better::Higher,
        moves: "none: untraced samples behind the medians and tails",
    },
    Layer {
        name: "trace.overhead_share",
        unit: "ratio",
        better: Better::Lower,
        moves: "none: traced / untraced op time - 1",
    },
    Layer {
        name: "trace.attribution_share",
        unit: "ratio",
        better: Better::Higher,
        moves: "none: share of traced op time the layer self times explain",
    },
];

/// Length of one timed closed loop under the driver. Its 92 runs, each
/// with three set-ups and the output checks, take about 36 minutes of
/// the 57 allowed.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`, generated from the metric tables so the
/// file and the program cannot name different metrics.
pub fn spec_json() -> String {
    let s = |v: &str| Json::Str(v.into());
    let spec = Json::Object(vec![
        (
            "command".into(),
            Json::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(s)
                .collect(),
            ),
        ),
        ("paths".into(), Json::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Json::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Json::Array(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::Object(vec![
                            ("name".into(), s(w.name())),
                            ("why".into(), s(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Object(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::Object(vec![
                            ("name".into(), s(l.name)),
                            ("unit".into(), s(l.unit)),
                            ("better".into(), s(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&spec).expect("a Json tree always prints")
}
