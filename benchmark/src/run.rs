//! The measurement loop shared by all four workloads, and the result it
//! prints.
//!
//! One run = set-up three times (median → `setup_s`), a short warm-up,
//! a closed loop of operations for `--seconds` on one client thread,
//! then the untimed output checks. An untraced run (`--trace 0`) yields
//! the end-to-end metrics. A traced run (`--trace 1`) runs the same loop
//! with shadow probes after every operation and span recording on every
//! second one, and yields the per-layer metrics.

use crate::fixture::{BenchResult, Sizes};
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{engine, etl_stream, study_batch};
use serde::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;
const SETUP_REPEATS: usize = 3;
const WARMUP_OPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl RunConfig {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    /// Operations measured however short `--seconds` is.
    fn min_ops(&self) -> usize {
        if self.smoke {
            4
        } else {
            30
        }
    }
}

/// What one operation reports about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    /// The whole closed-loop operation.
    pub op_ms: f64,
    /// Last input saved → derived result visible to its consumer.
    pub fresh_ms: f64,
    /// Work units completed (see `Workload::unit_of_work`).
    pub units: f64,
}

pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: a fixture, its operation, its oracles and its layers.
pub trait Bench: Sized {
    fn setup(cfg: &RunConfig, tr: &mut Tracer) -> BenchResult<Self>;
    /// One closed-loop operation. Opens the `op` span(s) itself; in a
    /// traced run it also performs its shadow probes, outside them.
    fn op(&mut self, tr: &mut Tracer) -> BenchResult<OpSample>;
    /// Untimed output checks against the repository's own oracles.
    fn check(&mut self) -> BenchResult<()>;
    /// This workload's per-layer numbers, from the recorded spans plus
    /// standalone probes of layers the operation does not call directly.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) -> BenchResult<()>;
}

/// The result of one run, before it is printed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub config: RunConfig,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name → (value, unit), exactly the end-to-end or per-layer set.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub ops_measured: usize,
    pub errors: Vec<String>,
    pub trace: Option<Json>,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::StudyBatch => run_bench::<study_batch::StudyBatch>(cfg),
        Workload::WarehouseTrickle | Workload::AnalystQueries => {
            run_bench::<engine::EngineBench>(cfg)
        }
        Workload::EtlStream => run_bench::<etl_stream::EtlStream>(cfg),
    }
}

fn run_bench<B: Bench>(cfg: &RunConfig) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut errors = Vec::new();
    let mut outcome = Outcome {
        config: cfg.clone(),
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        ops_measured: 0,
        errors: Vec::new(),
        trace: None,
    };

    // Set-up, several times; the last fixture is the one measured.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        match B::setup(cfg, &mut tr) {
            Ok(b) => bench = Some(b),
            Err(e) => {
                outcome.errors.push(format!("setup: {e}"));
                return outcome;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPEATS > 0");

    // Warm-up: let caches fill and lazy set-up finish before timing.
    tr.set_on(false);
    for _ in 0..WARMUP_OPS {
        outcome.attempted += 1;
        if let Err(e) = bench.op(&mut tr) {
            outcome.failed += 1;
            errors.push(format!("warm-up op: {e}"));
        }
    }

    // The closed loop. In a traced run every second operation records
    // spans; the others give the untraced time the overhead is taken from.
    let mut plain: Vec<OpSample> = Vec::new();
    let mut traced: Vec<OpSample> = Vec::new();
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < cfg.seconds || plain.len() < cfg.min_ops() {
        let record = cfg.trace && outcome.attempted % 2 == 1;
        tr.set_on(record);
        tr.begin_op();
        outcome.attempted += 1;
        match bench.op(&mut tr) {
            Ok(s) if record => traced.push(s),
            Ok(s) => plain.push(s),
            Err(e) => {
                outcome.failed += 1;
                if errors.len() < 8 {
                    errors.push(format!("op {}: {e}", outcome.attempted));
                }
            }
        }
        tr.end_op();
    }
    let timed_s = timed.elapsed().as_secs_f64();
    outcome.ops_measured = plain.len();

    let checked = bench.check();
    if let Err(e) = &checked {
        errors.push(format!("check: {e}"));
    }
    outcome.correct = checked.is_ok() && outcome.failed == 0;

    let op_ms: Vec<f64> = plain.iter().map(|s| s.op_ms).collect();
    let fresh_ms: Vec<f64> = plain.iter().map(|s| s.fresh_ms).collect();
    if cfg.trace {
        tr.set_on(true);
        let mut layers = Layers::new();
        if let Err(e) = bench.layers(&mut tr, &mut layers) {
            errors.push(format!("layers: {e}"));
            outcome.correct = false;
        }
        let (pct, op_tail) = tail(&op_ms);
        layers.insert("op_ms_tail", op_tail);
        layers.insert("fresh_ms_tail", tail(&fresh_ms).1);
        layers.insert("op_tail_pct", pct);
        layers.insert("op_samples", plain.len() as f64);
        let traced_ms: Vec<f64> = traced.iter().map(|s| s.op_ms).collect();
        layers.insert(
            "trace.overhead_share",
            median(&traced_ms) / median(&op_ms) - 1.0,
        );
        layers.insert(
            "trace.attribution_share",
            median(&tr.attribution_shares("op")),
        );
        for l in PER_LAYER {
            let v = layers.remove(l.name).unwrap_or(0.0);
            outcome.metrics.push((l.name, v, l.unit));
        }
        debug_assert!(layers.is_empty(), "unlisted layer metrics: {layers:?}");
        outcome.trace = Some(tr.to_json());
    } else {
        // Shadow probes run inside the loop only when tracing, so the
        // loop's wall time is the time the operations took.
        let units: f64 = plain.iter().map(|s| s.units).sum();
        let e2e = [
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", peak_rss_mb()),
            ("op_ms_p50", median(&op_ms)),
            ("fresh_ms_p50", median(&fresh_ms)),
            ("units_per_s", units / timed_s),
        ];
        for m in END_TO_END {
            let v = e2e
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v);
            outcome.metrics.push((m.name, v, m.unit));
        }
    }
    outcome.errors = errors;
    outcome
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Outcome {
    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted.max(1))),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), self.metrics_json()),
        ])
    }

    fn metrics_json(&self) -> Json {
        Json::Object(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_owned(),
                        Json::Object(vec![
                            ("value".into(), Json::Float(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The stamped record kept in result files: the result line plus
    /// everything needed to know what was measured, and where.
    pub fn record(&self) -> Json {
        let sizes = self.config.sizes();
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::Object(vec![
            (
                "workload".into(),
                Json::Str(self.config.workload.name().into()),
            ),
            ("trace".into(), Json::Bool(self.config.trace)),
            ("commit".into(), Json::Str(commit())),
            ("seed".into(), Json::UInt(self.config.seed)),
            ("seconds".into(), Json::Float(self.config.seconds)),
            ("smoke".into(), Json::Bool(self.config.smoke)),
            (
                "study_reports".into(),
                Json::UInt(sizes.study_reports as u64),
            ),
            (
                "engine_reports".into(),
                Json::UInt(sizes.engine_reports as u64),
            ),
            ("ops_measured".into(), Json::UInt(self.ops_measured as u64)),
            (
                "unit_of_work".into(),
                Json::Str(self.config.workload.unit_of_work().into()),
            ),
            ("nproc".into(), Json::UInt(nproc() as u64)),
            ("host_threads".into(), Json::UInt(host_threads as u64)),
            ("scaling_valid".into(), Json::Bool(host_threads >= 2)),
            ("claim".into(), Json::Null),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), self.metrics_json()),
        ])
    }
}

/// CPUs the operating system reports online (`host_threads` is what this
/// process may use of them).
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `unknown` outside a git checkout (the driver's copy is not one).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_owned()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}
