//! `guava-benchmark` — run one workload, print its metrics; or compare
//! two result files. See `README.md`.

use guava_benchmark::compare::{compare, load};
use guava_benchmark::metrics::{spec_json, Workload, PER_LAYER, RUN_SECONDS};
use guava_benchmark::run::{run, Outcome, RunConfig, DEFAULT_SEED};
use serde::Json;
use std::process::ExitCode;

const USAGE: &str = "\
usage: guava-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]
                       [--smoke] [--out FILE]
       guava-benchmark compare A.json B.json
       guava-benchmark spec
workloads: study_batch warehouse_trickle analyst_queries etl_stream";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("spec") => {
            println!("{}", spec_json());
            Ok(true)
        }
        _ => parse(&args).and_then(measure),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<(RunConfig, Option<String>), String> {
    let mut cfg = RunConfig {
        workload: Workload::StudyBatch,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value()?;
                cfg.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace `{v}`")),
                };
            }
            "--smoke" => cfg.smoke = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok((cfg, out))
}

fn measure((cfg, out): (RunConfig, Option<String>)) -> Result<bool, String> {
    // `Plan::eval` and `Workflow::run` read GUAVA_* overrides; a stray
    // one would silently measure a different executor.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("GUAVA_"))
    {
        return Err(format!(
            "{} is set; the benchmark measures shipped defaults only",
            name.to_string_lossy()
        ));
    }
    let outcome = run(&cfg);
    for e in &outcome.errors {
        eprintln!("FAILED {e}");
    }
    print_table(&outcome);
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all("benchmark/out").map_err(io)?;
    if let Some(trace) = &outcome.trace {
        let path = format!("benchmark/out/trace-{}.json", cfg.workload.name());
        std::fs::write(
            &path,
            serde_json::to_string(trace).map_err(|e| e.to_string())?,
        )
        .map_err(io)?;
    }
    if let Some(path) = out {
        append_record(&path, outcome.record())?;
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.result_line()).map_err(|e| e.to_string())?
    );
    Ok(outcome.correct)
}

fn print_table(o: &Outcome) {
    let record = o.record();
    for key in [
        "workload",
        "trace",
        "commit",
        "seed",
        "seconds",
        "study_reports",
        "engine_reports",
        "ops_measured",
        "unit_of_work",
        "nproc",
        "host_threads",
        "scaling_valid",
    ] {
        if let Some(v) = record.get(key) {
            println!("# {key}: {}", serde_json::to_string(v).unwrap_or_default());
        }
    }
    for (name, value, unit) in &o.metrics {
        // A traced table also says which end-to-end metric each layer
        // number is predicted to move.
        let moves = PER_LAYER
            .iter()
            .find(|l| l.name == *name)
            .map_or(String::new(), |l| format!("  -> {}", l.moves));
        println!("{name:<40} {value:>16.4} {unit:<6}{moves}");
    }
}

/// Result files are JSON arrays of stamped run records; each run appends.
fn append_record(path: &str, record: Json) -> Result<(), String> {
    let mut records = if std::path::Path::new(path).exists() {
        load(path)?
    } else {
        Vec::new()
    };
    records.push(record);
    let text = serde_json::to_string_pretty(&Json::Array(records)).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}
