//! The AIQL benchmark: three workloads, each checked for correct output,
//! reported end to end (untraced run) or layer by layer (traced run).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <hunt|triage|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Human-readable
//! figures go to standard error. A failed output check prints the result
//! with `"correct": false` and exits with status 1. See `DESIGN.md` for
//! the workloads, the metrics and what each layer metric should move.

mod common;
mod hunt;
mod ingest;
mod stmt;
mod trace;
mod triage;

use common::{Args, Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <hunt|triage|ingest> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let report = match args.workload.as_str() {
        "hunt" => hunt::run(&args),
        "triage" => triage::run(&args),
        "ingest" => ingest::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?} (hunt, triage, ingest)");
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        eprintln!("{line}");
    }
    for failure in &report.checks.failures {
        eprintln!("OUTPUT CHECK FAILED: {failure}");
    }
    eprintln!(
        "{}: {} output checks passed, {} failed; peak RSS {:.0} MiB, {:.1} s in all",
        args.workload,
        report.checks.passed,
        report.checks.failures.len(),
        common::peak_rss_mb(),
        started.elapsed().as_secs_f64(),
    );
    let correct = report.checks.failures.is_empty();
    println!("{}", result_line(&args, &report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The result object: every end-to-end metric on an untraced run, every
/// per-layer metric on a traced one (0 for a layer the workload leaves
/// idle).
fn result_line(args: &Args, report: &Report, correct: bool) -> String {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// Per-layer self time, in microseconds per operation, from a traced
/// window's spans.
pub(crate) fn report_self_time(tracer: &trace::Tracer, metrics: &mut BTreeMap<&'static str, f64>) {
    let (by_layer, ops) = tracer.self_time();
    for (layer, us) in by_layer {
        let name: &'static str = match layer {
            "core" => "core.self_us_per_op",
            "engine" => "engine.self_us_per_op",
            "rdb" => "rdb.self_us_per_op",
            "storage" => "storage.self_us_per_op",
            "ingest" => "ingest.self_us_per_op",
            "wal" => "wal.self_us_per_op",
            "server" => "server.self_us_per_op",
            other => panic!("span of unknown layer {other}"),
        };
        metrics.insert(name, us / ops.max(1) as f64);
    }
}

/// Writes the traced window's spans to `work/trace-<workload>-<seed>.jsonl`.
pub(crate) fn write_trace(tracer: &trace::Tracer, args: &Args) {
    let path = common::work_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("{}: spans written to {}", args.workload, path.display()),
        Err(e) => eprintln!("{}: could not write spans: {e}", args.workload),
    }
}
