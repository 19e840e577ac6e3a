//! Benchmark of the DM design-space explorer: three workloads, each timed
//! end to end with tracing off, and a separate traced run that attributes
//! the time to the library's layers.
//!
//! Usage (normally through `python3 perfbench/run.py`, which builds this
//! binary first):
//!
//! ```text
//! dmm-perfbench --workload <sweep-drr|design-cases|replay-panel>
//!               --seed <u64> --seconds <u64> --trace <0|1>
//! dmm-perfbench --make-reference <sweep-drr|replay-panel>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the run's metadata (host, source digest, seed, build profile).
//! Any wrong output makes `correct` false and the exit code 1.

mod cli;
mod design;
mod layers;
mod panel;
mod setup;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;

use cli::{Args, Command, Workload};

fn main() -> ExitCode {
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("dmm-perfbench: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("dmm-perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    match command {
        Command::MakeReference(w) => match if w == Workload::SweepDrr {
            sweep::make_reference()
        } else {
            panel::make_reference()
        } {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dmm-perfbench: reference sweep failed: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Run(args) => run(&args),
    }
}

fn run(args: &Args) -> ExitCode {
    let report = match args.workload {
        Workload::SweepDrr => sweep::run(args),
        Workload::DesignCases => design::run(args),
        Workload::ReplayPanel => panel::run(args),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dmm-perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    report.require_end_to_end();
    println!("{}", metadata_json(args, &report.passes));
    println!("{}", report.to_json(args.trace));
    for problem in &report.problems {
        eprintln!("dmm-perfbench: WRONG OUTPUT: {problem}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Host, source and build data recorded with every result.
fn metadata_json(args: &Args, passes: &[f64]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"profile\": \"release\", \"host\": {{\"cores\": {cores}, \"cpu_model\": {}}}, \
         \"commit\": {}, \"source_sha256\": {}, \"passes_s\": {passes:?}}}}}",
        layers::json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        layers::json_str(&cpu),
        layers::json_str(&env("DMM_PERFBENCH_COMMIT")),
        layers::json_str(&env("DMM_PERFBENCH_SOURCE_SHA256")),
    )
}

/// Where a traced run writes its spans, inside the checkout.
pub fn spans_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ))
}

/// Shorthand for results inside the workloads.
pub type Res<T> = Result<T, String>;

/// Convert a library error into the benchmark's error string.
pub fn lib<T>(r: dmm_core::Result<T>) -> Res<T> {
    r.map_err(|e| e.to_string())
}
