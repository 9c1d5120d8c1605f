//! The repository benchmark: four workloads driven through the system's
//! public entry points, end-to-end metrics from untraced runs and
//! per-layer metrics from a traced layer-ladder run. See `README.md`.

mod fleet;
mod gen;
mod inputs;
mod ladder;
mod large;
mod measure;
mod report;
mod server;
mod stats;
mod steady;
mod sys;
mod trace;
mod tune;
mod wire;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["steady-n16", "fleet-mixed", "large-n512", "tune-paper"];

/// One run's settings.
pub struct Ctx {
    pub ibcf: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<(String, Ctx), String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let ctx = Ctx {
        ibcf: PathBuf::from(need("--ibcf")?),
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        setups: 7,
    };
    if !ctx.seconds.is_finite() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, ctx))
}

fn run(args: &[String]) -> Result<(), String> {
    let (workload, ctx) = parse_run(args)?;
    let pinning = if workload == "steady-n16" {
        sys::Pinning::split()
    } else {
        sys::Pinning::none()
    };
    println!("provenance {}", sys::provenance(&pinning));
    let mut report = Report::default();
    match workload.as_str() {
        "steady-n16" => steady::run(&ctx, &mut report)?,
        "fleet-mixed" => fleet::run(&ctx, &mut report)?,
        "large-n512" => large::run(&ctx, &mut report)?,
        _ => tune::run(&ctx, &mut report)?,
    }
    for line in &report.notes {
        println!("{workload}: {line}");
    }
    for v in &report.violations {
        println!("{workload}: VIOLATION {v}");
    }
    let line = if ctx.trace {
        report.result_line(PER_LAYER, true)?
    } else {
        report.result_line(END_TO_END, false)?
    };
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("tune-child") => flag(&args, "--seconds")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "tune-child needs --seconds".to_string())
            .and_then(tune::child_main),
        Some("reference") => {
            std::fs::write(Path::new(tune::REFERENCE_PATH), tune::build_reference())
                .map_err(|e| format!("writing {}: {e}", tune::REFERENCE_PATH))
        }
        _ => Err(
            "usage: perfbench run --workload W --seed S --seconds T --trace 0|1 --ibcf PATH \
                  | perfbench reference"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
