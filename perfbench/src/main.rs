//! The repository benchmark: the golden artifact served by a real
//! in-process daemon (and, for `routed-hot`, by two replicas behind the
//! fleet router), driven by a closed-loop load generator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-cold --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate single-threaded, in-process run over the same
//! inputs. A human-readable report goes to standard error; standard
//! output ends with the result line
//! `{"correct", "attempted", "failed", "metrics"}`, preceded by a line
//! with the environment, the input hash and sample counts.
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics and says why each exists.

mod e2e;
mod inputs;
mod layers;
mod serving;
mod stats;

use scamdetect::{Scanner, ScannerBuilder};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanHot,
    ScanCold,
    BatchCold,
    RoutedHot,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ScanHot,
        Workload::ScanCold,
        Workload::BatchCold,
        Workload::RoutedHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanHot => "scan-hot",
            Workload::ScanCold => "scan-cold",
            Workload::BatchCold => "batch-cold",
            Workload::RoutedHot => "routed-hot",
        }
    }
}

/// What one run found.
pub struct Report {
    pub metrics: stats::Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-shape violations: the workload is not what it claims.
    pub guards: Vec<String>,
    /// Extra JSON members for the info line.
    pub info: String,
}

/// Threads that make and check inputs: `nproc`, at most 2.
pub fn threads() -> usize {
    serving::allowed_cpus().len().min(2)
}

/// The in-process reference scanner every reply is checked against.
pub fn reference() -> Result<Scanner, String> {
    ScannerBuilder::new()
        .load(serving::ARTIFACT)
        .map_err(|e| format!("loading {}: {e}", serving::ARTIFACT))
}

/// The score bits of a scan outcome; `u64::MAX` (a NaN, which no
/// reply carries) for a failed scan.
pub fn score_bits(outcome: &scamdetect::ScanOutcome) -> u64 {
    outcome
        .as_ref()
        .map_or(u64::MAX, |r| r.verdict.malicious_probability.to_bits())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload '{name}'"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    // Recorded before any pin narrows them.
    serving::allowed_cpus();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: {} seed {} ({} run)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    for (name, (value, unit)) in &report.metrics {
        eprintln!("  {name:<36} {value:>14.3} {unit}");
    }
    for guard in &report.guards {
        eprintln!("  GUARD FAILED: {guard}");
    }
    let correct = report.failed == 0 && report.guards.is_empty();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"env\": {}, {}}}",
        stats::json_str(args.workload.name()),
        args.seed,
        stats::env_block(),
        report.info
    );
    println!(
        "{}",
        stats::result_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
