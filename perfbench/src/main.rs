//! The repository benchmark: three workloads run against the public APIs of
//! the workspace crates, timed end to end with tracing off, and split by
//! layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-m16 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `sweep-m16` — the `repro campaign cores` m = 16 panel: group-1 sets on
//!   the 13-point utilization grid, generated on the worker and answered by
//!   the verdict-only six-method request of `campaign::sweep_into`.
//! * `validate-m4` — the `repro validate cores` m = 4 panel at the 10×
//!   horizon: `validate::validate_set` per set through the campaign driver.
//! * `serve-mix` — admission-control traffic against `serve::spawn` on a
//!   loopback port: fixed-rate open loops, a closed loop and a rate ladder.
//!
//! `BENCHMARK.json` at the repository root records why each workload was
//! chosen and every metric's unit and regression bound. It leaves
//! `validate-m4` out: on a small shared host its throughput moves with the
//! host's speed by more than the bounds allow from one run to the next.
//!
//! A run prints its provenance, its checks and its metrics, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. A traced run also writes its spans to
//! `<out-dir>/spans-<workload>-<seed>.jsonl`.

mod batch;
mod report;
mod serve_mix;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sweep-m16|validate-m4|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SweepM16,
    ValidateM4,
    ServeMix,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepM16 => "sweep-m16",
            Workload::ValidateM4 => "validate-m4",
            Workload::ServeMix => "serve-mix",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [Workload::SweepM16, Workload::ValidateM4, Workload::ServeMix]
            .into_iter()
            .find(|w| w.name() == name)
    }
}

/// The parsed command line.
pub struct Args {
    pub workload: Workload,
    /// Every input is generated from this seed.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Run the traced, per-layer variant.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
    /// Run one cold set-up and print its duration (the `setup_s` probe).
    pub setup_probe: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setup_probe = false;
        let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--setup-probe" => setup_probe = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir" => {
                    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    match flag.as_str() {
                        "--workload" => {
                            workload = Some(
                                Workload::parse(&value)
                                    .ok_or_else(|| format!("unknown workload {value:?}"))?,
                            )
                        }
                        "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                        "--seconds" => {
                            seconds = Some(
                                value
                                    .parse::<f64>()
                                    .ok()
                                    .filter(|s| s.is_finite() && *s > 0.0)
                                    .ok_or("--seconds must be a positive number")?,
                            )
                        }
                        "--trace" => {
                            trace = Some(match value.as_str() {
                                "0" => false,
                                "1" => true,
                                _ => return Err("--trace must be 0 or 1".into()),
                            })
                        }
                        _ => out_dir = PathBuf::from(value),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let seed = seed.ok_or("--seed is required")?;
        let (seconds, trace) = if setup_probe {
            (seconds.unwrap_or(0.0), trace.unwrap_or(false))
        } else {
            (
                seconds.ok_or("--seconds is required")?,
                trace.ok_or("--trace is required")?,
            )
        };
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            out_dir,
            setup_probe,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let probe = match args.workload {
            Workload::SweepM16 => batch::setup_probe(batch::Batch::Sweep),
            Workload::ValidateM4 => batch::setup_probe(batch::Batch::Validate),
            Workload::ServeMix => serve_mix::setup_probe(&args),
        };
        return match probe {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match args.workload {
        Workload::SweepM16 => batch::run(batch::Batch::Sweep, &args),
        Workload::ValidateM4 => batch::run(batch::Batch::Validate, &args),
        Workload::ServeMix => serve_mix::run(&args),
    };
    match run {
        Ok(report) => {
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
