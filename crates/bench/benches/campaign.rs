//! The campaign-engine perf bench: generation vs analysis split of a full
//! Figure 2(a) grid (13 utilization points × `SETS` sets — the `repro
//! fig2a --sets 100 --serial` workload, in-process).
//!
//! Four axes are measured, each as the median of [`SAMPLES`] runs:
//!
//! * **generation**: the old two-phase path (fresh generator per set) vs
//!   the streaming path (one scratch-reusing `TaskSetGenerator`, as each
//!   campaign worker holds) — both produce bit-identical sets;
//! * **analysis**: a bound-carrying `AnalysisRequest` (every method's own
//!   fixed point and full report over one shared cache) vs the
//!   dominance-short-circuited verdict-only request the campaign cells
//!   run — identical verdicts, pinned before timing;
//! * **end to end**: the streaming engine through `figure2::run_with_jobs`,
//!   serial and parallel;
//! * **throughput**: generated-and-analyzed sets per second of the serial
//!   engine — the number the CI perf gate bounds against
//!   `ci/campaign-baseline-ns.txt`.
//!
//! Besides the human-readable report, the bench writes **`BENCH_3.json`**
//! (override the path with the `BENCH_JSON` environment variable). The
//! JSON is deliberately line-oriented — one scalar per line — so the CI
//! gate can extract fields with `grep`/`awk` instead of a JSON parser.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{analyze_uncached, AnalysisRequest, Method, ScenarioSpace};
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{run_with_jobs, SweepConfig};
use rta_experiments::set_seed;
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, group1, TaskSetGenerator};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Task sets per sweep point (the acceptance workload's `--sets 100`).
const SETS: usize = 100;
/// Timed samples per measurement; the median is reported.
const SAMPLES: usize = 5;
/// Core count of the measured panel (the Figure 2(a) platform).
const CORES: usize = 4;

/// The PR-2 serial in-process time of this exact grid on the reference
/// machine (measured before the streaming engine landed: batched full
/// reports over two-phase generation). Kept as the denominator of
/// the reported end-to-end speedup; the CLI-level numbers (~40 ms → see
/// CHANGES.md) include process startup on top.
const PR2_SERIAL_GRID_NS: f64 = 32_470_000.0;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `SAMPLES` runs of `routine` and returns the median nanoseconds.
fn measure<O>(mut routine: impl FnMut() -> O) -> f64 {
    // One untimed warm-up pass.
    black_box(routine());
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median_ns(samples)
}

fn scale(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} µs", ns / 1e3)
    }
}

fn main() {
    let bench_started = std::time::Instant::now();
    let panel = SweepConfig::paper_panel(CORES).with_sets_per_point(SETS);
    let coords: Vec<(usize, usize)> = (0..panel.utilizations.len())
        .flat_map(|p| (0..SETS).map(move |s| (p, s)))
        .collect();
    let total_sets = coords.len();

    let two_phase = || -> Vec<TaskSet> {
        coords
            .iter()
            .map(|&(p, s)| {
                let mut rng = SmallRng::seed_from_u64(set_seed(panel.seed, p, s));
                generate_task_set(&mut rng, &group1(panel.utilizations[p]))
            })
            .collect()
    };
    let streaming = || -> Vec<TaskSet> {
        let mut generator = TaskSetGenerator::new();
        coords
            .iter()
            .map(|&(p, s)| {
                let mut rng = SmallRng::seed_from_u64(set_seed(panel.seed, p, s));
                generator.generate(&mut rng, &group1(panel.utilizations[p]))
            })
            .collect()
    };

    // Sanity before timing anything: streaming generation reproduces the
    // two-phase sets, and both request shapes reproduce the uncached
    // reference's flags.
    let sets = two_phase();
    assert_eq!(sets, streaming(), "streaming generation must be exact");
    // The paper's three methods, not Method::ALL: the committed
    // BENCH_3.json analysis baselines are 3-method numbers (the 4-method
    // costs live in BENCH_5.json's sound bench).
    let verdicts = AnalysisRequest::new(CORES)
        .with_methods(Method::PAPER)
        .with_scenario_space(ScenarioSpace::PaperExact);
    let batched = verdicts.clone().with_bounds(true);
    for ts in &sets {
        let expected: Vec<bool> = Method::PAPER
            .iter()
            .map(|&m| analyze_uncached(ts, &verdicts.config_for(m)).schedulable)
            .collect();
        assert_eq!(
            verdicts.evaluate(ts).verdicts(),
            expected,
            "verdict path must be exact"
        );
        assert_eq!(
            batched.evaluate(ts).verdicts(),
            expected,
            "bound path must be exact"
        );
    }

    println!(
        "campaign bench: m = {CORES}, 13 × {SETS} grid ({total_sets} sets), \
         median of {SAMPLES} samples"
    );

    let generation_two_phase_ns = measure(&two_phase);
    let generation_streaming_ns = measure(&streaming);
    let generation_speedup = generation_two_phase_ns / generation_streaming_ns;
    println!(
        "{:<46} {:>12}",
        "generation, two-phase (fresh generator/set)",
        scale(generation_two_phase_ns)
    );
    println!(
        "{:<46} {:>12}   ({generation_speedup:.2}x)",
        "generation, streaming (reused scratch)",
        scale(generation_streaming_ns)
    );

    let analysis_batched_ns = measure(|| {
        sets.iter()
            .for_each(|ts| drop(black_box(batched.evaluate(ts))))
    });
    let analysis_verdicts_ns = measure(|| {
        sets.iter()
            .for_each(|ts| drop(black_box(verdicts.evaluate(ts))))
    });
    let analysis_speedup = analysis_batched_ns / analysis_verdicts_ns;
    println!(
        "{:<46} {:>12}",
        "analysis, batched bound-carrying request",
        scale(analysis_batched_ns)
    );
    println!(
        "{:<46} {:>12}   ({analysis_speedup:.2}x)",
        "analysis, dominance-short-circuited verdicts",
        scale(analysis_verdicts_ns)
    );

    let end_to_end_serial_ns = measure(|| run_with_jobs(&panel, Jobs::serial()));
    let end_to_end_parallel_ns = measure(|| run_with_jobs(&panel, Jobs::Auto));
    let parallel_speedup = end_to_end_serial_ns / end_to_end_parallel_ns;
    let speedup_vs_pr2 = PR2_SERIAL_GRID_NS / end_to_end_serial_ns;
    let generation_sets_per_second = total_sets as f64 / (generation_streaming_ns / 1e9);
    println!(
        "{:<46} {:>12}   ({speedup_vs_pr2:.2}x vs PR-2's {})",
        "end to end, streaming engine, serial",
        scale(end_to_end_serial_ns),
        scale(PR2_SERIAL_GRID_NS)
    );
    println!(
        "{:<46} {:>12}   ({parallel_speedup:.2}x)",
        "end to end, streaming engine, parallel",
        scale(end_to_end_parallel_ns)
    );
    println!(
        "{:<46} {:>12.0}",
        "generation throughput (sets/s)", generation_sets_per_second
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"campaign\",");
    let _ = writeln!(json, "  \"cores\": {CORES},");
    let _ = writeln!(json, "  \"sets_per_point\": {SETS},");
    let _ = writeln!(json, "  \"total_sets\": {total_sets},");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(
        json,
        "  \"generation_two_phase_ns\": {generation_two_phase_ns:.0},"
    );
    let _ = writeln!(
        json,
        "  \"generation_streaming_ns\": {generation_streaming_ns:.0},"
    );
    let _ = writeln!(json, "  \"generation_speedup\": {generation_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"generation_sets_per_second\": {generation_sets_per_second:.0},"
    );
    let _ = writeln!(json, "  \"analysis_batched_ns\": {analysis_batched_ns:.0},");
    let _ = writeln!(
        json,
        "  \"analysis_verdicts_ns\": {analysis_verdicts_ns:.0},"
    );
    let _ = writeln!(json, "  \"analysis_speedup\": {analysis_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"end_to_end_serial_ns\": {end_to_end_serial_ns:.0},"
    );
    let _ = writeln!(
        json,
        "  \"end_to_end_parallel_ns\": {end_to_end_parallel_ns:.0},"
    );
    let _ = writeln!(json, "  \"parallel_speedup\": {parallel_speedup:.3},");
    let _ = writeln!(json, "  \"pr2_serial_grid_ns\": {PR2_SERIAL_GRID_NS:.0},");
    let _ = writeln!(
        json,
        "  \"end_to_end_speedup_vs_pr2\": {speedup_vs_pr2:.3},"
    );
    let _ = writeln!(
        json,
        "{}",
        rta_bench::host_json_fields(Jobs::Auto.worker_count(), bench_started)
    );
    let _ = writeln!(json, "}}");

    // Default to the workspace root (cargo runs benches from the package
    // directory), overridable for CI artifact staging.
    let path = std::env::var("BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_3.json").to_string());
    std::fs::write(&path, &json).expect("write BENCH_3.json");
    println!("wrote {path}");
}
