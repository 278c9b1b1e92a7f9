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
//! * **end to end**: the streaming engine through `PanelKind::run_into`
//!   on the `fig2a` panel, serial and parallel;
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
use rta_bench::{median_ns, scale};
use rta_experiments::campaign::{utilization_grid, PanelKind};
use rta_experiments::exec::Jobs;
use rta_experiments::set_seed;
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, group1, TaskSetGenerator};
use std::hint::black_box;

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

fn main() {
    let bench_started = std::time::Instant::now();
    // The `repro fig2a` population: its grid and seed.
    let utilizations = utilization_grid(CORES);
    let seed = 0xDA7E_2016;
    let coords: Vec<(usize, usize)> = (0..utilizations.len())
        .flat_map(|p| (0..SETS).map(move |s| (p, s)))
        .collect();
    let total_sets = coords.len();

    let two_phase = || -> Vec<TaskSet> {
        coords
            .iter()
            .map(|&(p, s)| {
                let mut rng = SmallRng::seed_from_u64(set_seed(seed, p, s));
                generate_task_set(&mut rng, &group1(utilizations[p]))
            })
            .collect()
    };
    let streaming = || -> Vec<TaskSet> {
        let mut generator = TaskSetGenerator::new();
        coords
            .iter()
            .map(|&(p, s)| {
                let mut rng = SmallRng::seed_from_u64(set_seed(seed, p, s));
                generator.generate(&mut rng, &group1(utilizations[p]))
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

    let generation_two_phase_ns = median_ns(SAMPLES, &two_phase);
    let generation_streaming_ns = median_ns(SAMPLES, &streaming);
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

    let analysis_batched_ns = median_ns(SAMPLES, || {
        sets.iter()
            .for_each(|ts| drop(black_box(batched.evaluate(ts))))
    });
    let analysis_verdicts_ns = median_ns(SAMPLES, || {
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

    let run = |jobs| {
        PanelKind::Figure2(CORES).run_into(SETS, jobs, &mut |p| {
            black_box(p);
        })
    };
    let end_to_end_serial_ns = median_ns(SAMPLES, || run(Jobs::serial()));
    let end_to_end_parallel_ns = median_ns(SAMPLES, || run(Jobs::Auto));
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

    let body = format!(
        "  \"cores\": {CORES},\n  \"sets_per_point\": {SETS},\n  \
         \"total_sets\": {total_sets},\n  \"samples\": {SAMPLES},\n  \
         \"generation_two_phase_ns\": {generation_two_phase_ns:.0},\n  \
         \"generation_streaming_ns\": {generation_streaming_ns:.0},\n  \
         \"generation_speedup\": {generation_speedup:.3},\n  \
         \"generation_sets_per_second\": {generation_sets_per_second:.0},\n  \
         \"analysis_batched_ns\": {analysis_batched_ns:.0},\n  \
         \"analysis_verdicts_ns\": {analysis_verdicts_ns:.0},\n  \
         \"analysis_speedup\": {analysis_speedup:.3},\n  \
         \"end_to_end_serial_ns\": {end_to_end_serial_ns:.0},\n  \
         \"end_to_end_parallel_ns\": {end_to_end_parallel_ns:.0},\n  \
         \"parallel_speedup\": {parallel_speedup:.3},\n  \
         \"pr2_serial_grid_ns\": {PR2_SERIAL_GRID_NS:.0},\n  \
         \"end_to_end_speedup_vs_pr2\": {speedup_vs_pr2:.3},\n"
    );
    rta_bench::write_report(
        "campaign",
        "BENCH_3.json",
        &body,
        Jobs::Auto.worker_count(),
        bench_started,
    );
}
