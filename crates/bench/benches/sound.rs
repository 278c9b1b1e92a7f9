//! The PR-5 perf bench: cost of the fourth (LP-sound) method and of the
//! full validation cell, plus the tracked point for the per-thread
//! combinatorial scratch (`CliqueScratch`/`RhoScratch` now live in
//! thread-locals and are reused across every task set a worker analyzes,
//! instead of being reallocated per `TaskSetCache`).
//!
//! Measured, each as the median of [`SAMPLES`] runs over a Figure 2(a)
//! grid population:
//!
//! * **verdicts, paper 3 methods** vs **+ LP-sound** vs **all 6 methods**
//!   — the marginal cost of adding LP-sound to every sweep cell (its
//!   fixed point runs no combinatorial blocking machinery, so the
//!   overhead should be small), and on top of that the marginal cost of
//!   the two published fully-preemptive competitor bounds (Long-paths,
//!   Gen-sporadic) the comparison panel evaluates per cell;
//! * **LP-ILP analysis, warm per-thread scratch** — the blocking-heavy
//!   workload whose inner allocations the thread-local scratch removes;
//!   the absolute median is the point future PRs track;
//! * **validation cell** — `validate_set` under the eager policy only vs
//!   all three policies (eager + lazy + fully preemptive), the cost of
//!   exercising both preemption semantics per generated set.
//!
//! Besides the human-readable report, the bench writes **`BENCH_5.json`**
//! (override the path with the `BENCH_JSON` environment variable),
//! line-oriented like its predecessors so CI can `grep` fields.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{
    analyze, analyze_uncached, AnalysisConfig, AnalysisRequest, Method, ScenarioSpace,
};
use rta_bench::{median_ns, scale};
use rta_experiments::set_seed;
use rta_experiments::validate::{validate_set, PolicyChoice, ReleaseChoice};
use rta_model::TaskSet;
use rta_taskgen::{group1, TaskSetGenerator};
use std::fmt::Write as _;
use std::hint::black_box;

/// Task sets per sweep point of the measured population.
const SETS: usize = 50;
/// Timed samples per measurement; the median is reported.
const SAMPLES: usize = 5;
/// Core count of the measured panel (the Figure 2(a) platform).
const CORES: usize = 4;
/// Sets fed to the (simulation-heavy) validation-cell measurement.
const VALIDATE_SETS: usize = 40;

fn verdicts(methods: &[Method]) -> AnalysisRequest {
    AnalysisRequest::new(CORES)
        .with_methods(methods.iter().copied())
        .with_scenario_space(ScenarioSpace::PaperExact)
}

fn main() {
    let bench_started = std::time::Instant::now();
    // The Figure 2(a) utilization grid population, generated once.
    let utilizations: Vec<f64> = (0..13).map(|i| 1.0 + 3.0 * f64::from(i) / 12.0).collect();
    let mut generator = TaskSetGenerator::new();
    let sets: Vec<TaskSet> = utilizations
        .iter()
        .enumerate()
        .flat_map(|(p, &u)| {
            let generator = &mut generator;
            (0..SETS)
                .map(move |s| {
                    let mut rng = SmallRng::seed_from_u64(set_seed(0xDA7E_2016, p, s));
                    generator.generate(&mut rng, &group1(u))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let total_sets = sets.len();

    let paper = verdicts(&Method::PAPER);
    let sound4 = verdicts(&[
        Method::FpIdeal,
        Method::LpIlp,
        Method::LpMax,
        Method::LpSound,
    ]);
    let all6 = verdicts(&Method::ALL);

    // Sanity before timing: the 6-method verdict path agrees with the
    // uncached reference on every set (the dominance chain with LP-sound
    // and the competitor methods included).
    for ts in sets.iter().take(100) {
        let expected: Vec<bool> = Method::ALL
            .iter()
            .map(|&m| analyze_uncached(ts, &all6.config_for(m)).schedulable)
            .collect();
        assert_eq!(all6.evaluate(ts).verdicts(), expected, "verdict path exact");
    }

    println!(
        "sound bench: m = {CORES}, 13 × {SETS} grid ({total_sets} sets), \
         median of {SAMPLES} samples"
    );

    let verdicts_paper3_ns = median_ns(SAMPLES, || {
        sets.iter()
            .for_each(|ts| drop(black_box(paper.evaluate(ts))))
    });
    let verdicts_sound4_ns = median_ns(SAMPLES, || {
        sets.iter()
            .for_each(|ts| drop(black_box(sound4.evaluate(ts))))
    });
    let verdicts_all6_ns = median_ns(SAMPLES, || {
        sets.iter()
            .for_each(|ts| drop(black_box(all6.evaluate(ts))))
    });
    let lp_sound_overhead_pct = 100.0 * (verdicts_sound4_ns / verdicts_paper3_ns - 1.0);
    let competitors_overhead_pct = 100.0 * (verdicts_all6_ns / verdicts_sound4_ns - 1.0);
    println!(
        "{:<52} {:>12}",
        "verdicts, paper 3 methods",
        scale(verdicts_paper3_ns)
    );
    println!(
        "{:<52} {:>12}   (+{lp_sound_overhead_pct:.1}%)",
        "verdicts, 4 methods (LP-sound added)",
        scale(verdicts_sound4_ns)
    );
    println!(
        "{:<52} {:>12}   (+{competitors_overhead_pct:.1}%)",
        "verdicts, all 6 methods (competitors added)",
        scale(verdicts_all6_ns)
    );

    // The blocking-heavy workload the per-thread scratch serves: every
    // set's LP-ILP analysis on this (warm) thread. The absolute median is
    // the tracked point; before PR 5 each of these sets paid fresh
    // CliqueScratch/RhoScratch allocations inside its own cache.
    let ilp = AnalysisConfig::new(CORES, Method::LpIlp);
    let lp_ilp_warm_scratch_ns = median_ns(SAMPLES, || {
        sets.iter()
            .for_each(|ts| drop(black_box(analyze(ts, &ilp))))
    });
    println!(
        "{:<52} {:>12}",
        "LP-ILP analysis, warm per-thread scratch",
        scale(lp_ilp_warm_scratch_ns)
    );

    // The validation cell: one policy vs all three per set.
    let validate_sets = &sets[..VALIDATE_SETS.min(total_sets)];
    let validate_eager_ns = median_ns(SAMPLES, || {
        validate_sets.iter().for_each(|ts| {
            black_box(validate_set(
                ts,
                CORES,
                3,
                PolicyChoice::Eager,
                ReleaseChoice::Sync,
            ));
        })
    });
    let validate_all_policies_ns = median_ns(SAMPLES, || {
        validate_sets.iter().for_each(|ts| {
            black_box(validate_set(
                ts,
                CORES,
                3,
                PolicyChoice::Both,
                ReleaseChoice::Sync,
            ));
        })
    });
    let policies_overhead = validate_all_policies_ns / validate_eager_ns;
    println!(
        "{:<52} {:>12}",
        "validation cell, eager policy only",
        scale(validate_eager_ns)
    );
    println!(
        "{:<52} {:>12}   ({policies_overhead:.2}x)",
        "validation cell, eager + lazy + fully preemptive",
        scale(validate_all_policies_ns)
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sound\",");
    let _ = writeln!(json, "  \"cores\": {CORES},");
    let _ = writeln!(json, "  \"sets_per_point\": {SETS},");
    let _ = writeln!(json, "  \"total_sets\": {total_sets},");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(json, "  \"verdicts_paper3_ns\": {verdicts_paper3_ns:.0},");
    let _ = writeln!(json, "  \"verdicts_sound4_ns\": {verdicts_sound4_ns:.0},");
    let _ = writeln!(json, "  \"verdicts_all6_ns\": {verdicts_all6_ns:.0},");
    let _ = writeln!(
        json,
        "  \"lp_sound_overhead_pct\": {lp_sound_overhead_pct:.2},"
    );
    let _ = writeln!(
        json,
        "  \"competitors_overhead_pct\": {competitors_overhead_pct:.2},"
    );
    let _ = writeln!(
        json,
        "  \"lp_ilp_warm_scratch_ns\": {lp_ilp_warm_scratch_ns:.0},"
    );
    let _ = writeln!(json, "  \"validate_sets\": {},", validate_sets.len());
    let _ = writeln!(json, "  \"validate_eager_ns\": {validate_eager_ns:.0},");
    let _ = writeln!(
        json,
        "  \"validate_all_policies_ns\": {validate_all_policies_ns:.0},"
    );
    let _ = writeln!(
        json,
        "  \"validate_policies_overhead\": {policies_overhead:.3},"
    );
    let _ = writeln!(json, "{}", rta_bench::host_json_fields(1, bench_started));
    let _ = writeln!(json, "}}");

    let path = std::env::var("BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json").to_string());
    std::fs::write(&path, &json).expect("write BENCH_5.json");
    println!("wrote {path}");
}
