//! Cached vs uncached analysis, and batched vs per-method sweep points.
//!
//! The perf-tracking bench behind the `TaskSetCache` layer. It measures two
//! 4-core LP-ILP sweep points of the Figure 2 family —
//!
//! * the **utilization point**: `U = 3.5` of the Figure 2(a) panel
//!   (group-1 sets, ~5 tasks each), and
//! * the **task-count point**: `TASK_COUNT`-task sets at `U = m/2` (the
//!   `repro fig2c-tasks` variant of Figure 2(c)), where the `O(n²)` per-task µ
//!   recomputation the cache eliminates dominates —
//!
//! each in four shapes: a single LP-ILP analysis uncached
//! (`analyze_uncached`, the pre-cache code path) vs cached (`analyze`), and
//! the full 3-method sweep point per-method-uncached vs batched (one
//! bound-carrying `AnalysisRequest` sharing one cache across the methods).
//! A fifth pair runs the utilization point through the campaign driver
//! serially and in parallel, so the JSON tracks both axes of the "as fast
//! as the hardware allows" goal.
//!
//! Besides the human-readable report, the bench writes **`BENCH_2.json`**
//! (override the path with the `BENCH_JSON` environment variable) with the
//! median nanoseconds per sweep point of every shape, so CI can archive the
//! perf trajectory run over run.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{
    analyze, analyze_uncached, AnalysisConfig, AnalysisRequest, Method, ScenarioSpace,
};
use rta_bench::{median_ns, scale};
use rta_experiments::campaign::{generate_on_worker, sweep_into, SweepSpec};
use rta_experiments::exec::Jobs;
use rta_experiments::set_seed;
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, generate_task_set_with_count, group1};
use std::hint::black_box;

/// Task sets per sweep point (reduced from the paper's 300 to keep the
/// bench seconds-scale; the per-set work is what the cache accelerates).
const SETS_PER_POINT: usize = 8;
/// Timed samples per measurement; the median is reported.
const SAMPLES: usize = 7;
/// Core count of the measured panel (the Figure 2(a) platform).
const CORES: usize = 4;
/// Tasks per set at the task-count sweep point.
const TASK_COUNT: usize = 16;

/// The utilization sweep point: `U = 3.5` is point 10 of the 13-point
/// Figure 2(a) panel, generated with the production seed derivation.
fn utilization_point_sets() -> Vec<TaskSet> {
    (0..SETS_PER_POINT)
        .map(|s| {
            let mut rng = SmallRng::seed_from_u64(set_seed(0xDA7E_2016, 10, s));
            generate_task_set(&mut rng, &group1(3.5))
        })
        .collect()
}

/// The task-count sweep point: `TASK_COUNT` tasks at `U = m/2`
/// (the x-axis of the task-count variant, here on the 4-core platform).
fn task_count_point_sets() -> Vec<TaskSet> {
    (0..SETS_PER_POINT)
        .map(|s| {
            let mut rng = SmallRng::seed_from_u64(set_seed(0xDA7E_2016, 10, s));
            generate_task_set_with_count(&mut rng, &group1(CORES as f64 / 2.0), TASK_COUNT)
        })
        .collect()
}

fn sweep_request() -> AnalysisRequest {
    // Deliberately the paper's three methods, not Method::ALL: the
    // committed BENCH_2.json baselines measure the 3-method pipeline, and
    // adding LP-sound here would shift them without any perf change.
    AnalysisRequest::new(CORES)
        .with_methods(Method::PAPER)
        .with_scenario_space(ScenarioSpace::PaperExact)
        .with_bounds(true)
}

/// The per-point measurements, in nanoseconds per sweep point.
struct PointResult {
    uncached_lp_ilp_ns: f64,
    cached_lp_ilp_ns: f64,
    per_method_ns: f64,
    batched_ns: f64,
    /// FP-ideal has no blocking work at all, so this is the fixed-point
    /// iteration (with its hoisted per-task invariants) nearly alone — the
    /// floor the blocking-side caching is chasing, and the micro-bench
    /// guarding the `fixed_point` hoists against regressions.
    fp_ideal_ns: f64,
}

impl PointResult {
    fn lp_ilp_speedup(&self) -> f64 {
        self.uncached_lp_ilp_ns / self.cached_lp_ilp_ns
    }

    fn batched_speedup(&self) -> f64 {
        self.per_method_ns / self.batched_ns
    }
}

fn measure_point(label: &str, sets: &[TaskSet], request: &AnalysisRequest) -> PointResult {
    let configs: Vec<AnalysisConfig> = request
        .methods
        .iter()
        .map(|&m| request.config_for(m))
        .collect();
    let lp_ilp = &configs[1];
    assert_eq!(lp_ilp.method, Method::LpIlp);

    // Sanity: the cached paths must reproduce the uncached reports exactly
    // before we bother timing them.
    for ts in sets {
        for (config, answer) in configs.iter().zip(request.evaluate(ts).outcomes()) {
            let reference = analyze_uncached(ts, config);
            assert_eq!(analyze(ts, config), reference, "cache must be exact");
            let bounds: Vec<_> = reference.tasks.iter().map(|t| t.response_bound).collect();
            assert_eq!(
                answer.schedulable, reference.schedulable,
                "cache must be exact"
            );
            assert_eq!(answer.bounds.as_ref(), Some(&bounds), "cache must be exact");
        }
    }

    let result = PointResult {
        uncached_lp_ilp_ns: median_ns(SAMPLES, || {
            sets.iter()
                .for_each(|ts| drop(black_box(analyze_uncached(ts, lp_ilp))))
        }),
        cached_lp_ilp_ns: median_ns(SAMPLES, || {
            sets.iter()
                .for_each(|ts| drop(black_box(analyze(ts, lp_ilp))))
        }),
        per_method_ns: median_ns(SAMPLES, || {
            sets.iter().for_each(|ts| {
                configs
                    .iter()
                    .for_each(|c| drop(black_box(analyze_uncached(ts, c))))
            })
        }),
        batched_ns: median_ns(SAMPLES, || {
            sets.iter()
                .for_each(|ts| drop(black_box(request.evaluate(ts))))
        }),
        fp_ideal_ns: median_ns(SAMPLES, || {
            sets.iter()
                .for_each(|ts| drop(black_box(analyze(ts, &configs[0]))))
        }),
    };

    println!("-- {label} --");
    println!(
        "{:<46} {:>12}",
        "LP-ILP analyze, uncached (per point)",
        scale(result.uncached_lp_ilp_ns)
    );
    println!(
        "{:<46} {:>12}   ({:.2}x)",
        "LP-ILP analyze, cached (per point)",
        scale(result.cached_lp_ilp_ns),
        result.lp_ilp_speedup()
    );
    println!(
        "{:<46} {:>12}",
        "3-method point, per-method uncached",
        scale(result.per_method_ns)
    );
    println!(
        "{:<46} {:>12}   ({:.2}x)",
        "3-method point, batched request",
        scale(result.batched_ns),
        result.batched_speedup()
    );
    println!(
        "{:<46} {:>12}",
        "FP-ideal (fixed-point-only floor)",
        scale(result.fp_ideal_ns)
    );
    result
}

fn json_point(key: &str, point: &PointResult) -> String {
    format!(
        "  \"{key}\": {{\n    \"uncached_lp_ilp_ns\": {:.0},\n    \
         \"cached_lp_ilp_ns\": {:.0},\n    \"lp_ilp_speedup\": {:.3},\n    \
         \"per_method_sweep_point_ns\": {:.0},\n    \"batched_sweep_point_ns\": {:.0},\n    \
         \"batched_speedup\": {:.3},\n    \"fp_ideal_sweep_point_ns\": {:.0}\n  }},\n",
        point.uncached_lp_ilp_ns,
        point.cached_lp_ilp_ns,
        point.lp_ilp_speedup(),
        point.per_method_ns,
        point.batched_ns,
        point.batched_speedup(),
        point.fp_ideal_ns
    )
}

fn main() {
    let bench_started = std::time::Instant::now();
    let request = sweep_request();
    println!("cache bench: m = {CORES}, {SETS_PER_POINT} sets/point, median of {SAMPLES} samples");
    let utilization = measure_point(
        "utilization point (U = 3.5, group 1)",
        &utilization_point_sets(),
        &request,
    );
    let task_count = measure_point(
        &format!("task-count point (n = {TASK_COUNT}, U = m/2)"),
        &task_count_point_sets(),
        &request,
    );

    // The same utilization point through the campaign driver, serial vs
    // parallel (generation included; bit-identical outputs by construction).
    let point = SweepSpec {
        cores: CORES,
        xs: &[3.5],
        sets_per_point: SETS_PER_POINT,
        seed: 0xDA7E_2016,
        space: ScenarioSpace::PaperExact,
        make_set: |seed, u| generate_on_worker(seed, &group1(u)),
    };
    let run = |jobs| {
        sweep_into(&point, jobs, &mut |p| {
            black_box(p);
        })
    };
    let serial_point_ns = median_ns(SAMPLES, || run(Jobs::serial()));
    let parallel_point_ns = median_ns(SAMPLES, || run(Jobs::Auto));
    let parallel_speedup = serial_point_ns / parallel_point_ns;
    println!("-- campaign driver, same utilization point --");
    println!(
        "{:<46} {:>12}",
        "driver sweep point, serial",
        scale(serial_point_ns)
    );
    println!(
        "{:<46} {:>12}   ({parallel_speedup:.2}x)",
        "driver sweep point, parallel",
        scale(parallel_point_ns)
    );

    let body = format!(
        "  \"cores\": {CORES},\n  \"sets_per_point\": {SETS_PER_POINT},\n  \
         \"samples\": {SAMPLES},\n  \"task_count\": {TASK_COUNT},\n{}{}  \
         \"serial_sweep_point_ns\": {serial_point_ns:.0},\n  \
         \"parallel_sweep_point_ns\": {parallel_point_ns:.0},\n  \
         \"parallel_speedup\": {parallel_speedup:.3},\n",
        json_point("utilization_point", &utilization),
        json_point("task_count_point", &task_count),
    );
    rta_bench::write_report(
        "cache",
        "BENCH_2.json",
        &body,
        Jobs::Auto.worker_count(),
        bench_started,
    );
}
