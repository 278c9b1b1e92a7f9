//! Event-driven simulator core vs the frozen step loop.
//!
//! The perf-tracking bench behind the `rta-sim` event-queue redesign. It
//! times one validation-style cell — `SETS_PER_CELL` group-1 sets at
//! `U = m/2` on the 4-core platform, eager limited preemption, WCET
//! execution, synchronous release — through both engines:
//!
//! * the **frozen step loop** (`simulate_step_loop`, kept verbatim as the
//!   equivalence reference), which allocates per release and re-derives
//!   DAG structure from the model on every scheduling decision, and
//! * the **event core** behind [`SimRequest`], which precomputes the
//!   topology once and recycles job slots through the slab.
//!
//! Both are run at the campaign's 1× horizon (three times the longest
//! period) and at 10× that horizon, where steady-state allocation churn
//! dominates the old engine and the slab-recycling core stays flat: the
//! 10× speedup is the number the CI gate asserts stays at least 2.
//! A final measurement times the full `validate_set` cell (all methods,
//! all three policies) at the 10× horizon, the wall clock a longer
//! validation campaign actually feels.
//!
//! Besides the human-readable report, the bench writes **`BENCH_8.json`**
//! (override the path with the `BENCH_JSON` environment variable) so CI
//! can archive the perf trajectory run over run.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_bench::{min_ns, min_ns_pair, scale};
use rta_experiments::set_seed;
use rta_experiments::validate::{validate_set, PolicyChoice, ReleaseChoice};
use rta_model::{TaskSet, Time};
use rta_sim::step_loop::simulate_step_loop;
use rta_sim::SimRequest;
use rta_taskgen::{generate_task_set, group1};
use std::fmt::Write as _;
use std::hint::black_box;

/// Task sets per measured cell (the validation campaign's per-cell work
/// scaled to keep the bench seconds-scale).
const SETS_PER_CELL: usize = 8;
/// Timed samples per measurement; the minimum is reported. Samples of the
/// two engines are interleaved pairwise, so clock-frequency drift and
/// scheduler noise on a shared box hit both engines alike instead of
/// biasing whichever ran later.
const SAMPLES: usize = 15;
/// Core count of the measured cell.
const CORES: usize = 4;
/// The campaign's default horizon: three times the longest period.
const HORIZON_FACTOR: Time = 3;
/// The stretched horizon where per-unit stepping dominates.
const STRETCH: Time = 10;

/// The measured cell: group-1 sets at `U = m/2`, generated with the
/// production seed derivation so the cell matches a campaign cell.
fn cell_sets() -> Vec<(TaskSet, Time)> {
    (0..SETS_PER_CELL)
        .map(|s| {
            let mut rng = SmallRng::seed_from_u64(set_seed(0xDA7E_2016, 10, s));
            let ts = generate_task_set(&mut rng, &group1(CORES as f64 / 2.0));
            let horizon = HORIZON_FACTOR * ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1);
            (ts, horizon)
        })
        .collect()
}

/// Times both engines over the whole cell at `stretch ×` the campaign
/// horizon; returns `(step_loop_ns, event_core_ns)`.
fn measure_cell(sets: &[(TaskSet, Time)], stretch: Time) -> (f64, f64) {
    min_ns_pair(
        SAMPLES,
        || {
            for (ts, horizon) in sets {
                let request = SimRequest::new(CORES, *horizon * stretch);
                drop(black_box(simulate_step_loop(ts, &request)));
            }
        },
        || {
            for (ts, horizon) in sets {
                drop(black_box(
                    SimRequest::new(CORES, *horizon * stretch).evaluate(ts),
                ));
            }
        },
    )
}

fn main() {
    let bench_started = std::time::Instant::now();
    let sets = cell_sets();
    println!(
        "sim bench: m = {CORES}, {SETS_PER_CELL} sets/cell, best of {SAMPLES} interleaved \
         samples, horizon = {HORIZON_FACTOR}x max period (stretched {STRETCH}x)"
    );

    // Sanity before timing: the engines must agree on every set — the
    // speedup is only worth reporting for a bit-identical result.
    for (ts, horizon) in &sets {
        for stretch in [1, STRETCH] {
            let request = SimRequest::new(CORES, *horizon * stretch);
            let reference = simulate_step_loop(ts, &request);
            let redesigned = request.evaluate(ts).into_result();
            assert_eq!(reference, redesigned, "engines diverged before timing");
        }
    }

    let (step_1x, event_1x) = measure_cell(&sets, 1);
    let (step_10x, event_10x) = measure_cell(&sets, STRETCH);
    let speedup_1x = step_1x / event_1x;
    let speedup_10x = step_10x / event_10x;
    println!("-- simulation cell, both engines --");
    println!("{:<46} {:>12}", "step loop, 1x horizon", scale(step_1x));
    println!(
        "{:<46} {:>12}   ({speedup_1x:.2}x)",
        "event core, 1x horizon",
        scale(event_1x)
    );
    println!("{:<46} {:>12}", "step loop, 10x horizon", scale(step_10x));
    println!(
        "{:<46} {:>12}   ({speedup_10x:.2}x)",
        "event core, 10x horizon",
        scale(event_10x)
    );

    // The full validation cell (all methods, both LP policies plus the
    // FP leg, analysis included) at the stretched horizon.
    let validate_10x = min_ns(SAMPLES, || {
        for (ts, _) in &sets {
            black_box(validate_set(
                ts,
                CORES,
                HORIZON_FACTOR * STRETCH,
                PolicyChoice::Both,
                ReleaseChoice::Sync,
            ));
        }
    });
    println!(
        "{:<46} {:>12}",
        "validate_set cell, 10x horizon",
        scale(validate_10x)
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"sim\",\n  \"cores\": {CORES},\n  \
         \"sets_per_cell\": {SETS_PER_CELL},\n  \"samples\": {SAMPLES},\n  \
         \"horizon_factor\": {HORIZON_FACTOR},\n  \"stretch\": {STRETCH},\n  \
         \"step_loop_1x_ns\": {step_1x:.0},\n  \"event_core_1x_ns\": {event_1x:.0},\n  \
         \"speedup_1x\": {speedup_1x:.3},\n  \
         \"step_loop_10x_ns\": {step_10x:.0},\n  \"event_core_10x_ns\": {event_10x:.0},\n  \
         \"speedup_10x\": {speedup_10x:.3},\n  \
         \"validate_cell_10x_ns\": {validate_10x:.0},\n{}\n}}\n",
        rta_bench::host_json_fields(1, bench_started)
    );
    // Default to the workspace root (cargo runs benches from the package
    // directory), overridable for CI artifact staging.
    let path = std::env::var("BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json").to_string());
    std::fs::write(&path, &json).expect("write BENCH_8.json");
    println!("wrote {path}");
}
