//! Benchmark-only crate: the Criterion benches under `benches/` regenerate
//! every table and figure of the paper (indexed in `rta-experiments`' crate
//! docs) and the ablations of the design choices. The library is the
//! harness the `BENCH_*.json` benches share: the timers ([`median_ns`],
//! [`min_ns`], [`min_ns_pair`]), the report's unit formatting ([`scale`])
//! and the [`host_json_fields`] provenance block.
//!
//! Run with `cargo bench -p rta-bench`; individual suites:
//!
//! ```text
//! cargo bench -p rta-bench --bench tables      # Tables I–III
//! cargo bench -p rta-bench --bench figure2     # Figure 2 panels + timing
//! cargo bench -p rta-bench --bench ablations   # solver / algorithm ablations
//! cargo bench -p rta-bench --bench substrates  # microbenches
//! ```

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

fn time_ns<O>(routine: &mut impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    black_box(routine());
    start.elapsed().as_secs_f64() * 1e9
}

/// Times `samples` runs of `routine`, after one untimed warm-up pass, and
/// returns the median nanoseconds.
pub fn median_ns<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let mut times: Vec<f64> = (0..samples).map(|_| time_ns(&mut routine)).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times `samples` runs of `routine`, after one untimed warm-up pass, and
/// returns the minimum nanoseconds (the least-perturbed sample — noise on
/// a busy box only ever adds time).
pub fn min_ns<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    (0..samples)
        .map(|_| time_ns(&mut routine))
        .fold(f64::INFINITY, f64::min)
}

/// Times two routines with pairwise-interleaved samples, so clock drift
/// and scheduler noise hit both alike, and returns their minimum
/// nanoseconds `(a, b)`.
pub fn min_ns_pair<O, P>(
    samples: usize,
    mut a: impl FnMut() -> O,
    mut b: impl FnMut() -> P,
) -> (f64, f64) {
    black_box(a());
    black_box(b());
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        best.0 = best.0.min(time_ns(&mut a));
        best.1 = best.1.min(time_ns(&mut b));
    }
    best
}

/// Nanoseconds as a human-readable duration (s, ms or µs) for the bench
/// reports.
pub fn scale(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} µs", ns / 1e3)
    }
}

/// The host-provenance fields every `BENCH_*.json` report carries, so a
/// number in a CI artifact can be read against the machine that produced
/// it: available parallelism, the worker count the bench actually used,
/// and wall vs CPU time of the whole bench process (CPU ≫ wall means the
/// figures include parallel contention; `cpu_ms` is `null` where the
/// platform offers no process CPU clock).
///
/// Returns the fields as indented `"key": value` lines without braces or
/// a trailing comma, ready to splice into a flat BENCH JSON object.
pub fn host_json_fields(jobs: usize, process_started: Instant) -> String {
    let host = rta_obs::host_info();
    format!(
        "  \"host_parallelism\": {},\n  \"jobs\": {},\n  \
         \"wall_ms\": {:.0},\n  \"cpu_ms\": {}",
        host.available_parallelism,
        jobs,
        process_started.elapsed().as_secs_f64() * 1000.0,
        host.cpu_time_ms
            .map_or_else(|| "null".into(), |ms| ms.to_string()),
    )
}
