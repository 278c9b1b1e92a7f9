//! Benchmark-only crate: the benches under `benches/` regenerate every
//! table and figure of the paper (indexed in `rta-experiments`' crate
//! docs) and the ablations of the design choices. The library is the one
//! harness they share: the timers ([`median_ns`], [`min_ns`],
//! [`min_ns_pair`]), the labelled per-call measurement ([`measure`]), the
//! report's unit formatting ([`scale`]) and the one `BENCH_*.json` writer
//! ([`write_report`]).
//!
//! Run with `cargo bench -p rta-bench`; individual suites:
//!
//! ```text
//! cargo bench -p rta-bench --bench figure2     # Figure 2 panels, driver speedup, timing
//! cargo bench -p rta-bench --bench ablations   # Tables I–III, solver / algorithm ablations
//! cargo bench -p rta-bench --bench substrates  # microbenches
//! ```

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

/// Timed samples behind every [`measure`] median.
const SAMPLES: usize = 10;

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

/// Prints `label` with the median time of one call of `routine`: each of
/// the samples times `calls` back-to-back calls, so a routine far shorter
/// than the clock's resolution still gets a stable per-call figure.
pub fn measure<O>(label: &str, calls: usize, mut routine: impl FnMut() -> O) {
    let ns = median_ns(SAMPLES, || {
        for _ in 0..calls {
            black_box(routine());
        }
    });
    println!("{label:<50} {:>12}", scale(ns / calls as f64));
}

/// Nanoseconds as a human-readable duration (s, ms, µs or ns) for the
/// bench reports.
pub fn scale(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Writes one flat `BENCH_*.json` report and prints `wrote <path>`.
///
/// The report opens with `"bench": name`, carries the bench's own `body`
/// (indented `"key": value,` lines, one key per line, so CI reads a field
/// with `grep '"key"' | tr -dc '0-9'`) and ends with the
/// [`rta_obs::host_json_fields`] block for `jobs` workers and the wall
/// time since `started`. It goes to `$BENCH_JSON` when that is set, else
/// to `file` at the workspace root (cargo runs benches from the package
/// directory).
pub fn write_report(name: &str, file: &str, body: &str, jobs: usize, started: Instant) {
    let host = rta_obs::host_json_fields(jobs, started.elapsed().as_secs_f64() * 1000.0);
    let path = std::env::var("BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, render(name, body, &host))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The report text. A line with two keys is refused: CI's `tr -dc` would
/// run their digits together into one number.
fn render(name: &str, body: &str, host: &str) -> String {
    let report = format!("{{\n  \"bench\": \"{name}\",\n{body}{host}\n}}\n");
    let two_keys = report.lines().find(|l| keys(l) > 1);
    assert!(
        two_keys.is_none(),
        "two keys on one BENCH line: {two_keys:?}"
    );
    report
}

/// How many `"key":` entries `line` carries.
fn keys(line: &str) -> usize {
    line.matches("\":").count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> String {
        let body = "  \"cores\": 4,\n  \"point\": {\n    \"a_ns\": 1,\n    \"b_ns\": 2\n  },\n";
        render("t", body, &rta_obs::host_json_fields(2, 1234.4))
    }

    #[test]
    fn bench_is_the_first_key() {
        let report = report();
        let first = report.lines().find(|l| keys(l) > 0).expect("a key");
        assert_eq!(first, "  \"bench\": \"t\",");
        assert!(
            report.starts_with("{\n") && report.ends_with("\n}\n"),
            "{report}"
        );
    }

    #[test]
    fn host_block_comes_last() {
        let report = report();
        let keyed: Vec<&str> = report.lines().filter(|l| keys(l) > 0).collect();
        let tail: Vec<&str> = keyed[keyed.len() - 4..]
            .iter()
            .map(|l| l.split('"').nth(1).expect("quoted key"))
            .collect();
        assert_eq!(tail, ["host_parallelism", "jobs", "wall_ms", "cpu_ms"]);
        assert!(report.contains("\n  \"jobs\": 2,\n  \"wall_ms\": 1234,\n"));
    }

    #[test]
    fn no_line_carries_two_keys() {
        for line in report().lines() {
            assert!(keys(line) <= 1, "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "two keys on one BENCH line")]
    fn a_body_line_with_two_keys_is_refused() {
        render("t", "  \"a_ns\": 1, \"b_ns\": 2,\n", "  \"jobs\": 1");
    }

    #[test]
    fn scale_picks_the_unit() {
        assert_eq!(scale(96.0), "96.0 ns");
        assert_eq!(scale(1_500.0), "1.500 µs");
        assert_eq!(scale(2.5e6), "2.500 ms");
        assert_eq!(scale(3e9), "3.000 s");
    }
}
