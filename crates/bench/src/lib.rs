//! Benchmark-only crate: the Criterion benches under `benches/` regenerate
//! every table and figure of the paper (indexed in `rta-experiments`' crate
//! docs) and the ablations of the design choices. The only library code is the
//! shared [`host_json_fields`] provenance block of the `BENCH_*.json`
//! reports.
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

use std::time::Instant;

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
