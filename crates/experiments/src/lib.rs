//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment of Serrano et al. (DATE 2016), Section VI, has a library
//! entry point here (so the Criterion benches can drive reduced versions)
//! and a `repro` CLI subcommand (see the `repro` binary):
//!
//! | Paper artifact | Function | CLI |
//! |---|---|---|
//! | Table I (`µ_i[c]` of Figure 1)        | [`tables::table1`]   | `repro table1` |
//! | Table II (scenarios `e_4`)            | [`tables::table2`]   | `repro table2` |
//! | Table III (`ρ_k[s_l]`, `Δ⁴`, `Δ³`)    | [`tables::table3`]   | `repro table3` |
//! | Figure 2(a) (`m = 4` sweep)           | [`figure2::run_with_jobs`] | `repro fig2a` |
//! | Figure 2(b) (`m = 8` sweep)           | [`figure2::run_with_jobs`] | `repro fig2b` |
//! | Figure 2(c) (`m = 16` sweep)          | [`figure2::run_with_jobs`] | `repro fig2c` |
//! | Figure 2(c) task-count variant        | [`figure2::run_task_count_with_jobs`] | `repro fig2c-tasks` |
//! | Group-2 comparison (prose)            | [`figure2::run_with_jobs`] with [`rta_taskgen::group2`] | `repro group2` |
//! | Runtime paragraph (`0.45 s / 4.75 s / 43 min`) | [`timing::run_with_jobs`] | `repro timing` |
//!
//! Beyond the paper, the [`campaign`] engine opens sweep panels the
//! original evaluation did not chart — constrained deadlines (`D = f·T`),
//! chain-heavy task mixtures, and the `m ∈ {2, 8}` platforms — via
//! `repro campaign`.
//!
//! The crate also carries the online surface of the ROADMAP's north star:
//! [`serve`] (`repro serve`) answers admission-control verdicts over a
//! line-delimited JSON socket, backed by the unified
//! [`rta_analysis::AnalysisRequest`] API and its admission cache, and
//! [`loadgen`] (`repro loadgen`) load-tests it and emits the BENCH
//! figures.
//!
//! Every driver runs on the **streaming campaign engine** ([`campaign`]):
//! each sweep cell generates its task set on the worker that claims it
//! (per-worker scratch, no separate generation phase) and analyzes it
//! through the dominance-short-circuited verdict path. Sweeps are
//! deterministic: every task set's seed derives from `(base seed, point
//! index, set index)` only, so results do not depend on thread scheduling.
//! The execution substrate ([`exec`]) is one worker pool on the standard
//! library's scoped threads: it fans cells over the cores, or runs them
//! serially with `--jobs 1`, with bit-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod campaign;
pub mod csv;
pub mod exec;
pub mod figure2;
pub mod forensics;
pub mod loadgen;
pub mod sensitivity;
pub mod serve;
pub mod tables;
pub mod timing;
pub mod validate;

/// Derives the RNG seed of one generated task set from the sweep
/// coordinates, independent of threading.
pub fn set_seed(base: u64, point: usize, set: usize) -> u64 {
    base ^ (point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (set as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::BTreeSet::new();
        for point in 0..20 {
            for set in 0..50 {
                assert!(seen.insert(set_seed(7, point, set)), "{point}/{set}");
            }
        }
    }
}
