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
//! | Figure 2(a) (`m = 4` sweep)           | [`PanelKind::Figure2`]`(4)` | `repro fig2a` |
//! | Figure 2(b) (`m = 8` sweep)           | [`PanelKind::Figure2`]`(8)` | `repro fig2b` |
//! | Figure 2(c) (`m = 16` sweep)          | [`PanelKind::Figure2`]`(16)` | `repro fig2c` |
//! | Figure 2(c) task-count variant        | [`PanelKind::TaskCount`] | `repro fig2c-tasks` |
//! | Group-2 comparison (prose)            | [`PanelKind::Group2`]`(m)` | `repro group2` |
//! | Generator sensitivity (period models) | [`PanelKind::Sensitivity`] | `repro sensitivity` |
//! | Runtime paragraph (`0.45 s / 4.75 s / 43 min`) | [`timing::run`] | `repro timing` |
//!
//! Every schedulability sweep is one [`PanelKind`], streamed point by
//! point through [`PanelKind::run_into`] (benches with a reduced grid call
//! [`campaign::sweep_into`] directly).
//!
//! [`PanelKind`]: campaign::PanelKind
//! [`PanelKind::Figure2`]: campaign::PanelKind::Figure2
//! [`PanelKind::TaskCount`]: campaign::PanelKind::TaskCount
//! [`PanelKind::Group2`]: campaign::PanelKind::Group2
//! [`PanelKind::Sensitivity`]: campaign::PanelKind::Sensitivity
//! [`PanelKind::run_into`]: campaign::PanelKind::run_into
//!
//! Beyond the paper, the same table holds sweep panels the original
//! evaluation did not chart — constrained deadlines (`D = f·T`),
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
//! Every sweep runs on the **streaming campaign engine** ([`campaign`]):
//! each sweep cell generates its task set on the worker that claims it
//! (per-worker scratch, no separate generation phase) and analyzes it
//! through the dominance-short-circuited verdict path. Sweeps are
//! deterministic: every task set's seed derives from `(base seed, point
//! index, set index)` only, so results do not depend on thread scheduling.
//! The execution substrate ([`exec`]) is one worker pool on the standard
//! library's scoped threads: it fans cells over the cores, or runs them
//! serially with `--jobs 1`, with bit-identical output. The tables and
//! the timing experiment are not sweeps and run on the calling thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod campaign;
pub mod csv;
pub mod exec;
pub mod figure2;
pub mod forensics;
pub mod loadgen;
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
