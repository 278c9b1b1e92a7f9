//! Sensitivity of the Figure 2 curves to the generator's unpublished
//! knobs — the executable version of the period-model calibration
//! documented on [`rta_taskgen::PeriodModel`]. Runs through the same batched [`crate::figure2`] driver
//! as the main sweeps, so every variant shares one analysis cache per
//! generated set across the three methods.
//!
//! Three period models over the same DAG population, one reduced m = 4
//! panel each:
//!
//! * `SlackFactor` (calibrated default) — heterogeneous periods, real
//!   per-task slack;
//! * `CommonScale` — near-homogeneous periods: demonstrates the carry-in
//!   collapse of all three analyses at `U ≈ m/2`;
//! * `PerTaskUtilization` — independent heavy utilizations: demonstrates
//!   the fragile-small-task failure mode that destroys the LP plateau.

use crate::campaign::PeriodFamily;
use crate::exec::Jobs;
use crate::figure2::{run_with_jobs, SweepConfig, SweepResult};
use rta_taskgen::TaskSetConfig;

/// One sensitivity variant: a label and a generator.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Display label.
    pub label: &'static str,
    /// Generator used for the sweep.
    pub generator: fn(f64) -> TaskSetConfig,
}

/// The three period-model variants listed in the module docs, each the
/// group-1 preset under one [`PeriodFamily`].
pub fn variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "slack-factor (default)",
            generator: |target| PeriodFamily::SlackFactor.config(target),
        },
        Variant {
            label: "common-scale periods",
            generator: |target| PeriodFamily::CommonScale.config(target),
        },
        Variant {
            label: "per-task utilization",
            generator: |target| PeriodFamily::PerTaskUtilization.config(target),
        },
    ]
}

/// Runs the reduced m = 4 panel for every variant with an explicit worker
/// budget.
pub fn run_all_with_jobs(sets_per_point: usize, jobs: Jobs) -> Vec<(Variant, SweepResult)> {
    variants()
        .into_iter()
        .map(|v| {
            let config = SweepConfig::paper_panel(4)
                .with_sets_per_point(sets_per_point)
                .with_generator(v.generator);
            let result = run_with_jobs(&config, jobs);
            (v, result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run_and_dominate() {
        for (variant, result) in run_all_with_jobs(6, Jobs::Auto) {
            assert!(
                result.dominance_holds(),
                "{}: ordering must hold under every generator",
                variant.label
            );
            assert_eq!(result.points.len(), 13);
        }
    }

    #[test]
    fn common_scale_collapses_earlier_for_fp() {
        // The carry-in collapse: by U = 3 (0.75·m) the common-scale variant
        // must be far below the slack-factor variant for FP-ideal.
        let results = run_all_with_jobs(24, Jobs::Auto);
        let fp_at = |label: &str, idx: usize| -> f64 {
            results
                .iter()
                .find(|(v, _)| v.label.starts_with(label))
                .map(|(_, r)| r.points[idx].schedulable_pct[0])
                .expect("variant present")
        };
        // Point index 8 ≈ U = 3.0 on the 13-point 1..4 grid.
        let slack = fp_at("slack-factor", 8);
        let common = fp_at("common-scale", 8);
        assert!(
            common <= slack,
            "common-scale FP-ideal ({common}) should not beat slack-factor ({slack})"
        );
    }
}
