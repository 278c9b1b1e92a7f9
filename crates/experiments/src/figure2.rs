//! The points and results of a schedulability sweep — Figure 2 of the
//! paper and every panel of [`crate::campaign::PanelKind`].
//!
//! For each x value, `sets_per_point` random task sets are generated
//! **and analyzed in the same streaming cell** of the campaign engine
//! ([`crate::campaign::sweep_into`]): the worker that claims a coordinate
//! generates its task set on a reusable per-worker scratch and evaluates
//! all six analyses (the paper's FP-ideal, LP-ILP and LP-max, the
//! corrected LP-sound, and the published fully-preemptive competitors
//! Long-paths and Gen-sporadic) through the dominance-short-circuited
//! verdict path, sharing one analysis cache per set. A [`SweepPoint`]
//! reports the percentage of schedulable sets per method — exactly the
//! paper's Figure 2 (300 sets per point there), extended by the
//! competitor columns — bit-for-bit the same for every worker count.

use crate::ascii;
use rta_analysis::Method;

/// Number of analysis methods every per-method array in this module spans
/// (always [`Method::ALL`] order).
pub(crate) const METHODS: usize = Method::ALL.len();

/// One point of the sweep: the percentage of schedulable task sets per
/// method, in [`Method::ALL`] order (FP-ideal, LP-ILP, LP-max, LP-sound,
/// Long-paths, Gen-sporadic).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// X coordinate (nominal target utilization, or task count for the
    /// task-count variant).
    pub x: f64,
    /// Mean utilization actually achieved by the generated sets (can fall
    /// below the nominal target when the per-task utilization cap
    /// saturates; see `rta_taskgen::PeriodModel::SlackFactor`).
    pub achieved_utilization: f64,
    /// Schedulable percentage per method.
    pub schedulable_pct: [f64; METHODS],
}

impl SweepPoint {
    /// The point as CSV cells, in [`csv_header`] column order — the row the
    /// `repro` CLI streams through a [`CsvSink`](crate::csv::CsvSink).
    pub fn csv_cells(&self) -> Vec<String> {
        let mut cells = vec![
            format!("{:.4}", self.x),
            format!("{:.4}", self.achieved_utilization),
        ];
        for mi in 0..METHODS {
            cells.push(format!("{:.2}", self.schedulable_pct[mi]));
        }
        cells
    }
}

/// The CSV header of a schedulability sweep, with the given x-axis label.
pub fn csv_header(x_label: &str) -> [&str; 8] {
    [
        x_label,
        "achieved_utilization",
        "fp_ideal_pct",
        "lp_ilp_pct",
        "lp_max_pct",
        "lp_sound_pct",
        "long_paths_pct",
        "gen_sporadic_pct",
    ]
}

/// Result of a full sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// Core count the sweep ran on.
    pub cores: usize,
    /// The curve points.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// ASCII rendering: a table plus per-method sparklines.
    pub fn render(&self, x_label: &str) -> String {
        let header = [
            x_label,
            "achieved U",
            "FP-ideal %",
            "LP-ILP %",
            "LP-max %",
            "LP-sound %",
            "Long-p %",
            "Gen-sp %",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let mut row = vec![
                    format!("{:.2}", p.x),
                    format!("{:.2}", p.achieved_utilization),
                ];
                for mi in 0..METHODS {
                    row.push(format!("{:.1}", p.schedulable_pct[mi]));
                }
                row
            })
            .collect();
        let mut out = ascii::table(&header, &rows);
        for (mi, method) in Method::ALL.iter().enumerate() {
            let curve: Vec<f64> = self.points.iter().map(|p| p.schedulable_pct[mi]).collect();
            out.push_str(&format!(
                "{:>9} {}\n",
                method.label(),
                ascii::sparkline(&curve)
            ));
        }
        out
    }

    /// Checks the theorem-backed qualitative shape: at every point,
    /// `LP-max ≤ LP-ILP ≤ FP-ideal` and `LP-sound ≤ FP-ideal` (percentage
    /// of schedulable sets; no per-point ordering connects LP-sound to the
    /// paper's two LP bounds), plus the competitor edges `FP-ideal ≤
    /// Long-paths` (the long-path refinement only ever tightens the Graham
    /// bound, and its rescue can accept sets Graham diverges on) and
    /// `Gen-sporadic ≤ FP-ideal` (its deadline-anchored carry-in dominates
    /// the response-anchored one on accepted prefixes).
    pub fn dominance_holds(&self) -> bool {
        self.points.iter().all(|p| {
            p.schedulable_pct[2] <= p.schedulable_pct[1] + 1e-9
                && p.schedulable_pct[1] <= p.schedulable_pct[0] + 1e-9
                && p.schedulable_pct[3] <= p.schedulable_pct[0] + 1e-9
                && p.schedulable_pct[0] <= p.schedulable_pct[4] + 1e-9
                && p.schedulable_pct[5] <= p.schedulable_pct[0] + 1e-9
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{self, generate_on_worker_with_count, PanelKind, SweepSpec};
    use crate::exec::Jobs;
    use rta_analysis::ScenarioSpace;

    /// The Figure 2(a) panel at `sets` sets per point.
    fn fig2a(sets: usize) -> SweepResult {
        let mut points = Vec::new();
        PanelKind::Figure2(4).run_into(sets, Jobs::Auto, &mut |p: &SweepPoint| {
            points.push(p.clone())
        });
        SweepResult { cores: 4, points }
    }

    #[test]
    fn tiny_sweep_runs_and_dominates() {
        let result = fig2a(8);
        assert_eq!(result.points.len(), 13);
        assert!(result.dominance_holds());
        // Low utilization is almost always schedulable for FP-ideal.
        assert!(result.points[0].schedulable_pct[0] >= 80.0);
        // Utilization m is rarely schedulable for LP-max.
        assert!(result.points.last().unwrap().schedulable_pct[2] <= 20.0);
    }

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(fig2a(6), fig2a(6));
    }

    #[test]
    fn task_count_variant_runs() {
        // 2, 4 and 6 tasks per set at U = m/2 on the Figure 2(a) platform.
        let mut points = Vec::new();
        campaign::sweep_into(
            &SweepSpec {
                cores: 4,
                xs: &[2.0, 4.0, 6.0],
                sets_per_point: 5,
                seed: 0xDA7E_2016,
                space: ScenarioSpace::PaperExact,
                make_set: |seed, tasks: f64| {
                    generate_on_worker_with_count(seed, &rta_taskgen::group1(2.0), tasks as usize)
                },
            },
            Jobs::Auto,
            &mut |p: &SweepPoint| points.push(p.clone()),
        );
        let result = SweepResult { cores: 4, points };
        assert_eq!(result.points.len(), 3);
        assert_eq!(result.points[0].x, 2.0);
        assert!(result.dominance_holds());
    }

    #[test]
    fn renders_csv_and_table() {
        let result = fig2a(4);
        let csv = crate::csv::to_string(
            &csv_header("utilization"),
            result.points.iter().map(SweepPoint::csv_cells),
        );
        assert!(csv.starts_with("utilization,achieved_utilization,fp_ideal_pct"));
        assert_eq!(csv.lines().count(), 14);
        let txt = result.render("U");
        assert!(txt.contains("LP-ILP"));
        assert!(txt.contains("FP-ideal"));
    }
}
