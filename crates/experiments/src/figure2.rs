//! The Figure 2 schedulability sweeps (and the group-2 variant).
//!
//! For each utilization point, `sets_per_point` random task sets are
//! generated **and analyzed in the same streaming cell** of the campaign
//! engine ([`crate::campaign`]): the worker that claims a coordinate
//! generates its task set on a reusable per-worker scratch and evaluates
//! all six analyses (the paper's FP-ideal, LP-ILP and LP-max, the
//! corrected LP-sound, and the published fully-preemptive competitors
//! Long-paths and Gen-sporadic) through the dominance-short-circuited
//! verdict path, sharing one analysis cache per set; the reported value is
//! the percentage of schedulable sets — exactly the paper's Figure 2 (300
//! sets per point there), extended by the competitor columns. Results are
//! reproducible bit-for-bit regardless of parallelism; the worker budget
//! is a [`Jobs`] value ([`run_with_jobs`]), surfaced on the `repro` CLI as
//! `--jobs`.

use crate::ascii;
use crate::campaign::{self, SweepSpec};
use crate::exec::Jobs;
use rta_analysis::{Method, ScenarioSpace};
use rta_taskgen::TaskSetConfig;

/// Number of analysis methods every per-method array in this module spans
/// (always [`Method::ALL`] order).
pub(crate) const METHODS: usize = Method::ALL.len();

/// Configuration of one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Core count `m`.
    pub cores: usize,
    /// Utilization points (x-axis).
    pub utilizations: Vec<f64>,
    /// Random task sets per point (300 in the paper).
    pub sets_per_point: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Task-set generator (the paper's group 1 or group 2).
    pub generator: fn(f64) -> TaskSetConfig,
}

impl SweepConfig {
    /// The paper's Figure 2 panel for `m` cores: utilization 1 → m in steps
    /// of m/12 (13 points, mirroring the plot density), 300 sets per point,
    /// group-1 task sets.
    pub fn paper_panel(cores: usize) -> Self {
        Self {
            cores,
            utilizations: campaign::utilization_grid(cores),
            sets_per_point: 300,
            seed: 0xDA7E_2016,
            generator: rta_taskgen::group1,
        }
    }

    /// Scales the number of sets per point (for quick runs and benches).
    #[must_use]
    pub fn with_sets_per_point(mut self, sets: usize) -> Self {
        self.sets_per_point = sets;
        self
    }

    /// Switches the generator (e.g. to [`rta_taskgen::group2`]).
    #[must_use]
    pub fn with_generator(mut self, generator: fn(f64) -> TaskSetConfig) -> Self {
        self.generator = generator;
        self
    }
}

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

/// Runs the sweep with an explicit worker budget, streaming the
/// `(point, set)` cells over the campaign engine's thread pool.
///
/// Results are **bit-identical across worker counts** (`Jobs::serial()`
/// is the reference, see `tests/determinism.rs`): every task set's seed
/// derives only from its sweep coordinates, every evaluation is pure, and
/// the per-point aggregation folds the evaluations in coordinate order no
/// matter which worker produced them.
pub fn run_with_jobs(config: &SweepConfig, jobs: Jobs) -> SweepResult {
    let mut points = Vec::with_capacity(config.utilizations.len());
    run_into(config, jobs, &mut |p: &SweepPoint| points.push(p.clone()));
    SweepResult {
        cores: config.cores,
        points,
    }
}

/// As [`run_with_jobs`], delivering each completed [`SweepPoint`] to
/// `on_point` as soon as its last cell folds — the streaming entry the
/// `repro` CLI feeds its [`CsvSink`](crate::csv::CsvSink) from.
pub fn run_into(config: &SweepConfig, jobs: Jobs, on_point: &mut dyn FnMut(&SweepPoint)) {
    campaign::sweep_into(
        &SweepSpec {
            cores: config.cores,
            xs: &config.utilizations,
            sets_per_point: config.sets_per_point,
            seed: config.seed,
            space: ScenarioSpace::PaperExact,
            make_set: |seed, target| {
                campaign::generate_on_worker(seed, &(config.generator)(target))
            },
        },
        jobs,
        on_point,
    );
}

/// The task-count variant of Figure 2(c) (`repro fig2c-tasks`): x-axis =
/// number of tasks, total utilization fixed at `cores / 2`, so each added
/// task makes every task lighter and adds a blocking candidate; run with an
/// explicit worker budget.
pub fn run_task_count_with_jobs(
    config: &SweepConfig,
    task_counts: &[usize],
    jobs: Jobs,
) -> SweepResult {
    let mut points = Vec::with_capacity(task_counts.len());
    run_task_count_into(config, task_counts, jobs, &mut |p: &SweepPoint| {
        points.push(p.clone())
    });
    SweepResult {
        cores: config.cores,
        points,
    }
}

/// As [`run_task_count_with_jobs`], streaming completed points to
/// `on_point`.
pub fn run_task_count_into(
    config: &SweepConfig,
    task_counts: &[usize],
    jobs: Jobs,
    on_point: &mut dyn FnMut(&SweepPoint),
) {
    let fixed_u = config.cores as f64 / 2.0;
    let xs: Vec<f64> = task_counts.iter().map(|&n| n as f64).collect();
    campaign::sweep_into(
        &SweepSpec {
            cores: config.cores,
            xs: &xs,
            sets_per_point: config.sets_per_point,
            seed: config.seed,
            space: ScenarioSpace::PaperExact,
            make_set: |seed, x| {
                campaign::generate_on_worker_with_count(
                    seed,
                    &(config.generator)(fixed_u),
                    x as usize,
                )
            },
        },
        jobs,
        on_point,
    );
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

    fn quick(cores: usize, sets: usize) -> SweepConfig {
        SweepConfig::paper_panel(cores).with_sets_per_point(sets)
    }

    #[test]
    fn tiny_sweep_runs_and_dominates() {
        let result = run_with_jobs(&quick(4, 8), Jobs::Auto);
        assert_eq!(result.points.len(), 13);
        assert!(result.dominance_holds());
        // Low utilization is almost always schedulable for FP-ideal.
        assert!(result.points[0].schedulable_pct[0] >= 80.0);
        // Utilization m is rarely schedulable for LP-max.
        assert!(result.points.last().unwrap().schedulable_pct[2] <= 20.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_with_jobs(&quick(4, 6), Jobs::Auto);
        let b = run_with_jobs(&quick(4, 6), Jobs::Auto);
        assert_eq!(a, b);
    }

    #[test]
    fn task_count_variant_runs() {
        let cfg = quick(4, 5);
        let result = run_task_count_with_jobs(&cfg, &[2, 4, 6], Jobs::Auto);
        assert_eq!(result.points.len(), 3);
        assert_eq!(result.points[0].x, 2.0);
        assert!(result.dominance_holds());
    }

    #[test]
    fn renders_csv_and_table() {
        let result = run_with_jobs(&quick(4, 4), Jobs::Auto);
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
