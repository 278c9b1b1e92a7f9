//! The runtime experiment (paper Section VI-B, last paragraph).
//!
//! The paper reports the average wall-clock time of a positive LP-ILP
//! schedulability test: 0.45 s (`m = 4`), 4.75 s (`m = 8`) and 43 min
//! (`m = 16`) in MATLAB + CPLEX. We reproduce the *trend* (cost growing
//! steeply with `m`, driven by the `p(m)` execution scenarios and the
//! per-task `µ` searches); absolute numbers are not comparable across
//! implementations: the paper's come from a MATLAB front end over a
//! general-purpose ILP solver on 2016 hardware, ours from combinatorial
//! solvers compiled to native code.

use crate::campaign;
use crate::set_seed;
use rta_analysis::{analyze, AnalysisConfig, AnalysisRequest, Method};
use rta_taskgen::group1;
use std::time::Instant;

/// Measured average runtime for one platform size.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingRow {
    /// Core count.
    pub cores: usize,
    /// Average seconds per LP-ILP analysis over accepted (schedulable)
    /// task sets.
    pub lp_ilp_seconds: f64,
    /// Average seconds per LP-max analysis (same sets).
    pub lp_max_seconds: f64,
    /// Average seconds per FP-ideal analysis (same sets).
    pub fp_ideal_seconds: f64,
    /// Average seconds for all three methods batched through one shared
    /// analysis cache (a multi-method [`AnalysisRequest`], the Figure 2
    /// hot path) — compare
    /// with the sum of the three per-method columns for the cache win.
    pub batched_seconds: f64,
    /// How many positively-answered sets the averages cover.
    pub samples: usize,
}

/// Runs the timing experiment for each core count, on the calling thread
/// so no other worker contends with the measured analyses.
///
/// Mirrors the paper's setup: random group-1 task sets at a utilization
/// where the LP-ILP test answers positively (we use `0.3·m`, inside the
/// schedulable band of our calibrated generator); only positive answers are
/// timed (the paper times "a positive scheduling answer"). A row averages
/// the first `samples_per_m` positively-answered attempts in attempt
/// order, out of at most `20 · samples_per_m` attempts.
pub fn run(core_counts: &[usize], samples_per_m: usize, seed: u64) -> Vec<TimingRow> {
    core_counts
        .iter()
        .map(|&cores| {
            let target = cores as f64 * 0.3;
            let mut totals = [0.0f64; 4];
            let mut accepted = 0usize;
            for times in (0..samples_per_m * 20)
                .filter_map(|attempt| measure_attempt(cores, target, seed, attempt))
                .take(samples_per_m)
            {
                for (total, t) in totals.iter_mut().zip(times) {
                    *total += t;
                }
                accepted += 1;
            }
            let n = accepted.max(1) as f64;
            TimingRow {
                cores,
                lp_ilp_seconds: totals[0] / n,
                lp_max_seconds: totals[1] / n,
                fp_ideal_seconds: totals[2] / n,
                batched_seconds: totals[3] / n,
                samples: accepted,
            }
        })
        .collect()
}

/// Generates and analyzes one candidate task set;
/// `Some([ilp, max, fp, batched])` seconds when the LP-ILP test answers
/// positively, `None` otherwise. The first three time stand-alone
/// [`analyze`] calls (the paper's per-method quantity); the fourth times
/// one bounds-carrying [`AnalysisRequest`] over the **same three paper
/// methods**
/// ([`Method::PAPER`], deliberately not LP-sound) sharing a single cache,
/// so the batched column stays comparable with the sum of the three
/// stand-alone ones.
fn measure_attempt(cores: usize, target: f64, seed: u64, attempt: usize) -> Option<[f64; 4]> {
    // Generation on the thread's reusable scratch (bit-identical to a
    // fresh `generate_task_set` with this seed).
    let ts = campaign::generate_on_worker(set_seed(seed, cores, attempt), &group1(target));
    // Time LP-ILP first; only keep positively-answered sets.
    let start = Instant::now();
    let ilp = analyze(&ts, &AnalysisConfig::new(cores, Method::LpIlp));
    let ilp_time = start.elapsed().as_secs_f64();
    if !ilp.schedulable {
        return None;
    }
    let start = Instant::now();
    let _ = analyze(&ts, &AnalysisConfig::new(cores, Method::LpMax));
    let max_time = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let _ = analyze(&ts, &AnalysisConfig::new(cores, Method::FpIdeal));
    let fp_time = start.elapsed().as_secs_f64();
    let request = AnalysisRequest::new(cores)
        .with_methods(Method::PAPER.iter().copied())
        .with_bounds(true);
    let start = Instant::now();
    let _ = request.evaluate(&ts);
    let batched_time = start.elapsed().as_secs_f64();
    Some([ilp_time, max_time, fp_time, batched_time])
}

/// ASCII rendering of the timing rows.
pub fn render(rows: &[TimingRow]) -> String {
    let header = [
        "m",
        "LP-ILP (s)",
        "LP-max (s)",
        "FP-ideal (s)",
        "batched (s)",
        "samples",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                format!("{:.6}", r.lp_ilp_seconds),
                format!("{:.6}", r.lp_max_seconds),
                format!("{:.6}", r.fp_ideal_seconds),
                format!("{:.6}", r.batched_seconds),
                r.samples.to_string(),
            ]
        })
        .collect();
    crate::ascii::table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_produces_positive_rows() {
        let rows = run(&[2, 4], 3, 1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.samples > 0, "m = {}", row.cores);
            assert!(row.lp_ilp_seconds > 0.0);
            assert!(row.batched_seconds > 0.0);
        }
        assert!(render(&rows).contains("LP-ILP"));
        assert!(render(&rows).contains("batched"));
    }
}
