//! Execution scenarios and the precedence-aware blocking bound (LP-ILP).
//!
//! Section IV-B of the paper: an *execution scenario* `s_l` fixes how many
//! cores each lower-priority task occupies — an integer partition of the
//! core count. Per scenario, the overall worst-case workload `ρ_k[s_l]`
//! assigns **distinct** tasks to the parts maximizing `Σ µ_i[c]` (Eq. (7)),
//! and the blocking bound is the maximum over scenarios (Eq. (8)):
//!
//! ```text
//! Δ^m_k = max_{s_l ∈ e_m} ρ_k[s_l]
//! ```
//!
//! `ρ` is solved exactly with the Hungarian algorithm
//! ([`rta_combinatorics::max_weight_assignment_total`]), or for every task
//! under analysis at once by the suffix DP of [`rho_suffix_dp`]. The
//! paper's ILP formulation ([`super::paper_ilp`]) is the test reference for
//! both.

use super::BlockingBounds;
use crate::config::ScenarioSpace;
use rta_combinatorics::{max_weight_assignment_total, partitions, AssignmentScratch, Partition};
use rta_model::{DagTask, Time};

/// `µ[c]` of one task, 0 beyond its array (no antichain that large).
fn mu_at(mu: &[Time], c: u32) -> Time {
    mu.get(c as usize - 1).copied().unwrap_or(0)
}

/// The overall worst-case workload `ρ_k[s_l]` of one execution scenario
/// (Eq. (7)). Returns `None` when the scenario involves more tasks than
/// exist.
///
/// `mu_arrays[i][c − 1]` is `µ_i[c]` of the `i`-th lower-priority task.
///
/// # Example
///
/// Table III, scenario `s_3 = {2,1,1}`:
///
/// ```
/// use rta_analysis::blocking::scenarios::rho;
/// use rta_combinatorics::Partition;
/// use rta_model::examples::TABLE_I;
///
/// let mu: Vec<Vec<u64>> = TABLE_I.iter().map(|r| r.to_vec()).collect();
/// let s3 = Partition::new(vec![2, 1, 1]);
/// assert_eq!(rho(&mu, &s3), Some(19));
/// ```
pub fn rho(mu_arrays: &[Vec<Time>], scenario: &Partition) -> Option<Time> {
    let parts = scenario.parts();
    max_weight_assignment_total(
        parts.len(),
        mu_arrays.len(),
        |r, t| mu_at(&mu_arrays[t], parts[r]),
        &mut AssignmentScratch::new(),
    )
}

/// `Δ^c` over a scenario space: the maximum `ρ` across the chosen set of
/// execution scenarios for a platform slice of `cores` cores (Eq. (8)).
pub fn delta(mu_arrays: &[Vec<Time>], cores: usize, space: ScenarioSpace) -> Time {
    if cores == 0 || mu_arrays.is_empty() {
        return 0;
    }
    let max_rho =
        |m: u32| -> Option<Time> { partitions(m).filter_map(|s| rho(mu_arrays, &s)).max() };
    match space {
        ScenarioSpace::PaperExact => max_rho(cores as u32).unwrap_or(0),
        ScenarioSpace::Extended => (1..=cores as u32).filter_map(max_rho).max().unwrap_or(0),
    }
}

/// Reusable working memory for [`max_rho`]: the Hungarian scratch plus a
/// flat staging buffer for the per-scenario weight matrix, so the
/// sweep-campaign inner loop performs no allocation.
#[derive(Debug, Default)]
pub struct RhoScratch {
    assignment: AssignmentScratch,
    /// Row-major `parts × tasks` weight matrix of the current scenario.
    weights: Vec<u64>,
}

impl RhoScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `max ρ[s_l]` over the given scenarios — for the partitions of exactly
/// `c`, one cardinality row of the Δ table (Eq. (8) for a single platform
/// slice). Returns 0 when no scenario is feasible (matching [`delta`]'s
/// conventions).
///
/// This is the primitive [`crate::cache::TaskSetCache`] memoizes: `Δ^m`
/// under [`ScenarioSpace::PaperExact`] is this value over the partitions of
/// `m`, and under [`ScenarioSpace::Extended`] the maximum of the rows
/// `1..=m` — so one table of per-cardinality maxima serves `Δ^m`,
/// `Δ^{m−1}`, both scenario spaces and every method. The cache passes each
/// row's scenarios from the process-global
/// [`rta_combinatorics::PartitionTable`], or the part of a row its suffix DP
/// leaves over.
///
/// µ rows are borrowed slices so the cache can hand out its per-task arrays
/// without copying; each scenario's weight matrix is staged in `scratch`,
/// with no allocation once warm.
pub fn max_rho<'a>(
    scenarios: impl IntoIterator<Item = &'a Partition>,
    mu_arrays: &[&[Time]],
    scratch: &mut RhoScratch,
) -> Time {
    if mu_arrays.is_empty() {
        return 0;
    }
    scenarios
        .into_iter()
        .filter_map(|s| rho_in(mu_arrays, s, scratch))
        .max()
        .unwrap_or(0)
}

/// Scratch-backed `ρ`: same optimum as [`rho`], zero allocation once warm.
fn rho_in(mu_arrays: &[&[Time]], scenario: &Partition, scratch: &mut RhoScratch) -> Option<Time> {
    let parts = scenario.parts();
    let (rows, cols) = (parts.len(), mu_arrays.len());
    if rows > cols {
        return None;
    }
    // A cardinality-1 scenario is a plain maximum — skip the assignment
    // machinery (every `e_c` contains `{c}`, so this path is always hot).
    if let [c] = parts {
        return mu_arrays.iter().map(|mu| mu_at(mu, *c)).max();
    }
    scratch.weights.clear();
    for &c in parts {
        scratch
            .weights
            .extend(mu_arrays.iter().map(|mu| mu_at(mu, c)));
    }
    let weights = &scratch.weights;
    max_weight_assignment_total(
        rows,
        cols,
        |r, t| weights[r * cols + t],
        &mut scratch.assignment,
    )
}

/// `ρ_k[s]` of **every** task under analysis at once, by subset dynamic
/// programming over task suffixes.
///
/// `lp(k)` shrinks by one task per priority level (`lp(k) = lp(k−1) \
/// {τ_k}`), so the per-`k` assignment problems of one scenario overlap
/// almost entirely. This DP walks the tasks from lowest to highest
/// priority, maintaining `f[S]` — the best total workload assigning the
/// scenario parts in subset `S` to distinct tasks of the suffix processed
/// so far — and reads off `ρ_k[s] = f[all parts]` after each step: one
/// `O(n · 2^|s| · |s|)` pass replaces `n` Hungarian solves.
///
/// `mu_tail[i]` is the µ-array of task `i + 1` (the highest-priority task
/// blocks no one, so its µ is never consulted). Returns `out[k] = ρ_k[s]`
/// for `k ∈ 0..=mu_tail.len()`, `None` where the scenario is infeasible
/// (more parts than `lp(k)` tasks) — element-wise identical to [`rho`] on
/// each suffix.
pub fn rho_suffix_dp(scenario: &Partition, mu_tail: &[&[Time]]) -> Vec<Option<Time>> {
    let parts = scenario.parts();
    let r = parts.len();
    debug_assert!(
        r < usize::BITS as usize,
        "cardinality bounded by core count"
    );
    let full: usize = (1 << r) - 1;
    let t = mu_tail.len();

    // `f[S]` for the empty suffix: only the empty part set is assignable.
    let mut f: Vec<Option<Time>> = vec![None; full + 1];
    f[0] = Some(0);
    let mut next = f.clone();
    let mut out = vec![None; t + 1];
    for i in (0..t).rev() {
        // Incorporate task `i + 1`: each part subset either ignores it or
        // assigns it one part `j`, leaving `S \ {j}` to strictly lower
        // priorities (the old `f`).
        let mu_i = mu_tail[i];
        for (mask, slot) in next.iter_mut().enumerate() {
            let mut best = f[mask];
            let mut bits = mask;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(base) = f[mask & !(1 << j)] {
                    let val = base + mu_at(mu_i, parts[j]);
                    if best.is_none_or(|b| val > b) {
                        best = Some(val);
                    }
                }
            }
            *slot = best;
        }
        std::mem::swap(&mut f, &mut next);
        // `f` now covers tasks `i+1 ..= t` — exactly `lp(i)`.
        out[i] = f[full];
    }
    out
}

/// The full LP-ILP blocking bound for a task under analysis: computes
/// `µ_i[c]` for every lower-priority task and maximizes `ρ` over the
/// scenario spaces of `m` and `m−1` cores.
pub fn lp_ilp_blocking(lp_tasks: &[DagTask], cores: usize, space: ScenarioSpace) -> BlockingBounds {
    let mu_arrays: Vec<Vec<Time>> = lp_tasks
        .iter()
        .map(|t| super::mu::mu_array(t.dag(), cores))
        .collect();
    blocking_from_mu(&mu_arrays, cores, space)
}

/// As [`lp_ilp_blocking`], but from pre-computed `µ` arrays (the arrays are
/// task-set independent, so callers analyzing many tasks reuse them).
pub fn blocking_from_mu(
    mu_arrays: &[Vec<Time>],
    cores: usize,
    space: ScenarioSpace,
) -> BlockingBounds {
    BlockingBounds {
        delta_m: delta(mu_arrays, cores, space),
        delta_m_minus_one: if cores >= 2 {
            delta(mu_arrays, cores - 1, space)
        } else {
            0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::lpmax::lp_max_blocking;
    use crate::blocking::paper_ilp::blocking_from_mu_ilp;
    use rta_combinatorics::PartitionTable;
    use rta_model::examples::{figure1_dags, TABLE_I};
    use rta_model::DagTask;

    fn mu() -> Vec<Vec<Time>> {
        TABLE_I.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn table_iii_all_scenarios_hungarian() {
        // Enumeration order: {4}, {3,1}, {2,2}, {2,1,1}, {1,1,1,1}.
        let expected = [11, 18, 16, 19, 18];
        for (scenario, want) in partitions(4).zip(expected) {
            assert_eq!(rho(&mu(), &scenario), Some(want), "ρ[{scenario}]");
        }
    }

    #[test]
    fn paper_deltas() {
        // Δ⁴ = 19 and Δ³ = 15 (Section IV-B3).
        let b = blocking_from_mu(&mu(), 4, ScenarioSpace::PaperExact);
        assert_eq!(b.delta_m, 19);
        assert_eq!(b.delta_m_minus_one, 15);
        // The extended space agrees here (enough tasks to fill 4 cores).
        let be = blocking_from_mu(&mu(), 4, ScenarioSpace::Extended);
        assert_eq!(be, b);
    }

    #[test]
    fn ilp_and_hungarian_agree_on_deltas() {
        for cores in 1..=5 {
            for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                let h = blocking_from_mu(&mu(), cores, space);
                let i = blocking_from_mu_ilp(&mu(), cores, space);
                assert_eq!(h, i, "m = {cores}, {space:?}");
            }
        }
    }

    #[test]
    fn max_rho_rows_reproduce_both_delta_spaces() {
        // The cache derives Δ under either scenario space from per-cardinality
        // max-ρ rows; the rows must therefore match `delta` exactly.
        let mu_vecs = mu();
        let refs: Vec<&[Time]> = mu_vecs.iter().map(Vec::as_slice).collect();
        let mut scratch = RhoScratch::new();
        let row = |c: usize, scratch: &mut RhoScratch| {
            max_rho(PartitionTable::scenarios(c as u32), &refs, scratch)
        };
        for cores in 0..=6usize {
            let exact = delta(&mu_vecs, cores, ScenarioSpace::PaperExact);
            assert_eq!(row(cores, &mut scratch), exact, "exact at m = {cores}");
            let extended = delta(&mu_vecs, cores, ScenarioSpace::Extended);
            let from_rows = (1..=cores).map(|c| row(c, &mut scratch)).max().unwrap_or(0);
            assert_eq!(from_rows, extended, "extended at m = {cores}");
        }
    }

    #[test]
    fn suffix_dp_matches_per_suffix_hungarian() {
        // The DP's per-k row must equal a dedicated Hungarian solve on each
        // suffix, for every scenario of every cardinality.
        let mu_vecs: Vec<Vec<Time>> = vec![
            vec![3, 5, 6, 5],
            vec![4, 7, 0, 0],
            vec![6, 7, 9, 11],
            vec![5, 9, 12, 0],
            vec![2, 2, 0, 0],
        ];
        // mu_tail covers tasks 1.. of a 6-task set (task 0 has no µ uses).
        let mu_tail: Vec<&[Time]> = mu_vecs.iter().map(Vec::as_slice).collect();
        for cores in 1..=6u32 {
            for scenario in partitions(cores) {
                let dp = rho_suffix_dp(&scenario, &mu_tail);
                assert_eq!(dp.len(), mu_tail.len() + 1);
                for (k, &got) in dp.iter().enumerate() {
                    let suffix: Vec<Vec<Time>> = mu_vecs[k..].to_vec();
                    let want = rho(&suffix, &scenario);
                    assert_eq!(got, want, "k = {k}, scenario {scenario}");
                }
            }
        }
    }

    #[test]
    fn lp_ilp_never_exceeds_lp_max() {
        let tasks: Vec<DagTask> = figure1_dags()
            .into_iter()
            .map(|d| DagTask::with_implicit_deadline(d, 1_000).unwrap())
            .collect();
        for cores in 1..=8 {
            let ilp = lp_ilp_blocking(&tasks, cores, ScenarioSpace::Extended);
            let max = lp_max_blocking(&tasks, cores);
            assert!(ilp.delta_m <= max.delta_m, "Δ^m at m = {cores}");
            assert!(
                ilp.delta_m_minus_one <= max.delta_m_minus_one,
                "Δ^(m−1) at m = {cores}"
            );
        }
    }

    #[test]
    fn extended_space_handles_few_tasks() {
        // A single lower-priority task with parallelism 2 on m = 4: the
        // paper's exact space only contains {4}, {3,1}, {2,2}, {2,1,1},
        // {1,1,1,1}; with one task only {4} is feasible and µ[4] = 0, so
        // PaperExact reports no blocking. The extended space finds µ[2].
        let mu_one = vec![vec![5u64, 8, 0, 0]];
        let exact = delta(&mu_one, 4, ScenarioSpace::PaperExact);
        let extended = delta(&mu_one, 4, ScenarioSpace::Extended);
        assert_eq!(exact, 0);
        assert_eq!(extended, 8);
    }

    #[test]
    fn no_lp_tasks_means_no_blocking() {
        let b = blocking_from_mu(&[], 4, ScenarioSpace::Extended);
        assert_eq!(b, BlockingBounds::default());
    }

    #[test]
    fn single_core_delta() {
        let b = blocking_from_mu(&mu(), 1, ScenarioSpace::Extended);
        // Largest µ_i[1] = 6 (τ3); Δ⁰ = 0.
        assert_eq!(b.delta_m, 6);
        assert_eq!(b.delta_m_minus_one, 0);
    }

    #[test]
    fn rho_infeasible_scenarios() {
        let one_task = vec![vec![3u64, 5]];
        let s = Partition::new(vec![1, 1]);
        assert_eq!(rho(&one_task, &s), None);
    }

    #[test]
    fn extended_dominates_exact() {
        // On arbitrary µ arrays the extended space is ≥ the exact space.
        let arrays = vec![vec![4u64, 6, 0, 0], vec![2, 0, 0, 0]];
        for cores in 1..=4 {
            let e = delta(&arrays, cores, ScenarioSpace::Extended);
            let p = delta(&arrays, cores, ScenarioSpace::PaperExact);
            assert!(e >= p, "m = {cores}");
        }
    }
}
