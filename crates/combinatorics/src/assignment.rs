//! Maximum-weight assignment (Hungarian algorithm).
//!
//! The overall worst-case workload `ρ_k[s_l]` of the paper (Section V-B) asks:
//! given an execution scenario — a partition of the cores into parts
//! `c_1 ≥ c_2 ≥ …` — assign **distinct** lower-priority tasks to the parts so
//! that the summed per-task workloads `µ_i[c_j]` are maximal. That is a
//! rectangular maximum-weight perfect-matching problem on (parts × tasks),
//! which the paper solves with CPLEX and we solve exactly with the Hungarian
//! algorithm in `O(rows² · cols)`.
//!
//! Two independent references check it in tests: the exhaustive
//! [`max_weight_assignment_bruteforce`] here, and the paper's ILP
//! formulation in `rta-analysis` (`blocking::paper_ilp`, solved by
//! `rta-ilp`).

/// Reusable working memory for the Hungarian algorithm.
///
/// One `ρ_k[s_l]` evaluation needs six short per-call vectors; a Figure 2
/// sweep performs millions of them. Callers on that hot path keep one
/// scratch alive and hand it to [`max_weight_assignment_total`], which then
/// performs no allocation at all once the buffers have grown to the largest
/// problem seen.
#[derive(Clone, Debug, Default)]
pub struct AssignmentScratch {
    u: Vec<i64>,
    v: Vec<i64>,
    row_of_col: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<i64>,
    used: Vec<bool>,
}

impl AssignmentScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, rows: usize, cols: usize) {
        self.u.clear();
        self.u.resize(rows + 1, 0);
        self.v.clear();
        self.v.resize(cols + 1, 0);
        self.row_of_col.clear();
        self.row_of_col.resize(cols + 1, 0);
        self.way.clear();
        self.way.resize(cols + 1, 0);
        self.minv.resize(cols + 1, 0);
        self.used.resize(cols + 1, false);
    }
}

/// Hungarian algorithm with potentials (e-maxx formulation), minimizing the
/// negated weights. Indices are 1-based internally; index 0 is the virtual
/// start column. On return `scratch.row_of_col[j]` holds the (1-based) row
/// assigned to column `j`, or 0 when the column is unused.
///
/// Requires `1 <= rows <= cols`.
fn hungarian(
    rows: usize,
    cols: usize,
    weight: &impl Fn(usize, usize) -> u64,
    s: &mut AssignmentScratch,
) {
    s.reset(rows, cols);
    let cost = |r: usize, c: usize| -> i64 { -(weight(r, c) as i64) };

    for r in 1..=rows {
        s.row_of_col[0] = r;
        let mut j0 = 0usize;
        for j in 0..=cols {
            s.minv[j] = i64::MAX;
            s.used[j] = false;
        }
        loop {
            s.used[j0] = true;
            let i0 = s.row_of_col[j0];
            let mut delta = i64::MAX;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if s.used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - s.u[i0] - s.v[j];
                if cur < s.minv[j] {
                    s.minv[j] = cur;
                    s.way[j] = j0;
                }
                if s.minv[j] < delta {
                    delta = s.minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta < i64::MAX, "augmenting path must exist");
            for j in 0..=cols {
                if s.used[j] {
                    s.u[s.row_of_col[j]] += delta;
                    s.v[j] -= delta;
                } else {
                    s.minv[j] -= delta;
                }
            }
            j0 = j1;
            if s.row_of_col[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = s.way[j0];
            s.row_of_col[j0] = s.row_of_col[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
}

/// The optimal total of a maximum-weight assignment of every row to a
/// distinct column, without materializing the weight matrix or the
/// assignment itself.
///
/// `weight(r, c)` is the gain of assigning row `r` to column `c` (callers
/// typically close over µ-arrays and scenario parts); columns may be left
/// unused. Weights are unsigned, so the optimum is always well-defined.
/// Returns `Some(0)` for `rows == 0`, and `None` when `rows > cols` — in
/// the paper's terms, when an execution scenario mentions more tasks than
/// `lp(k)` contains, the scenario is infeasible. Reuses `scratch` across
/// calls, so the sweep-campaign inner loop performs no allocation.
///
/// # Example
///
/// ```
/// use rta_combinatorics::{max_weight_assignment_total, AssignmentScratch};
///
/// let weights = [[9u64, 7, 0], [4, 6, 5]];
/// let mut scratch = AssignmentScratch::new();
/// let total = max_weight_assignment_total(2, 3, |r, c| weights[r][c], &mut scratch);
/// assert_eq!(total, Some(15));
/// ```
pub fn max_weight_assignment_total(
    rows: usize,
    cols: usize,
    weight: impl Fn(usize, usize) -> u64,
    scratch: &mut AssignmentScratch,
) -> Option<u64> {
    if rows == 0 {
        return Some(0);
    }
    if rows > cols {
        return None;
    }
    hungarian(rows, cols, &weight, scratch);
    let mut total = 0u64;
    for j in 1..=cols {
        let r = scratch.row_of_col[j];
        if r != 0 {
            total += weight(r - 1, j - 1);
        }
    }
    Some(total)
}

/// Exhaustive reference solver, called only by tests to validate the
/// Hungarian implementation; exponential in the number of rows, exact.
pub fn max_weight_assignment_bruteforce(weights: &[Vec<u64>]) -> Option<u64> {
    let rows = weights.len();
    if rows == 0 {
        return Some(0);
    }
    let cols = weights[0].len();
    if rows > cols {
        return None;
    }
    fn rec(weights: &[Vec<u64>], row: usize, used: &mut Vec<bool>) -> u64 {
        if row == weights.len() {
            return 0;
        }
        let mut best = 0;
        for c in 0..weights[0].len() {
            if !used[c] {
                used[c] = true;
                let val = weights[row][c] + rec(weights, row + 1, used);
                used[c] = false;
                best = best.max(val);
            }
        }
        best
    }
    Some(rec(weights, 0, &mut vec![false; cols]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Hungarian total of a row-major matrix, with a fresh scratch.
    fn total(w: &[Vec<u64>]) -> Option<u64> {
        let cols = w.first().map_or(0, Vec::len);
        max_weight_assignment_total(w.len(), cols, |r, c| w[r][c], &mut AssignmentScratch::new())
    }

    #[test]
    fn empty_assignment() {
        assert_eq!(total(&[]), Some(0));
    }

    #[test]
    fn square_identity() {
        let w = vec![vec![10, 1, 1], vec![1, 10, 1], vec![1, 1, 10]];
        assert_eq!(total(&w), Some(30));
    }

    #[test]
    fn forced_tradeoff() {
        // Row 0 prefers col 0 (9) but row 1 needs it more (overall optimum
        // assigns row 0 -> col 1).
        let w = vec![vec![9, 8], vec![9, 1]];
        assert_eq!(total(&w), Some(17));
    }

    #[test]
    fn infeasible_when_more_rows_than_columns() {
        let w = vec![vec![1], vec![2]];
        assert_eq!(total(&w), None);
    }

    #[test]
    fn rectangular_leaves_columns_unused() {
        let w = vec![vec![5, 100, 5, 7]];
        assert_eq!(total(&w), Some(100));
    }

    #[test]
    fn zeros_are_fine() {
        let w = vec![vec![0, 0], vec![0, 0]];
        assert_eq!(total(&w), Some(0));
    }

    #[test]
    fn paper_scenario_s3_shape() {
        // Scenario s3 = {2,1,1} from Table III: parts (2 cores, 1 core,
        // 1 core) over tasks τ1..τ4 with µ from Table I.
        // Rows: c=2, c=1, c=1; columns: τ1, τ2, τ3, τ4.
        let w = vec![
            vec![5, 7, 7, 9], // µ_i[2]
            vec![3, 4, 6, 5], // µ_i[1]
            vec![3, 4, 6, 5], // µ_i[1]
        ];
        // ρ[s3] = µ4[2] + µ3[1] + µ2[1] = 9 + 6 + 4 = 19 (paper Table III).
        assert_eq!(total(&w), Some(19));
    }

    #[test]
    fn matches_bruteforce_with_a_shared_scratch() {
        // One scratch across problems of different shapes, interleaved with
        // infeasible and empty cases.
        let mut scratch = AssignmentScratch::new();
        let cases: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![3, 1, 4], vec![1, 5, 9], vec![2, 6, 5]],
            vec![vec![5, 100, 5, 7]],
            vec![vec![9, 8], vec![9, 1]],
            vec![vec![0, 0], vec![0, 0]],
            vec![vec![1], vec![2]], // infeasible: more rows than columns
            vec![],
            vec![vec![7, 7, 7], vec![7, 7, 7]],
            vec![vec![1, 2, 3, 4], vec![4, 3, 2, 1], vec![2, 2, 2, 2]],
        ];
        for w in cases {
            let cols = w.first().map_or(0, Vec::len);
            let fast = max_weight_assignment_total(w.len(), cols, |r, c| w[r][c], &mut scratch);
            assert_eq!(fast, max_weight_assignment_bruteforce(&w), "matrix {w:?}");
        }
    }
}
