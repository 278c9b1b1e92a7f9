//! Per-task worst-case workloads `µ_i[c]` (paper Section V-A).
//!
//! `µ_i[c]` is the largest total WCET of `c` NPRs of task `τ_i` that can all
//! execute in parallel (Definition 1) — a maximum-weight clique of
//! cardinality `c` in the task's parallelism graph, equivalently a
//! maximum-weight antichain of size `c` of its precedence order. When the
//! task cannot occupy `c` cores at once, `µ_i[c] = 0` (cf. `µ_2[3] =
//! µ_2[4] = 0` in Table I).
//!
//! `µ_i` is a property of the task alone (computable "at compile time" in
//! the paper's wording). The analysis exploits that through
//! [`crate::cache::TaskSetCache`]: each task's µ-array is computed **once
//! per task set**, at the largest core count any configuration asks for, and
//! the prefix `µ_i[1..=c]` is reused for every smaller platform slice `c`,
//! every scenario, every task under analysis and every analysis method.
//! (Each entry `µ_i[c]` is an independent fixed-cardinality search, so the
//! array computed at `m` cores restricts to the array for any `c ≤ m`.)

use crate::config::MuSolver;
use rta_combinatorics::{max_weight_clique_weight, BitSet, CliqueScratch};
use rta_model::{parallel_adjacency, Dag, Time};
use std::cell::Cell;

thread_local! {
    static MU_ARRAY_COMPUTATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of µ-array computations performed **by the current thread** since
/// it started.
///
/// Test instrumentation for the caching contract: the analysis cache must
/// compute each task's µ-array at most once per task set, which tests assert
/// by snapshotting this counter around a bound-carrying
/// [`crate::AnalysisRequest`] evaluation. Every call to [`mu_array`] /
/// [`mu_array_with`] increments it by one, whatever the solver.
pub fn mu_array_computations() -> u64 {
    MU_ARRAY_COMPUTATIONS.with(Cell::get)
}

fn record_computation() {
    MU_ARRAY_COMPUTATIONS.with(|c| c.set(c.get() + 1));
}

/// Computes the array `µ_i[1..=cores]` for one task.
///
/// Index `c − 1` holds `µ_i[c]`. Once no antichain of size `c` exists, all
/// larger entries are 0 (antichains are downward closed in size, so the
/// search stops at the first infeasible cardinality).
///
/// # Example
///
/// Table I of the paper, task `τ_3`:
///
/// ```
/// use rta_analysis::blocking::mu::mu_array;
/// use rta_analysis::MuSolver;
/// use rta_model::examples::figure1_tau3;
///
/// let mu = mu_array(&figure1_tau3(), 4, MuSolver::Clique);
/// assert_eq!(mu, vec![6, 7, 9, 11]);
/// ```
pub fn mu_array(dag: &Dag, cores: usize, solver: MuSolver) -> Vec<Time> {
    match solver {
        MuSolver::Clique => {
            let adjacency = parallel_adjacency(dag);
            mu_array_with(dag, &adjacency, cores, solver, &mut CliqueScratch::new())
        }
        MuSolver::PaperIlp => {
            record_computation();
            super::paper_ilp::mu_array_ilp(dag, cores)
        }
    }
}

/// As [`mu_array`], but from a pre-computed parallel adjacency and with
/// reusable clique-search scratch — the entry point
/// [`crate::cache::TaskSetCache`] uses so that neither the adjacency nor the
/// search buffers are rebuilt per task under analysis. (The
/// [`MuSolver::PaperIlp`] arm ignores both and solves from the DAG alone.)
pub fn mu_array_with(
    dag: &Dag,
    adjacency: &[BitSet],
    cores: usize,
    solver: MuSolver,
    scratch: &mut CliqueScratch,
) -> Vec<Time> {
    record_computation();
    match solver {
        MuSolver::Clique => mu_array_clique(adjacency, dag.wcets(), cores, scratch),
        MuSolver::PaperIlp => super::paper_ilp::mu_array_ilp(dag, cores),
    }
}

fn mu_array_clique(
    adjacency: &[BitSet],
    weights: &[Time],
    cores: usize,
    scratch: &mut CliqueScratch,
) -> Vec<Time> {
    let mut mu = Vec::with_capacity(cores);
    for c in 1..=cores {
        match max_weight_clique_weight(adjacency, weights, c, scratch) {
            Some(weight) => mu.push(weight),
            None => break,
        }
    }
    mu.resize(cores, 0);
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::examples::{figure1_dags, TABLE_I};
    use rta_model::DagBuilder;

    #[test]
    fn table_i_clique_solver() {
        for (i, dag) in figure1_dags().iter().enumerate() {
            let mu = mu_array(dag, 4, MuSolver::Clique);
            assert_eq!(mu.as_slice(), &TABLE_I[i], "µ_{} mismatch", i + 1);
        }
    }

    #[test]
    fn table_i_paper_ilp_solver() {
        for (i, dag) in figure1_dags().iter().enumerate() {
            let mu = mu_array(dag, 4, MuSolver::PaperIlp);
            assert_eq!(mu.as_slice(), &TABLE_I[i], "µ_{} (ILP) mismatch", i + 1);
        }
    }

    #[test]
    fn sequential_task_has_only_mu1() {
        let mut b = DagBuilder::new();
        let v = b.add_nodes([4, 9, 2]);
        b.add_chain(&v).unwrap();
        let mu = mu_array(&b.build().unwrap(), 4, MuSolver::Clique);
        assert_eq!(mu, vec![9, 0, 0, 0]);
    }

    #[test]
    fn fully_parallel_task_accumulates() {
        // A source forking into three leaves of weight 5, 3, 2.
        let mut b = DagBuilder::new();
        let v = b.add_nodes([1, 5, 3, 2]);
        for &leaf in &v[1..] {
            b.add_edge(v[0], leaf).unwrap();
        }
        let mu = mu_array(&b.build().unwrap(), 4, MuSolver::Clique);
        assert_eq!(mu, vec![5, 8, 10, 0]);
    }

    #[test]
    fn mu1_is_largest_npr() {
        for dag in figure1_dags() {
            let mu = mu_array(&dag, 1, MuSolver::Clique);
            assert_eq!(mu, vec![dag.max_wcet()]);
        }
    }

    #[test]
    fn cores_beyond_node_count_are_zero() {
        let mut b = DagBuilder::new();
        b.add_node(7);
        let mu = mu_array(&b.build().unwrap(), 3, MuSolver::Clique);
        assert_eq!(mu, vec![7, 0, 0]);
    }

    #[test]
    fn full_array_restricts_to_smaller_core_counts() {
        // The slicing contract the cache relies on: µ computed at m cores,
        // truncated to c entries, equals µ computed at c cores.
        for dag in figure1_dags() {
            let full = mu_array(&dag, 8, MuSolver::Clique);
            for c in 1..=8 {
                assert_eq!(full[..c], mu_array(&dag, c, MuSolver::Clique), "c = {c}");
            }
        }
    }

    #[test]
    fn computations_are_counted() {
        let dag = figure1_dags().remove(0);
        let before = mu_array_computations();
        let _ = mu_array(&dag, 4, MuSolver::Clique);
        let adjacency = parallel_adjacency(&dag);
        let _ = mu_array_with(
            &dag,
            &adjacency,
            4,
            MuSolver::Clique,
            &mut CliqueScratch::new(),
        );
        assert_eq!(mu_array_computations(), before + 2);
    }

    #[test]
    fn solvers_agree_on_figure1() {
        for dag in figure1_dags() {
            for cores in 1..=5 {
                assert_eq!(
                    mu_array(&dag, cores, MuSolver::Clique),
                    mu_array(&dag, cores, MuSolver::PaperIlp),
                    "solver mismatch at m = {cores}"
                );
            }
        }
    }
}
