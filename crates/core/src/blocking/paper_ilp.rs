//! The paper's ILP formulations, verbatim (Sections V-A2 and V-B).
//!
//! The analysis only ever runs the combinatorial solvers ([`super::mu`]
//! and [`super::scenarios`]); these formulations exist for fidelity to the
//! paper (it solved them with CPLEX) and as the independent reference that
//! tests, the ablation bench and `repro table1`/`table3` check the
//! combinatorial path against.
//!
//! **Erratum applied**: constraint (2) of Section V-A2 is
//! stated as `Σ_{j<k} b_{j,k}·IsPar_{j,k} = c`, but `c` pairwise-parallel
//! nodes have `c(c−1)/2` parallel pairs; with constraint (1) in force the
//! consistent right-hand side is `c(c−1)/2`, which reproduces every value of
//! Table I (the stated `= c` makes even the paper's own examples
//! infeasible for `c ≥ 4` and over-constrained for `c = 1`).
//!
//! One subtlety of the Section V-B ILP, found while cross-validating it
//! against the Hungarian solver: it does not always pin the selected
//! core-count multiset to the scenario — e.g. under `s_l = {2,2,2,1,1}` the
//! assignment `{3,2,1,1,1}` satisfies all four constraints. Every such
//! "leaked" multiset is itself a partition of `m` with as many parts, so
//! `Δ^m` (the maximum over *all* scenarios) is unaffected, but individual
//! `ρ_k[s_l]` values from the ILP can exceed the scenario's true optimum.
//! Tests therefore compare the two solvers on `Δ` and on scenarios that pin
//! their multiset (every partition of `m ≤ 5` does), such as Table III.

use super::BlockingBounds;
use crate::config::ScenarioSpace;
use rta_combinatorics::{partitions, Partition};
use rta_ilp::{IlpBuilder, Sense};
use rta_model::{parallel_adjacency, Dag, Time};

/// `µ_i[c]` for `c = 1..=cores` via the Section V-A2 ILP.
pub fn mu_array_ilp(dag: &Dag, cores: usize) -> Vec<Time> {
    (1..=cores).map(|c| mu_ilp(dag, c).unwrap_or(0)).collect()
}

/// Solves the Section V-A2 ILP for one cardinality `c`. Returns `None` when
/// the formulation is infeasible (no `c` NPRs can run in parallel), which
/// the paper maps to `µ_i[c] = 0`.
///
/// Problem variables: `b_j = 1` iff NPR `v_j` is selected, plus auxiliary
/// `b_{j,k} = b_j ∧ b_k`. Objective: `max Σ C_j·b_j`.
pub fn mu_ilp(dag: &Dag, c: usize) -> Option<Time> {
    let n = dag.node_count();
    if c == 0 || c > n {
        return None;
    }
    let is_par = parallel_adjacency(dag);

    let mut m = IlpBuilder::new();
    let b: Vec<_> = (0..n).map(|j| m.binary(format!("b{j}"))).collect();
    for (j, &var) in b.iter().enumerate() {
        m.objective(var, dag.wcet(rta_model::NodeId::new(j)) as f64);
    }

    // Constraint (1): exactly c NPRs selected.
    let all: Vec<_> = b.iter().map(|&v| (v, 1.0)).collect();
    m.constraint(&all, Sense::Eq, c as f64);

    // Auxiliary b_{j,k} with AND-linking constraints (3).
    let mut pair_terms = Vec::new();
    for j in 0..n {
        for k in j + 1..n {
            let bjk = m.binary(format!("b{j}_{k}"));
            m.constraint(&[(bjk, 1.0), (b[j], -1.0), (b[k], -1.0)], Sense::Ge, -1.0);
            m.constraint(&[(bjk, 1.0), (b[j], -1.0)], Sense::Le, 0.0);
            m.constraint(&[(bjk, 1.0), (b[k], -1.0)], Sense::Le, 0.0);
            if is_par[j].contains(k) {
                pair_terms.push((bjk, 1.0));
            }
        }
    }

    // Constraint (2), with the c(c−1)/2 erratum: every selected pair is
    // parallel.
    let pairs = (c * (c - 1) / 2) as f64;
    m.constraint(&pair_terms, Sense::Eq, pairs);

    match m.build().maximize() {
        Ok(sol) => Some(sol.objective.round() as Time),
        Err(rta_ilp::IlpError::Infeasible) => None,
        Err(e) => panic!("µ ILP solve failed unexpectedly: {e}"),
    }
}

/// Solves the Section V-B ILP: the overall worst-case workload `ρ_k[s_l]`
/// of lower-priority tasks under execution scenario `s_l`.
///
/// `mu_arrays[i][c − 1]` is `µ_i[c]` for the `i`-th lower-priority task.
/// Returns `None` when the scenario is infeasible (more parts than tasks).
///
/// Problem variables: `w_i^c = 1` iff task `i` contributes its `c`-core
/// workload. Constraints (paper verbatim): (1) `Σ w = |s_l|`; (2) at most
/// one `c` per task; (3) every core count in `s_l` is used by some task;
/// (4) `Σ w·c` equals the scenario's core total.
pub fn rho_ilp(mu_arrays: &[Vec<Time>], scenario: &Partition) -> Option<Time> {
    let tasks = mu_arrays.len();
    let parts = scenario.cardinality();
    if parts > tasks {
        return None;
    }
    // Variables must cover every core count the scenario mentions; µ values
    // beyond the supplied arrays are 0 (no antichain that large), matching
    // the Hungarian solver's treatment.
    let array_len = mu_arrays.iter().map(Vec::len).max().unwrap_or(0);
    let largest_part = scenario.parts().first().copied().unwrap_or(0) as usize;
    let max_c = array_len.max(largest_part);

    let mut m = IlpBuilder::new();
    // w[i][c-1]
    let w: Vec<Vec<_>> = (0..tasks)
        .map(|i| (1..=max_c).map(|c| m.binary(format!("w{i}_{c}"))).collect())
        .collect();
    for i in 0..tasks {
        for c in 1..=max_c {
            let mu = mu_arrays[i].get(c - 1).copied().unwrap_or(0);
            m.objective(w[i][c - 1], mu as f64);
        }
    }

    // (1) number of contributing tasks = |s_l|.
    let all: Vec<_> = w.iter().flatten().map(|&v| (v, 1.0)).collect();
    m.constraint(&all, Sense::Eq, parts as f64);

    // (2) each task contributes at most once.
    for row in &w {
        let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.constraint(&terms, Sense::Le, 1.0);
    }

    // (3) every distinct core count of the scenario is used at least once.
    let mut distinct: Vec<u32> = scenario.parts().to_vec();
    distinct.dedup();
    for &c in &distinct {
        let terms: Vec<_> = w.iter().map(|row| (row[c as usize - 1], 1.0)).collect();
        m.constraint(&terms, Sense::Ge, 1.0);
    }

    // (4) total cores used = scenario total.
    let weighted: Vec<_> = w
        .iter()
        .flat_map(|row| row.iter().enumerate().map(|(ci, &v)| (v, (ci + 1) as f64)))
        .collect();
    m.constraint(&weighted, Sense::Eq, scenario.total() as f64);

    match m.build().maximize() {
        Ok(sol) => Some(sol.objective.round() as Time),
        Err(rta_ilp::IlpError::Infeasible) => None,
        Err(e) => panic!("ρ ILP solve failed unexpectedly: {e}"),
    }
}

/// The blocking pair `(Δ^m, Δ^{m−1})` of Eq. (8) over `space`, every `ρ`
/// solved by [`rho_ilp`] — the reference for
/// [`super::scenarios::blocking_from_mu`] and the analysis cache's Δ table.
///
/// `mu_arrays[i][c − 1]` is `µ_i[c]` for the `i`-th lower-priority task.
pub fn blocking_from_mu_ilp(
    mu_arrays: &[Vec<Time>],
    cores: usize,
    space: ScenarioSpace,
) -> BlockingBounds {
    let max_rho = |c: usize| {
        partitions(c as u32)
            .filter_map(|s| rho_ilp(mu_arrays, &s))
            .max()
            .unwrap_or(0)
    };
    let delta = |c: usize| match space {
        ScenarioSpace::PaperExact => max_rho(c),
        ScenarioSpace::Extended => (1..=c).map(max_rho).max().unwrap_or(0),
    };
    BlockingBounds {
        delta_m: delta(cores),
        delta_m_minus_one: delta(cores.saturating_sub(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::examples::{figure1_dags, TABLE_I};

    #[test]
    fn mu_ilp_reproduces_table_i() {
        for (i, dag) in figure1_dags().iter().enumerate() {
            for c in 1..=4usize {
                let got = mu_ilp(dag, c).unwrap_or(0);
                assert_eq!(got, TABLE_I[i][c - 1], "µ_{}[{}]", i + 1, c);
            }
        }
    }

    #[test]
    fn mu_ilp_out_of_range() {
        let dag = figure1_dags().remove(1); // τ2, 4 nodes
        assert_eq!(mu_ilp(&dag, 0), None);
        assert_eq!(mu_ilp(&dag, 5), None);
        // τ2 has max parallelism 2: c = 3 infeasible through the ILP too.
        assert_eq!(mu_ilp(&dag, 3), None);
    }

    #[test]
    fn rho_ilp_reproduces_table_iii() {
        let mu: Vec<Vec<Time>> = TABLE_I.iter().map(|r| r.to_vec()).collect();
        let expected = [11, 18, 16, 19, 18]; // {4},{3,1},{2,2},{2,1,1},{1,1,1,1}
        for (scenario, want) in partitions(4).zip([
            expected[0],
            expected[1],
            expected[2],
            expected[3],
            expected[4],
        ]) {
            let got = rho_ilp(&mu, &scenario).expect("feasible scenario");
            assert_eq!(got, want, "ρ[{scenario}]");
        }
    }

    #[test]
    fn rho_ilp_infeasible_when_parts_exceed_tasks() {
        let mu: Vec<Vec<Time>> = vec![vec![5, 3]]; // one task only
        let two_parts = Partition::new(vec![1, 1]);
        assert_eq!(rho_ilp(&mu, &two_parts), None);
    }
}
