//! The DAGs of the paper's **Figure 1**, reconstructed.
//!
//! Figure 1 shows the four lower-priority tasks `lp(k) = {τ_1, τ_2, τ_3,
//! τ_4}` used by the paper's running example on an `m = 4` platform. The
//! figure itself is not machine-readable in the source text, but its
//! structure and WCETs are pinned down by:
//!
//! * **Table I** (all `µ_i[c]` values, including which nodes realize them),
//! * **Table III** (all `ρ_k[s_l]` values and `Δ⁴ = 19`, `Δ³ = 15`),
//! * the Section V-A1 worked example of Algorithm 1 on `τ_1`
//!   (`SUCC`/`PRED`/`Par` sets), and
//! * the prose (`τ_2` has maximum parallelism 2; `v_{4,1}` and `v_{4,4}`
//!   cannot execute in parallel; the LP-max sum `Δ⁴ = C_{3,1} + C_{4,1} +
//!   C_{4,4} + C_{2,2} = 20`).
//!
//! WCETs not pinned by any of the above (the fork/join "glue" nodes
//! `C_{1,1}`, `C_{2,1}`, `C_{2,4}`) are chosen small enough not to perturb
//! any table value; the choices are documented inline. Every derived value
//! is asserted in this module's tests and again, end-to-end, in the
//! workspace integration tests.

use crate::dag::{Dag, DagBuilder};
use crate::task::DagTask;
use crate::taskset::TaskSet;

/// `τ_1` of Figure 1: a two-level fork-join diamond.
///
/// ```text
///            v1(2)
///   ┌─────┬───┴──┬─────┐
/// v2(1) v3(1) v4(1) v5(2)
///   └──┬──┘      └──┬──┘
///    v6(3)        v7(2)
///       └─────┬─────┘
///           v8(3)
/// ```
///
/// Pinned by the paper: `C_{1,6} = C_{1,8} = 3` (`µ_1[1] = 3`),
/// `C_{1,7} = 2` (`µ_1[2] = C_{1,6} + C_{1,7} = 5`),
/// `C_{1,4} + C_{1,5} = 3` (`µ_1[3] = 6`), `C_{1,2} + C_{1,3} = 2`
/// (`µ_1[4] = 5`), and the `SUCC`/`Par` sets of Section V-A1.
/// Free choice: `C_{1,1} = 2` (any value ≤ 3 preserves every table entry).
pub fn figure1_tau1() -> Dag {
    let mut b = DagBuilder::new();
    let v = b.add_nodes([2, 1, 1, 1, 2, 3, 2, 3]);
    for &mid in &v[1..5] {
        b.add_edge(v[0], mid).expect("valid edge");
    }
    b.add_edge(v[1], v[5]).expect("valid edge");
    b.add_edge(v[2], v[5]).expect("valid edge");
    b.add_edge(v[3], v[6]).expect("valid edge");
    b.add_edge(v[4], v[6]).expect("valid edge");
    b.add_edge(v[5], v[7]).expect("valid edge");
    b.add_edge(v[6], v[7]).expect("valid edge");
    b.build().expect("τ1 is a valid DAG")
}

/// `τ_2` of Figure 1: a simple fork-join with two parallel branches.
///
/// ```text
///     v1(2)
///   ┌───┴───┐
/// v2(4)   v3(3)
///   └───┬───┘
///     v4(1)
/// ```
///
/// Pinned: `C_{2,2} = 4` (`µ_2[1]`), `C_{2,3} = 3` (`µ_2[2] = 7`), maximum
/// parallelism 2 (`µ_2[3] = µ_2[4] = 0`). Free choices: `C_{2,1} = 2`,
/// `C_{2,4} = 1` (≤ 4 so `µ_2[1]` stays 4).
pub fn figure1_tau2() -> Dag {
    let mut b = DagBuilder::new();
    let v = b.add_nodes([2, 4, 3, 1]);
    b.add_edge(v[0], v[1]).expect("valid edge");
    b.add_edge(v[0], v[2]).expect("valid edge");
    b.add_edge(v[1], v[3]).expect("valid edge");
    b.add_edge(v[2], v[3]).expect("valid edge");
    b.build().expect("τ2 is a valid DAG")
}

/// `τ_3` of Figure 1: a source spawning four parallel branches.
///
/// ```text
///          v1(6)
///   ┌─────┬──┴───┬─────┐
/// v2(2) v3(4) v4(3) v5(2)
/// ```
///
/// Pinned: `C_{3,1} = 6` (`µ_3[1]`, and `v_{3,1}` participates in the
/// LP-max sum, so it must not be parallel with the others — it is the
/// source), `C_{3,3} + C_{3,4} = 7` (`µ_3[2]`), `C_{3,2} = C_{3,5} = 2`
/// (`µ_3[3] = 9` with "`C_{3,2}` or `C_{3,5}`", `µ_3[4] = 11`).
pub fn figure1_tau3() -> Dag {
    let mut b = DagBuilder::new();
    let v = b.add_nodes([6, 2, 4, 3, 2]);
    for &child in &v[1..] {
        b.add_edge(v[0], child).expect("valid edge");
    }
    b.build().expect("τ3 is a valid DAG")
}

/// `τ_4` of Figure 1: an asymmetric fork.
///
/// ```text
///   v1(5)
///   ┌─┴──────┐
/// v2(2)    v3(4)
///   ├────┐
/// v4(5) v5(3)
/// ```
///
/// Pinned: `C_{4,1} = C_{4,4} = 5` (`µ_4[1] = 5`, "`C_{4,1}` or
/// `C_{4,4}`", and the prose notes `v_{4,1}` and `v_{4,4}` cannot execute
/// in parallel — `v_{4,1}` is the source and an ancestor of `v_{4,4}`),
/// `C_{4,3} = 4` (`µ_4[2] = C_{4,4} + C_{4,3} = 9`), `C_{4,5} = 3`
/// (`µ_4[3] = 12`), maximum parallelism 3 (`µ_4[4] = 0`). Free choice:
/// `C_{4,2} = 2` (≤ 3 keeps `µ_4[2]` and `µ_4[3]` as published).
pub fn figure1_tau4() -> Dag {
    let mut b = DagBuilder::new();
    let v = b.add_nodes([5, 2, 4, 5, 3]);
    b.add_edge(v[0], v[1]).expect("valid edge");
    b.add_edge(v[0], v[2]).expect("valid edge");
    b.add_edge(v[1], v[3]).expect("valid edge");
    b.add_edge(v[1], v[4]).expect("valid edge");
    b.build().expect("τ4 is a valid DAG")
}

/// All four DAGs of Figure 1, in task order.
pub fn figure1_dags() -> Vec<Dag> {
    vec![
        figure1_tau1(),
        figure1_tau2(),
        figure1_tau3(),
        figure1_tau4(),
    ]
}

/// The four Figure 1 tasks as the `lp(k)` of a five-task set, preceded by a
/// higher-priority task under analysis.
///
/// The paper uses Figure 1 only as a set of lower-priority tasks; it never
/// gives them timing parameters. This helper supplies generous implicit
/// deadlines (periods = 100) so the example can be run end-to-end through
/// the full analysis in examples and tests. The task under analysis (`τ_k`)
/// is a small fork-join with period 50.
pub fn figure1_task_set() -> TaskSet {
    let mut analyzed = DagBuilder::new();
    let v = analyzed.add_nodes([1, 2, 2, 1]);
    analyzed.add_edge(v[0], v[1]).expect("valid edge");
    analyzed.add_edge(v[0], v[2]).expect("valid edge");
    analyzed.add_edge(v[1], v[3]).expect("valid edge");
    analyzed.add_edge(v[2], v[3]).expect("valid edge");
    let analyzed = DagTask::with_implicit_deadline(analyzed.build().expect("valid DAG"), 50)
        .expect("valid task")
        .named("τk (under analysis)");

    let mut tasks = vec![analyzed];
    for (i, dag) in figure1_dags().into_iter().enumerate() {
        tasks.push(
            DagTask::with_implicit_deadline(dag, 100)
                .expect("valid task")
                .named(format!("τ{} (Figure 1)", i + 1)),
        );
    }
    TaskSet::new(tasks)
}

/// The frozen `m = 2` counterexample to the paper's lower-priority
/// blocking bound (Eqs. 5–8) — the eager-LP unsoundness witness this
/// repository's validation campaign found and pinned.
///
/// Two implicit-deadline tasks. The analysis accepts the set with an LP
/// bound of `300.5` for the higher-priority task (`Δ² = 189`, `p = 0`),
/// yet an eager limited-preemptive simulation over `3 · T_lp = 3648` time
/// units legally observes a response of `304`: lower-priority
/// non-preemptive regions that *start mid-job* on cores the hp-DAG's own
/// precedence structure leaves idle are invisible to the event-counted
/// blocking term. Found by `repro validate` on the `m = 2` utilization
/// sweep (generator seed population, `U` target 4/3); the exceedance is
/// re-asserted by the validation tests and rendered by `repro trace`.
pub fn lp_counterexample_task_set() -> TaskSet {
    let task = |period: u64, wcets: &[u64], edges: &[(usize, usize)]| {
        let mut b = DagBuilder::new();
        let nodes: Vec<crate::NodeId> = wcets.iter().map(|&w| b.add_node(w)).collect();
        for &(u, v) in edges {
            b.add_edge(nodes[u], nodes[v]).expect("valid edge");
        }
        DagTask::with_implicit_deadline(b.build().expect("valid DAG"), period).expect("valid task")
    };
    let hp = task(
        502,
        &[15, 62, 72, 17, 85],
        &[(0, 2), (0, 3), (0, 4), (2, 1), (3, 1), (4, 1)],
    );
    let lp = task(
        1216,
        &[18, 15, 36, 42, 96, 93, 79, 26, 91, 60, 52],
        &[
            (0, 2),
            (0, 3),
            (0, 5),
            (0, 7),
            (0, 8),
            (2, 1),
            (3, 4),
            (4, 1),
            (5, 6),
            (6, 1),
            (7, 1),
            (8, 9),
            (9, 10),
            (10, 1),
        ],
    );
    TaskSet::new(vec![
        hp.named("τ_hp (under analysis)"),
        lp.named("τ_lp (blocking)"),
    ])
}

/// Table I of the paper: `µ_i[c]` for `c = 1..4`, for each Figure 1 task.
/// Used as golden values by tests in this workspace.
pub const TABLE_I: [[u64; 4]; 4] = [
    [3, 5, 6, 5],  // µ_1
    [4, 7, 0, 0],  // µ_2
    [6, 7, 9, 11], // µ_3
    [5, 9, 12, 0], // µ_4
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::parallel_sets_exact;
    use rta_combinatorics::{max_weight_clique_weight, CliqueScratch};

    /// Recompute µ_i[c] from a DAG with the clique solver.
    fn mu(dag: &Dag, c: usize) -> u64 {
        let adj = parallel_sets_exact(dag);
        max_weight_clique_weight(&adj, dag.wcets(), c, &mut CliqueScratch::new()).unwrap_or(0)
    }

    #[test]
    fn table_i_is_reproduced_exactly() {
        for (i, dag) in figure1_dags().iter().enumerate() {
            for c in 1..=4usize {
                assert_eq!(mu(dag, c), TABLE_I[i][c - 1], "µ_{}[{}] mismatch", i + 1, c);
            }
        }
    }

    #[test]
    fn tau1_structure_matches_worked_example() {
        let dag = figure1_tau1();
        assert_eq!(dag.node_count(), 8);
        // SUCC(v_{1,2}) = {v6, v8}, SUCC(v_{1,4}) = {v7, v8} (Section V-A1).
        assert_eq!(
            dag.descendants(crate::NodeId::new(1))
                .iter()
                .collect::<Vec<_>>(),
            vec![5, 7]
        );
        assert_eq!(
            dag.descendants(crate::NodeId::new(3))
                .iter()
                .collect::<Vec<_>>(),
            vec![6, 7]
        );
    }

    #[test]
    fn tau2_has_max_parallelism_two() {
        assert_eq!(figure1_tau2().max_parallelism(), 2);
    }

    #[test]
    fn tau4_source_not_parallel_with_v44() {
        let dag = figure1_tau4();
        let par = parallel_sets_exact(&dag);
        // v_{4,1} (index 0) and v_{4,4} (index 3) cannot execute in parallel.
        assert!(!par[0].contains(3));
    }

    #[test]
    fn lp_max_pool_matches_paper() {
        // Δ⁴_max = C_{3,1} + C_{4,1} + C_{4,4} + C_{2,2} = 20;
        // Δ³_max = 16.
        let mut all: Vec<u64> = figure1_dags()
            .iter()
            .flat_map(|d| d.wcets().to_vec())
            .collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(all[..4].iter().sum::<u64>(), 20);
        assert_eq!(all[..3].iter().sum::<u64>(), 16);
    }

    #[test]
    fn figure1_task_set_is_well_formed() {
        let ts = figure1_task_set();
        assert_eq!(ts.len(), 5);
        assert_eq!(ts.lower_priority(0).len(), 4);
        assert!(ts.tasks().iter().all(|t| !t.is_trivially_infeasible()));
    }
}
