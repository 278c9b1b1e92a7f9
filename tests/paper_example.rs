//! End-to-end golden tests: every number the paper derives from its
//! Figure 1 running example, reproduced through the public API.

use dag_lp_rta::analysis::blocking::lpmax::lp_max_blocking;
use dag_lp_rta::analysis::blocking::mu::mu_array;
use dag_lp_rta::analysis::blocking::paper_ilp::{mu_array_ilp, rho_ilp};
use dag_lp_rta::analysis::blocking::scenarios::{blocking_from_mu, rho};
use dag_lp_rta::combinatorics::{partition_count, partitions, Partition};
use dag_lp_rta::model::examples::{figure1_dags, figure1_task_set, TABLE_I};
use dag_lp_rta::model::parallel_sets_algorithm1;
use dag_lp_rta::model::NodeId;
use dag_lp_rta::prelude::*;

/// Table I: the per-task worst-case workloads µ_i[c], via the clique
/// solver and the paper's ILP.
#[test]
fn table_i() {
    for (i, dag) in figure1_dags().iter().enumerate() {
        assert_eq!(mu_array(dag, 4), TABLE_I[i], "µ_{} via clique", i + 1);
        assert_eq!(mu_array_ilp(dag, 4), TABLE_I[i], "µ_{} via ILP", i + 1);
    }
}

/// Table II: e_4 has p(4) = 5 scenarios, and they are the partitions of 4.
#[test]
fn table_ii() {
    let scenarios: Vec<Partition> = partitions(4).collect();
    assert_eq!(scenarios.len(), 5);
    assert_eq!(partition_count(4), 5);
    let rendered: Vec<String> = scenarios.iter().map(Partition::to_string).collect();
    for expected in ["{1,1,1,1}", "{2,2}", "{2,1,1}", "{3,1}", "{4}"] {
        assert!(rendered.iter().any(|s| s == expected), "missing {expected}");
    }
}

/// Table III: the overall worst-case workloads per scenario, via the
/// Hungarian solver and the paper's ILP.
#[test]
fn table_iii() {
    let mu: Vec<Vec<u64>> = TABLE_I.iter().map(|r| r.to_vec()).collect();
    let expected = [
        ("{1,1,1,1}", 18),
        ("{2,2}", 16),
        ("{2,1,1}", 19),
        ("{3,1}", 18),
        ("{4}", 11),
    ];
    for (scenario_str, want) in expected {
        let scenario = partitions(4)
            .find(|p| p.to_string() == scenario_str)
            .expect("scenario exists");
        assert_eq!(
            rho(&mu, &scenario),
            Some(want),
            "ρ[{scenario_str}] via Hungarian"
        );
        assert_eq!(
            rho_ilp(&mu, &scenario),
            Some(want),
            "ρ[{scenario_str}] via ILP"
        );
    }
}

/// Section IV-B3: Δ⁴ = 19 / Δ³ = 15 (LP-ILP) vs 20 / 16 (LP-max).
#[test]
fn delta_comparison() {
    let mu: Vec<Vec<u64>> = TABLE_I.iter().map(|r| r.to_vec()).collect();
    let ilp = blocking_from_mu(&mu, 4, ScenarioSpace::PaperExact);
    assert_eq!(ilp.delta_m, 19);
    assert_eq!(ilp.delta_m_minus_one, 15);

    let tasks: Vec<DagTask> = figure1_dags()
        .into_iter()
        .map(|d| DagTask::with_implicit_deadline(d, 1_000).expect("valid"))
        .collect();
    let max = lp_max_blocking(&tasks, 4);
    assert_eq!(max.delta_m, 20);
    assert_eq!(max.delta_m_minus_one, 16);
}

/// Section V-A1 worked example: the Par sets of τ1 computed by Algorithm 1.
#[test]
fn algorithm1_worked_example() {
    let dag = figure1_dags().remove(0);
    let par = parallel_sets_algorithm1(&dag);
    // Par(v_{1,3}) = {v2, v4, v5, v7} (0-based indices 1, 3, 4, 6).
    assert_eq!(
        par[2].iter().collect::<Vec<_>>(),
        vec![1, 3, 4, 6],
        "Par(v_1,3)"
    );
    // The second loop adds v2, v3, v6 to Par(v_{1,7}).
    assert_eq!(
        par[6].iter().collect::<Vec<_>>(),
        vec![1, 2, 5],
        "Par(v_1,7)"
    );
    // Par(v_{1,1}) = ∅ (the source precedes everything).
    assert!(par[0].is_empty());
    // SUCC sets quoted by the example.
    assert_eq!(
        dag.descendants(NodeId::new(1)).iter().collect::<Vec<_>>(),
        vec![5, 7],
        "SUCC(v_1,2)"
    );
}

/// The whole example through `analyze`: the highest-priority task above the
/// Figure 1 set sees exactly the Table III blocking.
#[test]
fn analysis_end_to_end() {
    let ts = figure1_task_set();
    let ilp = analyze(
        &ts,
        &AnalysisConfig::new(4, Method::LpIlp).with_scenario_space(ScenarioSpace::PaperExact),
    );
    assert!(ilp.schedulable);
    let blocking = ilp.tasks[0].blocking.unwrap();
    assert_eq!((blocking.delta_m, blocking.delta_m_minus_one), (19, 15));

    let max = analyze(&ts, &AnalysisConfig::new(4, Method::LpMax));
    let blocking = max.tasks[0].blocking.unwrap();
    assert_eq!((blocking.delta_m, blocking.delta_m_minus_one), (20, 16));

    // LP-ILP bound is at least as tight as LP-max on every task.
    for (a, b) in ilp.tasks.iter().zip(&max.tasks) {
        assert!(a.response_bound.scaled() <= b.response_bound.scaled());
    }
}
