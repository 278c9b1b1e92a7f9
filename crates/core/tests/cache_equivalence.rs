//! The caching contract, end to end: requests sharing one cache across
//! methods and calls are bit-identical to the original per-call path, the
//! per-task-set precomputation really computes each µ-array exactly once,
//! and the cached LP-ILP blocking pair equals the paper's ILP formulation.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::blocking::mu::{mu_array, mu_array_computations};
use rta_analysis::blocking::paper_ilp::{blocking_from_mu_ilp, mu_array_ilp};
use rta_analysis::blocking::scenarios::delta;
use rta_analysis::cache::TaskSetCache;
use rta_analysis::{
    analyze, analyze_uncached, AnalysisConfig, AnalysisRequest, Method, ScenarioSpace,
};
use rta_model::examples::figure1_task_set;
use rta_model::{TaskSet, Time};
use rta_taskgen::{
    generate_task_set, group1, group2, DagGenConfig, DagShape, TaskKind, TaskSetConfig,
};

/// Every method under both scenario spaces, all at the same core count, as
/// bound-carrying requests.
fn request_matrix(cores: usize) -> [AnalysisRequest; 2] {
    let all = AnalysisRequest::new(cores).with_bounds(true);
    [
        all.clone(),
        all.with_methods([Method::LpIlp])
            .with_scenario_space(ScenarioSpace::PaperExact),
    ]
}

/// The largest platform the ILP cross-check covers: every partition of
/// `m ≤ 5` pins its core-count multiset, so the ILP's `ρ` is exact there
/// (see `rta_analysis::blocking::paper_ilp`).
const ILP_MAX_CORES: usize = 5;

/// `config` with every DAG family capped at `ILP_MAX_NODES` nodes. The µ
/// ILP carries one auxiliary variable per node pair, so solving it on the
/// presets' 30-node DAGs takes minutes per set; the cap keeps the
/// cross-check at the size `tests/cross_validation.rs` already uses.
fn with_ilp_sized_dags(mut config: TaskSetConfig) -> TaskSetConfig {
    const ILP_MAX_NODES: usize = 12;
    let capped = config
        .kind
        .entries()
        .iter()
        .map(|(weight, shape)| {
            let cap = |dag: &DagGenConfig| DagGenConfig {
                max_nodes: dag.max_nodes.min(ILP_MAX_NODES),
                ..dag.clone()
            };
            let shape = match shape {
                DagShape::ForkJoin(dag) => DagShape::ForkJoin(cap(dag)),
                DagShape::Chain(dag) => DagShape::Chain(cap(dag)),
            };
            (*weight, shape)
        })
        .collect();
    config.kind = TaskKind::mixture(capped);
    config
}

/// Checks `TaskSetCache::lp_ilp_blocking` for every task, every
/// `m ∈ 1..=5` and both scenario spaces against the blocking pair built
/// from the paper's ILP formulations alone. Returns the first mismatch.
fn check_against_paper_ilp(ts: &TaskSet) -> Result<(), String> {
    let cache = TaskSetCache::new(ts, ILP_MAX_CORES);
    // µ via the Section V-A2 ILP, once per task at the largest m (each
    // entry is an independent solve, so prefixes serve smaller m).
    let mu: Vec<Vec<Time>> = ts
        .tasks()
        .iter()
        .map(|t| mu_array_ilp(t.dag(), ILP_MAX_CORES))
        .collect();
    for m in 1..=ILP_MAX_CORES {
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            for k in 0..ts.len() {
                let lp: Vec<Vec<Time>> = mu[k + 1..].iter().map(|a| a[..m].to_vec()).collect();
                let reference = blocking_from_mu_ilp(&lp, m, space);
                let cached = cache.lp_ilp_blocking(k, m, space);
                if cached != reference {
                    return Err(format!(
                        "task {k}, m = {m}, {space:?}: cache {cached:?}, ILP {reference:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Evaluates the whole matrix through one shared cache and checks every
/// outcome against the uncached reference — and the cached full-report
/// path [`analyze`] against it too. Returns the first mismatch.
fn check_matrix(ts: &TaskSet, cores: usize) -> Result<(), String> {
    let cache = TaskSetCache::new(ts, cores);
    for request in request_matrix(cores) {
        for answer in request.evaluate_with(&cache).outcomes() {
            let config = request.config_for(answer.method);
            let reference = analyze_uncached(ts, &config);
            if analyze(ts, &config) != reference {
                return Err(format!("analyze vs uncached, {config:?}"));
            }
            let bounds: Vec<_> = reference.tasks.iter().map(|t| t.response_bound).collect();
            if answer.schedulable != reference.schedulable
                || answer.bounds.as_ref() != Some(&bounds)
            {
                return Err(format!("request vs uncached, {config:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The request matrix through one shared cache is bit-identical to
    /// independent uncached analyses on randomly generated task sets.
    #[test]
    fn shared_cache_requests_match_uncached_on_random_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=70,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        prop_assert_eq!(check_matrix(&ts, cores), Ok(()));
    }

    /// Same bit-identity on the group-2 generator (uniformly parallel
    /// DAGs), whose task sets have very different µ structure.
    #[test]
    fn shared_cache_requests_match_on_group2_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group2(cores as f64 / 2.0));
        prop_assert_eq!(check_matrix(&ts, cores), Ok(()));
    }

    /// LP-ILP's fixed point reads µ and ρ only through the cached
    /// `(Δ^m, Δ^{m−1})` pair, so pinning that pair to the paper's ILP on
    /// random group-1 and group-2 sets pins LP-ILP's verdicts and bounds to
    /// the paper's formulation end to end.
    #[test]
    fn cached_lp_ilp_blocking_matches_the_paper_ilp(
        seed in 0u64..1_000_000,
        group_two in any::<bool>(),
        load_percent in 10u32..=70,
    ) {
        let target = ILP_MAX_CORES as f64 * load_percent as f64 / 100.0;
        let config = with_ilp_sized_dags(if group_two { group2(target) } else { group1(target) });
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &config);
        prop_assert_eq!(check_against_paper_ilp(&ts), Ok(()));
    }
}

/// Cached µ and Δ agree with the direct (uncached) computations on the
/// Figure 1 example for every platform slice `m ∈ 1..=8`.
#[test]
fn figure1_cached_mu_and_delta_match_uncached_for_all_core_counts() {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 8);
    for m in 1..=8usize {
        for (k, task) in ts.tasks().iter().enumerate() {
            assert_eq!(
                cache.mu(k)[..m],
                mu_array(task.dag(), m),
                "µ of task {k} at m = {m}"
            );
        }
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            for k in 0..ts.len() {
                let mu_arrays: Vec<Vec<Time>> = ts
                    .lower_priority(k)
                    .iter()
                    .map(|t| mu_array(t.dag(), m))
                    .collect();
                assert_eq!(
                    cache.delta(k, m, space),
                    delta(&mu_arrays, m, space),
                    "Δ of task {k} at m = {m} ({space:?})"
                );
            }
        }
    }
}

/// Large platforms exercise the *mixed* suffix-DP column: every `e_m` at
/// m ≥ 8 (with this few tasks) mixes DP-sized and too-large scenarios, so
/// the cached value combines the shared DP column with a per-task solve of
/// the remainder — and must still equal the direct computation exactly.
#[test]
fn figure1_cached_delta_matches_uncached_up_to_16_cores() {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 16);
    // Query in priority order (like the analysis) so column mode engages
    // from the second distinct task on.
    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
        for m in [8usize, 12, 16] {
            for k in 0..ts.len() {
                let mu_arrays: Vec<Vec<Time>> = ts
                    .lower_priority(k)
                    .iter()
                    .map(|t| mu_array(t.dag(), m))
                    .collect();
                assert_eq!(
                    cache.delta(k, m, space),
                    delta(&mu_arrays, m, space),
                    "Δ of task {k} at m = {m} ({space:?})"
                );
            }
        }
    }
}

/// The headline caching guarantee: one cache serving every method and
/// variant computes each needed µ-array exactly once per task set —
/// independent of how many methods, spaces or tasks under analysis read it.
#[test]
fn shared_cache_computes_mu_once_per_task() {
    let ts = figure1_task_set();
    let evaluate_matrix = || {
        let cache = TaskSetCache::new(&ts, 4);
        for request in request_matrix(4) {
            let _ = request.evaluate_with(&cache);
        }
    };

    let before = mu_array_computations();
    evaluate_matrix();
    let per_batch = mu_array_computations() - before;
    // Only lower-priority tasks' µ-arrays are ever consumed (`lp(k)` for
    // some k), i.e. every task except the highest-priority one.
    assert_eq!(
        per_batch,
        ts.len() as u64 - 1,
        "one cache must compute µ exactly once per lower-priority task"
    );

    // A fresh cache: same count again, while the uncached reference
    // recomputes µ per task under analysis.
    let before = mu_array_computations();
    evaluate_matrix();
    assert_eq!(mu_array_computations() - before, ts.len() as u64 - 1);

    let before = mu_array_computations();
    let _ = analyze_uncached(&ts, &AnalysisConfig::new(4, Method::LpIlp));
    let uncached = mu_array_computations() - before;
    // Σ_{k} |lp(k)| = n(n−1)/2 — the O(n²) recomputation the cache kills.
    assert_eq!(uncached, (ts.len() * (ts.len() - 1) / 2) as u64);
}
