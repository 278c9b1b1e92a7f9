//! Per-task-set precomputation: the analysis cache.
//!
//! The paper stresses that the per-task worst-case workloads `µ_i[c]` are a
//! property of the task alone, computable "at compile time" (Section V-A) —
//! independent of which task is under analysis, of the platform slice and
//! of the analysis method. The same holds for every other quantity the
//! fixed-point iteration touches repeatedly: the "can run in parallel"
//! adjacency, the LP-max WCET pools of Eq. (5), the long-chain
//! decompositions of Long-paths and the per-cardinality scenario maxima
//! behind `Δ^m` / `Δ^{m−1}` (Eq. (8)). The scalars Eq. (4) reads — `L_k`,
//! `vol(G_k)`, `q_k`, `D_k`, `T_k` — are already stored in the model, so
//! the analysis reads them from the [`TaskSet`] and the cache keeps none.
//!
//! [`TaskSetCache`] materializes the tables **once per task set**: each
//! sits behind an [`OnceCell`] and is computed on first use, then shared by
//! every subsequent query. An unschedulable set that dies at the
//! highest-priority task therefore pays no more than the uncached analysis
//! did, while one bound-carrying [`crate::AnalysisRequest`] over several
//! methods pays the combinatorial cost exactly once.
//!
//! µ-arrays are computed at the cache's `max_cores` and *sliced* for
//! smaller platform slices (each entry is an independent fixed-cardinality
//! clique search, so the array at `m` restricts to the array at any
//! `c ≤ m`). The Δ work is shared the same way: one `max ρ` value per
//! cardinality `c ∈ 1..=m` serves `Δ^m`, `Δ^{m−1}`, the
//! [`ScenarioSpace::PaperExact`] and [`ScenarioSpace::Extended`] spaces, and
//! every method reading them. Each table has one solver — the clique search
//! for µ, the Hungarian assignment and its suffix DP for `max ρ` — and the
//! paper's ILP ([`crate::blocking::paper_ilp`]) is their test reference.
//! The solvers draw their working memory from **per-thread** scratch
//! buffers (the thread-local `CLIQUE_SCRATCH` / `RHO_SCRATCH` statics)
//! shared across every task set the thread analyzes, so a streaming
//! sweep's inner loops allocate nothing once its workers are warm — not
//! merely nothing per query, but nothing per *task set*. Scenario lists are not cached here at all:
//! they depend only on the core count, so they come from the
//! **process-global** [`PartitionTable`] — enumerated once per process,
//! shared by every task set and worker thread of a whole sweep campaign.
//!
//! The cache is deliberately **single-threaded** (interior mutability via
//! [`OnceCell`] / [`RefCell`]): sweep campaigns parallelize over task sets,
//! with each worker building its own cache, so nothing here needs
//! synchronization.
//!
//! # Example
//!
//! ```
//! use rta_analysis::cache::TaskSetCache;
//! use rta_analysis::AnalysisRequest;
//! use rta_model::examples::figure1_task_set;
//!
//! let task_set = figure1_task_set();
//! let cache = TaskSetCache::new(&task_set, 4);
//! // µ of τ3 (Table I), computed once and shared by every query below.
//! assert_eq!(cache.mu(3), &[6, 7, 9, 11]);
//! // All six methods answered from the shared tables in one request.
//! let outcome = AnalysisRequest::new(4).with_bounds(true).evaluate_with(&cache);
//! assert!(outcome.verdicts().iter().all(|&ok| ok));
//! ```

use crate::blocking::scenarios::{max_rho, rho_suffix_dp, RhoScratch};
use crate::blocking::sound::SoundBlocking;
use crate::blocking::{mu, BlockingBounds};
use crate::config::{AnalysisConfig, Method, ScenarioSpace};
use rta_combinatorics::{BitSet, CliqueScratch, PartitionTable};
use rta_model::{parallel_adjacency, TaskSet, Time};
use std::cell::{OnceCell, RefCell};

thread_local! {
    /// The calling thread's reusable clique-search working memory. Scratch
    /// buffers used to live inside each [`TaskSetCache`], which made their
    /// allocations once-per-task-set; a streaming sweep builds thousands of
    /// caches per worker, so the scratch now lives **per thread** and is
    /// reused across every task set the worker claims (sweep workers are
    /// threads, and the serial driver keeps one scratch for the whole
    /// campaign). The buffers are cleared by each solver invocation and
    /// never influence a result — equivalence with the uncached path stays
    /// pinned by `tests/cache_equivalence.rs`.
    static CLIQUE_SCRATCH: RefCell<CliqueScratch> = RefCell::new(CliqueScratch::new());
    /// Per-thread `ρ` assignment scratch, shared across task sets like
    /// [`CLIQUE_SCRATCH`].
    static RHO_SCRATCH: RefCell<RhoScratch> = RefCell::new(RhoScratch::new());
}

/// Everything about a [`TaskSet`] that the response-time analysis can
/// precompute and share across tasks under analysis, platform slices and
/// methods. See the [module docs](self) for what is cached and when.
pub struct TaskSetCache<'ts> {
    task_set: &'ts TaskSet,
    max_cores: usize,
    adjacency: Vec<OnceCell<Vec<BitSet>>>,
    /// `mu[i]`: `µ_i[1..=max_cores]` of task `i`. The cell vector itself
    /// is allocated on first touch, like the two `max ρ` tables below, so
    /// FP-ideal-only analyses cost nothing at construction.
    mu: OnceCell<Vec<OnceCell<Vec<Time>>>>,
    /// `max_rho[k][c − 1]`: `max_{s_l ∈ e_c} ρ_k[s_l]` over the partitions
    /// of exactly `c`, with `lp(k)` as the candidate tasks.
    max_rho: OnceCell<Vec<Vec<OnceCell<Time>>>>,
    /// `dp_columns[c − 1][k]`: the suffix-DP's `max ρ` over the
    /// **DP-eligible** scenarios of `e_c` for every task under analysis —
    /// computed once per cardinality column and shared by every `k`, so
    /// large platforms (m = 16) whose cardinality class mixes small and
    /// huge scenarios still amortize the small ones across tasks.
    dp_columns: OnceCell<Vec<OnceCell<Vec<Time>>>>,
    /// `lp_max[k]`: prefix sums of the pooled, descending lower-priority
    /// NPR WCETs — `prefix[c]` is Eq. (5)'s `Δ^c` for `c` up to the pool
    /// size (clamped at `max_cores`).
    lp_max: Vec<OnceCell<Vec<Time>>>,
    /// `long_paths[k]`: the vertex-disjoint chain decomposition of task
    /// `k`'s DAG ([`rta_model::Dag::long_path_decomposition`]) — the
    /// platform-independent input of [`Method::LongPaths`], computed on
    /// first use and shared across core slices.
    long_paths: Vec<OnceCell<Vec<Time>>>,
}

impl<'ts> TaskSetCache<'ts> {
    /// Builds the cache for platform slices of up to `max_cores` cores.
    /// Every table fills in lazily, on the first query that needs it.
    ///
    /// # Panics
    ///
    /// Panics if `max_cores == 0`.
    pub fn new(task_set: &'ts TaskSet, max_cores: usize) -> Self {
        assert!(max_cores >= 1, "at least one core required");
        let n = task_set.len();
        crate::metrics::CACHE_BUILDS.inc();
        Self {
            task_set,
            max_cores,
            adjacency: (0..n).map(|_| OnceCell::new()).collect(),
            mu: OnceCell::new(),
            max_rho: OnceCell::new(),
            dp_columns: OnceCell::new(),
            lp_max: (0..n).map(|_| OnceCell::new()).collect(),
            long_paths: (0..n).map(|_| OnceCell::new()).collect(),
        }
    }

    /// The task set this cache was built over.
    pub fn task_set(&self) -> &'ts TaskSet {
        self.task_set
    }

    /// The largest platform slice the cache serves; every query must stay
    /// at or below it.
    pub fn max_cores(&self) -> usize {
        self.max_cores
    }

    /// The long-chain decomposition `ℓ1 ≥ … ≥ ℓp` of task `k`'s DAG,
    /// computed on first use — what [`Method::LongPaths`]'s stall bound
    /// consumes. Platform-independent, so one cell serves every core slice.
    pub fn long_path_decomposition(&self, k: usize) -> &[Time] {
        self.long_paths[k].get_or_init(|| self.task_set.task(k).dag().long_path_decomposition())
    }

    /// The symmetric "can execute in parallel" adjacency of task `k`'s DAG,
    /// computed on first use.
    pub fn parallel_adjacency(&self, k: usize) -> &[BitSet] {
        self.adjacency[k].get_or_init(|| parallel_adjacency(self.task_set.task(k).dag()))
    }

    /// The µ-array `µ_k[1..=max_cores]` of task `k`, computed on first use
    /// and shared by every later query. For a platform slice of
    /// `c < max_cores` cores, use the first `c` entries.
    pub fn mu(&self, k: usize) -> &[Time] {
        let per_task = self
            .mu
            .get_or_init(|| (0..self.task_set.len()).map(|_| OnceCell::new()).collect());
        per_task[k].get_or_init(|| {
            crate::metrics::CACHE_MU_BUILDS.inc();
            let adjacency = self.parallel_adjacency(k);
            CLIQUE_SCRATCH.with(|scratch| {
                mu::mu_array_with(
                    self.task_set.task(k).dag(),
                    adjacency,
                    self.max_cores,
                    &mut scratch.borrow_mut(),
                )
            })
        })
    }

    /// `max_{s_l ∈ e_cores} ρ_k[s_l]`: the best scenario over the partitions
    /// of exactly `cores`, with `lp(k)` as the candidate tasks. Memoized per
    /// `(k, cores)`; 0 when no scenario is feasible.
    ///
    /// # Panics
    ///
    /// Panics if `cores > max_cores`.
    pub fn max_rho(&self, k: usize, cores: usize) -> Time {
        assert!(
            cores <= self.max_cores,
            "cores = {cores} exceeds the cache's max_cores = {}",
            self.max_cores
        );
        if cores == 0 {
            return 0;
        }
        let n = self.task_set.len();
        let per_task = self.max_rho.get_or_init(|| {
            (0..n)
                .map(|_| (0..self.max_cores).map(|_| OnceCell::new()).collect())
                .collect()
        });
        *per_task[k][cores - 1].get_or_init(|| {
            crate::metrics::CACHE_RHO_BUILDS.inc();
            // Scenario lists come from the process-global partition table:
            // enumerated once per process, not once per task set (let alone
            // once per query) — see `rta_combinatorics::PartitionTable`.
            let scenarios = PartitionTable::scenarios(cores as u32);

            // Column mode: scenarios of small enough cardinality are solved
            // by one suffix DP per scenario, yielding the `max ρ` of
            // *every* task under analysis at once — `lp(k)` shrinks one
            // task per priority, so the n per-task problems are suffixes of
            // each other. Eligibility is **per scenario**: a cardinality
            // class that mixes DP-sized and huge scenarios (every `e_m` at
            // m = 16 does — partitions of cardinality > ~10 blow the
            // `2^|s|` state space) still amortizes its DP-sized majority
            // across all tasks via a memoized column, and only the large
            // remainder falls back to a per-task Hungarian solve.
            //
            // The analysis walks k in priority order and most generated
            // sets at high utilization fail at k = 0 without ever asking
            // for k ≥ 1, so the first query of a column is answered
            // individually; the DP kicks in at the second distinct k, when
            // the remaining n − 1 rows are known to be worth amortizing.
            let dp_eligible = |cardinality: usize| {
                cardinality < 63 && (1u64 << cardinality) <= 4 * (cardinality * n) as u64
            };
            let column_untouched = || {
                (0..n)
                    .filter(|&i| i != k)
                    .all(|i| per_task[i][cores - 1].get().is_none())
            };
            let eligible = scenarios
                .iter()
                .filter(|s| dp_eligible(s.cardinality()))
                .count();
            if eligible > 0 && !column_untouched() {
                let dp_columns = self
                    .dp_columns
                    .get_or_init(|| (0..self.max_cores).map(|_| OnceCell::new()).collect());
                let column = dp_columns[cores - 1].get_or_init(|| {
                    let mu_tail: Vec<&[Time]> = (1..n).map(|i| self.mu(i)).collect();
                    let mut best = vec![0; n];
                    for scenario in scenarios.iter().filter(|s| dp_eligible(s.cardinality())) {
                        for (b, v) in best.iter_mut().zip(rho_suffix_dp(scenario, &mu_tail)) {
                            if let Some(v) = v {
                                *b = (*b).max(v);
                            }
                        }
                    }
                    best
                });
                if eligible == scenarios.len() {
                    // The DP covered the whole class: the column is final,
                    // publish it to every sibling cell immediately.
                    for (k_other, &value) in column.iter().enumerate() {
                        if k_other != k {
                            // Already-initialized siblings hold the same value.
                            let _ = per_task[k_other][cores - 1].set(value);
                        }
                    }
                    return column[k];
                }
                // Mixed class: combine the shared DP column with a per-task
                // solve over the (few) scenarios too large for the DP.
                let rest = scenarios.iter().filter(|s| !dp_eligible(s.cardinality()));
                let mu_refs: Vec<&[Time]> = (k + 1..n).map(|i| self.mu(i)).collect();
                return RHO_SCRATCH.with(|scratch| {
                    column[k].max(max_rho(rest, &mu_refs, &mut scratch.borrow_mut()))
                });
            }

            let mu_refs: Vec<&[Time]> = (k + 1..n).map(|i| self.mu(i)).collect();
            RHO_SCRATCH.with(|scratch| max_rho(scenarios, &mu_refs, &mut scratch.borrow_mut()))
        })
    }

    /// `Δ^cores_k` (Eq. (8)) over the chosen scenario space, derived from
    /// the memoized per-cardinality [`max_rho`](Self::max_rho) rows.
    pub fn delta(&self, k: usize, cores: usize, space: ScenarioSpace) -> Time {
        match space {
            ScenarioSpace::PaperExact => self.max_rho(k, cores),
            ScenarioSpace::Extended => (1..=cores).map(|c| self.max_rho(k, c)).max().unwrap_or(0),
        }
    }

    /// The precedence-aware blocking bounds of task `k` (Eqs. (6)–(8)),
    /// from the cached µ and `max ρ` tables.
    pub fn lp_ilp_blocking(&self, k: usize, cores: usize, space: ScenarioSpace) -> BlockingBounds {
        BlockingBounds {
            delta_m: self.delta(k, cores, space),
            delta_m_minus_one: if cores >= 2 {
                self.delta(k, cores - 1, space)
            } else {
                0
            },
        }
    }

    /// Prefix sums of the pooled descending lower-priority NPR WCETs of
    /// task `k` — `prefix[c]` is Eq. (5)'s sum of the `c` largest.
    fn lp_max_prefix(&self, k: usize) -> &[Time] {
        self.lp_max[k].get_or_init(|| {
            let mut pool: Vec<Time> = self
                .task_set
                .lower_priority(k)
                .iter()
                .flat_map(|t| t.dag().largest_wcets(self.max_cores))
                .collect();
            pool.sort_unstable_by(|a, b| b.cmp(a));
            pool.truncate(self.max_cores);
            let mut prefix = Vec::with_capacity(pool.len() + 1);
            prefix.push(0);
            for w in pool {
                prefix.push(prefix.last().copied().unwrap_or(0) + w);
            }
            prefix
        })
    }

    /// The LP-max blocking bounds of task `k` (Eq. (5)), from the cached
    /// prefix sums.
    ///
    /// # Panics
    ///
    /// Panics if `cores > max_cores` or `cores == 0`.
    pub fn lp_max_blocking(&self, k: usize, cores: usize) -> BlockingBounds {
        assert!(
            (1..=self.max_cores).contains(&cores),
            "cores = {cores} outside the cache's 1..={}",
            self.max_cores
        );
        let prefix = self.lp_max_prefix(k);
        let sum_of_largest = |count: usize| prefix[count.min(prefix.len() - 1)];
        BlockingBounds {
            delta_m: sum_of_largest(cores),
            delta_m_minus_one: sum_of_largest(cores - 1),
        }
    }

    /// The blocking bounds of task `k` under `config` — the cached
    /// equivalent of the per-method dispatch in [`crate::analyze`].
    pub fn blocking_for(&self, k: usize, config: &AnalysisConfig) -> Option<BlockingBounds> {
        match config.method {
            // LP-sound's corrected term is window-dependent, not a
            // (Δ^m, Δ^{m−1}) pair: see [`Self::sound_blocking_for`]. The
            // fully-preemptive competitor methods carry no blocking at all.
            Method::FpIdeal | Method::LpSound | Method::LongPaths | Method::GenSporadic => None,
            Method::LpMax => Some(self.lp_max_blocking(k, config.cores)),
            Method::LpIlp => Some(self.lp_ilp_blocking(k, config.cores, config.scenario_space)),
        }
    }

    /// The sound, window-dependent lower-priority term of task `k`
    /// ([`crate::blocking::sound`]). `None` unless the configuration's
    /// method is [`Method::LpSound`].
    pub fn sound_blocking_for(&self, k: usize, config: &AnalysisConfig) -> Option<SoundBlocking> {
        (config.method == Method::LpSound)
            .then(|| SoundBlocking::new(self.task_set.lower_priority(k), config.cores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::lpmax::lp_max_blocking;
    use crate::blocking::mu::mu_array;
    use crate::blocking::scenarios::blocking_from_mu;
    use rta_model::examples::{figure1_task_set, TABLE_I};

    #[test]
    fn mu_matches_direct_computation_and_slices() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for k in 0..ts.len() {
            let full = cache.mu(k);
            for c in 1..=8 {
                assert_eq!(
                    full[..c],
                    mu_array(ts.task(k).dag(), c),
                    "task {k}, c = {c}"
                );
            }
        }
        // Tasks 1..=4 are the Figure 1 DAGs; their 4-core prefixes are Table I.
        for (i, row) in TABLE_I.iter().enumerate() {
            assert_eq!(&cache.mu(i + 1)[..4], row);
        }
    }

    #[test]
    fn deltas_match_uncached_blocking() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for cores in 1..=8usize {
            for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                for k in 0..ts.len() {
                    let mu_arrays: Vec<Vec<Time>> = ts
                        .lower_priority(k)
                        .iter()
                        .map(|t| mu_array(t.dag(), cores))
                        .collect();
                    let uncached = blocking_from_mu(&mu_arrays, cores, space);
                    let cached = cache.lp_ilp_blocking(k, cores, space);
                    assert_eq!(cached, uncached, "task {k}, m = {cores}, {space:?}");
                }
            }
        }
    }

    #[test]
    fn lp_max_matches_uncached_blocking() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for cores in 1..=8usize {
            for k in 0..ts.len() {
                assert_eq!(
                    cache.lp_max_blocking(k, cores),
                    lp_max_blocking(ts.lower_priority(k), cores),
                    "task {k}, m = {cores}"
                );
            }
        }
    }

    #[test]
    fn mu_is_computed_once_per_task() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 4);
        let before = mu::mu_array_computations();
        // Query blocking for every task, core slice, and space, repeatedly.
        for _ in 0..3 {
            for k in 0..ts.len() {
                for cores in 1..=4 {
                    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                        let _ = cache.lp_ilp_blocking(k, cores, space);
                    }
                }
            }
        }
        // Only the lower-priority tasks' arrays are ever needed (the
        // highest-priority task blocks no one), each exactly once.
        assert_eq!(
            mu::mu_array_computations() - before,
            ts.len() as u64 - 1,
            "µ must be computed once per (lower-priority) task"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the cache's max_cores")]
    fn querying_beyond_max_cores_panics() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 2);
        let _ = cache.max_rho(0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_cache_panics() {
        let ts = figure1_task_set();
        let _ = TaskSetCache::new(&ts, 0);
    }
}
