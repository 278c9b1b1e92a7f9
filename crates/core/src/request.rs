//! The unified analysis API: one request in, one outcome out.
//!
//! [`AnalysisRequest`] names the whole design space of one analysis
//! question — *which methods*, *which platform*, *bounds or verdicts only*
//! — and resolves every combination to a single result type,
//! [`AnalysisOutcome`]:
//!
//! * **verdict-only requests** (`want_bounds == false`) run the
//!   method-dominance chain — FP-ideal first (settling the whole request
//!   when it fails), LP-ILP answered from LP-max's positive verdict,
//!   LP-sound on its own combinatorics-free fixed point — so a sweep cell
//!   or an admission-control server pays the combinatorial blocking
//!   machinery only when a verdict actually needs it;
//! * **bound-carrying requests** (`want_bounds == true`) run every
//!   requested method's own fixed point and return the per-task response
//!   bounds of the analyzed prefix — what empirical validation and clients
//!   that act on slack need.
//!
//! Both shapes share one [`TaskSetCache`] per task set; [`evaluate_with`]
//! lets callers share it across requests too. Proptests pin both shapes
//! to the uncached reference [`crate::analyze_uncached`].
//!
//! The request derives [`Hash`]/[`Eq`], so it doubles as the memo key of
//! the admission-control LRU ([`crate::lru::AnalysisLru`]) and as the wire
//! contract of `repro serve`.
//!
//! [`evaluate_with`]: AnalysisRequest::evaluate_with
//!
//! # Example
//!
//! ```
//! use rta_analysis::{AnalysisRequest, Method};
//! use rta_model::examples::figure1_task_set;
//!
//! let task_set = figure1_task_set();
//! let outcome = AnalysisRequest::new(4).evaluate(&task_set);
//! // All six methods accept the paper's running example on 4 cores.
//! assert!(outcome.verdicts().iter().all(|&ok| ok));
//! assert_eq!(outcome.verdict(Method::LpSound), Some(true));
//!
//! // Bounds on request: per-task response bounds of the analyzed prefix.
//! let outcome = AnalysisRequest::new(4)
//!     .with_methods([Method::LpIlp])
//!     .with_bounds(true)
//!     .evaluate(&task_set);
//! let bounds = outcome.outcomes()[0].bounds.as_ref().unwrap();
//! assert_eq!(bounds.len(), task_set.len());
//! ```

use crate::cache::TaskSetCache;
use crate::config::{AnalysisConfig, Method, ScenarioSpace};
use crate::report::ResponseBound;
use crate::rta;
use rta_model::TaskSet;

/// One analysis question, fully specified: task-set-independent platform
/// and method selection plus LP-ILP's scenario space.
///
/// Requests are cheap to clone and hash — the admission-control layers key
/// their memoization on `(task-set hash, request)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisRequest {
    /// Number of identical cores `m ≥ 1`.
    pub cores: usize,
    /// The methods to answer, in answer order. Duplicates are allowed and
    /// answered from one evaluation each.
    pub methods: Vec<Method>,
    /// `true` to materialize per-task response bounds (each requested
    /// method then runs its own fixed point); `false` for verdicts only,
    /// short-circuited through the method-dominance chain.
    pub want_bounds: bool,
    /// Scenario space for `Δ^m` / `Δ^{m−1}` (LP-ILP only).
    pub scenario_space: ScenarioSpace,
}

impl AnalysisRequest {
    /// A verdict-only request for all six methods over the default
    /// scenario space.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        assert!(cores >= 1, "at least one core required");
        Self {
            cores,
            methods: Method::ALL.to_vec(),
            want_bounds: false,
            scenario_space: ScenarioSpace::default(),
        }
    }

    /// Selects the methods to answer (in answer order).
    #[must_use]
    pub fn with_methods(mut self, methods: impl IntoIterator<Item = Method>) -> Self {
        self.methods = methods.into_iter().collect();
        self
    }

    /// Requests (or drops) per-task response bounds.
    #[must_use]
    pub fn with_bounds(mut self, want_bounds: bool) -> Self {
        self.want_bounds = want_bounds;
        self
    }

    /// Selects the scenario space.
    #[must_use]
    pub fn with_scenario_space(mut self, space: ScenarioSpace) -> Self {
        self.scenario_space = space;
        self
    }

    /// The single-method configuration this request implies for `method`.
    pub fn config_for(&self, method: Method) -> AnalysisConfig {
        AnalysisConfig {
            cores: self.cores,
            method,
            scenario_space: self.scenario_space,
        }
    }

    /// Evaluates the request against a task set, building a
    /// [`TaskSetCache`] internally.
    pub fn evaluate(&self, task_set: &TaskSet) -> AnalysisOutcome {
        let cache = TaskSetCache::new(task_set, self.cores);
        self.evaluate_with(&cache)
    }

    /// Evaluates the request through a caller-owned cache (shared across
    /// requests over the same task set).
    ///
    /// # Panics
    ///
    /// Panics if `self.cores > cache.max_cores()`.
    pub fn evaluate_with(&self, cache: &TaskSetCache<'_>) -> AnalysisOutcome {
        assert!(
            self.cores <= cache.max_cores(),
            "request wants {} cores but the cache was built for {}",
            self.cores,
            cache.max_cores()
        );
        if self.methods.is_empty() {
            return AnalysisOutcome {
                cores: self.cores,
                outcomes: Vec::new(),
            };
        }
        let outcomes = if self.want_bounds {
            self.evaluate_bounds(cache)
        } else {
            self.evaluate_verdicts(cache)
        };
        AnalysisOutcome {
            cores: self.cores,
            outcomes,
        }
    }

    /// The bound-carrying shape: each distinct method runs its own fixed
    /// point once; duplicates share the evaluation.
    fn evaluate_bounds(&self, cache: &TaskSetCache<'_>) -> Vec<MethodOutcome> {
        let mut memo: [Option<(bool, Vec<ResponseBound>)>; 6] = [const { None }; 6];
        self.methods
            .iter()
            .map(|&method| {
                let slot = &mut memo[method_index(method)];
                let (schedulable, bounds) = slot
                    .get_or_insert_with(|| rta::bounds_with(cache, &self.config_for(method)))
                    .clone();
                MethodOutcome {
                    method,
                    schedulable,
                    bounds: Some(bounds),
                }
            })
            .collect()
    }

    /// The verdict-only shape: the method-dominance chain.
    ///
    /// All six methods iterate the same monotone fixed-point shape and
    /// differ only in the interference terms it consumes. The fixed point
    /// is monotone non-decreasing in those terms and in the
    /// higher-priority response bounds, so induction over the priority
    /// order turns per-task orderings of the terms into verdict edges:
    /// LP-ILP's `ρ` sums distinct lower-priority tasks' `µ_i[c]`, each at
    /// most the sum of the `c` largest NPRs of `τ_i`, so `Δ_ILP` never
    /// exceeds LP-max's pooled NPRs (Eq. (5)); LP-sound adds a
    /// non-negative monotone term to FP-ideal's recurrence; and see the
    /// dominance sections of [`crate::gen_sporadic`] and
    /// [`crate::long_paths`] for the two competitor methods:
    ///
    /// ```text
    /// LP-max schedulable ⇒ LP-ILP schedulable ⇒ FP-ideal schedulable
    /// LP-sound schedulable ⇒ FP-ideal schedulable
    /// Gen-sporadic schedulable ⇒ FP-ideal schedulable
    /// FP-ideal schedulable ⇒ Long-paths schedulable
    /// ```
    ///
    /// No edge connects LP-sound to LP-ILP or LP-max: the sound bound
    /// charges whole lower-priority job volumes where the paper's bounds
    /// charge a few NPRs per event, and neither dominates on every set.
    ///
    /// FP-ideal is therefore always evaluated first — it touches no
    /// blocking machinery at all, and a negative verdict settles every
    /// method of the request except Long-paths. LP-ILP is answered from
    /// LP-max's cheap positive verdict when possible; its own combinatorial
    /// blocking runs only when FP-ideal passes and LP-max fails. LP-sound
    /// and Gen-sporadic, when requested and not settled by FP-ideal, run
    /// their own (combinatorics-free) fixed points. Long-paths is the one
    /// method FP-ideal dominates in the *opposite* direction: its per-task
    /// bound never exceeds FP-ideal's, so an FP-ideal **pass** settles it
    /// positively — while an FP-ideal *failure* settles nothing (the
    /// deadline-window rescue of [`crate::long_paths`] can accept sets the
    /// Graham recurrence diverges on), so only then does it run its own
    /// fixed point.
    fn evaluate_verdicts(&self, cache: &TaskSetCache<'_>) -> Vec<MethodOutcome> {
        let wants = |method: Method| self.methods.contains(&method);
        let fp = rta::verdict_with(cache, &self.config_for(Method::FpIdeal));
        let (ilp, max, sound, gen) = if !fp {
            (false, false, false, false)
        } else {
            let max = if wants(Method::LpMax) || wants(Method::LpIlp) {
                rta::verdict_with(cache, &self.config_for(Method::LpMax))
            } else {
                false
            };
            let ilp = if !wants(Method::LpIlp) {
                false
            } else if max {
                true // dominated: LP-max schedulable ⇒ LP-ILP schedulable
            } else {
                rta::verdict_with(cache, &self.config_for(Method::LpIlp))
            };
            let sound = wants(Method::LpSound)
                && rta::verdict_with(cache, &self.config_for(Method::LpSound));
            let gen = wants(Method::GenSporadic)
                && rta::verdict_with(cache, &self.config_for(Method::GenSporadic));
            (ilp, max, sound, gen)
        };
        let long = wants(Method::LongPaths)
            && (fp || rta::verdict_with(cache, &self.config_for(Method::LongPaths)));
        self.methods
            .iter()
            .map(|&method| MethodOutcome {
                method,
                schedulable: match method {
                    Method::FpIdeal => fp,
                    Method::LpIlp => ilp,
                    Method::LpMax => max,
                    Method::LpSound => sound,
                    Method::LongPaths => long,
                    Method::GenSporadic => gen,
                },
                bounds: None,
            })
            .collect()
    }
}

fn method_index(method: Method) -> usize {
    Method::ALL
        .iter()
        .position(|&m| m == method)
        .expect("every method appears in Method::ALL")
}

/// The verdict (and optional bounds) of one requested method.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodOutcome {
    /// The method this outcome answers.
    pub method: Method,
    /// `true` iff every task met its deadline bound.
    pub schedulable: bool,
    /// Per-task response bounds of the analyzed prefix, highest priority
    /// first — up to and including the first unschedulable task. `Some`
    /// iff the request asked for bounds; when `schedulable` is false the
    /// last entry is the first iterate that crossed its deadline.
    pub bounds: Option<Vec<ResponseBound>>,
}

impl MethodOutcome {
    /// The bound of the `k`-th highest-priority task, if the request asked
    /// for bounds and the analyzed prefix reached it.
    pub fn bound(&self, k: usize) -> Option<ResponseBound> {
        self.bounds.as_ref().and_then(|b| b.get(k).copied())
    }
}

/// What an [`AnalysisRequest`] resolves to: one [`MethodOutcome`] per
/// requested method, in request order.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisOutcome {
    /// Core count the request ran with.
    pub cores: usize,
    outcomes: Vec<MethodOutcome>,
}

impl AnalysisOutcome {
    /// Assembles an outcome from parts (the LRU reconstructs cached
    /// outcomes method by method).
    pub(crate) fn from_parts(cores: usize, outcomes: Vec<MethodOutcome>) -> Self {
        Self { cores, outcomes }
    }

    /// The per-method outcomes, in request order.
    pub fn outcomes(&self) -> &[MethodOutcome] {
        &self.outcomes
    }

    /// The schedulability flags, in request order.
    pub fn verdicts(&self) -> Vec<bool> {
        self.outcomes.iter().map(|o| o.schedulable).collect()
    }

    /// The verdict of the first outcome answering `method`, if any.
    pub fn verdict(&self, method: Method) -> Option<bool> {
        self.outcomes
            .iter()
            .find(|o| o.method == method)
            .map(|o| o.schedulable)
    }

    /// The first outcome answering `method`, if any.
    pub fn outcome(&self, method: Method) -> Option<&MethodOutcome> {
        self.outcomes.iter().find(|o| o.method == method)
    }

    /// Consumes the outcome into its per-method parts.
    pub fn into_outcomes(self) -> Vec<MethodOutcome> {
        self.outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::examples::figure1_task_set;

    #[test]
    fn default_request_answers_all_methods() {
        let ts = figure1_task_set();
        let outcome = AnalysisRequest::new(4).evaluate(&ts);
        assert_eq!(outcome.cores, 4);
        assert_eq!(outcome.outcomes().len(), 6);
        for (mo, &method) in outcome.outcomes().iter().zip(Method::ALL.iter()) {
            assert_eq!(mo.method, method);
            assert!(mo.schedulable);
            assert!(mo.bounds.is_none());
        }
    }

    #[test]
    fn bounds_are_materialized_on_request() {
        let ts = figure1_task_set();
        let outcome = AnalysisRequest::new(4).with_bounds(true).evaluate(&ts);
        for mo in outcome.outcomes() {
            let bounds = mo.bounds.as_ref().expect("bounds requested");
            assert_eq!(bounds.len(), ts.len(), "{}", mo.method);
        }
    }

    #[test]
    fn duplicate_methods_share_one_evaluation() {
        let ts = figure1_task_set();
        let outcome = AnalysisRequest::new(4)
            .with_methods([Method::LpIlp, Method::LpIlp])
            .with_bounds(true)
            .evaluate(&ts);
        let [a, b] = outcome.outcomes() else {
            panic!("two outcomes expected");
        };
        assert_eq!(a, b);
    }

    #[test]
    fn verdict_lookup_by_method() {
        let ts = figure1_task_set();
        let outcome = AnalysisRequest::new(4)
            .with_methods([Method::FpIdeal])
            .evaluate(&ts);
        assert_eq!(outcome.verdict(Method::FpIdeal), Some(true));
        assert_eq!(outcome.verdict(Method::LpIlp), None);
        assert!(outcome.outcome(Method::LpIlp).is_none());
    }

    #[test]
    fn empty_method_list_is_an_empty_outcome() {
        let ts = figure1_task_set();
        let outcome = AnalysisRequest::new(4).with_methods([]).evaluate(&ts);
        assert!(outcome.outcomes().is_empty());
        assert!(outcome.verdicts().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = AnalysisRequest::new(0);
    }

    #[test]
    fn request_is_a_hashable_memo_key() {
        use std::collections::HashMap;
        let mut memo: HashMap<AnalysisRequest, u32> = HashMap::new();
        memo.insert(AnalysisRequest::new(4), 1);
        memo.insert(AnalysisRequest::new(4).with_bounds(true), 2);
        assert_eq!(memo.get(&AnalysisRequest::new(4)), Some(&1));
        assert_eq!(memo.len(), 2);
    }
}
