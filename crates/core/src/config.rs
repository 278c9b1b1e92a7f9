//! Analysis configuration.

/// Which response-time analysis to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Fully-preemptive ideal baseline (paper Eq. (1)): no lower-priority
    /// blocking, preemption overheads ignored. This is the `FP-ideal` curve
    /// of the paper's Figure 2.
    FpIdeal,
    /// Limited preemption with the pessimistic blocking bound of Eq. (5):
    /// the `m` / `m−1` largest NPRs among all lower-priority tasks.
    LpMax,
    /// Limited preemption with the precedence-aware blocking bound of
    /// Eqs. (6)–(8): per-task parallel workloads combined over execution
    /// scenarios.
    LpIlp,
    /// Limited preemption with the **corrected, sound** blocking term of
    /// [`crate::blocking::sound`]: lower-priority tasks contribute their
    /// full carry-in workload over the response window (deadline-bounded
    /// carry-in), which in particular covers non-preemptive regions that
    /// *newly start* on cores the DAG under analysis leaves idle through
    /// its own precedence constraints — the blocking class that makes the
    /// paper's Eq. (3) optimistic (Nasri, Nelissen & Brandenburg,
    /// ECRTS 2019). The validation campaign checks this bound against both
    /// the eager- and the lazy-preemption simulator and treats any
    /// exceedance as a hard violation.
    LpSound,
    /// **Fully-preemptive competitor**: the long-path stall refinement of
    /// [`crate::long_paths`] (He, Guan et al., arXiv 2211.08800 spirit) —
    /// the Graham self-interference term `(vol − L)/m` is replaced by a
    /// greatest-fixed-point stall bound over a vertex-disjoint chain
    /// decomposition of the DAG, never worse than FP-ideal's bound and
    /// strictly tighter on DAGs with fewer long chains than cores. Being
    /// a fully-preemptive analysis, the validation campaign holds it to
    /// the hard zero-exceedance standard against the fully-preemptive
    /// simulation leg.
    LongPaths,
    /// **Fully-preemptive competitor**: the generalized-sporadic
    /// interference characterization of [`crate::gen_sporadic`] (Dinh,
    /// Gill & Agrawal, arXiv 1905.05119 spirit) — higher-priority
    /// carry-in windows anchored at deadlines instead of analyzed
    /// response bounds, sound for any release pattern with inter-arrivals
    /// of at least `T_i`, and never tighter than FP-ideal. Held to the
    /// same hard zero-exceedance validation standard.
    GenSporadic,
}

impl Method {
    /// All methods: the paper's three in plot order, then the corrected
    /// sound bound this reproduction adds as a fourth curve, then the two
    /// published fully-preemptive competitors of the benchmark panel —
    /// appended last so every index (and CSV column) of the first four
    /// stays stable.
    pub const ALL: [Method; 6] = [
        Method::FpIdeal,
        Method::LpIlp,
        Method::LpMax,
        Method::LpSound,
        Method::LongPaths,
        Method::GenSporadic,
    ];

    /// The paper's own three methods (Figure 2's curves), without the
    /// corrected bound — what the strict-reproduction comparisons use.
    pub const PAPER: [Method; 3] = [Method::FpIdeal, Method::LpIlp, Method::LpMax];

    /// The label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Method::FpIdeal => "FP-ideal",
            Method::LpMax => "LP-max",
            Method::LpIlp => "LP-ILP",
            Method::LpSound => "LP-sound",
            Method::LongPaths => "Long-paths",
            Method::GenSporadic => "Gen-sporadic",
        }
    }

    /// The machine-readable slug used in CSV columns and metric names
    /// (`analysis_verdict_ns_<slug>`): lowercase, underscore-separated,
    /// stable across releases.
    pub fn slug(self) -> &'static str {
        match self {
            Method::FpIdeal => "fp_ideal",
            Method::LpMax => "lp_max",
            Method::LpIlp => "lp_ilp",
            Method::LpSound => "lp_sound",
            Method::LongPaths => "long_paths",
            Method::GenSporadic => "gen_sporadic",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which execution scenarios to maximize over when computing `Δ^m` and
/// `Δ^{m−1}`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScenarioSpace {
    /// Partitions of every `m' ≤ m` with at most `|lp(k)|` parts (default).
    ///
    /// This dominates the paper's space whenever the latter is feasible and
    /// remains sound when fewer lower-priority tasks than cores exist: the
    /// paper's formulation would silently report zero blocking there,
    /// because no partition of exactly `m` names few enough tasks.
    #[default]
    Extended,
    /// Exactly the paper's `e_m`: partitions of exactly `m`; scenarios
    /// naming more tasks than `lp(k)` contains are infeasible and skipped.
    PaperExact,
}

/// Full configuration of one analysis run.
///
/// # Example
///
/// ```
/// use rta_analysis::{AnalysisConfig, Method, ScenarioSpace};
///
/// let config = AnalysisConfig::new(8, Method::LpIlp)
///     .with_scenario_space(ScenarioSpace::PaperExact);
/// assert_eq!(config.cores, 8);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisConfig {
    /// Number of identical cores `m ≥ 1`.
    pub cores: usize,
    /// Analysis method.
    pub method: Method,
    /// Scenario space for `Δ^m` / `Δ^{m−1}` (LP-ILP only).
    pub scenario_space: ScenarioSpace,
}

impl AnalysisConfig {
    /// Creates a configuration over the default scenario space.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, method: Method) -> Self {
        assert!(cores >= 1, "at least one core required");
        Self {
            cores,
            method,
            scenario_space: ScenarioSpace::default(),
        }
    }

    /// Selects the scenario space.
    #[must_use]
    pub fn with_scenario_space(mut self, space: ScenarioSpace) -> Self {
        self.scenario_space = space;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(Method::FpIdeal.label(), "FP-ideal");
        assert_eq!(Method::LpMax.to_string(), "LP-max");
        assert_eq!(Method::LpIlp.to_string(), "LP-ILP");
        assert_eq!(Method::LpSound.to_string(), "LP-sound");
        assert_eq!(Method::LongPaths.to_string(), "Long-paths");
        assert_eq!(Method::GenSporadic.to_string(), "Gen-sporadic");
    }

    #[test]
    fn paper_methods_are_a_prefix_of_all() {
        assert_eq!(&Method::ALL[..3], &Method::PAPER);
        assert_eq!(Method::ALL[3], Method::LpSound);
        // The competitor panel is appended, keeping the first four CSV
        // columns (and every method index) stable across the repo.
        assert_eq!(&Method::ALL[4..], &[Method::LongPaths, Method::GenSporadic]);
    }

    #[test]
    fn builder_chain() {
        let c =
            AnalysisConfig::new(4, Method::LpIlp).with_scenario_space(ScenarioSpace::PaperExact);
        assert_eq!(c.scenario_space, ScenarioSpace::PaperExact);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = AnalysisConfig::new(0, Method::FpIdeal);
    }

    #[test]
    fn default_scenario_space_is_extended() {
        let c = AnalysisConfig::new(2, Method::LpIlp);
        assert_eq!(c.scenario_space, ScenarioSpace::Extended);
    }
}
