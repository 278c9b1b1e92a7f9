//! Analysis results: exact response-time bounds and per-task reports.

use crate::blocking::BlockingBounds;
use crate::config::Method;
use rta_model::{TaskId, Time};
use std::fmt;

/// An exact response-time upper bound.
///
/// Eq. (4) mixes integer terms with the rational self-interference
/// `(vol − L)/m`, so the bound is a rational with denominator `m`. It is
/// stored **scaled by the core count** (`scaled = m·R`), keeping every
/// comparison exact — no floating point is involved in deciding
/// schedulability.
///
/// # Example
///
/// ```
/// use rta_analysis::ResponseBound;
///
/// let r = ResponseBound::from_scaled(37, 4); // R = 9.25
/// assert_eq!(r.ceil(), 10);
/// assert!(r.fits_within(10));
/// assert!(!r.fits_within(9));
/// assert_eq!(r.to_string(), "9+1/4");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResponseBound {
    scaled: u128,
    cores: u32,
}

impl ResponseBound {
    /// Builds a bound from a scaled value (`m·R`) and the core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn from_scaled(scaled: u128, cores: u32) -> Self {
        assert!(cores > 0, "cores must be positive");
        Self { scaled, cores }
    }

    /// The scaled value `m·R`.
    pub fn scaled(self) -> u128 {
        self.scaled
    }

    /// The core count `m` (the denominator).
    pub fn cores(self) -> u32 {
        self.cores
    }

    /// The bound rounded up to whole time units (the value a user compares
    /// with integer deadlines).
    pub fn ceil(self) -> Time {
        Time::try_from(self.scaled.div_ceil(self.cores as u128))
            .expect("response bound exceeds the time type")
    }

    /// `true` when the bound is at most `deadline` — the schedulability
    /// condition `R_k ≤ D_k`, evaluated exactly.
    pub fn fits_within(self, deadline: Time) -> bool {
        self.scaled <= deadline as u128 * self.cores as u128
    }

    /// The bound as a float (for plotting; not used by the analysis).
    pub fn as_f64(self) -> f64 {
        self.scaled as f64 / self.cores as f64
    }
}

impl fmt::Display for ResponseBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.cores as u128;
        let whole = self.scaled / m;
        let rem = self.scaled % m;
        if rem == 0 {
            write!(f, "{whole}")
        } else {
            // Reduce the fraction for display.
            let g = gcd(rem, m);
            write!(f, "{whole}+{}/{}", rem / g, m / g)
        }
    }
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Per-task outcome of the analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Which task (index = priority).
    pub task: TaskId,
    /// The response-time upper bound reached by the fixed-point iteration.
    /// When `schedulable` is false this is the first iterate that crossed
    /// the deadline, not a converged bound.
    pub response_bound: ResponseBound,
    /// `R_k ≤ D_k`, decided exactly.
    pub schedulable: bool,
    /// The blocking bounds used. Absent under [`Method::FpIdeal`] (no
    /// blocking) and under [`Method::LpSound`], whose corrected term is
    /// window-dependent rather than a constant `(Δ^m, Δ^{m−1})` pair (see
    /// [`crate::blocking::sound`]).
    pub blocking: Option<BlockingBounds>,
    /// The preemption bound `p_k = min(q_k, h_k)` at the final iterate.
    pub preemption_bound: u64,
    /// Fixed-point iterations performed.
    pub iterations: u64,
}

/// Result of analyzing a complete task set.
///
/// Tasks are analyzed from highest to lowest priority; analysis stops at the
/// first unschedulable task (lower-priority bounds would depend on the
/// diverged response time and carry no meaning), so `tasks` holds reports
/// for the analyzed prefix.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisReport {
    /// `true` iff every task met its deadline bound.
    pub schedulable: bool,
    /// Core count the analysis ran with.
    pub cores: usize,
    /// Method used.
    pub method: Method,
    /// Per-task reports, highest priority first (prefix up to and including
    /// the first unschedulable task).
    pub tasks: Vec<TaskReport>,
}

impl AnalysisReport {
    /// The response bound of task `k`, if it was analyzed.
    pub fn response_bound(&self, k: usize) -> Option<ResponseBound> {
        self.tasks.get(k).map(|t| t.response_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_bound_displays_plainly() {
        assert_eq!(ResponseBound::from_scaled(36, 4).to_string(), "9");
    }

    #[test]
    fn fractional_bound_reduces() {
        assert_eq!(ResponseBound::from_scaled(38, 4).to_string(), "9+1/2");
        assert_eq!(ResponseBound::from_scaled(39, 4).to_string(), "9+3/4");
    }

    #[test]
    fn ceil_and_fits() {
        let r = ResponseBound::from_scaled(41, 4); // 10.25
        assert_eq!(r.ceil(), 11);
        assert!(r.fits_within(11));
        assert!(!r.fits_within(10));
        let exact = ResponseBound::from_scaled(40, 4); // 10
        assert!(exact.fits_within(10));
    }

    #[test]
    fn as_f64_matches() {
        assert!((ResponseBound::from_scaled(37, 4).as_f64() - 9.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn zero_cores_rejected() {
        let _ = ResponseBound::from_scaled(1, 0);
    }

    #[test]
    fn accessors() {
        let r = ResponseBound::from_scaled(10, 2);
        assert_eq!(r.scaled(), 10);
        assert_eq!(r.cores(), 2);
    }
}
