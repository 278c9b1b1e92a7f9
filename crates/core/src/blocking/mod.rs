//! Lower-priority blocking bounds `Δ^m_k` and `Δ^{m−1}_k`.
//!
//! Under limited preemption, a task can be blocked by non-preemptive
//! regions of **lower-priority** tasks: once when it is released (all `m`
//! cores may have just started lower-priority NPRs — `Δ^m`) and once per
//! preemption (at most `m−1` cores, since the task itself holds one —
//! `Δ^{m−1}`); paper Eq. (3):
//!
//! ```text
//! I_lp_k = Δ^m_k + p_k · Δ^{m−1}_k
//! ```
//!
//! Three bounds are provided:
//!
//! * [`lpmax`] — Eq. (5), precedence-oblivious;
//! * [`mu`] + [`scenarios`] — Eqs. (6)–(8), precedence-aware (the LP-ILP
//!   method), computed by the clique and Hungarian solvers; the paper's
//!   verbatim ILP formulations ([`paper_ilp`]) are their test reference;
//! * [`sound`] — the corrected term of the LP-sound method: Eq. (3)'s
//!   event counting is provably optimistic (newly-started lower-priority
//!   NPRs on cores the DAG leaves idle; Nasri et al., ECRTS 2019), so the
//!   sound bound charges the full lower-priority carry-in workload of the
//!   window instead. It is window-dependent, hence not a
//!   [`BlockingBounds`] pair — the fixed point evaluates it per iterate.

pub mod lpmax;
pub mod mu;
pub mod paper_ilp;
pub mod scenarios;
pub mod sound;

use rta_model::Time;

/// The pair of blocking bounds used by Eq. (3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockingBounds {
    /// `Δ^m_k`: blocking on the first NPR (task release).
    pub delta_m: Time,
    /// `Δ^{m−1}_k`: blocking at each later preemption point.
    pub delta_m_minus_one: Time,
}

impl BlockingBounds {
    /// The lower-priority interference `I_lp = Δ^m + p·Δ^{m−1}` for a given
    /// preemption count `p` (paper Eq. (3)), in plain time units.
    pub fn interference(&self, preemptions: u128) -> u128 {
        self.delta_m as u128 + preemptions * self.delta_m_minus_one as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_formula() {
        let b = BlockingBounds {
            delta_m: 19,
            delta_m_minus_one: 15,
        };
        assert_eq!(b.interference(0), 19);
        assert_eq!(b.interference(3), 19 + 3 * 15);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(BlockingBounds::default().interference(10), 0);
    }
}
