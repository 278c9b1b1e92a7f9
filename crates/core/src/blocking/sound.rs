//! The corrected, **sound** lower-priority blocking term ([`Method::LpSound`]).
//!
//! # Why the paper's Eq. (3) is not sound
//!
//! The paper bounds lower-priority interference as
//! `I_lp = Δ^m + p_k·Δ^{m−1}`: one blocking *event* at release (all `m`
//! cores may have just started lower-priority NPRs) plus one per
//! preemption (at most `m−1` cores). Both Δ terms — the LP-max pool of
//! Eq. (5) and the LP-ILP scenarios of Eqs. (6)–(8) alike — count NPRs
//! that are **already running** when the event happens, and the event
//! count is gated on `p_k = min(q_k, h_k)`.
//!
//! That event model misses a whole blocking class: whenever the DAG under
//! analysis leaves cores idle through its *own precedence constraints*
//! (a join waiting on one long predecessor, say), a work-conserving
//! limited-preemptive scheduler legally dispatches **newly started**
//! lower-priority NPRs onto those cores, and they later block the DAG's
//! remaining nodes mid-job — with `p_k = 0` for the highest-priority task,
//! Eq. (3) accounts for none of them. This repository's validation
//! campaign found exactly such schedules (simulated response times 1–3%
//! above the LP-ILP/LP-max bound on rare `m = 2` sets; one is frozen as a
//! regression test in `rta-experiments`), matching the unsoundness of
//! eager limited-preemptive global DAG analyses demonstrated by Nasri,
//! Nelissen & Brandenburg, *"Response-Time Analysis of Limited-Preemptive
//! Parallel DAG Tasks Under Global Scheduling"*, ECRTS 2019.
//!
//! # The corrected term
//!
//! The fix drops the per-event gating entirely: instead of asking *when*
//! lower-priority NPRs may block (and requiring the blocking cores to be
//! simultaneously busy), it bounds the **total lower-priority workload
//! that can occupy cores anywhere inside the response window**, per task —
//! the same carry-in workload bound the analysis already applies to
//! higher-priority interference (Melani et al., [`crate::workload`]):
//!
//! ```text
//! I_lp_sound_k(t) = Σ_{i ∈ lp(k)} W_i(t)      with R_i := D_i
//! ```
//!
//! Lower-priority response bounds are not known while task `k` is analyzed
//! (priority order computes them later), so the carry-in window uses the
//! deadline `D_i` in place of `R_i`. This is the standard
//! assume-and-verify argument: consider a legal schedule and the earliest
//! deadline miss in it. Before that instant every completed job met its
//! deadline, so any job of `τ_i` executing inside a window of length `t`
//! was released after `window start − D_i`, and `W_i(t)` evaluated with
//! `R_i = D_i` bounds its workload. If the analysis accepts the set, every
//! per-task bound — derived under that assumption — sits at or below its
//! deadline, contradicting the existence of a first miss; hence an
//! accepted set has no miss at all and the per-task bounds are valid.
//!
//! Soundness needs nothing beyond **work conservation** of the scheduler:
//! whenever a ready node of the job under analysis is not executing, all
//! `m` cores are busy — with higher-priority work, with the job's own
//! sibling nodes, or with lower-priority NPRs (preemptable or not). The
//! critical path is therefore delayed by at most `1/m` of the total
//! interfering workload, and `I_lp_sound` bounds the lower-priority share
//! of it no matter *when* each NPR started. In particular the bound holds
//! under both the eager and the lazy limited-preemption policy of
//! `rta-sim`, and for any sporadic release pattern (inter-arrivals of at
//! least `T_i`, which both the jitter and the sporadic release models of
//! the validation campaign respect).
//!
//! The price is pessimism: every lower-priority job in the window is
//! charged its full volume, even though only its NPR prefixes can block in
//! practice. `repro campaign` quantifies this as the *soundness cost* —
//! the acceptance-ratio gap between [`Method::LpIlp`] and
//! [`Method::LpSound`] — in `soundness_cost.csv`.
//!
//! [`Method::LpSound`]: crate::config::Method::LpSound
//! [`Method::LpIlp`]: crate::config::Method::LpIlp

use crate::workload::interfering_workload;
use rta_model::{DagTask, Time};

/// The per-window sound lower-priority interference bound of one task
/// under analysis: the precomputed `(m·D_i, vol_i, T_i)` invariants of its
/// lower-priority tasks, evaluated per fixed-point iterate via
/// [`interference`](Self::interference).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoundBlocking {
    /// Per lower-priority task: `(m·D_i, vol_i, T_i)` — the scaled
    /// deadline standing in for the unknown response bound, plus the
    /// quantities [`interfering_workload`] reads.
    lp: Vec<(u128, Time, Time)>,
    cores: usize,
}

impl SoundBlocking {
    /// Builds the bound from the lower-priority tasks of the task under
    /// analysis on an `cores`-core platform.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(lp_tasks: &[DagTask], cores: usize) -> Self {
        assert!(cores >= 1, "at least one core required");
        let m = cores as u128;
        Self {
            lp: lp_tasks
                .iter()
                .map(|t| (m * t.deadline() as u128, t.dag().volume(), t.period()))
                .collect(),
            cores,
        }
    }

    /// `I_lp_sound(t) = Σ_{i ∈ lp(k)} W_i(t)` for a response window of
    /// scaled length `window_scaled` (`m·t`), in plain time units —
    /// monotone non-decreasing in the window, as the fixed point requires.
    pub fn interference(&self, window_scaled: u128) -> u128 {
        self.lp
            .iter()
            .map(|&(deadline_scaled, volume, period)| {
                interfering_workload(window_scaled, deadline_scaled, volume, period, self.cores)
            })
            .sum()
    }

    /// `true` when there are no lower-priority tasks (no blocking at all).
    pub fn is_empty(&self) -> bool {
        self.lp.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::{DagBuilder, DagTask};

    fn single(wcet: u64, period: u64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    #[test]
    fn no_lower_priority_tasks_no_interference() {
        let sound = SoundBlocking::new(&[], 4);
        assert!(sound.is_empty());
        assert_eq!(sound.interference(1_000_000), 0);
    }

    #[test]
    fn single_lp_task_matches_workload_bound() {
        // m = 1, lp task vol = 4, T = D = 10: a window of 10 admits the
        // carry-in job plus one full job's worth of workload.
        let sound = SoundBlocking::new(&[single(4, 10)], 1);
        assert_eq!(
            sound.interference(10),
            interfering_workload(10, 10, 4, 10, 1)
        );
        // x = 10 + 10 − 4 = 16 → 1 full job (4) + min(4, 6) = 8.
        assert_eq!(sound.interference(10), 8);
    }

    #[test]
    fn sums_over_all_lower_priority_tasks() {
        let tasks = [single(4, 10), single(6, 30)];
        let sound = SoundBlocking::new(&tasks, 2);
        let expected: u128 = tasks
            .iter()
            .map(|t| {
                interfering_workload(
                    40,
                    2 * t.deadline() as u128,
                    t.dag().volume(),
                    t.period(),
                    2,
                )
            })
            .sum();
        assert_eq!(sound.interference(40), expected);
    }

    #[test]
    fn monotone_in_window() {
        let sound = SoundBlocking::new(&[single(4, 10), single(7, 13)], 2);
        let mut last = 0;
        for window in 0..500u128 {
            let i = sound.interference(window);
            assert!(i >= last, "interference must be monotone in the window");
            last = i;
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SoundBlocking::new(&[], 0);
    }
}
