//! The scenario layer: release models as event generators.
//!
//! A scenario is not a branch inside the scheduling loop — it is a
//! generator the engine consults at exactly one point: *when is the next
//! release of task `i`?* (producing [`crate::event::Event::Release`]
//! entries). Adding a release behavior therefore never touches the
//! scheduler state machine.
//!
//! # Release models
//!
//! * [`Release::Synchronous`] — all tasks release at time 0, then strictly
//!   periodically: the classic high-interference pattern.
//! * [`Release::Sporadic`] — each inter-arrival is `T_i` plus a uniform
//!   draw in `[0, jitter_i]` (drifting, never below the period): the legal
//!   sporadic adversary the validation campaign simulates.
//!
//! Jitter magnitudes are **per task** ([`Jitter`]): one shared magnitude,
//! or a fraction of each task's own period.
//!
//! # Determinism
//!
//! All draws come from the engine's single seeded RNG in a fixed order
//! (initial release per task in task order; per release: execution draws
//! in node order, then the next-release draw). Magnitudes of zero draw
//! nothing, so synchronous releases and `Jitter::Uniform(0)` leave the RNG
//! stream untouched — the order the frozen step loop draws in.

use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::Rng;
use rta_model::Time;

/// Per-task release-jitter magnitudes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Jitter {
    /// The same magnitude for every task.
    Uniform(Time),
    /// Each task's magnitude is `percent`% of its *own* period, with a
    /// floor of 1 when `percent > 0` (so small periods still jitter).
    PeriodFraction {
        /// Percentage of each task's period, e.g. `10` for `T_i / 10`.
        percent: u32,
    },
}

impl Jitter {
    /// Resolves to one magnitude per task.
    pub fn resolve(&self, topo: &Topology) -> Vec<Time> {
        match self {
            Jitter::Uniform(j) => vec![*j; topo.len()],
            Jitter::PeriodFraction { percent } => (0..topo.len())
                .map(|i| {
                    if *percent == 0 {
                        0
                    } else {
                        (topo.task(i).period() * *percent as Time / 100).max(1)
                    }
                })
                .collect(),
        }
    }
}

/// Job release pattern (see the module docs for the catalogue).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Release {
    /// Synchronous periodic releases starting at time 0.
    #[default]
    Synchronous,
    /// Sporadic: inter-arrival `T_i` plus a draw in `[0, jitter_i]`.
    Sporadic {
        /// Per-task jitter magnitudes.
        jitter: Jitter,
    },
}

/// The resolved scenario the engine consults during a run: one jitter
/// magnitude per task, all zero for synchronous releases.
#[derive(Clone, Debug)]
pub(crate) struct ScenarioState {
    magnitudes: Vec<Time>,
    periods: Vec<Time>,
}

impl ScenarioState {
    /// Resolves `release` against the task set.
    pub fn new(release: &Release, topo: &Topology) -> Self {
        let magnitudes = match release {
            Release::Synchronous => vec![0; topo.len()],
            Release::Sporadic { jitter } => jitter.resolve(topo),
        };
        Self {
            magnitudes,
            periods: (0..topo.len()).map(|i| topo.task(i).period()).collect(),
        }
    }

    /// Draw in `[0, magnitude]`, touching the RNG only when the magnitude
    /// is positive (see the module docs on determinism).
    fn draw(magnitude: Time, rng: &mut SmallRng) -> Time {
        if magnitude > 0 {
            rng.gen_range(0..=magnitude)
        } else {
            0
        }
    }

    /// First release of `task`.
    pub fn first_release(&self, task: usize, rng: &mut SmallRng) -> Time {
        Self::draw(self.magnitudes[task], rng)
    }

    /// Release following the one of `task` that fired at `now`.
    pub fn next_release(&self, task: usize, now: Time, rng: &mut SmallRng) -> Time {
        now + self.periods[task] + Self::draw(self.magnitudes[task], rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rta_model::{DagBuilder, DagTask, TaskSet};

    fn topo(periods: &[Time]) -> Topology {
        let tasks = periods
            .iter()
            .map(|&t| {
                let mut b = DagBuilder::new();
                b.add_node(1);
                DagTask::with_implicit_deadline(b.build().unwrap(), t).unwrap()
            })
            .collect();
        Topology::new(&TaskSet::new(tasks))
    }

    #[test]
    fn period_fraction_resolves_per_task() {
        let topo = topo(&[100, 7, 40]);
        let j = Jitter::PeriodFraction { percent: 10 };
        assert_eq!(j.resolve(&topo), vec![10, 1, 4]); // 7/10 floors to 1
        let z = Jitter::PeriodFraction { percent: 0 };
        assert_eq!(z.resolve(&topo), vec![0, 0, 0]);
    }

    #[test]
    fn zero_magnitudes_never_touch_the_rng() {
        let topo = topo(&[10]);
        let sporadic = Release::Sporadic {
            jitter: Jitter::Uniform(0),
        };
        for release in [Release::Synchronous, sporadic] {
            let s = ScenarioState::new(&release, &topo);
            let mut a = SmallRng::seed_from_u64(7);
            let mut b = SmallRng::seed_from_u64(7);
            assert_eq!(s.first_release(0, &mut a), 0);
            assert_eq!(s.next_release(0, 0, &mut a), 10);
            // The RNG state is untouched: both streams still agree.
            assert_eq!(a.gen_range(0..=1_000_000u64), b.gen_range(0..=1_000_000u64));
        }
    }
}
