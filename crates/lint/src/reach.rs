//! Bounded reachability over *raw* markings.
//!
//! The CTMC backend ([`ahs_ctmc::SanMarkovModel`]) folds instantaneous
//! cascades away and only ever sees stable markings. The linter needs
//! more: unstable markings are exactly where instantaneous-activity
//! confusion lives, and dead-activity analysis must observe every
//! marking in which an activity could become eligible. So the linter
//! explores with a *micro-step* model: from an unstable marking the
//! successors are the firings of the top-priority instantaneous
//! activities, from a stable marking the firings of the enabled timed
//! activities; all transitions get unit rate (only reachability matters,
//! not timing). The BFS itself is reused from
//! [`ahs_ctmc::StateSpace::explore_truncated`].

use ahs_ctmc::{MarkovModel, StateSpace};
use ahs_san::{ActivityId, Marking, SanModel};

/// Whether `case` of `a` can be taken in `m`. A case whose probability
/// evaluates to exactly 0 cannot (matches `stable_successors`):
/// exploring it, or running its output gates, would fabricate
/// unreachable markings. Bad probabilities (negative, NaN) still count
/// as takeable — the case-probability pass reports them, and
/// suppressing their firings would hide further defects behind them.
pub(crate) fn can_take(model: &SanModel, a: ActivityId, case: usize, m: &Marking) -> bool {
    model.activity(a).cases()[case].probability(m) != 0.0
}

/// Unit-rate micro-step adapter: exposes a SAN's *marking graph*
/// (stable and unstable markings alike) as a [`MarkovModel`] so the
/// CTMC crate's exploration machinery can walk it.
struct UnitRateSan<'m> {
    model: &'m SanModel,
}

impl MarkovModel for UnitRateSan<'_> {
    type State = Marking;

    fn initial_states(&self) -> Vec<(Marking, f64)> {
        vec![(self.model.initial_marking().clone(), 1.0)]
    }

    fn transitions(&self, m: &Marking, emit: &mut dyn FnMut(&Marking, f64)) {
        let enabled = if self.model.is_stable(m) {
            self.model.enabled_timed(m)
        } else {
            self.model.enabled_instantaneous(m)
        };
        // Every firing lands in this one marking, reset field-wise.
        let mut next = m.clone();
        for a in enabled {
            for case in 0..self.model.activity(a).cases().len() {
                if !can_take(self.model, a, case, m) {
                    continue;
                }
                next.clone_from(m);
                self.model.fire(a, case, &mut next);
                emit(&next, 1.0);
            }
        }
    }
}

/// The set of reachable markings found within a state budget.
#[derive(Debug, Clone)]
pub struct ReachSet {
    markings: Vec<Marking>,
    complete: bool,
}

impl ReachSet {
    /// Explores from the initial marking, visiting at most `max_states`
    /// markings (stable and unstable). Never fails: hitting the budget
    /// yields a truncated set with [`ReachSet::complete`] `false`.
    pub fn explore(model: &SanModel, max_states: usize) -> ReachSet {
        let (space, complete) =
            StateSpace::explore_truncated(&UnitRateSan { model }, max_states.max(1))
                .expect("unit-rate exploration cannot produce an invalid rate");
        ReachSet {
            markings: space.states().to_vec(),
            complete,
        }
    }

    /// Every visited marking, in BFS order (the initial marking first).
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// Number of visited markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// Whether no marking was visited (only possible with a zero model).
    pub fn is_empty(&self) -> bool {
        self.markings.is_empty()
    }

    /// `true` when the whole reachable set was visited; `false` when the
    /// budget truncated the search (absence of a finding is then not a
    /// proof of absence).
    pub fn complete(&self) -> bool {
        self.complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};

    /// p0 --t--> p1 --i--> p2: exploration must surface the unstable
    /// intermediate marking (p1 marked) that the CTMC adapter folds away.
    #[test]
    fn visits_unstable_markings() {
        let mut b = SanBuilder::new("chain");
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        let p2 = b.place("p2").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p0)
            .output_place(p1)
            .build()
            .unwrap();
        b.instant_activity("i", 0, 1.0)
            .unwrap()
            .input_place(p1)
            .output_place(p2)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let reach = ReachSet::explore(&model, 100);
        assert!(reach.complete());
        assert_eq!(reach.len(), 3);
        assert!(reach.markings().iter().any(|m| m.is_marked(p1)));
        assert!(reach.markings().iter().any(|m| m.is_marked(p2)));
    }

    #[test]
    fn truncates_at_budget_instead_of_failing() {
        // Unbounded counter: t deposits into p forever.
        let mut b = SanBuilder::new("unbounded");
        let src = b.place_with_tokens("src", 1).unwrap();
        let p = b.place("p").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .output_place(src)
            .output_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let reach = ReachSet::explore(&model, 8);
        assert!(!reach.complete());
        assert_eq!(reach.len(), 8);
    }

    #[test]
    fn zero_probability_cases_are_not_explored() {
        let mut b = SanBuilder::new("zerocase");
        let src = b.place_with_tokens("src", 1).unwrap();
        let live = b.place("live").unwrap();
        let ghost = b.place("ghost").unwrap();
        let ghost2 = b.place("ghost_sink").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .case(1.0)
            .output_place(live)
            .case(0.0)
            .output_place(ghost)
            .build()
            .unwrap();
        // Give `ghost` an outgoing arc so it is not arc-isolated; it is
        // still unreachable because its producing case has probability 0.
        b.timed_activity("g", Delay::exponential(1.0))
            .unwrap()
            .input_place(ghost)
            .output_place(ghost2)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let reach = ReachSet::explore(&model, 100);
        assert!(reach.complete());
        assert!(reach.markings().iter().all(|m| !m.is_marked(ghost)));
        assert!(reach.markings().iter().any(|m| m.is_marked(live)));
    }
}
