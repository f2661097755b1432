//! Adapting a Markovian SAN to the [`MarkovModel`] interface.

use std::cell::Cell;

use ahs_san::{Marking, SanModel};

use crate::error::CtmcError;
use crate::explore::MarkovModel;

/// Views an all-exponential [`SanModel`] as a CTMC over *stable*
/// markings.
///
/// Each enabled timed activity contributes, for every completion case
/// and every stable marking reachable from the fired marking through
/// instantaneous activities, a transition with rate
/// `rate · P(case) · P(instantaneous path)` — the exact embedded CTMC of
/// the SAN's execution semantics.
///
/// # Example
///
/// ```
/// use ahs_ctmc::{transient_distribution, SanMarkovModel, StateSpace};
/// use ahs_san::{Delay, SanBuilder};
///
/// let mut b = SanBuilder::new("fr");
/// let up = b.place_with_tokens("up", 1)?;
/// let down = b.place("down")?;
/// b.timed_activity("fail", Delay::exponential(1.0))?
///     .input_place(up)
///     .output_place(down)
///     .build()?;
/// b.timed_activity("repair", Delay::exponential(4.0))?
///     .input_place(down)
///     .output_place(up)
///     .build()?;
/// let model = b.build()?;
///
/// let adapter = SanMarkovModel::new(&model)?;
/// let space = StateSpace::explore(&adapter, 100)?;
/// assert_eq!(space.len(), 2);
/// let pi = transient_distribution(&space, 0.5, 1e-12);
/// let p_down = space.probability(&pi, |m| m.is_marked(down));
/// assert!((p_down - 0.2 * (1.0 - (-5.0_f64 * 0.5).exp())).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SanMarkovModel<'m> {
    model: &'m SanModel,
    // State-to-state scratch of `transitions`, parked here between
    // calls so expanding a state allocates nothing of its own. `Cell`
    // keeps `transitions` `&self`; a call that panics, or one nested
    // inside `emit`, simply builds a fresh scratch.
    scratch: Cell<Option<Box<Scratch>>>,
}

/// Buffers [`SanMarkovModel::transitions`] reuses across states.
struct Scratch {
    /// Enabled-member count per shared-rate group, counted once per
    /// state however many members are enabled.
    group_enabled: Vec<Option<usize>>,
    /// Case distribution of the activity being fired.
    probs: Vec<f64>,
    /// The marking every case fires into, reset field-wise.
    fired: Marking,
}

impl<'m> SanMarkovModel<'m> {
    /// Wraps `model`.
    ///
    /// # Errors
    ///
    /// None today: every timed activity is exponential by
    /// construction. The `Result` keeps the constructor's signature
    /// stable for callers that propagate it.
    pub fn new(model: &'m SanModel) -> Result<Self, CtmcError> {
        Ok(SanMarkovModel {
            model,
            scratch: Cell::new(None),
        })
    }

    /// The wrapped model.
    pub fn model(&self) -> &SanModel {
        self.model
    }
}

impl MarkovModel for SanMarkovModel<'_> {
    type State = Marking;

    fn initial_states(&self) -> Vec<(Marking, f64)> {
        self.model
            .stable_successors(self.model.initial_marking())
            .expect("initial stabilization failed; validate the model first")
    }

    fn transitions(&self, state: &Marking, emit: &mut dyn FnMut(&Marking, f64)) {
        let mut scratch = self.scratch.take().unwrap_or_else(|| {
            Box::new(Scratch {
                group_enabled: vec![None; self.model.rate_groups().len()],
                probs: Vec::new(),
                fired: state.clone(),
            })
        });
        let Scratch {
            group_enabled,
            probs,
            fired,
        } = &mut *scratch;
        group_enabled.fill(None);
        for &a in self.model.timed_activities() {
            if !self.model.is_enabled(a, state) {
                continue;
            }
            let rate = self
                .model
                .exponential_rate_with(a, state, |g| {
                    *group_enabled[g.index()]
                        .get_or_insert_with(|| self.model.group_enabled_count(g, state))
                })
                .expect("constructor verified exponential delays");
            // A zero rate is no transition. A negative or non-finite one
            // is emitted, so the explorer reports it as invalid.
            if rate == 0.0 {
                continue;
            }
            self.model
                .case_probabilities_into(a, state, probs)
                .expect("case distribution must be valid in reachable markings");
            for (case, &p_case) in probs.iter().enumerate() {
                if p_case == 0.0 {
                    continue;
                }
                fired.clone_from(state);
                self.model.fire(a, case, fired);
                // A stable marking is its own only stable successor,
                // with path probability 1: `rate · p_case · 1.0` is
                // `rate · p_case` exactly.
                if self.model.is_stable(fired) {
                    emit(fired, rate * p_case);
                    continue;
                }
                let stables = self
                    .model
                    .stable_successors(fired)
                    .expect("instantaneous stabilization must terminate");
                for (m, p_path) in &stables {
                    emit(m, rate * p_case * p_path);
                }
            }
        }
        self.scratch.set(Some(scratch));
    }
}

impl std::fmt::Debug for SanMarkovModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SanMarkovModel")
            .field("model", &self.model.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient_distribution;
    use crate::StateSpace;
    use ahs_san::{Delay, SanBuilder};

    #[test]
    fn instantaneous_cascades_fold_into_rates() {
        // up --fail(λ)--> staging --instant (cases ½/½)--> a | b
        let mut b = SanBuilder::new("cascade");
        let up = b.place_with_tokens("up", 1).unwrap();
        let staging = b.place("staging").unwrap();
        let pa = b.place("a").unwrap();
        let pb = b.place("b").unwrap();
        b.timed_activity("fail", Delay::exponential(2.0))
            .unwrap()
            .input_place(up)
            .output_place(staging)
            .build()
            .unwrap();
        b.instant_activity("route", 0, 1.0)
            .unwrap()
            .input_place(staging)
            .case(0.5)
            .output_place(pa)
            .case(0.5)
            .output_place(pb)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let adapter = SanMarkovModel::new(&model).unwrap();
        let space = StateSpace::explore(&adapter, 100).unwrap();
        // Stable states: {up}, {a}, {b} — staging never appears.
        assert_eq!(space.len(), 3);
        for m in space.states() {
            assert!(!m.is_marked(staging));
        }
        let pi = transient_distribution(&space, 100.0, 1e-12);
        let p_a = space.probability(&pi, |m| m.is_marked(pa));
        let p_b = space.probability(&pi, |m| m.is_marked(pb));
        assert!((p_a - 0.5).abs() < 1e-9);
        assert!((p_b - 0.5).abs() < 1e-9);
    }

    /// A rate that evaluates negative is a model defect the explorer
    /// must report, not a transition to drop: `claim` fires at
    /// `tokens(slots) − 3 = −1` from the initial marking.
    #[test]
    fn negative_rate_is_rejected_not_dropped() {
        let mut b = SanBuilder::new("negative-rate");
        let slots = b.place_with_tokens("slots", 2).unwrap();
        let used = b.place("used").unwrap();
        b.timed_activity(
            "claim",
            Delay::exponential_fn(move |m| m.tokens(slots) as f64 - 3.0),
        )
        .unwrap()
        .input_place(slots)
        .output_place(used)
        .build()
        .unwrap();
        b.timed_activity("release", Delay::exponential(1.0))
            .unwrap()
            .input_place(used)
            .output_place(slots)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let adapter = SanMarkovModel::new(&model).unwrap();
        assert!(matches!(
            StateSpace::explore(&adapter, 100),
            Err(CtmcError::InvalidRate { rate }) if rate == -1.0
        ));
    }

    #[test]
    fn marking_dependent_rates_enter_generator() {
        // Two tokens drain from `pool` with rate = tokens (M/M/∞-style).
        let mut b = SanBuilder::new("drain");
        let pool = b.place_with_tokens("pool", 2).unwrap();
        let done = b.place("done").unwrap();
        b.timed_activity(
            "drain",
            Delay::exponential_fn(move |m| m.tokens(pool) as f64),
        )
        .unwrap()
        .input_place(pool)
        .output_place(done)
        .build()
        .unwrap();
        let model = b.build().unwrap();
        let adapter = SanMarkovModel::new(&model).unwrap();
        let space = StateSpace::explore(&adapter, 10).unwrap();
        assert_eq!(space.len(), 3);
        // Exit rate of the 2-token state is 2, of the 1-token state 1.
        let i2 = space.states().position(|m| m.tokens(pool) == 2).unwrap();
        let i1 = space.states().position(|m| m.tokens(pool) == 1).unwrap();
        assert!((space.exit_rates()[i2] - 2.0).abs() < 1e-12);
        assert!((space.exit_rates()[i1] - 1.0).abs() < 1e-12);
    }
}
