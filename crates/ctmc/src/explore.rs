//! Breadth-first state-space exploration.

use crate::error::CtmcError;
use crate::intern::{Interner, PackedState};
use crate::sparse::{RowBuilder, SparseMatrix};
use crate::transient::Uniformization;

/// A continuous-time Markov model described by its transition function.
///
/// `transitions` emits rate-weighted successors through a callback;
/// several entries may lead to the same state (they are summed).
/// Self-loops are permitted and ignored (they do not change the CTMC's
/// law).
pub trait MarkovModel {
    /// The state type, stored packed (see [`PackedState`]).
    type State: PackedState;

    /// The initial probability distribution (must sum to 1).
    fn initial_states(&self) -> Vec<(Self::State, f64)>;

    /// Emits the outgoing transitions of `state` as `(successor, rate)`
    /// pairs. The successor is lent for the call only, so a model can
    /// build every successor in one reused scratch state; the explorer
    /// packs it into one reused buffer and stores only the bytes of the
    /// states it has not seen before.
    fn transitions(&self, state: &Self::State, emit: &mut dyn FnMut(&Self::State, f64));
}

/// An explored, indexed state space with its generator in sparse form.
#[derive(Debug, Clone)]
pub struct StateSpace<S> {
    states: Interner<S>,
    initial: Vec<f64>,
    /// Off-diagonal generator rates, row = source state.
    rates: SparseMatrix,
    /// Total exit rate per state.
    exit_rates: Vec<f64>,
    /// What transient solves keep for later ones; empty in a clone.
    pub(crate) uniformization: Uniformization,
}

impl<S: PackedState> StateSpace<S> {
    /// Explores the reachable state space of `model` breadth-first, up
    /// to `max_states` states.
    ///
    /// States are expanded in index order, so the generator is built
    /// row by row as each state's successors are emitted.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::StateSpaceTooLarge`] when the budget is
    /// exceeded, [`CtmcError::StateStoreFull`] when the packed state
    /// store runs out of offsets first, and [`CtmcError::InvalidRate`]
    /// on a negative or non-finite rate. A state's successors are
    /// enumerated in full before the budget is checked, so an invalid
    /// rate on the state that overflows is reported as such.
    pub fn explore<M>(model: &M, max_states: usize) -> Result<Self, CtmcError>
    where
        M: MarkovModel<State = S>,
    {
        let too_large = || CtmcError::StateSpaceTooLarge { budget: max_states };
        let mut states: Interner<S> = Interner::new();
        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();
        for (s, p) in model.initial_states() {
            let i = states.intern(&s, max_states)?.ok_or_else(too_large)?;
            initial_pairs.push((i, p));
        }

        let mut rows = RowBuilder::new();
        let mut invalid: Option<f64> = None;
        let mut full: Option<CtmcError> = None;
        // The state being expanded, decoded out of the interner into one
        // reused buffer, and the buffer each successor is packed into to
        // probe the interner.
        let mut current: Option<S> = None;
        let mut packed: Vec<u8> = Vec::new();
        let mut frontier = 0usize;
        while frontier < states.len() {
            match current.as_mut() {
                Some(s) => states.decode_into(frontier, s),
                None => current = Some(states.get(frontier)),
            }
            let state = current.as_ref().expect("set above");
            model.transitions(state, &mut |succ, rate| {
                if invalid.is_some() {
                    return;
                }
                if !rate.is_finite() || rate < 0.0 {
                    invalid = Some(rate);
                    return;
                }
                if rate == 0.0 || full.is_some() {
                    return;
                }
                packed.clear();
                succ.pack_into(&mut packed);
                match states.intern_packed(&packed, max_states) {
                    Ok(Some(j)) if j != frontier => rows.push(j, rate),
                    Ok(Some(_)) => {}
                    Ok(None) => full = Some(too_large()),
                    Err(e) => full = Some(e),
                }
            });
            if let Some(rate) = invalid {
                return Err(CtmcError::InvalidRate { rate });
            }
            if let Some(e) = full {
                return Err(e);
            }
            rows.end_row();
            frontier += 1;
        }

        let rates = rows.finish();
        let exit_rates = rates.row_sums();
        let mut initial = vec![0.0; states.len()];
        for (i, p) in initial_pairs {
            initial[i] += p;
        }
        Ok(StateSpace {
            states,
            initial,
            rates,
            exit_rates,
            uniformization: Uniformization::default(),
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the space is empty (never true after exploration).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Decoded copies of the states, in exploration order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = S> + '_ {
        self.states.iter()
    }

    /// Index of the state packed in `bytes` (see [`PackedState`]) in
    /// [`states`](StateSpace::states), if it was explored: one hash
    /// and, on a hash match, one byte comparison against the single
    /// stored copy.
    pub fn index_of_packed(&self, bytes: &[u8]) -> Option<usize> {
        self.states.index_of_packed(bytes)
    }

    /// The initial distribution, index-aligned with
    /// [`states`](StateSpace::states).
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// Off-diagonal rate matrix.
    pub fn rates(&self) -> &SparseMatrix {
        &self.rates
    }

    /// Exit rate of each state.
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit_rates
    }

    /// Iterates over every off-diagonal transition as
    /// `(source, target, rate)` index triples, row by row. This is the
    /// transition *structure* of the generator — the form external
    /// tools (the `ahs-check` cross-validation) compare against an
    /// independently explored graph.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.len()).flat_map(move |r| self.rates.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Largest exit rate (the uniformization constant is slightly above
    /// this).
    pub fn max_exit_rate(&self) -> f64 {
        self.exit_rates.iter().copied().fold(0.0, f64::max)
    }

    /// `pred` of every state, in index order.
    pub(crate) fn flags<F>(&self, pred: F) -> Vec<bool>
    where
        F: Fn(&S) -> bool,
    {
        let mut flags = Vec::with_capacity(self.len());
        self.states.for_each(|_, s| flags.push(pred(s)));
        flags
    }

    /// Sums a distribution over the states satisfying `pred`.
    pub fn probability<F>(&self, distribution: &[f64], pred: F) -> f64
    where
        F: Fn(&S) -> bool,
    {
        self.flags(pred)
            .into_iter()
            .zip(distribution.iter())
            .filter(|&(holds, _)| holds)
            .map(|(_, p)| p)
            .sum()
    }

    /// Returns a copy of the space where every state satisfying `pred`
    /// is made absorbing (outgoing rates removed). The transient mass in
    /// those states is then the first-passage probability — the form of
    /// the paper's unsafety measure.
    pub fn absorbing<F>(&self, pred: F) -> Self
    where
        F: Fn(&S) -> bool,
    {
        let mut rows = RowBuilder::new();
        for (r, absorb) in self.flags(pred).into_iter().enumerate() {
            if !absorb {
                for (c, v) in self.rates.row(r) {
                    rows.push(c, v);
                }
            }
            rows.end_row();
        }
        let rates = rows.finish();
        let exit_rates = rates.row_sums();
        StateSpace {
            states: self.states.clone(),
            initial: self.initial.clone(),
            rates,
            exit_rates,
            uniformization: Uniformization::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Birth-death chain on 0..=cap with birth rate λ, death rate μ.
    struct BirthDeath {
        cap: u32,
        lambda: f64,
        mu: f64,
    }

    impl MarkovModel for BirthDeath {
        type State = u32;
        fn initial_states(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u32, emit: &mut dyn FnMut(&u32, f64)) {
            if *s < self.cap {
                emit(&(s + 1), self.lambda);
            }
            if *s > 0 {
                emit(&(s - 1), self.mu);
            }
        }
    }

    #[test]
    fn explores_full_chain() {
        let m = BirthDeath {
            cap: 5,
            lambda: 1.0,
            mu: 2.0,
        };
        let space = StateSpace::explore(&m, 100).unwrap();
        assert_eq!(space.len(), 6);
        assert_eq!(space.initial()[0], 1.0);
        // Interior states have exit rate λ+μ.
        let idx2 = space.states().position(|s| s == 2).unwrap();
        assert!((space.exit_rates()[idx2] - 3.0).abs() < 1e-12);
        assert!((space.max_exit_rate() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn budget_enforced() {
        let m = BirthDeath {
            cap: 1000,
            lambda: 1.0,
            mu: 1.0,
        };
        assert!(matches!(
            StateSpace::explore(&m, 10),
            Err(CtmcError::StateSpaceTooLarge { budget: 10 })
        ));
    }

    #[test]
    fn absorbing_removes_outflow() {
        let m = BirthDeath {
            cap: 3,
            lambda: 1.0,
            mu: 1.0,
        };
        let space = StateSpace::explore(&m, 100).unwrap();
        let abs = space.absorbing(|&s| s == 3);
        let idx3 = abs.states().position(|s| s == 3).unwrap();
        assert_eq!(abs.exit_rates()[idx3], 0.0);
        // Other states untouched.
        let idx1 = abs.states().position(|s| s == 1).unwrap();
        assert!((abs.exit_rates()[idx1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_are_dropped() {
        struct Loopy;
        impl MarkovModel for Loopy {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8, emit: &mut dyn FnMut(&u8, f64)) {
                if *s == 0 {
                    emit(&0, 5.0);
                    emit(&1, 1.0);
                }
            }
        }
        let space = StateSpace::explore(&Loopy, 10).unwrap();
        assert_eq!(space.len(), 2);
        assert!((space.exit_rates()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_rate_rejected() {
        struct Bad;
        impl MarkovModel for Bad {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, _: &u8, emit: &mut dyn FnMut(&u8, f64)) {
                emit(&1, -3.0);
            }
        }
        assert!(matches!(
            StateSpace::explore(&Bad, 10),
            Err(CtmcError::InvalidRate { .. })
        ));
    }
}
