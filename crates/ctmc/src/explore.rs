//! Breadth-first state-space exploration.

use std::hash::Hash;

use crate::error::CtmcError;
use crate::intern::Interner;
use crate::sparse::SparseMatrix;

/// A continuous-time Markov model described by its transition function.
///
/// `transitions` emits rate-weighted successors through a callback;
/// several entries may lead to the same state (they are summed).
/// Self-loops are permitted and ignored (they do not change the CTMC's
/// law).
pub trait MarkovModel {
    /// The state type.
    type State: Clone + Eq + Hash;

    /// The initial probability distribution (must sum to 1).
    fn initial_states(&self) -> Vec<(Self::State, f64)>;

    /// Emits the outgoing transitions of `state` as `(successor, rate)`
    /// pairs. The successor is lent for the call only, so a model can
    /// build every successor in one reused scratch state; the explorer
    /// clones just the states it has not seen before.
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
}

impl<S: Clone + Eq + Hash> StateSpace<S> {
    /// Explores the reachable state space of `model` breadth-first, up
    /// to `max_states` states.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::StateSpaceTooLarge`] when the budget is
    /// exceeded and [`CtmcError::InvalidRate`] on a negative or
    /// non-finite rate. A state's successors are enumerated in full
    /// before the budget is checked, so an invalid rate on the state
    /// that overflows is reported as such.
    pub fn explore<M>(model: &M, max_states: usize) -> Result<Self, CtmcError>
    where
        M: MarkovModel<State = S>,
    {
        let too_large = || CtmcError::StateSpaceTooLarge { budget: max_states };
        let mut states: Interner<S> = Interner::new();
        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();
        for (s, p) in model.initial_states() {
            let i = states.intern(&s, max_states).ok_or_else(too_large)?;
            initial_pairs.push((i, p));
        }

        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut invalid: Option<f64> = None;
        let mut overflow = false;
        // The state being expanded, copied out of the interner (which
        // grows during the expansion) into one reused buffer.
        let mut current: Option<S> = None;
        let mut frontier = 0usize;
        while frontier < states.len() {
            let source = &states.states()[frontier];
            match current.as_mut() {
                Some(s) => s.clone_from(source),
                None => current = Some(source.clone()),
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
                if rate == 0.0 {
                    return;
                }
                match states.intern(succ, max_states) {
                    Some(j) if j != frontier => triplets.push((frontier, j, rate)),
                    Some(_) => {}
                    None => overflow = true,
                }
            });
            if let Some(rate) = invalid {
                return Err(CtmcError::InvalidRate { rate });
            }
            if overflow {
                return Err(too_large());
            }
            frontier += 1;
        }

        let n = states.len();
        let rates = SparseMatrix::from_triplets(n, triplets);
        let exit_rates = rates.row_sums();
        let mut initial = vec![0.0; n];
        for (i, p) in initial_pairs {
            initial[i] += p;
        }
        Ok(StateSpace {
            states,
            initial,
            rates,
            exit_rates,
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

    /// The states, in exploration order.
    pub fn states(&self) -> &[S] {
        self.states.states()
    }

    /// Index of `state` in [`states`](StateSpace::states), if it was
    /// explored. One hash and, on a hash match, one `Eq` comparison
    /// against the single stored copy.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.states.index_of(state)
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

    /// Sums a distribution over the states satisfying `pred`.
    pub fn probability<F>(&self, distribution: &[f64], pred: F) -> f64
    where
        F: Fn(&S) -> bool,
    {
        self.states()
            .iter()
            .zip(distribution.iter())
            .filter(|(s, _)| pred(s))
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
        let n = self.len();
        let absorb: Vec<bool> = self.states().iter().map(pred).collect();
        let triplets = (0..n)
            .filter(|&r| !absorb[r])
            .flat_map(|r| self.rates.row(r).map(move |(c, v)| (r, c, v)))
            .collect::<Vec<_>>();
        let rates = SparseMatrix::from_triplets(n, triplets);
        let exit_rates = rates.row_sums();
        StateSpace {
            states: self.states.clone(),
            initial: self.initial.clone(),
            rates,
            exit_rates,
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
        let idx2 = space.states().iter().position(|&s| s == 2).unwrap();
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
        let idx3 = abs.states().iter().position(|&s| s == 3).unwrap();
        assert_eq!(abs.exit_rates()[idx3], 0.0);
        // Other states untouched.
        let idx1 = abs.states().iter().position(|&s| s == 1).unwrap();
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
