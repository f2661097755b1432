//! Steady-state solution by power iteration on the uniformized chain.

use std::hash::Hash;

use crate::error::CtmcError;
use crate::explore::StateSpace;
use crate::transient::uniformized_transpose;

/// Computes the steady-state distribution of an irreducible explored
/// CTMC by power iteration on `P = I + Q/q` (which shares Q's stationary
/// vector and, with `q` strictly above the largest exit rate, is
/// aperiodic).
///
/// # Errors
///
/// Returns [`CtmcError::NotConverged`] if the L1 change between
/// iterates stays above `tol` after `max_iter` sweeps. Reducible chains
/// converge to a stationary vector that depends on the initial
/// distribution — callers wanting first-passage measures should use
/// [`StateSpace::absorbing`] with
/// [`transient_distribution`](crate::transient_distribution) instead.
pub fn steady_state<S: Clone + Eq + Hash>(
    space: &StateSpace<S>,
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, CtmcError> {
    let n = space.len();
    let q = space.max_exit_rate() * 1.02 + 1e-12;
    let pt = uniformized_transpose(space, q);

    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for _ in 0..max_iter {
        pt.mul_vec(&pi, &mut next);
        let norm: f64 = next.iter().sum();
        for v in &mut next {
            *v /= norm;
        }
        residual = pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if residual < tol {
            return Ok(pi);
        }
    }
    Err(CtmcError::NotConverged {
        iterations: max_iter,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::MarkovModel;

    /// M/M/1/K queue: arrivals λ, service μ, capacity K.
    struct Mm1k {
        lambda: f64,
        mu: f64,
        k: u32,
    }
    impl MarkovModel for Mm1k {
        type State = u32;
        fn initial_states(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u32) -> Vec<(u32, f64)> {
            let mut out = Vec::new();
            if *s < self.k {
                out.push((s + 1, self.lambda));
            }
            if *s > 0 {
                out.push((s - 1, self.mu));
            }
            out
        }
    }

    #[test]
    fn mm1k_matches_closed_form() {
        let (lambda, mu, k) = (2.0, 3.0, 5u32);
        let rho: f64 = lambda / mu;
        let m = Mm1k { lambda, mu, k };
        let space = crate::StateSpace::explore(&m, 100).unwrap();
        let pi = steady_state(&space, 1e-12, 100_000).unwrap();
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for (i, s) in space.states().iter().enumerate() {
            let exact = rho.powi(*s as i32) / norm;
            assert!(
                (pi[i] - exact).abs() < 1e-8,
                "state {s}: {} vs {exact}",
                pi[i]
            );
        }
    }

    #[test]
    fn balanced_two_state_is_half_half() {
        struct Sym;
        impl MarkovModel for Sym {
            type State = bool;
            fn initial_states(&self) -> Vec<(bool, f64)> {
                vec![(true, 1.0)]
            }
            fn transitions(&self, s: &bool) -> Vec<(bool, f64)> {
                vec![(!*s, 7.0)]
            }
        }
        let space = crate::StateSpace::explore(&Sym, 4).unwrap();
        let pi = steady_state(&space, 1e-13, 10_000).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
        assert!((pi[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn non_convergence_reported() {
        let m = Mm1k {
            lambda: 1.0,
            mu: 3.0,
            k: 50,
        };
        let space = crate::StateSpace::explore(&m, 100).unwrap();
        // One iteration cannot converge on a 51-state chain.
        assert!(matches!(
            steady_state(&space, 1e-15, 1),
            Err(CtmcError::NotConverged { .. })
        ));
    }
}
