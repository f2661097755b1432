//! Steady-state solution by power iteration on the uniformized chain.

use crate::error::CtmcError;
use crate::explore::StateSpace;
use crate::intern::PackedState;
use crate::transient::uniformized_kernel;

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
pub fn steady_state<S: PackedState>(
    space: &StateSpace<S>,
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, CtmcError> {
    let n = space.len();
    let q = space.max_exit_rate() * 1.02 + 1e-12;
    let pt = uniformized_kernel(space, q);

    // The iterates live in the kernel's position order; the two sums
    // walk them in state order, as the residual and norm are defined.
    let order = pt.position();
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for _ in 0..max_iter {
        pt.mul_vec(&pi, &mut next);
        let norm: f64 = order.iter().map(|&p| next[p as usize]).sum();
        for v in &mut next {
            *v /= norm;
        }
        residual = order
            .iter()
            .map(|&p| (pi[p as usize] - next[p as usize]).abs())
            .sum();
        std::mem::swap(&mut pi, &mut next);
        if residual < tol {
            return Ok(pt.to_rows(&pi));
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
        fn transitions(&self, s: &u32, emit: &mut dyn FnMut(&u32, f64)) {
            if *s < self.k {
                emit(&(s + 1), self.lambda);
            }
            if *s > 0 {
                emit(&(s - 1), self.mu);
            }
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
        for (i, s) in space.states().enumerate() {
            let exact = rho.powi(s as i32) / norm;
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
            fn transitions(&self, s: &bool, emit: &mut dyn FnMut(&bool, f64)) {
                emit(&!*s, 7.0);
            }
        }
        let space = crate::StateSpace::explore(&Sym, 4).unwrap();
        let pi = steady_state(&space, 1e-13, 10_000).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
        assert!((pi[1] - 0.5).abs() < 1e-9);
    }

    /// The lane kernel, position order and state-order sums reproduce
    /// a plain power-iteration loop over the row-gather reference bit
    /// for bit.
    #[test]
    fn matches_a_reference_loop_bit_for_bit() {
        let m = Mm1k {
            lambda: 2.0,
            mu: 3.0,
            k: 40,
        };
        let space = crate::StateSpace::explore(&m, 100).unwrap();
        let (tol, max_iter) = (1e-12, 100_000);
        let n = space.len();
        let q = space.max_exit_rate() * 1.02 + 1e-12;
        let pt = space.rates().uniformized_transpose(space.exit_rates(), q);
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        loop {
            crate::sparse::row_gather(&pt, &pi, &mut next);
            let norm: f64 = next.iter().sum();
            for v in &mut next {
                *v /= norm;
            }
            let residual: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut next);
            if residual < tol {
                break;
            }
        }
        let got = steady_state(&space, tol, max_iter).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&pi));
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
