//! Expected hitting times (mean time to absorption).

use crate::error::CtmcError;
use crate::explore::StateSpace;
use crate::intern::PackedState;

/// Computes the expected time to first reach a `target` state from
/// each state of the chain, by Gauss–Seidel iteration on the
/// first-step equations
/// `h(s) = (1 + Σ_{s'} q(s,s') h(s')) / q(s)` with `h(target) = 0`.
///
/// States that cannot reach the target (including deadlocks outside
/// it) get `h = +inf`. For the AHS model this is the *mean time to
/// unsafety* — the MTTF-style counterpart of the paper's `S(t)`.
///
/// # Errors
///
/// Returns [`CtmcError::NotConverged`] if the sweep residual stays
/// above `tol` after `max_iter` iterations.
///
/// # Example
///
/// ```
/// use ahs_ctmc::{expected_hitting_time, MarkovModel, StateSpace};
///
/// struct TwoStep;
/// impl MarkovModel for TwoStep {
///     type State = u8;
///     fn initial_states(&self) -> Vec<(u8, f64)> {
///         vec![(0, 1.0)]
///     }
///     fn transitions(&self, s: &u8, emit: &mut dyn FnMut(&u8, f64)) {
///         match s {
///             0 => emit(&1, 2.0),
///             1 => emit(&2, 4.0),
///             _ => {}
///         }
///     }
/// }
/// let space = StateSpace::explore(&TwoStep, 10)?;
/// let h = expected_hitting_time(&space, |s| *s == 2, 1e-12, 10_000)?;
/// let i0 = space.states().position(|s| s == 0).unwrap();
/// assert!((h[i0] - (0.5 + 0.25)).abs() < 1e-9);
/// # Ok::<(), ahs_ctmc::CtmcError>(())
/// ```
pub fn expected_hitting_time<S, F>(
    space: &StateSpace<S>,
    target: F,
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, CtmcError>
where
    S: PackedState,
    F: Fn(&S) -> bool,
{
    let n = space.len();
    let is_target = space.flags(target);

    // Identify states that can reach the target (backward reachability
    // over the rate graph); the rest have infinite hitting time.
    let mut reaches = is_target.clone();
    loop {
        let mut changed = false;
        for s in 0..n {
            if reaches[s] {
                continue;
            }
            if space.rates().row(s).any(|(succ, _)| reaches[succ]) {
                reaches[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut h = vec![0.0_f64; n];
    for s in 0..n {
        if !reaches[s] {
            h[s] = f64::INFINITY;
        }
    }
    let mut residual = f64::INFINITY;
    for _ in 0..max_iter {
        residual = 0.0;
        for s in 0..n {
            if is_target[s] || !reaches[s] {
                continue;
            }
            let q = space.exit_rates()[s];
            if q <= 0.0 {
                h[s] = f64::INFINITY;
                continue;
            }
            let mut acc = 1.0;
            let mut finite = true;
            for (succ, rate) in space.rates().row(s) {
                if h[succ].is_infinite() {
                    // Mass escaping to a non-reaching state makes the
                    // conditional mean infinite only if the escape has
                    // positive rate; hitting-time equations then have
                    // no finite solution for s either.
                    finite = false;
                    break;
                }
                acc += rate * h[succ];
            }
            let new = if finite { acc / q } else { f64::INFINITY };
            if new.is_finite() && h[s].is_finite() {
                residual = residual.max((new - h[s]).abs());
            } else if new.is_finite() != h[s].is_finite() {
                residual = f64::INFINITY;
            }
            h[s] = new;
        }
        if residual < tol {
            return Ok(h);
        }
    }
    Err(CtmcError::NotConverged {
        iterations: max_iter,
        residual,
    })
}

/// Expected hitting time from the chain's initial distribution.
///
/// # Errors
///
/// Same failure modes as [`expected_hitting_time`].
pub fn expected_hitting_time_from_start<S, F>(
    space: &StateSpace<S>,
    target: F,
    tol: f64,
    max_iter: usize,
) -> Result<f64, CtmcError>
where
    S: PackedState,
    F: Fn(&S) -> bool,
{
    let h = expected_hitting_time(space, target, tol, max_iter)?;
    Ok(space
        .initial()
        .iter()
        .zip(h.iter())
        .filter(|(p, _)| **p > 0.0)
        .map(|(p, hi)| p * hi)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::MarkovModel;

    struct FailRepair {
        fail: f64,
        repair: f64,
        components: u32,
    }

    /// State = number of failed components; system dies when all fail.
    impl MarkovModel for FailRepair {
        type State = u32;
        fn initial_states(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u32, emit: &mut dyn FnMut(&u32, f64)) {
            if *s < self.components {
                emit(&(s + 1), self.fail * (self.components - s) as f64);
            }
            if *s > 0 && *s < self.components {
                emit(&(s - 1), self.repair * *s as f64);
            }
        }
    }

    #[test]
    fn single_component_mttf_is_inverse_rate() {
        let m = FailRepair {
            fail: 0.25,
            repair: 1.0,
            components: 1,
        };
        let space = crate::StateSpace::explore(&m, 10).unwrap();
        let mttf = expected_hitting_time_from_start(&space, |&s| s == 1, 1e-12, 100_000).unwrap();
        assert!((mttf - 4.0).abs() < 1e-9);
    }

    #[test]
    fn repair_extends_the_mttf() {
        let no_repair = FailRepair {
            fail: 1.0,
            repair: 0.0,
            components: 2,
        };
        let with_repair = FailRepair {
            fail: 1.0,
            repair: 5.0,
            components: 2,
        };
        let s1 = crate::StateSpace::explore(&no_repair, 10).unwrap();
        let s2 = crate::StateSpace::explore(&with_repair, 10).unwrap();
        let t1 = expected_hitting_time_from_start(&s1, |&s| s == 2, 1e-12, 100_000).unwrap();
        let t2 = expected_hitting_time_from_start(&s2, |&s| s == 2, 1e-12, 100_000).unwrap();
        // No repair: 1/(2λ) + 1/λ = 1.5.
        assert!((t1 - 1.5).abs() < 1e-9);
        // Closed form with repair: (3λ + μ) / (2λ²) = (3 + 5) / 2 = 4.
        assert!((t2 - 4.0).abs() < 1e-9, "got {t2}");
        assert!(t2 > t1);
    }

    #[test]
    fn unreachable_target_is_infinite() {
        struct Isolated;
        impl MarkovModel for Isolated {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8, emit: &mut dyn FnMut(&u8, f64)) {
                if *s == 0 {
                    emit(&1, 1.0);
                }
            }
        }
        let space = crate::StateSpace::explore(&Isolated, 10).unwrap();
        let h = expected_hitting_time(&space, |&s| s == 9, 1e-12, 1000).unwrap();
        assert!(h.iter().all(|x| x.is_infinite()));
    }
}
