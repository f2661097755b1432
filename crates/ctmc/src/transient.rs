//! Transient solution by uniformization.

use crate::explore::StateSpace;
use crate::intern::PackedState;
use crate::sparse::LaneMatrix;

/// Computes normalized Poisson(λ) weights over a truncated support
/// `[left, left + weights.len())`, Fox–Glynn style: the recurrence is
/// anchored at the mode so that no intermediate value under- or
/// overflows, then normalized to sum to one.
///
/// Returns `(left, weights)`. The truncation discards total mass below
/// roughly `tol`.
///
/// # Panics
///
/// Panics if `lambda` is negative or non-finite, or `tol` is not in
/// `(0, 1)`.
pub fn poisson_weights(lambda: f64, tol: f64) -> (usize, Vec<f64>) {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be non-negative"
    );
    assert!(tol > 0.0 && tol < 1.0, "tolerance must be in (0, 1)");
    if lambda == 0.0 {
        return (0, vec![1.0]);
    }
    let mode = lambda.floor() as usize;

    // Unnormalized weights anchored at w[mode] = 1.
    // Going right: w_{k+1} = w_k * λ / (k+1); left: w_{k-1} = w_k * k / λ.
    // Expand until the edge weight is below `cut` relative to the mode.
    let cut = tol * 1e-4;
    let mut right = vec![1.0_f64];
    let mut k = mode;
    loop {
        let w = right.last().copied().expect("non-empty");
        let next = w * lambda / (k + 1) as f64;
        if next < cut && k > mode + (4.0 * lambda.sqrt()) as usize {
            break;
        }
        right.push(next);
        k += 1;
        if k > mode + 10_000_000 {
            break; // hard stop; unreachable for sane inputs
        }
    }
    let mut left_side = Vec::new();
    let mut w = 1.0_f64;
    let mut k = mode;
    while k > 0 {
        w *= k as f64 / lambda;
        if w < cut && (mode - k) as f64 > 4.0 * lambda.sqrt() {
            break;
        }
        left_side.push(w);
        k -= 1;
    }
    let left = k;
    let mut weights: Vec<f64> = left_side.into_iter().rev().collect();
    weights.extend(right);
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    (left, weights)
}

/// Computes the transient distribution `π(t)` of an explored CTMC by
/// uniformization:
/// `π(t) = Σ_k Poisson(qt; k) · π(0) Pᵏ` with `P = I + Q/q`.
///
/// Accurate to roughly `tol` in total variation. Cost is
/// `O(nnz · (qt + sqrt(qt)))`.
///
/// # Panics
///
/// Panics if `t` is negative or non-finite, or `tol` is not in `(0, 1)`.
pub fn transient_distribution<S: PackedState>(space: &StateSpace<S>, t: f64, tol: f64) -> Vec<f64> {
    assert!(t.is_finite() && t >= 0.0, "time must be non-negative");
    let n = space.len();
    if t == 0.0 {
        return space.initial().to_vec();
    }
    let q = space.max_exit_rate() * 1.02 + 1e-12;
    let pt = uniformized_kernel(space, q);

    // Every vector below is in the kernel's position order; the
    // elementwise `result += w·v` does not care, and the result is put
    // back in state order once at the end.
    let (left, weights) = poisson_weights(q * t, tol);
    let mut vec = pt.to_positions(space.initial());
    let mut scratch = vec![0.0; n];
    let mut result = vec![0.0; n];

    // Advance to the left truncation point.
    for _ in 0..left {
        pt.mul_vec(&vec, &mut scratch);
        std::mem::swap(&mut vec, &mut scratch);
    }
    for (i, w) in weights.iter().enumerate() {
        for (r, v) in result.iter_mut().zip(vec.iter()) {
            *r += w * v;
        }
        if i + 1 < weights.len() {
            pt.mul_vec(&vec, &mut scratch);
            std::mem::swap(&mut vec, &mut scratch);
        }
    }
    pt.to_rows(&result)
}

/// `Pᵀ` for `P = I + Q/q` over the explored space, laid out for the
/// lane kernel, whose gather computes the forward step `xᵀ·P`. Row `c`
/// of `Pᵀ` lists its sources `r` in ascending order, so each output
/// adds its terms in the order a row-by-row `xᵀ·P` visits them: the
/// same sum, bit for bit.
pub(crate) fn uniformized_kernel<S: PackedState>(space: &StateSpace<S>, q: f64) -> LaneMatrix {
    LaneMatrix::new(&space.rates().uniformized_transpose(space.exit_rates(), q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::MarkovModel;

    struct TwoState {
        fail: f64,
        repair: f64,
    }
    impl MarkovModel for TwoState {
        type State = bool;
        fn initial_states(&self) -> Vec<(bool, f64)> {
            vec![(true, 1.0)]
        }
        fn transitions(&self, s: &bool, emit: &mut dyn FnMut(&bool, f64)) {
            if *s {
                emit(&false, self.fail);
            } else {
                emit(&true, self.repair);
            }
        }
    }

    #[test]
    fn poisson_weights_sum_to_one_and_match_direct() {
        for &lam in &[0.1, 1.0, 7.3, 50.0, 2000.0] {
            let (left, w) = poisson_weights(lam, 1e-12);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "λ={lam}");
            if lam <= 10.0 {
                // Compare a few entries with the direct formula.
                for (i, &wi) in w.iter().enumerate() {
                    let k = left + i;
                    let direct = (-lam + (k as f64) * lam.ln() - ln_factorial(k)).exp();
                    assert!(
                        (wi - direct).abs() < 1e-9,
                        "λ={lam} k={k}: {wi} vs {direct}"
                    );
                }
            }
        }
    }

    fn ln_factorial(k: usize) -> f64 {
        (1..=k).map(|i| (i as f64).ln()).sum()
    }

    #[test]
    fn poisson_zero_lambda() {
        let (left, w) = poisson_weights(0.0, 1e-10);
        assert_eq!(left, 0);
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    fn two_state_availability_matches_closed_form() {
        let (lam, mu) = (1.0, 4.0);
        let m = TwoState {
            fail: lam,
            repair: mu,
        };
        let space = crate::StateSpace::explore(&m, 10).unwrap();
        for &t in &[0.0, 0.1, 0.5, 2.0, 10.0] {
            let pi = transient_distribution(&space, t, 1e-12);
            let p_down = space.probability(&pi, |s| !*s);
            let exact = lam / (lam + mu) * (1.0 - (-(lam + mu) * t).exp());
            assert!((p_down - exact).abs() < 1e-9, "t={t}: {p_down} vs {exact}");
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    /// A chain with irregular out-degrees, so `Pᵀ` has rows of many
    /// lengths: the lane kernel must reproduce a uniformization loop
    /// over the plain row gather bit for bit.
    #[test]
    fn matches_a_reference_loop_bit_for_bit() {
        struct Web;
        impl MarkovModel for Web {
            type State = u32;
            fn initial_states(&self) -> Vec<(u32, f64)> {
                vec![(0, 0.75), (5, 0.25)]
            }
            fn transitions(&self, s: &u32, emit: &mut dyn FnMut(&u32, f64)) {
                for k in 0..=(s % 5) {
                    emit(
                        &((s * 7 + 3 * k + 1) % 97),
                        0.5 + f64::from(k) + f64::from(s % 3),
                    );
                }
            }
        }
        let space = crate::StateSpace::explore(&Web, 1000).unwrap();
        let n = space.len();
        let (t, tol) = (3.0, 1e-12);
        let q = space.max_exit_rate() * 1.02 + 1e-12;
        let pt = space.rates().uniformized_transpose(space.exit_rates(), q);
        let (left, weights) = poisson_weights(q * t, tol);
        let mut vec = space.initial().to_vec();
        let mut scratch = vec![0.0; n];
        let mut want = vec![0.0; n];
        for _ in 0..left {
            crate::sparse::row_gather(&pt, &vec, &mut scratch);
            std::mem::swap(&mut vec, &mut scratch);
        }
        for (i, w) in weights.iter().enumerate() {
            for (r, v) in want.iter_mut().zip(&vec) {
                *r += w * v;
            }
            if i + 1 < weights.len() {
                crate::sparse::row_gather(&pt, &vec, &mut scratch);
                std::mem::swap(&mut vec, &mut scratch);
            }
        }
        let got = transient_distribution(&space, t, tol);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(n > 20, "{n} states");
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn large_qt_does_not_underflow() {
        // Rates of 500/h over t=10 → qt ≈ 5100, where naive e^{-qt}
        // underflows to zero.
        let m = TwoState {
            fail: 500.0,
            repair: 500.0,
        };
        let space = crate::StateSpace::explore(&m, 10).unwrap();
        let pi = transient_distribution(&space, 10.0, 1e-10);
        let p_down = space.probability(&pi, |s| !*s);
        assert!((p_down - 0.5).abs() < 1e-6, "p_down={p_down}");
    }

    #[test]
    fn first_passage_via_absorbing_chain() {
        // Pure failure chain: up -> down at rate λ; absorbing at down.
        let m = TwoState {
            fail: 0.3,
            repair: 100.0,
        };
        let space = crate::StateSpace::explore(&m, 10).unwrap();
        let abs = space.absorbing(|s| !*s);
        let pi = transient_distribution(&abs, 2.0, 1e-12);
        let p_hit = abs.probability(&pi, |s| !*s);
        let exact = 1.0 - (-0.3_f64 * 2.0).exp();
        assert!((p_hit - exact).abs() < 1e-9, "{p_hit} vs {exact}");
    }
}
