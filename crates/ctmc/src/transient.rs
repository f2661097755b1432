//! Transient solution by uniformization.

use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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
/// Accurate to roughly `tol` in total variation.
///
/// # Cost
///
/// The first solve on a space builds the lane kernel of `P` and makes
/// `R` products, where `[L, R]` is the Poisson window of `qt`: cost
/// `O(nnz · (qt + sqrt(qt)))`. The space then keeps the kernel and six
/// iterates `π(0) Pᵏ` at most: the ones the latest solve passed at `L`,
/// at each quarter of `[L, R]` and at `R`, and the older kept one with
/// the largest `k < L`. A later solve starts from the kept iterate with
/// the largest `k ≤ L`, or from `π(0)` when there is none, so solving an
/// increasing grid of `t` costs about one sweep to the last `R` (1 304
/// products instead of 2 284 for t = 2, 6, 10 h on the n = 2 AHS chain).
/// The iterate `k` is the same vector whichever solve computed it, and
/// each `t` sums its own terms in `k` order with its own weights, so
/// every result is bit for bit what a fresh space would give. While the
/// space lives it holds the kernel (12 bytes per entry of `P`, ~9 MB at
/// n = 2) and the kept iterates (8 bytes per state each); clones and
/// [`absorbing`](StateSpace::absorbing) copies start without them.
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
    let memo = &space.uniformization;
    let Kernel { q, pt } = memo.kernel(space);

    // Every vector below is in the kernel's position order; the
    // elementwise `result += w·v` does not care, and the result is put
    // back in state order once at the end.
    let (left, weights) = poisson_weights(q * t, tol);
    let (mut k, mut vec) = memo
        .resume(left)
        .unwrap_or_else(|| (0, pt.to_positions(space.initial())));
    let mut scratch = vec![0.0; n];
    let mut result = vec![0.0; n];

    // Advance to the left truncation point.
    while k < left {
        pt.mul_vec(&vec, &mut scratch);
        std::mem::swap(&mut vec, &mut scratch);
        k += 1;
    }
    let last = weights.len() - 1;
    let quarter = (last / 4).max(1);
    let mut passed = Vec::new();
    for (i, w) in weights.iter().enumerate() {
        if i == last || (i % quarter == 0 && i / quarter < 4) {
            passed.push((left + i, vec.clone()));
        }
        for (r, v) in result.iter_mut().zip(vec.iter()) {
            *r += w * v;
        }
        if i < last {
            pt.mul_vec(&vec, &mut scratch);
            std::mem::swap(&mut vec, &mut scratch);
        }
    }
    memo.keep(passed);
    pt.to_rows(&result)
}

/// What [`transient_distribution`] keeps on a [`StateSpace`] between
/// solves: the lane kernel, built by the first solve, and at most six
/// iterates `π(0) Pᵏ` in position order, sorted by `k`. Iterates are
/// stored only once a solve has completed, so a lock poisoned by a
/// panicking solve still holds whole ones. A clone starts empty: the
/// memo belongs to one generator.
#[derive(Default)]
pub(crate) struct Uniformization {
    kernel: OnceLock<Kernel>,
    iterates: Mutex<Vec<(usize, Vec<f64>)>>,
}

/// `Pᵀ` for `P = I + Q/q` over the explored space, laid out for the
/// lane kernel, whose gather computes the forward step `xᵀ·P`. Row `c`
/// of `Pᵀ` lists its sources `r` in ascending order, so each output
/// adds its terms in the order a row-by-row `xᵀ·P` visits them: the
/// same sum, bit for bit.
struct Kernel {
    q: f64,
    pt: LaneMatrix,
}

impl Uniformization {
    fn kernel<S: PackedState>(&self, space: &StateSpace<S>) -> &Kernel {
        self.kernel.get_or_init(|| {
            let q = space.max_exit_rate() * 1.02 + 1e-12;
            let pt = space.rates().uniformized_transpose(space.exit_rates(), q);
            Kernel {
                q,
                pt: LaneMatrix::new(&pt),
            }
        })
    }

    fn iterates(&self) -> MutexGuard<'_, Vec<(usize, Vec<f64>)>> {
        self.iterates.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the kept iterate with the largest `k ≤ left`.
    fn resume(&self, left: usize) -> Option<(usize, Vec<f64>)> {
        self.iterates()
            .iter()
            .rev()
            .find(|(k, _)| *k <= left)
            .cloned()
    }

    /// Keeps the iterates a solve passed (ascending `k`, starting at
    /// its `L`) and, of the older ones, the one with the largest
    /// `k < L`: the best start for a later, slightly smaller `t`.
    fn keep(&self, passed: Vec<(usize, Vec<f64>)>) {
        let left = passed[0].0;
        let mut kept = self.iterates();
        let older = kept.drain(..).take_while(|(k, _)| *k < left).last();
        kept.extend(older);
        kept.extend(passed);
    }
}

impl Clone for Uniformization {
    fn clone(&self) -> Self {
        Uniformization::default()
    }
}

impl fmt::Debug for Uniformization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Uniformization").finish_non_exhaustive()
    }
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
    /// lengths.
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

    fn web() -> StateSpace<u32> {
        StateSpace::explore(&Web, 1000).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The lane kernel must reproduce a uniformization loop over the
    /// plain row gather bit for bit.
    #[test]
    fn matches_a_reference_loop_bit_for_bit() {
        let space = web();
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
        assert!(n > 20, "{n} states");
        assert_eq!(bits(&got), bits(&want));
    }

    /// Solves each `(t, tol)` in turn on one space and compares every π
    /// bit for bit with a solve on a fresh space. Every solve after the
    /// first must resume: its left truncation point `L` is positive and
    /// the memo holds an iterate `0 < k ≤ L`.
    fn assert_resumed_solves_match_fresh<S: PackedState>(
        explore: impl Fn() -> StateSpace<S>,
        solves: &[(f64, f64)],
    ) {
        let space = explore();
        for (i, &(t, tol)) in solves.iter().enumerate() {
            if i > 0 {
                let q = space.uniformization.kernel(&space).q;
                let (left, _) = poisson_weights(q * t, tol);
                let from = space.uniformization.resume(left).map(|(k, _)| k);
                assert!(
                    left > 0 && matches!(from, Some(k) if k > 0),
                    "solve {i} (t={t}, tol={tol}) does not resume: L={left}, kept k={from:?}"
                );
            }
            let got = transient_distribution(&space, t, tol);
            let want = transient_distribution(&explore(), t, tol);
            assert_eq!(bits(&got), bits(&want), "solve {i}: t={t}, tol={tol}");
        }
    }

    /// Repeated, increasing and decreasing `t`, then a `tol` that
    /// changes between calls, in units of the chain's `q`: the
    /// decreasing `t` resumes from the `R` of the first.
    fn solves(q: f64) -> Vec<(f64, f64)> {
        [
            (100.0, 1e-12),
            (100.0, 1e-12),
            (550.0, 1e-12),
            (440.0, 1e-12),
            (440.0, 1e-6),
            (660.0, 1e-9),
        ]
        .into_iter()
        .map(|(qt, tol)| (qt / q, tol))
        .collect()
    }

    #[test]
    fn resumed_solves_match_fresh_ones_on_the_web_chain() {
        let q = web().max_exit_rate();
        assert_resumed_solves_match_fresh(web, &solves(q));
    }

    #[test]
    fn resumed_solves_match_fresh_ones_on_the_n1_ahs_chain() {
        use ahs_core::{AhsModel, Params, Strategy};
        let params = Params::builder()
            .n(1)
            .strategy(Strategy::Dd)
            .build()
            .unwrap();
        let (san, _) = AhsModel::build(&params).unwrap().into_san();
        let adapter = crate::SanMarkovModel::new(&san).unwrap();
        let explore = || StateSpace::explore(&adapter, 1 << 16).unwrap();
        let q = explore().max_exit_rate();
        assert_resumed_solves_match_fresh(explore, &solves(q));
    }

    #[test]
    fn clones_and_absorbing_copies_start_without_the_memo() {
        let space = web();
        let solved = transient_distribution(&space, 6.0, 1e-12);
        let empty = |s: &StateSpace<u32>| {
            let memo = &s.uniformization;
            memo.kernel.get().is_none() && memo.iterates().is_empty()
        };
        assert!(!empty(&space));

        let clone = space.clone();
        assert!(empty(&clone));
        let got = transient_distribution(&clone, 9.0, 1e-12);
        assert_eq!(
            bits(&got),
            bits(&transient_distribution(&web(), 9.0, 1e-12))
        );

        // Another generator: a kernel or iterate inherited from `space`
        // would give `space`'s answer.
        let absorbing = space.absorbing(|s| s % 3 == 0);
        assert!(empty(&absorbing));
        let got = transient_distribution(&absorbing, 6.0, 1e-12);
        let want = transient_distribution(&web().absorbing(|s| s % 3 == 0), 6.0, 1e-12);
        assert_eq!(bits(&got), bits(&want));
        assert_ne!(bits(&got), bits(&solved));
    }

    #[test]
    fn a_poisoned_memo_is_recovered() {
        let space = web();
        transient_distribution(&space, 4.0, 1e-12);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = space.uniformization.iterates();
            panic!("poisons the memo lock");
        }));
        assert!(poison.is_err());
        let got = transient_distribution(&space, 9.0, 1e-12);
        assert_eq!(
            bits(&got),
            bits(&transient_distribution(&web(), 9.0, 1e-12))
        );
    }

    #[test]
    fn state_spaces_stay_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<StateSpace<u32>>();
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
