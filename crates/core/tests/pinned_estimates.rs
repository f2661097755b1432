//! Pins the exact bits of both paper-point estimates.
//!
//! The Figure 10 point (n = 8, λ = 1e-5) and its CC twin, evaluated
//! with dynamic (`Auto`) failure biasing, seed 2009, one worker thread
//! and a fixed budget of 300 replications. Every `S(t)` value and
//! confidence half-width is compared through `f64::to_bits` against
//! values recorded before the SSA kernel was last optimised, so a
//! kernel change that alters what is sampled — a different summation
//! order, an extra random draw, a rate computed by another formula —
//! fails here instead of silently moving the paper's numbers.
//!
//! The exact `S(t)` of the DD model at n = 1 and n = 2 (state-space
//! exploration plus uniformization) is pinned the same way, so a solver
//! kernel that adds the same terms in another order fails here too.
//!
//! If a change re-samples on purpose, re-record the constants below and
//! say why in the change log.

use ahs_core::{AhsModel, BiasMode, Params, Strategy, UnsafetyEvaluator};
use ahs_ctmc::{transient_distribution, SanMarkovModel, StateSpace};
use ahs_stats::TimeGrid;

/// `(S(t).to_bits(), half_width.to_bits())` at t = 2, 4, 6, 8, 10 h.
const DD_BITS: [(u64, u64); 5] = [
    (0x3e7a_0602_740d_3fad, 0x3e71_7c84_4a4c_9db3),
    (0x3e85_8f35_b559_679f, 0x3e76_f84e_5c3b_3188),
    (0x3e89_fc49_2e9b_430a, 0x3e79_d396_84b4_35a7),
    (0x3e92_fdf8_167a_42e8, 0x3e87_3bc9_3598_036c),
    (0x3e94_d058_e6a8_7bcc, 0x3e88_3cf7_eed0_0a42),
];

const CC_BITS: [(u64, u64); 5] = [
    (0x3e7a_0602_740d_3ff5, 0x3e71_7c84_4a4c_9db2),
    (0x3e85_8f35_b559_67c4, 0x3e76_f84e_5c3b_3185),
    (0x3e89_fc49_2e9b_433a, 0x3e79_d396_84b4_35a5),
    (0x3e92_fdf8_167a_42fe, 0x3e87_3bc9_3598_036c),
    (0x3e94_d058_e6a8_7bdf, 0x3e88_3cf7_eed0_0a40),
];

fn estimate_bits(strategy: Strategy) -> Vec<(u64, u64)> {
    let params = Params::builder()
        .n(8)
        .lambda(1e-5)
        .strategy(strategy)
        .build()
        .unwrap();
    let curve = UnsafetyEvaluator::new(params)
        .with_seed(2009)
        .with_threads(1)
        .with_replications(300)
        .with_bias(BiasMode::Auto)
        .evaluate(&TimeGrid::new(vec![2.0, 4.0, 6.0, 8.0, 10.0]))
        .unwrap();
    assert_eq!(curve.replications(), 300);
    curve
        .points()
        .iter()
        .map(|p| (p.y.to_bits(), p.half_width.to_bits()))
        .collect()
}

fn assert_pinned(strategy: Strategy, pinned: &[(u64, u64)]) {
    let got = estimate_bits(strategy);
    for (i, (g, p)) in got.iter().zip(pinned).enumerate() {
        assert_eq!(
            g,
            p,
            "{strategy:?} point {i}: S(t) {} ± {} (bits {:#x}, {:#x}) moved from \
             the pinned {} ± {} — the kernel re-samples",
            f64::from_bits(g.0),
            f64::from_bits(g.1),
            g.0,
            g.1,
            f64::from_bits(p.0),
            f64::from_bits(p.1),
        );
    }
    assert_eq!(got.len(), pinned.len());
}

#[test]
fn dd_paper_point_estimates_are_pinned() {
    assert_pinned(Strategy::Dd, &DD_BITS);
}

#[test]
fn cc_paper_point_estimates_are_pinned() {
    assert_pinned(Strategy::Cc, &CC_BITS);
}

/// `S(t).to_bits()` of the exact DD unsafety at t = 2, 6, 10 h
/// (uniformization, `tol = 1e-12`) at n = 1 and n = 2.
const EXACT_N1_BITS: [u64; 3] = [
    0x3df6_ff2f_60ab_a1ca,
    0x3e11_63cc_6aeb_8b2b,
    0x3e1d_07cc_fd88_f71d,
];
const EXACT_N2_BITS: [u64; 3] = [
    0x3e22_f7fd_efc0_b6bc,
    0x3e3c_a7d7_459d_28af,
    0x3e47_e9d7_c2ac_6944,
];

fn exact_bits(n: usize) -> Vec<u64> {
    let params = Params::builder()
        .n(n)
        .strategy(Strategy::Dd)
        .build()
        .unwrap();
    let (san, handles) = AhsModel::build(&params).unwrap().into_san();
    let adapter = SanMarkovModel::new(&san).unwrap();
    let space = StateSpace::explore(&adapter, 1 << 19).unwrap();
    [2.0, 6.0, 10.0]
        .into_iter()
        .map(|t| {
            let pi = transient_distribution(&space, t, 1e-12);
            space
                .probability(&pi, |m| m.is_marked(handles.ko_total))
                .to_bits()
        })
        .collect()
}

fn assert_exact_pinned(n: usize, pinned: &[u64; 3]) {
    let got = exact_bits(n);
    for (i, (g, p)) in got.iter().zip(pinned).enumerate() {
        assert_eq!(
            g,
            p,
            "n={n} point {i}: exact S(t) {} (bits {g:#x}) moved from the pinned {} \
             — the uniformization kernel sums in another order",
            f64::from_bits(*g),
            f64::from_bits(*p),
        );
    }
}

#[test]
fn exact_unsafety_n1_is_pinned() {
    assert_exact_pinned(1, &EXACT_N1_BITS);
}

#[test]
fn exact_unsafety_n2_is_pinned() {
    assert_exact_pinned(2, &EXACT_N2_BITS);
}

/// Order-sensitive digests of the explored DD chain at n = 1 and n = 2:
/// `(space, π)`. `space` folds every state's `Marking::fingerprint` in
/// index order, then `(row, col, rate.to_bits())` of every generator
/// entry; `π` folds the `to_bits` of every entry of π(2 h), π(6 h) and
/// π(10 h). The KO sums above cannot see a renumbered state or a
/// reordered sum in a row whose state is not KO; these can.
const ORDER_N1: (u64, u64) = (0xfa46_d17c_173a_bfbc, 0xcec0_ef57_9289_7502);
const ORDER_N2: (u64, u64) = (0x4f0c_36a7_33bc_82c9, 0x0d13_6bbc_aa32_0d63);

/// FNV-1a over the little-endian bytes of each word.
fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().into_iter().fold(h, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn order_digests(n: usize) -> (u64, u64) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let params = Params::builder()
        .n(n)
        .strategy(Strategy::Dd)
        .build()
        .unwrap();
    let (san, _) = AhsModel::build(&params).unwrap().into_san();
    let adapter = SanMarkovModel::new(&san).unwrap();
    let space = StateSpace::explore(&adapter, 1 << 19).unwrap();
    let mut h = space.states().fold(OFFSET, |h, m| fold(h, m.fingerprint()));
    for (r, c, rate) in space.edges() {
        h = fold(fold(fold(h, r as u64), c as u64), rate.to_bits());
    }
    let pi = [2.0, 6.0, 10.0]
        .into_iter()
        .flat_map(|t| transient_distribution(&space, t, 1e-12))
        .fold(OFFSET, |h, p| fold(h, p.to_bits()));
    (h, pi)
}

fn assert_order_pinned(n: usize, pinned: (u64, u64)) {
    let (space, pi) = order_digests(n);
    assert_eq!(
        space, pinned.0,
        "n={n}: state-space digest {space:#x} moved — the explorer renumbered \
         states, reordered edges or changed a rate bit"
    );
    assert_eq!(
        pi, pinned.1,
        "n={n}: π digest {pi:#x} moved — the uniformization kernel changed \
         some entry's bits"
    );
}

#[test]
fn exact_order_digests_n1_are_pinned() {
    assert_order_pinned(1, ORDER_N1);
}

#[test]
fn exact_order_digests_n2_are_pinned() {
    assert_order_pinned(2, ORDER_N2);
}
