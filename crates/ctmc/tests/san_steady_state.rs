//! Long-horizon transient solution of a SAN-derived CTMC, cross-checked
//! against its closed-form limit.

use ahs_ctmc::{transient_distribution, SanMarkovModel, StateSpace};
use ahs_san::{Delay, SanBuilder};

/// k independent repairable components (failure λ, repair μ):
/// steady-state P(j down) is binomial with p = λ/(λ+μ). From all-up,
/// each component is down at `t` with p·(1 − e^{−(λ+μ)t}), so by
/// t = 20 (e^{−80}) the transient distribution is the limit far inside
/// the tolerance.
#[test]
fn independent_components_binomial_steady_state() {
    let (lambda, mu, k) = (1.0, 3.0, 3usize);
    let mut b = SanBuilder::new("multi");
    let mut downs = Vec::new();
    for i in 0..k {
        let up = b.place_with_tokens(&format!("up{i}"), 1).unwrap();
        let down = b.place(&format!("down{i}")).unwrap();
        b.timed_activity(&format!("fail{i}"), Delay::exponential(lambda))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        b.timed_activity(&format!("repair{i}"), Delay::exponential(mu))
            .unwrap()
            .input_place(down)
            .output_place(up)
            .build()
            .unwrap();
        downs.push(down);
    }
    let model = b.build().unwrap();
    let adapter = SanMarkovModel::new(&model).unwrap();
    let space = StateSpace::explore(&adapter, 100).unwrap();
    assert_eq!(space.len(), 8);

    let pi = transient_distribution(&space, 20.0, 1e-12);
    let p = lambda / (lambda + mu);
    for j in 0..=k {
        let measured: f64 = space
            .states()
            .zip(pi.iter())
            .filter(|(m, _)| downs.iter().filter(|&&d| m.is_marked(d)).count() == j)
            .map(|(_, pr)| pr)
            .sum();
        let binom = choose(k, j) as f64 * p.powi(j as i32) * (1.0 - p).powi((k - j) as i32);
        assert!(
            (measured - binom).abs() < 1e-8,
            "P({j} down): {measured} vs binomial {binom}"
        );
    }
}

fn choose(n: usize, k: usize) -> u64 {
    (1..=k).fold(1u64, |acc, i| acc * (n - k + i) as u64 / i as u64)
}
