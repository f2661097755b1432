//! Steady-state solution of SAN-derived CTMCs, cross-checked against
//! closed forms and long-horizon transient solutions.

use ahs_ctmc::{steady_state, transient_distribution, SanMarkovModel, StateSpace};
use ahs_san::{Delay, SanBuilder};

/// k independent repairable components (failure λ, repair μ):
/// steady-state P(j down) is binomial with p = λ/(λ+μ).
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

    let pi = steady_state(&space, 1e-12, 200_000).unwrap();
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

/// Steady state must equal the long-horizon transient distribution.
#[test]
fn steady_state_is_transient_limit() {
    let mut b = SanBuilder::new("cyclic");
    // Three-phase cycle with distinct rates.
    let p0 = b.place_with_tokens("a", 1).unwrap();
    let p1 = b.place("b").unwrap();
    let p2 = b.place("c").unwrap();
    for (name, from, to, rate) in [
        ("ab", p0, p1, 1.0),
        ("bc", p1, p2, 2.0),
        ("ca", p2, p0, 4.0),
    ] {
        b.timed_activity(name, Delay::exponential(rate))
            .unwrap()
            .input_place(from)
            .output_place(to)
            .build()
            .unwrap();
    }
    let model = b.build().unwrap();
    let adapter = SanMarkovModel::new(&model).unwrap();
    let space = StateSpace::explore(&adapter, 10).unwrap();

    let pi_ss = steady_state(&space, 1e-13, 100_000).unwrap();
    let pi_t = transient_distribution(&space, 200.0, 1e-12);
    for (a, b) in pi_ss.iter().zip(pi_t.iter()) {
        assert!((a - b).abs() < 1e-8, "steady {a} vs transient-limit {b}");
    }
    // Sojourn-proportional occupancy: π_i ∝ 1/rate_i.
    let expect = [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0];
    for (i, &place) in [p0, p1, p2].iter().enumerate() {
        let measured = space.probability(&pi_ss, |m| m.is_marked(place));
        assert!(
            (measured - expect[i]).abs() < 1e-8,
            "phase {i}: {measured} vs {}",
            expect[i]
        );
    }
}
