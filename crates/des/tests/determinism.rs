//! Determinism regression tier: the same master seed must produce
//! bitwise-identical estimates regardless of worker thread count.
//!
//! This guards the `split_seed`/`replication_rng` per-replication
//! stream design and the contiguous-prefix merge in `Study::run_study`
//! (which also decides when a precision-ruled study stops) against
//! future parallelism changes.

use std::sync::Arc;

use ahs_des::{Backend, BiasScheme, RewardSpec, Study};
use ahs_obs::Metrics;
use ahs_san::{Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::{StoppingRule, TimeGrid, WeightedStats};

/// A small repairable system with an instantaneous cascade: two
/// components failing/repairing plus an instantaneous "system down"
/// latch once both are down.
fn model() -> (SanModel, PlaceId) {
    let mut b = SanBuilder::new("det-fixture");
    let up1 = b.place_with_tokens("up1", 1).unwrap();
    let dn1 = b.place("dn1").unwrap();
    let up2 = b.place_with_tokens("up2", 1).unwrap();
    let dn2 = b.place("dn2").unwrap();
    let ko = b.place("ko").unwrap();
    b.timed_activity("fail1", Delay::exponential(0.8))
        .unwrap()
        .input_place(up1)
        .output_place(dn1)
        .build()
        .unwrap();
    b.timed_activity("repair1", Delay::exponential(2.0))
        .unwrap()
        .input_place(dn1)
        .output_place(up1)
        .build()
        .unwrap();
    b.timed_activity("fail2", Delay::exponential(0.6))
        .unwrap()
        .input_place(up2)
        .output_place(dn2)
        .build()
        .unwrap();
    let both_down = b.input_gate(
        "both_down",
        move |m| m.is_marked(dn1) && m.is_marked(dn2) && !m.is_marked(ko),
        |_| {},
    );
    b.instant_activity("latch", 10, 1.0)
        .unwrap()
        .input_gate(both_down)
        .output_place(ko)
        .build()
        .unwrap();
    (b.build().unwrap(), ko)
}

fn run_first_passage(threads: usize) -> Vec<(f64, f64)> {
    let (m, ko) = model();
    let grid = TimeGrid::new(vec![0.5, 1.5, 4.0]);
    let est = Study::new(m)
        .with_seed(0xD5_2009)
        .with_fixed_replications(6_000)
        .with_chunk(500)
        .with_threads(threads)
        .first_passage(move |mk| mk.is_marked(ko), &grid, Backend::Markov)
        .unwrap();
    assert_eq!(est.replications, 6_000);
    est.curve
        .points(0.95)
        .iter()
        .map(|p| (p.y, p.half_width))
        .collect()
}

#[test]
fn first_passage_is_thread_count_invariant() {
    let baseline = run_first_passage(1);
    assert!(baseline.iter().any(|&(y, _)| y > 0.0), "event never seen");
    for threads in [2, 4] {
        let run = run_first_passage(threads);
        assert_eq!(
            baseline, run,
            "estimates differ between 1 and {threads} threads"
        );
    }
}

/// A precision-ruled study (95% CI within 0.01 relative half-width at
/// t = 4) in chunks of 100: it stops after a few dozen chunks, so
/// workers have chunks in flight when the rule first holds.
fn precision_study(threads: usize) -> Study {
    let (m, _) = model();
    Study::new(m)
        .with_seed(0x9_2009)
        .with_rule(
            StoppingRule::relative_precision(0.95, 0.01)
                .with_min_samples(1_000)
                .with_max_samples(200_000),
        )
        .with_chunk(100)
        .with_threads(threads)
}

fn run_precision(threads: usize) -> (u64, Vec<WeightedStats>) {
    let (_, ko) = model();
    let grid = TimeGrid::new(vec![1.5, 4.0]);
    let est = precision_study(threads)
        .first_passage(move |mk| mk.is_marked(ko), &grid, Backend::Markov)
        .unwrap();
    assert!(est.converged, "precision study did not converge");
    (est.replications, est.curve.estimators().to_vec())
}

#[test]
fn precision_rule_is_thread_count_invariant() {
    let baseline = run_precision(1);
    assert!(baseline.0 > 1_000, "rule held at the minimum sample count");
    for threads in [2, 4] {
        let run = run_precision(threads);
        assert_eq!(
            baseline.0, run.0,
            "replication count differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.1, run.1,
            "estimators differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn biased_backend_is_thread_count_invariant() {
    let mk = |threads: usize| {
        let (m, ko) = model();
        let fail1 = m.find_activity("fail1").unwrap();
        let fail2 = m.find_activity("fail2").unwrap();
        let bias = BiasScheme::new()
            .with_multiplier(fail1, 3.0)
            .with_multiplier(fail2, 3.0);
        let grid = TimeGrid::new(vec![1.0, 2.0]);
        Study::new(m)
            .with_seed(77)
            .with_fixed_replications(4_000)
            .with_chunk(333)
            .with_threads(threads)
            .first_passage(
                move |mk2| mk2.is_marked(ko),
                &grid,
                Backend::BiasedMarkov(bias),
            )
            .unwrap()
            .curve
            .points(0.95)
            .iter()
            .map(|p| (p.y, p.half_width))
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(1), mk(2));
    assert_eq!(mk(1), mk(4));
}

/// A rate + impulse reward (time with component 1 down, plus one per
/// latch firing) over 5 000 replications: five chunks, so the fold
/// crosses chunk boundaries.
fn run_reward(threads: usize) -> (u64, u64, u64) {
    let (m, _) = model();
    let latch = m.find_activity("latch").unwrap();
    let dn1 = m.find_place("dn1").unwrap();
    let spec = RewardSpec::rate(move |mk| f64::from(u8::from(mk.is_marked(dn1))))
        .with_impulse(move |a, _| f64::from(u8::from(a == latch)));
    let est = Study::new(m)
        .with_seed(0x2E_2009)
        .with_fixed_replications(5_000)
        .with_threads(threads)
        .reward(&spec, 4.0, Backend::Markov)
        .unwrap();
    assert_eq!(est.replications, 5_000);
    let stats = est.curve.estimator(0).product_stats();
    (stats.count(), stats.mean().to_bits(), stats.m2().to_bits())
}

#[test]
fn reward_is_thread_count_invariant() {
    let baseline = run_reward(1);
    assert!(f64::from_bits(baseline.1) > 0.0, "reward never accrued");
    for threads in [2, 4] {
        assert_eq!(
            baseline,
            run_reward(threads),
            "reward differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn metrics_account_for_every_replication() {
    let (m, ko) = model();
    let metrics = Arc::new(Metrics::new());
    let grid = TimeGrid::new(vec![2.0]);
    let est = Study::new(m)
        .with_seed(9)
        .with_fixed_replications(2_000)
        .with_chunk(250)
        .with_threads(2)
        .with_metrics(metrics.clone())
        .first_passage(move |mk| mk.is_marked(ko), &grid, Backend::Markov)
        .unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.replications, est.replications);
    assert_eq!(snap.chunk_merges, 8);
    assert_eq!(snap.weight_count, 2_000);
    // Unbiased run: every weight is exactly 1, so ESS == N.
    assert!((snap.effective_sample_size() - 2_000.0).abs() < 1e-6);
    // The instantaneous latch fires in some replications, and only via
    // single-activity stabilizations (no >= 2 cascades in this model).
    assert!(snap.instantaneous_completions > 0);
    assert_eq!(snap.cascades, 0);
    assert!(snap.timed_completions > 0);
    // Both workers reported throughput; totals match.
    assert_eq!(snap.workers.len(), 2);
    let worker_total: u64 = snap.workers.iter().map(|w| w.replications).sum();
    assert_eq!(worker_total, 2_000);

    // A 2-thread precision-ruled study: chunks past the stopping
    // watermark are computed but never merged, so the metrics count
    // exactly the replications of the result.
    let metrics = Arc::new(Metrics::new());
    let est = precision_study(2)
        .with_metrics(metrics.clone())
        .first_passage(move |mk| mk.is_marked(ko), &grid, Backend::Markov)
        .unwrap();
    assert!(est.converged);
    let snap = metrics.snapshot();
    assert_eq!(snap.replications, est.replications);
    assert_eq!(snap.chunk_merges, est.replications / 100);
    let worker_total: u64 = snap.workers.iter().map(|w| w.replications).sum();
    assert!(worker_total >= est.replications);
}
