//! Statistical conformance tier: the DES *transient* estimator against
//! the exact uniformization solution, judged at 99% confidence.
//!
//! Unlike `solver_vs_simulators.rs` (first-passage probabilities into an
//! absorbing condition), these tests check the instantaneous state
//! probability `P(condition holds at t)` for non-monotone conditions —
//! the estimator that backs Möbius-style instant-of-time reward
//! variables. Each simulated point must land within its own 99%
//! confidence half-width of the numeric answer (plus a small absolute
//! floor for near-zero probabilities).

use ahs_ctmc::{transient_distribution, SanMarkovModel, StateSpace};
use ahs_des::{Backend, Study};
use ahs_san::{Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::TimeGrid;

/// A 2-component repairable system with asymmetric rates, no absorbing
/// state: every condition stays non-monotone in time.
fn repairable_pair() -> (SanModel, Vec<PlaceId>) {
    let mut b = SanBuilder::new("pair");
    let mut downs = Vec::new();
    for (i, (fail, repair)) in [(0.7, 1.5), (0.4, 2.5)].iter().enumerate() {
        let up = b.place_with_tokens(&format!("up{i}"), 1).unwrap();
        let down = b.place(&format!("down{i}")).unwrap();
        b.timed_activity(&format!("fail{i}"), Delay::exponential(*fail))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        b.timed_activity(&format!("repair{i}"), Delay::exponential(*repair))
            .unwrap()
            .input_place(down)
            .output_place(up)
            .build()
            .unwrap();
        downs.push(down);
    }
    (b.build().unwrap(), downs)
}

/// Exact `P(condition at t)` for each grid point via uniformization.
fn numeric_transient(
    model: &SanModel,
    grid: &TimeGrid,
    condition: impl Fn(&ahs_san::Marking) -> bool,
) -> Vec<f64> {
    let adapter = SanMarkovModel::new(model).unwrap();
    let space = StateSpace::explore(&adapter, 1000).unwrap();
    grid.points()
        .iter()
        .map(|&t| {
            let pi = transient_distribution(&space, t, 1e-12);
            space.probability(&pi, &condition)
        })
        .collect()
}

fn assert_conformance(simulated: &[(f64, f64, f64)], numeric: &[f64]) {
    for (&(x, y, hw), &exact) in simulated.iter().zip(numeric.iter()) {
        assert!(
            (y - exact).abs() <= hw.max(2e-3),
            "t={x}: simulated {y} ± {hw} vs exact {exact}"
        );
    }
}

fn simulate_transient(
    model: SanModel,
    downs: &[PlaceId],
    grid: &TimeGrid,
    which: usize,
    backend: Backend,
    seed: u64,
) -> Vec<(f64, f64, f64)> {
    let down = downs[which];
    Study::new(model)
        .with_seed(seed)
        .with_fixed_replications(50_000)
        .with_threads(2)
        .transient(move |m| m.is_marked(down), grid, backend)
        .unwrap()
        .curve
        .points(0.99)
        .iter()
        .map(|p| (p.x, p.y, p.half_width))
        .collect()
}

#[test]
fn transient_markov_backend_matches_uniformization_at_99() {
    let (model, downs) = repairable_pair();
    let grid = TimeGrid::new(vec![0.25, 1.0, 3.0, 8.0]);
    let d0 = downs[0];
    let numeric = numeric_transient(&model, &grid, |m| m.is_marked(d0));
    // The late grid points are effectively steady state; the early ones
    // are still in the transient ramp — both regimes must agree.
    assert!(numeric[0] < numeric[3], "ramp regime check: {numeric:?}");
    let simulated = simulate_transient(model, &downs, &grid, 0, Backend::Markov, 0xC0_99);
    assert_conformance(&simulated, &numeric);
}

#[test]
fn transient_joint_condition_matches_uniformization_at_99() {
    // Joint condition over both components: exercises the product state
    // space rather than a single marginal.
    let (model, downs) = repairable_pair();
    let grid = TimeGrid::new(vec![1.0, 5.0]);
    let (d0, d1) = (downs[0], downs[1]);
    let numeric = numeric_transient(&model, &grid, |m| m.is_marked(d0) && m.is_marked(d1));
    let both = move |m: &ahs_san::Marking| m.is_marked(d0) && m.is_marked(d1);
    let simulated: Vec<(f64, f64, f64)> = Study::new(model)
        .with_seed(0xC2_99)
        .with_fixed_replications(50_000)
        .with_threads(2)
        .transient(both, &grid, Backend::Markov)
        .unwrap()
        .curve
        .points(0.99)
        .iter()
        .map(|p| (p.x, p.y, p.half_width))
        .collect();
    assert_conformance(&simulated, &numeric);
}
