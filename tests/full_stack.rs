//! Workspace-level integration tests exercising the public API across
//! crate boundaries, the way a downstream user would.

use ahs_safety::core::{ManeuverRates, Params, UnsafetyEvaluator};
use ahs_safety::des::{Backend, Study};
use ahs_safety::platoon::DurationModel;
use ahs_safety::san::{Delay, SanBuilder};
use ahs_safety::stats::TimeGrid;

#[test]
fn build_a_custom_san_and_study_it_through_the_umbrella() {
    // A downstream user modelling their own component with the
    // re-exported layers.
    let mut b = SanBuilder::new("user-model");
    let up = b.place_with_tokens("up", 1).unwrap();
    let degraded = b.place("degraded").unwrap();
    let down = b.place("down").unwrap();
    b.timed_activity("degrade", Delay::exponential(0.4))
        .unwrap()
        .input_place(up)
        .output_place(degraded)
        .build()
        .unwrap();
    b.timed_activity("die", Delay::exponential(1.2))
        .unwrap()
        .input_place(degraded)
        .output_place(down)
        .build()
        .unwrap();
    let model = b.build().unwrap();

    let study = Study::new(model)
        .with_seed(1)
        .with_fixed_replications(20_000)
        .with_threads(2);
    let grid = TimeGrid::new(vec![1.0, 4.0]);
    let est = study
        .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
        .unwrap();
    let pts = est.curve.points(0.95);

    // Closed form for the hypo-exponential chain:
    // P(down by t) = 1 - (b·e^{-at} - a·e^{-bt})/(b - a).
    let (a, b_) = (0.4_f64, 1.2_f64);
    for pt in &pts {
        let t = pt.x;
        let exact = 1.0 - (b_ * (-a * t).exp() - a * (-b_ * t).exp()) / (b_ - a);
        assert!((pt.y - exact).abs() < 0.012, "t={t}: {} vs {exact}", pt.y);
    }
}

#[test]
fn kinematic_durations_feed_the_safety_model() {
    // End-to-end pipeline: measure maneuver durations kinematically,
    // convert to rates, run the safety study with those rates.
    let duration_model = DurationModel::default();
    let mut rates = ManeuverRates::nominal();
    for (m, stats) in duration_model.estimate_all(120, 5) {
        rates.set_rate(m, stats.rate_per_hour());
    }

    let params = Params::builder()
        .n(4)
        .lambda(5e-3)
        .maneuver_rates(rates)
        .build()
        .unwrap();
    let curve = UnsafetyEvaluator::new(params)
        .with_seed(77)
        .with_replications(8_000)
        .with_threads(2)
        .evaluate(&TimeGrid::new(vec![2.0, 10.0]))
        .unwrap();
    let pts = curve.points();
    assert!(pts[0].y > 0.0);
    assert!(pts[0].y <= pts[1].y);
    assert!(pts[1].y < 0.1);
}

#[test]
fn slower_maneuvers_mean_higher_unsafety() {
    // The maneuver rate window (15-30/hr) matters: halving every rate
    // doubles the exposure window of each failure, raising S(t).
    let grid = TimeGrid::new(vec![6.0]);
    let s = |scale: f64| {
        let mut rates = ManeuverRates::nominal();
        for m in ahs_safety::platoon::RecoveryManeuver::ALL {
            rates.set_rate(m, rates.rate(m) * scale);
        }
        let params = Params::builder()
            .n(4)
            .lambda(5e-3)
            .maneuver_rates(rates)
            .build()
            .unwrap();
        UnsafetyEvaluator::new(params)
            .with_seed(88)
            .with_replications(30_000)
            .with_threads(2)
            .evaluate(&grid)
            .unwrap()
            .points()[0]
            .y
    };
    let nominal = s(1.0);
    let slow = s(0.4);
    assert!(
        slow > nominal,
        "slower maneuvers must be less safe: {slow} vs {nominal}"
    );
}

#[test]
fn ctmc_layer_reachable_from_umbrella() {
    use ahs_safety::ctmc::{transient_distribution, SanMarkovModel, StateSpace};

    let mut b = SanBuilder::new("fr");
    let up = b.place_with_tokens("up", 1).unwrap();
    let down = b.place("down").unwrap();
    b.timed_activity("fail", Delay::exponential(2.0))
        .unwrap()
        .input_place(up)
        .output_place(down)
        .build()
        .unwrap();
    b.timed_activity("repair", Delay::exponential(5.0))
        .unwrap()
        .input_place(down)
        .output_place(up)
        .build()
        .unwrap();
    let model = b.build().unwrap();
    let adapter = SanMarkovModel::new(&model).unwrap();
    let space = StateSpace::explore(&adapter, 10).unwrap();
    let pi = transient_distribution(&space, 1.0, 1e-12);
    let p_down = space.probability(&pi, |m| m.is_marked(down));
    let exact = 2.0 / 7.0 * (1.0 - (-7.0_f64).exp());
    assert!((p_down - exact).abs() < 1e-9);
}

#[test]
fn transient_solves_on_one_space_agree_across_threads() {
    use ahs_safety::core::{AhsModel, Strategy};
    use ahs_safety::ctmc::{poisson_weights, transient_distribution, SanMarkovModel, StateSpace};

    // Two threads solve different t on one n = 1 AHS space at once,
    // both resuming from the iterates a t = 2 h solve kept; each π must
    // equal, bit for bit, the one a fresh space gives.
    let params = Params::builder()
        .n(1)
        .strategy(Strategy::Dd)
        .build()
        .unwrap();
    let (san, _) = AhsModel::build(&params).unwrap().into_san();
    let adapter = SanMarkovModel::new(&san).unwrap();
    let explore = || StateSpace::explore(&adapter, 1 << 16).unwrap();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();

    let space = explore();
    // Both resume from the t = 2 h solve's iterate at its left
    // truncation point L, at least: L(2) > 0 and L is increasing in t.
    let q = space.max_exit_rate() * 1.02 + 1e-12; // the solver's rate
    let left = |t: f64| poisson_weights(q * t, 1e-12).0;
    assert!(0 < left(2.0) && left(2.0) <= left(6.0) && left(6.0) <= left(10.0));

    transient_distribution(&space, 2.0, 1e-12);
    let start = std::sync::Barrier::new(2);
    let solve = |t: f64| {
        start.wait();
        transient_distribution(&space, t, 1e-12)
    };
    let (six, ten) = std::thread::scope(|s| {
        let six = s.spawn(|| solve(6.0));
        let ten = s.spawn(|| solve(10.0));
        (six.join().unwrap(), ten.join().unwrap())
    });
    assert_eq!(
        bits(six),
        bits(transient_distribution(&explore(), 6.0, 1e-12))
    );
    assert_eq!(
        bits(ten),
        bits(transient_distribution(&explore(), 10.0, 1e-12))
    );
}
