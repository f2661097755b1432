//! Integration tests of the replication study layer: biased transient
//! estimation, state-dependent bias schemes, and reward/splitting
//! interplay on a common model.

use ahs_des::{Backend, BiasScheme, RewardSpec, SplittingStudy, Study};
use ahs_san::{Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::TimeGrid;

/// Two-component system; both down = system failure (repairable, so
/// the transient probability is non-monotone in general).
fn two_components(fail: f64, repair: f64) -> (SanModel, Vec<PlaceId>) {
    let mut b = SanBuilder::new("pair");
    let mut downs = Vec::new();
    for i in 0..2 {
        let up = b.place_with_tokens(&format!("up{i}"), 1).unwrap();
        let down = b.place(&format!("down{i}")).unwrap();
        b.timed_activity(&format!("fail{i}"), Delay::exponential(fail))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        b.timed_activity(&format!("repair{i}"), Delay::exponential(repair))
            .unwrap()
            .input_place(down)
            .output_place(up)
            .build()
            .unwrap();
        downs.push(down);
    }
    (b.build().unwrap(), downs)
}

#[test]
fn biased_transient_matches_plain_transient() {
    let (model, downs) = two_components(0.05, 2.0);
    let fails: Vec<_> = (0..2)
        .map(|i| model.find_activity(&format!("fail{i}")).unwrap())
        .collect();
    let d = downs.clone();
    let pred = move |m: &ahs_san::Marking| d.iter().all(|&p| m.is_marked(p));
    let grid = TimeGrid::new(vec![2.0, 6.0, 10.0]);

    let study = Study::new(model)
        .with_seed(31)
        .with_fixed_replications(60_000)
        .with_threads(2);
    let plain = study.transient(&pred, &grid, Backend::Markov).unwrap();
    let biased = study
        .transient(
            &pred,
            &grid,
            Backend::BiasedMarkov(BiasScheme::new().with_multipliers(fails, 8.0)),
        )
        .unwrap();

    for i in 0..grid.len() {
        let a = plain.curve.interval(i, 0.999);
        let b = biased.curve.interval(i, 0.999);
        assert!(
            a.overlaps(&b),
            "t={}: plain {a} vs biased {b}",
            grid.points()[i]
        );
    }
}

#[test]
fn state_dependent_bias_is_unbiased() {
    // Boost the second failure only while the first is down — the
    // miniature of the AHS dynamic scheme — and check against plain MC
    // on the first-passage to both-down.
    let (model, downs) = two_components(0.02, 1.0);
    let fails: Vec<_> = (0..2)
        .map(|i| model.find_activity(&format!("fail{i}")).unwrap())
        .collect();
    let (d0, d1) = (downs[0], downs[1]);
    let scheme = BiasScheme::new()
        .with_multipliers(fails, 5.0)
        .with_state_factor(move |m| {
            if m.is_marked(d0) || m.is_marked(d1) {
                20.0
            } else {
                1.0
            }
        });

    let d = downs.clone();
    let target = move |m: &ahs_san::Marking| d.iter().all(|&p| m.is_marked(p));
    let grid = TimeGrid::new(vec![10.0]);
    let study = Study::new(model)
        .with_seed(32)
        .with_fixed_replications(80_000)
        .with_threads(2);
    let plain = study
        .first_passage(&target, &grid, Backend::Markov)
        .unwrap();
    let dynamic = study
        .first_passage(&target, &grid, Backend::BiasedMarkov(scheme))
        .unwrap();

    let a = plain.curve.interval(0, 0.999);
    let b = dynamic.curve.interval(0, 0.999);
    assert!(a.overlaps(&b), "plain {a} vs dynamic-bias {b}");
    // The dynamic scheme should be the tighter estimator per
    // replication in this rare-ish regime.
    assert!(
        b.half_width() < a.half_width(),
        "expected variance reduction: plain ± {}, dynamic ± {}",
        a.half_width(),
        b.half_width()
    );
}

#[test]
fn reward_and_splitting_coexist_on_one_model() {
    // Same model, three questions: downtime reward, first-passage via
    // splitting, and a transient curve.
    let (model, downs) = two_components(0.3, 1.5);
    let d0 = downs[0];

    let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(d0))));
    let reward = Study::new({
        let (m, _) = two_components(0.3, 1.5);
        m
    })
    .with_seed(33)
    .with_fixed_replications(4_000)
    .reward(&spec, 50.0, Backend::Markov)
    .unwrap();
    // Component-0 unavailability: 0.3/1.8 over [0, 50].
    assert!((reward.curve.estimator(0).mean() / 50.0 - 1.0 / 6.0).abs() < 0.01);

    let d = downs.clone();
    let split = SplittingStudy::new(model)
        .with_seed(34)
        .with_effort(8_000)
        .estimate(
            move |m| d.iter().filter(|&&p| m.is_marked(p)).count(),
            2,
            2.0,
        )
        .unwrap();
    assert!(split.probability > 0.05 && split.probability < 0.6);
    assert_eq!(split.stage_probabilities.len(), 2);
}
