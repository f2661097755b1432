//! Cross-validation: the uniformization solver against the SSA, plain
//! and importance-sampled, on models small enough to enumerate. This is validation step 2 of DESIGN.md.

use ahs_ctmc::{transient_distribution, SanMarkovModel, StateSpace};
use ahs_des::{Backend, BiasScheme, Study};
use ahs_san::{Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::TimeGrid;

/// A 3-component repairable system that fails catastrophically when all
/// three components are simultaneously down — a miniature of the AHS
/// "multiple concurrent failures" structure.
fn triple_system(fail: f64, repair: f64) -> (SanModel, Vec<PlaceId>, PlaceId) {
    let mut b = SanBuilder::new("triple");
    let mut downs = Vec::new();
    let ko = b.shared_place("ko").unwrap();
    for i in 0..3 {
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
    // Instantaneous detection of the catastrophic condition.
    let d = downs.clone();
    let all_down = b.input_gate(
        "all_down",
        move |m| d.iter().all(|&p| m.is_marked(p)) && !m.is_marked(ko),
        |_| {},
    );
    b.instant_activity("to_ko", 10, 1.0)
        .unwrap()
        .input_gate(all_down)
        .output_place(ko)
        .build()
        .unwrap();
    (b.build().unwrap(), downs, ko)
}

#[test]
fn ctmc_matches_plain_simulation_on_triple_system() {
    let (model, _, ko) = triple_system(0.8, 2.0);
    let adapter = SanMarkovModel::new(&model).unwrap();
    let space = StateSpace::explore(&adapter, 1000).unwrap();
    // ko is absorbing by construction (no outgoing activity consumes it,
    // and to_ko is inhibited once marked), so the transient mass in
    // ko-marked states is the first-passage probability.
    let grid = TimeGrid::new(vec![0.5, 1.0, 2.0]);
    let numeric: Vec<f64> = grid
        .points()
        .iter()
        .map(|&t| {
            let pi = transient_distribution(&space, t, 1e-12);
            space.probability(&pi, |m| m.is_marked(ko))
        })
        .collect();

    let study = Study::new(model)
        .with_seed(101)
        .with_fixed_replications(60_000)
        .with_threads(4);
    let est = study
        .first_passage(move |m| m.is_marked(ko), &grid, Backend::Markov)
        .unwrap();

    for (i, pt) in est.curve.points(0.999).iter().enumerate() {
        assert!(
            (pt.y - numeric[i]).abs() <= pt.half_width.max(2e-3),
            "t={}: simulation {} vs numeric {}",
            pt.x,
            pt.y,
            numeric[i]
        );
    }
}

#[test]
fn ctmc_matches_importance_sampling_in_rare_regime() {
    // Rare regime: fail 0.01, repair 10 → all-three-down is ~1e-7-ish.
    let (model, _, ko) = triple_system(0.01, 10.0);
    let fails: Vec<_> = (0..3)
        .map(|i| model.find_activity(&format!("fail{i}")).unwrap())
        .collect();
    let adapter = SanMarkovModel::new(&model).unwrap();
    let space = StateSpace::explore(&adapter, 1000).unwrap();
    let grid = TimeGrid::new(vec![5.0]);
    let pi = transient_distribution(&space, 5.0, 1e-13);
    let numeric = space.probability(&pi, |m| m.is_marked(ko));
    assert!(numeric > 1e-9 && numeric < 1e-3, "regime check: {numeric}");

    let bias = BiasScheme::new().with_multipliers(fails, 30.0);
    let study = Study::new(model)
        .with_seed(202)
        .with_fixed_replications(150_000)
        .with_threads(4);
    let est = study
        .first_passage(move |m| m.is_marked(ko), &grid, Backend::BiasedMarkov(bias))
        .unwrap();
    let pt = &est.curve.points(0.999)[0];
    let rel = (pt.y - numeric).abs() / numeric;
    assert!(
        rel < 0.25 || (pt.y - numeric).abs() <= pt.half_width,
        "IS {} vs numeric {numeric} (rel {rel})",
        pt.y
    );
}

#[test]
fn state_space_size_is_as_expected() {
    // 3 components × up/down, plus the ko flag; to_ko collapses the
    // all-down+unflagged state instantly, so: 2^3 states with ko=0 minus
    // the vanishing one, plus reachable ko=1 states (all-down flagged,
    // and its repair successors).
    let (model, _, _) = triple_system(1.0, 1.0);
    let adapter = SanMarkovModel::new(&model).unwrap();
    let space = StateSpace::explore(&adapter, 1000).unwrap();
    assert!(space.len() >= 8 && space.len() <= 16, "got {}", space.len());
}
