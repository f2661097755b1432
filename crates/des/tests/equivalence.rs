//! Equivalence tier: incremental enablement is a pure optimisation.
//!
//! Every estimator and per-replication outcome must be **bitwise
//! identical** whether the simulators use the dependency-graph-driven
//! incremental cache (the default on sound models) or a full
//! enablement rescan after every firing (the fallback for models whose
//! gates lack `touches` declarations). Three switches are exercised:
//!
//! * the per-simulator `with_full_rescan(true)` builder knob,
//! * the process-wide `ahs_san::set_force_full_rescan` test override,
//! * and the default incremental path on a sound model.
//!
//! The fixture declares gate `touches` honestly, so its dependency
//! graph is sound and the default path really is incremental (the
//! determinism tier's fixture, by contrast, omits them and exercises
//! the automatic fallback).

use ahs_des::{replication_rng, Backend, BiasScheme, EventDrivenSimulator, MarkovSimulator, Study};
use ahs_san::{set_force_full_rescan, Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::TimeGrid;

const SEED: u64 = 0x051D_E0E5;
const HORIZON: f64 = 8.0;

/// Two repairable components with an instantaneous "system down" latch
/// — like the determinism-tier fixture, but with honest `touches`
/// declarations so the incremental path is the one under test.
fn model() -> (SanModel, PlaceId) {
    let mut b = SanBuilder::new("equiv-fixture");
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
    b.timed_activity("repair2", Delay::exponential(1.5))
        .unwrap()
        .input_place(dn2)
        .output_place(up2)
        .build()
        .unwrap();
    let both_down = b.predicate_gate_touching("both_down", [dn1, dn2, ko], move |m| {
        m.is_marked(dn1) && m.is_marked(dn2) && !m.is_marked(ko)
    });
    b.instant_activity("latch", 10, 1.0)
        .unwrap()
        .input_gate(both_down)
        .output_place(ko)
        .build()
        .unwrap();
    let m = b.build().unwrap();
    assert!(
        m.dependency_graph().is_sound(),
        "fixture must exercise the incremental path"
    );
    (m, ko)
}

/// Bit-level fingerprint of one replication outcome.
fn outcome_bits(o: &ahs_des::RunOutcome) -> (Option<u64>, u64, u64, u64, u64) {
    (
        o.hit_time.map(f64::to_bits),
        o.hit_weight.to_bits(),
        o.end_time.to_bits(),
        o.final_weight.to_bits(),
        o.events,
    )
}

#[test]
fn ssa_replications_match_forced_rescan_bitwise() {
    let (m, ko) = model();
    let inc = MarkovSimulator::new(&m).unwrap();
    let full = MarkovSimulator::new(&m).unwrap().with_full_rescan(true);
    for rep in 0..300 {
        let mut r1 = replication_rng(SEED, rep);
        let mut r2 = replication_rng(SEED, rep);
        let a = inc
            .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r1)
            .unwrap();
        let b = full
            .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r2)
            .unwrap();
        assert_eq!(outcome_bits(&a), outcome_bits(&b), "rep {rep}");
    }
}

#[test]
fn biased_ssa_replications_match_forced_rescan_bitwise() {
    let (m, ko) = model();
    let bias = || {
        BiasScheme::new()
            .with_multiplier(m.find_activity("fail1").unwrap(), 4.0)
            .with_multiplier(m.find_activity("fail2").unwrap(), 4.0)
    };
    let inc = MarkovSimulator::new(&m).unwrap().with_bias(bias());
    let full = MarkovSimulator::new(&m)
        .unwrap()
        .with_bias(bias())
        .with_full_rescan(true);
    for rep in 0..300 {
        let mut r1 = replication_rng(SEED ^ 1, rep);
        let mut r2 = replication_rng(SEED ^ 1, rep);
        let a = inc
            .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r1)
            .unwrap();
        let b = full
            .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r2)
            .unwrap();
        assert_eq!(outcome_bits(&a), outcome_bits(&b), "rep {rep}");
    }
}

#[test]
fn event_driven_replications_match_forced_rescan_bitwise() {
    let (m, ko) = model();
    let inc = EventDrivenSimulator::new(&m);
    let full = EventDrivenSimulator::new(&m).with_full_rescan(true);
    for rep in 0..300 {
        let mut r1 = replication_rng(SEED ^ 2, rep);
        let mut r2 = replication_rng(SEED ^ 2, rep);
        let a = inc
            .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r1)
            .unwrap();
        let b = full
            .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r2)
            .unwrap();
        assert_eq!(outcome_bits(&a), outcome_bits(&b), "rep {rep}");
    }
}

#[test]
fn transient_curves_match_forced_rescan_bitwise() {
    let (m, ko) = model();
    let grid = [1.0, 3.0, HORIZON];
    let ssa_inc = MarkovSimulator::new(&m).unwrap();
    let ssa_full = MarkovSimulator::new(&m).unwrap().with_full_rescan(true);
    let ed_inc = EventDrivenSimulator::new(&m);
    let ed_full = EventDrivenSimulator::new(&m).with_full_rescan(true);
    for rep in 0..100 {
        let mut r1 = replication_rng(SEED ^ 3, rep);
        let mut r2 = replication_rng(SEED ^ 3, rep);
        let a = ssa_inc
            .run_transient(|mk| mk.is_marked(ko), &grid, &mut r1)
            .unwrap();
        let b = ssa_full
            .run_transient(|mk| mk.is_marked(ko), &grid, &mut r2)
            .unwrap();
        assert_eq!(a, b, "ssa rep {rep}");
        let mut r1 = replication_rng(SEED ^ 4, rep);
        let mut r2 = replication_rng(SEED ^ 4, rep);
        let a = ed_inc
            .run_transient(|mk| mk.is_marked(ko), &grid, &mut r1)
            .unwrap();
        let b = ed_full
            .run_transient(|mk| mk.is_marked(ko), &grid, &mut r2)
            .unwrap();
        assert_eq!(a, b, "ed rep {rep}");
    }
}

/// Full estimator pipeline under the process-wide override. A race
/// with a concurrently constructed cache in another test is benign —
/// the override only trades speed, never results — but the comparison
/// itself is meaningful because each Study below runs entirely under
/// one setting.
#[test]
fn study_estimates_match_global_forced_rescan_bitwise() {
    let run = |backend: fn() -> Backend| {
        let (m, ko) = model();
        let grid = TimeGrid::new(vec![2.0, HORIZON]);
        Study::new(m)
            .with_seed(0xE017)
            .with_fixed_replications(3_000)
            .with_chunk(400)
            .with_threads(3)
            .first_passage(move |mk| mk.is_marked(ko), &grid, backend())
            .unwrap()
            .curve
            .points(0.95)
            .iter()
            .map(|p| (p.y.to_bits(), p.half_width.to_bits()))
            .collect::<Vec<_>>()
    };
    for backend in [
        (|| Backend::Markov) as fn() -> Backend,
        || Backend::EventDriven,
        || {
            let (m, _) = model();
            Backend::BiasedMarkov(
                BiasScheme::new()
                    .with_multiplier(m.find_activity("fail1").unwrap(), 4.0)
                    .with_multiplier(m.find_activity("fail2").unwrap(), 4.0),
            )
        },
    ] {
        let incremental = run(backend);
        set_force_full_rescan(true);
        let forced = run(backend);
        set_force_full_rescan(false);
        assert!(
            incremental.iter().any(|&(y, _)| y != 0),
            "event never observed; comparison is vacuous"
        );
        assert_eq!(incremental, forced);
    }
}

/// Three repairable components whose failures share one group rate
/// (`shared = true`: a [`Delay::shared`] group; `false`: the same rate
/// written as a marking-dependent closure that counts the working
/// components), with an instantaneous "all down" latch.
fn shared_rate_model(shared: bool) -> (SanModel, PlaceId) {
    const FAIL_RATE: f64 = 1.5;
    let mut b = SanBuilder::new("shared-rate-fixture");
    let group = b.shared_rate_group("fail", FAIL_RATE).unwrap();
    let ups: Vec<_> = (0..3)
        .map(|i| b.place_with_tokens(&format!("up{i}"), 1).unwrap())
        .collect();
    let dns: Vec<_> = (0..3)
        .map(|i| b.place(&format!("dn{i}")).unwrap())
        .collect();
    let ko = b.place("ko").unwrap();
    for i in 0..3 {
        let delay = if shared {
            Delay::shared(group)
        } else {
            let ups = ups.clone();
            Delay::exponential_fn(move |m| {
                let working = ups.iter().filter(|&&p| m.is_marked(p)).count();
                FAIL_RATE / working.max(1) as f64
            })
        };
        b.timed_activity(&format!("fail{i}"), delay)
            .unwrap()
            .input_place(ups[i])
            .output_place(dns[i])
            .build()
            .unwrap();
        b.timed_activity(&format!("repair{i}"), Delay::exponential(2.0))
            .unwrap()
            .input_place(dns[i])
            .output_place(ups[i])
            .build()
            .unwrap();
    }
    let watched: Vec<_> = dns.iter().copied().chain([ko]).collect();
    let all_down = b.predicate_gate_touching("all_down", watched, move |m| {
        dns.iter().all(|&p| m.is_marked(p)) && !m.is_marked(ko)
    });
    b.instant_activity("latch", 10, 1.0)
        .unwrap()
        .input_gate(all_down)
        .output_place(ko)
        .build()
        .unwrap();
    let m = b.build().unwrap();
    assert!(m.dependency_graph().is_sound());
    assert_eq!(
        m.rate_groups()[0].members().len(),
        if shared { 3 } else { 0 }
    );
    (m, ko)
}

/// A shared-rate group and its closure twin give bitwise-equal `Study`
/// estimates on every backend, incremental and forced full-rescan.
#[test]
fn shared_rate_group_matches_closure_twin_bitwise() {
    let run = |shared: bool, backend: &dyn Fn(&SanModel) -> Backend| {
        let (m, ko) = shared_rate_model(shared);
        let backend = backend(&m);
        let grid = TimeGrid::new(vec![2.0, HORIZON]);
        Study::new(m)
            .with_seed(0x54A2ED)
            .with_fixed_replications(2_000)
            .with_chunk(400)
            .with_threads(2)
            .first_passage(move |mk| mk.is_marked(ko), &grid, backend)
            .unwrap()
            .curve
            .points(0.95)
            .iter()
            .map(|p| (p.y.to_bits(), p.half_width.to_bits()))
            .collect::<Vec<_>>()
    };
    let backends: [&dyn Fn(&SanModel) -> Backend; 3] =
        [&|_| Backend::Markov, &|_| Backend::EventDriven, &|m| {
            let fails = (0..3).map(|i| m.find_activity(&format!("fail{i}")).unwrap());
            Backend::BiasedMarkov(BiasScheme::new().with_multipliers(fails, 3.0))
        }];
    for backend in backends {
        let grouped = run(true, backend);
        let closure = run(false, backend);
        set_force_full_rescan(true);
        let grouped_forced = run(true, backend);
        let closure_forced = run(false, backend);
        set_force_full_rescan(false);
        assert!(
            grouped.iter().any(|&(y, _)| y != 0),
            "event never observed; comparison is vacuous"
        );
        assert_eq!(grouped, closure);
        assert_eq!(grouped, grouped_forced);
        assert_eq!(grouped, closure_forced);
    }
}
