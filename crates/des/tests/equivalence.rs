//! Equivalence tier: incremental enablement is a pure optimisation.
//!
//! Every estimator and per-replication outcome must be **bitwise
//! identical** whether the simulator uses the dependency-graph-driven
//! incremental cache or a full enablement rescan after every firing.
//! The model alone selects between the two: a sound dependency graph
//! (every gate declares the places it `touches`) runs incrementally,
//! and an unsound one falls back to the full rescan. Each fixture
//! therefore has a twin whose gates omit `touches`; the twin is
//! asserted unsound, so no comparison below is vacuous.
//!
//! The tier also pins an order-sensitive digest of every entry point
//! of the executor, and checks that first passage and an observer run
//! take one path through the model.

use ahs_des::{replication_rng, Backend, BiasScheme, MarkovSimulator, Study};
use ahs_san::{ActivityId, Delay, Marking, PlaceId, SanBuilder, SanModel};
use ahs_stats::TimeGrid;
use rand::rngs::SmallRng;

const SEED: u64 = 0x051D_E0E5;
const HORIZON: f64 = 8.0;

/// Two repairable components with an instantaneous "system down"
/// latch. With `touching` the latch's gate declares the places it
/// reads, so the incremental path is the one under test; without, the
/// model falls back to the full rescan.
fn model(touching: bool) -> (SanModel, PlaceId) {
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
    let pred = move |m: &Marking| m.is_marked(dn1) && m.is_marked(dn2) && !m.is_marked(ko);
    let both_down = if touching {
        b.predicate_gate_touching("both_down", [dn1, dn2, ko], pred)
    } else {
        b.predicate_gate("both_down", pred)
    };
    b.instant_activity("latch", 10, 1.0)
        .unwrap()
        .input_gate(both_down)
        .output_place(ko)
        .build()
        .unwrap();
    let m = b.build().unwrap();
    assert_eq!(m.dependency_graph().is_sound(), touching);
    (m, ko)
}

/// Boosts both failures fourfold.
fn fail_bias(m: &SanModel) -> BiasScheme {
    BiasScheme::new()
        .with_multiplier(m.find_activity("fail1").unwrap(), 4.0)
        .with_multiplier(m.find_activity("fail2").unwrap(), 4.0)
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
fn ssa_replications_match_unsound_twin_bitwise() {
    let (m, ko) = model(true);
    let (twin, _) = model(false);
    for (salt, biased) in [(0, false), (1, true)] {
        let sim = |m| {
            let sim = MarkovSimulator::new(m).unwrap();
            if biased {
                sim.with_bias(fail_bias(m))
            } else {
                sim
            }
        };
        let (inc, full) = (sim(&m), sim(&twin));
        for rep in 0..300 {
            let mut r1 = replication_rng(SEED ^ salt, rep);
            let mut r2 = replication_rng(SEED ^ salt, rep);
            let a = inc
                .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r1)
                .unwrap();
            let b = full
                .run_first_passage(|mk| mk.is_marked(ko), HORIZON, &mut r2)
                .unwrap();
            assert_eq!(
                outcome_bits(&a),
                outcome_bits(&b),
                "biased {biased}, rep {rep}"
            );
        }
    }
}

/// The full estimator pipeline on the fixture and on its twin.
#[test]
fn study_estimates_match_unsound_twin_bitwise() {
    let run = |touching: bool, backend: &dyn Fn(&SanModel) -> Backend| {
        let (m, ko) = model(touching);
        let backend = backend(&m);
        let grid = TimeGrid::new(vec![2.0, HORIZON]);
        Study::new(m)
            .with_seed(0xE017)
            .with_fixed_replications(3_000)
            .with_chunk(400)
            .with_threads(3)
            .first_passage(move |mk| mk.is_marked(ko), &grid, backend)
            .unwrap()
            .curve
            .points(0.95)
            .iter()
            .map(|p| (p.y.to_bits(), p.half_width.to_bits()))
            .collect::<Vec<_>>()
    };
    let backends: [&dyn Fn(&SanModel) -> Backend; 2] = [&|_| Backend::Markov, &|m| {
        Backend::BiasedMarkov(fail_bias(m))
    }];
    for backend in backends {
        let incremental = run(true, backend);
        assert!(
            incremental.iter().any(|&(y, _)| y != 0),
            "event never observed; comparison is vacuous"
        );
        assert_eq!(incremental, run(false, backend));
    }
}

/// Three repairable components whose failures share one group rate
/// (`shared = true`: a [`Delay::shared`] group; `false`: the same rate
/// written as a marking-dependent closure that counts the working
/// components), with an instantaneous "all down" latch whose gate
/// declares its `touches` only when `touching`.
fn shared_rate_model(shared: bool, touching: bool) -> (SanModel, PlaceId) {
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
    let pred = move |m: &Marking| dns.iter().all(|&p| m.is_marked(p)) && !m.is_marked(ko);
    let all_down = if touching {
        b.predicate_gate_touching("all_down", watched, pred)
    } else {
        b.predicate_gate("all_down", pred)
    };
    b.instant_activity("latch", 10, 1.0)
        .unwrap()
        .input_gate(all_down)
        .output_place(ko)
        .build()
        .unwrap();
    let m = b.build().unwrap();
    assert_eq!(m.dependency_graph().is_sound(), touching);
    assert_eq!(
        m.rate_groups()[0].members().len(),
        if shared { 3 } else { 0 }
    );
    (m, ko)
}

/// A shared-rate group and its closure twin give bitwise-equal `Study`
/// estimates, plain and biased, incremental and full-rescan.
#[test]
fn shared_rate_group_matches_closure_twin_bitwise() {
    let run = |shared: bool, touching: bool, backend: &dyn Fn(&SanModel) -> Backend| {
        let (m, ko) = shared_rate_model(shared, touching);
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
    let backends: [&dyn Fn(&SanModel) -> Backend; 2] = [&|_| Backend::Markov, &|m| {
        let fails = (0..3).map(|i| m.find_activity(&format!("fail{i}")).unwrap());
        Backend::BiasedMarkov(BiasScheme::new().with_multipliers(fails, 3.0))
    }];
    for backend in backends {
        let grouped = run(true, true, backend);
        assert!(
            grouped.iter().any(|&(y, _)| y != 0),
            "event never observed; comparison is vacuous"
        );
        assert_eq!(grouped, run(false, true, backend));
        assert_eq!(grouped, run(true, false, backend));
        assert_eq!(grouped, run(false, false, backend));
    }
}

/// Stops on `ko` like first passage does, and records whether it
/// stopped and how many timed events fired.
struct StopOnTarget<'m> {
    model: &'m SanModel,
    ko: PlaceId,
    hit: bool,
    timed_events: u64,
}

impl ahs_des::Observer for StopOnTarget<'_> {
    fn on_event(&mut self, _time: f64, activity: ActivityId, _marking: &Marking) {
        self.timed_events += u64::from(!self.model.activity(activity).is_instantaneous());
    }

    fn should_stop(&mut self, _time: f64, marking: &Marking) -> bool {
        self.hit = marking.is_marked(self.ko);
        self.hit
    }
}

/// First passage is an observer of the one loop, so both entry points
/// take one path: seeded alike, a first-passage run and an observer run
/// whose `should_stop` is the same target end at the same instant after
/// the same timed events, and stop on the target exactly together.
#[test]
fn first_passage_and_observer_follow_one_path() {
    // Short enough that the runs miss the target now and then.
    const H: f64 = 2.0;
    let (m, ko) = model(true);
    let ssa = MarkovSimulator::new(&m).unwrap();
    let mut hits = 0_u32;
    for rep in 0..300 {
        let rng = || replication_rng(SEED ^ 5, rep);
        let fp = ssa
            .run_first_passage(|mk| mk.is_marked(ko), H, &mut rng())
            .unwrap();
        let mut obs = StopOnTarget {
            model: &m,
            ko,
            hit: false,
            timed_events: 0,
        };
        let end = ssa.run_with_observer(H, &mut rng(), &mut obs).unwrap();
        assert_eq!(
            fp.hit_time.map(f64::to_bits),
            obs.hit.then_some(end.to_bits()),
            "rep {rep}"
        );
        assert_eq!(fp.end_time.to_bits(), end.to_bits(), "rep {rep}");
        assert_eq!(fp.events, obs.timed_events, "rep {rep}");
        hits += u32::from(fp.hit_time.is_some());
    }
    assert!(
        hits > 0 && hits < 300,
        "hits {hits}: both outcomes must occur"
    );
}

/// Order-sensitive FNV-1a digest over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn push_outcome(&mut self, o: &ahs_des::RunOutcome) {
        self.push(o.hit_time.map_or(u64::MAX, f64::to_bits));
        self.push(o.hit_weight.to_bits());
        self.push(o.end_time.to_bits());
        self.push(o.final_weight.to_bits());
        self.push(o.events);
    }
}

/// Feeds every observer callback into a digest and stops the run once
/// `ko` is marked, so the early-stop path is exercised too.
struct DigestObserver<'d> {
    digest: &'d mut Digest,
    ko: PlaceId,
}

impl ahs_des::Observer for DigestObserver<'_> {
    fn on_start(&mut self, marking: &Marking) {
        self.digest.push(marking.fingerprint());
    }

    fn on_event(&mut self, time: f64, activity: ahs_san::ActivityId, marking: &Marking) {
        self.digest.push(time.to_bits());
        self.digest.push(activity.index() as u64);
        self.digest.push(marking.fingerprint());
    }

    fn should_stop(&mut self, _time: f64, marking: &Marking) -> bool {
        marking.is_marked(self.ko)
    }

    fn on_end(&mut self, time: f64, _marking: &Marking) {
        self.digest.push(time.to_bits());
    }
}

/// Every entry point, first passage plain and biased and an observer
/// run, 300 replications each, digested bit by bit in replication
/// order. A refactor of the run loop must keep every digest: a
/// changed digest means a changed sample.
#[test]
fn every_executor_mode_keeps_its_digest() {
    let (m, ko) = model(true);
    let ssa = MarkovSimulator::new(&m).unwrap();
    let ssa_biased = MarkovSimulator::new(&m).unwrap().with_bias(fail_bias(&m));
    let target = |mk: &Marking| mk.is_marked(ko);

    let digest = |salt: u64, run: &dyn Fn(&mut SmallRng, &mut Digest)| {
        let mut d = Digest::new();
        for rep in 0..300 {
            run(&mut replication_rng(SEED ^ salt, rep), &mut d);
        }
        d.0
    };
    let got = [
        (
            "ssa first passage",
            digest(10, &|rng, d| {
                d.push_outcome(&ssa.run_first_passage(target, HORIZON, rng).unwrap())
            }),
        ),
        (
            "ssa first passage, biased",
            digest(11, &|rng, d| {
                d.push_outcome(&ssa_biased.run_first_passage(target, HORIZON, rng).unwrap())
            }),
        ),
        (
            "ssa observer",
            digest(14, &|rng, d| {
                let mut obs = DigestObserver { digest: d, ko };
                let end = ssa.run_with_observer(HORIZON, rng, &mut obs).unwrap();
                d.push(end.to_bits());
            }),
        ),
    ];
    let pinned: [u64; 3] = [
        0xc3c0_e8de_9275_93a4,
        0x04ae_df2b_b962_4813,
        0xc80a_ba7a_03ff_0768,
    ];
    for (name, got) in &got {
        println!("{name}: {got:#018x}");
    }
    for ((name, got), want) in got.iter().zip(pinned) {
        assert_eq!(
            *got, want,
            "{name}: digest {got:#018x}, pinned {want:#018x}"
        );
    }
}
