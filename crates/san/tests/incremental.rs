//! Incremental enablement must be observationally identical to a full
//! rescan: same markings, same enabledness flags, same instantaneous
//! cascades, same RNG consumption — on randomly generated sound models
//! driven through thousands of random firings.
//!
//! The incremental path re-evaluates only `affects`-listed activities
//! after each firing; the full-rescan path (the fallback used when a
//! gate lacks a `touches` declaration) recomputes everything. Both are
//! run in lock-step here against independent markings and caches.

use ahs_san::{ActivityId, Delay, Marking, SanBuilder, SanModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic structure source so a single `u64` seed describes a
/// whole model and firing sequence.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Builds a random *sound* SAN: every gate declares its `touches`
/// honestly, so the dependency graph is trusted and the incremental
/// path is actually exercised (an unsound model would silently compare
/// the fallback against itself).
fn random_sound_model(seed: u64) -> SanModel {
    let mut r = Lcg(seed ^ 0x5851f42d4c957f2d);
    let mut b = SanBuilder::new("incr");

    let n_places = 3 + r.below(4) as usize;
    let places: Vec<_> = (0..n_places)
        .map(|i| {
            b.place_with_tokens(&format!("p{i}"), r.below(3))
                .expect("fresh names cannot clash")
        })
        .collect();
    let pick = {
        let places = places.clone();
        move |r: &mut Lcg| places[r.below(n_places as u64) as usize]
    };

    // Some timed activities share one group rate. Membership comes from
    // its own stream so the rest of the structure does not depend on it.
    let mut membership = Lcg(seed ^ 0x9e3779b97f4a7c15);
    let group = (membership.below(2) == 0).then(|| {
        b.shared_rate_group("shared", 1.0 + membership.below(4) as f64)
            .expect("a positive rate and a fresh name form a valid group")
    });

    let n_timed = 2 + r.below(4) as usize;
    for i in 0..n_timed {
        // An honest enabling gate on some activities: watches one
        // place, bumps another, and declares both. Built before the
        // activity builder borrows `b`.
        let gate = (r.below(3) == 0).then(|| {
            let watched = pick(&mut r);
            let bumped = pick(&mut r);
            b.input_gate_touching(
                &format!("g{i}"),
                [watched, bumped],
                move |m| m.tokens(watched) < 2,
                move |m| m.add_tokens(bumped, 1),
            )
        });
        let input = pick(&mut r);
        let delay = match group {
            Some(g) if membership.below(2) == 0 => Delay::shared(g),
            _ => Delay::exponential(1.0),
        };
        let mut ab = b
            .timed_activity(&format!("t{i}"), delay)
            .expect("fresh names cannot clash");
        ab = ab.input_place(input);
        if let Some(gate) = gate {
            ab = ab.input_gate(gate);
        }
        if r.below(3) == 0 {
            // A valid two-way case split.
            ab = ab
                .case(0.3)
                .output_place(pick(&mut r))
                .case(0.7)
                .output_place(pick(&mut r));
        } else {
            ab = ab.output_place(pick(&mut r));
        }
        ab.build().expect("random timed activity is well-formed");
    }

    if r.below(2) == 0 {
        // One or two instantaneous activities. Outputs differ from
        // inputs so a single activity cannot self-loop; a mutual cycle
        // is still possible and must surface as the same typed
        // livelock error on both paths.
        let n_inst = 1 + r.below(2);
        for i in 0..n_inst {
            let input = pick(&mut r);
            let mut output = pick(&mut r);
            if output == input {
                output = places[(input.index() + 1) % n_places];
            }
            b.instant_activity(&format!("i{i}"), r.below(2) as u32, 1.0 + r.below(3) as f64)
                .expect("fresh names cannot clash")
                .input_place(input)
                .output_place(output)
                .build()
                .expect("random instantaneous activity is well-formed");
        }
    }
    b.build().expect("random sound model builds")
}

/// Drives one model through up to `max_steps` random firings with an
/// incremental cache and a forced-full-rescan cache in lock-step,
/// asserting observational equivalence after every firing. Returns the
/// number of timed firings executed.
fn run_lockstep(seed: u64, max_steps: usize) -> usize {
    let model = random_sound_model(seed);
    assert!(
        model.dependency_graph().is_sound(),
        "generator must produce sound models (seed {seed})"
    );
    let mut r = Lcg(seed ^ 0x2545f4914f6cdd1d);

    let mut m_inc = model.initial_marking().clone();
    let mut m_full = m_inc.clone();
    let mut cache_inc = model.new_cache();
    let mut cache_full = model.new_cache();
    cache_full.force_full_rescan();
    assert!(!cache_inc.is_full_rescan());
    assert!(cache_full.is_full_rescan());
    model.prime_cache(&mut cache_inc, &m_inc);
    model.prime_cache(&mut cache_full, &m_full);

    let mut rng_inc = SmallRng::seed_from_u64(seed);
    let mut rng_full = SmallRng::seed_from_u64(seed);

    // The initial marking may be unstable.
    let s_inc = model.stabilize_cached(&mut m_inc, &mut rng_inc, &mut cache_inc);
    let s_full = model.stabilize_cached(&mut m_full, &mut rng_full, &mut cache_full);
    assert_eq!(s_inc.is_ok(), s_full.is_ok(), "seed {seed}");
    if s_inc.is_err() {
        return 0; // identical livelock on both paths
    }
    assert_equivalent(&model, &m_inc, &m_full, &cache_inc, &cache_full, seed);

    let mut steps = 0;
    for _ in 0..max_steps {
        let enabled: Vec<ActivityId> = model
            .timed_activities()
            .iter()
            .copied()
            .filter(|&a| cache_inc.is_enabled(a))
            .collect();
        if enabled.is_empty() {
            break; // absorbing marking
        }
        let a = enabled[r.below(enabled.len() as u64) as usize];
        let case_inc = model
            .select_case_cached(a, &m_inc, &mut rng_inc, &mut cache_inc)
            .expect("constant case split is valid");
        let case_full = model
            .select_case_cached(a, &m_full, &mut rng_full, &mut cache_full)
            .expect("constant case split is valid");
        assert_eq!(case_inc, case_full, "seed {seed}");

        model.fire_cached(a, case_inc, &mut m_inc, &mut cache_inc);
        model.fire_cached(a, case_full, &mut m_full, &mut cache_full);
        steps += 1;

        let s_inc = model.stabilize_cached(&mut m_inc, &mut rng_inc, &mut cache_inc);
        let s_full = model.stabilize_cached(&mut m_full, &mut rng_full, &mut cache_full);
        match (&s_inc, &s_full) {
            (Ok(n_inc), Ok(n_full)) => {
                assert_eq!(n_inc, n_full, "cascade lengths differ (seed {seed})");
                assert_eq!(
                    cache_inc.fired(),
                    cache_full.fired(),
                    "cascade sequences differ (seed {seed})"
                );
            }
            (Err(_), Err(_)) => return steps, // identical livelock
            _ => panic!("only one path livelocked (seed {seed})"),
        }
        assert_equivalent(&model, &m_inc, &m_full, &cache_inc, &cache_full, seed);
    }

    // Both paths must have consumed the RNG identically throughout.
    assert_eq!(
        rng_inc.random::<u64>(),
        rng_full.random::<u64>(),
        "RNG streams diverged (seed {seed})"
    );
    steps
}

fn assert_equivalent(
    model: &SanModel,
    m_inc: &Marking,
    m_full: &Marking,
    cache_inc: &ahs_san::EnablementCache,
    cache_full: &ahs_san::EnablementCache,
    seed: u64,
) {
    assert_eq!(m_inc, m_full, "markings diverged (seed {seed})");
    for (i, act) in model.activities().iter().enumerate() {
        let a = model
            .find_activity(act.name())
            .expect("every activity is findable");
        assert_eq!(a.index(), i);
        let truth = model.is_enabled(a, m_inc);
        assert_eq!(
            cache_inc.is_enabled(a),
            truth,
            "incremental cache wrong for `{}` (seed {seed})",
            act.name()
        );
        assert_eq!(
            cache_full.is_enabled(a),
            truth,
            "full-rescan cache wrong for `{}` (seed {seed})",
            act.name()
        );
    }
    for cache in [cache_inc, cache_full] {
        let words = cache.enabled_timed_words();
        for (slot, &a) in model.timed_activities().iter().enumerate() {
            assert_eq!(
                words[slot / 64] >> (slot % 64) & 1 == 1,
                model.is_enabled(a, m_inc),
                "enabled-slot bit of `{}` wrong (seed {seed})",
                model.activity(a).name()
            );
        }
        for g in model.rate_group_ids() {
            assert_eq!(
                cache.group_enabled(g),
                model.group_enabled_count(g, m_inc),
                "group count wrong (seed {seed})"
            );
        }
    }
}

/// Deterministic bulk run: at least ten thousand random firings across
/// three hundred random models, every one checked for equivalence.
#[test]
fn ten_thousand_random_firings_agree() {
    let mut total = 0;
    let mut grouped = 0;
    for seed in 0..300 {
        total += run_lockstep(seed, 100);
        let model = random_sound_model(seed);
        if model.rate_groups().iter().any(|g| g.members().len() >= 2) {
            grouped += 1;
        }
    }
    assert!(
        total >= 10_000,
        "expected at least 10k firings, got {total}"
    );
    assert!(
        grouped >= 50,
        "expected many models with a multi-member rate group, got {grouped}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary seeds: the lock-step equivalence holds for any model
    /// the generator can produce.
    #[test]
    fn incremental_matches_full_rescan(seed in any::<u64>()) {
        run_lockstep(seed, 80);
    }
}
