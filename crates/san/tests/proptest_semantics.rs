//! Property-based tests of the SAN execution semantics on randomly
//! generated token-ring and fork/join nets.

use ahs_san::{Delay, Marking, PlaceId, SanBuilder, SanModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds a ring of `n` places with one token at place 0 and timed
/// activities moving the token around the ring.
fn ring(n: usize) -> (SanModel, Vec<PlaceId>) {
    let mut b = SanBuilder::new("ring");
    let places: Vec<PlaceId> = (0..n)
        .map(|i| {
            if i == 0 {
                b.place_with_tokens(&format!("p{i}"), 1).unwrap()
            } else {
                b.place(&format!("p{i}")).unwrap()
            }
        })
        .collect();
    for i in 0..n {
        b.timed_activity(&format!("step{i}"), Delay::exponential(1.0 + i as f64))
            .unwrap()
            .input_place(places[i])
            .output_place(places[(i + 1) % n])
            .build()
            .unwrap();
    }
    (b.build().unwrap(), places)
}

fn total_tokens(m: &Marking, places: &[PlaceId]) -> u64 {
    places.iter().map(|&p| m.tokens(p)).sum()
}

proptest! {
    #[test]
    fn ring_conserves_tokens(n in 2usize..8, steps in 0usize..50, seed in any::<u64>()) {
        let (model, places) = ring(n);
        let mut marking = model.initial_marking().clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..steps {
            let enabled = model.enabled_timed(&marking);
            prop_assert_eq!(enabled.len(), 1, "exactly one activity enabled in a ring");
            let case = model.select_case(enabled[0], &marking, &mut rng).unwrap();
            model.fire(enabled[0], case, &mut marking);
            prop_assert_eq!(total_tokens(&marking, &places), 1);
        }
    }

    #[test]
    fn enabled_activities_have_satisfied_arcs(n in 2usize..8, steps in 0usize..30, seed in any::<u64>()) {
        let (model, _) = ring(n);
        let mut marking = model.initial_marking().clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..steps {
            for &a in model.timed_activities() {
                if model.is_enabled(a, &marking) {
                    for (p, k) in model.activity(a).input_arcs() {
                        prop_assert!(marking.tokens(*p) >= *k);
                    }
                }
            }
            let enabled = model.enabled_timed(&marking);
            let case = model.select_case(enabled[0], &marking, &mut rng).unwrap();
            model.fire(enabled[0], case, &mut marking);
        }
    }

    #[test]
    fn stable_successor_probabilities_sum_to_one(
        split in 1u32..10,
        seed in any::<u64>(),
    ) {
        // A fork: src -> instantaneous with `split+1` equally likely
        // cases, each to a distinct sink.
        let mut b = SanBuilder::new("fork");
        let src = b.place_with_tokens("src", 1).unwrap();
        let sinks: Vec<PlaceId> = (0..=split)
            .map(|i| b.place(&format!("s{i}")).unwrap())
            .collect();
        let p = 1.0 / f64::from(split + 1);
        let mut ab = b.instant_activity("fork", 0, 1.0).unwrap().input_place(src);
        for (i, &s) in sinks.iter().enumerate() {
            // Make the last case absorb rounding error so constants sum to 1.
            let prob = if i == sinks.len() - 1 {
                1.0 - p * split as f64
            } else {
                p
            };
            ab = ab.case(prob).output_place(s);
        }
        ab.build().unwrap();
        let model = b.build().unwrap();

        let succ = model.stable_successors(model.initial_marking()).unwrap();
        prop_assert_eq!(succ.len(), sinks.len());
        let total: f64 = succ.iter().map(|(_, pr)| pr).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);

        // Randomized stabilization must land in one of the enumerated
        // stable markings.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = model.initial_marking().clone();
        model.stabilize(&mut m, &mut rng).unwrap();
        prop_assert!(succ.iter().any(|(s, _)| *s == m));
    }

    #[test]
    fn exponential_samples_are_positive_and_finite(rate in 1e-6f64..1e6, seed in any::<u64>()) {
        let mut b = SanBuilder::new("single");
        let p = b.place_with_tokens("p", 1).unwrap();
        b.timed_activity("a", Delay::exponential(rate))
            .unwrap()
            .input_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let a = model.find_activity("a").unwrap();
        let marking = model.initial_marking();
        prop_assert_eq!(model.exponential_rate(a, marking), Some(rate));

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cache = model.new_cache();
        model.prime_cache(&mut cache, marking);
        for _ in 0..20 {
            let s = model.sample_delay_cached(a, marking, &mut rng, &cache);
            prop_assert!(s.is_finite() && s >= 0.0);
        }
    }
}
