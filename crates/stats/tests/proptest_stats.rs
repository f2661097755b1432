//! Property-based tests of the statistical primitives.

use ahs_stats::{normal_quantile, RunningStats, TimeGrid, WeightedStats};
use proptest::prelude::*;

proptest! {
    #[test]
    fn welford_merge_is_order_independent(
        xs in prop::collection::vec(-1e6f64..1e6, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let mut seq = RunningStats::new();
        seq.extend(xs.iter().copied());

        let mut a = RunningStats::new();
        a.extend(xs[..split].iter().copied());
        let mut b = RunningStats::new();
        b.extend(xs[split..].iter().copied());

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);

        for m in [ab, ba] {
            prop_assert_eq!(m.count(), seq.count());
            prop_assert!((m.mean() - seq.mean()).abs() < 1e-6 * (1.0 + seq.mean().abs()));
            prop_assert!(
                (m.sample_variance() - seq.sample_variance()).abs()
                    < 1e-5 * (1.0 + seq.sample_variance())
            );
        }
    }

    #[test]
    fn welford_merge_is_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..30),
        ys in prop::collection::vec(-1e6f64..1e6, 0..30),
        zs in prop::collection::vec(-1e6f64..1e6, 0..30),
    ) {
        // (a ⊕ b) ⊕ c must equal a ⊕ (b ⊕ c): the parallel runner may
        // fold worker results in any grouping.
        let acc = |v: &[f64]| {
            let mut s = RunningStats::new();
            s.extend(v.iter().copied());
            s
        };
        let (a, b, c) = (acc(&xs), acc(&ys), acc(&zs));

        let mut left = a;
        left.merge(&b);
        left.merge(&c);

        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);

        prop_assert_eq!(left.count(), right.count());
        prop_assert!((left.mean() - right.mean()).abs() < 1e-6 * (1.0 + left.mean().abs()));
        prop_assert!(
            (left.sample_variance() - right.sample_variance()).abs()
                < 1e-5 * (1.0 + left.sample_variance())
        );
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
    }

    #[test]
    fn weighted_with_unit_weights_equals_unweighted(
        xs in prop::collection::vec(-1e3f64..1e3, 0..60),
    ) {
        // At weight 1 the importance-sampling estimator degenerates to
        // the plain estimator exactly (not just approximately).
        let mut w = WeightedStats::new();
        let mut p = RunningStats::new();
        for &x in &xs {
            w.push(x, 1.0);
            p.push(x);
        }
        prop_assert_eq!(w.count(), p.count());
        prop_assert_eq!(w.mean(), p.mean());
        prop_assert_eq!(w.sample_variance(), p.sample_variance());
        prop_assert_eq!(w.std_error(), p.std_error());
        if !xs.is_empty() {
            prop_assert!((w.mean_weight() - 1.0).abs() < 1e-12);
            prop_assert!((w.effective_sample_size() - xs.len() as f64).abs() < 1e-9);
        }
        let wc = w.confidence_interval(0.99);
        let pc = p.confidence_interval(0.99);
        prop_assert_eq!(wc.mean(), pc.mean());
        prop_assert_eq!(wc.half_width(), pc.half_width());
    }

    #[test]
    fn variance_is_never_negative(xs in prop::collection::vec(-1e9f64..1e9, 0..50)) {
        let mut s = RunningStats::new();
        s.extend(xs.iter().copied());
        prop_assert!(s.sample_variance() >= 0.0);
        prop_assert!(s.population_variance() >= 0.0);
        if s.count() > 0 {
            prop_assert!(s.min() <= s.mean() + 1e-6 * s.mean().abs().max(1.0));
            prop_assert!(s.max() >= s.mean() - 1e-6 * s.mean().abs().max(1.0));
        }
    }

    #[test]
    fn normal_quantile_is_monotone(a in 0.001f64..0.999, b in 0.001f64..0.999) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assume!(hi - lo > 1e-9);
        prop_assert!(normal_quantile(lo) <= normal_quantile(hi));
    }

    #[test]
    fn weighted_stats_scale_with_weights(
        xs in prop::collection::vec(0f64..10.0, 2..40),
        factor in 0.1f64..10.0,
    ) {
        // Scaling all weights by a constant scales the mean estimate
        // by the same constant (the estimator is linear in w).
        let mut base = WeightedStats::new();
        let mut scaled = WeightedStats::new();
        for (i, &x) in xs.iter().enumerate() {
            let w = 1.0 + (i % 3) as f64;
            base.push(x, w);
            scaled.push(x, w * factor);
        }
        prop_assert!((scaled.mean() - base.mean() * factor).abs() < 1e-9 * factor.max(1.0));
        // Kish ESS is invariant under weight scaling.
        prop_assert!((scaled.effective_sample_size() - base.effective_sample_size()).abs() < 1e-6);
    }

    #[test]
    fn curve_estimates_stay_in_unit_interval(
        hits in prop::collection::vec(prop::option::of(0.0f64..10.0), 1..100),
    ) {
        let grid = TimeGrid::linspace(1.0, 10.0, 4);
        let mut curve = ahs_stats::Curve::new(grid);
        for h in &hits {
            curve.record_first_passage(*h, 1.0);
        }
        let pts = curve.points(0.95);
        for w in pts.windows(2) {
            prop_assert!(w[0].y <= w[1].y + 1e-12, "curve must be non-decreasing");
        }
        for p in &pts {
            prop_assert!((0.0..=1.0).contains(&p.y));
        }
    }
}
