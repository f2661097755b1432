//! Möbius-style reward variables: rate and impulse rewards accumulated
//! over a finite horizon.
//!
//! A *rate reward* integrates a marking function over time
//! (`∫₀ᵀ f(X(t)) dt`), e.g. time spent with a vehicle in recovery; an
//! *impulse reward* adds a value on each activity completion
//! (`Σ g(aᵢ)`), e.g. the number of maneuvers attempted. Both are the
//! interval-of-time variables of the Möbius reward formalism, estimated
//! over independent replications by [`Study::reward`](crate::Study::reward).

use ahs_san::{ActivityId, Marking};

use crate::observer::Observer;

/// Specification of a reward variable accumulated over `[0, horizon]`.
///
/// # Example
///
/// ```
/// use ahs_des::{Backend, RewardSpec, Study};
/// use ahs_san::{Delay, SanBuilder};
///
/// // Fraction of time a repairable component is down.
/// let mut b = SanBuilder::new("fr");
/// let up = b.place_with_tokens("up", 1)?;
/// let down = b.place("down")?;
/// b.timed_activity("fail", Delay::exponential(1.0))?
///     .input_place(up)
///     .output_place(down)
///     .build()?;
/// b.timed_activity("repair", Delay::exponential(4.0))?
///     .input_place(down)
///     .output_place(up)
///     .build()?;
/// let model = b.build()?;
///
/// let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))));
/// let est = Study::new(model)
///     .with_seed(3)
///     .with_fixed_replications(4000)
///     .reward(&spec, 50.0, Backend::Markov)?;
/// // Long-run unavailability is 1/5; over [0, 50] the mean integral is ≈ 10.
/// assert!((est.curve.estimator(0).mean() / 50.0 - 0.2).abs() < 0.02);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct RewardSpec {
    rate: Option<Box<RateFn>>,
    impulse: Option<Box<ImpulseFn>>,
}

/// Rate-reward component: evaluated on the current marking.
type RateFn = dyn Fn(&Marking) -> f64 + Send + Sync;
/// Impulse-reward component: evaluated when an activity fires.
type ImpulseFn = dyn Fn(ActivityId, &Marking) -> f64 + Send + Sync;

impl RewardSpec {
    /// A pure rate reward: `∫ f(X(t)) dt`.
    pub fn rate<F>(f: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        RewardSpec {
            rate: Some(Box::new(f)),
            impulse: None,
        }
    }

    /// A pure impulse reward: `Σ g(activity, marking after firing)`.
    pub fn impulse<G>(g: G) -> Self
    where
        G: Fn(ActivityId, &Marking) -> f64 + Send + Sync + 'static,
    {
        RewardSpec {
            rate: None,
            impulse: Some(Box::new(g)),
        }
    }

    /// Adds a rate component to an impulse reward (or vice versa).
    #[must_use]
    pub fn with_rate<F>(mut self, f: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        self.rate = Some(Box::new(f));
        self
    }

    /// Adds an impulse component.
    #[must_use]
    pub fn with_impulse<G>(mut self, g: G) -> Self
    where
        G: Fn(ActivityId, &Marking) -> f64 + Send + Sync + 'static,
    {
        self.impulse = Some(Box::new(g));
        self
    }
}

impl std::fmt::Debug for RewardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewardSpec")
            .field("has_rate", &self.rate.is_some())
            .field("has_impulse", &self.impulse.is_some())
            .finish()
    }
}

/// Observer accumulating one replication's reward.
pub(crate) struct RewardObserver<'s> {
    spec: &'s RewardSpec,
    /// The reward accumulated so far; the replication's total once the
    /// run has ended.
    pub(crate) total: f64,
    last_time: f64,
    last_rate_value: f64,
}

impl<'s> RewardObserver<'s> {
    pub(crate) fn new(spec: &'s RewardSpec) -> Self {
        RewardObserver {
            spec,
            total: 0.0,
            last_time: 0.0,
            last_rate_value: 0.0,
        }
    }
}

impl Observer for RewardObserver<'_> {
    fn on_start(&mut self, marking: &Marking) {
        if let Some(f) = &self.spec.rate {
            self.last_rate_value = f(marking);
        }
    }

    fn on_event(&mut self, time: f64, activity: ActivityId, marking: &Marking) {
        // The marking was constant on [last_time, time).
        self.total += self.last_rate_value * (time - self.last_time);
        self.last_time = time;
        if let Some(f) = &self.spec.rate {
            self.last_rate_value = f(marking);
        }
        if let Some(g) = &self.spec.impulse {
            self.total += g(activity, marking);
        }
    }

    fn on_end(&mut self, time: f64, _marking: &Marking) {
        self.total += self.last_rate_value * (time - self.last_time);
        self.last_time = time;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{replication_rng, Backend, CurveEstimate, MarkovSimulator, SimError, Study};
    use ahs_obs::Metrics;
    use ahs_san::{Delay, SanBuilder, SanModel};
    use ahs_stats::{RunningStats, StoppingRule};

    fn repairable(fail: f64, repair: f64) -> (SanModel, ahs_san::PlaceId) {
        let mut b = SanBuilder::new("fr");
        let up = b.place_with_tokens("up", 1).unwrap();
        let down = b.place("down").unwrap();
        b.timed_activity("fail", Delay::exponential(fail))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        b.timed_activity("repair", Delay::exponential(repair))
            .unwrap()
            .input_place(down)
            .output_place(up)
            .build()
            .unwrap();
        (b.build().unwrap(), down)
    }

    fn mean(est: &CurveEstimate) -> f64 {
        est.curve.estimator(0).mean()
    }

    #[test]
    fn rate_reward_matches_long_run_unavailability() {
        let (model, down) = repairable(1.0, 3.0);
        let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))));
        let est = Study::new(model)
            .with_seed(1)
            .with_fixed_replications(3_000)
            .reward(&spec, 100.0, Backend::Markov)
            .unwrap();
        let frac = mean(&est) / 100.0;
        assert!((frac - 0.25).abs() < 0.01, "downtime fraction {frac}");
    }

    #[test]
    fn impulse_reward_counts_firings() {
        // Failure rate 2, repair 1000 (instant-ish): failures occur at
        // ~rate 2 per unit time; count them over [0, 10].
        let (model, _) = repairable(2.0, 1000.0);
        let fail = model.find_activity("fail").unwrap();
        let spec = RewardSpec::impulse(move |a, _| f64::from(u8::from(a == fail)));
        let est = Study::new(model)
            .with_seed(2)
            .with_fixed_replications(2_000)
            .reward(&spec, 10.0, Backend::Markov)
            .unwrap();
        assert!((mean(&est) - 20.0).abs() < 0.6, "count {}", mean(&est));
    }

    #[test]
    fn combined_rate_and_impulse() {
        let (model, down) = repairable(1.0, 1.0);
        let repair = model.find_activity("repair").unwrap();
        // Cost = downtime + 0.5 per repair.
        let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))))
            .with_impulse(move |a, _| if a == repair { 0.5 } else { 0.0 });
        let est = Study::new(model)
            .with_seed(3)
            .with_fixed_replications(3_000)
            .reward(&spec, 50.0, Backend::Markov)
            .unwrap();
        // Downtime ≈ 25; repairs ≈ 0.5/unit time · 50 = 25 → 12.5.
        assert!((mean(&est) - 37.5).abs() < 1.5, "cost {}", mean(&est));
    }

    #[test]
    fn stopping_rule_applies() {
        let (model, down) = repairable(1.0, 1.0);
        let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))));
        let est = Study::new(model)
            .with_seed(5)
            .with_rule(
                StoppingRule::relative_precision(0.95, 0.05)
                    .with_min_samples(100)
                    .with_max_samples(50_000),
            )
            .reward(&spec, 20.0, Backend::Markov)
            .unwrap();
        assert!(est.replications >= 100);
        assert!(est.converged, "precision rule did not fire");
        assert!(
            est.curve.interval(0, 0.95).relative_half_width() <= 0.06,
            "precision not reached: {}",
            est.curve.interval(0, 0.95)
        );
    }

    #[test]
    fn panicking_reward_closure_is_quarantined() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (model, down) = repairable(1.0, 1.0);
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let spec = RewardSpec::rate(move |m| {
            if !f.swap(true, Ordering::SeqCst) {
                panic!("injected reward panic");
            }
            f64::from(u8::from(m.is_marked(down)))
        });
        let metrics = Arc::new(Metrics::new());
        let est = Study::new(model)
            .with_seed(6)
            .with_fixed_replications(200)
            .with_quarantine_budget(1)
            .with_metrics(metrics.clone())
            .reward(&spec, 10.0, Backend::Markov)
            .unwrap();
        // A fixed budget counts replication indices: the quarantined one
        // is recorded, not replaced.
        assert_eq!(est.replications, 199, "quarantined rep must not count");
        assert_eq!(est.quarantined.len(), 1);
        assert!(est.quarantined[0].message.contains("injected reward panic"));
        let snap = metrics.snapshot();
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.replications, 199);
    }

    #[test]
    fn quarantine_budget_zero_surfaces_first_panic() {
        let (model, _) = repairable(1.0, 1.0);
        let spec = RewardSpec::rate(|_| panic!("always broken"));
        let err = Study::new(model)
            .with_seed(7)
            .with_fixed_replications(10)
            .reward(&spec, 1.0, Backend::Markov)
            .unwrap_err();
        match err {
            SimError::QuarantineOverflow {
                quarantined,
                budget,
                message,
            } => {
                assert_eq!((quarantined, budget), (1, 0));
                assert!(message.contains("always broken"), "{message}");
            }
            other => panic!("expected QuarantineOverflow, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbiased backend")]
    fn biased_backend_rejected() {
        let (model, _) = repairable(1.0, 1.0);
        let spec = RewardSpec::rate(|_| 1.0);
        let _ =
            Study::new(model).reward(&spec, 1.0, Backend::BiasedMarkov(crate::BiasScheme::new()));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_horizon_rejected_up_front() {
        let (model, down) = repairable(1.0, 1.0);
        let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))));
        let _ =
            Study::new(model)
                .with_fixed_replications(2)
                .reward(&spec, f64::NAN, Backend::Markov);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_horizon_rejected_up_front() {
        let (model, down) = repairable(1.0, 1.0);
        let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))));
        let _ = Study::new(model)
            .with_fixed_replications(2)
            .reward(&spec, -1.0, Backend::Markov);
    }

    /// The reference algorithm: one `run_with_observer` per replication
    /// index on stream `replication_rng(seed, i)`, folded sequentially
    /// into one `RunningStats`. With one thread and a budget within one
    /// chunk, `Study::reward` must reproduce it bit for bit.
    #[test]
    fn reward_matches_sequential_reference_fold_bitwise() {
        let (model, down) = repairable(0.7, 2.0);
        let repair = model.find_activity("repair").unwrap();
        let spec = RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(down))))
            .with_impulse(move |a, _| if a == repair { 0.25 } else { 0.0 });
        let (seed, n, horizon) = (0xBEEF, 1_000, 30.0);

        let sim = MarkovSimulator::new(&model).unwrap();
        let mut reference = RunningStats::new();
        for i in 0..n {
            let mut obs = RewardObserver::new(&spec);
            sim.run_with_observer(horizon, &mut replication_rng(seed, i), &mut obs)
                .unwrap();
            reference.push(obs.total);
        }

        let est = Study::new(model)
            .with_seed(seed)
            .with_fixed_replications(n)
            .with_threads(1)
            .reward(&spec, horizon, Backend::Markov)
            .unwrap();
        let bits = |s: &RunningStats| {
            (
                s.count(),
                s.mean().to_bits(),
                s.m2().to_bits(),
                s.min().to_bits(),
                s.max().to_bits(),
            )
        };
        assert_eq!(est.replications, n);
        assert_eq!(
            bits(est.curve.estimator(0).product_stats()),
            bits(&reference)
        );
    }
}
