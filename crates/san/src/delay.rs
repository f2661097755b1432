//! Delay distributions of timed activities.

use rand::Rng;

use crate::activity::ActivityId;
use crate::marking::Marking;

/// A firing rate that may depend on the current marking.
///
/// Marking-dependent rates are the SAN idiom for state-dependent
/// behaviour (e.g. a join rate proportional to free platoon slots).
pub enum RateFn {
    /// A fixed rate.
    Const(f64),
    /// A rate computed from the marking on every (re)enabling.
    MarkingDependent(Box<dyn Fn(&Marking) -> f64 + Send + Sync>),
    /// The rate of a [`RateGroup`], shared equally among the group's
    /// currently enabled members. Its value depends on which other
    /// activities are enabled, so only the model can resolve it (see
    /// [`SanModel::exponential_rate`](crate::SanModel::exponential_rate)).
    Shared(RateGroupId),
}

impl RateFn {
    /// Evaluates the rate in the given marking, or `None` for a
    /// [`Shared`](RateFn::Shared) rate, which needs the model.
    pub fn eval(&self, marking: &Marking) -> Option<f64> {
        match self {
            RateFn::Const(r) => Some(*r),
            RateFn::MarkingDependent(f) => Some(f(marking)),
            RateFn::Shared(_) => None,
        }
    }

    /// Whether the rate is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, RateFn::Const(_))
    }
}

impl std::fmt::Debug for RateFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateFn::Const(r) => write!(f, "RateFn::Const({r})"),
            RateFn::MarkingDependent(_) => write!(f, "RateFn::MarkingDependent(..)"),
            RateFn::Shared(g) => write!(f, "RateFn::Shared({})", g.0),
        }
    }
}

/// Opaque handle to a [`RateGroup`] within a
/// [`SanModel`](crate::SanModel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RateGroupId(pub(crate) usize);

impl RateGroupId {
    /// Index of this group in the model's group table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An exponential rate shared equally among the currently enabled
/// members of a group: with `k` members enabled, each fires at
/// `rate / k`, so the group as a whole fires at `rate` whenever any
/// member is enabled. This is the paper's "global join/leave rate
/// shared among the waiting/operating vehicles".
///
/// Declared with [`SanBuilder::shared_rate_group`](crate::SanBuilder::shared_rate_group);
/// an activity joins the group by taking [`Delay::shared`] as its
/// delay, so every member is a timed exponential activity by
/// construction.
#[derive(Debug, Clone)]
pub struct RateGroup {
    pub(crate) name: String,
    pub(crate) rate: f64,
    pub(crate) members: Vec<ActivityId>,
}

impl RateGroup {
    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The group's total rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The member activities, in declaration order.
    pub fn members(&self) -> &[ActivityId] {
        &self.members
    }

    /// The rate of each enabled member when `enabled` members are
    /// enabled — the one formula every backend uses.
    pub fn member_rate(&self, enabled: usize) -> f64 {
        self.rate / enabled.max(1) as f64
    }
}

/// Delay distribution of a timed activity.
///
/// The paper's models are entirely exponential (constant-rate); the other
/// distributions make the engine usable beyond the Markovian case and are
/// exercised by the event-queue simulator backend.
#[derive(Debug)]
pub enum Delay {
    /// Exponential delay with the given (possibly marking-dependent)
    /// rate.
    Exponential(RateFn),
    /// A fixed, deterministic delay.
    Deterministic(f64),
    /// Uniform delay on `[low, high]`.
    Uniform {
        /// Lower bound.
        low: f64,
        /// Upper bound.
        high: f64,
    },
    /// Erlang-`k` delay: the sum of `k` i.i.d. exponentials of the given
    /// rate (so mean `k / rate`).
    Erlang {
        /// Number of exponential stages.
        k: u32,
        /// Rate of each stage.
        rate: f64,
    },
    /// Weibull delay with the given shape and scale.
    Weibull {
        /// Shape parameter (`1.0` degenerates to exponential).
        shape: f64,
        /// Scale parameter.
        scale: f64,
    },
}

impl Delay {
    /// Exponential delay with a constant rate.
    pub fn exponential(rate: f64) -> Self {
        Delay::Exponential(RateFn::Const(rate))
    }

    /// Exponential delay with a marking-dependent rate.
    pub fn exponential_fn<F>(rate: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        Delay::Exponential(RateFn::MarkingDependent(Box::new(rate)))
    }

    /// Exponential delay whose rate is shared among the enabled members
    /// of group `group` (see [`RateGroup`]).
    pub fn shared(group: RateGroupId) -> Self {
        Delay::Exponential(RateFn::Shared(group))
    }

    /// Whether this delay is exponential (the Markov/SSA backend only
    /// accepts exponential models).
    pub fn is_exponential(&self) -> bool {
        matches!(self, Delay::Exponential(_))
    }

    /// Whether the delay is certainly zero: a deterministic 0 delay or a
    /// zero-width uniform at 0. Such a "timed" activity fires the moment
    /// it is enabled, which is what instantaneous activities are for —
    /// the simulation backends pay event-queue overhead for nothing and
    /// the Markov backends reject it. Flagged by strict validation and
    /// the linter's delay-sanity pass.
    pub fn is_degenerate(&self) -> bool {
        match self {
            Delay::Deterministic(d) => *d == 0.0,
            Delay::Uniform { low, high } => *low == 0.0 && *high == 0.0,
            _ => false,
        }
    }

    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid
    /// parameter, used by the builder to produce
    /// [`SanError::InvalidDelay`](crate::SanError::InvalidDelay) and by
    /// the linter's delay-sanity pass.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Delay::Exponential(RateFn::Const(r)) => {
                if !r.is_finite() || *r <= 0.0 {
                    return Err(format!(
                        "exponential rate must be positive and finite, got {r}"
                    ));
                }
            }
            Delay::Exponential(RateFn::MarkingDependent(_) | RateFn::Shared(_)) => {}
            Delay::Deterministic(d) => {
                if !d.is_finite() || *d < 0.0 {
                    return Err(format!("deterministic delay must be non-negative, got {d}"));
                }
            }
            Delay::Uniform { low, high } => {
                if !(low.is_finite() && high.is_finite()) || *low < 0.0 || low > high {
                    return Err(format!(
                        "uniform delay needs 0 <= low <= high, got [{low}, {high}]"
                    ));
                }
            }
            Delay::Erlang { k, rate } => {
                if *k == 0 {
                    return Err("erlang stage count must be positive".into());
                }
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(format!(
                        "erlang rate must be positive and finite, got {rate}"
                    ));
                }
            }
            Delay::Weibull { shape, scale } => {
                if !(shape.is_finite() && scale.is_finite()) || *shape <= 0.0 || *scale <= 0.0 {
                    return Err(format!(
                        "weibull shape and scale must be positive, got shape={shape} scale={scale}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Samples one delay in the given marking.
    ///
    /// # Panics
    ///
    /// Panics if a marking-dependent exponential rate evaluates to a
    /// non-positive or non-finite value, or if the rate is
    /// [`Shared`](RateFn::Shared): a group rate depends on the other
    /// members, so sample it through
    /// [`SanModel::sample_delay_cached`](crate::SanModel::sample_delay_cached).
    pub fn sample<R: Rng + ?Sized>(&self, marking: &Marking, rng: &mut R) -> f64 {
        match self {
            Delay::Exponential(rate) => sample_exponential(
                rate.eval(marking)
                    .expect("a shared-rate delay is sampled through SanModel::sample_delay_cached"),
                rng,
            ),
            Delay::Deterministic(d) => *d,
            Delay::Uniform { low, high } => {
                if low == high {
                    *low
                } else {
                    rng.random_range(*low..*high)
                }
            }
            Delay::Erlang { k, rate } => (0..*k).map(|_| sample_exponential(*rate, rng)).sum(),
            Delay::Weibull { shape, scale } => {
                let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                scale * (-u.ln()).powf(1.0 / shape)
            }
        }
    }

    /// Mean of the distribution in the given marking.
    ///
    /// # Panics
    ///
    /// Panics for a [`Shared`](RateFn::Shared) rate, which only the
    /// model can resolve.
    pub fn mean(&self, marking: &Marking) -> f64 {
        match self {
            Delay::Exponential(rate) => {
                1.0 / rate
                    .eval(marking)
                    .expect("a shared rate is resolved through SanModel::exponential_rate")
            }
            Delay::Deterministic(d) => *d,
            Delay::Uniform { low, high } => (low + high) / 2.0,
            Delay::Erlang { k, rate } => f64::from(*k) / rate,
            Delay::Weibull { shape, scale } => scale * gamma(1.0 + 1.0 / shape),
        }
    }
}

/// Inverse-CDF exponential sample.
///
/// # Panics
///
/// Panics if `rate` is not positive and finite.
pub(crate) fn sample_exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "exponential rate must be positive and finite, got {rate}"
    );
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate
/// to ~15 significant digits for positive real arguments.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    // Published Lanczos coefficients, kept verbatim for auditability.
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const C: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlaceDecl;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empty_marking() -> Marking {
        Marking::from_decls(&[] as &[PlaceDecl])
    }

    #[test]
    fn const_rate_eval() {
        let r = RateFn::Const(2.5);
        assert_eq!(r.eval(&empty_marking()), Some(2.5));
        assert_eq!(RateFn::Shared(RateGroupId(0)).eval(&empty_marking()), None);
        assert!(r.is_const());
    }

    #[test]
    fn exponential_sample_mean_converges() {
        let d = Delay::exponential(4.0);
        let m = empty_marking();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| d.sample(&m, &mut rng)).sum();
        let mean = total / f64::from(n);
        assert!((mean - 0.25).abs() < 0.01, "empirical mean {mean}");
        assert!((d.mean(&m) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn erlang_mean() {
        let d = Delay::Erlang { k: 3, rate: 6.0 };
        let m = empty_marking();
        assert!((d.mean(&m) - 0.5).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| d.sample(&m, &mut rng)).sum();
        assert!((total / f64::from(n) - 0.5).abs() < 0.02);
    }

    #[test]
    fn deterministic_and_uniform() {
        let m = empty_marking();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(Delay::Deterministic(3.0).sample(&m, &mut rng), 3.0);
        let u = Delay::Uniform {
            low: 1.0,
            high: 2.0,
        };
        for _ in 0..100 {
            let s = u.sample(&m, &mut rng);
            assert!((1.0..2.0).contains(&s));
        }
        assert!((u.mean(&m) - 1.5).abs() < 1e-12);
        let point = Delay::Uniform {
            low: 2.0,
            high: 2.0,
        };
        assert_eq!(point.sample(&m, &mut rng), 2.0);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let m = empty_marking();
        let w = Delay::Weibull {
            shape: 1.0,
            scale: 0.5,
        };
        assert!((w.mean(&m) - 0.5).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 30_000;
        let total: f64 = (0..n).map(|_| w.sample(&m, &mut rng)).sum();
        assert!((total / f64::from(n) - 0.5).abs() < 0.02);
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(Delay::exponential(0.0).validate().is_err());
        assert!(Delay::exponential(f64::NAN).validate().is_err());
        assert!(Delay::Deterministic(-1.0).validate().is_err());
        assert!(Delay::Uniform {
            low: 2.0,
            high: 1.0
        }
        .validate()
        .is_err());
        assert!(Delay::Erlang { k: 0, rate: 1.0 }.validate().is_err());
        assert!(Delay::Weibull {
            shape: 0.0,
            scale: 1.0
        }
        .validate()
        .is_err());
        assert!(Delay::exponential(1.0).validate().is_ok());
    }

    #[test]
    fn marking_dependent_rate_sees_marking() {
        let decls = [PlaceDecl {
            name: "p".into(),
            kind: crate::place::PlaceKind::Simple,
            initial_tokens: 4,
            initial_array: vec![],
        }];
        let m = Marking::from_decls(&decls);
        let d = Delay::exponential_fn(|m| m.tokens(crate::PlaceId(0)) as f64);
        assert!((d.mean(&m) - 0.25).abs() < 1e-12);
        assert!(!matches!(d, Delay::Exponential(RateFn::Const(_))));
    }
}
