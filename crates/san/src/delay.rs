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
/// Every timed activity is exponential, as in the paper's models: the
/// SSA and the CTMC read the rate, the only parameter.
#[derive(Debug)]
pub enum Delay {
    /// Exponential delay with the given (possibly marking-dependent)
    /// rate.
    Exponential(RateFn),
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

    /// Validates the rate: a constant must be positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the invalid rate, used
    /// by the builder to produce
    /// [`SanError::InvalidDelay`](crate::SanError::InvalidDelay) and by
    /// the linter's delay-sanity pass.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Delay::Exponential(RateFn::Const(r)) if !r.is_finite() || *r <= 0.0 => Err(format!(
                "exponential rate must be positive and finite, got {r}"
            )),
            Delay::Exponential(_) => Ok(()),
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
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| sample_exponential(4.0, &mut rng)).sum();
        let mean = total / f64::from(n);
        assert!((mean - 0.25).abs() < 0.01, "empirical mean {mean}");
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(Delay::exponential(0.0).validate().is_err());
        assert!(Delay::exponential(f64::NAN).validate().is_err());
        assert!(Delay::exponential(f64::INFINITY).validate().is_err());
        assert!(Delay::exponential(1.0).validate().is_ok());
        assert!(Delay::shared(RateGroupId(0)).validate().is_ok());
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
        let Delay::Exponential(rate) =
            Delay::exponential_fn(|m| m.tokens(crate::PlaceId(0)) as f64);
        assert_eq!(rate.eval(&m), Some(4.0));
        assert!(!rate.is_const());
    }
}
