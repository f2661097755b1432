//! Model parameters (paper §4.1) with validation.

use ahs_obs::Json;
use ahs_platoon::RecoveryManeuver;

use crate::error::AhsError;
use crate::failure::{maneuver_slot, FailureMode};
use crate::strategy::Strategy;

/// Most platoons (lanes) the model supports.
pub(crate) const MAX_PLATOONS: usize = 8;

/// Execution rates of the six maneuvers, per hour (paper §4.1: between
/// 15/hr and 30/hr, i.e. durations of 2–4 minutes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManeuverRates {
    rates: [f64; 6],
}

impl ManeuverRates {
    /// The defaults used throughout the reproduction, ordered by
    /// urgency within the paper's 15–30 /hr window: TIE-N 15, TIE-E 18,
    /// TIE 21, GS 24, CS 27, AS 30.
    pub fn nominal() -> Self {
        ManeuverRates {
            rates: [15.0, 18.0, 21.0, 24.0, 27.0, 30.0],
        }
    }

    /// The rate of one maneuver, per hour.
    pub fn rate(&self, m: RecoveryManeuver) -> f64 {
        self.rates[maneuver_slot(m)]
    }

    /// Sets the rate of one maneuver.
    pub fn set_rate(&mut self, m: RecoveryManeuver, per_hour: f64) {
        self.rates[maneuver_slot(m)] = per_hour;
    }

    /// Validates every rate against the paper's window (with slack for
    /// sensitivity studies: positive and finite is required, the 15–30
    /// window is only warned through `in_paper_window`).
    pub(crate) fn validate(&self) -> Result<(), AhsError> {
        for (i, r) in self.rates.iter().enumerate() {
            if !r.is_finite() || *r <= 0.0 {
                return Err(AhsError::InvalidParameter {
                    name: "maneuver_rates",
                    reason: format!("rate #{i} must be positive and finite, got {r}"),
                });
            }
        }
        Ok(())
    }

    /// Whether every rate lies in the paper's 15–30 /hr window.
    pub fn in_paper_window(&self) -> bool {
        self.rates.iter().all(|r| (15.0..=30.0).contains(r))
    }

    /// Arithmetic mean of the six rates (per hour); `1/mean_rate` is
    /// the characteristic maneuver window used by the dynamic
    /// importance-sampling scheme.
    pub fn mean_rate(&self) -> f64 {
        self.rates.iter().sum::<f64>() / 6.0
    }
}

impl Default for ManeuverRates {
    fn default() -> Self {
        ManeuverRates::nominal()
    }
}

/// Parameters of the AHS safety model.
///
/// Defaults reproduce the paper's §4.1 configuration: λ = 1e-5/hr,
/// failure-mode rates `[λ, 2λ, 2λ, 2λ, 3λ, 4λ]`, maneuver rates in
/// 15–30 /hr, platoon change rates 6/hr, join 12/hr, leave 4/hr, two
/// platoons of up to `n` vehicles each, strategy DD.
///
/// # Example
///
/// ```
/// use ahs_core::{Params, Strategy};
///
/// let params = Params::builder()
///     .n(8)
///     .lambda(1e-4)
///     .strategy(Strategy::Cc)
///     .build()?;
/// assert_eq!(params.total_vehicles(), 16);
/// assert!((params.total_failure_rate() - 14e-4).abs() < 1e-12);
/// # Ok::<(), ahs_core::AhsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Base failure rate λ, per hour.
    pub lambda: f64,
    /// Maximum vehicles per platoon (the paper's `n`).
    pub n: usize,
    /// Number of platoons/lanes (the paper studies 2; its conclusion
    /// notes the models "can be easily extended to analyze highways
    /// composed of a larger number of platoons" — this implements that
    /// extension). Platoon 1 is the exit lane; voluntary leaves happen
    /// only from it, and lane changes move between adjacent platoons.
    pub platoons: usize,
    /// Global highway join rate, per hour.
    pub join_rate: f64,
    /// Global highway leave rate, per hour (vehicles exit from
    /// platoon 1 only; platoon-2 vehicles pass through platoon 1
    /// first — paper §4.1).
    pub leave_rate: f64,
    /// Per-vehicle platoon change rate (ch1 = ch2), per hour.
    pub change_rate: f64,
    /// Rate at which a slot freed by `v_OK`/`v_KO` becomes available to
    /// a new vehicle (the paper's `back_to` activity), per hour.
    pub back_rate: f64,
    /// Maneuver execution rates.
    pub maneuver_rates: ManeuverRates,
    /// Baseline probability that a maneuver attempt fails even with all
    /// involved vehicles healthy.
    pub maneuver_base_failure: f64,
    /// Additional failure probability contributed per expected impaired
    /// vehicle among the maneuver's involved set.
    pub impairment_penalty: f64,
    /// Coordination strategy (Table 3).
    pub strategy: Strategy,
}

impl Params {
    /// Starts a builder pre-loaded with the paper's defaults.
    pub fn builder() -> ParamsBuilder {
        ParamsBuilder {
            params: Params::default(),
        }
    }

    /// Failure rate of one failure mode (λ × Table 1 multiplier), per
    /// hour.
    pub fn failure_rate(&self, fm: FailureMode) -> f64 {
        self.lambda * fm.rate_multiplier()
    }

    /// Total failure rate of a healthy vehicle, per hour (14λ).
    pub fn total_failure_rate(&self) -> f64 {
        FailureMode::ALL
            .iter()
            .map(|fm| self.failure_rate(*fm))
            .sum()
    }

    /// Total number of vehicle slots in the model (`platoons × n`).
    pub fn total_vehicles(&self) -> usize {
        self.platoons * self.n
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AhsError::InvalidParameter`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), AhsError> {
        fn positive(name: &'static str, v: f64) -> Result<(), AhsError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(AhsError::InvalidParameter {
                    name,
                    reason: format!("must be positive and finite, got {v}"),
                });
            }
            Ok(())
        }
        positive("lambda", self.lambda)?;
        positive("join_rate", self.join_rate)?;
        positive("leave_rate", self.leave_rate)?;
        positive("change_rate", self.change_rate)?;
        positive("back_rate", self.back_rate)?;
        if self.n == 0 {
            return Err(AhsError::InvalidParameter {
                name: "n",
                reason: "platoon capacity must be at least 1".into(),
            });
        }
        if self.n > 64 {
            return Err(AhsError::InvalidParameter {
                name: "n",
                reason: format!("platoon capacity {} is beyond the supported 64", self.n),
            });
        }
        if !(2..=MAX_PLATOONS).contains(&self.platoons) {
            return Err(AhsError::InvalidParameter {
                name: "platoons",
                reason: format!(
                    "the model supports 2 to {MAX_PLATOONS} platoons, got {}",
                    self.platoons
                ),
            });
        }
        self.maneuver_rates.validate()?;
        if !(0.0..1.0).contains(&self.maneuver_base_failure) {
            return Err(AhsError::InvalidParameter {
                name: "maneuver_base_failure",
                reason: format!("must be in [0, 1), got {}", self.maneuver_base_failure),
            });
        }
        if !(0.0..1.0).contains(&self.impairment_penalty) {
            return Err(AhsError::InvalidParameter {
                name: "impairment_penalty",
                reason: format!("must be in [0, 1), got {}", self.impairment_penalty),
            });
        }
        Ok(())
    }

    /// The system load ρ = join rate / leave rate studied in Figure 13.
    pub fn load(&self) -> f64 {
        self.join_rate / self.leave_rate
    }

    /// Serializes every parameter as a JSON object, keyed by field
    /// name, for run manifests (the workspace has no serialization
    /// crate, so provenance records are emitted through `ahs-obs`'s
    /// JSON tree).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lambda", self.lambda.into()),
            ("n", self.n.into()),
            ("platoons", self.platoons.into()),
            ("join_rate", self.join_rate.into()),
            ("leave_rate", self.leave_rate.into()),
            ("change_rate", self.change_rate.into()),
            ("back_rate", self.back_rate.into()),
            (
                "maneuver_rates",
                Json::Obj(
                    RecoveryManeuver::ALL
                        .iter()
                        .map(|&m| {
                            (
                                m.abbreviation().to_owned(),
                                Json::Num(self.maneuver_rates.rate(m)),
                            )
                        })
                        .collect(),
                ),
            ),
            ("maneuver_base_failure", self.maneuver_base_failure.into()),
            ("impairment_penalty", self.impairment_penalty.into()),
            ("strategy", Json::str(self.strategy.name())),
        ])
    }
}

impl Default for Params {
    fn default() -> Self {
        Params {
            lambda: 1e-5,
            n: 10,
            platoons: 2,
            join_rate: 12.0,
            leave_rate: 4.0,
            change_rate: 6.0,
            back_rate: 20.0,
            maneuver_rates: ManeuverRates::nominal(),
            maneuver_base_failure: 0.05,
            impairment_penalty: 0.10,
            strategy: Strategy::Dd,
        }
    }
}

/// Builder for [`Params`].
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain validated parameters"]
pub struct ParamsBuilder {
    params: Params,
}

impl ParamsBuilder {
    /// Sets the base failure rate λ (per hour).
    pub fn lambda(mut self, per_hour: f64) -> Self {
        self.params.lambda = per_hour;
        self
    }

    /// Sets the maximum platoon size `n`.
    pub fn n(mut self, n: usize) -> Self {
        self.params.n = n;
        self
    }

    /// Sets the number of platoons/lanes (default 2, as in the paper).
    pub fn platoons(mut self, platoons: usize) -> Self {
        self.params.platoons = platoons;
        self
    }

    /// Sets the global join rate (per hour).
    pub fn join_rate(mut self, per_hour: f64) -> Self {
        self.params.join_rate = per_hour;
        self
    }

    /// Sets the global leave rate (per hour).
    pub fn leave_rate(mut self, per_hour: f64) -> Self {
        self.params.leave_rate = per_hour;
        self
    }

    /// Sets the per-vehicle platoon change rate (per hour).
    pub fn change_rate(mut self, per_hour: f64) -> Self {
        self.params.change_rate = per_hour;
        self
    }

    /// Sets the slot recycling rate (per hour).
    pub fn back_rate(mut self, per_hour: f64) -> Self {
        self.params.back_rate = per_hour;
        self
    }

    /// Sets the maneuver rates.
    pub fn maneuver_rates(mut self, rates: ManeuverRates) -> Self {
        self.params.maneuver_rates = rates;
        self
    }

    /// Sets the baseline maneuver failure probability.
    pub fn maneuver_base_failure(mut self, p: f64) -> Self {
        self.params.maneuver_base_failure = p;
        self
    }

    /// Sets the impairment penalty.
    pub fn impairment_penalty(mut self, p: f64) -> Self {
        self.params.impairment_penalty = p;
        self
    }

    /// Sets the coordination strategy.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.params.strategy = s;
        self
    }

    /// Validates and returns the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AhsError::InvalidParameter`] for the first invalid
    /// field.
    pub fn build(self) -> Result<Params, AhsError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_4_1() {
        let p = Params::default();
        assert_eq!(p.lambda, 1e-5);
        assert_eq!(p.n, 10);
        assert_eq!(p.join_rate, 12.0);
        assert_eq!(p.leave_rate, 4.0);
        assert_eq!(p.change_rate, 6.0);
        assert!(p.maneuver_rates.in_paper_window());
        assert!((p.load() - 3.0).abs() < 1e-12);
        p.validate().unwrap();
    }

    #[test]
    fn failure_rates_scale_with_lambda() {
        let p = Params::builder().lambda(2e-5).build().unwrap();
        assert!((p.failure_rate(FailureMode::Fm1) - 2e-5).abs() < 1e-18);
        assert!((p.failure_rate(FailureMode::Fm6) - 8e-5).abs() < 1e-18);
        assert!((p.total_failure_rate() - 14.0 * 2e-5).abs() < 1e-15);
    }

    #[test]
    fn builder_sets_every_field() {
        let mut rates = ManeuverRates::nominal();
        rates.set_rate(RecoveryManeuver::AidedStop, 25.0);
        let p = Params::builder()
            .lambda(1e-4)
            .n(8)
            .join_rate(8.0)
            .leave_rate(8.0)
            .change_rate(5.0)
            .back_rate(30.0)
            .maneuver_rates(rates)
            .maneuver_base_failure(0.02)
            .impairment_penalty(0.2)
            .strategy(Strategy::Cc)
            .build()
            .unwrap();
        assert_eq!(p.n, 8);
        assert_eq!(p.strategy, Strategy::Cc);
        assert_eq!(p.maneuver_rates.rate(RecoveryManeuver::AidedStop), 25.0);
        assert_eq!(p.total_vehicles(), 16);
        assert!((p.load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Params::builder().lambda(0.0).build().is_err());
        assert!(Params::builder().n(0).build().is_err());
        assert!(Params::builder().n(100).build().is_err());
        assert!(Params::builder()
            .maneuver_base_failure(1.0)
            .build()
            .is_err());
        assert!(Params::builder().impairment_penalty(-0.1).build().is_err());
        assert!(Params::builder().join_rate(f64::NAN).build().is_err());
        let mut rates = ManeuverRates::nominal();
        rates.set_rate(RecoveryManeuver::GentleStop, 0.0);
        assert!(Params::builder().maneuver_rates(rates).build().is_err());
    }

    #[test]
    fn to_json_covers_every_field() {
        let p = Params::default();
        let json = p.to_json().render();
        for needle in [
            "\"lambda\":0.00001",
            "\"n\":10",
            "\"platoons\":2",
            "\"join_rate\":12",
            "\"leave_rate\":4",
            "\"change_rate\":6",
            "\"back_rate\":20",
            "\"GS\":24",
            "\"AS\":30",
            "\"TIE-N\":15",
            "\"maneuver_base_failure\":0.05",
            "\"impairment_penalty\":0.1",
            "\"strategy\":\"DD\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn paper_window_detection() {
        let mut rates = ManeuverRates::nominal();
        assert!(rates.in_paper_window());
        rates.set_rate(RecoveryManeuver::CrashStop, 60.0);
        assert!(!rates.in_paper_window());
        rates.validate().unwrap(); // still valid, just outside the window
    }
}
