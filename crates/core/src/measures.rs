//! Secondary dependability measures of the AHS, built on the reward
//! formalism.
//!
//! The paper evaluates only the unsafety `S(t)`; an operator adopting
//! the model would also want throughput-adjacent measures: how often
//! recovery maneuvers run, how much of a trip the system spends with a
//! degraded vehicle, and how many vehicles are lost (`v_KO`). These
//! are interval-of-time reward variables over the same composed SAN.

use std::collections::HashSet;
use std::sync::Arc;

use ahs_des::{Backend, CurveEstimate, RewardSpec, Study};

use crate::error::AhsError;
use crate::model::AhsModel;
use crate::params::Params;

/// Expected-value measures of one AHS configuration over a trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripMeasures {
    /// Trip duration, hours.
    pub horizon_hours: f64,
    /// Expected number of recovery maneuvers *started* (failure-mode
    /// occurrences plus escalations) per trip, fleet-wide.
    pub expected_maneuvers: f64,
    /// Confidence half-width (95%) on `expected_maneuvers`.
    pub expected_maneuvers_hw: f64,
    /// Expected fraction of the trip during which at least one vehicle
    /// is recovering.
    pub recovery_time_fraction: f64,
    /// Confidence half-width (95%) on `recovery_time_fraction`.
    pub recovery_time_fraction_hw: f64,
    /// Expected number of vehicles lost to `v_KO` per trip.
    pub expected_vehicles_lost: f64,
    /// Confidence half-width (95%) on `expected_vehicles_lost`.
    pub expected_vehicles_lost_hw: f64,
    /// Replications behind each estimate.
    pub replications: u64,
}

/// Estimates [`TripMeasures`] for `params` over `horizon_hours`, using
/// `replications` plain Monte-Carlo runs per measure on every available
/// core (rewards do not support importance sampling; these measures are
/// not rare, so plain sampling converges quickly even at the paper's
/// λ). The result is the same for any core count.
///
/// # Errors
///
/// Returns [`AhsError`] for invalid parameters or simulation failures.
///
/// # Panics
///
/// Panics if `horizon_hours` is negative or not finite.
pub fn trip_measures(
    params: &Params,
    horizon_hours: f64,
    replications: u64,
    seed: u64,
) -> Result<TripMeasures, AhsError> {
    let (san, handles) = AhsModel::build(params)?.into_san();
    let san = Arc::new(san);
    let estimate = |spec: &RewardSpec, seed: u64| {
        Study::new(Arc::clone(&san))
            .with_seed(seed)
            .with_fixed_replications(replications)
            .reward(spec, horizon_hours, Backend::Markov)
    };

    // Maneuver executions: completions of any maneuver activity.
    let maneuver_set: HashSet<usize> = handles
        .maneuver_activities
        .iter()
        .map(|a| a.index())
        .collect();
    let spec =
        RewardSpec::impulse(move |a, _| f64::from(u8::from(maneuver_set.contains(&a.index()))));
    let maneuvers = estimate(&spec, seed)?;

    // Fraction of time with >= 1 vehicle recovering.
    let (ca, cb, cc) = (handles.class_a, handles.class_b, handles.class_c);
    let spec = RewardSpec::rate(move |m| {
        f64::from(u8::from(m.tokens(ca) + m.tokens(cb) + m.tokens(cc) > 0))
    });
    let recovery = estimate(&spec, seed ^ 1)?;

    // Vehicles lost: firings of `back_to_ko`, which every vehicle lost
    // to v_KO passes through exactly once.
    let ko_backs: HashSet<usize> = (0..params.total_vehicles())
        .map(|v| {
            san.find_activity(&format!("vehicle[{v}].back_to_ko"))
                .expect("model defines back_to_ko per vehicle")
                .index()
        })
        .collect();
    let spec = RewardSpec::impulse(move |a, _| f64::from(u8::from(ko_backs.contains(&a.index()))));
    let lost = estimate(&spec, seed ^ 2)?;

    let mean = |e: &CurveEstimate| e.curve.estimator(0).mean();
    let hw = |e: &CurveEstimate| e.curve.interval(0, 0.95).half_width();
    Ok(TripMeasures {
        horizon_hours,
        expected_maneuvers: mean(&maneuvers),
        expected_maneuvers_hw: hw(&maneuvers),
        recovery_time_fraction: mean(&recovery) / horizon_hours,
        recovery_time_fraction_hw: hw(&recovery) / horizon_hours,
        expected_vehicles_lost: mean(&lost),
        expected_vehicles_lost_hw: hw(&lost),
        replications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_scale_with_lambda() {
        let lo = trip_measures(
            &Params::builder().lambda(1e-3).n(3).build().unwrap(),
            10.0,
            2_000,
            7,
        )
        .unwrap();
        let hi = trip_measures(
            &Params::builder().lambda(1e-2).n(3).build().unwrap(),
            10.0,
            2_000,
            7,
        )
        .unwrap();
        assert!(hi.expected_maneuvers > lo.expected_maneuvers * 5.0);
        assert!(hi.recovery_time_fraction > lo.recovery_time_fraction);
        // Fleet of 6 at 14λ = 0.084/hr for 10h ≈ 0.84 failures expected,
        // nearly all resolved by one maneuver (base failure 5%).
        let expected = 6.0 * 14.0 * 1e-2 * 10.0;
        assert!(
            (hi.expected_maneuvers - expected).abs() / expected < 0.25,
            "maneuvers {} vs first-order {expected}",
            hi.expected_maneuvers
        );
    }

    #[test]
    fn vehicles_lost_requires_full_escalation_chain() {
        // With maneuvers that almost never fail, v_KO is essentially
        // impossible; with maneuvers that almost always fail, every
        // failure cascades to v_KO.
        let reliable = trip_measures(
            &Params::builder()
                .lambda(5e-2)
                .n(2)
                .maneuver_base_failure(0.001)
                .impairment_penalty(0.001)
                .build()
                .unwrap(),
            10.0,
            1_500,
            9,
        )
        .unwrap();
        assert!(reliable.expected_vehicles_lost < 0.05);

        let fragile = trip_measures(
            &Params::builder()
                .lambda(5e-2)
                .n(2)
                .maneuver_base_failure(0.9)
                .impairment_penalty(0.05)
                .build()
                .unwrap(),
            10.0,
            1_500,
            9,
        )
        .unwrap();
        assert!(
            fragile.expected_vehicles_lost > reliable.expected_vehicles_lost * 5.0,
            "fragile {} vs reliable {}",
            fragile.expected_vehicles_lost,
            reliable.expected_vehicles_lost
        );
    }

    #[test]
    fn recovery_fraction_is_a_probability() {
        let m = trip_measures(
            &Params::builder().lambda(1e-2).n(3).build().unwrap(),
            6.0,
            1_000,
            11,
        )
        .unwrap();
        assert!(m.recovery_time_fraction >= 0.0 && m.recovery_time_fraction <= 1.0);
        assert_eq!(m.replications, 1_000);
    }
}
