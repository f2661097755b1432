//! Secondary dependability measures of the AHS, built on the reward
//! formalism.
//!
//! The paper evaluates only the unsafety `S(t)`; an operator adopting
//! the model would also want throughput-adjacent measures: how often
//! recovery maneuvers run, how much of a trip the system spends with a
//! degraded vehicle, and how many vehicles are lost (`v_KO`). These
//! are interval-of-time reward variables over the same composed SAN.

use ahs_des::{Backend, RewardSpec, RewardStudy};
use ahs_stats::RunningStats;

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
/// `replications` plain Monte-Carlo runs (rewards do not support
/// importance sampling; these measures are not rare, so plain sampling
/// converges quickly even at the paper's λ).
///
/// # Errors
///
/// Returns [`AhsError`] for invalid parameters or simulation failures.
pub fn trip_measures(
    params: &Params,
    horizon_hours: f64,
    replications: u64,
    seed: u64,
) -> Result<TripMeasures, AhsError> {
    let build = || -> Result<_, AhsError> {
        let model = AhsModel::build(params)?;
        Ok(model.into_san())
    };

    // Maneuver starts: every firing of a failure activity L_i starts (or
    // escalates into) a maneuver; escalations are maneuver-failure cases
    // and counted through the maneuver activities' firing with failure
    // outcome — here we count maneuver-activity completions instead,
    // which equals the number of maneuver executions.
    let (san, handles) = build()?;
    let maneuver_set: std::collections::HashSet<usize> = handles
        .maneuver_activities
        .iter()
        .map(|a| a.index())
        .collect();
    let spec =
        RewardSpec::impulse(move |a, _| f64::from(u8::from(maneuver_set.contains(&a.index()))));
    let maneuvers = RewardStudy::new(san)
        .with_seed(seed)
        .with_replications(replications)
        .estimate(&spec, horizon_hours, Backend::Markov)?;

    // Fraction of time with >= 1 vehicle recovering.
    let (san, handles) = build()?;
    let (ca, cb, cc) = (handles.class_a, handles.class_b, handles.class_c);
    let spec = RewardSpec::rate(move |m| {
        f64::from(u8::from(m.tokens(ca) + m.tokens(cb) + m.tokens(cc) > 0))
    });
    let recovery = RewardStudy::new(san)
        .with_seed(seed ^ 1)
        .with_replications(replications)
        .estimate(&spec, horizon_hours, Backend::Markov)?;

    // Vehicles lost: firings of the AS maneuver's failure case mark
    // v_KO; count tokens entering the v_KO places via a rate-less
    // impulse on back_to_ko? Simpler and exact: impulse 1 whenever a
    // marking transition newly marks any v_ko place — here approximated
    // by counting back_to_ko firings (every lost vehicle passes through
    // exactly one such firing, at rate back_rate after the loss).
    let (san, handles) = build()?;
    let ko_backs: std::collections::HashSet<usize> = (0..params.total_vehicles())
        .map(|v| {
            san.find_activity(&format!("vehicle[{v}].back_to_ko"))
                .expect("model defines back_to_ko per vehicle")
                .index()
        })
        .collect();
    let _ = handles;
    let spec = RewardSpec::impulse(move |a, _| f64::from(u8::from(ko_backs.contains(&a.index()))));
    let lost = RewardStudy::new(san)
        .with_seed(seed ^ 2)
        .with_replications(replications)
        .estimate(&spec, horizon_hours, Backend::Markov)?;

    let hw = |s: &RunningStats| s.confidence_interval(0.95).half_width();
    Ok(TripMeasures {
        horizon_hours,
        expected_maneuvers: maneuvers.mean(),
        expected_maneuvers_hw: hw(&maneuvers),
        recovery_time_fraction: recovery.mean() / horizon_hours,
        recovery_time_fraction_hw: hw(&recovery) / horizon_hours,
        expected_vehicles_lost: lost.mean(),
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
