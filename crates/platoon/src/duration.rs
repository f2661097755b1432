//! End-to-end maneuver duration model: coordination + kinematics +
//! highway clearing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::maneuver::{ManeuverOutcomeKind, ManeuverSimulator, RecoveryManeuver};
use crate::spacing::SpacingPolicy;

/// Summary statistics of a maneuver duration estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationStats {
    /// Mean end-to-end duration, seconds.
    pub mean_seconds: f64,
    /// Standard deviation, seconds.
    pub std_seconds: f64,
    /// Smallest observed duration, seconds.
    pub min_seconds: f64,
    /// Largest observed duration, seconds.
    pub max_seconds: f64,
    /// Number of Monte-Carlo samples behind the estimate.
    pub samples: u32,
}

impl DurationStats {
    /// The exponential rate (per hour) corresponding to the mean
    /// duration — the form used by the SAN models' maneuver activities.
    pub fn rate_per_hour(&self) -> f64 {
        3600.0 / self.mean_seconds
    }
}

/// End-to-end maneuver duration model.
///
/// The paper's maneuver execution rates (15–30 /hr, i.e. 2–4 minutes
/// per maneuver) cover far more than vehicle kinematics: inter-vehicle
/// coordination rounds, and — for the stop maneuvers — easing
/// congestion, diverting traffic and clearing the queued vehicles
/// (paper §2.1.1). This model composes:
///
/// * a kinematic term from [`ManeuverSimulator`] with a randomized
///   exit-ramp distance;
/// * a coordination term proportional to the number of involved
///   vehicles (more vehicles under centralized coordination — the
///   mechanism behind the paper's strategy sensitivity);
/// * a clearing/recovery term for maneuvers that stop traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationModel {
    policy: SpacingPolicy,
    /// Seconds per coordination round-trip per involved vehicle.
    pub coordination_round_seconds: f64,
    /// Number of coordination rounds per maneuver.
    pub coordination_rounds: u32,
    /// Vehicles involved in the coordination (strategy-dependent).
    pub involved_vehicles: u32,
    /// Range of distances to the next exit ramp, metres.
    pub exit_distance_range: (f64, f64),
    /// Range of the traffic-clearing overhead for stop maneuvers,
    /// seconds.
    pub clearing_range: (f64, f64),
    /// Platoon size used for the kinematic simulation.
    pub platoon_size: usize,
}

impl DurationModel {
    /// Samples one end-to-end duration, seconds.
    fn sample(&self, maneuver: RecoveryManeuver, rng: &mut SmallRng) -> f64 {
        let exit_d = rng.random_range(self.exit_distance_range.0..self.exit_distance_range.1);
        let sim = ManeuverSimulator::new(self.policy).with_exit_distance(exit_d);
        let faulty = self.platoon_size / 2;
        let kinematic = match sim.simulate(maneuver, self.platoon_size, faulty) {
            Ok(ManeuverOutcomeKind::Completed { duration, .. }) => duration,
            Err(_) => sim_budget_fallback(),
        };
        let coordination = f64::from(self.coordination_rounds)
            * f64::from(self.involved_vehicles)
            * self.coordination_round_seconds;
        let clearing = if maneuver.stops_on_highway() {
            rng.random_range(self.clearing_range.0..self.clearing_range.1)
        } else {
            // Exit maneuvers still need the gap to close and the exit
            // ramp to clear, but no full traffic stop.
            rng.random_range(self.clearing_range.0 * 0.4..self.clearing_range.1 * 0.6)
        };
        kinematic + coordination + clearing
    }

    /// Estimates the duration distribution of `maneuver` from
    /// `samples` Monte-Carlo runs.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn estimate(&self, maneuver: RecoveryManeuver, samples: u32, seed: u64) -> DurationStats {
        assert!(samples > 0, "need at least one sample");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..samples {
            let d = self.sample(maneuver, &mut rng);
            sum += d;
            sum_sq += d * d;
            min = min.min(d);
            max = max.max(d);
        }
        let mean = sum / f64::from(samples);
        let var = (sum_sq / f64::from(samples) - mean * mean).max(0.0);
        DurationStats {
            mean_seconds: mean,
            std_seconds: var.sqrt(),
            min_seconds: min,
            max_seconds: max,
            samples,
        }
    }

    /// Estimates all six maneuvers and returns `(maneuver, stats)` in
    /// Table 1 order.
    pub fn estimate_all(&self, samples: u32, seed: u64) -> Vec<(RecoveryManeuver, DurationStats)> {
        RecoveryManeuver::ALL
            .iter()
            .map(|&m| (m, self.estimate(m, samples, seed ^ m as u64)))
            .collect()
    }
}

fn sim_budget_fallback() -> f64 {
    // A failed kinematic run (timeout) is scored at the simulator's
    // budget; it feeds the conservative end of the distribution.
    1200.0
}

impl Default for DurationModel {
    fn default() -> Self {
        DurationModel {
            policy: SpacingPolicy::nominal(),
            coordination_round_seconds: 0.8,
            coordination_rounds: 4,
            involved_vehicles: 4,
            exit_distance_range: (600.0, 1600.0),
            clearing_range: (90.0, 160.0),
            platoon_size: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_maneuvers_land_in_the_papers_window() {
        // Paper §4.1: maneuver durations between 2 and 4 minutes,
        // i.e. rates between 15 and 30 per hour.
        let model = DurationModel::default();
        for (m, stats) in model.estimate_all(120, 7) {
            let rate = stats.rate_per_hour();
            assert!(
                (10.0..=40.0).contains(&rate),
                "{m}: mean {}s → rate {rate}/hr outside sanity band",
                stats.mean_seconds
            );
            assert!(
                stats.mean_seconds > 100.0 && stats.mean_seconds < 300.0,
                "{m}: mean {}s outside ≈2–4 min window",
                stats.mean_seconds
            );
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let model = DurationModel::default();
        let s = model.estimate(RecoveryManeuver::CrashStop, 50, 3);
        assert!(s.min_seconds <= s.mean_seconds && s.mean_seconds <= s.max_seconds);
        assert!(s.std_seconds >= 0.0);
        assert_eq!(s.samples, 50);
        assert!((s.rate_per_hour() - 3600.0 / s.mean_seconds).abs() < 1e-9);
    }

    #[test]
    fn more_involved_vehicles_slow_the_maneuver() {
        // The centralized-coordination mechanism: more involved
        // vehicles → longer coordination → slower maneuver.
        let few = DurationModel {
            involved_vehicles: 3,
            ..Default::default()
        };
        let many = DurationModel {
            involved_vehicles: 9,
            ..Default::default()
        };
        let d_few = few.estimate(RecoveryManeuver::TakeImmediateExitEscorted, 60, 11);
        let d_many = many.estimate(RecoveryManeuver::TakeImmediateExitEscorted, 60, 11);
        assert!(d_many.mean_seconds > d_few.mean_seconds);
    }

    #[test]
    fn estimates_are_deterministic_for_a_seed() {
        let model = DurationModel::default();
        let a = model.estimate(RecoveryManeuver::GentleStop, 30, 5);
        let b = model.estimate(RecoveryManeuver::GentleStop, 30, 5);
        assert_eq!(a, b);
    }
}
