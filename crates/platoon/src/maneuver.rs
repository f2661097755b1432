//! The paper's recovery maneuvers, decomposed into atomic maneuvers and
//! simulated kinematically.

use crate::control::GapController;
use crate::error::PlatoonError;
use crate::spacing::SpacingPolicy;
use crate::vehicle::{Lane, Vehicle, VehicleId};

/// Atomic maneuvers of the PATH architecture (the building blocks of
/// Table 1's recovery maneuvers, per Lygeros et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AtomicManeuver {
    /// Split the platoon ahead of the faulty vehicle (open a gap).
    Split,
    /// Close the gap after the faulty vehicle left (merge back).
    Merge,
    /// Move one lane toward the exit side.
    ChangeLane,
    /// Decelerate to a stop at a given (negative) rate.
    BrakeToStop {
        /// Deceleration, m/s² (negative).
        rate: f64,
    },
    /// Proceed at reduced speed to the next exit ramp.
    ProceedToExit {
        /// Reduced travel speed, m/s.
        speed: f64,
    },
}

/// The six recovery maneuvers of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryManeuver {
    /// GS — the faulty vehicle uses its brakes smoothly to stop
    /// (severity A1).
    GentleStop,
    /// CS — maximum emergency braking (severity A2).
    CrashStop,
    /// AS — the faulty vehicle is stopped by the vehicle immediately
    /// ahead (severity A3).
    AidedStop,
    /// TIE — leave at the next exit without assistance (severity B1).
    TakeImmediateExit,
    /// TIE-E — leave at the next exit escorted by adjacent vehicles
    /// (severity B2).
    TakeImmediateExitEscorted,
    /// TIE-N — normal exit for the least severe failures (severity C).
    TakeImmediateExitNormal,
}

impl RecoveryManeuver {
    /// All six maneuvers, in Table 1 order (FM1..FM6).
    pub const ALL: [RecoveryManeuver; 6] = [
        RecoveryManeuver::AidedStop,
        RecoveryManeuver::CrashStop,
        RecoveryManeuver::GentleStop,
        RecoveryManeuver::TakeImmediateExitEscorted,
        RecoveryManeuver::TakeImmediateExit,
        RecoveryManeuver::TakeImmediateExitNormal,
    ];

    /// The atomic-maneuver decomposition executed by the faulty vehicle
    /// (supporting vehicles run complementary splits/merges).
    pub fn atomic_sequence(self) -> Vec<AtomicManeuver> {
        match self {
            RecoveryManeuver::GentleStop => vec![
                AtomicManeuver::Split,
                AtomicManeuver::BrakeToStop { rate: -1.5 },
            ],
            RecoveryManeuver::CrashStop => vec![AtomicManeuver::BrakeToStop { rate: -6.0 }],
            RecoveryManeuver::AidedStop => vec![
                AtomicManeuver::Split,
                AtomicManeuver::BrakeToStop { rate: -4.0 },
            ],
            RecoveryManeuver::TakeImmediateExit => vec![
                AtomicManeuver::Split,
                AtomicManeuver::ChangeLane,
                AtomicManeuver::ProceedToExit { speed: 22.0 },
                AtomicManeuver::Merge,
            ],
            RecoveryManeuver::TakeImmediateExitEscorted => vec![
                AtomicManeuver::Split,
                AtomicManeuver::ChangeLane,
                AtomicManeuver::ProceedToExit { speed: 18.0 },
                AtomicManeuver::Merge,
            ],
            RecoveryManeuver::TakeImmediateExitNormal => vec![
                AtomicManeuver::ChangeLane,
                AtomicManeuver::ProceedToExit { speed: 25.0 },
            ],
        }
    }

    /// Whether the maneuver stops the faulty vehicle on the highway
    /// (class A) rather than taking it to an exit (classes B and C).
    pub fn stops_on_highway(self) -> bool {
        matches!(
            self,
            RecoveryManeuver::GentleStop
                | RecoveryManeuver::CrashStop
                | RecoveryManeuver::AidedStop
        )
    }

    /// Short PATH-style abbreviation (GS, CS, AS, TIE, TIE-E, TIE-N).
    pub fn abbreviation(self) -> &'static str {
        match self {
            RecoveryManeuver::GentleStop => "GS",
            RecoveryManeuver::CrashStop => "CS",
            RecoveryManeuver::AidedStop => "AS",
            RecoveryManeuver::TakeImmediateExit => "TIE",
            RecoveryManeuver::TakeImmediateExitEscorted => "TIE-E",
            RecoveryManeuver::TakeImmediateExitNormal => "TIE-N",
        }
    }
}

impl std::fmt::Display for RecoveryManeuver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// How a kinematic maneuver simulation ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManeuverOutcomeKind {
    /// The faulty vehicle stopped or exited and the platoon re-formed.
    Completed {
        /// Kinematic duration, seconds.
        duration: f64,
        /// Smallest bumper-to-bumper gap observed, metres.
        min_gap: f64,
    },
}

/// Kinematic simulator for recovery maneuvers.
///
/// Simulates the faulty vehicle, its followers (gap-controlled), and
/// the vehicles ahead through the maneuver's atomic sequence, with
/// per-step collision detection. Returns the kinematic duration — the
/// physical part of the paper's 2–4 minute maneuver window (the rest is
/// coordination and highway clearing, added by
/// [`DurationModel`](crate::DurationModel)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManeuverSimulator {
    policy: SpacingPolicy,
    controller: GapController,
    /// Integration step, seconds.
    dt: f64,
    /// Simulation budget, seconds.
    budget: f64,
    /// Distance to the next exit ramp, metres.
    exit_distance: f64,
    /// Fixed lateral lane-change time, seconds.
    lane_change_time: f64,
}

impl ManeuverSimulator {
    /// Creates a simulator with the nominal policy and controller.
    pub fn new(policy: SpacingPolicy) -> Self {
        ManeuverSimulator {
            policy,
            controller: GapController::nominal(),
            dt: 0.05,
            budget: 1200.0,
            exit_distance: 1000.0,
            lane_change_time: 5.0,
        }
    }

    /// Sets the distance to the next exit ramp.
    ///
    /// # Panics
    ///
    /// Panics if `metres` is not positive and finite.
    #[must_use]
    pub fn with_exit_distance(mut self, metres: f64) -> Self {
        assert!(
            metres.is_finite() && metres > 0.0,
            "exit distance must be positive"
        );
        self.exit_distance = metres;
        self
    }

    /// Simulates `maneuver` for the vehicle at `faulty_index` of a
    /// platoon with `size` members.
    ///
    /// # Errors
    ///
    /// Returns [`PlatoonError::Collision`] if any pair of vehicles
    /// overlaps, [`PlatoonError::ManeuverTimeout`] if the maneuver does
    /// not complete within the budget, or
    /// [`PlatoonError::NotAMember`]-style index errors via panic-free
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `faulty_index >= size`.
    pub fn simulate(
        &self,
        maneuver: RecoveryManeuver,
        size: usize,
        faulty_index: usize,
    ) -> Result<ManeuverOutcomeKind, PlatoonError> {
        assert!(size > 0, "platoon must not be empty");
        assert!(faulty_index < size, "faulty index out of range");

        // Materialize the platoon in lane 1, leader front bumper at 0.
        let mut vehicles: Vec<Vehicle> = (0..size)
            .map(|i| {
                let pos = self.policy.member_position(0.0, i, Vehicle::DEFAULT_LENGTH);
                Vehicle::new(VehicleId(i as u32), Lane(1), pos, self.policy.cruise_speed)
            })
            .collect();

        let sequence = maneuver.atomic_sequence();
        let mut phase = 0usize;
        let mut phase_start = 0.0f64;
        let mut t = 0.0f64;
        let mut min_gap = f64::INFINITY;
        let faulty_start_pos = vehicles[faulty_index].position;

        while t < self.budget {
            // --- phase logic for the faulty vehicle ---
            let done = match sequence.get(phase) {
                None => true,
                Some(AtomicManeuver::Split) if faulty_index + 1 < vehicles.len() => {
                    // Open the gap behind the faulty vehicle to the
                    // inter-platoon distance before doing anything rash.
                    let gap = vehicles[faulty_index + 1].gap_to(&vehicles[faulty_index]);
                    gap >= self.policy.inter_gap * 0.5
                }
                Some(AtomicManeuver::Split) => true,
                Some(AtomicManeuver::ChangeLane) => t - phase_start >= self.lane_change_time,
                Some(AtomicManeuver::BrakeToStop { .. }) => vehicles[faulty_index].is_stopped(),
                Some(AtomicManeuver::ProceedToExit { .. }) => {
                    vehicles[faulty_index].position - faulty_start_pos >= self.exit_distance
                }
                Some(AtomicManeuver::Merge) => {
                    // Followers have closed back to intra-platoon gaps.
                    in_formation(&vehicles, faulty_index, &self.policy)
                }
            };
            if done {
                phase += 1;
                phase_start = t;
                if phase >= sequence.len() {
                    return Ok(ManeuverOutcomeKind::Completed {
                        duration: t,
                        min_gap,
                    });
                }
                continue;
            }

            // --- control commands ---
            for i in 0..vehicles.len() {
                if i == faulty_index {
                    vehicles[i].accel = match sequence[phase] {
                        AtomicManeuver::Split => {
                            // Ease off slightly so the rear gap opens.
                            self.controller
                                .speed_command(&vehicles[i], self.policy.cruise_speed * 0.9)
                        }
                        AtomicManeuver::ChangeLane => {
                            if t - phase_start >= self.lane_change_time * 0.5 {
                                vehicles[i].lane = Lane(0);
                            }
                            0.0
                        }
                        AtomicManeuver::BrakeToStop { rate } => {
                            if vehicles[i].is_stopped() {
                                0.0
                            } else {
                                rate
                            }
                        }
                        AtomicManeuver::ProceedToExit { speed } => {
                            self.controller.speed_command(&vehicles[i], speed)
                        }
                        AtomicManeuver::Merge => self.controller.speed_command(&vehicles[i], 0.0),
                    };
                    continue;
                }
                // Healthy vehicles: follow the predecessor *in their
                // lane*; the platoon ahead of the faulty vehicle keeps
                // cruising. Following is cooperative (CACC-style): the
                // predecessor's commanded acceleration is fed forward,
                // which is what lets a 2 m platoon gap survive
                // emergency braking — the coordinated-braking property
                // of the PATH design. A vehicle directly behind the
                // faulty one keeps the opened split-out distance
                // instead of the tight formation gap.
                let ahead = vehicles[..i]
                    .iter()
                    .rev()
                    .find(|v| v.lane == vehicles[i].lane)
                    .copied();
                vehicles[i].accel = match ahead {
                    Some(ahead_v) => {
                        let target = if ahead_v.id == vehicles[faulty_index].id {
                            self.policy.inter_gap * 0.55
                        } else {
                            self.policy.intra_gap
                        };
                        let pd = self.controller.command(&vehicles[i], &ahead_v, target);
                        (ahead_v.accel + pd)
                            .clamp(self.controller.max_brake, self.controller.max_accel)
                    }
                    None => self
                        .controller
                        .speed_command(&vehicles[i], self.policy.cruise_speed),
                };
            }

            // --- integrate and check separation per lane ---
            for v in &mut vehicles {
                v.step(self.dt);
            }
            t += self.dt;
            for lane in [Lane(0), Lane(1)] {
                let mut in_lane: Vec<&Vehicle> =
                    vehicles.iter().filter(|v| v.lane == lane).collect();
                in_lane.sort_by(|a, b| {
                    a.position
                        .partial_cmp(&b.position)
                        .expect("positions are finite")
                });
                for pair in in_lane.windows(2) {
                    let gap = pair[0].gap_to(pair[1]);
                    min_gap = min_gap.min(gap);
                    if gap < 0.0 {
                        return Err(PlatoonError::Collision {
                            rear: pair[0].id,
                            front: pair[1].id,
                            at: t,
                        });
                    }
                }
            }
        }
        Err(PlatoonError::ManeuverTimeout {
            budget: self.budget,
        })
    }
}

impl Default for ManeuverSimulator {
    fn default() -> Self {
        ManeuverSimulator::new(SpacingPolicy::nominal())
    }
}

/// Whether the vehicles behind `faulty_index` (exclusive) have closed to
/// near-formation gaps with the vehicles ahead, in lane 1.
fn in_formation(vehicles: &[Vehicle], faulty_index: usize, policy: &SpacingPolicy) -> bool {
    let lane1: Vec<&Vehicle> = vehicles
        .iter()
        .enumerate()
        .filter(|(i, v)| *i != faulty_index && v.lane == Lane(1))
        .map(|(_, v)| v)
        .collect();
    lane1.windows(2).all(|pair| {
        let gap = pair[1].gap_to(pair[0]);
        gap <= policy.intra_gap * 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_manoeuvres_have_sequences() {
        for m in RecoveryManeuver::ALL {
            assert!(!m.atomic_sequence().is_empty(), "{m} has no sequence");
        }
    }

    #[test]
    fn class_a_manoeuvres_stop_on_highway() {
        assert!(RecoveryManeuver::GentleStop.stops_on_highway());
        assert!(RecoveryManeuver::CrashStop.stops_on_highway());
        assert!(RecoveryManeuver::AidedStop.stops_on_highway());
        assert!(!RecoveryManeuver::TakeImmediateExit.stops_on_highway());
        assert!(!RecoveryManeuver::TakeImmediateExitEscorted.stops_on_highway());
        assert!(!RecoveryManeuver::TakeImmediateExitNormal.stops_on_highway());
    }

    #[test]
    fn crash_stop_completes_without_collision() {
        let sim = ManeuverSimulator::default();
        let out = sim.simulate(RecoveryManeuver::CrashStop, 5, 2).unwrap();
        let ManeuverOutcomeKind::Completed { duration, min_gap } = out;
        // 30 m/s at 6 m/s² is a 5 s stop.
        assert!((4.9..60.0).contains(&duration), "duration {duration}");
        assert!(min_gap >= 0.0);
    }

    #[test]
    fn gentle_stop_takes_longer_than_crash_stop() {
        let sim = ManeuverSimulator::default();
        let ManeuverOutcomeKind::Completed { duration: gs, .. } =
            sim.simulate(RecoveryManeuver::GentleStop, 5, 2).unwrap();
        let ManeuverOutcomeKind::Completed { duration: cs, .. } =
            sim.simulate(RecoveryManeuver::CrashStop, 5, 2).unwrap();
        assert!(gs > cs, "GS {gs}s should exceed CS {cs}s");
    }

    #[test]
    fn tie_reaches_the_exit() {
        let sim = ManeuverSimulator::default().with_exit_distance(800.0);
        let ManeuverOutcomeKind::Completed { duration, .. } = sim
            .simulate(RecoveryManeuver::TakeImmediateExit, 6, 3)
            .unwrap();
        // 800 m at 22-30 m/s is ≈27-36 s plus split/lane-change/merge time.
        assert!(duration > 25.0 && duration < 300.0, "duration {duration}");
    }

    #[test]
    fn longer_exit_distance_takes_longer() {
        let near = ManeuverSimulator::default().with_exit_distance(500.0);
        let far = ManeuverSimulator::default().with_exit_distance(1500.0);
        let ManeuverOutcomeKind::Completed {
            duration: d_near, ..
        } = near
            .simulate(RecoveryManeuver::TakeImmediateExitNormal, 4, 1)
            .unwrap();
        let ManeuverOutcomeKind::Completed {
            duration: d_far, ..
        } = far
            .simulate(RecoveryManeuver::TakeImmediateExitNormal, 4, 1)
            .unwrap();
        assert!(d_far > d_near);
    }

    #[test]
    fn leader_fault_works_too() {
        let sim = ManeuverSimulator::default();
        for m in RecoveryManeuver::ALL {
            let out = sim.simulate(m, 4, 0);
            assert!(out.is_ok(), "{m} with faulty leader: {out:?}");
        }
    }

    #[test]
    fn singleton_platoon_every_maneuver() {
        let sim = ManeuverSimulator::default();
        for m in RecoveryManeuver::ALL {
            let out = sim.simulate(m, 1, 0);
            assert!(out.is_ok(), "{m} as free agent: {out:?}");
        }
    }

    #[test]
    fn display_abbreviations() {
        assert_eq!(
            RecoveryManeuver::TakeImmediateExitEscorted.to_string(),
            "TIE-E"
        );
        assert_eq!(RecoveryManeuver::GentleStop.to_string(), "GS");
    }
}
