//! Longitudinal gap controller.

use crate::vehicle::Vehicle;

/// A proportional-derivative longitudinal controller tracking a target
/// bumper-to-bumper gap to the vehicle ahead — a simplified stand-in
/// for the PATH longitudinal control law, sufficient to reproduce
/// maneuver timings.
///
/// Command: `a = kp·(gap - target) + kv·(v_ahead - v)`, clamped to
/// `[max_brake, max_accel]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapController {
    /// Gap error gain, 1/s².
    pub kp: f64,
    /// Relative-speed gain, 1/s.
    pub kv: f64,
    /// Most negative commanded acceleration, m/s² (e.g. `-6.0`).
    pub max_brake: f64,
    /// Most positive commanded acceleration, m/s².
    pub max_accel: f64,
}

impl GapController {
    /// Gains giving a well-damped closed loop at platooning speeds.
    pub fn nominal() -> Self {
        GapController {
            kp: 0.4,
            kv: 1.2,
            max_brake: -6.0,
            max_accel: 2.5,
        }
    }

    /// Acceleration command for `follower` tracking `target_gap` behind
    /// `ahead`.
    pub fn command(&self, follower: &Vehicle, ahead: &Vehicle, target_gap: f64) -> f64 {
        let gap = follower.gap_to(ahead);
        let a = self.kp * (gap - target_gap) + self.kv * (ahead.speed - follower.speed);
        a.clamp(self.max_brake, self.max_accel)
    }

    /// Acceleration command toward a free-road speed setpoint.
    pub fn speed_command(&self, vehicle: &Vehicle, target_speed: f64) -> f64 {
        (self.kv * (target_speed - vehicle.speed)).clamp(self.max_brake, self.max_accel)
    }
}

impl Default for GapController {
    fn default() -> Self {
        GapController::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vehicle::{Lane, VehicleId};

    fn pair(gap: f64, v_rear: f64, v_front: f64) -> (Vehicle, Vehicle) {
        let front = Vehicle::new(VehicleId(0), Lane(0), 100.0, v_front);
        let rear = Vehicle::new(VehicleId(1), Lane(0), 100.0 - front.length - gap, v_rear);
        (rear, front)
    }

    #[test]
    fn equilibrium_commands_zero() {
        let c = GapController::nominal();
        let (rear, front) = pair(2.0, 30.0, 30.0);
        assert!(c.command(&rear, &front, 2.0).abs() < 1e-12);
    }

    #[test]
    fn too_close_brakes_too_far_accelerates() {
        let c = GapController::nominal();
        let (rear, front) = pair(0.5, 30.0, 30.0);
        assert!(c.command(&rear, &front, 2.0) < 0.0);
        let (rear, front) = pair(10.0, 30.0, 30.0);
        assert!(c.command(&rear, &front, 2.0) > 0.0);
    }

    #[test]
    fn commands_are_clamped() {
        let c = GapController::nominal();
        let (rear, front) = pair(500.0, 0.0, 30.0);
        assert_eq!(c.command(&rear, &front, 2.0), c.max_accel);
        let (rear, front) = pair(0.0, 60.0, 0.0);
        assert_eq!(c.command(&rear, &front, 2.0), c.max_brake);
    }

    #[test]
    fn closed_loop_converges_to_target_gap() {
        let c = GapController::nominal();
        let (mut rear, mut front) = pair(12.0, 25.0, 30.0);
        let dt = 0.05;
        for _ in 0..4000 {
            rear.accel = c.command(&rear, &front, 2.0);
            front.accel = 0.0;
            rear.step(dt);
            front.step(dt);
        }
        let gap = rear.gap_to(&front);
        assert!((gap - 2.0).abs() < 0.05, "converged gap {gap}");
        assert!((rear.speed - 30.0).abs() < 0.05);
    }

    #[test]
    fn speed_command_tracks_setpoint() {
        let c = GapController::nominal();
        let mut car = Vehicle::new(VehicleId(0), Lane(0), 0.0, 20.0);
        let dt = 0.05;
        for _ in 0..2000 {
            car.accel = c.speed_command(&car, 30.0);
            car.step(dt);
        }
        assert!((car.speed - 30.0).abs() < 0.01);
    }
}
