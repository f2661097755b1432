//! Vehicle state and identity.

/// Identifier of a vehicle within a highway scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u32);

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A highway lane (0 = rightmost / exit lane, matching the paper's
/// Figure 3 where lane 1 is the exit side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane(pub u8);

/// Longitudinal kinematic state of one vehicle.
///
/// Positions are metres along the highway (increasing in the direction
/// of travel), speeds m/s, accelerations m/s².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vehicle {
    /// Identity.
    pub id: VehicleId,
    /// Current lane.
    pub lane: Lane,
    /// Position of the front bumper, metres.
    pub position: f64,
    /// Speed, m/s (non-negative).
    pub speed: f64,
    /// Commanded acceleration, m/s².
    pub accel: f64,
    /// Vehicle length, metres.
    pub length: f64,
}

impl Vehicle {
    /// Typical vehicle length used throughout the substrate, metres.
    pub const DEFAULT_LENGTH: f64 = 5.0;

    /// Creates a vehicle cruising at `speed` with zero acceleration.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is negative or any input is non-finite.
    pub fn new(id: VehicleId, lane: Lane, position: f64, speed: f64) -> Self {
        assert!(position.is_finite(), "position must be finite");
        assert!(
            speed.is_finite() && speed >= 0.0,
            "speed must be non-negative"
        );
        Vehicle {
            id,
            lane,
            position,
            speed,
            accel: 0.0,
            length: Self::DEFAULT_LENGTH,
        }
    }

    /// Advances the vehicle by `dt` seconds under its commanded
    /// acceleration, clamping speed at zero (no reversing on a
    /// highway).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or non-finite.
    pub fn step(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt >= 0.0, "dt must be non-negative");
        let v0 = self.speed;
        let v1 = (v0 + self.accel * dt).max(0.0);
        // Exact integration of the (possibly clamped) velocity profile.
        if self.accel < 0.0 && v1 == 0.0 && v0 > 0.0 {
            let t_stop = v0 / (-self.accel);
            self.position += v0 * t_stop + 0.5 * self.accel * t_stop * t_stop;
        } else {
            self.position += 0.5 * (v0 + v1) * dt;
        }
        self.speed = v1;
    }

    /// Bumper-to-bumper gap to the vehicle ahead (`ahead.position >
    /// self.position` expected); negative means overlap, i.e. a
    /// collision.
    pub fn gap_to(&self, ahead: &Vehicle) -> f64 {
        ahead.position - ahead.length - self.position
    }

    /// Whether this vehicle has (essentially) stopped.
    pub fn is_stopped(&self) -> bool {
        self.speed < 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pos: f64, speed: f64) -> Vehicle {
        Vehicle::new(VehicleId(1), Lane(0), pos, speed)
    }

    #[test]
    fn constant_speed_integration() {
        let mut car = v(0.0, 30.0);
        car.step(2.0);
        assert!((car.position - 60.0).abs() < 1e-12);
        assert_eq!(car.speed, 30.0);
    }

    #[test]
    fn braking_stops_at_zero_not_reverse() {
        let mut car = v(0.0, 10.0);
        car.accel = -5.0;
        car.step(10.0); // would reach -40 m/s unclamped
        assert!(car.is_stopped());
        // Stopping distance v²/2a = 100/10 = 10 m.
        assert!((car.position - 10.0).abs() < 1e-9);
    }

    #[test]
    fn acceleration_integration_is_exact() {
        let mut car = v(0.0, 0.0);
        car.accel = 2.0;
        car.step(3.0);
        assert!((car.speed - 6.0).abs() < 1e-12);
        assert!((car.position - 9.0).abs() < 1e-12);
    }

    #[test]
    fn gap_accounts_for_length() {
        let rear = v(0.0, 30.0);
        let mut front = v(8.0, 30.0);
        front.length = 5.0;
        assert!((rear.gap_to(&front) - 3.0).abs() < 1e-12);
        front.position = 4.0;
        assert!(rear.gap_to(&front) < 0.0, "overlap must read negative");
    }

    #[test]
    #[should_panic(expected = "speed must be non-negative")]
    fn negative_speed_rejected() {
        v(0.0, -1.0);
    }
}
