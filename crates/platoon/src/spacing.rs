//! Intra- and inter-platoon spacing policies.

/// Target gaps of the PATH platooning architecture (paper §2: intra
/// 1–3 m, inter-platoon 30–60 m).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpacingPolicy {
    /// Bumper-to-bumper gap between platoon members, metres.
    pub intra_gap: f64,
    /// Gap between consecutive platoons in the same lane, metres.
    pub inter_gap: f64,
    /// Cruise speed, m/s.
    pub cruise_speed: f64,
}

impl SpacingPolicy {
    /// The paper's nominal configuration: 2 m intra, 45 m inter, 30 m/s
    /// (108 km/h) cruise.
    pub fn nominal() -> Self {
        SpacingPolicy {
            intra_gap: 2.0,
            inter_gap: 45.0,
            cruise_speed: 30.0,
        }
    }

    /// Validates the policy against the paper's ranges (intra 1–3 m,
    /// inter 30–60 m) and basic sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(1.0..=3.0).contains(&self.intra_gap) {
            return Err(format!(
                "intra-platoon gap {} m outside the 1..=3 m range",
                self.intra_gap
            ));
        }
        if !(30.0..=60.0).contains(&self.inter_gap) {
            return Err(format!(
                "inter-platoon gap {} m outside the 30..=60 m range",
                self.inter_gap
            ));
        }
        if !self.cruise_speed.is_finite() || self.cruise_speed <= 0.0 {
            return Err(format!(
                "cruise speed {} must be positive",
                self.cruise_speed
            ));
        }
        Ok(())
    }

    /// Front-bumper position of member `index` (0 = leader) when the
    /// leader's front bumper is at `leader_position` and every member
    /// has length `vehicle_length`.
    pub fn member_position(&self, leader_position: f64, index: usize, vehicle_length: f64) -> f64 {
        leader_position - index as f64 * (vehicle_length + self.intra_gap)
    }

    /// Length of road occupied by a platoon of `n` vehicles.
    pub fn platoon_extent(&self, n: usize, vehicle_length: f64) -> f64 {
        if n == 0 {
            0.0
        } else {
            n as f64 * vehicle_length + (n - 1) as f64 * self.intra_gap
        }
    }

    /// Highway capacity gain of platooning: vehicles per km with
    /// platoons of `n` versus free agents keeping `inter_gap`.
    pub fn capacity_ratio(&self, n: usize, vehicle_length: f64) -> f64 {
        assert!(n > 0, "capacity of an empty platoon is undefined");
        let platooned = n as f64 / (self.platoon_extent(n, vehicle_length) + self.inter_gap);
        let free = 1.0 / (vehicle_length + self.inter_gap);
        platooned / free
    }
}

impl Default for SpacingPolicy {
    fn default() -> Self {
        SpacingPolicy::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_valid() {
        SpacingPolicy::nominal().validate().unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let mut p = SpacingPolicy::nominal();
        p.intra_gap = 0.5;
        assert!(p.validate().is_err());
        let mut p = SpacingPolicy::nominal();
        p.inter_gap = 100.0;
        assert!(p.validate().is_err());
        let mut p = SpacingPolicy::nominal();
        p.cruise_speed = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn member_positions_descend_by_pitch() {
        let p = SpacingPolicy::nominal();
        let x0 = p.member_position(1000.0, 0, 5.0);
        let x1 = p.member_position(1000.0, 1, 5.0);
        let x2 = p.member_position(1000.0, 2, 5.0);
        assert_eq!(x0, 1000.0);
        assert!((x0 - x1 - 7.0).abs() < 1e-12);
        assert!((x1 - x2 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn extent_and_capacity() {
        let p = SpacingPolicy::nominal();
        assert_eq!(p.platoon_extent(0, 5.0), 0.0);
        assert!((p.platoon_extent(1, 5.0) - 5.0).abs() < 1e-12);
        assert!((p.platoon_extent(10, 5.0) - (50.0 + 18.0)).abs() < 1e-12);
        // Platooning must beat free agents, and more so for larger n.
        let r5 = p.capacity_ratio(5, 5.0);
        let r10 = p.capacity_ratio(10, 5.0);
        assert!(r5 > 1.5);
        assert!(r10 > r5);
    }
}
