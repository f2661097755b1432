//! Platoon rosters: leader/follower structure and membership events.

use crate::error::PlatoonError;
use crate::spacing::SpacingPolicy;
use crate::vehicle::{Lane, Vehicle, VehicleId};

/// Role of a vehicle within its platoon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatoonRole {
    /// First vehicle; coordinates intra-platoon maneuvers and speaks
    /// for the platoon in inter-platoon coordination.
    Leader,
    /// Any non-leader member.
    Follower,
    /// A single-vehicle platoon (the paper's *free agent*).
    FreeAgent,
}

/// An ordered platoon of vehicles in one lane (index 0 = leader).
///
/// The roster enforces the paper's structural rules: a non-empty platoon
/// always has a leader (position 0), joining vehicles take the last
/// position (§3.2.3: "each time a vehicle joins a platoon, it occupies
/// the last position"), and when the leader leaves the next vehicle is
/// promoted.
#[derive(Debug, Clone, PartialEq)]
pub struct Platoon {
    lane: Lane,
    members: Vec<VehicleId>,
    capacity: usize,
}

impl Platoon {
    /// Creates an empty platoon in `lane` with maximum size `capacity`
    /// (the paper's `n`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(lane: Lane, capacity: usize) -> Self {
        assert!(capacity > 0, "platoon capacity must be positive");
        Platoon {
            lane,
            members: Vec::new(),
            capacity,
        }
    }

    /// The platoon's lane.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Maximum number of members.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the platoon has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the platoon is at capacity.
    pub fn is_full(&self) -> bool {
        self.members.len() >= self.capacity
    }

    /// Members in order (0 = leader).
    pub fn members(&self) -> &[VehicleId] {
        &self.members
    }

    /// The current leader, if any.
    pub fn leader(&self) -> Option<VehicleId> {
        self.members.first().copied()
    }

    /// Role of a member.
    pub fn role_of(&self, id: VehicleId) -> Option<PlatoonRole> {
        let idx = self.position_of(id)?;
        Some(if self.members.len() == 1 {
            PlatoonRole::FreeAgent
        } else if idx == 0 {
            PlatoonRole::Leader
        } else {
            PlatoonRole::Follower
        })
    }

    /// Index of a member (0 = leader).
    pub fn position_of(&self, id: VehicleId) -> Option<usize> {
        self.members.iter().position(|&m| m == id)
    }

    /// Adds a vehicle at the last position.
    ///
    /// # Errors
    ///
    /// Returns [`PlatoonError::PlatoonFull`] at capacity or
    /// [`PlatoonError::AlreadyMember`] for a duplicate join.
    pub fn join(&mut self, id: VehicleId) -> Result<usize, PlatoonError> {
        if self.is_full() {
            return Err(PlatoonError::PlatoonFull {
                capacity: self.capacity,
            });
        }
        if self.members.contains(&id) {
            return Err(PlatoonError::AlreadyMember { vehicle: id });
        }
        self.members.push(id);
        Ok(self.members.len() - 1)
    }

    /// Removes a vehicle; followers behind it close up (their indices
    /// shift down) and, if the leader left, the next member is promoted.
    ///
    /// # Errors
    ///
    /// Returns [`PlatoonError::NotAMember`] if absent.
    pub fn leave(&mut self, id: VehicleId) -> Result<(), PlatoonError> {
        match self.position_of(id) {
            Some(idx) => {
                self.members.remove(idx);
                Ok(())
            }
            None => Err(PlatoonError::NotAMember { vehicle: id }),
        }
    }

    /// Splits the platoon before `index`: members `index..` form and
    /// are returned as a new platoon in the same lane.
    ///
    /// # Errors
    ///
    /// Returns [`PlatoonError::InvalidSplit`] unless
    /// `1 <= index < len()`.
    pub fn split_at(&mut self, index: usize) -> Result<Platoon, PlatoonError> {
        if index == 0 || index >= self.members.len() {
            return Err(PlatoonError::InvalidSplit {
                index,
                len: self.members.len(),
            });
        }
        let tail = self.members.split_off(index);
        Ok(Platoon {
            lane: self.lane,
            members: tail,
            capacity: self.capacity,
        })
    }

    /// Merges `other` (which must trail in the same lane) into this
    /// platoon; its members append in order.
    ///
    /// # Errors
    ///
    /// Returns [`PlatoonError::LaneMismatch`] for cross-lane merges or
    /// [`PlatoonError::PlatoonFull`] if the union exceeds capacity.
    pub fn merge(&mut self, other: Platoon) -> Result<(), PlatoonError> {
        if other.lane != self.lane {
            return Err(PlatoonError::LaneMismatch {
                expected: self.lane,
                actual: other.lane,
            });
        }
        if self.members.len() + other.members.len() > self.capacity {
            return Err(PlatoonError::PlatoonFull {
                capacity: self.capacity,
            });
        }
        self.members.extend(other.members);
        Ok(())
    }

    /// Materializes the roster into vehicles at their target positions
    /// under `policy`, with the leader's front bumper at
    /// `leader_position`, all at cruise speed.
    pub fn materialize(&self, policy: &SpacingPolicy, leader_position: f64) -> Vec<Vehicle> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let pos = policy.member_position(leader_position, i, Vehicle::DEFAULT_LENGTH);
                Vehicle::new(id, self.lane, pos, policy.cruise_speed)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platoon_with(n: u32) -> Platoon {
        let mut p = Platoon::new(Lane(1), 10);
        for i in 0..n {
            p.join(VehicleId(i)).unwrap();
        }
        p
    }

    #[test]
    fn join_takes_last_position() {
        let p = platoon_with(3);
        assert_eq!(p.position_of(VehicleId(0)), Some(0));
        assert_eq!(p.position_of(VehicleId(2)), Some(2));
        assert_eq!(p.leader(), Some(VehicleId(0)));
        assert_eq!(p.role_of(VehicleId(0)), Some(PlatoonRole::Leader));
        assert_eq!(p.role_of(VehicleId(1)), Some(PlatoonRole::Follower));
    }

    #[test]
    fn free_agent_role() {
        let p = platoon_with(1);
        assert_eq!(p.role_of(VehicleId(0)), Some(PlatoonRole::FreeAgent));
    }

    #[test]
    fn leader_leave_promotes_next() {
        let mut p = platoon_with(3);
        p.leave(VehicleId(0)).unwrap();
        assert_eq!(p.leader(), Some(VehicleId(1)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn capacity_enforced() {
        let mut p = Platoon::new(Lane(0), 2);
        p.join(VehicleId(0)).unwrap();
        p.join(VehicleId(1)).unwrap();
        assert!(matches!(
            p.join(VehicleId(2)),
            Err(PlatoonError::PlatoonFull { capacity: 2 })
        ));
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut p = platoon_with(2);
        assert!(matches!(
            p.join(VehicleId(1)),
            Err(PlatoonError::AlreadyMember { .. })
        ));
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let mut p = platoon_with(5);
        let tail = p.split_at(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.leader(), Some(VehicleId(2)));
        p.merge(tail).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.members()[4], VehicleId(4));
    }

    #[test]
    fn invalid_split_rejected() {
        let mut p = platoon_with(3);
        assert!(matches!(
            p.split_at(0),
            Err(PlatoonError::InvalidSplit { .. })
        ));
        assert!(matches!(
            p.split_at(3),
            Err(PlatoonError::InvalidSplit { .. })
        ));
    }

    #[test]
    fn cross_lane_merge_rejected() {
        let mut p = platoon_with(2);
        let other = Platoon::new(Lane(0), 10);
        assert!(matches!(
            p.merge(other),
            Err(PlatoonError::LaneMismatch { .. })
        ));
    }

    #[test]
    fn materialize_respects_spacing() {
        let p = platoon_with(3);
        let policy = SpacingPolicy::nominal();
        let vehicles = p.materialize(&policy, 500.0);
        assert_eq!(vehicles.len(), 3);
        for pair in vehicles.windows(2) {
            let gap = pair[1].gap_to(&pair[0]);
            assert!((gap - policy.intra_gap).abs() < 1e-9, "gap {gap}");
        }
    }
}
