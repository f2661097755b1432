//! Table 3: coordination strategies and their effect on maneuver
//! involvement.

use ahs_platoon::RecoveryManeuver;

/// Whether a coordination layer is centralized or decentralized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordinationModel {
    /// Decisions made through a central point (the platoon leader for
    /// intra-platoon coordination, the road-side Service Access Point
    /// for inter-platoon coordination).
    Centralized,
    /// Decisions made locally by the concerned vehicles/leaders using
    /// on-board knowledge bases.
    Decentralized,
}

/// The four strategies of Table 3 (inter-platoon model × intra-platoon
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Decentralized inter- and intra-platoon.
    Dd,
    /// Decentralized inter-platoon, centralized intra-platoon.
    Dc,
    /// Centralized inter-platoon, decentralized intra-platoon.
    Cd,
    /// Centralized inter- and intra-platoon.
    Cc,
}

impl Strategy {
    /// All four strategies in Table 3 order.
    pub const ALL: [Strategy; 4] = [Strategy::Dd, Strategy::Dc, Strategy::Cd, Strategy::Cc];

    /// The inter-platoon coordination model.
    pub fn inter(self) -> CoordinationModel {
        match self {
            Strategy::Dd | Strategy::Dc => CoordinationModel::Decentralized,
            Strategy::Cd | Strategy::Cc => CoordinationModel::Centralized,
        }
    }

    /// The intra-platoon coordination model.
    pub fn intra(self) -> CoordinationModel {
        match self {
            Strategy::Dd | Strategy::Cd => CoordinationModel::Decentralized,
            Strategy::Dc | Strategy::Cc => CoordinationModel::Centralized,
        }
    }

    /// Table 3 name (DD, DC, CD, CC).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Dd => "DD",
            Strategy::Dc => "DC",
            Strategy::Cd => "CD",
            Strategy::Cc => "CC",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of vehicles involved in executing `maneuver` (including the
/// faulty vehicle) under `strategy`, for a faulty vehicle in a platoon
/// of `own_size` with a neighboring platoon of `other_size`.
///
/// The counts encode §2.2.1–2.2.2 of the paper:
///
/// * **Intra-platoon** — a split-based maneuver (GS, AS, TIE, TIE-E)
///   involves the vehicles in front of and behind the splitter;
///   centralized intra-platoon coordination routes it through the
///   leader, adding one vehicle. A crash stop is immediate (only the
///   follower reacts) and a normal exit involves only the follower.
/// * **Inter-platoon** — maneuvers interacting with the neighboring
///   lane (the escorted exit, and the stop maneuvers whose control laws
///   divert traffic around the incident) involve the neighboring
///   platoon: under decentralized coordination only its leader; under
///   centralized coordination the leader plus the front half of the
///   neighboring platoon, per the paper's TIE-E example where "all the
///   vehicles in front of the faulty vehicle (including the leader)"
///   take part.
///
/// More involved vehicles mean a larger window for a second impaired
/// vehicle to disturb the maneuver — the mechanism the paper credits
/// for decentralized inter-platoon coordination being the safer choice.
///
/// # Example
///
/// ```
/// use ahs_core::{involved_vehicles, Strategy};
/// use ahs_platoon::RecoveryManeuver;
///
/// let tie_e = RecoveryManeuver::TakeImmediateExitEscorted;
/// let dd = involved_vehicles(tie_e, Strategy::Dd, 10, 10);
/// let cc = involved_vehicles(tie_e, Strategy::Cc, 10, 10);
/// assert!(cc > dd, "centralized coordination involves more vehicles");
/// ```
pub fn involved_vehicles(
    maneuver: RecoveryManeuver,
    strategy: Strategy,
    own_size: usize,
    other_size: usize,
) -> usize {
    use RecoveryManeuver::*;

    // Faulty vehicle itself.
    let mut count = 1usize;

    // Intra-platoon participants.
    let splits = matches!(
        maneuver,
        GentleStop | AidedStop | TakeImmediateExit | TakeImmediateExitEscorted
    );
    if splits {
        // Front and rear neighbours (bounded by platoon size).
        count += 2.min(own_size.saturating_sub(1));
        if strategy.intra() == CoordinationModel::Centralized {
            // The leader coordinates the split.
            count += usize::from(own_size > 3);
        }
    } else {
        // CS / TIE-N: the vehicle just behind reacts.
        count += usize::from(own_size > 1);
    }

    // Inter-platoon participants: maneuvers that touch the other lane.
    let inter_coordinated = matches!(
        maneuver,
        TakeImmediateExitEscorted | AidedStop | CrashStop | GentleStop
    );
    if inter_coordinated && other_size > 0 {
        count += match strategy.inter() {
            CoordinationModel::Decentralized => 1, // neighbour leader only
            CoordinationModel::Centralized => 1 + other_size / 2,
        };
    }
    count.min(own_size + other_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use RecoveryManeuver::*;

    #[test]
    fn table3_structure() {
        assert_eq!(Strategy::Dd.inter(), CoordinationModel::Decentralized);
        assert_eq!(Strategy::Dd.intra(), CoordinationModel::Decentralized);
        assert_eq!(Strategy::Dc.inter(), CoordinationModel::Decentralized);
        assert_eq!(Strategy::Dc.intra(), CoordinationModel::Centralized);
        assert_eq!(Strategy::Cd.inter(), CoordinationModel::Centralized);
        assert_eq!(Strategy::Cd.intra(), CoordinationModel::Decentralized);
        assert_eq!(Strategy::Cc.inter(), CoordinationModel::Centralized);
        assert_eq!(Strategy::Cc.intra(), CoordinationModel::Centralized);
        assert_eq!(Strategy::Cd.to_string(), "CD");
    }

    #[test]
    fn centralized_inter_involves_more_for_escorted_exit() {
        // The paper's §2.2.1 example.
        let dd = involved_vehicles(TakeImmediateExitEscorted, Strategy::Dd, 10, 10);
        let cd = involved_vehicles(TakeImmediateExitEscorted, Strategy::Cd, 10, 10);
        assert!(cd > dd, "centralized {cd} should exceed decentralized {dd}");
        // Decentralized: faulty + front + behind + own leader? (no — DD
        // intra means no leader) + neighbour leader = 4.
        assert_eq!(dd, 4);
        // Centralized inter adds the front half of the neighbour.
        assert_eq!(cd, 4 + 10 / 2);
    }

    #[test]
    fn centralized_intra_adds_the_leader() {
        let dd = involved_vehicles(GentleStop, Strategy::Dd, 10, 10);
        let dc = involved_vehicles(GentleStop, Strategy::Dc, 10, 10);
        assert_eq!(dc, dd + 1);
    }

    #[test]
    fn counts_are_bounded_by_population() {
        for m in RecoveryManeuver::ALL {
            for s in Strategy::ALL {
                for own in 1..=12 {
                    for other in 0..=12 {
                        let inv = involved_vehicles(m, s, own, other);
                        assert!(inv >= 1);
                        assert!(inv <= own + other, "{m} {s} own={own} other={other}: {inv}");
                    }
                }
            }
        }
    }

    #[test]
    fn singleton_platoon_minimal_involvement() {
        // A free agent doing a normal exit involves only itself.
        assert_eq!(
            involved_vehicles(TakeImmediateExitNormal, Strategy::Dd, 1, 0),
            1
        );
    }

    #[test]
    fn strategy_ordering_dd_le_cc() {
        // For every maneuver, DD never involves more vehicles than CC.
        for m in RecoveryManeuver::ALL {
            let dd = involved_vehicles(m, Strategy::Dd, 10, 10);
            let cc = involved_vehicles(m, Strategy::Cc, 10, 10);
            assert!(dd <= cc, "{m}: DD {dd} > CC {cc}");
        }
    }

    #[test]
    fn inter_dimension_dominates_intra() {
        // Aggregate involvement weighted by failure-mode rates: the
        // inter-platoon choice must move the total more than the
        // intra-platoon choice (paper Fig 14).
        let weighted = |s: Strategy| -> f64 {
            crate::FailureMode::ALL
                .iter()
                .map(|fm| fm.rate_multiplier() * involved_vehicles(fm.maneuver(), s, 10, 10) as f64)
                .sum()
        };
        let inter_effect = weighted(Strategy::Cd) - weighted(Strategy::Dd);
        let intra_effect = weighted(Strategy::Dc) - weighted(Strategy::Dd);
        assert!(
            inter_effect > intra_effect,
            "inter {inter_effect} vs intra {intra_effect}"
        );
    }
}
