//! Table 1: failure modes, severities, and their recovery maneuvers.

use ahs_platoon::RecoveryManeuver;

/// The six failure modes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureMode {
    /// FM1 — e.g. no brakes (severity A3, recovered by Aided Stop).
    Fm1,
    /// FM2 — e.g. inability to detect vehicles in adjacent lanes
    /// (severity A2, Crash Stop).
    Fm2,
    /// FM3 — e.g. inter-vehicle communication failure (severity A1,
    /// Gentle Stop).
    Fm3,
    /// FM4 — e.g. transmission failure (severity B2, Take Immediate
    /// Exit-Escorted).
    Fm4,
    /// FM5 — e.g. reduced steering capability (severity B1, Take
    /// Immediate Exit).
    Fm5,
    /// FM6 — e.g. single failure in a redundant sensor set (severity C,
    /// Take Immediate Exit-Normal).
    Fm6,
}

/// Severity levels of Table 1, ordered by decreasing criticality:
/// A3 > A2 > A1 > B1 = B2 > C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Most critical class-A level (no brakes).
    A3,
    /// Middle class-A level.
    A2,
    /// Least critical class-A level.
    A1,
    /// Class-B level recovered without stopping, equal priority to B2.
    B1,
    /// Class-B level recovered with escort, equal priority to B1.
    B2,
    /// Class C — minor failures.
    C,
}

/// The three severity classes used by the catastrophic-situation rules
/// of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeverityClass {
    /// Failures that require stopping the vehicle on the highway.
    A,
    /// Failures recovered by exiting, possibly with assistance.
    B,
    /// Minor failures.
    C,
}

impl FailureMode {
    /// All six failure modes in Table 1 order.
    pub const ALL: [FailureMode; 6] = [
        FailureMode::Fm1,
        FailureMode::Fm2,
        FailureMode::Fm3,
        FailureMode::Fm4,
        FailureMode::Fm5,
        FailureMode::Fm6,
    ];

    /// The example cause given in Table 1.
    pub fn example_cause(self) -> &'static str {
        match self {
            FailureMode::Fm1 => "no brakes",
            FailureMode::Fm2 => "inability to detect vehicles in adjacent lanes",
            FailureMode::Fm3 => "inter-vehicle communication failure",
            FailureMode::Fm4 => "transmission failure",
            FailureMode::Fm5 => "reduced steering capability",
            FailureMode::Fm6 => "single failure in a redundant sensor set",
        }
    }

    /// Severity level (Table 1).
    pub fn severity(self) -> Severity {
        match self {
            FailureMode::Fm1 => Severity::A3,
            FailureMode::Fm2 => Severity::A2,
            FailureMode::Fm3 => Severity::A1,
            FailureMode::Fm4 => Severity::B2,
            FailureMode::Fm5 => Severity::B1,
            FailureMode::Fm6 => Severity::C,
        }
    }

    /// Recovery maneuver (Table 1).
    pub fn maneuver(self) -> RecoveryManeuver {
        match self {
            FailureMode::Fm1 => RecoveryManeuver::AidedStop,
            FailureMode::Fm2 => RecoveryManeuver::CrashStop,
            FailureMode::Fm3 => RecoveryManeuver::GentleStop,
            FailureMode::Fm4 => RecoveryManeuver::TakeImmediateExitEscorted,
            FailureMode::Fm5 => RecoveryManeuver::TakeImmediateExit,
            FailureMode::Fm6 => RecoveryManeuver::TakeImmediateExitNormal,
        }
    }

    /// Failure-rate multiplier over the base rate λ (paper §4.1:
    /// λ₁=λ, λ₂=2λ, λ₃=2λ, λ₄=2λ, λ₅=3λ, λ₆=4λ).
    pub fn rate_multiplier(self) -> f64 {
        match self {
            FailureMode::Fm1 => 1.0,
            FailureMode::Fm2 | FailureMode::Fm3 | FailureMode::Fm4 => 2.0,
            FailureMode::Fm5 => 3.0,
            FailureMode::Fm6 => 4.0,
        }
    }

    /// Index 0..6, the `i` of FMᵢ₊₁.
    pub fn index(self) -> usize {
        match self {
            FailureMode::Fm1 => 0,
            FailureMode::Fm2 => 1,
            FailureMode::Fm3 => 2,
            FailureMode::Fm4 => 3,
            FailureMode::Fm5 => 4,
            FailureMode::Fm6 => 5,
        }
    }
}

impl std::fmt::Display for FailureMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FM{}", self.index() + 1)
    }
}

impl Severity {
    /// The class (A, B, or C) of this level.
    pub fn class(self) -> SeverityClass {
        match self {
            Severity::A1 | Severity::A2 | Severity::A3 => SeverityClass::A,
            Severity::B1 | Severity::B2 => SeverityClass::B,
            Severity::C => SeverityClass::C,
        }
    }

    /// Numeric priority (higher = more critical): A3=5, A2=4, A1=3,
    /// B1=B2=2, C=1 (paper §2.1.1: within class A, A3 highest; B1 and
    /// B2 equal; class order A > B > C).
    pub fn priority(self) -> u8 {
        match self {
            Severity::A3 => 5,
            Severity::A2 => 4,
            Severity::A1 => 3,
            Severity::B1 | Severity::B2 => 2,
            Severity::C => 1,
        }
    }
}

/// The six maneuvers in a canonical order used for indexing model
/// structures (ascending priority).
pub const MANEUVERS: [RecoveryManeuver; 6] = [
    RecoveryManeuver::TakeImmediateExitNormal,
    RecoveryManeuver::TakeImmediateExitEscorted,
    RecoveryManeuver::TakeImmediateExit,
    RecoveryManeuver::GentleStop,
    RecoveryManeuver::CrashStop,
    RecoveryManeuver::AidedStop,
];

/// Selection priority of a maneuver (higher preempts lower): AS=5,
/// CS=4, GS=3, TIE=TIE-E=2, TIE-N=1 — the maneuver priorities induced
/// by the severities they recover.
pub fn maneuver_priority(m: RecoveryManeuver) -> u8 {
    match m {
        RecoveryManeuver::AidedStop => 5,
        RecoveryManeuver::CrashStop => 4,
        RecoveryManeuver::GentleStop => 3,
        RecoveryManeuver::TakeImmediateExit | RecoveryManeuver::TakeImmediateExitEscorted => 2,
        RecoveryManeuver::TakeImmediateExitNormal => 1,
    }
}

/// The maneuver recovering a failure mode (Table 1 mapping).
pub fn maneuver_for(fm: FailureMode) -> RecoveryManeuver {
    fm.maneuver()
}

/// Severity class contributed while a maneuver is in progress (used by
/// the Severity submodel's shared counters).
pub fn class_of_maneuver(m: RecoveryManeuver) -> SeverityClass {
    match m {
        RecoveryManeuver::AidedStop
        | RecoveryManeuver::CrashStop
        | RecoveryManeuver::GentleStop => SeverityClass::A,
        RecoveryManeuver::TakeImmediateExit | RecoveryManeuver::TakeImmediateExitEscorted => {
            SeverityClass::B
        }
        RecoveryManeuver::TakeImmediateExitNormal => SeverityClass::C,
    }
}

/// The maneuver attempted when `m` fails (§2.1.1: "the maneuver failure
/// leads the vehicle to start the next higher priority maneuver").
/// `None` for Aided Stop — its failure marks `v_KO`.
pub fn escalation_of(m: RecoveryManeuver) -> Option<RecoveryManeuver> {
    match m {
        RecoveryManeuver::TakeImmediateExitNormal => Some(RecoveryManeuver::TakeImmediateExit),
        RecoveryManeuver::TakeImmediateExit | RecoveryManeuver::TakeImmediateExitEscorted => {
            Some(RecoveryManeuver::GentleStop)
        }
        RecoveryManeuver::GentleStop => Some(RecoveryManeuver::CrashStop),
        RecoveryManeuver::CrashStop => Some(RecoveryManeuver::AidedStop),
        RecoveryManeuver::AidedStop => None,
    }
}

/// Position of a maneuver in [`MANEUVERS`].
pub(crate) fn maneuver_slot(m: RecoveryManeuver) -> usize {
    MANEUVERS
        .iter()
        .position(|&x| x == m)
        .expect("every maneuver appears in MANEUVERS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mapping_is_complete_and_consistent() {
        // Reproduces Table 1 row by row.
        let rows = [
            (FailureMode::Fm1, Severity::A3, "AS"),
            (FailureMode::Fm2, Severity::A2, "CS"),
            (FailureMode::Fm3, Severity::A1, "GS"),
            (FailureMode::Fm4, Severity::B2, "TIE-E"),
            (FailureMode::Fm5, Severity::B1, "TIE"),
            (FailureMode::Fm6, Severity::C, "TIE-N"),
        ];
        for (fm, sev, abbr) in rows {
            assert_eq!(fm.severity(), sev, "{fm}");
            assert_eq!(fm.maneuver().abbreviation(), abbr, "{fm}");
        }
    }

    #[test]
    fn rate_multipliers_match_section_4_1() {
        let mults: Vec<f64> = FailureMode::ALL
            .iter()
            .map(|f| f.rate_multiplier())
            .collect();
        assert_eq!(mults, vec![1.0, 2.0, 2.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn severity_priorities_are_strictly_ordered_except_b() {
        assert!(Severity::A3.priority() > Severity::A2.priority());
        assert!(Severity::A2.priority() > Severity::A1.priority());
        assert!(Severity::A1.priority() > Severity::B1.priority());
        assert_eq!(Severity::B1.priority(), Severity::B2.priority());
        assert!(Severity::B2.priority() > Severity::C.priority());
    }

    #[test]
    fn classes_group_correctly() {
        assert_eq!(Severity::A3.class(), SeverityClass::A);
        assert_eq!(Severity::A1.class(), SeverityClass::A);
        assert_eq!(Severity::B1.class(), SeverityClass::B);
        assert_eq!(Severity::B2.class(), SeverityClass::B);
        assert_eq!(Severity::C.class(), SeverityClass::C);
    }

    #[test]
    fn escalation_chain_terminates_at_aided_stop() {
        // From the bottom of the ladder every chain reaches AS then None.
        let mut m = RecoveryManeuver::TakeImmediateExitNormal;
        let mut seen = vec![m];
        while let Some(next) = escalation_of(m) {
            assert!(
                maneuver_priority(next) > maneuver_priority(m),
                "escalation must strictly increase priority: {m} -> {next}"
            );
            m = next;
            seen.push(m);
            assert!(seen.len() <= 6, "escalation chain too long");
        }
        assert_eq!(m, RecoveryManeuver::AidedStop);
    }

    #[test]
    fn maneuver_slots_are_bijective() {
        for (i, &m) in MANEUVERS.iter().enumerate() {
            assert_eq!(maneuver_slot(m), i);
        }
    }

    #[test]
    fn maneuver_class_matches_recovered_severity_class() {
        for fm in FailureMode::ALL {
            assert_eq!(
                class_of_maneuver(fm.maneuver()),
                fm.severity().class(),
                "{fm}"
            );
        }
    }

    #[test]
    fn priorities_follow_severity_of_recovered_failure() {
        // A maneuver recovering a more critical failure preempts one
        // recovering a less critical failure.
        for a in FailureMode::ALL {
            for b in FailureMode::ALL {
                if a.severity().priority() > b.severity().priority() {
                    assert!(
                        maneuver_priority(a.maneuver()) >= maneuver_priority(b.maneuver()),
                        "{a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FailureMode::Fm1.to_string(), "FM1");
        assert_eq!(FailureMode::Fm6.to_string(), "FM6");
    }
}
