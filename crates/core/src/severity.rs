//! Table 2: catastrophic situations.

/// Counts of concurrently active failure severities among adjacent
/// vehicles (one unit per distinct vehicle in recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SeverityCount {
    /// Vehicles currently recovering from a class-A failure.
    pub a: u64,
    /// Vehicles currently recovering from a class-B failure.
    pub b: u64,
    /// Vehicles currently recovering from a class-C failure.
    pub c: u64,
}

impl SeverityCount {
    /// A zeroed counter.
    pub fn new() -> Self {
        SeverityCount::default()
    }

    /// Total vehicles in recovery.
    pub fn total(&self) -> u64 {
        self.a + self.b + self.c
    }
}

/// The three catastrophic situations of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CatastrophicSituation {
    /// ST1 — at least two class-A failures.
    St1,
    /// ST2 — at least one class-A failure AND (two class-B, or one
    /// class-B and one class-C, or three class-C failures).
    St2,
    /// ST3 — at least four failures of class B or C.
    St3,
}

impl CatastrophicSituation {
    /// Whether this situation holds for the given counts.
    pub fn holds(self, counts: SeverityCount) -> bool {
        match self {
            CatastrophicSituation::St1 => counts.a >= 2,
            CatastrophicSituation::St2 => {
                counts.a >= 1
                    && (counts.b >= 2 || (counts.b >= 1 && counts.c >= 1) || counts.c >= 3)
            }
            CatastrophicSituation::St3 => counts.b + counts.c >= 4,
        }
    }

    /// The Table 2 description.
    pub fn description(self) -> &'static str {
        match self {
            CatastrophicSituation::St1 => "at least two Class A failures",
            CatastrophicSituation::St2 => {
                "at least one Class A failure AND {(two Class B failures) OR \
                 (one Class B AND one Class C failures) OR (three Class C failures)}"
            }
            CatastrophicSituation::St3 => {
                "at least four failures whose severities correspond to Class B or Class C"
            }
        }
    }

    /// All three situations.
    pub const ALL: [CatastrophicSituation; 3] = [
        CatastrophicSituation::St1,
        CatastrophicSituation::St2,
        CatastrophicSituation::St3,
    ];
}

impl std::fmt::Display for CatastrophicSituation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatastrophicSituation::St1 => f.write_str("ST1"),
            CatastrophicSituation::St2 => f.write_str("ST2"),
            CatastrophicSituation::St3 => f.write_str("ST3"),
        }
    }
}

/// Whether any catastrophic situation of Table 2 holds — the predicate
/// behind the Severity submodel's `to_KO` activity.
///
/// # Example
///
/// ```
/// use ahs_core::{is_catastrophic, SeverityCount};
///
/// // One class-A recovery alone is survivable...
/// assert!(!is_catastrophic(SeverityCount { a: 1, b: 0, c: 0 }));
/// // ...two concurrent class-A failures are ST1.
/// assert!(is_catastrophic(SeverityCount { a: 2, b: 0, c: 0 }));
/// ```
pub fn is_catastrophic(counts: SeverityCount) -> bool {
    CatastrophicSituation::ALL.iter().any(|s| s.holds(counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(a: u64, b: u64, c: u64) -> SeverityCount {
        SeverityCount { a, b, c }
    }

    #[test]
    fn st1_two_class_a() {
        assert!(CatastrophicSituation::St1.holds(sc(2, 0, 0)));
        assert!(CatastrophicSituation::St1.holds(sc(3, 1, 1)));
        assert!(!CatastrophicSituation::St1.holds(sc(1, 5, 5)));
    }

    #[test]
    fn st2_requires_class_a_plus_combination() {
        // one A + two B
        assert!(CatastrophicSituation::St2.holds(sc(1, 2, 0)));
        // one A + one B + one C
        assert!(CatastrophicSituation::St2.holds(sc(1, 1, 1)));
        // one A + three C
        assert!(CatastrophicSituation::St2.holds(sc(1, 0, 3)));
        // no A
        assert!(!CatastrophicSituation::St2.holds(sc(0, 2, 3)));
        // A but insufficient B/C
        assert!(!CatastrophicSituation::St2.holds(sc(1, 1, 0)));
        assert!(!CatastrophicSituation::St2.holds(sc(1, 0, 2)));
    }

    #[test]
    fn st3_four_b_or_c() {
        assert!(CatastrophicSituation::St3.holds(sc(0, 4, 0)));
        assert!(CatastrophicSituation::St3.holds(sc(0, 0, 4)));
        assert!(CatastrophicSituation::St3.holds(sc(0, 2, 2)));
        assert!(!CatastrophicSituation::St3.holds(sc(5, 2, 1)));
    }

    #[test]
    fn safe_boundary_states() {
        // The largest non-catastrophic configurations.
        for counts in [
            sc(0, 0, 0),
            sc(1, 0, 0),
            sc(1, 1, 0),
            sc(1, 0, 2),
            sc(0, 3, 0),
            sc(0, 1, 2),
        ] {
            assert!(!is_catastrophic(counts), "{counts:?} should be safe");
        }
    }

    #[test]
    fn catastrophic_is_monotone() {
        // Adding failures can never make a catastrophic state safe.
        for a in 0..4u64 {
            for b in 0..5u64 {
                for c in 0..5u64 {
                    if is_catastrophic(sc(a, b, c)) {
                        assert!(is_catastrophic(sc(a + 1, b, c)));
                        assert!(is_catastrophic(sc(a, b + 1, c)));
                        assert!(is_catastrophic(sc(a, b, c + 1)));
                    }
                }
            }
        }
    }

    #[test]
    fn total_counts() {
        assert_eq!(sc(1, 2, 3).total(), 6);
        assert_eq!(SeverityCount::new().total(), 0);
    }

    #[test]
    fn descriptions_mention_classes() {
        for s in CatastrophicSituation::ALL {
            assert!(s.description().contains("Class"));
        }
        assert_eq!(CatastrophicSituation::St1.to_string(), "ST1");
    }
}
