//! Error type of the simulation crate.

use ahs_san::SanError;

/// Errors arising during simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A single replication exceeded the event budget — almost always a
    /// model with an unintended self-sustaining loop.
    EventBudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A timed activity's sampled rate or delay was invalid at run time.
    InvalidRate {
        /// Name of the offending activity.
        activity: String,
        /// The offending rate.
        rate: f64,
    },
    /// An error bubbled up from the SAN layer (case distributions,
    /// instantaneous livelocks, …).
    San(SanError),
    /// A replication tripped its watchdog budget (event count or
    /// wall-clock) — the model lints clean but cycles at simulation
    /// time, or a single path is pathologically long.
    Runaway {
        /// Events executed when the watchdog tripped.
        events: u64,
        /// Wall-clock seconds elapsed in the replication when it tripped.
        wall_seconds: f64,
    },
    /// More replications panicked than the quarantine budget allows;
    /// the study aborts rather than silently dropping a growing share
    /// of its sample.
    QuarantineOverflow {
        /// Total quarantined replications, exceeding the budget.
        quarantined: u64,
        /// The configured quarantine budget.
        budget: u64,
        /// Panic message of the replication that overflowed the budget.
        message: String,
    },
    /// A checkpoint could not be written, read, or validated against
    /// the study about to resume from it.
    Checkpoint {
        /// Human-readable reason (schema mismatch, fingerprint drift,
        /// IO failure, …).
        reason: String,
    },
    /// A forced-schedule replay step could not be taken: the scheduled
    /// activity is not fireable (or its case not takeable) in the
    /// marking the preceding steps produced. The trace being replayed
    /// does not describe a path of this model.
    Replay {
        /// Zero-based index of the offending step in the schedule.
        step: usize,
        /// Name of the activity the step tried to fire.
        activity: String,
        /// Why the step could not be taken.
        reason: String,
    },
    /// A transient run was given an observation grid that is empty,
    /// not finite and non-negative, or not strictly increasing.
    InvalidGrid {
        /// The first violation found.
        reason: String,
    },
    /// An observer run was asked of a biased SSA executor: the observer
    /// would see the biased measure with no likelihood ratio to undo it.
    BiasedObserver,
    /// An internal engine invariant was violated. This indicates a bug
    /// in the simulator, not in the model; it is surfaced as a typed
    /// error instead of a panic so a multi-thousand-replication study
    /// fails cleanly with context.
    Internal {
        /// Which invariant broke.
        context: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventBudgetExceeded { budget } => {
                write!(f, "replication exceeded the event budget of {budget}")
            }
            SimError::InvalidRate { activity, rate } => {
                write!(f, "activity `{activity}` produced invalid rate {rate}")
            }
            SimError::San(e) => write!(f, "{e}"),
            SimError::Runaway {
                events,
                wall_seconds,
            } => write!(
                f,
                "replication watchdog tripped after {events} events / {wall_seconds:.3}s wall-clock"
            ),
            SimError::QuarantineOverflow {
                quarantined,
                budget,
                message,
            } => write!(
                f,
                "{quarantined} replication(s) panicked, exceeding the quarantine budget \
                 of {budget} (last panic: {message})"
            ),
            SimError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            SimError::Replay {
                step,
                activity,
                reason,
            } => write!(
                f,
                "forced schedule diverges at step {step} (activity `{activity}`): {reason}"
            ),
            SimError::InvalidGrid { reason } => write!(f, "invalid observation grid: {reason}"),
            SimError::BiasedObserver => write!(
                f,
                "an observer run cannot carry an importance-sampling bias; \
                 use an unbiased simulator"
            ),
            SimError::Internal { context } => {
                write!(f, "internal simulator invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::San(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SanError> for SimError {
    fn from(e: SanError) -> Self {
        SimError::San(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::from(SanError::EmptyModel);
        assert_eq!(e.to_string(), "model has no places or no activities");
        assert!(std::error::Error::source(&e).is_some());
        let e = SimError::EventBudgetExceeded { budget: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn robustness_variants_display() {
        let e = SimError::Runaway {
            events: 5_000,
            wall_seconds: 1.25,
        };
        assert!(e.to_string().contains("watchdog"), "{e}");
        let e = SimError::QuarantineOverflow {
            quarantined: 3,
            budget: 2,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("quarantine budget"), "{e}");
        assert!(e.to_string().contains("boom"), "{e}");
        let e = SimError::Checkpoint {
            reason: "schema mismatch".into(),
        };
        assert!(e.to_string().contains("schema mismatch"), "{e}");
        let e = SimError::InvalidGrid {
            reason: "the grid is empty".into(),
        };
        assert!(e.to_string().contains("grid is empty"), "{e}");
        assert!(SimError::BiasedObserver.to_string().contains("bias"));
        let e = SimError::Internal {
            context: "positive total rate with an empty rate table".into(),
        };
        assert!(e.to_string().contains("invariant"), "{e}");
        let e = SimError::Replay {
            step: 2,
            activity: "to_cs".into(),
            reason: "not enabled".into(),
        };
        assert!(e.to_string().contains("step 2"), "{e}");
        assert!(e.to_string().contains("to_cs"), "{e}");
    }
}
