//! Error type of the SAN crate.

/// Errors arising while building or executing a SAN model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SanError {
    /// A place with the same fully-qualified name already exists with a
    /// different declaration.
    DuplicatePlace {
        /// The conflicting name.
        name: String,
    },
    /// An activity with the same fully-qualified name already exists.
    DuplicateActivity {
        /// The conflicting name.
        name: String,
    },
    /// A delay distribution had invalid parameters.
    InvalidDelay {
        /// Activity name.
        activity: String,
        /// What was wrong.
        reason: String,
    },
    /// A shared-rate group was declared with an invalid rate or a
    /// clashing name, or joined through a handle that does not exist.
    InvalidRateGroup {
        /// Group name (or `#index` for an unknown handle).
        group: String,
        /// What was wrong.
        reason: String,
    },
    /// An activity was declared without any case.
    NoCases {
        /// Activity name.
        activity: String,
    },
    /// Case probabilities evaluated to an invalid distribution.
    InvalidCaseDistribution {
        /// Activity name.
        activity: String,
        /// Sum of the evaluated probabilities.
        sum: f64,
    },
    /// An instantaneous-activity cascade did not stabilize within the
    /// iteration budget (the net has an instantaneous livelock).
    InstantaneousLivelock {
        /// Iterations attempted before giving up.
        iterations: usize,
    },
    /// An instantaneous activity has a non-positive weight.
    InvalidWeight {
        /// Activity name.
        activity: String,
        /// The offending weight.
        weight: f64,
    },
    /// The model has no places or no activities.
    EmptyModel,
    /// Strict validation (see
    /// [`SanBuilder::validate_strict`](crate::SanBuilder::validate_strict))
    /// found defects at build time.
    StrictValidation {
        /// Model name.
        model: String,
        /// One human-readable message per defect.
        diagnostics: Vec<String>,
    },
}

impl std::fmt::Display for SanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanError::DuplicatePlace { name } => {
                write!(f, "duplicate place declaration for `{name}`")
            }
            SanError::DuplicateActivity { name } => {
                write!(f, "duplicate activity declaration for `{name}`")
            }
            SanError::InvalidDelay { activity, reason } => {
                write!(f, "invalid delay on activity `{activity}`: {reason}")
            }
            SanError::InvalidRateGroup { group, reason } => {
                write!(f, "invalid shared-rate group `{group}`: {reason}")
            }
            SanError::NoCases { activity } => {
                write!(f, "activity `{activity}` has no cases")
            }
            SanError::InvalidCaseDistribution { activity, sum } => {
                write!(
                    f,
                    "case probabilities of activity `{activity}` sum to {sum}, expected 1"
                )
            }
            SanError::InstantaneousLivelock { iterations } => {
                write!(
                    f,
                    "instantaneous activities did not stabilize after {iterations} firings"
                )
            }
            SanError::InvalidWeight { activity, weight } => {
                write!(
                    f,
                    "instantaneous activity `{activity}` has non-positive weight {weight}"
                )
            }
            SanError::EmptyModel => write!(f, "model has no places or no activities"),
            SanError::StrictValidation { model, diagnostics } => {
                write!(
                    f,
                    "strict validation of model `{model}` failed with {} defect(s): {}",
                    diagnostics.len(),
                    diagnostics.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for SanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = SanError::DuplicatePlace { name: "IN".into() };
        assert_eq!(e.to_string(), "duplicate place declaration for `IN`");
        let e = SanError::InstantaneousLivelock { iterations: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SanError>();
    }
}
