//! Error type of the CTMC crate.

use ahs_san::SanError;

/// Errors arising during state-space generation or numerical solution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtmcError {
    /// Exploration exceeded the state budget; the model is too large
    /// for numerical solution (use the simulators instead).
    StateSpaceTooLarge {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// The state store ran out of `u32` state indices or arena offsets
    /// before the state budget was reached.
    StateStoreFull {
        /// States stored when the store filled up.
        states: usize,
    },
    /// A transition rate was negative or non-finite.
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
    /// An iterative solver failed to converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// An error bubbled up from the SAN layer.
    San(SanError),
}

impl std::fmt::Display for CtmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtmcError::StateSpaceTooLarge { budget } => {
                write!(f, "state space exceeds the budget of {budget} states")
            }
            CtmcError::StateStoreFull { states } => write!(
                f,
                "state store is full at {states} states (u32 indices or arena offsets exhausted)"
            ),
            CtmcError::InvalidRate { rate } => write!(f, "invalid transition rate {rate}"),
            CtmcError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            CtmcError::San(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CtmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtmcError::San(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SanError> for CtmcError {
    fn from(e: SanError) -> Self {
        CtmcError::San(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = CtmcError::StateSpaceTooLarge { budget: 5 };
        assert!(e.to_string().contains('5'));
        let e: CtmcError = SanError::EmptyModel.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
