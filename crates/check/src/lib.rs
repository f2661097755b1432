//! `ahs-check` — exhaustive small-state model checking for SAN models.
//!
//! The simulation (`ahs-des`) and numerical (`ahs-ctmc`) layers answer
//! *quantitative* questions about the paper's escalation-chain models;
//! this crate answers the *qualitative* ones by brute force. It
//! explores every reachable marking of a model — each timed firing and
//! each instantaneous case branch, probabilities abstracted to their
//! support — and proves four properties over the complete graph:
//!
//! 1. **absorption**: every absorbing state is an allowlisted sink,
//! 2. **escalation soundness**: every state can still reach a sink,
//! 3. **dead-activity exactness**: every activity fires somewhere,
//! 4. **boundedness**: simple places stay within a token capacity.
//!
//! When a property fails, the checker emits the shortest firing trace
//! from the initial marking and replays it through the SSA executor's
//! forced-schedule hook ([`ahs_des::MarkovSimulator::run_forced_schedule`]),
//! confirming that the counterexample is real executable behaviour and
//! not an artifact of the explorer.
//!
//! ```
//! use ahs_check::{CheckConfig, Checker};
//!
//! let model = ahs_check::fixtures::escalation_chain();
//! let outcome = Checker::with_config(CheckConfig::ahs())
//!     .check(&model)
//!     .unwrap();
//! assert!(outcome.proved());
//!
//! let broken = ahs_check::fixtures::broken_escalation();
//! let outcome = Checker::with_config(CheckConfig::ahs())
//!     .check(&broken)
//!     .unwrap();
//! assert!(!outcome.proved());
//! assert_eq!(outcome.violations[0].replay_confirmed, Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::AtomicBool;

use ahs_des::{MarkovSimulator, ReplayStep};
use ahs_san::SanModel;

mod crosscheck;
pub mod fixtures;
mod graph;
mod properties;
mod report;

pub use crosscheck::{cross_validate, CrossCheck};
pub use graph::{can_take, Edge, StateGraph, TraceStep};
pub use properties::{
    describe_marking, exact_dead_set, is_allowlisted, max_tokens_observed, PropertyKind, Violation,
};
pub use report::{property_status, render_text, report_json, PropertyStatus, REPORT_SCHEMA};

/// Seed for counterexample replays. The value is irrelevant — forced
/// schedules only consume randomness for timed delays — but fixing it
/// keeps replay outcomes byte-for-byte reproducible.
const REPLAY_SEED: u64 = 0x5EED_CE11;

/// Errors from exploration and cross-validation.
#[derive(Debug)]
pub enum CheckError {
    /// Exploration was interrupted via the cooperative interrupt flag.
    Interrupted {
        /// States explored before the interrupt was observed.
        states: usize,
    },
    /// An operation that needs the *complete* reachable graph was given
    /// a truncated one.
    IncompleteGraph {
        /// States in the truncated graph.
        states: usize,
    },
    /// The CTMC side of a cross-validation failed.
    Ctmc(ahs_ctmc::CtmcError),
    /// The packed state store ran out of `u32` state indices or arena
    /// offsets before the state budget was reached.
    StateStoreFull {
        /// States stored when the store filled up.
        states: usize,
    },
    /// The model has more activities than a graph edge's `u16`
    /// activity label can index (65 536).
    TooManyActivities {
        /// Activities in the model.
        activities: usize,
    },
    /// An activity has more cases than a graph edge's `u16` case label
    /// can index (65 536).
    TooManyCases {
        /// Name of the activity.
        activity: String,
        /// Its case count.
        cases: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Interrupted { states } => {
                write!(f, "exploration interrupted after {states} states")
            }
            CheckError::IncompleteGraph { states } => write!(
                f,
                "state graph was truncated at {states} states; the operation \
                 requires a complete graph (raise the state budget)"
            ),
            CheckError::Ctmc(e) => write!(f, "ctmc cross-validation failed: {e}"),
            CheckError::StateStoreFull { states } => write!(
                f,
                "state store is full at {states} states (u32 indices or arena offsets exhausted)"
            ),
            CheckError::TooManyActivities { activities } => write!(
                f,
                "model has {activities} activities; the state graph labels at most 65536"
            ),
            CheckError::TooManyCases { activity, cases } => write!(
                f,
                "activity `{activity}` has {cases} cases; the state graph labels at most 65536"
            ),
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Ctmc(e) => Some(e),
            _ => None,
        }
    }
}

/// Checker configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// State budget; exploration truncates (soundly) past it.
    pub max_states: usize,
    /// Token capacity bound for the boundedness property.
    pub capacity: u64,
    /// Name patterns of *intended* absorbing sinks (substring match on
    /// place names, same convention as `ahs-lint`).
    pub absorbing_allowlist: Vec<String>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_states: 1 << 19,
            capacity: 64,
            absorbing_allowlist: Vec::new(),
        }
    }
}

impl CheckConfig {
    /// The preset for the paper's AHS models: system-level and
    /// vehicle-level KO sinks are the intended absorbers.
    pub fn ahs() -> Self {
        CheckConfig {
            absorbing_allowlist: vec!["v_KO".to_owned(), "KO_total".to_owned()],
            ..CheckConfig::default()
        }
    }
}

/// The exhaustive model checker.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    config: CheckConfig,
}

impl Checker {
    /// A checker with the default configuration.
    pub fn new() -> Self {
        Checker::default()
    }

    /// A checker with an explicit configuration.
    pub fn with_config(config: CheckConfig) -> Self {
        Checker { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CheckConfig {
        &self.config
    }

    /// Explores the model, evaluates every property, and replays each
    /// state-anchored counterexample through the DES executor.
    ///
    /// # Errors
    ///
    /// Exploration itself cannot fail short of an interrupt; see
    /// [`Checker::check_interruptible`].
    pub fn check(&self, model: &SanModel) -> Result<CheckOutcome, CheckError> {
        self.check_interruptible(model, None)
    }

    /// Like [`Checker::check`], but polls `interrupt` during
    /// exploration and returns [`CheckError::Interrupted`] once it is
    /// set.
    pub fn check_interruptible(
        &self,
        model: &SanModel,
        interrupt: Option<&AtomicBool>,
    ) -> Result<CheckOutcome, CheckError> {
        let graph = StateGraph::explore(model, self.config.max_states, interrupt)?;
        let properties::Evaluation {
            mut violations,
            dead_activities,
            max_tokens,
        } = properties::evaluate(model, &graph, &self.config);
        confirm_violations(model, &graph, &mut violations);
        Ok(CheckOutcome {
            model: model.name().to_owned(),
            graph,
            violations,
            dead_activities,
            max_tokens,
        })
    }
}

/// Everything a check run produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Name of the checked model.
    pub model: String,
    /// The explored state graph.
    pub graph: StateGraph,
    /// All property violations, replay-confirmed where possible.
    pub violations: Vec<Violation>,
    /// The exact dead-activity set (empty when the graph is truncated —
    /// absence of firings proves nothing then).
    pub dead_activities: Vec<String>,
    /// Largest simple-place token count observed.
    pub max_tokens: u64,
}

impl CheckOutcome {
    /// Whether every property was *proved*: the graph is complete and
    /// no property produced a violation. A clean run over a truncated
    /// graph is not a proof.
    pub fn proved(&self) -> bool {
        self.graph.complete() && self.violations.is_empty()
    }
}

/// Replays the counterexample trace of a state-anchored violation
/// through the SSA executor's forced-schedule hook and reports whether
/// the executor reaches the same violating marking.
///
/// Returns `None` when the violation carries no state anchor (nothing
/// to replay).
pub fn replay_counterexample(
    model: &SanModel,
    graph: &StateGraph,
    violation: &Violation,
) -> Option<bool> {
    let state = violation.state?;
    let schedule: Vec<ReplayStep> = violation
        .trace
        .iter()
        .map(|s| ReplayStep {
            activity: s.activity,
            case: s.case,
        })
        .collect();
    let replayed =
        MarkovSimulator::new(model).and_then(|sim| sim.run_forced_schedule(&schedule, REPLAY_SEED));
    match replayed {
        Ok(outcome) => Some(outcome.final_marking == graph.marking(state)),
        Err(_) => Some(false),
    }
}

/// Sets [`Violation::replay_confirmed`] on every state-anchored
/// violation in place.
pub fn confirm_violations(model: &SanModel, graph: &StateGraph, violations: &mut [Violation]) {
    for v in violations.iter_mut() {
        v.replay_confirmed = replay_counterexample(model, graph, v);
    }
}
