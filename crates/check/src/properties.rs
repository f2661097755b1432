//! The property layer: what the checker proves about a marking graph.
//!
//! Four properties, mirroring the dependability argument of the paper's
//! escalation-chain models:
//!
//! 1. **absorption** — every reachable terminal (absorbing) state marks
//!    a place covered by the allowlist of *intended* sinks (`v_KO`,
//!    `KO_total`, recovery-complete states). Any other terminal state
//!    is a deadlock.
//! 2. **escalation soundness** — every reachable state has *some* path
//!    to an allowed terminal: no livelock can strand an escalation
//!    chain short of its declared sinks. Skipped when the allowlist is
//!    empty (no sinks are declared).
//! 3. **dead-activity exactness** — every declared activity fires on at
//!    least one edge of the complete graph; the exact-proof upgrade of
//!    the linter's bounded `dead` pass.
//! 4. **boundedness** — no simple place ever exceeds the configured
//!    token capacity.
//!
//! Properties 1–3 are only evaluated on a *complete* graph (absence
//! arguments need the whole reachable set). Boundedness violations are
//! sound even on a truncated graph — every visited state is genuinely
//! reachable — so property 4 always runs.
//!
//! Each state-anchored violation carries the shortest firing trace from
//! the initial marking (the BFS tree path): the minimal counterexample,
//! ready for forced-schedule replay through the DES executor.

use ahs_san::{Marking, PlaceId, PlaceValue, SanModel};

use crate::graph::{StateGraph, TraceStep};
use crate::CheckConfig;

/// Cap on reported violations per property, so one systemic defect
/// does not flood the report.
const MAX_PER_PROPERTY: usize = 8;

/// The four checked properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyKind {
    /// Every terminal state is an allowlisted sink.
    Absorption,
    /// Every state can reach an allowlisted sink.
    Escalation,
    /// Every activity fires somewhere in the reachable graph.
    DeadActivity,
    /// Every simple place stays within the token capacity.
    Boundedness,
}

impl PropertyKind {
    /// Stable name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PropertyKind::Absorption => "absorption",
            PropertyKind::Escalation => "escalation",
            PropertyKind::DeadActivity => "dead-activity",
            PropertyKind::Boundedness => "boundedness",
        }
    }

    /// All properties, in report order.
    pub fn all() -> [PropertyKind; 4] {
        [
            PropertyKind::Absorption,
            PropertyKind::Escalation,
            PropertyKind::DeadActivity,
            PropertyKind::Boundedness,
        ]
    }
}

/// One property violation, with its minimal counterexample when the
/// violation is anchored to a reachable state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which property failed.
    pub property: PropertyKind,
    /// What failed: a marking summary, activity name, or place name.
    pub subject: String,
    /// Why it failed.
    pub message: String,
    /// Index of the violating state in the graph, when state-anchored.
    pub state: Option<usize>,
    /// Shortest firing trace from the initial marking to the violating
    /// state (empty both for the initial state and for violations that
    /// are not state-anchored).
    pub trace: Vec<TraceStep>,
    /// Whether a forced-schedule replay through the DES executor
    /// confirmed the counterexample (`None` until attempted or when
    /// there is nothing to replay).
    pub replay_confirmed: Option<bool>,
}

/// What [`evaluate`] found: the violations, the exact dead set (empty
/// on a truncated graph) and the largest simple-place token count.
pub(crate) struct Evaluation {
    pub(crate) violations: Vec<Violation>,
    pub(crate) dead_activities: Vec<String>,
    pub(crate) max_tokens: u64,
}

/// Evaluates every property against the explored graph, decoding each
/// marking once.
pub(crate) fn evaluate(model: &SanModel, graph: &StateGraph, config: &CheckConfig) -> Evaluation {
    let simple = simple_places(model);
    let sinks = sink_places(model, &config.absorbing_allowlist);
    let complete = graph.complete();
    let mut max_tokens = 0;
    let mut over_capacity = Capped::default();
    let mut unlisted = Capped::default();
    let mut allowed_terminals = Vec::new();
    graph.for_each_marking(|i, m| {
        for &p in &simple {
            let t = m.tokens(p);
            max_tokens = max_tokens.max(t);
            if t > config.capacity {
                over_capacity.push((i, p, t));
            }
        }
        if complete && graph.is_terminal(i) {
            if sinks.iter().any(|&p| m.is_marked(p)) {
                allowed_terminals.push(i as u32);
            } else {
                unlisted.push(i);
            }
        }
    });

    let mut violations = boundedness(model, graph, config, over_capacity);
    let mut dead_activities = Vec::new();
    if complete {
        violations.extend(absorption(model, graph, unlisted));
        if !config.absorbing_allowlist.is_empty() {
            violations.extend(escalation(model, graph, allowed_terminals));
        }
        dead_activities = exact_dead_set(model, graph);
        violations.extend(dead_activities.iter().map(|name| {
            Violation {
                property: PropertyKind::DeadActivity,
                subject: name.clone(),
                message: "activity fires in no reachable marking (exact: the whole \
                      reachable graph was explored)"
                    .to_owned(),
                state: None,
                trace: Vec::new(),
                replay_confirmed: None,
            }
        }));
    }
    Evaluation {
        violations,
        dead_activities,
        max_tokens,
    }
}

/// The first [`MAX_PER_PROPERTY`] findings of one property, and how
/// many more there were.
struct Capped<T> {
    kept: Vec<T>,
    suppressed: usize,
}

impl<T> Default for Capped<T> {
    fn default() -> Self {
        Capped {
            kept: Vec::new(),
            suppressed: 0,
        }
    }
}

impl<T> Capped<T> {
    fn push(&mut self, finding: T) {
        if self.kept.len() == MAX_PER_PROPERTY {
            self.suppressed += 1;
        } else {
            self.kept.push(finding);
        }
    }

    /// One violation per kept finding, the last noting the suppressed.
    fn into_violations(self, violation: impl FnMut(T) -> Violation) -> Vec<Violation> {
        let mut out: Vec<Violation> = self.kept.into_iter().map(violation).collect();
        if self.suppressed > 0 {
            if let Some(last) = out.last_mut() {
                last.message.push_str(&format!(
                    " ({} further violation(s) suppressed)",
                    self.suppressed
                ));
            }
        }
        out
    }
}

/// Whether the marking marks a place whose name contains one of the
/// `allowlist` patterns: the sink convention shared by this checker's
/// absorption property and the linter's absorbing pass.
pub fn is_allowlisted(model: &SanModel, m: &Marking, allowlist: &[String]) -> bool {
    sink_places(model, allowlist)
        .into_iter()
        .any(|p| m.is_marked(p))
}

/// The places whose name contains one of the `allowlist` patterns.
fn sink_places(model: &SanModel, allowlist: &[String]) -> Vec<PlaceId> {
    model
        .place_ids()
        .filter(|&p| {
            let name = model.place_name(p);
            allowlist
                .iter()
                .any(|pattern| name.contains(pattern.as_str()))
        })
        .collect()
}

/// A short human-readable summary of a marking: the marked places.
pub fn describe_marking(model: &SanModel, m: &Marking) -> String {
    let mut names: Vec<&str> = model
        .place_ids()
        .filter(|&p| m.is_marked(p))
        .map(|p| model.place_name(p))
        .collect();
    if names.is_empty() {
        return "<empty marking>".to_owned();
    }
    let extra = names.len().saturating_sub(6);
    names.truncate(6);
    let mut s = format!("{{{}}}", names.join(", "));
    if extra > 0 {
        s.push_str(&format!(" (+{extra} more)"));
    }
    s
}

fn anchored(
    property: PropertyKind,
    model: &SanModel,
    graph: &StateGraph,
    state: usize,
    message: String,
) -> Violation {
    Violation {
        property,
        subject: describe_marking(model, &graph.marking(state)),
        message,
        state: Some(state),
        trace: graph.trace_to(model, state),
        replay_confirmed: None,
    }
}

fn absorption(model: &SanModel, graph: &StateGraph, unlisted: Capped<usize>) -> Vec<Violation> {
    unlisted.into_violations(|i| {
        anchored(
            PropertyKind::Absorption,
            model,
            graph,
            i,
            "reachable absorbing state not covered by the sink allowlist".to_owned(),
        )
    })
}

/// Backward reachability from the allowed terminals: every state not in
/// the backward-reachable set can never reach an allowed sink.
fn escalation(model: &SanModel, graph: &StateGraph, mut queue: Vec<u32>) -> Vec<Violation> {
    let n = graph.len();
    // Reverse adjacency in CSR form: the predecessors of state `j` are
    // `preds[start[j]..start[j + 1]]`.
    let mut start = vec![0u32; n + 1];
    for i in 0..n {
        for e in graph.successors(i) {
            start[e.target() + 1] += 1;
        }
    }
    for j in 0..n {
        start[j + 1] += start[j];
    }
    let mut next = start.clone();
    let mut preds = vec![0u32; start[n] as usize];
    for i in 0..n {
        for e in graph.successors(i) {
            let slot = &mut next[e.target()];
            preds[*slot as usize] = i as u32;
            *slot += 1;
        }
    }

    let mut reaches = vec![false; n];
    for &i in &queue {
        reaches[i as usize] = true;
    }
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head] as usize;
        head += 1;
        for &p in &preds[start[i] as usize..start[i + 1] as usize] {
            if !reaches[p as usize] {
                reaches[p as usize] = true;
                queue.push(p);
            }
        }
    }
    let mut stranded = Capped::default();
    for i in (0..n).filter(|&i| !reaches[i]) {
        stranded.push(i);
    }
    stranded.into_violations(|i| {
        anchored(
            PropertyKind::Escalation,
            model,
            graph,
            i,
            "no path from this state reaches an allowlisted sink (escalation \
             chain can be stranded here forever)"
                .to_owned(),
        )
    })
}

/// The exact dead set: activities appearing on no edge of the complete
/// graph.
pub fn exact_dead_set(model: &SanModel, graph: &StateGraph) -> Vec<String> {
    let mut fired = vec![false; model.num_activities()];
    for i in 0..graph.len() {
        for e in graph.successors(i) {
            fired[e.activity_index()] = true;
        }
    }
    model
        .activities()
        .iter()
        .zip(fired)
        .filter(|&(_, fired)| !fired)
        .map(|(a, _)| a.name().to_owned())
        .collect()
}

fn boundedness(
    model: &SanModel,
    graph: &StateGraph,
    config: &CheckConfig,
    over_capacity: Capped<(usize, PlaceId, u64)>,
) -> Vec<Violation> {
    over_capacity.into_violations(|(i, p, t)| {
        let mut v = anchored(
            PropertyKind::Boundedness,
            model,
            graph,
            i,
            format!(
                "place `{}` holds {t} tokens, exceeding the capacity bound {}",
                model.place_name(p),
                config.capacity
            ),
        );
        v.subject = model.place_name(p).to_owned();
        v
    })
}

/// The simple (token-holding) places. `PlaceDecl` kinds are not public;
/// the initial marking's value discriminant is.
fn simple_places(model: &SanModel) -> Vec<PlaceId> {
    model
        .place_ids()
        .filter(|&p| matches!(model.initial_marking().value(p), PlaceValue::Tokens(_)))
        .collect()
}

/// Largest simple-place token count observed anywhere in the graph.
pub fn max_tokens_observed(model: &SanModel, graph: &StateGraph) -> u64 {
    let simple = simple_places(model);
    let mut max = 0;
    graph.for_each_marking(|_, m| {
        for &p in &simple {
            max = max.max(m.tokens(p));
        }
    });
    max
}
