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

use std::collections::HashSet;

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

/// Evaluates every property against the explored graph.
pub fn evaluate(model: &SanModel, graph: &StateGraph, config: &CheckConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(boundedness(model, graph, config));
    if graph.complete() {
        out.extend(absorption(model, graph, config));
        out.extend(escalation(model, graph, config));
        out.extend(dead_activities(model, graph));
    }
    out
}

/// Whether the marking marks a place whose name contains one of the
/// `allowlist` patterns: the sink convention shared by this checker's
/// absorption property and the linter's absorbing pass.
pub fn is_allowlisted(model: &SanModel, m: &Marking, allowlist: &[String]) -> bool {
    allowlist.iter().any(|pattern| {
        model
            .place_ids()
            .any(|p| m.is_marked(p) && model.place_name(p).contains(pattern.as_str()))
    })
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

fn absorption(model: &SanModel, graph: &StateGraph, config: &CheckConfig) -> Vec<Violation> {
    let mut unlisted = Vec::new();
    graph.for_each_marking(|i, m| {
        if graph.is_terminal(i) && !is_allowlisted(model, m, &config.absorbing_allowlist) {
            unlisted.push(i);
        }
    });
    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for i in unlisted {
        if out.len() == MAX_PER_PROPERTY {
            suppressed += 1;
            continue;
        }
        out.push(anchored(
            PropertyKind::Absorption,
            model,
            graph,
            i,
            "reachable absorbing state not covered by the sink allowlist".to_owned(),
        ));
    }
    note_suppressed(&mut out, suppressed);
    out
}

/// Backward reachability from the allowed terminals: every state not in
/// the backward-reachable set can never reach an allowed sink.
fn escalation(model: &SanModel, graph: &StateGraph, config: &CheckConfig) -> Vec<Violation> {
    if config.absorbing_allowlist.is_empty() {
        return Vec::new();
    }
    let n = graph.len();
    // Reverse adjacency.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for e in graph.successors(i) {
            rev[e.target as usize].push(i as u32);
        }
    }
    let mut reaches = vec![false; n];
    let mut queue: Vec<u32> = Vec::new();
    graph.for_each_marking(|i, m| {
        if graph.is_terminal(i) && is_allowlisted(model, m, &config.absorbing_allowlist) {
            queue.push(i as u32);
        }
    });
    for &i in &queue {
        reaches[i as usize] = true;
    }
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head] as usize;
        head += 1;
        for &p in &rev[i] {
            if !reaches[p as usize] {
                reaches[p as usize] = true;
                queue.push(p);
            }
        }
    }
    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for (i, ok) in reaches.iter().enumerate() {
        if *ok {
            continue;
        }
        if out.len() == MAX_PER_PROPERTY {
            suppressed += 1;
            continue;
        }
        out.push(anchored(
            PropertyKind::Escalation,
            model,
            graph,
            i,
            "no path from this state reaches an allowlisted sink (escalation \
             chain can be stranded here forever)"
                .to_owned(),
        ));
    }
    note_suppressed(&mut out, suppressed);
    out
}

/// The exact dead set: activities appearing on no edge of the complete
/// graph.
pub fn exact_dead_set(model: &SanModel, graph: &StateGraph) -> Vec<String> {
    let mut fired: HashSet<usize> = HashSet::new();
    for i in 0..graph.len() {
        for e in graph.successors(i) {
            fired.insert(e.activity.index());
        }
    }
    (0..model.num_activities())
        .filter(|i| !fired.contains(i))
        .map(|i| model.activities()[i].name().to_owned())
        .collect()
}

fn dead_activities(model: &SanModel, graph: &StateGraph) -> Vec<Violation> {
    exact_dead_set(model, graph)
        .into_iter()
        .map(|name| Violation {
            property: PropertyKind::DeadActivity,
            subject: name,
            message: "activity fires in no reachable marking (exact: the whole \
                      reachable graph was explored)"
                .to_owned(),
            state: None,
            trace: Vec::new(),
            replay_confirmed: None,
        })
        .collect()
}

fn boundedness(model: &SanModel, graph: &StateGraph, config: &CheckConfig) -> Vec<Violation> {
    // Classify places once off the initial marking (PlaceDecl kinds are
    // not public; the value discriminant is).
    let simple: Vec<PlaceId> = model
        .place_ids()
        .filter(|&p| matches!(model.initial_marking().value(p), PlaceValue::Tokens(_)))
        .collect();
    let mut out = Vec::new();
    let mut suppressed = 0usize;
    graph.for_each_marking(|i, m| {
        for &p in &simple {
            let t = m.tokens(p);
            if t <= config.capacity {
                continue;
            }
            if out.len() == MAX_PER_PROPERTY {
                suppressed += 1;
                continue;
            }
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
            out.push(v);
        }
    });
    note_suppressed(&mut out, suppressed);
    out
}

/// Largest simple-place token count observed anywhere in the graph.
pub fn max_tokens_observed(model: &SanModel, graph: &StateGraph) -> u64 {
    let simple: Vec<PlaceId> = model
        .place_ids()
        .filter(|&p| matches!(model.initial_marking().value(p), PlaceValue::Tokens(_)))
        .collect();
    let mut max = 0;
    graph.for_each_marking(|_, m| {
        for &p in &simple {
            max = max.max(m.tokens(p));
        }
    });
    max
}

fn note_suppressed(out: &mut [Violation], suppressed: usize) {
    if suppressed > 0 {
        if let Some(last) = out.last_mut() {
            last.message
                .push_str(&format!(" ({suppressed} further violation(s) suppressed)"));
        }
    }
}
