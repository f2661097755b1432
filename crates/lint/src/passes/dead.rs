//! Dead-activity pass.
//!
//! An activity is *live* if some explored marking lets it actually
//! fire: for a timed activity that means being enabled in a stable
//! marking (time never advances in unstable ones), for an instantaneous
//! activity it means being in the top-priority enabled set (an enabled
//! activity forever shadowed by a higher priority never fires either).
//! Activities that are never live are modelling dead weight — usually a
//! mis-wired arc or an enabling predicate that can never hold. When
//! exploration was truncated the finding is downgraded to a warning,
//! since liveness might hide beyond the budget.

use std::collections::HashSet;

use ahs_check::StateGraph;
use ahs_san::SanModel;

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "dead-activity";

pub(crate) fn run(model: &SanModel, graph: &StateGraph, _cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut live: HashSet<usize> = HashSet::new();
    for m in graph.markings() {
        if model.is_stable(&m) {
            for a in model.enabled_timed(&m) {
                live.insert(a.index());
            }
        } else {
            for a in model.enabled_instantaneous(&m) {
                live.insert(a.index());
            }
        }
        if live.len() == model.num_activities() {
            break;
        }
    }

    let severity = if graph.complete() {
        Severity::Error
    } else {
        Severity::Warning
    };
    model
        .activities()
        .iter()
        .enumerate()
        .filter(|(i, _)| !live.contains(i))
        .map(|(_, a)| {
            let detail = if graph.complete() {
                "activity can never fire in any reachable marking"
            } else {
                "activity never fired within the explored state budget \
                 (exploration truncated; raise --max-states to confirm)"
            };
            Diagnostic::new(NAME, severity, a.name().to_owned(), detail)
        })
        .collect()
}

/// Reconciles this pass's bounded findings with the exhaustive
/// checker's *exact* dead set (deep lint only, complete graphs only).
///
/// Bounded reachability explores a subset of the true graph, so its
/// dead set is a superset of the exact one: every exactly-dead activity
/// was already flagged here, and some flagged activities may in fact be
/// live beyond the budget. Findings confirmed by the checker are
/// upgraded to errors with proof language; refuted ones are retracted
/// to an info note explaining the budget artifact. Diagnostics from
/// other passes are passed through untouched.
pub(crate) fn reconcile(diags: Vec<Diagnostic>, exact_dead: &[String]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .map(|d| {
            if d.pass != NAME {
                return d;
            }
            if exact_dead.contains(&d.subject) {
                Diagnostic::new(
                    NAME,
                    Severity::Error,
                    d.subject,
                    "activity can never fire in any reachable marking (proven \
                     by exhaustive model check)",
                )
            } else {
                Diagnostic::new(
                    NAME,
                    Severity::Info,
                    d.subject,
                    "bounded exploration flagged this activity as dead, but the \
                     exhaustive model check proves it live — the lint state \
                     budget truncated too early (raise --max-states)",
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};

    fn lint(model: &SanModel, max_states: usize) -> Vec<Diagnostic> {
        let graph = StateGraph::explore(model, max_states, None).unwrap();
        run(model, &graph, &LintConfig::default())
    }

    #[test]
    fn live_activities_pass() {
        let mut b = SanBuilder::new("live");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("pq", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("qp", Delay::exponential(1.0))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
        assert!(lint(&b.build().unwrap(), 100).is_empty());
    }

    #[test]
    fn starved_activity_is_dead() {
        let mut b = SanBuilder::new("dead");
        let p = b.place_with_tokens("p", 1).unwrap();
        let never = b.place("never").unwrap();
        let sink = b.place("sink").unwrap();
        b.timed_activity("spin", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(p)
            .build()
            .unwrap();
        // Requires two tokens in `never`, which no activity produces.
        b.timed_activity("ghost", Delay::exponential(1.0))
            .unwrap()
            .input_arc(never, 2)
            .output_place(sink)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap(), 100);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].subject, "ghost");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn shadowed_instantaneous_activity_is_dead() {
        let mut b = SanBuilder::new("shadow");
        let src = b.place_with_tokens("src", 1).unwrap();
        let hi = b.place("hi").unwrap();
        let lo = b.place("lo").unwrap();
        // Both need `src`; priority 5 always wins and consumes the token,
        // so the priority-1 activity is enabled initially yet never fires.
        b.instant_activity("winner", 5, 1.0)
            .unwrap()
            .input_place(src)
            .output_place(hi)
            .build()
            .unwrap();
        b.instant_activity("shadowed", 1, 1.0)
            .unwrap()
            .input_place(src)
            .output_place(lo)
            .build()
            .unwrap();
        // Keep the stable end marking non-deadlocked for clarity.
        b.timed_activity("idle", Delay::exponential(1.0))
            .unwrap()
            .input_place(hi)
            .output_place(hi)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap(), 100);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].subject, "shadowed");
    }

    #[test]
    fn truncated_exploration_downgrades_to_warning() {
        let mut b = SanBuilder::new("trunc");
        let p = b.place_with_tokens("p", 1).unwrap();
        let counter = b.place("counter").unwrap();
        let late = b.place("late").unwrap();
        b.timed_activity("count", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(p)
            .output_place(counter)
            .build()
            .unwrap();
        // Fires only once `counter` accumulates 50 tokens — beyond a
        // budget of 10 explored markings.
        b.timed_activity("eventually", Delay::exponential(1.0))
            .unwrap()
            .input_arc(counter, 50)
            .output_place(late)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap(), 10);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].subject, "eventually");
        assert_eq!(diags[0].severity, Severity::Warning);
    }
}
