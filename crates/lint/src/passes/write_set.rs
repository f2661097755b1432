//! Write-set soundness audit for the activity dependency graph.
//!
//! The simulators' incremental enablement cache (see
//! `docs/performance.md`) trusts the per-activity read/write sets that
//! [`ahs_san::DependencyGraph`] derives from declared structure: after
//! an activity fires, only activities whose read-set intersects the
//! firer's write-set are re-evaluated. A gate that *lies* about its
//! `touches` makes that cache silently wrong — stale enabledness, not a
//! crash — so this pass verifies the derived sets against instrumented
//! executions:
//!
//! * **enablement reads** — `is_enabled` is traced in every sampled
//!   reachable marking; a read outside the activity's declared read-set
//!   is an error (enabledness could change without invalidation);
//! * **firing writes** — every case each fireable activity can take is
//!   fired against a shadow marking; a write outside the declared
//!   write-set is an error (downstream activities would never be
//!   re-checked).
//!
//! Activities attached to a gate with *no* `touches` declaration are
//! skipped: their sets are knowingly incomplete, the graph reports
//! itself unsound, and the simulators fall back to full rescans. Each
//! such gate gets an informational note, because the fallback is purely
//! a throughput cost.

use std::collections::BTreeSet;

use ahs_check::{can_take, StateGraph};
use ahs_san::{trace, ActivityId, Marking, PlaceId, SanModel};

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "write-set";

pub(crate) fn run(model: &SanModel, graph: &StateGraph, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let deps = model.dependency_graph();

    if !deps.is_sound() {
        for g in model.input_gates() {
            if g.declared_touches().is_none() {
                out.push(undeclared_note(g.name()));
            }
        }
        for g in model.output_gates() {
            if g.declared_touches().is_none() {
                out.push(undeclared_note(g.name()));
            }
        }
    }

    let samples: Vec<Marking> = std::iter::once(model.initial_marking().clone())
        .chain(graph.markings())
        .take(cfg.max_samples.max(1))
        .collect();

    let all: Vec<ActivityId> = model
        .timed_activities()
        .iter()
        .chain(model.instantaneous_activities())
        .copied()
        .collect();

    // Accumulated violations, reported once per activity.
    let n = model.activities().len();
    let mut read_violations = vec![BTreeSet::<PlaceId>::new(); n];
    let mut write_violations = vec![BTreeSet::<PlaceId>::new(); n];

    for m in &samples {
        let fireable = if model.is_stable(m) {
            model.enabled_timed(m)
        } else {
            model.enabled_instantaneous(m)
        };
        for &a in &all {
            if !sets_complete(model, a) {
                continue;
            }
            let (_, t) = trace::record(|| model.is_enabled(a, m));
            let reads = deps.read_set(a);
            read_violations[a.index()].extend(t.reads().filter(|p| !reads.contains(p)));
        }
        for &a in &fireable {
            if !sets_complete(model, a) {
                continue;
            }
            let writes = deps.write_set(a);
            for case in 0..model.activity(a).cases().len() {
                if !can_take(model, a, case, m) {
                    continue;
                }
                let mut shadow = (*m).clone();
                let (_, t) = trace::record(|| model.fire(a, case, &mut shadow));
                write_violations[a.index()].extend(t.writes().filter(|p| !writes.contains(p)));
            }
        }
    }

    for &a in &all {
        let act = model.activity(a);
        let bad = &read_violations[a.index()];
        if !bad.is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Error,
                act.name().to_owned(),
                format!(
                    "enabling condition reads {} outside the declared read-set; \
                     incremental enablement would miss changes to them",
                    place_list(model, bad)
                ),
            ));
        }
        let bad = &write_violations[a.index()];
        if !bad.is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Error,
                act.name().to_owned(),
                format!(
                    "firing writes {} outside the declared write-set; \
                     activities reading them would not be re-evaluated",
                    place_list(model, bad)
                ),
            ));
        }
    }
    out
}

/// Whether every gate attached to `a` carries a `touches` declaration,
/// i.e. the derived read/write sets are complete for this activity.
fn sets_complete(model: &SanModel, a: ActivityId) -> bool {
    let act = model.activity(a);
    act.input_gates()
        .iter()
        .all(|g| model.input_gates()[g.index()].declared_touches().is_some())
        && act.cases().iter().all(|case| {
            case.output_gates()
                .iter()
                .all(|g| model.output_gates()[g.index()].declared_touches().is_some())
        })
}

fn undeclared_note(gate: &str) -> Diagnostic {
    Diagnostic::new(
        NAME,
        Severity::Info,
        gate.to_owned(),
        "declares no `touches`: the dependency graph is unsound and the \
         simulators fall back to full enablement rescans (correct but slower)",
    )
}

/// `` `a`, `b`, `c` `` rendering of a place set.
fn place_list(model: &SanModel, places: &BTreeSet<PlaceId>) -> String {
    places
        .iter()
        .map(|&p| format!("`{}`", model.place_name(p)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};

    fn lint(model: &SanModel) -> Vec<Diagnostic> {
        let cfg = LintConfig::default();
        let graph = StateGraph::explore(model, cfg.max_states, None).unwrap();
        run(model, &graph, &cfg)
    }

    #[test]
    fn honest_declarations_pass() {
        let mut b = SanBuilder::new("honest");
        let p = b.place_with_tokens("p", 1).unwrap();
        let flag = b.place_with_tokens("flag", 1).unwrap();
        let counter = b.place("counter").unwrap();
        let guard = b.predicate_gate_touching("guard", [flag], move |m| m.is_marked(flag));
        let bump = b.output_gate_touching("bump", [counter], move |m| {
            m.add_tokens(counter, 1);
        });
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(guard)
            .output_place(p)
            .output_gate(bump)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn undeclared_enablement_read_is_an_error() {
        let mut b = SanBuilder::new("lying_reader");
        let p = b.place_with_tokens("p", 1).unwrap();
        let a = b.place_with_tokens("a", 1).unwrap();
        let hidden = b.place_with_tokens("hidden", 1).unwrap();
        // Declares only `a` but the predicate also consults `hidden`.
        let g =
            b.predicate_gate_touching("lying", [a], move |m| m.is_marked(a) && m.is_marked(hidden));
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .output_place(p)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        let err = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .expect("expected a read-set error");
        assert_eq!(err.subject, "t");
        assert!(err.message.contains("hidden"), "{err:?}");
        assert!(err.message.contains("read-set"));
    }

    #[test]
    fn undeclared_firing_write_is_an_error() {
        let mut b = SanBuilder::new("lying_writer");
        let p = b.place_with_tokens("p", 1).unwrap();
        let a = b.place("a").unwrap();
        let hidden = b.place("hidden").unwrap();
        let g = b.output_gate_touching("sneaky", [a], move |m| {
            m.add_tokens(a, 1);
            m.add_tokens(hidden, 1);
        });
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(p)
            .output_gate(g)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        let err = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .expect("expected a write-set error");
        assert_eq!(err.subject, "t");
        assert!(err.message.contains("hidden"), "{err:?}");
        assert!(err.message.contains("write-set"));
    }

    #[test]
    fn dishonest_split_declaration_is_an_error() {
        let mut b = SanBuilder::new("lying_split");
        let p = b.place_with_tokens("p", 1).unwrap();
        let watched = b.place_with_tokens("watched", 1).unwrap();
        let ledger = b.place_with_tokens("ledger", 1).unwrap();
        // Declares `ledger` as write-only, but the predicate reads it:
        // enablement could change without the cache noticing.
        let g = b.input_gate_touching_split(
            "split",
            [watched],
            [ledger],
            move |m| m.is_marked(watched) && m.is_marked(ledger),
            move |m| m.add_tokens(ledger, 1),
        );
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .output_place(p)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        let err = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .expect("expected a read-set error");
        assert_eq!(err.subject, "t");
        assert!(err.message.contains("ledger"), "{err:?}");
        assert!(err.message.contains("read-set"));
    }

    #[test]
    fn undeclared_gate_gets_a_note_not_an_error() {
        let mut b = SanBuilder::new("opaque");
        let p = b.place_with_tokens("p", 1).unwrap();
        let g = b.predicate_gate("no_touches", |_| true);
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .output_place(p)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Info && d.subject == "no_touches"));
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }
}
