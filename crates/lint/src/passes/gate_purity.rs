//! Gate-purity audit.
//!
//! Gate predicates and marking functions are opaque closures, so the
//! only way to see what they do is to *run* them and watch. This pass
//! executes gates against instrumented shadow copies of sampled
//! reachable markings ([`ahs_san::trace`] records every place accessor
//! call) and checks two contracts:
//!
//! * a gate built with `predicate_gate` claims an identity marking
//!   function — any recorded write is an error;
//! * a gate with a `touches` declaration must stay inside it — reading
//!   or writing an undeclared place is an error (the declaration is
//!   what lets the structural passes reason about gate-managed places).
//!
//! Predicates must be total (`is_enabled` evaluates them in arbitrary
//! markings), so they are traced in every sampled marking. Marking
//! functions only ever run when an attached activity fires and may rely
//! on that precondition — e.g. removing a token the enabling condition
//! guarantees, or appending to a platoon array the case probability
//! guarantees has room — so they are traced only in sampled markings
//! from which such a firing can actually happen.
//!
//! A predicate that reads nothing in any sampled marking is reported as
//! a note: it is constant, so the gate either never matters or should
//! be an arc.

use std::collections::BTreeSet;

use ahs_check::{can_take, StateGraph};
use ahs_san::{trace, Marking, PlaceId, SanModel};

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "gate-purity";

/// Per-gate observations accumulated over the samples.
#[derive(Default, Clone)]
struct GateTrace {
    predicate_reads: BTreeSet<PlaceId>,
    function_writes: BTreeSet<PlaceId>,
    touched: BTreeSet<PlaceId>,
}

pub(crate) fn run(model: &SanModel, graph: &StateGraph, cfg: &LintConfig) -> Vec<Diagnostic> {
    let samples: Vec<Marking> = std::iter::once(model.initial_marking().clone())
        .chain(graph.markings())
        .take(cfg.max_samples.max(1))
        .collect();

    let mut ig_traces = vec![GateTrace::default(); model.input_gates().len()];
    let mut og_traces = vec![GateTrace::default(); model.output_gates().len()];

    for m in &samples {
        // Gates whose marking function could run from this marking:
        // those attached to an activity that can fire here, and for
        // output gates, to a case it can take here.
        let fireable = if model.is_stable(m) {
            model.enabled_timed(m)
        } else {
            model.enabled_instantaneous(m)
        };
        let mut ig_fires = vec![false; ig_traces.len()];
        let mut og_fires = vec![false; og_traces.len()];
        for &a in &fireable {
            let act = model.activity(a);
            for g in act.input_gates() {
                ig_fires[g.index()] = true;
            }
            for (case, branch) in act.cases().iter().enumerate() {
                if can_take(model, a, case, m) {
                    for g in branch.output_gates() {
                        og_fires[g.index()] = true;
                    }
                }
            }
        }

        for (idx, gate) in model.input_gates().iter().enumerate() {
            let (_, t) = trace::record(|| gate.holds(m));
            ig_traces[idx].predicate_reads.extend(t.reads());
            ig_traces[idx].touched.extend(t.touched());
            if ig_fires[idx] {
                let mut shadow = (*m).clone();
                let (_, t) = trace::record(|| gate.apply(&mut shadow));
                ig_traces[idx].function_writes.extend(t.writes());
                ig_traces[idx].touched.extend(t.touched());
            }
        }
        for (idx, gate) in model.output_gates().iter().enumerate() {
            if og_fires[idx] {
                let mut shadow = (*m).clone();
                let (_, t) = trace::record(|| gate.apply(&mut shadow));
                og_traces[idx].touched.extend(t.touched());
            }
        }
    }

    let mut out = Vec::new();
    for (gate, tr) in model.input_gates().iter().zip(&ig_traces) {
        if gate.is_pure_predicate() && !tr.function_writes.is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Error,
                gate.name().to_owned(),
                format!(
                    "declared as a pure predicate but its marking function writes {}",
                    place_list(model, &tr.function_writes)
                ),
            ));
        }
        if let Some(declared) = gate.declared_touches() {
            let undeclared: BTreeSet<PlaceId> = tr
                .touched
                .iter()
                .copied()
                .filter(|p| !declared.contains(p))
                .collect();
            if !undeclared.is_empty() {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Error,
                    gate.name().to_owned(),
                    format!(
                        "accesses undeclared place(s) {}",
                        place_list(model, &undeclared)
                    ),
                ));
            }
        }
        if tr.predicate_reads.is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Info,
                gate.name().to_owned(),
                "enabling predicate reads no place in any sampled marking: it is \
                 constant and the gate cannot express an enabling condition",
            ));
        }
    }

    for (gate, tr) in model.output_gates().iter().zip(&og_traces) {
        let Some(declared) = gate.declared_touches() else {
            continue;
        };
        let undeclared: BTreeSet<PlaceId> = tr
            .touched
            .iter()
            .copied()
            .filter(|p| !declared.contains(p))
            .collect();
        if !undeclared.is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Error,
                gate.name().to_owned(),
                format!(
                    "accesses undeclared place(s) {}",
                    place_list(model, &undeclared)
                ),
            ));
        }
    }
    out
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
    fn honest_gates_pass() {
        let mut b = SanBuilder::new("honest");
        let p = b.place_with_tokens("p", 1).unwrap();
        let counter = b.place("counter").unwrap();
        let guard = b.predicate_gate("guard", move |m| m.tokens(counter) < 3);
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
    fn impure_predicate_gate_is_an_error() {
        let mut b = SanBuilder::new("impure");
        let p = b.place_with_tokens("p", 1).unwrap();
        let counter = b.place("counter").unwrap();
        // Claims to be a pure predicate, but sneaks in a write through
        // the input-gate marking function.
        let g = b.input_gate(
            "sneaky",
            move |m| m.tokens(counter) < 3,
            move |m| m.add_tokens(counter, 1),
        );
        b.claim_pure_predicate(g);
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
            .any(|d| d.severity == Severity::Error && d.subject == "sneaky"));
    }

    #[test]
    fn undeclared_input_gate_access_is_an_error() {
        let mut b = SanBuilder::new("undeclared");
        let p = b.place_with_tokens("p", 1).unwrap();
        // `a` starts marked so the gated activity is fireable — marking
        // functions are only traced where their activity can fire.
        let a = b.place_with_tokens("a", 1).unwrap();
        let hidden = b.place("hidden").unwrap();
        let g = b.input_gate_touching(
            "partial",
            [a],
            move |m| m.is_marked(a),
            move |m| m.add_tokens(hidden, 1),
        );
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .output_place(p)
            .output_place(a)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        let err = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .expect("expected an undeclared-access error");
        assert_eq!(err.subject, "partial");
        assert!(err.message.contains("hidden"));
    }

    #[test]
    fn undeclared_output_gate_access_is_an_error() {
        let mut b = SanBuilder::new("og");
        let p = b.place_with_tokens("p", 1).unwrap();
        let a = b.place("a").unwrap();
        let hidden = b.place("hidden").unwrap();
        let g = b.output_gate_touching("og_partial", [a], move |m| {
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
        assert!(diags.iter().any(|d| d.severity == Severity::Error
            && d.subject == "og_partial"
            && d.message.contains("hidden")));
    }

    #[test]
    fn constant_predicate_gets_a_note() {
        let mut b = SanBuilder::new("const_pred");
        let p = b.place_with_tokens("p", 1).unwrap();
        let g = b.predicate_gate("always", |_| true);
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
            .any(|d| d.severity == Severity::Info && d.subject == "always"));
    }
}
