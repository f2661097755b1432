//! Instantaneous-activity confusion pass.
//!
//! Two instantaneous activities at the same priority that are enabled
//! together form a *confusion* when their effects do not commute: both
//! firing orders are possible, the engine picks one by weight, and the
//! resulting markings differ. That makes the weighted tie-break a
//! semantic decision rather than a harmless scheduling detail — usually
//! an unintended race between gate marking functions. Pairs where one
//! firing disables the other (a plain conflict) are *not* flagged:
//! weighted conflict resolution is the documented SAN semantics for
//! choice.
//!
//! The pass examines every explored unstable marking (up to the sample
//! cap) and reports each offending activity pair once.

use std::collections::HashSet;

use ahs_check::StateGraph;
use ahs_san::SanModel;

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "confusion";

pub(crate) fn run(model: &SanModel, graph: &StateGraph, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut flagged: HashSet<(usize, usize)> = HashSet::new();
    let mut sampled = 0usize;

    for m in graph.markings() {
        if model.is_stable(&m) {
            continue;
        }
        if sampled >= cfg.max_samples {
            break;
        }
        sampled += 1;
        let enabled = model.enabled_instantaneous(&m);
        for (i, &a) in enabled.iter().enumerate() {
            for &b in &enabled[i + 1..] {
                let key = (a.index().min(b.index()), a.index().max(b.index()));
                if flagged.contains(&key) {
                    continue;
                }
                'cases: for ca in 0..model.activity(a).cases().len() {
                    for cb in 0..model.activity(b).cases().len() {
                        // Order a then b.
                        let mut ab = m.clone();
                        model.fire(a, ca, &mut ab);
                        if !model.is_enabled(b, &ab) {
                            continue; // conflict, not confusion
                        }
                        model.fire(b, cb, &mut ab);
                        // Order b then a.
                        let mut ba = m.clone();
                        model.fire(b, cb, &mut ba);
                        if !model.is_enabled(a, &ba) {
                            continue;
                        }
                        model.fire(a, ca, &mut ba);
                        if ab != ba {
                            flagged.insert(key);
                            out.push(Diagnostic::new(
                                NAME,
                                Severity::Warning,
                                format!(
                                    "{} / {}",
                                    model.activity(a).name(),
                                    model.activity(b).name()
                                ),
                                format!(
                                    "equal-priority instantaneous activities are enabled \
                                     together in a reachable marking and their effects do \
                                     not commute (case {ca} vs case {cb}); the weighted \
                                     tie-break silently decides the outcome"
                                ),
                            ));
                            break 'cases;
                        }
                    }
                }
            }
        }
    }
    out
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
    fn conflicting_pair_is_not_flagged() {
        // Both instantaneous activities consume the same `trigger`
        // token: whichever fires first disables the other. That is a
        // weighted conflict — documented SAN semantics, not confusion.
        let mut b = SanBuilder::new("conflict");
        let src = b.place_with_tokens("src", 1).unwrap();
        let trigger = b.place("trigger").unwrap();
        let reg = b.place("reg").unwrap();
        b.timed_activity("start", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .output_place(trigger)
            .build()
            .unwrap();
        let set_one = b.output_gate("set_one", move |m| m.set_tokens(reg, 1));
        let double = b.output_gate("double", move |m| {
            let v = m.tokens(reg);
            m.set_tokens(reg, v * 2);
        });
        b.instant_activity("setter", 0, 1.0)
            .unwrap()
            .input_place(trigger)
            .output_gate(set_one)
            .build()
            .unwrap();
        b.instant_activity("doubler", 0, 1.0)
            .unwrap()
            .input_place(trigger)
            .output_gate(double)
            .build()
            .unwrap();
        assert!(lint(&b.build().unwrap()).is_empty());
    }

    #[test]
    fn overlapping_enabling_without_conflict_is_flagged() {
        // `start` hands each activity its own ticket, so neither firing
        // disables the other; both write `reg` through gates in a
        // non-commuting way (set-to-1 vs double).
        let mut b = SanBuilder::new("confused");
        let src = b.place_with_tokens("src", 1).unwrap();
        let ta = b.place("ticket_a").unwrap();
        let tb = b.place("ticket_b").unwrap();
        let reg = b.place("reg").unwrap();
        b.timed_activity("start", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .output_place(ta)
            .output_place(tb)
            .build()
            .unwrap();
        let set_one = b.output_gate("set_one", move |m| m.set_tokens(reg, 1));
        let double = b.output_gate("double", move |m| {
            let v = m.tokens(reg);
            m.set_tokens(reg, v * 2);
        });
        b.instant_activity("setter", 0, 1.0)
            .unwrap()
            .input_place(ta)
            .output_gate(set_one)
            .build()
            .unwrap();
        b.instant_activity("doubler", 0, 1.0)
            .unwrap()
            .input_place(tb)
            .output_gate(double)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].subject.contains("setter"));
        assert!(diags[0].subject.contains("doubler"));
    }

    #[test]
    fn commuting_independent_activities_pass() {
        let mut b = SanBuilder::new("independent");
        let src = b.place_with_tokens("src", 1).unwrap();
        let ta = b.place("ta").unwrap();
        let tb = b.place("tb").unwrap();
        let xa = b.place("xa").unwrap();
        let xb = b.place("xb").unwrap();
        b.timed_activity("start", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .output_place(ta)
            .output_place(tb)
            .build()
            .unwrap();
        b.instant_activity("ia", 0, 1.0)
            .unwrap()
            .input_place(ta)
            .output_place(xa)
            .build()
            .unwrap();
        b.instant_activity("ib", 0, 1.0)
            .unwrap()
            .input_place(tb)
            .output_place(xb)
            .build()
            .unwrap();
        assert!(lint(&b.build().unwrap()).is_empty());
    }

    #[test]
    fn different_priorities_cannot_confuse() {
        let mut b = SanBuilder::new("prio");
        let src = b.place_with_tokens("src", 1).unwrap();
        let ta = b.place("ta").unwrap();
        let tb = b.place("tb").unwrap();
        let reg = b.place("reg").unwrap();
        b.timed_activity("start", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .output_place(ta)
            .output_place(tb)
            .build()
            .unwrap();
        let set_one = b.output_gate("set_one", move |m| m.set_tokens(reg, 1));
        let double = b.output_gate("double", move |m| {
            let v = m.tokens(reg);
            m.set_tokens(reg, v * 2);
        });
        // Same non-commuting effects, but distinct priorities: the order
        // is deterministic, so there is no confusion.
        b.instant_activity("setter", 2, 1.0)
            .unwrap()
            .input_place(ta)
            .output_gate(set_one)
            .build()
            .unwrap();
        b.instant_activity("doubler", 1, 1.0)
            .unwrap()
            .input_place(tb)
            .output_gate(double)
            .build()
            .unwrap();
        assert!(lint(&b.build().unwrap()).is_empty());
    }
}
