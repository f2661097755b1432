//! Case-probability pass.
//!
//! Constant case distributions are checked exactly: each probability
//! must lie in `[0, 1]` and an all-constant distribution must sum to 1
//! within the configured tolerance. Marking-dependent distributions
//! cannot be checked statically, so they are *sampled*: the pass
//! evaluates the full distribution in every reachable marking in which
//! the activity is enabled (up to a per-activity sample cap) and reports
//! the first marking where it is invalid — the exact failure that
//! otherwise surfaces mid-simulation as
//! [`SanError::InvalidCaseDistribution`](ahs_san::SanError).

use ahs_check::StateGraph;
use ahs_san::{CaseProb, SanModel};

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "case-probability";

pub(crate) fn run(model: &SanModel, graph: &StateGraph, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, act) in model.activities().iter().enumerate() {
        let id = model
            .find_activity(act.name())
            .unwrap_or_else(|| panic!("activity {idx} must resolve by name"));

        let mut const_sum = Some(0.0_f64);
        let mut has_md = false;
        for (c, case) in act.cases().iter().enumerate() {
            match case.probability_spec() {
                CaseProb::Const(p) => {
                    if !p.is_finite() || !(0.0..=1.0).contains(p) {
                        out.push(Diagnostic::new(
                            NAME,
                            Severity::Error,
                            act.name().to_owned(),
                            format!("case {c}: constant probability {p} outside [0, 1]"),
                        ));
                    }
                    const_sum = const_sum.map(|s| s + p);
                }
                CaseProb::MarkingDependent(_) => {
                    has_md = true;
                    const_sum = None;
                }
            }
        }
        if let Some(sum) = const_sum {
            if (sum - 1.0).abs() > cfg.epsilon {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Error,
                    act.name().to_owned(),
                    format!("constant case probabilities sum to {sum}, expected 1"),
                ));
            }
        }

        if !has_md {
            continue;
        }
        // Sample the marking-dependent distribution over reachable
        // markings in which the activity is enabled.
        let mut sampled = 0usize;
        for m in graph.markings() {
            if sampled >= cfg.max_samples {
                break;
            }
            if !model.is_enabled(id, &m) {
                continue;
            }
            sampled += 1;
            if let Err(e) = model.case_probabilities(id, &m) {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Error,
                    act.name().to_owned(),
                    format!(
                        "marking-dependent case distribution invalid in a reachable \
                         marking (sample {sampled}): {e}"
                    ),
                ));
                break;
            }
        }
        if sampled == 0 && !graph.is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Info,
                act.name().to_owned(),
                "marking-dependent case distribution could not be sampled: the \
                 activity was never enabled in the explored markings",
            ));
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
    fn valid_distributions_pass() {
        let mut b = SanBuilder::new("ok");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .case(0.7)
            .output_place(q)
            .case(0.3)
            .output_place(q)
            .build()
            .unwrap();
        assert!(lint(&b.build().unwrap()).is_empty());
    }

    #[test]
    fn bad_marking_dependent_sum_is_reported() {
        let mut b = SanBuilder::new("bad_md");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        // 0.6 + 0.3 = 0.9: invalid in every marking, but the builder
        // cannot see through the closures.
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .case_fn(|_| 0.6)
            .output_place(q)
            .case_fn(|_| 0.3)
            .output_place(q)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].pass, NAME);
        assert!(diags[0].message.contains("invalid"));
    }

    #[test]
    fn marking_dependence_only_breaks_in_some_markings() {
        let mut b = SanBuilder::new("partial");
        let p = b.place_with_tokens("p", 2).unwrap();
        let q = b.place("q").unwrap();
        // Valid while p holds 2 tokens, invalid once it holds 1.
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .case_fn(move |m| if m.tokens(p) >= 2 { 1.0 } else { 0.4 })
            .output_place(q)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn never_enabled_md_activity_gets_an_info() {
        let mut b = SanBuilder::new("unsampled");
        let p = b.place_with_tokens("p", 1).unwrap();
        let blocked = b.place("blocked").unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("live", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(p)
            .build()
            .unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(blocked)
            .case_fn(|_| 1.0)
            .output_place(q)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert!(diags
            .iter()
            .any(|d| d.subject == "t" && d.severity == Severity::Info));
    }
}
