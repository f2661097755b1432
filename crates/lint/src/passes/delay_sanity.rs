//! Delay-parameter sanity pass.
//!
//! Constant rates are validated by the builder, so by the time a model
//! exists the remaining hazard is the marking-dependent exponential
//! rate, an opaque closure. It is sampled over reachable markings in
//! which the activity is enabled: a negative or non-finite rate is an
//! error (the SSA rejects it, the CTMC generator rejects it), a rate of
//! exactly 0 while enabled is a warning (the SSA and the CTMC treat the
//! activity as disabled, while the structural analyses still see it
//! enabled — disable it with a gate instead).
//!
//! Shared-rate groups need no sampling: an enabled member's rate is the
//! group rate over a member count of at least one, so it is positive
//! whenever the group rate is. The pass re-checks each group's rate and
//! warns about a group no activity joined (a declaration with no
//! effect, usually a member built with the wrong delay).

use ahs_check::StateGraph;
use ahs_san::{Delay, RateFn, SanModel, Timing};

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "delay-sanity";

pub(crate) fn run(model: &SanModel, graph: &StateGraph, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for group in model.rate_groups() {
        let subject = group.name().to_owned();
        if !group.rate().is_finite() || group.rate() <= 0.0 {
            out.push(Diagnostic::new(
                NAME,
                Severity::Error,
                subject,
                format!(
                    "shared-rate group rate must be positive and finite, got {}",
                    group.rate()
                ),
            ));
        } else if group.members().is_empty() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Warning,
                subject,
                "no activity joins this shared-rate group; give its members \
                 `Delay::shared` or drop the group",
            ));
        }
    }
    for act in model.activities() {
        let Timing::Timed(delay) = act.timing() else {
            continue;
        };
        let id = model
            .find_activity(act.name())
            .expect("activity must resolve by name");

        // Defense in depth: the builder validates constant parameters,
        // but models can also arrive through other constructors.
        if let Err(reason) = delay.validate() {
            out.push(Diagnostic::new(
                NAME,
                Severity::Error,
                act.name().to_owned(),
                reason,
            ));
            continue;
        }
        let Delay::Exponential(RateFn::MarkingDependent(_)) = delay else {
            continue;
        };
        let mut sampled = 0usize;
        let mut zero_seen = false;
        for m in graph.markings() {
            if sampled >= cfg.max_samples {
                break;
            }
            if !model.is_stable(&m) || !model.is_enabled(id, &m) {
                continue;
            }
            sampled += 1;
            let rate = model
                .exponential_rate(id, &m)
                .expect("exponential delay must yield a rate");
            if !rate.is_finite() || rate < 0.0 {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Error,
                    act.name().to_owned(),
                    format!(
                        "marking-dependent rate evaluates to {rate} in a reachable \
                         marking where the activity is enabled"
                    ),
                ));
                break;
            }
            if rate == 0.0 {
                zero_seen = true;
            }
        }
        if zero_seen {
            out.push(Diagnostic::new(
                NAME,
                Severity::Warning,
                act.name().to_owned(),
                "marking-dependent rate is 0 while the activity is enabled; the \
                 SSA and the CTMC treat it as disabled, the structural analyses as \
                 enabled — disable the activity with an input gate instead of a \
                 zero rate",
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
    fn healthy_delays_pass() {
        let mut b = SanBuilder::new("ok");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("exp", Delay::exponential(2.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity(
            "back",
            Delay::exponential_fn(move |m| 1.0 + m.tokens(q) as f64),
        )
        .unwrap()
        .input_place(q)
        .output_place(p)
        .build()
        .unwrap();
        assert!(lint(&b.build().unwrap()).is_empty());
    }

    #[test]
    fn negative_marking_dependent_rate_is_an_error() {
        let mut b = SanBuilder::new("neg");
        let p = b.place_with_tokens("p", 1).unwrap();
        // Rate goes negative as soon as `p` drops below 3 tokens.
        b.timed_activity(
            "t",
            Delay::exponential_fn(move |m| m.tokens(p) as f64 - 3.0),
        )
        .unwrap()
        .input_place(p)
        .output_place(p)
        .build()
        .unwrap();
        let diags = lint(&b.build().unwrap());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("-2"));
    }

    #[test]
    fn zero_rate_while_enabled_is_a_warning() {
        let mut b = SanBuilder::new("zero");
        let p = b.place_with_tokens("p", 2).unwrap();
        let q = b.place("q").unwrap();
        // Rate hits exactly 0 when only one token is left.
        b.timed_activity(
            "t",
            Delay::exponential_fn(move |m| m.tokens(p) as f64 - 1.0),
        )
        .unwrap()
        .input_place(p)
        .output_place(q)
        .build()
        .unwrap();
        let diags = lint(&b.build().unwrap());
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("rate is 0")));
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn shared_rate_groups_are_checked_without_sampling() {
        let mut b = SanBuilder::new("groups");
        let used = b.shared_rate_group("used", 2.0).unwrap();
        b.shared_rate_group("unused", 1.0).unwrap();
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("t", Delay::shared(used))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("back", Delay::exponential(1.0))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
        let diags = lint(&b.build().unwrap());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].subject, "unused", "{diags:?}");
    }
}
