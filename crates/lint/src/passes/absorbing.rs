//! Deadlock / unintended-absorbing-state pass.
//!
//! A stable marking with no enabled timed activity is *absorbing*: the
//! model can never leave it. Some absorbing markings are intended — the
//! paper's models funnel catastrophic failures into `v_KO` / `KO_total`
//! sink states by design (the unsafety measure is exactly the
//! probability mass absorbed there). Intended sinks are declared
//! through the allowlist ([`LintConfig::absorbing_allowlist`]): an
//! absorbing marking is legal iff it marks at least one place whose
//! name contains an allowlisted pattern. Every other absorbing marking
//! is a deadlock — typically a token leaked or a predicate that traps.
//!
//! Detection is marking-local (the activity enabling test), so a
//! truncated exploration can miss absorbing markings but never invents
//! one: findings stay errors regardless of budget.

use ahs_check::{describe_marking, is_allowlisted, StateGraph};
use ahs_san::SanModel;

use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

/// Pass identifier.
pub const NAME: &str = "absorbing";

/// Cap on the number of distinct absorbing markings reported per model,
/// so one systemic leak does not flood the report.
const MAX_REPORTS: usize = 5;

pub(crate) fn run(model: &SanModel, graph: &StateGraph, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut reported = 0usize;
    let mut suppressed = 0usize;
    for m in graph.markings() {
        if !model.is_stable(&m) || !model.enabled_timed(&m).is_empty() {
            continue;
        }
        if is_allowlisted(model, &m, &cfg.absorbing_allowlist) {
            continue;
        }
        if reported == MAX_REPORTS {
            suppressed += 1;
            continue;
        }
        reported += 1;
        out.push(Diagnostic::new(
            NAME,
            Severity::Error,
            describe_marking(model, &m),
            "deadlock: reachable absorbing marking not covered by the \
             allowlist (declare intended sinks with --allow)",
        ));
    }
    if suppressed > 0 {
        out.push(Diagnostic::new(
            NAME,
            Severity::Info,
            model.name().to_owned(),
            format!("{suppressed} further unintended absorbing marking(s) suppressed"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};

    fn lint(model: &SanModel, allow: &[&str]) -> Vec<Diagnostic> {
        let cfg = LintConfig {
            absorbing_allowlist: allow.iter().map(|s| (*s).to_owned()).collect(),
            ..LintConfig::default()
        };
        let graph = StateGraph::explore(model, cfg.max_states, None).unwrap();
        run(model, &graph, &cfg)
    }

    /// p --die--> grave, with no way out of `grave`.
    fn terminal_model() -> SanModel {
        let mut b = SanBuilder::new("terminal");
        let p = b.place_with_tokens("p", 1).unwrap();
        let grave = b.place("grave").unwrap();
        b.timed_activity("die", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(grave)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unintended_deadlock_is_an_error() {
        let diags = lint(&terminal_model(), &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].subject.contains("grave"));
    }

    #[test]
    fn allowlisted_sink_is_legal() {
        assert!(lint(&terminal_model(), &["grave"]).is_empty());
        // Substring match, as with `v_KO` covering `vehicle[3].v_KO`.
        assert!(lint(&terminal_model(), &["rav"]).is_empty());
    }

    #[test]
    fn cyclic_model_has_no_absorbing_markings() {
        let mut b = SanBuilder::new("cycle");
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
        assert!(lint(&b.build().unwrap(), &[]).is_empty());
    }

    #[test]
    fn flood_of_deadlocks_is_capped() {
        // One token distributed into any of 12 distinct graves.
        let mut b = SanBuilder::new("flood");
        let p = b.place_with_tokens("p", 1).unwrap();
        for i in 0..12 {
            let grave = b.place(&format!("grave{i}")).unwrap();
            b.timed_activity(&format!("die{i}"), Delay::exponential(1.0))
                .unwrap()
                .input_place(p)
                .output_place(grave)
                .build()
                .unwrap();
        }
        let diags = lint(&b.build().unwrap(), &[]);
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        assert_eq!(errors, MAX_REPORTS);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Info && d.message.contains("suppressed")));
    }
}
