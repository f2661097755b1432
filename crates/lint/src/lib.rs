//! `ahs-lint`: static model verification for SAN models.
//!
//! The DSN 2009 AHS safety study rests entirely on the correctness of
//! its stochastic activity networks — a mis-summed case distribution or
//! an accidentally absorbing marking silently skews the unsafety curve
//! rather than crashing. This crate is the model-level analogue of a
//! compiler's lint stage: it takes any built
//! [`SanModel`], runs a fixed pipeline of
//! verification passes over it, and produces a severity-ranked
//! [`Report`] (human-readable and JSON).
//!
//! The passes:
//!
//! 1. **structure** — orphan places, always-enabled and arc-silent
//!    activities, refined by gate `touches` declarations;
//! 2. **case-probability** — constant case distributions checked
//!    exactly; marking-dependent ones sampled over reachable markings;
//! 3. **dead-activity** — activities that can never fire within the
//!    explored state space (including instantaneous activities forever
//!    shadowed by higher priorities);
//! 4. **absorbing** — reachable deadlocks, i.e. absorbing markings not
//!    covered by the sink allowlist (the paper's `v_KO` / `KO_total`
//!    states are *intended* sinks);
//! 5. **confusion** — equal-priority instantaneous activities enabled
//!    together whose effects do not commute;
//! 6. **gate-purity** — gate closures run against instrumented shadow
//!    markings; purity claims and `touches` declarations are verified,
//!    not trusted;
//! 7. **write-set** — the dependency graph's per-activity read/write
//!    sets (which drive incremental enablement in the simulators) are
//!    checked against traced `is_enabled` and `fire` executions;
//! 8. **delay-sanity** — marking-dependent rates that go non-positive
//!    while enabled, and shared-rate groups with a bad rate or no member.
//!
//! Reachability is bounded ([`LintConfig::max_states`]): the passes
//! read `ahs-check`'s micro-step marking graph
//! ([`StateGraph`]), explored once per lint
//! up to that budget. When the budget truncates exploration,
//! absence-based findings (pass 3) are downgraded from error to warning
//! because absence is no longer proven, and
//! [`Report::exploration_complete`] says so.
//!
//! # Example
//!
//! ```
//! use ahs_lint::Linter;
//!
//! let model = ahs_lint::fixtures::broken_case_sum();
//! let report = Linter::new().lint(&model);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].pass, "case-probability");
//!
//! let clean = ahs_lint::fixtures::clean_demo();
//! assert!(Linter::new().lint(&clean).is_clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod diag;
pub mod fixtures;
mod passes;

pub use diag::{Diagnostic, Report, Severity};
pub use passes::PASS_NAMES;

use ahs_check::StateGraph;
use ahs_san::SanModel;

/// Tuning knobs for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// State budget for bounded reachability (stable *and* unstable
    /// markings count). Exceeding it truncates exploration rather than
    /// failing; see [`Report::exploration_complete`].
    pub max_states: usize,
    /// Tolerance for constant case-probability sums.
    pub epsilon: f64,
    /// Per-element sample cap used by the marking-sampling passes
    /// (case distributions, gate traces, confusion pairs, rates).
    pub max_samples: usize,
    /// Place-name substrings marking *intended* absorbing states: an
    /// absorbing marking is legal iff it marks a place whose name
    /// contains one of these patterns.
    pub absorbing_allowlist: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            max_states: 4096,
            epsilon: 1e-6,
            max_samples: 256,
            absorbing_allowlist: Vec::new(),
        }
    }
}

impl LintConfig {
    /// The allowlist used for the paper's AHS models: vehicle-level
    /// (`v_KO`) and system-level (`KO_total`) catastrophic sinks are
    /// intended absorbing states — the unsafety measure *is* the
    /// probability of reaching them.
    pub fn ahs_allowlist() -> Vec<String> {
        vec!["v_KO".to_owned(), "KO_total".to_owned()]
    }
}

/// The pass manager: runs every lint pass over a model and collects the
/// findings into a [`Report`].
#[derive(Debug, Clone, Default)]
pub struct Linter {
    config: LintConfig,
}

impl Linter {
    /// A linter with the default configuration.
    pub fn new() -> Self {
        Linter::default()
    }

    /// A linter with an explicit configuration.
    pub fn with_config(config: LintConfig) -> Self {
        Linter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Lints `model`: explores bounded reachability once, feeds it to
    /// every pass, and returns the ranked report.
    pub fn lint(&self, model: &SanModel) -> Report {
        let graph = self.explore(model);
        let diagnostics = self.run_passes(model, &graph);
        Report::new(model.name(), graph.len(), graph.complete(), diagnostics)
    }

    /// Like [`Linter::lint`], but follows the bounded passes with the
    /// exhaustive `ahs-check` model checker as a deep stage, exploring
    /// up to `deep_max_states` markings.
    ///
    /// The deep stage does three things the bounded passes cannot:
    ///
    /// - proves (rather than samples) absorption, escalation soundness,
    ///   and boundedness, reporting violations with minimal
    ///   counterexample traces under the `model-check` pass;
    /// - reconciles the bounded `dead-activity` findings against the
    ///   exact dead set — confirmed findings are upgraded to proof
    ///   language, refuted ones retracted to an info note;
    /// - warns when even the deep budget truncates, so a clean report
    ///   is never mistaken for a proof.
    pub fn lint_deep(&self, model: &SanModel, deep_max_states: usize) -> Report {
        let graph = self.explore(model);
        let mut diagnostics = self.run_passes(model, &graph);
        let checker = ahs_check::Checker::with_config(ahs_check::CheckConfig {
            max_states: deep_max_states,
            absorbing_allowlist: self.config.absorbing_allowlist.clone(),
            ..ahs_check::CheckConfig::default()
        });
        let outcome = checker
            .check(model)
            .expect("exploration without an interrupt flag cannot fail");
        if outcome.graph.complete() {
            diagnostics = passes::dead::reconcile(diagnostics, &outcome.dead_activities);
        }
        diagnostics.extend(passes::model_check::run(&outcome));
        Report::new(model.name(), graph.len(), graph.complete(), diagnostics)
    }

    /// The bounded reachability sample: the checker's marking graph,
    /// truncated at [`LintConfig::max_states`].
    fn explore(&self, model: &SanModel) -> StateGraph {
        StateGraph::explore(model, self.config.max_states, None)
            .expect("exploration without an interrupt flag cannot fail")
    }

    fn run_passes(&self, model: &SanModel, graph: &StateGraph) -> Vec<Diagnostic> {
        let mut diagnostics = Vec::new();
        diagnostics.extend(passes::structure::run(model, &self.config));
        diagnostics.extend(passes::case_prob::run(model, graph, &self.config));
        diagnostics.extend(passes::dead::run(model, graph, &self.config));
        diagnostics.extend(passes::absorbing::run(model, graph, &self.config));
        diagnostics.extend(passes::confusion::run(model, graph, &self.config));
        diagnostics.extend(passes::gate_purity::run(model, graph, &self.config));
        diagnostics.extend(passes::write_set::run(model, graph, &self.config));
        diagnostics.extend(passes::delay_sanity::run(model, graph, &self.config));
        diagnostics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_fixture_is_clean() {
        let report = Linter::new().lint(&fixtures::clean_demo());
        assert!(report.is_clean(), "{report}");
        assert!(report.exploration_complete);
    }

    #[test]
    fn every_broken_fixture_trips_its_pass() {
        let cases: [(ahs_san::SanModel, &str); 4] = [
            (fixtures::broken_case_sum(), "case-probability"),
            (fixtures::broken_orphan(), "structure"),
            (fixtures::broken_rate(), "delay-sanity"),
            (fixtures::broken_gate(), "gate-purity"),
        ];
        for (model, pass) in cases {
            let report = Linter::new().lint(&model);
            assert!(
                report
                    .diagnostics()
                    .iter()
                    .any(|d| d.pass == pass && d.severity == Severity::Error),
                "fixture `{}` did not produce an error from pass `{pass}`: {report}",
                report.model,
            );
        }
    }

    #[test]
    fn deep_lint_confirms_clean_model() {
        let model = ahs_check::fixtures::escalation_chain();
        let linter = Linter::with_config(LintConfig {
            absorbing_allowlist: LintConfig::ahs_allowlist(),
            ..LintConfig::default()
        });
        let report = linter.lint_deep(&model, 1 << 12);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn deep_lint_reports_model_check_violation_with_trace() {
        let model = ahs_check::fixtures::broken_escalation();
        let linter = Linter::with_config(LintConfig {
            absorbing_allowlist: LintConfig::ahs_allowlist(),
            ..LintConfig::default()
        });
        let report = linter.lint_deep(&model, 1 << 12);
        let deep = report
            .diagnostics()
            .iter()
            .find(|d| d.pass == "model-check" && d.severity == Severity::Error)
            .expect("deep stage must report the absorption violation");
        assert!(deep.message.contains("trace: fail -> escalate"), "{deep}");
        assert!(deep.message.contains("replay confirmed"), "{deep}");
    }

    #[test]
    fn deep_lint_retracts_bounded_dead_artifacts() {
        use ahs_san::{Delay, SanBuilder};
        // A 20-step token chain: a bounded budget of 5 markings flags
        // the tail activities as dead; the exhaustive checker proves
        // them live and the findings are retracted to info notes.
        let mut b = SanBuilder::new("chain20");
        let places: Vec<_> = (0..21)
            .map(|i| {
                if i == 0 {
                    b.place_with_tokens("p0", 1).unwrap()
                } else {
                    b.place(&format!("p{i}")).unwrap()
                }
            })
            .collect();
        for i in 0..20 {
            b.timed_activity(&format!("step{i}"), Delay::exponential(1.0))
                .unwrap()
                .input_place(places[i])
                .output_place(places[i + 1])
                .build()
                .unwrap();
        }
        let model = b.build().unwrap();
        let linter = Linter::with_config(LintConfig {
            max_states: 5,
            absorbing_allowlist: vec!["p20".to_owned()],
            ..LintConfig::default()
        });
        let shallow = linter.lint(&model);
        assert!(shallow
            .diagnostics()
            .iter()
            .any(|d| d.pass == "dead-activity" && d.severity > Severity::Info));
        let deep = linter.lint_deep(&model, 1 << 10);
        assert!(
            deep.diagnostics()
                .iter()
                .filter(|d| d.pass == "dead-activity")
                .all(|d| d.severity == Severity::Info),
            "{deep}"
        );
        assert!(!deep.has_errors(), "{deep}");
    }

    #[test]
    fn pass_names_are_unique_and_match_reports() {
        let mut names = PASS_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PASS_NAMES.len());
        let report = Linter::new().lint(&fixtures::broken_gate());
        for d in report.diagnostics() {
            assert!(PASS_NAMES.contains(&d.pass), "unknown pass `{}`", d.pass);
        }
    }
}
