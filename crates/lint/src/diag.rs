//! Diagnostics, severity ranking, and report serialization.

use std::fmt;

use ahs_obs::Json;

/// Severity of a diagnostic, ordered from least to most severe.
///
/// The CLI's exit code and the CI gate key off [`Severity::Error`]:
/// warnings and notes never fail a build, they are review material.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; not a defect.
    Info,
    /// Suspicious construction that the engine tolerates.
    Warning,
    /// A defect: the model is wrong or will fail at solve/simulate time.
    Error,
}

impl Severity {
    /// Lower-case label used in reports (`"error"`, `"warning"`,
    /// `"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable pass identifier (e.g. `"case-probability"`).
    pub pass: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The model element at fault (activity, place, or gate name).
    pub subject: String,
    /// Human-readable description of the defect.
    pub message: String,
}

impl Diagnostic {
    /// Convenience constructor.
    pub fn new(
        pass: &'static str,
        severity: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            pass,
            severity,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.pass, self.subject, self.message
        )
    }
}

/// The result of linting one model: every diagnostic, ranked most severe
/// first, plus exploration metadata needed to interpret the findings.
#[derive(Debug, Clone)]
pub struct Report {
    /// Name of the linted model.
    pub model: String,
    /// Number of reachable markings visited by the exploration passes.
    pub states_explored: usize,
    /// Whether exploration covered the full reachable set; when `false`
    /// (state budget hit), absence-based findings are downgraded to
    /// warnings because absence cannot be proven.
    pub exploration_complete: bool,
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report, sorting diagnostics by severity (most severe
    /// first), then pass, then subject.
    pub fn new(
        model: impl Into<String>,
        states_explored: usize,
        exploration_complete: bool,
        mut diagnostics: Vec<Diagnostic>,
    ) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.pass.cmp(b.pass))
                .then_with(|| a.subject.cmp(&b.subject))
        });
        Report {
            model: model.into(),
            states_explored,
            exploration_complete,
            diagnostics,
        }
    }

    /// All diagnostics, most severe first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report contains any [`Severity::Error`] diagnostic.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether the report is entirely empty (no findings at all).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serializes the report as a single JSON object.
    ///
    /// The schema is documented in `tests/lint-report.schema.json` at the
    /// workspace root and is what the CI gate consumes; treat field
    /// renames as breaking changes.
    pub fn to_json(&self) -> String {
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("pass", Json::str(d.pass)),
                    ("severity", Json::str(d.severity.label())),
                    ("subject", Json::str(&d.subject)),
                    ("message", Json::str(&d.message)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("ahs-lint-report/v1")),
            ("model", Json::str(&self.model)),
            (
                "exploration",
                Json::obj(vec![
                    ("states", self.states_explored.into()),
                    ("complete", self.exploration_complete.into()),
                ]),
            ),
            (
                "summary",
                Json::obj(vec![
                    ("error", self.count(Severity::Error).into()),
                    ("warning", self.count(Severity::Warning).into()),
                    ("info", self.count(Severity::Info).into()),
                ]),
            ),
            ("diagnostics", Json::Arr(diagnostics)),
        ])
        .render()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint report for `{}` ({} states explored{})",
            self.model,
            self.states_explored,
            if self.exploration_complete {
                ""
            } else {
                ", truncated"
            }
        )?;
        if self.diagnostics.is_empty() {
            writeln!(f, "  clean: no findings")?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn report_sorts_most_severe_first() {
        let r = Report::new(
            "m",
            3,
            true,
            vec![
                Diagnostic::new("b-pass", Severity::Info, "x", "note"),
                Diagnostic::new("a-pass", Severity::Error, "y", "bad"),
                Diagnostic::new("a-pass", Severity::Warning, "z", "meh"),
            ],
        );
        let sevs: Vec<Severity> = r.diagnostics().iter().map(|d| d.severity).collect();
        assert_eq!(
            sevs,
            vec![Severity::Error, Severity::Warning, Severity::Info]
        );
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.count(Severity::Warning), 1);
    }

    #[test]
    fn json_escapes_and_summarizes() {
        let r = Report::new(
            "quo\"te",
            1,
            false,
            vec![Diagnostic::new(
                "gate-purity",
                Severity::Error,
                "g1",
                "line1\nline2",
            )],
        );
        let json = r.to_json();
        assert!(json.contains("\"model\":\"quo\\\"te\""));
        assert!(json.contains("\"message\":\"line1\\nline2\""));
        assert!(json.contains("\"complete\":false"));
        assert!(json.contains("\"error\":1"));
        assert!(json.starts_with("{\"schema\":\"ahs-lint-report/v1\""));
    }

    #[test]
    fn clean_report_displays_clean() {
        let r = Report::new("m", 2, true, vec![]);
        let text = r.to_string();
        assert!(text.contains("clean"));
        assert!(text.contains("0 error(s)"));
        assert!(!r.has_errors());
    }
}
