//! Run manifests: JSON provenance records for studies and benchmarks.

use std::path::Path;
use std::sync::OnceLock;

use crate::fsio::write_with_retry;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;

/// Schema identifier embedded in every manifest (see
/// `tests/run-manifest.schema.json` for the field catalog).
pub const MANIFEST_SCHEMA: &str = "ahs-run-manifest/v1";

/// The revision of the source tree that produced a run.
///
/// Prefers the `AHS_GIT_REVISION` environment variable (for builds
/// outside a checkout, and for `ahs serve` workers, which inherit their
/// server's), then asks `git rev-parse HEAD`, and falls back to
/// `"unknown"`. Resolved once per process: later calls neither read the
/// variable again nor start `git`.
pub fn git_revision() -> String {
    static REVISION: OnceLock<String> = OnceLock::new();
    REVISION
        .get_or_init(|| {
            let env = std::env::var("AHS_GIT_REVISION").ok();
            pick_revision(env.as_deref(), || {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
                    .filter(|out| out.status.success())
                    .and_then(|out| String::from_utf8(out.stdout).ok())
            })
        })
        .clone()
}

/// The env → git → `"unknown"` choice behind [`git_revision`]: `git`
/// runs only when `env` is unset or blank.
fn pick_revision(env: Option<&str>, git: impl FnOnce() -> Option<String>) -> String {
    env.map(str::trim)
        .filter(|rev| !rev.is_empty())
        .map(str::to_owned)
        .or_else(|| {
            git()
                .map(|rev| rev.trim().to_owned())
                .filter(|rev| !rev.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The stopping rule a study ran under, in manifest form.
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingSpec {
    /// Confidence level of the interval test (e.g. 0.95).
    pub confidence: f64,
    /// Target relative half-width, if the run used a precision rule.
    pub relative_half_width: Option<f64>,
    /// Minimum replications before the rule may fire.
    pub min_samples: u64,
    /// Replication budget cap, if any.
    pub max_samples: Option<u64>,
}

impl StoppingSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("confidence", self.confidence.into()),
            (
                "relative_half_width",
                self.relative_half_width.map_or(Json::Null, Json::Num),
            ),
            ("min_samples", self.min_samples.into()),
            (
                "max_samples",
                self.max_samples.map_or(Json::Null, Json::UInt),
            ),
        ])
    }
}

/// One estimated point: a `(series, x)` coordinate with its value and
/// confidence half-width.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatePoint {
    /// Which series the point belongs to (e.g. a figure curve label).
    pub series: String,
    /// The x coordinate (time bound, vehicle count, …).
    pub x: f64,
    /// The point estimate.
    pub y: f64,
    /// Confidence-interval half-width at the manifest's confidence.
    pub half_width: f64,
    /// Effective samples behind the estimate.
    pub samples: u64,
}

impl EstimatePoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("series", Json::str(&self.series)),
            ("x", self.x.into()),
            ("y", self.y.into()),
            ("half_width", self.half_width.into()),
            ("samples", self.samples.into()),
        ])
    }
}

/// A complete provenance record for one study or benchmark run.
///
/// Written as `<result>.manifest.json` next to every result the
/// workspace produces; re-running the named tool with the recorded
/// seed and thread count reproduces the recorded estimates exactly
/// (see the determinism test tier).
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The producing tool (e.g. `"ahs evaluate"`, `"ahs-bench fig10"`).
    pub tool: String,
    /// Human-readable model/figure identifier.
    pub model: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Confidence level of the reported half-widths.
    pub confidence: f64,
    /// The stopping rule, if the run used adaptive stopping.
    pub stopping: Option<StoppingSpec>,
    /// Full model parameters as a JSON object.
    pub params: Json,
    /// Git revision of the producing tree.
    pub git_revision: String,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Total replications executed.
    pub replications: u64,
    /// Whether every adaptive stopping rule reported convergence.
    pub converged: bool,
    /// Final estimates with confidence half-widths.
    pub estimates: Vec<EstimatePoint>,
    /// Telemetry snapshot, when a sink was attached.
    pub metrics: Option<MetricsSnapshot>,
    /// Tool-specific extra fields, merged into the top-level object.
    pub extra: Vec<(String, Json)>,
}

impl RunManifest {
    /// Creates a manifest with required identity fields; everything
    /// else starts empty and is filled in by the caller.
    pub fn new(tool: impl Into<String>, model: impl Into<String>, seed: u64) -> Self {
        RunManifest {
            tool: tool.into(),
            model: model.into(),
            seed,
            threads: 1,
            confidence: 0.95,
            stopping: None,
            params: Json::Obj(Vec::new()),
            git_revision: git_revision(),
            wall_seconds: 0.0,
            replications: 0,
            converged: true,
            estimates: Vec::new(),
            metrics: None,
            extra: Vec::new(),
        }
    }

    /// Replications per wall-clock second (0 when the clock is 0).
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.replications as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Serializes the manifest as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_owned(), Json::str(MANIFEST_SCHEMA)),
            ("tool".to_owned(), Json::str(&self.tool)),
            ("model".to_owned(), Json::str(&self.model)),
            ("seed".to_owned(), self.seed.into()),
            ("threads".to_owned(), self.threads.into()),
            ("confidence".to_owned(), self.confidence.into()),
            (
                "stopping".to_owned(),
                self.stopping
                    .as_ref()
                    .map_or(Json::Null, StoppingSpec::to_json),
            ),
            ("params".to_owned(), self.params.clone()),
            ("git_revision".to_owned(), Json::str(&self.git_revision)),
            ("wall_seconds".to_owned(), self.wall_seconds.into()),
            ("replications".to_owned(), self.replications.into()),
            (
                "replications_per_second".to_owned(),
                self.throughput().into(),
            ),
            ("converged".to_owned(), self.converged.into()),
            (
                "estimates".to_owned(),
                Json::Arr(self.estimates.iter().map(EstimatePoint::to_json).collect()),
            ),
            (
                "metrics".to_owned(),
                self.metrics
                    .as_ref()
                    .map_or(Json::Null, MetricsSnapshot::to_json),
            ),
        ];
        for (k, v) in &self.extra {
            fields.push((k.clone(), v.clone()));
        }
        Json::Obj(fields)
    }

    /// Renders the manifest as a pretty-enough single-line JSON
    /// document terminated by a newline.
    pub fn render(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }

    /// Writes the manifest to `path` atomically (temp file + rename,
    /// with bounded retry on transient errors; see
    /// [`crate::write_with_retry`]), creating parent directories as
    /// needed. A crash mid-write can never leave a truncated manifest
    /// at `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_with_retry(path, self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("ahs evaluate", "ahs-n4", 2009);
        m.threads = 4;
        m.confidence = 0.95;
        m.stopping = Some(StoppingSpec {
            confidence: 0.95,
            relative_half_width: Some(0.1),
            min_samples: 1000,
            max_samples: Some(100_000),
        });
        m.params = Json::obj(vec![("lambda", Json::Num(1e-5)), ("n", Json::UInt(4))]);
        m.wall_seconds = 2.0;
        m.replications = 10_000;
        m.estimates.push(EstimatePoint {
            series: "unsafety".to_owned(),
            x: 1.0,
            y: 1.2e-6,
            half_width: 1.1e-7,
            samples: 10_000,
        });
        m
    }

    #[test]
    fn manifest_contains_required_fields() {
        let json = sample().render();
        for needle in [
            "\"schema\":\"ahs-run-manifest/v1\"",
            "\"tool\":\"ahs evaluate\"",
            "\"seed\":2009",
            "\"threads\":4",
            "\"relative_half_width\":0.1",
            "\"lambda\":0.00001",
            "\"replications\":10000",
            "\"replications_per_second\":5000",
            "\"series\":\"unsafety\"",
            "\"half_width\":0.00000011",
            "\"git_revision\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn throughput_handles_zero_clock() {
        let mut m = sample();
        m.wall_seconds = 0.0;
        assert_eq!(m.throughput(), 0.0);
    }

    #[test]
    fn extra_fields_merge_at_top_level() {
        let mut m = sample();
        m.extra
            .push(("bias_scheme".to_owned(), Json::str("two-level")));
        assert!(m.render().contains("\"bias_scheme\":\"two-level\""));
    }

    #[test]
    fn metrics_snapshot_embeds() {
        let metrics = Metrics::new();
        metrics.add_replications(7);
        let mut m = sample();
        m.metrics = Some(metrics.snapshot());
        assert!(m.render().contains("\"metrics\":{\"replications\":7"));
    }

    #[test]
    fn write_creates_parent_directories() {
        let _g = crate::serial();
        let dir = std::env::temp_dir().join(format!(
            "ahs-obs-manifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("nested/run.manifest.json");
        sample().write(&path).expect("write succeeds");
        let body = std::fs::read_to_string(&path).expect("readable");
        assert!(body.contains("ahs-run-manifest/v1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_revision_prefers_env() {
        let no_git =
            || -> Option<String> { panic!("git must not run when the env names a revision") };
        assert_eq!(pick_revision(Some("deadbeef"), no_git), "deadbeef");
        assert_eq!(pick_revision(Some(" deadbeef\n"), no_git), "deadbeef");
        let git = || Some("cafef00d\n".to_owned());
        assert_eq!(pick_revision(Some("  "), git), "cafef00d");
        assert_eq!(pick_revision(None, git), "cafef00d");
        assert_eq!(pick_revision(None, || Some(" ".to_owned())), "unknown");
        assert_eq!(pick_revision(None, || None), "unknown");
    }
}
