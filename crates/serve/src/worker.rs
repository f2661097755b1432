//! The one job-attempt protocol: what runs inside the hidden
//! `ahs serve-worker` process.
//!
//! An attempt reads the job's spec from `job.json` in its namespaced
//! state directory, heartbeats a file for the supervisor's staleness
//! watch, evaluates the job with exactly the configuration
//! `ahs evaluate` would build for the same spec (same checkpoint
//! namespace, so resumes stay bitwise), writes `manifest.json` when it
//! finishes, and reports through two channels:
//!
//! * **exit code**: 0 finished, 75 (`EX_TEMPFAIL`) drained on the stop
//!   flag, 1 typed failure; anything else is a crash.
//! * **`outcome.json`**: the estimates / error detail the exit code
//!   alone cannot carry, written atomically so the supervisor either
//!   reads a complete document or (correctly) treats the attempt as
//!   crashed.
//!
//! The supervisor passes the digest of the spec it admitted
//! ([`JobSpec::digest`]), and the attempt refuses to run when the spec
//! it parsed from `job.json` renders to a different one: an edited or
//! corrupted `job.json` fails the job instead of silently evaluating
//! another study. Resumes are guarded separately: the checkpoint
//! records seed, chunk, grid, stopping rule and model fingerprint, and
//! the study rejects one taken from a different configuration.
//!
//! Resource budgets are not part of the protocol: the `serve-worker`
//! entry point applies `setrlimit` to its own process before calling
//! [`run_worker`], so a caller of [`run_worker`] is never capped by it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ahs_core::{AhsError, BiasMode, UnsafetyCurve, UnsafetyEvaluator};
use ahs_des::Watchdog;
use ahs_obs::{atomic_write, heartbeat_write, Json, ProgressSink};

use crate::job::{read_curve, set_key, write_curve, AdmissionPolicy, JobSpec};
use crate::supervisor::restartable;

/// Schema tag of `outcome.json`.
pub const WORKER_OUTCOME_SCHEMA: &str = "ahs-serve-worker-outcome/v1";

/// Exit code for a graceful drain (`EX_TEMPFAIL`), mirrored from the
/// CLI's interrupted-run convention.
pub const WORKER_EXIT_DRAINED: u8 = 75;

/// Everything one attempt needs besides its stop flag; the
/// `serve-worker` mode parses it from argv.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The job's state directory (holds `job.json`, checkpoints,
    /// telemetry, heartbeat, and the outcome document).
    pub job_dir: PathBuf,
    /// Replications between checkpoint flushes.
    pub checkpoint_every: u64,
    /// Heartbeat cadence.
    pub heartbeat_interval: Duration,
    /// Server-policy watchdog forwarded by the supervisor.
    pub watchdog: Option<Watchdog>,
    /// The [`JobSpec::digest`] the supervisor admitted; evaluation
    /// refuses to start if the spec in `job.json` digests differently.
    pub expect_spec: Option<u64>,
}

/// Runs one job attempt to completion and returns its exit code (0
/// finished, 75 drained, 1 typed failure). Raising `stop` drains the
/// study at its next chunk boundary with a flushed checkpoint.
pub fn run_worker(options: &WorkerOptions, stop: &Arc<AtomicBool>) -> u8 {
    let _heartbeat = Heartbeat::start(
        options.job_dir.join("heartbeat"),
        options.heartbeat_interval,
    );
    let start = Instant::now();
    let outcome_path = options.job_dir.join("outcome.json");
    match evaluate(options, stop) {
        Ok(Evaluated::Finished {
            curve,
            wall_seconds,
            telemetry_dropped,
        }) => {
            write_outcome(
                &outcome_path,
                &finished_outcome(&curve, wall_seconds, telemetry_dropped),
            );
            0
        }
        Ok(Evaluated::Drained { replications }) => {
            write_outcome(
                &outcome_path,
                &drained_outcome(replications, start.elapsed().as_secs_f64()),
            );
            WORKER_EXIT_DRAINED
        }
        Err(error) => {
            write_outcome(
                &outcome_path,
                &failed_outcome(
                    &error.to_string(),
                    error.restartable,
                    start.elapsed().as_secs_f64(),
                ),
            );
            eprintln!("serve-worker: {}", error.message);
            1
        }
    }
}

/// A typed worker failure plus whether a restart could help.
struct WorkerError {
    message: String,
    restartable: bool,
}

impl WorkerError {
    fn fatal(message: impl Into<String>) -> WorkerError {
        WorkerError {
            message: message.into(),
            restartable: false,
        }
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<AhsError> for WorkerError {
    fn from(error: AhsError) -> WorkerError {
        WorkerError {
            restartable: restartable(&error),
            message: error.to_string(),
        }
    }
}

enum Evaluated {
    Finished {
        curve: UnsafetyCurve,
        wall_seconds: f64,
        telemetry_dropped: u64,
    },
    Drained {
        replications: u64,
    },
}

fn evaluate(options: &WorkerOptions, stop: &Arc<AtomicBool>) -> Result<Evaluated, WorkerError> {
    let spec_path = options.job_dir.join("job.json");
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| WorkerError::fatal(format!("reading {}: {e}", spec_path.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| WorkerError::fatal(format!("parsing {}: {e}", spec_path.display())))?;
    // The spec on disk was already clamped by the server's admission
    // policy; re-validating against an arbitrary policy here could
    // silently change threads/replications and break bitwise resume.
    let permissive = AdmissionPolicy {
        max_replications: u64::MAX,
        max_threads: usize::MAX,
        quarantine_cap: u64::MAX,
        watchdog: None,
    };
    let spec = JobSpec::from_json(&doc, &permissive)
        .map_err(|e| WorkerError::fatal(format!("invalid {}: {e}", spec_path.display())))?;
    if let Some(expected) = options.expect_spec {
        let found = spec.digest();
        if found != expected {
            return Err(WorkerError::fatal(format!(
                "job spec mismatch: the supervisor admitted digest {expected:016x}, \
                 {} digests to {found:016x}",
                spec_path.display()
            )));
        }
    }

    let progress = Arc::new(
        ProgressSink::file(&options.job_dir.join("telemetry.jsonl"))
            .map_err(|e| WorkerError::fatal(format!("opening telemetry sink: {e}")))?,
    );
    // Exactly the evaluator `ahs evaluate` would build for the same
    // spec, checkpointed into the job directory: it resumes from there
    // whenever a retained generation survives an earlier attempt.
    let mut eval = UnsafetyEvaluator::new(spec.params.clone())
        .with_seed(spec.seed)
        .with_threads(spec.threads)
        .with_replications(spec.replications)
        .with_checkpoint(
            options.job_dir.join("checkpoint.json"),
            options.checkpoint_every,
        )
        .with_quarantine_budget(spec.quarantine_budget)
        .with_interrupt(stop.clone())
        .with_progress(progress.clone());
    if spec.plain {
        eval = eval.with_bias(BiasMode::None);
    }
    if let Some(watchdog) = options.watchdog {
        eval = eval.with_watchdog(watchdog);
    }

    let start = Instant::now();
    let curve = eval.evaluate(&spec.grid())?;
    let wall_seconds = start.elapsed().as_secs_f64();
    if curve.interrupted() {
        return Ok(Evaluated::Drained {
            replications: curve.replications(),
        });
    }
    // The attempt is the only manifest writer, so provenance is
    // recorded by whatever actually produced the estimates.
    let manifest = eval.manifest("ahs serve", &curve, wall_seconds);
    let manifest_path = options.job_dir.join("manifest.json");
    if let Err(e) = manifest.write(&manifest_path) {
        eprintln!(
            "serve-worker: warning: could not write {}: {e}",
            manifest_path.display()
        );
    }
    Ok(Evaluated::Finished {
        curve,
        wall_seconds,
        telemetry_dropped: progress.dropped(),
    })
}

/// The heartbeat thread, stopped and joined on drop — also when a
/// panicking attempt unwinds past it.
struct Heartbeat {
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    fn start(path: PathBuf, interval: Duration) -> Heartbeat {
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        let handle = std::thread::Builder::new()
            .name("heartbeat".to_owned())
            .spawn(move || {
                let mut beat = 0u64;
                while !flag.load(Ordering::Relaxed) {
                    // The heartbeat failpoint skips one write — which is
                    // exactly what a real stalled IO does — so the chaos
                    // tier can exercise the supervisor's staleness watch.
                    let skip = matches!(
                        ahs_inject::eval("serve::worker::heartbeat"),
                        Some(ahs_inject::Fault::Error(_))
                    );
                    if !skip {
                        heartbeat_write(&path, beat).ok();
                        beat += 1;
                    }
                    std::thread::park_timeout(interval);
                }
            })
            .ok();
        Heartbeat { done, handle }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            handle.join().ok();
        }
    }
}

// --- the outcome document ---------------------------------------------

fn base_outcome(kind: &str, wall_seconds: f64) -> Vec<(String, Json)> {
    vec![
        ("schema".to_owned(), Json::str(WORKER_OUTCOME_SCHEMA)),
        ("outcome".to_owned(), Json::str(kind)),
        ("error".to_owned(), Json::Null),
        ("wall_seconds".to_owned(), wall_seconds.into()),
        ("telemetry_dropped".to_owned(), 0u64.into()),
        ("replications".to_owned(), 0u64.into()),
        ("converged".to_owned(), Json::Null),
        ("quarantined".to_owned(), 0u64.into()),
        ("resume_lineage".to_owned(), Json::Arr(Vec::new())),
        ("resume_fallback".to_owned(), Json::Null),
        ("estimates".to_owned(), Json::Arr(Vec::new())),
    ]
}

fn finished_outcome(curve: &UnsafetyCurve, wall_seconds: f64, telemetry_dropped: u64) -> Json {
    let mut doc = base_outcome("finished", wall_seconds);
    set_key(&mut doc, "telemetry_dropped", telemetry_dropped.into());
    write_curve(&mut doc, curve);
    Json::Obj(doc)
}

fn drained_outcome(replications: u64, wall_seconds: f64) -> Json {
    let mut doc = base_outcome("drained", wall_seconds);
    set_key(&mut doc, "replications", replications.into());
    Json::Obj(doc)
}

fn failed_outcome(message: &str, restartable: bool, wall_seconds: f64) -> Json {
    let mut doc = base_outcome("failed", wall_seconds);
    set_key(
        &mut doc,
        "error",
        Json::Obj(vec![
            ("message".to_owned(), Json::str(message.to_owned())),
            ("restartable".to_owned(), Json::Bool(restartable)),
        ]),
    );
    Json::Obj(doc)
}

fn write_outcome(path: &Path, doc: &Json) {
    let mut text = doc.render();
    text.push('\n');
    // Atomic on purpose: the supervisor must never read a torn
    // document and mistake a drain for a crash (or worse, a crash for
    // a finish).
    if let Err(e) = atomic_write(path, text.as_bytes()) {
        eprintln!(
            "serve-worker: warning: could not write {}: {e}",
            path.display()
        );
    }
}

/// The supervisor-side view of `outcome.json`.
#[derive(Debug)]
pub(crate) struct WorkerOutcome {
    kind: String,
    /// Final estimates (present only for a finished outcome).
    pub curve: Option<UnsafetyCurve>,
    /// Telemetry drops in the worker's sink.
    pub telemetry_dropped: u64,
    /// Replications completed (drain progress).
    pub replications: u64,
    /// Typed failure message.
    pub message: String,
    /// Whether the worker judged its failure worth a restart.
    pub restartable: bool,
}

impl WorkerOutcome {
    /// Parses `path`; `None` on missing/torn/mis-shaped documents —
    /// the supervisor treats that exactly like a crash.
    pub fn read(path: &Path) -> Option<WorkerOutcome> {
        let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some(WORKER_OUTCOME_SCHEMA) {
            return None;
        }
        let kind = doc.get("outcome").and_then(Json::as_str)?.to_owned();
        let error = doc.get("error").filter(|e| !matches!(e, Json::Null));
        Some(WorkerOutcome {
            curve: read_curve(&doc),
            telemetry_dropped: doc
                .get("telemetry_dropped")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            replications: doc.get("replications").and_then(Json::as_u64).unwrap_or(0),
            message: error
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("worker reported an unspecified failure")
                .to_owned(),
            restartable: error
                .and_then(|e| e.get("restartable"))
                .and_then(Json::as_bool)
                .unwrap_or(false),
            kind,
        })
    }

    /// Whether the worker reported final estimates.
    pub fn is_finished(&self) -> bool {
        self.kind == "finished"
    }

    /// Whether the worker reported a typed failure.
    pub fn is_failed(&self) -> bool {
        self.kind == "failed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ahs-worker-outcome-{tag}-{}", std::process::id()))
    }

    #[test]
    fn outcome_documents_roundtrip() {
        let path = temp_path("roundtrip");
        write_outcome(&path, &drained_outcome(1234, 0.5));
        let outcome = WorkerOutcome::read(&path).expect("drained outcome must parse");
        assert!(!outcome.is_finished());
        assert!(!outcome.is_failed());
        assert_eq!(outcome.replications, 1234);
        assert!(outcome.curve.is_none(), "a drain carries no estimates");

        write_outcome(&path, &failed_outcome("checkpoint eaten", true, 0.1));
        let outcome = WorkerOutcome::read(&path).expect("failed outcome must parse");
        assert!(outcome.is_failed());
        assert!(outcome.restartable);
        assert_eq!(outcome.message, "checkpoint eaten");

        let points = vec![
            ahs_core::CurvePoint {
                x: 0.1,
                y: 0.1 + 0.2,
                half_width: 1e-300 / 3.0,
                samples: 7,
            },
            ahs_core::CurvePoint {
                x: 2.0 / 3.0,
                y: f64::MIN_POSITIVE / 7.0,
                half_width: 0.0,
                samples: u64::MAX,
            },
        ];
        let curve = UnsafetyCurve::from_parts(points, 4321, true, 3, vec![10, 20, 30], Some(2));
        write_outcome(&path, &finished_outcome(&curve, 1.5, 9));
        let outcome = WorkerOutcome::read(&path).expect("finished outcome must parse");
        assert!(outcome.is_finished());
        assert_eq!(outcome.telemetry_dropped, 9);
        let back = outcome.curve.expect("a finish carries its curve");
        assert_eq!(back, curve);
        for (a, b) in back.points().iter().zip(curve.points()) {
            assert_eq!(
                [a.x, a.y, a.half_width].map(f64::to_bits),
                [b.x, b.y, b.half_width].map(f64::to_bits)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_or_alien_documents_read_as_none() {
        let path = temp_path("torn");
        assert!(WorkerOutcome::read(&path).is_none(), "missing file");
        std::fs::write(&path, b"{\"outcome\": \"finished\"").unwrap();
        assert!(WorkerOutcome::read(&path).is_none(), "torn JSON");
        std::fs::write(
            &path,
            b"{\"schema\": \"other/v1\", \"outcome\": \"finished\"}\n",
        )
        .unwrap();
        assert!(WorkerOutcome::read(&path).is_none(), "alien schema");
        std::fs::remove_file(&path).ok();
    }
}
