//! Job specifications, admission policy, lifecycle state, and the
//! persisted status document.
//!
//! Every accepted job owns a directory `jobs/job-NNNNNN/` under the
//! server's state dir:
//!
//! * `job.json` — the normalized spec, written once at admission;
//! * `status.json` — the full status document, rewritten atomically at
//!   every phase change (this is what survives a SIGTERM and what the
//!   CI smoke job inspects);
//! * `checkpoint.json` (+ rotated generations) — the study checkpoint,
//!   namespaced per job so concurrent jobs can never clobber each
//!   other;
//! * `telemetry.jsonl` — JSON-lines progress events, appended across
//!   attempts;
//! * `manifest.json` — the standard run manifest, written on finish.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use ahs_core::{CurvePoint, Params, Strategy, UnsafetyCurve};
use ahs_des::Watchdog;
use ahs_obs::{fnv1a_64, write_with_retry, Json};
use ahs_stats::TimeGrid;

/// Schema tag of the job-status document (`status.json` and every
/// job-status HTTP response).
pub const JOB_SCHEMA: &str = "ahs-serve-job/v1";

/// Schema tag of the persisted job spec (`job.json`).
pub const JOB_SPEC_SCHEMA: &str = "ahs-serve-job-spec/v1";

/// Largest grid a job may ask for. The worker materializes the grid
/// before it evaluates anything, so an unbounded `points` would be an
/// allocation the size of the request's integer.
const MAX_POINTS: u64 = 1_000;

/// Server-side admission limits, applied when a submission is parsed.
///
/// Budgets the CLI exposes per run (`--quarantine-budget`,
/// `--watchdog-*`) become *policy* here: a job may request any
/// quarantine budget up to [`quarantine_cap`](Self::quarantine_cap)
/// and any thread count up to [`max_threads`](Self::max_threads)
/// (clamped, not rejected), while a replication budget beyond
/// [`max_replications`](Self::max_replications) is rejected outright
/// with a 422 — the caller asked for more work than this server is
/// configured to accept.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Largest acceptable fixed replication budget.
    pub max_replications: u64,
    /// Hard clamp on per-job worker threads.
    pub max_threads: usize,
    /// Largest acceptable per-job quarantine budget.
    pub quarantine_cap: u64,
    /// Watchdog applied to every job (server policy, not requestable).
    pub watchdog: Option<Watchdog>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_replications: 2_000_000,
            max_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            quarantine_cap: 1_000,
            watchdog: None,
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug)]
pub enum SubmitError {
    /// Malformed or invalid spec → 400.
    Invalid(String),
    /// Well-formed but beyond this server's admission policy → 422.
    OverPolicy(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(reason) => write!(f, "invalid job spec: {reason}"),
            SubmitError::OverPolicy(reason) => write!(f, "rejected by admission policy: {reason}"),
        }
    }
}

/// A validated evaluation request: the same knobs as
/// `ahs evaluate`, normalized against an [`AdmissionPolicy`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Full model parameters (n, λ, platoons, strategy).
    pub params: Params,
    /// Master seed.
    pub seed: u64,
    /// Fixed replication budget.
    pub replications: u64,
    /// Longest trip duration, hours.
    pub horizon: f64,
    /// Grid points.
    pub points: usize,
    /// Worker threads for this job's study (clamped by policy).
    pub threads: usize,
    /// Plain Monte Carlo instead of dynamic importance sampling.
    pub plain: bool,
    /// Panicking replications tolerated before the job fails.
    pub quarantine_budget: u64,
}

fn get_u64(doc: &Json, key: &str, default: u64) -> Result<u64, SubmitError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| SubmitError::Invalid(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_f64(doc: &Json, key: &str, default: f64) -> Result<f64, SubmitError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SubmitError::Invalid(format!("`{key}` must be a number"))),
    }
}

impl JobSpec {
    /// Parses and validates a submission (or a persisted `job.json`)
    /// against `policy`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for malformed fields or parameters the
    /// model itself rejects; [`SubmitError::OverPolicy`] for
    /// well-formed requests beyond the server's admission limits.
    pub fn from_json(doc: &Json, policy: &AdmissionPolicy) -> Result<JobSpec, SubmitError> {
        let strategy = match doc.get("strategy").map(|s| s.as_str()) {
            None => Strategy::Dd,
            Some(Some(s)) => match s.to_ascii_uppercase().as_str() {
                "DD" => Strategy::Dd,
                "DC" => Strategy::Dc,
                "CD" => Strategy::Cd,
                "CC" => Strategy::Cc,
                other => {
                    return Err(SubmitError::Invalid(format!(
                        "unknown strategy `{other}` (use DD/DC/CD/CC)"
                    )))
                }
            },
            Some(None) => return Err(SubmitError::Invalid("`strategy` must be a string".into())),
        };
        let params = Params::builder()
            .n(get_u64(doc, "n", 10)? as usize)
            .lambda(get_f64(doc, "lambda", 1e-5)?)
            .platoons(get_u64(doc, "platoons", 2)? as usize)
            .strategy(strategy)
            .build()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;

        let horizon = get_f64(doc, "horizon", 10.0)?;
        let points = get_u64(doc, "points", 5)?;
        if !(horizon.is_finite() && horizon > 0.0) || points < 1 {
            return Err(SubmitError::Invalid(
                "need a positive horizon and at least one grid point".into(),
            ));
        }
        if points > MAX_POINTS {
            return Err(SubmitError::Invalid(format!(
                "`points` must be at most {MAX_POINTS}"
            )));
        }
        let replications = get_u64(doc, "reps", 20_000)?;
        if replications == 0 {
            return Err(SubmitError::Invalid("`reps` must be positive".into()));
        }
        if replications > policy.max_replications {
            return Err(SubmitError::OverPolicy(format!(
                "reps {} exceeds this server's budget of {}",
                replications, policy.max_replications
            )));
        }
        let quarantine_budget = get_u64(doc, "quarantine_budget", 0)?;
        if quarantine_budget > policy.quarantine_cap {
            return Err(SubmitError::OverPolicy(format!(
                "quarantine_budget {} exceeds this server's cap of {}",
                quarantine_budget, policy.quarantine_cap
            )));
        }
        let threads = (get_u64(doc, "threads", 1)? as usize).clamp(1, policy.max_threads.max(1));
        let plain = match doc.get("plain") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| SubmitError::Invalid("`plain` must be a boolean".into()))?,
        };

        Ok(JobSpec {
            params,
            seed: get_u64(doc, "seed", 2009)?,
            replications,
            horizon,
            points: points as usize,
            threads,
            plain,
            quarantine_budget,
        })
    }

    /// The normalized spec as JSON — persisted to `job.json` and
    /// embedded in every status document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".to_owned(), (self.params.n as u64).into()),
            ("lambda".to_owned(), self.params.lambda.into()),
            ("platoons".to_owned(), (self.params.platoons as u64).into()),
            (
                "strategy".to_owned(),
                Json::str(self.params.strategy.name()),
            ),
            ("horizon".to_owned(), self.horizon.into()),
            ("points".to_owned(), (self.points as u64).into()),
            ("reps".to_owned(), self.replications.into()),
            ("seed".to_owned(), self.seed.into()),
            ("threads".to_owned(), (self.threads as u64).into()),
            ("plain".to_owned(), self.plain.into()),
            (
                "quarantine_budget".to_owned(),
                self.quarantine_budget.into(),
            ),
        ])
    }

    /// FNV-1a digest of [`to_json`](Self::to_json)'s rendering: what
    /// the supervisor hands a worker attempt so the attempt can prove
    /// it parsed the spec that was admitted.
    pub fn digest(&self) -> u64 {
        fnv1a_64(self.to_json().render().as_bytes())
    }

    /// The evaluation grid, derived exactly like `ahs evaluate` does.
    pub fn grid(&self) -> TimeGrid {
        if self.points == 1 {
            TimeGrid::new(vec![self.horizon])
        } else {
            TimeGrid::linspace(self.horizon / self.points as f64, self.horizon, self.points)
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A supervised worker is evaluating it.
    Running,
    /// The server drained while this job was in flight; its final
    /// checkpoint is on disk and a restart resumes it bitwise.
    Interrupted {
        /// Replications completed before the drain.
        replications: u64,
    },
    /// Evaluation completed; estimates are final.
    Finished(UnsafetyCurve),
    /// Evaluation failed with a typed error (after exhausting the
    /// supervisor's restart budget, where applicable).
    Failed(String),
}

impl Phase {
    /// The wire name of this phase.
    pub fn state(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Interrupted { .. } => "interrupted",
            Phase::Finished(_) => "finished",
            Phase::Failed(_) => "failed",
        }
    }
}

/// Overwrites `key`'s value in a document under construction; a key
/// the document does not carry is left out.
pub(crate) fn set_key(doc: &mut [(String, Json)], key: &str, value: Json) {
    if let Some(slot) = doc.iter_mut().find(|(k, _)| k == key) {
        slot.1 = value;
    }
}

/// Writes a finished curve into a document that carries its six keys
/// — `replications`, `converged`, `quarantined`, `resume_lineage`,
/// `resume_fallback` and `estimates` — as placeholders. `status.json`
/// and a worker's `outcome.json` both render a curve this way, and
/// [`read_curve`] parses either back.
pub(crate) fn write_curve(doc: &mut [(String, Json)], curve: &UnsafetyCurve) {
    set_key(doc, "replications", curve.replications().into());
    set_key(doc, "converged", Json::Bool(curve.converged()));
    set_key(doc, "quarantined", curve.quarantined().into());
    let lineage = curve.resume_lineage().iter().map(|w| Json::UInt(*w));
    set_key(doc, "resume_lineage", Json::Arr(lineage.collect()));
    let fallback = curve.resume_fallback();
    let fallback = fallback.map_or(Json::Null, |g| Json::UInt(g.into()));
    set_key(doc, "resume_fallback", fallback);
    let estimates = curve.points().iter().map(|p| {
        Json::Obj(vec![
            ("x".to_owned(), p.x.into()),
            ("y".to_owned(), p.y.into()),
            ("half_width".to_owned(), p.half_width.into()),
            ("samples".to_owned(), p.samples.into()),
        ])
    });
    set_key(doc, "estimates", Json::Arr(estimates.collect()));
}

/// Rebuilds the curve [`write_curve`] rendered; `None` when the
/// document carries no estimates or a key is mis-shaped. The estimate
/// floats round-trip bitwise through the shortest-roundtrip JSON
/// rendering, so a restarted server reports the exact bits the
/// original evaluation produced.
pub(crate) fn read_curve(doc: &Json) -> Option<UnsafetyCurve> {
    let estimates = doc.get("estimates")?.as_array()?;
    let points = estimates
        .iter()
        .map(|e| {
            Some(CurvePoint {
                x: e.get("x")?.as_f64()?,
                y: e.get("y")?.as_f64()?,
                half_width: e.get("half_width")?.as_f64()?,
                samples: e.get("samples")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    if points.is_empty() {
        return None;
    }
    Some(UnsafetyCurve::from_parts(
        points,
        doc.get("replications")?.as_u64()?,
        doc.get("converged")?.as_bool().unwrap_or(false),
        doc.get("quarantined")?.as_u64().unwrap_or(0),
        doc.get("resume_lineage")?
            .as_array()?
            .iter()
            .filter_map(Json::as_u64)
            .collect(),
        doc.get("resume_fallback")?.as_u64().map(|g| g as u32),
    ))
}

/// One accepted job: immutable spec plus mutable lifecycle state.
#[derive(Debug)]
pub struct Job {
    /// Monotonic admission sequence number (also the directory name).
    pub seq: u64,
    /// Public id, `job-NNNNNN`.
    pub name: String,
    /// The validated spec, or `None` for a recovered job whose
    /// persisted `job.json` this server rejects: such a job is listed as
    /// failed and never run.
    pub spec: Option<JobSpec>,
    /// The persisted `job.json` fields of a rejected job, as found,
    /// for its status documents; `Null` when `spec` is set.
    rejected_spec: Json,
    /// This job's state directory.
    pub dir: PathBuf,
    phase: Mutex<Phase>,
    /// Supervisor restarts consumed so far (crash recoveries).
    pub restarts: AtomicU32,
    /// Telemetry events dropped across all attempts.
    pub telemetry_dropped: AtomicU64,
    /// PID of the isolated worker process currently evaluating this
    /// job (0 between attempts).
    pub worker_pid: AtomicU32,
}

impl Job {
    /// A fresh job in [`Phase::Queued`].
    pub fn new(seq: u64, spec: JobSpec, dir: PathBuf) -> Job {
        Job::with_spec(seq, Some(spec), Json::Null, dir)
    }

    /// A recovered job whose persisted `job.json` document `persisted`
    /// this server rejects, in [`Phase::Queued`] until the caller fails
    /// it. Its status documents show the persisted spec fields as
    /// found.
    pub fn rejected(seq: u64, persisted: &Json, dir: PathBuf) -> Job {
        let fields = match persisted {
            Json::Obj(fields) => fields
                .iter()
                .filter(|(key, _)| key != "schema" && key != "seq")
                .cloned()
                .collect(),
            _ => Vec::new(),
        };
        Job::with_spec(seq, None, Json::Obj(fields), dir)
    }

    fn with_spec(seq: u64, spec: Option<JobSpec>, rejected_spec: Json, dir: PathBuf) -> Job {
        Job {
            seq,
            name: format!("job-{seq:06}"),
            spec,
            rejected_spec,
            dir,
            phase: Mutex::new(Phase::Queued),
            restarts: AtomicU32::new(0),
            telemetry_dropped: AtomicU64::new(0),
            worker_pid: AtomicU32::new(0),
        }
    }

    /// This job's checkpoint path — namespaced by the job directory,
    /// so two concurrent jobs can never clobber each other's
    /// generations.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    /// Current lifecycle phase (cloned snapshot).
    pub fn phase(&self) -> Phase {
        self.phase_guard().clone()
    }

    /// Replaces the phase and rewrites `status.json` (best-effort,
    /// with retry; a failed write is reported on stderr, never fatal —
    /// the in-memory state and HTTP responses stay authoritative).
    pub fn set_phase(&self, phase: Phase) {
        *self.phase_guard() = phase;
        self.persist_status();
    }

    /// Direct access to the phase slot — recovery restores in-memory
    /// state from disk without re-writing `status.json`.
    pub(crate) fn phase_guard(&self) -> std::sync::MutexGuard<'_, Phase> {
        // A panic between lock and unlock would have happened inside
        // `clone` or a field write; the value is never left torn, so
        // poisoning is recoverable.
        self.phase
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Renders the full status document. Every key of the
    /// `ahs-serve-job/v1` schema is present in *every* phase (with
    /// `null` / empty placeholders), so consumers never need
    /// phase-dependent parsing.
    pub fn status_json(&self) -> Json {
        let phase = self.phase();
        let mut doc = vec![
            ("schema".to_owned(), Json::str(JOB_SCHEMA)),
            ("id".to_owned(), Json::str(self.name.clone())),
            ("seq".to_owned(), self.seq.into()),
            ("state".to_owned(), Json::str(phase.state())),
            (
                "spec".to_owned(),
                self.spec
                    .as_ref()
                    .map_or_else(|| self.rejected_spec.clone(), JobSpec::to_json),
            ),
            (
                "restarts".to_owned(),
                u64::from(self.restarts.load(Ordering::Relaxed)).into(),
            ),
            ("quarantined".to_owned(), 0u64.into()),
            (
                "telemetry_dropped".to_owned(),
                self.telemetry_dropped.load(Ordering::Relaxed).into(),
            ),
            (
                "worker_pid".to_owned(),
                match self.worker_pid.load(Ordering::Relaxed) {
                    0 => Json::Null,
                    pid => Json::UInt(u64::from(pid)),
                },
            ),
            ("replications".to_owned(), 0u64.into()),
            ("converged".to_owned(), Json::Null),
            ("resume_lineage".to_owned(), Json::Arr(Vec::new())),
            ("resume_fallback".to_owned(), Json::Null),
            ("estimates".to_owned(), Json::Arr(Vec::new())),
            ("error".to_owned(), Json::Null),
        ];
        match &phase {
            Phase::Finished(curve) => write_curve(&mut doc, curve),
            Phase::Interrupted { replications } => {
                set_key(&mut doc, "replications", (*replications).into());
            }
            Phase::Failed(reason) => set_key(&mut doc, "error", Json::str(reason.clone())),
            Phase::Queued | Phase::Running => {}
        }
        Json::Obj(doc)
    }

    /// Records (or clears, with `None`) the isolated worker evaluating
    /// this job, and republishes `status.json` so chaos tooling can
    /// target the live process by PID.
    pub fn set_worker_pid(&self, pid: Option<u32>) {
        self.worker_pid.store(pid.unwrap_or(0), Ordering::Relaxed);
        self.persist_status();
    }

    /// Rewrites `status.json` from the current state.
    pub fn persist_status(&self) {
        let mut text = self.status_json().render();
        text.push('\n');
        let path = self.dir.join("status.json");
        if let Err(e) = write_with_retry(&path, text.as_bytes()) {
            eprintln!("warning: could not persist {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AdmissionPolicy {
        AdmissionPolicy::default()
    }

    fn parse(text: &str) -> Result<JobSpec, SubmitError> {
        JobSpec::from_json(&Json::parse(text).unwrap(), &policy())
    }

    #[test]
    fn defaults_fill_in() {
        let spec = parse("{}").unwrap();
        assert_eq!(spec.params.n, 10);
        assert_eq!(spec.seed, 2009);
        assert_eq!(spec.replications, 20_000);
        assert_eq!(spec.threads, 1);
        assert!(!spec.plain);
    }

    #[test]
    fn roundtrips_through_json() {
        let spec =
            parse(r#"{"n":4,"lambda":5e-3,"strategy":"cc","reps":500,"seed":7,"plain":true}"#)
                .unwrap();
        let again = JobSpec::from_json(&spec.to_json(), &policy()).unwrap();
        assert_eq!(again.params, spec.params);
        assert_eq!(again.seed, spec.seed);
        assert_eq!(again.replications, spec.replications);
        assert_eq!(again.plain, spec.plain);
    }

    #[test]
    fn policy_rejections_are_typed() {
        assert!(matches!(
            parse(r#"{"reps":3000000}"#),
            Err(SubmitError::OverPolicy(_))
        ));
        assert!(matches!(
            parse(r#"{"quarantine_budget":100000}"#),
            Err(SubmitError::OverPolicy(_))
        ));
        assert!(matches!(
            parse(r#"{"strategy":"xy"}"#),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            parse(r#"{"platoons":1}"#),
            Err(SubmitError::Invalid(_))
        ));
        for points in [r#"{"points":1001}"#, r#"{"points":18446744073709551615}"#] {
            assert!(
                matches!(parse(points), Err(SubmitError::Invalid(_))),
                "{points}"
            );
        }
        assert_eq!(parse(r#"{"points":1000}"#).unwrap().points, 1000);
    }

    #[test]
    fn threads_clamp_to_policy() {
        let spec = parse(r#"{"threads":100000}"#).unwrap();
        assert!(spec.threads <= policy().max_threads);
        assert!(spec.threads >= 1);
    }

    #[test]
    fn status_document_has_every_schema_key_in_every_phase() {
        let spec = parse("{}").unwrap();
        let job = Job::new(3, spec, std::env::temp_dir());
        for phase in [
            Phase::Queued,
            Phase::Running,
            Phase::Interrupted { replications: 10 },
            Phase::Failed("boom".into()),
        ] {
            *job.phase_guard() = phase;
            let doc = job.status_json();
            for key in [
                "schema",
                "id",
                "seq",
                "state",
                "spec",
                "restarts",
                "quarantined",
                "telemetry_dropped",
                "worker_pid",
                "replications",
                "converged",
                "resume_lineage",
                "resume_fallback",
                "estimates",
                "error",
            ] {
                assert!(doc.get(key).is_some(), "missing {key}");
            }
        }
        assert_eq!(
            job.status_json().get("state").unwrap().as_str(),
            Some("failed")
        );
    }
}
