//! High-level evaluation of the unsafety measure `S(t)`.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ahs_des::{
    generation_path, Backend, BiasScheme, Study, StudyCheckpoint, Watchdog, CHECKPOINT_GENERATIONS,
};
use ahs_obs::{fnv1a_64, EstimatePoint, Json, Metrics, ProgressSink, RunManifest, StoppingSpec};
use ahs_san::SanModel;
use ahs_stats::{CurvePoint, StoppingRule, TimeGrid};

use crate::error::AhsError;
use crate::model::{AhsModel, ModelHandles};
use crate::params::Params;

/// An AHS model built once and shareable across evaluations: the
/// composed [`SanModel`] behind an [`Arc`] (exactly what [`Study`]
/// stores internally, so sharing it adds no copy) and the
/// [`ModelHandles`] the measure and bias scheme need.
///
/// [`UnsafetyEvaluator::evaluate`] builds a private instance;
/// [`UnsafetyEvaluator::evaluate_compiled`] accepts one built earlier,
/// so a caller evaluating several studies of one configuration pays
/// for the build once. Both produce bitwise-identical estimates: the
/// model is a pure function of [`Params`], and the replication streams
/// never depend on how it was obtained.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    san: Arc<SanModel>,
    handles: ModelHandles,
    params: Params,
}

impl CompiledModel {
    /// Builds and composes the SAN for `params`.
    ///
    /// # Errors
    ///
    /// Returns [`AhsError::InvalidParameter`] for out-of-range
    /// parameters (same validation as
    /// [`UnsafetyEvaluator::evaluate`]).
    pub fn build(params: &Params) -> Result<Self, AhsError> {
        let (san, handles) = AhsModel::build(params)?.into_san();
        Ok(CompiledModel {
            san: Arc::new(san),
            handles,
            params: params.clone(),
        })
    }

    /// Handles into the composed model (measure place, severity
    /// counters, activity groups).
    pub fn handles(&self) -> &ModelHandles {
        &self.handles
    }

    /// The parameters this model was compiled from.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The composed SAN, shareable across concurrent studies.
    pub fn san(&self) -> &Arc<SanModel> {
        &self.san
    }
}

/// The per-study checkpoint file name used when a checkpoint target is
/// a *directory*: `study-<seed>-<params digest>.checkpoint.json`.
///
/// `ahs evaluate --checkpoint DIR/` and `ahs-bench --checkpoint-dir`
/// both name their files here, so two studies over different seeds or
/// parameters can never clobber each other's checkpoint generations
/// even when pointed at the same directory, and a re-run finds its own
/// file again.
#[must_use]
pub fn study_checkpoint_path(dir: &Path, seed: u64, params: &Params) -> PathBuf {
    let digest = fnv1a_64(params.to_json().render().as_bytes());
    dir.join(format!("study-{seed:016x}-{digest:016x}.checkpoint.json"))
}

/// An evaluated `S(t)` curve.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsafetyCurve {
    points: Vec<CurvePoint>,
    replications: u64,
    converged: bool,
    interrupted: bool,
    quarantined: u64,
    resume_lineage: Vec<u64>,
    resume_fallback: Option<u32>,
}

impl UnsafetyCurve {
    /// Reassembles a finished curve from persisted parts — the path a
    /// restarted service takes when reloading a completed job's status
    /// document. The result is never marked interrupted: only finished
    /// evaluations are persisted this way.
    pub fn from_parts(
        points: Vec<CurvePoint>,
        replications: u64,
        converged: bool,
        quarantined: u64,
        resume_lineage: Vec<u64>,
        resume_fallback: Option<u32>,
    ) -> Self {
        UnsafetyCurve {
            points,
            replications,
            converged,
            interrupted: false,
            quarantined,
            resume_lineage,
            resume_fallback,
        }
    }

    /// The evaluated points, ascending in `x`.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Total replications executed.
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// Whether the stopping rule's precision target was met.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Whether the evaluation stopped early on an interrupt
    /// (SIGINT/SIGTERM); when a checkpoint path was configured, the
    /// final state was flushed there first.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Replications whose body panicked and was quarantined (excluded
    /// from the estimates).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Watermarks of the checkpoints this evaluation (transitively)
    /// resumed from, oldest first; empty for a fresh run.
    pub fn resume_lineage(&self) -> &[u64] {
        &self.resume_lineage
    }

    /// When resuming had to fall back past a corrupt latest checkpoint,
    /// the generation that was actually loaded (1 = `<name>.1.<ext>`);
    /// `None` when the latest generation was valid or no resume
    /// happened.
    pub fn resume_fallback(&self) -> Option<u32> {
        self.resume_fallback
    }

    /// `S(t)` at the grid point closest to `t_hours`.
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    pub fn at(&self, t_hours: f64) -> CurvePoint {
        *self
            .points
            .iter()
            .min_by(|a, b| {
                (a.x - t_hours)
                    .abs()
                    .partial_cmp(&(b.x - t_hours).abs())
                    .expect("grid points are finite")
            })
            .expect("curve has at least one point")
    }
}

/// How the evaluator biases failure rates for rare-event estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiasMode {
    /// Two-level *dynamic* failure biasing (the default).
    ///
    /// A constant boost is a poor change of measure for transient
    /// studies over long horizons: every sample path accumulates many
    /// irrelevant boosted failures whose `1/boost` likelihood factors
    /// crush the weights of late hits, so the estimated `S(t)` sags
    /// artificially after the first hours (confirmed against plain
    /// Monte Carlo — see `ahs-bench --bin is_diagnostics`). Instead:
    ///
    /// * while **no vehicle is recovering**, failure rates get a
    ///   moderate boost chosen so the whole fleet sees ≈1.5 biased
    ///   failures per trip ([`first_level_boost`]);
    /// * while **a recovery maneuver is in progress** (the shared
    ///   severity counters are non-zero), the boost rises so that a
    ///   concurrent second failure — the ingredient of every Table 2
    ///   situation — becomes likely within the maneuver window
    ///   ([`second_level_boost`]).
    ///
    /// Likelihood ratios stay exact per transition, so the estimator
    /// remains unbiased.
    ///
    /// [`first_level_boost`]: UnsafetyEvaluator::first_level_boost
    /// [`second_level_boost`]: UnsafetyEvaluator::second_level_boost
    Auto,
    /// Plain Monte Carlo (only viable for large λ).
    None,
    /// A fixed, constant rate multiplier on every failure activity.
    /// Useful for diagnostics; suffers the weight-collapse problem at
    /// large values.
    Fixed(f64),
}

/// Evaluates the unsafety `S(t)` of an AHS configuration by simulating
/// its composed SAN model.
///
/// The measure is the probability that the `KO_total` place is marked
/// by time `t` (paper §3): a first-passage probability, since the
/// unsafe state is absorbing. For the paper's failure rates
/// (λ ≈ 1e-5/hr) the event is far too rare for plain Monte Carlo, so
/// the evaluator applies dynamic failure biasing (see
/// [`BiasMode::Auto`]); the estimate stays unbiased through exact
/// likelihood-ratio weighting.
#[derive(Debug, Clone)]
pub struct UnsafetyEvaluator {
    params: Params,
    seed: u64,
    threads: Option<usize>,
    rule: StoppingRule,
    bias: BiasMode,
    metrics: Option<Arc<Metrics>>,
    progress: Option<Arc<ProgressSink>>,
    checkpoint: Option<(PathBuf, u64)>,
    interrupt: Option<Arc<AtomicBool>>,
    quarantine_budget: u64,
    watchdog: Option<Watchdog>,
}

impl UnsafetyEvaluator {
    /// Creates an evaluator with the paper's stopping rule (≥10 000
    /// replications, 95% / 0.1 relative precision) capped at 400 000
    /// replications.
    pub fn new(params: Params) -> Self {
        UnsafetyEvaluator {
            params,
            seed: 0x5AFE,
            threads: None,
            rule: StoppingRule::relative_precision(0.95, 0.1)
                .with_min_samples(10_000)
                .with_max_samples(400_000),
            bias: BiasMode::Auto,
            metrics: None,
            progress: None,
            checkpoint: None,
            interrupt: None,
            quarantine_budget: 0,
            watchdog: None,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fixes the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Runs exactly `n` replications.
    #[must_use]
    pub fn with_replications(mut self, n: u64) -> Self {
        self.rule = StoppingRule::fixed(n);
        self
    }

    /// Replaces the stopping rule.
    #[must_use]
    pub fn with_rule(mut self, rule: StoppingRule) -> Self {
        self.rule = rule;
        self
    }

    /// Sets the bias mode.
    #[must_use]
    pub fn with_bias(mut self, bias: BiasMode) -> Self {
        self.bias = bias;
        self
    }

    /// Attaches a telemetry sink threaded down into the simulation
    /// workers.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a JSON-lines progress sink.
    #[must_use]
    pub fn with_progress(mut self, progress: Arc<ProgressSink>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Writes an atomic `ahs-checkpoint/v1` snapshot to `path` every
    /// `every` completed replications (and always once at the end), and
    /// resumes from `path` whenever a checkpoint is already there.
    ///
    /// When any retained generation of `path` exists,
    /// [`evaluate`](UnsafetyEvaluator::evaluate) continues from the
    /// newest valid one, bitwise identical to an uninterrupted run; a
    /// corrupt or truncated latest generation falls back to
    /// `<name>.1.<ext>` with a logged warning, recorded in
    /// [`UnsafetyCurve::resume_fallback`] and the manifest. A checkpoint
    /// taken with another seed, parameters, grid or stopping rule fails
    /// the evaluation and is left untouched. With no checkpoint on disk
    /// the evaluation starts fresh.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// Polls `flag` at chunk boundaries and stops gracefully when it is
    /// raised (pair with [`ahs_obs::interrupt_flag`] for SIGINT/SIGTERM
    /// handling).
    #[must_use]
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Tolerates up to `budget` panicking replications per evaluation
    /// (quarantined and excluded rather than fatal).
    #[must_use]
    pub fn with_quarantine_budget(mut self, budget: u64) -> Self {
        self.quarantine_budget = budget;
        self
    }

    /// Bounds each replication by event count / wall-clock time.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// The parameters under evaluation.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Master seed of the evaluation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread count the study will actually use (the
    /// explicit setting, or the machine's available parallelism).
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The stopping rule in force.
    pub fn rule(&self) -> StoppingRule {
        self.rule
    }

    /// The bias mode in force.
    pub fn bias_mode(&self) -> BiasMode {
        self.bias
    }

    /// Builds a provenance manifest for an evaluated curve: seed,
    /// thread count, stopping rule, full parameters, bias mode, and
    /// the estimates themselves. `wall_seconds` is the caller-measured
    /// duration of [`evaluate`](UnsafetyEvaluator::evaluate).
    pub fn manifest(&self, tool: &str, curve: &UnsafetyCurve, wall_seconds: f64) -> RunManifest {
        let mut m = RunManifest::new(tool, format!("ahs-unsafety-n{}", self.params.n), self.seed);
        m.threads = self.effective_threads();
        m.confidence = self.rule.confidence();
        m.stopping = Some(StoppingSpec {
            confidence: self.rule.confidence(),
            relative_half_width: self.rule.relative_half_width(),
            min_samples: self.rule.min_samples(),
            max_samples: self.rule.max_samples(),
        });
        m.params = self.params.to_json();
        m.wall_seconds = wall_seconds;
        m.replications = curve.replications();
        m.converged = curve.converged();
        m.estimates = curve
            .points()
            .iter()
            .map(|p| EstimatePoint {
                series: "unsafety".to_owned(),
                x: p.x,
                y: p.y,
                half_width: p.half_width,
                samples: p.samples,
            })
            .collect();
        m.metrics = self.metrics.as_ref().map(|mx| mx.snapshot());
        m.extra.push((
            "bias_mode".to_owned(),
            Json::str(match self.bias {
                BiasMode::Auto => "auto".to_owned(),
                BiasMode::None => "none".to_owned(),
                BiasMode::Fixed(f) => format!("fixed:{f}"),
            }),
        ));
        m.extra
            .push(("interrupted".to_owned(), curve.interrupted().into()));
        m.extra
            .push(("quarantined".to_owned(), curve.quarantined().into()));
        m.extra.push((
            "resume_lineage".to_owned(),
            Json::Arr(
                curve
                    .resume_lineage()
                    .iter()
                    .map(|w| Json::UInt(*w))
                    .collect(),
            ),
        ));
        m.extra.push((
            "resume_fallback".to_owned(),
            curve
                .resume_fallback()
                .map_or(Json::Null, |g| Json::UInt(u64::from(g))),
        ));
        m.extra.push((
            "telemetry_dropped".to_owned(),
            self.progress.as_ref().map_or(0_u64, |p| p.dropped()).into(),
        ));
        m
    }

    /// The healthy-state boost of [`BiasMode::Auto`]: targets ≈1.5
    /// biased failures across the whole fleet per trip of
    /// `horizon_hours`, clamped to `[1, 1e7]`. Keeping the *fleet*
    /// total small bounds the number of irrelevant `1/boost`
    /// likelihood factors per path.
    pub fn first_level_boost(&self, horizon_hours: f64) -> f64 {
        let fleet_rate = self.params.total_vehicles() as f64 * self.params.total_failure_rate();
        (1.5 / (fleet_rate * horizon_hours)).clamp(1.0, 1e7)
    }

    /// The recovering-state boost of [`BiasMode::Auto`]: targets ≈0.8
    /// biased failures across the fleet within one mean maneuver window
    /// (`1/μ̄`), making the concurrent second failure of Table 2
    /// likely while a recovery is in progress. Clamped to `[1, 1e7]`.
    pub fn second_level_boost(&self) -> f64 {
        let fleet_rate = self.params.total_vehicles() as f64 * self.params.total_failure_rate();
        let mean_window_hours = 1.0 / self.params.maneuver_rates.mean_rate();
        (0.8 / (fleet_rate * mean_window_hours)).clamp(1.0, 1e7)
    }

    /// Evaluates `S(t)` over `grid` (hours).
    ///
    /// # Errors
    ///
    /// Returns [`AhsError`] for invalid parameters or simulation
    /// failures.
    pub fn evaluate(&self, grid: &TimeGrid) -> Result<UnsafetyCurve, AhsError> {
        let compiled = CompiledModel::build(&self.params)?;
        self.evaluate_compiled(grid, &compiled)
    }

    /// Evaluates `S(t)` over `grid` using an already-built model.
    /// Bitwise-identical to [`evaluate`](UnsafetyEvaluator::evaluate)
    /// for the same parameters, seed, and stopping rule.
    ///
    /// # Errors
    ///
    /// Returns [`AhsError::InvalidParameter`] if `compiled` was built
    /// from different parameters than this evaluator holds (a caller
    /// mixing up its models must fail loudly, not silently evaluate
    /// the wrong one), or any simulation failure.
    pub fn evaluate_compiled(
        &self,
        grid: &TimeGrid,
        compiled: &CompiledModel,
    ) -> Result<UnsafetyCurve, AhsError> {
        if compiled.params != self.params {
            return Err(AhsError::InvalidParameter {
                name: "compiled_model",
                reason: "the model was built from different parameters than the \
                         evaluator holds"
                    .to_owned(),
            });
        }
        let handles = &compiled.handles;

        let failures = handles.failure_activities.iter().copied();
        let backend = match self.bias {
            BiasMode::None => Backend::Markov,
            BiasMode::Fixed(f) if f <= 1.0 => Backend::Markov,
            BiasMode::Fixed(f) => {
                Backend::BiasedMarkov(BiasScheme::new().with_multipliers(failures, f))
            }
            BiasMode::Auto => {
                let b1 = self.first_level_boost(grid.horizon());
                let b2 = self.second_level_boost();
                if b1 <= 1.0 && b2 <= 1.0 {
                    Backend::Markov
                } else {
                    let factor = (b2 / b1).max(1.0);
                    let (ca, cb, cc) = (handles.class_a, handles.class_b, handles.class_c);
                    let scheme = BiasScheme::new()
                        .with_multipliers(failures, b1)
                        .with_state_factor(move |m| {
                            if m.tokens(ca) + m.tokens(cb) + m.tokens(cc) > 0 {
                                factor
                            } else {
                                1.0
                            }
                        });
                    Backend::BiasedMarkov(scheme)
                }
            }
        };

        let mut study = Study::new(compiled.san.clone())
            .with_seed(self.seed)
            .with_rule(self.rule);
        if let Some(t) = self.threads {
            study = study.with_threads(t);
        }
        if let Some(m) = &self.metrics {
            study = study.with_metrics(m.clone());
        }
        if let Some(p) = &self.progress {
            study = study.with_progress(p.clone());
        }
        let mut resume_fallback = None;
        if let Some((path, every)) = &self.checkpoint {
            study = study.with_checkpoint(path, *every);
            let retained = (0..CHECKPOINT_GENERATIONS).any(|g| generation_path(path, g).exists());
            if retained {
                let (cp, generation) = StudyCheckpoint::load_with_fallback(path)?;
                if generation > 0 {
                    // A crash between the rotation rename and the new
                    // write leaves generation 0 absent, not corrupt.
                    let why = if generation_path(path, 0).exists() {
                        "corrupt or unreadable"
                    } else {
                        "missing (an interrupted rotation)"
                    };
                    eprintln!(
                        "warning: checkpoint {} was {why}; \
                         resuming from retained generation {generation} \
                         (watermark {})",
                        path.display(),
                        cp.watermark
                    );
                    if let Some(p) = &self.progress {
                        p.emit(
                            "resume_fallback",
                            vec![
                                ("path", Json::str(path.display().to_string())),
                                ("generation", u64::from(generation).into()),
                                ("watermark", cp.watermark.into()),
                            ],
                        );
                    }
                    resume_fallback = Some(generation);
                }
                study = study.with_resume(cp);
            }
        }
        if let Some(flag) = &self.interrupt {
            study = study.with_interrupt(flag.clone());
        }
        study = study.with_quarantine_budget(self.quarantine_budget);
        if let Some(w) = &self.watchdog {
            study = study.with_watchdog(*w);
        }

        let ko = handles.ko_total;
        let est = study.first_passage(move |m| m.is_marked(ko), grid, backend)?;

        Ok(UnsafetyCurve {
            points: est.curve.points(self.rule.confidence()),
            replications: est.replications,
            converged: est.converged,
            interrupted: est.interrupted,
            quarantined: est.quarantined.len() as u64,
            resume_lineage: est.resume_lineage,
            resume_fallback,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boost_levels_scale_sensibly() {
        let p = Params::builder().lambda(1e-5).n(8).build().unwrap();
        let e = UnsafetyEvaluator::new(p);
        let b1_10 = e.first_level_boost(10.0);
        let b1_2 = e.first_level_boost(2.0);
        assert!(
            b1_2 > b1_10,
            "shorter horizon needs a larger first-level boost"
        );
        let fleet = 16.0 * 14.0 * 1e-5;
        assert!((b1_10 - 1.5 / (fleet * 10.0)).abs() < 1e-6);
        // The second level is far more aggressive than the first.
        assert!(e.second_level_boost() > b1_10);

        let p = Params::builder().lambda(1.0).build().unwrap();
        let e = UnsafetyEvaluator::new(p);
        assert_eq!(
            e.first_level_boost(10.0),
            1.0,
            "no boost needed for large λ"
        );
        assert_eq!(e.second_level_boost(), 1.0);
    }

    #[test]
    fn evaluate_small_model_high_lambda() {
        // λ large enough that plain MC sees hits: S(t) must be
        // increasing and within (0, 1).
        let p = Params::builder().lambda(0.05).n(3).build().unwrap();
        let e = UnsafetyEvaluator::new(p)
            .with_seed(42)
            .with_replications(4_000)
            .with_bias(BiasMode::None)
            .with_threads(2);
        let grid = TimeGrid::new(vec![2.0, 6.0, 10.0]);
        let curve = e.evaluate(&grid).unwrap();
        let pts = curve.points();
        assert_eq!(pts.len(), 3);
        assert!(pts[0].y > 0.0, "expected hits at λ=0.05: {}", pts[0].y);
        assert!(pts[0].y <= pts[1].y && pts[1].y <= pts[2].y);
        assert!(pts[2].y < 1.0);
        assert!(curve.replications() >= 4_000);
    }

    #[test]
    fn auto_bias_and_plain_agree_in_overlap_regime() {
        let p = Params::builder().lambda(0.02).n(2).build().unwrap();
        let grid = TimeGrid::new(vec![6.0]);
        let plain = UnsafetyEvaluator::new(p.clone())
            .with_seed(7)
            .with_replications(30_000)
            .with_bias(BiasMode::None)
            .with_threads(2)
            .evaluate(&grid)
            .unwrap();
        let auto = UnsafetyEvaluator::new(p)
            .with_seed(8)
            .with_replications(30_000)
            .with_bias(BiasMode::Auto)
            .with_threads(2)
            .evaluate(&grid)
            .unwrap();
        let a = plain.points()[0];
        let b = auto.points()[0];
        let gap = (a.y - b.y).abs();
        assert!(
            gap <= 3.0 * (a.half_width + b.half_width),
            "plain {} ± {} vs auto {} ± {}",
            a.y,
            a.half_width,
            b.y,
            b.half_width
        );
    }

    #[test]
    fn failing_telemetry_sink_degrades_but_completes() {
        // A progress sink whose writer always fails must never abort
        // the study; the losses surface as `telemetry_dropped` in the
        // manifest instead.
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "telemetry disk full",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let p = Params::builder().lambda(0.05).n(2).build().unwrap();
        let sink = Arc::new(ProgressSink::to_writer(Box::new(Broken)));
        let e = UnsafetyEvaluator::new(p)
            .with_seed(3)
            .with_replications(2_000)
            .with_bias(BiasMode::None)
            .with_threads(2)
            .with_progress(sink.clone());
        let grid = TimeGrid::new(vec![2.0]);
        let curve = e
            .evaluate(&grid)
            .expect("telemetry loss must not fail the study");
        assert!(curve.replications() >= 2_000);
        assert!(sink.dropped() > 0, "every emit should have failed");

        let manifest = e.manifest("test", &curve, 0.1);
        let dropped = manifest
            .extra
            .iter()
            .find(|(k, _)| k == "telemetry_dropped")
            .and_then(|(_, v)| v.as_u64())
            .expect("manifest records telemetry_dropped");
        assert!(dropped > 0, "manifest must report the dropped events");
    }

    #[test]
    fn resume_falls_back_past_corrupt_latest_checkpoint() {
        // A checkpointed evaluation retains the previous generation;
        // corrupting the latest file must not strand the resume — it
        // falls back to `<name>.1.json`, records the generation on the
        // curve and in the manifest, and still reproduces the baseline
        // bitwise.
        let dir = std::env::temp_dir().join(format!(
            "ahs-core-fallback-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("eval.checkpoint.json");

        let p = Params::builder().lambda(0.05).n(2).build().unwrap();
        let make = || {
            UnsafetyEvaluator::new(p.clone())
                .with_seed(9)
                .with_replications(2_000)
                .with_bias(BiasMode::None)
                .with_threads(2)
        };
        let grid = TimeGrid::new(vec![2.0]);
        let baseline = make().evaluate(&grid).unwrap();
        assert_eq!(baseline.resume_fallback(), None);

        make()
            .with_checkpoint(&path, 500)
            .evaluate(&grid)
            .expect("checkpointed run completes");
        assert!(path.exists(), "latest checkpoint written");

        // Truncate the latest generation mid-document.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();

        // Re-running with the same checkpoint path resumes from it.
        let e = make().with_checkpoint(&path, 500);
        let resumed = e.evaluate(&grid).expect("fallback resume succeeds");
        assert_eq!(resumed.resume_fallback(), Some(1));
        assert_eq!(
            resumed.points(),
            baseline.points(),
            "fallback resume must stay bitwise identical"
        );

        let manifest = e.manifest("test", &resumed, 0.1);
        let generation = manifest
            .extra
            .iter()
            .find(|(k, _)| k == "resume_fallback")
            .and_then(|(_, v)| v.as_u64())
            .expect("manifest records resume_fallback");
        assert_eq!(generation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn curve_lookup_at() {
        let curve = UnsafetyCurve {
            points: vec![
                CurvePoint {
                    x: 2.0,
                    y: 0.1,
                    half_width: 0.0,
                    samples: 1,
                },
                CurvePoint {
                    x: 6.0,
                    y: 0.2,
                    half_width: 0.0,
                    samples: 1,
                },
            ],
            replications: 2,
            converged: true,
            interrupted: false,
            quarantined: 0,
            resume_lineage: Vec::new(),
            resume_fallback: None,
        };
        assert_eq!(curve.at(5.9).x, 6.0);
        assert_eq!(curve.at(0.0).x, 2.0);
    }
}
