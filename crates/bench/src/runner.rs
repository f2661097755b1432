//! Shared experiment runner and result types.

use std::sync::Arc;
use std::time::Instant;

use ahs_core::{study_checkpoint_path, AhsError, Params, UnsafetyCurve, UnsafetyEvaluator};
use ahs_obs::{EstimatePoint, Json, Metrics, ProgressSink, RunManifest, StoppingSpec};
use ahs_stats::{CurvePoint, StoppingRule, TimeGrid};

/// One labelled series of a figure (e.g. `n=8`, `λ=1e-5`, `DD`).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points, ascending in `x`: trip duration (hours) or platoon
    /// capacity `n`, depending on the figure.
    pub points: Vec<CurvePoint>,
}

/// A reproduced figure or table.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. `fig10`.
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Name of the x-axis.
    pub x_label: String,
    /// The series.
    pub series: Vec<Series>,
}

/// Execution configuration shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Replications per evaluated point when `paper_precision` is off.
    pub replications: u64,
    /// Use the paper's sequential stopping rule (≥10 000 replications,
    /// 95% / 0.1 relative) instead of a fixed count.
    pub paper_precision: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// If set, append JSON-lines progress events to this file.
    pub telemetry: Option<String>,
    /// If set, emit JSON-lines progress events to stderr.
    pub progress: bool,
    /// If set, write per-point crash-safe checkpoints under this
    /// directory (`<dir>/study-<seed>-<params digest>.checkpoint.json`,
    /// named by [`study_checkpoint_path`]) and resume from any that
    /// already exist there.
    pub checkpoint_dir: Option<String>,
    /// Replications between checkpoint flushes.
    pub checkpoint_every: u64,
    /// Deterministic failpoint spec (`--failpoints`); only effective in
    /// builds with the `inject` feature, loudly rejected otherwise.
    pub failpoints: Option<String>,
}

impl RunConfig {
    /// A quick configuration for smoke runs and tests.
    pub fn quick() -> Self {
        RunConfig {
            replications: 6_000,
            paper_precision: false,
            seed: 2009,
            threads: 0,
            telemetry: None,
            progress: false,
            checkpoint_dir: None,
            checkpoint_every: 100_000,
            failpoints: None,
        }
    }

    /// The paper's convergence criterion.
    pub fn paper() -> Self {
        RunConfig {
            replications: 10_000,
            paper_precision: true,
            ..RunConfig::quick()
        }
    }

    /// Parses `--paper`, `--reps N`, `--seed S`, `--threads T`,
    /// `--telemetry PATH`, `--progress`, `--checkpoint-dir DIR`,
    /// `--checkpoint-every N`, and `--failpoints SPEC` from
    /// command-line arguments (used by every `fig*` binary).
    pub fn from_args(args: &[String]) -> Self {
        let mut cfg = RunConfig::quick();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for `{flag}`"))
            };
            match flag {
                "--paper" => cfg.paper_precision = true,
                "--progress" => cfg.progress = true,
                "--reps" => {
                    cfg.replications = value().parse().expect("--reps takes an integer");
                }
                "--seed" => cfg.seed = value().parse().expect("--seed takes an integer"),
                "--threads" => {
                    cfg.threads = value().parse().expect("--threads takes an integer");
                }
                "--telemetry" => cfg.telemetry = Some(value().clone()),
                "--checkpoint-dir" => cfg.checkpoint_dir = Some(value().clone()),
                "--checkpoint-every" => {
                    cfg.checkpoint_every = value()
                        .parse()
                        .expect("--checkpoint-every takes a positive integer");
                    assert!(
                        cfg.checkpoint_every > 0,
                        "--checkpoint-every takes a positive integer"
                    );
                }
                "--failpoints" => cfg.failpoints = Some(value().clone()),
                other => {
                    panic!(
                        "unknown argument `{other}` (expected --paper/--reps/--seed/\
                         --threads/--telemetry/--progress/--checkpoint-dir/\
                         --checkpoint-every/--failpoints)"
                    )
                }
            }
        }
        cfg
    }

    /// Arms fault injection from `--failpoints` / `AHS_FAILPOINTS`.
    /// Called once by every `fig*` binary before running; a non-empty
    /// spec against a build without the `inject` feature panics instead
    /// of silently doing nothing.
    pub fn arm_failpoints(&self) {
        match &self.failpoints {
            Some(spec) => {
                ahs_inject::configure_from_spec(spec).expect("--failpoints");
            }
            None => {
                ahs_inject::configure_from_env().expect(ahs_inject::ENV_VAR);
            }
        }
    }

    /// The progress sink implied by `--telemetry` / `--progress`, if any.
    pub(crate) fn progress_sink(&self) -> Option<Arc<ProgressSink>> {
        if let Some(path) = &self.telemetry {
            ProgressSink::file(std::path::Path::new(path))
                .ok()
                .map(Arc::new)
        } else if self.progress {
            Some(Arc::new(ProgressSink::stderr()))
        } else {
            None
        }
    }

    /// Builds the evaluator for one experiment point.
    pub(crate) fn evaluator(&self, params: Params, salt: u64) -> UnsafetyEvaluator {
        let seed = self.seed ^ salt;
        let mut e = UnsafetyEvaluator::new(params).with_seed(seed);
        e = if self.paper_precision {
            e.with_rule(
                StoppingRule::relative_precision(0.95, 0.1)
                    .with_min_samples(10_000)
                    .with_max_samples(2_000_000),
            )
        } else {
            e.with_replications(self.replications)
        };
        if self.threads > 0 {
            e = e.with_threads(self.threads);
        }
        if let Some(dir) = &self.checkpoint_dir {
            // One checkpoint per experiment point, keyed by the point's
            // effective seed *and* a digest of its parameters: several
            // series of one figure deliberately share a seed (common
            // random numbers), so the seed alone does not identify the
            // study. The key is stable across runs, so a resumed sweep
            // picks each point's file back up regardless of iteration
            // order; the evaluator resumes from it when it exists.
            let path = study_checkpoint_path(std::path::Path::new(dir), seed, e.params());
            e = e.with_checkpoint(path, self.checkpoint_every);
            e = e.with_interrupt(ahs_obs::interrupt_flag());
        }
        e
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::quick()
    }
}

/// A reproduced figure together with its provenance manifest.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The figure's series, as before.
    pub figure: FigureResult,
    /// Seed, parameters, stopping rule, telemetry, and estimates of the
    /// run that produced it.
    pub manifest: RunManifest,
    /// True when any study was cut short by SIGINT/SIGTERM; the figure
    /// is partial and the binary should exit with
    /// [`ahs_obs::EXIT_INTERRUPTED`] so callers know to resume.
    pub interrupted: bool,
}

/// Per-figure telemetry accumulator: one shared [`Metrics`] sink for
/// every study the figure runs, plus the material the manifest needs.
pub(crate) struct FigTally {
    metrics: Arc<Metrics>,
    progress: Option<Arc<ProgressSink>>,
    start: Instant,
    replications: u64,
    converged: bool,
    interrupted: bool,
    quarantined: u64,
    resume_generations: u64,
    stopping: Option<StoppingSpec>,
    params: Vec<(String, Json)>,
}

impl FigTally {
    pub(crate) fn new(cfg: &RunConfig) -> Self {
        FigTally {
            metrics: Arc::new(Metrics::new()),
            progress: cfg.progress_sink(),
            start: Instant::now(),
            replications: 0,
            converged: true,
            interrupted: false,
            quarantined: 0,
            resume_generations: 0,
            stopping: None,
            params: Vec::new(),
        }
    }

    /// Builds one instrumented experiment-point evaluator.
    pub(crate) fn evaluator(
        &self,
        cfg: &RunConfig,
        params: Params,
        salt: u64,
    ) -> UnsafetyEvaluator {
        let mut e = cfg
            .evaluator(params, salt)
            .with_metrics(self.metrics.clone());
        if let Some(p) = &self.progress {
            e = e.with_progress(p.clone());
        }
        e
    }

    /// Folds one evaluated study into the figure's manifest material.
    pub(crate) fn absorb(&mut self, label: &str, ev: &UnsafetyEvaluator, curve: &UnsafetyCurve) {
        self.replications += curve.replications();
        self.converged &= curve.converged();
        self.interrupted |= curve.interrupted();
        self.quarantined += curve.quarantined();
        self.resume_generations = self
            .resume_generations
            .max(curve.resume_lineage().len() as u64);
        let rule = ev.rule();
        self.stopping.get_or_insert_with(|| StoppingSpec {
            confidence: rule.confidence(),
            relative_half_width: rule.relative_half_width(),
            min_samples: rule.min_samples(),
            max_samples: rule.max_samples(),
        });
        self.params.push((label.to_owned(), ev.params().to_json()));
    }

    /// Closes out the figure: snapshot the metrics and assemble the
    /// manifest.
    pub(crate) fn finish(self, cfg: &RunConfig, figure: FigureResult) -> FigureRun {
        let mut m = RunManifest::new(
            format!("ahs-bench {}", figure.id),
            figure.id.clone(),
            cfg.seed,
        );
        m.threads = if cfg.threads > 0 {
            cfg.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        m.stopping = self.stopping;
        m.params = Json::Obj(self.params);
        m.wall_seconds = self.start.elapsed().as_secs_f64();
        m.replications = self.replications;
        m.converged = self.converged;
        m.estimates = figure
            .series
            .iter()
            .flat_map(|s| {
                s.points.iter().map(|p| EstimatePoint {
                    series: s.label.clone(),
                    x: p.x,
                    y: p.y,
                    half_width: p.half_width,
                    samples: p.samples,
                })
            })
            .collect();
        m.metrics = Some(self.metrics.snapshot());
        m.extra
            .push(("interrupted".into(), self.interrupted.into()));
        m.extra
            .push(("quarantined".into(), self.quarantined.into()));
        m.extra
            .push(("resume_generations".into(), self.resume_generations.into()));
        FigureRun {
            figure,
            manifest: m,
            interrupted: self.interrupted,
        }
    }
}

/// Runs one `S(t)` curve.
pub(crate) fn curve(
    cfg: &RunConfig,
    tally: &mut FigTally,
    params: Params,
    grid: &TimeGrid,
    label: impl Into<String>,
    salt: u64,
) -> Result<Series, AhsError> {
    let label = label.into();
    let ev = tally.evaluator(cfg, params, salt);
    let result = ev.evaluate(grid)?;
    tally.absorb(&label, &ev, &result);
    Ok(Series {
        label,
        points: result.points().to_vec(),
    })
}

/// Runs a `S(t_fixed)`-versus-`n` series.
pub(crate) fn versus_n(
    cfg: &RunConfig,
    tally: &mut FigTally,
    base: impl Fn(usize) -> Params,
    ns: &[usize],
    t_hours: f64,
    label: impl Into<String>,
    salt: u64,
) -> Result<Series, AhsError> {
    let label = label.into();
    let grid = TimeGrid::new(vec![t_hours]);
    let mut points = Vec::with_capacity(ns.len());
    for (i, &n) in ns.iter().enumerate() {
        let ev = tally.evaluator(cfg, base(n), salt.wrapping_add(i as u64));
        let result = ev.evaluate(&grid)?;
        tally.absorb(&format!("{label}/n={n}"), &ev, &result);
        points.push(CurvePoint {
            x: n as f64,
            ..result.points()[0]
        });
    }
    Ok(Series { label, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let cfg = RunConfig::from_args(&[
            "--paper".into(),
            "--reps".into(),
            "123".into(),
            "--seed".into(),
            "9".into(),
            "--threads".into(),
            "2".into(),
        ]);
        assert!(cfg.paper_precision);
        assert_eq!(cfg.replications, 123);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_arg_rejected() {
        RunConfig::from_args(&["--bogus".into()]);
    }

    #[test]
    #[should_panic(expected = "missing value for `--reps`")]
    fn flag_without_value_names_the_flag() {
        RunConfig::from_args(&["--seed".into(), "9".into(), "--reps".into()]);
    }

    #[test]
    fn point_resumes_from_its_older_generation_alone() {
        // A crash between rotating the latest checkpoint to `.1` and
        // writing the new one leaves only `.1` on disk. The point must
        // resume from it, not restart from replication 0.
        let dir = std::env::temp_dir().join(format!("ahs-bench-gen1-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let params = Params::builder().lambda(0.05).n(2).build().unwrap();
        let grid = TimeGrid::new(vec![2.0]);
        let cfg = RunConfig {
            replications: 4_000,
            threads: 1,
            checkpoint_every: 3_000,
            ..RunConfig::quick()
        };
        let baseline = cfg.evaluator(params.clone(), 7).evaluate(&grid).unwrap();

        let cfg = RunConfig {
            checkpoint_dir: Some(dir.display().to_string()),
            ..cfg
        };
        cfg.evaluator(params.clone(), 7).evaluate(&grid).unwrap();
        // One thread flushes at 3 000; the final write at 4 000 rotates
        // that flush to `.1`. Dropping the latest leaves `.1` alone.
        let path = study_checkpoint_path(&dir, cfg.seed ^ 7, &params);
        std::fs::remove_file(&path).unwrap();
        assert!(ahs_des::generation_path(&path, 1).exists());

        let resumed = cfg.evaluator(params, 7).evaluate(&grid).unwrap();
        assert_eq!(resumed.resume_lineage(), &[3_000]);
        assert_eq!(resumed.resume_fallback(), Some(1));
        assert_eq!(resumed.points(), baseline.points());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_and_paper_presets_differ() {
        assert!(!RunConfig::quick().paper_precision);
        assert!(RunConfig::paper().paper_precision);
    }
}
