//! Independent-replication studies with parallel workers, sequential
//! stopping, and fault-tolerant execution.
//!
//! Robustness (see `docs/robustness.md`):
//!
//! * **Checkpoint/resume** — [`Study::with_checkpoint`] periodically
//!   writes an atomic `ahs-checkpoint/v1` snapshot of the merged
//!   replication prefix; [`Study::with_resume`] restarts from one and
//!   produces estimates **bitwise identical** to an uninterrupted run.
//! * **Panic quarantine** — each replication body runs under
//!   `catch_unwind`; a panicking replication is recorded and excluded
//!   instead of tearing down the whole study, up to
//!   [`Study::with_quarantine_budget`].
//! * **Watchdog** — [`Study::with_watchdog`] bounds each replication
//!   by event count and wall-clock time ([`SimError::Runaway`]).
//! * **Graceful interruption** — [`Study::with_interrupt`] polls a
//!   flag (e.g. [`ahs_obs::interrupt_flag`]) at chunk boundaries,
//!   drains in-flight chunks, and flushes a final checkpoint.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ahs_obs::{Json, Metrics, ProgressSink, StoppingSpec};
use ahs_san::{Marking, SanModel};
use ahs_stats::{Curve, StoppingRule, TimeGrid};

use crate::bias::BiasScheme;
use crate::checkpoint::{model_fingerprint, QuarantinedRep, StudyCheckpoint};
use crate::error::SimError;
use crate::reward::{RewardObserver, RewardSpec};
use crate::rng::replication_rng;
use crate::ssa::MarkovSimulator;
use crate::watchdog::Watchdog;

/// Locks a shared accumulator, ignoring poison: a worker that panics
/// re-raises from the thread scope anyway, so the others only need the
/// data to stay reachable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared accumulator back once every worker has joined.
fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// How a study's SSA executor samples paths.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Plain Monte Carlo.
    Markov,
    /// Importance sampling with the given rate multipliers.
    BiasedMarkov(BiasScheme),
}

/// Result of a replication study over a time grid.
#[derive(Debug, Clone)]
pub struct CurveEstimate {
    /// The accumulated per-instant estimators.
    pub curve: Curve,
    /// Total replications contributing to the estimates (quarantined
    /// replications are excluded).
    pub replications: u64,
    /// Whether the stopping rule's precision target was reached (as
    /// opposed to hitting the replication cap or being interrupted).
    pub converged: bool,
    /// Whether the study stopped early because its interrupt flag was
    /// raised (SIGINT/SIGTERM or a manual request). When a checkpoint
    /// path is configured the final state was flushed there first.
    pub interrupted: bool,
    /// Replications of the final prefix whose body panicked and was
    /// quarantined, in replication order.
    pub quarantined: Vec<QuarantinedRep>,
    /// Watermarks of the checkpoints this run (transitively) resumed
    /// from, oldest first; empty for a fresh run.
    pub resume_lineage: Vec<u64>,
}

/// How often and where a study checkpoints.
#[derive(Debug, Clone)]
struct CheckpointPlan {
    path: PathBuf,
    every: u64,
}

/// A replication study: a model plus sampling configuration.
///
/// Replication `i` always consumes random stream `i`, and the study
/// keeps one merged state, the contiguous replication prefix `[0, W)`:
/// worker chunks are folded into it in replication order, and the
/// stopping rule is checked after each fold. The first `W` at which the
/// rule holds ends the study; chunks computed past it are discarded. So
/// any study gives **bitwise identical** estimates and replication
/// counts at any thread count (the determinism tier enforces this).
///
/// A checkpoint stores the prefix, so a resumed study replays
/// replications `W..` with identical streams and merge order, and a
/// finished study's final checkpoint resumes with no new replication
/// (the recovery tier enforces this at 1, 2, and 4 threads).
///
/// The default stopping rule mirrors the paper: at least 10 000
/// replications and a 95% confidence interval within 0.1 relative
/// half-width (checked at the last grid instant), capped at 4 000 000
/// replications.
pub struct Study {
    model: Arc<SanModel>,
    seed: u64,
    rule: StoppingRule,
    threads: usize,
    chunk: u64,
    metrics: Option<Arc<Metrics>>,
    progress: Option<Arc<ProgressSink>>,
    watchdog: Option<Watchdog>,
    quarantine_budget: u64,
    checkpoint: Option<CheckpointPlan>,
    resume: Option<StudyCheckpoint>,
    interrupt: Option<Arc<AtomicBool>>,
}

impl Study {
    /// Creates a study of `model` — owned, or an `Arc` already shared
    /// with other concurrent studies — with the paper's default
    /// stopping rule.
    pub fn new(model: impl Into<Arc<SanModel>>) -> Self {
        Study {
            model: model.into(),
            seed: 0xA115_5EED, // arbitrary fixed default
            rule: StoppingRule::relative_precision(0.95, 0.1)
                .with_min_samples(10_000)
                .with_max_samples(4_000_000),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk: 1_000,
            metrics: None,
            progress: None,
            watchdog: None,
            quarantine_budget: 0,
            checkpoint: None,
            resume: None,
            interrupt: None,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the stopping rule.
    #[must_use]
    pub fn with_rule(mut self, rule: StoppingRule) -> Self {
        self.rule = rule;
        self
    }

    /// Shortcut for a fixed number of replications.
    #[must_use]
    pub fn with_fixed_replications(mut self, n: u64) -> Self {
        self.rule = StoppingRule::fixed(n);
        self
    }

    /// Sets the number of worker threads (`1` disables parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Sets how many replications each worker runs between merges.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    #[must_use]
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// Attaches a telemetry sink shared by all workers (replications
    /// and chunks merged into the prefix, per-run tallies, weight
    /// diagnostics, quarantined replications, per-worker throughput).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a JSON-lines progress sink; the study emits
    /// `study_started`, `replication_quarantined` and `chunk_done` (as
    /// chunks are folded into the prefix, in replication order; `total`
    /// counts the prefix's replications), `checkpoint_written`, and
    /// `study_finished` events.
    #[must_use]
    pub fn with_progress(mut self, progress: Arc<ProgressSink>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Bounds every replication by the given runtime budgets; a
    /// violation fails the study with [`SimError::Runaway`].
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Allows up to `budget` replications to panic: each one is
    /// quarantined (recorded, excluded from the estimates, reported in
    /// metrics and the result) instead of aborting the study. The
    /// budget counts the panics of the replication prefix, so the same
    /// study fails or succeeds at any thread count. The default budget
    /// is 0 — the first panic surfaces as
    /// [`SimError::QuarantineOverflow`].
    #[must_use]
    pub fn with_quarantine_budget(mut self, budget: u64) -> Self {
        self.quarantine_budget = budget;
        self
    }

    /// Writes an atomic checkpoint to `path` every time at least
    /// `every` further replications have been merged into the
    /// contiguous prefix, plus a final checkpoint when the study ends
    /// (normally or interrupted). Before each write the previous
    /// document is rotated to `<name>.1.<ext>` (keeping
    /// [`CHECKPOINT_GENERATIONS`](crate::CHECKPOINT_GENERATIONS) in
    /// all), so a checkpoint that lands corrupt never destroys the last
    /// good one.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint = Some(CheckpointPlan {
            path: path.into(),
            every,
        });
        self
    }

    /// Resumes from a checkpoint previously written by this study
    /// configuration (validated against seed, chunk size, grid,
    /// stopping rule, and model fingerprint when the study runs).
    #[must_use]
    pub fn with_resume(mut self, checkpoint: StudyCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Polls `flag` at every chunk boundary; once raised, workers
    /// drain their in-flight chunks and the study returns early with
    /// [`CurveEstimate::interrupted`] set (after flushing a final
    /// checkpoint when one is configured). Pair with
    /// [`ahs_obs::interrupt_flag`] for SIGINT/SIGTERM handling.
    #[must_use]
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// The model under study.
    pub fn model(&self) -> &SanModel {
        &self.model
    }

    /// Master seed of the study.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Replications per work chunk.
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// The stopping rule in force.
    pub fn rule(&self) -> StoppingRule {
        self.rule
    }

    /// Estimates the first-passage probability curve
    /// `t ↦ P(target reached by t)` over `grid`.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the first failing replication of the
    /// prefix, in replication order (event-budget exhaustion, watchdog
    /// violations, invalid rates, SAN-level errors), a checkpoint
    /// failure, or [`SimError::QuarantineOverflow`] when more
    /// replications of the prefix panic than the quarantine budget
    /// allows.
    pub fn first_passage<F>(
        &self,
        target: F,
        grid: &TimeGrid,
        backend: Backend,
    ) -> Result<CurveEstimate, SimError>
    where
        F: Fn(&Marking) -> bool + Send + Sync,
    {
        let horizon = grid.horizon();
        self.run_study(grid, backend, |sim, rng| {
            let outcome = sim.run_first_passage(&target, horizon, rng)?;
            let weight = if outcome.hit_time.is_some() {
                outcome.hit_weight
            } else {
                1.0
            };
            Ok(RepOutcome::FirstPassage(outcome.hit_time, weight))
        })
    }

    /// Estimates the expected total of a reward variable over
    /// `[0, horizon]`: one observation per replication, accumulated on
    /// the one-point grid `[horizon]`. Importance sampling is not
    /// supported, since the likelihood ratio would have to be carried
    /// per accumulation interval.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`first_passage`](Study::first_passage).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is [`Backend::BiasedMarkov`] or `horizon` is
    /// negative or not finite.
    pub fn reward(
        &self,
        spec: &RewardSpec,
        horizon: f64,
        backend: Backend,
    ) -> Result<CurveEstimate, SimError> {
        assert!(
            !matches!(backend, Backend::BiasedMarkov(_)),
            "reward estimation requires an unbiased backend"
        );
        let grid = TimeGrid::new(vec![horizon]);
        self.run_study(&grid, backend, |sim, rng| {
            let mut obs = RewardObserver::new(spec);
            sim.run_with_observer(horizon, rng, &mut obs)?;
            Ok(RepOutcome::Reward(obs.total))
        })
    }

    /// The stopping rule as a serializable spec (for manifests and
    /// checkpoints).
    fn stopping_spec(&self) -> StoppingSpec {
        StoppingSpec {
            confidence: self.rule.confidence(),
            relative_half_width: self.rule.relative_half_width(),
            min_samples: self.rule.min_samples(),
            max_samples: self.rule.max_samples(),
        }
    }

    /// Validates that `cp` was taken from this exact study
    /// configuration, so replaying replications `cp.watermark..`
    /// reproduces the uninterrupted run bit for bit.
    fn validate_resume(
        &self,
        cp: &StudyCheckpoint,
        grid: &TimeGrid,
        fingerprint: u64,
    ) -> Result<(), SimError> {
        let reject = |reason: String| Err(SimError::Checkpoint { reason });
        if cp.seed != self.seed {
            return reject(format!(
                "master seed mismatch: checkpoint {}, study {}",
                cp.seed, self.seed
            ));
        }
        if cp.chunk != self.chunk {
            return reject(format!(
                "chunk size mismatch: checkpoint {}, study {} — merge order would differ",
                cp.chunk, self.chunk
            ));
        }
        if cp.model_fingerprint != fingerprint {
            return reject(format!(
                "model fingerprint mismatch: checkpoint {:#018x}, study {:#018x} \
                 (model `{}` changed since the checkpoint was taken)",
                cp.model_fingerprint,
                fingerprint,
                self.model.name()
            ));
        }
        if cp.curve.grid() != grid {
            return reject(format!(
                "time grid mismatch: checkpoint {:?}, study {:?}",
                cp.curve.grid().points(),
                grid.points()
            ));
        }
        let spec = self.stopping_spec();
        if cp.stopping != spec {
            return reject(format!(
                "stopping rule mismatch: checkpoint {:?}, study {:?}",
                cp.stopping, spec
            ));
        }
        if cp.confidence != self.rule.confidence() {
            return reject(format!(
                "confidence mismatch: checkpoint {}, study {}",
                cp.confidence,
                self.rule.confidence()
            ));
        }
        let aligned = cp.watermark.is_multiple_of(self.chunk)
            || self.rule.max_samples() == Some(cp.watermark);
        if !aligned {
            return reject(format!(
                "watermark {} is not a chunk boundary (chunk {})",
                cp.watermark, self.chunk
            ));
        }
        if cp.quarantined.len() as u64 > self.quarantine_budget {
            return reject(format!(
                "checkpoint carries {} quarantined replication(s) but the study's \
                 quarantine budget is {}",
                cp.quarantined.len(),
                self.quarantine_budget
            ));
        }
        Ok(())
    }

    fn run_study<W>(
        &self,
        grid: &TimeGrid,
        backend: Backend,
        work: W,
    ) -> Result<CurveEstimate, SimError>
    where
        W: Fn(&MarkovSimulator<'_>, &mut rand::rngs::SmallRng) -> Result<RepOutcome, SimError>
            + Send
            + Sync,
    {
        // Only checkpointing and resume need the fingerprint; skip the
        // structural dump on plain runs.
        let fingerprint = if self.checkpoint.is_some() || self.resume.is_some() {
            model_fingerprint(&self.model)
        } else {
            0
        };
        let mut initial = Curve::new(grid.clone());
        let mut start_watermark = 0_u64;
        let mut lineage: Vec<u64> = Vec::new();
        let mut initial_quarantined: Vec<QuarantinedRep> = Vec::new();
        if let Some(cp) = &self.resume {
            self.validate_resume(cp, grid, fingerprint)?;
            initial = cp.curve.clone();
            start_watermark = cp.watermark;
            lineage = cp.lineage.clone();
            lineage.push(cp.watermark);
            initial_quarantined = cp.quarantined.clone();
        }
        let lineage = lineage; // frozen; shared by checkpoints and the result

        // The rule may already hold on a resumed prefix.
        let last = grid.len() - 1;
        let satisfied = |c: &Curve| self.rule.is_satisfied(c.estimator(last).product_stats());
        let stopped = satisfied(&initial);
        let prefix = Mutex::new(Prefix {
            curve: initial,
            end: start_watermark,
            quarantined: initial_quarantined,
            pending: BTreeMap::new(),
            stopped,
            last_flush: start_watermark,
        });
        let next_rep = AtomicU64::new(start_watermark);
        let done = AtomicBool::new(stopped);
        let interrupted = AtomicBool::new(false);
        let failure: Mutex<Option<SimError>> = Mutex::new(None);

        let fail = |e: SimError| {
            let mut f = lock(&failure);
            if f.is_none() {
                *f = Some(e);
            }
            done.store(true, Ordering::SeqCst);
        };

        // The prefix `[0, end)` as a checkpoint document.
        let snapshot = |p: &Prefix| StudyCheckpoint {
            seed: self.seed,
            chunk: self.chunk,
            watermark: p.end,
            model_name: self.model.name().to_owned(),
            model_fingerprint: fingerprint,
            confidence: self.rule.confidence(),
            stopping: self.stopping_spec(),
            curve: p.curve.clone(),
            quarantined: p.quarantined.clone(),
            lineage: lineage.clone(),
        };
        let save = |plan: &CheckpointPlan, cp: &StudyCheckpoint, last: bool| {
            cp.write_rotated(&plan.path)?;
            if let Some(p) = &self.progress {
                let mut fields = vec![
                    ("watermark", cp.watermark.into()),
                    ("path", Json::str(plan.path.display().to_string())),
                ];
                if last {
                    fields.push(("final", true.into()));
                }
                p.emit("checkpoint_written", fields);
            }
            Ok::<(), SimError>(())
        };

        if let Some(p) = &self.progress {
            p.emit(
                "study_started",
                vec![
                    ("model", Json::str(self.model.name())),
                    ("seed", self.seed.into()),
                    ("threads", self.threads.into()),
                    ("chunk", self.chunk.into()),
                    (
                        "resumed_from",
                        self.resume
                            .as_ref()
                            .map_or(Json::Null, |cp| cp.watermark.into()),
                    ),
                ],
            );
        }

        let run_worker = || {
            let worker_clock = Instant::now();
            let mut worker_reps = 0_u64;
            let mut sim = match MarkovSimulator::new(&self.model) {
                Ok(sim) => sim,
                Err(e) => {
                    fail(e);
                    return;
                }
            };
            if let Backend::BiasedMarkov(bias) = &backend {
                sim = sim.with_bias(bias.clone());
            }
            if let Some(m) = &self.metrics {
                sim = sim.with_metrics(m.clone());
            }
            if let Some(w) = &self.watchdog {
                sim = sim.with_watchdog(*w);
            }
            while !done.load(Ordering::SeqCst) {
                // Chaos hook: `raise-interrupt` simulates SIGINT landing
                // at this chunk boundary, `delay` a stalled worker.
                match ahs_inject::eval("des::replication::chunk") {
                    Some(ahs_inject::Fault::RaiseInterrupt) => {
                        if let Some(flag) = &self.interrupt {
                            flag.store(true, Ordering::SeqCst);
                        } else {
                            interrupted.store(true, Ordering::SeqCst);
                            done.store(true, Ordering::SeqCst);
                        }
                    }
                    Some(ahs_inject::Fault::Delay(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    _ => {}
                }
                if let Some(flag) = &self.interrupt {
                    if flag.load(Ordering::Relaxed) {
                        interrupted.store(true, Ordering::SeqCst);
                        done.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                let start = next_rep.fetch_add(self.chunk, Ordering::SeqCst);
                let mut end = start + self.chunk;
                if let Some(max) = self.rule.max_samples() {
                    if start >= max {
                        done.store(true, Ordering::SeqCst);
                        break;
                    }
                    end = end.min(max);
                }
                let mut chunk = Chunk {
                    end,
                    curve: Curve::new(grid.clone()),
                    quarantined: Vec::new(),
                    error: None,
                };
                for rep in start..end {
                    let mut rng = replication_rng(self.seed, rep);
                    // The simulator holds configuration plus a parked
                    // scratch buffer (enablement cache, rate table)
                    // that each `run_*` call takes at entry and
                    // re-parks on exit. Unwinding out of a
                    // replication at worst *loses* the scratch — the
                    // next run transparently allocates a fresh one —
                    // and never leaves stale state behind, because a
                    // taken scratch is re-primed before use anyway.
                    // Recording happens out here, after validation, so
                    // a panic can never leave the chunk half-updated
                    // either.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        // Chaos hook, deliberately *inside* the unwind
                        // boundary: an injected panic exercises the real
                        // quarantine path, an injected error the typed
                        // failure path.
                        match ahs_inject::eval("des::replication::body") {
                            Some(ahs_inject::Fault::Panic(msg)) => {
                                panic!("injected panic in replication body: {msg}")
                            }
                            Some(ahs_inject::Fault::Error(kind)) => {
                                return Err(SimError::Internal {
                                    context: format!("injected fault in replication body: {kind}"),
                                });
                            }
                            Some(ahs_inject::Fault::Delay(ms)) => {
                                std::thread::sleep(std::time::Duration::from_millis(ms));
                            }
                            _ => {}
                        }
                        work(&sim, &mut rng)
                    }));
                    // An error, or more panics than the whole budget,
                    // fails the study if this chunk is ever folded: stop
                    // computing it.
                    match result.map(|r| r.and_then(|o| record_outcome(&mut chunk.curve, o))) {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => {
                            chunk.error = Some(e);
                            break;
                        }
                        Err(payload) => {
                            chunk.quarantined.push(QuarantinedRep {
                                replication: rep,
                                message: panic_message(payload.as_ref()),
                            });
                            if chunk.quarantined.len() as u64 > self.quarantine_budget {
                                break;
                            }
                        }
                    }
                }
                worker_reps += chunk.curve.samples();
                // Fold every chunk that now continues the prefix, one at
                // a time, until the rule holds; later chunks are dropped
                // unseen, with their panics and errors.
                let flush = {
                    let mut guard = lock(&prefix);
                    let p = &mut *guard;
                    if !p.stopped {
                        p.pending.insert(start, chunk);
                    }
                    while let Some(entry) = p.pending.first_entry() {
                        if *entry.key() != p.end {
                            break;
                        }
                        let (chunk_start, chunk) = entry.remove_entry();
                        for q in chunk.quarantined {
                            if let Some(m) = &self.metrics {
                                m.record_quarantined();
                            }
                            if let Some(sink) = &self.progress {
                                sink.emit(
                                    "replication_quarantined",
                                    vec![
                                        ("replication", q.replication.into()),
                                        ("message", Json::str(q.message.clone())),
                                    ],
                                );
                            }
                            let total = p.quarantined.len() as u64 + 1;
                            if total > self.quarantine_budget {
                                fail(SimError::QuarantineOverflow {
                                    quarantined: total,
                                    budget: self.quarantine_budget,
                                    message: q.message,
                                });
                                return;
                            }
                            p.quarantined.push(q);
                        }
                        if let Some(e) = chunk.error {
                            fail(e);
                            return;
                        }
                        p.curve.merge(&chunk.curve);
                        p.end = chunk.end;
                        if let Some(m) = &self.metrics {
                            m.add_replications(chunk.curve.samples());
                            m.record_chunk_merge();
                        }
                        if let Some(sink) = &self.progress {
                            sink.emit(
                                "chunk_done",
                                vec![
                                    ("start", chunk_start.into()),
                                    ("replications", chunk.curve.samples().into()),
                                    ("total", p.curve.samples().into()),
                                ],
                            );
                        }
                        if satisfied(&p.curve) {
                            p.stopped = true;
                            p.pending.clear();
                            done.store(true, Ordering::SeqCst);
                        }
                    }
                    match &self.checkpoint {
                        Some(plan) if p.end.saturating_sub(p.last_flush) >= plan.every => {
                            p.last_flush = p.end;
                            Some((plan, snapshot(p)))
                        }
                        _ => None,
                    }
                };
                if let Some((plan, cp)) = flush {
                    if let Err(e) = save(plan, &cp, false) {
                        fail(e);
                        return;
                    }
                }
            }
            if let Some(m) = &self.metrics {
                m.record_worker(worker_reps, worker_clock.elapsed().as_secs_f64());
            }
        };

        if self.threads <= 1 {
            run_worker();
        } else {
            // A panicking worker re-raises here once every worker has
            // joined (replication bodies run under `catch_unwind`, so
            // only harness bugs get this far).
            std::thread::scope(|s| {
                for _ in 0..self.threads {
                    s.spawn(run_worker);
                }
            });
        }

        if let Some(e) = into_inner(failure) {
            return Err(e);
        }
        let prefix = into_inner(prefix);
        // Every grabbed chunk below the watermark completes before its
        // worker exits, so nothing is left pending without a failure.
        debug_assert!(
            prefix.pending.is_empty(),
            "non-contiguous chunks left pending"
        );
        if let Some(plan) = &self.checkpoint {
            save(plan, &snapshot(&prefix), true)?;
        }
        let stats = prefix.curve.estimator(last).product_stats();
        let converged = prefix.stopped && self.rule.precision_reached(stats);
        let interrupted = interrupted.load(Ordering::SeqCst);
        let replications = prefix.curve.samples();
        if let Some(p) = &self.progress {
            p.emit(
                "study_finished",
                vec![
                    ("replications", replications.into()),
                    ("converged", converged.into()),
                    ("interrupted", interrupted.into()),
                    ("quarantined", (prefix.quarantined.len() as u64).into()),
                ],
            );
        }
        Ok(CurveEstimate {
            curve: prefix.curve,
            replications,
            converged,
            interrupted,
            quarantined: prefix.quarantined,
            resume_lineage: lineage,
        })
    }
}

impl std::fmt::Debug for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("model", &self.model.name())
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// The contiguous replication prefix shared by workers: chunks arrive
/// in any order but are folded into `curve` strictly by start index,
/// so the floating-point merge order, and with it the bits of every
/// estimate and the watermark the rule stops at, is a pure function of
/// the seed and the chunk size.
struct Prefix {
    curve: Curve,
    /// Replications `[0, end)` are merged into `curve`.
    end: u64,
    /// The quarantined replications below `end`, in replication order.
    quarantined: Vec<QuarantinedRep>,
    /// Out-of-order chunks waiting for their predecessors, by start.
    pending: BTreeMap<u64, Chunk>,
    /// The stopping rule held on the prefix: `end` is final.
    stopped: bool,
    /// Watermark of the last checkpoint flush.
    last_flush: u64,
}

/// A worker's finished chunk of replications `[start, end)`, waiting to
/// be folded into the prefix.
struct Chunk {
    end: u64,
    curve: Curve,
    /// Its panicking replications, in replication order.
    quarantined: Vec<QuarantinedRep>,
    /// The replication error that cut the chunk short, or none.
    error: Option<SimError>,
}

/// What one replication contributes, produced inside `catch_unwind`
/// and recorded outside it so a panic can never half-update a curve.
enum RepOutcome {
    /// First-passage time (`None` = censored at the horizon) and its
    /// likelihood weight.
    FirstPassage(Option<f64>, f64),
    /// The reward total, observed with unit weight at the one grid
    /// point.
    Reward(f64),
}

/// Validates and records one replication outcome. Validation happens
/// before any estimator is touched, so an engine bug (e.g. an
/// overflowed likelihood ratio) surfaces as a typed error instead of a
/// mid-record panic.
fn record_outcome(curve: &mut Curve, outcome: RepOutcome) -> Result<(), SimError> {
    match outcome {
        RepOutcome::FirstPassage(hit_time, weight) => {
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(SimError::Internal {
                    context: format!("replication produced invalid likelihood weight {weight}"),
                });
            }
            curve.record_first_passage(hit_time, weight);
        }
        RepOutcome::Reward(total) => curve.record_weighted(&[(total, 1.0)]),
    }
    Ok(())
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};

    fn single_failure(rate: f64) -> (ahs_san::SanModel, ahs_san::PlaceId) {
        let mut b = SanBuilder::new("single");
        let up = b.place_with_tokens("up", 1).unwrap();
        let down = b.place("down").unwrap();
        b.timed_activity("fail", Delay::exponential(rate))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        (b.build().unwrap(), down)
    }

    #[test]
    fn fixed_replication_study_matches_closed_form() {
        let (model, down) = single_failure(0.3);
        let study = Study::new(model)
            .with_seed(11)
            .with_fixed_replications(20_000)
            .with_threads(2);
        let grid = TimeGrid::new(vec![1.0, 3.0]);
        let est = study
            .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
            .unwrap();
        assert!(est.replications >= 20_000);
        let pts = est.curve.points(0.95);
        let p1 = 1.0 - (-0.3_f64).exp();
        let p3 = 1.0 - (-0.9_f64).exp();
        assert!((pts[0].y - p1).abs() < 0.01, "{} vs {p1}", pts[0].y);
        assert!((pts[1].y - p3).abs() < 0.01, "{} vs {p3}", pts[1].y);
        assert!(!est.interrupted);
        assert!(est.quarantined.is_empty());
        assert!(est.resume_lineage.is_empty());
    }

    #[test]
    fn precision_rule_stops_and_reports_convergence() {
        let (model, down) = single_failure(1.0);
        let study = Study::new(model)
            .with_seed(13)
            .with_rule(
                StoppingRule::relative_precision(0.95, 0.05)
                    .with_min_samples(1_000)
                    .with_max_samples(200_000),
            )
            .with_threads(1)
            .with_chunk(500);
        let grid = TimeGrid::new(vec![1.0]);
        let est = study
            .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
            .unwrap();
        assert!(est.converged, "study did not converge");
        let ci = est.curve.interval(0, 0.95);
        assert!(ci.relative_half_width() <= 0.05 * 1.05);
        assert!(est.replications < 200_000);
    }

    #[test]
    fn biased_study_recovers_rare_probability() {
        let (model, down) = single_failure(1e-5);
        let fail = model.find_activity("fail").unwrap();
        let bias = BiasScheme::new().with_multiplier(fail, 1e4);
        let study = Study::new(model)
            .with_seed(19)
            .with_fixed_replications(40_000)
            .with_threads(2);
        let grid = TimeGrid::new(vec![10.0]);
        let est = study
            .first_passage(
                move |m| m.is_marked(down),
                &grid,
                Backend::BiasedMarkov(bias),
            )
            .unwrap();
        let truth = 1.0 - (-1e-4_f64).exp();
        let y = est.curve.points(0.95)[0].y;
        let rel = (y - truth).abs() / truth;
        assert!(rel < 0.1, "IS study estimate {y} vs truth {truth}");
    }

    #[test]
    fn fixed_budget_is_honored_exactly() {
        let (model, down) = single_failure(1.0);
        let study = Study::new(model)
            .with_seed(5)
            .with_fixed_replications(1_234)
            .with_chunk(1_000)
            .with_threads(2);
        let grid = TimeGrid::new(vec![1.0]);
        let est = study
            .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
            .unwrap();
        assert_eq!(est.replications, 1_234);
    }

    #[test]
    fn study_is_reproducible() {
        let (model, down) = single_failure(0.4);
        let grid = TimeGrid::new(vec![1.0]);
        let mk = |model: ahs_san::SanModel| {
            Study::new(model)
                .with_seed(99)
                .with_fixed_replications(5_000)
                .with_threads(4)
        };
        let (m2, _) = single_failure(0.4);
        let a = mk(model)
            .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
            .unwrap();
        let b = mk(m2)
            .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
            .unwrap();
        assert_eq!(a.curve.points(0.95)[0].y, b.curve.points(0.95)[0].y);
    }

    #[test]
    fn watchdog_runaway_propagates_from_workers() {
        // A token ping-pongs between two places forever; every worker's
        // first replication trips the watchdog.
        let mut b = SanBuilder::new("pingpong");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("pq", Delay::exponential(1e3))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("qp", Delay::exponential(1e3))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
        let study = Study::new(b.build().unwrap())
            .with_fixed_replications(10)
            .with_chunk(2)
            .with_threads(2)
            .with_watchdog(Watchdog::new().with_max_events(100));
        let grid = TimeGrid::new(vec![1e9]);
        let err = study
            .first_passage(|_| false, &grid, Backend::Markov)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Runaway { events: 101, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn pre_raised_interrupt_stops_before_any_replication() {
        let (model, down) = single_failure(1.0);
        let flag = Arc::new(AtomicBool::new(true));
        let study = Study::new(model)
            .with_seed(7)
            .with_fixed_replications(10_000)
            .with_threads(2)
            .with_interrupt(flag);
        let grid = TimeGrid::new(vec![1.0]);
        let est = study
            .first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)
            .unwrap();
        assert!(est.interrupted);
        assert_eq!(est.replications, 0);
        assert!(!est.converged);
    }
}
