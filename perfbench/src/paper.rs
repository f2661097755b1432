//! `paper_points`: time to the paper's precision on two n = 8 points.
//!
//! In-process `CompiledModel::build` + `UnsafetyEvaluator::
//! evaluate_compiled` under the paper's stopping rule (≥10 000
//! replications, 95% CI, 0.1 relative half-width at the 10 h instant),
//! dynamic (`Auto`) failure biasing, trip grid 2–10 h, for the Figure 10
//! point (DD, λ = 1e-5) and the CC point with the same parameters.
//! `answer_s` is the sum of the two `evaluate_compiled` wall times: the
//! time to the paper's precision. A small companion pass (traced runs of
//! the other workloads) runs the same calls on the n = 2 points with a
//! tenth of the fixed budgets.
//!
//! Each study runs on **one** thread: above one thread the rule fires
//! between chunks that finish in scheduling order, so the replication
//! count — and with it the time — would vary run to run. The two
//! studies run at the same time, one per core (nproc = 2): the host's
//! cores slow down independently of each other by up to ±30% for tens
//! of seconds, and summing one study from each core averages the two
//! cores' drift at no extra wall time.
//!
//! The study seed is fixed at the `ahs evaluate` default: when the rule
//! stops is itself random, and over six seeds the Figure 10 count ranged
//! from 15 000 to 22 000 replications (16–26 s), a spread no bound could
//! absorb. `--seed` drives only the fixed-budget scaling study.
//!
//! Kernel-heavy and compute-bound with a working set of kilobytes: the
//! SSA step cost and the importance-sampling quality both move
//! `answer_s` here, and neither is visible in `exact_n2`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ahs_core::{AhsModel, BiasMode, CompiledModel, Params, Strategy, UnsafetyEvaluator};
use ahs_des::{replication_rng, BiasScheme, MarkovSimulator};
use ahs_obs::{Metrics, MetricsSnapshot};
use ahs_stats::TimeGrid;

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{host, mix, setup, Ctx, Report, Size};

/// The perf binary's kernel campaigns (`BENCH_ssa.json`): n = 8,
/// λ = 1e-5, a constant ×600 boost on every failure activity, 2 000
/// fixed-seed replications per timing pass (a tenth in a companion
/// pass), 10 h horizon.
const SSA_SEED: u64 = 20_090_629;
const SSA_REPS: u64 = 2_000;
const SSA_REPEATS: usize = 3;

/// Master seed of the paper-rule studies (20 000 and 21 000 replications).
const STUDY_SEED: u64 = 2009;

/// Pairs of studies behind one untraced `answer_s`: the host slows by up
/// to half for 20–60 s at a time, about as long as one pair takes, so a
/// run of one pair reads the phase it fell in (run-to-run spread up to
/// 0.24 of the median over ten runs); two pairs span more of the drift.
const UNTRACED_PAIRS: usize = 2;

/// Fixed replication budget of the 1- vs 2-thread scaling study.
const SCALING_REPS: u64 = 2_000;

fn point_params(n: usize, strategy: Strategy) -> Params {
    Params::builder()
        .n(n)
        .lambda(1e-5)
        .strategy(strategy)
        .build()
        .expect("the paper-point parameters are valid")
}

/// What one finished paper-rule study reports.
struct Study {
    reps: u64,
    relhw: f64,
    secs: f64,
}

/// One paper point under the paper rule, on its own thread.
struct Point {
    name: &'static str,
    compiled: CompiledModel,
    evaluator: UnsafetyEvaluator,
    metrics: Arc<Metrics>,
}

/// Runs `f(i, point)` on every point at once, one thread per point.
fn concurrently<T: Send>(points: &[Point], f: impl Fn(usize, &Point) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, p)| s.spawn(move || f(i, p)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a study thread panicked"))
            .collect()
    })
}

pub fn run(ctx: &Ctx, size: Size) -> Report {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let root = tracer.begin("bench.paper_points", None, None);
    let (n, scale) = match size {
        Size::Full => (8, 1),
        Size::Small => (2, 10),
    };
    let built =
        setup::burst(tracer, root.0, &point_params(n, Strategy::Dd)).and_then(|(dd, secs)| {
            let cc = CompiledModel::build(&point_params(n, Strategy::Cc))?;
            Ok(([("dd", dd), ("cc", cc)], secs))
        });
    let (models, build_s) = match built {
        Ok(built) => built,
        Err(e) => {
            report.check(false, || format!("building the n={n} models: {e}"));
            return report;
        }
    };
    report.layer("core.build_s", build_s, "s");

    let grid = TimeGrid::new(vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    let points: Vec<Point> = models
        .into_iter()
        .map(|(name, compiled)| {
            let mut evaluator = UnsafetyEvaluator::new(compiled.params().clone())
                .with_seed(STUDY_SEED)
                .with_threads(1)
                .with_bias(BiasMode::Auto);
            // One sink per study: a shared one would bounce its
            // counters' cache lines between the two cores.
            let metrics = Arc::new(Metrics::new());
            if tracer.enabled() {
                evaluator = evaluator.with_metrics(metrics.clone());
            }
            Point {
                name,
                compiled,
                evaluator,
                metrics,
            }
        })
        .collect();

    // Untraced runs sample set-up whenever a study has left its core.
    let running = AtomicUsize::new(0);
    let mut timed = || study_pairs(ctx, &points, &grid, root.0, &running, &mut report);
    let outcome = if tracer.enabled() {
        timed()
    } else {
        let core_free = || running.load(Ordering::Relaxed) < points.len();
        let (outcome, setup_s) =
            setup::sample_during(&point_params(n, Strategy::Dd), core_free, timed);
        match setup_s {
            Ok(secs) => report.e2e("setup_s", secs, "s"),
            Err(e) => report.check(false, || format!("set-up sampling: {e}")),
        }
        outcome
    };
    let Some((study_s, last)) = outcome else {
        return report;
    };
    report.e2e("answer_s", study_s, "s");
    if let Some(rss) = host::peak_rss_mb("self") {
        report.e2e("peak_rss_mb", rss, "MiB");
    }

    if tracer.enabled() {
        let mut snap = MetricsSnapshot::empty();
        for p in &points {
            snap.merge(&p.metrics.snapshot());
        }
        let reps: u64 = last.iter().map(|s| s.reps).sum();
        report.layer("des.study_s", study_s, "s");
        report.layer("des.reps", reps as f64, "count");
        report.layer("des.timed_steps", snap.timed_completions as f64, "count");
        report.layer(
            "des.instant_steps",
            snap.instantaneous_completions as f64,
            "count",
        );
        report.layer(
            "des.steps_per_s",
            snap.timed_completions as f64 / study_s,
            "1/s",
        );
        report.layer("des.reps_per_s", reps as f64 / study_s, "1/s");
        report.layer(
            "des.ess_frac",
            snap.effective_sample_size() / snap.weight_count as f64,
            "ratio",
        );
        let worst = last.iter().map(|s| s.relhw).fold(0.0, f64::max);
        report.layer("des.relhw", worst, "ratio");
        report.layer(
            "des.wnv_s",
            last.iter().map(|s| s.secs * s.relhw * s.relhw).sum(),
            "s",
        );

        let replays = concurrently(&points, |i, p| {
            tracer.span("des.kernel_replay", root.0, |_| {
                replay_kernel(
                    &p.evaluator,
                    &p.compiled,
                    grid.horizon(),
                    STUDY_SEED,
                    last[i].reps,
                )
            })
        });
        let kernel_s: f64 = replays.iter().map(|(_, secs)| secs).sum();
        let steps: Result<u64, _> = replays.into_iter().map(|(steps, _)| steps).sum();
        match steps {
            Ok(steps) => report.check(steps == snap.timed_completions, || {
                format!(
                    "kernel replay took {steps} steps, the studies {}",
                    snap.timed_completions
                )
            }),
            Err(e) => report.check(false, || format!("kernel replay: {e}")),
        }
        report.layer("des.kernel_s", kernel_s, "s");
        report.layer("des.study_self_s", study_s - kernel_s, "s");

        scaling(
            ctx,
            root.0,
            &points[0].compiled,
            &grid,
            mix(ctx.seed, 1),
            SCALING_REPS / scale,
            &mut report,
        );
        for (name, strategy) in [("dd2", Strategy::Dd), ("cc2", Strategy::Cc)] {
            ssa_campaign(
                tracer,
                root.0,
                name,
                strategy,
                SSA_REPS / scale,
                &mut report,
            );
        }
    }
    tracer.end(root);
    report
}

/// Runs the pair of paper-rule studies, gating each curve. Untraced
/// runs repeat the identical pair [`UNTRACED_PAIRS`] times, and more
/// while another still fits in `seconds`; traced runs need one. Returns
/// the median summed study time and the last pair's studies; `None` when
/// a study failed. `running` counts the studies in progress.
fn study_pairs(
    ctx: &Ctx,
    points: &[Point],
    grid: &TimeGrid,
    parent: SpanId,
    running: &AtomicUsize,
    report: &mut Report,
) -> Option<(f64, Vec<Study>)> {
    let tracer = &ctx.tracer;
    let clock = std::time::Instant::now();
    let mut totals = Vec::new();
    let mut last = Vec::new();
    let mut pair_s = 0.0;
    let pairs = if tracer.enabled() { 1 } else { UNTRACED_PAIRS };
    while totals.len() < pairs
        || (!tracer.enabled() && clock.elapsed().as_secs_f64() + pair_s < ctx.seconds)
    {
        let started = clock.elapsed().as_secs_f64();
        let studies = concurrently(points, |_, p| {
            running.fetch_add(1, Ordering::Relaxed);
            let study = tracer.span("des.study", parent, |_| {
                p.evaluator.evaluate_compiled(grid, &p.compiled)
            });
            running.fetch_sub(1, Ordering::Relaxed);
            study
        });
        last.clear();
        for (p, (result, secs)) in points.iter().zip(studies) {
            let curve = match result {
                Ok(curve) => curve,
                Err(e) => {
                    report.check(false, || format!("{} study failed: {e}", p.name));
                    return None;
                }
            };
            let pts = curve.points();
            let end = pts[pts.len() - 1];
            let relhw = end.half_width / end.y;
            eprintln!(
                "{} point: {} replications in {secs:.3}s, S(10h) = {:.4e} ± {:.1}%",
                p.name,
                curve.replications(),
                end.y,
                100.0 * relhw
            );
            let increasing = pts.windows(2).all(|w| w[0].y <= w[1].y);
            report.check(
                curve.converged() && relhw <= 0.1 && end.y > 0.0 && end.y < 1.0 && increasing,
                || {
                    format!(
                        "{} point: converged {}, relative half-width {relhw}, S(t) {:?}",
                        p.name,
                        curve.converged(),
                        pts.iter().map(|p| p.y).collect::<Vec<_>>()
                    )
                },
            );
            last.push(Study {
                reps: curve.replications(),
                relhw,
                secs,
            });
        }
        totals.push(last.iter().map(|s| s.secs).sum::<f64>());
        pair_s = clock.elapsed().as_secs_f64() - started;
    }
    Some((median(&totals).expect("at least one pair ran"), last))
}

/// Replays replications `0..reps` of the study straight through
/// `MarkovSimulator::run_first_passage`, with the change of measure
/// `BiasMode::Auto` builds from the evaluator's two boost levels.
/// Returns the timed steps taken.
fn replay_kernel(
    evaluator: &UnsafetyEvaluator,
    compiled: &CompiledModel,
    horizon: f64,
    seed: u64,
    reps: u64,
) -> Result<u64, ahs_des::SimError> {
    let h = compiled.handles();
    let b1 = evaluator.first_level_boost(horizon);
    let b2 = evaluator.second_level_boost();
    let mut sim = MarkovSimulator::new(compiled.san())?;
    if b1 > 1.0 || b2 > 1.0 {
        let factor = (b2 / b1).max(1.0);
        let (ca, cb, cc) = (h.class_a, h.class_b, h.class_c);
        sim = sim.with_bias(
            BiasScheme::new()
                .with_multipliers(h.failure_activities.iter().copied(), b1)
                .with_state_factor(move |m| {
                    if m.tokens(ca) + m.tokens(cb) + m.tokens(cc) > 0 {
                        factor
                    } else {
                        1.0
                    }
                }),
        );
    }
    let ko = h.ko_total;
    let mut steps = 0;
    for rep in 0..reps {
        let mut rng = replication_rng(seed, rep);
        steps += sim
            .run_first_passage(|m| m.is_marked(ko), horizon, &mut rng)?
            .events;
    }
    Ok(steps)
}

/// Parallel efficiency of a fixed-budget study at 2 threads against 1;
/// the two estimates must agree bitwise.
fn scaling(
    ctx: &Ctx,
    parent: SpanId,
    compiled: &CompiledModel,
    grid: &TimeGrid,
    seed: u64,
    reps: u64,
    report: &mut Report,
) {
    let run = |threads: usize, name: &'static str| {
        ctx.tracer.span(name, parent, |_| {
            UnsafetyEvaluator::new(compiled.params().clone())
                .with_seed(seed)
                .with_replications(reps)
                .with_threads(threads)
                .evaluate_compiled(grid, compiled)
        })
    };
    let (one, t1) = run(1, "des.fixed_study_1t");
    let (two, t2) = run(2, "des.fixed_study_2t");
    match (one, two) {
        (Ok(one), Ok(two)) => report.check(one.points() == two.points(), || {
            "fixed-budget study differs between 1 and 2 threads".to_owned()
        }),
        (Err(e), _) | (_, Err(e)) => report.check(false, || format!("scaling study: {e}")),
    }
    report.layer("des.parallel_eff_2t", t1 / (2.0 * t2), "ratio");
}

/// One `perf`-binary campaign: a warm-up pass, then the median steps/s
/// of [`SSA_REPEATS`] identical fixed-seed passes of `reps` replications.
fn ssa_campaign(
    tracer: &Tracer,
    parent: SpanId,
    name: &str,
    strategy: Strategy,
    reps: u64,
    report: &mut Report,
) {
    let model = match AhsModel::build(&point_params(8, strategy)) {
        Ok(model) => model,
        Err(e) => return report.check(false, || format!("ssa campaign {name}: {e}")),
    };
    let h = model.handles();
    let sim = match MarkovSimulator::new(model.san()) {
        Ok(sim) => sim.with_bias(
            BiasScheme::new().with_multipliers(h.failure_activities.iter().copied(), 600.0),
        ),
        Err(e) => return report.check(false, || format!("ssa campaign {name}: {e}")),
    };
    let pass = |reps: u64| -> Result<u64, ahs_des::SimError> {
        let mut steps = 0;
        for rep in 0..reps {
            let mut rng = replication_rng(SSA_SEED, rep);
            steps += sim
                .run_first_passage(|m| m.is_marked(h.ko_total), 10.0, &mut rng)?
                .events;
        }
        Ok(steps)
    };
    let mut rates = Vec::new();
    let mut counts = Vec::new();
    let warm = pass(reps / 10);
    for _ in 0..SSA_REPEATS {
        let (steps, secs) = tracer.span("des.ssa_campaign", parent, |_| pass(reps));
        match steps {
            Ok(steps) => {
                rates.push(steps as f64 / secs);
                counts.push(steps);
            }
            Err(e) => return report.check(false, || format!("ssa campaign {name}: {e}")),
        }
    }
    report.check(
        warm.is_ok() && counts.iter().all(|&c| c == counts[0]),
        || format!("ssa campaign {name}: step counts differ between identical passes: {counts:?}"),
    );
    report.layer(
        &format!("des.ssa_steps_per_s.{name}"),
        median(&rates).expect("SSA_REPEATS is positive"),
        "1/s",
    );
    report.layer(&format!("des.ssa_steps.{name}"), counts[0] as f64, "count");
}
