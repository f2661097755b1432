//! Recovery test tier: checkpoint/resume, panic quarantine, and
//! watchdog behaviour of `Study` (see `docs/robustness.md`).
//!
//! The central guarantee exercised here is **bitwise-identical
//! resume**: a study interrupted mid-run and resumed from its
//! checkpoint must produce exactly the same estimator bits as an
//! uninterrupted run, at any worker thread count.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ahs_des::{
    generation_path, Backend, CurveEstimate, RewardSpec, SimError, Study, StudyCheckpoint, Watchdog,
};
use ahs_obs::{Metrics, ProgressSink};
use ahs_san::{Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::{StoppingRule, TimeGrid};

/// The determinism-tier fixture: two failing components with a repair
/// loop and an instantaneous "system down" latch.
fn model() -> (SanModel, PlaceId) {
    model_with_rate(0.8)
}

fn model_with_rate(fail1_rate: f64) -> (SanModel, PlaceId) {
    let mut b = SanBuilder::new("recovery-fixture");
    let up1 = b.place_with_tokens("up1", 1).unwrap();
    let dn1 = b.place("dn1").unwrap();
    let up2 = b.place_with_tokens("up2", 1).unwrap();
    let dn2 = b.place("dn2").unwrap();
    let ko = b.place("ko").unwrap();
    b.timed_activity("fail1", Delay::exponential(fail1_rate))
        .unwrap()
        .input_place(up1)
        .output_place(dn1)
        .build()
        .unwrap();
    b.timed_activity("repair1", Delay::exponential(2.0))
        .unwrap()
        .input_place(dn1)
        .output_place(up1)
        .build()
        .unwrap();
    b.timed_activity("fail2", Delay::exponential(0.6))
        .unwrap()
        .input_place(up2)
        .output_place(dn2)
        .build()
        .unwrap();
    let both_down = b.input_gate(
        "both_down",
        move |m| m.is_marked(dn1) && m.is_marked(dn2) && !m.is_marked(ko),
        |_| {},
    );
    b.instant_activity("latch", 10, 1.0)
        .unwrap()
        .input_gate(both_down)
        .output_place(ko)
        .build()
        .unwrap();
    (b.build().unwrap(), ko)
}

fn grid() -> TimeGrid {
    TimeGrid::new(vec![0.5, 1.5, 4.0])
}

fn study(threads: usize, seed: u64) -> (Study, PlaceId) {
    let (m, ko) = model();
    let s = Study::new(m)
        .with_seed(seed)
        .with_fixed_replications(600)
        .with_chunk(100)
        .with_threads(threads);
    (s, ko)
}

/// A precision-ruled study (95% CI within 0.01 relative half-width)
/// in chunks of 100; it stops after a few dozen chunks, wherever the
/// rule first holds on the replication prefix.
fn precision_study(threads: usize, seed: u64) -> (Study, PlaceId) {
    let (m, ko) = model();
    let s = Study::new(m)
        .with_seed(seed)
        .with_rule(
            StoppingRule::relative_precision(0.95, 0.01)
                .with_min_samples(1_000)
                .with_max_samples(200_000),
        )
        .with_chunk(100)
        .with_threads(threads);
    (s, ko)
}

/// Builds a study at a thread count and master seed.
type MakeStudy = fn(usize, u64) -> (Study, PlaceId);

/// The two kinds of study every resume case runs: a fixed budget of
/// 600 replications and a precision rule.
const STUDIES: [(&str, MakeStudy); 2] = [("fixed", study), ("precision", precision_study)];

fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ahs-recovery-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A progress writer that raises an interrupt flag once it has seen a
/// needle (e.g. `chunk_done`) a given number of times — a deterministic
/// stand-in for a SIGINT arriving mid-study.
struct RaiseAfter {
    needle: &'static str,
    remaining: usize,
    flag: Arc<AtomicBool>,
}

impl Write for RaiseAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Ok(text) = std::str::from_utf8(buf) {
            let hits = text.matches(self.needle).count();
            self.remaining = self.remaining.saturating_sub(hits);
            if self.remaining == 0 {
                self.flag.store(true, Ordering::SeqCst);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn interrupted_study_resumes_bitwise_identical_at_any_thread_count() {
    let dir = scratch_dir("resume");
    for (kind, make) in STUDIES {
        let (baseline_study, ko) = make(1, 2009);
        let baseline = baseline_study
            .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
            .unwrap();
        assert!(baseline.replications >= 600, "{kind}");
        assert!(baseline.resume_lineage.is_empty());

        for threads in [1_usize, 2, 4] {
            let cp_path = dir.join(format!("{kind}-{threads}.checkpoint.json"));

            // Phase 1: run with checkpoints and an interrupt raised after
            // the second completed chunk ("kill" mid-study).
            let flag = Arc::new(AtomicBool::new(false));
            let sink = Arc::new(ProgressSink::to_writer(Box::new(RaiseAfter {
                needle: "chunk_done",
                remaining: 2,
                flag: flag.clone(),
            })));
            let (s, ko) = make(threads, 2009);
            let first = s
                .with_checkpoint(&cp_path, 100)
                .with_interrupt(flag)
                .with_progress(sink)
                .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
                .unwrap();
            assert!(
                first.interrupted || first.replications == baseline.replications,
                "{kind} study neither interrupted nor complete at {threads} threads"
            );

            // The final flush left a loadable, chunk-aligned checkpoint.
            let cp = StudyCheckpoint::load(&cp_path).unwrap();
            assert_eq!(cp.watermark, first.replications);
            assert!(cp.watermark > 0, "no replication survived the interrupt");
            assert!(cp.watermark.is_multiple_of(100));

            // Phase 2: resume and run to completion.
            let watermark = cp.watermark;
            let (s, ko) = make(threads, 2009);
            let resumed = s
                .with_resume(cp)
                .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
                .unwrap();
            assert_eq!(resumed.replications, baseline.replications, "{kind}");
            assert_eq!(resumed.converged, baseline.converged, "{kind}");
            assert!(!resumed.interrupted);
            assert_eq!(resumed.resume_lineage, vec![watermark]);

            // The headline guarantee: estimator state is bit-for-bit the
            // uninterrupted 1-thread run's, at every thread count.
            assert_eq!(
                resumed.curve.estimators(),
                baseline.curve.estimators(),
                "resumed {kind} study diverged from uninterrupted run at {threads} threads"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Time spent with `ko` latched over `[0, 4]`, a reward whose total
/// differs per replication.
fn ko_time(ko: PlaceId) -> RewardSpec {
    RewardSpec::rate(move |m| f64::from(u8::from(m.is_marked(ko))))
}

#[test]
fn interrupted_reward_study_resumes_bitwise_identical() {
    let dir = scratch_dir("reward-resume");
    let (baseline_study, ko) = study(1, 77);
    let baseline = baseline_study
        .reward(&ko_time(ko), 4.0, Backend::Markov)
        .unwrap();
    assert_eq!(baseline.replications, 600);
    assert!(
        baseline.curve.estimator(0).mean() > 0.0,
        "reward never accrued"
    );

    for threads in [1_usize, 2, 4] {
        let cp_path = dir.join(format!("reward-{threads}.checkpoint.json"));
        let flag = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(ProgressSink::to_writer(Box::new(RaiseAfter {
            needle: "chunk_done",
            remaining: 2,
            flag: flag.clone(),
        })));
        let (s, ko) = study(threads, 77);
        let first = s
            .with_checkpoint(&cp_path, 100)
            .with_interrupt(flag)
            .with_progress(sink)
            .reward(&ko_time(ko), 4.0, Backend::Markov)
            .unwrap();
        assert!(
            first.interrupted || first.replications == 600,
            "reward study neither interrupted nor complete at {threads} threads"
        );

        let cp = StudyCheckpoint::load(&cp_path).unwrap();
        assert_eq!(cp.watermark, first.replications);
        assert!(cp.watermark > 0, "no replication survived the interrupt");
        let watermark = cp.watermark;
        let (s, ko) = study(threads, 77);
        let resumed = s
            .with_resume(cp)
            .reward(&ko_time(ko), 4.0, Backend::Markov)
            .unwrap();
        assert_eq!(resumed.replications, 600);
        assert_eq!(resumed.resume_lineage, vec![watermark]);
        assert_eq!(
            resumed.curve.estimators(),
            baseline.curve.estimators(),
            "resumed reward study diverged from uninterrupted run at {threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_latest_checkpoint_falls_back_to_previous_generation_bitwise() {
    let dir = scratch_dir("gen-fallback");
    let (baseline_study, ko) = study(1, 2009);
    let baseline = baseline_study
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap();

    for threads in [1_usize, 2, 4] {
        let cp_path = dir.join(format!("study-{threads}.checkpoint.json"));

        // Interrupt after the third completed chunk so at least two
        // checkpoint generations exist on disk (rotation depth 2 is
        // the default).
        let flag = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(ProgressSink::to_writer(Box::new(RaiseAfter {
            needle: "chunk_done",
            remaining: 3,
            flag: flag.clone(),
        })));
        let (s, ko) = study(threads, 2009);
        s.with_checkpoint(&cp_path, 100)
            .with_interrupt(flag)
            .with_progress(sink)
            .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
            .unwrap();
        assert!(
            generation_path(&cp_path, 1).exists(),
            "rotation left no fallback generation at {threads} threads"
        );

        // Mangle the latest generation the way a crash mid-sector
        // would: truncate it in half. Plain load must reject it…
        let full = std::fs::read(&cp_path).unwrap();
        std::fs::write(&cp_path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            StudyCheckpoint::load(&cp_path),
            Err(SimError::Checkpoint { .. })
        ));

        // …while fallback retreats one generation and the resumed run
        // still lands bit-for-bit on the uninterrupted result.
        let (cp, generation) = StudyCheckpoint::load_with_fallback(&cp_path).unwrap();
        assert!(generation > 0, "fallback should not have used generation 0");
        let (s, ko) = study(threads, 2009);
        let resumed = s
            .with_resume(cp)
            .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
            .unwrap();
        assert_eq!(resumed.replications, 600);
        assert_eq!(
            resumed.curve.estimators(),
            baseline.curve.estimators(),
            "generation-fallback resume diverged at {threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_lineage_accumulates_across_generations() {
    let dir = scratch_dir("lineage");
    let cp_path = dir.join("gen.checkpoint.json");

    // Generation 0: interrupt after the first chunk.
    let flag = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(ProgressSink::to_writer(Box::new(RaiseAfter {
        needle: "chunk_done",
        remaining: 1,
        flag: flag.clone(),
    })));
    let (s, ko) = study(1, 11);
    let gen0 = s
        .with_checkpoint(&cp_path, 100)
        .with_interrupt(flag)
        .with_progress(sink)
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap();
    assert!(gen0.interrupted);
    let w0 = gen0.replications;

    // Generation 1: resume, interrupt again one chunk later.
    let cp = StudyCheckpoint::load(&cp_path).unwrap();
    let flag = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(ProgressSink::to_writer(Box::new(RaiseAfter {
        needle: "chunk_done",
        remaining: 1,
        flag: flag.clone(),
    })));
    let (s, ko) = study(1, 11);
    let gen1 = s
        .with_resume(cp)
        .with_checkpoint(&cp_path, 100)
        .with_interrupt(flag)
        .with_progress(sink)
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap();
    assert_eq!(gen1.resume_lineage, vec![w0]);
    let w1 = gen1.replications;
    assert!(w1 > w0);

    // Generation 2: resume to completion; the lineage names both
    // ancestors, oldest first, and matches the baseline bitwise.
    let cp = StudyCheckpoint::load(&cp_path).unwrap();
    assert_eq!(cp.lineage, vec![w0]);
    let (s, ko) = study(1, 11);
    let gen2 = s
        .with_resume(cp)
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap();
    assert_eq!(gen2.resume_lineage, vec![w0, w1]);
    assert_eq!(gen2.replications, 600);

    let (s, ko) = study(1, 11);
    let baseline = s
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap();
    assert_eq!(gen2.curve.estimators(), baseline.curve.estimators());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_replication_is_quarantined_without_aborting_the_study() {
    let fired = Arc::new(AtomicBool::new(false));
    let f = fired.clone();
    let metrics = Arc::new(Metrics::new());
    let (m, ko) = model();
    let est = Study::new(m)
        .with_seed(7)
        .with_fixed_replications(400)
        .with_chunk(100)
        .with_threads(2)
        .with_quarantine_budget(1)
        .with_metrics(metrics.clone())
        .first_passage(
            move |mk| {
                if !f.swap(true, Ordering::SeqCst) {
                    panic!("injected predicate panic");
                }
                mk.is_marked(ko)
            },
            &grid(),
            Backend::Markov,
        )
        .unwrap();
    assert_eq!(est.replications, 399, "quarantined rep must be excluded");
    assert_eq!(est.quarantined.len(), 1);
    assert!(
        est.quarantined[0]
            .message
            .contains("injected predicate panic"),
        "payload lost: {:?}",
        est.quarantined[0]
    );
    assert_eq!(metrics.snapshot().quarantined, 1);
    assert!(!est.interrupted);
}

#[test]
fn quarantine_overflow_is_a_typed_error_not_a_hang() {
    let (m, _) = model();
    let err = Study::new(m)
        .with_seed(8)
        .with_fixed_replications(400)
        .with_chunk(100)
        .with_threads(4)
        .with_quarantine_budget(2)
        .first_passage(
            |_: &ahs_san::Marking| -> bool { panic!("always broken") },
            &grid(),
            Backend::Markov,
        )
        .unwrap_err();
    match err {
        SimError::QuarantineOverflow {
            quarantined,
            budget,
            message,
        } => {
            assert_eq!(budget, 2);
            assert!(quarantined > budget);
            assert!(message.contains("always broken"), "{message}");
        }
        other => panic!("expected QuarantineOverflow, got {other:?}"),
    }
}

/// A precision-ruled study of a failing component whose target
/// predicate panics once a rare, independent `glitch` has fired: the
/// same replications panic whichever worker runs them.
fn glitching_study(threads: usize, budget: u64) -> Result<CurveEstimate, SimError> {
    let mut b = SanBuilder::new("glitch-fixture");
    let up = b.place_with_tokens("up", 1).unwrap();
    let down = b.place("down").unwrap();
    let armed = b.place_with_tokens("armed", 1).unwrap();
    let glitched = b.place("glitched").unwrap();
    b.timed_activity("fail", Delay::exponential(1.0))
        .unwrap()
        .input_place(up)
        .output_place(down)
        .build()
        .unwrap();
    b.timed_activity("glitch", Delay::exponential(0.002))
        .unwrap()
        .input_place(armed)
        .output_place(glitched)
        .build()
        .unwrap();
    let grid = TimeGrid::new(vec![1.0]);
    Study::new(b.build().unwrap())
        .with_seed(3)
        .with_rule(
            StoppingRule::relative_precision(0.95, 0.02)
                .with_min_samples(1_000)
                .with_max_samples(200_000),
        )
        .with_chunk(100)
        .with_threads(threads)
        .with_quarantine_budget(budget)
        .first_passage(
            move |m| {
                assert!(!m.is_marked(glitched), "glitch");
                m.is_marked(down)
            },
            &grid,
            Backend::Markov,
        )
}

#[test]
fn quarantine_budget_counts_only_the_prefix() {
    let solo = glitching_study(1, 1_000).unwrap();
    let panics = solo.quarantined.len() as u64;
    assert!(panics > 0, "no replication glitched");
    for threads in [1_usize, 2, 4] {
        // Exactly the prefix's panics fit the budget: panics in chunks
        // computed past the stopping watermark do not count.
        let est = glitching_study(threads, panics).unwrap();
        assert_eq!(est.replications, solo.replications, "{threads} threads");
        assert_eq!(est.quarantined, solo.quarantined, "{threads} threads");
        assert_eq!(est.curve.estimators(), solo.curve.estimators());

        // One less overflows at the prefix's last panic.
        match glitching_study(threads, panics - 1).unwrap_err() {
            SimError::QuarantineOverflow {
                quarantined,
                message,
                ..
            } => {
                assert_eq!(quarantined, panics, "{threads} threads");
                assert_eq!(
                    message,
                    solo.quarantined.last().unwrap().message,
                    "{threads} threads"
                );
            }
            other => panic!("expected QuarantineOverflow, got {other:?}"),
        }
    }
}

#[test]
fn watchdog_bounds_runaway_replications() {
    let (m, _) = model();
    // A predicate that never holds over a long horizon: every
    // replication churns events until t = 100, far beyond the budget.
    let long_grid = TimeGrid::new(vec![100.0]);
    let err = Study::new(m)
        .with_seed(9)
        .with_fixed_replications(50)
        .with_chunk(10)
        .with_threads(2)
        .with_watchdog(Watchdog::new().with_max_events(5))
        .first_passage(|_| false, &long_grid, Backend::Markov)
        .unwrap_err();
    match err {
        SimError::Runaway { events, .. } => assert_eq!(events, 6),
        other => panic!("expected Runaway, got {other:?}"),
    }
}

#[test]
fn resume_rejects_mismatched_configuration() {
    let dir = scratch_dir("validate");
    let cp_path = dir.join("study.checkpoint.json");
    let (s, ko) = study(1, 42);
    s.with_checkpoint(&cp_path, 100)
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap();
    let cp = StudyCheckpoint::load(&cp_path).unwrap();

    // Wrong master seed.
    let (s, ko) = study(1, 43);
    let err = s
        .with_resume(cp.clone())
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap_err();
    assert!(
        matches!(&err, SimError::Checkpoint { reason } if reason.contains("seed")),
        "{err}"
    );

    // Wrong chunk size (merge order would differ).
    let (s, ko) = study(1, 42);
    let err = s
        .with_chunk(50)
        .with_resume(cp.clone())
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap_err();
    assert!(
        matches!(&err, SimError::Checkpoint { reason } if reason.contains("chunk")),
        "{err}"
    );

    // Structurally different model (a failure rate changed).
    let (m, ko) = model_with_rate(0.9);
    let err = Study::new(m)
        .with_seed(42)
        .with_fixed_replications(600)
        .with_chunk(100)
        .with_threads(1)
        .with_resume(cp)
        .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
        .unwrap_err();
    assert!(
        matches!(&err, SimError::Checkpoint { reason } if reason.contains("fingerprint")),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn completed_checkpoint_resumes_to_identical_result_without_new_work() {
    let dir = scratch_dir("complete");
    for (kind, make) in STUDIES {
        let cp_path = dir.join(format!("{kind}.checkpoint.json"));
        let (s, ko) = make(1, 5);
        let full = s
            .with_checkpoint(&cp_path, 100)
            .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
            .unwrap();
        assert!(full.converged, "{kind}");

        let cp = StudyCheckpoint::load(&cp_path).unwrap();
        assert_eq!(cp.watermark, full.replications);
        let metrics = Arc::new(Metrics::new());
        let (s, ko) = make(1, 5);
        let resumed = s
            .with_resume(cp)
            .with_metrics(metrics.clone())
            .first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
            .unwrap();
        assert_eq!(resumed.replications, full.replications, "{kind}");
        assert!(resumed.converged, "{kind}");
        assert_eq!(
            resumed.curve.estimators(),
            full.curve.estimators(),
            "{kind}"
        );
        // No replication re-ran.
        assert_eq!(metrics.snapshot().replications, 0, "{kind}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
