//! Chaos tier: a deterministic sweep of **every** registered failpoint
//! (`ahs_inject::catalog()`), proving that each injected fault ends in
//! one of three sanctioned outcomes — a typed error, a *counted*
//! degradation, or a bitwise-identical resume. Anything else (a hang,
//! an unclassified panic, silent data loss) fails the sweep.
//!
//! Runs only with the `inject` feature (`cargo test -p ahs-des --test
//! chaos --features inject`); the CI `chaos` job gates on it. The whole
//! sweep is a single `#[test]` because the failpoint registry is
//! process-global — scenarios must run serially.

use std::collections::HashSet;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ahs_des::{generation_path, Backend, SimError, Study, StudyCheckpoint, Watchdog};
use ahs_obs::{atomic_write, dir_sync_failures, write_with_retry, ProgressSink};
use ahs_san::{Delay, PlaceId, SanBuilder, SanModel};
use ahs_stats::TimeGrid;

/// The recovery-tier fixture: two failing components with a repair
/// loop and an instantaneous "system down" latch.
fn model() -> (SanModel, PlaceId) {
    let mut b = SanBuilder::new("chaos-fixture");
    let up1 = b.place_with_tokens("up1", 1).unwrap();
    let dn1 = b.place("dn1").unwrap();
    let up2 = b.place_with_tokens("up2", 1).unwrap();
    let dn2 = b.place("dn2").unwrap();
    let ko = b.place("ko").unwrap();
    b.timed_activity("fail1", Delay::exponential(0.8))
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

/// A high-rate ping-pong: thousands of events per replication, so the
/// wall-clock watchdog (consulted every 1024 events) gets a say.
fn ping_pong() -> SanModel {
    let mut b = SanBuilder::new("chaos-ping-pong");
    let up = b.place_with_tokens("up", 1).unwrap();
    let down = b.place("down").unwrap();
    b.timed_activity("ping", Delay::exponential(2000.0))
        .unwrap()
        .input_place(up)
        .output_place(down)
        .build()
        .unwrap();
    b.timed_activity("pong", Delay::exponential(2000.0))
        .unwrap()
        .input_place(down)
        .output_place(up)
        .build()
        .unwrap();
    b.build().unwrap()
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

fn run(s: Study, ko: PlaceId) -> Result<ahs_des::CurveEstimate, SimError> {
    s.first_passage(move |m| m.is_marked(ko), &grid(), Backend::Markov)
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ahs-chaos-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_no_tmp_orphans(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "orphaned temporary {name:?} left behind in {}",
            dir.display()
        );
    }
}

/// Arms the registry with `spec`; panics (failing the sweep) on a
/// malformed spec or a name missing from the catalog.
fn arm(spec: &str) {
    ahs_inject::configure_from_spec(spec).expect("chaos spec must parse");
}

/// Closes a scenario: every failpoint it armed must actually have
/// fired, then the registry is cleared and the names are marked
/// covered.
fn cover(covered: &mut HashSet<&'static str>, names: &[&'static str]) {
    for name in names {
        assert!(
            ahs_inject::hits(name) > 0,
            "scenario configured failpoint `{name}` but it never fired"
        );
        covered.insert(name);
    }
    ahs_inject::clear();
}

#[test]
fn chaos_sweep_covers_every_registered_failpoint() {
    let dir = scratch_dir("sweep");
    let mut covered: HashSet<&'static str> = HashSet::new();
    ahs_inject::clear();

    // The uninterrupted, un-faulted reference result every resume
    // scenario must reproduce bit for bit.
    let (s, ko) = study(1, 2009);
    let baseline = run(s, ko).unwrap();
    assert_eq!(baseline.replications, 600);

    // --- obs::fsio::create: a permanent error surfaces immediately,
    // untouched by the retry layer, leaving no trace on disk.
    arm("obs::fsio::create=return(permission-denied)");
    let target = dir.join("create.json");
    let err = write_with_retry(&target, b"{}\n").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::PermissionDenied);
    assert_eq!(
        ahs_inject::hits("obs::fsio::create"),
        1,
        "permanent errors must not be retried"
    );
    assert!(!target.exists());
    assert_no_tmp_orphans(&dir);
    cover(&mut covered, &["obs::fsio::create"]);

    // --- obs::fsio::write: a torn write is transient (the crash model
    // of atomic_write); retry republishes the full document.
    arm("obs::fsio::write=1*torn-write(3)");
    let target = dir.join("torn.json");
    write_with_retry(&target, b"{\"v\":1}\n").unwrap();
    assert_eq!(std::fs::read(&target).unwrap(), b"{\"v\":1}\n");
    assert_eq!(ahs_inject::hits("obs::fsio::write"), 2, "one retry");
    assert_no_tmp_orphans(&dir);
    cover(&mut covered, &["obs::fsio::write"]);

    // --- obs::fsio::sync: two transient fsync failures are absorbed
    // within the retry budget.
    arm("obs::fsio::sync=2*return(interrupted)");
    let target = dir.join("sync.json");
    write_with_retry(&target, b"synced\n").unwrap();
    assert_eq!(std::fs::read(&target).unwrap(), b"synced\n");
    assert_eq!(ahs_inject::hits("obs::fsio::sync"), 3);
    cover(&mut covered, &["obs::fsio::sync"]);

    // --- obs::fsio::rename: a failed publication never disturbs the
    // previous contents; the retry then replaces them whole.
    let target = dir.join("rename.json");
    atomic_write(&target, b"old\n").unwrap();
    arm("obs::fsio::rename=1*return(enospc)");
    write_with_retry(&target, b"new\n").unwrap();
    assert_eq!(std::fs::read(&target).unwrap(), b"new\n");
    assert_no_tmp_orphans(&dir);
    cover(&mut covered, &["obs::fsio::rename"]);

    // --- obs::fsio::dir-sync: directory-fsync failure is degradation,
    // not failure — the artifact is published, the counter ticks.
    let before = dir_sync_failures();
    arm("obs::fsio::dir-sync=return(other)");
    let target = dir.join("dirsync.json");
    atomic_write(&target, b"published\n").unwrap();
    assert_eq!(std::fs::read(&target).unwrap(), b"published\n");
    assert!(dir_sync_failures() > before, "degradation must be counted");
    cover(&mut covered, &["obs::fsio::dir-sync"]);

    // --- obs::progress::emit: a study whose telemetry sink fails on
    // every event completes with identical estimates and a nonzero
    // dropped count.
    arm("obs::progress::emit=return(broken-pipe)");
    let sink = Arc::new(ProgressSink::to_writer(Box::new(Vec::new())));
    let (s, ko) = study(2, 2009);
    let est = run(s.with_progress(sink.clone()), ko).unwrap();
    assert_eq!(est.curve.estimators(), baseline.curve.estimators());
    assert!(sink.dropped() > 0, "lost telemetry must be counted");
    cover(&mut covered, &["obs::progress::emit"]);

    // --- des::checkpoint::save: the *last* checkpoint write lands
    // corrupt; generation fallback resumes from the retained previous
    // document, bitwise-identical to the baseline.
    let cp_path = dir.join("save.ckpt.json");
    // 600 reps / chunk 100 at 1 thread: six in-loop flushes plus the
    // final one — corrupt write #7.
    arm("des::checkpoint::save=6*off->corrupt-bytes(16)");
    let (s, ko) = study(1, 2009);
    let est = run(s.with_checkpoint(&cp_path, 100), ko).unwrap();
    assert_eq!(est.replications, 600);
    assert_eq!(ahs_inject::hits("des::checkpoint::save"), 7);
    cover(&mut covered, &["des::checkpoint::save"]);
    assert!(
        matches!(
            StudyCheckpoint::load(&cp_path),
            Err(SimError::Checkpoint { .. })
        ),
        "latest generation should be corrupt"
    );
    let (cp, generation) = StudyCheckpoint::load_with_fallback(&cp_path).unwrap();
    assert_eq!(
        generation, 1,
        "fallback must come from the retained generation"
    );
    assert_eq!(cp.watermark, 600);
    let (s, ko) = study(1, 2009);
    let resumed = run(s.with_resume(cp), ko).unwrap();
    assert_eq!(resumed.curve.estimators(), baseline.curve.estimators());

    // --- des::checkpoint::load: corruption injected on the read path
    // is a typed error, and fallback survives it by reading the next
    // generation.
    let cp_path = dir.join("load.ckpt.json");
    let (s, ko) = study(1, 2009);
    run(s.with_checkpoint(&cp_path, 100), ko).unwrap();
    arm("des::checkpoint::load=1*corrupt-bytes(16)");
    let err = StudyCheckpoint::load(&cp_path).unwrap_err();
    assert!(matches!(err, SimError::Checkpoint { .. }), "{err}");
    arm("des::checkpoint::load=1*corrupt-bytes(16)");
    let (cp, generation) = StudyCheckpoint::load_with_fallback(&cp_path).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(cp.watermark, 600);
    cover(&mut covered, &["des::checkpoint::load"]);

    // --- des::replication::body (panic): exactly one injected panic is
    // quarantined; the study completes one replication short.
    arm("des::replication::body=5*off->1*panic(chaos-panic)");
    let (s, ko) = study(2, 2009);
    let est = run(s.with_quarantine_budget(1), ko).unwrap();
    assert_eq!(est.replications, 599);
    assert_eq!(est.quarantined.len(), 1);
    assert!(est.quarantined[0].message.contains("chaos-panic"));
    cover(&mut covered, &["des::replication::body"]);

    // --- des::replication::body (error): an injected IO-ish failure
    // surfaces as a typed SimError, not a panic or a hang.
    arm("des::replication::body=return(other)");
    let (s, ko) = study(2, 2009);
    let err = run(s, ko).unwrap_err();
    assert!(
        matches!(&err, SimError::Internal { context } if context.contains("injected")),
        "{err}"
    );
    cover(&mut covered, &["des::replication::body"]);

    // --- des::replication::chunk: an injected interrupt at a chunk
    // boundary drains gracefully; resuming from the flushed checkpoint
    // reproduces the baseline bit for bit at 1, 2, and 4 threads.
    for threads in [1_usize, 2, 4] {
        let cp_path = dir.join(format!("interrupt-{threads}.ckpt.json"));
        arm("des::replication::chunk=2*off->1*raise-interrupt");
        let flag = Arc::new(AtomicBool::new(false));
        let (s, ko) = study(threads, 2009);
        let first = run(s.with_checkpoint(&cp_path, 100).with_interrupt(flag), ko).unwrap();
        assert!(
            first.interrupted || first.replications == 600,
            "study neither interrupted nor complete at {threads} threads"
        );
        cover(&mut covered, &["des::replication::chunk"]);

        let cp = StudyCheckpoint::load(&cp_path).unwrap();
        assert!(cp.watermark > 0, "nothing survived the injected interrupt");
        let (s, ko) = study(threads, 2009);
        let resumed = run(s.with_resume(cp), ko).unwrap();
        assert_eq!(resumed.replications, 600);
        assert_eq!(
            resumed.curve.estimators(),
            baseline.curve.estimators(),
            "resume after injected interrupt diverged at {threads} threads"
        );
    }

    // --- des::sim::step (panic): a panic in the simulation inner loop
    // tears down one replication mid-event; quarantine absorbs it.
    arm("des::sim::step=50*off->1*panic(step-chaos)");
    let (s, ko) = study(1, 2009);
    let est = run(s.with_quarantine_budget(1), ko).unwrap();
    assert_eq!(est.replications, 599);
    assert_eq!(est.quarantined.len(), 1);
    assert!(est.quarantined[0].message.contains("step-chaos"));
    cover(&mut covered, &["des::sim::step"]);

    // --- des::sim::step (delay): a stalled inner loop trips the
    // wall-clock watchdog with a typed Runaway instead of hanging the
    // study. The ping-pong model guarantees the ≥1024 events the
    // wall-clock check is amortized over.
    arm("des::sim::step=1*delay(30)");
    let err = Study::new(ping_pong())
        .with_seed(2009)
        .with_fixed_replications(4)
        .with_chunk(2)
        .with_threads(1)
        .with_watchdog(Watchdog::new().with_max_wall_seconds(0.001))
        .first_passage(|_| false, &TimeGrid::new(vec![1.0]), Backend::Markov)
        .unwrap_err();
    assert!(matches!(err, SimError::Runaway { .. }), "{err}");
    cover(&mut covered, &["des::sim::step"]);

    // --- The sweep's reason to exist: nothing in the obs/des layers
    // escaped. The `ahs-serve` and `ahs-serve-worker` points have
    // their own serial sweep (`tests/serve_chaos.rs` at the workspace
    // root); the partition check below keeps the two sweeps jointly
    // exhaustive — a failpoint registered under a new (or typo'd)
    // layer fails here until a sweep claims it.
    let all: HashSet<&'static str> = ahs_inject::catalog()
        .iter()
        .filter(|d| d.layer != "ahs-serve" && d.layer != "ahs-serve-worker")
        .map(|d| d.name)
        .collect();
    let missed: Vec<&&str> = all.difference(&covered).collect();
    assert!(
        missed.is_empty(),
        "chaos sweep missed registered failpoint(s): {missed:?}"
    );
    // And the converse: no scenario claimed a name the catalog lacks.
    assert!(covered.is_subset(&all));
    for d in ahs_inject::catalog() {
        assert!(
            matches!(
                d.layer,
                "ahs-obs" | "ahs-des" | "ahs-serve" | "ahs-serve-worker"
            ),
            "failpoint {} registered under layer {:?}, which no chaos sweep covers",
            d.name,
            d.layer
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A second, tiny test on purpose: `generation_path` is part of the
/// public resume contract the chaos sweep leans on, so pin it here too
/// (the registry is untouched — safe to run in parallel).
#[test]
fn generation_paths_used_by_fallback_are_stable() {
    let p = Path::new("out/run.ckpt.json");
    assert_eq!(generation_path(p, 0), PathBuf::from("out/run.ckpt.json"));
    assert_eq!(generation_path(p, 1), PathBuf::from("out/run.ckpt.1.json"));
}
