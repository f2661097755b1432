//! Per-job supervision: checkpoint-namespaced attempts, restart from
//! the latest good generation, typed failure classification.
//!
//! Every attempt speaks the one protocol of [`crate::worker`]: spec
//! in from `job.json`; heartbeat, `outcome.json` and `manifest.json`
//! out; exit 0 / 75 / 1. The attempt re-execs the worker binary as a
//! hidden `ahs serve-worker`, which applies `setrlimit` budgets to
//! itself before running the protocol. The supervisor sees the
//! worker's death as EOF on its stdout pipe and watches its heartbeat,
//! so *any* death — SIGKILL, SIGSEGV, rlimit-induced aborts, a wedge —
//! costs one restart, and is reaped as soon as it happens.
//!
//! The exit and the outcome document go through one mapping
//! ([`classify_worker_exit`]) into one restart policy, and a restarted
//! attempt resumes bitwise from the latest good checkpoint generation.
//! Unrecoverable causes (bad parameters, checkpoint validation
//! failure, IO that outlived its retries) fail the job with a typed
//! message instead of burning restarts.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ahs_core::{AhsError, UnsafetyCurve};
use ahs_des::{SimError, Watchdog};
use ahs_obs::{git_revision, heartbeat_read, send_sigterm};

use crate::job::{Job, JobSpec, Phase};
use crate::worker::{WorkerOptions, WorkerOutcome};

/// Default heartbeat cadence of an attempt.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// How each job attempt's worker process is started and watched.
#[derive(Debug, Clone)]
pub struct ProcessIsolation {
    /// Binary to re-exec (normally `std::env::current_exe()`); it must
    /// understand the hidden `serve-worker` mode.
    pub worker_exe: PathBuf,
    /// Address-space cap applied by the worker to itself, in MiB.
    pub mem_limit_mb: Option<u64>,
    /// CPU-time cap applied by the worker to itself, in seconds.
    pub cpu_limit_secs: Option<u64>,
    /// Cadence of the worker's heartbeat file.
    pub heartbeat_interval: Duration,
    /// How long a non-advancing heartbeat is tolerated before the
    /// supervisor declares the worker wedged and kills it.
    pub heartbeat_stale_after: Duration,
    /// Grace between the drain SIGTERM and a hard SIGKILL.
    pub term_grace: Duration,
}

impl ProcessIsolation {
    /// Worker processes re-execed from `worker_exe` with default
    /// budgets: no rlimits, 200ms heartbeats declared stale after 30s,
    /// 30s of drain grace.
    pub fn new(worker_exe: impl Into<PathBuf>) -> ProcessIsolation {
        ProcessIsolation {
            worker_exe: worker_exe.into(),
            mem_limit_mb: None,
            cpu_limit_secs: None,
            heartbeat_interval: HEARTBEAT_INTERVAL,
            heartbeat_stale_after: Duration::from_secs(30),
            term_grace: Duration::from_secs(30),
        }
    }
}

/// Supervision knobs, fixed at server construction.
#[derive(Debug, Clone)]
pub(crate) struct SupervisorConfig {
    /// Restarts allowed per job before a crash becomes a failure.
    pub restart_budget: u32,
    /// Replications between checkpoint flushes.
    pub checkpoint_every: u64,
    /// Server-policy watchdog applied to every job.
    pub watchdog: Option<Watchdog>,
    /// How each attempt's worker process is started and watched.
    pub isolation: ProcessIsolation,
}

/// The verdict on one attempt.
enum AttemptEnd {
    /// Final estimates are in hand (and the attempt wrote the
    /// manifest).
    Finished(UnsafetyCurve),
    /// Drained at a chunk boundary with a flushed checkpoint.
    Drained { replications: u64 },
    /// A typed, non-restartable failure.
    Failed { message: String },
    /// A death a resume-from-checkpoint can outrun.
    Crashed { reason: String },
}

/// How an attempt ended, as observed by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerExit {
    /// Exited on its own with this code (101 for a panic).
    Code(i32),
    /// Killed by this signal (9 = SIGKILL, 11 = SIGSEGV, 6 = SIGABRT).
    Signal(i32),
    /// Alive but its heartbeat stopped advancing; the supervisor
    /// killed it.
    HeartbeatStale,
}

/// What the supervisor does about a [`WorkerExit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExitClass {
    /// Exit 0 — the outcome document carries final estimates.
    Finished,
    /// Exit 75 (`EX_TEMPFAIL`) — graceful drain, checkpoint flushed.
    Drained,
    /// Exit 1 — a typed failure; the outcome document says whether a
    /// restart could help.
    Typed,
    /// Everything else — panic aborts (101), rlimit kills, SIGKILL,
    /// SIGSEGV, stale heartbeats: restart from the latest good
    /// checkpoint generation.
    Crash,
}

/// The exit-status → restart-decision mapping, as a pure function so
/// the supervision policy is unit-testable without spawning anything.
pub(crate) fn classify_worker_exit(exit: WorkerExit) -> ExitClass {
    match exit {
        WorkerExit::Code(0) => ExitClass::Finished,
        WorkerExit::Code(75) => ExitClass::Drained,
        WorkerExit::Code(1) => ExitClass::Typed,
        WorkerExit::Code(_) | WorkerExit::Signal(_) | WorkerExit::HeartbeatStale => {
            ExitClass::Crash
        }
    }
}

fn describe_exit(exit: WorkerExit) -> String {
    match exit {
        WorkerExit::Code(code) => format!("worker exited with code {code}"),
        WorkerExit::Signal(signal) => format!("worker process killed by signal {signal}"),
        WorkerExit::HeartbeatStale => {
            "worker heartbeat went stale; process killed by the supervisor".to_owned()
        }
    }
}

/// Whether a typed error is worth a restart: only causes that a
/// resume-from-checkpoint can actually outrun. Watchdog kills
/// (`Runaway`) and quarantine overflows are scheduling/injection
/// artifacts that a later attempt may not reproduce; everything else
/// (invalid parameters, checkpoint validation, exhausted IO retries)
/// would fail identically again.
pub(crate) fn restartable(error: &AhsError) -> bool {
    matches!(
        error,
        AhsError::Sim(SimError::Runaway { .. } | SimError::QuarantineOverflow { .. })
    )
}

/// Runs `job` to a terminal phase (`Finished`, `Failed`, or
/// `Interrupted` when `stop` drains it), restarting crashed attempts
/// within the budget. Returns the number of restarts consumed.
pub(crate) fn run_supervised(
    job: &Arc<Job>,
    config: &SupervisorConfig,
    stop: &Arc<AtomicBool>,
) -> u32 {
    job.set_phase(Phase::Running);
    let mut consumed = 0u32;
    loop {
        let crash_reason = match attempt(job, config, stop) {
            AttemptEnd::Finished(curve) => {
                job.set_phase(Phase::Finished(curve));
                return consumed;
            }
            AttemptEnd::Drained { replications } => {
                job.set_phase(Phase::Interrupted { replications });
                return consumed;
            }
            AttemptEnd::Failed { message } => {
                job.set_phase(Phase::Failed(message));
                return consumed;
            }
            AttemptEnd::Crashed { reason } => reason,
        };
        if consumed >= config.restart_budget {
            job.set_phase(Phase::Failed(format!(
                "{crash_reason} (restart budget of {} exhausted)",
                config.restart_budget
            )));
            return consumed;
        }
        consumed += 1;
        job.restarts.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "supervisor: {} attempt crashed ({crash_reason}); restarting ({consumed}/{})",
            job.name, config.restart_budget
        );
    }
}

/// One attempt: failpoints, a clean slate, the worker process itself,
/// then the outcome document classified by exit.
fn attempt(job: &Arc<Job>, config: &SupervisorConfig, stop: &Arc<AtomicBool>) -> AttemptEnd {
    // The spawn failpoint models a worker dying before (panic) or while
    // (error) picking the job up: panic-shaped faults are restartable
    // crashes, error-shaped ones typed failures. A delay models slow
    // starts.
    match ahs_inject::eval("serve::worker::spawn") {
        Some(ahs_inject::Fault::Panic(msg)) => {
            return AttemptEnd::Crashed {
                reason: format!("injected worker-spawn crash: {msg}"),
            };
        }
        Some(fault @ ahs_inject::Fault::Error(_)) => {
            return AttemptEnd::Failed {
                message: fault.to_io_error("serve::worker::spawn").map_or_else(
                    || "injected worker-spawn fault".to_owned(),
                    |e| e.to_string(),
                ),
            };
        }
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }
    // The exec failpoint models starting the worker failing (missing
    // binary, fork failure): a restartable crash, like a real spawn
    // error.
    match ahs_inject::eval("serve::worker::exec") {
        Some(ahs_inject::Fault::Error(_) | ahs_inject::Fault::Panic(_)) => {
            return AttemptEnd::Crashed {
                reason: "injected worker-exec fault".to_owned(),
            };
        }
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }

    let outcome_path = job.dir.join("outcome.json");
    std::fs::remove_file(&outcome_path).ok();
    std::fs::remove_file(job.dir.join("heartbeat")).ok();

    let options = WorkerOptions {
        job_dir: job.dir.clone(),
        checkpoint_every: config.checkpoint_every,
        heartbeat_interval: config.isolation.heartbeat_interval,
        watchdog: config.watchdog,
        expect_spec: job.spec.as_ref().map(JobSpec::digest),
    };
    let (exit, termed) = match run_process(job, &options, &config.isolation, stop) {
        Ok(ended) => ended,
        Err(reason) => return AttemptEnd::Crashed { reason },
    };

    // The reap failpoint models losing the worker's outcome document
    // (truncated write, unreadable disk) after a clean-looking exit:
    // the attempt demotes to a restartable crash.
    let reap_fault = match ahs_inject::eval("serve::worker::reap") {
        Some(ahs_inject::Fault::Error(_)) => true,
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        _ => false,
    };
    let outcome = if reap_fault {
        None
    } else {
        WorkerOutcome::read(&outcome_path)
    };

    match classify_worker_exit(exit) {
        ExitClass::Finished => match outcome {
            Some(outcome) if outcome.is_finished() => match outcome.curve {
                Some(curve) => {
                    job.telemetry_dropped
                        .fetch_add(outcome.telemetry_dropped, Ordering::Relaxed);
                    AttemptEnd::Finished(curve)
                }
                None => AttemptEnd::Crashed {
                    reason: "worker finished without readable estimates".to_owned(),
                },
            },
            _ => AttemptEnd::Crashed {
                reason: "worker exited 0 without a readable outcome document".to_owned(),
            },
        },
        ExitClass::Drained => {
            if stop.load(Ordering::Relaxed) {
                AttemptEnd::Drained {
                    replications: outcome.map_or(0, |o| o.replications),
                }
            } else {
                // An unsolicited drain is a wedged worker in disguise;
                // the checkpoint it flushed makes the restart cheap.
                AttemptEnd::Crashed {
                    reason: "worker drained without a drain request".to_owned(),
                }
            }
        }
        ExitClass::Typed => match outcome {
            Some(outcome) if outcome.is_failed() => {
                if outcome.restartable {
                    AttemptEnd::Crashed {
                        reason: outcome.message,
                    }
                } else {
                    AttemptEnd::Failed {
                        message: outcome.message,
                    }
                }
            }
            _ => AttemptEnd::Crashed {
                reason: "worker exited 1 without a readable outcome document".to_owned(),
            },
        },
        ExitClass::Crash => {
            if termed || stop.load(Ordering::Relaxed) {
                // The drain raced a death (or our own grace-period
                // SIGKILL landed): the last flushed checkpoint is
                // intact, so the job stays resumable and the restart
                // budget is not charged for the supervisor's own kill.
                AttemptEnd::Drained {
                    replications: outcome.map_or(0, |o| o.replications),
                }
            } else {
                AttemptEnd::Crashed {
                    reason: describe_exit(exit),
                }
            }
        }
    }
}

/// Re-execs the worker with `options` on its argv, then watches exit
/// and heartbeat. `Err` when the child never started.
fn run_process(
    job: &Job,
    options: &WorkerOptions,
    isolation: &ProcessIsolation,
    stop: &Arc<AtomicBool>,
) -> Result<(WorkerExit, bool), String> {
    let mut command = Command::new(&isolation.worker_exe);
    command
        .arg("serve-worker")
        .arg("--job-dir")
        .arg(&options.job_dir)
        .arg("--checkpoint-every")
        .arg(options.checkpoint_every.to_string())
        .arg("--heartbeat-ms")
        .arg(options.heartbeat_interval.as_millis().to_string())
        // The server's revision, resolved at its first spawn: the worker
        // reports it in its manifest without starting `git` itself.
        .env("AHS_GIT_REVISION", git_revision())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(digest) = options.expect_spec {
        command.arg("--expect-spec").arg(format!("{digest:016x}"));
    }
    if let Some(mb) = isolation.mem_limit_mb {
        command.arg("--mem-limit").arg(mb.to_string());
    }
    if let Some(secs) = isolation.cpu_limit_secs {
        command.arg("--cpu-limit").arg(secs.to_string());
    }
    if let Some(watchdog) = options.watchdog {
        if let Some(events) = watchdog.max_events() {
            command.arg("--watchdog-events").arg(events.to_string());
        }
        if let Some(seconds) = watchdog.max_wall_seconds() {
            command.arg("--watchdog-seconds").arg(seconds.to_string());
        }
    }
    let (mut child, exit_seen) =
        spawn_watched(&mut command).map_err(|e| format!("spawning worker process: {e}"))?;
    job.set_worker_pid(Some(child.id()));
    let ended = supervise_child(
        &mut child,
        &exit_seen,
        &options.job_dir.join("heartbeat"),
        isolation,
        stop,
    );
    job.set_worker_pid(None);
    ended
}

/// Spawns `command` with its stdout on a pipe and returns the child
/// with a receiver that fires when that pipe reaches EOF — the moment
/// the child dies, whatever killed it. The worker never writes to
/// stdout and starts no processes that could inherit the pipe; a short
/// helper thread drains it regardless, so a stray write cannot block.
fn spawn_watched(command: &mut Command) -> std::io::Result<(Child, Receiver<()>)> {
    let mut child = command.stdout(Stdio::piped()).spawn()?;
    let mut pipe = child.stdout.take().expect("stdout was just piped");
    let (exited, exit_seen) = mpsc::channel();
    let reader = std::thread::Builder::new()
        .name("serve-reap".to_owned())
        .spawn(move || {
            std::io::copy(&mut pipe, &mut std::io::sink()).ok();
            exited.send(()).ok();
        });
    if let Err(e) = reader {
        child.kill().ok();
        child.wait().ok();
        return Err(e);
    }
    Ok((child, exit_seen))
}

/// Waits the child out: forwards the drain flag as SIGTERM (SIGKILL
/// after the grace period), watches the heartbeat for advance, and
/// kills a wedged worker. Returns how the child ended and whether a
/// drain was requested of it; `Err` when it could not be reaped.
///
/// The exit is seen at once on `exit_seen` (see [`spawn_watched`]);
/// the checks run every heartbeat interval while the child lives.
/// (Blocking in `Child::wait` on another thread instead would need the
/// `Child` there, and a kill by PID would race the reap and could hit
/// a reused PID.)
fn supervise_child(
    child: &mut Child,
    exit_seen: &Receiver<()>,
    heartbeat: &Path,
    isolation: &ProcessIsolation,
    stop: &Arc<AtomicBool>,
) -> Result<(WorkerExit, bool), String> {
    let tick = isolation.heartbeat_interval.max(Duration::from_millis(1));
    let mut termed = false;
    let mut kill_deadline: Option<Instant> = None;
    let mut stale = false;
    let mut last_beat: Option<u64> = None;
    let mut last_advance = Instant::now();
    loop {
        match exit_seen.recv_timeout(tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        if !termed && stop.load(Ordering::Relaxed) {
            termed = true;
            kill_deadline = Some(Instant::now() + isolation.term_grace);
            // std's Child::kill is SIGKILL; the graceful request needs
            // the obs kill(2) shim. If even that fails, fall through to
            // the hard kill.
            if send_sigterm(child.id()).is_err() {
                child.kill().ok();
                break;
            }
        }
        // SIGKILL cannot be caught, so once it is sent the reap below
        // returns promptly; the pipe's EOF is not waited for.
        if kill_deadline.is_some_and(|deadline| Instant::now() > deadline) {
            child.kill().ok();
            break;
        }
        if !termed {
            let beat = heartbeat_read(heartbeat);
            if beat.is_some() && beat != last_beat {
                last_beat = beat;
                last_advance = Instant::now();
            } else if last_advance.elapsed() > isolation.heartbeat_stale_after {
                stale = true;
                child.kill().ok();
                break;
            }
        }
    }
    let status = child.wait().map_err(|e| {
        child.kill().ok();
        format!("reaping worker process {}: {e}", child.id())
    })?;
    let exit = if stale {
        WorkerExit::HeartbeatStale
    } else {
        exit_of_status(&status)
    };
    Ok((exit, termed))
}

fn exit_of_status(status: &ExitStatus) -> WorkerExit {
    if let Some(code) = status.code() {
        return WorkerExit::Code(code);
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            return WorkerExit::Signal(signal);
        }
    }
    WorkerExit::Signal(-1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_to_restart_decision_table() {
        // The satellite contract: every way a worker process can die
        // maps to exactly one supervision decision.
        for (exit, class) in [
            (WorkerExit::Code(0), ExitClass::Finished),
            (WorkerExit::Code(75), ExitClass::Drained),
            (WorkerExit::Code(1), ExitClass::Typed),
            // A Rust panic that unwound to the runtime.
            (WorkerExit::Code(101), ExitClass::Crash),
            // abort() / allocation failure past --mem-limit.
            (WorkerExit::Signal(6), ExitClass::Crash),
            // SIGKILL: uncatchable, invisible to catch_unwind.
            (WorkerExit::Signal(9), ExitClass::Crash),
            // SIGSEGV.
            (WorkerExit::Signal(11), ExitClass::Crash),
            // RLIMIT_CPU exceeded (SIGXCPU).
            (WorkerExit::Signal(24), ExitClass::Crash),
            (WorkerExit::HeartbeatStale, ExitClass::Crash),
        ] {
            assert_eq!(classify_worker_exit(exit), class, "misclassified {exit:?}");
        }
    }

    #[test]
    fn crash_descriptions_name_the_death() {
        assert!(describe_exit(WorkerExit::Code(101)).contains("code 101"));
        assert!(describe_exit(WorkerExit::Signal(9)).contains("signal 9"));
        assert!(describe_exit(WorkerExit::HeartbeatStale).contains("heartbeat"));
    }

    /// Supervises `sh -c script`, spawned the way `run_process` spawns
    /// a worker, against a heartbeat file that is never
    /// written, and times the whole supervision.
    #[cfg(unix)]
    fn supervise_sh(
        script: &str,
        isolation: &ProcessIsolation,
        stop: &Arc<AtomicBool>,
    ) -> ((WorkerExit, bool), Duration) {
        let (mut child, exit_seen) = spawn_watched(
            Command::new("/bin/sh")
                .arg("-c")
                .arg(script)
                .stdin(Stdio::null()),
        )
        .expect("spawning /bin/sh");
        let heartbeat = std::env::temp_dir().join(format!(
            "ahs-supervise-no-heartbeat-{}-{}",
            std::process::id(),
            child.id()
        ));
        let started = Instant::now();
        let ended =
            supervise_child(&mut child, &exit_seen, &heartbeat, isolation, stop).expect("reaped");
        (ended, started.elapsed())
    }

    #[cfg(unix)]
    fn sh_isolation() -> ProcessIsolation {
        let mut isolation = ProcessIsolation::new("/bin/sh");
        isolation.heartbeat_interval = Duration::from_millis(50);
        isolation
    }

    #[cfg(unix)]
    #[test]
    fn supervised_child_exit_code_is_reported() {
        let stop = Arc::new(AtomicBool::new(false));
        let ((exit, termed), _) = supervise_sh("exit 3", &sh_isolation(), &stop);
        assert_eq!(exit, WorkerExit::Code(3));
        assert!(!termed);
    }

    #[cfg(unix)]
    #[test]
    fn supervised_child_killed_by_a_signal_is_reported() {
        let stop = Arc::new(AtomicBool::new(false));
        let ((exit, termed), _) = supervise_sh("kill -9 $$", &sh_isolation(), &stop);
        assert_eq!(exit, WorkerExit::Signal(9));
        assert!(!termed);
    }

    #[cfg(unix)]
    #[test]
    fn silent_child_is_killed_as_heartbeat_stale() {
        let stop = Arc::new(AtomicBool::new(false));
        let mut isolation = sh_isolation();
        isolation.heartbeat_stale_after = Duration::from_millis(200);
        // `exec` so the pipe's only writer is the process we kill.
        let ((exit, termed), took) = supervise_sh("exec sleep 30", &isolation, &stop);
        assert_eq!(exit, WorkerExit::HeartbeatStale);
        assert!(!termed);
        assert!(took < Duration::from_secs(10), "stale kill took {took:?}");
    }

    #[cfg(unix)]
    #[test]
    fn drain_mid_run_sends_sigterm() {
        let stop = Arc::new(AtomicBool::new(false));
        let raise = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                stop.store(true, Ordering::Relaxed);
            })
        };
        let ((exit, termed), took) = supervise_sh("exec sleep 30", &sh_isolation(), &stop);
        raise.join().unwrap();
        assert_eq!(exit, WorkerExit::Signal(15), "the drain must be a SIGTERM");
        assert!(termed);
        assert!(took < Duration::from_secs(10), "drain took {took:?}");
    }

    #[cfg(unix)]
    #[test]
    fn exit_is_reaped_without_waiting_a_heartbeat_tick() {
        // A 5 s tick: only the pipe's EOF can reap this child in time.
        let stop = Arc::new(AtomicBool::new(false));
        let mut isolation = sh_isolation();
        isolation.heartbeat_interval = Duration::from_secs(5);
        let ((exit, _), took) = supervise_sh("exit 0", &isolation, &stop);
        assert_eq!(exit, WorkerExit::Code(0));
        assert!(took < Duration::from_secs(1), "exit reaped after {took:?}");
    }
}
