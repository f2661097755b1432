//! The evaluation server: accept loop, bounded queue, worker pool,
//! admission control, and graceful drain.
//!
//! Lifecycle: [`Server::start`] binds the listener, rescans the state
//! directory (re-enqueueing every unfinished job, so a restart resumes
//! exactly where the previous process stopped), and spawns the worker
//! pool, a blocking accept loop and a drain watcher. Nothing on the job
//! path polls: the accept thread sleeps in `accept(2)` and the workers
//! in a condition-variable wait, each woken by the event it waits for.
//!
//! Raising the shutdown flag — the same `Arc<AtomicBool>` handed to
//! every study as its interrupt flag — drains the system. The flag is
//! a bare atomic (a signal handler can do no more than store it), so
//! the drain watcher is the one thread that checks it on a timer; on
//! seeing it raised it wakes the accept thread with a loopback
//! connection and the idle workers with a broadcast. The accept loop
//! then closes, running jobs stop at their next chunk boundary and
//! flush a final checkpoint, queued jobs stay queued, and
//! [`Server::join`] reports how many accepted jobs remain unfinished
//! (the caller exits 75 when any do).

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ahs_obs::{write_with_retry, Json, RunOutcome};

use crate::http::{read_request, write_response, Request, RequestError};
use crate::job::{read_curve, AdmissionPolicy, Job, JobSpec, Phase, SubmitError};
use crate::supervisor::{run_supervised, ProcessIsolation, SupervisorConfig};

/// How often the drain watcher checks the shutdown flag — the only
/// timed wait in the server, and off the job path.
const DRAIN_WATCH: Duration = Duration::from_millis(25);

/// Back-off after a failed `accept(2)` (EMFILE and the like), so a
/// persistent error does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);

/// Everything [`Server::start`] needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Root of the persisted job state.
    pub state_dir: PathBuf,
    /// Concurrent supervised jobs.
    pub workers: usize,
    /// Jobs allowed to wait in the queue; submissions beyond this are
    /// shed with a 429.
    pub queue_capacity: usize,
    /// Admission limits applied to every submission.
    pub policy: AdmissionPolicy,
    /// Restarts allowed per job before a crash becomes a failure.
    pub restart_budget: u32,
    /// Replications between checkpoint flushes.
    pub checkpoint_every: u64,
    /// Concurrent connection handlers; connections beyond this are
    /// shed with a 503 instead of spawning unbounded threads.
    pub max_connections: usize,
    /// How each job attempt's worker process is started and watched:
    /// the binary to re-exec, its resource budgets and its heartbeat.
    pub isolation: ProcessIsolation,
}

impl ServeConfig {
    /// Defaults for serving from `state_dir` on a loopback port, each
    /// job attempt re-execing `worker_exe` (a binary that understands
    /// the hidden `serve-worker` mode, normally the `ahs` binary).
    pub fn new(state_dir: impl Into<PathBuf>, worker_exe: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:2009".to_owned(),
            state_dir: state_dir.into(),
            workers: 2,
            queue_capacity: 16,
            policy: AdmissionPolicy::default(),
            restart_budget: 2,
            checkpoint_every: 10_000,
            max_connections: 64,
            isolation: ProcessIsolation::new(worker_exe),
        }
    }
}

/// Load-shedding and degradation counters, surfaced in `/v1/healthz`.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub rejected_overloaded: AtomicU64,
    pub rejected_policy: AtomicU64,
    pub rejected_invalid: AtomicU64,
    pub enqueue_faults: AtomicU64,
    pub accept_faults: AtomicU64,
    pub responses_dropped: AtomicU64,
    pub worker_restarts: AtomicU64,
    pub connections_shed: AtomicU64,
}

struct Inner {
    config: ServeConfig,
    jobs: Mutex<Vec<Arc<Job>>>,
    queue: Mutex<Queue>,
    /// Notified on every enqueue, and broadcast (under the queue lock)
    /// by the drain watcher once the shutdown flag is raised.
    queue_signal: Condvar,
    next_seq: AtomicU64,
    stop: Arc<AtomicBool>,
    counters: Counters,
    /// Live connection-handler threads, bounded by
    /// `config.max_connections`.
    connections: AtomicUsize,
}

/// The job queue plus the slots that admitted-but-not-yet-enqueued
/// submissions hold, so the capacity check and the enqueue are one
/// atomic admission.
#[derive(Default)]
struct Queue {
    waiting: VecDeque<Arc<Job>>,
    reserved: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What was left when the server drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that reached their final estimates.
    pub finished: usize,
    /// Jobs that failed with a typed error.
    pub failed: usize,
    /// Accepted jobs still queued/interrupted — every one resumes
    /// bitwise when a server restarts over the same state dir.
    pub unfinished: usize,
}

impl DrainReport {
    /// The process outcome this drain maps to: interrupted (exit 75)
    /// while any accepted job is unfinished, success otherwise.
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome::of_interrupted(self.unfinished > 0)
    }
}

/// A running evaluation server.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_handle: JoinHandle<()>,
    drain_handle: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, rescans `state_dir` (re-enqueueing unfinished jobs in
    /// admission order), and spawns the accept loop and worker pool.
    /// `stop` is the shutdown flag — typically
    /// [`ahs_obs::interrupt_flag`] so SIGINT/SIGTERM drain the server.
    ///
    /// # Errors
    ///
    /// IO errors binding the listener or creating the state directory.
    pub fn start(config: ServeConfig, stop: Arc<AtomicBool>) -> std::io::Result<Server> {
        let jobs_dir = config.state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let inner = Arc::new(Inner {
            config,
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(Queue::default()),
            queue_signal: Condvar::new(),
            next_seq: AtomicU64::new(1),
            stop,
            counters: Counters::default(),
            connections: AtomicUsize::new(0),
        });
        rescan(&inner, &jobs_dir)?;

        let workers = inner.config.workers.max(1);
        let worker_handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning worker thread")
            })
            .collect();
        let accept_handle = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawning accept thread")
        };
        let drain_handle = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("serve-drain".to_owned())
                .spawn(move || drain_watch(&inner, addr))
                .expect("spawning drain thread")
        };

        Ok(Server {
            inner,
            addr,
            accept_handle,
            drain_handle,
            worker_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag; raising it drains the server.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.inner.stop.clone()
    }

    /// Blocks until the shutdown flag drains every thread, then
    /// reports what was left. In-flight jobs stop at chunk boundaries
    /// with a flushed checkpoint; nothing is lost.
    pub fn join(self) -> DrainReport {
        self.drain_handle.join().ok();
        self.accept_handle.join().ok();
        for handle in self.worker_handles {
            handle.join().ok();
        }
        let (mut finished, mut failed, mut unfinished) = (0, 0, 0);
        for job in lock(&self.inner.jobs).iter() {
            match job.phase() {
                Phase::Finished(_) => finished += 1,
                Phase::Failed(_) => failed += 1,
                _ => unfinished += 1,
            }
        }
        DrainReport {
            finished,
            failed,
            unfinished,
        }
    }
}

/// Reloads persisted jobs after a restart: terminal jobs become
/// records, everything else re-enters the queue in admission order.
fn rescan(inner: &Arc<Inner>, jobs_dir: &std::path::Path) -> std::io::Result<()> {
    // Recovery re-checks the admission caps but keeps the thread count
    // `job.json` recorded: the worker runs that spec, and its digest
    // must match the one the supervisor hands the worker.
    let recovery = AdmissionPolicy {
        max_threads: usize::MAX,
        ..inner.config.policy
    };
    let mut recovered: Vec<Arc<Job>> = Vec::new();
    for entry in std::fs::read_dir(jobs_dir)? {
        let dir = entry?.path();
        let spec_path = dir.join("job.json");
        if !spec_path.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&spec_path)?;
        let Ok(doc) = Json::parse(&text) else {
            eprintln!("warning: skipping unreadable {}", spec_path.display());
            continue;
        };
        let seq = doc.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let job = match JobSpec::from_json(&doc, &recovery) {
            Ok(spec) => Arc::new(Job::new(seq, spec, dir.clone())),
            Err(e) => {
                // A spec this server no longer admits — over its policy,
                // or past a cap the admitting server lacked — must
                // surface as a typed failure, not vanish.
                let job = Arc::new(Job::rejected(seq, &doc, dir.clone()));
                job.set_phase(Phase::Failed(format!("rejected on recovery: {e}")));
                recovered.push(job);
                continue;
            }
        };
        // The persisted status decides whether the job is terminal.
        let status = std::fs::read_to_string(dir.join("status.json"))
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        let state = status
            .as_ref()
            .and_then(|s| s.get("state"))
            .and_then(Json::as_str)
            .unwrap_or("queued")
            .to_owned();
        if let Some(status) = &status {
            if let Some(dropped) = status.get("telemetry_dropped").and_then(Json::as_u64) {
                job.telemetry_dropped.store(dropped, Ordering::Relaxed);
            }
            if let Some(restarts) = status.get("restarts").and_then(Json::as_u64) {
                job.restarts.store(restarts as u32, Ordering::Relaxed);
            }
        }
        match (state.as_str(), status) {
            ("finished", Some(status)) => {
                if let Some(curve) = read_curve(&status) {
                    *job_phase_for_recovery(&job) = Phase::Finished(curve);
                } else {
                    eprintln!(
                        "warning: {} is marked finished but its estimates are \
                         unreadable; re-running from checkpoint",
                        job.name
                    );
                }
            }
            ("failed", Some(status)) => {
                let reason = status
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown failure")
                    .to_owned();
                *job_phase_for_recovery(&job) = Phase::Failed(reason);
            }
            _ => {}
        }
        recovered.push(job);
    }
    recovered.sort_by_key(|job| job.seq);
    let max_seq = recovered.iter().map(|job| job.seq).max().unwrap_or(0);
    inner.next_seq.store(max_seq + 1, Ordering::Relaxed);
    let mut queue = lock(&inner.queue);
    let mut jobs = lock(&inner.jobs);
    for job in recovered {
        if matches!(
            job.phase(),
            Phase::Queued | Phase::Running | Phase::Interrupted { .. }
        ) {
            queue.waiting.push_back(job.clone());
        }
        jobs.push(job);
    }
    Ok(())
}

/// Direct phase access during recovery, before any worker can race.
fn job_phase_for_recovery(job: &Arc<Job>) -> std::sync::MutexGuard<'_, Phase> {
    // set_phase would also rewrite status.json; recovery only restores
    // in-memory state from what is already on disk.
    job.phase_guard()
}

fn worker_loop(inner: &Arc<Inner>) {
    let config = SupervisorConfig {
        restart_budget: inner.config.restart_budget,
        checkpoint_every: inner.config.checkpoint_every,
        watchdog: inner.config.policy.watchdog,
        isolation: inner.config.isolation.clone(),
    };
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if inner.stop.load(Ordering::Relaxed) {
                    // Leave queued jobs queued: they are persisted and
                    // resume on the next server start.
                    return;
                }
                if let Some(job) = queue.waiting.pop_front() {
                    break job;
                }
                // The flag was checked under this lock and the drain
                // watcher broadcasts under it, so a drain cannot slip
                // in between the check and the wait.
                queue = inner
                    .queue_signal
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let restarts = run_supervised(&job, &config, &inner.stop);
        inner
            .counters
            .worker_restarts
            .fetch_add(u64::from(restarts), Ordering::Relaxed);
    }
}

/// Blocks in `accept(2)`; every return re-checks the shutdown flag,
/// which the drain watcher's wake-up connection guarantees happens
/// once a drain starts.
fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.stop.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => match ConnectionPermit::acquire(inner) {
                Some(permit) => {
                    let inner = inner.clone();
                    std::thread::Builder::new()
                        .name("serve-conn".to_owned())
                        .spawn(move || {
                            let _permit = permit;
                            handle_connection(&inner, stream);
                        })
                        .ok();
                }
                None => shed_connection(inner, stream),
            },
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Waits for the shutdown flag, then wakes every thread parked on the
/// job path: a connection to the listener returns the accept thread
/// from `accept(2)`, and a broadcast under the queue lock releases the
/// idle workers. The flag is checked on a timer because SIGINT/SIGTERM
/// can only store it: `signal(2)` installs the handler with restart
/// semantics, and std retries `EINTR`, so a signal never interrupts
/// `accept` itself.
fn drain_watch(inner: &Inner, addr: SocketAddr) {
    while !inner.stop.load(Ordering::Relaxed) {
        std::thread::sleep(DRAIN_WATCH);
    }
    let wake = wake_addr(addr);
    if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
        eprintln!("warning: could not wake the accept loop at {wake}: {e}");
    }
    let _queue = lock(&inner.queue);
    inner.queue_signal.notify_all();
}

/// Where to connect to reach a listener bound to `addr`: the address
/// itself, or the same family's loopback for an unspecified bind.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// A queue slot held from the capacity check to the enqueue; dropped
/// unfilled (a failed admission step), it is given back.
struct QueueSlot<'a> {
    inner: &'a Inner,
    filled: bool,
}

impl QueueSlot<'_> {
    /// Reserves a slot if the queue, counting slots already reserved,
    /// is below capacity.
    fn reserve(inner: &Inner) -> Option<QueueSlot<'_>> {
        let mut queue = lock(&inner.queue);
        if queue.waiting.len() + queue.reserved >= inner.config.queue_capacity {
            return None;
        }
        queue.reserved += 1;
        Some(QueueSlot {
            inner,
            filled: false,
        })
    }

    /// Enqueues `job` in the reserved slot and wakes one worker.
    fn fill(mut self, job: Arc<Job>) {
        let mut queue = lock(&self.inner.queue);
        queue.reserved -= 1;
        queue.waiting.push_back(job);
        self.filled = true;
        drop(queue);
        self.inner.queue_signal.notify_one();
    }
}

impl Drop for QueueSlot<'_> {
    fn drop(&mut self) {
        if !self.filled {
            lock(&self.inner.queue).reserved -= 1;
        }
    }
}

/// A counted slot in the bounded connection-handler pool; dropping it
/// (normal return, panic unwind, or a failed thread spawn) frees the
/// slot.
struct ConnectionPermit {
    inner: Arc<Inner>,
}

impl ConnectionPermit {
    fn acquire(inner: &Arc<Inner>) -> Option<ConnectionPermit> {
        let max = inner.config.max_connections.max(1);
        inner
            .connections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max).then_some(n + 1)
            })
            .ok()
            .map(|_| ConnectionPermit {
                inner: inner.clone(),
            })
    }
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.inner.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sheds a connection over the handler budget: a typed 503 the client
/// can back off on, written inline with a short timeout so a slow
/// reader cannot stall the accept loop.
fn shed_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    inner
        .counters
        .connections_shed
        .fetch_add(1, Ordering::Relaxed);
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .ok();
    write_response(
        &mut stream,
        503,
        &[("retry-after", "1".to_owned())],
        &error_body("connection limit reached; retry later"),
    )
    .ok();
    // The request was never read; closing now would RST the socket and
    // can discard the 503 before the client sees it. Half-close our
    // side and briefly drain theirs so the response survives — with a
    // hard deadline, since this runs on the accept thread.
    stream.shutdown(std::net::Shutdown::Write).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    let deadline = std::time::Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 512];
    while std::time::Instant::now() < deadline {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    // The accept failpoint models the handoff dying under fault: an
    // injected error closes the connection immediately (the client
    // sees EOF, never a hang) and is counted; a panic kills only this
    // connection thread, with the same observable effect.
    match ahs_inject::eval("serve::accept") {
        Some(ahs_inject::Fault::Error(_)) => {
            inner.counters.accept_faults.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Some(ahs_inject::Fault::Panic(msg)) => {
            inner.counters.accept_faults.fetch_add(1, Ordering::Relaxed);
            panic!("injected accept crash: {msg}");
        }
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }

    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(RequestError::Bad(status, reason)) => {
            respond(inner, &mut stream, status, &[], &error_body(reason));
            return;
        }
        Err(RequestError::Io) => return,
    };
    let (status, headers, body) = route(inner, &request);
    respond(inner, &mut stream, status, &headers, &body);
}

fn error_body(reason: &str) -> String {
    let mut doc = Json::Obj(vec![("error".to_owned(), Json::str(reason))]).render();
    doc.push('\n');
    doc
}

fn respond(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, String)],
    body: &str,
) {
    // An injected response-write fault drops the connection without a
    // response — the client sees a clean EOF and the loss is counted;
    // the server thread moves on either way.
    match ahs_inject::eval("serve::response::write") {
        Some(ahs_inject::Fault::Error(_)) => {
            inner
                .counters
                .responses_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }
    if write_response(stream, status, headers, body).is_err() {
        inner
            .counters
            .responses_dropped
            .fetch_add(1, Ordering::Relaxed);
    }
}

type Routed = (u16, Vec<(&'static str, String)>, String);

fn route(inner: &Arc<Inner>, request: &Request) -> Routed {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/v1/jobs") => submit(inner, &request.body),
        ("GET", "/v1/jobs") => list_jobs(inner),
        ("GET", "/v1/healthz") => (200, Vec::new(), render_line(&health(inner))),
        ("GET", _) if path.starts_with("/v1/jobs/") => job_route(inner, path),
        ("POST" | "GET", _) => (404, Vec::new(), error_body("no such endpoint")),
        _ => (405, Vec::new(), error_body("method not allowed")),
    }
}

fn render_line(doc: &Json) -> String {
    let mut text = doc.render();
    text.push('\n');
    text
}

fn find_job(inner: &Arc<Inner>, name: &str) -> Option<Arc<Job>> {
    lock(&inner.jobs)
        .iter()
        .find(|job| job.name == name)
        .cloned()
}

fn job_route(inner: &Arc<Inner>, path: &str) -> Routed {
    let rest = &path["/v1/jobs/".len()..];
    let (name, tail) = match rest.split_once('/') {
        None => (rest, None),
        Some((name, tail)) => (name, Some(tail)),
    };
    let Some(job) = find_job(inner, name) else {
        return (404, Vec::new(), error_body("no such job"));
    };
    match tail {
        None => (200, Vec::new(), render_line(&job.status_json())),
        Some("manifest") => {
            if !matches!(job.phase(), Phase::Finished(_)) {
                return (409, Vec::new(), error_body("job not finished"));
            }
            match std::fs::read_to_string(job.dir.join("manifest.json")) {
                Ok(text) => (200, Vec::new(), text),
                Err(_) => (500, Vec::new(), error_body("manifest unreadable")),
            }
        }
        Some(_) => (404, Vec::new(), error_body("no such endpoint")),
    }
}

fn list_jobs(inner: &Arc<Inner>) -> Routed {
    let jobs = lock(&inner.jobs)
        .iter()
        .map(|job| job.status_json())
        .collect();
    let doc = Json::Obj(vec![
        ("schema".to_owned(), Json::str("ahs-serve-jobs/v1")),
        ("jobs".to_owned(), Json::Arr(jobs)),
    ]);
    (200, Vec::new(), render_line(&doc))
}

fn health(inner: &Arc<Inner>) -> Json {
    let (mut queued, mut running, mut interrupted, mut finished, mut failed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for job in lock(&inner.jobs).iter() {
        match job.phase() {
            Phase::Queued => queued += 1,
            Phase::Running => running += 1,
            Phase::Interrupted { .. } => interrupted += 1,
            Phase::Finished(_) => finished += 1,
            Phase::Failed(_) => failed += 1,
        }
    }
    let counters = &inner.counters;
    let draining = inner.stop.load(Ordering::Relaxed);
    Json::Obj(vec![
        ("schema".to_owned(), Json::str("ahs-serve-health/v1")),
        (
            "status".to_owned(),
            Json::str(if draining { "draining" } else { "ok" }),
        ),
        ("workers".to_owned(), inner.config.workers.into()),
        (
            "queue_capacity".to_owned(),
            inner.config.queue_capacity.into(),
        ),
        (
            "max_connections".to_owned(),
            inner.config.max_connections.into(),
        ),
        (
            "connections_active".to_owned(),
            inner.connections.load(Ordering::Relaxed).into(),
        ),
        (
            "connections_shed".to_owned(),
            counters.connections_shed.load(Ordering::Relaxed).into(),
        ),
        ("queued".to_owned(), queued.into()),
        ("running".to_owned(), running.into()),
        ("interrupted".to_owned(), interrupted.into()),
        ("finished".to_owned(), finished.into()),
        ("failed".to_owned(), failed.into()),
        (
            "accepted".to_owned(),
            counters.accepted.load(Ordering::Relaxed).into(),
        ),
        (
            "rejected_overloaded".to_owned(),
            counters.rejected_overloaded.load(Ordering::Relaxed).into(),
        ),
        (
            "rejected_policy".to_owned(),
            counters.rejected_policy.load(Ordering::Relaxed).into(),
        ),
        (
            "rejected_invalid".to_owned(),
            counters.rejected_invalid.load(Ordering::Relaxed).into(),
        ),
        (
            "enqueue_faults".to_owned(),
            counters.enqueue_faults.load(Ordering::Relaxed).into(),
        ),
        (
            "accept_faults".to_owned(),
            counters.accept_faults.load(Ordering::Relaxed).into(),
        ),
        (
            "responses_dropped".to_owned(),
            counters.responses_dropped.load(Ordering::Relaxed).into(),
        ),
        (
            "worker_restarts".to_owned(),
            counters.worker_restarts.load(Ordering::Relaxed).into(),
        ),
    ])
}

fn submit(inner: &Arc<Inner>, body: &[u8]) -> Routed {
    let Ok(text) = std::str::from_utf8(body) else {
        inner
            .counters
            .rejected_invalid
            .fetch_add(1, Ordering::Relaxed);
        return (400, Vec::new(), error_body("body must be UTF-8 JSON"));
    };
    let doc = match Json::parse(if text.trim().is_empty() { "{}" } else { text }) {
        Ok(doc) => doc,
        Err(e) => {
            inner
                .counters
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return (400, Vec::new(), error_body(&format!("invalid JSON: {e}")));
        }
    };
    let spec = match JobSpec::from_json(&doc, &inner.config.policy) {
        Ok(spec) => spec,
        Err(e @ SubmitError::Invalid(_)) => {
            inner
                .counters
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return (400, Vec::new(), error_body(&e.to_string()));
        }
        Err(e @ SubmitError::OverPolicy(_)) => {
            inner
                .counters
                .rejected_policy
                .fetch_add(1, Ordering::Relaxed);
            return (422, Vec::new(), error_body(&e.to_string()));
        }
    };

    if inner.stop.load(Ordering::Relaxed) {
        return (503, Vec::new(), error_body("server is draining"));
    }
    // Load shedding: an explicit, typed rejection the client can back
    // off on — never silent queue growth. The slot is reserved with the
    // check, so concurrent submissions cannot overfill the queue; every
    // failure below gives it back.
    let Some(slot) = QueueSlot::reserve(inner) else {
        inner
            .counters
            .rejected_overloaded
            .fetch_add(1, Ordering::Relaxed);
        return (
            429,
            vec![("retry-after", "1".to_owned())],
            error_body("job queue is full; retry later"),
        );
    };
    // The enqueue failpoint models the admission step itself failing
    // (queue datastructure, bookkeeping IO): a typed 503, never a
    // half-admitted job.
    match ahs_inject::eval("serve::job::enqueue") {
        Some(ahs_inject::Fault::Error(_)) => {
            inner
                .counters
                .enqueue_faults
                .fetch_add(1, Ordering::Relaxed);
            return (
                503,
                Vec::new(),
                error_body("job admission failed; retry later"),
            );
        }
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }

    let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
    let dir = inner
        .config
        .state_dir
        .join("jobs")
        .join(format!("job-{seq:06}"));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return (
            500,
            Vec::new(),
            error_body(&format!("creating job dir: {e}")),
        );
    }
    let mut spec_doc = match spec.to_json() {
        Json::Obj(fields) => fields,
        _ => unreachable!("spec renders as an object"),
    };
    spec_doc.insert(
        0,
        ("schema".to_owned(), Json::str(crate::job::JOB_SPEC_SCHEMA)),
    );
    spec_doc.insert(1, ("seq".to_owned(), seq.into()));
    let text = render_line(&Json::Obj(spec_doc));
    let job = Arc::new(Job::new(seq, spec, dir.clone()));
    if let Err(e) = write_with_retry(&dir.join("job.json"), text.as_bytes()) {
        return (
            500,
            Vec::new(),
            error_body(&format!("persisting job spec: {e}")),
        );
    }
    job.persist_status();
    lock(&inner.jobs).push(job.clone());
    slot.fill(job.clone());
    inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
    (202, Vec::new(), render_line(&job.status_json()))
}
