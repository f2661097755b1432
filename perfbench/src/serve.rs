//! `serve_load`: closed-loop load on the release `ahs serve`.
//!
//! The server runs as a child process with its defaults (2 workers,
//! process isolation) over a fresh state directory. Two clients — as
//! many as the host has cores — each submit a job, poll its status
//! every [`POLL`], fetch the manifest once it is finished, and submit
//! the next; latency runs from the POST being sent to the manifest
//! being received. Jobs are tiny (one grid point, n ∈ {2, 3}, DD/CC,
//! 200–300 replications, one thread) and cycle over four parameter
//! sets, so the model cache serves shared work and compute stays well
//! inside the supervisor's first heartbeat: HTTP, admission, worker
//! spawn, reaping and status/checkpoint writes dominate, and a kernel
//! change should barely move the latency. After the timed phase every
//! finished job is re-evaluated in-process and must match bitwise.
//! `answer_s` is the median latency; `setup_s` the median server
//! start-up; traced runs add the p90. A small companion pass (traced
//! runs of the other workloads) starts one server and stops after
//! [`SMALL_JOBS`] jobs.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ahs_core::{BiasMode, CompiledModel, UnsafetyEvaluator};
use ahs_obs::{atomic_write, send_sigterm, Json};
use ahs_serve::{AdmissionPolicy, JobSpec};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{host, mix, setup, Ctx, Report, Size};

/// Concurrent closed-loop clients.
const CLIENTS: usize = 2;
/// Status poll interval of every client.
const POLL: Duration = Duration::from_millis(10);
/// Finished jobs needed before the run (or a companion pass) may stop:
/// the p90 then has at least ten samples beyond it.
const MIN_JOBS: usize = 110;
const SMALL_JOBS: usize = 100;
/// No new submissions after this long, however few jobs finished.
const HARD_STOP_S: f64 = 100.0;
/// A job that has not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Server start-ups behind `setup_s` (the last one takes the load).
const SERVER_STARTS: usize = 9;
/// `atomic_write` calls behind `obs.atomic_write_s`.
const WRITE_REPEATS: usize = 51;

/// The four parameter sets jobs cycle over: (n, strategy, replications).
const JOB_SETS: [(u64, &str, u64); 4] = [
    (2, "DD", 300),
    (2, "CC", 300),
    (3, "DD", 200),
    (3, "CC", 200),
];

/// The request body of job `index` of the stream for `seed`.
pub fn job_body(seed: u64, index: u64) -> String {
    let (n, strategy, reps) = JOB_SETS[(index % JOB_SETS.len() as u64) as usize];
    format!(
        "{{\"n\":{n},\"strategy\":\"{strategy}\",\"lambda\":0.00001,\"reps\":{reps},\
         \"points\":1,\"horizon\":10,\"threads\":1,\"seed\":{}}}",
        mix(seed, 1_000_000 + index) >> 12
    )
}

/// One HTTP/1.1 exchange (the server closes every connection);
/// returns the status code and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let (_, body) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((code, body.to_owned()))
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    match http(addr, "GET", path, "") {
        Ok((200, body)) => Json::parse(&body).map_err(|e| format!("GET {path}: {e}")),
        Ok((code, body)) => Err(format!("GET {path}: {code} {body}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// A running `ahs serve`; dropping it kills and reaps the process.
struct Server {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(ahs_bin: &Path, state_dir: &Path) -> Result<Server, String> {
        std::fs::remove_dir_all(state_dir).ok();
        std::fs::create_dir_all(state_dir).map_err(|e| format!("{}: {e}", state_dir.display()))?;
        let mut child = Command::new(ahs_bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ahs_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("ahs-serve listening on http://")
            .and_then(|a| a.parse().ok());
        let server = |addr| Server {
            child,
            addr,
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(server(addr)),
            _ => {
                drop(server(SocketAddr::from(([127, 0, 0, 1], 0))));
                Err(format!("server did not announce its address: {line:?}"))
            }
        }
    }

    /// Drains the (idle) server with SIGTERM; returns its exit code.
    fn stop(mut self) -> Result<i32, String> {
        send_sigterm(self.child.id()).map_err(|e| format!("SIGTERM: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        Ok(status.code().unwrap_or(-1))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// What a client observed about one finished job.
struct JobRecord {
    body: String,
    latency: f64,
    submit_s: f64,
    status_s: Vec<f64>,
    queue_wait: f64,
    attempt: f64,
    manifest: Json,
}

/// Shared state of the closed loop.
struct Load<'a> {
    addr: SocketAddr,
    seed: u64,
    tracer: &'a Tracer,
    clock: Instant,
    seconds: f64,
    min_jobs: usize,
    next: AtomicU64,
    finished: AtomicUsize,
    records: Mutex<Vec<JobRecord>>,
    failures: Mutex<Vec<String>>,
    rejected: AtomicU64,
}

impl Load<'_> {
    fn keep_going(&self) -> bool {
        let elapsed = self.clock.elapsed().as_secs_f64();
        elapsed < HARD_STOP_S
            && (elapsed < self.seconds || self.finished.load(Ordering::SeqCst) < self.min_jobs)
    }

    fn client(&self) {
        while self.keep_going() {
            let index = self.next.fetch_add(1, Ordering::SeqCst);
            let body = job_body(self.seed, index);
            let span = self.tracer.begin("serve.job", None, Some(index));
            let result = self.one_job(index, span.0, &body);
            let latency = self.tracer.end(span);
            match result {
                Ok(mut record) => {
                    record.latency = latency;
                    self.records.lock().expect("records poisoned").push(record);
                    self.finished.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => {
                    self.failures
                        .lock()
                        .expect("failures poisoned")
                        .push(format!("job {index}: {e}"));
                    std::thread::sleep(POLL);
                }
            }
        }
    }

    fn one_job(
        &self,
        index: u64,
        parent: crate::trace::SpanId,
        body: &str,
    ) -> Result<JobRecord, String> {
        let t0 = Instant::now();
        let timed = |name, path: &str, method, body| {
            let open = self.tracer.begin(name, parent, Some(index));
            let out = http(self.addr, method, path, body);
            (out, self.tracer.end(open))
        };
        let (submitted, submit_s) = timed("serve.submit", "/v1/jobs", "POST", body);
        let id = match submitted {
            Ok((202, resp)) => Json::parse(&resp)
                .ok()
                .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_owned))
                .ok_or("202 without a job id")?,
            Ok((code, resp)) => {
                self.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(format!("submit answered {code}: {resp}"));
            }
            Err(e) => return Err(format!("submit: {e}")),
        };
        let status_path = format!("/v1/jobs/{id}");
        let mut status_s = Vec::new();
        let mut started = None;
        loop {
            if t0.elapsed() > JOB_TIMEOUT {
                return Err(format!("{id} unfinished after {JOB_TIMEOUT:?}"));
            }
            std::thread::sleep(POLL);
            let (polled, secs) = timed("serve.status", &status_path, "GET", "");
            status_s.push(secs);
            let doc = match polled {
                Ok((200, text)) => Json::parse(&text).map_err(|e| format!("{id} status: {e}"))?,
                Ok((code, text)) => return Err(format!("{id} status {code}: {text}")),
                Err(e) => return Err(format!("{id} status: {e}")),
            };
            let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
            if state != "queued" && started.is_none() {
                started = Some(t0.elapsed().as_secs_f64());
            }
            match state {
                "finished" => break,
                "failed" | "interrupted" => {
                    return Err(format!("{id} ended {state}: {}", doc.render()))
                }
                _ => {}
            }
        }
        let done = t0.elapsed().as_secs_f64();
        let (fetched, _) = timed(
            "serve.manifest",
            &format!("{status_path}/manifest"),
            "GET",
            "",
        );
        let manifest = match fetched {
            Ok((200, text)) => Json::parse(&text).map_err(|e| format!("{id} manifest: {e}"))?,
            Ok((code, text)) => return Err(format!("{id} manifest {code}: {text}")),
            Err(e) => return Err(format!("{id} manifest: {e}")),
        };
        let queue_wait = started.unwrap_or(done);
        Ok(JobRecord {
            body: body.to_owned(),
            latency: 0.0,
            submit_s,
            status_s,
            queue_wait,
            attempt: done - queue_wait,
            manifest,
        })
    }
}

pub fn run(ctx: &Ctx, size: Size) -> Report {
    let mut report = Report::default();
    match drive(ctx, size, &mut report) {
        Ok(()) => {}
        Err(e) => report.check(false, || e),
    }
    report
}

fn drive(ctx: &Ctx, size: Size, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let state_dir = ctx.out_dir.join("serve-state");
    let (server_starts, min_jobs, seconds) = match size {
        Size::Full => (SERVER_STARTS, MIN_JOBS, ctx.seconds),
        Size::Small => (1, SMALL_JOBS, 0.0),
    };

    let mut starts = Vec::new();
    let mut server = None;
    for i in 0..server_starts {
        let open = tracer.begin("serve.start", None, None);
        let started = Server::start(&ctx.ahs_bin, &state_dir)?;
        starts.push(tracer.end(open));
        // Untimed: the accept loop polls every 25 ms, so the first
        // request's wait is a phase accident, not start-up work.
        get_json(started.addr, "/v1/healthz")?;
        if i + 1 < server_starts {
            let code = started.stop()?;
            report.check(code == 0, || {
                format!("idle server drained with exit {code}")
            });
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("at least one server started");
    report.e2e(
        "setup_s",
        median(&starts).expect("at least one server started"),
        "s",
    );

    let load = Load {
        addr: server.addr,
        seed: ctx.seed,
        tracer,
        clock: Instant::now(),
        seconds,
        min_jobs,
        next: AtomicU64::new(0),
        finished: AtomicUsize::new(0),
        records: Mutex::new(Vec::new()),
        failures: Mutex::new(Vec::new()),
        rejected: AtomicU64::new(0),
    };
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| load.client());
        }
    });
    let phase_s = load.clock.elapsed().as_secs_f64();

    let health = get_json(server.addr, "/v1/healthz")?;
    let count = |key: &str| health.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let server_rss = host::peak_rss_mb(&server.child.id().to_string());
    let code = server.stop()?;
    report.check(code == 0, || format!("server drained with exit {code}"));

    let records = load.records.into_inner().expect("records poisoned");
    let failures = load.failures.into_inner().expect("failures poisoned");
    for failure in &failures {
        report.check(false, || failure.clone());
    }

    // Verification, after the timed phase: every finished job must
    // match an in-process evaluation of the same spec bitwise.
    let verify = tracer.begin("bench.verify", None, None);
    let mut models: HashMap<String, CompiledModel> = HashMap::new();
    let mut verified = 0_u64;
    let mut compute = Vec::new();
    for record in &records {
        let ok = verify_job(record, &mut models);
        if let Err(e) = &ok {
            report.check(false, || e.clone());
        } else {
            report.check(true, String::new);
            verified += 1;
        }
        compute.push(
            record
                .manifest
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
    tracer.end(verify);

    let latencies: Vec<f64> = records.iter().map(|r| r.latency).collect();
    let (Some(p50), Some(p90)) = (percentile(&latencies, 50), percentile(&latencies, 90)) else {
        return Err(format!(
            "only {} jobs finished; p90 needs 100",
            latencies.len()
        ));
    };
    report.e2e("answer_s", p50, "s");
    report.layer("serve.latency_p90_s", p90, "s");
    if let Some(rss) = server_rss {
        report.e2e("peak_rss_mb", rss, "MiB");
    }
    eprintln!(
        "serve_load: {} jobs finished in {phase_s:.2}s, {verified} verified, {} failures",
        records.len(),
        failures.len()
    );

    let med = |values: Vec<f64>| median(&values).unwrap_or(f64::NAN);
    report.layer(
        "serve.submit_s",
        med(records.iter().map(|r| r.submit_s).collect()),
        "s",
    );
    report.layer(
        "serve.status_s",
        med(records
            .iter()
            .flat_map(|r| r.status_s.iter().copied())
            .collect()),
        "s",
    );
    report.layer(
        "serve.queue_wait_s",
        med(records.iter().map(|r| r.queue_wait).collect()),
        "s",
    );
    report.layer(
        "serve.attempt_s",
        med(records.iter().map(|r| r.attempt).collect()),
        "s",
    );
    report.layer("serve.compute_s", med(compute.clone()), "s");
    report.layer(
        "serve.overhead_s",
        med(records
            .iter()
            .zip(&compute)
            .map(|(r, c)| r.latency - c)
            .collect()),
        "s",
    );
    report.layer("serve.restarts", count("worker_restarts"), "count");
    report.layer(
        "serve.rejected",
        load.rejected.load(Ordering::SeqCst) as f64,
        "count",
    );
    report.layer("serve.cache_hits", count("cache_hits"), "count");
    report.layer("serve.cache_misses", count("cache_misses"), "count");
    report.layer("serve.jobs", records.len() as f64, "count");
    report.layer("serve.jobs_per_s", verified as f64 / phase_s, "1/s");

    if tracer.enabled() && size == Size::Full {
        let first = JobSpec::from_json(
            &Json::parse(&job_body(ctx.seed, 0)).expect("job bodies are JSON"),
            &AdmissionPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
        let (_, build_s) = setup::burst(tracer, None, &first.params).map_err(|e| e.to_string())?;
        report.layer("core.build_s", build_s, "s");
    }
    if tracer.enabled() {
        report.layer(
            "obs.atomic_write_s",
            atomic_write_median(tracer, &state_dir, &records)?,
            "s",
        );
    }
    Ok(())
}

/// Re-evaluates a finished job's spec in-process and compares its
/// estimates with the manifest's, bit for bit.
fn verify_job(
    record: &JobRecord,
    models: &mut HashMap<String, CompiledModel>,
) -> Result<(), String> {
    let doc = Json::parse(&record.body).map_err(|e| e.to_string())?;
    let spec = JobSpec::from_json(&doc, &AdmissionPolicy::default()).map_err(|e| e.to_string())?;
    let key = format!("{:?}", spec.params);
    if !models.contains_key(&key) {
        let model = CompiledModel::build(&spec.params).map_err(|e| e.to_string())?;
        models.insert(key.clone(), model);
    }
    let mut evaluator = UnsafetyEvaluator::new(spec.params.clone())
        .with_seed(spec.seed)
        .with_threads(spec.threads)
        .with_replications(spec.replications);
    if spec.plain {
        evaluator = evaluator.with_bias(BiasMode::None);
    }
    let curve = evaluator
        .evaluate_compiled(&spec.grid(), &models[&key])
        .map_err(|e| e.to_string())?;
    let served: Vec<[u64; 4]> = record
        .manifest
        .get("estimates")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|p| {
            let f = |k| {
                p.get(k)
                    .and_then(Json::as_f64)
                    .map_or(u64::MAX, f64::to_bits)
            };
            [
                f("x"),
                f("y"),
                f("half_width"),
                p.get("samples").and_then(Json::as_u64).unwrap_or(u64::MAX),
            ]
        })
        .collect();
    let local: Vec<[u64; 4]> = curve
        .points()
        .iter()
        .map(|p| {
            [
                p.x.to_bits(),
                p.y.to_bits(),
                p.half_width.to_bits(),
                p.samples,
            ]
        })
        .collect();
    if served == local {
        Ok(())
    } else {
        Err(format!(
            "served estimates differ from in-process ones for {}",
            record.body
        ))
    }
}

/// Median time of the public `atomic_write` of a status-sized document
/// on the state directory's filesystem.
fn atomic_write_median(tracer: &Tracer, dir: &Path, records: &[JobRecord]) -> Result<f64, String> {
    let doc = records
        .first()
        .map_or_else(|| "{}".to_owned(), |r| r.manifest.render());
    let path = dir.join("bench-status.json");
    let mut times = Vec::with_capacity(WRITE_REPEATS);
    for _ in 0..WRITE_REPEATS {
        let (written, secs) = tracer.span("obs.atomic_write", None, |_| {
            atomic_write(&path, doc.as_bytes())
        });
        written.map_err(|e| format!("atomic_write: {e}"))?;
        times.push(secs);
    }
    Ok(median(&times).expect("WRITE_REPEATS is positive"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_an_identical_job_stream() {
        let a: Vec<String> = (0..64).map(|i| job_body(7, i)).collect();
        let b: Vec<String> = (0..64).map(|i| job_body(7, i)).collect();
        assert_eq!(a, b);
        let c: Vec<String> = (0..64).map(|i| job_body(8, i)).collect();
        assert_ne!(a, c);
        // Every body is a spec the server admits, cycling over the four
        // parameter sets.
        for (i, body) in a.iter().enumerate() {
            let doc = Json::parse(body).expect("job bodies are JSON");
            let spec = JobSpec::from_json(&doc, &AdmissionPolicy::default()).expect("admissible");
            let (n, _, reps) = JOB_SETS[i % 4];
            assert_eq!((spec.params.n as u64, spec.replications), (n, reps));
            assert_eq!(spec.grid().points(), &[10.0]);
        }
    }
}
