//! Shared harness for the serve integration tests: servers whose job
//! attempts re-exec the `ahs` binary under test, a tiny HTTP/1.1
//! client, status polling, and solo-evaluation baselines for bitwise
//! comparisons. Every test exercises the service the way a deployment
//! does, worker re-exec included.

// Each test binary uses a different subset of this harness.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ahs_safety::core::{BiasMode, Params, UnsafetyCurve, UnsafetyEvaluator};
use ahs_safety::des::generation_path;
use ahs_safety::obs::Json;
use ahs_safety::serve::{DrainReport, ServeConfig, Server};
use ahs_safety::stats::TimeGrid;

/// One request over a fresh connection. `None` when the server
/// dropped the connection without a response (the injected accept /
/// response-write outcomes) — crucially an immediate EOF, never a
/// hang.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: ahs-serve\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status: u16 = response.split(' ').nth(1)?.parse().ok()?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned())?;
    Some((status, body))
}

/// GET a path and parse the JSON body.
pub fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, body) = request(addr, "GET", path, "").expect("server must answer");
    assert!(
        (200..300).contains(&status),
        "GET {path} -> {status}: {body}"
    );
    Json::parse(&body).expect("response must be JSON")
}

/// Submits a job body and returns the assigned job id.
pub fn submit(addr: SocketAddr, body: &str) -> String {
    let (status, response) = request(addr, "POST", "/v1/jobs", body).expect("server must answer");
    assert_eq!(status, 202, "submission rejected: {response}");
    Json::parse(&response)
        .expect("admission response is JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("admission response carries an id")
        .to_owned()
}

/// Polls a job's status until it reaches `want` (panicking on `failed`
/// unless that is the wanted state, and on timeout).
pub fn wait_for_state(addr: SocketAddr, name: &str, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let doc = get_json(addr, &format!("/v1/jobs/{name}"));
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
        if state == want {
            return doc;
        }
        if state == "failed" && want != "failed" {
            panic!(
                "{name} failed instead of reaching `{want}`: {:?}",
                doc.get("error")
            );
        }
        assert!(
            Instant::now() < deadline,
            "{name} stuck in `{state}` waiting for `{want}`"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A fresh, empty state directory under the target tmp space.
pub fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ahs-serve-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `ahs` binary under test — re-execed as `ahs serve-worker` for
/// every job attempt.
pub fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ahs"))
}

/// Starts a server over `dir` on an ephemeral loopback port, its
/// attempts re-execing [`worker_exe`], after `tweak` adjusts the
/// defaults.
pub fn start_in(dir: &Path, tweak: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig::new(dir, worker_exe());
    config.addr = "127.0.0.1:0".to_owned();
    tweak(&mut config);
    Server::start(config, Arc::new(AtomicBool::new(false))).expect("server starts")
}

/// [`start_in`] over a fresh [`state_dir`], which is returned too.
pub fn start_server(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (Server, PathBuf) {
    let dir = state_dir(tag);
    (start_in(&dir, tweak), dir)
}

/// Raises the shutdown flag and waits out the drain.
pub fn shutdown(server: Server) -> DrainReport {
    server.stop_flag().store(true, Ordering::Relaxed);
    server.join()
}

/// Whether any retained checkpoint generation exists at `base` — the
/// signal that a kill now lands mid-job, after durable progress.
pub fn checkpoint_exists(base: &Path) -> bool {
    (0..4).any(|g| generation_path(base, g).exists())
}

/// SIGKILL a process — uncatchable, so nothing in it gets to clean up.
pub fn kill9(pid: u64) {
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill(1) must be runnable");
    assert!(status.success(), "kill -9 {pid} failed: {status}");
}

/// The test workload: tiny fleet, large λ so plain Monte Carlo sees
/// hits, two grid points.
pub const N: usize = 2;
pub const LAMBDA: f64 = 5e-3;
pub const HORIZON: f64 = 4.0;
pub const POINTS: usize = 2;

/// The JSON body submitting the test workload.
pub fn job_body(seed: u64, reps: u64, threads: usize) -> String {
    format!(
        r#"{{"n":{N},"lambda":{LAMBDA},"horizon":{HORIZON},"points":{POINTS},"reps":{reps},"seed":{seed},"threads":{threads},"plain":true}}"#
    )
}

/// The same study run solo through `UnsafetyEvaluator` — the baseline
/// every server-evaluated job must match bitwise, no matter how many
/// times its worker process was killed along the way.
pub fn solo(seed: u64, reps: u64, threads: usize) -> UnsafetyCurve {
    let params = Params::builder().n(N).lambda(LAMBDA).build().unwrap();
    let grid = TimeGrid::linspace(HORIZON / POINTS as f64, HORIZON, POINTS);
    UnsafetyEvaluator::new(params)
        .with_seed(seed)
        .with_threads(threads)
        .with_replications(reps)
        .with_bias(BiasMode::None)
        .evaluate(&grid)
        .unwrap()
}

/// Bit patterns of a solo curve's estimates.
pub fn curve_bits(curve: &UnsafetyCurve) -> Vec<(u64, u64, u64, u64)> {
    curve
        .points()
        .iter()
        .map(|p| {
            (
                p.x.to_bits(),
                p.y.to_bits(),
                p.half_width.to_bits(),
                p.samples,
            )
        })
        .collect()
}

/// Bit patterns of the estimates in a job-status document. JSON is a
/// faithful carrier: floats render shortest-roundtrip and parse back
/// to identical bits.
pub fn status_bits(doc: &Json) -> Vec<(u64, u64, u64, u64)> {
    doc.get("estimates")
        .and_then(Json::as_array)
        .expect("status has estimates")
        .iter()
        .map(|e| {
            (
                e.get("x").and_then(Json::as_f64).unwrap().to_bits(),
                e.get("y").and_then(Json::as_f64).unwrap().to_bits(),
                e.get("half_width")
                    .and_then(Json::as_f64)
                    .unwrap()
                    .to_bits(),
                e.get("samples").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect()
}
