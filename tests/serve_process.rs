//! Process-isolation integration tests: the server supervising real
//! re-execed `ahs serve-worker` processes.
//!
//! These are the acceptance scenarios for the containment boundary:
//! a SIGKILLed worker is reaped, restarted from its latest checkpoint
//! generation, and finishes bitwise-identical to a crash-free solo
//! run; a worker driven past its memory budget dies alone — in its own
//! process — while a concurrent job and the server itself are
//! unaffected; and a worker binary that cannot start fails its job
//! with a typed message once the restart budget is spent, leaving the
//! server healthy.

#![cfg(unix)]

mod serve_common;

use std::time::{Duration, Instant};

use ahs_safety::obs::Json;
use serve_common::*;

#[test]
fn sigkilled_worker_is_reaped_restarted_and_bitwise_identical() {
    let (server, dir) = start_server("sigkill", |c| c.checkpoint_every = 2_000);
    let addr = server.local_addr();

    const SEED: u64 = 41;
    const REPS: u64 = 60_000;
    let name = submit(addr, &job_body(SEED, REPS, 1));

    // Wait for durable progress — a published worker PID and at least
    // one flushed checkpoint generation — then SIGKILL the live worker
    // mid-job. SIGKILL is uncatchable: nothing inside the worker gets
    // to flush, apologize, or corrupt anything on the way down.
    let checkpoint = dir.join("jobs").join(&name).join("checkpoint.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    let pid = loop {
        let doc = get_json(addr, &format!("/v1/jobs/{name}"));
        assert_ne!(
            doc.get("state").and_then(Json::as_str),
            Some("finished"),
            "job finished before the kill; raise REPS"
        );
        if let Some(pid) = doc.get("worker_pid").and_then(Json::as_u64) {
            if checkpoint_exists(&checkpoint) {
                break pid;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no checkpointed worker attempt to kill"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    kill9(pid);

    let doc = wait_for_state(addr, &name, "finished", Duration::from_secs(180));
    assert!(
        doc.get("restarts").and_then(Json::as_u64) >= Some(1),
        "the kill must have consumed a restart: {doc:?}"
    );
    assert_eq!(
        status_bits(&doc),
        curve_bits(&solo(SEED, REPS, 1)),
        "resumed-after-SIGKILL estimates must be bitwise-identical to a solo run"
    );
    let report = shutdown(server);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Plants a queued job whose only checkpoint generation is a JSON
/// array of 2^25 zeros, for a server starting over this state dir to
/// recover. Resuming parses the array into 2^25 32-byte values — a
/// 1 GiB allocation, past a 1 GiB address-space cap — so every attempt
/// abort()s before its first replication. The hog cannot be admitted
/// over HTTP: admission bounds every spec field that sizes an
/// allocation.
fn plant_checkpoint_bomb(job_dir: &std::path::Path) {
    std::fs::create_dir_all(job_dir).unwrap();
    let spec = format!(r#"{{"seq":1,{}"#, &job_body(5, 100, 1)[1..]);
    std::fs::write(job_dir.join("job.json"), spec).unwrap();
    let zeros = 1usize << 25;
    let mut bomb = Vec::with_capacity(2 * zeros + 1);
    bomb.push(b'[');
    for _ in 1..zeros {
        bomb.extend_from_slice(b"0,");
    }
    bomb.extend_from_slice(b"0]");
    std::fs::write(job_dir.join("checkpoint.json"), bomb).unwrap();
}

#[test]
fn mem_limited_worker_dies_alone_while_its_neighbor_finishes() {
    if !ahs_safety::obs::rlimit_supported() {
        eprintln!("skipping: no rlimit support on this platform");
        return;
    }
    let (server, dir) = start_server("memlimit", |c| {
        c.workers = 2;
        c.restart_budget = 1;
        c.isolation.mem_limit_mb = Some(1024);
        plant_checkpoint_bomb(&c.state_dir.join("jobs").join("job-000001"));
    });
    let addr = server.local_addr();

    // The hog is the planted job, recovered at start-up; the neighbor
    // is admitted after it.
    let hog_name = "job-000001";
    const SEED: u64 = 17;
    const REPS: u64 = 30_000;
    let healthy_name = submit(addr, &job_body(SEED, REPS, 1));

    // The blast radius of the rlimit kill is exactly one process: the
    // hog job fails after exhausting its restart budget, the healthy
    // neighbor finishes bitwise-clean, and the server keeps serving.
    let hog_doc = wait_for_state(addr, hog_name, "failed", Duration::from_secs(120));
    let error = hog_doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    assert!(
        error.contains("worker process") && error.contains("restart budget"),
        "failure must name the worker death and the exhausted budget: {error}"
    );
    assert_eq!(hog_doc.get("restarts").and_then(Json::as_u64), Some(1));

    let healthy_doc = wait_for_state(addr, &healthy_name, "finished", Duration::from_secs(180));
    assert_eq!(
        status_bits(&healthy_doc),
        curve_bits(&solo(SEED, REPS, 1)),
        "the neighbor of an rlimit-killed worker must be untouched"
    );

    let health = get_json(addr, "/v1/healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        health.get("worker_restarts").and_then(Json::as_u64) >= Some(1),
        "the rlimit kill must be visible in healthz: {health:?}"
    );

    let report = shutdown(server);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrunnable_worker_binary_fails_the_job_and_spares_the_server() {
    // A real spawn error, not an injected one: every attempt fails to
    // start its worker, each failure costs a restart, and the job ends
    // `failed` with the cause and the spent budget named.
    let (server, dir) = start_server("no-worker", |c| {
        c.restart_budget = 2;
        c.isolation.worker_exe = c.state_dir.join("no-such-ahs-binary");
    });
    let addr = server.local_addr();
    let name = submit(addr, &job_body(19, 100, 1));

    let doc = wait_for_state(addr, &name, "failed", Duration::from_secs(60));
    let error = doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    assert!(
        error.contains("spawning worker process") && error.contains("restart budget of 2"),
        "failure must name the spawn error and the exhausted budget: {error}"
    );
    assert_eq!(doc.get("restarts").and_then(Json::as_u64), Some(2));
    let health = get_json(addr, "/v1/healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    let report = shutdown(server);
    assert_eq!(report.failed, 1);
    std::fs::remove_dir_all(&dir).ok();
}
