//! Chaos tier for the serving layer: a deterministic, serial sweep of
//! every `ahs-serve` failpoint (plus the lower-layer points the
//! supervisor's recovery story rides on), proving each injected fault
//! ends in a sanctioned outcome — a typed HTTP error, a *counted*
//! degradation, or a bitwise-identical (possibly resumed) job. Never a
//! hung connection, never a corrupted result.
//!
//! Runs only with the `inject` feature (`cargo test -p ahs-serve
//! --test chaos --features inject`). One `#[test]` because the
//! failpoint registry is process-global; together with the
//! `ahs-obs`/`ahs-des` sweep in `crates/des/tests/chaos.rs` it keeps
//! the catalog 100% covered (that sweep asserts every registered layer
//! has a sweep claiming it).

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ahs_obs::Json;
use ahs_serve::{ServeConfig, Server};
use common::*;

/// Arms the registry with `spec`; panics (failing the sweep) on a
/// malformed spec or a name missing from the catalog.
fn arm(spec: &str) {
    ahs_inject::configure_from_spec(spec).expect("chaos spec must parse");
}

/// Closes a scenario: every failpoint it armed must actually have been
/// evaluated, then the registry is cleared and the names marked
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

fn submit_ok(addr: std::net::SocketAddr, body: &str) -> String {
    let (status, text) = request(addr, "POST", "/v1/jobs", body).expect("submit answered");
    assert_eq!(status, 202, "{text}");
    Json::parse(&text)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn serve_chaos_sweep_covers_every_serve_failpoint() {
    let dir = state_dir("chaos");
    let mut covered: HashSet<&'static str> = HashSet::new();
    ahs_inject::clear();

    let mut config = ServeConfig::new(&dir);
    config.addr = "127.0.0.1:0".to_owned();
    config.workers = 2;
    // Small flush cadence so the mid-run crash scenario has a
    // checkpoint to resume from (flushes land on chunk boundaries).
    config.checkpoint_every = 200;
    let server = Server::start(config, Arc::new(AtomicBool::new(false))).expect("server starts");
    let addr = server.local_addr();

    // --- serve::accept: the injected handoff failure drops the
    // connection immediately — the client sees EOF, never a hang — and
    // the loss is counted.
    arm("serve::accept=1*return(other)");
    assert!(
        request(addr, "GET", "/v1/healthz", "").is_none(),
        "faulted accept must close the connection without a response"
    );
    let health = get_json(addr, "/v1/healthz");
    assert_eq!(health.get("accept_faults").and_then(Json::as_u64), Some(1));
    cover(&mut covered, &["serve::accept"]);

    // --- serve::job::enqueue: admission failure is a typed 503; the
    // job is never half-admitted, and the next submission sails
    // through and finishes bitwise-identical to its solo baseline.
    arm("serve::job::enqueue=1*return(other)");
    let (status, body) = request(addr, "POST", "/v1/jobs", &job_body(51, 600, 2)).unwrap();
    assert_eq!(status, 503, "{body}");
    let health = get_json(addr, "/v1/healthz");
    assert_eq!(health.get("enqueue_faults").and_then(Json::as_u64), Some(1));
    assert_eq!(health.get("accepted").and_then(Json::as_u64), Some(0));
    let name = submit_ok(addr, &job_body(51, 600, 2));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert_eq!(status_bits(&doc), curve_bits(&solo(51, 600, 2)));
    cover(&mut covered, &["serve::job::enqueue"]);

    // --- Admission is atomic: with the one worker of a second server
    // busy on a long job and room for one queued job, two submissions
    // racing through a slowed admission step cannot both get in — one
    // is accepted, the other shed with a 429.
    let race_dir = state_dir("chaos-admission");
    let mut race_config = ServeConfig::new(&race_dir);
    race_config.addr = "127.0.0.1:0".to_owned();
    race_config.workers = 1;
    race_config.queue_capacity = 1;
    let race_server =
        Server::start(race_config, Arc::new(AtomicBool::new(false))).expect("server starts");
    let race_addr = race_server.local_addr();
    let long = submit_ok(race_addr, &job_body(53, 500_000, 1));
    wait_for_state(race_addr, &long, "running", WAIT);
    arm("serve::job::enqueue=2*delay(200)");
    let racers: Vec<_> = [54, 55]
        .map(|seed| {
            std::thread::spawn(move || {
                request(race_addr, "POST", "/v1/jobs", &job_body(seed, 100, 1))
                    .expect("submit answered")
                    .0
            })
        })
        .into_iter()
        .collect();
    let mut statuses: Vec<u16> = racers.into_iter().map(|r| r.join().unwrap()).collect();
    statuses.sort_unstable();
    assert_eq!(
        statuses,
        [202, 429],
        "exactly one racing submission may take the last queue slot"
    );
    let health = get_json(race_addr, "/v1/healthz");
    assert_eq!(health.get("accepted").and_then(Json::as_u64), Some(2));
    assert_eq!(
        health.get("rejected_overloaded").and_then(Json::as_u64),
        Some(1)
    );
    race_server.stop_flag().store(true, Ordering::Relaxed);
    assert_eq!(race_server.join().unfinished, 2);
    std::fs::remove_dir_all(&race_dir).ok();
    ahs_inject::clear();

    // --- serve::worker::spawn: the first attempt dies in a crash the
    // supervisor classifies as restartable; the restart is counted in
    // the status document and the finished job is bitwise-identical to
    // a crash-free run.
    arm("serve::worker::spawn=1*panic(spawn-chaos)");
    let name = submit_ok(addr, &job_body(61, 600, 2));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert!(
        doc.get("restarts").and_then(Json::as_u64) >= Some(1),
        "the injected spawn crash must consume a restart"
    );
    assert_eq!(status_bits(&doc), curve_bits(&solo(61, 600, 2)));
    let health = get_json(addr, "/v1/healthz");
    assert!(health.get("worker_restarts").and_then(Json::as_u64) >= Some(1));
    cover(&mut covered, &["serve::worker::spawn"]);

    // --- Mid-run crash + resume: a replication panic with a zero
    // quarantine budget kills the attempt *after* the chunk-1
    // checkpoint flushed (chunk 1000, panic at replication ~1501). The
    // supervisor restarts from the namespaced checkpoint and the
    // resumed job reports exactly the bits of an uninterrupted run,
    // with the resume recorded in its lineage.
    arm("des::replication::body=1500*off->1*panic(mid-run-chaos)");
    let name = submit_ok(addr, &job_body(71, 3000, 1));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert!(
        doc.get("restarts").and_then(Json::as_u64) >= Some(1),
        "the mid-run crash must consume a restart"
    );
    let lineage = doc.get("resume_lineage").and_then(Json::as_array).unwrap();
    assert!(
        !lineage.is_empty(),
        "the resumed attempt must record the checkpoint watermark it started from"
    );
    assert_eq!(
        status_bits(&doc),
        curve_bits(&solo(71, 3000, 1)),
        "resume after a mid-run crash must be bitwise-identical"
    );
    assert_eq!(doc.get("quarantined").and_then(Json::as_u64), Some(0));
    cover(&mut covered, &["des::replication::body"]);

    // --- A panic that escapes the study (here, out of the second
    // checkpoint save) unwinds out of the in-process attempt: the
    // runner reads it as exit 101, a crash, and the restart resumes
    // bitwise from the checkpoint the first save flushed.
    arm("des::checkpoint::save=1*off->1*panic(save-chaos)");
    let name = submit_ok(addr, &job_body(73, 3000, 1));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert!(
        doc.get("restarts").and_then(Json::as_u64) >= Some(1),
        "the escaped panic must consume a restart"
    );
    assert!(
        !doc.get("resume_lineage")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "the restarted attempt must resume from the flushed checkpoint"
    );
    assert_eq!(status_bits(&doc), curve_bits(&solo(73, 3000, 1)));
    cover(&mut covered, &["des::checkpoint::save"]);

    // --- serve::response::write: a faulted response write drops the
    // connection cleanly (EOF, not a hang), is counted, and leaves the
    // server fully responsive.
    arm("serve::response::write=1*return(broken-pipe)");
    assert!(
        request(addr, "GET", "/v1/jobs", "").is_none(),
        "faulted response write must close the connection without a response"
    );
    let health = get_json(addr, "/v1/healthz");
    assert!(health.get("responses_dropped").and_then(Json::as_u64) >= Some(1));
    cover(&mut covered, &["serve::response::write"]);

    // --- obs::progress::emit through the service: a job whose
    // telemetry sink fails on every event still finishes with exact
    // estimates, and the loss surfaces as `telemetry_dropped` in the
    // job-status response — degradation is visible to clients, not
    // just counted internally.
    arm("obs::progress::emit=return(broken-pipe)");
    let name = submit_ok(addr, &job_body(91, 600, 2));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert!(
        doc.get("telemetry_dropped").and_then(Json::as_u64) > Some(0),
        "dropped telemetry must surface in the status document"
    );
    assert_eq!(status_bits(&doc), curve_bits(&solo(91, 600, 2)));
    cover(&mut covered, &["obs::progress::emit"]);

    // --- The sweep's reason to exist: every serve-layer failpoint was
    // exercised, and nothing was claimed that the catalog lacks.
    let serve_names: HashSet<&'static str> = ahs_inject::catalog()
        .iter()
        .filter(|d| d.layer == "ahs-serve")
        .map(|d| d.name)
        .collect();
    assert!(
        serve_names.len() >= 4,
        "serve catalog shrank: {serve_names:?}"
    );
    let missed: Vec<&&str> = serve_names.difference(&covered).collect();
    assert!(
        missed.is_empty(),
        "serve chaos sweep missed registered failpoint(s): {missed:?}"
    );
    let all: HashSet<&'static str> = ahs_inject::catalog().iter().map(|d| d.name).collect();
    assert!(covered.is_subset(&all));

    // Everything submitted under injection finished; the drain is
    // clean.
    server.stop_flag().store(true, Ordering::Relaxed);
    let report = server.join();
    assert_eq!(report.failed, 0);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
