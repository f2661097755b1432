//! Chaos tier for the serving layer: a deterministic, serial sweep of
//! every `ahs-serve` and `ahs-serve-worker` failpoint (plus the
//! lower-layer points the supervisor's recovery story rides on),
//! proving each injected fault ends in a sanctioned outcome — a typed
//! HTTP error, a *counted* degradation, a typed job failure, or a
//! bitwise-identical (possibly resumed) job. Never a hung connection,
//! never a corrupted result, never a wounded server.
//!
//! Runs only with the `inject` feature (`cargo test --test serve_chaos
//! --features inject`). Points the server evaluates itself are armed
//! in this process's registry and checked by their hit counts. Points
//! that fire inside a job attempt — replication bodies, checkpoint
//! saves, progress events, heartbeats — are armed through
//! `AHS_FAILPOINTS`, which every re-execed `ahs serve-worker` inherits
//! and re-applies to itself, once per attempt; this process cannot see
//! their hits, so each scenario asserts their effect instead. One
//! `#[test]` because the registry and the environment are
//! process-global; together with the `ahs-obs`/`ahs-des` sweep in
//! `crates/des/tests/chaos.rs` it keeps the catalog 100% covered (that
//! sweep asserts every registered layer has a sweep claiming it).

mod serve_common;

use std::collections::HashSet;
use std::time::Duration;

use ahs_safety::inject;
use ahs_safety::obs::Json;
use serve_common::*;

/// Arms this process's registry with `spec`; panics (failing the
/// sweep) on a malformed spec or a name missing from the catalog.
fn arm(spec: &str) {
    inject::configure_from_spec(spec).expect("chaos spec must parse");
}

/// Closes a scenario armed with [`arm`]: every failpoint it armed must
/// actually have been evaluated, then the registry is cleared and the
/// names marked covered.
fn cover(covered: &mut HashSet<&'static str>, names: &[&'static str]) {
    for name in names {
        assert!(
            inject::hits(name) > 0,
            "scenario configured failpoint `{name}` but it never fired"
        );
        covered.insert(name);
    }
    inject::clear();
}

/// Arms `spec` for every worker process spawned from now on.
fn arm_workers(spec: &str) {
    std::env::set_var(inject::ENV_VAR, spec);
}

/// Closes a scenario armed with [`arm_workers`], whose effect the
/// scenario has already asserted.
fn cover_workers(covered: &mut HashSet<&'static str>, name: &'static str) {
    std::env::remove_var(inject::ENV_VAR);
    covered.insert(name);
}

fn restarts(doc: &Json) -> Option<u64> {
    doc.get("restarts").and_then(Json::as_u64)
}

fn resumed(doc: &Json) -> bool {
    !doc.get("resume_lineage")
        .and_then(Json::as_array)
        .expect("status has resume_lineage")
        .is_empty()
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn serve_chaos_sweep_covers_every_serve_and_worker_failpoint() {
    let mut covered: HashSet<&'static str> = HashSet::new();
    inject::clear();
    std::env::remove_var(inject::ENV_VAR);

    // Every job here runs on one thread in chunks of 1000 replications,
    // and a flush cadence below the chunk size checkpoints every chunk
    // boundary (plus a final flush when the study ends): the scenarios
    // below count on exactly that cadence.
    let (server, dir) = start_server("chaos", |c| {
        c.workers = 2;
        c.checkpoint_every = 200;
    });
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
    let name = submit(addr, &job_body(51, 600, 2));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert_eq!(status_bits(&doc), curve_bits(&solo(51, 600, 2)));
    cover(&mut covered, &["serve::job::enqueue"]);

    // --- Admission is atomic: with the one worker of a second server
    // busy on a long job and room for one queued job, two submissions
    // racing through a slowed admission step cannot both get in — one
    // is accepted, the other shed with a 429.
    let (race_server, race_dir) = start_server("chaos-admission", |c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let race_addr = race_server.local_addr();
    let long = submit(race_addr, &job_body(53, 500_000, 1));
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
    assert_eq!(shutdown(race_server).unfinished, 2);
    std::fs::remove_dir_all(&race_dir).ok();
    inject::clear();

    // --- serve::worker::spawn: the first attempt dies in a crash the
    // supervisor classifies as restartable; the restart is counted in
    // the status document and the finished job is bitwise-identical to
    // a crash-free run.
    arm("serve::worker::spawn=1*panic(spawn-chaos)");
    let name = submit(addr, &job_body(61, 600, 2));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert!(
        restarts(&doc) >= Some(1),
        "the injected spawn crash must consume a restart"
    );
    assert_eq!(status_bits(&doc), curve_bits(&solo(61, 600, 2)));
    let health = get_json(addr, "/v1/healthz");
    assert!(health.get("worker_restarts").and_then(Json::as_u64) >= Some(1));
    cover(&mut covered, &["serve::worker::spawn"]);

    // --- serve::worker::exec: a failed re-exec (missing binary, fork
    // failure) is a restartable crash: the next attempt spawns cleanly
    // and the job finishes bitwise-identical to a solo run.
    arm("serve::worker::exec=1*return(other)");
    let name = submit(addr, &job_body(62, 20_000, 1));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert_eq!(restarts(&doc), Some(1), "{doc:?}");
    assert_eq!(status_bits(&doc), curve_bits(&solo(62, 20_000, 1)));
    cover(&mut covered, &["serve::worker::exec"]);

    // --- serve::worker::reap: losing the worker's outcome document
    // after a clean-looking exit demotes the attempt to a crash; the
    // restart resumes from the final flushed checkpoint and republishes
    // the same bits.
    arm("serve::worker::reap=1*return(other)");
    let name = submit(addr, &job_body(63, 20_000, 1));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert_eq!(restarts(&doc), Some(1), "{doc:?}");
    assert_eq!(status_bits(&doc), curve_bits(&solo(63, 20_000, 1)));
    cover(&mut covered, &["serve::worker::reap"]);

    // --- Mid-run crash + resume: a replication panic with a zero
    // quarantine budget fails the first attempt at replication 2500,
    // after the checkpoint at 2000 flushed. The restart resumes there,
    // runs the last 1000 replications — fewer than the 2500 its own
    // re-armed schedule lets pass — and reports exactly the bits of an
    // uninterrupted run, with the resume recorded in its lineage.
    arm_workers("des::replication::body=2500*off->1*panic(mid-run-chaos)");
    let name = submit(addr, &job_body(71, 3000, 1));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert_eq!(
        restarts(&doc),
        Some(1),
        "the mid-run crash must consume one restart: {doc:?}"
    );
    assert!(
        resumed(&doc),
        "the resumed attempt must record the checkpoint watermark it started from"
    );
    assert_eq!(
        status_bits(&doc),
        curve_bits(&solo(71, 3000, 1)),
        "resume after a mid-run crash must be bitwise-identical"
    );
    assert_eq!(doc.get("quarantined").and_then(Json::as_u64), Some(0));
    cover_workers(&mut covered, "des::replication::body");

    // --- A panic that escapes the study (here, out of the third
    // checkpoint save, at 3000) kills the worker process with exit
    // 101, a crash. The restart resumes from the save at 2000 and its
    // two saves — the chunk at 3000 and the final flush — are the two
    // its re-armed schedule lets through, so it finishes bitwise.
    arm_workers("des::checkpoint::save=2*off->1*panic(save-chaos)");
    let name = submit(addr, &job_body(73, 3000, 1));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert_eq!(
        restarts(&doc),
        Some(1),
        "the escaped panic must consume one restart: {doc:?}"
    );
    assert!(
        resumed(&doc),
        "the restarted attempt must resume from the flushed checkpoint"
    );
    assert_eq!(status_bits(&doc), curve_bits(&solo(73, 3000, 1)));
    cover_workers(&mut covered, "des::checkpoint::save");

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
    arm_workers("obs::progress::emit=return(broken-pipe)");
    let name = submit(addr, &job_body(91, 600, 2));
    let doc = wait_for_state(addr, &name, "finished", WAIT);
    assert!(
        doc.get("telemetry_dropped").and_then(Json::as_u64) > Some(0),
        "dropped telemetry must surface in the status document"
    );
    assert_eq!(restarts(&doc), Some(0), "{doc:?}");
    assert_eq!(status_bits(&doc), curve_bits(&solo(91, 600, 2)));
    cover_workers(&mut covered, "obs::progress::emit");

    // Everything submitted under injection finished; the drain is
    // clean.
    let report = shutdown(server);
    assert_eq!(report.failed, 0);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();

    // --- serve::worker::heartbeat: a worker whose heartbeat stops
    // advancing is wedged as far as the supervisor can tell: it is
    // killed, restarted, and — the wedge being systematic, since every
    // attempt re-arms it — failed with a typed heartbeat message once
    // the restart budget runs out. The server itself stays healthy.
    arm_workers("serve::worker::heartbeat=return(other)");
    let (server, dir) = start_server("chaos-heartbeat", |c| {
        c.restart_budget = 1;
        c.isolation.heartbeat_interval = Duration::from_millis(50);
        c.isolation.heartbeat_stale_after = Duration::from_millis(500);
    });
    let addr = server.local_addr();
    // Big enough that no attempt can finish before going stale.
    let name = submit(addr, &job_body(64, 2_000_000, 1));
    let doc = wait_for_state(addr, &name, "failed", WAIT);
    let error = doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    assert!(
        error.contains("heartbeat") && error.contains("restart budget"),
        "failure must name the stale heartbeat and the budget: {error}"
    );
    assert_eq!(restarts(&doc), Some(1), "{doc:?}");
    let health = get_json(addr, "/v1/healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    cover_workers(&mut covered, "serve::worker::heartbeat");
    assert_eq!(shutdown(server).failed, 1);
    std::fs::remove_dir_all(&dir).ok();

    // --- The sweep's reason to exist: every failpoint of both serve
    // layers was exercised, and nothing was claimed that the catalog
    // lacks.
    let serve_names: HashSet<&'static str> = inject::catalog()
        .iter()
        .filter(|d| matches!(d.layer, "ahs-serve" | "ahs-serve-worker"))
        .map(|d| d.name)
        .collect();
    assert!(
        serve_names.len() >= 7,
        "serve catalog shrank: {serve_names:?}"
    );
    let missed: Vec<&&str> = serve_names.difference(&covered).collect();
    assert!(
        missed.is_empty(),
        "serve chaos sweep missed registered failpoint(s): {missed:?}"
    );
    let all: HashSet<&'static str> = inject::catalog().iter().map(|d| d.name).collect();
    assert!(covered.is_subset(&all));
}
