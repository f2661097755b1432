//! HTTP API conformance: typed rejections at the door, explicit load
//! shedding, gated manifests, and status documents that carry every
//! key of the `ahs-serve-job/v1` schema in every phase
//! (`tests/serve-api.schema.json` is the source of truth).

mod serve_common;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ahs_safety::obs::Json;
use ahs_safety::serve::{
    run_worker, AdmissionPolicy, DrainReport, JobSpec, WorkerOptions, JOB_SPEC_SCHEMA,
};
use serve_common::*;

/// Like `serve_common::request` but keeps the raw head, for header
/// checks.
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: ahs-serve\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response.split(' ').nth(1).unwrap().parse().unwrap();
    (status, response)
}

fn read_json(path: &std::path::Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).expect("valid JSON")
}

#[test]
fn rejections_are_typed_and_counted() {
    let (server, dir) = start_server("api-reject", |_| {});
    let addr = server.local_addr();

    let (status, body) = request(addr, "POST", "/v1/jobs", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "POST", "/v1/jobs", r#"{"reps":0}"#).unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "POST", "/v1/jobs", r#"{"strategy":"zz"}"#).unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "POST", "/v1/jobs", r#"{"reps":3000000}"#).unwrap();
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("admission policy"), "{body}");

    let (status, _) = request(addr, "GET", "/v1/jobs/job-999999", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/v1/jobs", "").unwrap();
    assert_eq!(status, 405);

    let health = get_json(addr, "/v1/healthz");
    assert_eq!(
        health.get("schema").and_then(Json::as_str),
        Some("ahs-serve-health/v1")
    );
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("rejected_invalid").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(
        health.get("rejected_policy").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(health.get("accepted").and_then(Json::as_u64), Some(0));

    let report = shutdown(server);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_load_with_429_and_retry_after() {
    let (server, dir) = start_server("api-shed", |c| c.queue_capacity = 0);
    let addr = server.local_addr();

    let (status, response) = request_raw(addr, "POST", "/v1/jobs", &job_body(1, 100, 1));
    assert_eq!(status, 429, "{response}");
    let head = response.to_ascii_lowercase();
    assert!(
        head.contains("retry-after: 1"),
        "429 must carry retry-after: {response}"
    );

    let health = get_json(addr, "/v1/healthz");
    assert_eq!(
        health.get("rejected_overloaded").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(health.get("accepted").and_then(Json::as_u64), Some(0));

    let report = shutdown(server);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_limit_sheds_with_503_and_counts_it() {
    let (server, dir) = start_server("api-conn-shed", |c| c.max_connections = 1);
    let addr = server.local_addr();

    // Occupy the only permit: connect and send a partial request so
    // the handler thread sits in `read_request` holding the slot.
    let mut holder = TcpStream::connect(addr).unwrap();
    holder.write_all(b"GET /v1/healthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let (status, response) = request_raw(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 503, "{response}");
    let head = response.to_ascii_lowercase();
    assert!(
        head.contains("retry-after: 1"),
        "503 shed must carry retry-after: {response}"
    );

    // Release the permit and confirm the shed was counted, not hidden.
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let health = loop {
        if let Some((200, body)) = request(addr, "GET", "/v1/healthz", "") {
            break Json::parse(&body).unwrap();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "permit never released"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(
        health.get("max_connections").and_then(Json::as_u64),
        Some(1)
    );
    assert!(health.get("connections_shed").and_then(Json::as_u64) >= Some(1));
    assert_eq!(
        health.get("connections_active").and_then(Json::as_u64),
        Some(1),
        "the healthz probe itself holds the permit"
    );

    let report = shutdown(server);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_is_gated_until_finished_and_drain_exits_75() {
    let (server, dir) = start_server("api-manifest", |_| {});
    let addr = server.local_addr();

    // A job big enough to still be in flight when we probe.
    let (status, body) = request(addr, "POST", "/v1/jobs", &job_body(5, 500_000, 1)).unwrap();
    assert_eq!(status, 202, "{body}");
    let name = Json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();

    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{name}/manifest"), "").unwrap();
    assert_eq!(status, 409, "manifest must be gated: {body}");
    wait_for_state(addr, &name, "running", Duration::from_secs(60));
    // The worker heartbeats once its drain handler is installed; a
    // SIGTERM before that would kill it before it could say `drained`.
    let heartbeat = dir.join("jobs").join(&name).join("heartbeat");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !heartbeat.exists() {
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Draining with the job unfinished maps to exit 75. A drain also
    // stops admitting: a racing submission sees either the closed
    // listener or an explicit 503 — never a silent acceptance.
    server.stop_flag().store(true, Ordering::Relaxed);
    match request(addr, "POST", "/v1/jobs", &job_body(6, 100, 1)) {
        None => {}
        Some((status, body)) => assert_eq!(status, 503, "{body}"),
    }
    let report = server.join();
    assert_eq!(report.unfinished, 1);
    assert_eq!(report.outcome().code(), 75);

    // The worker process spoke the attempt protocol: its drain is on
    // record in the job's outcome document.
    let outcome = read_json(&dir.join("jobs").join(&name).join("outcome.json"));
    assert_eq!(
        outcome.get("schema").and_then(Json::as_str),
        Some("ahs-serve-worker-outcome/v1")
    );
    assert_eq!(
        outcome.get("outcome").and_then(Json::as_str),
        Some("drained")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_documents_carry_every_schema_key_in_every_phase() {
    let schema_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/serve-api.schema.json");
    let schema = Json::parse(&std::fs::read_to_string(&schema_path).unwrap()).unwrap();
    let required: Vec<&str> = schema
        .get("required")
        .and_then(Json::as_array)
        .expect("schema lists required keys")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(required.len() >= 14, "schema lost keys: {required:?}");
    let spec_required: Vec<&str> = schema
        .get("properties")
        .and_then(|p| p.get("spec"))
        .and_then(|s| s.get("required"))
        .and_then(Json::as_array)
        .expect("schema lists required spec keys")
        .iter()
        .filter_map(Json::as_str)
        .collect();

    let check = |doc: &Json, phase: &str| {
        for key in &required {
            assert!(doc.get(key).is_some(), "{phase} document missing `{key}`");
        }
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ahs-serve-job/v1")
        );
        let spec = doc.get("spec").expect("spec present");
        for key in &spec_required {
            assert!(spec.get(key).is_some(), "{phase} spec missing `{key}`");
        }
    };

    let (server, dir) = start_server("api-schema", |_| {});
    let addr = server.local_addr();

    let (status, body) = request(addr, "POST", "/v1/jobs", &job_body(7, 200, 1)).unwrap();
    assert_eq!(status, 202, "{body}");
    let doc = Json::parse(&body).unwrap();
    check(&doc, "admission");
    let name = doc.get("id").and_then(Json::as_str).unwrap().to_owned();

    let doc = wait_for_state(addr, &name, "finished", Duration::from_secs(60));
    check(&doc, "finished");
    assert!(
        !doc.get("estimates")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "finished document must carry estimates"
    );

    // The list endpoint embeds the same documents.
    let list = get_json(addr, "/v1/jobs");
    assert_eq!(
        list.get("schema").and_then(Json::as_str),
        Some("ahs-serve-jobs/v1")
    );
    let jobs = list.get("jobs").and_then(Json::as_array).unwrap();
    assert_eq!(jobs.len(), 1);
    check(&jobs[0], "listed");

    // And the manifest endpoint serves the standard run manifest.
    let (status, manifest) =
        request(addr, "GET", &format!("/v1/jobs/{name}/manifest"), "").unwrap();
    assert_eq!(status, 200);
    let manifest = Json::parse(&manifest).expect("manifest is JSON");
    assert!(manifest.get("schema").is_some());

    // The worker process speaks the attempt protocol: a finished
    // outcome document, and the manifest written by that same attempt.
    let job_dir = dir.join("jobs").join(&name);
    let outcome = read_json(&job_dir.join("outcome.json"));
    assert_eq!(
        outcome.get("schema").and_then(Json::as_str),
        Some("ahs-serve-worker-outcome/v1")
    );
    assert_eq!(
        outcome.get("outcome").and_then(Json::as_str),
        Some("finished")
    );
    assert_eq!(read_json(&job_dir.join("manifest.json")), manifest);
    assert_eq!(status_bits(&outcome), status_bits(&doc));

    let report = shutdown(server);
    assert_eq!(report.finished, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// An idle server bound to `bind` drains promptly once the flag is
/// raised — its accept thread, parked in a blocking `accept`, is woken
/// by the drain — and releases its port.
fn idle_drain_wakes_accept(bind: &str, tag: &str) {
    let (server, dir) = start_server(tag, |c| c.addr = bind.to_owned());
    let port = server.local_addr().port();
    // Let the accept thread and the workers park.
    std::thread::sleep(Duration::from_millis(100));

    server.stop_flag().store(true, Ordering::Relaxed);
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.join()).ok());
    let report = joined
        .recv_timeout(Duration::from_secs(2))
        .expect("an idle drain must finish within 2 s");
    assert_eq!(
        report,
        DrainReport {
            finished: 0,
            failed: 0,
            unfinished: 0,
        }
    );

    let old = SocketAddr::from(([127, 0, 0, 1], port));
    let refused = TcpStream::connect(old).expect_err("the listener must be closed");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_drain_wakes_a_loopback_listener() {
    idle_drain_wakes_accept("127.0.0.1:0", "api-drain-loopback");
}

#[test]
fn idle_drain_wakes_an_unspecified_listener() {
    idle_drain_wakes_accept("0.0.0.0:0", "api-drain-unspecified");
}

/// Persists `job_json` as a fresh job directory's `job.json` and runs
/// one worker attempt over it in this process, handing the worker the
/// digest of the spec the server `admitted`. Returns the exit code and
/// the attempt's `outcome.json`.
fn attempt_over(tag: &str, job_json: &str, admitted: &JobSpec) -> (u8, Json) {
    let dir = state_dir(tag);
    std::fs::write(dir.join("job.json"), job_json).unwrap();
    let options = WorkerOptions {
        job_dir: dir.clone(),
        checkpoint_every: 100,
        heartbeat_interval: Duration::from_millis(50),
        watchdog: None,
        expect_spec: Some(admitted.digest()),
    };
    let code = run_worker(&options, &Arc::new(AtomicBool::new(false)));
    let outcome = Json::parse(&std::fs::read_to_string(dir.join("outcome.json")).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (code, outcome)
}

#[test]
fn worker_refuses_a_job_spec_edited_after_admission() {
    let body = Json::parse(&job_body(5, 300, 1)).unwrap();
    let admitted = JobSpec::from_json(&body, &AdmissionPolicy::default()).unwrap();
    let persisted = admitted.to_json().render();

    // The spec as admitted runs to the solo estimates.
    let (code, outcome) = attempt_over("spec-kept", &persisted, &admitted);
    assert_eq!(code, 0, "{}", outcome.render());
    assert_eq!(status_bits(&outcome), curve_bits(&solo(5, 300, 1)));

    // Its seed edited on disk, it is a typed failure no restart can
    // outrun, and nothing is evaluated.
    let edited = persisted.replace("\"seed\":5", "\"seed\":6");
    assert_ne!(edited, persisted, "the edit must land");
    let (code, outcome) = attempt_over("spec-edited", &edited, &admitted);
    assert_eq!(code, 1);
    assert_eq!(
        outcome.get("outcome").and_then(Json::as_str),
        Some("failed")
    );
    let error = outcome.get("error").unwrap();
    assert_eq!(
        error.get("restartable").and_then(Json::as_bool),
        Some(false)
    );
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("job spec mismatch"), "{message}");
    assert_eq!(outcome.get("replications").and_then(Json::as_u64), Some(0));
}

#[test]
fn recovery_runs_the_thread_count_the_job_was_admitted_with() {
    // A job admitted at 4 threads and recovered by a server whose
    // `--max-threads` is now 1 runs the spec in its `job.json`; were
    // the recovered spec re-clamped, its digest would no longer match
    // the file and the worker would refuse it.
    let dir = state_dir("recover-threads");
    let job_dir = dir.join("jobs").join("job-000001");
    std::fs::create_dir_all(&job_dir).unwrap();
    let admitting = AdmissionPolicy {
        max_threads: 4,
        ..AdmissionPolicy::default()
    };
    let body = Json::parse(&job_body(31, 400, 4)).unwrap();
    let Json::Obj(mut fields) = JobSpec::from_json(&body, &admitting).unwrap().to_json() else {
        unreachable!("a spec renders as an object")
    };
    fields.insert(0, ("schema".to_owned(), Json::str(JOB_SPEC_SCHEMA)));
    fields.insert(1, ("seq".to_owned(), 1u64.into()));
    std::fs::write(job_dir.join("job.json"), Json::Obj(fields).render()).unwrap();

    let server = start_in(&dir, |c| c.policy.max_threads = 1);
    let doc = wait_for_state(
        server.local_addr(),
        "job-000001",
        "finished",
        Duration::from_secs(60),
    );
    let threads = doc.get("spec").and_then(|s| s.get("threads"));
    assert_eq!(threads.and_then(Json::as_u64), Some(4));
    assert_eq!(status_bits(&doc), curve_bits(&solo(31, 400, 4)));
    assert_eq!(shutdown(server).finished, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_lists_jobs_whose_spec_no_longer_parses_as_failed() {
    // Two jobs persisted with `points` past the cap this server parses
    // (as an older server without the cap would have admitted them):
    // restarting over the state dir must list both as failed, with the
    // parse error as the message, and run neither.
    let dir = state_dir("recover-unparseable");
    let body = Json::parse(&job_body(37, 400, 1)).unwrap();
    let spec = JobSpec::from_json(&body, &AdmissionPolicy::default()).unwrap();
    for (seq, points) in [(1u64, 1001u64), (2, u64::MAX)] {
        let job_dir = dir.join("jobs").join(format!("job-{seq:06}"));
        std::fs::create_dir_all(&job_dir).unwrap();
        let Json::Obj(mut fields) = spec.to_json() else {
            unreachable!("a spec renders as an object")
        };
        for (key, value) in &mut fields {
            if key == "points" {
                *value = points.into();
            }
        }
        fields.insert(0, ("schema".to_owned(), Json::str(JOB_SPEC_SCHEMA)));
        fields.insert(1, ("seq".to_owned(), seq.into()));
        std::fs::write(job_dir.join("job.json"), Json::Obj(fields).render()).unwrap();
    }

    let server = start_in(&dir, |_| {});
    let listed = get_json(server.local_addr(), "/v1/jobs");
    let jobs = listed.get("jobs").and_then(Json::as_array).unwrap();
    assert_eq!(jobs.len(), 2, "{}", listed.render());
    for (doc, (name, points)) in jobs
        .iter()
        .zip([("job-000001", 1001), ("job-000002", u64::MAX)])
    {
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(name));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("failed"));
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("`points` must be at most 1000"), "{error}");
        let shown = doc.get("spec").and_then(|s| s.get("points"));
        assert_eq!(shown.and_then(Json::as_u64), Some(points));
    }
    let report = shutdown(server);
    assert_eq!(report.finished, 0);
    std::fs::remove_dir_all(&dir).ok();
}
