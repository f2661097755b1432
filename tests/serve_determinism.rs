//! Concurrent-job determinism: jobs evaluated by the server — running
//! side by side on the worker pool — must produce estimates
//! bitwise-identical to the same studies run solo, at every thread
//! count; and a server killed mid-job must resume every accepted job
//! bitwise after a restart over the same state directory.

mod serve_common;

use std::time::{Duration, Instant};

use ahs_safety::obs::Json;
use serve_common::*;

#[test]
fn concurrent_jobs_match_solo_bitwise_at_1_2_4_threads() {
    let (server, dir) = start_server("determinism", |c| c.workers = 2);
    let addr = server.local_addr();

    // Two jobs per thread count over one configuration, all in flight
    // together on two workers.
    let reps = 2_000u64;
    let mut submitted = Vec::new();
    for threads in [1usize, 2, 4] {
        for seed in [11u64, 12] {
            let (status, body) = request(
                addr,
                "POST",
                "/v1/jobs",
                &job_body(seed ^ (threads as u64) << 8, reps, threads),
            )
            .expect("submit answered");
            assert_eq!(status, 202, "{body}");
            let doc = Json::parse(&body).unwrap();
            let name = doc.get("id").and_then(Json::as_str).unwrap().to_owned();
            submitted.push((name, seed ^ (threads as u64) << 8, threads));
        }
    }

    for (name, seed, threads) in &submitted {
        let doc = wait_for_state(addr, name, "finished", Duration::from_secs(120));
        let baseline = solo(*seed, reps, *threads);
        assert_eq!(
            status_bits(&doc),
            curve_bits(&baseline),
            "{name} (threads={threads}) diverged from its solo baseline"
        );
        assert_eq!(
            doc.get("replications").and_then(Json::as_u64),
            Some(baseline.replications())
        );
    }

    let report = shutdown(server);
    assert_eq!(report.finished, 6);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_server_resumes_every_job_bitwise() {
    let dir = state_dir("kill-restart");
    // Large enough that both jobs are mid-flight (first checkpoint at
    // 1000 replications) when the plug is pulled, small enough to
    // finish promptly after the restart.
    let reps = 100_000u64;

    let server = start_in(&dir, |c| {
        c.workers = 2;
        c.checkpoint_every = 500;
    });
    let addr = server.local_addr();

    for seed in [21u64, 22] {
        let (status, body) =
            request(addr, "POST", "/v1/jobs", &job_body(seed, reps, 2)).expect("submit answered");
        assert_eq!(status, 202, "{body}");
    }

    // Wait until both jobs have flushed at least one checkpoint, then
    // pull the plug: every worker drains at its next chunk boundary.
    let deadline = Instant::now() + Duration::from_secs(60);
    let ckpt = |seq: u64| {
        dir.join("jobs")
            .join(format!("job-{seq:06}"))
            .join("checkpoint.json")
    };
    while !(ckpt(1).exists() && ckpt(2).exists()) {
        assert!(Instant::now() < deadline, "jobs never checkpointed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = shutdown(server);
    assert_eq!(
        report.unfinished, 2,
        "both jobs should have been in flight at the kill"
    );
    assert_eq!(report.outcome().code(), 75);

    // Restart over the same state dir: both jobs are re-enqueued,
    // resume from their namespaced checkpoints, and finish with the
    // exact bits of an uninterrupted solo run.
    let server = start_in(&dir, |c| c.workers = 2);
    let addr = server.local_addr();
    for (seq, seed) in [(1u64, 21u64), (2, 22)] {
        let name = format!("job-{seq:06}");
        let doc = wait_for_state(addr, &name, "finished", Duration::from_secs(180));
        let baseline = solo(seed, reps, 2);
        assert_eq!(
            status_bits(&doc),
            curve_bits(&baseline),
            "{name} resumed non-bitwise"
        );
        let lineage = doc
            .get("resume_lineage")
            .and_then(Json::as_array)
            .expect("status has resume_lineage");
        assert!(
            !lineage.is_empty(),
            "{name} should record the checkpoint it resumed from"
        );
    }
    let report = shutdown(server);
    assert_eq!(report.finished, 2);
    assert_eq!(report.outcome().code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
