//! End-to-end tests of the `ahs` command-line binary.

use std::process::Command;

fn ahs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ahs"))
}

#[test]
fn help_lists_commands() {
    let out = ahs().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in ["evaluate", "check", "serve", "durations", "involved", "dot"] {
        assert!(text.contains(cmd), "help should mention `{cmd}`");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = ahs().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn involved_prints_the_strategy_matrix() {
    let out = ahs()
        .args(["involved", "--n", "6"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for token in ["DD", "DC", "CD", "CC", "TIE-E", "AS"] {
        assert!(text.contains(token), "missing `{token}` in:\n{text}");
    }
}

#[test]
fn dot_exports_graphviz() {
    let out = ahs()
        .args(["dot", "--n", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("digraph"));
    assert!(text.contains("vehicle[0].present"));
    assert!(text.contains("KO_total"));
}

/// Runs a small `ahs evaluate` study writing its manifest to `path`,
/// returning stdout.
fn evaluate_small(manifest_path: &std::path::Path, seed: &str, threads: &str) -> String {
    let out = ahs()
        .args([
            "evaluate",
            "--n",
            "2",
            "--lambda",
            "5e-3",
            "--reps",
            "500",
            "--points",
            "2",
            "--horizon",
            "4",
            "--seed",
            seed,
            "--threads",
            threads,
            "--manifest",
            manifest_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn evaluate_runs_a_small_study() {
    let dir = std::env::temp_dir().join("ahs_cli_eval_test");
    let manifest = dir.join("run.manifest.json");
    let text = evaluate_small(&manifest, "3", "2");
    assert!(text.contains("S(t)"));
    assert!(text.contains("replications"));
    assert!(manifest.is_file(), "manifest must be written");
    std::fs::remove_dir_all(&dir).ok();
}

/// The top-level keys the named schema in `tests/` marks required.
fn schema_required_keys(file: &str) -> Vec<String> {
    let schema = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join(file),
    )
    .expect("schema file exists");
    let start = schema
        .find("\"required\": [")
        .expect("schema has required list");
    let block = &schema[start..start + schema[start..].find(']').expect("list closes")];
    block
        .match_indices('"')
        .collect::<Vec<_>>()
        .chunks(2)
        .skip(1) // the "required" token itself
        .filter_map(|pair| match pair {
            [(a, _), (b, _)] => Some(schema[start + a + 1..start + *b].to_owned()),
            _ => None,
        })
        .collect()
}

#[test]
fn evaluate_manifest_matches_schema() {
    let dir = std::env::temp_dir().join("ahs_cli_manifest_schema_test");
    let manifest_path = dir.join("run.manifest.json");
    evaluate_small(&manifest_path, "5", "1");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest written");

    let required = schema_required_keys("run-manifest.schema.json");
    assert!(
        required.len() >= 14,
        "schema should list the manifest's required keys, got {required:?}"
    );
    for key in &required {
        assert!(
            manifest.contains(&format!("\"{key}\":")),
            "manifest is missing required key `{key}`:\n{manifest}"
        );
    }
    // Spot checks on the values behind the provenance-critical keys.
    assert!(manifest.contains("\"schema\":\"ahs-run-manifest/v1\""));
    assert!(manifest.contains("\"seed\":5"));
    assert!(manifest.contains("\"threads\":1"));
    assert!(manifest.contains("\"lambda\":0.005"));
    assert!(manifest.contains("\"series\":\"unsafety\""));
    assert!(!manifest.contains("\"git_revision\":\"\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_reproduces_from_manifest_seed_and_threads() {
    // The acceptance contract of the manifest: re-running with its seed
    // and thread count reproduces the estimates bit for bit — even at a
    // different thread count, since fixed-budget studies are
    // thread-count invariant.
    let dir = std::env::temp_dir().join("ahs_cli_manifest_repro_test");
    let first = dir.join("first.manifest.json");
    let second = dir.join("second.manifest.json");
    let third = dir.join("third.manifest.json");
    evaluate_small(&first, "9", "1");
    evaluate_small(&second, "9", "1");
    evaluate_small(&third, "9", "4");

    let estimates = |p: &std::path::Path| {
        let text = std::fs::read_to_string(p).expect("manifest written");
        let start = text.find("\"estimates\":").expect("has estimates");
        let end = text[start..].find(']').expect("estimates close");
        text[start..start + end].to_owned()
    };
    assert_eq!(estimates(&first), estimates(&second), "same seed, same run");
    assert_eq!(
        estimates(&first),
        estimates(&third),
        "fixed budgets are thread-count invariant"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_proves_all_paper_models_and_cross_validates() {
    let out = ahs()
        .args(["check", "--all", "--cross-check", "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "check must prove every strategy clean; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 4, "one report per strategy:\n{text}");
    for (line, name) in lines.iter().zip(["dd", "dc", "cd", "cc"]) {
        assert!(line.contains(&format!("\"model\":\"{name}\"")), "{line}");
        assert!(line.contains("\"proved\":true"), "{line}");
        assert!(line.contains("\"complete\":true"), "{line}");
        assert!(line.contains("\"states\":209"), "{line}");
        assert!(line.contains("\"state_sets_match\":true"), "{line}");
        assert!(line.contains("\"transitions_match\":true"), "{line}");
    }
}

#[test]
fn check_report_matches_schema() {
    let dir = std::env::temp_dir().join("ahs_cli_check_schema_test");
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("check.report.json");
    let out = ahs()
        .args([
            "check",
            "--strategy",
            "DD",
            "--report",
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&report_path).expect("report written");

    let required = schema_required_keys("check-report.schema.json");
    assert!(
        required.len() >= 14,
        "schema should list the report's required keys, got {required:?}"
    );
    for key in &required {
        assert!(
            report.contains(&format!("\"{key}\":")),
            "report is missing required key `{key}`:\n{report}"
        );
    }
    assert!(report.contains("\"schema\":\"ahs-check-report/v1\""));
    assert!(report.contains("\"cross_check\":null"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_exits_nonzero_when_nothing_is_proved() {
    // A state budget too small to finish exploration: the run reports
    // inconclusive properties and must not exit 0.
    let out = ahs()
        .args(["check", "--strategy", "DD", "--max-states", "50"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("TRUNCATED"), "{text}");
}

#[test]
fn checkpoint_directory_namespaces_per_study() {
    // `--checkpoint DIR/` derives a per-study file from the seed and a
    // parameter digest, so two runs sharing the directory never
    // clobber each other — and their default manifests are namespaced
    // alongside.
    let dir = std::env::temp_dir().join("ahs_cli_ckpt_dir_test");
    std::fs::remove_dir_all(&dir).ok();
    let ckpt_dir = format!("{}/", dir.display());
    for seed in ["11", "12"] {
        let out = ahs()
            .args([
                "evaluate",
                "--n",
                "2",
                "--lambda",
                "5e-3",
                "--reps",
                "500",
                "--points",
                "2",
                "--horizon",
                "4",
                "--seed",
                seed,
                "--checkpoint",
                &ckpt_dir,
                "--checkpoint-every",
                "100",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir created")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let checkpoints: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("study-") && n.ends_with(".checkpoint.json"))
        .collect();
    let manifests: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("study-") && n.ends_with(".manifest.json"))
        .collect();
    assert_eq!(
        checkpoints.len(),
        2,
        "two seeds, two distinct checkpoint files: {names:?}"
    );
    assert_eq!(
        manifests.len(),
        2,
        "two seeds, two distinct namespaced manifests: {names:?}"
    );
    assert!(
        checkpoints.iter().any(|n| n.contains("000000000000000b")),
        "file name must embed the seed: {checkpoints:?}"
    );

    // Re-running with the same `--checkpoint DIR/` finds the same
    // per-study file (a completed checkpoint resumes to an identical,
    // already-final study).
    let out = ahs()
        .args([
            "evaluate",
            "--n",
            "2",
            "--lambda",
            "5e-3",
            "--reps",
            "500",
            "--points",
            "2",
            "--horizon",
            "4",
            "--seed",
            "11",
            "--checkpoint",
            &ckpt_dir,
            "--checkpoint-every",
            "100",
            "--no-manifest",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("resumed from checkpoint watermark"),
        "resume-from-directory must pick up the study file:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs a small checkpointed `ahs evaluate` over `checkpoint` with
/// `seed`, writing its manifest to `manifest`.
fn evaluate_checkpointed(
    checkpoint: &std::path::Path,
    manifest: &std::path::Path,
    seed: &str,
) -> std::process::Output {
    ahs()
        .args([
            "evaluate",
            "--n",
            "2",
            "--lambda",
            "5e-3",
            "--reps",
            "500",
            "--points",
            "2",
            "--horizon",
            "4",
            "--seed",
            seed,
            "--checkpoint-every",
            "100",
        ])
        .arg("--checkpoint")
        .arg(checkpoint)
        .arg("--manifest")
        .arg(manifest)
        .output()
        .expect("binary runs")
}

#[test]
fn checkpoint_file_resumes_and_refuses_another_study() {
    // `--checkpoint FILE` resumes whenever FILE already holds a
    // checkpoint; one taken with another seed is refused, not
    // overwritten.
    let dir = std::env::temp_dir().join(format!("ahs_cli_ckpt_file_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("run.ckpt.json");
    let estimates = |p: &std::path::Path| {
        let text = std::fs::read_to_string(p).expect("manifest written");
        let start = text.find("\"estimates\":").expect("has estimates");
        let end = text[start..].find(']').expect("estimates close");
        text[start..start + end].to_owned()
    };

    let first = evaluate_checkpointed(&checkpoint, &dir.join("first.json"), "11");
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = evaluate_checkpointed(&checkpoint, &dir.join("second.json"), "11");
    assert!(
        second.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    let text = String::from_utf8(second.stdout).unwrap();
    assert!(
        text.contains("resumed from checkpoint watermark"),
        "the second run must resume:\n{text}"
    );
    assert_eq!(
        estimates(&dir.join("first.json")),
        estimates(&dir.join("second.json")),
        "a resumed run reproduces the estimates byte for byte"
    );

    let before = std::fs::read(&checkpoint).unwrap();
    let other = evaluate_checkpointed(&checkpoint, &dir.join("other.json"), "12");
    assert_eq!(other.status.code(), Some(1));
    let err = String::from_utf8(other.stderr).unwrap();
    assert!(err.contains("master seed mismatch"), "{err}");
    assert_eq!(
        std::fs::read(&checkpoint).unwrap(),
        before,
        "a refused checkpoint keeps its bytes"
    );
    assert!(
        !dir.join("other.json").exists(),
        "no manifest for a refused run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fallback_warning_tells_a_missing_latest_checkpoint_from_a_corrupt_one() {
    // A crash between the rotation rename and the new write leaves
    // only the older generation: the resume says generation 0 is
    // missing, not that it is corrupt. A damaged one is corrupt.
    let dir = std::env::temp_dir().join(format!("ahs_cli_ckpt_missing_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("run.ckpt.json");
    let first = evaluate_checkpointed(&checkpoint, &dir.join("first.json"), "11");
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(
        dir.join("run.ckpt.1.json").exists(),
        "an older generation is kept"
    );
    std::fs::remove_file(&checkpoint).unwrap();

    let second = evaluate_checkpointed(&checkpoint, &dir.join("second.json"), "11");
    let err = String::from_utf8_lossy(&second.stderr);
    assert!(second.status.success(), "stderr: {err}");
    assert!(
        err.contains("was missing (an interrupted rotation); resuming from retained generation 1"),
        "{err}"
    );
    assert!(!err.contains("corrupt"), "{err}");

    std::fs::write(&checkpoint, b"{ not a checkpoint").unwrap();
    let third = evaluate_checkpointed(&checkpoint, &dir.join("third.json"), "11");
    let err = String::from_utf8_lossy(&third.stderr);
    assert!(third.status.success(), "stderr: {err}");
    assert!(err.contains("was corrupt or unreadable;"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_starts_lists_health_and_drains_clean() {
    // Smoke the service end to end over real HTTP: bind an ephemeral
    // port, check /v1/healthz, submit nothing, SIGTERM-equivalent is
    // covered by the serve crate's own tests — here the CLI contract
    // is the parseable listening line and a clean exit-0 drain.
    use std::io::{Read, Write};
    let dir = std::env::temp_dir().join("ahs_cli_serve_test");
    std::fs::remove_dir_all(&dir).ok();
    let mut child = ahs()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = child.stdout.take().unwrap();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read_exact(&mut byte).is_ok() && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let line = String::from_utf8(line).unwrap();
    let addr = line
        .strip_prefix("ahs-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected listening line: {line}"))
        .trim()
        .to_owned();

    let mut stream = std::net::TcpStream::connect(&addr).expect("server accepts");
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.contains("200 OK"), "{response}");
    assert!(
        response.contains("\"schema\":\"ahs-serve-health/v1\""),
        "{response}"
    );
    assert!(response.contains("\"status\":\"ok\""), "{response}");

    // An idle drain exits 0.
    kill_term(child.id());
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "idle drain must exit 0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_worker_requires_the_heartbeat_cadence() {
    // The hidden worker mode takes its heartbeat cadence from the
    // supervisor, like its checkpoint interval: without the flag it
    // refuses to run, before touching the job directory — even one
    // holding a runnable spec.
    let dir = std::env::temp_dir().join(format!("ahs_cli_serve_worker_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let spec = r#"{"seq":1,"n":2,"lambda":5e-3,"horizon":4,"points":2,"reps":100,"seed":1,"threads":1,"plain":true}"#;
    std::fs::write(dir.join("job.json"), spec).unwrap();
    let out = ahs()
        .arg("serve-worker")
        .arg("--job-dir")
        .arg(&dir)
        .args(["--checkpoint-every", "10"])
        .output()
        .expect("binary runs");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--heartbeat-ms") && err.contains("internal mode"),
        "{err}"
    );
    assert_eq!(left, ["job.json"], "a refused worker must write nothing");
}

#[test]
fn serve_rejects_the_removed_isolation_flag() {
    // The platform picks the job runner; a leftover `--isolation` is an
    // unknown flag, an error before anything binds, not silently ignored.
    let dir = std::env::temp_dir().join(format!("ahs_cli_serve_isolation_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = ahs()
        .args(["serve", "--isolation", "thread", "--addr", "127.0.0.1:0"])
        .arg("--state-dir")
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`--isolation`"), "{err}");
    assert!(
        !dir.exists(),
        "a rejected serve must not create its state dir"
    );
}

/// Sends SIGTERM via /bin/kill so the test has no signal-crate
/// dependency.
fn kill_term(pid: u32) {
    let ok = std::process::Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    assert!(ok, "kill -TERM {pid} failed");
}

#[test]
fn evaluate_rejects_bad_strategy() {
    let out = ahs()
        .args(["evaluate", "--strategy", "ZZ"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown strategy"));
}

/// Runs `ahs args` in a fresh empty working directory and returns its
/// output plus whether a `results/` directory appeared there (where
/// `evaluate` and `serve` write by default). A command still running
/// after 60 s is killed, so a flag that wrongly starts a server fails
/// the test instead of hanging it.
fn run_in_empty_cwd(tag: &str, args: &[&str]) -> (std::process::Output, bool) {
    let cwd = std::env::temp_dir().join(format!("ahs_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    let mut child = ahs()
        .current_dir(&cwd)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill().ok();
    let out = child.wait_with_output().unwrap();
    let wrote = cwd.join("results").exists();
    std::fs::remove_dir_all(&cwd).ok();
    (out, wrote)
}

#[test]
fn help_after_a_command_prints_usage_and_runs_nothing() {
    for command in ["evaluate", "check", "serve", "durations", "involved", "dot"] {
        for help in ["--help", "-h"] {
            let (out, wrote) = run_in_empty_cwd("help", &[command, help]);
            assert_eq!(out.status.code(), Some(0), "`{command} {help}`");
            let text = String::from_utf8(out.stdout).unwrap();
            assert!(text.contains("commands:"), "`{command} {help}`:\n{text}");
            assert!(!wrote, "`{command} {help}` must not write results/");
        }
    }
}

#[test]
fn unknown_flags_are_errors_that_run_nothing() {
    for args in [
        &["evaluate", "--rep", "5"][..],
        &["evaluate", "--reps", "5", "--n", "2", "--thread", "2"],
        &["serve", "--addr", "127.0.0.1:0", "--worker", "1"],
        &["check", "--cross", "--format", "json"],
        &["involved", "6"],
    ] {
        let (out, wrote) = run_in_empty_cwd("unknown", args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        let named = args.iter().any(|a| err.contains(&format!("`{a}`")));
        assert!(named, "{args:?} must name the unknown flag:\n{err}");
        assert!(!wrote, "{args:?} must not write results/");
    }
}
