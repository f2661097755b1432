//! `ahs` — command-line front end for the AHS safety library.
//!
//! ```text
//! ahs evaluate [--n N] [--lambda L] [--strategy DD|DC|CD|CC]
//!              [--platoons P] [--horizon H] [--points K]
//!              [--reps R | --paper] [--seed S] [--threads T] [--plain]
//!              [--manifest PATH | --no-manifest] [--telemetry PATH] [--progress]
//!              [--checkpoint PATH [--checkpoint-every N]]
//!              [--quarantine-budget B] [--watchdog-events E] [--watchdog-seconds W]
//! ahs check [--n N] [--platoons P] [--strategy S | --all] [--max-states S]
//!           [--capacity C] [--allow PATTERN]... [--no-default-allow]
//!           [--cross-check] [--format text|json] [--report PATH]
//!           [--failpoints SPEC]
//! ahs serve [--addr HOST:PORT] [--state-dir DIR] [--workers W]
//!           [--queue-capacity Q] [--restart-budget R]
//!           [--checkpoint-every N]
//!           [--max-reps R] [--max-threads T] [--quarantine-cap B]
//!           [--max-connections C] [--mem-limit MB] [--cpu-limit SECS]
//!           [--watchdog-events E] [--watchdog-seconds W]
//!           [--failpoints SPEC]
//! ahs durations [--samples N] [--seed S]
//! ahs involved [--n N]
//! ahs dot [--n N] [--platoons P]
//! ahs help
//! ```
//!
//! `evaluate` and `serve` install a SIGINT/SIGTERM handler: the first
//! signal requests a graceful stop, studies drain in-flight chunks,
//! flush a final checkpoint (when checkpointing is configured) and the
//! manifest, and the process exits with code 75 (`EX_TEMPFAIL`,
//! "interrupted but resumable") whenever resumable work remains.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use ahs_safety::core::{
    involved_vehicles, study_checkpoint_path, AhsModel, BiasMode, Params, Strategy,
    UnsafetyEvaluator, MANEUVERS,
};
use ahs_safety::des::Watchdog;
use ahs_safety::obs::{
    interrupt_flag, limit_cpu_seconds, limit_memory_bytes, rlimit_supported, Metrics, ProgressSink,
    RunOutcome,
};
use ahs_safety::platoon::DurationModel;
use ahs_safety::stats::{StoppingRule, TimeGrid};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(&[String]) -> Result<ExitCode, String>;
    let (accepted, run): (&Accepted, Command) = match command.as_str() {
        "evaluate" => (&EVALUATE_FLAGS, cmd_evaluate),
        "check" => (&CHECK_FLAGS, cmd_check),
        "serve" => (&SERVE_FLAGS, cmd_serve),
        // Hidden: the worker mode `ahs serve` re-execs for each job
        // attempt. Not for direct use.
        "serve-worker" => (&SERVE_WORKER_FLAGS, cmd_serve_worker),
        "durations" => (&DURATIONS_FLAGS, |a| {
            cmd_durations(a).map(|()| ExitCode::SUCCESS)
        }),
        "involved" => (&INVOLVED_FLAGS, |a| {
            cmd_involved(a).map(|()| ExitCode::SUCCESS)
        }),
        "dot" => (&DOT_FLAGS, |a| cmd_dot(a).map(|()| ExitCode::SUCCESS)),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = accepted.check(command, rest).and_then(|help| {
        if help {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        } else {
            run(rest)
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ahs — safety evaluation of Automated Highway Systems (DSN 2009 reproduction)

commands:
  evaluate    estimate the unsafety curve S(t) for a configuration
  check       exhaustively model-check a composed SAN (absorption, escalation
              soundness, dead activities, boundedness) with counterexample replay
  serve       run the supervised evaluation service (HTTP job API)
  durations   estimate end-to-end maneuver durations from the kinematic substrate
  involved    show per-strategy maneuver involvement counts
  dot         export the composed SAN model as Graphviz DOT
  help        show this message (so does --help after any command)

evaluate flags:
  --n N           max vehicles per platoon        (default 10)
  --lambda L      base failure rate per hour      (default 1e-5)
  --strategy S    DD | DC | CD | CC               (default DD)
  --platoons P    number of platoons, 2..=8       (default 2)
  --horizon H     longest trip duration in hours  (default 10)
  --points K      number of grid points           (default 5)
  --reps R        fixed replication count         (default: paper rule)
  --paper         the paper's stopping rule (>=10k reps, 95%/0.1 rel.)
  --seed S        master seed                     (default 2009)
  --threads T     worker threads                  (default: all cores)
  --plain         plain Monte Carlo instead of dynamic importance sampling
  --manifest P    where to write the run manifest (default results/ahs-evaluate.manifest.json)
  --no-manifest   skip writing the run manifest
  --telemetry P   append JSON-lines progress events to file P
  --progress      emit JSON-lines progress events to stderr

robustness flags (evaluate):
  --checkpoint P        write crash-safe study checkpoints to P, and resume
                        from P when a checkpoint is already there (bitwise-
                        identical result; falls back to the previous
                        generation when the latest is corrupt; refuses one
                        from another seed or configuration); when P is a
                        directory (or ends with /), the file is namespaced
                        per study as study-<seed>-<params digest>.checkpoint
                        .json, so simultaneous runs never clobber each other
                        (the default manifest moves there too)
  --checkpoint-every N  replications between checkpoints (default 100000)
  --quarantine-budget B tolerate up to B panicking replications (default 0)
  --watchdog-events E   fail any replication exceeding E events
  --watchdog-seconds W  fail any replication exceeding W seconds wall-clock
  --failpoints SPEC     arm deterministic fault injection (builds with the
                        `inject` feature only; also read from AHS_FAILPOINTS;
                        see docs/robustness.md for the failpoint catalog)

check flags:
  --n N             vehicles per platoon             (default 1: exhaustive)
  --platoons P      number of platoons, 2..=8        (default 2)
  --strategy S      DD | DC | CD | CC                (default DD)
  --all             check all four strategies
  --max-states S    exploration state budget         (default 524288)
  --capacity C      boundedness token capacity       (default 64)
  --allow PATTERN   extra allowlisted sink place-name substring
  --no-default-allow  drop the built-in v_KO/KO_total sink allowlist
  --cross-check     also cross-validate states/transitions against ahs-ctmc
  --format F        text (default) or json (ahs-check-report/v1, one per line)
  --report PATH     also write the JSON report(s) to PATH (one per line)
  --failpoints SPEC arm deterministic fault injection (inject builds only)

check exits 0 when every property is proved on every requested model, 1 on
violations, truncation, or a cross-check mismatch; on SIGINT/SIGTERM it
stops and exits with code 75

serve flags:
  --addr A            bind address                       (default 127.0.0.1:2009)
  --state-dir D       persisted job state root           (default results/serve)
  --workers W         concurrent supervised jobs         (default 2)
  --queue-capacity Q  queued jobs before 429 shedding    (default 16)
  --restart-budget R  restarts per job before failure    (default 2)
  --checkpoint-every N   replications between job checkpoints (default 10000)
  --max-reps R        admission cap on reps per job      (default 2000000)
  --max-threads T     admission clamp on threads per job (default: all cores)
  --quarantine-cap B  admission cap on quarantine budget (default 1000)
  --max-connections C concurrent connection handlers; beyond C connections
                      are shed with a 503                (default 64)
  --mem-limit MB      RLIMIT_AS budget each worker process applies to
                      itself (rlimit platforms only)
  --cpu-limit SECS    RLIMIT_CPU budget each worker process applies to
                      itself (rlimit platforms only)
  --watchdog-events E, --watchdog-seconds W
                      watchdog applied to every job (server policy)
  --failpoints SPEC   arm deterministic fault injection (inject builds only)

serve runs each job attempt in a re-execed `ahs serve-worker` process, so
crashes and resource-limit kills stay contained; it exposes
POST/GET /v1/jobs, GET /v1/jobs/{id}[/manifest], and GET /v1/healthz
(schemas in tests/serve-api.schema.json, API guide in docs/serving.md); on
SIGINT/SIGTERM it drains in-flight jobs at chunk boundaries and exits 75
while any accepted job is unfinished — a restart over the same --state-dir
resumes every one of them bitwise

on SIGINT/SIGTERM, evaluate stops gracefully, flushes the checkpoint and
manifest, and exits with code 75 (resumable)";

/// The flags one subcommand takes: `--key value` flags and bare
/// switches. Anything else on its command line is an error, so a typo
/// can never run a default study in place of the one asked for.
struct Accepted {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

impl Accepted {
    /// Checks `args` of `command` against the declared flags: `Ok(true)`
    /// when they ask for help (`--help`/`-h`), an error naming the first
    /// argument the subcommand does not take.
    fn check(&self, command: &str, args: &[String]) -> Result<bool, String> {
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(true);
            } else if self.values.contains(&arg) {
                args.next();
            } else if !self.switches.contains(&arg) {
                let kind = if arg.starts_with('-') {
                    "flag"
                } else {
                    "argument"
                };
                return Err(format!(
                    "unknown {kind} `{arg}` for `ahs {command}` (see `ahs help`)"
                ));
            }
        }
        Ok(false)
    }
}

/// Pulls `--key value` pairs and bare flags out of `args`.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args }
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Result<Option<&'a str>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("flag {flag} expects a value")),
            },
        }
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(flag)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid value `{v}` for {flag}: {e}")),
        }
    }

    /// Every occurrence of a repeatable `--key value` flag, in order.
    fn values(&self, flag: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for (i, a) in self.args.iter().enumerate() {
            if a == flag {
                match self.args.get(i + 1) {
                    Some(v) => out.push(v.clone()),
                    None => return Err(format!("flag {flag} expects a value")),
                }
            }
        }
        Ok(out)
    }
}

/// Parses `--watchdog-events` / `--watchdog-seconds` into an armed
/// watchdog, or `None` when neither flag is present.
fn parse_watchdog(f: &Flags<'_>) -> Result<Option<Watchdog>, String> {
    let mut watchdog = Watchdog::new();
    if let Some(e) = f.value("--watchdog-events")? {
        let e: u64 = e
            .parse()
            .map_err(|err| format!("invalid value `{e}` for --watchdog-events: {err}"))?;
        if e == 0 {
            return Err("--watchdog-events must be positive".into());
        }
        watchdog = watchdog.with_max_events(e);
    }
    if let Some(w) = f.value("--watchdog-seconds")? {
        let w: f64 = w
            .parse()
            .map_err(|err| format!("invalid value `{w}` for --watchdog-seconds: {err}"))?;
        if !(w.is_finite() && w > 0.0) {
            return Err("--watchdog-seconds must be positive and finite".into());
        }
        watchdog = watchdog.with_max_wall_seconds(w);
    }
    Ok(watchdog.is_armed().then_some(watchdog))
}

/// Parses an optional positive-integer flag (rejecting zero).
fn parse_positive(f: &Flags<'_>, flag: &str) -> Result<Option<u64>, String> {
    match f.value(flag)? {
        None => Ok(None),
        Some(v) => {
            let n: u64 = v
                .parse()
                .map_err(|e| format!("invalid value `{v}` for {flag}: {e}"))?;
            if n == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(Some(n))
        }
    }
}

fn parse_params(f: &Flags<'_>) -> Result<Params, String> {
    let strategy = match f.value("--strategy")?.unwrap_or("DD") {
        "DD" | "dd" => Strategy::Dd,
        "DC" | "dc" => Strategy::Dc,
        "CD" | "cd" => Strategy::Cd,
        "CC" | "cc" => Strategy::Cc,
        other => return Err(format!("unknown strategy `{other}` (use DD/DC/CD/CC)")),
    };
    Params::builder()
        .n(f.parse("--n", 10usize)?)
        .lambda(f.parse("--lambda", 1e-5)?)
        .platoons(f.parse("--platoons", 2usize)?)
        .strategy(strategy)
        .build()
        .map_err(|e| e.to_string())
}

/// Arms fault injection from `--failpoints` / `AHS_FAILPOINTS`. The
/// flag wins over the environment; on a build without the `inject`
/// feature a non-empty spec is a loud error, never a silent no-op.
fn configure_failpoints(f: &Flags<'_>) -> Result<(), String> {
    match f.value("--failpoints")? {
        Some(spec) => {
            ahs_inject::configure_from_spec(spec).map_err(|e| format!("--failpoints: {e}"))
        }
        None => ahs_inject::configure_from_env()
            .map(|_| ())
            .map_err(|e| format!("{}: {e}", ahs_inject::ENV_VAR)),
    }
}

const EVALUATE_FLAGS: Accepted = Accepted {
    values: &[
        "--n",
        "--lambda",
        "--strategy",
        "--platoons",
        "--horizon",
        "--points",
        "--reps",
        "--seed",
        "--threads",
        "--manifest",
        "--telemetry",
        "--checkpoint",
        "--checkpoint-every",
        "--quarantine-budget",
        "--watchdog-events",
        "--watchdog-seconds",
        "--failpoints",
    ],
    switches: &["--paper", "--plain", "--no-manifest", "--progress"],
};

fn cmd_evaluate(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::new(args);
    configure_failpoints(&f)?;
    let params = parse_params(&f)?;
    let horizon: f64 = f.parse("--horizon", 10.0)?;
    let points: usize = f.parse("--points", 5usize)?;
    if horizon <= 0.0 || points < 1 {
        return Err("need a positive horizon and at least one grid point".into());
    }
    let grid = if points == 1 {
        TimeGrid::new(vec![horizon])
    } else {
        TimeGrid::linspace(horizon / points as f64, horizon, points)
    };

    let seed: u64 = f.parse("--seed", 2009u64)?;
    let metrics = Arc::new(Metrics::new());
    let mut eval = UnsafetyEvaluator::new(params.clone())
        .with_seed(seed)
        .with_metrics(metrics.clone());
    if f.has("--plain") {
        eval = eval.with_bias(BiasMode::None);
    }
    if let Some(t) = f.value("--threads")? {
        let t: usize = t
            .parse()
            .map_err(|e| format!("invalid value `{t}` for --threads: {e}"))?;
        eval = eval.with_threads(t);
    }
    if let Some(path) = f.value("--telemetry")? {
        let sink = ProgressSink::file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        eval = eval.with_progress(Arc::new(sink));
    } else if f.has("--progress") {
        eval = eval.with_progress(Arc::new(ProgressSink::stderr()));
    }
    eval = eval.with_interrupt(interrupt_flag());
    // `--checkpoint DIR/` (or any existing directory) namespaces the
    // checkpoint per study — seed plus parameter digest — so
    // simultaneous runs sharing one directory can never clobber each
    // other's generations. The default manifest moves into the same
    // directory under the same study name.
    let mut study_dir: Option<PathBuf> = None;
    let mut checkpoint_file: Option<PathBuf> = None;
    if let Some(path) = f.value("--checkpoint")? {
        let every: u64 = f.parse("--checkpoint-every", 100_000u64)?;
        if every == 0 {
            return Err("--checkpoint-every must be positive".into());
        }
        let target = if path.ends_with('/') || Path::new(path).is_dir() {
            let dir = Path::new(path);
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating checkpoint dir {path}: {e}"))?;
            study_dir = Some(dir.to_path_buf());
            study_checkpoint_path(dir, seed, &params)
        } else {
            PathBuf::from(path)
        };
        eval = eval.with_checkpoint(&target, every);
        checkpoint_file = Some(target);
    }
    eval = eval.with_quarantine_budget(f.parse("--quarantine-budget", 0u64)?);
    if let Some(watchdog) = parse_watchdog(&f)? {
        eval = eval.with_watchdog(watchdog);
    }
    eval = if f.has("--paper") {
        eval.with_rule(
            StoppingRule::relative_precision(0.95, 0.1)
                .with_min_samples(10_000)
                .with_max_samples(2_000_000),
        )
    } else {
        eval.with_replications(f.parse("--reps", 20_000u64)?)
    };

    println!(
        "AHS: {} platoons × up to {} vehicles, lambda={:.1e}/hr, strategy {}",
        params.platoons, params.n, params.lambda, params.strategy
    );
    if !f.has("--plain") {
        println!(
            "dynamic importance sampling: x{:.0} healthy / x{:.0} during recovery",
            eval.first_level_boost(grid.horizon()),
            eval.second_level_boost()
        );
    }
    let start = std::time::Instant::now();
    let curve = eval.evaluate(&grid).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    println!("\ntrip (h)     S(t)         95% half-width");
    for p in curve.points() {
        println!("{:>7.2}   {:.4e}    {:.2e}", p.x, p.y, p.half_width);
    }
    println!(
        "\n{} replications, precision target {}",
        curve.replications(),
        if curve.converged() {
            "reached"
        } else {
            "not evaluated (fixed budget)"
        }
    );
    if !curve.resume_lineage().is_empty() {
        println!(
            "resumed from checkpoint watermark(s) {:?}",
            curve.resume_lineage()
        );
    }
    if curve.quarantined() > 0 {
        eprintln!(
            "warning: {} replication(s) panicked and were quarantined",
            curve.quarantined()
        );
    }
    if !f.has("--no-manifest") {
        // In per-study checkpoint mode the default manifest is
        // namespaced alongside the checkpoint, so simultaneous runs
        // write distinct manifests too.
        let study_manifest = match (&study_dir, &checkpoint_file) {
            (Some(dir), Some(cp)) => {
                let name = cp
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
                    .replace(".checkpoint.json", ".manifest.json");
                Some(dir.join(name))
            }
            _ => None,
        };
        let path = match f.value("--manifest")? {
            Some(p) => PathBuf::from(p),
            None => study_manifest
                .unwrap_or_else(|| PathBuf::from("results/ahs-evaluate.manifest.json")),
        };
        let manifest = eval.manifest("ahs evaluate", &curve, wall);
        manifest
            .write(&path)
            .map_err(|e| format!("writing manifest {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if curve.interrupted() {
        eprintln!(
            "interrupted: study stopped after {} replications{}",
            curve.replications(),
            if checkpoint_file.is_some() {
                "; re-run with the same --checkpoint to resume"
            } else {
                " (no --checkpoint configured, progress is lost)"
            }
        );
        return Ok(RunOutcome::Interrupted.exit_code());
    }
    Ok(RunOutcome::Success.exit_code())
}

const SERVE_FLAGS: Accepted = Accepted {
    values: &[
        "--addr",
        "--state-dir",
        "--workers",
        "--queue-capacity",
        "--restart-budget",
        "--checkpoint-every",
        "--max-reps",
        "--max-threads",
        "--quarantine-cap",
        "--max-connections",
        "--mem-limit",
        "--cpu-limit",
        "--watchdog-events",
        "--watchdog-seconds",
        "--failpoints",
    ],
    switches: &[],
};

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    use ahs_safety::serve::{AdmissionPolicy, ServeConfig, Server};

    let f = Flags::new(args);
    configure_failpoints(&f)?;
    // Every job attempt re-execs this binary as `ahs serve-worker`.
    let worker_exe =
        std::env::current_exe().map_err(|e| format!("resolving the worker binary: {e}"))?;
    let mut config = ServeConfig::new(
        f.value("--state-dir")?.unwrap_or("results/serve"),
        worker_exe,
    );
    if let Some(addr) = f.value("--addr")? {
        config.addr = addr.to_owned();
    }
    config.workers = f.parse("--workers", config.workers)?;
    if config.workers == 0 {
        return Err("--workers must be positive".into());
    }
    config.queue_capacity = f.parse("--queue-capacity", config.queue_capacity)?;
    config.restart_budget = f.parse("--restart-budget", config.restart_budget)?;
    config.checkpoint_every = f.parse("--checkpoint-every", config.checkpoint_every)?;
    if config.checkpoint_every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }

    let mut policy = AdmissionPolicy::default();
    policy.max_replications = f.parse("--max-reps", policy.max_replications)?;
    if policy.max_replications == 0 {
        return Err("--max-reps must be positive".into());
    }
    policy.max_threads = f.parse("--max-threads", policy.max_threads)?;
    if policy.max_threads == 0 {
        return Err("--max-threads must be positive".into());
    }
    policy.quarantine_cap = f.parse("--quarantine-cap", policy.quarantine_cap)?;
    policy.watchdog = parse_watchdog(&f)?;
    config.policy = policy;

    config.max_connections = f.parse("--max-connections", config.max_connections)?;
    if config.max_connections == 0 {
        return Err("--max-connections must be positive".into());
    }
    if !rlimit_supported() && (f.has("--mem-limit") || f.has("--cpu-limit")) {
        return Err("--mem-limit/--cpu-limit are not supported on this platform".into());
    }
    config.isolation.mem_limit_mb = parse_positive(&f, "--mem-limit")?;
    config.isolation.cpu_limit_secs = parse_positive(&f, "--cpu-limit")?;

    let state_dir = config.state_dir.clone();
    let (workers, queue_capacity) = (config.workers, config.queue_capacity);
    let server =
        Server::start(config, interrupt_flag()).map_err(|e| format!("starting server: {e}"))?;
    // The CI smoke job parses this line to discover the bound port.
    println!("ahs-serve listening on http://{}", server.local_addr());
    println!(
        "state dir {}; {workers} worker(s); queue capacity {queue_capacity}; \
         process isolation; stop with SIGINT/SIGTERM (drains, exit 75 \
         while jobs are resumable)",
        state_dir.display()
    );
    let report = server.join();
    eprintln!(
        "drained: {} finished, {} failed, {} unfinished{}",
        report.finished,
        report.failed,
        report.unfinished,
        if report.unfinished > 0 {
            " (restart over the same --state-dir to resume them)"
        } else {
            ""
        }
    );
    Ok(report.outcome().exit_code())
}

/// The hidden worker mode: applies the resource budgets to this
/// process, runs one job attempt from its state directory, and exits
/// 0 (finished), 75 (drained on SIGTERM), or 1 (typed failure); the
/// supervising `ahs serve` parent maps anything else — signals, rlimit
/// kills, aborts — to a restart from the latest good checkpoint
/// generation.
const SERVE_WORKER_FLAGS: Accepted = Accepted {
    values: &[
        "--job-dir",
        "--checkpoint-every",
        "--heartbeat-ms",
        "--mem-limit",
        "--cpu-limit",
        "--watchdog-events",
        "--watchdog-seconds",
        "--expect-spec",
        "--failpoints",
    ],
    switches: &[],
};

fn cmd_serve_worker(args: &[String]) -> Result<ExitCode, String> {
    use ahs_safety::serve::{run_worker, WorkerOptions};

    let f = Flags::new(args);
    // Failpoints arm from AHS_FAILPOINTS, which the supervisor's
    // environment passes straight through — so a chaos sweep reaches
    // inside worker processes too.
    configure_failpoints(&f)?;
    // The supervisor always passes the job directory, its checkpoint
    // interval and its heartbeat cadence; the one default of each
    // lives in the server's configuration.
    let required =
        |flag: &str| format!("serve-worker requires {flag} (internal mode; use `ahs serve`)");
    let job_dir = f.value("--job-dir")?.ok_or_else(|| required("--job-dir"))?;
    let checkpoint_every =
        parse_positive(&f, "--checkpoint-every")?.ok_or_else(|| required("--checkpoint-every"))?;
    let heartbeat_ms = f
        .value("--heartbeat-ms")?
        .ok_or_else(|| required("--heartbeat-ms"))?;
    let heartbeat_ms: u64 = heartbeat_ms
        .parse()
        .map_err(|e| format!("invalid value `{heartbeat_ms}` for --heartbeat-ms: {e}"))?;
    // Self-applied budgets, before the attempt parses or compiles
    // anything, so a runaway allocation or CPU spin dies inside this
    // process, never in the server. Failure to apply one is a warning:
    // the attempt still runs supervised, just unbounded.
    if let Some(mb) = parse_positive(&f, "--mem-limit")? {
        if let Err(e) = limit_memory_bytes(mb.saturating_mul(1024 * 1024)) {
            eprintln!("serve-worker: warning: could not apply --mem-limit: {e}");
        }
    }
    if let Some(secs) = parse_positive(&f, "--cpu-limit")? {
        if let Err(e) = limit_cpu_seconds(secs) {
            eprintln!("serve-worker: warning: could not apply --cpu-limit: {e}");
        }
    }
    let expect_spec = match f.value("--expect-spec")? {
        None => None,
        Some(hex) => Some(
            u64::from_str_radix(hex, 16)
                .map_err(|e| format!("invalid value `{hex}` for --expect-spec: {e}"))?,
        ),
    };
    let options = WorkerOptions {
        job_dir: PathBuf::from(job_dir),
        checkpoint_every,
        heartbeat_interval: std::time::Duration::from_millis(heartbeat_ms),
        watchdog: parse_watchdog(&f)?,
        expect_spec,
    };
    // SIGTERM from the supervisor flips this flag; the attempt drains
    // at the next chunk boundary with a flushed checkpoint.
    Ok(ExitCode::from(run_worker(&options, &interrupt_flag())))
}

const CHECK_FLAGS: Accepted = Accepted {
    values: &[
        "--n",
        "--platoons",
        "--strategy",
        "--max-states",
        "--capacity",
        "--allow",
        "--format",
        "--report",
        "--failpoints",
    ],
    switches: &["--all", "--no-default-allow", "--cross-check"],
};

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    use ahs_safety::check::{
        cross_validate, render_text, report_json, CheckConfig, CheckError, Checker,
    };

    let f = Flags::new(args);
    configure_failpoints(&f)?;
    let n: usize = f.parse("--n", 1usize)?;
    let platoons: usize = f.parse("--platoons", 2usize)?;
    let strategies: Vec<Strategy> = if f.has("--all") {
        Strategy::ALL.to_vec()
    } else {
        match f.value("--strategy")?.unwrap_or("DD") {
            "DD" | "dd" => vec![Strategy::Dd],
            "DC" | "dc" => vec![Strategy::Dc],
            "CD" | "cd" => vec![Strategy::Cd],
            "CC" | "cc" => vec![Strategy::Cc],
            other => return Err(format!("unknown strategy `{other}` (use DD/DC/CD/CC)")),
        }
    };
    let json_format = match f.value("--format")?.unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown format `{other}` (use text or json)")),
    };
    let mut allowlist = f.values("--allow")?;
    if !f.has("--no-default-allow") {
        allowlist.push("v_KO".to_owned());
        allowlist.push("KO_total".to_owned());
    }
    let config = CheckConfig {
        max_states: f.parse("--max-states", 1usize << 19)?,
        capacity: f.parse("--capacity", 64u64)?,
        absorbing_allowlist: allowlist,
    };
    let checker = Checker::with_config(config.clone());
    let interrupt = interrupt_flag();

    let mut all_proved = true;
    let mut report_lines = Vec::new();
    for strategy in strategies {
        let params = Params::builder()
            .n(n)
            .platoons(platoons)
            .strategy(strategy)
            .build()
            .map_err(|e| e.to_string())?;
        let (san, _) = AhsModel::build(&params)
            .map_err(|e| e.to_string())?
            .into_san();
        let mut outcome = match checker.check_interruptible(&san, Some(interrupt.as_ref())) {
            Ok(outcome) => outcome,
            Err(CheckError::Interrupted { states }) => {
                eprintln!(
                    "interrupted while exploring `{}` after {states} states; nothing proved",
                    strategy.name()
                );
                return Ok(RunOutcome::Interrupted.exit_code());
            }
            Err(e) => return Err(e.to_string()),
        };
        // All four strategies build a SAN named "ahs"; label each
        // report with its CLI key so `--all` output stays tellable
        // apart.
        outcome.model = strategy.name().to_ascii_lowercase();
        let cross = if f.has("--cross-check") {
            Some(
                cross_validate(&san, &outcome.graph, config.max_states)
                    .map_err(|e| format!("cross-check `{}`: {e}", outcome.model))?,
            )
        } else {
            None
        };
        all_proved &= outcome.proved() && cross.as_ref().is_none_or(|c| c.matches());
        let json = report_json(&outcome, &config, cross.as_ref()).render();
        if json_format {
            println!("{json}");
        } else {
            print!("{}", render_text(&outcome, &config, cross.as_ref()));
        }
        report_lines.push(json);
    }
    if let Some(path) = f.value("--report")? {
        let mut text = report_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("writing report {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if all_proved {
        RunOutcome::Success.exit_code()
    } else {
        RunOutcome::Failure.exit_code()
    })
}

const DURATIONS_FLAGS: Accepted = Accepted {
    values: &["--samples", "--seed"],
    switches: &[],
};

fn cmd_durations(args: &[String]) -> Result<(), String> {
    let f = Flags::new(args);
    let samples: u32 = f.parse("--samples", 400u32)?;
    let seed: u64 = f.parse("--seed", 42u64)?;
    let model = DurationModel::default();
    println!("maneuver   mean (s)   std (s)   rate (/hr)");
    for (m, stats) in model.estimate_all(samples, seed) {
        println!(
            "{:<8} {:>9.1} {:>9.1} {:>11.1}",
            m.abbreviation(),
            stats.mean_seconds,
            stats.std_seconds,
            stats.rate_per_hour()
        );
    }
    Ok(())
}

const INVOLVED_FLAGS: Accepted = Accepted {
    values: &["--n"],
    switches: &[],
};

fn cmd_involved(args: &[String]) -> Result<(), String> {
    let f = Flags::new(args);
    let n: usize = f.parse("--n", 10usize)?;
    println!("vehicles involved per maneuver (platoons of {n} + {n}):\n");
    print!("{:<8}", "");
    for s in Strategy::ALL {
        print!("{:>6}", s.name());
    }
    println!();
    for m in MANEUVERS {
        print!("{:<8}", m.abbreviation());
        for s in Strategy::ALL {
            print!("{:>6}", involved_vehicles(m, s, n, n));
        }
        println!();
    }
    Ok(())
}

const DOT_FLAGS: Accepted = Accepted {
    values: &["--n", "--lambda", "--strategy", "--platoons"],
    switches: &[],
};

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let f = Flags::new(args);
    let params = parse_params(&f)?;
    let model = AhsModel::build(&params).map_err(|e| e.to_string())?;
    print!("{}", model.san().to_dot());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn flags_parse_values_and_switches() {
        let a = args(&["--n", "6", "--paper", "--lambda", "2e-4"]);
        let f = Flags::new(&a);
        assert!(f.has("--paper"));
        assert!(!f.has("--plain"));
        assert_eq!(f.parse("--n", 10usize).unwrap(), 6);
        assert_eq!(f.parse("--lambda", 1e-5).unwrap(), 2e-4);
        assert_eq!(f.parse("--seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn unknown_flags_are_named_and_help_is_recognised() {
        let check = |a: &[&str]| EVALUATE_FLAGS.check("evaluate", &args(a));
        assert_eq!(check(&["--n", "4", "--plain"]), Ok(false));
        let err = check(&["--rep", "5"]).unwrap_err();
        assert!(
            err.contains("`--rep`") && err.contains("ahs evaluate"),
            "{err}"
        );
        assert!(check(&["stray"]).unwrap_err().contains("argument `stray`"));
        assert_eq!(check(&["--reps", "5", "--help"]), Ok(true));
        assert_eq!(check(&["-h", "--bogus"]), Ok(true));
        // A flag's value is never read as a flag.
        assert_eq!(check(&["--manifest", "--help"]), Ok(false));
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = args(&["--n"]);
        let f = Flags::new(&a);
        assert!(f.value("--n").is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = args(&["--n", "many"]);
        let f = Flags::new(&a);
        assert!(f.parse("--n", 1usize).is_err());
    }

    #[test]
    fn strategies_parse_case_insensitively() {
        for (txt, expect) in [
            ("DD", Strategy::Dd),
            ("dc", Strategy::Dc),
            ("CD", Strategy::Cd),
            ("cc", Strategy::Cc),
        ] {
            let a = args(&["--strategy", txt]);
            let p = parse_params(&Flags::new(&a)).unwrap();
            assert_eq!(p.strategy, expect);
        }
        let a = args(&["--strategy", "XY"]);
        assert!(parse_params(&Flags::new(&a)).is_err());
    }

    #[test]
    fn invalid_params_surface_as_errors() {
        let a = args(&["--platoons", "1"]);
        assert!(parse_params(&Flags::new(&a)).is_err());
        let a = args(&["--lambda", "-1"]);
        assert!(parse_params(&Flags::new(&a)).is_err());
    }
}
