//! `ahs-serve` — a supervised, chaos-hardened evaluation service.
//!
//! The paper's `S(t)` studies (DSN 2009) become long-running jobs
//! here: a zero-dependency HTTP/1.1 server with a bounded job queue
//! and per-job supervision built entirely from the workspace's
//! existing crash-safe primitives. The robustness contract, proven by
//! the workspace's serve tiers (`tests/serve_chaos.rs`,
//! `tests/serve_determinism.rs`, `tests/serve_process.rs`):
//!
//! * **Bitwise determinism under concurrency** — every attempt builds
//!   its own model and replication state from its spec; a job's
//!   estimates are bit-identical to the same study run solo at any
//!   worker count.
//! * **Supervision** — each job's checkpoints are namespaced into its
//!   own directory; a crashed or watchdog-killed attempt restarts
//!   from the latest good generation (`load_with_fallback`) within a
//!   restart budget, and the resumed result is bitwise-identical to a
//!   crash-free run.
//! * **Admission control** — per-job quarantine/watchdog/replication
//!   budgets are policy at the door (400/422), and a full queue sheds
//!   load with an explicit 429 instead of degrading silently.
//! * **Graceful drain** — SIGTERM stops in-flight jobs at chunk
//!   boundaries with flushed checkpoints; the process exits 75 while
//!   any accepted job is unfinished, and a restart over the same
//!   state directory resumes every one of them bitwise.
//! * **One attempt protocol** — every job attempt reads its spec from
//!   `job.json` and answers with a heartbeat, an `outcome.json` and an
//!   exit code (0 / 75 / 1), mapped into one restart policy. Every
//!   attempt runs in a re-execed worker process (`ahs serve-worker`,
//!   configured by [`ProcessIsolation`]) under self-applied
//!   `setrlimit` budgets, heartbeat-supervised, so a SIGKILL, SIGSEGV,
//!   or allocation abort kills one attempt — never another job, never
//!   the server — and restarts from the latest good checkpoint
//!   generation, bitwise.
//! * **Chaos-hardened** — the `serve::*` failpoints (accept,
//!   job-enqueue, worker-spawn/exec/heartbeat/reap, response-write)
//!   each degrade to a typed error, a counted degradation, or a
//!   bitwise-identical resumed job — never a hung connection or a
//!   corrupted result.
//!
//! See `docs/serving.md` for the HTTP API and job lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod job;
mod server;
mod supervisor;
mod worker;

pub use job::{AdmissionPolicy, Job, JobSpec, Phase, SubmitError, JOB_SCHEMA, JOB_SPEC_SCHEMA};
pub use server::{DrainReport, ServeConfig, Server};
pub use supervisor::ProcessIsolation;
pub use worker::{run_worker, WorkerOptions, WORKER_EXIT_DRAINED, WORKER_OUTCOME_SCHEMA};
