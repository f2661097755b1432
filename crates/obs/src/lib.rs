//! Observability for the AHS safety workspace: metrics, run manifests,
//! and progress reporting.
//!
//! The paper's results come from simulation campaigns of at least 10⁴
//! replications per point; this crate records *how* each number was
//! produced so that every figure can be regenerated bit-for-bit and
//! every performance regression is visible. Three pieces:
//!
//! * [`Metrics`] — a thread-safe sink of atomic counters, gauges, and
//!   log-scale histograms (events fired, activities completed by kind,
//!   instantaneous-activity cascades, importance-sampling weight
//!   min/max/ESS, replications per second per worker). Instrumented
//!   code holds an `Option<Arc<Metrics>>`; the `None` default costs
//!   nothing.
//! * [`RunManifest`] — a JSON provenance record written next to every
//!   study or bench result: full parameters, master seed, thread
//!   count, stopping rule, git revision, wall-clock time, throughput,
//!   and the final estimates with confidence half-widths.
//! * [`ProgressSink`] — JSON-lines progress events (to a file via
//!   `--telemetry <path>`, or to stderr via `--progress`) emitted while
//!   a study runs.
//!
//! Robustness plumbing lives here too: [`atomic_write`] makes every
//! artifact crash-safe (temp file + rename + parent-dir fsync),
//! [`write_with_retry`] adds deterministic exponential backoff for
//! transient failures ([`RetryPolicy`]), [`Json::parse`] reads
//! artifacts back (checkpoint resume), and [`interrupt_flag`] installs
//! the SIGINT/SIGTERM handler behind graceful interruption (see
//! `docs/robustness.md`). The IO paths evaluate `obs::*` failpoints
//! from `ahs-inject` — live only under the `inject` feature — so the
//! chaos tier can fail any of these steps deterministically.
//!
//! The crate is intentionally dependency-free: JSON is emitted through
//! the small [`Json`] value tree (the workspace depends on no
//! serialization crate, so all machine-readable output in it is
//! hand-rolled).
//!
//! # Example
//!
//! ```
//! use ahs_obs::{Metrics, MetricsSnapshot};
//! use std::sync::Arc;
//!
//! let metrics = Arc::new(Metrics::new());
//! metrics.add_replications(100);
//! metrics.record_run(12, 3, true);
//! metrics.record_weight(0.5);
//! let snap: MetricsSnapshot = metrics.snapshot();
//! assert_eq!(snap.replications, 100);
//! assert_eq!(snap.timed_completions, 12);
//! assert_eq!(snap.cascades, 1);
//! assert!((snap.weight_min - 0.5).abs() < 1e-12);
//! ```

// `deny` rather than `forbid`: the `interrupt` and `process` modules
// carry the only allowed `unsafe` in the workspace (FFI declarations of
// POSIX `signal(2)`, `setrlimit(2)` and `kill(2)` — no libc crate is
// vendored) behind module-level allows.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod exit;
mod fsio;
mod hash;
mod heartbeat;
mod interrupt;
mod json;
mod manifest;
mod metrics;
mod process;
mod progress;

pub use exit::RunOutcome;
pub use fsio::{atomic_write, dir_sync_failures, retry_io, write_with_retry, RetryPolicy};
pub use hash::fnv1a_64;
pub use heartbeat::{heartbeat_read, heartbeat_write};
pub use interrupt::{interrupt_flag, interrupted, EXIT_INTERRUPTED};
pub use json::{push_json_string, Json, JsonParseError};
pub use manifest::{git_revision, EstimatePoint, RunManifest, StoppingSpec, MANIFEST_SCHEMA};
pub use metrics::{Metrics, MetricsSnapshot, WorkerStats};
pub use process::{limit_cpu_seconds, limit_memory_bytes, rlimit_supported, send_sigterm};
pub use progress::ProgressSink;

/// Serializes the unit tests that share the process-global failpoint
/// registry: those that arm `obs::*` failpoints and those that write
/// through [`atomic_write`], which would otherwise meet a fault another
/// test armed (cargo runs the tests of one binary concurrently).
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}
