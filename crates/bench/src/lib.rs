//! Experiment harness regenerating every table and figure of the
//! DSN 2009 AHS safety paper.
//!
//! Each `figNN` function reproduces the corresponding figure's study:
//! the same parameters, the same sweep, and the same output series
//! (trip duration on the x-axis, unsafety `S(t)` on the y-axis, or
//! platoon capacity `n` on the x-axis for the `S(6h)`-versus-`n`
//! figures). [`tables`] regenerates Tables 1–3 from the typed domain
//! model.
//!
//! Absolute values depend on calibration parameters the paper does not
//! publish (maneuver success probabilities — see DESIGN.md §2,
//! substitution 3), so EXPERIMENTS.md compares *shapes*: orderings,
//! growth factors, and crossovers.
//!
//! Binaries: `fig10` … `fig15`, `tables`, `durations`, and `all`
//! (everything, writing CSV files under `results/`).
//!
//! Every study binary also writes a `results/<id>.manifest.json`
//! provenance record — seed, parameters, stopping rule, git revision,
//! throughput, and the estimates themselves (see
//! `docs/observability.md`) — and accepts `--telemetry PATH` /
//! `--progress` for JSON-lines progress events, plus
//! `--checkpoint-dir DIR` / `--checkpoint-every N` for crash-safe
//! checkpoint/resume (an interrupted run exits with code 75 and a
//! rerun resumes bitwise-identically; see `docs/robustness.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;
mod output;
mod runner;

pub use ahs_stats::CurvePoint;
pub use figures::{
    ext_platoons, fig10, fig11, fig12, fig13, fig14, fig15, maneuver_durations, sensitivity, tables,
};
pub use output::{figure_to_csv, figure_to_markdown, run_exit_code, write_manifest, write_results};
pub use runner::{FigureResult, FigureRun, RunConfig, Series};
