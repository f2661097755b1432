//! # AHS Safety — safety modeling and evaluation of Automated Highway Systems
//!
//! A from-scratch Rust reproduction of Hamouda, Kaâniche & Kanoun,
//! *Safety modeling and evaluation of Automated Highway Systems*
//! (DSN 2009): compositional stochastic-activity-network models of
//! platoon-based automated highways, evaluated by (rare-event)
//! simulation and validated against exact CTMC solutions and an
//! independent agent-level simulator.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! | Module | Crate | What it provides |
//! |---|---|---|
//! | [`san`] | `ahs-san` | the SAN formalism: places, activities, gates, Rep/Join composition |
//! | [`des`] | `ahs-des` | SSA simulation engine, importance sampling, parallel replication studies |
//! | [`stats`] | `ahs-stats` | estimators, confidence intervals, stopping rules, curves |
//! | [`ctmc`] | `ahs-ctmc` | state-space exploration and uniformization solvers |
//! | [`platoon`] | `ahs-platoon` | kinematic platoon substrate and maneuver-duration models |
//! | [`core`] | `ahs-core` | the paper's models: failure modes, maneuvers, strategies, `S(t)` |
//! | [`obs`] | `ahs-obs` | telemetry: metrics sinks, run manifests, JSON-lines progress |
//! | [`inject`] | `ahs-inject` | deterministic failpoints for chaos/robustness testing |
//! | [`check`] | `ahs-check` | exhaustive model checking: absorption, escalation soundness, boundedness, counterexample replay |
//! | [`serve`] | `ahs-serve` | supervised evaluation service: HTTP job API, admission control, graceful drain |
//!
//! # Quickstart
//!
//! Evaluate the unsafety of a 2×8-vehicle AHS over a 2–10 hour trip:
//!
//! ```no_run
//! use ahs_safety::core::{Params, UnsafetyEvaluator};
//! use ahs_safety::stats::TimeGrid;
//!
//! let params = Params::builder().n(8).lambda(1e-5).build()?;
//! let curve = UnsafetyEvaluator::new(params)
//!     .with_seed(42)
//!     .evaluate(&TimeGrid::linspace(2.0, 10.0, 5))?;
//! for p in curve.points() {
//!     println!("S({:>4.1} h) = {:.3e} ± {:.1e}", p.x, p.y, p.half_width);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the
//! `ahs-bench` crate for the full reproduction of every table and
//! figure in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ahs_check as check;
pub use ahs_core as core;
pub use ahs_ctmc as ctmc;
pub use ahs_des as des;
pub use ahs_inject as inject;
pub use ahs_obs as obs;
pub use ahs_platoon as platoon;
pub use ahs_san as san;
pub use ahs_serve as serve;
pub use ahs_stats as stats;
