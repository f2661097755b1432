//! Safety models of Automated Highway Systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Hamouda, Kaâniche, Kanoun, *Safety modeling and evaluation of
//! Automated Highway Systems*, DSN 2009): a compositional stochastic
//! activity network model of a two-lane AHS running platoons of
//! automated vehicles, from which the system *unsafety*
//! `S(t) = P(catastrophic situation by time t)` is evaluated.
//!
//! The model layers:
//!
//! * the **failure-mode taxonomy** of Table 1 — six failure modes
//!   FM1–FM6 with severities A3 > A2 > A1 > B1 = B2 > C, each recovered
//!   by a dedicated maneuver ([`FailureMode`], [`Severity`],
//!   [`maneuver_priority`]);
//! * the **catastrophic situations** of Table 2 ([`is_catastrophic`]);
//! * the **coordination strategies** of Table 3 — DD, DC, CD, CC — whose
//!   effect is the number of vehicles involved in each recovery maneuver
//!   ([`Strategy`], [`involved_vehicles`]);
//! * the four **SAN submodels** of Figures 5–8 (`One_vehicle`,
//!   `Severity`, `Dynamicity`, `Configuration`) composed per Figure 9
//!   ([`AhsModel`]);
//! * the **evaluator** producing `S(t)` curves by importance-sampled
//!   simulation ([`UnsafetyEvaluator`]), plus an independent
//!   **agent-level simulator** used to cross-validate the SAN model
//!   ([`AgentSimulator`]).
//!
//! # Example
//!
//! ```no_run
//! use ahs_core::{Params, UnsafetyEvaluator};
//! use ahs_stats::TimeGrid;
//!
//! let params = Params::builder().n(8).lambda(1e-4).build()?;
//! let eval = UnsafetyEvaluator::new(params)
//!     .with_seed(1)
//!     .with_replications(20_000);
//! let curve = eval.evaluate(&TimeGrid::linspace(2.0, 10.0, 5))?;
//! for p in curve.points() {
//!     println!("S({:>4.1} h) = {:.3e}", p.x, p.y);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod error;
mod evaluator;
mod failure;
mod measures;
mod model;
mod params;
mod severity;
mod strategy;

pub use agent::AgentSimulator;
pub use ahs_stats::CurvePoint;
pub use error::AhsError;
pub use evaluator::{
    study_checkpoint_path, BiasMode, CompiledModel, UnsafetyCurve, UnsafetyEvaluator,
};
pub use failure::{
    class_of_maneuver, escalation_of, maneuver_for, maneuver_priority, FailureMode, Severity,
    SeverityClass, MANEUVERS,
};
pub use measures::{trip_measures, TripMeasures};
pub use model::{AhsModel, ModelHandles};
pub use params::{ManeuverRates, Params, ParamsBuilder};
pub use severity::{is_catastrophic, CatastrophicSituation, SeverityCount};
pub use strategy::{involved_vehicles, CoordinationModel, Strategy};

pub use ahs_platoon::RecoveryManeuver;
