//! Stochastic Activity Networks (SANs).
//!
//! This crate is a from-scratch implementation of the SAN formalism of
//! Sanders & Meyer ("Stochastic activity networks: formal definitions and
//! concepts", 2001) as used by the closed-source Möbius tool, which the
//! DSN 2009 AHS safety study relied on. It provides:
//!
//! * **Places** — simple token counters and *extended places* holding
//!   fixed-length integer arrays (Möbius extended places), see
//!   [`PlaceDecl`], [`Marking`];
//! * **Activities** — timed activities with exponential delays
//!   (constant, marking-dependent, or shared among a [`RateGroup`]),
//!   and instantaneous activities with priorities and weights;
//!   both support *case* distributions on completion ([`Activity`],
//!   [`Delay`], [`Case`]);
//! * **Gates** — input gates (enabling predicate + marking function) and
//!   output gates (marking function), see [`SanBuilder::input_gate`];
//! * **Composition** — `Join`/`Rep`-style construction through shared
//!   places and namespaced module builders
//!   ([`SanBuilder::join`], [`SanBuilder::replicate`]), mirroring the
//!   Möbius composed-model tree of the paper's Figure 9;
//! * **Execution semantics** — enabling tests, case selection, firing,
//!   and instantaneous stabilization, both randomized (for simulation)
//!   and exhaustive (for numerical state-space generation), see
//!   [`SanModel`].
//!
//! # Example
//!
//! A two-state failure/repair component:
//!
//! ```
//! use ahs_san::{Delay, SanBuilder};
//!
//! let mut b = SanBuilder::new("component");
//! let up = b.place_with_tokens("up", 1)?;
//! let down = b.place("down")?;
//! b.timed_activity("fail", Delay::exponential(1e-3))?
//!     .input_place(up)
//!     .output_place(down)
//!     .build()?;
//! b.timed_activity("repair", Delay::exponential(0.5))?
//!     .input_place(down)
//!     .output_place(up)
//!     .build()?;
//! let model = b.build()?;
//!
//! let m = model.initial_marking().clone();
//! assert_eq!(m.tokens(up), 1);
//! assert_eq!(model.enabled_timed(&m).len(), 1);
//! # Ok::<(), ahs_san::SanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod analysis;
mod builder;
mod delay;
mod depgraph;
mod enablement;
mod error;
mod gate;
mod marking;
mod model;
mod place;
pub mod trace;

pub use activity::{Activity, ActivityId, Case, CaseProb, Timing};
pub use analysis::StructuralReport;
pub use builder::{ActivityBuilder, SanBuilder};
pub use delay::{Delay, RateFn, RateGroup, RateGroupId};
pub use depgraph::DependencyGraph;
pub use enablement::EnablementCache;
pub use error::SanError;
pub use gate::{InputGate, InputGateId, OutputGate, OutputGateId};
pub use marking::{Marking, PlaceValue};
pub use model::SanModel;
pub use place::{PlaceDecl, PlaceId, PlaceKind};
