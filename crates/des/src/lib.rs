//! Simulation engine for stochastic activity networks.
//!
//! One executor runs [`ahs_san::SanModel`]s, whose timed activities are
//! all exponential: [`MarkovSimulator`], a Gillespie/SSA executor. It
//! supports **importance sampling** through [`BiasScheme`] rate
//! multipliers with exact likelihood-ratio accounting, which is what
//! makes the paper's rare unsafety levels (down to ~1e-13) estimable at
//! all, and replays a model checker's counterexample step by step
//! ([`MarkovSimulator::run_forced_schedule`]).
//!
//! On top of the executor, [`Study`] runs independent replications —
//! optionally in parallel — until a [`StoppingRule`](ahs_stats::StoppingRule)
//! is satisfied, producing first-passage probability curves such as the
//! paper's unsafety `S(t)`, transient curves, and the expected totals of
//! Möbius-style rate/impulse reward variables ([`RewardSpec`],
//! [`Study::reward`]). [`SplittingStudy`] (fixed-effort multilevel
//! splitting, an independent rare-event method used for
//! cross-validation) completes the layer.
//!
//! # Example
//!
//! ```
//! use ahs_des::{Backend, Study};
//! use ahs_san::{Delay, SanBuilder};
//! use ahs_stats::TimeGrid;
//!
//! // One component failing at rate 0.1/h: S(t) = 1 - exp(-0.1 t).
//! let mut b = SanBuilder::new("single");
//! let up = b.place_with_tokens("up", 1)?;
//! let down = b.place("down")?;
//! b.timed_activity("fail", Delay::exponential(0.1))?
//!     .input_place(up)
//!     .output_place(down)
//!     .build()?;
//! let model = b.build()?;
//!
//! let study = Study::new(model).with_seed(7).with_fixed_replications(4000);
//! let grid = TimeGrid::new(vec![1.0, 5.0, 10.0]);
//! let est = study.first_passage(move |m| m.is_marked(down), &grid, Backend::Markov)?;
//! let s10 = est.curve.points(0.95)[2].y;
//! assert!((s10 - 0.632).abs() < 0.03);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bias;
mod checkpoint;
mod error;
mod observer;
mod replay;
mod replication;
mod reward;
mod rng;
mod run;
mod splitting;
mod ssa;
mod watchdog;

pub use bias::BiasScheme;
pub use checkpoint::{
    generation_path, model_fingerprint, QuarantinedRep, StudyCheckpoint, CHECKPOINT_GENERATIONS,
    CHECKPOINT_SCHEMA,
};
pub use error::SimError;
pub use observer::{NullObserver, Observer, TraceObserver};
pub use replay::{ReplayOutcome, ReplayStep};
pub use replication::{Backend, CurveEstimate, Study};
pub use reward::RewardSpec;
pub use rng::{replication_rng, split_seed};
pub use splitting::{SplittingEstimate, SplittingStudy};
pub use ssa::{MarkovSimulator, RunOutcome};
pub use watchdog::Watchdog;
