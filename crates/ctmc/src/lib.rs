//! Continuous-time Markov chain solvers.
//!
//! The paper solves its SAN models by simulation only; this crate adds a
//! numerical path — state-space exploration plus uniformization — used
//! throughout the workspace to *validate* the simulation engine on
//! models small enough to enumerate (the full 2n-vehicle AHS model is
//! far too large, which is exactly why the paper simulates).
//!
//! * [`MarkovModel`] — anything that can enumerate rate-weighted
//!   successor states; [`SanMarkovModel`] adapts an all-exponential
//!   [`SanModel`](ahs_san::SanModel).
//! * [`StateSpace`] — breadth-first exploration into a sparse generator
//!   matrix, built row by row as states are expanded in index order,
//!   with optional absorbing predicates for first-passage measures.
//! * [`Interner`] — the single-storage state numbering behind
//!   [`StateSpace`], shared with the `ahs-check` explorer. It keeps
//!   every state once, as its [`PackedState`] bytes in one arena (a
//!   marking packs to its canonical varint form, ~52 bytes at n = 2),
//!   and hands states back decoded.
//! * [`transient_distribution`] — uniformization (Fox–Glynn-style
//!   normalized Poisson weights) for `π(t)`, over a multi-lane gather
//!   kernel that sums the same terms in the same order as a plain row
//!   gather. The first solve on a space costs `O(nnz · (qt + √qt))`
//!   and leaves the kernel and up to six iterates `π(0) Pᵏ` on the
//!   [`StateSpace`] (12 bytes per kernel entry, 8 bytes per state per
//!   iterate; ~9 MB + ~5 MB at n = 2); a later solve resumes from the
//!   kept iterate with the largest `k` at or below its left truncation
//!   point, so an increasing grid of `t` costs about one Poisson sweep,
//!   bit for bit the answers of solving each `t` on a fresh space.
//! * [`expected_hitting_time`] — mean first-passage times into an
//!   absorbing set.
//!
//! # Example
//!
//! ```
//! use ahs_ctmc::{transient_distribution, MarkovModel, StateSpace};
//!
//! /// Two-state failure/repair component.
//! struct Component;
//! impl MarkovModel for Component {
//!     type State = bool; // up?
//!     fn initial_states(&self) -> Vec<(bool, f64)> {
//!         vec![(true, 1.0)]
//!     }
//!     fn transitions(&self, s: &bool, emit: &mut dyn FnMut(&bool, f64)) {
//!         if *s { emit(&false, 1.0) } else { emit(&true, 4.0) }
//!     }
//! }
//!
//! let space = StateSpace::explore(&Component, 10)?;
//! let pi = transient_distribution(&space, 0.5, 1e-12);
//! let p_down = space.probability(&pi, |s| !*s);
//! let exact = 0.2 * (1.0 - (-5.0_f64 * 0.5).exp());
//! assert!((p_down - exact).abs() < 1e-9);
//! # Ok::<(), ahs_ctmc::CtmcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod explore;
mod hitting;
mod intern;
mod san_adapter;
mod sparse;
mod transient;

pub use error::CtmcError;
pub use explore::{MarkovModel, StateSpace};
pub use hitting::{expected_hitting_time, expected_hitting_time_from_start};
pub use intern::{Interner, PackedState};
pub use san_adapter::SanMarkovModel;
pub use sparse::SparseMatrix;
pub use transient::{poisson_weights, transient_distribution};
