//! Statistical machinery for stochastic simulation studies.
//!
//! This crate provides the estimator layer used by the AHS safety study
//! (Hamouda et al., DSN 2009): running moments, confidence intervals,
//! relative-precision stopping rules (the paper stops each point after at
//! least 10 000 batches once the 95% interval is within 0.1 relative
//! half-width), histograms, and time-grid curve accumulators
//! for transient measures such as the unsafety `S(t)`.
//!
//! # Example
//!
//! ```
//! use ahs_stats::{RunningStats, StoppingRule};
//!
//! let mut stats = RunningStats::new();
//! for i in 0..1000 {
//!     stats.push(f64::from(i % 10));
//! }
//! let ci = stats.confidence_interval(0.95);
//! assert!(ci.contains(4.5));
//!
//! let rule = StoppingRule::relative_precision(0.95, 0.1).with_min_samples(50);
//! assert!(rule.is_satisfied(&stats));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ci;
mod curve;
mod histogram;
mod stopping;
mod summary;
mod welford;

pub use ci::{normal_quantile, student_t_quantile, ConfidenceInterval};
pub use curve::{Curve, CurvePoint, TimeGrid};
pub use histogram::Histogram;
pub use stopping::StoppingRule;
pub use summary::{format_csv, format_markdown, RowWidthError, Table};
pub use welford::{RunningStats, WeightedStats};
