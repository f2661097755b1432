//! Time-grid accumulation of transient measures such as `S(t)`.

use crate::ci::ConfidenceInterval;
use crate::welford::WeightedStats;

/// A grid of observation instants for a transient measure.
///
/// The AHS study evaluates the unsafety `S(t)` at trip durations between
/// 2 and 10 hours; a `TimeGrid` holds those instants and a
/// [`Curve`] accumulates per-instant estimates over replications.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeGrid {
    points: Vec<f64>,
}

impl TimeGrid {
    /// Creates a grid from explicit instants.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, unsorted, or contains a negative or
    /// non-finite instant.
    pub fn new(points: Vec<f64>) -> Self {
        assert!(!points.is_empty(), "time grid must not be empty");
        for w in points.windows(2) {
            assert!(w[0] < w[1], "time grid must be strictly increasing");
        }
        assert!(
            points.iter().all(|t| t.is_finite() && *t >= 0.0),
            "time grid instants must be finite and non-negative"
        );
        TimeGrid { points }
    }

    /// `count` evenly spaced instants from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2` or `start >= end`.
    pub fn linspace(start: f64, end: f64, count: usize) -> Self {
        assert!(count >= 2, "linspace needs at least two points");
        assert!(start < end, "start must precede end");
        let step = (end - start) / (count - 1) as f64;
        TimeGrid::new((0..count).map(|i| start + step * i as f64).collect())
    }

    /// The grid instants, strictly increasing.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of instants.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest instant — the simulation horizon needed to cover the grid.
    pub fn horizon(&self) -> f64 {
        *self.points.last().expect("grid is never empty")
    }
}

/// One estimated point of a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Abscissa (time, platoon size, …).
    pub x: f64,
    /// Point estimate.
    pub y: f64,
    /// Confidence-interval half-width on `y`.
    pub half_width: f64,
    /// Number of replications behind the estimate.
    pub samples: u64,
}

/// Accumulates a transient probability curve over replications.
///
/// Each replication reports the first time the event of interest occurred
/// (`Some(t)`) or that it never occurred within the horizon (`None`),
/// together with a likelihood-ratio weight (`1.0` for plain Monte Carlo).
/// `P(event by grid point g)` is then the weighted mean of the indicator
/// `t <= g`.
///
/// # Example
///
/// ```
/// use ahs_stats::{Curve, TimeGrid};
///
/// let grid = TimeGrid::new(vec![1.0, 2.0, 3.0]);
/// let mut curve = Curve::new(grid);
/// curve.record_first_passage(Some(1.5), 1.0);
/// curve.record_first_passage(None, 1.0);
/// let pts = curve.points(0.95);
/// assert_eq!(pts[0].y, 0.0); // nothing by t=1
/// assert_eq!(pts[1].y, 0.5); // one of two paths hit by t=2
/// ```
#[derive(Debug, Clone)]
pub struct Curve {
    grid: TimeGrid,
    estimators: Vec<WeightedStats>,
}

impl Curve {
    /// Creates an empty curve over `grid`.
    pub fn new(grid: TimeGrid) -> Self {
        let estimators = vec![WeightedStats::new(); grid.len()];
        Curve { grid, estimators }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// Records one replication outcome: the first-passage time of the
    /// event (or `None` if it did not occur before the horizon) and the
    /// replication's likelihood-ratio weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn record_first_passage(&mut self, hit_time: Option<f64>, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative, got {weight}"
        );
        for (g, est) in self.grid.points.iter().zip(self.estimators.iter_mut()) {
            let hit = matches!(hit_time, Some(t) if t <= *g);
            // For an indicator under importance sampling the correct
            // per-point weight is the path weight on hits; on misses the
            // weighted indicator is zero regardless, but the weight still
            // enters the estimator as a zero-valued observation with that
            // weight so that mean-weight diagnostics stay meaningful.
            est.push(if hit { 1.0 } else { 0.0 }, weight);
        }
    }

    /// Records one replication of a general transient measure: one
    /// `(value, weight)` observation per grid point (e.g. the indicator
    /// of a non-absorbing condition with its point-specific likelihood
    /// ratio under importance sampling).
    ///
    /// # Panics
    ///
    /// Panics if `observations` does not match the grid length or a
    /// weight is negative or non-finite.
    pub fn record_weighted(&mut self, observations: &[(f64, f64)]) {
        assert_eq!(
            observations.len(),
            self.grid.len(),
            "expected one observation per grid point"
        );
        for ((v, w), est) in observations.iter().zip(self.estimators.iter_mut()) {
            assert!(
                w.is_finite() && *w >= 0.0,
                "weight must be finite and non-negative, got {w}"
            );
            est.push(*v, *w);
        }
    }

    /// Number of replications recorded.
    pub fn samples(&self) -> u64 {
        self.estimators.first().map_or(0, |e| e.count())
    }

    /// Point estimates with confidence intervals at `confidence`.
    pub fn points(&self, confidence: f64) -> Vec<CurvePoint> {
        self.grid
            .points
            .iter()
            .zip(self.estimators.iter())
            .map(|(x, est)| CurvePoint {
                x: *x,
                y: est.mean(),
                half_width: est.confidence_interval(confidence).half_width(),
                samples: est.count(),
            })
            .collect()
    }

    /// The estimator for grid index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn estimator(&self, i: usize) -> &WeightedStats {
        &self.estimators[i]
    }

    /// All per-point estimators in grid order (for checkpoint
    /// serialization; pair with [`from_parts`](Curve::from_parts)).
    pub fn estimators(&self) -> &[WeightedStats] {
        &self.estimators
    }

    /// Rebuilds a curve from a grid and its per-point estimators, used
    /// by checkpoint/resume to restore accumulated state bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `estimators` does not match the grid length.
    pub fn from_parts(grid: TimeGrid, estimators: Vec<WeightedStats>) -> Self {
        assert_eq!(
            estimators.len(),
            grid.len(),
            "expected one estimator per grid point"
        );
        Curve { grid, estimators }
    }

    /// Confidence interval at grid index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn interval(&self, i: usize, confidence: f64) -> ConfidenceInterval {
        self.estimators[i].confidence_interval(confidence)
    }

    /// Merges another curve accumulated over the same grid, as used when
    /// joining per-worker results.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn merge(&mut self, other: &Curve) {
        assert_eq!(
            self.grid, other.grid,
            "cannot merge curves over different grids"
        );
        for (a, b) in self.estimators.iter_mut().zip(other.estimators.iter()) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_spacing() {
        let g = TimeGrid::linspace(2.0, 10.0, 5);
        assert_eq!(g.points(), &[2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(g.horizon(), 10.0);
        assert_eq!(g.len(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn grid_rejects_unsorted() {
        TimeGrid::new(vec![1.0, 1.0]);
    }

    #[test]
    fn curve_is_monotone_in_time() {
        let mut c = Curve::new(TimeGrid::linspace(1.0, 5.0, 5));
        let hits = [Some(0.5), Some(2.5), Some(4.9), None, None, Some(1.0)];
        for h in hits {
            c.record_first_passage(h, 1.0);
        }
        let pts = c.points(0.95);
        for w in pts.windows(2) {
            assert!(w[0].y <= w[1].y, "curve must be non-decreasing");
        }
        assert!((pts[0].y - 2.0 / 6.0).abs() < 1e-12); // 0.5 and 1.0 hit by t=1
        assert!((pts[4].y - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let grid = TimeGrid::linspace(1.0, 3.0, 3);
        let mut all = Curve::new(grid.clone());
        let mut a = Curve::new(grid.clone());
        let mut b = Curve::new(grid);
        let outcomes = [Some(0.5), None, Some(2.2), Some(2.9), None, Some(1.5)];
        for (i, h) in outcomes.iter().enumerate() {
            all.record_first_passage(*h, 1.0);
            if i < 3 {
                a.record_first_passage(*h, 1.0);
            } else {
                b.record_first_passage(*h, 1.0);
            }
        }
        a.merge(&b);
        let pa = a.points(0.95);
        let pall = all.points(0.95);
        for (x, y) in pa.iter().zip(pall.iter()) {
            assert!((x.y - y.y).abs() < 1e-12);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn weighted_hits_scale_estimate() {
        let mut c = Curve::new(TimeGrid::new(vec![1.0]));
        c.record_first_passage(Some(0.5), 0.01);
        c.record_first_passage(None, 1.0);
        let pts = c.points(0.95);
        assert!((pts[0].y - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "weight must be finite and non-negative")]
    fn rejects_negative_weight() {
        let mut c = Curve::new(TimeGrid::new(vec![1.0]));
        c.record_first_passage(None, -1.0);
    }

    #[test]
    fn record_weighted_accumulates_per_point() {
        let mut c = Curve::new(TimeGrid::new(vec![1.0, 2.0]));
        c.record_weighted(&[(1.0, 0.5), (0.0, 1.0)]);
        c.record_weighted(&[(1.0, 1.5), (1.0, 1.0)]);
        let pts = c.points(0.95);
        assert!((pts[0].y - 1.0).abs() < 1e-12); // (0.5 + 1.5) / 2
        assert!((pts[1].y - 0.5).abs() < 1e-12); // (0 + 1) / 2
        assert_eq!(c.samples(), 2);
    }

    #[test]
    #[should_panic(expected = "one observation per grid point")]
    fn record_weighted_checks_length() {
        let mut c = Curve::new(TimeGrid::new(vec![1.0, 2.0]));
        c.record_weighted(&[(1.0, 1.0)]);
    }
}
