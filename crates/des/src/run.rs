//! The run modes of the SSA loop and its per-event tail.
//!
//! The executor has exactly one event loop, generic over a
//! [`RunMode`] and monomorphised per mode: first passage, observation
//! on a time grid, or an [`Observer`]. The loop calls the mode's hooks
//! at fixed points of its step sequence, so every mode takes the same
//! path through the model and draws from the RNG in the same order.
//! The per-event tail ([`RunTally::step`]) applies the event budget
//! and the watchdog.

use ahs_obs::Metrics;
use ahs_san::{ActivityId, Marking};

use crate::error::SimError;
use crate::observer::Observer;
use crate::watchdog::{sim_step_failpoint, Watchdog, WatchdogRun};

/// Default per-replication event budget.
pub(crate) const DEFAULT_MAX_EVENTS: u64 = 10_000_000;

/// The hooks a run loop calls; every default does nothing.
pub(crate) trait RunMode {
    /// Called once with the stabilized start marking, before the start
    /// cascade is reported through [`on_event`](RunMode::on_event).
    fn start(&mut self, _marking: &Marking) {}

    /// Polled at the top of every iteration, i.e. after every
    /// stabilization; `true` ends the run at time `t`.
    fn stop(&mut self, _t: f64, _marking: &Marking) -> bool {
        false
    }

    /// Called before the next event fires, with the instants up to
    /// `until` (the next event time capped at the horizon) seeing
    /// `marking`, and `weight_at(g)` the likelihood ratio at instant
    /// `g`. Returns `true` once the mode needs no further event.
    fn before_event(
        &mut self,
        _until: f64,
        _marking: &Marking,
        _weight_at: impl Fn(f64) -> f64,
    ) -> bool {
        false
    }

    /// Called after every completion — the timed one, then each
    /// instantaneous one of its cascade — with the marking after it.
    fn on_event(&mut self, _t: f64, _activity: ActivityId, _marking: &Marking) {}

    /// Called once when the run ends, with the end time and marking.
    fn end(&mut self, _t: f64, _marking: &Marking) {}
}

/// First passage: the run stops at the first stable marking that
/// satisfies the target.
pub(crate) struct FirstPassage<F>(pub(crate) F);

impl<F: Fn(&Marking) -> bool> RunMode for FirstPassage<F> {
    fn stop(&mut self, _t: f64, marking: &Marking) -> bool {
        (self.0)(marking)
    }
}

/// Grids the executor rejects: empty, unsorted, repeated, non-finite
/// and negative.
#[cfg(test)]
pub(crate) const BAD_GRIDS: [&[f64]; 6] = [
    &[],
    &[2.0, 1.0],
    &[1.0, 1.0],
    &[f64::NAN],
    &[1.0, f64::INFINITY],
    &[-1.0, 1.0],
];

/// Grid observation: `(indicator of pred, weight)` at each instant. An
/// instant tied with an event is observed before it fires
/// (right-continuous convention).
pub(crate) struct GridObservations<'g, F> {
    pred: F,
    grid: &'g [f64],
    out: Vec<(f64, f64)>,
}

impl<'g, F: Fn(&Marking) -> bool> GridObservations<'g, F> {
    /// Validates `grid` like [`TimeGrid::new`](ahs_stats::TimeGrid::new):
    /// non-empty, finite, non-negative and strictly increasing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidGrid`] naming the first violation.
    pub(crate) fn new(pred: F, grid: &'g [f64]) -> Result<Self, SimError> {
        let invalid = |reason: String| Err(SimError::InvalidGrid { reason });
        if grid.is_empty() {
            return invalid("the grid is empty".to_owned());
        }
        if let Some(t) = grid.iter().find(|t| !(t.is_finite() && **t >= 0.0)) {
            return invalid(format!("instant {t} is not finite and non-negative"));
        }
        if let Some(w) = grid.windows(2).find(|w| w[0] >= w[1]) {
            return invalid(format!("{} does not precede {}", w[0], w[1]));
        }
        Ok(GridObservations {
            pred,
            grid,
            out: Vec::with_capacity(grid.len()),
        })
    }

    /// The last instant, where the run ends.
    pub(crate) fn horizon(&self) -> f64 {
        self.grid[self.grid.len() - 1]
    }

    /// One observation per grid instant.
    pub(crate) fn into_observations(self) -> Vec<(f64, f64)> {
        self.out
    }
}

impl<F: Fn(&Marking) -> bool> RunMode for GridObservations<'_, F> {
    fn before_event(
        &mut self,
        until: f64,
        marking: &Marking,
        weight_at: impl Fn(f64) -> f64,
    ) -> bool {
        while let Some(&g) = self.grid.get(self.out.len()) {
            if g > until {
                return false;
            }
            self.out
                .push((f64::from(u8::from((self.pred)(marking))), weight_at(g)));
        }
        true
    }
}

/// Reports every step to an [`Observer`].
pub(crate) struct Observed<'o, O: ?Sized>(pub(crate) &'o mut O);

impl<O: Observer + ?Sized> RunMode for Observed<'_, O> {
    fn start(&mut self, marking: &Marking) {
        self.0.on_start(marking);
    }

    fn stop(&mut self, t: f64, marking: &Marking) -> bool {
        self.0.should_stop(t, marking)
    }

    fn on_event(&mut self, t: f64, activity: ActivityId, marking: &Marking) {
        self.0.on_event(t, activity, marking);
    }

    fn end(&mut self, t: f64, marking: &Marking) {
        self.0.on_end(t, marking);
    }
}

/// One run's budgets and tallies, accumulated locally and flushed once
/// per replication, so telemetry never adds per-event atomic traffic.
pub(crate) struct RunTally {
    /// Timed completions so far.
    pub(crate) events: u64,
    instantaneous: u64,
    cascaded: bool,
    max_events: u64,
    watchdog: Option<WatchdogRun>,
}

impl RunTally {
    /// Starts a run's tally (and its watchdog clock).
    pub(crate) fn new(max_events: u64, watchdog: Option<Watchdog>) -> Self {
        RunTally {
            events: 0,
            instantaneous: 0,
            cascaded: false,
            max_events,
            watchdog: watchdog.map(|w| w.start()),
        }
    }

    /// Counts a stabilization that fired `fired` instantaneous
    /// activities.
    #[inline]
    pub(crate) fn cascade(&mut self, fired: usize) {
        self.instantaneous += fired as u64;
        self.cascaded |= fired >= 2;
    }

    /// The per-event tail, run after every timed completion: count it,
    /// evaluate the `des::sim::step` chaos hook, then enforce the event
    /// budget and the watchdog.
    ///
    /// # Errors
    ///
    /// [`SimError::EventBudgetExceeded`] or [`SimError::Runaway`].
    #[inline]
    pub(crate) fn step(&mut self) -> Result<(), SimError> {
        self.events += 1;
        sim_step_failpoint();
        if self.events > self.max_events {
            return Err(SimError::EventBudgetExceeded {
                budget: self.max_events,
            });
        }
        if let Some(wd) = &self.watchdog {
            wd.check(self.events)?;
        }
        Ok(())
    }

    /// Flushes the run's completions and final likelihood ratio into
    /// the sink, if any.
    pub(crate) fn flush(&self, metrics: Option<&Metrics>, weight: f64) {
        if let Some(m) = metrics {
            m.record_run(self.events, self.instantaneous, self.cascaded);
            m.record_weight(weight);
        }
    }
}
