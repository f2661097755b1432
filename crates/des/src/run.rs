//! First passage as an [`Observer`], and the SSA loop's per-event tail.
//!
//! The executor has exactly one event loop, generic over an
//! [`Observer`] and monomorphised per observer: first passage is the
//! private [`FirstPassage`], whose `should_stop` is the target; reward
//! accumulation and traced runs bring their own. The loop calls the
//! hooks at fixed points of its step sequence, so every run takes the
//! same path through the model and draws from the RNG in the same
//! order. The per-event tail ([`RunTally::step`]) applies the event
//! budget and the watchdog.

use ahs_obs::Metrics;
use ahs_san::Marking;

use crate::error::SimError;
use crate::observer::Observer;
use crate::watchdog::{sim_step_failpoint, Watchdog, WatchdogRun};

/// Default per-replication event budget.
pub(crate) const DEFAULT_MAX_EVENTS: u64 = 10_000_000;

/// First passage: the run stops at the first stable marking that
/// satisfies the target.
pub(crate) struct FirstPassage<F>(pub(crate) F);

impl<F: Fn(&Marking) -> bool> Observer for FirstPassage<F> {
    fn should_stop(&mut self, _time: f64, marking: &Marking) -> bool {
        (self.0)(marking)
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
