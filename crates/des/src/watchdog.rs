//! Per-replication runtime budgets.
//!
//! `ahs-lint` proves structural properties of a model, but a model can
//! lint clean and still cycle *at simulation time* (e.g. a fast
//! ping-pong that fires millions of events before the horizon without
//! ever reaching the target). The default event budget eventually
//! catches such loops, but
//! only after tens of millions of events; a [`Watchdog`] lets a study
//! bound each replication much tighter — by event count, wall-clock
//! time, or both — and fail with a typed [`SimError::Runaway`] instead
//! of burning a core for minutes.
//!
//! The wall-clock budget is consulted only every 1024 events so the hot
//! loop never pays for `Instant::now()` per event.

use std::time::Instant;

use crate::error::SimError;

/// Runtime budgets applied to every replication of a study.
///
/// # Example
///
/// ```
/// use ahs_des::Watchdog;
///
/// let wd = Watchdog::new()
///     .with_max_events(100_000)
///     .with_max_wall_seconds(5.0);
/// assert_eq!(wd.max_events(), Some(100_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Watchdog {
    max_events: Option<u64>,
    max_wall_seconds: Option<f64>,
}

impl Watchdog {
    /// A watchdog with no budgets set (never trips).
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// Trip once a single replication executes more than `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_max_events(mut self, n: u64) -> Self {
        assert!(n > 0, "watchdog event budget must be positive");
        self.max_events = Some(n);
        self
    }

    /// Trip once a single replication runs longer than `seconds` of
    /// wall-clock time (checked every 1024 events).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not a positive finite number.
    #[must_use]
    pub fn with_max_wall_seconds(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "watchdog wall-clock budget must be positive and finite, got {seconds}"
        );
        self.max_wall_seconds = Some(seconds);
        self
    }

    /// The configured event budget, if any.
    pub fn max_events(&self) -> Option<u64> {
        self.max_events
    }

    /// The configured wall-clock budget in seconds, if any.
    pub fn max_wall_seconds(&self) -> Option<f64> {
        self.max_wall_seconds
    }

    /// Whether any budget is configured at all.
    pub fn is_armed(&self) -> bool {
        self.max_events.is_some() || self.max_wall_seconds.is_some()
    }

    /// Starts the per-replication timer.
    pub(crate) fn start(&self) -> WatchdogRun {
        WatchdogRun {
            budget: *self,
            started: Instant::now(),
        }
    }
}

/// The `des::sim::step` chaos hook, evaluated once per simulation
/// event alongside the watchdog check: `delay` stalls the inner loop
/// (what a wall-clock watchdog exists to catch) and `panic` tears a
/// replication down mid-event (what quarantine exists to catch).
/// Compiled to nothing without the `inject` feature.
#[inline]
pub(crate) fn sim_step_failpoint() {
    match ahs_inject::eval("des::sim::step") {
        Some(ahs_inject::Fault::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(ahs_inject::Fault::Panic(msg)) => {
            panic!("injected panic at des::sim::step: {msg}")
        }
        _ => {}
    }
}

/// A running watchdog for one replication.
#[derive(Debug)]
pub(crate) struct WatchdogRun {
    budget: Watchdog,
    started: Instant,
}

impl WatchdogRun {
    /// Checks the budgets after the `events`-th event. The event cap is
    /// checked on every call; the wall clock only every 1024 events.
    pub(crate) fn check(&self, events: u64) -> Result<(), SimError> {
        if let Some(cap) = self.budget.max_events {
            if events > cap {
                return Err(SimError::Runaway {
                    events,
                    wall_seconds: self.started.elapsed().as_secs_f64(),
                });
            }
        }
        if let Some(cap) = self.budget.max_wall_seconds {
            if events.is_multiple_of(1024) {
                let elapsed = self.started.elapsed().as_secs_f64();
                if elapsed > cap {
                    return Err(SimError::Runaway {
                        events,
                        wall_seconds: elapsed,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_watchdog_never_trips() {
        let run = Watchdog::new().start();
        for e in [1, 1024, 1 << 40] {
            assert!(run.check(e).is_ok());
        }
        assert!(!Watchdog::new().is_armed());
    }

    #[test]
    fn event_budget_trips_with_typed_error() {
        let run = Watchdog::new().with_max_events(10).start();
        assert!(run.check(10).is_ok());
        match run.check(11) {
            Err(SimError::Runaway { events, .. }) => assert_eq!(events, 11),
            other => panic!("expected Runaway, got {other:?}"),
        }
    }

    #[test]
    fn wall_clock_checked_only_on_multiples_of_1024() {
        let run = Watchdog::new().with_max_wall_seconds(1e-9).start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        // Off-multiple events never consult the clock.
        assert!(run.check(1023).is_ok());
        assert!(matches!(run.check(1024), Err(SimError::Runaway { .. })));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_event_budget_rejected() {
        let _ = Watchdog::new().with_max_events(0);
    }
}
