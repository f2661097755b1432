//! Run observers for tracing and custom measures.

use ahs_san::{ActivityId, Marking, SanModel};

/// Callbacks invoked by the executor during a single run.
///
/// The executor calls `on_start` once, `on_event` after every completed
/// activity (timed and instantaneous) with the post-firing marking, and
/// `on_end` when the run terminates (horizon reached, deadlock, or an
/// observer requested the stop).
pub trait Observer {
    /// Called once with the (stabilized) initial marking.
    fn on_start(&mut self, _marking: &Marking) {}

    /// Called after an activity completes; `marking` is the marking
    /// *after* the firing.
    fn on_event(&mut self, _time: f64, _activity: ActivityId, _marking: &Marking) {}

    /// Return `true` to terminate the run early; polled after every
    /// event once the marking is stable.
    fn should_stop(&mut self, _time: f64, _marking: &Marking) -> bool {
        false
    }

    /// Called when the run ends, with the final time and marking.
    fn on_end(&mut self, _time: f64, _marking: &Marking) {}
}

/// An observer that does nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Records every event as `(time, activity name)` — a debugging aid.
///
/// # Example
///
/// ```
/// use ahs_des::{MarkovSimulator, TraceObserver};
/// use ahs_san::{Delay, SanBuilder};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut b = SanBuilder::new("m");
/// let p = b.place_with_tokens("p", 1)?;
/// let q = b.place("q")?;
/// b.timed_activity("move", Delay::exponential(2.0))?
///     .input_place(p)
///     .output_place(q)
///     .build()?;
/// let model = b.build()?;
///
/// let mut trace = TraceObserver::new(&model);
/// let sim = MarkovSimulator::new(&model)?;
/// let mut rng = SmallRng::seed_from_u64(0);
/// sim.run_with_observer(100.0, &mut rng, &mut trace)?;
/// assert_eq!(trace.events().len(), 1);
/// assert_eq!(trace.events()[0].1, "move");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceObserver {
    names: Vec<String>,
    events: Vec<(f64, String)>,
}

impl TraceObserver {
    /// Creates a trace observer resolving names against `model`.
    pub fn new(model: &SanModel) -> Self {
        TraceObserver {
            names: model
                .activities()
                .iter()
                .map(|a| a.name().to_owned())
                .collect(),
            events: Vec::new(),
        }
    }

    /// The recorded `(time, activity name)` pairs.
    pub fn events(&self) -> &[(f64, String)] {
        &self.events
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, time: f64, activity: ActivityId, _marking: &Marking) {
        self.events
            .push((time, self.names[activity.index()].clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::MarkovSimulator;
    use ahs_san::{Delay, SanBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Chain with an instantaneous step: `a` (timed) enables `boom`
    /// (instantaneous) which enables `b` (timed).
    fn chain_with_instant() -> ahs_san::SanModel {
        let mut b = SanBuilder::new("chain");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let r = b.place("r").unwrap();
        let s = b.place("s").unwrap();
        b.timed_activity("a", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.instant_activity("boom", 1, 1.0)
            .unwrap()
            .input_place(q)
            .output_place(r)
            .build()
            .unwrap();
        b.timed_activity("b", Delay::exponential(1.0))
            .unwrap()
            .input_place(r)
            .output_place(s)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn trace_times_are_non_decreasing() {
        let model = chain_with_instant();
        let mut trace = TraceObserver::new(&model);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        sim.run_with_observer(100.0, &mut rng, &mut trace).unwrap();
        let events = trace.events();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(
                w[0].0 <= w[1].0,
                "trace times must be non-decreasing: {w:?}"
            );
        }
    }

    #[test]
    fn instantaneous_activity_fires_at_its_trigger_instant() {
        // `boom` is instantaneous: it must be recorded at exactly the
        // same simulated time as the timed completion (`a`) that
        // enabled it, immediately after it in the trace.
        let model = chain_with_instant();
        let mut trace = TraceObserver::new(&model);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        sim.run_with_observer(100.0, &mut rng, &mut trace).unwrap();
        let events = trace.events();
        let a_pos = events.iter().position(|(_, n)| n == "a").expect("a fired");
        assert_eq!(events[a_pos + 1].1, "boom");
        assert_eq!(
            events[a_pos].0,
            events[a_pos + 1].0,
            "instantaneous completion must share the enabling instant"
        );
    }

    #[test]
    fn trace_records_every_activity_in_the_chain() {
        let model = chain_with_instant();
        let mut trace = TraceObserver::new(&model);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        sim.run_with_observer(1000.0, &mut rng, &mut trace).unwrap();
        let names: Vec<&str> = trace.events().iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["a", "boom", "b"]);
    }

    #[test]
    fn null_observer_never_stops() {
        let mut o = NullObserver;
        // No marking is needed for the default should_stop; build a tiny one.
        let mut b = ahs_san::SanBuilder::new("m");
        let p = b.place_with_tokens("p", 1).unwrap();
        b.timed_activity("a", ahs_san::Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        assert!(!o.should_stop(0.0, model.initial_marking()));
    }
}
