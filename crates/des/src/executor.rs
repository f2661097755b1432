//! Event-queue execution of SANs with arbitrary delay distributions.

use std::cell::Cell;
use std::sync::Arc;

use ahs_obs::Metrics;
use ahs_san::{EnablementCache, Marking, SanModel};
use rand::Rng;

use crate::error::SimError;
use crate::event::EventQueue;
use crate::observer::Observer;
use crate::run::{FirstPassage, GridObservations, Observed, RunMode, RunTally, DEFAULT_MAX_EVENTS};
use crate::ssa::RunOutcome;
use crate::watchdog::Watchdog;

/// Classical discrete-event executor.
///
/// Maintains a future-event list of sampled activity completion times.
/// After every firing the schedule is *reconciled* with the new marking:
/// newly enabled activities get a freshly sampled completion, disabled
/// activities are cancelled, and activities that stayed enabled keep
/// their scheduled completion (race / enabling-memory policy — exact for
/// exponential delays and the conventional choice for the general case).
///
/// Unlike [`MarkovSimulator`](crate::MarkovSimulator) this backend
/// supports all [`Delay`](ahs_san::Delay) distributions but offers no
/// importance sampling.
pub struct EventDrivenSimulator<'m> {
    model: &'m SanModel,
    max_events: u64,
    // Run-to-run scratch (enablement cache + event queue), parked here
    // between runs so the hot loop allocates nothing. `Cell` keeps the
    // run methods `&self`; a run that panics simply loses its scratch
    // and the next run rebuilds it.
    scratch: Cell<Option<Box<EdScratch>>>,
    metrics: Option<Arc<Metrics>>,
    watchdog: Option<Watchdog>,
}

/// Per-run mutable state of the event loop, reused across runs. Also
/// borrowed by the forced-schedule replay path (`replay.rs`), which
/// drives the cache without the event queue.
pub(crate) struct EdScratch {
    pub(crate) cache: EnablementCache,
    queue: EventQueue,
    /// Copy of the cache's changed-slot list, taken so the cache can be
    /// read (enabledness) while the list is iterated.
    changed: Vec<u32>,
}

impl<'m> EventDrivenSimulator<'m> {
    /// Creates an executor for `model`.
    pub fn new(model: &'m SanModel) -> Self {
        EventDrivenSimulator {
            model,
            max_events: DEFAULT_MAX_EVENTS,
            scratch: Cell::new(None),
            metrics: None,
            watchdog: None,
        }
    }

    /// Overrides the per-replication event budget.
    #[must_use]
    pub fn with_max_events(mut self, budget: u64) -> Self {
        self.max_events = budget;
        self
    }

    /// Retrieves the parked scratch or builds a fresh one (first run,
    /// or the previous run panicked mid-flight).
    pub(crate) fn take_scratch(&self) -> Box<EdScratch> {
        if let Some(s) = self.scratch.take() {
            return s;
        }
        Box::new(EdScratch {
            cache: self.model.new_cache(),
            queue: EventQueue::new(self.model.timed_activities().len()),
            changed: Vec::new(),
        })
    }

    /// Parks the scratch for the next run.
    pub(crate) fn park_scratch(&self, s: Box<EdScratch>) {
        self.scratch.set(Some(s));
    }

    /// Attaches a telemetry sink; per-run tallies (completions by
    /// kind, cascades, event-queue depth) are flushed into it once per
    /// replication.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Arms a per-replication watchdog (event-count and wall-clock
    /// budgets); a violation fails the run with [`SimError::Runaway`]
    /// instead of spinning until the much larger event budget.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// The model being simulated.
    pub fn model(&self) -> &SanModel {
        self.model
    }

    /// Schedules timed slot `slot` (a position in
    /// `model.timed_activities()`) if its activity is enabled but not
    /// scheduled, or cancels it if it is scheduled but disabled.
    #[inline]
    fn reconcile_slot<R: Rng + ?Sized>(
        &self,
        slot: usize,
        now: f64,
        marking: &Marking,
        cache: &EnablementCache,
        queue: &mut EventQueue,
        rng: &mut R,
    ) {
        let a = self.model.timed_activities()[slot];
        let enabled = cache.is_enabled(a);
        let scheduled = queue.is_scheduled(slot);
        if enabled && !scheduled {
            queue.schedule(
                now + self.model.sample_delay_cached(a, marking, rng, cache),
                slot,
            );
        } else if !enabled && scheduled {
            queue.cancel(slot);
        }
    }

    /// Brings the event queue in line with the marking at time `now` by
    /// visiting every timed slot. Used for the initial schedule and in
    /// full-rescan mode.
    fn reconcile_full<R: Rng + ?Sized>(
        &self,
        now: f64,
        marking: &Marking,
        cache: &EnablementCache,
        queue: &mut EventQueue,
        rng: &mut R,
    ) {
        for slot in 0..self.model.timed_activities().len() {
            self.reconcile_slot(slot, now, marking, cache, queue, rng);
        }
    }

    /// Post-firing schedule reconciliation. In incremental mode only
    /// the slots the enablement cache flagged as changed are visited —
    /// in ascending slot order, so newly enabled activities sample
    /// their delays in exactly the order the full scan would, keeping
    /// RNG consumption (and therefore every estimate) bitwise
    /// identical. The fired slot itself must have been flagged by the
    /// caller (it was popped off the queue, which is a schedule change
    /// the marking cannot reveal).
    fn reconcile_step<R: Rng + ?Sized>(
        &self,
        now: f64,
        marking: &Marking,
        scratch: &mut EdScratch,
        rng: &mut R,
    ) {
        let EdScratch {
            cache,
            queue,
            changed,
        } = scratch;
        if cache.is_full_rescan() {
            self.reconcile_full(now, marking, cache, queue, rng);
        } else {
            changed.clear();
            changed.extend_from_slice(cache.changed_timed_sorted());
            for &slot in changed.iter() {
                self.reconcile_slot(slot as usize, now, marking, cache, queue, rng);
            }
        }
        cache.clear_changed_timed();
    }

    /// Runs one replication to `horizon` (or until the observer stops
    /// it), reporting every event. Returns the end time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExceeded`] or a wrapped
    /// [`SanError`](ahs_san::SanError) from stabilization or case
    /// selection.
    pub fn run<R, O>(&self, horizon: f64, rng: &mut R, observer: &mut O) -> Result<f64, SimError>
    where
        R: Rng + ?Sized,
        O: Observer + ?Sized,
    {
        self.run_mode(horizon, rng, &mut Observed(observer))
            .map(|outcome| outcome.end_time)
    }

    /// Runs one replication until `target` first holds in a stable
    /// marking or `horizon` is reached; weights in the outcome are
    /// always `1.0` (no importance sampling on this backend).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`run`](EventDrivenSimulator::run).
    pub fn run_first_passage<R, F>(
        &self,
        target: F,
        horizon: f64,
        rng: &mut R,
    ) -> Result<RunOutcome, SimError>
    where
        R: Rng + ?Sized,
        F: Fn(&Marking) -> bool,
    {
        self.run_mode(horizon, rng, &mut FirstPassage(target))
    }

    /// Runs one replication observing `pred` at each grid instant;
    /// weights are always `1.0`. The run ends at the last instant.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidGrid`] unless the grid is non-empty,
    /// finite, non-negative and strictly increasing; otherwise the same
    /// failure modes as [`run`](EventDrivenSimulator::run).
    pub fn run_transient<R, F>(
        &self,
        pred: F,
        grid: &[f64],
        rng: &mut R,
    ) -> Result<Vec<(f64, f64)>, SimError>
    where
        R: Rng + ?Sized,
        F: Fn(&Marking) -> bool,
    {
        let mut obs = GridObservations::new(pred, grid)?;
        self.run_mode(obs.horizon(), rng, &mut obs)?;
        Ok(obs.into_observations())
    }

    /// Runs [`run_loop`](EventDrivenSimulator::run_loop) on the parked
    /// scratch.
    fn run_mode<R, M>(
        &self,
        horizon: f64,
        rng: &mut R,
        mode: &mut M,
    ) -> Result<RunOutcome, SimError>
    where
        R: Rng + ?Sized,
        M: RunMode,
    {
        let mut scratch = self.take_scratch();
        let result = self.run_loop(horizon, rng, mode, &mut scratch);
        self.scratch.set(Some(scratch));
        result
    }

    /// The event loop every mode runs: stabilize and schedule, then per
    /// step pop the earliest event, let the mode observe up to it,
    /// select its case, fire, stabilize and reconcile the schedule.
    fn run_loop<R, M>(
        &self,
        horizon: f64,
        rng: &mut R,
        mode: &mut M,
        scratch: &mut EdScratch,
    ) -> Result<RunOutcome, SimError>
    where
        R: Rng + ?Sized,
        M: RunMode,
    {
        let mut marking = self.model.initial_marking().clone();
        self.model.prime_cache(&mut scratch.cache, &marking);
        let fired = self
            .model
            .stabilize_cached(&mut marking, rng, &mut scratch.cache)?;
        let mut tally = RunTally::new(self.max_events, self.watchdog);
        tally.cascade(fired);
        mode.start(&marking);
        for &a in scratch.cache.fired() {
            mode.on_event(0.0, a, &marking);
        }
        scratch.queue.clear();
        self.reconcile_full(0.0, &marking, &scratch.cache, &mut scratch.queue, rng);
        scratch.cache.clear_changed_timed();
        let mut queue_depth_max = scratch.queue.live();
        let mut t = 0.0_f64;

        let stopped = loop {
            if mode.stop(t, &marking) {
                break true;
            }
            // Popping draws no randomness; an event past the horizon
            // is dropped with the rest of the run's schedule.
            let ev = scratch.queue.pop();
            let t_next = ev.map_or(f64::INFINITY, |ev| ev.time);
            let done = mode.before_event(t_next.min(horizon), &marking, |_| 1.0);
            let Some(ev) = ev.filter(|_| !done && t_next <= horizon) else {
                break false;
            };
            t = ev.time;
            let a = self.model.timed_activities()[ev.activity];
            // The popped slot is no longer scheduled, which the marking
            // alone cannot reveal — flag it for reconciliation.
            scratch.cache.note_timed_changed(ev.activity);
            let case = self
                .model
                .select_case_cached(a, &marking, rng, &mut scratch.cache)?;
            self.model
                .fire_cached(a, case, &mut marking, &mut scratch.cache);
            mode.on_event(t, a, &marking);
            let fired = self
                .model
                .stabilize_cached(&mut marking, rng, &mut scratch.cache)?;
            tally.cascade(fired);
            for &ia in scratch.cache.fired() {
                mode.on_event(t, ia, &marking);
            }
            self.reconcile_step(t, &marking, scratch, rng);
            queue_depth_max = queue_depth_max.max(scratch.queue.live());
            tally.step()?;
        };

        let end_time = if stopped { t } else { horizon };
        mode.end(end_time, &marking);
        tally.flush(self.metrics.as_deref(), 1.0);
        if let Some(m) = &self.metrics {
            m.record_queue_depth(queue_depth_max);
        }
        Ok(RunOutcome {
            hit_time: stopped.then_some(t),
            hit_weight: if stopped { 1.0 } else { 0.0 },
            end_time,
            final_weight: 1.0,
            events: tally.events,
        })
    }
}

impl std::fmt::Debug for EventDrivenSimulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventDrivenSimulator")
            .field("model", &self.model.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceObserver;
    use ahs_san::{Delay, SanBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn single_failure(rate: f64) -> (ahs_san::SanModel, ahs_san::PlaceId) {
        let mut b = SanBuilder::new("single");
        let up = b.place_with_tokens("up", 1).unwrap();
        let down = b.place("down").unwrap();
        b.timed_activity("fail", Delay::exponential(rate))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        (b.build().unwrap(), down)
    }

    #[test]
    fn first_passage_matches_closed_form() {
        let (model, down) = single_failure(0.5);
        let sim = EventDrivenSimulator::new(&model);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| {
                sim.run_first_passage(|m| m.is_marked(down), 2.0, &mut rng)
                    .unwrap()
                    .hit_time
                    .is_some()
            })
            .count();
        let p_hat = hits as f64 / f64::from(n);
        let p = 1.0 - (-1.0_f64).exp();
        assert!((p_hat - p).abs() < 0.01, "estimate {p_hat}, truth {p}");
    }

    #[test]
    fn deterministic_delays_fire_exactly_on_time() {
        let mut b = SanBuilder::new("clock");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let r = b.place("r").unwrap();
        b.timed_activity("first", Delay::Deterministic(1.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("second", Delay::Deterministic(2.5))
            .unwrap()
            .input_place(q)
            .output_place(r)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = EventDrivenSimulator::new(&model);
        let mut trace = TraceObserver::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        sim.run(10.0, &mut rng, &mut trace).unwrap();
        assert_eq!(trace.events().len(), 2);
        assert!((trace.events()[0].0 - 1.0).abs() < 1e-12);
        assert_eq!(trace.events()[0].1, "first");
        assert!((trace.events()[1].0 - 3.5).abs() < 1e-12);
        assert_eq!(trace.events()[1].1, "second");
    }

    #[test]
    fn transient_matches_closed_form() {
        let (model, down) = single_failure(1.0);
        let sim = EventDrivenSimulator::new(&model);
        let mut rng = SmallRng::seed_from_u64(2);
        let grid = [0.5, 1.0, 2.0];
        let mut sums = [0.0_f64; 3];
        let n = 20_000;
        for _ in 0..n {
            let obs = sim
                .run_transient(|m| m.is_marked(down), &grid, &mut rng)
                .unwrap();
            for (i, (v, _)) in obs.iter().enumerate() {
                sums[i] += v;
            }
        }
        for (i, &g) in grid.iter().enumerate() {
            let p_hat = sums[i] / f64::from(n);
            let p = 1.0 - (-g).exp();
            assert!((p_hat - p).abs() < 0.02, "t={g}: {p_hat} vs {p}");
        }
    }

    #[test]
    fn bad_grid_is_a_typed_error() {
        let (model, down) = single_failure(1.0);
        let sim = EventDrivenSimulator::new(&model);
        let mut rng = SmallRng::seed_from_u64(12);
        for grid in crate::run::BAD_GRIDS {
            assert!(
                matches!(
                    sim.run_transient(|m| m.is_marked(down), grid, &mut rng),
                    Err(SimError::InvalidGrid { .. })
                ),
                "{grid:?}"
            );
        }
    }

    #[test]
    fn disabled_activity_is_cancelled() {
        // Two activities compete for one token; whichever fires disables
        // the other. With rates 1000 vs 0.001 the fast one wins
        // essentially always; more importantly the run must terminate
        // without the slow activity ever firing on a consumed token.
        let mut b = SanBuilder::new("race");
        let p = b.place_with_tokens("p", 1).unwrap();
        let fast = b.place("fast").unwrap();
        let slow = b.place("slow").unwrap();
        b.timed_activity("f", Delay::exponential(1000.0))
            .unwrap()
            .input_place(p)
            .output_place(fast)
            .build()
            .unwrap();
        b.timed_activity("s", Delay::exponential(0.001))
            .unwrap()
            .input_place(p)
            .output_place(slow)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = EventDrivenSimulator::new(&model);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut trace = TraceObserver::new(&model);
            sim.run(1e6, &mut rng, &mut trace).unwrap();
            assert_eq!(trace.events().len(), 1, "exactly one of the racers fires");
        }
    }

    #[test]
    fn event_budget_enforced() {
        let mut b = SanBuilder::new("pingpong");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("pq", Delay::Deterministic(0.5))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("qp", Delay::Deterministic(0.5))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = EventDrivenSimulator::new(&model).with_max_events(50);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            sim.run(1e9, &mut rng, &mut crate::NullObserver),
            Err(SimError::EventBudgetExceeded { budget: 50 })
        ));
    }

    #[test]
    fn watchdog_trips_on_instantaneous_cycle() {
        // A zero-delay ping-pong lints clean structurally but cycles
        // without advancing the clock; the watchdog catches it far
        // below the 10M default event budget.
        let mut b = SanBuilder::new("zeno");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("pq", Delay::Deterministic(0.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("qp", Delay::Deterministic(0.0))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim =
            EventDrivenSimulator::new(&model).with_watchdog(Watchdog::new().with_max_events(100));
        let mut rng = SmallRng::seed_from_u64(11);
        assert!(matches!(
            sim.run(1.0, &mut rng, &mut crate::NullObserver),
            Err(SimError::Runaway { events: 101, .. })
        ));
    }

    #[test]
    fn erlang_delay_matches_closed_form() {
        // A single Erlang(2, 2.0) activity: P(done by t) is the
        // Erlang CDF 1 - e^{-2t}(1 + 2t).
        let mut b = SanBuilder::new("erlang");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("step", Delay::Erlang { k: 2, rate: 2.0 })
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = EventDrivenSimulator::new(&model);
        let mut rng = SmallRng::seed_from_u64(9);
        let t = 1.0;
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| {
                sim.run_first_passage(|m| m.is_marked(q), t, &mut rng)
                    .unwrap()
                    .hit_time
                    .is_some()
            })
            .count();
        let p_hat = hits as f64 / f64::from(n);
        let exact = 1.0 - (-2.0_f64).exp() * (1.0 + 2.0);
        assert!((p_hat - exact).abs() < 0.012, "{p_hat} vs {exact}");
    }

    #[test]
    fn weibull_reduces_to_exponential_at_shape_one() {
        let mut b = SanBuilder::new("weibull");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity(
            "step",
            Delay::Weibull {
                shape: 1.0,
                scale: 0.5,
            },
        )
        .unwrap()
        .input_place(p)
        .output_place(q)
        .build()
        .unwrap();
        let model = b.build().unwrap();
        let sim = EventDrivenSimulator::new(&model);
        let mut rng = SmallRng::seed_from_u64(10);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| {
                sim.run_first_passage(|m| m.is_marked(q), 1.0, &mut rng)
                    .unwrap()
                    .hit_time
                    .is_some()
            })
            .count();
        // Scale 0.5 at shape 1 is an exponential with rate 2.
        let exact = 1.0 - (-2.0_f64).exp();
        let p_hat = hits as f64 / f64::from(n);
        assert!((p_hat - exact).abs() < 0.012, "{p_hat} vs {exact}");
    }

    #[test]
    fn agrees_with_markov_backend_on_exponential_model() {
        use crate::ssa::MarkovSimulator;
        let (model, down) = single_failure(0.7);
        let ed = EventDrivenSimulator::new(&model);
        let mk = MarkovSimulator::new(&model).unwrap();
        let mut rng1 = SmallRng::seed_from_u64(5);
        let mut rng2 = SmallRng::seed_from_u64(6);
        let n = 20_000;
        let hits_ed = (0..n)
            .filter(|_| {
                ed.run_first_passage(|m| m.is_marked(down), 1.0, &mut rng1)
                    .unwrap()
                    .hit_time
                    .is_some()
            })
            .count() as f64
            / f64::from(n);
        let hits_mk = (0..n)
            .filter(|_| {
                mk.run_first_passage(|m| m.is_marked(down), 1.0, &mut rng2)
                    .unwrap()
                    .hit_time
                    .is_some()
            })
            .count() as f64
            / f64::from(n);
        assert!(
            (hits_ed - hits_mk).abs() < 0.015,
            "backends disagree: {hits_ed} vs {hits_mk}"
        );
    }
}
