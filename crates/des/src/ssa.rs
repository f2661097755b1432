//! Gillespie/SSA execution of Markovian SANs with exact
//! likelihood-ratio importance sampling.

use std::cell::Cell;
use std::sync::Arc;

use ahs_obs::Metrics;
use ahs_san::{ActivityId, Delay, EnablementCache, Marking, RateFn, RateGroupId, SanModel, Timing};
use rand::Rng;

use crate::bias::BiasScheme;
use crate::error::SimError;
use crate::observer::Observer;
use crate::run::{FirstPassage, GridObservations, Observed, RunMode, RunTally, DEFAULT_MAX_EVENTS};
use crate::watchdog::Watchdog;

/// Outcome of one first-passage replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// First time the target predicate held, if within the horizon.
    pub hit_time: Option<f64>,
    /// Likelihood ratio accumulated up to the hit (exactly `1.0` for an
    /// unbiased run). Meaningless when `hit_time` is `None`.
    pub hit_weight: f64,
    /// Time at which the run ended (hit time, or the horizon).
    pub end_time: f64,
    /// Likelihood ratio at the end of the run (diagnostics; its mean
    /// over replications is 1 for a proper change of measure).
    pub final_weight: f64,
    /// Number of activity completions executed (timed only).
    pub events: u64,
}

/// Stochastic-simulation-algorithm executor.
///
/// At each stable marking the executor computes the enabled timed
/// activities and their exponential rates, samples the sojourn from the
/// total rate and the winner proportionally to rate — the embedded-chain
/// view of the CTMC semantics of a Markovian SAN. Instantaneous
/// activities complete through [`SanModel::stabilize`] without advancing
/// time.
///
/// With a [`BiasScheme`], sampling uses multiplied rates and the
/// executor tracks the exact path likelihood ratio
/// `dP/dQ = Π (rᵢ/r'ᵢ) · exp(-(R-R')τ)` per step (plus the survival
/// factor of the final, event-free interval), yielding unbiased
/// importance-sampling estimates.
pub struct MarkovSimulator<'m> {
    model: &'m SanModel,
    bias: Option<BiasScheme>,
    max_events: u64,
    // The model's timed activity list, cached to iterate without an
    // indirection; all per-slot tables below are index-aligned with it.
    timed: Vec<ActivityId>,
    // How each timed slot's exponential rate is found in the sweep.
    slot_rates: Vec<SlotRate>,
    // Bias multiplier per timed slot, or `None` when unbiased.
    bias_mult: Vec<Option<f64>>,
    // Run-to-run scratch (enablement cache + rate table), parked here
    // between runs so the hot loop allocates nothing. `Cell` keeps the
    // run methods `&self`; a run that panics simply loses its scratch
    // and the next run rebuilds it.
    scratch: Cell<Option<Box<SsaScratch>>>,
    metrics: Option<Arc<Metrics>>,
    watchdog: Option<Watchdog>,
}

/// Where a timed slot's exponential rate comes from.
#[derive(Debug, Clone, Copy)]
enum SlotRate {
    /// A constant rate.
    Const(f64),
    /// A shared group rate, resolved once per step from the cache's
    /// enabled-member count.
    Shared(RateGroupId),
    /// A marking-dependent closure, evaluated on every sweep.
    Closure,
}

/// Per-run mutable state of the SSA hot loop, reused across runs. The
/// forced-schedule replay (`replay.rs`) borrows only its cache.
pub(crate) struct SsaScratch {
    pub(crate) cache: EnablementCache,
    rates: Vec<(ActivityId, f64, f64)>,
    /// Per-member rate of each shared-rate group in the current step.
    group_rates: Vec<f64>,
}

impl<'m> MarkovSimulator<'m> {
    /// Creates an executor for `model`.
    ///
    /// # Errors
    ///
    /// None today: every timed activity is exponential by
    /// construction. The `Result` keeps the constructor's signature
    /// stable for callers that propagate it.
    pub fn new(model: &'m SanModel) -> Result<Self, SimError> {
        let slot_rates = model
            .timed_activities()
            .iter()
            .map(|&a| match model.activity(a).timing() {
                Timing::Timed(Delay::Exponential(RateFn::Const(r))) => SlotRate::Const(*r),
                Timing::Timed(Delay::Exponential(RateFn::Shared(g))) => SlotRate::Shared(*g),
                _ => SlotRate::Closure,
            })
            .collect();
        Ok(MarkovSimulator {
            model,
            bias: None,
            max_events: DEFAULT_MAX_EVENTS,
            timed: model.timed_activities().to_vec(),
            slot_rates,
            bias_mult: vec![None; model.timed_activities().len()],
            scratch: Cell::new(None),
            metrics: None,
            watchdog: None,
        })
    }

    /// Attaches an importance-sampling scheme.
    #[must_use]
    pub fn with_bias(mut self, bias: BiasScheme) -> Self {
        self.bias = if bias.is_identity() { None } else { Some(bias) };
        self.bias_mult = match &self.bias {
            Some(b) => self
                .timed
                .iter()
                .map(|&a| b.is_registered(a).then(|| b.multiplier(a)))
                .collect(),
            None => vec![None; self.timed.len()],
        };
        self
    }

    /// Overrides the per-replication event budget.
    #[must_use]
    pub fn with_max_events(mut self, budget: u64) -> Self {
        self.max_events = budget;
        self
    }

    /// Attaches a telemetry sink; per-run tallies (completions by
    /// kind, cascades, likelihood-ratio weights) are flushed into it
    /// once per replication.
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

    /// Retrieves the parked scratch or builds a fresh one (first run,
    /// or the previous run panicked mid-flight).
    pub(crate) fn take_scratch(&self) -> Box<SsaScratch> {
        if let Some(s) = self.scratch.take() {
            return s;
        }
        Box::new(SsaScratch {
            cache: self.model.new_cache(),
            rates: Vec::with_capacity(self.timed.len()),
            group_rates: vec![0.0; self.model.rate_groups().len()],
        })
    }

    /// Parks the scratch for the next run.
    pub(crate) fn park_scratch(&self, scratch: Box<SsaScratch>) {
        self.scratch.set(Some(scratch));
    }

    fn rate_of(&self, a: ActivityId, m: &Marking) -> Result<f64, SimError> {
        // `a` is a timed slot, so it has a rate; a `None` here is an
        // engine bug, surfaced as a typed error so a study fails
        // cleanly instead of panicking a worker.
        let r = self
            .model
            .exponential_rate(a, m)
            .ok_or_else(|| SimError::Internal {
                context: format!(
                    "timed activity `{}` has no exponential rate",
                    self.model.activity(a).name()
                ),
            })?;
        if !r.is_finite() || r < 0.0 {
            return Err(SimError::InvalidRate {
                activity: self.model.activity(a).name().to_owned(),
                rate: r,
            });
        }
        Ok(r)
    }

    /// Runs one replication until `target` first holds or `horizon` is
    /// reached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExceeded`], [`SimError::InvalidRate`],
    /// or a wrapped [`SanError`](ahs_san::SanError) from stabilization.
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
        self.run_first_passage_from(
            self.model.initial_marking().clone(),
            0.0,
            target,
            horizon,
            rng,
        )
        .map(|(outcome, _)| outcome)
    }

    /// Runs one replication from an explicit starting state `(marking,
    /// t0)` — the primitive behind restart-based methods such as
    /// multilevel splitting. Returns the outcome together with the
    /// final marking (the state at the hit, or at the horizon).
    ///
    /// # Errors
    ///
    /// Same failure modes as
    /// [`run_first_passage`](MarkovSimulator::run_first_passage).
    ///
    /// # Panics
    ///
    /// Panics if `t0 > horizon` or `t0` is negative or non-finite.
    pub fn run_first_passage_from<R, F>(
        &self,
        start: Marking,
        t0: f64,
        target: F,
        horizon: f64,
        rng: &mut R,
    ) -> Result<(RunOutcome, Marking), SimError>
    where
        R: Rng + ?Sized,
        F: Fn(&Marking) -> bool,
    {
        assert!(
            t0.is_finite() && t0 >= 0.0 && t0 <= horizon,
            "start time {t0} must lie in [0, {horizon}]"
        );
        self.run_mode(start, t0, horizon, rng, &mut FirstPassage(target))
    }

    /// Runs one replication observing `pred` at each grid instant,
    /// returning per-instant `(indicator, likelihood ratio at that
    /// instant)` pairs. The run ends at the last instant.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidGrid`] unless the grid is non-empty,
    /// finite, non-negative and strictly increasing; otherwise the same
    /// failure modes as
    /// [`run_first_passage`](MarkovSimulator::run_first_passage).
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
        let start = self.model.initial_marking().clone();
        self.run_mode(start, 0.0, obs.horizon(), rng, &mut obs)?;
        Ok(obs.into_observations())
    }

    /// Runs one unbiased replication to `horizon`, reporting every
    /// event to `observer`. Ends early if the observer requests a stop
    /// or the model deadlocks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BiasedObserver`] if a bias is attached: the
    /// observer would see the biased measure with no likelihood ratio.
    /// Otherwise the same failure modes as
    /// [`run_first_passage`](MarkovSimulator::run_first_passage).
    pub fn run_with_observer<R, O>(
        &self,
        horizon: f64,
        rng: &mut R,
        observer: &mut O,
    ) -> Result<f64, SimError>
    where
        R: Rng + ?Sized,
        O: Observer + ?Sized,
    {
        if self.bias.is_some() {
            return Err(SimError::BiasedObserver);
        }
        let start = self.model.initial_marking().clone();
        let (outcome, _) = self.run_mode(start, 0.0, horizon, rng, &mut Observed(observer))?;
        Ok(outcome.end_time)
    }

    /// Runs [`run_loop`](MarkovSimulator::run_loop) on the parked
    /// scratch.
    fn run_mode<R, M>(
        &self,
        start: Marking,
        t0: f64,
        horizon: f64,
        rng: &mut R,
        mode: &mut M,
    ) -> Result<(RunOutcome, Marking), SimError>
    where
        R: Rng + ?Sized,
        M: RunMode,
    {
        let mut scratch = self.take_scratch();
        let result = self.run_loop(start, t0, horizon, rng, mode, &mut scratch);
        self.park_scratch(scratch);
        result
    }

    /// The SSA loop every mode runs: stabilize, then per step sum the
    /// enabled rates, sample the sojourn, let the mode observe up to
    /// the next event, pick the winner, select its case, fire and
    /// stabilize. The likelihood ratio takes each sojourn as the
    /// sampled `tau`, plus the survival factor of the final interval.
    fn run_loop<R, M>(
        &self,
        mut marking: Marking,
        t0: f64,
        horizon: f64,
        rng: &mut R,
        mode: &mut M,
        scratch: &mut SsaScratch,
    ) -> Result<(RunOutcome, Marking), SimError>
    where
        R: Rng + ?Sized,
        M: RunMode,
    {
        self.model.prime_cache(&mut scratch.cache, &marking);
        let fired = self
            .model
            .stabilize_cached(&mut marking, rng, &mut scratch.cache)?;
        let mut tally = RunTally::new(self.max_events, self.watchdog);
        tally.cascade(fired);
        mode.start(&marking);
        for &a in scratch.cache.fired() {
            mode.on_event(t0, a, &marking);
        }
        let mut t = t0;
        let mut log_lr = 0.0_f64;

        let stopped = loop {
            if mode.stop(t, &marking) {
                break true;
            }
            let (total_true, total_biased) = self.enabled_rates(&marking, scratch)?;
            let excess = total_true - total_biased;
            let deadlock = total_biased <= 0.0;
            let tau = if deadlock {
                f64::INFINITY
            } else {
                sample_exp(total_biased, rng)
            };
            let t_next = t + tau;
            let done = mode.before_event(t_next.min(horizon), &marking, |g| {
                (log_lr - excess * (g - t)).exp()
            });
            if deadlock {
                // Nothing can ever happen again.
                break false;
            }
            if done || t_next > horizon {
                // Survival of the final interval under both measures.
                log_lr -= excess * (horizon - t);
                break false;
            }
            let (a, r_true, r_biased) =
                pick_weighted(&scratch.rates, total_biased, rng).ok_or_else(empty_rate_table)?;
            log_lr += (r_true / r_biased).ln() - excess * tau;
            t = t_next;

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
            tally.step()?;
        };

        let end_time = if stopped { t } else { horizon };
        let weight = log_lr.exp();
        mode.end(end_time, &marking);
        tally.flush(self.metrics.as_deref(), weight);
        Ok((
            RunOutcome {
                hit_time: stopped.then_some(t),
                hit_weight: if stopped { weight } else { 0.0 },
                end_time,
                final_weight: weight,
                events: tally.events,
            },
            marking,
        ))
    }

    /// Collects `(activity, true rate, biased rate)` for all enabled
    /// timed activities into `scratch.rates` (cleared first) and
    /// returns the two totals.
    ///
    /// Enabledness comes from the cache's enabled-slot bitset (kept
    /// current by the firing path), so only enabled slots are visited,
    /// and a shared group rate is resolved once per step from the
    /// cache's member count — no closure runs for the paper models. The
    /// totals are still accumulated afresh every step in ascending slot
    /// order, never updated incrementally, so floating-point summation
    /// order — and therefore every sampled variate — is bitwise
    /// identical to a sweep over every timed slot.
    fn enabled_rates(
        &self,
        marking: &Marking,
        scratch: &mut SsaScratch,
    ) -> Result<(f64, f64), SimError> {
        let SsaScratch {
            cache,
            rates,
            group_rates,
        } = scratch;
        rates.clear();
        for (g, rate) in self.model.rate_group_ids().zip(group_rates.iter_mut()) {
            *rate = self.model.rate_group(g).member_rate(cache.group_enabled(g));
        }
        let mut total_true = 0.0;
        let mut total_biased = 0.0;
        let state_factor = self.bias.as_ref().map_or(1.0, |b| b.state_factor(marking));
        for (w, &word) in cache.enabled_timed_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let r = match self.slot_rates[slot] {
                    SlotRate::Const(r) => r,
                    SlotRate::Shared(g) => group_rates[g.index()],
                    SlotRate::Closure => self.rate_of(self.timed[slot], marking)?,
                };
                if r == 0.0 {
                    continue;
                }
                let rb = match self.bias_mult[slot] {
                    Some(mult) => r * mult * state_factor,
                    None => r,
                };
                total_true += r;
                total_biased += rb;
                rates.push((self.timed[slot], r, rb));
            }
        }
        Ok((total_true, total_biased))
    }
}

impl std::fmt::Debug for MarkovSimulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarkovSimulator")
            .field("model", &self.model.name())
            .field("biased", &self.bias.is_some())
            .finish_non_exhaustive()
    }
}

fn sample_exp<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Picks an entry proportionally to its biased rate; returns the
/// activity with its true and biased rates.
fn pick_weighted<R: Rng + ?Sized>(
    rates: &[(ActivityId, f64, f64)],
    total_biased: f64,
    rng: &mut R,
) -> Option<(ActivityId, f64, f64)> {
    let mut u: f64 = rng.random::<f64>() * total_biased;
    for &(a, r, rb) in rates {
        if u < rb {
            return Some((a, r, rb));
        }
        u -= rb;
    }
    rates.last().copied()
}

/// Invariant violation: a positive total rate was computed but the rate
/// table turned out to be empty when an activity was drawn from it.
fn empty_rate_table() -> SimError {
    SimError::Internal {
        context: "positive total rate with an empty rate table".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};
    use ahs_stats::WeightedStats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Single exponential failure: P(hit by t) = 1 - exp(-λ t).
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
    fn unbiased_first_passage_matches_closed_form() {
        let (model, down) = single_failure(0.5);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let horizon = 2.0;
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| {
                sim.run_first_passage(|m| m.is_marked(down), horizon, &mut rng)
                    .unwrap()
                    .hit_time
                    .is_some()
            })
            .count();
        let p_hat = hits as f64 / f64::from(n);
        let p = 1.0 - (-0.5_f64 * 2.0).exp();
        assert!((p_hat - p).abs() < 0.01, "estimate {p_hat}, truth {p}");
    }

    #[test]
    fn biased_estimator_is_unbiased_for_rare_event() {
        // λ = 1e-4 over horizon 1: p ≈ 1e-4. Bias ×1000.
        let (model, down) = single_failure(1e-4);
        let fail = model.find_activity("fail").unwrap();
        let sim = MarkovSimulator::new(&model)
            .unwrap()
            .with_bias(BiasScheme::new().with_multiplier(fail, 1000.0));
        let mut rng = SmallRng::seed_from_u64(2);
        let mut est = WeightedStats::new();
        for _ in 0..20_000 {
            let out = sim
                .run_first_passage(|m| m.is_marked(down), 1.0, &mut rng)
                .unwrap();
            match out.hit_time {
                Some(_) => est.push(1.0, out.hit_weight),
                None => est.push(0.0, 1.0),
            }
        }
        let truth = 1.0 - (-1e-4_f64).exp();
        let rel = (est.mean() - truth).abs() / truth;
        assert!(
            rel < 0.05,
            "IS estimate {} vs truth {truth} (rel err {rel})",
            est.mean()
        );
        // Plain MC with the same effort would see ~2 hits; IS sees many.
        assert!(est.effective_sample_size() > 100.0);
    }

    #[test]
    fn mean_final_weight_is_one_under_bias() {
        let (model, _) = single_failure(0.2);
        let fail = model.find_activity("fail").unwrap();
        let sim = MarkovSimulator::new(&model)
            .unwrap()
            .with_bias(BiasScheme::new().with_multiplier(fail, 10.0));
        let mut rng = SmallRng::seed_from_u64(3);
        let mut mean_w = 0.0;
        let n = 50_000;
        for _ in 0..n {
            let out = sim.run_first_passage(|_| false, 1.0, &mut rng).unwrap();
            mean_w += out.final_weight;
        }
        mean_w /= f64::from(n);
        assert!(
            (mean_w - 1.0).abs() < 0.03,
            "mean likelihood ratio {mean_w} should be 1"
        );
    }

    #[test]
    fn transient_probabilities_match_closed_form() {
        let (model, down) = single_failure(1.0);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let grid = [0.5, 1.0, 2.0];
        let mut sums = [0.0_f64; 3];
        let n = 20_000;
        for _ in 0..n {
            let obs = sim
                .run_transient(|m| m.is_marked(down), &grid, &mut rng)
                .unwrap();
            for (i, (v, w)) in obs.iter().enumerate() {
                sums[i] += v * w;
            }
        }
        for (i, &g) in grid.iter().enumerate() {
            let p_hat = sums[i] / f64::from(n);
            let p = 1.0 - (-g).exp();
            assert!(
                (p_hat - p).abs() < 0.02,
                "t={g}: estimate {p_hat}, truth {p}"
            );
        }
    }

    #[test]
    fn biased_transient_matches_closed_form() {
        let (model, down) = single_failure(1e-3);
        let fail = model.find_activity("fail").unwrap();
        let sim = MarkovSimulator::new(&model)
            .unwrap()
            .with_bias(BiasScheme::new().with_multiplier(fail, 200.0));
        let mut rng = SmallRng::seed_from_u64(5);
        let grid = [1.0, 2.0];
        let mut est = [WeightedStats::new(), WeightedStats::new()];
        for _ in 0..30_000 {
            let obs = sim
                .run_transient(|m| m.is_marked(down), &grid, &mut rng)
                .unwrap();
            for (i, (v, w)) in obs.iter().enumerate() {
                est[i].push(*v, *w);
            }
        }
        for (i, &g) in grid.iter().enumerate() {
            let truth = 1.0 - (-1e-3 * g).exp();
            let rel = (est[i].mean() - truth).abs() / truth;
            assert!(
                rel < 0.1,
                "t={g}: IS estimate {} vs truth {truth}",
                est[i].mean()
            );
        }
    }

    #[test]
    fn deadlock_ends_run_cleanly() {
        let (model, down) = single_failure(100.0);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        // After the failure fires, nothing is enabled; target never
        // holds, so the run must end at the horizon without spinning.
        let out = sim.run_first_passage(|_| false, 1000.0, &mut rng).unwrap();
        assert_eq!(out.hit_time, None);
        assert_eq!(out.end_time, 1000.0);
        assert_eq!(out.events, 1);
        let _ = model.find_place("down").unwrap();
        let _ = down;
    }

    /// Two places ping-ponging a token at rate 1e3 forever.
    fn ping_pong() -> ahs_san::SanModel {
        let mut b = SanBuilder::new("pingpong");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("pq", Delay::exponential(1e3))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("qp", Delay::exponential(1e3))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn event_budget_enforced() {
        let model = ping_pong();
        let sim = MarkovSimulator::new(&model).unwrap().with_max_events(100);
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(matches!(
            sim.run_first_passage(|_| false, 1e9, &mut rng),
            Err(SimError::EventBudgetExceeded { budget: 100 })
        ));
    }

    #[test]
    fn watchdog_trips_on_a_runaway_cycle() {
        // The armed watchdog stops the ping-pong far below the 10M
        // default event budget.
        let model = ping_pong();
        let sim = MarkovSimulator::new(&model)
            .unwrap()
            .with_watchdog(Watchdog::new().with_max_events(100));
        let mut rng = SmallRng::seed_from_u64(11);
        assert!(matches!(
            sim.run_with_observer(1e9, &mut rng, &mut crate::NullObserver),
            Err(SimError::Runaway { events: 101, .. })
        ));
    }

    #[test]
    fn bad_grid_is_a_typed_error() {
        let (model, down) = single_failure(1.0);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
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
    fn biased_observer_run_is_a_typed_error() {
        let (model, _) = single_failure(1.0);
        let fail = model.find_activity("fail").unwrap();
        let sim = MarkovSimulator::new(&model)
            .unwrap()
            .with_bias(BiasScheme::new().with_multiplier(fail, 10.0));
        let mut rng = SmallRng::seed_from_u64(10);
        assert_eq!(
            sim.run_with_observer(1.0, &mut rng, &mut crate::NullObserver),
            Err(SimError::BiasedObserver)
        );
    }

    #[test]
    fn immediate_hit_at_time_zero() {
        let (model, _) = single_failure(1.0);
        let sim = MarkovSimulator::new(&model).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let out = sim.run_first_passage(|_| true, 5.0, &mut rng).unwrap();
        assert_eq!(out.hit_time, Some(0.0));
        assert_eq!(out.hit_weight, 1.0);
    }
}
