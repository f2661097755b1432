//! Forced-schedule replay: deterministic re-execution of an explicit
//! firing trace on the SSA executor's enablement cache.
//!
//! The model checker (`ahs-check`) proves properties over the marking
//! graph and, on a violation, emits a counterexample as an ordered list
//! of `(activity, case)` firings. This module is the dynamic half of
//! that story: [`MarkovSimulator::run_forced_schedule`] replays
//! such a trace step by step — validating at every step that the firing
//! is genuinely possible under the executor's own enabling semantics
//! (shared [`EnablementCache`](ahs_san::EnablementCache) state, same
//! stabilization discipline) — and returns the marking the trace ends
//! in. A static finding that replays cleanly is confirmed dynamically;
//! a trace that diverges is reported with the exact step and reason.
//!
//! Timed steps advance the clock by a delay sampled from a seeded RNG
//! (the *seeded* forced schedule): the path through state space is
//! forced, the timestamps are a plausible sample, and the whole run is
//! reproducible from the seed. Delays come from the model's own rates;
//! a bias attached to the simulator plays no part.

use ahs_san::{ActivityId, EnablementCache, Marking, Timing};

use crate::error::SimError;
use crate::rng::replication_rng;
use crate::ssa::MarkovSimulator;

/// One forced firing: an activity and the case branch to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStep {
    /// The activity to fire.
    pub activity: ActivityId,
    /// Index of the case branch to take (0 for single-case activities).
    pub case: usize,
}

/// The result of a successful forced-schedule replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The marking after the final step.
    pub final_marking: Marking,
    /// Simulated clock after the final step (sum of sampled delays of
    /// the timed steps).
    pub end_time: f64,
    /// Number of timed firings taken.
    pub timed_firings: u64,
    /// Number of instantaneous firings taken.
    pub instantaneous_firings: u64,
    /// The marking after each step, in order (`trail.len() ==
    /// schedule.len()`); the initial marking is not included.
    pub trail: Vec<Marking>,
}

impl MarkovSimulator<'_> {
    /// Replays an explicit firing schedule from the initial marking,
    /// validating each step against the executor's enabling semantics:
    /// a timed step requires a stable marking and the activity enabled
    /// (per the shared enablement cache); an instantaneous step
    /// requires the activity among the *top-priority* enabled
    /// instantaneous activities; the chosen case must exist and have
    /// non-zero probability in the current marking.
    ///
    /// No stabilization happens implicitly — instantaneous firings are
    /// explicit steps of the schedule, exactly as the model checker's
    /// micro-step marking graph records them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Replay`] at the first step that cannot be
    /// taken, identifying the step index, activity, and reason.
    pub fn run_forced_schedule(
        &self,
        schedule: &[ReplayStep],
        seed: u64,
    ) -> Result<ReplayOutcome, SimError> {
        let mut scratch = self.take_scratch();
        let result = self.forced_inner(schedule, seed, &mut scratch.cache);
        self.park_scratch(scratch);
        result
    }

    fn forced_inner(
        &self,
        schedule: &[ReplayStep],
        seed: u64,
        cache: &mut EnablementCache,
    ) -> Result<ReplayOutcome, SimError> {
        let model = self.model();
        let mut rng = replication_rng(seed, 0);
        let mut marking = model.initial_marking().clone();
        model.prime_cache(cache, &marking);

        let mut t = 0.0_f64;
        let mut timed = 0_u64;
        let mut instantaneous = 0_u64;
        let mut trail = Vec::with_capacity(schedule.len());

        for (i, step) in schedule.iter().enumerate() {
            let act = model.activity(step.activity);
            let fail = |reason: String| SimError::Replay {
                step: i,
                activity: act.name().to_owned(),
                reason,
            };

            match act.timing() {
                Timing::Timed(_) => {
                    if !model.is_stable(&marking) {
                        return Err(fail(
                            "timed firing from an unstable marking (instantaneous \
                             activities are enabled and must fire first)"
                                .to_owned(),
                        ));
                    }
                    if !cache.is_enabled(step.activity) {
                        return Err(fail("activity is not enabled".to_owned()));
                    }
                    // Every timed activity is exponential, so the rate
                    // exists; a zero or non-finite one has no delay.
                    let rate = model
                        .exponential_rate_with(step.activity, &marking, |g| cache.group_enabled(g))
                        .unwrap_or(f64::NAN);
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(fail(format!(
                            "rate {rate} in this marking is not positive and finite, \
                             so no delay can be sampled"
                        )));
                    }
                }
                Timing::Instantaneous { .. } => {
                    if !model
                        .enabled_instantaneous(&marking)
                        .contains(&step.activity)
                    {
                        return Err(fail(
                            "activity is not among the top-priority enabled \
                             instantaneous activities"
                                .to_owned(),
                        ));
                    }
                }
            }

            let cases = act.cases();
            if step.case >= cases.len() {
                return Err(fail(format!(
                    "case index {} out of range (activity has {} case(s))",
                    step.case,
                    cases.len()
                )));
            }
            let p = cases[step.case].probability(&marking);
            if !(p.is_finite() && p > 0.0) {
                return Err(fail(format!(
                    "case {} has probability {p} in this marking and cannot be taken",
                    step.case
                )));
            }

            if matches!(act.timing(), Timing::Timed(_)) {
                t += model.sample_delay_cached(step.activity, &marking, &mut rng, cache);
                timed += 1;
            } else {
                instantaneous += 1;
            }
            model.fire_cached(step.activity, step.case, &mut marking, cache);
            trail.push(marking.clone());
        }

        Ok(ReplayOutcome {
            final_marking: marking,
            end_time: t,
            timed_firings: timed,
            instantaneous_firings: instantaneous,
            trail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder, SanModel};

    /// p0 --t--> p1 --i--> p2, one token.
    fn chain() -> (SanModel, [ahs_san::PlaceId; 3]) {
        let mut b = SanBuilder::new("chain");
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        let p2 = b.place("p2").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p0)
            .output_place(p1)
            .build()
            .unwrap();
        b.instant_activity("i", 0, 1.0)
            .unwrap()
            .input_place(p1)
            .output_place(p2)
            .build()
            .unwrap();
        (b.build().unwrap(), [p0, p1, p2])
    }

    fn activity_id(model: &SanModel, name: &str) -> ActivityId {
        model.find_activity(name).expect("activity exists")
    }

    #[test]
    fn replays_a_valid_trace_to_its_final_marking() {
        let (model, [p0, p1, p2]) = chain();
        let sim = MarkovSimulator::new(&model).unwrap();
        let schedule = [
            ReplayStep {
                activity: activity_id(&model, "t"),
                case: 0,
            },
            ReplayStep {
                activity: activity_id(&model, "i"),
                case: 0,
            },
        ];
        let out = sim.run_forced_schedule(&schedule, 7).unwrap();
        assert!(!out.final_marking.is_marked(p0));
        assert!(!out.final_marking.is_marked(p1));
        assert!(out.final_marking.is_marked(p2));
        assert_eq!(out.timed_firings, 1);
        assert_eq!(out.instantaneous_firings, 1);
        assert!(out.end_time > 0.0);
        assert_eq!(out.trail.len(), 2);
        assert!(out.trail[0].is_marked(p1), "intermediate unstable marking");
    }

    #[test]
    fn same_seed_reproduces_the_clock() {
        let (model, _) = chain();
        let sim = MarkovSimulator::new(&model).unwrap();
        let schedule = [ReplayStep {
            activity: activity_id(&model, "t"),
            case: 0,
        }];
        let a = sim.run_forced_schedule(&schedule, 42).unwrap();
        let b = sim.run_forced_schedule(&schedule, 42).unwrap();
        let c = sim.run_forced_schedule(&schedule, 43).unwrap();
        assert_eq!(a.end_time, b.end_time);
        assert_ne!(a.end_time, c.end_time);
    }

    #[test]
    fn rejects_a_disabled_instantaneous_step() {
        let (model, _) = chain();
        let sim = MarkovSimulator::new(&model).unwrap();
        let schedule = [ReplayStep {
            activity: activity_id(&model, "i"),
            case: 0,
        }];
        let err = sim.run_forced_schedule(&schedule, 0).unwrap_err();
        match err {
            SimError::Replay { step, activity, .. } => {
                assert_eq!(step, 0);
                assert_eq!(activity, "i");
            }
            other => panic!("expected Replay error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_timed_step_from_an_unstable_marking() {
        // Two tokens in p0: after the first `t` the marking is unstable
        // (p1 marked, `i` enabled); a second timed step must be refused.
        let mut b = SanBuilder::new("chain2");
        let p0 = b.place_with_tokens("p0", 2).unwrap();
        let p1 = b.place("p1").unwrap();
        let p2 = b.place("p2").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p0)
            .output_place(p1)
            .build()
            .unwrap();
        b.instant_activity("i", 0, 1.0)
            .unwrap()
            .input_place(p1)
            .output_place(p2)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = MarkovSimulator::new(&model).unwrap();
        let t = activity_id(&model, "t");
        let schedule = [
            ReplayStep {
                activity: t,
                case: 0,
            },
            ReplayStep {
                activity: t,
                case: 0,
            },
        ];
        let err = sim.run_forced_schedule(&schedule, 0).unwrap_err();
        match err {
            SimError::Replay { step, reason, .. } => {
                assert_eq!(step, 1);
                assert!(reason.contains("unstable"), "{reason}");
            }
            other => panic!("expected Replay error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_an_out_of_range_case() {
        let (model, _) = chain();
        let sim = MarkovSimulator::new(&model).unwrap();
        let schedule = [ReplayStep {
            activity: activity_id(&model, "t"),
            case: 5,
        }];
        let err = sim.run_forced_schedule(&schedule, 0).unwrap_err();
        match err {
            SimError::Replay { reason, .. } => {
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected Replay error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_timed_step_whose_rate_is_zero() {
        let mut b = SanBuilder::new("stalled");
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        b.timed_activity("t", Delay::exponential_fn(|_| 0.0))
            .unwrap()
            .input_place(p0)
            .output_place(p1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = MarkovSimulator::new(&model).unwrap();
        let schedule = [ReplayStep {
            activity: activity_id(&model, "t"),
            case: 0,
        }];
        match sim.run_forced_schedule(&schedule, 0).unwrap_err() {
            SimError::Replay { step, reason, .. } => {
                assert_eq!(step, 0);
                assert!(reason.contains("rate 0 "), "{reason}");
            }
            other => panic!("expected Replay error, got {other:?}"),
        }
    }

    /// Two components whose failures share one group rate, a constant
    /// repair, a marking-dependent restart and an instantaneous latch.
    fn shared_rate_fixture() -> SanModel {
        let mut b = SanBuilder::new("replay-pin");
        let group = b.shared_rate_group("fail", 1.5).unwrap();
        let ups = [
            b.place_with_tokens("up0", 1).unwrap(),
            b.place_with_tokens("up1", 1).unwrap(),
        ];
        let dns = [b.place("dn0").unwrap(), b.place("dn1").unwrap()];
        let ko = b.place("ko").unwrap();
        for i in 0..2 {
            b.timed_activity(&format!("fail{i}"), Delay::shared(group))
                .unwrap()
                .input_place(ups[i])
                .output_place(dns[i])
                .build()
                .unwrap();
        }
        b.timed_activity("repair0", Delay::exponential(2.0))
            .unwrap()
            .input_place(dns[0])
            .output_place(ups[0])
            .build()
            .unwrap();
        let all_down = b.predicate_gate_touching("all_down", vec![dns[0], dns[1], ko], move |m| {
            dns.iter().all(|&p| m.is_marked(p)) && !m.is_marked(ko)
        });
        b.instant_activity("latch", 0, 1.0)
            .unwrap()
            .input_gate(all_down)
            .output_place(ko)
            .build()
            .unwrap();
        b.timed_activity(
            "restart",
            Delay::exponential_fn(move |m| 0.25 + m.tokens(dns[1]) as f64),
        )
        .unwrap()
        .input_place(ko)
        .output_place(ups[0])
        .build()
        .unwrap();
        b.build().unwrap()
    }

    /// The clock and final marking of a fixed replay are pinned to the
    /// bit: the sampled delays of shared-rate, constant and
    /// marking-dependent steps must not drift.
    #[test]
    fn replay_reproduces_its_pinned_clock_and_marking() {
        let model = shared_rate_fixture();
        let sim = MarkovSimulator::new(&model).unwrap();
        let schedule: Vec<ReplayStep> = ["fail0", "repair0", "fail1", "fail0", "latch", "restart"]
            .iter()
            .map(|name| ReplayStep {
                activity: activity_id(&model, name),
                case: 0,
            })
            .collect();
        let out = sim.run_forced_schedule(&schedule, 0x5EED).unwrap();
        assert_eq!(out.timed_firings, 5);
        assert_eq!(out.instantaneous_firings, 1);
        let tokens: Vec<u64> = model
            .place_ids()
            .map(|p| out.final_marking.tokens(p))
            .collect();
        assert_eq!(out.end_time.to_bits(), 0x4009_a07d_a52e_52fd);
        assert_eq!(tokens, [1, 0, 1, 1, 0]);
        assert_eq!(out.final_marking.fingerprint(), 0x5f41_99cb_42dc_587b);
    }

    #[test]
    fn empty_schedule_ends_at_the_initial_marking() {
        let (model, [p0, ..]) = chain();
        let sim = MarkovSimulator::new(&model).unwrap();
        let out = sim.run_forced_schedule(&[], 0).unwrap();
        assert!(out.final_marking.is_marked(p0));
        assert_eq!(out.end_time, 0.0);
        assert!(out.trail.is_empty());
    }
}
