//! The finalized SAN model and its execution semantics.

use std::collections::HashMap;

use rand::Rng;

use crate::activity::{Activity, ActivityId, Timing};
use crate::delay::{Delay, RateFn, RateGroup, RateGroupId};
use crate::depgraph::DependencyGraph;
use crate::error::SanError;
use crate::gate::{InputGate, InputGateId, OutputGate, OutputGateId};
use crate::marking::Marking;
use crate::place::{PlaceDecl, PlaceId};

/// Maximum instantaneous firings in one stabilization cascade before the
/// model is declared livelocked.
pub(crate) const MAX_INSTANT_FIRINGS: usize = 100_000;

/// A finalized stochastic activity network.
///
/// Built by [`SanBuilder`](crate::SanBuilder). The model is immutable;
/// all state lives in [`Marking`] values, so a single model can be
/// simulated from many threads concurrently.
///
/// ## Firing semantics
///
/// An activity is *enabled* in a marking iff every input arc's place
/// holds at least the arc's token count and every attached input-gate
/// predicate holds. On completion, in order:
///
/// 1. input-arc tokens are removed;
/// 2. input-gate marking functions run (declaration order);
/// 3. a case is selected from the case distribution;
/// 4. the case's output arcs deposit tokens;
/// 5. the case's output-gate functions run (declaration order).
///
/// Instantaneous activities complete before any timed activity; among
/// enabled instantaneous activities the highest priority fires first,
/// ties broken proportionally to weight.
pub struct SanModel {
    name: String,
    places: Vec<PlaceDecl>,
    input_gates: Vec<InputGate>,
    output_gates: Vec<OutputGate>,
    activities: Vec<Activity>,
    initial: Marking,
    timed: Vec<ActivityId>,
    instantaneous: Vec<ActivityId>,
    rate_groups: Vec<RateGroup>,
    depgraph: DependencyGraph,
    place_lookup: HashMap<String, usize>,
    activity_lookup: HashMap<String, usize>,
}

impl SanModel {
    pub(crate) fn new(
        name: String,
        places: Vec<PlaceDecl>,
        input_gates: Vec<InputGate>,
        output_gates: Vec<OutputGate>,
        activities: Vec<Activity>,
        mut rate_groups: Vec<RateGroup>,
        initial: Marking,
    ) -> Self {
        let mut timed = Vec::new();
        let mut instantaneous = Vec::new();
        for (i, a) in activities.iter().enumerate() {
            match &a.timing {
                Timing::Instantaneous { .. } => instantaneous.push(ActivityId(i)),
                Timing::Timed(d) => {
                    if let Delay::Exponential(RateFn::Shared(g)) = d {
                        rate_groups[g.0].members.push(ActivityId(i));
                    }
                    timed.push(ActivityId(i));
                }
            }
        }
        let depgraph =
            DependencyGraph::build(&activities, &input_gates, &output_gates, places.len());
        let place_lookup = places
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        let activity_lookup = activities
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        SanModel {
            name,
            places,
            input_gates,
            output_gates,
            activities,
            initial,
            timed,
            instantaneous,
            rate_groups,
            depgraph,
            place_lookup,
            activity_lookup,
        }
    }

    /// The model's static dependency graph: declared read/write sets per
    /// activity and the derived `affects` relation used for incremental
    /// enablement (see the `enablement` module and `docs/performance.md`).
    pub fn dependency_graph(&self) -> &DependencyGraph {
        &self.depgraph
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of activities.
    pub fn num_activities(&self) -> usize {
        self.activities.len()
    }

    /// Place declarations.
    pub fn places(&self) -> &[PlaceDecl] {
        &self.places
    }

    /// Handles of every place, in declaration order.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(PlaceId)
    }

    /// The fully-qualified name of a place.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from another model and is out of range.
    pub fn place_name(&self, p: PlaceId) -> &str {
        self.places[p.0].name()
    }

    /// All input gates, indexable by [`InputGateId`].
    pub fn input_gates(&self) -> &[InputGate] {
        &self.input_gates
    }

    /// All output gates, indexable by [`OutputGateId`].
    pub fn output_gates(&self) -> &[OutputGate] {
        &self.output_gates
    }

    /// The input gate behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from another model and is out of range.
    pub fn input_gate(&self, g: InputGateId) -> &InputGate {
        &self.input_gates[g.0]
    }

    /// The output gate behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from another model and is out of range.
    pub fn output_gate(&self, g: OutputGateId) -> &OutputGate {
        &self.output_gates[g.0]
    }

    /// All activities.
    pub fn activities(&self) -> &[Activity] {
        &self.activities
    }

    /// The activity behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from another model and is out of range.
    pub fn activity(&self, a: ActivityId) -> &Activity {
        &self.activities[a.0]
    }

    /// Timed activity handles.
    pub fn timed_activities(&self) -> &[ActivityId] {
        &self.timed
    }

    /// Instantaneous activity handles.
    pub fn instantaneous_activities(&self) -> &[ActivityId] {
        &self.instantaneous
    }

    /// The shared-rate groups, indexable by [`RateGroupId`].
    pub fn rate_groups(&self) -> &[RateGroup] {
        &self.rate_groups
    }

    /// Handles of every shared-rate group, in declaration order.
    pub fn rate_group_ids(&self) -> impl Iterator<Item = RateGroupId> + '_ {
        (0..self.rate_groups.len()).map(RateGroupId)
    }

    /// The shared-rate group behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from another model and is out of range.
    pub fn rate_group(&self, g: RateGroupId) -> &RateGroup {
        &self.rate_groups[g.0]
    }

    /// Number of members of group `g` enabled in `marking`, counted
    /// from scratch (an [`EnablementCache`](crate::EnablementCache)
    /// answers the same question from its bitset).
    pub fn group_enabled_count(&self, g: RateGroupId, marking: &Marking) -> usize {
        self.rate_groups[g.0]
            .members
            .iter()
            .filter(|&&a| self.is_enabled(a, marking))
            .count()
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial
    }

    /// Looks up a place handle by fully-qualified name (O(1)).
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.place_lookup.get(name).map(|&i| PlaceId(i))
    }

    /// Looks up an activity handle by fully-qualified name (O(1)).
    pub fn find_activity(&self, name: &str) -> Option<ActivityId> {
        self.activity_lookup.get(name).map(|&i| ActivityId(i))
    }

    /// Whether activity `a` is enabled in `marking`.
    pub fn is_enabled(&self, a: ActivityId, marking: &Marking) -> bool {
        let act = &self.activities[a.0];
        act.input_arcs.iter().all(|(p, n)| marking.tokens(*p) >= *n)
            && act
                .input_gates
                .iter()
                .all(|g| self.input_gates[g.0].holds(marking))
    }

    /// All enabled timed activities.
    pub fn enabled_timed(&self, marking: &Marking) -> Vec<ActivityId> {
        self.timed
            .iter()
            .copied()
            .filter(|a| self.is_enabled(*a, marking))
            .collect()
    }

    /// Enabled instantaneous activities restricted to the highest
    /// enabled priority level (the set eligible to fire next).
    pub fn enabled_instantaneous(&self, marking: &Marking) -> Vec<ActivityId> {
        let mut best: Option<u32> = None;
        let mut out = Vec::new();
        for &a in &self.instantaneous {
            if !self.is_enabled(a, marking) {
                continue;
            }
            let Timing::Instantaneous { priority, .. } = self.activities[a.0].timing else {
                unreachable!("instantaneous list contains only instantaneous activities");
            };
            match best {
                Some(b) if priority < b => {}
                Some(b) if priority == b => out.push(a),
                _ => {
                    best = Some(priority);
                    out.clear();
                    out.push(a);
                }
            }
        }
        out
    }

    /// Whether no instantaneous activity is enabled (the marking is
    /// *stable* and time may advance).
    pub fn is_stable(&self, marking: &Marking) -> bool {
        self.instantaneous
            .iter()
            .all(|&a| !self.is_enabled(a, marking))
    }

    /// Exponential firing rate of a timed activity in a marking, or
    /// `None` if the activity is instantaneous. A shared
    /// group rate is split over the members enabled in `marking`.
    pub fn exponential_rate(&self, a: ActivityId, marking: &Marking) -> Option<f64> {
        self.exponential_rate_with(a, marking, |g| self.group_enabled_count(g, marking))
    }

    /// [`exponential_rate`](SanModel::exponential_rate) with the
    /// enabled-member count of a shared-rate group supplied by the
    /// caller — the one place every backend resolves a rate, whether it
    /// counts group members from the marking or from an
    /// [`EnablementCache`](crate::EnablementCache).
    pub fn exponential_rate_with(
        &self,
        a: ActivityId,
        marking: &Marking,
        group_enabled: impl FnOnce(RateGroupId) -> usize,
    ) -> Option<f64> {
        match &self.activities[a.0].timing {
            Timing::Timed(Delay::Exponential(rate)) => Some(match rate {
                RateFn::Const(r) => *r,
                RateFn::MarkingDependent(f) => f(marking),
                RateFn::Shared(g) => self.rate_groups[g.0].member_rate(group_enabled(*g)),
            }),
            _ => None,
        }
    }

    /// Evaluates the case distribution of `a` in `marking`.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidCaseDistribution`] if the evaluated
    /// probabilities are negative or do not sum to 1 within 1e-6.
    pub fn case_probabilities(
        &self,
        a: ActivityId,
        marking: &Marking,
    ) -> Result<Vec<f64>, SanError> {
        let mut probs = Vec::new();
        self.case_probabilities_into(a, marking, &mut probs)?;
        Ok(probs)
    }

    /// Evaluates the case distribution of `a` in `marking` into a
    /// caller-owned buffer (cleared first), avoiding the allocation of
    /// [`case_probabilities`](SanModel::case_probabilities).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidCaseDistribution`] if the evaluated
    /// probabilities are negative or do not sum to 1 within 1e-6.
    pub fn case_probabilities_into(
        &self,
        a: ActivityId,
        marking: &Marking,
        probs: &mut Vec<f64>,
    ) -> Result<(), SanError> {
        let act = &self.activities[a.0];
        probs.clear();
        probs.extend(act.cases.iter().map(|c| c.probability(marking)));
        let sum: f64 = probs.iter().sum();
        if probs.iter().any(|p| !p.is_finite() || *p < 0.0) || (sum - 1.0).abs() > 1e-6 {
            return Err(SanError::InvalidCaseDistribution {
                activity: act.name.clone(),
                sum,
            });
        }
        Ok(())
    }

    /// Randomly selects a case index according to the case distribution.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidCaseDistribution`] if the distribution
    /// is invalid in this marking.
    pub fn select_case<R: Rng + ?Sized>(
        &self,
        a: ActivityId,
        marking: &Marking,
        rng: &mut R,
    ) -> Result<usize, SanError> {
        let mut probs = Vec::new();
        self.select_case_with(a, marking, rng, &mut probs)
    }

    /// Randomly selects a case index using a caller-owned probability
    /// buffer, avoiding the per-call allocation of
    /// [`select_case`](SanModel::select_case). Consumes randomness from
    /// `rng` in exactly the same pattern (one variate iff the activity
    /// has more than one case).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidCaseDistribution`] if the distribution
    /// is invalid in this marking.
    pub fn select_case_with<R: Rng + ?Sized>(
        &self,
        a: ActivityId,
        marking: &Marking,
        rng: &mut R,
        probs: &mut Vec<f64>,
    ) -> Result<usize, SanError> {
        self.case_probabilities_into(a, marking, probs)?;
        if probs.len() == 1 {
            return Ok(0);
        }
        let u: f64 = rng.random::<f64>();
        let mut acc = 0.0;
        for (i, p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return Ok(i);
            }
        }
        Ok(probs.len() - 1)
    }

    /// Fires activity `a` with the given case, mutating `marking`.
    ///
    /// # Panics
    ///
    /// Panics if the activity is not enabled (input arcs unsatisfied) or
    /// `case` is out of range — both are engine bugs, not model states.
    pub fn fire(&self, a: ActivityId, case: usize, marking: &mut Marking) {
        let act = &self.activities[a.0];
        for (p, n) in &act.input_arcs {
            marking.remove_tokens(*p, *n);
        }
        for g in &act.input_gates {
            self.input_gates[g.0].apply(marking);
        }
        let c = &act.cases[case];
        for (p, n) in &c.output_arcs {
            marking.add_tokens(*p, *n);
        }
        for g in &c.output_gates {
            self.output_gates[g.0].apply(marking);
        }
    }

    /// Fires enabled instantaneous activities (respecting priorities and
    /// weights) until the marking is stable. Returns the sequence of
    /// activities fired.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InstantaneousLivelock`] if stabilization does
    /// not terminate within an internal budget, or
    /// [`SanError::InvalidCaseDistribution`] from case selection.
    pub fn stabilize<R: Rng + ?Sized>(
        &self,
        marking: &mut Marking,
        rng: &mut R,
    ) -> Result<Vec<ActivityId>, SanError> {
        let mut fired = Vec::new();
        for _ in 0..MAX_INSTANT_FIRINGS {
            let enabled = self.enabled_instantaneous(marking);
            if enabled.is_empty() {
                return Ok(fired);
            }
            let chosen = if enabled.len() == 1 {
                enabled[0]
            } else {
                let weights: Vec<f64> = enabled
                    .iter()
                    .map(|&a| match self.activities[a.0].timing {
                        Timing::Instantaneous { weight, .. } => weight,
                        Timing::Timed(_) => unreachable!(),
                    })
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut u: f64 = rng.random::<f64>() * total;
                let mut pick = enabled[enabled.len() - 1];
                for (&a, &w) in enabled.iter().zip(weights.iter()) {
                    if u < w {
                        pick = a;
                        break;
                    }
                    u -= w;
                }
                pick
            };
            let case = self.select_case(chosen, marking, rng)?;
            self.fire(chosen, case, marking);
            fired.push(chosen);
        }
        Err(SanError::InstantaneousLivelock {
            iterations: MAX_INSTANT_FIRINGS,
        })
    }

    /// Exhaustive stabilization for numerical solvers: returns every
    /// stable marking reachable through instantaneous firings from
    /// `marking`, with its total probability. Branches over both
    /// weighted instantaneous choices and case distributions.
    ///
    /// The result is deterministic: markings appear in the order the
    /// depth-first branching first reaches them, and a marking reached
    /// along several paths sums their probabilities in that same order.
    /// The explorers that number states from this list therefore number
    /// them identically on every call.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InstantaneousLivelock`] if the branching
    /// exceeds an internal budget, or
    /// [`SanError::InvalidCaseDistribution`] from case evaluation.
    pub fn stable_successors(&self, marking: &Marking) -> Result<Vec<(Marking, f64)>, SanError> {
        // Almost always one entry, so a linear scan beats hashing.
        let mut stable: Vec<(Marking, f64)> = Vec::new();
        let mut frontier = vec![(marking.clone(), 1.0_f64)];
        let mut expansions = 0usize;

        while let Some((m, prob)) = frontier.pop() {
            let enabled = self.enabled_instantaneous(&m);
            if enabled.is_empty() {
                match stable.iter_mut().find(|(s, _)| *s == m) {
                    Some((_, p)) => *p += prob,
                    None => stable.push((m, prob)),
                }
                continue;
            }
            expansions += 1;
            if expansions > MAX_INSTANT_FIRINGS {
                return Err(SanError::InstantaneousLivelock {
                    iterations: MAX_INSTANT_FIRINGS,
                });
            }
            let weights: Vec<f64> = enabled
                .iter()
                .map(|&a| match self.activities[a.0].timing {
                    Timing::Instantaneous { weight, .. } => weight,
                    Timing::Timed(_) => unreachable!(),
                })
                .collect();
            let total: f64 = weights.iter().sum();
            for (&a, &w) in enabled.iter().zip(weights.iter()) {
                let probs = self.case_probabilities(a, &m)?;
                for (case, p_case) in probs.iter().enumerate() {
                    if *p_case == 0.0 {
                        continue;
                    }
                    let mut next = m.clone();
                    self.fire(a, case, &mut next);
                    frontier.push((next, prob * (w / total) * p_case));
                }
            }
        }
        Ok(stable)
    }

    /// Renders the net structure as Graphviz DOT (places as circles,
    /// timed activities as thick bars, instantaneous as thin bars).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=LR;");
        for (i, p) in self.places.iter().enumerate() {
            let _ = writeln!(s, "  p{i} [shape=circle, label=\"{}\"];", p.name);
        }
        for (i, a) in self.activities.iter().enumerate() {
            let shape = if a.is_instantaneous() { "box" } else { "box3d" };
            let _ = writeln!(s, "  a{i} [shape={shape}, label=\"{}\"];", a.name);
            for (p, n) in &a.input_arcs {
                let lbl = if *n == 1 {
                    String::new()
                } else {
                    format!(" [label=\"{n}\"]")
                };
                let _ = writeln!(s, "  p{} -> a{i}{lbl};", p.0);
            }
            for c in &a.cases {
                for (p, n) in &c.output_arcs {
                    let lbl = if *n == 1 {
                        String::new()
                    } else {
                        format!(" [label=\"{n}\"]")
                    };
                    let _ = writeln!(s, "  a{i} -> p{}{lbl};", p.0);
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

impl std::fmt::Debug for SanModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SanModel")
            .field("name", &self.name)
            .field("places", &self.places.len())
            .field("activities", &self.activities.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SanBuilder;
    use crate::delay::Delay;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// p0 --a--> p1 --i--> p2 with an instantaneous middle step.
    fn chain() -> (SanModel, PlaceId, PlaceId, PlaceId) {
        let mut b = SanBuilder::new("chain");
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        let p2 = b.place("p2").unwrap();
        b.timed_activity("a", Delay::exponential(2.0))
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
        (b.build().unwrap(), p0, p1, p2)
    }

    #[test]
    fn enabling_follows_tokens() {
        let (m, p0, _, _) = chain();
        let a = m.find_activity("a").unwrap();
        let mut marking = m.initial_marking().clone();
        assert!(m.is_enabled(a, &marking));
        marking.set_tokens(p0, 0);
        assert!(!m.is_enabled(a, &marking));
    }

    #[test]
    fn fire_moves_tokens_and_stabilize_cascades() {
        let (m, p0, p1, p2) = chain();
        let a = m.find_activity("a").unwrap();
        let mut marking = m.initial_marking().clone();
        m.fire(a, 0, &mut marking);
        assert_eq!(marking.tokens(p0), 0);
        assert_eq!(marking.tokens(p1), 1);
        assert!(!m.is_stable(&marking));

        let mut rng = SmallRng::seed_from_u64(0);
        let fired = m.stabilize(&mut marking, &mut rng).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(marking.tokens(p2), 1);
        assert!(m.is_stable(&marking));
    }

    #[test]
    fn input_gate_predicate_blocks() {
        let mut b = SanBuilder::new("gated");
        let p = b.place_with_tokens("p", 1).unwrap();
        let flag = b.place("flag").unwrap();
        let g = b.predicate_gate("need_flag", move |m| m.is_marked(flag));
        b.timed_activity("a", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let a = model.find_activity("a").unwrap();
        let mut m = model.initial_marking().clone();
        assert!(!model.is_enabled(a, &m));
        m.add_tokens(flag, 1);
        assert!(model.is_enabled(a, &m));
    }

    #[test]
    fn priorities_order_instantaneous() {
        let mut b = SanBuilder::new("prio");
        let src = b.place_with_tokens("src", 1).unwrap();
        let lo = b.place("lo").unwrap();
        let hi = b.place("hi").unwrap();
        b.instant_activity("low", 1, 1.0)
            .unwrap()
            .input_place(src)
            .output_place(lo)
            .build()
            .unwrap();
        b.instant_activity("high", 5, 1.0)
            .unwrap()
            .input_place(src)
            .output_place(hi)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let m = model.initial_marking().clone();
        let enabled = model.enabled_instantaneous(&m);
        assert_eq!(enabled.len(), 1);
        assert_eq!(model.activity(enabled[0]).name(), "high");

        let mut marking = m;
        let mut rng = SmallRng::seed_from_u64(3);
        model.stabilize(&mut marking, &mut rng).unwrap();
        assert_eq!(marking.tokens(hi), 1);
        assert_eq!(marking.tokens(lo), 0);
    }

    #[test]
    fn weighted_choice_roughly_respects_weights() {
        let mut b = SanBuilder::new("weights");
        let src = b.place_with_tokens("src", 1).unwrap();
        let x = b.place("x").unwrap();
        let y = b.place("y").unwrap();
        b.instant_activity("to_x", 0, 3.0)
            .unwrap()
            .input_place(src)
            .output_place(x)
            .build()
            .unwrap();
        b.instant_activity("to_y", 0, 1.0)
            .unwrap()
            .input_place(src)
            .output_place(y)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut x_hits = 0;
        let trials = 4000;
        for _ in 0..trials {
            let mut m = model.initial_marking().clone();
            model.stabilize(&mut m, &mut rng).unwrap();
            if m.is_marked(x) {
                x_hits += 1;
            }
        }
        let frac = f64::from(x_hits) / f64::from(trials);
        assert!((frac - 0.75).abs() < 0.03, "to_x frequency {frac}");
    }

    #[test]
    fn case_selection_distribution() {
        let mut b = SanBuilder::new("cases");
        let src = b.place_with_tokens("src", 1).unwrap();
        let ok = b.place("ok").unwrap();
        let ko = b.place("ko").unwrap();
        b.timed_activity("m", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .case(0.9)
            .output_place(ok)
            .case(0.1)
            .output_place(ko)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let a = model.find_activity("m").unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ok_hits = 0;
        let trials = 5000;
        for _ in 0..trials {
            let mut m = model.initial_marking().clone();
            let case = model.select_case(a, &m, &mut rng).unwrap();
            model.fire(a, case, &mut m);
            if m.is_marked(ok) {
                ok_hits += 1;
            }
        }
        let frac = f64::from(ok_hits) / f64::from(trials);
        assert!((frac - 0.9).abs() < 0.02, "ok frequency {frac}");
    }

    #[test]
    fn stable_successors_enumerates_branches() {
        let mut b = SanBuilder::new("branching");
        let src = b.place_with_tokens("src", 1).unwrap();
        let x = b.place("x").unwrap();
        let y = b.place("y").unwrap();
        let z = b.place("z").unwrap();
        // One instantaneous with cases 0.5/0.5 to x or a middle place,
        // the middle place cascades to z via a second instantaneous.
        let mid = b.place("mid").unwrap();
        b.instant_activity("first", 0, 1.0)
            .unwrap()
            .input_place(src)
            .case(0.5)
            .output_place(x)
            .case(0.5)
            .output_place(mid)
            .build()
            .unwrap();
        b.instant_activity("second", 0, 1.0)
            .unwrap()
            .input_place(mid)
            .output_place(z)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let succ = model.stable_successors(model.initial_marking()).unwrap();
        assert_eq!(succ.len(), 2);
        let total: f64 = succ.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for (m, p) in &succ {
            assert!((p - 0.5).abs() < 1e-12);
            assert!(m.is_marked(x) ^ m.is_marked(z));
            assert!(!m.is_marked(y));
        }
    }

    #[test]
    fn stable_successors_are_in_first_reached_order() {
        // Five cases: four end in distinct places, the fifth cascades
        // through `mid` into `a`, so `a` is reached twice.
        let mut b = SanBuilder::new("fan-out");
        let src = b.place_with_tokens("src", 1).unwrap();
        let [a, c, d, e, mid] = ["a", "c", "d", "e", "mid"].map(|name| b.place(name).unwrap());
        let mut fan = b.instant_activity("fan", 0, 1.0).unwrap().input_place(src);
        for (p, place) in [(0.1, a), (0.2, c), (0.3, d), (0.2, e), (0.2, mid)] {
            fan = fan.case(p).output_place(place);
        }
        fan.build().unwrap();
        b.instant_activity("settle", 0, 1.0)
            .unwrap()
            .input_place(mid)
            .output_place(a)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let run = || -> Vec<(Marking, u64)> {
            model
                .stable_successors(model.initial_marking())
                .unwrap()
                .into_iter()
                .map(|(m, p)| (m, p.to_bits()))
                .collect()
        };
        let first = run();
        // The branching is depth-first from the last case: `mid` → `a`,
        // then `e`, `d`, `c`, and `a` again (merged into the first).
        let order: Vec<PlaceId> = first
            .iter()
            .map(|(m, _)| *[a, c, d, e].iter().find(|&&p| m.is_marked(p)).unwrap())
            .collect();
        assert_eq!(order, [a, e, d, c]);
        assert!((f64::from_bits(first[0].1) - 0.3).abs() < 1e-12);
        for _ in 0..32 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn livelock_detected() {
        let mut b = SanBuilder::new("livelock");
        let p = b.place_with_tokens("p", 1).unwrap();
        b.instant_activity("spin", 0, 1.0)
            .unwrap()
            .input_place(p)
            .output_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let mut m = model.initial_marking().clone();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(matches!(
            model.stabilize(&mut m, &mut rng),
            Err(SanError::InstantaneousLivelock { .. })
        ));
    }

    #[test]
    fn exponential_rate_lookup() {
        let (m, _, _, _) = chain();
        let a = m.find_activity("a").unwrap();
        let i = m.find_activity("i").unwrap();
        let marking = m.initial_marking();
        assert_eq!(m.exponential_rate(a, marking), Some(2.0));
        assert_eq!(m.exponential_rate(i, marking), None);
    }

    #[test]
    fn shared_rate_splits_among_enabled_members() {
        let mut b = SanBuilder::new("shared");
        let g = b.shared_rate_group("g", 6.0).unwrap();
        let ps: Vec<_> = (0..3)
            .map(|i| b.place_with_tokens(&format!("p{i}"), 1).unwrap())
            .collect();
        for (i, &p) in ps.iter().enumerate() {
            b.timed_activity(&format!("t{i}"), Delay::shared(g))
                .unwrap()
                .input_place(p)
                .build()
                .unwrap();
        }
        let m = b.build().unwrap();
        let t0 = m.find_activity("t0").unwrap();
        let mut marking = m.initial_marking().clone();
        assert_eq!(m.group_enabled_count(g, &marking), 3);
        assert_eq!(m.exponential_rate(t0, &marking), Some(2.0));
        marking.set_tokens(ps[1], 0);
        assert_eq!(m.exponential_rate(t0, &marking), Some(3.0));
        marking.set_tokens(ps[2], 0);
        assert_eq!(m.exponential_rate(t0, &marking), Some(6.0));
        // The caller may supply the count (an enablement cache does).
        assert_eq!(m.exponential_rate_with(t0, &marking, |_| 4), Some(1.5));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut twin = SmallRng::seed_from_u64(1);
        let mut cache = m.new_cache();
        m.prime_cache(&mut cache, &marking);
        let d = m.sample_delay_cached(t0, &marking, &mut rng, &cache);
        let expect = crate::delay::sample_exponential(6.0, &mut twin);
        assert_eq!(d.to_bits(), expect.to_bits());
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let (m, _, _, _) = chain();
        let dot = m.to_dot();
        for p in m.places() {
            assert!(dot.contains(p.name()));
        }
        for a in m.activities() {
            assert!(dot.contains(a.name()));
        }
        assert!(dot.starts_with("digraph"));
    }
}
