//! Exhaustive exploration of a SAN's micro-step marking graph.
//!
//! The explorer walks every reachable *raw* marking — stable and
//! unstable alike — under the micro-step semantics the simulators
//! execute: from a stable marking the successors are the firings of
//! the enabled timed activities; from an unstable marking, the firings
//! of the *top-priority* enabled instantaneous activities; every case
//! branch whose probability is not exactly zero in the source marking
//! is enumerated (probabilities are abstracted to their support). Enabledness is read off a
//! [`EnablementCache`](ahs_san::EnablementCache) primed per expanded
//! state, so exploration shares the exact enabling semantics (gate
//! predicates, arc thresholds, priority shadowing) the simulators use —
//! in debug builds the cache additionally cross-checks itself against a
//! fresh rescan.
//!
//! The result is a [`StateGraph`]: markings interned in BFS order by an
//! [`Interner`] (each marking stored once, as its canonical packed
//! bytes), a CSR edge list labelled with `(activity, case)`, a
//! per-state stability flag, and BFS parent pointers from which a
//! *shortest* firing trace to any state can be reconstructed — the
//! minimal counterexamples the property layer emits. The same graph,
//! explored under a smaller budget, is the bounded reachability sample
//! every `ahs-lint` pass reads.

use std::sync::atomic::{AtomicBool, Ordering};

use ahs_ctmc::{CtmcError, Interner};
use ahs_san::{ActivityId, Marking, SanModel, Timing};

use crate::CheckError;

/// How often the interrupt flag is polled, in expanded states.
const INTERRUPT_POLL: usize = 1024;

/// Whether `case` of `a` can be taken in `m`. A case whose probability
/// evaluates to exactly 0 cannot: exploring it, or running its output
/// gates, would fabricate unreachable markings. Degenerate
/// probabilities (negative, NaN) still count as takeable — the linter
/// reports them, and hiding their firings would mask further defects
/// behind them.
pub fn can_take(model: &SanModel, a: ActivityId, case: usize, m: &Marking) -> bool {
    model.activity(a).cases()[case].probability(m) != 0.0
}

/// One labelled transition of the marking graph, packed into 8 bytes:
/// a `u32` target and the firing's activity index and case as `u16`s
/// ([`StateGraph::explore`] rejects models whose labels do not fit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    target: u32,
    activity: u16,
    case: u16,
}

impl Edge {
    /// Index of the successor state.
    pub fn target(self) -> usize {
        self.target as usize
    }

    /// [`ActivityId::index`] of the activity whose firing produced it.
    pub fn activity_index(self) -> usize {
        usize::from(self.activity)
    }

    /// The case branch taken.
    pub fn case(self) -> usize {
        usize::from(self.case)
    }
}

/// BFS tree pointer: how a state was first discovered. `state` is the
/// parent's index, [`Parent::ROOT`] for the initial marking.
#[derive(Debug, Clone, Copy)]
struct Parent {
    state: u32,
    activity: u16,
    case: u16,
}

impl Parent {
    const ROOT: Parent = Parent {
        state: u32::MAX,
        activity: 0,
        case: 0,
    };
}

const _: () = assert!(std::mem::size_of::<Edge>() == 8);
const _: () = assert!(std::mem::size_of::<Parent>() == 8);

/// The most activities, and the most cases of one activity, an
/// [`Edge`] label can index.
const MAX_LABELS: usize = u16::MAX as usize + 1;

/// Checks that every activity index and case number of a model with
/// `activities` activities and the given `(name, case count)` list fits
/// the `u16` fields of an [`Edge`], so exploration can narrow them
/// without truncating.
fn check_label_width<'a>(
    activities: usize,
    mut cases: impl Iterator<Item = (&'a str, usize)>,
) -> Result<(), CheckError> {
    if activities > MAX_LABELS {
        return Err(CheckError::TooManyActivities { activities });
    }
    match cases.find(|&(_, n)| n > MAX_LABELS) {
        Some((name, cases)) => Err(CheckError::TooManyCases {
            activity: name.to_owned(),
            cases,
        }),
        None => Ok(()),
    }
}

/// One step of a firing trace (see [`StateGraph::trace_to`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The activity fired.
    pub activity: ActivityId,
    /// Its name, for rendering.
    pub activity_name: String,
    /// The case branch taken.
    pub case: usize,
}

/// The explored marking graph of a SAN.
#[derive(Debug, Clone)]
pub struct StateGraph {
    states: Interner<Marking>,
    stable: Vec<bool>,
    /// CSR row starts: edges of state `i` are
    /// `edges[edge_start[i]..edge_start[i + 1]]`.
    edge_start: Vec<u32>,
    edges: Vec<Edge>,
    parent: Vec<Parent>,
    complete: bool,
}

impl StateGraph {
    /// Explores the reachable marking graph of `model` breadth-first,
    /// visiting at most `max_states` markings. Hitting the budget
    /// truncates the search ([`StateGraph::complete`] turns `false`)
    /// rather than failing: every state in a truncated graph is
    /// genuinely reachable, but edges to states beyond the budget are
    /// absent.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Interrupted`] when `interrupt` is set
    /// mid-exploration (polled every 1024 states), and
    /// [`CheckError::StateStoreFull`] when the packed state store runs
    /// out of offsets before the budget is reached.
    pub fn explore(
        model: &SanModel,
        max_states: usize,
        interrupt: Option<&AtomicBool>,
    ) -> Result<StateGraph, CheckError> {
        check_label_width(
            model.num_activities(),
            model
                .activities()
                .iter()
                .map(|a| (a.name(), a.cases().len())),
        )?;
        let max_states = max_states.clamp(1, u32::MAX as usize - 1);
        let mut states: Interner<Marking> = Interner::new();
        let mut stable: Vec<bool> = Vec::new();
        let mut edge_start: Vec<u32> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut parent: Vec<Parent> = Vec::new();
        let mut complete = true;

        let full = |e| match e {
            CtmcError::StateStoreFull { states } => CheckError::StateStoreFull { states },
            e => CheckError::Ctmc(e),
        };
        states
            .intern(model.initial_marking(), max_states)
            .map_err(full)?;
        parent.push(Parent::ROOT);

        let mut cache = model.new_cache();
        let mut enabled: Vec<ActivityId> = Vec::new();
        // The marking being expanded and the one each firing lands in:
        // two scratch buffers, reset field-wise instead of reallocated;
        // and the buffer each successor is packed into to probe the
        // interner.
        let mut m = model.initial_marking().clone();
        let mut next = m.clone();
        let mut packed: Vec<u8> = Vec::new();
        let mut frontier = 0usize;
        while frontier < states.len() {
            if frontier.is_multiple_of(INTERRUPT_POLL) {
                if let Some(flag) = interrupt {
                    if flag.load(Ordering::Relaxed) {
                        return Err(CheckError::Interrupted {
                            states: states.len(),
                        });
                    }
                }
            }
            states.decode_into(frontier, &mut m);
            model.prime_cache(&mut cache, &m);

            // Top-priority enabled instantaneous activities; empty iff
            // the marking is stable.
            enabled.clear();
            let mut top: Option<u32> = None;
            for &a in model.instantaneous_activities() {
                if !cache.is_enabled(a) {
                    continue;
                }
                let p = match model.activity(a).timing() {
                    Timing::Instantaneous { priority, .. } => *priority,
                    Timing::Timed(_) => unreachable!("instantaneous list holds timed activity"),
                };
                match top {
                    Some(t) if p < t => {}
                    Some(t) if p == t => enabled.push(a),
                    _ => {
                        top = Some(p);
                        enabled.clear();
                        enabled.push(a);
                    }
                }
            }
            let is_stable = top.is_none();
            if is_stable {
                enabled.extend(
                    model
                        .timed_activities()
                        .iter()
                        .copied()
                        .filter(|&a| cache.is_enabled(a)),
                );
                debug_assert_eq!(enabled, model.enabled_timed(&m));
            } else {
                debug_assert_eq!(enabled, model.enabled_instantaneous(&m));
            }
            stable.push(is_stable);
            edge_start.push(edges.len() as u32);

            for &a in &enabled {
                for case in 0..model.activity(a).cases().len() {
                    if !can_take(model, a, case, &m) {
                        continue;
                    }
                    next.clone_from(&m);
                    model.fire(a, case, &mut next);
                    let before = states.len();
                    packed.clear();
                    next.pack_into(&mut packed);
                    let Some(j) = states.intern_packed(&packed, max_states).map_err(full)? else {
                        complete = false;
                        continue;
                    };
                    // `check_label_width` proved both labels fit.
                    let edge = Edge {
                        target: j as u32,
                        activity: a.index() as u16,
                        case: case as u16,
                    };
                    if j == before {
                        parent.push(Parent {
                            state: frontier as u32,
                            activity: edge.activity,
                            case: edge.case,
                        });
                    }
                    edges.push(edge);
                }
            }
            frontier += 1;
        }
        edge_start.push(edges.len() as u32);

        Ok(StateGraph {
            states,
            stable,
            edge_start,
            edges,
            parent,
            complete,
        })
    }

    /// Number of explored states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the graph holds no states (never after exploration).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Whether the whole reachable set was visited.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Total number of recorded transitions.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// A decoded copy of the marking of state `i`.
    pub fn marking(&self, i: usize) -> Marking {
        self.states.get(i)
    }

    /// The canonical packed bytes of state `i` (see
    /// [`Marking::pack_into`]).
    pub fn packed(&self, i: usize) -> &[u8] {
        self.states.packed(i)
    }

    /// Decoded copies of all explored markings, in BFS order (initial
    /// marking first).
    pub fn markings(&self) -> impl ExactSizeIterator<Item = Marking> + '_ {
        self.states.iter()
    }

    /// Calls `f` with each state index and marking in BFS order,
    /// decoding every marking into one reused scratch.
    pub fn for_each_marking(&self, f: impl FnMut(usize, &Marking)) {
        self.states.for_each(f);
    }

    /// Whether state `i` is stable (no instantaneous activity enabled).
    pub fn is_stable(&self, i: usize) -> bool {
        self.stable[i]
    }

    /// Number of stable states.
    pub fn stable_count(&self) -> usize {
        self.stable.iter().filter(|&&s| s).count()
    }

    /// Outgoing edges of state `i`, in enumeration order.
    pub fn successors(&self, i: usize) -> &[Edge] {
        &self.edges[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    /// Whether state `i` is terminal (no outgoing edges). Only
    /// meaningful as "absorbing" when the graph is complete.
    pub fn is_terminal(&self, i: usize) -> bool {
        self.successors(i).is_empty()
    }

    /// Indices of all terminal states.
    pub fn terminals(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| self.is_terminal(i))
    }

    /// The shortest firing trace from the initial marking to state `i`,
    /// read off the BFS tree. Empty for the initial state itself.
    pub fn trace_to(&self, model: &SanModel, i: usize) -> Vec<TraceStep> {
        // Edges keep only the activity index; map it back to the id.
        let mut ids: Vec<Option<ActivityId>> = vec![None; model.num_activities()];
        for &a in model
            .timed_activities()
            .iter()
            .chain(model.instantaneous_activities())
        {
            ids[a.index()] = Some(a);
        }
        let mut rev = Vec::new();
        let mut p = self.parent[i];
        while p.state != Parent::ROOT.state {
            let activity =
                ids[usize::from(p.activity)].expect("edge labels index model activities");
            rev.push(TraceStep {
                activity,
                activity_name: model.activity(activity).name().to_owned(),
                case: usize::from(p.case),
            });
            p = self.parent[p.state as usize];
        }
        rev.reverse();
        rev
    }

    /// Order-independent digest of the explored state set: XOR of the
    /// canonical fingerprints of all markings. Stable across runs and
    /// exploration orders, so two explorations of the same model agree
    /// bit for bit.
    pub fn state_set_digest(&self) -> u64 {
        let mut digest = 0;
        self.for_each_marking(|_, m| digest ^= m.fingerprint());
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_san::{Delay, SanBuilder};

    fn explore(model: &SanModel, max_states: usize) -> StateGraph {
        StateGraph::explore(model, max_states, None).expect("no interrupt flag")
    }

    /// p0 --t--> p1 --i--> p2: exploration must surface the unstable
    /// intermediate marking (p1 marked) that the CTMC adapter folds away.
    #[test]
    fn visits_unstable_markings() {
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
        let model = b.build().unwrap();
        let graph = explore(&model, 100);
        assert!(graph.complete());
        assert_eq!(graph.len(), 3);
        assert!(graph.markings().any(|m| m.is_marked(p1)));
        assert!(graph.markings().any(|m| m.is_marked(p2)));
    }

    #[test]
    fn truncates_at_budget_instead_of_failing() {
        // Unbounded counter: t deposits into p forever.
        let mut b = SanBuilder::new("unbounded");
        let src = b.place_with_tokens("src", 1).unwrap();
        let p = b.place("p").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .output_place(src)
            .output_place(p)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let graph = explore(&model, 8);
        assert!(!graph.complete());
        assert_eq!(graph.len(), 8);
    }

    #[test]
    fn zero_probability_cases_are_not_explored() {
        let mut b = SanBuilder::new("zerocase");
        let src = b.place_with_tokens("src", 1).unwrap();
        let live = b.place("live").unwrap();
        let ghost = b.place("ghost").unwrap();
        let ghost2 = b.place("ghost_sink").unwrap();
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(src)
            .case(1.0)
            .output_place(live)
            .case(0.0)
            .output_place(ghost)
            .build()
            .unwrap();
        // Give `ghost` an outgoing arc so it is not arc-isolated; it is
        // still unreachable because its producing case has probability 0.
        b.timed_activity("g", Delay::exponential(1.0))
            .unwrap()
            .input_place(ghost)
            .output_place(ghost2)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let graph = explore(&model, 100);
        assert!(graph.complete());
        assert!(graph.markings().all(|m| !m.is_marked(ghost)));
        assert!(graph.markings().any(|m| m.is_marked(live)));
    }

    /// One timed activity with `cases` equally likely cases; only the
    /// last one marks `last`.
    fn wide(cases: usize) -> SanModel {
        let mut b = SanBuilder::new("wide");
        let src = b.place_with_tokens("src", 1).unwrap();
        let last = b.place("last").unwrap();
        let mut t = b
            .timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(src);
        for _ in 0..cases {
            t = t.case(1.0 / cases as f64);
        }
        t.output_place(last).build().unwrap();
        b.build().unwrap()
    }

    #[test]
    fn edge_labels_narrow_without_truncating() {
        let model = wide(MAX_LABELS);
        let graph = explore(&model, 8);
        let edges = graph.successors(0);
        assert_eq!(edges.len(), MAX_LABELS);
        let top = edges[MAX_LABELS - 1];
        assert_eq!((top.target(), top.case()), (2, MAX_LABELS - 1));
        assert_eq!(graph.trace_to(&model, 2)[0].case, MAX_LABELS - 1);

        match StateGraph::explore(&wide(MAX_LABELS + 1), 8, None) {
            Err(CheckError::TooManyCases { activity, cases }) => {
                assert_eq!((activity.as_str(), cases), ("t", MAX_LABELS + 1));
            }
            other => panic!("a 65 537th case must not be truncated: {other:?}"),
        }
    }

    #[test]
    fn label_counts_past_u16_are_rejected() {
        let ok = [("t", MAX_LABELS)];
        assert!(check_label_width(MAX_LABELS, ok.into_iter()).is_ok());
        assert!(matches!(
            check_label_width(MAX_LABELS + 1, ok.into_iter()),
            Err(CheckError::TooManyActivities { activities }) if activities == MAX_LABELS + 1
        ));
        let wide = [("t", 2), ("u", MAX_LABELS + 1)];
        assert!(matches!(
            check_label_width(2, wide.into_iter()),
            Err(CheckError::TooManyCases { activity, cases })
                if activity == "u" && cases == MAX_LABELS + 1
        ));
    }
}
