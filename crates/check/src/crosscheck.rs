//! Cross-validation of the checker's exploration against the CTMC
//! generator.
//!
//! `ahs-ctmc`'s [`StateSpace`] explorer and this crate's
//! [`StateGraph`] walk the same model through two *independent* code
//! paths: the CTMC adapter folds instantaneous cascades into
//! probability-weighted stable→stable rates, while the checker records
//! every micro step. On a Markovian model with strictly positive rates
//! they must agree on (a) the set of stable markings and (b) the
//! stable→stable transition support — the checker derives the latter
//! by following each timed edge through the instantaneous closure to
//! the stable markings it can end in. A mismatch means one of the two
//! engines mis-implements the shared SAN semantics; agreement is a
//! strong mutual audit.
//!
//! Caveat: the CTMC explorer drops transitions whose rate evaluates to
//! zero in the source marking, while the checker (which abstracts
//! probabilities and rates to their support) keeps them. The paper's
//! models have strictly positive rates everywhere — the `delay-sanity`
//! lint pass guards this — so the comparison is exact.

use ahs_ctmc::{SanMarkovModel, StateSpace};
use ahs_san::SanModel;

use crate::graph::StateGraph;
use crate::CheckError;

/// The outcome of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Stable markings in the checker's graph.
    pub checker_stable_states: usize,
    /// States in the CTMC exploration (stable by construction).
    pub ctmc_states: usize,
    /// Whether the two stable-marking sets are identical.
    pub state_sets_match: bool,
    /// Distinct stable→stable transition pairs derived from the
    /// checker's micro-step graph (self-loops excluded, as the CTMC
    /// drops them).
    pub checker_transition_pairs: usize,
    /// Distinct transition pairs in the CTMC generator.
    pub ctmc_transition_pairs: usize,
    /// Whether the two transition-pair sets are identical.
    pub transitions_match: bool,
}

impl CrossCheck {
    /// Whether state sets and transition structure both agree.
    pub fn matches(&self) -> bool {
        self.state_sets_match && self.transitions_match
    }
}

/// Cross-validates a *complete* checker graph against an independent
/// CTMC exploration of the same model.
///
/// # Errors
///
/// Returns [`CheckError::IncompleteGraph`] when the graph was
/// truncated (set comparison would be meaningless) and
/// [`CheckError::Ctmc`] when the CTMC side cannot explore the model
/// (budget exceeded, invalid rates).
pub fn cross_validate(
    model: &SanModel,
    graph: &StateGraph,
    max_states: usize,
) -> Result<CrossCheck, CheckError> {
    if !graph.complete() {
        return Err(CheckError::IncompleteGraph {
            states: graph.len(),
        });
    }
    let adapter = SanMarkovModel::new(model).map_err(CheckError::Ctmc)?;
    let space = StateSpace::explore(&adapter, max_states).map_err(CheckError::Ctmc)?;

    // Each checker stable state is one lookup of its packed bytes into
    // the CTMC space's own interner: both sides store the same
    // canonical packed form, so no marking is decoded and no second
    // index is built. Since both sides hold distinct markings, the sets
    // are equal iff every stable checker state maps and the counts
    // agree.
    let mut to_ctmc: Vec<Option<u32>> = vec![None; graph.len()];
    let mut checker_stable_states = 0;
    let mut unmapped = 0;
    for i in (0..graph.len()).filter(|&i| graph.is_stable(i)) {
        checker_stable_states += 1;
        to_ctmc[i] = space.index_of_packed(graph.packed(i)).map(|c| c as u32);
        unmapped += usize::from(to_ctmc[i].is_none());
    }
    let state_sets_match = unmapped == 0 && checker_stable_states == space.len();

    // Stable→stable support derived from the micro-step graph: follow
    // each timed edge of a stable state through the instantaneous
    // closure to every stable marking it can end in. `seen[j] == stamp`
    // marks `j` as visited by the current closure.
    let mut checker_pairs: Vec<(u32, u32)> = Vec::new();
    let mut closure: Vec<u32> = Vec::new();
    let mut seen: Vec<u32> = vec![0; graph.len()];
    let mut stamp = 0u32;
    for i in (0..graph.len()).filter(|&i| graph.is_stable(i)) {
        for e in graph.successors(i) {
            stamp += 1;
            closure.clear();
            closure.push(e.target);
            seen[e.target as usize] = stamp;
            let mut head = 0;
            while head < closure.len() {
                let j = closure[head] as usize;
                head += 1;
                if graph.is_stable(j) {
                    if j != i {
                        checker_pairs.push((i as u32, j as u32));
                    }
                    continue;
                }
                for e2 in graph.successors(j) {
                    if seen[e2.target as usize] != stamp {
                        seen[e2.target as usize] = stamp;
                        closure.push(e2.target);
                    }
                }
            }
        }
    }
    checker_pairs.sort_unstable();
    checker_pairs.dedup();

    // In CTMC indices the pairs are still distinct (the map is
    // injective); sorted, they line up with `edges()`, which the CSR
    // builder emits sorted and merged. An unmapped endpoint is a
    // mismatch.
    let translated: Option<Vec<(usize, usize)>> = checker_pairs
        .iter()
        .map(|&(i, j)| Some((to_ctmc[i as usize]? as usize, to_ctmc[j as usize]? as usize)))
        .collect();
    let ctmc_transition_pairs = space.rates().nnz();
    let transitions_match = translated.is_some_and(|mut pairs| {
        pairs.sort_unstable();
        pairs.into_iter().eq(space.edges().map(|(r, c, _)| (r, c)))
    });

    Ok(CrossCheck {
        checker_stable_states,
        ctmc_states: space.len(),
        state_sets_match,
        checker_transition_pairs: checker_pairs.len(),
        ctmc_transition_pairs,
        transitions_match,
    })
}
