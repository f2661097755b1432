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

/// `to_ctmc` entry of a state with no CTMC counterpart.
const UNMAPPED: u32 = u32::MAX;

/// The outcome of a cross-validation run.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    // agree. `UNMAPPED` marks unstable and unmatched states.
    let mut to_ctmc: Vec<u32> = vec![UNMAPPED; graph.len()];
    let mut checker_stable_states = 0;
    let mut unmapped = 0;
    for i in (0..graph.len()).filter(|&i| graph.is_stable(i)) {
        checker_stable_states += 1;
        match space.index_of_packed(graph.packed(i)) {
            Some(c) => to_ctmc[i] = c as u32,
            None => unmapped += 1,
        }
    }
    let state_sets_match = unmapped == 0 && checker_stable_states == space.len();

    // Stable→stable support derived from the micro-step graph, one
    // source row at a time: follow each timed edge of stable state `i`
    // through the instantaneous closure to every stable marking it can
    // end in, then compare the row with the CTMC row of `i`'s image.
    // `seen[j] == stamp` marks `j` as visited by the current closure.
    let mut checker_transition_pairs = 0;
    let mut rows_match = true;
    // CTMC entries in the rows compared so far. The map is injective,
    // so no row is compared twice; every pair set agrees iff every
    // compared row does and these rows hold every CTMC entry.
    let mut compared_entries = 0;
    let mut row: Vec<u32> = Vec::new();
    let mut closure: Vec<u32> = Vec::new();
    let mut seen: Vec<u32> = vec![0; graph.len()];
    let mut stamp = 0u32;
    for i in (0..graph.len()).filter(|&i| graph.is_stable(i)) {
        row.clear();
        for e in graph.successors(i) {
            stamp += 1;
            closure.clear();
            closure.push(e.target() as u32);
            seen[e.target()] = stamp;
            let mut head = 0;
            while head < closure.len() {
                let j = closure[head] as usize;
                head += 1;
                if graph.is_stable(j) {
                    if j != i {
                        row.push(j as u32);
                    }
                    continue;
                }
                for e2 in graph.successors(j) {
                    if seen[e2.target()] != stamp {
                        seen[e2.target()] = stamp;
                        closure.push(e2.target() as u32);
                    }
                }
            }
        }
        row.sort_unstable();
        row.dedup();
        checker_transition_pairs += row.len();
        if !rows_match {
            continue;
        }

        // In CTMC indices the row's targets are still distinct; sorted,
        // they line up with the CSR row, which the builder emits sorted
        // and merged. An unmapped endpoint is a mismatch.
        let r = to_ctmc[i];
        if r == UNMAPPED {
            rows_match = row.is_empty();
            continue;
        }
        for j in row.iter_mut() {
            *j = to_ctmc[*j as usize];
        }
        row.sort_unstable();
        let ctmc_cols = space
            .rates()
            .row(r as usize)
            .map(|(c, _)| c)
            .inspect(|_| compared_entries += 1);
        rows_match = row.last() != Some(&UNMAPPED) && row.iter().map(|&c| c as usize).eq(ctmc_cols);
    }
    let ctmc_transition_pairs = space.rates().nnz();
    let transitions_match = rows_match && compared_entries == ctmc_transition_pairs;

    Ok(CrossCheck {
        checker_stable_states,
        ctmc_states: space.len(),
        state_sets_match,
        checker_transition_pairs,
        ctmc_transition_pairs,
        transitions_match,
    })
}
