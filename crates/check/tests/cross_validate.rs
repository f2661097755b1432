//! Cross-validation of the checker against the CTMC generator, and
//! regression pins on the paper models' reachable-state counts.
//!
//! The checker and `ahs-ctmc` explore the same SAN through independent
//! code paths; agreement on the stable-state set and the transition
//! support is a mutual audit of both engines. The pinned counts turn
//! any accidental semantic change (a case branch skipped, a marking
//! canonicalisation bug) into a loud test failure.

use ahs_check::{cross_validate, CheckConfig, Checker, CrossCheck, StateGraph};
use ahs_core::{AhsModel, Params, Strategy};
use ahs_san::{Delay, SanBuilder, SanModel};

/// Micro-step reachable states of every n = 1 strategy model
/// (cross-checked against `ahs-lint --max-states` exploration).
const MICRO_STATES_N1: usize = 209;

/// Micro-step reachable states at n = 2 (every strategy agrees; the
/// strategies differ in rates and case probabilities, not in support).
const MICRO_STATES_N2: usize = 153_753;

fn paper_model(n: usize, strategy: Strategy) -> SanModel {
    let params = Params::builder().n(n).strategy(strategy).build().unwrap();
    let (san, _) = AhsModel::build(&params).unwrap().into_san();
    san
}

const STRATEGIES: [Strategy; 4] = [Strategy::Dd, Strategy::Dc, Strategy::Cd, Strategy::Cc];

#[test]
fn fixture_chain_cross_validates_against_ctmc() {
    let model = ahs_check::fixtures::escalation_chain();
    let graph = StateGraph::explore(&model, 1 << 10, None).unwrap();
    let cross = cross_validate(&model, &graph, 1 << 10).unwrap();
    assert!(cross.matches(), "{cross:?}");
    // {v_OK}, {CS_active}, {v_KO} are the stable markings; the
    // transition support is OK→CS, CS→OK, CS→KO.
    assert_eq!(cross.checker_stable_states, 3);
    assert_eq!(cross.ctmc_states, 3);
    assert_eq!(cross.checker_transition_pairs, 3);
    assert_eq!(cross.ctmc_transition_pairs, 3);
}

/// One token walking places `a, b, c, d` (indices 0–3) along `moves`,
/// one unit-rate timed activity per `(from, to)` move.
fn token_walk(moves: &[(usize, usize)]) -> SanModel {
    token_walk_from(0, moves)
}

/// [`token_walk`] with the token starting on place index `start`.
fn token_walk_from(start: usize, moves: &[(usize, usize)]) -> SanModel {
    let mut b = SanBuilder::new("token_walk");
    let places: Vec<_> = ["a", "b", "c", "d"]
        .into_iter()
        .enumerate()
        .map(|(k, name)| b.place_with_tokens(name, u64::from(k == start)).unwrap())
        .collect();
    for (k, &(from, to)) in moves.iter().enumerate() {
        b.timed_activity(&format!("move{k}"), Delay::exponential(1.0))
            .unwrap()
            .input_place(places[from])
            .output_place(places[to])
            .build()
            .unwrap();
    }
    b.build().unwrap()
}

/// Cross-validates the graph of `checker_model` against the CTMC of
/// `ctmc_model`.
fn cross(checker_model: &SanModel, ctmc_model: &SanModel) -> CrossCheck {
    let graph = StateGraph::explore(checker_model, 1 << 10, None).unwrap();
    cross_validate(ctmc_model, &graph, 1 << 10).unwrap()
}

/// The ring `a → b → c → a` and its graph.
fn ring() -> (SanModel, StateGraph) {
    let ring = token_walk(&[(0, 1), (1, 2), (2, 0)]);
    let graph = StateGraph::explore(&ring, 1 << 10, None).unwrap();
    assert!(cross_validate(&ring, &graph, 1 << 10).unwrap().matches());
    (ring, graph)
}

#[test]
fn cross_validation_catches_a_differing_transition() {
    // Same stable markings {a}, {b}, {c}; `c → b` in place of `c → a`.
    let (_, graph) = ring();
    let cross = cross_validate(&token_walk(&[(0, 1), (1, 2), (2, 1)]), &graph, 1 << 10).unwrap();
    assert!(cross.state_sets_match, "{cross:?}");
    assert!(!cross.transitions_match, "{cross:?}");
    assert_eq!(cross.checker_transition_pairs, 3);
    assert_eq!(cross.ctmc_transition_pairs, 3);
}

#[test]
fn cross_validation_catches_a_missing_state() {
    // Without its crash arc the sibling never reaches {v_KO}, a stable
    // marking of the clean chain's graph.
    let graph =
        StateGraph::explore(&ahs_check::fixtures::escalation_chain(), 1 << 10, None).unwrap();
    let cross = cross_validate(&ahs_check::fixtures::broken_livelock(), &graph, 1 << 10).unwrap();
    assert!(!cross.state_sets_match, "{cross:?}");
    assert!(!cross.transitions_match, "{cross:?}");
    assert_eq!(cross.checker_stable_states, 3);
    assert_eq!(cross.ctmc_states, 2);

    // Equal counts, different sets: {d} in place of the ring's {c}.
    let (_, graph) = ring();
    let cross = cross_validate(&token_walk(&[(0, 1), (1, 3), (3, 0)]), &graph, 1 << 10).unwrap();
    assert_eq!(cross.checker_stable_states, cross.ctmc_states);
    assert!(!cross.state_sets_match, "{cross:?}");
    assert!(!cross.transitions_match, "{cross:?}");
}

#[test]
fn cross_validation_compares_row_columns_not_counts() {
    // Row `a` is {b, c} on the checker side and {b, d} on the CTMC side;
    // every row length, the pair total and the state set agree.
    let cross = cross(
        &token_walk(&[(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)]),
        &token_walk(&[(0, 1), (0, 3), (1, 2), (2, 3), (3, 0)]),
    );
    assert_eq!(
        cross,
        CrossCheck {
            checker_stable_states: 4,
            ctmc_states: 4,
            state_sets_match: true,
            checker_transition_pairs: 5,
            ctmc_transition_pairs: 5,
            transitions_match: false,
        }
    );
}

/// Every field on state-set mismatches, pinned to what the global
/// pair-list comparison this row-by-row one replaced reported.
#[test]
fn state_set_mismatches_report_every_field() {
    let ring = [(0, 1), (1, 2), (2, 0)];
    let pinned =
        |checker_stable_states, ctmc_states, pairs: (usize, usize), transitions_match| CrossCheck {
            checker_stable_states,
            ctmc_states,
            state_sets_match: false,
            checker_transition_pairs: pairs.0,
            ctmc_transition_pairs: pairs.1,
            transitions_match,
        };
    let cases = [
        // A checker state the CTMC lacks.
        (
            cross(
                &ahs_check::fixtures::escalation_chain(),
                &ahs_check::fixtures::broken_livelock(),
            ),
            pinned(3, 2, (3, 2), false),
        ),
        (
            cross(&token_walk(&ring), &token_walk(&[(0, 1), (1, 0)])),
            pinned(3, 2, (3, 2), false),
        ),
        // Equal counts, different sets.
        (
            cross(&token_walk(&ring), &token_walk(&[(0, 1), (1, 3), (3, 0)])),
            pinned(3, 3, (3, 3), false),
        ),
        // A CTMC state the checker lacks, whose row no checker row
        // covers.
        (
            cross(&token_walk(&[(0, 1), (1, 0)]), &token_walk(&ring)),
            pinned(2, 3, (2, 3), false),
        ),
        (
            cross(&token_walk_from(1, &[(0, 1)]), &token_walk(&[(0, 1)])),
            pinned(1, 2, (0, 1), false),
        ),
        // Disjoint single-state sets with no transitions: the (empty)
        // pair sets still agree.
        (
            cross(&token_walk_from(1, &[(2, 3)]), &token_walk(&[(2, 3)])),
            pinned(1, 1, (0, 0), true),
        ),
    ];
    for (k, (got, want)) in cases.into_iter().enumerate() {
        assert_eq!(got, want, "case {k}");
    }
}

#[test]
fn cross_validation_rejects_truncated_graphs() {
    let model = ahs_check::fixtures::unbounded_counter();
    let graph = StateGraph::explore(&model, 20, None).unwrap();
    assert!(!graph.complete());
    assert!(cross_validate(&model, &graph, 1 << 10).is_err());
}

#[test]
fn paper_models_n1_cross_validate_against_ctmc() {
    // Decentralised/decentralised and centralised/centralised span the
    // strategy space's corners; dd/cc differ in both coordination
    // layers.
    for strategy in [Strategy::Dd, Strategy::Cc] {
        let model = paper_model(1, strategy);
        let graph = StateGraph::explore(&model, 1 << 14, None).unwrap();
        assert!(graph.complete());
        let cross = cross_validate(&model, &graph, 1 << 14).unwrap();
        assert!(
            cross.matches(),
            "strategy {strategy:?} disagrees with ahs-ctmc: {cross:?}"
        );
        assert_eq!(cross.checker_stable_states, cross.ctmc_states);
    }
}

#[test]
fn paper_models_n1_state_counts_are_pinned() {
    let mut digests = Vec::new();
    for strategy in STRATEGIES {
        let model = paper_model(1, strategy);
        let graph = StateGraph::explore(&model, 1 << 14, None).unwrap();
        assert!(graph.complete());
        assert_eq!(
            graph.len(),
            MICRO_STATES_N1,
            "strategy {strategy:?} reachable-state count changed"
        );
        digests.push(graph.state_set_digest());
    }
    // The four strategies share place structure and differ only in
    // rates/probabilities, so their reachable *sets* coincide too.
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn paper_models_proved_clean_at_n1() {
    for strategy in STRATEGIES {
        let model = paper_model(1, strategy);
        let outcome = Checker::with_config(CheckConfig {
            max_states: 1 << 14,
            ..CheckConfig::ahs()
        })
        .check(&model)
        .unwrap();
        assert!(
            outcome.proved(),
            "strategy {strategy:?} violations: {:?}",
            outcome.violations
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large graph; run under --release (CI model-check job)"
)]
fn paper_model_n2_state_count_is_pinned() {
    let model = paper_model(2, Strategy::Dd);
    let graph = StateGraph::explore(&model, 300_000, None).unwrap();
    assert!(graph.complete());
    assert_eq!(graph.len(), MICRO_STATES_N2);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large graph; run under --release (CI model-check job)"
)]
fn paper_model_n2_cross_check_is_pinned() {
    let model = paper_model(2, Strategy::Dd);
    let graph = StateGraph::explore(&model, 300_000, None).unwrap();
    let cross = cross_validate(&model, &graph, 1 << 19).unwrap();
    assert!(cross.matches(), "{cross:?}");
    assert_eq!(cross.checker_stable_states, 97_917);
    assert_eq!(cross.ctmc_states, 97_917);
    assert_eq!(cross.checker_transition_pairs, 639_120);
    assert_eq!(cross.ctmc_transition_pairs, 639_120);
}
