//! Invariants of the composed AHS SAN model, checked along random
//! execution paths and, at n ≤ 2, on every reachable stable marking.
//!
//! Invariants:
//!
//! 1. at most one maneuver place is marked per vehicle;
//! 2. the shared severity counters always equal the per-vehicle
//!    recount of active maneuvers by class;
//! 3. platoon occupancy arrays are consistent with the per-vehicle
//!    platoon indicators (same members, compacted, no duplicates);
//! 4. every vehicle is in exactly one lifecycle state
//!    (present / ok / ko / out);
//! 5. platoon sizes never exceed the capacity `n`;
//! 6. `KO_total` is absorbing: once marked, no timed activity is
//!    enabled.
//!
//! The `join_space` and `change_possible` gates read only the
//! occupancy arrays (a platoon has room iff its array's last entry is
//! empty), so they are correct only while invariant 3 holds. The
//! exhaustive cases prove it on every reachable stable marking and
//! check each `change`/`join` against its definition recomputed from
//! the platoon indicators; the read-set pin keeps the gates from
//! declaring every vehicle's indicator again.

use ahs_core::{AhsModel, Params, SeverityClass, Strategy, MANEUVERS};
use ahs_ctmc::{SanMarkovModel, StateSpace};
use ahs_san::{ActivityId, Marking};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn check_invariants(model: &AhsModel, m: &Marking) -> Result<(), String> {
    let h = model.handles();
    let n = model.params().n;
    let platoons = h.platoon_arrays.len();
    let mut count_a = 0u64;
    let mut count_b = 0u64;
    let mut count_c = 0u64;
    let mut members: Vec<Vec<i64>> = vec![Vec::new(); platoons];

    for (v, vp) in h.vehicles.iter().enumerate() {
        let marked: Vec<usize> = (0..6).filter(|&s| m.is_marked(vp.maneuvers[s])).collect();
        if marked.len() > 1 {
            return Err(format!("vehicle {v} has {} active maneuvers", marked.len()));
        }
        if let Some(&slot) = marked.first() {
            match ahs_core::class_of_maneuver(MANEUVERS[slot]) {
                SeverityClass::A => count_a += 1,
                SeverityClass::B => count_b += 1,
                SeverityClass::C => count_c += 1,
            }
            if !m.is_marked(vp.present) {
                return Err(format!("vehicle {v} recovering but not present"));
            }
        }

        let lifecycle = [
            m.is_marked(vp.present),
            m.is_marked(vp.ok),
            m.is_marked(vp.ko),
            m.is_marked(vp.out),
        ];
        if lifecycle.iter().filter(|&&x| x).count() != 1 {
            return Err(format!("vehicle {v} lifecycle states: {lifecycle:?}"));
        }

        let platoon = m.tokens(vp.platoon);
        if m.is_marked(vp.present) {
            if platoon < 1 || platoon as usize > platoons {
                return Err(format!("present vehicle {v} has platoon {platoon}"));
            }
            members[platoon as usize - 1].push(v as i64 + 1);
        } else if platoon != 0 {
            return Err(format!("absent vehicle {v} still assigned to {platoon}"));
        }
    }

    if m.tokens(h.class_a) != count_a
        || m.tokens(h.class_b) != count_b
        || m.tokens(h.class_c) != count_c
    {
        return Err(format!(
            "severity counters ({}, {}, {}) != recount ({count_a}, {count_b}, {count_c})",
            m.tokens(h.class_a),
            m.tokens(h.class_b),
            m.tokens(h.class_c)
        ));
    }

    for (idx, &place) in h.platoon_arrays.iter().enumerate() {
        let which = idx + 1;
        let arr = m.array(place);
        let filled: Vec<i64> = arr.iter().copied().filter(|&x| x != 0).collect();
        if filled.len() > n {
            return Err(format!("platoon {which} over capacity: {filled:?}"));
        }
        // Compacted: no zero before a non-zero.
        let first_zero = arr.iter().position(|&x| x == 0).unwrap_or(arr.len());
        if arr[first_zero..].iter().any(|&x| x != 0) {
            return Err(format!("platoon {which} array not compacted: {arr:?}"));
        }
        let mut expected = members[which - 1].clone();
        let mut got = filled.clone();
        expected.sort_unstable();
        got.sort_unstable();
        if expected != got {
            return Err(format!(
                "platoon {which} array {got:?} != indicator-derived {expected:?}"
            ));
        }
    }

    if m.is_marked(h.ko_total) && !model.san().enabled_timed(m).is_empty() {
        return Err("timed activity enabled after KO_total".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn invariants_hold_along_random_paths(
        seed in any::<u64>(),
        n in 1usize..4,
        platoons in 2usize..5,
        steps in 1usize..400,
    ) {
        // Large λ and small maneuver success so escalations, KOs, and
        // dynamicity all get exercised within few steps.
        let params = Params::builder()
            .lambda(0.5)
            .n(n)
            .platoons(platoons)
            .join_rate(20.0)
            .leave_rate(10.0)
            .change_rate(10.0)
            .maneuver_base_failure(0.4)
            .impairment_penalty(0.3)
            .build()
            .unwrap();
        let model = AhsModel::build(&params).unwrap();
        let san = model.san();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = san.initial_marking().clone();
        san.stabilize(&mut m, &mut rng).unwrap();
        check_invariants(&model, &m).map_err(TestCaseError::fail)?;

        for step in 0..steps {
            let enabled = san.enabled_timed(&m);
            if enabled.is_empty() {
                break;
            }
            let a = enabled[rng.random_range(0..enabled.len())];
            let case = san.select_case(a, &m, &mut rng).unwrap();
            san.fire(a, case, &mut m);
            san.stabilize(&mut m, &mut rng).unwrap();
            check_invariants(&model, &m)
                .map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
        }
    }
}

/// Every vehicle's `(change, join)` activity.
fn platoon_activities(model: &AhsModel) -> Vec<(ActivityId, ActivityId)> {
    let san = model.san();
    (0..model.handles().vehicles.len())
        .map(|v| {
            let find = |kind: &str| san.find_activity(&format!("vehicle[{v}].{kind}")).unwrap();
            (find("change"), find("join"))
        })
        .collect()
}

/// Checks each `change`/`join` against its definition recomputed from
/// the platoon indicators alone: platoon `k` has room iff fewer than
/// `n` vehicles carry indicator `k`; `change` needs a present, idle
/// vehicle with an adjacent platoon that has room; `join` needs a
/// waiting vehicle and any platoon with room. Neither fires under KO.
fn check_platoon_gates(
    model: &AhsModel,
    activities: &[(ActivityId, ActivityId)],
    m: &Marking,
) -> Result<(), String> {
    let h = model.handles();
    let n = model.params().n;
    let platoons = h.platoon_arrays.len() as u64;
    let has_room = |k: u64| {
        (1..=platoons).contains(&k)
            && h.vehicles
                .iter()
                .filter(|vp| m.tokens(vp.platoon) == k)
                .count()
                < n
    };
    let ko = m.is_marked(h.ko_total);
    let any_room = (1..=platoons).any(has_room);
    for (v, (vp, &(change, join))) in h.vehicles.iter().zip(activities).enumerate() {
        let which = m.tokens(vp.platoon);
        let idle = vp.maneuvers.iter().all(|&p| !m.is_marked(p));
        let expect_change = !ko
            && m.is_marked(vp.present)
            && idle
            && which > 0
            && (has_room(which - 1) || has_room(which + 1));
        let expect_join = !ko && m.is_marked(vp.out) && any_room;
        for (kind, a, expect) in [
            ("change", change, expect_change),
            ("join", join, expect_join),
        ] {
            let got = model.san().is_enabled(a, m);
            if got != expect {
                return Err(format!(
                    "vehicle {v} {kind}: enabled = {got}, indicator definition says {expect}"
                ));
            }
        }
    }
    Ok(())
}

/// Explores every reachable stable marking of `params`' model and
/// checks the invariants and the platoon gates on each.
fn check_every_reachable_marking(params: Params) {
    let model = AhsModel::build(&params).unwrap();
    let activities = platoon_activities(&model);
    let adapter = SanMarkovModel::new(model.san()).unwrap();
    let space = StateSpace::explore(&adapter, 1 << 19).unwrap();
    for (i, m) in space.states().enumerate() {
        check_invariants(&model, &m)
            .and_then(|()| check_platoon_gates(&model, &activities, &m))
            .unwrap_or_else(|e| panic!("state {i} of {}: {e}\n{m:?}", space.len()));
    }
}

fn params(n: usize, strategy: Strategy, platoons: usize) -> Params {
    Params::builder()
        .n(n)
        .strategy(strategy)
        .platoons(platoons)
        .build()
        .unwrap()
}

#[test]
fn every_reachable_marking_n1_dd() {
    check_every_reachable_marking(params(1, Strategy::Dd, 2));
}

#[test]
fn every_reachable_marking_n1_cc() {
    check_every_reachable_marking(params(1, Strategy::Cc, 2));
}

#[test]
fn every_reachable_marking_n1_three_platoons() {
    check_every_reachable_marking(params(1, Strategy::Dd, 3));
}

/// At n = 1 every array has one slot, so only this case can tell a
/// gate reading the last entry from one reading the first.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "97 917-state chain; run under --release (CI model-check job)"
)]
fn every_reachable_marking_n2_dd() {
    check_every_reachable_marking(params(2, Strategy::Dd, 2));
}

/// At n = 8 the platoon gates read the occupancy arrays and the
/// vehicle's own indicator, never another vehicle's, and the
/// re-evaluation work per firing stays at its measured size.
#[test]
fn platoon_gate_read_sets_are_pinned() {
    let model = AhsModel::build(&params(8, Strategy::Dd, 2)).unwrap();
    let san = model.san();
    let graph = san.dependency_graph();
    let vehicles = &model.handles().vehicles;
    for (v, &(change, join)) in platoon_activities(&model).iter().enumerate() {
        for a in [change, join] {
            let reads = graph.read_set(a);
            for (u, other) in vehicles.iter().enumerate() {
                assert!(
                    u == v || !reads.contains(&other.platoon),
                    "vehicle {v} {} reads vehicle {u}'s platoon indicator",
                    san.activity(a).name()
                );
            }
        }
        let leave = san.find_activity(&format!("vehicle[{v}].leave")).unwrap();
        assert_eq!(graph.affected_by(change).len(), 33, "vehicle {v} change");
        assert_eq!(graph.affected_by(join).len(), 39, "vehicle {v} join");
        assert_eq!(graph.affected_by(leave).len(), 39, "vehicle {v} leave");
    }
}
