//! The `Dynamicity` submodel (Figure 7): voluntary join and leave
//! events and platoon changes.

use ahs_san::{Delay, Marking, RateGroupId, SanBuilder, SanError};

use crate::model::Refs;
use crate::params::Params;

/// The shared-rate groups of the join and leave activities.
pub(crate) struct RateGroups {
    join: RateGroupId,
    leave: RateGroupId,
}

/// Declares the global join and leave rates as shared-rate groups: each
/// enabled member fires at the global rate divided by the number of
/// enabled members, so the total entry (exit) rate is the paper's
/// global parameter.
pub(crate) fn add_rate_groups(b: &mut SanBuilder, params: &Params) -> Result<RateGroups, SanError> {
    Ok(RateGroups {
        join: b.shared_rate_group("join", params.join_rate)?,
        leave: b.shared_rate_group("leave", params.leave_rate)?,
    })
}

/// Adds the join, leave, and change activities for vehicle `v`.
///
/// * **Join** — a vehicle waiting off the highway (`OUT`) enters at the
///   global join rate (shared equally among the waiting vehicles, so
///   the total entry rate matches the paper's global parameter). It
///   picks uniformly among platoons with free capacity (the paper's
///   `JP` cases — ½/½ for the two-platoon configuration with overflow
///   to the other platoon when one is full), taking the last position.
/// * **Leave** — operating vehicles exit voluntarily from platoon 1
///   (the exit lane) only, at the global leave rate shared among
///   candidates; other platoons' vehicles must change toward platoon 1
///   first (paper §4.1: "each vehicle in platoon2 leaving the highway
///   should pass through platoon1").
/// * **Change** — `ch1`/`ch2`: an operating vehicle moves to an
///   *adjacent* platoon with space at a constant per-vehicle rate,
///   choosing uniformly when both directions are possible. For the
///   paper's two-platoon setup this degenerates to the plain swap.
pub(crate) fn add_activities(
    b: &mut SanBuilder,
    v: usize,
    refs: &Refs,
    groups: &RateGroups,
    params: &Params,
) -> Result<(), SanError> {
    add_join(b, v, refs, groups.join)?;
    add_leave(b, v, refs, groups.leave)?;
    add_change(b, v, refs, params)?;
    Ok(())
}

fn add_join(b: &mut SanBuilder, v: usize, refs: &Refs, group: RateGroupId) -> Result<(), SanError> {
    let vp = refs.vehicles[v];
    let num_platoons = refs.num_platoons();

    let gate_refs = refs.clone();
    let space_touches: Vec<_> = std::iter::once(refs.ko_total)
        .chain(refs.platoon_arrays.iter().copied())
        .collect();
    let space_gate = b.predicate_gate_touching("join_space", space_touches, move |m: &Marking| {
        !m.is_marked(gate_refs.ko_total) && gate_refs.open_platoons(m) != 0
    });

    // One case per platoon, uniform over platoons with space. Gates
    // must exist before the activity chain borrows the builder.
    let mut gates = Vec::with_capacity(num_platoons);
    for k in 1..=num_platoons as u64 {
        let og_refs = refs.clone();
        gates.push(b.output_gate_touching(
            &format!("join_p{k}"),
            [vp.platoon, vp.present, refs.array_place(k)],
            move |m: &mut Marking| {
                m.set_tokens(vp.platoon, k);
                m.add_tokens(vp.present, 1);
                og_refs.array_append(m, k, v as i64 + 1);
            },
        ));
    }
    // Enabled iff `OUT` is marked and `join_space` holds, and
    // `join_space` is the same for every vehicle, so the group's
    // enabled members are exactly the waiting vehicles.
    let mut ab = b
        .timed_activity("join", Delay::shared(group))?
        .input_place(vp.out)
        .input_gate(space_gate);
    for (idx, og) in gates.into_iter().enumerate() {
        let k = idx as u64 + 1;
        let prob_refs = refs.clone();
        ab = ab
            .case_fn(move |m: &Marking| {
                let open = prob_refs.open_platoons(m);
                if open >> k & 1 == 1 {
                    1.0 / f64::from(open.count_ones())
                } else {
                    0.0
                }
            })
            .output_gate(og);
    }
    ab.build()?;
    Ok(())
}

fn add_leave(
    b: &mut SanBuilder,
    v: usize,
    refs: &Refs,
    group: RateGroupId,
) -> Result<(), SanError> {
    let vp = refs.vehicles[v];

    // Operating (no active maneuver) in platoon 1, system not frozen.
    let gate_refs = refs.clone();
    let gate_touches: Vec<_> = [refs.ko_total, vp.present, vp.platoon]
        .into_iter()
        .chain(vp.maneuvers)
        .collect();
    let gate = b.predicate_gate_touching("leave_operating", gate_touches, move |m: &Marking| {
        !m.is_marked(gate_refs.ko_total)
            && m.is_marked(vp.present)
            && m.tokens(vp.platoon) == 1
            && gate_refs.active_slot(m, v).is_none()
    });

    let og_refs = refs.clone();
    let og = b.output_gate_touching(
        "leave_out",
        [vp.present, vp.platoon, refs.array_place(1), vp.out],
        move |m: &mut Marking| {
            m.set_tokens(vp.present, 0);
            m.set_tokens(vp.platoon, 0);
            og_refs.array_remove(m, 1, v as i64 + 1);
            m.add_tokens(vp.out, 1);
        },
    );

    // The group's enabled members are the platoon-1 operating vehicles.
    b.timed_activity("leave", Delay::shared(group))?
        .input_gate(gate)
        .output_gate(og)
        .build()?;
    Ok(())
}

/// The open platoons adjacent to platoon `which` (1-based), as a bit
/// set in the layout of [`Refs::open_platoons`]; empty for `which = 0`
/// (not on the highway).
fn open_adjacent(refs: &Refs, m: &Marking, which: u64) -> u64 {
    if which == 0 {
        return 0;
    }
    [which - 1, which + 1]
        .into_iter()
        .filter(|&k| (1..=refs.num_platoons() as u64).contains(&k) && refs.has_room(m, k))
        .fold(0, |open, k| open | 1 << k)
}

fn add_change(b: &mut SanBuilder, v: usize, refs: &Refs, params: &Params) -> Result<(), SanError> {
    let vp = refs.vehicles[v];

    // Operating, and an adjacent platoon has space. Adjacency goes
    // first: it is the test that usually rejects, and it reads at most
    // three words (order does not change the value: the gate is pure).
    let gate_refs = refs.clone();
    let gate_touches: Vec<_> = [refs.ko_total, vp.present, vp.platoon]
        .into_iter()
        .chain(vp.maneuvers)
        .chain(refs.platoon_arrays.iter().copied())
        .collect();
    let gate = b.predicate_gate_touching("change_possible", gate_touches, move |m: &Marking| {
        open_adjacent(&gate_refs, m, m.tokens(vp.platoon)) != 0
            && !m.is_marked(gate_refs.ko_total)
            && m.is_marked(vp.present)
            && gate_refs.active_slot(m, v).is_none()
    });

    // One case per direction (down = toward the exit lane, up = away),
    // uniform over the open directions. Gates first, then the chain.
    let mut gates = Vec::with_capacity(2);
    for d in 0..2usize {
        let move_refs = refs.clone();
        let move_touches: Vec<_> = std::iter::once(vp.platoon)
            .chain(refs.platoon_arrays.iter().copied())
            .collect();
        gates.push(b.output_gate_touching(
            &format!("change_move_{d}"),
            move_touches,
            move |m: &mut Marking| {
                let from = m.tokens(vp.platoon);
                if from == 0 {
                    return;
                }
                let to = if d == 0 {
                    from.saturating_sub(1)
                } else {
                    from + 1
                };
                if to == 0 || to as usize > move_refs.num_platoons() {
                    return;
                }
                let id = v as i64 + 1;
                move_refs.array_remove(m, from, id);
                move_refs.array_append(m, to, id);
                m.set_tokens(vp.platoon, to);
            },
        ));
    }
    let mut ab = b
        .timed_activity("change", Delay::exponential(params.change_rate))?
        .input_gate(gate);
    // Case d = 0: move toward platoon 1 (exit side); d = 1: away.
    for (d, og) in gates.into_iter().enumerate() {
        let prob_refs = refs.clone();
        ab = ab.case_fn(move |m: &Marking| {
            let which = m.tokens(prob_refs.vehicles[v].platoon);
            if which == 0 {
                return if d == 0 { 1.0 } else { 0.0 };
            }
            let open = open_adjacent(&prob_refs, m, which);
            let down_open = open >> (which - 1) & 1 == 1;
            let up_open = open >> (which + 1) & 1 == 1;
            match (down_open, up_open) {
                (true, true) => 0.5,
                (true, false) => {
                    if d == 0 {
                        1.0
                    } else {
                        0.0
                    }
                }
                (false, true) => {
                    if d == 1 {
                        1.0
                    } else {
                        0.0
                    }
                }
                (false, false) => {
                    // Gate guarantees this is unreachable; keep the
                    // distribution valid regardless.
                    if d == 0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        });
        ab = ab.output_gate(og);
    }
    ab.build()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::model::AhsModel;
    use crate::params::Params;

    fn model(n: usize) -> AhsModel {
        AhsModel::build(&Params::builder().n(n).build().unwrap()).unwrap()
    }

    #[test]
    fn leave_moves_vehicle_out_and_compacts() {
        let model = model(3);
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        let leave0 = san.find_activity("vehicle[0].leave").unwrap();
        assert!(san.is_enabled(leave0, &m));
        san.fire(leave0, 0, &mut m);
        let vp = &h.vehicles[0];
        assert!(!m.is_marked(vp.present));
        assert!(m.is_marked(vp.out));
        assert_eq!(m.tokens(vp.platoon), 0);
        assert_eq!(m.array(h.platoon_arrays[0]), &[2, 3, 0]);
    }

    #[test]
    fn platoon2_vehicle_cannot_leave_directly() {
        let model = model(3);
        let san = model.san();
        let m = san.initial_marking().clone();
        // Vehicle 3 starts in platoon 2.
        let leave3 = san.find_activity("vehicle[3].leave").unwrap();
        assert!(!san.is_enabled(leave3, &m));
    }

    #[test]
    fn change_swaps_platoon_when_space_exists() {
        let model = model(3);
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        // Both platoons full initially: change is blocked.
        let ch0 = san.find_activity("vehicle[0].change").unwrap();
        assert!(!san.is_enabled(ch0, &m));

        // Free a slot in platoon 2 (vehicle 3 exits via a successful
        // TIE-N).
        let l = san.find_activity("vehicle[3].L6").unwrap();
        let man = san.find_activity("vehicle[3].maneuver_TIE-N").unwrap();
        san.fire(l, 0, &mut m);
        san.fire(man, 0, &mut m);
        assert_eq!(m.array(h.platoon_arrays[1]), &[5, 6, 0]);

        // Now vehicle 0 can change 1 → 2 (direction "up", case 1) and
        // takes the last position.
        assert!(san.is_enabled(ch0, &m));
        let probs = san.case_probabilities(ch0, &m).unwrap();
        assert_eq!(probs, vec![0.0, 1.0], "only the up direction is open");
        san.fire(ch0, 1, &mut m);
        assert_eq!(m.tokens(h.vehicles[0].platoon), 2);
        assert_eq!(m.array(h.platoon_arrays[0]), &[2, 3, 0]);
        assert_eq!(m.array(h.platoon_arrays[1]), &[5, 6, 1]);
    }

    #[test]
    fn join_returns_vehicle_to_a_platoon_with_space() {
        let model = model(2);
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        let leave0 = san.find_activity("vehicle[0].leave").unwrap();
        san.fire(leave0, 0, &mut m);
        let join0 = san.find_activity("vehicle[0].join").unwrap();
        assert!(san.is_enabled(join0, &m));

        // Only platoon 1 has space, so case probabilities are (1, 0).
        let probs = san.case_probabilities(join0, &m).unwrap();
        assert_eq!(probs, vec![1.0, 0.0]);
        san.fire(join0, 0, &mut m);
        assert!(m.is_marked(h.vehicles[0].present));
        assert_eq!(m.tokens(h.vehicles[0].platoon), 1);
        assert_eq!(m.array(h.platoon_arrays[0]), &[2, 1]);
    }

    #[test]
    fn join_picks_uniformly_among_open_platoons() {
        let model = model(2);
        let san = model.san();
        let mut m = san.initial_marking().clone();
        // Open a slot in both platoons.
        for v in [0usize, 2] {
            let l = san.find_activity(&format!("vehicle[{v}].L6")).unwrap();
            let man = san
                .find_activity(&format!("vehicle[{v}].maneuver_TIE-N"))
                .unwrap();
            san.fire(l, 0, &mut m);
            san.fire(man, 0, &mut m);
        }
        // Bring vehicle 0 back through OUT.
        let back = san.find_activity("vehicle[0].back_to_ok").unwrap();
        san.fire(back, 0, &mut m);
        let join0 = san.find_activity("vehicle[0].join").unwrap();
        let probs = san.case_probabilities(join0, &m).unwrap();
        assert_eq!(probs, vec![0.5, 0.5]);
    }

    #[test]
    fn join_rate_splits_among_waiting_vehicles() {
        let model = model(3);
        let san = model.san();
        let mut m = san.initial_marking().clone();
        let leave0 = san.find_activity("vehicle[0].leave").unwrap();
        let leave1 = san.find_activity("vehicle[1].leave").unwrap();
        san.fire(leave0, 0, &mut m);
        let join0 = san.find_activity("vehicle[0].join").unwrap();
        let r1 = san.exponential_rate(join0, &m).unwrap();
        san.fire(leave1, 0, &mut m);
        let r2 = san.exponential_rate(join0, &m).unwrap();
        assert!(
            (r1 - 12.0).abs() < 1e-9,
            "single waiter gets full rate, got {r1}"
        );
        assert!(
            (r2 - 6.0).abs() < 1e-9,
            "two waiters split the rate, got {r2}"
        );
    }

    #[test]
    fn three_platoon_highway_changes_are_adjacent_only() {
        let params = Params::builder().n(2).platoons(3).build().unwrap();
        let model = AhsModel::build(&params).unwrap();
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();
        assert_eq!(h.platoon_arrays.len(), 3);
        assert_eq!(m.array(h.platoon_arrays[2]), &[5, 6]);

        // Free one slot in platoon 2 (vehicle 2 exits).
        let l = san.find_activity("vehicle[2].L6").unwrap();
        let man = san.find_activity("vehicle[2].maneuver_TIE-N").unwrap();
        san.fire(l, 0, &mut m);
        san.fire(man, 0, &mut m);

        // A platoon-3 vehicle may move down to platoon 2...
        let ch4 = san.find_activity("vehicle[4].change").unwrap();
        assert!(san.is_enabled(ch4, &m));
        let probs = san.case_probabilities(ch4, &m).unwrap();
        assert_eq!(probs, vec![1.0, 0.0], "down only");
        san.fire(ch4, 0, &mut m);
        assert_eq!(m.tokens(h.vehicles[4].platoon), 2);

        // ...but a platoon-1 vehicle cannot jump toward the slot that
        // is now only in platoon 3: its sole adjacent platoon (2) is
        // full again, so the change is disabled.
        let ch0 = san.find_activity("vehicle[0].change").unwrap();
        assert!(!san.is_enabled(ch0, &m));
    }
}
