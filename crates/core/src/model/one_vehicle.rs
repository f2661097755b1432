//! The `One_vehicle` submodel (Figure 5): failure modes, maneuver
//! selection with priorities, escalation, and outcome.

use std::sync::Arc;

use ahs_san::{ActivityId, Delay, Marking, SanBuilder, SanError};

use crate::failure::{
    class_of_maneuver, escalation_of, maneuver_priority, maneuver_slot, FailureMode, MANEUVERS,
};
use crate::model::Refs;
use crate::params::Params;
use crate::strategy::involved_vehicles;

/// Adds the failure activities `L₁…L₆` and the six maneuver-execution
/// activities for vehicle `v`. Returns `(failure activities, maneuver
/// activities)`.
pub(crate) fn add_activities(
    b: &mut SanBuilder,
    v: usize,
    refs: &Refs,
    params: &Params,
) -> Result<(Vec<ActivityId>, Vec<ActivityId>), SanError> {
    let mut failures = Vec::with_capacity(6);
    let mut maneuvers = Vec::with_capacity(6);

    for fm in FailureMode::ALL {
        failures.push(add_failure_mode(b, v, fm, refs, params)?);
    }
    for m in MANEUVERS {
        maneuvers.push(add_maneuver(b, v, m, refs, params)?);
    }
    add_back_to(b, v, refs, params)?;
    Ok((failures, maneuvers))
}

/// The failure activity `Lᵢ`: fires while the vehicle is present and no
/// maneuver of equal or higher priority is active; on completion the
/// recovery maneuver of Table 1 starts, preempting any lower-priority
/// maneuver (paper §2.1.1: "when a higher priority maneuver is
/// activated, all lower priority maneuvers associated with the same
/// vehicle are inhibited").
fn add_failure_mode(
    b: &mut SanBuilder,
    v: usize,
    fm: FailureMode,
    refs: &Refs,
    params: &Params,
) -> Result<ActivityId, SanError> {
    let maneuver = fm.maneuver();
    let prio = maneuver_priority(maneuver);
    let slot = maneuver_slot(maneuver);
    let vp = refs.vehicles[v];
    let rate = params.failure_rate(fm);

    // Enabling: present, system not yet frozen in KO_total, and the new
    // maneuver would outrank whatever is active. Reads and writes are
    // declared separately: the predicate never consults the shared
    // severity-class counters, and folding them into the read-set (as a
    // plain `touches` declaration would) couples every vehicle's
    // triggers to every other's in the dependency graph.
    let guard_refs = refs.clone();
    let gate_reads: Vec<_> = [refs.ko_total, vp.present]
        .into_iter()
        .chain(vp.maneuvers)
        .collect();
    let gate_writes: Vec<_> = [refs.class_a, refs.class_b, refs.class_c]
        .into_iter()
        .chain(vp.maneuvers)
        .collect();
    let gate = b.input_gate_touching_split(
        &format!("f{}", fm.index() + 1),
        gate_reads,
        gate_writes,
        move |m: &Marking| {
            !m.is_marked(guard_refs.ko_total)
                && m.is_marked(vp.present)
                && prio > guard_refs.active_priority(m, v)
        },
        // Marking function: demote the currently active lower-priority
        // maneuver, if any (its severity contribution moves to the new
        // class in the output gate).
        {
            let demote_refs = refs.clone();
            move |m: &mut Marking| {
                if let Some(old) = demote_refs.active_slot(m, v) {
                    m.remove_tokens(vp.maneuvers[old], 1);
                    let old_class = class_of_maneuver(MANEUVERS[old]);
                    m.remove_tokens(demote_refs.class_place(old_class), 1);
                }
            }
        },
    );

    // Output: start the maneuver and account its severity class.
    let out_refs = refs.clone();
    let og = b.output_gate_touching(
        &format!("fm{}", fm.index() + 1),
        [
            vp.maneuvers[slot],
            refs.class_place(class_of_maneuver(MANEUVERS[slot])),
        ],
        move |m: &mut Marking| {
            m.add_tokens(vp.maneuvers[slot], 1);
            m.add_tokens(out_refs.class_place(class_of_maneuver(MANEUVERS[slot])), 1);
        },
    );

    b.timed_activity(&format!("L{}", fm.index() + 1), Delay::exponential(rate))?
        .input_gate(gate)
        .output_gate(og)
        .build()
}

/// Probability that an attempt of `maneuver` by vehicle `v` fails,
/// given the current marking: a base probability plus a penalty
/// proportional to the expected number of *impaired* vehicles among the
/// maneuver's involved set (whose size is the coordination-strategy
/// mechanism of §2.2).
fn failure_probability(
    refs: &Refs,
    params: &Params,
    v: usize,
    maneuver: ahs_platoon::RecoveryManeuver,
    m: &Marking,
) -> f64 {
    let vp = &refs.vehicles[v];
    let own_platoon = m.tokens(vp.platoon);
    let (own, other) = if own_platoon == 0 {
        // Not in a platoon (shouldn't happen mid-maneuver): minimal set.
        (1, 0)
    } else {
        let neighbor = refs.neighbor_platoon(own_platoon);
        (
            refs.platoon_size(m, own_platoon),
            refs.platoon_size(m, neighbor),
        )
    };
    let involved = involved_vehicles(maneuver, params.strategy, own.max(1), other);
    let present_others = refs.present_count(m).saturating_sub(1).max(1);
    let impaired_others = refs.recovering_count(m).saturating_sub(1);
    let frac_impaired = impaired_others as f64 / present_others as f64;
    let p = params.maneuver_base_failure
        + params.impairment_penalty * (involved.saturating_sub(1)) as f64 * frac_impaired;
    p.clamp(0.0, 0.95)
}

/// The maneuver-execution activity: exponential with the maneuver's
/// rate, enabled while `SMᵢ` is marked. Success releases the vehicle
/// from the highway (`v_OK`); failure escalates to the next
/// higher-priority maneuver, or marks `v_KO` when the Aided Stop — the
/// last resort — fails.
fn add_maneuver(
    b: &mut SanBuilder,
    v: usize,
    maneuver: ahs_platoon::RecoveryManeuver,
    refs: &Refs,
    params: &Params,
) -> Result<ActivityId, SanError> {
    let slot = maneuver_slot(maneuver);
    let vp = refs.vehicles[v];
    let rate = params.maneuver_rates.rate(maneuver);
    let class = class_of_maneuver(maneuver);

    let p_fail: Arc<dyn Fn(&Marking) -> f64 + Send + Sync> = {
        let refs = refs.clone();
        let params = params.clone();
        Arc::new(move |m: &Marking| failure_probability(&refs, &params, v, maneuver, m))
    };

    // Success: the vehicle exits the highway safely.
    let ok_refs = refs.clone();
    let ok_touches: Vec<_> = [refs.class_place(class), vp.present, vp.ok, vp.platoon]
        .into_iter()
        .chain(refs.platoon_arrays.iter().copied())
        .collect();
    let og_ok = b.output_gate_touching(
        &format!("og_ok_{}", maneuver.abbreviation()),
        ok_touches,
        move |m: &mut Marking| {
            m.remove_tokens(ok_refs.class_place(class), 1);
            m.set_tokens(vp.present, 0);
            m.add_tokens(vp.ok, 1);
            release_platoon_slot(&ok_refs, m, v);
        },
    );

    // Failure: escalate, or v_KO after a failed Aided Stop. The touch
    // set depends statically on whether the maneuver escalates.
    let fail_refs = refs.clone();
    let mut fail_touches = vec![refs.class_place(class)];
    match escalation_of(maneuver) {
        Some(next) => {
            fail_touches.push(vp.maneuvers[maneuver_slot(next)]);
            fail_touches.push(refs.class_place(class_of_maneuver(next)));
        }
        None => {
            fail_touches.extend([vp.present, vp.ko, vp.platoon]);
            fail_touches.extend(refs.platoon_arrays.iter().copied());
        }
    }
    let og_fail = b.output_gate_touching(
        &format!("og_fail_{}", maneuver.abbreviation()),
        fail_touches,
        {
            move |m: &mut Marking| {
                m.remove_tokens(fail_refs.class_place(class), 1);
                match escalation_of(maneuver) {
                    Some(next) => {
                        let next_slot = maneuver_slot(next);
                        m.add_tokens(vp.maneuvers[next_slot], 1);
                        m.add_tokens(fail_refs.class_place(class_of_maneuver(next)), 1);
                    }
                    None => {
                        // The vehicle becomes a stopped free agent; the
                        // platoons continue without it (paper §3.2.1).
                        m.set_tokens(vp.present, 0);
                        m.add_tokens(vp.ko, 1);
                        release_platoon_slot(&fail_refs, m, v);
                    }
                }
            }
        },
    );

    let p_fail_success = Arc::clone(&p_fail);
    let freeze = freeze_gate(b, &format!("freeze_{}", maneuver.abbreviation()), refs);
    b.timed_activity(
        &format!("maneuver_{}", maneuver.abbreviation()),
        Delay::exponential(rate),
    )?
    .input_place(vp.maneuvers[slot])
    .input_gate(freeze)
    .case_fn(move |m| 1.0 - p_fail_success(m))
    .output_gate(og_ok)
    .case_fn(move |m| p_fail(m))
    .output_gate(og_fail)
    .build()
}

/// The `back_to` activities (Figure 5): a slot released through `v_OK`
/// or `v_KO` becomes available for a new vehicle to join.
fn add_back_to(b: &mut SanBuilder, v: usize, refs: &Refs, params: &Params) -> Result<(), SanError> {
    let vp = refs.vehicles[v];
    let freeze = freeze_gate(b, "back_freeze", refs);
    b.timed_activity("back_to_ok", Delay::exponential(params.back_rate))?
        .input_place(vp.ok)
        .input_gate(freeze)
        .output_place(vp.out)
        .build()?;
    let freeze = freeze_gate(b, "back_freeze_ko", refs);
    b.timed_activity("back_to_ko", Delay::exponential(params.back_rate))?
        .input_place(vp.ko)
        .input_gate(freeze)
        .output_place(vp.out)
        .build()?;
    Ok(())
}

/// A pure predicate gate that freezes an activity once `KO_total` is
/// marked — the unsafe state is absorbing for the whole system.
pub(crate) fn freeze_gate(b: &mut SanBuilder, name: &str, refs: &Refs) -> ahs_san::InputGateId {
    let ko = refs.ko_total;
    b.predicate_gate_touching(name, [ko], move |m: &Marking| !m.is_marked(ko))
}

/// Clears the vehicle's platoon membership: indicator to 0 and removal
/// (with compaction) from the occupancy array.
fn release_platoon_slot(refs: &Refs, m: &mut Marking, v: usize) {
    let vp = &refs.vehicles[v];
    let which = m.tokens(vp.platoon);
    let id = v as i64 + 1;
    if which >= 1 && which as usize <= refs.num_platoons() {
        refs.array_remove(m, which, id);
    }
    m.set_tokens(vp.platoon, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AhsModel;
    use crate::params::Params;
    use crate::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_model() -> AhsModel {
        let params = Params::builder().n(2).build().unwrap();
        AhsModel::build(&params).unwrap()
    }

    #[test]
    fn failure_fires_and_starts_its_maneuver() {
        let model = tiny_model();
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        // FM6 on vehicle 0 → TIE-N (slot 0) active, class_C = 1.
        let l6 = san.find_activity("vehicle[0].L6").unwrap();
        assert!(san.is_enabled(l6, &m));
        san.fire(l6, 0, &mut m);
        assert!(m.is_marked(h.vehicles[0].maneuvers[0]));
        assert_eq!(m.tokens(h.class_c), 1);
        assert_eq!(m.tokens(h.class_a), 0);
    }

    #[test]
    fn higher_priority_failure_preempts() {
        let model = tiny_model();
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        let l6 = san.find_activity("vehicle[0].L6").unwrap(); // TIE-N (C)
        let l1 = san.find_activity("vehicle[0].L1").unwrap(); // AS (A)
        san.fire(l6, 0, &mut m);
        assert!(san.is_enabled(l1, &m), "AS outranks TIE-N");
        san.fire(l1, 0, &mut m);
        // TIE-N demoted, AS active, counters moved C → A.
        assert!(!m.is_marked(h.vehicles[0].maneuvers[0]));
        assert!(m.is_marked(h.vehicles[0].maneuvers[5]));
        assert_eq!(m.tokens(h.class_c), 0);
        assert_eq!(m.tokens(h.class_a), 1);
        // And the reverse is inhibited: L6 now disabled.
        assert!(!san.is_enabled(l6, &m));
    }

    #[test]
    fn equal_priority_does_not_preempt() {
        let model = tiny_model();
        let san = model.san();
        let mut m = san.initial_marking().clone();
        let l4 = san.find_activity("vehicle[0].L4").unwrap(); // TIE-E (B2)
        let l5 = san.find_activity("vehicle[0].L5").unwrap(); // TIE (B1)
        san.fire(l4, 0, &mut m);
        assert!(!san.is_enabled(l5, &m), "equal priority must not preempt");
    }

    #[test]
    fn maneuver_success_releases_vehicle() {
        let model = tiny_model();
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        let l6 = san.find_activity("vehicle[0].L6").unwrap();
        san.fire(l6, 0, &mut m);
        let man = san.find_activity("vehicle[0].maneuver_TIE-N").unwrap();
        assert!(san.is_enabled(man, &m));
        san.fire(man, 0, &mut m); // case 0 = success
        let vp = &h.vehicles[0];
        assert!(m.is_marked(vp.ok));
        assert!(!m.is_marked(vp.present));
        assert_eq!(m.tokens(vp.platoon), 0);
        assert_eq!(m.tokens(h.class_c), 0);
        // Slot compacted out of the occupancy array.
        assert_eq!(m.array(h.platoon_arrays[0]), &[2, 0]);
    }

    #[test]
    fn maneuver_failure_escalates_along_the_chain() {
        let model = tiny_model();
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();

        let l6 = san.find_activity("vehicle[0].L6").unwrap();
        san.fire(l6, 0, &mut m);
        // Walk the full escalation chain by always taking case 1.
        let chain = ["TIE-N", "TIE", "GS", "CS", "AS"];
        for (step, abbr) in chain.iter().enumerate() {
            let man = san
                .find_activity(&format!("vehicle[0].maneuver_{abbr}"))
                .unwrap();
            assert!(san.is_enabled(man, &m), "step {step}: {abbr} not active");
            san.fire(man, 1, &mut m); // case 1 = failure
        }
        // AS failed: v_KO, all counters cleared.
        let vp = &h.vehicles[0];
        assert!(m.is_marked(vp.ko));
        assert!(!m.is_marked(vp.present));
        assert_eq!(m.tokens(h.class_a), 0);
        assert_eq!(m.tokens(h.class_b), 0);
        assert_eq!(m.tokens(h.class_c), 0);
    }

    #[test]
    fn failure_probability_increases_with_impairment_and_strategy() {
        let params_dd = Params::builder()
            .n(10)
            .strategy(Strategy::Dd)
            .build()
            .unwrap();
        let params_cc = Params::builder()
            .n(10)
            .strategy(Strategy::Cc)
            .build()
            .unwrap();
        let model = AhsModel::build(&params_dd).unwrap();
        let san = model.san();
        let mut m = san.initial_marking().clone();

        // Build a Refs equivalent through the public handles.
        let h = model.handles();
        let refs = Refs {
            vehicles: Arc::new(h.vehicles.clone()),
            ko_total: h.ko_total,
            class_a: h.class_a,
            class_b: h.class_b,
            class_c: h.class_c,
            platoon_arrays: h.platoon_arrays.clone(),
            capacity: 10,
        };
        let tie_e = ahs_platoon::RecoveryManeuver::TakeImmediateExitEscorted;

        // Nobody impaired: base probability only.
        let p0 = failure_probability(&refs, &params_dd, 0, tie_e, &m);
        assert!((p0 - params_dd.maneuver_base_failure).abs() < 1e-12);

        // Impair two other vehicles.
        let l1v1 = san.find_activity("vehicle[1].L1").unwrap();
        let l1v2 = san.find_activity("vehicle[2].L1").unwrap();
        san.fire(l1v1, 0, &mut m);
        san.fire(l1v2, 0, &mut m);
        // ...and vehicle 0 itself (so it has an active maneuver).
        let l4v0 = san.find_activity("vehicle[0].L4").unwrap();
        san.fire(l4v0, 0, &mut m);

        let p_dd = failure_probability(&refs, &params_dd, 0, tie_e, &m);
        let p_cc = failure_probability(&refs, &params_cc, 0, tie_e, &m);
        assert!(p_dd > p0, "impairment must raise failure probability");
        assert!(
            p_cc > p_dd,
            "centralized coordination involves more vehicles: {p_cc} vs {p_dd}"
        );
    }

    #[test]
    fn after_ko_total_everything_freezes() {
        let model = tiny_model();
        let san = model.san();
        let h = model.handles();
        let mut m = san.initial_marking().clone();
        m.add_tokens(h.ko_total, 1);
        assert!(
            san.enabled_timed(&m).is_empty(),
            "no timed activity may fire after KO_total"
        );
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(san.stabilize(&mut m, &mut rng).unwrap().is_empty());
    }
}
