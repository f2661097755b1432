//! The composed SAN model of the two-lane AHS (paper Figures 4–9).
//!
//! The paper composes `2n` replicas of a `One_vehicle` submodel with
//! three singleton submodels — `Severity`, `Dynamicity`, and
//! `Configuration` — through shared places (`Rep`/`Join` in Möbius).
//! Here each submodel is a builder module contributing places and
//! activities to one [`SanBuilder`]; sharing is by place handle, the
//! exact state-sharing semantics of the Möbius operators.
//!
//! Two documented foldings relative to the paper's figures:
//!
//! * the per-failure-mode places `CC₁…CC₆` of Figure 5 all receive
//!   their token together when the vehicle enters (place `IN` marked),
//!   so they are folded into the single `present` place — failure
//!   activities are gated on it;
//! * the `Configuration` submodel (Figure 8) performs initialization —
//!   ids, platoon assignment — which in this implementation is the
//!   deterministic computation of the initial marking
//!   ([`configuration`]).

pub(crate) mod configuration;
pub(crate) mod dynamicity;
pub(crate) mod one_vehicle;
pub(crate) mod severity;

use std::sync::Arc;

use ahs_san::{ActivityId, Marking, PlaceId, SanBuilder, SanModel};

use crate::error::AhsError;
use crate::failure::MANEUVERS;
use crate::params::Params;
use crate::severity::SeverityCount;

/// Place handles of one vehicle replica.
#[derive(Debug, Clone, Copy)]
pub struct VehiclePlaces {
    /// Marked while the vehicle is on the highway (operating or
    /// recovering) — the folded `IN`/`CCᵢ` of Figure 5.
    pub present: PlaceId,
    /// Token count 1 or 2 = current platoon; 0 = not on the highway.
    pub platoon: PlaceId,
    /// Maneuver-in-progress places, indexed by
    /// [`MANEUVERS`](crate::MANEUVERS) slot (the `SMᵢ` of Figure 5).
    pub maneuvers: [PlaceId; 6],
    /// Marked when the vehicle exited safely (`v_OK`).
    pub ok: PlaceId,
    /// Marked when every recovery failed (`v_KO`).
    pub ko: PlaceId,
    /// Marked while the vehicle's slot waits to be refilled (`OUT`).
    pub out: PlaceId,
}

/// Handles into the composed model needed by evaluators and tests.
#[derive(Debug, Clone)]
pub struct ModelHandles {
    /// The absorbing unsafe-state flag (`KO_total` of Figure 6).
    pub ko_total: PlaceId,
    /// Count of vehicles recovering from class-A failures.
    pub class_a: PlaceId,
    /// Count of vehicles recovering from class-B failures.
    pub class_b: PlaceId,
    /// Count of vehicles recovering from class-C failures.
    pub class_c: PlaceId,
    /// Occupancy arrays, one per platoon (extended places,
    /// vehicle-id+1 entries, 0 = empty slot). Index 0 = platoon 1, the
    /// exit lane.
    pub platoon_arrays: Vec<PlaceId>,
    /// Per-vehicle place handles.
    pub vehicles: Vec<VehiclePlaces>,
    /// Every failure activity `L_{i,v}` — the target set for
    /// importance-sampling bias schemes.
    pub failure_activities: Vec<ActivityId>,
    /// Every maneuver-execution activity.
    pub maneuver_activities: Vec<ActivityId>,
}

/// Shared references used by gate closures (cheap to clone; the vehicle
/// table is behind an [`Arc`]).
#[derive(Debug, Clone)]
pub(crate) struct Refs {
    pub vehicles: Arc<Vec<VehiclePlaces>>,
    pub ko_total: PlaceId,
    pub class_a: PlaceId,
    pub class_b: PlaceId,
    pub class_c: PlaceId,
    /// Occupancy arrays, index 0 = platoon 1.
    pub platoon_arrays: Vec<PlaceId>,
    pub capacity: usize,
}

impl Refs {
    /// Index of the marked maneuver place of vehicle `v`, if any.
    /// Invariant maintained by the model: at most one is marked.
    pub fn active_slot(&self, m: &Marking, v: usize) -> Option<usize> {
        self.vehicles[v]
            .maneuvers
            .iter()
            .position(|&p| m.is_marked(p))
    }

    /// Priority of vehicle `v`'s active maneuver (0 when idle).
    pub fn active_priority(&self, m: &Marking, v: usize) -> u8 {
        self.active_slot(m, v)
            .map_or(0, |s| crate::failure::maneuver_priority(MANEUVERS[s]))
    }

    /// Number of vehicles currently in platoon `which` (1-based): the
    /// length of its compacted occupancy array's non-zero prefix.
    pub fn platoon_size(&self, m: &Marking, which: u64) -> usize {
        m.array(self.array_place(which))
            .iter()
            .take_while(|&&id| id != 0)
            .count()
    }

    /// Vehicles on the highway (present).
    pub fn present_count(&self, m: &Marking) -> usize {
        self.vehicles
            .iter()
            .filter(|vp| m.is_marked(vp.present))
            .count()
    }

    /// Vehicles currently executing a recovery maneuver.
    pub fn recovering_count(&self, m: &Marking) -> usize {
        (0..self.vehicles.len())
            .filter(|&v| self.active_slot(m, v).is_some())
            .count()
    }

    /// Whether platoon `which` (1-based) holds fewer than `capacity`
    /// vehicles. The occupancy arrays are compacted and exactly
    /// `capacity` long, so this reads one word: the array's last entry.
    pub fn has_room(&self, m: &Marking, which: u64) -> bool {
        m.array(self.array_place(which))[self.capacity - 1] == 0
    }

    /// The platoons with a free slot, as a bit set: bit `k` is set iff
    /// platoon `k` (1-based) [has room](Self::has_room). One word per
    /// platoon, no allocation.
    pub fn open_platoons(&self, m: &Marking) -> u64 {
        (1..=self.num_platoons() as u64)
            .filter(|&k| self.has_room(m, k))
            .fold(0, |open, k| open | 1 << k)
    }

    /// Number of platoons.
    pub fn num_platoons(&self) -> usize {
        self.platoon_arrays.len()
    }

    /// The occupancy-array place of platoon `which` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `which` is not a valid platoon number.
    pub fn array_place(&self, which: u64) -> PlaceId {
        self.platoon_arrays[which as usize - 1]
    }

    /// Removes vehicle id `id` from platoon `which`'s occupancy array,
    /// compacting the remaining entries forward (the paper's position
    /// management after leave events).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `id` is not in the array: the array
    /// and the vehicle's platoon indicator would then disagree, and the
    /// platoon gates read the arrays.
    pub fn array_remove(&self, m: &mut Marking, which: u64, id: i64) {
        let arr = m.array_mut(self.array_place(which));
        let pos = arr.iter().position(|&x| x == id);
        debug_assert!(
            pos.is_some(),
            "array_remove: vehicle id {id} is not in platoon{which} {arr:?}"
        );
        if let Some(pos) = pos {
            arr.copy_within(pos + 1.., pos);
            if let Some(last) = arr.last_mut() {
                *last = 0;
            }
        }
    }

    /// Appends vehicle id `id` at the first free slot of platoon
    /// `which`'s occupancy array — "each time a vehicle joins a platoon
    /// it occupies the last position" (paper §3.2.3).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the array is full (see
    /// [`array_remove`](Self::array_remove)).
    pub fn array_append(&self, m: &mut Marking, which: u64, id: i64) {
        let arr = m.array_mut(self.array_place(which));
        let slot = arr.iter().position(|&x| x == 0);
        debug_assert!(
            slot.is_some(),
            "array_append: platoon{which} is full, cannot take vehicle id {id}: {arr:?}"
        );
        if let Some(slot) = slot {
            arr[slot] = id;
        }
    }

    /// The platoon whose leader coordinates with the faulty vehicle's
    /// platoon during inter-platoon maneuvers: the exit-side neighbour
    /// when it exists, otherwise the other side.
    pub fn neighbor_platoon(&self, which: u64) -> u64 {
        if which > 1 {
            which - 1
        } else {
            2
        }
    }

    /// The shared severity counters.
    pub fn severity_counts(&self, m: &Marking) -> SeverityCount {
        SeverityCount {
            a: m.tokens(self.class_a),
            b: m.tokens(self.class_b),
            c: m.tokens(self.class_c),
        }
    }

    /// The class-counter place for a severity class.
    pub fn class_place(&self, class: crate::SeverityClass) -> PlaceId {
        match class {
            crate::SeverityClass::A => self.class_a,
            crate::SeverityClass::B => self.class_b,
            crate::SeverityClass::C => self.class_c,
        }
    }
}

/// The composed AHS safety model: the paper's Figure 9 tree flattened
/// into one executable SAN plus the handles needed to define measures.
///
/// # Example
///
/// ```
/// use ahs_core::{AhsModel, Params};
///
/// let params = Params::builder().n(4).build()?;
/// let model = AhsModel::build(&params)?;
/// // 2n One_vehicle replicas (17 activities each) + the Severity
/// // submodel's to_KO.
/// assert_eq!(model.san().num_activities(), 8 * 17 + 1);
/// assert!(!model.is_unsafe(model.san().initial_marking()));
/// # Ok::<(), ahs_core::AhsError>(())
/// ```
pub struct AhsModel {
    san: SanModel,
    handles: ModelHandles,
    params: Params,
}

impl AhsModel {
    /// Builds the composed model for `params`.
    ///
    /// # Errors
    ///
    /// Returns [`AhsError::InvalidParameter`] if the parameters fail
    /// validation, or a wrapped [`SanError`](ahs_san::SanError) if
    /// assembly fails (which would be a bug in this crate).
    pub fn build(params: &Params) -> Result<Self, AhsError> {
        params.validate()?;
        let mut b = SanBuilder::new("ahs");
        // Every gate carries a `touches` declaration, so the builder's
        // strict checks (and the linter's gate-purity pass) can verify
        // the model instead of trusting it.
        b.validate_strict();

        // Configuration: all places and the initial marking.
        let (refs, vehicles) = configuration::build_places(&mut b, params)?;

        // Severity submodel (Figure 6).
        severity::add_to_ko(&mut b, &refs)?;

        // One_vehicle replicas (Figure 5) and Dynamicity (Figure 7).
        let mut failure_activities = Vec::new();
        let mut maneuver_activities = Vec::new();
        let total = params.total_vehicles();
        let groups = dynamicity::add_rate_groups(&mut b, params)?;
        b.replicate("vehicle", total, |b, v| {
            let (fails, mans) = one_vehicle::add_activities(b, v, &refs, params)?;
            failure_activities.extend(fails);
            maneuver_activities.extend(mans);
            dynamicity::add_activities(b, v, &refs, &groups, params)?;
            Ok(())
        })?;

        let san = b.build()?;
        let handles = ModelHandles {
            ko_total: refs.ko_total,
            class_a: refs.class_a,
            class_b: refs.class_b,
            class_c: refs.class_c,
            platoon_arrays: refs.platoon_arrays.clone(),
            vehicles,
            failure_activities,
            maneuver_activities,
        };
        Ok(AhsModel {
            san,
            handles,
            params: params.clone(),
        })
    }

    /// The underlying SAN.
    pub fn san(&self) -> &SanModel {
        &self.san
    }

    /// Consumes the wrapper, returning the SAN (needed by
    /// [`Study`](ahs_des::Study), which owns its model).
    pub fn into_san(self) -> (SanModel, ModelHandles) {
        (self.san, self.handles)
    }

    /// Handles into the model's places and activities.
    pub fn handles(&self) -> &ModelHandles {
        &self.handles
    }

    /// The parameters the model was built for.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The unsafety target predicate: `KO_total` marked.
    pub fn is_unsafe(&self, marking: &Marking) -> bool {
        marking.is_marked(self.handles.ko_total)
    }
}

impl std::fmt::Debug for AhsModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AhsModel")
            .field("n", &self.params.n)
            .field("places", &self.san.num_places())
            .field("activities", &self.san.num_activities())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    /// The places of `params`' model, one idle activity (a SAN needs
    /// one), and the initial marking.
    fn places_only(params: &Params) -> (Refs, Marking) {
        let mut b = SanBuilder::new("places");
        let (refs, _) = configuration::build_places(&mut b, params).unwrap();
        b.timed_activity("idle", ahs_san::Delay::exponential(1.0))
            .unwrap()
            .build()
            .unwrap();
        let m = b.build().unwrap().initial_marking().clone();
        (refs, m)
    }

    #[test]
    fn array_remove_compacts() {
        let (refs, mut m) = places_only(&Params::builder().n(4).build().unwrap());
        refs.array_remove(&mut m, 1, 2);
        assert_eq!(m.array(refs.array_place(1)), &[1, 3, 4, 0]);
        refs.array_remove(&mut m, 1, 1);
        refs.array_remove(&mut m, 1, 4);
        assert_eq!(m.array(refs.array_place(1)), &[3, 0, 0, 0]);
        refs.array_remove(&mut m, 1, 3);
        assert_eq!(m.array(refs.array_place(1)), &[0, 0, 0, 0]);
    }

    #[test]
    fn array_append_takes_last_position() {
        let (refs, mut m) = places_only(&Params::builder().n(3).build().unwrap());
        refs.array_remove(&mut m, 2, 4);
        refs.array_remove(&mut m, 2, 6);
        assert_eq!(m.array(refs.array_place(2)), &[5, 0, 0]);
        refs.array_append(&mut m, 2, 7);
        assert_eq!(m.array(refs.array_place(2)), &[5, 7, 0]);
        refs.array_append(&mut m, 2, 9);
        assert_eq!(m.array(refs.array_place(2)), &[5, 7, 9]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "vehicle id 9 is not in platoon1")]
    fn array_remove_of_an_absent_id_is_loud() {
        let (refs, mut m) = places_only(&Params::builder().n(2).build().unwrap());
        refs.array_remove(&mut m, 1, 9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "platoon2 is full, cannot take vehicle id 9")]
    fn array_append_to_a_full_array_is_loud() {
        let (refs, mut m) = places_only(&Params::builder().n(2).build().unwrap());
        refs.array_append(&mut m, 2, 9);
    }

    #[test]
    fn platoon_queries_read_the_arrays() {
        let (refs, mut m) = places_only(&Params::builder().n(3).platoons(3).build().unwrap());
        assert_eq!(refs.open_platoons(&m), 0);
        assert_eq!(refs.platoon_size(&m, 2), 3);
        refs.array_remove(&mut m, 2, 5);
        refs.array_remove(&mut m, 3, 7);
        refs.array_remove(&mut m, 3, 8);
        assert_eq!(refs.open_platoons(&m), 0b1100);
        assert_eq!(
            (1..=3)
                .map(|k| refs.platoon_size(&m, k))
                .collect::<Vec<_>>(),
            [3, 2, 1]
        );
    }

    #[test]
    fn model_builds_with_expected_structure() {
        let params = Params::builder().n(3).build().unwrap();
        let model = AhsModel::build(&params).unwrap();
        let total = params.total_vehicles();
        // Per vehicle: 6 failure + 6 maneuver + 2 back_to + join +
        // leave + change = 17 activities, plus the severity to_KO.
        assert_eq!(model.san().num_activities(), total * 17 + 1);
        assert_eq!(model.handles().failure_activities.len(), total * 6);
        assert_eq!(model.handles().maneuver_activities.len(), total * 6);
    }

    #[test]
    fn initial_marking_is_two_full_platoons() {
        let params = Params::builder().n(4).build().unwrap();
        let model = AhsModel::build(&params).unwrap();
        let m = model.san().initial_marking();
        let h = model.handles();
        assert!(!m.is_marked(h.ko_total));
        assert_eq!(m.tokens(h.class_a), 0);
        for (v, vp) in h.vehicles.iter().enumerate() {
            assert!(m.is_marked(vp.present), "vehicle {v} should be present");
            let expect = if v < 4 { 1 } else { 2 };
            assert_eq!(m.tokens(vp.platoon), expect, "vehicle {v}");
            assert!(!m.is_marked(vp.out));
        }
        assert_eq!(m.array(h.platoon_arrays[0]), &[1, 2, 3, 4]);
        assert_eq!(m.array(h.platoon_arrays[1]), &[5, 6, 7, 8]);
        assert!(model.san().is_stable(m), "initial marking must be stable");
    }

    #[test]
    fn model_is_structurally_clean() {
        let params = Params::builder().n(2).build().unwrap();
        let model = AhsModel::build(&params).unwrap();
        let report = model.san().analyze();
        assert!(
            report.always_enabled_activities.is_empty(),
            "{:?}",
            report.always_enabled_activities
        );
    }
}
