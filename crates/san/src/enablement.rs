//! Incremental enablement tracking.
//!
//! [`EnablementCache`] holds one enabled/disabled flag per activity,
//! kept current across firings via the model's static
//! [`DependencyGraph`](crate::DependencyGraph): after activity `a`
//! fires, only the activities in `affected_by(a)` are re-evaluated.
//! Alongside the flags it keeps a bitset of the enabled *timed* slots
//! (positions in [`SanModel::timed_activities`]), so the SSA rate sweep
//! visits only enabled slots, in ascending order, and the enabled
//! member count of a shared-rate group is a popcount of the bitset
//! under the group's slot mask.
//! The executors in `ahs-des` own one cache per simulator and thread it
//! through every run; all scratch buffers (instantaneous candidates,
//! weights, case probabilities, the fired-cascade log) live inside the
//! cache so the hot loop performs no allocation.
//!
//! ## Fallback semantics
//!
//! If the model's dependency graph is unsound (some gate lacks a
//! `touches` declaration), the cache runs in *full-rescan* mode: every
//! firing re-evaluates every activity. The model alone selects this;
//! [`EnablementCache::force_full_rescan`] forces one cache into it, as
//! the reference the lock-step tests drive a second cache against. The
//! flags end up identical either way; only the amount of predicate
//! work differs. Results are **bitwise identical** across modes because
//! enablement evaluation consumes no randomness and the cached
//! execution paths draw from the RNG in exactly the same order as the
//! uncached [`SanModel::stabilize`] / full-rescan paths.
//!
//! In debug builds every incremental update cross-checks the whole
//! flag vector against a fresh full rescan, so any unsound `touches`
//! declaration that slipped past the linter aborts loudly instead of
//! corrupting a study.

use rand::Rng;

use crate::activity::{ActivityId, Timing};
use crate::delay::{sample_exponential, RateGroupId};
use crate::error::SanError;
use crate::marking::Marking;
use crate::model::{SanModel, MAX_INSTANT_FIRINGS};

/// Per-simulator enablement state plus the hot-loop scratch buffers.
///
/// Create one with [`SanModel::new_cache`], prime it against a marking
/// with [`SanModel::prime_cache`], and keep it consistent by routing
/// every firing through [`SanModel::fire_cached`] /
/// [`SanModel::stabilize_cached`].
pub struct EnablementCache {
    /// One flag per activity, indexed by activity index.
    enabled: Vec<bool>,
    /// Timed-queue slot per activity (`u32::MAX` for instantaneous).
    timed_slot: Vec<u32>,
    /// One bit per timed slot, set iff that slot's activity is enabled.
    timed_bits: Vec<u64>,
    /// Per shared-rate group, the bitset of its members' timed slots
    /// (`timed_bits.len()` words each, groups back to back).
    group_masks: Vec<u64>,
    /// Instantaneous activities fired by the last `stabilize_cached`.
    fired: Vec<ActivityId>,
    /// Scratch: case probabilities.
    probs: Vec<f64>,
    /// Scratch: instantaneous tie-break weights.
    weights: Vec<f64>,
    /// Scratch: enabled instantaneous candidates.
    inst: Vec<ActivityId>,
    /// Full-rescan mode (unsound graph, or forced).
    rescan: bool,
    /// Whether `enabled` reflects some marking yet.
    primed: bool,
}

impl EnablementCache {
    fn new(model: &SanModel) -> Self {
        let n = model.activities().len();
        let mut timed_slot = vec![u32::MAX; n];
        for (slot, &a) in model.timed_activities().iter().enumerate() {
            timed_slot[a.index()] = slot as u32;
        }
        let words = model.timed_activities().len().div_ceil(64);
        let mut group_masks = vec![0; words * model.rate_groups().len()];
        for (g, group) in model.rate_groups().iter().enumerate() {
            for &a in group.members() {
                let slot = timed_slot[a.index()] as usize;
                group_masks[g * words + slot / 64] |= 1 << (slot % 64);
            }
        }
        EnablementCache {
            enabled: vec![false; n],
            timed_slot,
            timed_bits: vec![0; words],
            group_masks,
            fired: Vec::new(),
            probs: Vec::new(),
            weights: Vec::new(),
            inst: Vec::new(),
            rescan: !model.dependency_graph().is_sound(),
            primed: false,
        }
    }

    /// Cached enabledness of `a` (valid once primed).
    pub fn is_enabled(&self, a: ActivityId) -> bool {
        debug_assert!(self.primed, "cache queried before prime_cache");
        self.enabled[a.index()]
    }

    /// The enabled-timed-slot bitset: bit `s % 64` of word `s / 64` is
    /// set iff timed slot `s` is enabled (valid once primed).
    pub fn enabled_timed_words(&self) -> &[u64] {
        &self.timed_bits
    }

    /// Number of enabled members of shared-rate group `g` (valid once
    /// primed): a popcount of the enabled-slot bitset under the group's
    /// mask.
    pub fn group_enabled(&self, g: RateGroupId) -> usize {
        let words = self.timed_bits.len();
        let mask = &self.group_masks[g.index() * words..(g.index() + 1) * words];
        self.timed_bits
            .iter()
            .zip(mask)
            .map(|(bits, mask)| (bits & mask).count_ones() as usize)
            .sum()
    }

    /// Whether the cache is operating in full-rescan fallback mode.
    pub fn is_full_rescan(&self) -> bool {
        self.rescan
    }

    /// Forces full-rescan mode for the lifetime of this cache.
    /// Irreversible: a cache created over an unsound graph can never
    /// leave fallback mode, so neither can a forced one.
    pub fn force_full_rescan(&mut self) {
        self.rescan = true;
    }

    /// The instantaneous activities fired by the most recent
    /// [`SanModel::stabilize_cached`], in firing order.
    pub fn fired(&self) -> &[ActivityId] {
        &self.fired
    }
}

impl std::fmt::Debug for EnablementCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnablementCache")
            .field("activities", &self.enabled.len())
            .field("rescan", &self.rescan)
            .field("primed", &self.primed)
            .finish()
    }
}

impl SanModel {
    /// Creates an enablement cache sized for this model. The cache
    /// starts in full-rescan mode if the model's dependency graph is
    /// unsound (see [`DependencyGraph::is_sound`](crate::DependencyGraph::is_sound)).
    pub fn new_cache(&self) -> EnablementCache {
        EnablementCache::new(self)
    }

    /// Recomputes every activity's enabledness from scratch against
    /// `marking`. Call once per run before using the cached paths.
    pub fn prime_cache(&self, cache: &mut EnablementCache, marking: &Marking) {
        for (i, flag) in cache.enabled.iter_mut().enumerate() {
            *flag = self.is_enabled(ActivityId(i), marking);
        }
        cache.timed_bits.fill(0);
        for (slot, &a) in self.timed_activities().iter().enumerate() {
            if cache.enabled[a.index()] {
                cache.timed_bits[slot / 64] |= 1 << (slot % 64);
            }
        }
        cache.fired.clear();
        cache.primed = true;
    }

    /// Fires `a` with `case` (exactly like [`fire`](SanModel::fire))
    /// and brings the cache back in sync: in incremental mode only the
    /// activities in `affected_by(a)` are re-evaluated; in full-rescan
    /// mode, all of them.
    ///
    /// # Panics
    ///
    /// Panics (like `fire`) on unsatisfied input arcs, and in debug
    /// builds if the incremental update disagrees with a full rescan —
    /// which means a gate's `touches` declaration is unsound.
    pub fn fire_cached(
        &self,
        a: ActivityId,
        case: usize,
        marking: &mut Marking,
        cache: &mut EnablementCache,
    ) {
        debug_assert!(cache.primed, "fire_cached before prime_cache");
        self.fire(a, case, marking);
        if cache.rescan {
            for i in 0..cache.enabled.len() {
                self.update_cached_one(i, marking, cache);
            }
        } else {
            let graph = self.dependency_graph();
            for &i in graph.affected_by(a) {
                self.update_cached_one(i as usize, marking, cache);
            }
            #[cfg(debug_assertions)]
            self.debug_check_cache(cache, marking, a);
        }
    }

    fn update_cached_one(&self, i: usize, marking: &Marking, cache: &mut EnablementCache) {
        let now = self.is_enabled(ActivityId(i), marking);
        if now != cache.enabled[i] {
            cache.enabled[i] = now;
            let slot = cache.timed_slot[i];
            if slot != u32::MAX {
                let slot = slot as usize;
                cache.timed_bits[slot / 64] ^= 1 << (slot % 64);
            }
        }
    }

    #[cfg(debug_assertions)]
    fn debug_check_cache(&self, cache: &EnablementCache, marking: &Marking, fired: ActivityId) {
        for (i, &cached) in cache.enabled.iter().enumerate() {
            let fresh = self.is_enabled(ActivityId(i), marking);
            assert_eq!(
                cached,
                fresh,
                "incremental enablement diverged from full rescan for `{}` after `{}` fired: \
                 a gate `touches` declaration is unsound (run ahs-lint)",
                self.activity(ActivityId(i)).name(),
                self.activity(fired).name(),
            );
        }
        for (slot, &a) in self.timed_activities().iter().enumerate() {
            assert_eq!(
                cache.timed_bits[slot / 64] >> (slot % 64) & 1 == 1,
                cache.enabled[a.index()],
                "enabled-slot bitset disagrees with the flag of `{}` after `{}` fired",
                self.activity(a).name(),
                self.activity(fired).name(),
            );
        }
        for g in self.rate_group_ids() {
            assert_eq!(
                cache.group_enabled(g),
                self.group_enabled_count(g, marking),
                "enabled-member count of rate group `{}` diverged after `{}` fired",
                self.rate_group(g).name(),
                self.activity(fired).name(),
            );
        }
    }

    /// Selects a case like [`select_case`](SanModel::select_case),
    /// using the cache's probability scratch buffer instead of
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidCaseDistribution`] if the
    /// distribution is invalid in this marking.
    pub fn select_case_cached<R: Rng + ?Sized>(
        &self,
        a: ActivityId,
        marking: &Marking,
        rng: &mut R,
        cache: &mut EnablementCache,
    ) -> Result<usize, SanError> {
        let mut probs = std::mem::take(&mut cache.probs);
        let picked = self.select_case_with(a, marking, rng, &mut probs);
        cache.probs = probs;
        picked
    }

    /// Samples a delay for timed activity `a` in `marking` by inverting
    /// one uniform draw from `rng`. The exponential rate is resolved
    /// through [`exponential_rate_with`](SanModel::exponential_rate_with),
    /// with a shared group's enabled-member count read from the cache.
    ///
    /// # Panics
    ///
    /// Panics if `a` is instantaneous or its exponential rate is not
    /// positive and finite.
    pub fn sample_delay_cached<R: Rng + ?Sized>(
        &self,
        a: ActivityId,
        marking: &Marking,
        rng: &mut R,
        cache: &EnablementCache,
    ) -> f64 {
        let rate = self
            .exponential_rate_with(a, marking, |g| cache.group_enabled(g))
            .expect("instantaneous activities have no delay to sample");
        sample_exponential(rate, rng)
    }

    /// Fires enabled instantaneous activities until the marking is
    /// stable — the cached, allocation-free equivalent of
    /// [`stabilize`](SanModel::stabilize). Returns the number of
    /// firings; the fired sequence is available from
    /// [`EnablementCache::fired`]. Draws from `rng` in exactly the
    /// same order as `stabilize`.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InstantaneousLivelock`] if stabilization
    /// does not terminate within the internal budget, or
    /// [`SanError::InvalidCaseDistribution`] from case selection.
    pub fn stabilize_cached<R: Rng + ?Sized>(
        &self,
        marking: &mut Marking,
        rng: &mut R,
        cache: &mut EnablementCache,
    ) -> Result<usize, SanError> {
        debug_assert!(cache.primed, "stabilize_cached before prime_cache");
        cache.fired.clear();
        for _ in 0..MAX_INSTANT_FIRINGS {
            // Highest-priority enabled instantaneous activities, in
            // declaration order — mirrors `enabled_instantaneous`.
            let mut inst = std::mem::take(&mut cache.inst);
            inst.clear();
            let mut best: Option<u32> = None;
            for &a in self.instantaneous_activities() {
                if !cache.enabled[a.index()] {
                    continue;
                }
                let &Timing::Instantaneous { priority, .. } = self.activity(a).timing() else {
                    unreachable!("instantaneous list contains only instantaneous activities");
                };
                match best {
                    Some(b) if priority < b => {}
                    Some(b) if priority == b => inst.push(a),
                    _ => {
                        best = Some(priority);
                        inst.clear();
                        inst.push(a);
                    }
                }
            }
            if inst.is_empty() {
                cache.inst = inst;
                return Ok(cache.fired.len());
            }
            let chosen = if inst.len() == 1 {
                inst[0]
            } else {
                // Weighted tie-break, identical to `stabilize`.
                let mut weights = std::mem::take(&mut cache.weights);
                weights.clear();
                for &a in &inst {
                    let &Timing::Instantaneous { weight, .. } = self.activity(a).timing() else {
                        unreachable!();
                    };
                    weights.push(weight);
                }
                let total: f64 = weights.iter().sum();
                let mut u: f64 = rng.random::<f64>() * total;
                let mut pick = inst[inst.len() - 1];
                for (&a, &w) in inst.iter().zip(weights.iter()) {
                    if u < w {
                        pick = a;
                        break;
                    }
                    u -= w;
                }
                cache.weights = weights;
                pick
            };
            cache.inst = inst;
            let case = self.select_case_cached(chosen, marking, rng, cache)?;
            self.fire_cached(chosen, case, marking, cache);
            cache.fired.push(chosen);
        }
        Err(SanError::InstantaneousLivelock {
            iterations: MAX_INSTANT_FIRINGS,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, SanBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A three-stage chain with an instantaneous middle step and a
    /// gated side activity.
    fn model() -> SanModel {
        let mut b = SanBuilder::new("cachetest");
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        let p2 = b.place("p2").unwrap();
        let flag = b.place_with_tokens("flag", 1).unwrap();
        let side = b.place("side").unwrap();
        b.timed_activity("start", Delay::exponential(1.0))
            .unwrap()
            .input_place(p0)
            .output_place(p1)
            .build()
            .unwrap();
        b.instant_activity("mid", 0, 1.0)
            .unwrap()
            .input_place(p1)
            .output_place(p2)
            .build()
            .unwrap();
        let guard = b.predicate_gate_touching("guard", [p2], move |m| m.is_marked(p2));
        b.timed_activity("gated", Delay::exponential(2.0))
            .unwrap()
            .input_place(flag)
            .input_gate(guard)
            .output_place(side)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    fn assert_cache_matches(model: &SanModel, cache: &EnablementCache, marking: &Marking) {
        for (i, a) in model.activities().iter().enumerate() {
            assert_eq!(
                cache.is_enabled(ActivityId(i)),
                model.is_enabled(ActivityId(i), marking),
                "cache wrong for `{}`",
                a.name()
            );
        }
    }

    #[test]
    fn cached_execution_tracks_full_rescan() {
        let m = model();
        assert!(m.dependency_graph().is_sound());
        let mut cache = m.new_cache();
        assert!(!cache.is_full_rescan());
        let mut marking = m.initial_marking().clone();
        m.prime_cache(&mut cache, &marking);
        assert_cache_matches(&m, &cache, &marking);

        let start = m.find_activity("start").unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        m.fire_cached(start, 0, &mut marking, &mut cache);
        assert_cache_matches(&m, &cache, &marking);
        let fired = m
            .stabilize_cached(&mut marking, &mut rng, &mut cache)
            .unwrap();
        assert_eq!(fired, 1);
        assert_eq!(cache.fired().len(), 1);
        assert_cache_matches(&m, &cache, &marking);
        // The cascade marked p2, which enables the gated activity —
        // its timed slot's bit must be set.
        let gated = m.find_activity("gated").unwrap();
        assert!(cache.is_enabled(gated));
        let slot = m
            .timed_activities()
            .iter()
            .position(|&a| a == gated)
            .unwrap();
        assert_eq!(cache.enabled_timed_words()[slot / 64] >> (slot % 64) & 1, 1);
    }

    #[test]
    fn cached_stabilize_consumes_rng_like_uncached() {
        // Two equal-priority instantaneous activities force a weighted
        // pick: both paths must draw the same number of variates and
        // produce the same marking.
        let mut b = SanBuilder::new("tie");
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
        let m = b.build().unwrap();
        for seed in 0..50 {
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let mut plain = m.initial_marking().clone();
            m.stabilize(&mut plain, &mut rng_a).unwrap();
            let mut cached = m.initial_marking().clone();
            let mut cache = m.new_cache();
            m.prime_cache(&mut cache, &cached);
            m.stabilize_cached(&mut cached, &mut rng_b, &mut cache)
                .unwrap();
            assert_eq!(plain, cached, "seed {seed}");
            assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn forced_rescan_produces_identical_flags() {
        let m = model();
        let mut inc = m.new_cache();
        let mut full = m.new_cache();
        full.force_full_rescan();
        assert!(full.is_full_rescan());
        let mut mk_a = m.initial_marking().clone();
        let mut mk_b = m.initial_marking().clone();
        m.prime_cache(&mut inc, &mk_a);
        m.prime_cache(&mut full, &mk_b);
        let start = m.find_activity("start").unwrap();
        m.fire_cached(start, 0, &mut mk_a, &mut inc);
        m.fire_cached(start, 0, &mut mk_b, &mut full);
        assert_eq!(mk_a, mk_b);
        for i in 0..m.num_activities() {
            assert_eq!(
                inc.is_enabled(ActivityId(i)),
                full.is_enabled(ActivityId(i))
            );
        }
    }

    #[test]
    fn bitset_and_group_counts_follow_firings() {
        // Four timed slots, the middle two in one shared-rate group.
        let mut b = SanBuilder::new("bits");
        let g = b.shared_rate_group("g", 1.0).unwrap();
        let ps: Vec<_> = (0..4)
            .map(|i| b.place_with_tokens(&format!("p{i}"), 1).unwrap())
            .collect();
        let sink = b.place("sink").unwrap();
        for (i, &p) in ps.iter().enumerate() {
            let delay = if i == 1 || i == 2 {
                Delay::shared(g)
            } else {
                Delay::exponential(1.0)
            };
            b.timed_activity(&format!("t{i}"), delay)
                .unwrap()
                .input_place(p)
                .output_place(sink)
                .build()
                .unwrap();
        }
        let m = b.build().unwrap();
        for forced in [false, true] {
            let mut cache = m.new_cache();
            if forced {
                cache.force_full_rescan();
            }
            let mut marking = m.initial_marking().clone();
            m.prime_cache(&mut cache, &marking);
            assert_eq!(cache.enabled_timed_words(), &[0b1111]);
            assert_eq!(cache.group_enabled(g), 2);
            m.fire_cached(m.find_activity("t1").unwrap(), 0, &mut marking, &mut cache);
            assert_eq!(cache.enabled_timed_words(), &[0b1101]);
            assert_eq!(cache.group_enabled(g), 1);
            m.fire_cached(m.find_activity("t0").unwrap(), 0, &mut marking, &mut cache);
            assert_eq!(cache.enabled_timed_words(), &[0b1100]);
            assert_eq!(cache.group_enabled(g), m.group_enabled_count(g, &marking));
        }
    }
}
