//! The SSA step allocates nothing on the paper model.
//!
//! A counting global allocator (this test binary's own, hence the
//! dedicated file) tallies heap allocations around each warmed-up
//! `run_first_passage` replication of the n = 8 Figure 10 model under a
//! constant failure boost. A replication allocates a fixed amount — the
//! clone of the initial marking it starts from — however many
//! activities it completes, so the allocation count must be the same
//! for every replication while the step count varies widely. A gate,
//! case distribution or rate that allocates per evaluation makes the
//! count grow with the steps and fails this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ahs_core::{AhsModel, Params};
use ahs_des::{replication_rng, BiasScheme, MarkovSimulator};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to the system allocator unchanged; the
// counter is a relaxed atomic with no effect on the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn replication_allocations_do_not_grow_with_steps() {
    let params = Params::builder().n(8).lambda(1e-5).build().unwrap();
    let model = AhsModel::build(&params).unwrap();
    let ko = model.handles().ko_total;
    let bias =
        BiasScheme::new().with_multipliers(model.handles().failure_activities.clone(), 600.0);
    let sim = MarkovSimulator::new(model.san()).unwrap().with_bias(bias);

    // Warm-up: the first runs size the parked scratch buffers.
    for rep in 0..20 {
        sim.run_first_passage(|m| m.is_marked(ko), 10.0, &mut replication_rng(7, rep))
            .unwrap();
    }

    let mut per_rep = Vec::new();
    for rep in 20..220 {
        // The RNG is built outside the counted window.
        let mut rng = replication_rng(7, rep);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = sim
            .run_first_passage(|m| m.is_marked(ko), 10.0, &mut rng)
            .unwrap();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        per_rep.push((out.events, allocs));
    }

    let steps_min = per_rep.iter().map(|&(s, _)| s).min().unwrap();
    let steps_max = per_rep.iter().map(|&(s, _)| s).max().unwrap();
    assert!(
        steps_max >= 2 * steps_min.max(1) && steps_max >= 100,
        "the sample needs replications of very different lengths, got {steps_min}..{steps_max} steps"
    );
    let allocs = per_rep[0].1;
    for &(steps, a) in &per_rep {
        assert_eq!(
            a, allocs,
            "a {steps}-step replication allocated {a} times, another {allocs} times: \
             the SSA step allocates"
        );
    }
    assert!(
        allocs <= 4,
        "a replication should allocate only its starting marking, got {allocs} allocations"
    );
}
