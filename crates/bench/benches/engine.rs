//! Performance benches of the engine layer: SAN construction, both
//! simulator backends, and the uniformization solver.

use ahs_core::{AhsModel, Params};
use ahs_ctmc::{transient_distribution, MarkovModel, StateSpace};
use ahs_des::{EventDrivenSimulator, MarkovSimulator, NullObserver};
use ahs_san::{Delay, SanBuilder, SanModel};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A 5-component repairable system with moderate rates: a dense event
/// stream for throughput measurement.
fn repairable(components: usize) -> SanModel {
    let mut b = SanBuilder::new("repairable");
    for i in 0..components {
        let up = b.place_with_tokens(&format!("up{i}"), 1).unwrap();
        let down = b.place(&format!("down{i}")).unwrap();
        b.timed_activity(&format!("fail{i}"), Delay::exponential(1.0))
            .unwrap()
            .input_place(up)
            .output_place(down)
            .build()
            .unwrap();
        b.timed_activity(&format!("repair{i}"), Delay::exponential(3.0))
            .unwrap()
            .input_place(down)
            .output_place(up)
            .build()
            .unwrap();
    }
    b.build().unwrap()
}

fn bench_ssa_backend(c: &mut Criterion) {
    let model = repairable(5);
    let sim = MarkovSimulator::new(&model).unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    c.bench_function("ssa_run_100h_5comp", |b| {
        b.iter(|| {
            sim.run_first_passage(|_| false, black_box(100.0), &mut rng)
                .unwrap()
        })
    });
}

fn bench_event_backend(c: &mut Criterion) {
    let model = repairable(5);
    let sim = EventDrivenSimulator::new(&model);
    let mut rng = SmallRng::seed_from_u64(2);
    c.bench_function("event_queue_run_100h_5comp", |b| {
        b.iter(|| {
            sim.run(black_box(100.0), &mut rng, &mut NullObserver)
                .unwrap()
        })
    });
}

fn bench_ahs_model_build(c: &mut Criterion) {
    let params = Params::builder().n(10).build().unwrap();
    c.bench_function("ahs_model_build_n10", |b| {
        b.iter(|| AhsModel::build(black_box(&params)).unwrap())
    });
}

fn bench_ahs_replication(c: &mut Criterion) {
    let params = Params::builder().n(10).build().unwrap();
    let model = AhsModel::build(&params).unwrap();
    let ko = model.handles().ko_total;
    let sim = MarkovSimulator::new(model.san()).unwrap();
    let mut rng = SmallRng::seed_from_u64(3);
    c.bench_function("ahs_replication_10h_n10", |b| {
        b.iter(|| {
            sim.run_first_passage(|m| m.is_marked(ko), black_box(10.0), &mut rng)
                .unwrap()
        })
    });
}

fn bench_uniformization(c: &mut Criterion) {
    struct BirthDeath;
    impl MarkovModel for BirthDeath {
        type State = u32;
        fn initial_states(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u32, emit: &mut dyn FnMut(&u32, f64)) {
            if *s < 100 {
                emit(&(s + 1), 2.0);
            }
            if *s > 0 {
                emit(&(s - 1), 3.0);
            }
        }
    }
    let space = StateSpace::explore(&BirthDeath, 200).unwrap();
    c.bench_function("uniformization_101_states_t10", |b| {
        b.iter(|| transient_distribution(&space, black_box(10.0), 1e-10))
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(20);
    targets = bench_ssa_backend, bench_event_backend, bench_ahs_model_build,
              bench_ahs_replication, bench_uniformization
}
criterion_main!(engine);
