//! `setup_s` of the in-process workloads: the cost of building the
//! workload's model.
//!
//! One build of the n = 8 model takes ~1.5 ms and of the n = 2 model
//! ~0.3 ms, and the host's speed drifts by up to a half in phases of
//! 20–60 s; builds timed in one burst all see the same phase, so their
//! median flips between the host's fast and slow states from run to run.
//! [`sample_during`] instead times a few builds every [`INTERVAL`] on a
//! background thread, whenever the timed work leaves a core free, for
//! the whole timed phase of the run, and reports the median of them all.
//! The median of builds that share a core with the work spread by 0.6
//! of itself over ten runs (they are preempted at random); on a free
//! core it spreads by 0.04–0.15.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ahs_core::{AhsError, CompiledModel, Params};

use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Builds per burst: at least this many, for at least [`BURST_SECONDS`].
const BURST_BUILDS: usize = 21;
const BURST_SECONDS: f64 = 0.2;
/// Pause between two background samples, and the builds in each.
const INTERVAL: Duration = Duration::from_millis(250);
const SAMPLE_BUILDS: usize = 3;
/// Fewest background builds behind one `setup_s`.
const MIN_SAMPLES: usize = 21;

/// Builds `params` repeatedly, each build inside a `core.build` span;
/// returns the last model and the median build time.
pub fn burst(
    tracer: &Tracer,
    parent: SpanId,
    params: &Params,
) -> Result<(CompiledModel, f64), AhsError> {
    let clock = Instant::now();
    let mut times = Vec::new();
    loop {
        let (built, secs) = tracer.span("core.build", parent, |_| CompiledModel::build(params));
        let model = built?;
        times.push(secs);
        if times.len() >= BURST_BUILDS && clock.elapsed().as_secs_f64() >= BURST_SECONDS {
            return Ok((model, median(&times).expect("at least one build ran")));
        }
    }
}

/// Runs `work` while a background thread times builds of `params`
/// whenever `core_free()` says so (and after `work`, until it has
/// [`MIN_SAMPLES`]); returns `work`'s result and the median build time.
pub fn sample_during<T>(
    params: &Params,
    core_free: impl Fn() -> bool + Sync,
    work: impl FnOnce() -> T,
) -> (T, Result<f64, AhsError>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut times = Vec::new();
            while !done.load(Ordering::Relaxed) || times.len() < MIN_SAMPLES {
                if !core_free() && !done.load(Ordering::Relaxed) {
                    std::thread::sleep(INTERVAL);
                    continue;
                }
                for _ in 0..SAMPLE_BUILDS {
                    let start = Instant::now();
                    CompiledModel::build(params)?;
                    times.push(start.elapsed().as_secs_f64());
                }
                std::thread::sleep(INTERVAL);
            }
            Ok(median(&times).expect("MIN_SAMPLES is positive"))
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("the set-up sampler panicked"))
    })
}
