//! Estimates end-to-end maneuver durations from the kinematic
//! substrate, justifying the paper's 15-30/hr maneuver rates.

use ahs_bench::{maneuver_durations, write_manifest};
use ahs_obs::{Json, RunManifest};
use ahs_stats::format_markdown;

fn main() {
    // No flags: a stray `--reps` (or a typo) must not rewrite the
    // committed manifest as if it had been understood.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}` (`durations` takes no arguments)");
        std::process::exit(2);
    }
    let start = std::time::Instant::now();
    let samples = 400u32;
    let seed = 42u64;
    let table = maneuver_durations(samples, seed);
    println!("### Maneuver durations from the kinematic substrate\n");
    print!("{}", format_markdown(&table));

    let mut m = RunManifest::new("ahs-bench durations", "durations", seed);
    m.params = Json::obj(vec![("samples", Json::UInt(u64::from(samples)))]);
    m.replications = u64::from(samples) * 6;
    m.wall_seconds = start.elapsed().as_secs_f64();
    let path = write_manifest(&m, std::path::Path::new("results")).expect("write manifest");
    eprintln!("wrote {}", path.display());
}
