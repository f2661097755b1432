//! Regenerates Tables 1-3 of the paper from the typed domain model.

use ahs_bench::{tables, write_manifest};
use ahs_obs::RunManifest;
use ahs_stats::format_markdown;

fn main() {
    // No flags: a stray `--reps` (or a typo) must not rewrite the
    // committed manifest as if it had been understood.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}` (`tables` takes no arguments)");
        std::process::exit(2);
    }
    let start = std::time::Instant::now();
    let [t1, t2, t3] = tables();
    println!("### Table 1 — Failure modes and associated maneuvers\n");
    print!("{}", format_markdown(&t1));
    println!("\n### Table 2 — Catastrophic situations\n");
    print!("{}", format_markdown(&t2));
    println!("\n### Table 3 — Coordination strategies considered\n");
    print!("{}", format_markdown(&t3));

    // Tables are deterministic (no simulation), but the manifest still
    // records the revision that generated them.
    let mut m = RunManifest::new("ahs-bench tables", "tables", 0);
    m.wall_seconds = start.elapsed().as_secs_f64();
    let path = write_manifest(&m, std::path::Path::new("results")).expect("write manifest");
    eprintln!("wrote {}", path.display());
}
