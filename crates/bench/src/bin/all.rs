//! Runs every table and figure reproduction, the platoon-count
//! extension and the calibration-sensitivity sweep, printing Markdown
//! and writing CSVs plus run manifests under results/.
//! Flags: --paper --reps N --seed S --threads T --telemetry PATH --progress
//! --checkpoint-dir DIR --checkpoint-every N (exit code 75 = interrupted, resumable).

use ahs_bench::{
    ext_platoons, fig10, fig11, fig12, fig13, fig14, fig15, figure_to_markdown, maneuver_durations,
    run_exit_code, sensitivity, tables, write_manifest, write_results, RunConfig,
};
use ahs_stats::format_markdown;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = RunConfig::from_args(&args);
    cfg.arm_failpoints();
    let dir = std::path::Path::new("results");

    let [t1, t2, t3] = tables();
    println!("### Table 1 — Failure modes and associated maneuvers\n");
    print!("{}", format_markdown(&t1));
    println!("\n### Table 2 — Catastrophic situations\n");
    print!("{}", format_markdown(&t2));
    println!("\n### Table 3 — Coordination strategies considered\n");
    print!("{}", format_markdown(&t3));
    println!("\n### Maneuver durations (kinematic substrate)\n");
    print!("{}", format_markdown(&maneuver_durations(400, cfg.seed)));
    println!();

    type FigFn = fn(&RunConfig) -> Result<ahs_bench::FigureRun, ahs_core::AhsError>;
    let figs: [(&str, FigFn); 8] = [
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("ext_platoons", ext_platoons),
        ("sensitivity", sensitivity),
    ];
    for (name, f) in figs {
        eprintln!("running {name}...");
        let start = std::time::Instant::now();
        let run = f(&cfg).expect("experiment failed");
        println!("{}", figure_to_markdown(&run.figure));
        let path = write_results(&run.figure, dir).expect("write results");
        let mpath = write_manifest(&run.manifest, dir).expect("write manifest");
        eprintln!(
            "wrote {} and {} ({:.1}s)",
            path.display(),
            mpath.display(),
            start.elapsed().as_secs_f64()
        );
        if run.interrupted {
            // The flag stays raised, so later figures would spin up
            // only to stop immediately; bail out here instead.
            eprintln!("stopping after {name}");
            return run_exit_code(&run);
        }
    }
    std::process::ExitCode::SUCCESS
}
