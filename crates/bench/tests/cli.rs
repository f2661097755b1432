//! The argument-less bench binaries refuse arguments instead of
//! ignoring them and rewriting their committed manifests.

use std::process::Command;

#[test]
fn argumentless_bins_reject_arguments_and_write_nothing() {
    for (bin, exe) in [
        ("tables", env!("CARGO_BIN_EXE_tables")),
        ("durations", env!("CARGO_BIN_EXE_durations")),
    ] {
        let cwd = std::env::temp_dir().join(format!("ahs_bench_{bin}_{}", std::process::id()));
        std::fs::remove_dir_all(&cwd).ok();
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(exe)
            .current_dir(&cwd)
            .args(["--reps", "5"])
            .output()
            .expect("binary runs");
        let wrote = cwd.join("results").exists();
        std::fs::remove_dir_all(&cwd).ok();
        assert!(!out.status.success(), "`{bin} --reps 5` must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("`--reps`"),
            "`{bin}` must name the argument:\n{err}"
        );
        assert!(!wrote, "`{bin} --reps 5` must not write results/");
    }
}
