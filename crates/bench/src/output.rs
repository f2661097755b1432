//! Rendering and persisting experiment results.
//!
//! All artifacts go to disk through [`ahs_obs::write_with_retry`]
//! (temp file + rename, with bounded deterministic backoff on
//! transient errors): a crash or interrupt mid-write can never leave
//! a truncated CSV or manifest behind, and a transient ENOSPC/EINTR
//! does not lose an hours-long sweep's results.

use std::path::Path;
use std::process::ExitCode;

use ahs_obs::{write_with_retry, RunManifest, RunOutcome};
use ahs_stats::{format_csv, format_markdown, Table};

use crate::runner::{FigureResult, FigureRun};

/// Renders a figure as a Markdown table: one row per x value, one
/// column per series (with ± half-width).
pub fn figure_to_markdown(fig: &FigureResult) -> String {
    let mut out = format!("### {} — {}\n\n", fig.id, fig.title);
    out.push_str(&format_markdown(&figure_table(fig)));
    out
}

/// Renders a figure as CSV (`x, <label>, <label>_hw, ...`).
pub fn figure_to_csv(fig: &FigureResult) -> String {
    format_csv(&figure_table(fig))
}

fn figure_table(fig: &FigureResult) -> Table {
    let mut header = vec![fig.x_label.clone()];
    for s in &fig.series {
        header.push(s.label.clone());
        header.push(format!("{}_hw", s.label));
    }
    let mut table = Table::new(header);

    // Union of x values across series (they normally coincide).
    let mut xs: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are finite"));
    xs.dedup();

    for &x in &xs {
        let mut row = vec![format!("{x}")];
        for s in &fig.series {
            match s.points.iter().find(|p| p.x == x) {
                Some(p) => {
                    row.push(format!("{:.4e}", p.y));
                    row.push(format!("{:.2e}", p.half_width));
                }
                None => {
                    row.push(String::new());
                    row.push(String::new());
                }
            }
        }
        table.push_row(row).expect("row width matches header");
    }
    table
}

/// Writes a figure's CSV atomically under `dir/<id>.csv` and returns
/// the path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_results(fig: &FigureResult, dir: &Path) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join(format!("{}.csv", fig.id));
    write_with_retry(&path, figure_to_csv(fig).as_bytes())?;
    Ok(path)
}

/// Writes a run manifest under `dir/<model>.manifest.json` and returns
/// the path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_manifest(manifest: &RunManifest, dir: &Path) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join(format!("{}.manifest.json", manifest.model));
    manifest.write(&path)?;
    Ok(path)
}

/// Standard fig-binary epilogue: maps an interrupted (partial but
/// checkpointed) run to exit code [`ahs_obs::EXIT_INTERRUPTED`] with a
/// resume hint on stderr, and a complete run to success (the shared
/// [`RunOutcome`] policy).
pub fn run_exit_code(run: &FigureRun) -> ExitCode {
    if run.interrupted {
        eprintln!(
            "interrupted: results are partial; rerun with the same flags \
             and --checkpoint-dir to resume"
        );
    }
    RunOutcome::of_interrupted(run.interrupted).exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Series;
    use ahs_stats::CurvePoint;

    fn sample_fig() -> FigureResult {
        FigureResult {
            id: "figX".into(),
            title: "test".into(),
            x_label: "t".into(),
            series: vec![Series {
                label: "a".into(),
                points: vec![
                    CurvePoint {
                        x: 1.0,
                        y: 0.5,
                        half_width: 0.01,
                        samples: 10,
                    },
                    CurvePoint {
                        x: 2.0,
                        y: 0.75,
                        half_width: 0.02,
                        samples: 10,
                    },
                ],
            }],
        }
    }

    #[test]
    fn markdown_contains_header_and_values() {
        let md = figure_to_markdown(&sample_fig());
        assert!(md.contains("### figX"));
        assert!(md.contains("| t | a | a_hw |"));
        assert!(md.contains("5.0000e-1"));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("ahs_bench_test_output");
        let path = write_results(&sample_fig(), &dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("t,a,a_hw"));
        assert_eq!(content.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
