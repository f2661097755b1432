//! One reproduction function per table and figure of the paper.

use ahs_core::{AhsError, FailureMode, Params, Strategy};
use ahs_platoon::{DurationModel, RecoveryManeuver};
use ahs_stats::{CurvePoint, Table, TimeGrid};

use crate::runner::{curve, versus_n, FigTally, FigureResult, FigureRun, RunConfig};

/// The trip-duration grid used by the `S(t)`-versus-time figures
/// (2–10 hours, as in the paper).
fn trip_grid() -> TimeGrid {
    TimeGrid::new(vec![2.0, 4.0, 6.0, 8.0, 10.0])
}

/// Figure 10: `S(t)` versus trip duration for platoon capacities
/// n ∈ {8, 10, 12} (λ = 1e-5/hr, join 12/hr, leave 4/hr, strategy DD).
pub fn fig10(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let grid = trip_grid();
    let mut series = Vec::new();
    for n in [8usize, 10, 12] {
        let params = Params::builder().n(n).lambda(1e-5).build()?;
        series.push(curve(
            cfg,
            &mut tally,
            params,
            &grid,
            format!("n={n}"),
            0x10_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "fig10".into(),
            title: "S(t) versus trip duration for different platoon capacities n".into(),
            x_label: "trip duration (h)".into(),
            series,
        },
    ))
}

/// Figure 11: `S(t)` versus trip duration for base failure rates
/// λ ∈ {1e-6, 1e-5, 1e-4} (n = 10).
pub fn fig11(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let grid = trip_grid();
    let mut series = Vec::new();
    for lambda in [1e-6, 1e-5, 1e-4] {
        let params = Params::builder().n(10).lambda(lambda).build()?;
        series.push(curve(
            cfg,
            &mut tally,
            params,
            &grid,
            format!("lambda={lambda:.0e}"),
            0x11_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "fig11".into(),
            title: "S(t) versus trip duration for different base failure rates".into(),
            x_label: "trip duration (h)".into(),
            series,
        },
    ))
}

/// Figure 12: `S(6h)` versus platoon capacity n ∈ {10, 12, 14, 16, 18}
/// for λ ∈ {1e-6, 1e-5, 1e-4}.
pub fn fig12(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let ns = [10usize, 12, 14, 16, 18];
    let mut series = Vec::new();
    for lambda in [1e-6, 1e-5, 1e-4] {
        series.push(versus_n(
            cfg,
            &mut tally,
            |n| {
                Params::builder()
                    .n(n)
                    .lambda(lambda)
                    .build()
                    .expect("valid parameters")
            },
            &ns,
            6.0,
            format!("lambda={lambda:.0e}"),
            0x12_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "fig12".into(),
            title: "S(6h) versus platoon capacity n for different failure rates".into(),
            x_label: "max vehicles per platoon n".into(),
            series,
        },
    ))
}

/// Figure 13: `S(t)` versus trip duration for system loads
/// ρ = join/leave ∈ {1, 2} with several (join, leave) pairs
/// (n = 8, λ = 1e-5).
pub fn fig13(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let grid = trip_grid();
    let pairs = [
        (4.0, 4.0),
        (8.0, 8.0),
        (12.0, 12.0),
        (8.0, 4.0),
        (16.0, 8.0),
        (24.0, 12.0),
    ];
    let mut series = Vec::new();
    for (join, leave) in pairs {
        let params = Params::builder()
            .n(8)
            .lambda(1e-5)
            .join_rate(join)
            .leave_rate(leave)
            .build()?;
        let rho = join / leave;
        series.push(curve(
            cfg,
            &mut tally,
            params,
            &grid,
            format!("rho={rho:.0} join={join:.0} leave={leave:.0}"),
            0x13_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "fig13".into(),
            title: "S(t) versus trip duration for different join and leave rates".into(),
            x_label: "trip duration (h)".into(),
            series,
        },
    ))
}

/// Figure 14: `S(t)` versus trip duration for the four coordination
/// strategies (n = 10, λ = 1e-5).
pub fn fig14(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let grid = trip_grid();
    let mut series = Vec::new();
    for strategy in Strategy::ALL {
        let params = Params::builder()
            .n(10)
            .lambda(1e-5)
            .strategy(strategy)
            .build()?;
        series.push(curve(
            cfg,
            &mut tally,
            params,
            &grid,
            strategy.name(),
            0x14_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "fig14".into(),
            title: "S(t) versus trip duration for the four coordination strategies".into(),
            x_label: "trip duration (h)".into(),
            series,
        },
    ))
}

/// Figure 15: `S(6h)` versus platoon capacity for the four strategies
/// (λ = 1e-5).
pub fn fig15(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let ns = [6usize, 8, 10, 12, 14];
    let mut series = Vec::new();
    for strategy in Strategy::ALL {
        series.push(versus_n(
            cfg,
            &mut tally,
            move |n| {
                Params::builder()
                    .n(n)
                    .lambda(1e-5)
                    .strategy(strategy)
                    .build()
                    .expect("valid parameters")
            },
            &ns,
            6.0,
            strategy.name(),
            0x15_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "fig15".into(),
            title: "S(6h) versus platoon capacity n for the four strategies".into(),
            x_label: "max vehicles per platoon n".into(),
            series,
        },
    ))
}

/// Extension experiment (beyond the paper — its conclusion's "larger
/// number of platoons" future work): `S(t)` versus trip duration for
/// highways of 2, 3, and 4 platoons of up to 6 vehicles each
/// (λ = 1e-5, strategy DD).
pub fn ext_platoons(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let grid = trip_grid();
    let mut series = Vec::new();
    for platoons in [2usize, 3, 4] {
        let params = Params::builder()
            .n(6)
            .lambda(1e-5)
            .platoons(platoons)
            .build()?;
        series.push(curve(
            cfg,
            &mut tally,
            params,
            &grid,
            format!("platoons={platoons}"),
            0xE0_00,
        )?);
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "ext_platoons".into(),
            title: "Extension: S(t) for highways of 2-4 platoons (n=6 each)".into(),
            x_label: "trip duration (h)".into(),
            series,
        },
    ))
}

/// Sensitivity of the reproduction to the calibration constants the
/// paper does not publish (DESIGN.md substitution 3): the baseline
/// maneuver failure probability and the impairment penalty. Runs at
/// λ = 1e-4 (a faster regime than the paper's default) so the sweep
/// stays cheap; the *shape* conclusions of Figures 10–15 should be
/// robust across this grid.
pub fn sensitivity(cfg: &RunConfig) -> Result<FigureRun, AhsError> {
    let mut tally = FigTally::new(cfg);
    let grid = TimeGrid::new(vec![6.0]);
    let mut series = Vec::new();
    for penalty in [0.05, 0.10, 0.20] {
        let mut points = Vec::new();
        for base in [0.01, 0.05, 0.10, 0.20] {
            let params = Params::builder()
                .n(8)
                .lambda(1e-4)
                .maneuver_base_failure(base)
                .impairment_penalty(penalty)
                .build()?;
            let ev = tally.evaluator(cfg, params, 0x5E_00);
            let result = ev.evaluate(&grid)?;
            tally.absorb(&format!("penalty={penalty}/base={base}"), &ev, &result);
            points.push(CurvePoint {
                x: base,
                ..result.points()[0]
            });
        }
        series.push(crate::runner::Series {
            label: format!("penalty={penalty}"),
            points,
        });
    }
    Ok(tally.finish(
        cfg,
        FigureResult {
            id: "sensitivity".into(),
            title: "Calibration sensitivity: S(6h) versus maneuver base failure \
                    probability, per impairment penalty (n=8, lambda=1e-4)"
                .into(),
            x_label: "maneuver base failure probability".into(),
            series,
        },
    ))
}

/// Regenerates Tables 1–3 from the typed domain model.
pub fn tables() -> [Table; 3] {
    // Table 1: failure modes and associated maneuvers.
    let mut t1 = Table::new(vec![
        "Failure mode".into(),
        "Example of cause".into(),
        "Severity class".into(),
        "Associated maneuver".into(),
        "Rate".into(),
    ]);
    for fm in FailureMode::ALL {
        t1.push_row(vec![
            fm.to_string(),
            fm.example_cause().into(),
            format!("{:?}", fm.severity()),
            format!(
                "{} ({})",
                maneuver_long_name(fm.maneuver()),
                fm.maneuver().abbreviation()
            ),
            format!("{}λ", fm.rate_multiplier()),
        ])
        .expect("row width matches header");
    }

    // Table 2: catastrophic situations.
    let mut t2 = Table::new(vec!["Situation".into(), "Description".into()]);
    for s in ahs_core::CatastrophicSituation::ALL {
        t2.push_row(vec![s.to_string(), s.description().into()])
            .expect("row width matches header");
    }

    // Table 3: coordination strategies.
    let mut t3 = Table::new(vec![
        "Strategy".into(),
        "Inter-platoon model".into(),
        "Intra-platoon model".into(),
    ]);
    for s in Strategy::ALL {
        t3.push_row(vec![
            s.to_string(),
            format!("{:?}", s.inter()),
            format!("{:?}", s.intra()),
        ])
        .expect("row width matches header");
    }
    [t1, t2, t3]
}

/// Reproduces the §4.1 maneuver-rate justification from the kinematic
/// substrate: estimated end-to-end durations and implied rates for all
/// six maneuvers.
pub fn maneuver_durations(samples: u32, seed: u64) -> Table {
    let model = DurationModel::default();
    let mut t = Table::new(vec![
        "Maneuver".into(),
        "Mean duration (s)".into(),
        "Std (s)".into(),
        "Rate (/hr)".into(),
        "In 2-4 min window".into(),
    ]);
    for (m, stats) in model.estimate_all(samples, seed) {
        t.push_row(vec![
            m.abbreviation().into(),
            format!("{:.1}", stats.mean_seconds),
            format!("{:.1}", stats.std_seconds),
            format!("{:.1}", stats.rate_per_hour()),
            format!(
                "{}",
                stats.mean_seconds >= 120.0 && stats.mean_seconds <= 240.0
            ),
        ])
        .expect("row width matches header");
    }
    t
}

fn maneuver_long_name(m: RecoveryManeuver) -> &'static str {
    match m {
        RecoveryManeuver::AidedStop => "Aided Stop",
        RecoveryManeuver::CrashStop => "Crash Stop",
        RecoveryManeuver::GentleStop => "Gentle Stop",
        RecoveryManeuver::TakeImmediateExit => "Take Immediate Exit",
        RecoveryManeuver::TakeImmediateExitEscorted => "Take Immediate Exit-Escorted",
        RecoveryManeuver::TakeImmediateExitNormal => "Take Immediate Exit-Normal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_reproduce_the_paper() {
        let [t1, t2, t3] = tables();
        assert_eq!(t1.len(), 6);
        assert_eq!(t2.len(), 3);
        assert_eq!(t3.len(), 4);
        // Table 1 spot checks.
        assert_eq!(t1.rows()[0][0], "FM1");
        assert_eq!(t1.rows()[0][1], "no brakes");
        assert!(t1.rows()[0][3].contains("AS"));
        assert_eq!(t1.rows()[5][4], "4λ");
        // Table 3 spot checks.
        assert_eq!(t3.rows()[0][0], "DD");
        assert_eq!(t3.rows()[3][1], "Centralized");
    }

    #[test]
    fn duration_table_has_all_maneuvers() {
        let t = maneuver_durations(40, 1);
        assert_eq!(t.len(), 6);
        let abbrs: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        for a in ["AS", "CS", "GS", "TIE", "TIE-E", "TIE-N"] {
            assert!(abbrs.contains(&a), "{a} missing");
        }
    }

    #[test]
    fn tiny_fig10_runs_end_to_end() {
        // Smoke test at miniature scale: structure only.
        let cfg = RunConfig {
            replications: 200,
            paper_precision: false,
            seed: 1,
            threads: 2,
            ..RunConfig::quick()
        };
        let run = fig10(&cfg).unwrap();
        assert_eq!(run.figure.series.len(), 3);
        for s in &run.figure.series {
            assert_eq!(s.points.len(), 5);
            assert_eq!(s.points[0].x, 2.0);
            assert_eq!(s.points[4].x, 10.0);
        }
        // The manifest carries the full provenance of the figure.
        let m = &run.manifest;
        assert_eq!(m.seed, 1);
        assert_eq!(m.threads, 2);
        assert_eq!(m.replications, 3 * 200);
        assert_eq!(m.estimates.len(), 15);
        let snap = m.metrics.as_ref().expect("metrics snapshot attached");
        assert_eq!(snap.replications, 3 * 200);
        let rendered = m.render();
        assert!(rendered.contains("\"schema\":\"ahs-run-manifest/v1\""));
        assert!(rendered.contains("\"lambda\":0.00001"));
    }
}
