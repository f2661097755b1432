//! Simulator throughput baseline: fixed-seed biased-SSA campaigns on
//! the paper's models, timed and written to a machine-readable
//! `BENCH_ssa.json` so successive changes can track the trajectory
//! (see `docs/performance.md`).
//!
//! Flags:
//!   --quick                 small campaign for CI smoke runs
//!   --reps N                replications per timing sample
//!   --repeats R             timing samples per campaign (median + MAD)
//!   --out PATH              output path (default `BENCH_ssa.json`)
//!   --baseline PATH         committed baseline to compare against
//!   --max-regression F      fail (exit 1) if baseline is F× faster
//!
//! Every campaign replays the identical replication streams
//! (`replication_rng(seed, rep)`), so event counts are bit-for-bit
//! reproducible and wall-clock is the only varying quantity.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ahs_core::{AhsModel, Params, Strategy};
use ahs_des::{replication_rng, BiasScheme, MarkovSimulator};
use ahs_obs::Json;

/// Fixed seed for every campaign; chosen once, never changed, so the
/// numbers in `BENCH_ssa.json` stay comparable across PRs.
const SEED: u64 = 20_090_629;

/// Importance-sampling boost on every failure activity.
const BOOST: f64 = 600.0;

struct Campaign {
    /// Stable identifier (key in `BENCH_ssa.json`).
    name: &'static str,
    strategy: Strategy,
}

const CAMPAIGNS: [Campaign; 2] = [
    Campaign {
        name: "dd2_ssa",
        strategy: Strategy::Dd,
    },
    Campaign {
        name: "cc2_ssa",
        strategy: Strategy::Cc,
    },
];

struct Sample {
    steps: u64,
    seconds: f64,
}

/// One timing sample: `reps` fixed-seed replications, returning the
/// total timed-event count and the elapsed wall-clock.
fn run_once(model: &AhsModel, reps: u64, horizon: f64) -> Sample {
    let h = model.handles();
    let san = model.san();
    let start = Instant::now();
    let mut steps = 0_u64;
    let sim = MarkovSimulator::new(san)
        .expect("paper models build an SSA")
        .with_bias(BiasScheme::new().with_multipliers(h.failure_activities.iter().copied(), BOOST));
    for rep in 0..reps {
        let mut rng = replication_rng(SEED, rep);
        let out = sim
            .run_first_passage(|m| m.is_marked(h.ko_total), horizon, &mut rng)
            .expect("perf replication failed");
        steps += out.events;
    }
    Sample {
        steps,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median and median-absolute-deviation of a sample set.
fn median_mad(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("throughput is finite"));
    let med = median(&sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).expect("deviation is finite"));
    (med, median(&dev))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps: u64 = 2000;
    let mut repeats: usize = 5;
    let mut out = PathBuf::from("BENCH_ssa.json");
    let mut baseline: Option<PathBuf> = None;
    let mut max_regression: f64 = 2.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                reps = 300;
                repeats = 3;
            }
            "--reps" => {
                i += 1;
                reps = args[i].parse().expect("--reps takes an integer");
            }
            "--repeats" => {
                i += 1;
                repeats = args[i].parse().expect("--repeats takes an integer");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&args[i]);
            }
            "--baseline" => {
                i += 1;
                baseline = Some(PathBuf::from(&args[i]));
            }
            "--max-regression" => {
                i += 1;
                max_regression = args[i].parse().expect("--max-regression takes a number");
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    let horizon = 10.0;

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut current: Vec<(&'static str, f64)> = Vec::new();
    for campaign in &CAMPAIGNS {
        let params = Params::builder()
            .n(8)
            .lambda(1e-5)
            .strategy(campaign.strategy)
            .build()
            .expect("nominal perf parameters are valid");
        let model = AhsModel::build(&params).expect("paper model builds");

        // Warmup: populate caches, page in the model, settle the clock.
        let warm = run_once(&model, reps.min(200), horizon);
        let mut throughput = Vec::with_capacity(repeats);
        let mut steps = warm.steps;
        for _ in 0..repeats {
            let s = run_once(&model, reps, horizon);
            throughput.push(s.steps as f64 / s.seconds);
            steps = s.steps;
        }
        let (med, mad) = median_mad(&throughput);
        println!(
            "{:>10}: {:>12.0} steps/s (MAD {:.0}), {} steps / {} reps",
            campaign.name, med, mad, steps, reps
        );
        current.push((campaign.name, med));
        results.push((
            campaign.name.to_owned(),
            Json::obj(vec![
                ("steps_per_sec_median", Json::Num(med)),
                ("steps_per_sec_mad", Json::Num(mad)),
                (
                    "samples",
                    Json::Arr(throughput.iter().map(|&x| Json::Num(x)).collect()),
                ),
                ("steps_per_pass", Json::UInt(steps)),
                ("reps", Json::UInt(reps)),
            ]),
        ));
    }

    let doc = Json::obj(vec![
        ("schema", Json::str("ahs-bench-perf/v1")),
        ("seed", Json::UInt(SEED)),
        ("horizon_hours", Json::Num(horizon)),
        ("n", Json::UInt(8)),
        ("repeats", Json::UInt(repeats as u64)),
        ("campaigns", Json::Obj(results)),
    ]);
    std::fs::write(&out, doc.render() + "\n").expect("write benchmark output");
    eprintln!("wrote {}", out.display());

    if let Some(path) = baseline {
        std::process::exit(check_regression(&path, &current, max_regression));
    }
}

/// Compares current medians against a committed baseline; returns a
/// process exit code (0 = ok, 1 = regression beyond the allowance).
fn check_regression(path: &Path, current: &[(&str, f64)], max_regression: f64) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "no baseline at {} ({e}); skipping comparison",
                path.display()
            );
            return 0;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("unreadable baseline {}: {e}", path.display());
            return 0;
        }
    };
    let mut failed = false;
    for (name, now) in current {
        let base = doc
            .get("campaigns")
            .and_then(|c| c.get(name))
            .and_then(|c| c.get("steps_per_sec_median"))
            .and_then(Json::as_f64);
        let Some(base) = base else {
            eprintln!("baseline has no campaign `{name}`; skipping");
            continue;
        };
        let ratio = base / now;
        let verdict = if ratio > max_regression {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        eprintln!(
            "{name}: baseline {base:.0} steps/s, current {now:.0} steps/s ({ratio:.2}x) {verdict}"
        );
    }
    i32::from(failed)
}
