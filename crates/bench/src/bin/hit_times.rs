//! Diagnostic: distribution of biased first-passage (hit) times and
//! population statistics of the AHS model under failure biasing.
//!
//! Flags: --boost B --lambda L --reps N --horizon H

use ahs_bench::write_manifest;
use ahs_core::{AhsModel, Params};
use ahs_des::{replication_rng, BiasScheme, MarkovSimulator};
use ahs_obs::{Json, RunManifest};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut boost = 600.0;
    let mut lambda = 1e-5;
    let mut reps: u64 = 4000;
    let mut horizon = 10.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--boost" => {
                i += 1;
                boost = args[i].parse().unwrap();
            }
            "--lambda" => {
                i += 1;
                lambda = args[i].parse().unwrap();
            }
            "--reps" => {
                i += 1;
                reps = args[i].parse().unwrap();
            }
            "--horizon" => {
                i += 1;
                horizon = args[i].parse().unwrap();
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }

    let start = std::time::Instant::now();
    let params = Params::builder().n(8).lambda(lambda).build().unwrap();
    let model = AhsModel::build(&params).unwrap();
    let h = model.handles().clone();
    let scheme = BiasScheme::new().with_multipliers(h.failure_activities.iter().copied(), boost);
    let sim = MarkovSimulator::new(model.san()).unwrap().with_bias(scheme);

    let mut hits_by_bin = [0u64; 10];
    let mut weights_by_bin = [0.0f64; 10];
    let mut no_hit = 0u64;
    let mut events_total = 0u64;
    for rep in 0..reps {
        let mut rng = replication_rng(99, rep);
        let out = sim
            .run_first_passage(|m| m.is_marked(h.ko_total), horizon, &mut rng)
            .unwrap();
        events_total += out.events;
        match out.hit_time {
            Some(t) => {
                let bin = ((t / horizon * 10.0) as usize).min(9);
                hits_by_bin[bin] += 1;
                weights_by_bin[bin] += out.hit_weight;
            }
            None => no_hit += 1,
        }
    }
    let hits = reps - no_hit;
    println!(
        "boost {boost}, lambda {lambda:.0e}: {hits} hits / {reps} reps ({no_hit} misses), mean events/rep {:.0}",
        events_total as f64 / reps as f64
    );
    println!("bin(t)      hits   sum(weight)   S-contrib");
    for (b, (n, w)) in hits_by_bin.iter().zip(&weights_by_bin).enumerate() {
        println!(
            "[{:4.1},{:4.1})  {:5}   {:10.3e}   {:.3e}",
            b as f64 * horizon / 10.0,
            (b + 1) as f64 * horizon / 10.0,
            n,
            w,
            w / reps as f64
        );
    }

    let mut manifest = RunManifest::new("ahs-bench hit_times", "hit_times", 99);
    manifest.params = params.to_json();
    manifest.replications = reps;
    manifest.wall_seconds = start.elapsed().as_secs_f64();
    manifest.extra.push(("boost".into(), Json::Num(boost)));
    manifest.extra.push(("horizon".into(), Json::Num(horizon)));
    manifest.extra.push(("hits".into(), Json::UInt(hits)));
    manifest.extra.push(("misses".into(), Json::UInt(no_hit)));
    let path = write_manifest(&manifest, std::path::Path::new("results")).expect("write manifest");
    eprintln!("wrote {}", path.display());
}
