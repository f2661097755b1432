//! Benchmark harness for the AHS reproduction.
//!
//! ```text
//! perfbench --workload paper_points|exact_n2|serve_load --seed N
//!           --seconds S --trace 0|1 --ahs-bin PATH --out-dir DIR
//! ```
//!
//! Each run measures one workload in a fresh process (so peak RSS never
//! carries over), checks that the program's outputs are correct, and
//! prints one JSON object as its last stdout line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Every workload reports the same metrics. `--trace 0` reports the
//! end-to-end ones (`setup_s`, `peak_rss_mb`, `answer_s`); `--trace 1`
//! records spans around every call into the workspace crates and
//! reports the per-layer metrics instead: the workload's own layers from
//! a full pass, the layers it does not use from small companion passes
//! of the other two workloads, plus self times per layer, the tracing
//! overhead and the host probe. The exit code is non-zero when any
//! correctness gate fails. `perfbench/METRICS.md` says which
//! end-to-end metric each layer metric should move.

mod exact;
mod host;
mod paper;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;

use trace::Tracer;

const WORKLOADS: [&str; 3] = ["paper_points", "exact_n2", "serve_load"];

/// What every untraced run reports, in `BENCHMARK.json`'s order.
const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mb", "answer_s"];

/// What every traced run reports, in `BENCHMARK.json`'s order.
const PER_LAYER: [&str; 56] = [
    "core.build_s",
    "des.study_s",
    "des.reps",
    "des.timed_steps",
    "des.instant_steps",
    "des.steps_per_s",
    "des.reps_per_s",
    "des.ess_frac",
    "des.relhw",
    "des.wnv_s",
    "des.kernel_s",
    "des.study_self_s",
    "des.parallel_eff_2t",
    "des.ssa_steps_per_s.dd2",
    "des.ssa_steps.dd2",
    "des.ssa_steps_per_s.cc2",
    "des.ssa_steps.cc2",
    "check.check_s",
    "check.states",
    "check.transitions",
    "check.states_per_s",
    "check.cross_validate_s",
    "ctmc.explore_s",
    "ctmc.states",
    "ctmc.transient_s.2",
    "ctmc.transient_s.6",
    "ctmc.transient_s.10",
    "serve.submit_s",
    "serve.status_s",
    "serve.queue_wait_s",
    "serve.attempt_s",
    "serve.compute_s",
    "serve.overhead_s",
    "serve.restarts",
    "serve.rejected",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.jobs",
    "serve.jobs_per_s",
    "serve.latency_p90_s",
    "obs.atomic_write_s",
    "self.bench_s",
    "self.core_s",
    "self.des_s",
    "self.check_s",
    "self.ctmc_s",
    "self.serve_s",
    "self.obs_s",
    "trace.spans",
    "trace.overhead_s",
    "host.probe_s",
    "host.probe_before_s",
    "host.probe_after_s",
    "host.probe_mem_s",
    "host.nproc",
    "host.steal_ticks",
];

/// What a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub ahs_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// How much of a workload a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The workload itself.
    Full,
    /// A small companion pass in a traced run of another workload: the
    /// same calls at a smaller model or job count, so that every traced
    /// run reports every layer.
    Small,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    per_layer: bool,
}

/// A workload's outcome: operations attempted and failed, and metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, false);
    }

    /// Records a per-layer metric (reported by traced runs only).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, true);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, per_layer: bool) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            per_layer,
        });
    }

    /// Counts one operation, failed unless `ok`; `what` explains a
    /// failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("correctness gate failed: {}", what());
        }
    }

    /// Adds a companion pass's operations, and those of its metrics
    /// this report does not have yet.
    fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            if !self.metrics.iter().any(|have| have.name == m.name) {
                self.metrics.push(m);
            }
        }
    }
}

/// splitmix64: the benchmark's only source of generated inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_workload(name: &str, ctx: &Ctx, size: Size) -> Report {
    match name {
        "paper_points" => paper::run(ctx, size),
        "exact_n2" => exact::run(ctx, size),
        _ => serve::run(ctx, size),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload paper_points|exact_n2|serve_load --seed N \
         --seconds S --trace 0|1 --ahs-bin PATH --out-dir DIR"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(&w.as_str())) else {
        usage()
    };
    let parse_u64 = |flag: &str| value(flag).and_then(|v| v.parse::<u64>().ok());
    let (Some(seed), Some(seconds), Some(trace)) = (
        parse_u64("--seed"),
        parse_u64("--seconds"),
        parse_u64("--trace"),
    ) else {
        usage()
    };
    let (Some(ahs_bin), Some(out_dir)) = (value("--ahs-bin"), value("--out-dir")) else {
        usage()
    };
    let ctx = Ctx {
        seed,
        seconds: seconds.max(1) as f64,
        tracer: Tracer::new(trace == 1),
        ahs_bin: PathBuf::from(ahs_bin),
        out_dir: PathBuf::from(out_dir),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("creating {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }

    let steal_before = host::steal_ticks();
    let probe_before = host::probe_seconds();
    let mut report = run_workload(&workload, &ctx, Size::Full);
    if ctx.tracer.enabled() {
        for companion in WORKLOADS.iter().filter(|w| **w != workload) {
            report.merge(run_workload(companion, &ctx, Size::Small));
        }
    }
    let probe_after = host::probe_seconds();
    let probe_mem = host::probe_mem_seconds();
    let steal = host::steal_ticks().saturating_sub(steal_before);
    eprintln!(
        "host: nproc {}, probe {probe_before:.4}s before / {probe_after:.4}s after, \
         memory probe {probe_mem:.4}s, {steal} steal ticks",
        host::nproc()
    );

    if ctx.tracer.enabled() {
        report.layer("host.probe_s", (probe_before + probe_after) / 2.0, "s");
        report.layer("host.probe_before_s", probe_before, "s");
        report.layer("host.probe_after_s", probe_after, "s");
        report.layer("host.probe_mem_s", probe_mem, "s");
        report.layer("host.nproc", host::nproc() as f64, "count");
        report.layer("host.steal_ticks", steal as f64, "count");
        let spans = ctx.tracer.spans();
        for (layer, self_s) in trace::self_time_by_layer(&spans) {
            report.layer(&format!("self.{layer}_s"), self_s, "s");
        }
        report.layer("trace.spans", spans.len() as f64, "count");
        report.layer(
            "trace.overhead_s",
            trace::per_span_cost() * spans.len() as f64,
            "s",
        );
        let path = ctx.out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
    }

    let mut correct = report.failed == 0 && report.attempted > 0;
    let expected: &[&str] = if ctx.tracer.enabled() {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut fields = Vec::new();
    for name in expected {
        let found = report
            .metrics
            .iter()
            .find(|m| m.name == *name && m.per_layer == ctx.tracer.enabled());
        match found {
            Some(m) if stats::valid_metric_name(&m.name) && m.value.is_finite() => {
                fields.push(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                ));
            }
            Some(m) => {
                eprintln!("invalid metric `{}` = {}", m.name, m.value);
                correct = false;
            }
            None => {
                eprintln!("metric `{name}` was not measured");
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_obs::Json;

    /// The metric lists above are the ones `BENCHMARK.json` declares,
    /// and every name fits the allowed alphabet.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn merge_keeps_the_first_value_of_a_metric() {
        let mut main = Report::default();
        main.layer("core.build_s", 1.0, "s");
        main.check(true, String::new);
        let mut companion = Report::default();
        companion.layer("core.build_s", 2.0, "s");
        companion.layer("check.states", 209.0, "count");
        companion.check(false, || "companion gate".to_owned());
        main.merge(companion);
        assert_eq!((main.attempted, main.failed), (2, 1));
        let values: Vec<(&str, f64)> = main
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(values, [("core.build_s", 1.0), ("check.states", 209.0)]);
    }
}
