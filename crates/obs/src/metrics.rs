//! Atomic metrics sink and its point-in-time snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Number of log₂ buckets in each histogram; bucket `i` covers
/// `[2^(i - HIST_ZERO), 2^(i - HIST_ZERO + 1))`.
const HIST_BUCKETS: usize = 64;
/// Bucket index of `[1, 2)`.
const HIST_ZERO: i32 = 32;

/// A lock-free log₂-bucketed histogram (importance-sampling weights
/// span hundreds of orders of magnitude; linear buckets are useless).
struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LogHistogram {
    fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: f64) {
        let idx = if value.is_finite() && value > 0.0 {
            (value.log2().floor() as i64 + i64::from(HIST_ZERO)).clamp(0, HIST_BUCKETS as i64 - 1)
                as usize
        } else {
            0
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Non-empty buckets as `(log2 of the lower bound, count)`.
    fn snapshot(&self) -> Vec<(i32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as i32 - HIST_ZERO, n))
            })
            .collect()
    }
}

/// Adds `v` to an `f64` stored as bits in an `AtomicU64`.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// Lowers (`min = true`) or raises the `f64` stored in `cell` to `v`.
fn atomic_f64_extreme(cell: &AtomicU64, v: f64, min: bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let old = f64::from_bits(cur);
        let improves = if min { v < old } else { v > old };
        if !improves {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// Throughput of one worker thread over one study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Replications this worker executed.
    pub replications: u64,
    /// Wall-clock seconds the worker was active.
    pub seconds: f64,
}

impl WorkerStats {
    /// Replications per second (0 for an instantaneous worker).
    pub fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.replications as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A thread-safe telemetry sink for simulation studies.
///
/// All counters are atomic with relaxed ordering: recording is a handful
/// of uncontended atomic adds per *replication* (never per event — the
/// simulators tally locally and flush once per run), so an attached
/// sink costs well under 1% of study time. Instrumented code holds an
/// `Option<Arc<Metrics>>` whose `None` default costs nothing at all.
///
/// The floating-point aggregates (weight sum, per-worker throughput)
/// depend on thread interleaving and are **diagnostics only**; the
/// simulation estimates themselves are deterministic (see
/// `docs/observability.md`).
#[derive(Debug)]
pub struct Metrics {
    replications: AtomicU64,
    quarantined: AtomicU64,
    timed_completions: AtomicU64,
    instantaneous_completions: AtomicU64,
    cascades: AtomicU64,
    chunk_merges: AtomicU64,
    weight_count: AtomicU64,
    weight_min_bits: AtomicU64,
    weight_max_bits: AtomicU64,
    weight_sum_bits: AtomicU64,
    weight_sq_sum_bits: AtomicU64,
    events_hist: LogHistogram,
    weight_hist: LogHistogram,
    workers: Mutex<Vec<WorkerStats>>,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("nonzero", &self.snapshot().len())
            .finish()
    }
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Metrics {
            replications: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            timed_completions: AtomicU64::new(0),
            instantaneous_completions: AtomicU64::new(0),
            cascades: AtomicU64::new(0),
            chunk_merges: AtomicU64::new(0),
            weight_count: AtomicU64::new(0),
            weight_min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            weight_max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            weight_sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            weight_sq_sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            events_hist: LogHistogram::new(),
            weight_hist: LogHistogram::new(),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Records one finished simulation run: how many timed and
    /// instantaneous activity completions it executed and whether any
    /// stabilization fired an instantaneous *cascade* (two or more
    /// instantaneous completions at one instant).
    pub fn record_run(&self, timed: u64, instantaneous: u64, cascaded: bool) {
        self.timed_completions.fetch_add(timed, Ordering::Relaxed);
        self.instantaneous_completions
            .fetch_add(instantaneous, Ordering::Relaxed);
        if cascaded {
            self.cascades.fetch_add(1, Ordering::Relaxed);
        }
        self.events_hist.record((timed + instantaneous) as f64);
    }

    /// Records one likelihood-ratio weight (1.0 under plain Monte
    /// Carlo; the importance-sampling diagnostics min/max/ESS come from
    /// these).
    pub fn record_weight(&self, w: f64) {
        self.weight_count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_extreme(&self.weight_min_bits, w, true);
        atomic_f64_extreme(&self.weight_max_bits, w, false);
        atomic_f64_add(&self.weight_sum_bits, w);
        atomic_f64_add(&self.weight_sq_sum_bits, w * w);
        self.weight_hist.record(w);
    }

    /// Adds `n` completed replications.
    pub fn add_replications(&self, n: u64) {
        self.replications.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one quarantined (panicked) replication.
    pub fn record_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker-chunk merge into the global estimator.
    pub fn record_chunk_merge(&self) {
        self.chunk_merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker thread's total throughput for a study.
    pub fn record_worker(&self, replications: u64, seconds: f64) {
        self.workers
            .lock()
            .expect("metrics worker list is never poisoned")
            .push(WorkerStats {
                replications,
                seconds,
            });
    }

    /// Takes a consistent-enough point-in-time snapshot (individual
    /// counters are exact; cross-counter consistency is best-effort
    /// while workers are still running).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let weight_count = self.weight_count.load(Ordering::Relaxed);
        MetricsSnapshot {
            replications: self.replications.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            timed_completions: self.timed_completions.load(Ordering::Relaxed),
            instantaneous_completions: self.instantaneous_completions.load(Ordering::Relaxed),
            cascades: self.cascades.load(Ordering::Relaxed),
            chunk_merges: self.chunk_merges.load(Ordering::Relaxed),
            weight_count,
            weight_min: if weight_count > 0 {
                f64::from_bits(self.weight_min_bits.load(Ordering::Relaxed))
            } else {
                f64::NAN
            },
            weight_max: if weight_count > 0 {
                f64::from_bits(self.weight_max_bits.load(Ordering::Relaxed))
            } else {
                f64::NAN
            },
            weight_sum: f64::from_bits(self.weight_sum_bits.load(Ordering::Relaxed)),
            weight_sq_sum: f64::from_bits(self.weight_sq_sum_bits.load(Ordering::Relaxed)),
            events_histogram: self.events_hist.snapshot(),
            weight_histogram: self.weight_hist.snapshot(),
            workers: self
                .workers
                .lock()
                .expect("metrics worker list is never poisoned")
                .clone(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// A point-in-time copy of a [`Metrics`] sink, serializable to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Completed replications.
    pub replications: u64,
    /// Replications whose body panicked and was quarantined (excluded
    /// from the estimates; see `docs/robustness.md`).
    pub quarantined: u64,
    /// Timed activity completions across all runs.
    pub timed_completions: u64,
    /// Instantaneous activity completions across all runs.
    pub instantaneous_completions: u64,
    /// Stabilizations that fired ≥ 2 instantaneous activities at one
    /// instant.
    pub cascades: u64,
    /// Worker chunks merged into the global estimator.
    pub chunk_merges: u64,
    /// Number of recorded likelihood-ratio weights.
    pub weight_count: u64,
    /// Smallest recorded weight (NaN when none were recorded).
    pub weight_min: f64,
    /// Largest recorded weight (NaN when none were recorded).
    pub weight_max: f64,
    /// Sum of recorded weights (its mean should be ≈ 1 for a proper
    /// change of measure).
    pub weight_sum: f64,
    /// Sum of squared weights (for the Kish effective sample size).
    pub weight_sq_sum: f64,
    /// Non-empty log₂ buckets of events-per-replication:
    /// `(log2 of bucket lower bound, count)`.
    pub events_histogram: Vec<(i32, u64)>,
    /// Non-empty log₂ buckets of recorded weights.
    pub weight_histogram: Vec<(i32, u64)>,
    /// Per-worker throughput.
    pub workers: Vec<WorkerStats>,
}

impl MetricsSnapshot {
    /// Total activity completions (timed + instantaneous).
    pub fn events_total(&self) -> u64 {
        self.timed_completions + self.instantaneous_completions
    }

    /// Mean recorded weight (NaN when none were recorded).
    pub fn mean_weight(&self) -> f64 {
        if self.weight_count > 0 {
            self.weight_sum / self.weight_count as f64
        } else {
            f64::NAN
        }
    }

    /// Kish effective sample size `(Σw)² / Σw²` of the recorded
    /// weights (NaN when none were recorded).
    pub fn effective_sample_size(&self) -> f64 {
        if self.weight_count > 0 && self.weight_sq_sum > 0.0 {
            self.weight_sum * self.weight_sum / self.weight_sq_sum
        } else {
            f64::NAN
        }
    }

    /// Summed replications-per-second across workers.
    pub fn replications_per_second(&self) -> f64 {
        self.workers.iter().map(WorkerStats::rate).sum()
    }

    /// Folds another snapshot into this one (summing counters, taking
    /// extreme min/max, concatenating worker lists).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.replications += other.replications;
        self.quarantined += other.quarantined;
        self.timed_completions += other.timed_completions;
        self.instantaneous_completions += other.instantaneous_completions;
        self.cascades += other.cascades;
        self.chunk_merges += other.chunk_merges;
        if other.weight_count > 0 {
            if self.weight_count == 0 {
                self.weight_min = other.weight_min;
                self.weight_max = other.weight_max;
            } else {
                self.weight_min = self.weight_min.min(other.weight_min);
                self.weight_max = self.weight_max.max(other.weight_max);
            }
        }
        self.weight_count += other.weight_count;
        self.weight_sum += other.weight_sum;
        self.weight_sq_sum += other.weight_sq_sum;
        merge_histogram(&mut self.events_histogram, &other.events_histogram);
        merge_histogram(&mut self.weight_histogram, &other.weight_histogram);
        self.workers.extend_from_slice(&other.workers);
    }

    /// An empty snapshot, usable as a merge accumulator.
    pub fn empty() -> Self {
        Metrics::new().snapshot()
    }

    /// Serializes the snapshot as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        let hist = |h: &[(i32, u64)]| {
            Json::Arr(
                h.iter()
                    .map(|&(exp, n)| {
                        Json::obj(vec![
                            ("log2", Json::Int(i64::from(exp))),
                            ("count", n.into()),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("replications", self.replications.into()),
            ("quarantined", self.quarantined.into()),
            ("timed_completions", self.timed_completions.into()),
            (
                "instantaneous_completions",
                self.instantaneous_completions.into(),
            ),
            ("cascades", self.cascades.into()),
            ("chunk_merges", self.chunk_merges.into()),
            ("weight_count", self.weight_count.into()),
            ("weight_min", self.weight_min.into()),
            ("weight_max", self.weight_max.into()),
            ("weight_mean", self.mean_weight().into()),
            ("weight_ess", self.effective_sample_size().into()),
            ("events_histogram", hist(&self.events_histogram)),
            ("weight_histogram", hist(&self.weight_histogram)),
            (
                "replications_per_second",
                self.replications_per_second().into(),
            ),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("replications", w.replications.into()),
                                ("seconds", w.seconds.into()),
                                ("rate", w.rate().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn merge_histogram(into: &mut Vec<(i32, u64)>, other: &[(i32, u64)]) {
    for &(exp, n) in other {
        match into.binary_search_by_key(&exp, |&(e, _)| e) {
            Ok(i) => into[i].1 += n,
            Err(i) => into.insert(i, (exp, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_replications(10);
        m.add_replications(5);
        m.record_run(100, 7, true);
        m.record_run(50, 0, false);
        m.record_chunk_merge();
        let s = m.snapshot();
        assert_eq!(s.replications, 15);
        assert_eq!(s.timed_completions, 150);
        assert_eq!(s.instantaneous_completions, 7);
        assert_eq!(s.cascades, 1);
        assert_eq!(s.chunk_merges, 1);
        assert_eq!(s.events_total(), 157);
    }

    #[test]
    fn quarantined_counter_accumulates_and_serializes() {
        let m = Metrics::new();
        m.record_quarantined();
        m.record_quarantined();
        let mut s = m.snapshot();
        assert_eq!(s.quarantined, 2);
        let other = Metrics::new();
        other.record_quarantined();
        s.merge(&other.snapshot());
        assert_eq!(s.quarantined, 3);
        assert!(s.to_json().render().contains("\"quarantined\":3"));
    }

    #[test]
    fn weight_diagnostics_min_max_ess() {
        let m = Metrics::new();
        for w in [0.5, 2.0, 1.0, 1.0] {
            m.record_weight(w);
        }
        let s = m.snapshot();
        assert_eq!(s.weight_count, 4);
        assert_eq!(s.weight_min, 0.5);
        assert_eq!(s.weight_max, 2.0);
        assert!((s.mean_weight() - 1.125).abs() < 1e-12);
        // ESS = (4.5)^2 / 6.25 = 3.24.
        assert!((s.effective_sample_size() - 3.24).abs() < 1e-12);
    }

    #[test]
    fn unit_weights_give_full_ess() {
        let m = Metrics::new();
        for _ in 0..1000 {
            m.record_weight(1.0);
        }
        let s = m.snapshot();
        assert!((s.effective_sample_size() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_has_nan_weight_stats() {
        let s = Metrics::new().snapshot();
        assert!(s.weight_min.is_nan());
        assert!(s.weight_max.is_nan());
        assert!(s.mean_weight().is_nan());
        assert!(s.effective_sample_size().is_nan());
    }

    #[test]
    fn histogram_buckets_weights_by_magnitude() {
        let m = Metrics::new();
        m.record_weight(1.5); // log2 in [0, 1)
        m.record_weight(1e-10); // log2 ≈ -33.2 → clamped/bucketed low
        m.record_weight(3.0); // log2 in [1, 2)
        let s = m.snapshot();
        let total: u64 = s.weight_histogram.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
        assert!(s.weight_histogram.iter().any(|&(e, _)| e == 0));
        assert!(s.weight_histogram.iter().any(|&(e, _)| e == 1));
    }

    #[test]
    fn merge_combines_snapshots() {
        let a = Metrics::new();
        a.add_replications(10);
        a.record_weight(0.25);
        a.record_worker(10, 1.0);
        let b = Metrics::new();
        b.add_replications(20);
        b.record_weight(4.0);
        b.record_worker(20, 2.0);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.replications, 30);
        assert_eq!(s.weight_min, 0.25);
        assert_eq!(s.weight_max, 4.0);
        assert_eq!(s.workers.len(), 2);
        assert!((s.replications_per_second() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn merge_into_empty_adopts_extremes() {
        let b = Metrics::new();
        b.record_weight(2.0);
        let mut s = MetricsSnapshot::empty();
        s.merge(&b.snapshot());
        assert_eq!(s.weight_min, 2.0);
        assert_eq!(s.weight_max, 2.0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = Metrics::new();
        m.add_replications(3);
        m.record_weight(1.0);
        let json = m.snapshot().to_json().render();
        assert!(json.contains("\"replications\":3"));
        assert!(json.contains("\"weight_ess\":1"));
        assert!(json.contains("\"weight_histogram\""));
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.add_replications(1);
                        m.record_weight(1.0);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.replications, 4000);
        assert_eq!(s.weight_count, 4000);
        assert!((s.weight_sum - 4000.0).abs() < 1e-9);
    }
}
