//! In-memory span recording around calls into the workspace crates.
//!
//! A span is a name (`<layer>.<what>`, the layer being the crate whose
//! public function the span wraps), a start and end offset from the
//! tracer's origin, the span that caused it, and — for `serve_load` —
//! the job it belongs to. Spans stay in memory until the run ends;
//! [`Tracer::write_jsonl`] then writes them out. A disabled tracer
//! still times every call (the workloads need the durations) but
//! records nothing, so untraced runs pay only the clock reads.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when the tracer is disabled.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: SpanId,
    pub job: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, job: Option<u64>) -> (SpanId, f64) {
        let start = self.now();
        if !self.enabled {
            return (None, start);
        }
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            job,
        });
        (Some(spans.len() - 1), start)
    }

    /// Closes a span opened at `start`; returns its duration in seconds.
    pub fn end(&self, (id, start): (SpanId, f64)) -> f64 {
        let end = self.now();
        if let Some(i) = id {
            self.spans.lock().expect("span list poisoned by a panic")[i].end = end;
        }
        end - start
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// wall time. `f` receives the span's id to parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, None);
        let out = f(open.0);
        (out, self.end(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let job = s.job.map_or("null".to_owned(), |j| j.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{job}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Summed self time per layer (the span name's first component).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_insert(0.0) += self_s;
    }
    by_layer
}

/// Cost of recording one span, measured on a scratch tracer; times the
/// number of spans a traced run recorded, it is the run's tracing
/// overhead.
pub fn per_span_cost() -> f64 {
    const N: usize = 20_000;
    let scratch = Tracer::new(true);
    let t = Instant::now();
    for _ in 0..N {
        let open = scratch.begin("bench.cost", None, None);
        std::hint::black_box(scratch.end(open));
    }
    t.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: SpanId) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("des.study", 0.0, 10.0, None),
            span("des.kernel", 1.0, 4.0, Some(0)),
            // Overlaps the first child by one second.
            span("des.kernel", 3.0, 6.0, Some(0)),
            // Runs past the parent's end; only 9..10 is covered.
            span("obs.write", 9.0, 12.0, Some(0)),
            span("des.kernel", 1.5, 2.0, Some(1)),
        ];
        let own = self_times(&spans);
        assert!((own[0] - (10.0 - 5.0 - 1.0)).abs() < 1e-12, "{own:?}");
        assert!((own[1] - 2.5).abs() < 1e-12);
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((own[4] - 0.5).abs() < 1e-12);

        let layers = self_time_by_layer(&spans);
        assert!((layers["des"] - (4.0 + 2.5 + 3.0 + 0.5)).abs() < 1e-12);
        assert!((layers["obs"] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (value, secs) = tracer.span("core.build", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::new(true);
        let ((), _) = tracer.span("core.build", None, |id| {
            tracer.span("san.compose", id, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
