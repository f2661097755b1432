//! Crash-safe study checkpoints (`ahs-checkpoint/v1`).
//!
//! A replication study is embarrassingly parallel *and* deterministic:
//! replication `i` always draws from `replication_rng(seed, i)` and
//! chunks merge into the result in replication-start order. That makes
//! the whole study resumable from a compact snapshot: the master seed,
//! the completed-replication watermark `W`, and the merged estimator
//! state over replications `[0, W)`. A run resumed from such a
//! checkpoint replays replications `W..` with the same per-replication
//! streams and the same merge order, so its final estimates are
//! **bitwise identical** to an uninterrupted run at any thread count.
//!
//! To guarantee the bitwise part across the serialization boundary, all
//! estimator state is stored as raw IEEE-754 bit patterns (`u64` via
//! `f64::to_bits`) — this also round-trips the ±∞ min/max of empty
//! estimators, which JSON numbers cannot represent. Checkpoints are
//! written atomically (temp file + rename, [`ahs_obs::atomic_write`])
//! so a crash mid-write leaves the previous checkpoint intact.
//!
//! Validation on resume is strict: master seed, chunk size, grid,
//! stopping rule, and a fingerprint of the model structure must all
//! match, otherwise [`SimError::Checkpoint`] explains the drift. See
//! `docs/robustness.md` and `tests/checkpoint.schema.json`.

use std::path::{Path, PathBuf};

use ahs_obs::{write_with_retry, Json, StoppingSpec};
use ahs_san::SanModel;
use ahs_stats::{Curve, RunningStats, TimeGrid, WeightedStats};

use crate::error::SimError;

/// Schema identifier embedded in every checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "ahs-checkpoint/v1";

/// Checkpoint generations kept on disk and consulted on resume: the
/// latest plus one fallback (`<name>.1.<ext>`), so a latest write that
/// lands corrupt never strands the study.
pub const CHECKPOINT_GENERATIONS: u32 = 2;

/// A replication whose body panicked and was excluded from the
/// estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRep {
    /// Deterministic replication index (its RNG stream).
    pub replication: u64,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// A crash-safe snapshot of a running (or finished) study.
#[derive(Debug, Clone)]
pub struct StudyCheckpoint {
    /// Master seed of the study.
    pub seed: u64,
    /// Replications per work chunk (resume requires the same value so
    /// chunk boundaries — and therefore merge order — line up).
    pub chunk: u64,
    /// Replication indices `[0, watermark)` are accounted for
    /// (completed or quarantined) in `curve`.
    pub watermark: u64,
    /// Name of the model under study (informational).
    pub model_name: String,
    /// FNV-1a 64 fingerprint of the model structure; resume refuses a
    /// checkpoint taken from a structurally different model.
    pub model_fingerprint: u64,
    /// Confidence level the study reports at.
    pub confidence: f64,
    /// The stopping rule in force when the checkpoint was taken.
    pub stopping: StoppingSpec,
    /// Merged estimator state over `[0, watermark)`.
    pub curve: Curve,
    /// Replications quarantined so far (all below `watermark`).
    pub quarantined: Vec<QuarantinedRep>,
    /// Watermarks of the checkpoints each prior session resumed from,
    /// oldest first — the resume lineage of this run.
    pub lineage: Vec<u64>,
}

impl StudyCheckpoint {
    /// Serializes the checkpoint as a JSON value.
    pub fn to_json(&self) -> Json {
        let grid = Json::Arr(
            self.curve
                .grid()
                .points()
                .iter()
                .map(|t| Json::Num(*t))
                .collect(),
        );
        let estimators = Json::Arr(
            self.curve
                .estimators()
                .iter()
                .map(estimator_to_json)
                .collect(),
        );
        let quarantined = Json::Arr(
            self.quarantined
                .iter()
                .map(|q| {
                    Json::obj(vec![
                        ("replication", Json::UInt(q.replication)),
                        ("message", Json::str(q.message.clone())),
                    ])
                })
                .collect(),
        );
        let lineage = Json::Arr(self.lineage.iter().map(|w| Json::UInt(*w)).collect());
        Json::obj(vec![
            ("schema", Json::str(CHECKPOINT_SCHEMA)),
            ("seed", Json::UInt(self.seed)),
            ("chunk", Json::UInt(self.chunk)),
            ("watermark", Json::UInt(self.watermark)),
            ("model", Json::str(self.model_name.clone())),
            ("model_fingerprint", Json::UInt(self.model_fingerprint)),
            ("confidence", Json::Num(self.confidence)),
            (
                "stopping",
                Json::obj(vec![
                    ("confidence", Json::Num(self.stopping.confidence)),
                    (
                        "relative_half_width",
                        self.stopping
                            .relative_half_width
                            .map_or(Json::Null, Json::Num),
                    ),
                    ("min_samples", Json::UInt(self.stopping.min_samples)),
                    (
                        "max_samples",
                        self.stopping.max_samples.map_or(Json::Null, Json::UInt),
                    ),
                ]),
            ),
            ("grid", grid),
            ("estimators", estimators),
            ("quarantined", quarantined),
            ("lineage", lineage),
        ])
    }

    /// Writes the checkpoint atomically (temp file + rename) with
    /// bounded retry of transient IO failures; a crash mid-write leaves
    /// any previous checkpoint at `path` intact.
    ///
    /// The `des::checkpoint::save` failpoint lands here: `torn-write`
    /// truncates the document and `corrupt-bytes` damages its header —
    /// both *succeed* on disk, simulating the valid-looking-but-broken
    /// latest generation that [`StudyCheckpoint::load_with_fallback`]
    /// exists to survive.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the file cannot be
    /// written.
    pub fn write(&self, path: &Path) -> Result<(), SimError> {
        let checkpoint_err = |e: std::io::Error| SimError::Checkpoint {
            reason: format!("cannot write {}: {e}", path.display()),
        };
        let mut doc = self.to_json().render();
        doc.push('\n');
        let mut bytes = doc.into_bytes();
        match ahs_inject::fire_io("des::checkpoint::save").map_err(checkpoint_err)? {
            Some(ahs_inject::Fault::TornWrite(n)) => bytes.truncate(n),
            Some(ahs_inject::Fault::CorruptBytes(n)) => ahs_inject::corrupt_prefix(&mut bytes, n),
            _ => {}
        }
        write_with_retry(path, &bytes).map_err(checkpoint_err)
    }

    /// Writes the checkpoint at `path`, first rotating the existing
    /// generations (`path` → `<name>.1.<ext>` …) so the newest
    /// [`CHECKPOINT_GENERATIONS`] documents survive. Rotation is
    /// best-effort — a failed rename costs retention depth, never the
    /// checkpoint itself.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the new checkpoint cannot
    /// be written.
    pub fn write_rotated(&self, path: &Path) -> Result<(), SimError> {
        for k in (1..CHECKPOINT_GENERATIONS).rev() {
            let from = generation_path(path, k - 1);
            if from.exists() {
                std::fs::rename(&from, generation_path(path, k)).ok();
            }
        }
        self.write(path)
    }

    /// Loads and structurally validates a checkpoint written by
    /// [`StudyCheckpoint::write`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on IO failure, malformed JSON,
    /// a schema mismatch, or internally inconsistent state.
    pub fn load(path: &Path) -> Result<Self, SimError> {
        let fault =
            ahs_inject::fire_io("des::checkpoint::load").map_err(|e| SimError::Checkpoint {
                reason: format!("cannot read {}: {e}", path.display()),
            })?;
        let mut text = std::fs::read_to_string(path).map_err(|e| SimError::Checkpoint {
            reason: format!("cannot read {}: {e}", path.display()),
        })?;
        if let Some(ahs_inject::Fault::CorruptBytes(n)) = fault {
            let mut bytes = text.into_bytes();
            ahs_inject::corrupt_prefix(&mut bytes, n);
            text = String::from_utf8_lossy(&bytes).into_owned();
        }
        let doc = Json::parse(&text).map_err(|e| SimError::Checkpoint {
            reason: format!("{} is not valid JSON: {e}", path.display()),
        })?;
        Self::from_json(&doc).map_err(|reason| SimError::Checkpoint {
            reason: format!("{}: {reason}", path.display()),
        })
    }

    /// Loads the newest *valid* of the [`CHECKPOINT_GENERATIONS`]
    /// retained generations: `path` itself (generation 0), then
    /// `<name>.1.<ext>`, …. Returns the checkpoint and the generation it
    /// came from, so callers can warn (and record `resume_fallback`)
    /// when the latest was corrupt or truncated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] listing why every generation
    /// was rejected.
    pub fn load_with_fallback(path: &Path) -> Result<(Self, u32), SimError> {
        let mut reasons = Vec::new();
        for k in 0..CHECKPOINT_GENERATIONS {
            match Self::load(&generation_path(path, k)) {
                Ok(cp) => return Ok((cp, k)),
                Err(e) => reasons.push(format!("generation {k}: {e}")),
            }
        }
        Err(SimError::Checkpoint {
            reason: format!(
                "no valid checkpoint among {CHECKPOINT_GENERATIONS} generation(s) of {} — {}",
                path.display(),
                reasons.join("; ")
            ),
        })
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let schema = field_str(doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "schema is `{schema}`, expected `{CHECKPOINT_SCHEMA}`"
            ));
        }
        let seed = field_u64(doc, "seed")?;
        let chunk = field_u64(doc, "chunk")?;
        let watermark = field_u64(doc, "watermark")?;
        let model_name = field_str(doc, "model")?.to_owned();
        let model_fingerprint = field_u64(doc, "model_fingerprint")?;
        let confidence = field_f64(doc, "confidence")?;

        let stopping = doc.get("stopping").ok_or("missing field `stopping`")?;
        let stopping = StoppingSpec {
            confidence: field_f64(stopping, "confidence")?,
            relative_half_width: opt_f64(stopping, "relative_half_width")?,
            min_samples: field_u64(stopping, "min_samples")?,
            max_samples: opt_u64(stopping, "max_samples")?,
        };

        let grid_json = doc
            .get("grid")
            .and_then(Json::as_array)
            .ok_or("missing or non-array field `grid`")?;
        let points: Vec<f64> = grid_json
            .iter()
            .map(|v| v.as_f64().ok_or("non-numeric grid instant"))
            .collect::<Result<_, _>>()?;
        if points.is_empty() {
            return Err("grid is empty".into());
        }
        if points.windows(2).any(|w| w[0] >= w[1])
            || points.iter().any(|t| !t.is_finite() || *t < 0.0)
        {
            return Err("grid is not strictly increasing / finite / non-negative".into());
        }
        let grid = TimeGrid::new(points);

        let est_json = doc
            .get("estimators")
            .and_then(Json::as_array)
            .ok_or("missing or non-array field `estimators`")?;
        if est_json.len() != grid.len() {
            return Err(format!(
                "{} estimators for {} grid points",
                est_json.len(),
                grid.len()
            ));
        }
        let estimators: Vec<WeightedStats> = est_json
            .iter()
            .map(estimator_from_json)
            .collect::<Result<_, _>>()?;
        if estimators
            .iter()
            .any(|e| e.count() != estimators[0].count())
        {
            return Err("estimator sample counts disagree across grid points".into());
        }
        let curve = Curve::from_parts(grid, estimators);

        let quarantined = match doc.get("quarantined").and_then(Json::as_array) {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|q| {
                    Ok(QuarantinedRep {
                        replication: field_u64(q, "replication")?,
                        message: field_str(q, "message")?.to_owned(),
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        if quarantined.iter().any(|q| q.replication >= watermark) {
            return Err("quarantined replication at or beyond the watermark".into());
        }
        if curve.samples() + quarantined.len() as u64 != watermark {
            return Err(format!(
                "{} samples + {} quarantined do not account for watermark {watermark}",
                curve.samples(),
                quarantined.len()
            ));
        }

        let lineage = match doc.get("lineage").and_then(Json::as_array) {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|v| v.as_u64().ok_or("non-integer lineage watermark"))
                .collect::<Result<_, _>>()?,
        };

        Ok(StudyCheckpoint {
            seed,
            chunk,
            watermark,
            model_name,
            model_fingerprint,
            confidence,
            stopping,
            curve,
            quarantined,
            lineage,
        })
    }
}

/// The path of checkpoint generation `k`: generation 0 is `path`
/// itself; older generations insert `.k` before the final extension
/// (`run.ckpt.json` → `run.ckpt.1.json`), or append `.k` when there is
/// none.
pub fn generation_path(path: &Path, generation: u32) -> PathBuf {
    if generation == 0 {
        return path.to_path_buf();
    }
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => path.with_extension(format!("{generation}.{ext}")),
        None => {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".{generation}"));
            PathBuf::from(name)
        }
    }
}

/// FNV-1a 64 fingerprint of a model's structure: name, places with
/// initial tokens, activities with their timing (including constant
/// delay parameters), arcs, and case distributions. Resuming a
/// checkpoint against a model with a different fingerprint is refused —
/// the replication streams would no longer mean the same thing.
///
/// Marking-dependent rate/probability closures cannot be hashed; they
/// contribute only their presence, so two models differing *only* in
/// the body of such a closure collide. Constant-parameter models (all
/// of the paper's) are fully covered.
pub fn model_fingerprint(model: &SanModel) -> u64 {
    use std::fmt::Write as _;
    let mut dump = String::new();
    let _ = write!(dump, "model:{};", model.name());
    let initial = model.initial_marking();
    for p in model.place_ids() {
        // `value` covers simple and extended (array) places alike;
        // `tokens` would panic on the latter.
        let _ = write!(
            dump,
            "place:{}={:?};",
            model.place_name(p),
            initial.value(p)
        );
    }
    for a in model.activities() {
        let _ = write!(
            dump,
            "act:{}:{:?}:in{:?}:ig{:?};",
            a.name(),
            a.timing(),
            a.input_arcs(),
            a.input_gates()
        );
        for c in a.cases() {
            let _ = write!(
                dump,
                "case:{:?}:out{:?}:og{:?};",
                c.probability_spec(),
                c.output_arcs(),
                c.output_gates()
            );
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in dump.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Estimator state as raw bit patterns: exact round-trip for every
/// `f64`, including the ±∞ min/max of an empty estimator.
fn estimator_to_json(e: &WeightedStats) -> Json {
    let p = e.product_stats();
    Json::obj(vec![
        ("count", Json::UInt(p.count())),
        ("mean_bits", Json::UInt(p.mean().to_bits())),
        ("m2_bits", Json::UInt(p.m2().to_bits())),
        ("min_bits", Json::UInt(p.min().to_bits())),
        ("max_bits", Json::UInt(p.max().to_bits())),
        ("weight_sum_bits", Json::UInt(e.weight_sum().to_bits())),
        (
            "weight_sq_sum_bits",
            Json::UInt(e.weight_sq_sum().to_bits()),
        ),
    ])
}

fn estimator_from_json(v: &Json) -> Result<WeightedStats, String> {
    let bits = |key: &str| -> Result<f64, String> { Ok(f64::from_bits(field_u64(v, key)?)) };
    let count = field_u64(v, "count")?;
    let m2 = bits("m2_bits")?;
    if m2 < 0.0 || m2.is_nan() {
        return Err(format!("negative or NaN m2 ({m2}) in estimator state"));
    }
    let product = RunningStats::from_parts(
        count,
        bits("mean_bits")?,
        m2,
        bits("min_bits")?,
        bits("max_bits")?,
    );
    Ok(WeightedStats::from_parts(
        product,
        bits("weight_sum_bits")?,
        bits("weight_sq_sum_bits")?,
    ))
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric field `{key}`")),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer field `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahs_stats::TimeGrid;

    fn sample_checkpoint() -> StudyCheckpoint {
        let grid = TimeGrid::new(vec![1.0, 2.5, 4.0]);
        let mut curve = Curve::new(grid);
        curve.record_first_passage(Some(0.7), 1.0);
        curve.record_first_passage(None, 1.0);
        curve.record_first_passage(Some(3.0), 0.125);
        StudyCheckpoint {
            seed: 0xDEAD_BEEF,
            chunk: 2,
            watermark: 4,
            model_name: "fixture".into(),
            model_fingerprint: 0x1234_5678_9ABC_DEF0,
            confidence: 0.95,
            stopping: StoppingSpec {
                confidence: 0.95,
                relative_half_width: Some(0.1),
                min_samples: 2,
                max_samples: Some(4),
            },
            curve,
            quarantined: vec![QuarantinedRep {
                replication: 3,
                message: "injected panic".into(),
            }],
            lineage: vec![2],
        }
    }

    #[test]
    fn round_trips_bitwise_through_disk() {
        let cp = sample_checkpoint();
        let dir = std::env::temp_dir().join("ahs-checkpoint-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        cp.write(&path).unwrap();
        let back = StudyCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(back.seed, cp.seed);
        assert_eq!(back.chunk, cp.chunk);
        assert_eq!(back.watermark, cp.watermark);
        assert_eq!(back.model_fingerprint, cp.model_fingerprint);
        assert_eq!(back.stopping, cp.stopping);
        assert_eq!(back.quarantined, cp.quarantined);
        assert_eq!(back.lineage, cp.lineage);
        assert_eq!(back.curve.grid(), cp.curve.grid());
        // Bit-for-bit estimator state — resume correctness depends on it.
        assert_eq!(back.curve.estimators(), cp.curve.estimators());
    }

    #[test]
    fn empty_estimators_round_trip_their_infinities() {
        let mut cp = sample_checkpoint();
        cp.curve = Curve::new(cp.curve.grid().clone());
        cp.watermark = 1;
        cp.quarantined = vec![QuarantinedRep {
            replication: 0,
            message: "all quarantined".into(),
        }];
        let doc = cp.to_json().render();
        let back = StudyCheckpoint::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.curve.estimators(), cp.curve.estimators());
        assert!(back.curve.estimator(0).product_stats().min().is_infinite());
    }

    #[test]
    fn rejects_wrong_schema_and_inconsistent_state() {
        let cp = sample_checkpoint();
        let mut doc = cp.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::str("ahs-checkpoint/v0");
        }
        assert!(StudyCheckpoint::from_json(&doc).is_err());

        let mut doc = cp.to_json();
        if let Json::Obj(fields) = &mut doc {
            // Watermark no longer accounted for by samples + quarantined.
            fields[3].1 = Json::UInt(40);
        }
        let err = StudyCheckpoint::from_json(&doc).unwrap_err();
        assert!(err.contains("watermark"), "{err}");
    }

    #[test]
    fn load_surfaces_io_and_parse_errors_as_checkpoint_errors() {
        let missing = StudyCheckpoint::load(Path::new("/nonexistent/cp.json"));
        assert!(matches!(missing, Err(SimError::Checkpoint { .. })));

        let dir = std::env::temp_dir().join("ahs-checkpoint-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{not json").unwrap();
        let bad = StudyCheckpoint::load(&path);
        std::fs::remove_file(&path).ok();
        match bad {
            Err(SimError::Checkpoint { reason }) => {
                assert!(reason.contains("not valid JSON"), "{reason}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn generation_paths_insert_before_the_final_extension() {
        let p = Path::new("out/run.ckpt.json");
        assert_eq!(generation_path(p, 0), PathBuf::from("out/run.ckpt.json"));
        assert_eq!(generation_path(p, 1), PathBuf::from("out/run.ckpt.1.json"));
        assert_eq!(generation_path(p, 2), PathBuf::from("out/run.ckpt.2.json"));
        assert_eq!(
            generation_path(Path::new("bare"), 1),
            PathBuf::from("bare.1")
        );
    }

    #[test]
    fn rotation_retains_previous_generations() {
        let dir =
            std::env::temp_dir().join(format!("ahs-checkpoint-rotate-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("run.ckpt.json");
        let oldest = generation_path(&path, CHECKPOINT_GENERATIONS - 1);
        let mut cp = sample_checkpoint();
        cp.write_rotated(&path).unwrap();
        assert!(!oldest.exists(), "nothing to rotate on the first write");
        cp.seed = 0xFACE;
        cp.write_rotated(&path).unwrap();
        assert_eq!(StudyCheckpoint::load(&path).unwrap().seed, 0xFACE);
        assert_eq!(StudyCheckpoint::load(&oldest).unwrap().seed, 0xDEAD_BEEF);
        // A further write at the same depth drops the oldest and keeps
        // no generation beyond the constant depth.
        cp.seed = 0xBEEF;
        cp.write_rotated(&path).unwrap();
        assert_eq!(StudyCheckpoint::load(&path).unwrap().seed, 0xBEEF);
        assert_eq!(StudyCheckpoint::load(&oldest).unwrap().seed, 0xFACE);
        assert!(!generation_path(&path, CHECKPOINT_GENERATIONS).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_load_survives_a_corrupt_latest_generation() {
        let dir =
            std::env::temp_dir().join(format!("ahs-checkpoint-fallback-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("run.ckpt.json");
        let cp = sample_checkpoint();
        cp.write_rotated(&path).unwrap();
        cp.write_rotated(&path).unwrap();

        // Pristine latest: generation 0 wins.
        let (_, generation) = StudyCheckpoint::load_with_fallback(&path).unwrap();
        assert_eq!(generation, 0);

        // Truncate the latest mid-document: fall back to generation 1,
        // bitwise-equal to what was checkpointed.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let (back, generation) = StudyCheckpoint::load_with_fallback(&path).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(back.curve.estimators(), cp.curve.estimators());

        // Corrupt *both* generations: a typed error naming each reason.
        std::fs::write(generation_path(&path, 1), b"{broken").unwrap();
        let err = StudyCheckpoint::load_with_fallback(&path).unwrap_err();
        match err {
            SimError::Checkpoint { reason } => {
                assert!(reason.contains("generation 0"), "{reason}");
                assert!(reason.contains("generation 1"), "{reason}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_distinguishes_models() {
        use ahs_san::{Delay, SanBuilder};
        let build = |rate: f64| {
            let mut b = SanBuilder::new("fp");
            let up = b.place_with_tokens("up", 1).unwrap();
            let down = b.place("down").unwrap();
            b.timed_activity("fail", Delay::exponential(rate))
                .unwrap()
                .input_place(up)
                .output_place(down)
                .build()
                .unwrap();
            b.build().unwrap()
        };
        let a = build(1.0);
        assert_eq!(model_fingerprint(&a), model_fingerprint(&build(1.0)));
        assert_ne!(model_fingerprint(&a), model_fingerprint(&build(2.0)));
    }
}
