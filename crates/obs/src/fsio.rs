//! Crash-safe artifact writes.
//!
//! Every JSON artifact the workspace produces (manifests, checkpoints,
//! bench CSVs) goes through [`atomic_write`]: the bytes land in
//! `<path>.tmp` first and are published with a single `rename`, so a
//! crash mid-write can truncate only the temporary file — a reader
//! never observes a partial document at the final path. After the
//! rename the parent directory is fsynced (best-effort), so a power
//! loss cannot silently undo a published artifact either.
//!
//! On top of atomicity, [`write_with_retry`] makes the write *robust*:
//! transient failures (`ENOSPC`, `EINTR`, timeouts…) are retried under
//! a bounded, deterministic exponential backoff ([`RetryPolicy`]),
//! while permanent errors surface immediately.
//!
//! Each fallible step evaluates an `obs::fsio::*` failpoint
//! (`ahs-inject`), so the chaos tier can tear writes, fill the disk,
//! or break the rename at will; without the `inject` feature the
//! evaluations compile to nothing.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Serial number making every temporary name unique within the
/// process; combined with the pid it is unique across concurrent
/// writers of the same artifact (two simultaneous `atomic_write`s to
/// one path must not race on a shared temporary, or the loser's
/// `rename` fails with `ENOENT`).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many best-effort parent-directory fsyncs have failed
/// process-wide (filesystems without directory fsync, or injected
/// faults). Degradation, not failure: the artifact is still published.
static DIR_SYNC_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of failed best-effort directory fsyncs; see
/// [`atomic_write`].
pub fn dir_sync_failures() -> u64 {
    DIR_SYNC_FAILURES.load(Ordering::Relaxed)
}

/// The temporary sibling `<path>.<pid>.<seq>.tmp` used by
/// [`atomic_write`].
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory, so the rename that
/// published `path` itself reaches the disk. Directory fsync is not
/// supported everywhere (and is where injected `dir-sync` faults
/// land); failure is counted, never propagated.
fn sync_parent_dir(path: &Path) {
    let result: std::io::Result<()> = (|| {
        ahs_inject::fire_io("obs::fsio::dir-sync")?;
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()
    })();
    if result.is_err() {
        DIR_SYNC_FAILURES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Writes `contents` to `path` atomically: parent directories are
/// created, the bytes are written and synced to `<path>.tmp`, the
/// temporary is renamed over `path`, and the parent directory is
/// fsynced (best-effort — see [`dir_sync_failures`]). On any error the
/// temporary is removed and `path` is left as it was.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let result = (|| {
        ahs_inject::fire_io("obs::fsio::create")?;
        let mut file = std::fs::File::create(&tmp)?;
        match ahs_inject::fire_io("obs::fsio::write")? {
            Some(ahs_inject::Fault::TornWrite(n)) => {
                // Land a truncated prefix on disk, then fail the write
                // — exactly what a crash mid-write leaves behind.
                let n = n.min(contents.len());
                file.write_all(&contents[..n])?;
                file.sync_all().ok();
                return Err(ahs_inject::Fault::TornWrite(n)
                    .to_io_error("obs::fsio::write")
                    .expect("torn write maps to an io error"));
            }
            _ => file.write_all(contents)?,
        }
        ahs_inject::fire_io("obs::fsio::sync")?;
        // Flush to disk before publishing, so the rename can never
        // expose a file whose bytes are still in flight.
        file.sync_all()
    })();
    let published = result.and_then(|()| {
        ahs_inject::fire_io("obs::fsio::rename")?;
        std::fs::rename(&tmp, path)
    });
    match published {
        Ok(()) => {
            sync_parent_dir(path);
            Ok(())
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Bounded, deterministic exponential backoff for transient IO
/// failures.
///
/// Attempt `i` (zero-based) sleeps
/// `min(max_delay_ms, base_delay_ms * 2^i + jitter_i)` where
/// `jitter_i ∈ [0, base_delay_ms)` comes from a splitmix64 stream over
/// `(seed, i)` — so the whole schedule is a pure function of the
/// policy, bitwise-reproducible run to run, and provably monotone
/// nondecreasing up to the cap
/// (`raw_{i+1} = 2·raw_i ≥ raw_i + base > raw_i + jitter_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `1 + max_retries`).
    pub max_retries: u32,
    /// First-retry delay and the jitter modulus, in milliseconds.
    pub base_delay_ms: u64,
    /// Hard cap on any single delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The default policy for artifact writes (checkpoints, manifests,
    /// CSVs): 4 retries, 10 ms base, capped at 500 ms — worst case
    /// under a quarter second of waiting before the error surfaces.
    pub fn default_artifact() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x4148_535f_4941_4f21, // "AHS_IAO!"
        }
    }

    /// The backoff delay before retry `attempt` (zero-based), in
    /// milliseconds. Pure and total: no clock, no global RNG.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let raw = self
            .base_delay_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        let jitter = if self.base_delay_ms == 0 {
            0
        } else {
            splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % self.base_delay_ms
        };
        raw.saturating_add(jitter).min(self.max_delay_ms)
    }

    /// Whether an error of this kind is worth retrying: conditions
    /// that can clear on their own (disk pressure, interruption,
    /// timeouts, busy resources). Programming errors and permanent
    /// conditions (`InvalidInput`, `NotFound`, `PermissionDenied`, …)
    /// are not.
    pub fn is_transient(kind: std::io::ErrorKind) -> bool {
        use std::io::ErrorKind as K;
        matches!(
            kind,
            K::Interrupted
                | K::WouldBlock
                | K::TimedOut
                | K::StorageFull
                | K::ResourceBusy
                | K::QuotaExceeded
        )
    }
}

/// The splitmix64 mix function — the workspace's standard seed
/// scrambler (see `ahs-des::rng`), reused here so jitter needs no RNG
/// dependency.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `op`, retrying transient failures under `policy`'s backoff
/// schedule. The first non-transient error, or the last error once
/// retries are exhausted, is returned as-is.
pub fn retry_io<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.max_retries && RetryPolicy::is_transient(e.kind()) => {
                std::thread::sleep(std::time::Duration::from_millis(policy.delay_ms(attempt)));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`atomic_write`] under the default artifact retry policy: transient
/// failures anywhere in the temp-write-sync-rename sequence are
/// retried (each attempt with a fresh temporary), permanent ones
/// surface immediately.
pub fn write_with_retry(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    retry_io(&RetryPolicy::default_artifact(), || {
        atomic_write(path, contents)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ahs-obs-fsio-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn writes_and_replaces() {
        let _g = serial();
        let dir = scratch("replace");
        let path = dir.join("nested/out.json");
        atomic_write(&path, b"{\"v\":1}\n").expect("first write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}\n");
        atomic_write(&path, b"{\"v\":2}\n").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leaves_no_temporary_behind() {
        let _g = serial();
        let dir = scratch("tmpfile");
        let path = dir.join("out.json");
        atomic_write(&path, b"x").expect("write");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.json"], "temporary must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_to_one_path_never_fail() {
        let _g = serial();
        let dir = scratch("race");
        let path = dir.join("contended.json");
        std::thread::scope(|s| {
            for i in 0..8 {
                let path = &path;
                s.spawn(move || {
                    for j in 0..50 {
                        atomic_write(path, format!("{i}:{j}\n").as_bytes())
                            .expect("no writer may lose the temp-file race");
                    }
                });
            }
        });
        // Whatever write won last, the file is a complete document.
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.ends_with('\n') && body.contains(':'), "{body:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let mut failures_left = 3;
        let policy = RetryPolicy {
            base_delay_ms: 0, // no real sleeping in unit tests
            ..RetryPolicy::default_artifact()
        };
        let out = retry_io(&policy, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "full"))
            } else {
                Ok(42)
            }
        })
        .expect("transient failures within budget are absorbed");
        assert_eq!(out, 42);
    }

    #[test]
    fn retry_gives_up_after_budget_and_on_permanent_errors() {
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay_ms: 0,
            ..RetryPolicy::default_artifact()
        };
        let mut calls = 0;
        let err = retry_io(&policy, || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(calls, 3, "1 attempt + 2 retries");

        let mut calls = 0;
        let err = retry_io(&policy, || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(calls, 1, "permanent errors are never retried");
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_monotone() {
        let policy = RetryPolicy::default_artifact();
        let delays: Vec<u64> = (0..12).map(|i| policy.delay_ms(i)).collect();
        let again: Vec<u64> = (0..12).map(|i| policy.delay_ms(i)).collect();
        assert_eq!(delays, again, "pure function of (policy, attempt)");
        for pair in delays.windows(2) {
            assert!(pair[0] <= pair[1], "monotone nondecreasing: {delays:?}");
        }
        for &d in &delays {
            assert!(d <= policy.max_delay_ms);
        }
        assert_eq!(*delays.last().unwrap(), policy.max_delay_ms, "cap reached");
        // Shift overflow at extreme attempt counts saturates at the cap.
        assert_eq!(policy.delay_ms(u32::MAX), policy.max_delay_ms);
    }
}

/// Tests that only exist when injection is armed: the failure paths of
/// `atomic_write` under injected create/write/sync/rename faults.
#[cfg(all(test, feature = "inject"))]
mod inject_tests {
    use super::*;
    use crate::serial;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ahs-obs-fsio-inject-{}-{name}", std::process::id()))
    }

    /// Satellite: rename/sync/write/create faults must leave the target
    /// byte-identical to its prior contents and the directory free of
    /// `.tmp` orphans — `leaves_no_temporary_behind`, under fire.
    #[test]
    fn injected_faults_leave_target_intact_and_no_orphans() {
        let _g = serial();
        let dir = scratch("fault-matrix");
        let path = dir.join("out.json");
        std::fs::remove_dir_all(&dir).ok();
        atomic_write(&path, b"{\"generation\":0}\n").expect("seed write");
        for spec in [
            "obs::fsio::create=1*return(enospc)",
            "obs::fsio::write=1*return(enospc)",
            "obs::fsio::write=1*torn-write(4)",
            "obs::fsio::sync=1*return(interrupted)",
            "obs::fsio::rename=1*return(busy)",
        ] {
            ahs_inject::configure_from_spec(spec).expect("valid spec");
            let err = atomic_write(&path, b"{\"generation\":1}\n")
                .expect_err("injected fault must surface");
            assert!(err.to_string().contains("injected"), "{spec}: {err}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                "{\"generation\":0}\n",
                "{spec}: target must be byte-identical to its prior contents"
            );
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names, vec!["out.json"], "{spec}: no .tmp orphans");
        }
        ahs_inject::clear();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_with_retry_absorbs_transient_injected_faults() {
        let _g = serial();
        let dir = scratch("retry");
        let path = dir.join("out.json");
        std::fs::remove_dir_all(&dir).ok();
        // Two transient failures (ENOSPC, then a torn write surfacing
        // as EINTR), then clean: the retry wrapper must succeed.
        ahs_inject::configure_from_spec("obs::fsio::write=1*return(enospc)->1*torn-write(2)")
            .expect("valid spec");
        write_with_retry(&path, b"persistent\n").expect("retries absorb transient faults");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "persistent\n");
        assert!(
            ahs_inject::hits("obs::fsio::write") >= 3,
            "two failures + one success"
        );
        ahs_inject::clear();

        // A permanent fault is not retried.
        ahs_inject::configure_from_spec("obs::fsio::create=return(permission-denied)")
            .expect("valid spec");
        let err = write_with_retry(&path, b"nope\n").expect_err("permanent fault surfaces");
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
        assert_eq!(
            ahs_inject::hits("obs::fsio::create"),
            1,
            "permanent errors must not burn the retry budget"
        );
        ahs_inject::clear();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_sync_fault_degrades_with_counter_not_error() {
        let _g = serial();
        let dir = scratch("dirsync");
        let path = dir.join("out.json");
        std::fs::remove_dir_all(&dir).ok();
        let before = dir_sync_failures();
        ahs_inject::configure_from_spec("obs::fsio::dir-sync=1*return(enospc)")
            .expect("valid spec");
        atomic_write(&path, b"published\n").expect("dir-sync failure must not fail the write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "published\n");
        assert_eq!(dir_sync_failures(), before + 1, "degradation is counted");
        ahs_inject::clear();
        std::fs::remove_dir_all(&dir).ok();
    }
}
