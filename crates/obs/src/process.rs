//! Process containment primitives: resource limits and signalling for
//! isolated worker processes.
//!
//! `ahs serve` re-execs each job attempt into a child process; the
//! child's entry point calls [`limit_memory_bytes`] /
//! [`limit_cpu_seconds`] on itself at startup so a runaway allocation
//! or CPU spin dies *inside its own address space*, and the supervisor
//! uses [`send_sigterm`] to request a graceful drain (`std`'s
//! `Child::kill` only delivers SIGKILL).
//!
//! Like `interrupt`, the workspace vendors no `libc`, so both calls go
//! through minimal FFI declarations of POSIX `setrlimit(2)` and
//! `kill(2)` — the only other `unsafe` in the workspace, confined to
//! this module behind the crate's `deny(unsafe_code)`. On non-Unix
//! targets every function returns [`std::io::ErrorKind::Unsupported`]
//! and [`rlimit_supported`] is `false`: `ahs serve` then rejects
//! rlimit budgets, and a drain kills worker processes outright.
#![allow(unsafe_code)]

/// Whether this platform can apply `setrlimit`-based budgets (and
/// deliver SIGTERM). False on non-Unix targets, where `ahs serve`
/// rejects `--mem-limit`/`--cpu-limit`.
#[must_use]
pub fn rlimit_supported() -> bool {
    cfg!(unix)
}

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    // Resource numbers from the POSIX/Linux and macOS ABIs. RLIMIT_CPU
    // is 0 everywhere; RLIMIT_AS (total virtual address space) is 9 on
    // Linux and 5 (RLIMIT_RSS alias) on the BSDs/macOS.
    const RLIMIT_CPU: c_int = 0;
    #[cfg(target_os = "linux")]
    const RLIMIT_AS: c_int = 9;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_AS: c_int = 5;

    const SIGTERM: c_int = 15;

    /// `struct rlimit`: soft and hard limits, `rlim_t` is 64-bit on
    /// every supported target.
    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        /// POSIX `kill(2)`; `pid_t` is a plain `int` on every
        /// supported Unix target.
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    fn apply(resource: c_int, limit: u64) -> std::io::Result<()> {
        let rlim = RLimit {
            rlim_cur: limit,
            rlim_max: limit,
        };
        if unsafe { setrlimit(resource, &rlim) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    pub(super) fn limit_memory(bytes: u64) -> std::io::Result<()> {
        apply(RLIMIT_AS, bytes)
    }

    pub(super) fn limit_cpu(seconds: u64) -> std::io::Result<()> {
        apply(RLIMIT_CPU, seconds)
    }

    pub(super) fn sigterm(pid: u32) -> std::io::Result<()> {
        // Never let a pid wrap into the negative range: negative pids
        // address whole process *groups* in kill(2).
        let pid = c_int::try_from(pid).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "pid out of range")
        })?;
        if unsafe { kill(pid, SIGTERM) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

#[cfg(not(unix))]
mod sys {
    fn unsupported() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "process resource limits need a Unix target",
        )
    }

    pub(super) fn limit_memory(_bytes: u64) -> std::io::Result<()> {
        Err(unsupported())
    }

    pub(super) fn limit_cpu(_seconds: u64) -> std::io::Result<()> {
        Err(unsupported())
    }

    pub(super) fn sigterm(_pid: u32) -> std::io::Result<()> {
        Err(unsupported())
    }
}

/// Caps this process's total address space (`RLIMIT_AS`) at `bytes`.
/// An allocation beyond the cap fails, which Rust's allocator turns
/// into an abort — the contained process dies, nothing else does.
///
/// # Errors
///
/// The OS error from `setrlimit(2)`; `Unsupported` off Unix.
pub fn limit_memory_bytes(bytes: u64) -> std::io::Result<()> {
    sys::limit_memory(bytes)
}

/// Caps this process's CPU time (`RLIMIT_CPU`) at `seconds`; exceeding
/// it delivers SIGXCPU (default: termination).
///
/// # Errors
///
/// The OS error from `setrlimit(2)`; `Unsupported` off Unix.
pub fn limit_cpu_seconds(seconds: u64) -> std::io::Result<()> {
    sys::limit_cpu(seconds)
}

/// Delivers SIGTERM to `pid` — the graceful-drain request for an
/// isolated worker (its interrupt handler raises the stop flag, the
/// study drains at a chunk boundary, and the process exits 75).
///
/// # Errors
///
/// The OS error from `kill(2)`; `Unsupported` off Unix.
pub fn send_sigterm(pid: u32) -> std::io::Result<()> {
    sys::sigterm(pid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(unix)]
    fn sigterm_to_a_dead_pid_is_an_error_not_a_panic() {
        // A pid beyond any real pid_max: ESRCH, and a pid that would
        // wrap negative (process-group addressing) is rejected before
        // the syscall.
        assert!(send_sigterm(i32::MAX as u32 - 1).is_err());
        assert!(send_sigterm(u32::MAX).is_err());
    }

    #[test]
    fn support_flag_matches_target_family() {
        assert_eq!(rlimit_supported(), cfg!(unix));
    }
}
