//! Host facts recorded beside every run, so a reader can tell host
//! drift from a regression: a fixed CPU probe, the core count, steal
//! ticks, and peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Times a fixed, allocation-free integer loop (~0.1 s on a 2020s x86
/// core). Its duration moves only with the host, never with the code
/// under test. Four independent xorshift lanes keep several execution
/// ports busy, so a busy sibling hyperthread slows it as it slows the
/// simulator.
pub fn probe_seconds() -> f64 {
    let start = Instant::now();
    let mut lanes: [u64; 4] = black_box([1, 2, 3, 4].map(|k| 0x9E37_79B9_7F4A_7C15_u64 * k));
    for i in 0..25_000_000_u64 {
        for x in &mut lanes {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x = x.wrapping_add(i);
        }
    }
    black_box(lanes);
    start.elapsed().as_secs_f64()
}

/// Times a fixed dependent-load walk over an 8 MiB random cycle: it
/// moves with cache and memory contention from other tenants, which
/// the integer probe does not see.
pub fn probe_mem_seconds() -> f64 {
    const SLOTS: usize = 1 << 21;
    // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        next.swap(i, (state >> 33) as usize % i);
    }
    let start = Instant::now();
    let mut at = 0_u32;
    for _ in 0..SLOTS {
        at = next[at as usize];
    }
    black_box(at);
    start.elapsed().as_secs_f64()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative steal ticks over all CPUs (`/proc/stat`, 8th counter of
/// the `cpu` line); 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().next()?.to_owned();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
