//! Host readings from `/proc`: peak memory, run-queue wait and steal time.
//!
//! They explain noise rather than measure the program: on a shared host,
//! runs in a slow phase show more run-queue wait and more steal. Each
//! reading is `None` where the file is missing (non-Linux hosts).

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds the calling thread has spent waiting on a run queue (second
/// field of `/proc/thread-self/schedstat`).
pub fn thread_runq_wait_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

/// Host-wide steal ticks so far (eighth value of the `cpu` line of
/// `/proc/stat`).
pub fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Milliseconds per `/proc/stat` tick (`USER_HZ` is 100 on Linux).
pub const MS_PER_TICK: f64 = 10.0;
