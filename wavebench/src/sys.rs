//! The measuring machine: peak resident memory and the context every
//! result is reported with.

use std::fs;

/// Resets the process's resident-memory high-water mark to its current
/// resident size (`/proc/self/clear_refs`, value 5). Returns `false`
/// where the kernel does not allow it; the high-water mark is then the
/// process's peak since start.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of the process (`VmHWM`) in MiB, or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler the benchmark was built with.
pub fn rustc_version() -> &'static str {
    env!("WAVEBENCH_RUSTC")
}
