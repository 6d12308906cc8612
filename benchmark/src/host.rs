//! What the host contributes to a number: CPU placement, drift, load,
//! memory high-water mark, and the identity of what was measured.

use std::time::Instant;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this thread — and every thread the program later spawns from
/// it, which inherit the mask — to the lowest CPU it may run on.
///
/// A closed loop keeps one thread runnable at a time, so a second CPU
/// buys nothing; what it costs is repeatability. With client and server
/// on different vCPUs each hand-off parks a vCPU and wakes the other
/// through the hypervisor, the guest scheduler's placement is sticky for
/// a whole process, and the same binary measures 118 µs or 190 µs per
/// warm request depending on where its threads landed. On one CPU the
/// hand-off is a plain context switch. ROADMAP's bench host has one
/// hardware thread anyway; `host.hardware_threads` records what the
/// program saw.
///
/// Returns the CPU pinned to, or `None` when the platform refuses (the
/// run proceeds unpinned and says so).
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut mask: u64 = 0;
    // SAFETY: `mask` is a valid, writable 8-byte buffer and the size
    // passed is its size; pid 0 is the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    if got != 0 || mask == 0 {
        return None;
    }
    let cpu = mask.trailing_zeros();
    let one: u64 = 1 << cpu;
    // SAFETY: `one` is a valid 8-byte mask for the duration of the
    // call; the kernel zero-extends a short mask.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &one) };
    (set == 0).then_some(cpu)
}

/// Hardware threads as the program under test sees them (this is what
/// `RewriteOptions::threads` defaults to).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed xorshift loop, in microseconds: pure CPU, no memory, no
/// system calls. Timed at the start and end of a run so a reader can
/// tell host drift from a regression.
pub fn calib_us() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = 88_172_645_463_325_252;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// `VmHWM`, the process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured, when the checkout is a git repository
/// (the pipeline's checkouts are not).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.chars().take(12).collect()
    }
}
