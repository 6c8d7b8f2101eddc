//! Host probes: thread CPU time and peak resident set (64-bit Linux).

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64-bit.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU nanoseconds this thread has run. The benchmark is single-threaded,
/// so this is the simulator's own CPU time, unaffected by time spent
/// descheduled. `clock_gettime` brings the kernel's account up to date
/// before reading it; `/proc/thread-self/schedstat` can lag by a
/// scheduler tick, which reads as zero for a sub-millisecond set-up.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for
    // the whole call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) must succeed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status must be readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status must report VmHWM")
}
