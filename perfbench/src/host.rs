//! What the host is and what this process used: the fingerprint printed with
//! every result (numbers compare only within one host), the process CPU clock
//! every timing is read from, and the peak resident set with the allocator
//! settings that keep it steady.

/// CPU model, logical cores and kernel release of this host.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!("cpu=\"{cpu}\" cores={cores} kernel={kernel}")
}

/// Seconds of CPU time this process has used so far, all threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Every timing the benchmark reports is a difference of this clock, not of
/// the wall clock: on a shared virtual machine the wall clock also counts the
/// time the hypervisor ran other guests on this guest's CPUs (steal) and the
/// time spent waiting on the disk, both of which vary from run to run by far
/// more than the program's own cost. With one evaluator worker and otherwise
/// idle threads, this clock advances like the wall clock of an unshared host.
/// What it cannot leave out is the program running slower while other guests
/// contend for the shared last-level cache and memory: on the 2-vCPU Xeon
/// this benchmark was built on, that alone moved a repetition's CPU time by
/// up to 1.8x over tens of minutes.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is one Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Without Linux's process CPU clock, the wall clock since first use.
#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Returns the allocator's free memory to the operating system, so a
/// repetition does not start on the heap earlier set-ups and repetitions
/// left behind (which made the process's peak resident set vary from run to
/// run by how much of it the allocator happened to keep).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases free
    // pages of this process's own heap; it may be called from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Without glibc there is nothing to trim.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// Makes every thread allocate from glibc's one main arena. By default each
/// new thread (every repetition's worker and stream drainers) may get an
/// arena of its own, and how much of the freed memory stays stranded in them
/// made the peak resident set vary by a fifth from run to run; with one
/// worker there is no allocator contention for more arenas to relieve. Call
/// before the first thread starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_heap_arena() {
    extern "C" {
        fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    const M_ARENA_MAX: std::os::raw::c_int = -8;
    // SAFETY: `mallopt` takes no pointers; it only sets a tuning parameter
    // of this process's allocator.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Without glibc the allocator keeps its own arena policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_heap_arena() {}
