//! Thread CPU time: host time the calling thread spent on a CPU.
//!
//! Untraced runs time set-up, the slot loop and each `step` call with it
//! rather than with wall time. On a virtual machine whose kernel accounts
//! steal time, it excludes the time the hypervisor ran other guests on
//! this CPU, which is the largest run-to-run noise on a shared host (it
//! moved the tail of the per-slot times by up to 70% between runs). Each
//! workload runs on one thread, so it is the time the benchmark's work
//! took.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads thread CPU time through 64-bit Linux clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU nanoseconds the calling thread has used so far. One call costs
/// a system call, about 0.4 µs on the reference host.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for
    // the whole call, and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `f`, returning its value and the thread CPU seconds it took.
pub fn cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_ns();
    let value = f();
    (value, (thread_cpu_ns() - start) as f64 * 1e-9)
}
