//! What the benchmark asks the operating system: process CPU time, peak
//! memory and thread placement.

use std::fs;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Words of a CPU mask: room for 1024 CPUs, the size of the C
/// library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_ARENA_MAX` of the GNU C library.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from the one main arena.
///
/// The C library otherwise gives a new thread a new arena when the
/// others are busy at that instant, and a service workload starts
/// hundreds of short-lived threads: how many arenas it ends up with —
/// and so `peak_rss_mb`, by a sixth — is a race. The process runs on
/// one CPU, where arenas buy nothing. Returns whether the library
/// accepted the setting.
pub fn use_one_malloc_arena() -> bool {
    // SAFETY: `mallopt` takes two integers and changes only allocator
    // policy; it is called before the workload starts any thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // size passed; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread — and every thread it spawns from now
/// on, which inherit the mask — to `cpu`. Returns whether the kernel
/// accepted it.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte size passed,
    // only read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// User + system CPU nanoseconds of the whole process so far, threads
/// that already exited included.
///
/// `/proc/self/stat` has the same figure, but in ticks of 10 ms — too
/// coarse for one job or one quarter-second pass — and the benchmark
/// depends on `std` alone, so the C library `std` already links is
/// called directly.
pub fn cpu_nanos() -> u64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` with the
    // layout of the 64-bit Linux ABI (two 64-bit fields), which is the
    // only thing `clock_gettime` writes through the pointer.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
    }

    #[test]
    fn a_thread_can_be_pinned_to_a_cpu_it_is_allowed_on() {
        std::thread::spawn(|| {
            let allowed = allowed_cpus();
            assert!(!allowed.is_empty());
            let last = *allowed.last().unwrap();
            assert!(pin_to_cpu(last));
            assert_eq!(allowed_cpus(), vec![last]);
            // Inherited by threads spawned afterwards.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![last]);
            assert!(!pin_to_cpu(100_000));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cpu_time_advances_with_work_and_counts_finished_threads() {
        let spin = || {
            let mut x = 0u64;
            for i in 0..30_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
        };
        let before = cpu_nanos();
        spin();
        let own = cpu_nanos() - before;
        assert!(own > 1_000_000, "{own} ns for 30 M multiplications");
        std::thread::spawn(spin).join().unwrap();
        assert!(cpu_nanos() - before > own + own / 2);
        assert!(peak_rss_mb() > 0.0);
    }
}
