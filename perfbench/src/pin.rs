//! Pinning a workload to one CPU.
//!
//! A closed loop over loopback hands every request from the client
//! thread to the daemon's handler and back. Across two vCPUs each
//! hand-off wakes a halted vCPU, which waits for the host scheduler:
//! on a shared host that wait swung warm-read p50 by a quarter between
//! runs. With both threads on one CPU the hand-off is a local context
//! switch, and the figures measure the serving stack's own work.

use std::os::raw::{c_int, c_ulong};

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 1024 / c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The CPUs the calling thread may run on, ascending; empty when the
/// affinity call fails.
pub fn allowed_cpus() -> Vec<usize> {
    let bits = c_ulong::BITS as usize;
    let mut allowed = [0 as c_ulong; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly its own size in
    // the layout of `cpu_set_t`, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * bits).filter(|&i| (allowed[i / bits] >> (i % bits)) & 1 == 1).collect()
}

/// Pin the calling thread to the lowest CPU it may run on; threads it
/// spawns afterwards inherit the pin. Returns that CPU, or `None` when
/// the affinity calls fail (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let bits = c_ulong::BITS as usize;
    let cpu = *allowed_cpus().first()?;
    let mut one = [0 as c_ulong; MASK_WORDS];
    one[cpu / bits] = 1 << (cpu % bits);
    // SAFETY: `one` is a readable buffer of exactly its own size in the
    // layout of `cpu_set_t`, and pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

/// Let the calling thread run on `cpus` again (as read by
/// [`allowed_cpus`] before pinning). Returns whether the call took.
pub fn allow(cpus: &[usize]) -> bool {
    let bits = c_ulong::BITS as usize;
    let mut mask = [0 as c_ulong; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * bits) {
        mask[cpu / bits] |= 1 << (cpu % bits);
    }
    // SAFETY: `mask` is a readable buffer of exactly its own size in
    // the layout of `cpu_set_t`, and pid 0 names the calling thread.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed_list() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list")
            .trim()
            .to_string()
    }

    #[test]
    fn pins_the_thread_and_its_children() {
        std::thread::spawn(|| {
            let all = allowed_cpus();
            let cpu = pin_to_one_cpu().expect("pinned");
            assert_eq!(allowed_list(), cpu.to_string());
            assert_eq!(allowed_cpus(), vec![cpu]);
            let child = std::thread::spawn(allowed_list).join().expect("child");
            assert_eq!(child, cpu.to_string());
            assert!(allow(&all));
            assert_eq!(allowed_cpus(), all);
        })
        .join()
        .expect("pinned thread");
    }
}
