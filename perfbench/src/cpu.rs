//! CPU placement: the daemon under test and the load generator share one
//! CPU.
//!
//! The host-speed samples ([`crate::host`]) must be taken where the
//! daemon runs: the virtual CPUs of a shared host slow down at different
//! times. Over ten 12 s runs each of apps-fresh and taint-alias on a
//! two-CPU guest, the quartile spread of the mean latency, scaled by a
//! hash-map reference unit, was 0.09 and 0.08 with the load generator on
//! a CPU of its own, and 0.07 and 0.06 with both on one CPU. The load
//! generator waits while the daemon works, so sharing the CPU costs the
//! daemon little.

use std::io;

/// Words in a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask.
fn current() -> io::Result<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// The CPUs the calling thread may run on, in increasing order.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mask = current()?;
    Ok((0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// The mask holding only `cpu`.
fn mask_of(cpu: usize) -> io::Result<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other("cpu out of range"))? = 1 << (cpu % 64);
    Ok(mask)
}

/// Applies `mask` to the calling thread.
fn apply(mask: &[u64; WORDS]) -> io::Result<()> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The calling thread's placement before [`pin_current_thread`],
/// restored on drop, so the next run in the same process sees every CPU
/// again.
pub struct Pinned([u64; WORDS]);

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = apply(&self.0);
    }
}

/// Confines the calling thread, and the threads and processes it spawns
/// while the returned guard lives, to `cpu`. A spawned process inherits
/// the placement; a `pre_exec` hook would do the same but forces a full
/// `fork` of this process, which would count in the daemon's start-up
/// time.
pub fn pin_current_thread(cpu: usize) -> io::Result<Pinned> {
    let saved = Pinned(current()?);
    apply(&mask_of(cpu)?)?;
    Ok(saved)
}
