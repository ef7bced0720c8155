//! A per-shard, work-stealing job scheduler for parallel tabulation.
//!
//! Replaces the single global job-queue lock the first parallel solver
//! used: jobs are distributed over independently locked shards (the
//! taint engines shard by the target statement's *method*, so edges of
//! one method cluster on one queue and stay cache-warm on one worker),
//! each worker owns a *home* shard it drains first, and idle workers
//! steal batches from other shards. Termination is exact: a `queued`
//! counter tracks jobs in shards and an `in_flight` counter tracks
//! claimed-but-unretired batches; claims increment `in_flight` *before*
//! decrementing `queued`, and workers retire a batch only after pushing
//! its discoveries, so `queued == 0 && in_flight == 0` is observable
//! only at the fixpoint.
//!
//! The scheduler is deliberately policy-free about job meaning (the
//! bidirectional taint engine's jobs carry a direction and two facts),
//! and it records the counters (`steals`, per-shard pushes) that the
//! benchmark suite reports.

use flowdroid_ir::fxhash64;
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Default number of job shards (power of two).
pub const DEFAULT_SHARDS: usize = 16;

/// Default maximal number of jobs a worker claims per lock acquisition.
pub const DEFAULT_BATCH: usize = 32;

/// Counters describing one scheduler run (reported into
/// `BENCH_solver.json` by the benchmark suite).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Number of job shards.
    pub shards: usize,
    /// Total jobs pushed.
    pub pushed: u64,
    /// Batch claims that drained a non-home shard.
    pub steals: u64,
    /// Total batch claims (home + stolen).
    pub claims: u64,
    /// Jobs pushed per shard (occupancy distribution).
    pub pushed_per_shard: Vec<u64>,
}

impl SchedulerStats {
    /// Largest per-shard push count (the hottest shard).
    pub fn max_shard_pushes(&self) -> u64 {
        self.pushed_per_shard.iter().copied().max().unwrap_or(0)
    }

    /// Number of shards that received at least one job.
    pub fn occupied_shards(&self) -> usize {
        self.pushed_per_shard.iter().filter(|&&c| c > 0).count()
    }
}

/// A sharded, work-stealing multi-queue of jobs with exact termination
/// detection.
pub struct WorkStealScheduler<J> {
    shards: Vec<Mutex<VecDeque<J>>>,
    /// Jobs currently sitting in some shard.
    queued: AtomicUsize,
    /// Jobs claimed by a worker whose batch has not been retired yet.
    in_flight: AtomicUsize,
    steals: AtomicU64,
    claims: AtomicU64,
    pushed: Vec<AtomicU64>,
    /// Workers currently blocked in [`WorkStealScheduler::claim`]
    /// waiting for work. Drives the adaptive spill threshold: busy
    /// workers publish more aggressively when peers are starved.
    idle_workers: AtomicUsize,
    idle: Mutex<()>,
    wake: Condvar,
    batch: usize,
}

impl<J> WorkStealScheduler<J> {
    /// Creates a scheduler with `shard_count` queues (rounded up to a
    /// power of two) and the given claim batch size.
    pub fn new(shard_count: usize, batch: usize) -> Self {
        let shards = shard_count.max(1).next_power_of_two();
        WorkStealScheduler {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            claims: AtomicU64::new(0),
            pushed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            idle_workers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            batch: batch.max(1),
        }
    }

    /// The number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key hashes to (Fx mixes the low bits last, so the
    /// index is taken from the high bits).
    pub fn shard_for<K: Hash>(&self, key: &K) -> usize {
        let h = fxhash64(key) as usize;
        (h >> (64 - self.shards.len().trailing_zeros())) & (self.shards.len() - 1)
    }

    /// Enqueues a job on `shard`. The `queued` increment happens before
    /// the job becomes claimable, so a claimer can never drive the
    /// counter negative.
    pub fn push(&self, shard: usize, job: J) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.pushed[shard].fetch_add(1, Ordering::Relaxed);
        self.shards[shard].lock().unwrap().push_back(job);
        self.wake.notify_one();
    }

    /// Claims a batch of jobs into `out`, draining the home shard first
    /// and stealing from the others when it is empty. Blocks while work
    /// is in flight elsewhere; returns `false` exactly when the
    /// fixpoint is reached (no jobs queued, none in flight) — the
    /// worker should exit its loop then.
    ///
    /// The caller must call [`WorkStealScheduler::retire`] with the
    /// number of claimed jobs after processing them (and after pushing
    /// any jobs they discovered).
    pub fn claim(&self, home: usize, out: &mut Vec<J>) -> bool {
        let n = self.shards.len();
        let home = home % n;
        loop {
            for i in 0..n {
                let s = (home + i) % n;
                let mut q = self.shards[s].lock().unwrap();
                if q.is_empty() {
                    continue;
                }
                let take = q.len().min(self.batch);
                // Claim order: count the batch as in flight *before*
                // removing it from `queued`, so (queued == 0 &&
                // in_flight == 0) is never observable mid-claim.
                self.in_flight.fetch_add(take, Ordering::SeqCst);
                self.queued.fetch_sub(take, Ordering::SeqCst);
                out.extend(q.drain(..take));
                drop(q);
                self.claims.fetch_add(1, Ordering::Relaxed);
                if s != home {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            // Every shard was empty when scanned. Check in_flight first:
            // a worker retires only after pushing its discoveries, so
            // observing in_flight == 0 and then queued == 0 proves the
            // fixpoint (any later job would have been queued before the
            // last retire).
            let guard = self.idle.lock().unwrap();
            if self.in_flight.load(Ordering::SeqCst) == 0
                && self.queued.load(Ordering::SeqCst) == 0
            {
                self.wake.notify_all();
                return false;
            }
            if self.queued.load(Ordering::SeqCst) == 0 {
                // Work is in flight elsewhere; sleep until woken by a
                // push or a retire (with a timeout as lost-wakeup
                // insurance).
                self.idle_workers.fetch_add(1, Ordering::SeqCst);
                let _ = self.wake.wait_timeout(guard, Duration::from_millis(1)).unwrap();
                self.idle_workers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Retires `n` previously claimed jobs. Must be called after the
    /// jobs were processed and their discoveries pushed.
    pub fn retire(&self, n: usize) {
        let was = self.in_flight.fetch_sub(n, Ordering::SeqCst);
        if was == n {
            // Possibly the last batch: wake sleepers so they re-check
            // (they either find new work or observe the fixpoint).
            self.wake.notify_all();
        }
    }

    /// Number of workers currently blocked waiting for work. A
    /// momentary snapshot — callers use it as a load signal (e.g. to
    /// lower their local-buffer spill threshold), never for
    /// correctness.
    pub fn idle_workers(&self) -> usize {
        self.idle_workers.load(Ordering::Relaxed)
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            shards: self.shards.len(),
            pushed: self.pushed.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            steals: self.steals.load(Ordering::Relaxed),
            claims: self.claims.load(Ordering::Relaxed),
            pushed_per_shard: self.pushed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn drains_to_exact_termination() {
        let sched: WorkStealScheduler<u64> = WorkStealScheduler::new(4, 8);
        for i in 0..100 {
            sched.push(sched.shard_for(&i), i);
        }
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let sched = &sched;
                let done = &done;
                scope.spawn(move || {
                    let mut batch = Vec::new();
                    while sched.claim(w, &mut batch) {
                        let taken = batch.len();
                        for job in batch.drain(..) {
                            // Each job below 50 spawns a follow-up.
                            if job < 50 {
                                sched.push(sched.shard_for(&(job + 100)), job + 100);
                            }
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        sched.retire(taken);
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 150);
        let stats = sched.stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.pushed, 150);
        assert_eq!(stats.pushed_per_shard.iter().sum::<u64>(), 150);
        assert!(stats.claims > 0);
    }

    #[test]
    fn single_worker_processes_everything() {
        let sched: WorkStealScheduler<u32> = WorkStealScheduler::new(8, 4);
        for i in 0..40u32 {
            sched.push((i % 8) as usize, i);
        }
        let mut got = Vec::new();
        let mut batch = Vec::new();
        while sched.claim(0, &mut batch) {
            let taken = batch.len();
            got.extend(batch.drain(..));
            sched.retire(taken);
        }
        got.sort_unstable();
        assert_eq!(got, (0..40u32).collect::<Vec<_>>());
        // A lone worker claims foreign shards: those count as steals.
        assert!(sched.stats().steals > 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let sched: WorkStealScheduler<()> = WorkStealScheduler::new(5, 1);
        assert_eq!(sched.shard_count(), 8);
        let s = sched.shard_for(&42u64);
        assert!(s < 8);
    }
}
