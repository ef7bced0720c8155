//! The shared worker-drive loop for parallel tabulation.
//!
//! The claim / drain / retire loop around [`WorkStealScheduler`] that
//! the FlowDroid core's parallel bidirectional taint engine runs on: an
//! engine supplies a per-worker state (anything
//! implementing [`WorkerState`], typically holding caches and a local
//! pending buffer) and a `step` function processing one job, and
//! [`drive`] runs the loop to the scheduler's exact-termination
//! fixpoint.
//!
//! Discovered jobs go to the worker's *local* pending buffer first and
//! are popped LIFO (depth-first, cache-warm). The buffer spills its
//! oldest jobs to the shared scheduler when it grows past a threshold
//! that *adapts to observed starvation*: with no idle workers the full
//! base threshold applies, while each observed idle worker halves it
//! (down to a floor), so busy workers publish work earlier exactly when
//! peers are starved and keep batching when everyone is busy. Spill
//! timing affects scheduling only; the tabulation fixpoint — and with
//! the engines' canonicalized provenance, the reported results — is
//! identical whatever the threshold.

use crate::abort::AbortHandle;
use crate::scheduler::WorkStealScheduler;

/// Jobs a worker processes between [`AbortHandle`] polls. Bounds how
/// far past a deadline a run can drift: one poll interval of work per
/// worker, plus the cost of the job in flight.
const ABORT_CHECK_EVERY: usize = 64;

/// Per-worker state driven by [`drive`]. The only requirement is access
/// to the worker's local pending-job buffer; engines add whatever
/// caches and result accumulators they need.
pub trait WorkerState<J> {
    /// The worker's local buffer of discovered-but-unprocessed jobs.
    fn pending(&mut self) -> &mut Vec<J>;
}

/// The spill threshold for a worker observing `idle` starved peers:
/// `base` when none are idle, halved per idle worker (saturating at
/// three halvings) with a floor of 8.
pub fn spill_threshold(base: usize, idle: usize) -> usize {
    if idle == 0 {
        base
    } else {
        (base >> idle.min(3)).max(8)
    }
}

/// Runs `threads` workers over `sched` until exact termination.
///
/// Each worker is built by `new_worker(index)`, claims batches from the
/// scheduler, appends them to its pending buffer and pops jobs LIFO,
/// calling `step` on each. `step` returning `false` aborts the whole
/// worker (budget exhaustion); remaining queued jobs are left to other
/// workers, which abort the same way. When `abort` is given, every
/// worker additionally polls the handle — once per claimed batch and
/// every [`ABORT_CHECK_EVERY`] processed jobs — and winds down the same
/// way when it trips (deadline passed or external cancel), so an
/// expired job returns within one poll interval per worker instead of
/// running to the fixpoint. Jobs pushed into the pending
/// buffer by `step` are processed before the claimed batch is retired,
/// so the scheduler's `queued == 0 && in_flight == 0` fixpoint test
/// stays exact. When the buffer exceeds the adaptive
/// [`spill_threshold`], its oldest surplus is published to the shard
/// chosen by `shard_of`, down to half the threshold.
///
/// With `threads <= 1` the single worker runs inline on the calling
/// thread (no spawn); since it can never observe an idle peer, the
/// threshold stays at `base_spill` and behavior matches the historic
/// fixed-threshold loop exactly.
///
/// Returns the worker states in worker-index order so engines can merge
/// per-worker accumulators deterministically.
pub fn drive<J, W, N, S, P>(
    sched: &WorkStealScheduler<J>,
    threads: usize,
    base_spill: usize,
    abort: Option<&AbortHandle>,
    new_worker: N,
    shard_of: S,
    step: P,
) -> Vec<W>
where
    J: Send,
    W: WorkerState<J> + Send,
    N: Fn(usize) -> W + Sync,
    S: Fn(&J) -> usize + Sync,
    P: Fn(&mut W, J) -> bool + Sync,
{
    if threads <= 1 {
        let mut w = new_worker(0);
        run_worker(sched, base_spill, abort, 0, &mut w, &shard_of, &step);
        return vec![w];
    }
    let mut workers: Vec<W> = (0..threads).map(&new_worker).collect();
    std::thread::scope(|scope| {
        for (home, w) in workers.iter_mut().enumerate() {
            let shard_of = &shard_of;
            let step = &step;
            scope.spawn(move || run_worker(sched, base_spill, abort, home, w, shard_of, step));
        }
    });
    workers
}

fn run_worker<J, W, S, P>(
    sched: &WorkStealScheduler<J>,
    base_spill: usize,
    abort: Option<&AbortHandle>,
    home: usize,
    w: &mut W,
    shard_of: &S,
    step: &P,
) where
    W: WorkerState<J>,
    S: Fn(&J) -> usize,
    P: Fn(&mut W, J) -> bool,
{
    let mut batch: Vec<J> = Vec::new();
    let mut since_abort_check = 0usize;
    'claims: while sched.claim(home, &mut batch) {
        let taken = batch.len();
        if abort.is_some_and(|h| h.poll().is_some()) {
            batch.clear();
            w.pending().clear();
            sched.retire(taken);
            break 'claims;
        }
        w.pending().append(&mut batch);
        while let Some(job) = w.pending().pop() {
            since_abort_check += 1;
            if since_abort_check >= ABORT_CHECK_EVERY {
                since_abort_check = 0;
                if abort.is_some_and(|h| h.poll().is_some()) {
                    w.pending().clear();
                    sched.retire(taken);
                    break 'claims;
                }
            }
            if !step(w, job) {
                w.pending().clear();
                sched.retire(taken);
                break 'claims;
            }
            let threshold = spill_threshold(base_spill, sched.idle_workers());
            if w.pending().len() > threshold {
                // Publish the *oldest* surplus (front of the buffer):
                // the newest jobs stay local for LIFO cache warmth.
                let surplus = w.pending().len() - threshold / 2;
                let pending = w.pending();
                for job in pending.drain(..surplus).collect::<Vec<_>>() {
                    sched.push(shard_of(&job), job);
                }
            }
        }
        // Retire only after the batch's discoveries are processed or
        // pushed, so the fixpoint test stays exact.
        sched.retire(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counter {
        pending: Vec<u64>,
    }

    impl WorkerState<u64> for Counter {
        fn pending(&mut self) -> &mut Vec<u64> {
            &mut self.pending
        }
    }

    #[test]
    fn threshold_adapts_to_idle_workers() {
        assert_eq!(spill_threshold(64, 0), 64);
        assert_eq!(spill_threshold(64, 1), 32);
        assert_eq!(spill_threshold(64, 2), 16);
        assert_eq!(spill_threshold(64, 3), 8);
        assert_eq!(spill_threshold(64, 7), 8); // halvings saturate
        assert_eq!(spill_threshold(8, 1), 8); // floor
    }

    fn run(threads: usize) -> u64 {
        let sched: WorkStealScheduler<u64> = WorkStealScheduler::new(4, 8);
        for i in 0..50u64 {
            sched.push(sched.shard_for(&i), i);
        }
        let done = AtomicU64::new(0);
        let workers = drive(
            &sched,
            threads,
            4,
            None,
            |_| Counter { pending: Vec::new() },
            |job| sched.shard_for(job) % 4,
            |w, job| {
                // Jobs below 50 each spawn two follow-ups, exercising
                // the local buffer and the spill path.
                if job < 50 {
                    w.pending.push(job + 50);
                    w.pending.push(job + 100);
                }
                done.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        assert_eq!(workers.len(), threads.max(1));
        done.load(Ordering::Relaxed)
    }

    #[test]
    fn drives_to_fixpoint_single_threaded() {
        assert_eq!(run(1), 150);
    }

    #[test]
    fn drives_to_fixpoint_multi_threaded() {
        assert_eq!(run(4), 150);
    }

    #[test]
    fn step_false_aborts_all_workers() {
        let sched: WorkStealScheduler<u64> = WorkStealScheduler::new(4, 2);
        for i in 0..100u64 {
            sched.push(sched.shard_for(&i), i);
        }
        let done = AtomicU64::new(0);
        drive(
            &sched,
            2,
            4,
            None,
            |_| Counter { pending: Vec::new() },
            |job| sched.shard_for(job) % 4,
            |_, _| done.fetch_add(1, Ordering::Relaxed) < 10,
        );
        // Each worker stops within a batch of hitting the budget; far
        // fewer than the queued 100 jobs run.
        assert!(done.load(Ordering::Relaxed) < 100);
    }

    #[test]
    fn tripped_handle_aborts_all_workers() {
        let sched: WorkStealScheduler<u64> = WorkStealScheduler::new(4, 2);
        for i in 0..500u64 {
            sched.push(sched.shard_for(&i), i);
        }
        let handle = AbortHandle::with_deadline(std::time::Duration::ZERO);
        let done = AtomicU64::new(0);
        drive(
            &sched,
            2,
            4,
            Some(&handle),
            |_| Counter { pending: Vec::new() },
            |job| sched.shard_for(job) % 4,
            |_, _| {
                done.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        // The pre-expired deadline is seen on the first claim of each
        // worker: nothing is processed.
        assert_eq!(done.load(Ordering::Relaxed), 0);
        assert_eq!(handle.reason(), Some(crate::AbortReason::Deadline));
    }

    #[test]
    fn cancel_mid_run_stops_within_check_interval() {
        let sched: WorkStealScheduler<u64> = WorkStealScheduler::new(4, 2);
        for i in 0..100_000u64 {
            sched.push(sched.shard_for(&i), i);
        }
        let handle = AbortHandle::new();
        let done = AtomicU64::new(0);
        drive(
            &sched,
            1,
            4,
            Some(&handle),
            |_| Counter { pending: Vec::new() },
            |job| sched.shard_for(job) % 4,
            |_, _| {
                if done.fetch_add(1, Ordering::Relaxed) == 10 {
                    handle.cancel();
                }
                true
            },
        );
        // The single worker notices the cancel within one abort-check
        // interval plus one claimed batch.
        assert!(done.load(Ordering::Relaxed) < 10 + ABORT_CHECK_EVERY as u64 + 8);
        assert_eq!(handle.reason(), Some(crate::AbortReason::Cancelled));
    }
}
