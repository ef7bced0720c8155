//! The analysis daemon: a bounded worker pool behind a line-delimited
//! JSON socket protocol (see [`crate::proto`]).
//!
//! One daemon process serves many analysis jobs and amortizes warm
//! state across them: all jobs share the process-global summary-store
//! registry, and the daemon promotes each completed job's staged
//! summaries (one `flush` per non-aborted job), so the second analysis
//! of an app — or of any app sharing library code with an earlier one —
//! starts from a warm cache. Aborted jobs never stage summaries, so a
//! deadline or cancel can't poison the cache for later jobs.
//!
//! The Android platform model is built (or loaded from a
//! `platform.fdps` snapshot, see [`DaemonOptions::platform_snapshot`])
//! exactly once at bind time, frozen into a shared
//! [`flowdroid_ir::ProgramBase`], and shared read-only across all
//! worker jobs. Each job opens a cheap copy-on-write *overlay* over
//! that base (no deep clone of the platform arena) and loads app code
//! through the demand-driven frontend, so per-job setup cost is the
//! app decode plus call-graph work — not the platform build or copy —
//! and an aborted job can never leave partially materialized bodies
//! behind: materialization happens in the job's private overlay only.
//! On top of that, a daemon-resident [`CgCache`] keeps each app's
//! entry-point model, materialization log and callgraph keyed by a
//! platform+app fingerprint, so repeat jobs replay the cached setup
//! instead of re-discovering components and rebuilding the callgraph.
//!
//! Concurrency layout:
//!
//! * the **accept loop** ([`Daemon::run`]) spawns one thread per
//!   connection;
//! * `analyze` requests enqueue on a bounded three-lane **priority
//!   queue** (`high`/`normal`/`batch`) consumed by `workers` pool
//!   threads (each job runs to completion on one worker; the job's own
//!   solver may use further threads via `taint_threads`). Workers
//!   dequeue high before normal before batch, but after
//!   [`AGING_STREAK`] consecutive non-batch picks a waiting batch job
//!   is served first, so saturating interactive traffic cannot starve
//!   bulk work. When [`DaemonOptions::queue_cap`] jobs are already
//!   waiting, further `analyze` requests are rejected with a typed
//!   `rejected` reply (backpressure) instead of being buffered without
//!   bound;
//! * with `"stream":true`, the connection handler relays the solver's
//!   [`ProgressEvent`]s as throttled `progress` frames and immediate
//!   `leak` frames while the job runs; the sink is purely
//!   observational, so the final `result` line is byte-identical to a
//!   non-streamed run;
//! * each job carries an [`AbortHandle`] created at submission —
//!   `deadline_ms` arms its wall-clock deadline, `cancel` requests trip
//!   it from any connection, and the propagation budget trips it from
//!   inside the solver — so the solvers' periodic polls bound how far a
//!   job can overrun;
//! * `shutdown` closes the queue (workers drain what is already
//!   queued and exit), wakes the accept loop and unlinks a Unix socket
//!   path *before* draining — so the address disappears promptly even
//!   when workers are mid-job — then waits for every job to finish and
//!   flushes the summary cache a final time; the worker threads are
//!   joined before [`Daemon::run`] returns.

use crate::external::{is_path_request, load_external_job, AppPolicy};
use crate::json::{obj, Json};
use crate::net::{connect, Conn, Listen, Listener};
use crate::proto::{
    denied_line, error_line, rejected_line, AnalyzeRequest, JobResult, Priority, Request,
};
use flowdroid_android::{build_snapshot, load_snapshot, PlatformSnapshot};
use flowdroid_bench::{find_job, run_single_lazy, CorpusJob};
use flowdroid_core::{
    flush_summary_cache, AbortHandle, CgCache, InfoflowConfig, ProgressEvent, ProgressSink,
};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default admission-queue bound (waiting jobs, not running ones).
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Consecutive non-batch dequeues after which a waiting batch job is
/// served before further high/normal work (anti-starvation aging).
const AGING_STREAK: u32 = 4;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonOptions {
    /// Where to listen.
    pub listen: Listen,
    /// Worker pool size; `0` uses the available parallelism.
    pub workers: usize,
    /// Persistent summary store shared by all jobs (optional).
    pub summary_cache: Option<PathBuf>,
    /// Path to a `platform.fdps` platform snapshot. When set and valid,
    /// the daemon loads the Android platform model from it at bind time
    /// instead of rebuilding it; a missing or corrupt file falls back to
    /// the eager in-process build (the daemon still starts, just
    /// slower). `None` always builds eagerly.
    pub platform_snapshot: Option<PathBuf>,
    /// Maximum number of *waiting* jobs across all priority lanes;
    /// submissions beyond it get a typed `rejected` reply. `0` means
    /// unbounded (no admission control).
    pub queue_cap: usize,
    /// Directories external apps (on-disk app dirs or `.rpk` archives)
    /// may be served from. Canonicalized at bind time; an `analyze`
    /// request naming a path outside every root — or any path at all
    /// when this is empty — gets a typed `denied` reply. See
    /// [`crate::external::AppPolicy`].
    pub allow_apps: Vec<PathBuf>,
}

impl DaemonOptions {
    /// Options for the given address with defaults otherwise.
    pub fn new(listen: Listen) -> DaemonOptions {
        DaemonOptions {
            listen,
            workers: 0,
            summary_cache: None,
            platform_snapshot: None,
            queue_cap: DEFAULT_QUEUE_CAP,
            allow_apps: Vec::new(),
        }
    }
}

/// The bounded three-lane priority queue feeding the worker pool.
struct PrioQueue {
    inner: Mutex<QueueInner>,
    /// Notified on push and on close.
    ready: Condvar,
}

#[derive(Default)]
struct QueueInner {
    /// One FIFO lane per [`Priority`], indexed by [`Priority::lane`].
    lanes: [VecDeque<(u64, CorpusJob)>; 3],
    /// Closed queues accept no pushes; pops drain what remains.
    closed: bool,
    /// Consecutive high/normal dequeues since the last batch dequeue.
    non_batch_streak: u32,
}

impl PrioQueue {
    fn new() -> PrioQueue {
        PrioQueue { inner: Mutex::new(QueueInner::default()), ready: Condvar::new() }
    }

    fn depth(inner: &QueueInner) -> usize {
        inner.lanes.iter().map(VecDeque::len).sum()
    }

    /// Blocks until a job is available (priority order with batch
    /// aging) or the queue is closed *and* drained.
    fn pop(&self) -> Option<(u64, CorpusJob)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if Self::depth(&inner) == 0 {
                if inner.closed {
                    return None;
                }
                inner = self.ready.wait(inner).unwrap();
                continue;
            }
            let batch_due =
                !inner.lanes[2].is_empty() && inner.non_batch_streak >= AGING_STREAK;
            let lane = if batch_due {
                2
            } else if !inner.lanes[0].is_empty() {
                0
            } else if !inner.lanes[1].is_empty() {
                1
            } else {
                2
            };
            if lane == 2 {
                inner.non_batch_streak = 0;
            } else {
                inner.non_batch_streak += 1;
            }
            return inner.lanes[lane].pop_front();
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// Per-job solver knobs from the `analyze` request.
#[derive(Clone, Debug, Default)]
struct JobSpec {
    max_propagations: u64,
    taint_threads: usize,
    priority: Priority,
    namespace: String,
}

struct JobEntry {
    app: String,
    state: JobState,
    abort: AbortHandle,
    spec: JobSpec,
    submitted: Instant,
    queue_ms: u64,
    cancel_requested: bool,
    /// Streaming sink handed to the worker when the job starts; the
    /// worker takes it (even for skipped jobs) so the relay's channel
    /// disconnects once no more events can arrive.
    progress: Option<ProgressSink>,
    result: Option<JobResult>,
}

#[derive(Default)]
struct Inner {
    jobs: Vec<JobEntry>,
    shutting_down: bool,
    /// Set once a `shutdown` handler has written (or failed to write)
    /// its reply; [`Daemon::run`] must not return — and thus let the
    /// process exit — before the requester has been answered.
    shutdown_replied: bool,
    /// Submissions rejected by admission control.
    rejected: u64,
    /// Submissions refused by the external-app path policy.
    denied: u64,
    /// Accepted submissions per priority lane.
    submitted: [u64; 3],
    /// Scheduler counters summed over completed parallel jobs.
    sched_pushed: u64,
    sched_claims: u64,
    sched_steals: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Notified whenever a job reaches `Done`.
    done: Condvar,
    /// The admission queue feeding the worker pool.
    queue: PrioQueue,
    /// Waiting-job bound ([`DaemonOptions::queue_cap`]; 0 = unbounded).
    queue_cap: usize,
    /// Set before the accept loop is woken for the last time.
    stop_accept: AtomicBool,
    summary_cache: Option<PathBuf>,
    /// The external-app sandbox ([`DaemonOptions::allow_apps`]).
    policy: AppPolicy,
    /// The shared, read-only platform model every job overlays.
    snapshot: Arc<PlatformSnapshot>,
    /// Daemon-resident callgraph / entry-point cache shared by all
    /// workers; repeat jobs on the same app replay the cached setup.
    cg_cache: CgCache,
    /// Time spent obtaining the platform model at bind time.
    snapshot_load_ms: u64,
    /// `"file"` when loaded from a `platform.fdps`, `"built"` otherwise.
    snapshot_source: &'static str,
    /// Resolved listen address (used to self-connect on shutdown).
    addr: Listen,
    workers: usize,
    started: Instant,
}

/// A bound, running daemon (workers are live; call [`Daemon::run`] to
/// serve connections).
pub struct Daemon {
    listener: Listener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listen address and starts the worker pool.
    pub fn bind(opts: DaemonOptions) -> io::Result<Daemon> {
        let policy = AppPolicy::new(&opts.allow_apps)?;
        let listener = Listener::bind(&opts.listen)?;
        let addr = listener.local_addr()?;
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            opts.workers
        };
        let load_start = Instant::now();
        let (snapshot, snapshot_source) = match &opts.platform_snapshot {
            Some(path) => match load_snapshot(path) {
                Ok(snap) => (snap, "file"),
                Err(e) => {
                    // A bad snapshot must not keep the daemon down:
                    // fall back to the eager platform build.
                    eprintln!(
                        "flowdroid-service: ignoring platform snapshot {}: {e}",
                        path.display()
                    );
                    (build_snapshot(), "built")
                }
            },
            None => (build_snapshot(), "built"),
        };
        let snapshot_load_ms = load_start.elapsed().as_millis() as u64;
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner::default()),
            done: Condvar::new(),
            queue: PrioQueue::new(),
            queue_cap: opts.queue_cap,
            stop_accept: AtomicBool::new(false),
            summary_cache: opts.summary_cache,
            policy,
            snapshot: Arc::new(snapshot),
            // Comfortably above the full corpus size, so a service
            // benchmark sweep stays warm end to end.
            cg_cache: CgCache::new(256),
            snapshot_load_ms,
            snapshot_source,
            addr,
            workers,
            started: Instant::now(),
        });
        let pool = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Daemon { listener, shared, workers: pool })
    }

    /// The resolved listen address (with the real port for `:0` binds).
    pub fn local_addr(&self) -> Listen {
        self.shared.addr.clone()
    }

    /// Serves connections until a `shutdown` request completes; worker
    /// threads are joined before returning.
    pub fn run(self) -> io::Result<()> {
        loop {
            if self.shared.stop_accept.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok(conn) => {
                    if self.shared.stop_accept.load(Ordering::SeqCst) {
                        break; // the shutdown self-connect
                    }
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_conn(&shared, conn));
                }
                Err(_) if self.shared.stop_accept.load(Ordering::SeqCst) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        for w in self.workers {
            let _ = w.join();
        }
        // The shutdown handler runs on a detached connection thread and
        // only writes its reply after the drain; wait for it so a
        // process hosting the daemon can't exit mid-reply.
        let mut inner = self.shared.inner.lock().unwrap();
        while !inner.shutdown_replied {
            inner = self.shared.done.wait(inner).unwrap();
        }
        Ok(())
    }
}

// ================= worker pool =================

fn worker_loop(shared: &Shared) {
    // `pop` blocks priority-aware; `None` means closed and drained.
    while let Some((id, job)) = shared.queue.pop() {
        run_one(shared, id, &job);
    }
}

fn run_one(shared: &Shared, id: u64, job: &CorpusJob) {
    let idx = (id - 1) as usize;
    let (abort, spec, app, queue_ms, progress, skip) = {
        let mut inner = shared.inner.lock().unwrap();
        let e = &mut inner.jobs[idx];
        e.queue_ms = e.submitted.elapsed().as_millis() as u64;
        e.state = JobState::Running;
        // A cancel — or a deadline that already passed — while the job
        // sat in the queue aborts it without running the solver at all.
        let skip = e.abort.poll().is_some();
        // Take the streaming sink even when skipping: dropping it is
        // what tells the relay no more events can arrive.
        (e.abort.clone(), e.spec.clone(), e.app.clone(), e.queue_ms, e.progress.take(), skip)
    };
    let mut sched = None;
    let result = if skip {
        drop(progress);
        JobResult {
            job: id,
            app,
            aborted: true,
            abort_reason: abort.reason().map(|r| r.as_str().to_string()),
            queue_ms,
            ..JobResult::default()
        }
    } else {
        let mut config = InfoflowConfig::default().with_abort(abort).with_lazy_frontend(true);
        config.max_propagations = spec.max_propagations;
        config.taint_threads = spec.taint_threads;
        config.cache_namespace = spec.namespace;
        config.progress = progress;
        config.summary_cache.clone_from(&shared.summary_cache);
        let mut run = run_single_lazy(job, &config, &shared.snapshot, Some(&shared.cg_cache));
        if !run.aborted {
            if let Some(dir) = &shared.summary_cache {
                // Promote this job's staged summaries so the *next* job
                // starts warm. Aborted jobs staged nothing, so skipping
                // the flush there is just noise avoidance.
                let _ = flush_summary_cache(dir);
            }
        }
        sched = run.scheduler.take();
        let sc = run.summary_cache.as_ref();
        JobResult {
            job: id,
            app,
            leaks: run.leaks as u64,
            aborted: run.aborted,
            abort_reason: run.abort_reason.map(|r| r.as_str().to_string()),
            wall_ms: run.total.as_millis() as u64,
            queue_ms,
            setup_us: run.setup().as_micros() as u64,
            dataflow_us: run.dataflow.as_micros() as u64,
            bodies_materialized: run.bodies_materialized,
            bodies_skipped: run.bodies_skipped,
            forward_propagations: run.forward_propagations,
            backward_propagations: run.backward_propagations,
            summary_hits: sc.map_or(0, |s| s.hits),
            summary_misses: sc.map_or(0, |s| s.misses),
            summary_stale: sc.map_or(0, |s| s.stale),
            summary_recorded: sc.map_or(0, |s| s.recorded),
            platform_clone_us: run.platform_clone_us,
            callgraph_cache_hits: u64::from(run.cg_cache_hit == Some(true)),
            callgraph_cache_misses: u64::from(run.cg_cache_hit == Some(false)),
            report: run.report,
        }
    };
    let mut inner = shared.inner.lock().unwrap();
    if let Some(s) = sched {
        inner.sched_pushed += s.pushed;
        inner.sched_claims += s.claims;
        inner.sched_steals += s.steals;
    }
    inner.jobs[idx].state = JobState::Done;
    inner.jobs[idx].result = Some(result);
    drop(inner);
    shared.done.notify_all();
}

// ================= request handling =================

fn handle_conn(shared: &Shared, conn: Box<dyn Conn>) {
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // client closed
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let keep_going = match Request::parse(trimmed) {
            Err(e) => write_line(reader.get_mut(), &error_line(&e)).is_ok(),
            Ok(Request::Analyze(req)) => handle_analyze(shared, &mut reader, &req).is_ok(),
            Ok(Request::Cancel { job }) => {
                let reply = match cancel(shared, job) {
                    Ok(state) => obj([
                        ("type", Json::from("ok")),
                        ("op", Json::from("cancel")),
                        ("job", Json::from(job)),
                        ("state", Json::from(state)),
                    ])
                    .to_line(),
                    Err(e) => error_line(&e),
                };
                write_line(reader.get_mut(), &reply).is_ok()
            }
            Ok(Request::Stats) => write_line(reader.get_mut(), &stats(shared).to_line()).is_ok(),
            Ok(Request::Shutdown) => {
                close_queue(shared);
                // Wake the accept loop while a Unix socket path still
                // exists (the self-connect needs it), then unlink the
                // path immediately: the address must disappear even
                // while workers are still mid-job in the drain below.
                shared.stop_accept.store(true, Ordering::SeqCst);
                let _ = connect(&shared.addr);
                #[cfg(unix)]
                if let Listen::Unix(path) = &shared.addr {
                    let _ = std::fs::remove_file(path);
                }
                let reply = drain(shared);
                let _ = write_line(reader.get_mut(), &reply.to_line());
                let mut inner = shared.inner.lock().unwrap();
                inner.shutdown_replied = true;
                drop(inner);
                shared.done.notify_all();
                return;
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn handle_analyze(
    shared: &Shared,
    reader: &mut BufReader<Box<dyn Conn>>,
    req: &AnalyzeRequest,
) -> io::Result<()> {
    let spec = JobSpec {
        max_propagations: req.max_propagations.unwrap_or(0),
        taint_threads: req.taint_threads.unwrap_or(0) as usize,
        priority: req.priority,
        namespace: req.namespace.clone(),
    };
    // A streamed job gets a channel-backed sink: the solver's threads
    // send events, this connection thread relays them as frames.
    let (progress, frames) = if req.stream {
        let (tx, rx) = mpsc::channel::<ProgressEvent>();
        let tx = Mutex::new(tx);
        let sink = ProgressSink::new(move |e: &ProgressEvent| {
            let _ = tx.lock().unwrap().send(e.clone());
        });
        (Some(sink), Some(rx))
    } else {
        (None, None)
    };
    match submit(shared, &req.app, req.deadline_ms, spec, progress) {
        Err(Refusal::Error(e)) => write_line(reader.get_mut(), &error_line(&e)),
        Err(Refusal::PolicyDenied(e)) => write_line(reader.get_mut(), &denied_line(&e)),
        Err(Refusal::QueueFull { depth }) => {
            write_line(reader.get_mut(), &rejected_line(depth as u64, shared.queue_cap as u64))
        }
        Ok(id) => {
            let queued =
                obj([("type", Json::from("queued")), ("job", Json::from(id))]).to_line();
            write_line(reader.get_mut(), &queued)?;
            if let Some(rx) = frames {
                relay_frames(reader.get_mut(), id, &rx)?;
            }
            let result = wait_done(shared, id);
            write_line(reader.get_mut(), &result.to_json().to_line())
        }
    }
}

/// Interval between `progress` frames on a streamed connection; events
/// arriving faster are coalesced (latest wins). `leak` frames are never
/// throttled.
const PROGRESS_FRAME_EVERY: Duration = Duration::from_millis(25);

/// Relays [`ProgressEvent`]s as wire frames until the worker drops the
/// sink (job finished, skipped, or aborted).
fn relay_frames(
    conn: &mut Box<dyn Conn>,
    id: u64,
    rx: &mpsc::Receiver<ProgressEvent>,
) -> io::Result<()> {
    let mut pending: Option<ProgressEvent> = None;
    let mut last_frame: Option<Instant> = None;
    loop {
        match rx.recv_timeout(PROGRESS_FRAME_EVERY) {
            Ok(e) => {
                if let Some((line, taint)) = &e.new_leak {
                    let frame = obj([
                        ("type", Json::from("leak")),
                        ("job", Json::from(id)),
                        ("sink_line", Json::from(u64::from(*line))),
                        ("taint", Json::from(taint.as_str())),
                    ]);
                    write_line(conn, &frame.to_line())?;
                }
                let due = last_frame.is_none_or(|t| t.elapsed() >= PROGRESS_FRAME_EVERY);
                pending = Some(e);
                if due {
                    write_progress_frame(conn, id, &mut pending)?;
                    last_frame = Some(Instant::now());
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if pending.is_some() {
                    write_progress_frame(conn, id, &mut pending)?;
                    last_frame = Some(Instant::now());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Flush the last coalesced snapshot so short jobs still
                // show their final counters before the result line.
                return write_progress_frame(conn, id, &mut pending);
            }
        }
    }
}

fn write_progress_frame(
    conn: &mut Box<dyn Conn>,
    id: u64,
    pending: &mut Option<ProgressEvent>,
) -> io::Result<()> {
    let Some(e) = pending.take() else { return Ok(()) };
    let frame = obj([
        ("type", Json::from("progress")),
        ("job", Json::from(id)),
        ("forward_propagations", Json::from(e.forward_propagations)),
        ("backward_propagations", Json::from(e.backward_propagations)),
        ("bodies_materialized", Json::from(e.bodies_materialized)),
        ("summary_hits", Json::from(e.summary_hits)),
        ("leaks", Json::from(e.leaks)),
    ]);
    write_line(conn, &frame.to_line())
}

/// Why a submission was refused.
enum Refusal {
    /// Protocol-level error (unknown app, shutting down).
    Error(String),
    /// Admission control: the queue is at capacity (backpressure).
    QueueFull { depth: usize },
    /// The external-app path policy refused the path (typed `denied`
    /// reply, distinct from `error` so clients can exit differently).
    PolicyDenied(String),
}

/// Validates the app name, registers the job and queues it on the
/// requested priority lane. The job id is its 1-based submission index.
/// Admission and registration happen under the queue lock, so the
/// waiting-job bound is exact even under concurrent submissions.
///
/// Path-shaped names (leading `/`, `./`, `../` or a `.rpk` suffix) are
/// external apps: they pass the allow-list policy, then load and parse
/// *here*, against a throwaway overlay of the shared platform snapshot
/// — a malformed app must be refused at submission, not panic a worker.
fn submit(
    shared: &Shared,
    app: &str,
    deadline_ms: Option<u64>,
    spec: JobSpec,
    progress: Option<ProgressSink>,
) -> Result<u64, Refusal> {
    let job = if is_path_request(app) {
        let real = shared.policy.resolve(app).map_err(|e| {
            shared.inner.lock().unwrap().denied += 1;
            Refusal::PolicyDenied(e.to_string())
        })?;
        let mut scratch = shared.snapshot.overlay_program();
        load_external_job(&real, &mut scratch)
            .map_err(|e| Refusal::Error(format!("cannot load app `{app}`: {e}")))?
    } else {
        find_job(app).ok_or_else(|| {
            Refusal::Error(format!(
                "unknown app `{app}` (expected a corpus name, `stress/<K>`, or an \
                 allowed app path)"
            ))
        })?
    };
    let abort = match deadline_ms {
        Some(ms) => AbortHandle::with_deadline(Duration::from_millis(ms)),
        None => AbortHandle::new(),
    };
    let priority = spec.priority;
    // Lock order: queue, then registry (matches nowhere else taking
    // both, so no inversion is possible).
    let mut q = shared.queue.inner.lock().unwrap();
    if q.closed {
        return Err(Refusal::Error("daemon is shutting down".to_string()));
    }
    let depth = PrioQueue::depth(&q);
    if shared.queue_cap > 0 && depth >= shared.queue_cap {
        let mut inner = shared.inner.lock().unwrap();
        inner.rejected += 1;
        return Err(Refusal::QueueFull { depth });
    }
    let id = {
        let mut inner = shared.inner.lock().unwrap();
        if inner.shutting_down {
            return Err(Refusal::Error("daemon is shutting down".to_string()));
        }
        inner.submitted[priority.lane()] += 1;
        inner.jobs.push(JobEntry {
            app: app.to_string(),
            state: JobState::Queued,
            abort,
            spec,
            submitted: Instant::now(),
            queue_ms: 0,
            cancel_requested: false,
            progress,
            result: None,
        });
        inner.jobs.len() as u64
    };
    q.lanes[priority.lane()].push_back((id, job));
    drop(q);
    shared.queue.ready.notify_one();
    Ok(id)
}

fn wait_done(shared: &Shared, id: u64) -> JobResult {
    let idx = (id - 1) as usize;
    let mut inner = shared.inner.lock().unwrap();
    loop {
        if let Some(r) = &inner.jobs[idx].result {
            return r.clone();
        }
        inner = shared.done.wait(inner).unwrap();
    }
}

/// Trips the job's abort handle. Queued jobs are skipped by the worker
/// that claims them; running jobs wind down at their next poll.
fn cancel(shared: &Shared, id: u64) -> Result<&'static str, String> {
    let idx = id.checked_sub(1).ok_or("unknown job 0")? as usize;
    let mut inner = shared.inner.lock().unwrap();
    let e = inner.jobs.get_mut(idx).ok_or_else(|| format!("unknown job {id}"))?;
    let state = e.state.as_str();
    if e.state != JobState::Done {
        e.abort.cancel();
        e.cancel_requested = true;
    }
    Ok(state)
}

fn stats(shared: &Shared) -> Json {
    let cache = shared.cg_cache.stats();
    let inner = shared.inner.lock().unwrap();
    let mut by_state = [0u64; 3];
    let mut aborted = 0u64;
    let mut cancel_requests = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut stale = 0u64;
    let mut recorded = 0u64;
    let mut materialized = 0u64;
    let mut skipped = 0u64;
    let mut clone_us = 0u64;
    let mut cg_hits = 0u64;
    let mut cg_misses = 0u64;
    let mut jobs = Vec::new();
    for (i, e) in inner.jobs.iter().enumerate() {
        by_state[e.state as usize] += 1;
        cancel_requests += u64::from(e.cancel_requested);
        let mut fields = vec![
            ("job", Json::from(i as u64 + 1)),
            ("app", Json::from(e.app.as_str())),
            ("state", Json::from(e.state.as_str())),
        ];
        fields.push(("priority", Json::from(e.spec.priority.as_str())));
        if e.state != JobState::Queued {
            fields.push(("queue_ms", Json::from(e.queue_ms)));
        }
        if let Some(r) = &e.result {
            aborted += u64::from(r.aborted);
            hits += r.summary_hits;
            misses += r.summary_misses;
            stale += r.summary_stale;
            recorded += r.summary_recorded;
            materialized += r.bodies_materialized;
            skipped += r.bodies_skipped;
            clone_us += r.platform_clone_us;
            cg_hits += r.callgraph_cache_hits;
            cg_misses += r.callgraph_cache_misses;
            fields.push(("wall_ms", Json::from(r.wall_ms)));
            fields.push(("setup_us", Json::from(r.setup_us)));
            fields.push(("dataflow_us", Json::from(r.dataflow_us)));
            fields.push(("leaks", Json::from(r.leaks)));
            fields.push(("aborted", Json::from(r.aborted)));
            if let Some(why) = &r.abort_reason {
                fields.push(("abort_reason", Json::from(why.as_str())));
            }
        }
        jobs.push(obj(fields));
    }
    obj([
        ("type", Json::from("stats")),
        ("uptime_ms", Json::from(shared.started.elapsed().as_millis() as u64)),
        ("workers", Json::from(shared.workers)),
        ("queue_cap", Json::from(shared.queue_cap as u64)),
        ("queue_depth", Json::from(by_state[JobState::Queued as usize])),
        ("running", Json::from(by_state[JobState::Running as usize])),
        ("completed", Json::from(by_state[JobState::Done as usize])),
        ("aborted", Json::from(aborted)),
        ("rejected", Json::from(inner.rejected)),
        ("policy_denied", Json::from(inner.denied)),
        ("submitted_high", Json::from(inner.submitted[Priority::High.lane()])),
        ("submitted_normal", Json::from(inner.submitted[Priority::Normal.lane()])),
        ("submitted_batch", Json::from(inner.submitted[Priority::Batch.lane()])),
        ("cancel_requests", Json::from(cancel_requests)),
        ("summary_hits", Json::from(hits)),
        ("summary_misses", Json::from(misses)),
        ("summary_stale", Json::from(stale)),
        ("summary_recorded", Json::from(recorded)),
        ("snapshot_load_ms", Json::from(shared.snapshot_load_ms)),
        ("snapshot_source", Json::from(shared.snapshot_source)),
        ("bodies_materialized", Json::from(materialized)),
        ("bodies_skipped", Json::from(skipped)),
        ("platform_clone_us", Json::from(clone_us)),
        ("callgraph_cache_hits", Json::from(cg_hits)),
        ("callgraph_cache_misses", Json::from(cg_misses)),
        ("callgraph_cache_evictions", Json::from(cache.evictions)),
        ("callgraph_cache_invalidations", Json::from(cache.invalidations)),
        ("callgraph_cache_entries", Json::from(cache.entries as u64)),
        ("sched_pushed", Json::from(inner.sched_pushed)),
        ("sched_claims", Json::from(inner.sched_claims)),
        ("sched_steals", Json::from(inner.sched_steals)),
        ("jobs", Json::Arr(jobs)),
    ])
}

/// Marks the daemon as shutting down and closes the queue: no further
/// submissions are accepted, and the workers drain what is already
/// queued and exit their pop loop. Idempotent.
fn close_queue(shared: &Shared) {
    {
        let mut inner = shared.inner.lock().unwrap();
        inner.shutting_down = true;
    }
    shared.queue.close();
}

/// Waits for every accepted job to finish and flushes the summary
/// cache. Idempotent: a second `shutdown` request waits for the same
/// drain and reports the same counts.
fn drain(shared: &Shared) -> Json {
    let mut inner = shared.inner.lock().unwrap();
    while inner.jobs.iter().any(|e| e.state != JobState::Done) {
        inner = shared.done.wait(inner).unwrap();
    }
    let completed = inner.jobs.len() as u64;
    drop(inner);
    if let Some(dir) = &shared.summary_cache {
        let _ = flush_summary_cache(dir);
    }
    obj([
        ("type", Json::from("ok")),
        ("op", Json::from("shutdown")),
        ("jobs_completed", Json::from(completed)),
    ])
}

fn write_line(conn: &mut Box<dyn Conn>, line: &str) -> io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()
}
