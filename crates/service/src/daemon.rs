//! The analysis daemon: a bounded worker pool behind a line-delimited
//! JSON socket protocol (see [`crate::proto`]).
//!
//! One daemon process serves many analysis jobs and amortizes warm
//! state across them. Each job's taint analysis itself starts from
//! scratch: its IFDS end summaries live in the solver for that one run.
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
//!
//! The daemon keeps one per-app cache, a bounded LRU keyed by job name
//! — the corpus name, or `external/<content-hash>/<stem>` for an
//! on-disk app — and an app goes through three stages in it:
//!
//! * **seen**: a name's first submission is parsed on the connection
//!   thread straight into the job's own overlay of the platform, so a
//!   malformed app is refused there. The worker runs the cold analysis
//!   on that program ([`run_parsed`]): no SDEX image, lazy decode or
//!   setup is made, and the cache records only that the name was seen.
//!   Most names in benchmark and triage use are submitted once, so
//!   this is the path kept shortest.
//! * **prepared**: the second submission parses the app again and
//!   keeps it as a [`PreparedJob`] (manifest, layouts, resources, SDEX
//!   image) in the cache. Its run decodes the image lazily, and stores
//!   the app's entry-point model, materialization log and callgraph on
//!   the prepared job.
//! * **replayed**: every later submission skips the parse (and, for
//!   corpus names, the corpus lookup) and replays that setup instead of
//!   re-discovering components and rebuilding the callgraph.
//!
//! The daemon's memory stays bounded however many distinct apps it
//! serves: evicting a name drops its prepared job and setup with it,
//! and its next submission is a first run again.
//!
//! Concurrency layout:
//!
//! * the **accept loop** ([`Daemon::run`]) spawns one thread per
//!   connection;
//! * `analyze` requests enqueue on a bounded three-lane **priority
//!   queue** (`high`/`normal`/`batch`) consumed by `workers` pool
//!   threads (each job runs to completion on one worker). Workers
//!   dequeue high before normal before batch, but after
//!   `AGING_STREAK` consecutive non-batch picks a waiting batch job
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
//!   when workers are mid-job — then waits for every job to finish;
//!   the worker threads are joined before [`Daemon::run`] returns.

use crate::external::{is_path_request, load_external_job, AppPolicy};
use crate::json::{obj, Json};
use crate::lru::Lru;
use crate::net::{connect, Conn, Listen, Listener};
use crate::proto::{
    denied_line, error_line, rejected_line, AnalyzeRequest, JobResult, Priority, Request,
};
use flowdroid_android::{build_snapshot, load_snapshot, PlatformSnapshot};
use flowdroid_bench::{
    find_job, parse_job, prepare, run_parsed, run_prepared, CorpusJob, ParsedJob, PreparedJob,
};
use flowdroid_core::{AbortHandle, InfoflowConfig, ProgressEvent, ProgressSink};
use std::collections::{BTreeMap, VecDeque};
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

/// Names in the daemon's per-app cache: comfortably above the full
/// corpus size, so a service benchmark sweep stays warm end to end.
const CACHE_CAPACITY: usize = 256;

/// What the per-app cache holds for a name.
#[derive(Clone)]
enum AppState {
    /// Submitted once, and run from its parse: nothing is kept.
    Seen,
    /// Submitted again: the prepared job, with the setup its first run
    /// stores for every later one to replay.
    Prepared(Arc<PreparedJob>),
}

/// A queued job's code, loaded at submission.
enum Work {
    /// A name's first submission, parsed into its own platform overlay.
    Parsed(Box<ParsedJob>),
    /// A later submission: the name's prepared job.
    Prepared(Arc<PreparedJob>),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonOptions {
    /// Where to listen.
    pub listen: Listen,
    /// Worker pool size; `0` uses the available parallelism.
    pub workers: usize,
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
    lanes: [VecDeque<(u64, Work)>; 3],
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
    fn pop(&self) -> Option<(u64, Work)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if Self::depth(&inner) == 0 {
                if inner.closed {
                    return None;
                }
                inner = self.ready.wait(inner).unwrap();
                continue;
            }
            let batch_due = !inner.lanes[2].is_empty() && inner.non_batch_streak >= AGING_STREAK;
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
    priority: Priority,
}

struct JobEntry {
    app: String,
    state: JobState,
    abort: AbortHandle,
    spec: JobSpec,
    submitted: Instant,
    queue_ms: u64,
    /// Microseconds `submit` spent loading the job: the parse on a
    /// first run, the parse and SDEX encode on a second, 0 after.
    prepare_us: u64,
    cancel_requested: bool,
    /// Streaming sink handed to the worker when the job starts; the
    /// worker takes it (even for skipped jobs) so the relay's channel
    /// disconnects once no more events can arrive.
    progress: Option<ProgressSink>,
    result: Option<JobResult>,
}

/// Running totals over every job that reached `Done`, kept apart from
/// the registry so that collected jobs still count.
#[derive(Default)]
struct Totals {
    completed: u64,
    aborted: u64,
    bodies_materialized: u64,
    bodies_skipped: u64,
    platform_clone_us: u64,
    callgraph_cache_hits: u64,
    callgraph_cache_misses: u64,
}

impl Totals {
    fn add(&mut self, r: &JobResult) {
        self.completed += 1;
        self.aborted += u64::from(r.aborted);
        self.bodies_materialized += r.bodies_materialized;
        self.bodies_skipped += r.bodies_skipped;
        self.platform_clone_us += r.platform_clone_us;
        self.callgraph_cache_hits += r.callgraph_cache_hits;
        self.callgraph_cache_misses += r.callgraph_cache_misses;
    }
}

#[derive(Default)]
struct Inner {
    /// Jobs not yet collected, by id. A job's entry goes once its
    /// connection has taken the result, so the registry holds only the
    /// jobs in flight.
    jobs: BTreeMap<u64, JobEntry>,
    totals: Totals,
    /// Jobs a `cancel` request tripped before they were done.
    cancel_requests: u64,
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
}

impl Inner {
    /// Job ids handed out so far: ids run from 1 in submission order.
    fn issued(&self) -> u64 {
        self.submitted.iter().sum()
    }
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
    /// The external-app sandbox ([`DaemonOptions::allow_apps`]).
    policy: AppPolicy,
    /// The shared, read-only platform model every job overlays.
    snapshot: Arc<PlatformSnapshot>,
    /// Every name submitted, seen once or prepared (see the module
    /// docs); later submissions of a prepared name skip the parse and
    /// replay its setup.
    apps: Lru<AppState>,
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
            policy,
            snapshot: Arc::new(snapshot),
            apps: Lru::new(CACHE_CAPACITY),
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
    while let Some((id, work)) = shared.queue.pop() {
        run_one(shared, id, work);
    }
}

fn run_one(shared: &Shared, id: u64, work: Work) {
    let (abort, spec, app, queue_ms, prepare_us, progress, skip) = {
        let mut inner = shared.inner.lock().unwrap();
        let e = inner.jobs.get_mut(&id).expect("a queued job stays registered until collected");
        e.queue_ms = e.submitted.elapsed().as_millis() as u64;
        e.state = JobState::Running;
        // A cancel — or a deadline that already passed — while the job
        // sat in the queue aborts it without running the solver at all.
        let skip = e.abort.poll().is_some();
        // Take the streaming sink even when skipping: dropping it is
        // what tells the relay no more events can arrive.
        let progress = e.progress.take();
        (e.abort.clone(), e.spec.clone(), e.app.clone(), e.queue_ms, e.prepare_us, progress, skip)
    };
    let result = if skip {
        drop(progress);
        JobResult {
            job: id,
            app,
            aborted: true,
            abort_reason: abort.reason().map(|r| r.as_str().to_string()),
            queue_ms,
            prepare_us,
            ..JobResult::default()
        }
    } else {
        let mut config = InfoflowConfig::default().with_abort(abort);
        config.max_propagations = spec.max_propagations;
        config.progress = progress;
        let run = match work {
            Work::Parsed(parsed) => run_parsed(*parsed, &config, &shared.snapshot),
            Work::Prepared(job) => run_prepared(&job, &config, &shared.snapshot),
        };
        JobResult {
            job: id,
            app,
            leaks: run.leaks as u64,
            aborted: run.aborted,
            abort_reason: run.abort_reason.map(|r| r.as_str().to_string()),
            wall_us: run.total.as_micros() as u64,
            queue_ms,
            prepare_us,
            setup_us: run.setup().as_micros() as u64,
            dataflow_us: run.dataflow.as_micros() as u64,
            bodies_materialized: run.bodies_materialized,
            bodies_skipped: run.bodies_skipped,
            forward_propagations: run.forward_propagations,
            backward_propagations: run.backward_propagations,
            platform_clone_us: run.platform_clone_us,
            callgraph_cache_hits: u64::from(run.setup_replayed),
            callgraph_cache_misses: u64::from(!run.setup_replayed),
            report: run.report,
        }
    };
    let mut guard = shared.inner.lock().unwrap();
    let inner = &mut *guard;
    inner.totals.add(&result);
    let e = inner.jobs.get_mut(&id).expect("a running job stays registered until collected");
    e.state = JobState::Done;
    e.result = Some(result);
    drop(guard);
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
    let spec =
        JobSpec { max_propagations: req.max_propagations.unwrap_or(0), priority: req.priority };
    // A streamed job gets a channel-backed sink: the worker running the
    // job sends events, this connection thread relays them as frames.
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
            let queued = obj([("type", Json::from("queued")), ("job", Json::from(id))]).to_line();
            let mut sent = write_line(reader.get_mut(), &queued);
            if let (Ok(()), Some(rx)) = (&sent, &frames) {
                sent = relay_frames(reader.get_mut(), id, rx);
            }
            // Once the relay stops, the worker's events have no reader.
            drop(frames);
            // Collected even when the client is gone, so the entry goes.
            let result = collect(shared, id);
            sent?;
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
/// The job is loaded *here*, on the connection thread, unless the
/// per-app cache holds its name prepared: parsed into its own overlay
/// on a first submission, prepared (parsed and lowered to SDEX) on the
/// second. Path-shaped names (leading `/`, `./`, `../` or a `.rpk`
/// suffix) are external apps: they pass the allow-list policy and are
/// read from disk first, since their cache key hashes the content — a
/// malformed app must be refused at submission, not panic a worker.
fn submit(
    shared: &Shared,
    app: &str,
    deadline_ms: Option<u64>,
    spec: JobSpec,
    progress: Option<ProgressSink>,
) -> Result<u64, Refusal> {
    let cannot_load = |e: String| Refusal::Error(format!("cannot load app `{app}`: {e}"));
    let (work, prepare_us) = if is_path_request(app) {
        let real = shared.policy.resolve(app).map_err(|e| {
            shared.inner.lock().unwrap().denied += 1;
            Refusal::PolicyDenied(e.to_string())
        })?;
        let job = load_external_job(&real).map_err(cannot_load)?;
        match shared.apps.lookup(&job.name) {
            Some(AppState::Prepared(prepared)) => (Work::Prepared(prepared), 0),
            seen => load_and_record(shared, &job.name, &job, seen.is_some())
                .map_err(|e| cannot_load(format!("{}: {e}", real.display())))?,
        }
    } else {
        match shared.apps.lookup(app) {
            Some(AppState::Prepared(prepared)) => (Work::Prepared(prepared), 0),
            seen => {
                let job = find_job(app).ok_or_else(|| {
                    Refusal::Error(format!(
                        "unknown app `{app}` (expected a corpus name, `stress/<K>`, or an \
                         allowed app path)"
                    ))
                })?;
                load_and_record(shared, app, &job, seen.is_some()).map_err(cannot_load)?
            }
        }
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
        let id = inner.issued();
        inner.jobs.insert(
            id,
            JobEntry {
                app: app.to_string(),
                state: JobState::Queued,
                abort,
                spec,
                submitted: Instant::now(),
                queue_ms: 0,
                prepare_us,
                cancel_requested: false,
                progress,
                result: None,
            },
        );
        id
    };
    q.lanes[priority.lane()].push_back((id, work));
    drop(q);
    shared.queue.ready.notify_one();
    Ok(id)
}

/// Loads `job` for its run and records its name under `key`: a name
/// not yet `seen` is parsed into a fresh overlay and marked seen, a
/// seen one is prepared and cached. Returns the work with the loading
/// time in microseconds. A job that fails to parse is not recorded, so
/// resubmitting it fails again.
fn load_and_record(
    shared: &Shared,
    key: &str,
    job: &CorpusJob,
    seen: bool,
) -> Result<(Work, u64), String> {
    let start = Instant::now();
    let (work, state) = if seen {
        let prepared = Arc::new(prepare(job, &shared.snapshot)?);
        (Work::Prepared(Arc::clone(&prepared)), AppState::Prepared(prepared))
    } else {
        let parsed = parse_job(job, shared.snapshot.overlay_program())?;
        (Work::Parsed(Box::new(parsed)), AppState::Seen)
    };
    let prepare_us = start.elapsed().as_micros() as u64;
    shared.apps.insert(key, state);
    Ok((work, prepare_us))
}

/// Blocks until job `id` is done, then removes its entry and returns
/// its result: the submitting connection is the result's only reader,
/// and the totals `stats` reads were added when the job finished.
fn collect(shared: &Shared, id: u64) -> JobResult {
    let mut inner = shared.inner.lock().unwrap();
    while inner.jobs.get(&id).is_some_and(|e| e.result.is_none()) {
        inner = shared.done.wait(inner).unwrap();
    }
    let entry = inner.jobs.remove(&id).expect("only the submitting connection collects a job");
    entry.result.expect("a done job holds its result")
}

/// Trips the job's abort handle. Queued jobs are skipped by the worker
/// that claims them; running jobs wind down at their next poll. A job
/// already collected answers `done`.
fn cancel(shared: &Shared, id: u64) -> Result<&'static str, String> {
    let mut guard = shared.inner.lock().unwrap();
    let inner = &mut *guard;
    let Some(e) = inner.jobs.get_mut(&id) else {
        return if (1..=inner.issued()).contains(&id) {
            Ok(JobState::Done.as_str())
        } else {
            Err(format!("unknown job {id}"))
        };
    };
    let state = e.state.as_str();
    if e.state != JobState::Done {
        e.abort.cancel();
        if !std::mem::replace(&mut e.cancel_requested, true) {
            inner.cancel_requests += 1;
        }
    }
    Ok(state)
}

fn stats(shared: &Shared) -> Json {
    let prepared = shared.apps.stats();
    let inner = shared.inner.lock().unwrap();
    let mut by_state = [0u64; 3];
    let mut jobs = Vec::new();
    for (&id, e) in &inner.jobs {
        by_state[e.state as usize] += 1;
        let mut fields = vec![
            ("job", Json::from(id)),
            ("app", Json::from(e.app.as_str())),
            ("state", Json::from(e.state.as_str())),
        ];
        fields.push(("priority", Json::from(e.spec.priority.as_str())));
        if e.state != JobState::Queued {
            fields.push(("queue_ms", Json::from(e.queue_ms)));
        }
        if let Some(r) = &e.result {
            fields.push(("wall_us", Json::from(r.wall_us)));
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
        ("completed", Json::from(inner.totals.completed)),
        ("aborted", Json::from(inner.totals.aborted)),
        ("rejected", Json::from(inner.rejected)),
        ("policy_denied", Json::from(inner.denied)),
        ("submitted_high", Json::from(inner.submitted[Priority::High.lane()])),
        ("submitted_normal", Json::from(inner.submitted[Priority::Normal.lane()])),
        ("submitted_batch", Json::from(inner.submitted[Priority::Batch.lane()])),
        ("cancel_requests", Json::from(inner.cancel_requests)),
        ("snapshot_load_ms", Json::from(shared.snapshot_load_ms)),
        ("snapshot_source", Json::from(shared.snapshot_source)),
        ("bodies_materialized", Json::from(inner.totals.bodies_materialized)),
        ("bodies_skipped", Json::from(inner.totals.bodies_skipped)),
        ("platform_clone_us", Json::from(inner.totals.platform_clone_us)),
        ("callgraph_cache_hits", Json::from(inner.totals.callgraph_cache_hits)),
        ("callgraph_cache_misses", Json::from(inner.totals.callgraph_cache_misses)),
        ("prepared_cache_hits", Json::from(prepared.hits)),
        ("prepared_cache_misses", Json::from(prepared.misses)),
        ("prepared_cache_evictions", Json::from(prepared.evictions)),
        ("prepared_cache_entries", Json::from(prepared.entries as u64)),
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

/// Waits for every accepted job to finish. Idempotent: a second
/// `shutdown` request waits for the same drain and reports the same
/// counts.
fn drain(shared: &Shared) -> Json {
    let mut inner = shared.inner.lock().unwrap();
    while inner.jobs.values().any(|e| e.state != JobState::Done) {
        inner = shared.done.wait(inner).unwrap();
    }
    let completed = inner.totals.completed;
    drop(inner);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_cache_keeps_prepared_jobs_and_evicts_the_coldest_name() {
        let snapshot = flowdroid_bench::shared_platform_snapshot();
        let prepared = |name: &str| {
            Arc::new(prepare(&find_job(name).expect("stress job"), snapshot).expect("parses"))
        };
        let replayed = |job: &PreparedJob| {
            run_prepared(job, &InfoflowConfig::default(), snapshot).setup_replayed
        };
        let cache: Lru<AppState> = Lru::new(2);
        cache.insert("stress/2", AppState::Seen);
        let a = prepared("stress/2");
        assert!(!replayed(&a), "a job's first run computes its setup");
        cache.insert("stress/2", AppState::Prepared(Arc::clone(&a)));
        cache.insert("stress/3", AppState::Seen);
        let Some(AppState::Prepared(hit)) = cache.lookup("stress/2") else {
            panic!("a prepared name stays prepared")
        };
        assert!(Arc::ptr_eq(&hit, &a), "a hit hands out the cached job, not a copy");
        assert!(replayed(&hit), "the retained job replays the setup it holds");
        cache.insert("stress/4", AppState::Seen);
        assert!(cache.lookup("stress/3").is_none(), "the coldest name is evicted");
        assert!(matches!(cache.lookup("stress/4"), Some(AppState::Seen)), "the newest stays");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (2, 1, 1, 2));
    }
}
