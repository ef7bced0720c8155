//! End-to-end daemon round trips over a real TCP socket: an app's
//! first run from its parse, its prepared second run and the
//! callgraph-setup replay of every later one, platform-snapshot boot
//! (including the corrupt-file fallback), deadline aborts,
//! cross-connection cancellation, stats, clean shutdown, prompt
//! Unix-socket unlink on shutdown while jobs are still draining,
//! external-app serving under the `--allow-apps` path policy, and a
//! first-run, prepared and replayed pass over the whole corpus.

use flowdroid_service::{
    AnalyzeOptions, AnalyzeOutcome, AnalyzeRequest, Client, Daemon, DaemonOptions, JobResult, Json,
    Listen, Priority, Request, Submitted,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Binds a daemon on an ephemeral local port, runs its accept loop on a
/// background thread, and returns the resolved address plus the join
/// handle (joined by each test to prove a leak-free shutdown).
fn spawn_daemon() -> (String, std::thread::JoinHandle<()>) {
    spawn_daemon_with(None)
}

fn spawn_daemon_with(snapshot: Option<PathBuf>) -> (String, std::thread::JoinHandle<()>) {
    spawn_daemon_capped(snapshot, 2, 0)
}

/// Like [`spawn_daemon_with`] but with explicit worker count and queue
/// cap (0 = unbounded), for the backpressure and priority tests.
fn spawn_daemon_capped(
    snapshot: Option<PathBuf>,
    workers: usize,
    queue_cap: usize,
) -> (String, std::thread::JoinHandle<()>) {
    let daemon = Daemon::bind(DaemonOptions {
        listen: Listen::parse("127.0.0.1:0"),
        workers,
        queue_cap,
        platform_snapshot: snapshot,
        allow_apps: Vec::new(),
        resolve: flowdroid_bench::find_job,
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (addr, handle)
}

/// The state of job `id` in a `stats` reply, while the daemon holds it.
fn job_state(stats: &Json, id: u64) -> Option<&str> {
    let jobs = stats.get("jobs")?.as_arr()?;
    jobs.iter().find(|j| j.u64_field("job") == Some(id))?.str_field("state")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowdroid-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cold_then_warm_job_replays_cached_callgraph() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");

    let (id1, first) = c.analyze("insecurebank", None, None).expect("first job");
    assert_eq!(id1, 1);
    assert!(!first.aborted);
    assert!(first.leaks > 0, "insecurebank has known leaks");

    let (_, cold) = c.analyze("insecurebank", None, None).expect("prepared job");
    let (_, warm) = c.analyze("insecurebank", None, None).expect("warm job");
    assert!(!cold.aborted && !warm.aborted);
    assert_eq!(cold.report, first.report, "the prepared run must not change the report");
    assert_eq!(warm.report, cold.report, "cache replay must not change the report");
    assert_eq!(first.callgraph_cache_misses, 1, "a run from the parse keeps no setup");
    assert_eq!(first.callgraph_cache_hits, 0);
    assert_eq!(cold.callgraph_cache_misses, 1, "the prepared job builds its setup cold");
    assert_eq!(cold.callgraph_cache_hits, 0);
    assert_eq!(warm.callgraph_cache_hits, 1, "the third job replays the cached callgraph");
    assert_eq!(warm.callgraph_cache_misses, 0);

    let mut c2 = Client::connect(&addr).expect("second connection");
    let stats = c2.stats().expect("stats");
    assert_eq!(stats.u64_field("completed"), Some(3));
    assert_eq!(stats.u64_field("callgraph_cache_hits"), Some(1));
    assert_eq!(stats.u64_field("callgraph_cache_misses"), Some(2));
    // One per-app entry: the prepared job, holding the setup.
    assert_eq!(stats.u64_field("prepared_cache_entries"), Some(1));
    // Both results were delivered, so the registry holds neither job.
    assert_eq!(stats.get("jobs").unwrap().as_arr().unwrap().len(), 0);

    c2.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// A result's phases add up to its wall time, and leak attribution
/// plus the solver's drop is `results_us`, not setup.
#[test]
fn result_phases_add_up_to_the_wall_time() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");
    for _ in 0..3 {
        let (_, r) = c.analyze("stress/300", None, None).expect("stress job");
        assert!(!r.aborted && r.leaks == 1);
        assert_eq!(r.setup_us + r.dataflow_us + r.results_us, r.wall_us, "{r:?}");
        assert!(r.results_us > 0, "attributing the chain's leak takes time: {r:?}");
    }
    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

#[test]
fn daemon_boots_from_snapshot_and_skips_unreachable_bodies() {
    let snap = std::env::temp_dir().join(format!("flowdroid-svc-snap-{}.fdps", std::process::id()));
    flowdroid_android::save_snapshot(&snap, &flowdroid_android::build_snapshot())
        .expect("save snapshot");
    let (addr, daemon) = spawn_daemon_with(Some(snap.clone()));
    let mut c = Client::connect(&addr).expect("connect");

    // The first run parses every body; the second, prepared one goes
    // through the lazy frontend.
    let (_, first) = c.analyze("insecurebank", None, None).expect("job");
    let (_, r) = c.analyze("insecurebank", None, None).expect("prepared job");
    assert!(!first.aborted && !r.aborted);
    assert!(r.bodies_materialized > 0, "the lazy frontend decodes reached bodies");

    // The daemon's reports must match a standalone run exactly.
    let job = flowdroid_bench::find_job("insecurebank").expect("corpus job");
    let eager = flowdroid_bench::run_single(&job, &flowdroid_core::InfoflowConfig::default());
    assert_eq!(first.report, eager.report, "the daemon's first run must match a local run");
    assert_eq!(r.report, eager.report, "lazy daemon run must match eager run");

    // An app with helper classes the callgraph never reaches: on its
    // prepared run, those bodies must stay undecoded.
    let collections5 = "securibench/Collections/Collections5";
    c.analyze(collections5, None, None).expect("job 3");
    let (_, r2) = c.analyze(collections5, None, None).expect("job 4");
    assert!(!r2.aborted);
    assert!(r2.bodies_skipped > 0, "unreachable bodies stay undecoded");

    let stats = c.stats().expect("stats");
    assert_eq!(stats.str_field("snapshot_source"), Some("file"));
    assert!(stats.u64_field("bodies_skipped").unwrap() > 0);

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn corrupt_snapshot_falls_back_to_eager_platform_build() {
    let snap =
        std::env::temp_dir().join(format!("flowdroid-svc-corrupt-{}.fdps", std::process::id()));
    let mut bytes = flowdroid_android::encode_snapshot(&flowdroid_android::build_snapshot());
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // checksum mismatch at minimum
    std::fs::write(&snap, &bytes).expect("write corrupt snapshot");

    // The daemon must come up anyway (eager fallback) and serve jobs
    // with unchanged results.
    let (addr, daemon) = spawn_daemon_with(Some(snap.clone()));
    let mut c = Client::connect(&addr).expect("connect");
    let (_, r) = c.analyze("insecurebank", None, None).expect("job");
    assert!(!r.aborted);
    assert!(r.leaks > 0);

    let stats = c.stats().expect("stats");
    assert_eq!(stats.str_field("snapshot_source"), Some("built"));

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn deadline_job_aborts_promptly_and_the_daemon_keeps_serving() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");

    // Undeadlined, `stress/16000` took 1.35 to 1.91 s as a process's
    // first large job and about 0.6 s once the process had run one, in
    // a release build on a 2-CPU x86-64 host: about 2x the deadline or
    // more.
    let start = Instant::now();
    let (_, r) = c.analyze("stress/16000", Some(300), None).expect("deadline job");
    let elapsed = start.elapsed();
    assert!(r.aborted, "stress/16000 cannot finish in 300ms");
    assert_eq!(r.abort_reason.as_deref(), Some("deadline"));
    // Deadline plus a generous bound on one batch-check interval.
    assert!(
        elapsed < Duration::from_secs(10),
        "aborted job should return promptly, took {elapsed:?}"
    );

    // A later job on the same daemon still runs to its fixpoint.
    let (_, ok) = c.analyze("insecurebank", None, None).expect("follow-up job");
    assert!(!ok.aborted);
    assert!(ok.leaks > 0);

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

#[test]
fn cancel_from_second_connection_stops_inflight_job() {
    let (addr, daemon) = spawn_daemon();
    let mut a = Client::connect(&addr).expect("connection a");
    let id = a.analyze_async("stress/6000", None, None).expect("submit");

    // From a second connection: wait until the job is running, then
    // cancel it.
    let mut b = Client::connect(&addr).expect("connection b");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = b.stats().expect("stats");
        if job_state(&stats, id).expect("job in flight") != "queued" {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
    let ack = b.cancel(id).expect("cancel");
    assert_eq!(ack.str_field("op"), Some("cancel"));

    // Connection a now receives the aborted result.
    let result = a.read_response().expect("result line");
    assert_eq!(result.bool_field("aborted"), Some(true));
    assert_eq!(result.str_field("abort_reason"), Some("cancelled"));

    b.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

#[test]
fn cancelling_a_queued_job_skips_it_entirely() {
    let (addr, daemon) = spawn_daemon();
    // Two workers: saturate them with two long jobs, queue a third,
    // cancel the third before any worker reaches it.
    let mut a = Client::connect(&addr).expect("a");
    let mut b = Client::connect(&addr).expect("b");
    let mut c = Client::connect(&addr).expect("c");
    let _j1 = a.analyze_async("stress/6000", None, None).expect("submit 1");
    let _j2 = b.analyze_async("stress/6000", None, None).expect("submit 2");
    let j3 = c.analyze_async("stress/2000", None, None).expect("submit 3");

    let mut ctl = Client::connect(&addr).expect("control");
    ctl.cancel(j3).expect("cancel queued job");
    ctl.cancel(1).expect("cancel job 1");
    ctl.cancel(2).expect("cancel job 2");

    let r3 = c.read_response().expect("job 3 result");
    assert_eq!(r3.bool_field("aborted"), Some(true));
    assert_eq!(r3.str_field("abort_reason"), Some("cancelled"));
    assert_eq!(r3.u64_field("wall_us"), Some(0), "a skipped job never runs");

    ctl.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// Shutdown must unlink the Unix socket path as soon as the queue is
/// closed — not only after the in-flight jobs drain. A daemon mid-way
/// through a long job used to leave the path on disk until the accept
/// loop returned, so supervisors polling for the socket's
/// disappearance concluded the shutdown had hung.
#[cfg(unix)]
#[test]
fn shutdown_unlinks_unix_socket_while_a_job_is_still_draining() {
    const JOB_DEADLINE_MS: u64 = 180;
    // Shorter than the deadline, so the socket is gone while the job
    // still runs.
    const UNLINK_WINDOW: Duration = Duration::from_millis(120);
    let sock =
        std::env::temp_dir().join(format!("flowdroid-svc-unlink-{}.sock", std::process::id()));
    let daemon = Daemon::bind(DaemonOptions {
        listen: Listen::Unix(sock.clone()),
        workers: 2,
        queue_cap: 0,
        platform_snapshot: None,
        allow_apps: Vec::new(),
        resolve: flowdroid_bench::find_job,
    })
    .expect("bind unix daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // A job long enough that its deadline, not its fixpoint, ends it:
    // undeadlined, `stress/16000` took 1.35 to 1.91 s as a process's
    // first large job and about 0.6 s once the process had run one, in
    // a release build on a 2-CPU x86-64 host: over 3x the deadline and
    // over 4x the unlink window below. The socket must vanish well
    // before the job ends.
    let mut a = Client::connect(&addr).expect("connection a");
    let id = a.analyze_async("stress/16000", Some(JOB_DEADLINE_MS), None).expect("submit");

    let mut b = Client::connect(&addr).expect("connection b");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = b.stats().expect("stats");
        if job_state(&stats, id) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    // `shutdown` blocks its connection until the drain completes, so
    // issue it from a helper thread and watch the path from here.
    let shutdown = std::thread::spawn(move || b.shutdown().expect("shutdown"));
    let unlink_deadline = Instant::now() + UNLINK_WINDOW;
    while sock.exists() {
        assert!(
            Instant::now() < unlink_deadline,
            "socket path must be unlinked while the job is still draining, \
             not after the accept loop returns"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The in-flight job still drains to its (deadline-aborted) result.
    let result = a.read_response().expect("result line");
    assert_eq!(result.str_field("abort_reason"), Some("deadline"));
    let ack = shutdown.join().expect("shutdown thread");
    assert_eq!(ack.str_field("op"), Some("shutdown"));
    accept_loop.join().expect("accept loop exits cleanly");
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");

    let err = c
        .roundtrip(&Request::Analyze(AnalyzeRequest::new("no/such/app")))
        .expect_err("unknown app is an error");
    assert!(err.to_string().contains("unknown app"), "got: {err}");

    // Same connection still serves well-formed requests.
    let stats = c.stats().expect("stats after error");
    assert_eq!(stats.str_field("type"), Some("stats"));

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

#[test]
fn budget_abort_reports_reason_over_the_wire() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");
    let (_, r) = c.analyze("stress/2000", None, Some(1000)).expect("budget job");
    assert!(r.aborted);
    assert_eq!(r.abort_reason.as_deref(), Some("budget"));
    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// A streamed job must deliver `progress` frames before its result, and
/// the terminal result line must be byte-identical to what the same job
/// reports without streaming — streaming is observational only.
#[test]
fn streamed_job_emits_frames_and_identical_final_report() {
    let (addr, daemon) = spawn_daemon();

    let mut plain = Client::connect(&addr).expect("connect plain");
    let (_, baseline) = plain.analyze("insecurebank", None, None).expect("plain job");
    assert!(baseline.leaks > 0, "insecurebank has known leaks");

    let mut streamed = Client::connect(&addr).expect("connect streamed");
    let opts = AnalyzeOptions { stream: true, ..Default::default() };
    let mut progress_frames = 0u64;
    let mut leak_frames = 0u64;
    let outcome = streamed
        .analyze_with("insecurebank", &opts, &mut |frame| match frame.str_field("type") {
            Some("progress") => {
                progress_frames += 1;
                assert!(frame.u64_field("job").is_some());
            }
            Some("leak") => {
                leak_frames += 1;
                assert!(frame.u64_field("sink_line").is_some());
                assert!(frame.str_field("taint").is_some());
            }
            other => panic!("unexpected frame type {other:?}"),
        })
        .expect("streamed job");
    let AnalyzeOutcome::Done { result, .. } = outcome else {
        panic!("unbounded queue must not reject");
    };
    assert!(progress_frames > 0, "streamed job must emit at least one progress frame");
    assert!(leak_frames > 0, "a leaky app must emit leak frames");
    assert_eq!(result.report, baseline.report, "streaming must not change the report");
    assert_eq!(result.leaks, baseline.leaks);

    plain.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// Older clients may still send the worker count of the deleted in-job
/// parallel engine. The daemon ignores it like any unknown field: a
/// huge value neither spawns threads nor changes the report, and the
/// same daemon goes on serving jobs.
#[test]
fn legacy_thread_count_field_is_ignored() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, daemon) = spawn_daemon();

    let mut conn = std::net::TcpStream::connect(&addr).expect("connect raw");
    conn.write_all(b"{\"type\":\"analyze\",\"app\":\"insecurebank\",\"taint_threads\":1000000}\n")
        .expect("send raw line");
    let mut lines = BufReader::new(conn).lines();
    let mut next = || {
        let line = lines.next().expect("a response line").expect("read response line");
        flowdroid_service::json::parse(&line).expect("well-formed response")
    };
    assert_eq!(next().str_field("type"), Some("queued"));
    let result = JobResult::from_json(&next()).expect("result line");
    assert!(!result.aborted);

    let job = flowdroid_bench::find_job("insecurebank").expect("corpus job");
    let local = flowdroid_bench::run_single(&job, &flowdroid_core::InfoflowConfig::default());
    assert_eq!(result.report, local.report, "the ignored field must not change the report");

    let mut c = Client::connect(&addr).expect("connect");
    let (_, second) = c.analyze("securibench/Aliasing/Aliasing0", None, None).expect("second job");
    assert!(!second.aborted, "the daemon keeps serving after the legacy request");
    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// With a finite queue cap and a single busy worker, excess submissions
/// must be refused with a typed `rejected` reply (no job id allocated),
/// and the stats line must account for every refusal.
#[test]
fn full_queue_rejects_submissions_with_backpressure() {
    let (addr, daemon) = spawn_daemon_capped(None, 1, 2);

    // Blast more work than worker + queue can hold. Each job carries a
    // deadline so the drain below stays fast.
    let opts = AnalyzeOptions { deadline_ms: Some(2000), ..Default::default() };
    let mut queued = Vec::new();
    let mut rejections = 0u64;
    for _ in 0..6 {
        let mut c = Client::connect(&addr).expect("connect");
        match c.submit("stress/4000", &opts).expect("submit") {
            Submitted::Queued(id) => queued.push((id, c)),
            Submitted::Rejected { queue_cap, .. } => {
                assert_eq!(queue_cap, 2, "rejected line reports the daemon's cap");
                rejections += 1;
            }
            Submitted::Denied { .. } => panic!("corpus names never hit the path policy"),
        }
    }
    assert!(rejections > 0, "6 submissions into worker=1/cap=2 must overflow");
    assert!(!queued.is_empty(), "the first submissions fit");
    // Worker slot + 2 queue slots: at most 3 can ever be in flight
    // before the first one finishes.
    assert!(queued.len() <= 4, "cap 2 + 1 running admits at most ~3, got {}", queued.len());

    for (_, mut c) in queued {
        let line = c.read_response().expect("result line");
        assert_eq!(line.str_field("type"), Some("result"));
    }

    let mut s = Client::connect(&addr).expect("stats conn");
    let stats = s.stats().expect("stats");
    assert_eq!(stats.u64_field("rejected"), Some(rejections));
    assert_eq!(stats.u64_field("queue_cap"), Some(2));

    s.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// Cancel storm: enqueue far more jobs than workers, cancel most of
/// them from a separate connection, and require a clean drain — every
/// submitter still gets a result line and the registry's per-state
/// counters reconcile.
#[test]
fn cancel_storm_drains_cleanly_with_reconciled_counters() {
    let (addr, daemon) = spawn_daemon();
    let lanes = [Priority::High, Priority::Normal, Priority::Batch];

    let mut pending = Vec::new();
    for i in 0..10 {
        let mut c = Client::connect(&addr).expect("connect");
        let opts = AnalyzeOptions {
            deadline_ms: Some(10_000),
            priority: lanes[i % lanes.len()],
            ..Default::default()
        };
        match c.submit("stress/3000", &opts).expect("submit") {
            Submitted::Queued(id) => pending.push((id, c)),
            Submitted::Rejected { .. } => panic!("unbounded queue must not reject"),
            Submitted::Denied { .. } => panic!("corpus names never hit the path policy"),
        }
    }

    // Cancel 8 of 10 across a separate connection while they queue/run.
    // A cancel that reaches a finished job is answered `done` and not
    // counted, so the acks say how many cancels the daemon counts.
    let mut canceller = Client::connect(&addr).expect("cancel conn");
    let mut counted_cancels = 0;
    for (id, _) in &pending[..8] {
        let ack = canceller.cancel(*id).expect("cancel");
        assert_eq!(ack.str_field("op"), Some("cancel"));
        if ack.str_field("state") != Some("done") {
            counted_cancels += 1;
        }
    }

    // Every submitter — cancelled or not — still receives a result.
    let mut cancelled_aborts = 0;
    for (id, mut c) in pending {
        let line = c.read_response().expect("result line");
        assert_eq!(line.str_field("type"), Some("result"));
        assert_eq!(line.u64_field("job"), Some(id));
        if line.str_field("abort_reason") == Some("cancelled") {
            cancelled_aborts += 1;
        }
    }
    assert!(cancelled_aborts > 0, "storm must abort at least the queued victims");

    let stats = canceller.stats().expect("stats");
    assert_eq!(stats.u64_field("completed"), Some(10), "all jobs drain to done");
    assert_eq!(stats.u64_field("queue_depth"), Some(0));
    assert_eq!(stats.u64_field("running"), Some(0));
    assert_eq!(stats.u64_field("cancel_requests"), Some(counted_cancels));
    assert_eq!(
        stats.u64_field("submitted_high").unwrap()
            + stats.u64_field("submitted_normal").unwrap()
            + stats.u64_field("submitted_batch").unwrap(),
        10,
        "per-lane submission counters reconcile"
    );

    canceller.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// A long-running daemon keeps no record of delivered jobs: the `stats`
/// reply after 200 more sequential jobs is no longer than after 5 (each
/// number counted as one digit, since counters grow), and a delivered
/// job's id still answers `cancel` with `done`.
#[test]
fn registry_forgets_delivered_jobs() {
    let (addr, daemon) = spawn_daemon_capped(None, 1, 0);
    let mut c = Client::connect(&addr).expect("connect");
    let run = |c: &mut Client, n: usize| {
        for _ in 0..n {
            let (_, r) = c.analyze("stress/5", None, None).expect("job");
            assert_eq!(r.leaks, 1);
        }
    };
    let size = |stats: &Json| {
        let mut line = String::new();
        for ch in stats.to_line().chars() {
            if !(ch.is_ascii_digit() && line.ends_with(|p: char| p.is_ascii_digit())) {
                line.push(ch);
            }
        }
        line.len()
    };
    run(&mut c, 5);
    let after_5 = c.stats().expect("stats");
    run(&mut c, 200);
    let after_205 = c.stats().expect("stats");
    assert_eq!(after_205.u64_field("completed"), Some(205));
    assert_eq!(after_205.get("jobs").unwrap().as_arr().unwrap().len(), 0);
    assert!(
        size(&after_205) <= size(&after_5),
        "stats grew with delivered jobs: {} after 205 vs {} after 5",
        after_205.to_line(),
        after_5.to_line()
    );
    let ack = c.cancel(1).expect("cancel a delivered job");
    assert_eq!(ack.str_field("state"), Some("done"));
    let err = c.cancel(206).expect_err("an id never issued is unknown");
    assert!(err.to_string().contains("unknown job 206"), "{err}");

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// With one worker pinned by a long job, a later `high` submission must
/// start before an earlier `batch` one: the dequeue order follows the
/// priority lanes, not arrival order. The order is read from the
/// daemon's own record of each job's queue wait, not from client-side
/// wake-up times.
#[test]
fn high_priority_overtakes_batch_in_the_queue() {
    let (addr, daemon) = spawn_daemon_capped(None, 1, 0);

    // Pin the only worker.
    let mut pin = Client::connect(&addr).expect("pin conn");
    let pin_id = pin.analyze_async("stress/5000", Some(2500), None).expect("pin");

    // Wait until it is actually running so the next two stay queued.
    let mut s = Client::connect(&addr).expect("stats conn");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = s.stats().expect("stats");
        if job_state(&stats, pin_id) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "pin job never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Batch first, high second — arrival order favors batch. Neither
    // has a deadline, so both run however long the pin job takes.
    let submit = |priority: Priority| {
        let mut c = Client::connect(&addr).expect("job conn");
        let opts = AnalyzeOptions { priority, ..Default::default() };
        assert!(matches!(c.submit("stress/300", &opts).expect("submit"), Submitted::Queued(_)));
        c
    };
    let mut batch = submit(Priority::Batch);
    let mut high = submit(Priority::High);
    let result = |c: &mut Client| {
        JobResult::from_json(&c.read_response().expect("result line")).expect("well-formed result")
    };
    let (batch, high) = (result(&mut batch), result(&mut high));
    assert!(!batch.aborted && !high.aborted, "neither queued job may be aborted");
    // Submitted later yet waited less: high left the queue first.
    assert!(
        high.queue_ms < batch.queue_ms,
        "high must start before the earlier batch job (queued {} ms vs batch {} ms)",
        high.queue_ms,
        batch.queue_ms
    );

    pin.read_response().expect("pin result");
    s.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// Like [`spawn_daemon_capped`] but with an external-app allow-list.
fn spawn_daemon_allow(allow_apps: Vec<PathBuf>) -> (String, std::thread::JoinHandle<()>) {
    let daemon = Daemon::bind(DaemonOptions {
        listen: Listen::parse("127.0.0.1:0"),
        workers: 2,
        queue_cap: 0,
        platform_snapshot: None,
        allow_apps,
        resolve: flowdroid_bench::find_job,
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (addr, handle)
}

/// The external-app round trip: an on-disk app directory and a packed
/// `.rpk` under the allow-root both analyze through the daemon with
/// reports byte-identical to a local run through the same loader, while
/// the same archive outside the root — directly, via `..`, or via a
/// symlink planted inside the root — gets the typed `denied` reply.
#[test]
fn daemon_serves_external_apps_under_path_policy() {
    let root = temp_dir("allow-root");
    let outside = temp_dir("outside-root");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::create_dir_all(&outside).unwrap();

    // An app directory inside the root (a DroidBench app exported to
    // disk) …
    let apps = flowdroid_droidbench::all_apps();
    let button1 = apps.iter().find(|a| a.name == "Button1").unwrap();
    let app_dir = root.join("button1");
    button1.write_to_dir(&app_dir).unwrap();

    // … a packed ground-truth `.rpk` inside it, and the same bytes
    // outside it.
    let truth = flowdroid_truth::generate_corpus(7, 1);
    let field = truth.iter().find(|a| a.category == "field").unwrap();
    std::fs::write(root.join("field.rpk"), field.rpk_bytes()).unwrap();
    std::fs::write(outside.join("field.rpk"), field.rpk_bytes()).unwrap();

    let (addr, daemon) = spawn_daemon_allow(vec![root.clone()]);
    let mut c = Client::connect(&addr).expect("connect");

    // Outside the root: denied, not errored.
    let outside_rpk = outside.join("field.rpk");
    let denied = c
        .submit(outside_rpk.to_str().unwrap(), &AnalyzeOptions::default())
        .expect("submit outside path");
    assert!(matches!(denied, Submitted::Denied { .. }), "got {denied:?}");

    // A `..` escape through the root: canonicalization defeats it.
    let escape = format!(
        "{}/../{}/field.rpk",
        root.display(),
        outside.file_name().unwrap().to_str().unwrap()
    );
    assert!(matches!(
        c.submit(&escape, &AnalyzeOptions::default()).expect("submit escape"),
        Submitted::Denied { .. }
    ));

    // A symlink planted inside the root pointing outside it.
    #[cfg(unix)]
    {
        let link = root.join("sneaky.rpk");
        std::os::unix::fs::symlink(&outside_rpk, &link).unwrap();
        assert!(matches!(
            c.submit(link.to_str().unwrap(), &AnalyzeOptions::default()).expect("submit symlink"),
            Submitted::Denied { .. }
        ));
    }

    // Allowed paths analyze; reports match a local run through the same
    // loader (content-hashed job names make them comparable).
    for path in [app_dir.clone(), root.join("field.rpk")] {
        let (_, result) = c.analyze(path.to_str().unwrap(), None, None).expect("external job");
        assert!(!result.aborted);
        assert_eq!(result.report, local_report(&path), "daemon leg must match local run");
    }
    // The generated app's manifest pins what the daemon must report.
    let (_, r) = c.analyze(root.join("field.rpk").to_str().unwrap(), None, None).expect("rpk job");
    assert_eq!(r.leaks as usize, field.expected_reported);

    // A well-placed but malformed archive is an error, not a denial.
    std::fs::write(root.join("junk.rpk"), b"not an archive").unwrap();
    let err =
        c.analyze(root.join("junk.rpk").to_str().unwrap(), None, None).expect_err("junk archive");
    assert!(err.to_string().contains("cannot load app"), "got: {err}");

    let denied_expected = if cfg!(unix) { 3 } else { 2 };
    let stats = c.stats().expect("stats");
    assert_eq!(stats.u64_field("policy_denied"), Some(denied_expected));

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&outside);
}

/// A daemon bound with [`DaemonOptions::new`] resolves no name: corpus
/// names and `stress/<K>` chains are unknown apps, and the refusal does
/// not offer them, while an allowed `.rpk` still analyzes.
#[test]
fn default_daemon_resolves_no_name_but_serves_allowed_paths() {
    let root = temp_dir("no-resolver-root");
    std::fs::create_dir_all(&root).unwrap();
    let truth = flowdroid_truth::generate_corpus(7, 1);
    let field = truth.iter().find(|a| a.category == "field").unwrap();
    let rpk = root.join("field.rpk");
    std::fs::write(&rpk, field.rpk_bytes()).unwrap();

    let daemon = Daemon::bind(DaemonOptions {
        workers: 1,
        allow_apps: vec![root.clone()],
        ..DaemonOptions::new(Listen::parse("127.0.0.1:0"))
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut c = Client::connect(&addr).expect("connect");

    for name in ["insecurebank", "stress/5"] {
        let err = c.analyze(name, None, None).expect_err("a default daemon resolves no name");
        let msg = err.to_string();
        assert!(msg.contains(&format!("unknown app `{name}`")), "got: {msg}");
        assert!(!msg.contains("corpus") && !msg.contains("stress/<K>"), "got: {msg}");
    }
    let (_, result) = c.analyze(rpk.to_str().unwrap(), None, None).expect("allowed rpk");
    assert_eq!(result.leaks as usize, field.expected_reported);
    assert_eq!(result.report, local_report(&rpk));

    c.shutdown().expect("shutdown");
    accept_loop.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// The report of a local, daemon-free run of the app at `path`, read
/// through the daemon's loader.
fn local_report(path: &std::path::Path) -> String {
    let job = flowdroid_service::load_external_job(path).expect("local load");
    flowdroid_bench::run_single(&job, &flowdroid_core::InfoflowConfig::default()).report
}

/// The daemon's `prepared_cache_{hits,misses,entries}` counters.
fn prepared_counters(c: &mut Client) -> (u64, u64, u64) {
    let stats = c.stats().expect("stats");
    let field = |name: &str| stats.u64_field(name).unwrap_or_else(|| panic!("no `{name}`"));
    (field("prepared_cache_hits"), field("prepared_cache_misses"), field("prepared_cache_entries"))
}

/// The daemon remembers every name it ran: a resubmitted `.rpk` (and
/// corpus name) hits the per-app cache, is prepared on its second
/// submission and served from the prepared job on its third with an
/// identical report and `prepare_us` 0; the same path rewritten with
/// other bytes misses and reports what a local run of the new bytes
/// reports; an archive that cannot be read, whose code does not parse,
/// or whose classes form a superclass cycle, is refused with `cannot
/// load app` on its first submission, never cached, and refused again
/// when resubmitted.
#[test]
fn daemon_prepares_each_app_once_and_never_serves_a_stale_parse() {
    let root = temp_dir("prepared-root");
    std::fs::create_dir_all(&root).unwrap();
    let truth = flowdroid_truth::generate_corpus(11, 1);
    let by_category = |cat: &str| truth.iter().find(|a| a.category == cat).unwrap();
    let app = root.join("app.rpk");
    std::fs::write(&app, by_category("field").rpk_bytes()).unwrap();

    let (addr, daemon) = spawn_daemon_allow(vec![root.clone()]);
    let mut c = Client::connect(&addr).expect("connect");
    let analyze = |c: &mut Client, path: &std::path::Path| {
        c.analyze(path.to_str().unwrap(), None, None).expect("external job").1
    };

    assert_eq!(prepared_counters(&mut c), (0, 0, 0));
    let first = analyze(&mut c, &app);
    assert_eq!(prepared_counters(&mut c), (0, 1, 1), "first submission parses");
    let second = analyze(&mut c, &app);
    assert_eq!(prepared_counters(&mut c), (1, 1, 1), "resubmission hits");
    assert!(second.prepare_us > 0, "the second submission prepares the app");
    let third = analyze(&mut c, &app);
    assert_eq!(prepared_counters(&mut c), (2, 1, 1), "every resubmission hits");
    assert_eq!(third.prepare_us, 0, "a hit on a prepared app does no preparation");
    assert_eq!(first.report, second.report);
    assert_eq!(first.report, third.report);
    assert_eq!(first.report, local_report(&app));

    // Rewritten in place with another app: a new content hash, so a miss.
    std::fs::write(&app, by_category("alias").rpk_bytes()).unwrap();
    let rewritten = analyze(&mut c, &app);
    assert_eq!(prepared_counters(&mut c), (2, 2, 2), "new bytes must be parsed");
    assert_ne!(rewritten.report, first.report);
    assert_eq!(rewritten.report, local_report(&app), "no stale parse is served");

    // Corpus names are cached by name.
    let first = c.analyze("insecurebank", None, None).expect("corpus job").1;
    let cold = c.analyze("insecurebank", None, None).expect("corpus job").1;
    let warm = c.analyze("insecurebank", None, None).expect("corpus job").1;
    assert_eq!(prepared_counters(&mut c), (4, 3, 3));
    assert_eq!(cold.report, first.report);
    assert_eq!((warm.prepare_us, warm.report), (0, cold.report));

    // Unreadable archives and unparsable code are refused on their first
    // submission and every time after, and leave no entry behind.
    let junk = root.join("junk.rpk");
    std::fs::write(&junk, b"not an archive").unwrap();
    let bad_code = root.join("bad-code.rpk");
    let manifest = &by_category("field").manifest;
    let bundle = |code: &str| flowdroid_frontend::App::bundle(manifest, &[], code).to_bytes();
    std::fs::write(&bad_code, bundle("class {")).unwrap();
    // A superclass cycle would make the analysis walk the chain forever.
    let cyclic = root.join("cyclic.rpk");
    let cycle = "class cyc.A extends cyc.B {}\nclass cyc.B extends cyc.A {}\n";
    std::fs::write(&cyclic, bundle(&format!("{}{cycle}", by_category("field").code))).unwrap();
    for path in [&junk, &bad_code, &cyclic, &junk, &bad_code, &cyclic] {
        let opts = AnalyzeOptions::default();
        let err = c.submit(path.to_str().unwrap(), &opts).expect_err("malformed app");
        assert!(err.to_string().contains("cannot load app"), "got: {err}");
    }
    let (hits, _, entries) = prepared_counters(&mut c);
    assert_eq!((hits, entries), (4, 3), "malformed apps are never cached");
    // The daemon keeps serving after refusing them.
    assert_eq!(analyze(&mut c, &app).report, rewritten.report);

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// The launcher manifest of the SDEX-carrying apps below.
const SDEX_MANIFEST: &str = r#"<manifest package="sdexapp">
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#;

/// The launcher activity, leaking the device id to the log.
const SDEX_LEAKY: &str = r#"
class sdexapp.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return
  }
}
"#;

/// The launcher activity, logging a constant.
const SDEX_CLEAN: &str = r#"
class sdexapp.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", "nothing")
    return
  }
}
"#;

/// The SDEX image of `code`, parsed over the platform stubs.
fn sdex_of(code: &str) -> Vec<u8> {
    let mut p = flowdroid_ir::Program::new();
    flowdroid_android::install_platform(&mut p);
    let resources = flowdroid_frontend::ResourceTable::new();
    let classes = flowdroid_frontend::parse_jasm(&mut p, &resources, code).expect("code parses");
    flowdroid_frontend::sdex::encode(&p, &classes)
}

/// A packed app of [`SDEX_MANIFEST`] whose code is `jasm` text and/or
/// an SDEX image.
fn sdex_rpk(jasm: Option<&str>, sdex: Option<Vec<u8>>) -> Vec<u8> {
    let mut archive = flowdroid_frontend::Archive::new();
    archive.add("AndroidManifest.xml", SDEX_MANIFEST.as_bytes());
    if let Some(code) = jasm {
        archive.add("classes.jasm", code.as_bytes());
    }
    if let Some(image) = sdex {
        archive.add("classes.sdex", image);
    }
    archive.to_bytes()
}

/// The job name in a leak report's header (`== <name>: N leak(s)`).
fn report_name(report: &str) -> &str {
    report.strip_prefix("== ").and_then(|r| r.split(": ").next()).expect("report header")
}

/// The daemon reads an archive's `classes.sdex` as the CLI does: an
/// app whose code is only an SDEX image is served, and in an app with
/// a harmless class in `classes.jasm` and the leaky launcher in
/// `classes.sdex`, the SDEX class's leak is reported.
#[test]
fn daemon_serves_sdex_code_alone_and_beside_jasm() {
    let root = temp_dir("sdex-root");
    std::fs::create_dir_all(&root).unwrap();
    let sdex_only = root.join("sdex-only.rpk");
    std::fs::write(&sdex_only, sdex_rpk(None, Some(sdex_of(SDEX_LEAKY)))).unwrap();
    let helper = "class sdexapp.Helper extends java.lang.Object {\n  static method id() -> void {\n    return\n  }\n}\n";
    let mixed = root.join("mixed.rpk");
    std::fs::write(&mixed, sdex_rpk(Some(helper), Some(sdex_of(SDEX_LEAKY)))).unwrap();

    let (addr, daemon) = spawn_daemon_allow(vec![root.clone()]);
    let mut c = Client::connect(&addr).expect("connect");
    for path in [&mixed, &sdex_only] {
        let (_, r) = c.analyze(path.to_str().unwrap(), None, None).expect("sdex app");
        assert_eq!(r.leaks, 1, "{}: {}", path.display(), r.report);
        assert_eq!(r.report, local_report(path));
    }

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// The job name hashes `classes.sdex` too: rewriting only the SDEX
/// image at the same path gives a new name, and the daemon reports the
/// new code, not the cached job of the old.
#[test]
fn rewriting_only_classes_sdex_gives_a_new_name_and_report() {
    let root = temp_dir("sdex-rewrite");
    std::fs::create_dir_all(&root).unwrap();
    let app = root.join("app.rpk");
    std::fs::write(&app, sdex_rpk(None, Some(sdex_of(SDEX_LEAKY)))).unwrap();

    let (addr, daemon) = spawn_daemon_allow(vec![root.clone()]);
    let mut c = Client::connect(&addr).expect("connect");
    let mut analyze = || c.analyze(app.to_str().unwrap(), None, None).expect("sdex app").1;
    let (leaky, again) = (analyze(), analyze());
    assert_eq!((leaky.leaks, again.leaks), (1, 1), "{}", leaky.report);
    assert_eq!(report_name(&again.report), report_name(&leaky.report));

    std::fs::write(&app, sdex_rpk(None, Some(sdex_of(SDEX_CLEAN)))).unwrap();
    let clean = analyze();
    assert_ne!(report_name(&clean.report), report_name(&leaky.report), "stale name");
    assert_eq!(clean.leaks, 0, "{}", clean.report);
    assert!(clean.prepare_us > 0 && clean.bodies_materialized == 0, "a new name parses");
    assert_eq!(prepared_counters(&mut c), (1, 2, 2));

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// An SDEX-carrying app through the daemon's three stages — from the
/// parse, prepared cold, replayed — reports the same bytes each time.
#[test]
fn an_sdex_app_reports_alike_from_the_parse_prepared_and_replayed() {
    let root = temp_dir("sdex-stages");
    std::fs::create_dir_all(&root).unwrap();
    let app = root.join("app.rpk");
    std::fs::write(&app, sdex_rpk(None, Some(sdex_of(SDEX_LEAKY)))).unwrap();

    let (addr, daemon) = spawn_daemon_allow(vec![root.clone()]);
    let mut c = Client::connect(&addr).expect("connect");
    let mut submit = || c.analyze(app.to_str().unwrap(), None, None).expect("sdex app").1;
    let (first, cold, replayed) = (submit(), submit(), submit());
    assert_eq!(first.leaks, 1, "{}", first.report);
    assert_eq!(first.bodies_materialized, 0, "the first run is from the parse");
    assert!(cold.bodies_materialized > 0, "the second run is prepared");
    assert_eq!((cold.callgraph_cache_hits, cold.callgraph_cache_misses), (0, 1));
    assert_eq!((replayed.callgraph_cache_hits, replayed.callgraph_cache_misses), (1, 0));
    assert_eq!(cold.report, first.report, "the prepared run changed the report");
    assert_eq!(replayed.report, first.report, "the replayed run changed the report");

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// One name through the daemon's three stages. The first submission
/// runs from its parse: it loads at submission, decodes no body lazily
/// and keeps no setup. The second prepares the app: its run decodes
/// only the reachable bodies and builds the setup. The third replays
/// that setup and loads nothing. All three report the same bytes.
#[test]
fn one_name_runs_from_the_parse_then_prepared_then_replayed() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");
    let name = "securibench/Collections/Collections5";
    let mut submit = || c.analyze(name, None, None).expect("job").1;
    let (first, second, third) = (submit(), submit(), submit());
    for r in [&first, &second, &third] {
        assert!(!r.aborted, "job {} aborted", r.job);
    }

    assert!(first.prepare_us > 0, "the first run parses at submission");
    assert_eq!(first.bodies_materialized, 0, "a run from the parse decodes nothing lazily");
    assert_eq!((first.callgraph_cache_hits, first.callgraph_cache_misses), (0, 1));

    assert!(second.prepare_us > 0, "the second submission prepares the app");
    assert!(second.bodies_materialized > 0, "the prepared run decodes reached bodies");
    assert!(second.bodies_skipped > 0, "unreachable bodies stay undecoded");
    assert_eq!((second.callgraph_cache_hits, second.callgraph_cache_misses), (0, 1));

    assert_eq!(third.prepare_us, 0, "a prepared app is not loaded again");
    assert_eq!((third.callgraph_cache_hits, third.callgraph_cache_misses), (1, 0));

    assert_eq!(second.report, first.report, "the prepared run changed the report");
    assert_eq!(third.report, first.report, "the replayed run changed the report");
    assert_eq!(prepared_counters(&mut c), (2, 1, 1), "one name: one miss, then two hits");

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// The per-app cache holds 256 names. A name seen once, then pushed out
/// by 256 other names, runs from its parse again on its next submission
/// instead of being prepared.
#[test]
fn evicted_name_runs_from_the_parse_again() {
    let (addr, daemon) = spawn_daemon_capped(None, 1, 0);
    let mut c = Client::connect(&addr).expect("connect");
    let mut run = |name: &str| {
        let (_, r) = c.analyze(name, None, None).expect("job");
        assert!(!r.aborted && r.leaks == 1, "{name}: {r:?}");
        r
    };
    let first = run("stress/5");
    assert!(first.wall_us > 0, "a completed job reports the time it ran");
    assert_eq!(first.bodies_materialized, 0, "the first submission runs from its parse");
    for k in 6..262 {
        run(&format!("stress/{k}"));
    }
    let again = run("stress/5");
    assert!(again.prepare_us > 0, "the evicted name is loaded again");
    assert_eq!(again.bodies_materialized, 0, "the evicted name runs from its parse again");
    assert_eq!((again.callgraph_cache_hits, again.callgraph_cache_misses), (0, 1));
    assert_eq!(again.report, first.report);

    let stats = c.stats().expect("stats");
    assert_eq!(stats.u64_field("prepared_cache_evictions"), Some(2), "stress/5, then stress/6");
    assert_eq!(stats.u64_field("prepared_cache_misses"), Some(258), "every submission missed");
    assert_eq!(stats.u64_field("prepared_cache_entries"), Some(256));
    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// Every corpus app, submitted three times to one daemon: the first run
/// misses the per-app cache and runs from its parse, the second (cold)
/// run hits it, prepares the app and builds its callgraph setup, the
/// streamed (warm) third run hits both, decodes no body the cold run
/// did not, and all three report the same bytes. Streaming is
/// observational only.
#[test]
fn corpus_cold_then_streamed_warm_runs_hit_every_cache_with_identical_reports() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");
    let streamed = AnalyzeOptions { stream: true, ..Default::default() };
    let (mut progress_frames, mut leak_frames) = (0u64, 0u64);
    for (i, job) in flowdroid_bench::full_corpus().iter().enumerate() {
        let (name, done) = (job.name.as_str(), i as u64);
        let (_, first) = c.analyze(name, None, None).expect("first job");
        let (hits, misses, _) = prepared_counters(&mut c);
        assert_eq!((hits, misses), (2 * done, done + 1), "{name}: the first run must miss");
        let (_, cold) = c.analyze(name, None, None).expect("cold job");
        let (hits, misses, _) = prepared_counters(&mut c);
        assert_eq!((hits, misses), (2 * done + 1, done + 1), "{name}: the cold run must hit");
        let outcome = c
            .analyze_with(name, &streamed, &mut |frame| match frame.str_field("type") {
                Some("progress") => progress_frames += 1,
                Some("leak") => leak_frames += 1,
                other => panic!("unexpected frame type {other:?}"),
            })
            .expect("warm job");
        let AnalyzeOutcome::Done { result: warm, .. } = outcome else {
            panic!("unbounded queue must not refuse {name}");
        };
        let (hits, misses, _) = prepared_counters(&mut c);
        assert_eq!((hits, misses), (2 * done + 2, done + 1), "{name}: the warm run must hit");
        assert!(!first.aborted && !cold.aborted && !warm.aborted, "{name} aborted");
        assert_eq!(cold.report, first.report, "{name}: prepared report diverged");
        assert_eq!(warm.report, cold.report, "{name}: warm streamed report diverged");
        assert_eq!((first.callgraph_cache_hits, first.callgraph_cache_misses), (0, 1), "{name}");
        assert_eq!((cold.callgraph_cache_hits, cold.callgraph_cache_misses), (0, 1), "{name}");
        assert_eq!((warm.callgraph_cache_hits, warm.callgraph_cache_misses), (1, 0), "{name}");
        assert!(warm.bodies_materialized <= cold.bodies_materialized, "{name}: extra bodies");
    }
    assert!(progress_frames > 0 && leak_frames > 0, "streamed runs sent no frames");
    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

/// Without `--allow-apps` every path-shaped submission is denied — the
/// closed-by-default posture.
#[test]
fn daemon_without_allow_apps_denies_all_paths() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");
    let denied = c.submit("/etc/hosts.rpk", &AnalyzeOptions::default()).expect("submit path");
    let Submitted::Denied { message } = denied else {
        panic!("pathless daemon must deny, got {denied:?}");
    };
    assert!(message.contains("--allow-apps"), "got: {message}");
    // Corpus jobs still work on the same connection.
    let (_, r) = c.analyze("droidbench/Callbacks/Button1", None, None).expect("corpus job");
    assert_eq!(r.leaks, 1);
    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}
