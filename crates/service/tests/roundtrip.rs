//! End-to-end daemon round trips over a real TCP socket: cold→warm
//! callgraph-setup replay between jobs, platform-snapshot boot
//! (including the corrupt-file fallback), deadline aborts,
//! cross-connection cancellation, stats, clean shutdown, prompt
//! Unix-socket unlink on shutdown while jobs are still draining, and
//! external-app serving under the `--allow-apps` path policy.

use flowdroid_service::{
    AnalyzeOptions, AnalyzeOutcome, AnalyzeRequest, Client, Daemon, DaemonOptions, JobResult,
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
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (addr, handle)
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

    let (id1, cold) = c.analyze("insecurebank", None, None).expect("cold job");
    assert_eq!(id1, 1);
    assert!(!cold.aborted);
    assert!(cold.leaks > 0, "insecurebank has known leaks");

    let (_, warm) = c.analyze("insecurebank", None, None).expect("warm job");
    assert!(!warm.aborted);
    assert_eq!(warm.report, cold.report, "cache replay must not change the report");
    assert_eq!(cold.callgraph_cache_misses, 1, "first job builds its setup cold");
    assert_eq!(cold.callgraph_cache_hits, 0);
    assert_eq!(warm.callgraph_cache_hits, 1, "second job replays the cached callgraph");
    assert_eq!(warm.callgraph_cache_misses, 0);

    let mut c2 = Client::connect(&addr).expect("second connection");
    let stats = c2.stats().expect("stats");
    assert_eq!(stats.u64_field("completed"), Some(2));
    assert_eq!(stats.u64_field("callgraph_cache_hits"), Some(1));
    assert_eq!(stats.u64_field("callgraph_cache_misses"), Some(1));
    // One per-app entry: the prepared job, holding the setup.
    assert_eq!(stats.u64_field("prepared_cache_entries"), Some(1));
    assert_eq!(stats.get("jobs").unwrap().as_arr().unwrap().len(), 2);

    c2.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
}

#[test]
fn daemon_boots_from_snapshot_and_skips_unreachable_bodies() {
    let snap = std::env::temp_dir()
        .join(format!("flowdroid-svc-snap-{}.fdps", std::process::id()));
    flowdroid_android::save_snapshot(&snap, &flowdroid_android::build_snapshot())
        .expect("save snapshot");
    let (addr, daemon) = spawn_daemon_with(Some(snap.clone()));
    let mut c = Client::connect(&addr).expect("connect");

    let (_, r) = c.analyze("insecurebank", None, None).expect("job");
    assert!(!r.aborted);
    assert!(r.bodies_materialized > 0, "the lazy frontend decodes reached bodies");

    // The daemon's report must match a standalone eager run exactly.
    let job = flowdroid_bench::find_job("insecurebank").expect("corpus job");
    let eager =
        flowdroid_bench::run_single(&job, &flowdroid_core::InfoflowConfig::default());
    assert_eq!(r.report, eager.report, "lazy daemon run must match eager run");

    // An app with helper classes the callgraph never reaches: those
    // bodies must stay undecoded.
    let (_, r2) =
        c.analyze("securibench/Collections/Collections5", None, None).expect("job 2");
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
    let snap = std::env::temp_dir()
        .join(format!("flowdroid-svc-corrupt-{}.fdps", std::process::id()));
    let mut bytes =
        flowdroid_android::encode_snapshot(&flowdroid_android::build_snapshot());
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

    let start = Instant::now();
    let (_, r) = c.analyze("stress/4000", Some(300), None).expect("deadline job");
    let elapsed = start.elapsed();
    assert!(r.aborted, "stress/4000 cannot finish in 300ms");
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
        let jobs = stats.get("jobs").unwrap().as_arr().unwrap();
        let state = jobs[(id - 1) as usize].str_field("state").unwrap().to_string();
        if state != "queued" {
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
    assert_eq!(r3.u64_field("wall_ms"), Some(0), "a skipped job never runs");

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
    const JOB_DEADLINE_MS: u64 = 1500;
    // Shorter than the deadline, so the socket is gone while the job
    // still runs.
    const UNLINK_WINDOW: Duration = Duration::from_millis(1000);
    let sock = std::env::temp_dir()
        .join(format!("flowdroid-svc-unlink-{}.sock", std::process::id()));
    let daemon = Daemon::bind(DaemonOptions {
        listen: Listen::Unix(sock.clone()),
        workers: 2,
        queue_cap: 0,
        platform_snapshot: None,
        allow_apps: Vec::new(),
    })
    .expect("bind unix daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // A job long enough that its deadline, not its fixpoint, ends it:
    // undeadlined, `stress/12000` runs about 10 s in a release build on
    // a 2-CPU x86-64 host, over 4x the deadline plus the unlink window
    // below. The socket must vanish well before the job ends.
    let mut a = Client::connect(&addr).expect("connection a");
    let id = a
        .analyze_async("stress/12000", Some(JOB_DEADLINE_MS), None)
        .expect("submit");

    let mut b = Client::connect(&addr).expect("connection b");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = b.stats().expect("stats");
        let jobs = stats.get("jobs").unwrap().as_arr().unwrap();
        if jobs[(id - 1) as usize].str_field("state") == Some("running") {
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
        .analyze_with("insecurebank", &opts, &mut |frame| {
            match frame.str_field("type") {
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
            }
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
    let mut canceller = Client::connect(&addr).expect("cancel conn");
    for (id, _) in &pending[..8] {
        let ack = canceller.cancel(*id).expect("cancel");
        assert_eq!(ack.str_field("op"), Some("cancel"));
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
    assert_eq!(stats.u64_field("cancel_requests"), Some(8));
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
        let jobs = stats.get("jobs").unwrap().as_arr().unwrap();
        if jobs[(pin_id - 1) as usize].str_field("state") == Some("running") {
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
            c.submit(link.to_str().unwrap(), &AnalyzeOptions::default())
                .expect("submit symlink"),
            Submitted::Denied { .. }
        ));
    }

    // Allowed paths analyze; reports match a local run through the same
    // loader (content-hashed job names make them comparable).
    for path in [app_dir.clone(), root.join("field.rpk")] {
        let (_, result) =
            c.analyze(path.to_str().unwrap(), None, None).expect("external job");
        assert!(!result.aborted);
        assert_eq!(result.report, local_report(&path), "daemon leg must match local run");
    }
    // The generated app's manifest pins what the daemon must report.
    let (_, r) = c
        .analyze(root.join("field.rpk").to_str().unwrap(), None, None)
        .expect("rpk job");
    assert_eq!(r.leaks as usize, field.expected_reported);

    // A well-placed but malformed archive is an error, not a denial.
    std::fs::write(root.join("junk.rpk"), b"not an archive").unwrap();
    let err = c
        .analyze(root.join("junk.rpk").to_str().unwrap(), None, None)
        .expect_err("junk archive");
    assert!(err.to_string().contains("cannot load app"), "got: {err}");

    let denied_expected = if cfg!(unix) { 3 } else { 2 };
    let stats = c.stats().expect("stats");
    assert_eq!(stats.u64_field("policy_denied"), Some(denied_expected));

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&outside);
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
    (
        field("prepared_cache_hits"),
        field("prepared_cache_misses"),
        field("prepared_cache_entries"),
    )
}

/// The daemon parses an app once and serves repeats from its prepared-job
/// cache: a resubmitted `.rpk` (and corpus name) hits with an identical
/// report and `prepare_us` 0; the same path rewritten with other bytes
/// misses and reports what a local run of the new bytes reports; an
/// archive that cannot be read, or whose code does not parse, is refused
/// with `cannot load app`, never cached, and refused again when resubmitted.
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
    assert_eq!(second.prepare_us, 0, "a hit does no preparation");
    assert_eq!(first.report, second.report);
    assert_eq!(first.report, local_report(&app));

    // Rewritten in place with another app: a new content hash, so a miss.
    std::fs::write(&app, by_category("alias").rpk_bytes()).unwrap();
    let rewritten = analyze(&mut c, &app);
    assert_eq!(prepared_counters(&mut c), (1, 2, 2), "new bytes must be parsed");
    assert_ne!(rewritten.report, first.report);
    assert_eq!(rewritten.report, local_report(&app), "no stale parse is served");

    // Corpus names are cached by name.
    let cold = c.analyze("insecurebank", None, None).expect("corpus job").1;
    let warm = c.analyze("insecurebank", None, None).expect("corpus job").1;
    assert_eq!(prepared_counters(&mut c), (2, 3, 3));
    assert_eq!((warm.prepare_us, warm.report), (0, cold.report));

    // Unreadable archives and unparsable code are refused every time and
    // leave no entry behind.
    let junk = root.join("junk.rpk");
    std::fs::write(&junk, b"not an archive").unwrap();
    let bad_code = root.join("bad-code.rpk");
    let manifest = &by_category("field").manifest;
    std::fs::write(
        &bad_code,
        flowdroid_frontend::App::bundle(manifest, &[], "class {").to_bytes(),
    )
    .unwrap();
    for path in [&junk, &bad_code, &junk, &bad_code] {
        let err = c
            .analyze(path.to_str().unwrap(), None, None)
            .expect_err("malformed app");
        assert!(err.to_string().contains("cannot load app"), "got: {err}");
    }
    let (hits, _, entries) = prepared_counters(&mut c);
    assert_eq!((hits, entries), (2, 3), "malformed apps are never cached");

    c.shutdown().expect("shutdown");
    daemon.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// Without `--allow-apps` every path-shaped submission is denied — the
/// closed-by-default posture.
#[test]
fn daemon_without_allow_apps_denies_all_paths() {
    let (addr, daemon) = spawn_daemon();
    let mut c = Client::connect(&addr).expect("connect");
    let denied =
        c.submit("/etc/hosts.rpk", &AnalyzeOptions::default()).expect("submit path");
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
