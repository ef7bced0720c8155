//! Emits `BENCH_solver.json`: solver performance across three mode
//! families — the sequential solver, the parallel corpus driver at
//! 1/2/4/8 threads, and the parallel *taint engine* (work-stealing
//! bidirectional solver) at 1/2/4/8 workers — over the full
//! DroidBench + SecuriBench corpus. Parallel-taint modes report the
//! scheduler counters (pushes, steals, claims, shard occupancy).
//!
//! Heap allocations are counted with a wrapping global allocator; each
//! mode row also gives `allocations_per_propagation`, the run's
//! allocations over its forward plus backward propagations. Leak
//! reports are compared byte-for-byte across every mode against
//! `sequential-interned`; the binary exits non-zero if any run
//! diverges.
//!
//! The `demand-lazy` mode runs the corpus through the demand-driven
//! frontend (platform snapshot clone + lazy method bodies); its report
//! is compared byte-for-byte against the eager baseline and the run
//! must skip at least one method body, or the binary exits non-zero.
//!
//! `--mode service` benchmarks the analysis *daemon* instead: it
//! saves a `platform.fdps` snapshot, binds an in-process daemon on an
//! ephemeral port that boots from it, floods it with the whole corpus
//! twice (cold then warm against one shared summary cache), and
//! records per-job wall-clock, queue-wait and setup/dataflow split
//! times as a `"service"` section spliced into the same output file
//! (the `available_cores` field and the solver-mode sections are
//! kept). The warm insecurebank job must spend no more time in setup
//! than in the data-flow solver, and the lazy frontend must skip at
//! least one method body, or the binary exits non-zero.
//!
//! `--mode service-load` drives the daemon the way a fleet does: it
//! stores two analysis contexts with one daemon, moves the cache
//! directory and proves that a second daemon replays both from disk
//! while a foreign cache namespace stays cold, floods a single-worker
//! daemon with mixed-priority traffic to compare high- vs
//! batch-priority latency percentiles, overloads a capped queue until
//! submissions bounce with `rejected` backpressure, runs a cancel
//! storm, and replays the corpus with `--stream`-style streaming at 1
//! and 4 taint threads to prove the streamed final report is
//! byte-identical to the non-streamed one. Results land in a
//! `"service_load"` section of the same output file; the binary exits
//! non-zero if a context does not get its own store file or replays
//! nothing after the move, a foreign namespace sees another tenant's
//! summaries, a p99 latency is not finite or high-priority p99 does not
//! beat batch p99, the overloaded queue rejects nothing, the storm
//! leaves jobs undrained, or any streamed report diverges.
//!
//! `--mode ground-truth` runs the seeded synthetic corpus from
//! `flowdroid-truth` instead of the benchmark corpus: it sweeps every
//! engine configuration (solver × frontend × cache temperature) over
//! the generated apps, scores the reference engine per category
//! against each app's ground-truth manifest, probes the
//! access-path k-limit on the widening chains, re-checks the ICC pairs
//! in linked mode, and round-trips every packed `.rpk` through an
//! in-process daemon under the `--allow-apps` path policy (including a
//! denied-path probe). Results land in a `"ground_truth"` section of
//! the same output file; the binary exits non-zero on any pairwise
//! report divergence, manifest drift, constructive-corpus imprecision,
//! missed k-limit trip, ICC mismatch, daemon/local report mismatch, or
//! policy failure.
//!
//! Usage: `solver_stats [--mode full|service|service-load|ground-truth]
//! [output.json]` (default mode `full`, default output
//! `BENCH_solver.json`).

use flowdroid_bench::driver::{corpus_report, full_corpus, run_corpus, CorpusJob, CorpusRun};
use flowdroid_core::{InfoflowConfig, SchedulerStats, SummaryCacheStats, TableStats};
use flowdroid_service::{Client, Daemon, DaemonOptions, JobResult, Listen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation) made through the global
/// allocator. `Relaxed` is fine: the counter is read only between
/// runs, after all worker threads have joined.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct ModeStats {
    name: &'static str,
    threads: usize,
    taint_threads: usize,
    wall_ms: f64,
    app_time_ms: f64,
    dataflow_ms: f64,
    setup_ms: f64,
    forward_propagations: u64,
    backward_propagations: u64,
    bodies_materialized: u64,
    bodies_skipped: u64,
    leaks: usize,
    allocations: u64,
    distinct_facts: usize,
    distinct_aps: usize,
    scheduler: Option<SchedulerStats>,
    fact_tables: Option<TableStats>,
    summary_cache: Option<SummaryCacheStats>,
    report: String,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure(
    name: &'static str,
    jobs: &[CorpusJob],
    config: &InfoflowConfig,
    threads: usize,
) -> ModeStats {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    let run: CorpusRun = run_corpus(jobs, config, threads);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let (fw, bw) = run.total_propagations();
    let (materialized, skipped) = run.total_bodies();
    let app_time = run.total_app_time();
    let dataflow = run.total_dataflow_time();
    ModeStats {
        name,
        threads,
        taint_threads: config.taint_threads,
        wall_ms: ms(run.wall),
        app_time_ms: ms(app_time),
        dataflow_ms: ms(dataflow),
        setup_ms: ms(app_time.saturating_sub(dataflow)),
        forward_propagations: fw,
        backward_propagations: bw,
        bodies_materialized: materialized,
        bodies_skipped: skipped,
        leaks: run.total_leaks(),
        allocations,
        distinct_facts: run.total_distinct_facts(),
        distinct_aps: run.total_distinct_aps(),
        scheduler: run.scheduler_totals(),
        fact_tables: run.fact_table_totals(),
        summary_cache: run.summary_cache_totals(),
        report: corpus_report(&run),
    }
}

fn summary_cache_json(s: &Option<SummaryCacheStats>) -> String {
    match s {
        None => "null".to_string(),
        Some(s) => format!(
            concat!(
                "{{ \"hits\": {}, \"misses\": {}, \"stale\": {}, ",
                "\"store_methods\": {}, \"recorded\": {} }}"
            ),
            s.hits, s.misses, s.stale, s.store_methods, s.recorded
        ),
    }
}

fn scheduler_json(s: &Option<SchedulerStats>) -> String {
    match s {
        None => "null".to_string(),
        Some(s) => format!(
            concat!(
                "{{ \"shards\": {}, \"pushed\": {}, \"steals\": {}, \"claims\": {}, ",
                "\"occupied_shards\": {}, \"max_shard_pushes\": {} }}"
            ),
            s.shards,
            s.pushed,
            s.steals,
            s.claims,
            s.occupied_shards(),
            s.max_shard_pushes()
        ),
    }
}

fn fact_tables_json(s: &Option<TableStats>) -> String {
    match s {
        None => "null".to_string(),
        Some(t) => format!(
            concat!(
                "{{ \"rows\": {}, \"sparse_rows\": {}, \"dense_rows\": {}, ",
                "\"dense_words\": {}, \"widened_facts\": {} }}"
            ),
            t.rows, t.sparse_rows, t.dense_rows, t.dense_words, t.widened_facts
        ),
    }
}

fn mode_json(m: &ModeStats, report_identical: bool) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"{}\",\n",
            "      \"threads\": {},\n",
            "      \"taint_threads\": {},\n",
            "      \"wall_ms\": {:.3},\n",
            "      \"app_time_ms\": {:.3},\n",
            "      \"dataflow_ms\": {:.3},\n",
            "      \"setup_ms\": {:.3},\n",
            "      \"forward_propagations\": {},\n",
            "      \"backward_propagations\": {},\n",
            "      \"bodies_materialized\": {},\n",
            "      \"bodies_skipped\": {},\n",
            "      \"leaks\": {},\n",
            "      \"allocations\": {},\n",
            "      \"allocations_per_propagation\": {:.3},\n",
            "      \"distinct_facts\": {},\n",
            "      \"distinct_aps\": {},\n",
            "      \"scheduler\": {},\n",
            "      \"fact_tables\": {},\n",
            "      \"summary_cache\": {},\n",
            "      \"report_identical_to_baseline\": {}\n",
            "    }}"
        ),
        m.name,
        m.threads,
        m.taint_threads,
        m.wall_ms,
        m.app_time_ms,
        m.dataflow_ms,
        m.setup_ms,
        m.forward_propagations,
        m.backward_propagations,
        m.bodies_materialized,
        m.bodies_skipped,
        m.leaks,
        m.allocations,
        m.allocations as f64 / (m.forward_propagations + m.backward_propagations).max(1) as f64,
        m.distinct_facts,
        m.distinct_aps,
        scheduler_json(&m.scheduler),
        fact_tables_json(&m.fact_tables),
        summary_cache_json(&m.summary_cache),
        report_identical
    )
}

fn main() {
    let mut mode = "full".to_string();
    let mut out_path = "BENCH_solver.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => match args.next() {
                Some(m) => mode = m,
                None => {
                    eprintln!(
                        "solver_stats: --mode needs a value \
                         (full|service|service-load|ground-truth)"
                    );
                    std::process::exit(1);
                }
            },
            other if other.starts_with('-') => {
                eprintln!(
                    "solver_stats: unknown option `{other}` (usage: solver_stats \
                     [--mode full|service|service-load|ground-truth] [output.json])"
                );
                std::process::exit(1);
            }
            other => out_path = other.to_string(),
        }
    }
    match mode.as_str() {
        "full" => run_full(&out_path),
        "service" => run_service(&out_path),
        "service-load" => run_service_load(&out_path),
        "ground-truth" => run_ground_truth(&out_path),
        other => {
            eprintln!(
                "solver_stats: unknown mode `{other}` \
                 (expected full|service|service-load|ground-truth)"
            );
            std::process::exit(1);
        }
    }
}

fn run_full(out_path: &str) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = full_corpus();
    let droidbench = jobs.iter().filter(|j| j.name.starts_with("droidbench/")).count();
    let securibench = jobs.iter().filter(|j| j.name.starts_with("securibench/")).count();
    eprintln!(
        "corpus: {} apps ({droidbench} DroidBench, {securibench} SecuriBench, 1 InsecureBank)",
        jobs.len()
    );

    let interned = InfoflowConfig::default();

    // The baseline every other mode's report is compared against. The
    // name is what verify.sh's regression gate looks up.
    let mut modes = Vec::new();
    eprintln!("running sequential-interned (the sequential solver) ...");
    modes.push(measure("sequential-interned", &jobs, &interned, 1));
    for threads in [1usize, 2, 4, 8] {
        eprintln!("running parallel corpus driver with {threads} thread(s) ...");
        modes.push(measure(
            match threads {
                1 => "parallel-1",
                2 => "parallel-2",
                4 => "parallel-4",
                _ => "parallel-8",
            },
            &jobs,
            &interned,
            threads,
        ));
    }
    // The parallel *taint engine*: the corpus driver stays on one
    // worker so the measured scaling is the solver's own.
    let mut taint_configs = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        taint_configs.push((
            match threads {
                1 => "parallel-taint-1",
                2 => "parallel-taint-2",
                4 => "parallel-taint-4",
                _ => "parallel-taint-8",
            },
            InfoflowConfig::default().with_taint_threads(threads),
        ));
    }
    for (name, config) in &taint_configs {
        eprintln!("running parallel taint engine ({name}) ...");
        modes.push(measure(name, &jobs, config, 1));
    }

    // The demand-driven frontend: each job clones the shared platform
    // snapshot and decodes only the method bodies the callgraph
    // closure reaches. Reports must stay byte-identical to eager
    // loading; the skipped-body count is what laziness bought.
    eprintln!("running demand-driven frontend (lazy bodies) ...");
    modes.push(measure("demand-lazy", &jobs, &interned.clone().with_lazy_frontend(true), 1));

    // The persistent summary store: a cold pass populates the cache,
    // the flush promotes it, and a warm pass replays the stored end
    // summaries instead of re-tabulating cacheable callees.
    let cache_dir =
        std::env::temp_dir().join(format!("flowdroid-solver-stats-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cached = interned.clone().with_summary_cache(&cache_dir);
    eprintln!("running summary-cache cold pass ...");
    modes.push(measure("cache-cold", &jobs, &cached, 1));
    flowdroid_core::flush_summary_cache(&cache_dir).expect("flush summary cache");
    eprintln!("running summary-cache warm pass ...");
    modes.push(measure("cache-warm", &jobs, &cached, 1));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let baseline_report = modes[0].report.clone();
    let reports_identical = modes.iter().all(|m| m.report == baseline_report);

    let wall_1t = modes.iter().find(|m| m.name == "parallel-1").unwrap().wall_ms;
    let speedup = |name: &str| {
        let w = modes.iter().find(|m| m.name == name).unwrap().wall_ms;
        if w > 0.0 {
            wall_1t / w
        } else {
            0.0
        }
    };

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"corpus\": {{ \"apps\": {}, \"droidbench\": {droidbench}, \"securibench\": {securibench} }},",
        jobs.len()
    )
    .unwrap();
    writeln!(json, "  \"available_cores\": {cores},").unwrap();
    writeln!(json, "  \"modes\": [").unwrap();
    for (i, m) in modes.iter().enumerate() {
        let sep = if i + 1 < modes.len() { "," } else { "" };
        writeln!(json, "{}{sep}", mode_json(m, m.report == baseline_report)).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"comparison\": {{").unwrap();
    writeln!(json, "    \"speedup_2t\": {:.3},", speedup("parallel-2")).unwrap();
    writeln!(json, "    \"speedup_4t\": {:.3},", speedup("parallel-4")).unwrap();
    writeln!(json, "    \"speedup_8t\": {:.3},", speedup("parallel-8")).unwrap();
    let dataflow_of = |name: &str| modes.iter().find(|m| m.name == name).unwrap().dataflow_ms;
    let seq_df = dataflow_of("sequential-interned");
    let taint_1t_df = dataflow_of("parallel-taint-1");
    let taint_speedup = |name: &str| {
        let w = dataflow_of(name);
        if w > 0.0 {
            taint_1t_df / w
        } else {
            0.0
        }
    };
    writeln!(json, "    \"taint_1t_dataflow_ms\": {taint_1t_df:.3},").unwrap();
    writeln!(json, "    \"sequential_dataflow_ms\": {seq_df:.3},").unwrap();
    writeln!(
        json,
        "    \"taint_1t_vs_sequential\": {:.3},",
        if seq_df > 0.0 { taint_1t_df / seq_df } else { 0.0 }
    )
    .unwrap();
    writeln!(json, "    \"taint_speedup_2t\": {:.3},", taint_speedup("parallel-taint-2")).unwrap();
    writeln!(json, "    \"taint_speedup_4t\": {:.3},", taint_speedup("parallel-taint-4")).unwrap();
    writeln!(json, "    \"taint_speedup_8t\": {:.3},", taint_speedup("parallel-taint-8")).unwrap();
    let mode_of = |name: &str| modes.iter().find(|m| m.name == name).unwrap();
    let (cold, warm) = (mode_of("cache-cold"), mode_of("cache-warm"));
    let cold_edges = cold.forward_propagations + cold.backward_propagations;
    let warm_edges = warm.forward_propagations + warm.backward_propagations;
    let edges_saved = cold_edges.saturating_sub(warm_edges);
    let warm_stats = warm.summary_cache.clone().unwrap_or_default();
    let warm_lookups = warm_stats.hits + warm_stats.misses + warm_stats.stale;
    writeln!(json, "    \"cache_cold_path_edges\": {cold_edges},").unwrap();
    writeln!(json, "    \"cache_warm_path_edges\": {warm_edges},").unwrap();
    writeln!(json, "    \"cache_path_edges_saved\": {edges_saved},").unwrap();
    writeln!(json, "    \"cache_warm_hits\": {},", warm_stats.hits).unwrap();
    writeln!(
        json,
        "    \"cache_warm_hit_rate\": {:.4},",
        if warm_lookups > 0 { warm_stats.hits as f64 / warm_lookups as f64 } else { 0.0 }
    )
    .unwrap();
    writeln!(json, "    \"cache_dataflow_ms_cold\": {:.3},", cold.dataflow_ms).unwrap();
    writeln!(json, "    \"cache_dataflow_ms_warm\": {:.3},", warm.dataflow_ms).unwrap();
    let lazy = mode_of("demand-lazy");
    writeln!(json, "    \"lazy_bodies_materialized\": {},", lazy.bodies_materialized).unwrap();
    writeln!(json, "    \"lazy_bodies_skipped\": {},", lazy.bodies_skipped).unwrap();
    writeln!(json, "    \"lazy_setup_ms\": {:.3},", lazy.setup_ms).unwrap();
    writeln!(
        json,
        "    \"lazy_report_identical\": {},",
        lazy.report == baseline_report
    )
    .unwrap();
    if cores < 2 {
        // Wall-clock speedup needs real hardware parallelism; on a
        // single core the measurement degenerates to pool overhead
        // (a speedup ~1.0 then means the fan-out costs nothing).
        writeln!(
            json,
            "    \"speedup_note\": \"only {cores} core(s) available; speedups bound by hardware\","
        )
        .unwrap();
    }
    writeln!(json, "    \"reports_identical\": {reports_identical}").unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_solver.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if !reports_identical {
        eprintln!("FAIL: leak reports diverged across modes/thread counts");
        std::process::exit(1);
    }
    if warm_stats.hits == 0 {
        eprintln!("FAIL: warm summary-cache pass produced no hits");
        std::process::exit(1);
    }
    if edges_saved == 0 {
        eprintln!(
            "FAIL: warm pass saved no path edges (cold {cold_edges}, warm {warm_edges})"
        );
        std::process::exit(1);
    }
    if lazy.bodies_skipped == 0 {
        eprintln!(
            "FAIL: demand-lazy mode decoded every body ({} materialized, 0 skipped)",
            lazy.bodies_materialized
        );
        std::process::exit(1);
    }
}

/// Benchmarks the daemon: binds it in-process on an ephemeral port,
/// submits the whole corpus twice (cold, then warm against the shared
/// summary cache) with one connection per job so jobs genuinely queue,
/// and splices the per-job wall/queue times into `out_path`.
fn run_service(out_path: &str) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = cores.clamp(1, 4);
    let names: Vec<String> = full_corpus().into_iter().map(|j| j.name).collect();
    let cache = std::env::temp_dir()
        .join(format!("flowdroid-solver-stats-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    // Boot the daemon from a platform snapshot file, the deployment
    // configuration the benchmark is meant to measure.
    let snap_path = std::env::temp_dir()
        .join(format!("flowdroid-solver-stats-platform-{}.fdps", std::process::id()));
    flowdroid_android::save_snapshot(&snap_path, &flowdroid_android::build_snapshot())
        .expect("save platform snapshot");

    let daemon = Daemon::bind(DaemonOptions {
        listen: Listen::parse("127.0.0.1:0"),
        workers,
        queue_cap: 0,
        summary_cache: Some(cache.clone()),
        platform_snapshot: Some(snap_path.clone()),
        allow_apps: Vec::new(),
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // One connection per job: the protocol delivers a job's result on
    // the connection that submitted it, so separate connections let
    // every job sit in the queue at once and the recorded queue-wait
    // times are real contention, not client-side serialization.
    let run_pass = |pass: &str| -> Vec<(String, JobResult)> {
        eprintln!("service: {pass} pass ({} jobs on {workers} workers) ...", names.len());
        let mut pending = Vec::new();
        for name in &names {
            let mut c = Client::connect(&addr).expect("connect");
            c.analyze_async(name, None, None, None).expect("submit");
            pending.push((name.clone(), c));
        }
        pending
            .into_iter()
            .map(|(name, mut c)| {
                let line = c.read_response().expect("result line");
                let r = JobResult::from_json(&line).expect("well-formed result");
                (name, r)
            })
            .collect()
    };
    let cold = run_pass("cold");
    let warm = run_pass("warm");

    let mut ctl = Client::connect(&addr).expect("control connection");
    let stats = ctl.stats().expect("stats");
    ctl.shutdown().expect("shutdown");
    accept_loop.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&snap_path);

    let aborted = cold.iter().chain(&warm).filter(|(_, r)| r.aborted).count();
    let reports_identical = cold
        .iter()
        .zip(&warm)
        .all(|((_, c), (_, w))| c.report == w.report);
    let warm_hits: u64 = warm.iter().map(|(_, r)| r.summary_hits).sum();
    let total =
        |pass: &[(String, JobResult)], f: fn(&JobResult) -> u64| -> u64 {
            pass.iter().map(|(_, r)| f(r)).sum()
        };
    let peak = |pass: &[(String, JobResult)], f: fn(&JobResult) -> u64| -> u64 {
        pass.iter().map(|(_, r)| f(r)).max().unwrap_or(0)
    };

    let warm_setup_us = total(&warm, |r| r.setup_us);
    let warm_dataflow_us = total(&warm, |r| r.dataflow_us);
    // The "warm job wall time ≈ dataflow time" claim is gated on the
    // substantial app: micro benchmark apps finish their data-flow in
    // tens of microseconds, below any per-job call-graph cost, so an
    // aggregate would only measure corpus composition.
    let warm_bank = warm
        .iter()
        .find(|(name, _)| name == "insecurebank")
        .map(|(_, r)| (r.setup_us, r.dataflow_us))
        .expect("insecurebank is in the corpus");
    let bodies_materialized = total(&cold, |r| r.bodies_materialized)
        + total(&warm, |r| r.bodies_materialized);
    let bodies_skipped =
        total(&cold, |r| r.bodies_skipped) + total(&warm, |r| r.bodies_skipped);
    let cold_setup_us = total(&cold, |r| r.setup_us);
    let cold_cg_misses = total(&cold, |r| r.callgraph_cache_misses);
    let warm_cg_hits = total(&warm, |r| r.callgraph_cache_hits);
    let cold_clone_us = total(&cold, |r| r.platform_clone_us);
    let warm_clone_us = total(&warm, |r| r.platform_clone_us);
    let cg_evictions = stats.u64_field("callgraph_cache_evictions").unwrap_or(0);
    let snapshot_load_ms = stats.u64_field("snapshot_load_ms").unwrap_or(0);
    let snapshot_source = stats.str_field("snapshot_source").unwrap_or("unknown").to_string();

    let mut section = String::new();
    writeln!(section, "{{").unwrap();
    writeln!(section, "    \"workers\": {workers},").unwrap();
    writeln!(section, "    \"jobs_per_pass\": {},", names.len()).unwrap();
    writeln!(section, "    \"completed\": {},", stats.u64_field("completed").unwrap_or(0)).unwrap();
    writeln!(section, "    \"snapshot_load_ms\": {snapshot_load_ms},").unwrap();
    writeln!(section, "    \"snapshot_source\": \"{snapshot_source}\",").unwrap();
    writeln!(section, "    \"cold_wall_ms_total\": {},", total(&cold, |r| r.wall_ms)).unwrap();
    writeln!(section, "    \"warm_wall_ms_total\": {},", total(&warm, |r| r.wall_ms)).unwrap();
    writeln!(section, "    \"cold_queue_ms_max\": {},", peak(&cold, |r| r.queue_ms)).unwrap();
    writeln!(section, "    \"warm_queue_ms_max\": {},", peak(&warm, |r| r.queue_ms)).unwrap();
    writeln!(section, "    \"cold_setup_us_total\": {cold_setup_us},").unwrap();
    writeln!(section, "    \"cold_dataflow_us_total\": {},", total(&cold, |r| r.dataflow_us))
        .unwrap();
    writeln!(section, "    \"warm_setup_us_total\": {warm_setup_us},").unwrap();
    writeln!(section, "    \"warm_dataflow_us_total\": {warm_dataflow_us},").unwrap();
    writeln!(section, "    \"warm_insecurebank_setup_us\": {},", warm_bank.0).unwrap();
    writeln!(section, "    \"warm_insecurebank_dataflow_us\": {},", warm_bank.1).unwrap();
    writeln!(
        section,
        "    \"warm_setup_below_dataflow\": {},",
        warm_bank.0 <= warm_bank.1
    )
    .unwrap();
    writeln!(section, "    \"bodies_materialized_total\": {bodies_materialized},").unwrap();
    writeln!(section, "    \"bodies_skipped_total\": {bodies_skipped},").unwrap();
    writeln!(section, "    \"warm_summary_hits\": {warm_hits},").unwrap();
    writeln!(section, "    \"cold_callgraph_misses\": {cold_cg_misses},").unwrap();
    writeln!(section, "    \"warm_callgraph_hits\": {warm_cg_hits},").unwrap();
    writeln!(section, "    \"callgraph_cache_evictions\": {cg_evictions},").unwrap();
    writeln!(section, "    \"cold_platform_clone_us_total\": {cold_clone_us},").unwrap();
    writeln!(section, "    \"warm_platform_clone_us_total\": {warm_clone_us},").unwrap();
    writeln!(
        section,
        "    \"warm_setup_below_cold\": {},",
        warm_setup_us < cold_setup_us
    )
    .unwrap();
    writeln!(section, "    \"reports_identical\": {reports_identical},").unwrap();
    writeln!(section, "    \"jobs\": [").unwrap();
    let entries: Vec<String> = cold
        .iter()
        .map(|j| ("cold", j))
        .chain(warm.iter().map(|j| ("warm", j)))
        .map(|(pass, (name, r))| {
            format!(
                concat!(
                    "      {{ \"app\": \"{}\", \"pass\": \"{}\", \"wall_ms\": {}, ",
                    "\"queue_ms\": {}, \"setup_us\": {}, \"dataflow_us\": {}, ",
                    "\"bodies_materialized\": {}, \"bodies_skipped\": {}, ",
                    "\"summary_hits\": {}, \"platform_clone_us\": {}, ",
                    "\"callgraph_cache_hits\": {} }}"
                ),
                name,
                pass,
                r.wall_ms,
                r.queue_ms,
                r.setup_us,
                r.dataflow_us,
                r.bodies_materialized,
                r.bodies_skipped,
                r.summary_hits,
                r.platform_clone_us,
                r.callgraph_cache_hits
            )
        })
        .collect();
    writeln!(section, "{}", entries.join(",\n")).unwrap();
    writeln!(section, "    ]").unwrap();
    write!(section, "  }}").unwrap();

    let json = splice_tail_section(out_path, "service", &section, names.len(), cores);
    std::fs::write(out_path, &json).expect("write service benchmark");
    eprintln!("wrote {out_path} (service section)");
    eprintln!(
        "service: {} jobs/pass, warm hits {warm_hits}, max cold queue wait {} ms",
        names.len(),
        peak(&cold, |r| r.queue_ms)
    );

    if aborted > 0 {
        eprintln!("FAIL: {aborted} service job(s) aborted without a deadline or budget");
        std::process::exit(1);
    }
    if !reports_identical {
        eprintln!("FAIL: warm-pass reports diverged from the cold pass");
        std::process::exit(1);
    }
    if warm_hits == 0 {
        eprintln!("FAIL: warm pass replayed no summaries from the shared cache");
        std::process::exit(1);
    }
    if snapshot_source != "file" {
        eprintln!("FAIL: daemon did not boot from the saved platform snapshot");
        std::process::exit(1);
    }
    if bodies_skipped == 0 {
        eprintln!("FAIL: the daemon's lazy frontend decoded every method body");
        std::process::exit(1);
    }
    if warm_bank.0 > warm_bank.1 {
        eprintln!(
            "FAIL: warm insecurebank job spent more time in setup ({} us) than in the \
             data-flow solver ({} us)",
            warm_bank.0, warm_bank.1
        );
        std::process::exit(1);
    }
    if warm_cg_hits == 0 {
        eprintln!("FAIL: warm pass replayed no cached callgraph setups");
        std::process::exit(1);
    }
    if warm_setup_us >= cold_setup_us {
        eprintln!(
            "FAIL: warm pass setup ({warm_setup_us} us) is not below the cold pass \
             ({cold_setup_us} us) despite the callgraph cache"
        );
        std::process::exit(1);
    }
}

/// The benchmark sections appended after the full-mode document, in
/// their fixed emission order.
const TAIL_KEYS: [&str; 3] = ["service", "service_load", "ground_truth"];

/// Splices `section` into `out_path` as the tail key `key`, keeping the
/// full-mode document (including `available_cores`) and any *other*
/// tail sections intact — so `--mode service` and `--mode service-load`
/// can refresh their sections independently. Falls back to a minimal
/// standalone document when the file is absent.
fn splice_tail_section(
    out_path: &str,
    key: &str,
    section: &str,
    apps: usize,
    cores: usize,
) -> String {
    assert!(TAIL_KEYS.contains(&key), "unknown tail section `{key}`");
    let mut kept: Vec<(&str, String)> = Vec::new();
    let core = match std::fs::read_to_string(out_path) {
        Ok(doc) => {
            let mut marks: Vec<(usize, &str)> = TAIL_KEYS
                .iter()
                .filter_map(|k| doc.find(&format!(",\n  \"{k}\":")).map(|i| (i, *k)))
                .collect();
            marks.sort_unstable();
            // The end of the last section body: the document's final
            // closing brace, trailing whitespace stripped.
            let doc_end = {
                let end = doc.trim_end().len();
                assert!(
                    doc[..end].ends_with('}'),
                    "{out_path} does not look like a solver_stats document"
                );
                doc[..end - 1].trim_end().len()
            };
            for (j, (pos, k)) in marks.iter().enumerate() {
                let body_start = pos + format!(",\n  \"{k}\":").len();
                let body_end = marks.get(j + 1).map_or(doc_end, |(p, _)| *p);
                kept.push((k, doc[body_start..body_end].trim().to_string()));
            }
            let cut = marks.first().map_or(doc_end, |(i, _)| *i);
            doc[..cut].to_string()
        }
        Err(_) => format!(
            "{{\n  \"corpus\": {{ \"apps\": {apps} }},\n  \"available_cores\": {cores}"
        ),
    };
    let mut out = core;
    for k in TAIL_KEYS {
        let body = if k == key {
            Some(section.trim_start().to_string())
        } else {
            kept.iter().find(|(kk, _)| *kk == k).map(|(_, b)| b.clone())
        };
        if let Some(b) = body {
            out.push_str(&format!(",\n  \"{k}\": {b}"));
        }
    }
    out.push_str("\n}\n");
    out
}

/// `--mode service-load`: the fleet-style load generator. See the
/// module docs for the phase list and gates.
fn run_service_load(out_path: &str) {
    use flowdroid_service::{AnalyzeOptions, AnalyzeOutcome, Priority, Submitted};
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let names: Vec<String> = full_corpus().into_iter().map(|j| j.name).collect();

    let snap_path = std::env::temp_dir()
        .join(format!("flowdroid-load-platform-{}.fdps", std::process::id()));
    flowdroid_android::save_snapshot(&snap_path, &flowdroid_android::build_snapshot())
        .expect("save platform snapshot");

    let bind = |workers: usize, queue_cap: usize, cache: Option<PathBuf>| {
        let daemon = Daemon::bind(DaemonOptions {
            listen: Listen::parse("127.0.0.1:0"),
            workers,
            queue_cap,
            summary_cache: cache,
            platform_snapshot: Some(snap_path.clone()),
            allow_apps: Vec::new(),
        })
        .expect("bind daemon");
        let addr = daemon.local_addr().to_string();
        let h = std::thread::spawn(move || daemon.run().expect("daemon run"));
        (addr, h)
    };
    let stop = |addr: &str, h: std::thread::JoinHandle<()>| {
        let mut c = Client::connect(addr).expect("control connection");
        c.shutdown().expect("shutdown");
        h.join().expect("accept loop exits cleanly");
    };
    let analyze = |addr: &str, app: &str, opts: &AnalyzeOptions| -> JobResult {
        let mut c = Client::connect(addr).expect("connect");
        match c.analyze_with(app, opts, &mut |_| {}).expect("job") {
            AnalyzeOutcome::Done { result, .. } => result,
            AnalyzeOutcome::Rejected { .. } => panic!("unbounded queue must not reject"),
            AnalyzeOutcome::Denied { .. } => panic!("corpus names never hit the path policy"),
        }
    };
    let pct = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[(((sorted.len() - 1) as f64) * p).round() as usize]
    };

    // ---- Phase R: every context reloads from disk after a restart ----
    // A cold daemon stores two contexts (insecurebank's password-field
    // sources and SecuriBench's sources) in one cache directory. Moving
    // the directory to a path this process never opened means the
    // process-global store registry cannot answer: the second daemon's
    // warm hits come from the store files alone.
    const REOPEN_APPS: [&str; 2] = ["insecurebank", "securibench/Aliasing/Aliasing0"];
    eprintln!("service-load: reopen (two contexts, cache moved between daemons) ...");
    let cache_a =
        std::env::temp_dir().join(format!("flowdroid-load-reopen-a-{}", std::process::id()));
    let cache_b =
        std::env::temp_dir().join(format!("flowdroid-load-reopen-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_a);
    let _ = std::fs::remove_dir_all(&cache_b);
    let base_opts = AnalyzeOptions::default();
    let (addr, h) = bind(2, 0, Some(cache_a.clone()));
    let cold: Vec<JobResult> =
        REOPEN_APPS.iter().map(|app| analyze(&addr, app, &base_opts)).collect();
    stop(&addr, h);
    let store_files = std::fs::read_dir(&cache_a)
        .map(|d| d.flatten().filter(|e| e.path().extension() == Some("fdss".as_ref())).count())
        .unwrap_or(0);
    std::fs::rename(&cache_a, &cache_b).expect("move the cache directory");
    let (addr, h) = bind(2, 0, Some(cache_b.clone()));
    let warm: Vec<JobResult> =
        REOPEN_APPS.iter().map(|app| analyze(&addr, app, &base_opts)).collect();
    let foreign_opts =
        AnalyzeOptions { namespace: "tenant-b".to_string(), ..Default::default() };
    let foreign = analyze(&addr, REOPEN_APPS[0], &foreign_opts);
    let namespace_cold_hits = foreign.summary_hits;
    stop(&addr, h);
    let _ = std::fs::remove_dir_all(&cache_b);
    let cold_hits: u64 = cold.iter().map(|r| r.summary_hits).sum();
    let reopen_reports_identical = cold.iter().zip(&warm).all(|(c, w)| c.report == w.report)
        && foreign.report == cold[0].report;
    eprintln!(
        "service-load: {store_files} store files, warm hits after reopen {} / {}, \
         tenant-b cold hits {namespace_cold_hits}",
        warm[0].summary_hits, warm[1].summary_hits
    );

    // ---- Phase L1: mixed-priority latency on a single worker ----
    eprintln!("service-load: mixed-priority latency (1 worker, 8 batch + 4 high) ...");
    let (addr, h) = bind(1, 0, None);
    let timed = |addr: String, prio: Priority| -> std::thread::JoinHandle<f64> {
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            let opts = AnalyzeOptions { priority: prio, ..Default::default() };
            let t0 = Instant::now();
            match c.analyze_with("stress/2500", &opts, &mut |_| {}).expect("job") {
                AnalyzeOutcome::Done { .. } => t0.elapsed().as_secs_f64() * 1e3,
                AnalyzeOutcome::Rejected { .. } => panic!("unbounded queue must not reject"),
            AnalyzeOutcome::Denied { .. } => panic!("corpus names never hit the path policy"),
            }
        })
    };
    let batch_handles: Vec<_> = (0..8).map(|_| timed(addr.clone(), Priority::Batch)).collect();
    // Let the batch jobs enqueue first, then inject the high-priority
    // traffic they must not starve.
    std::thread::sleep(Duration::from_millis(30));
    let high_handles: Vec<_> = (0..4).map(|_| timed(addr.clone(), Priority::High)).collect();
    let mut batch_ms: Vec<f64> =
        batch_handles.into_iter().map(|h| h.join().expect("batch job")).collect();
    let mut high_ms: Vec<f64> =
        high_handles.into_iter().map(|h| h.join().expect("high job")).collect();
    stop(&addr, h);
    batch_ms.sort_by(f64::total_cmp);
    high_ms.sort_by(f64::total_cmp);
    let (high_p50, high_p99) = (pct(&high_ms, 0.50), pct(&high_ms, 0.99));
    let (batch_p50, batch_p99) = (pct(&batch_ms, 0.50), pct(&batch_ms, 0.99));
    let batch_completed = batch_ms.len();
    eprintln!(
        "service-load: high p50/p99 {high_p50:.1}/{high_p99:.1} ms, \
         batch p50/p99 {batch_p50:.1}/{batch_p99:.1} ms"
    );

    // ---- Phase L2: overload against a capped queue ----
    eprintln!("service-load: overload (1 worker, queue cap 4, 20 submissions) ...");
    let (addr, h) = bind(1, 4, None);
    let overload_opts = AnalyzeOptions { deadline_ms: Some(3000), ..Default::default() };
    let mut inflight = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..20 {
        let mut c = Client::connect(&addr).expect("connect");
        match c.submit("stress/2000", &overload_opts).expect("submit") {
            Submitted::Queued(_) => inflight.push((Instant::now(), c)),
            Submitted::Rejected { queue_cap, .. } => {
                assert_eq!(queue_cap, 4, "rejected line carries the daemon's cap");
                rejected += 1;
            }
            Submitted::Denied { .. } => panic!("corpus names never hit the path policy"),
        }
    }
    let accepted = inflight.len();
    let mut overload_ms: Vec<f64> = inflight
        .into_iter()
        .map(|(t0, mut c)| {
            let line = c.read_response().expect("result line");
            JobResult::from_json(&line).expect("well-formed result");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    overload_ms.sort_by(f64::total_cmp);
    let overload_p99 = pct(&overload_ms, 0.99);
    let mut ctl = Client::connect(&addr).expect("control connection");
    let o_stats = ctl.stats().expect("stats");
    let stats_rejected = o_stats.u64_field("rejected").unwrap_or(0);
    drop(ctl);
    stop(&addr, h);
    eprintln!(
        "service-load: {accepted} accepted, {rejected} rejected \
         (daemon counted {stats_rejected}), accepted p99 {overload_p99:.1} ms"
    );

    // ---- Phase C: cancel storm ----
    eprintln!("service-load: cancel storm (10 jobs, 8 cancelled) ...");
    let (addr, h) = bind(2, 0, None);
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
    let mut canceller = Client::connect(&addr).expect("cancel connection");
    for (id, _) in &pending[..8] {
        canceller.cancel(*id).expect("cancel");
    }
    let t0 = Instant::now();
    for (_, mut c) in pending {
        let line = c.read_response().expect("result line");
        JobResult::from_json(&line).expect("well-formed result");
    }
    let storm_drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let s_stats = canceller.stats().expect("stats");
    let storm_completed = s_stats.u64_field("completed").unwrap_or(0);
    let storm_cancel_requests = s_stats.u64_field("cancel_requests").unwrap_or(0);
    let storm_queue_depth = s_stats.u64_field("queue_depth").unwrap_or(u64::MAX);
    drop(canceller);
    stop(&addr, h);
    eprintln!(
        "service-load: storm drained in {storm_drain_ms:.0} ms \
         ({storm_completed} done, {storm_cancel_requests} cancel requests)"
    );

    // ---- Phase S: streaming identity across the corpus ----
    eprintln!(
        "service-load: streaming identity across {} apps at 1 and 4 taint threads ...",
        names.len()
    );
    let (addr, h) = bind(2, 0, None);
    let mut c = Client::connect(&addr).expect("connect");
    let mut progress_frames = 0u64;
    let mut leak_frames = 0u64;
    let mut stream_divergences = 0u64;
    for name in &names {
        let baseline = match c
            .analyze_with(name, &AnalyzeOptions::default(), &mut |_| {})
            .expect("baseline job")
        {
            AnalyzeOutcome::Done { result, .. } => result,
            AnalyzeOutcome::Rejected { .. } => panic!("unbounded queue must not reject"),
            AnalyzeOutcome::Denied { .. } => panic!("corpus names never hit the path policy"),
        };
        for threads in [1u64, 4] {
            let opts = AnalyzeOptions {
                stream: true,
                taint_threads: Some(threads),
                ..Default::default()
            };
            let streamed = match c
                .analyze_with(name, &opts, &mut |frame| match frame.str_field("type") {
                    Some("progress") => progress_frames += 1,
                    Some("leak") => leak_frames += 1,
                    other => panic!("unexpected frame type {other:?}"),
                })
                .expect("streamed job")
            {
                AnalyzeOutcome::Done { result, .. } => result,
                AnalyzeOutcome::Rejected { .. } => panic!("unbounded queue must not reject"),
            AnalyzeOutcome::Denied { .. } => panic!("corpus names never hit the path policy"),
            };
            if streamed.report != baseline.report {
                stream_divergences += 1;
                eprintln!(
                    "service-load: STREAM DIVERGENCE on {name} at {threads} taint thread(s)"
                );
            }
        }
    }
    drop(c);
    stop(&addr, h);
    let _ = std::fs::remove_file(&snap_path);
    eprintln!(
        "service-load: {} streamed runs, {progress_frames} progress + {leak_frames} leak \
         frames, {stream_divergences} divergence(s)",
        names.len() * 2
    );

    // ---- Emit the section and enforce the gates ----
    let mut section = String::new();
    writeln!(section, "{{").unwrap();
    writeln!(section, "    \"reopen\": {{").unwrap();
    writeln!(section, "      \"store_files\": {store_files},").unwrap();
    writeln!(section, "      \"cold_summary_hits\": {cold_hits},").unwrap();
    writeln!(section, "      \"warm_insecurebank_summary_hits\": {},", warm[0].summary_hits)
        .unwrap();
    writeln!(section, "      \"warm_securibench_summary_hits\": {},", warm[1].summary_hits)
        .unwrap();
    writeln!(section, "      \"namespace_cold_hits\": {namespace_cold_hits},").unwrap();
    writeln!(section, "      \"reports_identical\": {reopen_reports_identical}").unwrap();
    writeln!(section, "    }},").unwrap();
    writeln!(section, "    \"latency\": {{").unwrap();
    writeln!(section, "      \"workers\": 1,").unwrap();
    writeln!(section, "      \"high_jobs\": {},", high_ms.len()).unwrap();
    writeln!(section, "      \"batch_jobs\": 8,").unwrap();
    writeln!(section, "      \"batch_completed\": {batch_completed},").unwrap();
    writeln!(section, "      \"high_p50_ms\": {high_p50:.3},").unwrap();
    writeln!(section, "      \"high_p99_ms\": {high_p99:.3},").unwrap();
    writeln!(section, "      \"batch_p50_ms\": {batch_p50:.3},").unwrap();
    writeln!(section, "      \"batch_p99_ms\": {batch_p99:.3},").unwrap();
    writeln!(section, "      \"high_p99_below_batch_p99\": {}", high_p99 < batch_p99)
        .unwrap();
    writeln!(section, "    }},").unwrap();
    writeln!(section, "    \"overload\": {{").unwrap();
    writeln!(section, "      \"workers\": 1,").unwrap();
    writeln!(section, "      \"queue_cap\": 4,").unwrap();
    writeln!(section, "      \"submitted\": 20,").unwrap();
    writeln!(section, "      \"accepted\": {accepted},").unwrap();
    writeln!(section, "      \"rejected\": {rejected},").unwrap();
    writeln!(section, "      \"stats_rejected\": {stats_rejected},").unwrap();
    writeln!(section, "      \"accepted_p99_ms\": {overload_p99:.3}").unwrap();
    writeln!(section, "    }},").unwrap();
    writeln!(section, "    \"cancel_storm\": {{").unwrap();
    writeln!(section, "      \"jobs\": 10,").unwrap();
    writeln!(section, "      \"cancelled\": 8,").unwrap();
    writeln!(section, "      \"completed\": {storm_completed},").unwrap();
    writeln!(section, "      \"cancel_requests\": {storm_cancel_requests},").unwrap();
    writeln!(section, "      \"queue_depth_after\": {storm_queue_depth},").unwrap();
    writeln!(section, "      \"drain_ms\": {storm_drain_ms:.3}").unwrap();
    writeln!(section, "    }},").unwrap();
    writeln!(section, "    \"streaming\": {{").unwrap();
    writeln!(section, "      \"apps\": {},", names.len()).unwrap();
    writeln!(section, "      \"streamed_runs\": {},", names.len() * 2).unwrap();
    writeln!(section, "      \"progress_frames\": {progress_frames},").unwrap();
    writeln!(section, "      \"leak_frames\": {leak_frames},").unwrap();
    writeln!(section, "      \"divergences\": {stream_divergences},").unwrap();
    writeln!(section, "      \"reports_identical\": {}", stream_divergences == 0).unwrap();
    writeln!(section, "    }}").unwrap();
    write!(section, "  }}").unwrap();

    let json = splice_tail_section(out_path, "service_load", &section, names.len(), cores);
    std::fs::write(out_path, &json).expect("write service-load benchmark");
    eprintln!("wrote {out_path} (service_load section)");

    let mut failed = false;
    let mut fail = |msg: &str| {
        eprintln!("FAIL: {msg}");
        failed = true;
    };
    if cold_hits != 0 {
        fail("reopen phase: a cold job saw summary hits");
    }
    if store_files != REOPEN_APPS.len() {
        fail("reopen phase: the two contexts did not get one store file each");
    }
    if warm.iter().any(|r| r.summary_hits == 0) {
        fail("reopen phase: a context replayed no summaries after the restart");
    }
    if namespace_cold_hits != 0 {
        fail("reopen phase: a foreign namespace observed another tenant's summaries");
    }
    if !reopen_reports_identical {
        fail("reopen phase: a warm or foreign-namespace report diverged");
    }
    if batch_completed != 8 {
        fail("latency phase: batch jobs starved under high-priority traffic");
    }
    if !high_p99.is_finite() || !batch_p99.is_finite() {
        fail("latency phase: a p99 latency is not finite");
    } else if high_p99 >= batch_p99 {
        fail("latency phase: high-priority p99 is not below batch p99");
    }
    if rejected == 0 {
        fail("overload phase: a full queue rejected nothing");
    }
    if stats_rejected != rejected {
        fail("overload phase: daemon rejection counter disagrees with the client");
    }
    if !overload_p99.is_finite() {
        fail("overload phase: accepted-job p99 is not finite");
    }
    if storm_completed != 10 || storm_queue_depth != 0 {
        fail("cancel storm: jobs left undrained");
    }
    if storm_cancel_requests != 8 {
        fail("cancel storm: cancel-request counter did not reconcile");
    }
    if progress_frames == 0 || leak_frames == 0 {
        fail("streaming phase: no frames observed");
    }
    if stream_divergences != 0 {
        fail("streaming phase: a streamed report diverged from the non-streamed run");
    }
    if failed {
        std::process::exit(1);
    }
}

/// `--mode ground-truth`: the seeded differential harness. Generates
/// the synthetic corpus, sweeps the full engine matrix, scores the
/// reference engine against the manifests, checks linked-ICC mode, and
/// serves the packed `.rpk` archives through an in-process daemon
/// under the `--allow-apps` path policy. See the module docs for the
/// gates.
fn run_ground_truth(out_path: &str) {
    use flowdroid_bench::driver::run_single;
    use flowdroid_service::{AnalyzeOptions, Submitted};
    use flowdroid_truth::{check_icc_linked, generate_corpus, run_differential};

    const SEED: u64 = 42;
    const PER_CATEGORY: usize = 2;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let apps = generate_corpus(SEED, PER_CATEGORY);
    eprintln!(
        "ground-truth: differential sweep over {} generated apps (seed {SEED}) ...",
        apps.len()
    );

    let cache = std::env::temp_dir()
        .join(format!("flowdroid-ground-truth-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let d = run_differential(&apps, &cache);
    let _ = std::fs::remove_dir_all(&cache);

    eprintln!("ground-truth: linked-ICC re-check ...");
    let icc = check_icc_linked(&apps);

    // ---- Daemon leg: every archive served under the path policy ----
    eprintln!("ground-truth: daemon leg ({} .rpk archives) ...", apps.len());
    let root = std::env::temp_dir()
        .join(format!("flowdroid-ground-truth-apps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create allow root");
    let rpks: Vec<_> = apps
        .iter()
        .map(|app| {
            let path = root.join(format!("{}.rpk", app.name.replace('/', "-")));
            std::fs::write(&path, app.rpk_bytes()).expect("write rpk");
            (app, path)
        })
        .collect();
    let daemon = Daemon::bind(DaemonOptions {
        listen: Listen::parse("127.0.0.1:0"),
        workers: 2,
        queue_cap: 0,
        summary_cache: None,
        platform_snapshot: None,
        allow_apps: vec![root.clone()],
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut c = Client::connect(&addr).expect("connect");

    // External jobs carry a content-hashed name, so the report header
    // differs from the local run's; the sorted leak lines underneath
    // are the byte-comparison unit.
    let leak_lines =
        |report: &str| -> String { report.lines().skip(1).collect::<Vec<_>>().join("\n") };
    let mut daemon_mismatches = 0usize;
    for (app, path) in &rpks {
        let (_, result) =
            c.analyze(path.to_str().unwrap(), None, None, None).expect("external job");
        let local = run_single(&app.job(), &InfoflowConfig::default());
        if result.leaks as usize != app.expected_reported
            || leak_lines(&result.report) != leak_lines(&local.report)
        {
            daemon_mismatches += 1;
            eprintln!("ground-truth: DAEMON MISMATCH on {}", app.name);
        }
    }
    // And the policy must refuse a path outside the allow root.
    let outside = std::env::temp_dir()
        .join(format!("flowdroid-ground-truth-outside-{}.rpk", std::process::id()));
    std::fs::write(&outside, b"never served").expect("write outside file");
    let policy_denied_works = matches!(
        c.submit(outside.to_str().unwrap(), &AnalyzeOptions::default())
            .expect("submit outside path"),
        Submitted::Denied { .. }
    );
    let _ = std::fs::remove_file(&outside);
    c.shutdown().expect("shutdown");
    accept_loop.join().expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    let daemon_external_ok = daemon_mismatches == 0;

    let mut section = String::new();
    writeln!(section, "{{").unwrap();
    writeln!(section, "    \"seed\": {SEED},").unwrap();
    writeln!(section, "    \"apps\": {},", apps.len()).unwrap();
    let engine_names: Vec<String> =
        d.engines.iter().map(|e| format!("\"{}\"", e.name)).collect();
    writeln!(section, "    \"engines\": [{}],", engine_names.join(", ")).unwrap();
    writeln!(section, "    \"divergent_pairs\": {},", d.divergent_pairs).unwrap();
    writeln!(section, "    \"reports_identical\": {},", d.divergent_pairs == 0).unwrap();
    writeln!(section, "    \"drift_apps\": {},", d.drift.len()).unwrap();
    writeln!(section, "    \"categories\": [").unwrap();
    let rows: Vec<String> = d
        .board
        .rows()
        .map(|(cat, s)| {
            format!(
                concat!(
                    "      {{ \"category\": \"{}\", \"tp\": {}, \"fp\": {}, \"fn\": {}, ",
                    "\"precision\": {:.4}, \"recall\": {:.4} }}"
                ),
                cat,
                s.tp,
                s.fp,
                s.fn_,
                s.precision(),
                s.recall()
            )
        })
        .collect();
    writeln!(section, "{}", rows.join(",\n")).unwrap();
    writeln!(section, "    ],").unwrap();
    writeln!(section, "    \"constructive_tp\": {},", d.constructive.tp).unwrap();
    writeln!(section, "    \"constructive_fp\": {},", d.constructive.fp).unwrap();
    writeln!(section, "    \"constructive_fn\": {},", d.constructive.fn_).unwrap();
    writeln!(section, "    \"constructive_precision\": {:.4},", d.constructive.precision())
        .unwrap();
    writeln!(section, "    \"constructive_recall\": {:.4},", d.constructive.recall())
        .unwrap();
    writeln!(section, "    \"k_limit_apps\": {},", d.k_limit.apps).unwrap();
    writeln!(section, "    \"k_limit_tripped\": {},", d.k_limit.tripped).unwrap();
    writeln!(section, "    \"k_limit_precise\": {},", d.k_limit.precise).unwrap();
    writeln!(section, "    \"icc_linked_apps\": {},", icc.apps).unwrap();
    writeln!(section, "    \"icc_linked_ok\": {},", icc.ok()).unwrap();
    writeln!(section, "    \"daemon_apps\": {},", rpks.len()).unwrap();
    writeln!(section, "    \"daemon_mismatches\": {daemon_mismatches},").unwrap();
    writeln!(section, "    \"daemon_external_ok\": {daemon_external_ok},").unwrap();
    writeln!(section, "    \"policy_denied_works\": {policy_denied_works}").unwrap();
    write!(section, "  }}").unwrap();

    let json = splice_tail_section(out_path, "ground_truth", &section, apps.len(), cores);
    std::fs::write(out_path, &json).expect("write ground-truth section");
    eprintln!("wrote {out_path} (ground_truth section)");
    eprint!("{}", d.board.render());

    let mut failed = false;
    let mut fail = |msg: &str| {
        eprintln!("FAIL: {msg}");
        failed = true;
    };
    if d.divergent_pairs != 0 {
        fail("engine matrix: pairwise report divergence");
        for row in &d.agreement {
            eprintln!("  agreement: {row:?}");
        }
    }
    if !d.drift.is_empty() {
        fail("ground-truth drift: reference engine disagrees with a manifest");
        for line in &d.drift {
            eprintln!("  drift: {line}");
        }
    }
    if d.constructive.fp != 0 || d.constructive.fn_ != 0 {
        fail("constructive corpus: precision/recall below 1.0");
    }
    if !d.k_limit.ok() {
        fail("widening apps never tripped the access-path k-limit");
    }
    if !icc.ok() {
        fail("linked-ICC leak counts diverged from the manifests");
        for line in &icc.mismatches {
            eprintln!("  icc: {line}");
        }
    }
    if !daemon_external_ok {
        fail("daemon leg: an externally served .rpk diverged from the local run");
    }
    if !policy_denied_works {
        fail("path policy accepted an archive outside the allow root");
    }
    if failed {
        std::process::exit(1);
    }
}
