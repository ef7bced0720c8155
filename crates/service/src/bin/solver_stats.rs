//! Emits `BENCH_solver.json`: solver performance over the full
//! DroidBench + SecuriBench corpus, the scaling ladder and the seeded
//! ground-truth harness, in one document.
//!
//! Heap allocations are counted with a wrapping global allocator, as a
//! count and as the bytes they request (`alloc` size plus `realloc`
//! new size); each mode row gives `allocations`, `allocated_bytes` and
//! `allocations_per_propagation`, the run's allocations over its
//! forward plus backward propagations. The corpus runs twice, one app
//! at a time: `sequential-interned` parses each app straight into an
//! overlay of the platform snapshot and runs it from the parse (the
//! daemon's first run of a name), and `demand-lazy` prepares it and
//! runs it through the demand-driven frontend (SDEX encode, lazy decode
//! and body materialization: the daemon's second run). The lazy leak
//! report is compared byte-for-byte against the eager one and the lazy
//! run must skip at least one method body.
//!
//! The `ladder` section solves `stress/k` chains of growing `k` on
//! their own, counting allocations inside the taint analysis only, and
//! reports each rung's propagations, worklist pops (forward and
//! backward), table rows, allocations, bytes, `dataflow_ms` and
//! propagations per second. A rung fails when it requests more bytes
//! per propagation than its bound in `LADDER`, or pops another number
//! of forward edges than it pins.
//!
//! The `ground_truth` section runs the seeded synthetic corpus from
//! `flowdroid-truth`: it sweeps every engine configuration (from the
//! parse, lazy cold, lazy replayed setup) over the generated apps,
//! scores the reference engine per category against each app's
//! ground-truth manifest, probes the access-path k-limit on the
//! widening chains, re-checks the ICC pairs in linked mode, and
//! round-trips every packed `.rpk` through an in-process daemon under
//! the `--allow-apps` path policy (including a denied-path probe). It fails on any pairwise
//! report divergence, manifest drift, constructive-corpus imprecision,
//! missed k-limit trip, ICC mismatch, daemon/local report mismatch, or
//! policy failure.
//!
//! The document is written before the gates are checked; the binary
//! exits non-zero if any gate fails. Timings are reported, never gated.
//!
//! Usage: `solver_stats [output.json]` (default `BENCH_solver.json`).

use flowdroid_bench::driver::{
    analyze_micro, corpus_report, full_corpus, micro_program, run_corpus, run_single,
    run_single_lazy, stress_job, AppRun, CorpusJob, CorpusRun,
};
use flowdroid_core::{InfoflowConfig, TableStats};
use flowdroid_service::{Client, Daemon, DaemonOptions, Listen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation) made through the global
/// allocator and the bytes each requests. `Relaxed` is fine: the
/// counters publish no other data, and the counted runs are
/// single-threaded.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Zeroes the allocation counters.
fn reset_alloc_counters() {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ALLOCATED_BYTES.store(0, Ordering::Relaxed);
}

/// Allocations and bytes requested since the last reset.
fn alloc_counters() -> (u64, u64) {
    (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct ModeStats {
    name: &'static str,
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
    allocated_bytes: u64,
    distinct_facts: usize,
    distinct_aps: usize,
    provenance_nodes: usize,
    fact_tables: Option<TableStats>,
    report: String,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure(
    name: &'static str,
    jobs: &[CorpusJob],
    config: &InfoflowConfig,
    run_job: fn(&CorpusJob, &InfoflowConfig) -> AppRun,
) -> ModeStats {
    reset_alloc_counters();
    let run: CorpusRun = run_corpus(jobs, config, run_job);
    let (allocations, allocated_bytes) = alloc_counters();
    let (fw, bw) = run.total_propagations();
    let (materialized, skipped) = run.total_bodies();
    let app_time = run.total_app_time();
    let dataflow = run.total_dataflow_time();
    ModeStats {
        name,
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
        allocated_bytes,
        distinct_facts: run.total_distinct_facts(),
        distinct_aps: run.total_distinct_aps(),
        provenance_nodes: run.total_provenance_nodes(),
        fact_tables: run.fact_table_totals(),
        report: corpus_report(&run),
    }
}

/// The scaling ladder: each rung's chain length `k`, its forward pops
/// (pinned: each local is popped where it is defined and where it is
/// read, so 2k + 5) and the bytes its solve may request per
/// propagation. A row per (method, fact), sized once, requests 25.2,
/// 18.3 and 17.2 bytes; the statement-major table it replaced, whose
/// rows grew slot by slot, requested 30.2, 23.7 and 22.7.
const LADDER: [(usize, u64, f64); 3] = [(250, 505, 28.0), (1000, 2005, 21.0), (2000, 4005, 20.0)];

/// One rung of the scaling ladder: a `stress/k` chain solved on its
/// own, with allocations counted inside the taint analysis only
/// (callgraph, ICFG and solve; loading the program is not counted).
struct Rung {
    job: String,
    forward_propagations: u64,
    backward_propagations: u64,
    forward_pops: u64,
    backward_pops: u64,
    table_rows: u64,
    leaks: usize,
    solve_allocations: u64,
    solve_allocated_bytes: u64,
    dataflow_ms: f64,
}

impl Rung {
    fn propagations(&self) -> u64 {
        self.forward_propagations + self.backward_propagations
    }

    fn bytes_per_propagation(&self) -> f64 {
        self.solve_allocated_bytes as f64 / self.propagations().max(1) as f64
    }
}

fn measure_rung(k: usize, config: &InfoflowConfig) -> Rung {
    let job = stress_job(k);
    let (p, entry) = micro_program(&job).expect("stress jobs are micro cases");
    reset_alloc_counters();
    let results = analyze_micro(&p, entry, config);
    let (solve_allocations, solve_allocated_bytes) = alloc_counters();
    Rung {
        job: job.name,
        forward_propagations: results.forward_propagations,
        backward_propagations: results.backward_propagations,
        forward_pops: results.forward_pops,
        backward_pops: results.backward_pops,
        table_rows: results.fact_tables.map_or(0, |t| t.rows),
        leaks: results.leak_count(),
        solve_allocations,
        solve_allocated_bytes,
        dataflow_ms: ms(results.duration),
    }
}

fn rung_json(r: &Rung) -> String {
    let secs = r.dataflow_ms / 1e3;
    format!(
        concat!(
            "    {{ \"job\": \"{}\", \"forward_propagations\": {}, ",
            "\"backward_propagations\": {}, \"forward_pops\": {}, \"backward_pops\": {}, ",
            "\"table_rows\": {}, \"leaks\": {}, ",
            "\"solve_allocations\": {}, \"solve_allocated_bytes\": {}, ",
            "\"bytes_per_propagation\": {:.3}, \"dataflow_ms\": {:.3}, ",
            "\"propagations_per_s\": {:.0} }}"
        ),
        r.job,
        r.forward_propagations,
        r.backward_propagations,
        r.forward_pops,
        r.backward_pops,
        r.table_rows,
        r.leaks,
        r.solve_allocations,
        r.solve_allocated_bytes,
        r.bytes_per_propagation(),
        r.dataflow_ms,
        if secs > 0.0 { r.propagations() as f64 / secs } else { 0.0 }
    )
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
            "      \"allocated_bytes\": {},\n",
            "      \"allocations_per_propagation\": {:.3},\n",
            "      \"distinct_facts\": {},\n",
            "      \"distinct_aps\": {},\n",
            "      \"provenance_nodes\": {},\n",
            "      \"fact_tables\": {},\n",
            "      \"report_identical_to_baseline\": {}\n",
            "    }}"
        ),
        m.name,
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
        m.allocated_bytes,
        m.allocations as f64 / (m.forward_propagations + m.backward_propagations).max(1) as f64,
        m.distinct_facts,
        m.distinct_aps,
        m.provenance_nodes,
        fact_tables_json(&m.fact_tables),
        report_identical
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_solver.json",
        [path] if !path.starts_with('-') => path.as_str(),
        _ => {
            eprintln!("usage: solver_stats [output.json]");
            std::process::exit(1);
        }
    };

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = full_corpus();
    let droidbench = jobs.iter().filter(|j| j.name.starts_with("droidbench/")).count();
    let securibench = jobs.iter().filter(|j| j.name.starts_with("securibench/")).count();
    eprintln!(
        "corpus: {} apps ({droidbench} DroidBench, {securibench} SecuriBench, 1 InsecureBank)",
        jobs.len()
    );

    let config = InfoflowConfig::default();

    // The baseline the lazy report is compared against. Both mode names
    // are what verify.sh's regression gate looks up.
    eprintln!("running sequential-interned (runs from the parse) ...");
    let eager = measure("sequential-interned", &jobs, &config, run_single);
    // The demand-driven frontend: each job is encoded to SDEX, overlays
    // the shared platform snapshot and decodes only the method bodies
    // the callgraph closure reaches. Reports must stay byte-identical
    // to the run from the parse; the skipped-body count is what
    // laziness bought.
    eprintln!("running demand-lazy (lazy bodies) ...");
    let lazy = measure("demand-lazy", &jobs, &config, run_single_lazy);
    let reports_identical = lazy.report == eager.report;

    let ladder: Vec<Rung> = LADDER
        .iter()
        .map(|&(k, _, _)| {
            eprintln!("running ladder rung stress/{k} ...");
            measure_rung(k, &config)
        })
        .collect();

    let mut failures = Vec::new();
    let ground_truth = ground_truth(&mut failures);

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
    writeln!(json, "{},", mode_json(&eager, true)).unwrap();
    writeln!(json, "{}", mode_json(&lazy, reports_identical)).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"comparison\": {{").unwrap();
    writeln!(json, "    \"lazy_bodies_materialized\": {},", lazy.bodies_materialized).unwrap();
    writeln!(json, "    \"lazy_bodies_skipped\": {},", lazy.bodies_skipped).unwrap();
    writeln!(json, "    \"lazy_setup_ms\": {:.3},", lazy.setup_ms).unwrap();
    writeln!(json, "    \"reports_identical\": {reports_identical}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"ladder\": [").unwrap();
    let rungs: Vec<String> = ladder.iter().map(rung_json).collect();
    writeln!(json, "{}", rungs.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"ground_truth\": {ground_truth}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(out_path, &json).expect("write BENCH_solver.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if !reports_identical {
        failures.push("demand-lazy leak reports diverged from sequential-interned".to_string());
    }
    for (r, &(_, pops, max_bytes)) in ladder.iter().zip(&LADDER) {
        if r.bytes_per_propagation() > max_bytes {
            failures.push(format!(
                "ladder rung {} requested {} bytes for {} propagations \
                 ({:.1} per propagation, bound {max_bytes})",
                r.job,
                r.solve_allocated_bytes,
                r.propagations(),
                r.bytes_per_propagation()
            ));
        }
        if r.forward_pops != pops {
            failures.push(format!(
                "ladder rung {} popped {} forward edges, want {pops}",
                r.job, r.forward_pops
            ));
        }
    }
    if lazy.bodies_skipped == 0 {
        failures.push(format!(
            "demand-lazy mode decoded every body ({} materialized, 0 skipped)",
            lazy.bodies_materialized
        ));
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The seeded differential harness. Generates the synthetic corpus,
/// sweeps the full engine matrix, scores the reference engine against
/// the manifests, checks linked-ICC mode, and serves the packed `.rpk`
/// archives through an in-process daemon under the `--allow-apps` path
/// policy. Returns the `ground_truth` section and adds a line to
/// `failures` for each gate that fails (see the module docs).
fn ground_truth(failures: &mut Vec<String>) -> String {
    use flowdroid_service::{AnalyzeOptions, Submitted};
    use flowdroid_truth::{check_icc_linked, generate_corpus, run_differential};

    const SEED: u64 = 42;
    const PER_CATEGORY: usize = 2;

    let apps = generate_corpus(SEED, PER_CATEGORY);
    eprintln!(
        "ground-truth: differential sweep over {} generated apps (seed {SEED}) ...",
        apps.len()
    );

    let d = run_differential(&apps);

    eprintln!("ground-truth: linked-ICC re-check ...");
    let icc = check_icc_linked(&apps);

    // ---- Daemon leg: every archive served under the path policy ----
    eprintln!("ground-truth: daemon leg ({} .rpk archives) ...", apps.len());
    let root =
        std::env::temp_dir().join(format!("flowdroid-ground-truth-apps-{}", std::process::id()));
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
    // Leaks of the reference run that path reconstruction could not
    // trace to a source (reported, not gated: DESIGN.md §7 explains the
    // alias-injection gap behind them).
    let (mut reference_leaks, mut unattributed_leaks) = (0usize, 0usize);
    for (app, path) in &rpks {
        let (_, result) = c.analyze(path.to_str().unwrap(), None, None).expect("external job");
        let local = run_single(&app.job(), &InfoflowConfig::default());
        reference_leaks += local.leaks;
        unattributed_leaks += local.unattributed_leaks;
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
    let engine_names: Vec<String> = d.engines.iter().map(|e| format!("\"{}\"", e.name)).collect();
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
    writeln!(section, "    \"constructive_recall\": {:.4},", d.constructive.recall()).unwrap();
    writeln!(section, "    \"k_limit_apps\": {},", d.k_limit.apps).unwrap();
    writeln!(section, "    \"k_limit_tripped\": {},", d.k_limit.tripped).unwrap();
    writeln!(section, "    \"k_limit_precise\": {},", d.k_limit.precise).unwrap();
    writeln!(section, "    \"icc_linked_apps\": {},", icc.apps).unwrap();
    writeln!(section, "    \"icc_linked_ok\": {},", icc.ok()).unwrap();
    writeln!(section, "    \"daemon_apps\": {},", rpks.len()).unwrap();
    writeln!(section, "    \"daemon_mismatches\": {daemon_mismatches},").unwrap();
    writeln!(section, "    \"daemon_external_ok\": {daemon_external_ok},").unwrap();
    writeln!(section, "    \"reference_leaks\": {reference_leaks},").unwrap();
    writeln!(section, "    \"unattributed_leaks\": {unattributed_leaks},").unwrap();
    writeln!(section, "    \"policy_denied_works\": {policy_denied_works}").unwrap();
    write!(section, "  }}").unwrap();

    eprint!("{}", d.board.render());

    if d.divergent_pairs != 0 {
        failures.push("engine matrix: pairwise report divergence".to_string());
        for row in &d.agreement {
            eprintln!("  agreement: {row:?}");
        }
    }
    if !d.drift.is_empty() {
        failures.push("ground-truth drift: reference engine disagrees with a manifest".to_string());
        for line in &d.drift {
            eprintln!("  drift: {line}");
        }
    }
    if d.constructive.fp != 0 || d.constructive.fn_ != 0 {
        failures.push("constructive corpus: precision/recall below 1.0".to_string());
    }
    if !d.k_limit.ok() {
        failures.push("widening apps never tripped the access-path k-limit".to_string());
    }
    if !icc.ok() {
        failures.push("linked-ICC leak counts diverged from the manifests".to_string());
        for line in &icc.mismatches {
            eprintln!("  icc: {line}");
        }
    }
    if !daemon_external_ok {
        failures
            .push("daemon leg: an externally served .rpk diverged from the local run".to_string());
    }
    if !policy_denied_works {
        failures.push("path policy accepted an archive outside the allow root".to_string());
    }
    section
}
