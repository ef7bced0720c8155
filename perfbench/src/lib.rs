#![warn(missing_docs)]

//! `perfbench`: a wire-level benchmark of the FlowDroid pipeline.
//!
//! An end-to-end run ([`run`] with `trace: false`) generates one
//! workload's pool of `.rpk` apps from a seed, boots `flowdroid serve`
//! with one worker, and drives it over the line-delimited JSON protocol
//! from one closed-loop client connection for a fixed time, sending the
//! pool round after round. Every result is checked against the leak
//! count its app has by construction. Every time is scaled to a quiet
//! host by a reference unit timed between jobs ([`host`]); see
//! `README.md` for why.
//!
//! A traced run (`trace: true`) drives the daemon for half the time to
//! collect the service-side numbers, then replays the jobs the daemon
//! served in-process, stage by stage under spans ([`trace`]), and once
//! more through the untraced `Infoflow::analyze_app` call; the traced,
//! untraced and daemon reports must agree byte for byte.
//!
//! See `README.md` for the workloads, the metrics and how to read a
//! trace.

pub mod cpu;
pub mod daemon;
pub mod host;
pub mod inputs;
pub mod load;
pub mod stats;
pub mod trace;

pub use daemon::Launcher;
pub use inputs::Workload;

use daemon::{DaemonConfig, Running};
use flowdroid_android::{build_snapshot, save_snapshot, PlatformSnapshot};
use inputs::Inputs;
use load::{AppFiles, Phase};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::{Replayer, StagedJob, Tracer};

/// End-to-end metrics (untraced runs): name and unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("job_mean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.self_us", "us"),
    ("frontend.allocs", "count"),
    ("frontend.alloc_bytes", "B"),
    ("frontend.archive_bytes", "B"),
    ("frontend.classes", "count"),
    ("android.overlay_us", "us"),
    ("android.entry_model_us", "us"),
    ("android.dummy_main_us", "us"),
    ("android.allocs", "count"),
    ("android.alloc_bytes", "B"),
    ("callgraph.materialize_us", "us"),
    ("callgraph.bodies_materialized", "count"),
    ("callgraph.bodies_skipped", "count"),
    ("callgraph.reachable_methods", "count"),
    ("callgraph.allocs", "count"),
    ("core.run_us", "us"),
    ("core.fixpoint_us", "us"),
    ("core.other_us", "us"),
    ("core.forward_propagations", "count"),
    ("core.backward_propagations", "count"),
    ("core.propagations_per_s", "1/s"),
    ("core.distinct_facts", "count"),
    ("core.table_rows", "count"),
    ("core.allocs", "count"),
    ("core.leaks", "count"),
    ("report.us", "us"),
    ("report.bytes", "B"),
    ("teardown.us", "us"),
    ("service.admit_us", "us"),
    ("service.setup_us", "us"),
    ("service.dataflow_us", "us"),
    ("service.platform_clone_us", "us"),
    ("service.residual_us", "us"),
    ("cg_cache.hits", "count"),
    ("cg_cache.misses", "count"),
    ("cg_cache.hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Daemon boots per end-to-end run; `setup_s` is their median. A boot
/// takes about 1 ms, mostly process start-up, and single boots vary by
/// half that. Over ten runs, the median of 21 boots had a quartile
/// spread of 0.13 and that of 101 boots 0.10: the scaling tracks process
/// start-up less closely than it tracks the analysis.
const SETUP_BOOTS: usize = 101;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase (split in half on traced runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the run's files (removed after the run) and trace
    /// files.
    pub work_root: PathBuf,
}

/// One run's results.
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Values of [`END_TO_END`] or [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Jobs submitted (and, on traced runs, jobs replayed).
    pub attempted: u64,
    /// Submissions that were refused, errored, aborted or lost.
    pub failed: u64,
    /// Jobs whose leak count differs from the known answer, plus
    /// replayed jobs whose traced, untraced and daemon reports differ.
    pub verdict_errors: u64,
    /// Median time of the host-speed reference unit over the timed
    /// phase, in µs (end-to-end runs).
    pub reference_us: Option<f64>,
}

impl Outcome {
    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.verdict_errors == 0
    }

    /// The value of the metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// The result as one JSON line: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table, including the correctness counters.
    pub fn table(&self) -> String {
        let mut out = format!("== {}\n", self.workload.name());
        for (name, unit, v) in &self.metrics {
            writeln!(out, "  {name:<32} {v:>16.4} {unit}")
                .expect("writing to a String cannot fail");
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            out,
            "  {:<32} {:>16} count",
            "verdict_errors", self.verdict_errors
        )
        .and_then(|()| writeln!(out, "  {:<32} {failed_ratio:>16.4} ratio", "failed_ratio"))
        .and_then(|()| writeln!(out, "  {:<32} {:>16} count", "attempted", self.attempted))
        .expect("writing to a String cannot fail");
        if let Some(us) = self.reference_us {
            writeln!(
                out,
                "  {:<32} {us:>16.1} us (nominal {})",
                "host.reference_us",
                host::NOMINAL_US
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// JSON has no NaN or infinity; a metric with no samples reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The run's private work directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, workload: Workload) -> io::Result<WorkDir> {
        let dir = root.join(format!("run-{}-{}", std::process::id(), workload.name()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("apps"))?;
        Ok(WorkDir(dir.canonicalize()?))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload once.
///
/// # Errors
///
/// Fails when the work directory, the platform snapshot or the pool's
/// files cannot be written, or the daemon cannot be started, probed or
/// stopped; failed jobs are counted, not raised.
pub fn run(opts: &RunOptions, launcher: &Launcher) -> io::Result<Outcome> {
    let work = WorkDir::create(&opts.work_root, opts.workload)?;
    let snapshot = build_snapshot();
    let snapshot_path = work.0.join("platform.fdps");
    save_snapshot(&snapshot_path, &snapshot)?;
    let inputs = inputs::generate(opts.workload, opts.seed);
    let mut files = AppFiles::write(&work.0.join("apps"), &inputs)?;
    // A spawned daemon and the load generator share the first CPU this
    // process may use until the run ends, so that the host-speed samples
    // are taken where the daemon runs: every daemon is spawned from this
    // thread and inherits its placement.
    let _pinned = match launcher {
        Launcher::Binary(_) => {
            let cpu = *cpu::allowed()?
                .first()
                .ok_or_else(|| io::Error::other("no usable CPU"))?;
            Some(cpu::pin_current_thread(cpu)?)
        }
        Launcher::InProcess => None,
    };
    let cfg = DaemonConfig {
        // Relative to the working directory: a Unix socket path must stay
        // short, and the work directory's absolute path may not.
        socket: opts.work_root.join(format!(
            "d-{}-{}.sock",
            std::process::id(),
            opts.workload.name()
        )),
        snapshot: snapshot_path,
        allow_apps: work.0.join("apps"),
    };
    let seconds = Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        traced(
            opts,
            launcher,
            &cfg,
            &inputs,
            &mut files,
            &snapshot,
            seconds / 2,
        )
    } else {
        end_to_end(opts, launcher, &cfg, &inputs, &mut files, seconds)
    }
}

/// Jobs whose leak count differs from their app's known answer.
fn verdict_errors(inputs: &Inputs, phase: &Phase) -> u64 {
    phase
        .records
        .iter()
        .filter(|r| r.result.leaks != inputs.apps[r.app].expected)
        .count() as u64
}

/// Each job kind's median latency in `records`, in ms, scaled to the
/// quiet host by the host-speed samples around each job, for every kind
/// that completed at least once.
fn kind_latencies(phase: &Phase, kinds: usize) -> Vec<f64> {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    for r in &phase.records {
        by_kind[r.app].push(r.latency.as_secs_f64() * 1e3 * phase.speed.scale(r.speed_at));
    }
    by_kind
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .collect()
}

fn end_to_end(
    opts: &RunOptions,
    launcher: &Launcher,
    cfg: &DaemonConfig,
    inputs: &Inputs,
    files: &mut AppFiles,
    seconds: Duration,
) -> io::Result<Outcome> {
    // Every boot binds the same socket path, so each daemon but the last
    // is stopped before the next one starts; the last one serves. A
    // host-speed sample precedes every boot and follows the last.
    let mut speed = host::SpeedLog::default();
    let mut boots = Vec::with_capacity(SETUP_BOOTS);
    let mut daemon = None;
    for i in 0..SETUP_BOOTS {
        let at = speed.sample();
        let (d, took) = Running::boot(launcher, cfg)?;
        boots.push((took.as_secs_f64(), at));
        if i + 1 < SETUP_BOOTS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    speed.sample();
    let boots: Vec<f64> = boots.iter().map(|&(s, at)| s * speed.scale(at)).collect();
    let daemon = daemon.expect("SETUP_BOOTS > 0");
    let warm = load::drive(daemon.addr(), files, 0..inputs.apps.len(), None, None);
    // The daemon keeps every job it has prepared, so on the fresh
    // workloads its memory grows with the jobs done; reading it after a
    // fixed number of jobs keeps a faster daemon from reading as a
    // fatter one.
    let status = daemon.status_path();
    let phase = load::drive(
        daemon.addr(),
        files,
        inputs.order(),
        Some(seconds),
        Some((&status, inputs.rss_after)),
    );
    let peak_rss_mb = match phase.rss_mb {
        Some(mb) => mb,
        None => daemon::peak_rss_mb(&status)?,
    };
    daemon.shutdown()?;

    let kinds = kind_latencies(&phase, inputs.apps.len());
    let values = [
        stats::median(&boots),
        stats::percentile(&kinds, 0.5),
        stats::percentile(&kinds, 0.9),
        kinds.iter().sum::<f64>() / kinds.len().max(1) as f64,
        peak_rss_mb,
    ];
    Ok(Outcome {
        workload: opts.workload,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        attempted: warm.attempted + phase.attempted,
        failed: warm.failed + phase.failed,
        verdict_errors: verdict_errors(inputs, &warm) + verdict_errors(inputs, &phase),
        reference_us: Some(phase.speed.median_us()),
    })
}

fn traced(
    opts: &RunOptions,
    launcher: &Launcher,
    cfg: &DaemonConfig,
    inputs: &Inputs,
    files: &mut AppFiles,
    snapshot: &PlatformSnapshot,
    half: Duration,
) -> io::Result<Outcome> {
    let (daemon, _) = Running::boot(launcher, cfg)?;
    let warm = load::drive(daemon.addr(), files, 0..inputs.apps.len(), None, None);
    let phase = load::drive(daemon.addr(), files, inputs.order(), Some(half), None);
    daemon.shutdown()?;
    let mut verdicts = verdict_errors(inputs, &warm) + verdict_errors(inputs, &phase);

    // Replay the served jobs in completion order for the other half.
    let replayer = Replayer::new(snapshot);
    let mut tracer = Tracer::default();
    let mut replays: Vec<StagedJob> = Vec::new();
    let mut untraced = Duration::ZERO;
    let end = std::time::Instant::now() + half;
    for (job, r) in phase.records.iter().enumerate() {
        if job > 0 && std::time::Instant::now() >= end {
            break;
        }
        let app = &inputs.apps[r.app];
        let name = format!("a{}", r.app);
        let staged = replayer.staged(&mut tracer, job as u32, &app.bytes, &name)?;
        let (report, wall) = replayer.untraced(&app.bytes, &name)?;
        let agree = staged.report == report
            && trace::without_name(&report) == trace::without_name(&r.result.report);
        verdicts += u64::from(!agree || staged.leaks != app.expected);
        untraced += wall;
        replays.push(staged);
    }
    std::fs::write(
        opts.work_root.join(format!(
            "trace-{}-s{}.json",
            opts.workload.name(),
            opts.seed
        )),
        tracer.to_json(opts.workload.name(), opts.seed),
    )?;

    let values = layer_values(&tracer, &replays, untraced, &phase);
    Ok(Outcome {
        workload: opts.workload,
        metrics: PER_LAYER
            .iter()
            .map(|&(n, u)| {
                (
                    n,
                    u,
                    values
                        .get(n)
                        .copied()
                        .expect("every per-layer metric is computed"),
                )
            })
            .collect(),
        attempted: warm.attempted + phase.attempted + replays.len() as u64,
        failed: warm.failed + phase.failed,
        verdict_errors: verdicts,
        reference_us: None,
    })
}

/// Computes every [`PER_LAYER`] metric: span self costs and replay
/// counters as means per replayed job, daemon-side numbers as means per
/// served job, cache counters as totals over the timed phase.
fn layer_values(
    tracer: &Tracer,
    replays: &[StagedJob],
    untraced: Duration,
    phase: &Phase,
) -> HashMap<&'static str, f64> {
    let jobs = replays.len().max(1) as f64;
    let mut by_name: HashMap<&str, trace::SelfCost> = HashMap::new();
    let (mut staged_ns, mut stage_ns) = (0u64, 0u64);
    for (span, cost) in tracer.spans().iter().zip(tracer.self_costs()) {
        let total = by_name.entry(span.name).or_default();
        total.ns += cost.ns;
        total.allocs += cost.allocs;
        total.alloc_bytes += cost.alloc_bytes;
        let duration = span.end_ns - span.start_ns;
        if span.parent.is_none() {
            staged_ns += duration;
        } else {
            stage_ns += duration;
        }
    }
    let cost = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let us = |name: &str| cost(name).ns as f64 / 1e3 / jobs;
    let allocs = |names: &[&str]| names.iter().map(|n| cost(n).allocs).sum::<u64>() as f64 / jobs;
    let bytes =
        |names: &[&str]| names.iter().map(|n| cost(n).alloc_bytes).sum::<u64>() as f64 / jobs;
    let per_job = |f: fn(&StagedJob) -> u64| replays.iter().map(f).sum::<u64>() as f64 / jobs;
    let fixpoint: Duration = replays.iter().map(|j| j.fixpoint).sum();
    let propagations: u64 = replays
        .iter()
        .map(|j| j.forward_propagations + j.backward_propagations)
        .sum();
    let android = [
        "android.overlay",
        "android.entry_model",
        "android.dummy_main",
    ];
    let fixpoint_us = fixpoint.as_secs_f64() * 1e6 / jobs;

    let served = phase.records.len().max(1) as f64;
    let mean =
        |f: &dyn Fn(&load::JobRecord) -> f64| phase.records.iter().map(f).sum::<f64>() / served;
    let total = |f: &dyn Fn(&flowdroid_service::JobResult) -> u64| {
        phase.records.iter().map(|r| f(&r.result)).sum::<u64>() as f64
    };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let cg_hits = total(&|r| r.callgraph_cache_hits);
    let cg_misses = total(&|r| r.callgraph_cache_misses);

    HashMap::from([
        ("frontend.self_us", us("frontend")),
        ("frontend.allocs", allocs(&["frontend"])),
        ("frontend.alloc_bytes", bytes(&["frontend"])),
        ("frontend.archive_bytes", per_job(|j| j.archive_bytes)),
        ("frontend.classes", per_job(|j| j.classes)),
        ("android.overlay_us", us("android.overlay")),
        ("android.entry_model_us", us("android.entry_model")),
        ("android.dummy_main_us", us("android.dummy_main")),
        ("android.allocs", allocs(&android)),
        ("android.alloc_bytes", bytes(&android)),
        ("callgraph.materialize_us", us("callgraph.materialize")),
        (
            "callgraph.bodies_materialized",
            per_job(|j| j.bodies_materialized),
        ),
        ("callgraph.bodies_skipped", per_job(|j| j.bodies_skipped)),
        (
            "callgraph.reachable_methods",
            per_job(|j| j.reachable_methods),
        ),
        ("callgraph.allocs", allocs(&["callgraph.materialize"])),
        ("core.run_us", us("core.run")),
        ("core.fixpoint_us", fixpoint_us),
        ("core.other_us", us("core.run") - fixpoint_us),
        (
            "core.forward_propagations",
            per_job(|j| j.forward_propagations),
        ),
        (
            "core.backward_propagations",
            per_job(|j| j.backward_propagations),
        ),
        (
            "core.propagations_per_s",
            propagations as f64 / fixpoint.as_secs_f64(),
        ),
        ("core.distinct_facts", per_job(|j| j.distinct_facts)),
        ("core.table_rows", per_job(|j| j.table_rows)),
        ("core.allocs", allocs(&["core.run"])),
        ("core.leaks", per_job(|j| j.leaks)),
        ("report.us", us("report")),
        ("report.bytes", per_job(|j| j.report.len() as u64)),
        ("teardown.us", us("teardown")),
        ("service.admit_us", mean(&|r| r.admit.as_secs_f64() * 1e6)),
        ("service.setup_us", mean(&|r| r.result.setup_us as f64)),
        (
            "service.dataflow_us",
            mean(&|r| r.result.dataflow_us as f64),
        ),
        (
            "service.platform_clone_us",
            mean(&|r| r.result.platform_clone_us as f64),
        ),
        (
            "service.residual_us",
            mean(&|r| {
                let res = &r.result;
                r.latency.as_secs_f64() * 1e6
                    - r.admit.as_secs_f64() * 1e6
                    - res.queue_ms as f64 * 1e3
                    - res.setup_us as f64
                    - res.dataflow_us as f64
            }),
        ),
        ("cg_cache.hits", cg_hits),
        ("cg_cache.misses", cg_misses),
        ("cg_cache.hit_ratio", ratio(cg_hits, cg_misses)),
        (
            "trace.overhead_ratio",
            staged_ns as f64 / untraced.as_nanos() as f64,
        ),
        ("trace.coverage", stage_ns as f64 / staged_ns as f64),
    ])
}

/// Per-metric median, quartile spread and range over repeated runs of
/// each workload, as a text table.
pub fn summarize(runs: &[Outcome]) -> String {
    let mut out = String::new();
    for w in Workload::ALL {
        let mine: Vec<&Outcome> = runs.iter().filter(|o| o.workload == w).collect();
        let Some(first) = mine.first() else { continue };
        writeln!(
            out,
            "== {} ({} runs)\n  {:<32} {:>14} {:>9} {:>14} {:>14}",
            w.name(),
            mine.len(),
            "metric",
            "median",
            "iqr/med",
            "min",
            "max"
        )
        .expect("writing to a String cannot fail");
        for &(name, unit, _) in &first.metrics {
            let v: Vec<f64> = mine.iter().filter_map(|o| o.metric(name)).collect();
            let (q1, med, q3) = stats::quartiles(&v);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            writeln!(
                out,
                "  {name:<32} {med:>14.4} {spread:>9.4} {min:>14.4} {max:>14.4} {unit}"
            )
            .expect("writing to a String cannot fail");
        }
        let errors: u64 = mine.iter().map(|o| o.verdict_errors).sum();
        let failed: u64 = mine.iter().map(|o| o.failed).sum();
        writeln!(out, "  verdict_errors {errors}, failed {failed}")
            .expect("writing to a String cannot fail");
    }
    out
}
