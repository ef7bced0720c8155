//! Parallel corpus driver: fans the DroidBench and SecuriBench suites
//! across a `std::thread` pool, one whole app per work item.
//!
//! Each per-app analysis is single-threaded (the solver itself is
//! deterministic: intern ids are assigned in first-encounter order by
//! the sequential driver), so the only parallelism-induced
//! nondeterminism is *which worker* finishes first. The driver removes
//! it by sorting results by app name before reporting — the corpus
//! leak report ([`corpus_report`]) is byte-for-byte identical across
//! thread counts and runs.

use flowdroid_android::{build_snapshot, install_platform, PlatformSnapshot};
use flowdroid_core::{
    AbortReason, CgCache, Infoflow, InfoflowConfig, InfoflowResults, SourceSinkManager,
    TaintWrapper,
};
use flowdroid_droidbench::{all_apps, insecurebank, BenchApp};
use flowdroid_frontend::layout::{Layout, ResourceTable};
use flowdroid_frontend::manifest::Manifest;
use flowdroid_core::{SchedulerStats, SummaryCacheStats, TableStats};
use std::path::Path;
use flowdroid_frontend::{parse_jasm, sdex, App};
use flowdroid_ir::{FxHashMap, Program};
use flowdroid_securibench::{cases_in, Group, MicroCase, MICRO_DEFS, MICRO_ENV};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What kind of benchmark a corpus entry is.
enum JobKind {
    /// An Android app (DroidBench / InsecureBank): full pipeline with
    /// lifecycle model and dummy main.
    Droid(Box<BenchApp>),
    /// A SecuriBench Micro case: plain-Java analysis from an explicit
    /// `main` entry point.
    Micro(Box<MicroCase>),
    /// An app supplied from outside the built-in suites — a generated
    /// ground-truth app or an on-disk directory / `.rpk` archive the
    /// daemon was allowed to serve. Carries the raw artifacts
    /// (`App::from_parts` inputs) so the job owns its sources.
    External {
        /// `AndroidManifest.xml` text.
        manifest: String,
        /// `(layout name, layout XML)` pairs.
        layouts: Vec<(String, String)>,
        /// `classes.jasm` source text.
        code: String,
    },
}

/// One app (or micro case) of the corpus, with a unique stable name.
pub struct CorpusJob {
    /// Unique name (`droidbench/...`, `securibench/<group>/...`,
    /// `insecurebank`); the corpus report is sorted by it.
    pub name: String,
    kind: JobKind,
}

/// Wraps a DroidBench-style [`BenchApp`] as a corpus job under an
/// explicit name (the ground-truth harness names its generated apps by
/// scenario and seed).
pub fn droid_job(name: String, app: BenchApp) -> CorpusJob {
    CorpusJob { name, kind: JobKind::Droid(Box::new(app)) }
}

/// Wraps a SecuriBench-style [`MicroCase`] as a corpus job named after
/// the case.
pub fn micro_job(case: MicroCase) -> CorpusJob {
    CorpusJob { name: case.name.clone(), kind: JobKind::Micro(Box::new(case)) }
}

/// Wraps raw app artifacts (manifest, layouts, `jasm` code) as a corpus
/// job. `name` MUST be unique per *content*: the demand-driven frontend
/// caches the prepared SDEX image by job name for the process lifetime,
/// so callers loading arbitrary on-disk apps must fold a content hash
/// into the name (see the daemon's external-app loader).
pub fn external_job(
    name: String,
    manifest: String,
    layouts: Vec<(String, String)>,
    code: String,
) -> CorpusJob {
    CorpusJob { name, kind: JobKind::External { manifest, layouts, code } }
}

/// The full benchmark corpus: every DroidBench app (table and
/// supplementary), InsecureBank, and every SecuriBench Micro case.
pub fn full_corpus() -> Vec<CorpusJob> {
    let mut jobs = Vec::new();
    for app in all_apps() {
        jobs.push(CorpusJob {
            name: format!("droidbench/{:?}/{}", app.category, app.name),
            kind: JobKind::Droid(Box::new(app)),
        });
    }
    jobs.push(CorpusJob {
        name: "insecurebank".to_string(),
        kind: JobKind::Droid(Box::new(insecurebank::insecure_bank())),
    });
    for group in Group::all() {
        for case in cases_in(group) {
            jobs.push(CorpusJob {
                name: format!("securibench/{}/{}", group, case.name),
                kind: JobKind::Micro(Box::new(case)),
            });
        }
    }
    jobs
}

/// Only the DroidBench apps (plus InsecureBank) — the Android subset.
pub fn droidbench_corpus() -> Vec<CorpusJob> {
    full_corpus().into_iter().filter(|j| !j.name.starts_with("securibench/")).collect()
}

/// Resolves a job by its corpus name (`droidbench/<Category>/<App>`,
/// `securibench/<group>/<Case>`, `insecurebank`) or the synthetic
/// `stress/<K>` chain (see [`stress_job`]). Returns `None` for unknown
/// names.
pub fn find_job(name: &str) -> Option<CorpusJob> {
    if let Some(k) = name.strip_prefix("stress/") {
        return k.parse().ok().map(stress_job);
    }
    full_corpus().into_iter().find(|j| j.name == name)
}

/// A synthetic straight-line stress app, `stress/<k>`: `k` string
/// locals, each concatenated from its predecessor, between one source
/// and one sink. Every local's taint keeps propagating to the end of
/// the chain, so forward propagations grow roughly as `k²/2` — large
/// `k` yields an arbitrarily long-running but trivially checkable job
/// (exactly one leak), which is what the daemon's deadline and cancel
/// paths are exercised with.
pub fn stress_job(k: usize) -> CorpusJob {
    use std::fmt::Write;
    let k = k.clamp(2, 100_000);
    let mut body = String::new();
    body.push_str("    let s: java.lang.String\n");
    for i in 0..k {
        writeln!(body, "    let v{i}: java.lang.String").unwrap();
    }
    body.push_str("    s = staticinvoke <securibench.Env: java.lang.String source()>()\n");
    body.push_str("    v0 = s\n");
    for i in 1..k {
        writeln!(body, "    v{i} = v{} + v{}", i - 1, i - 1).unwrap();
    }
    writeln!(body, "    staticinvoke <securibench.Env: void sink(java.lang.String)>(v{})", k - 1)
        .unwrap();
    body.push_str("    return\n");
    let code = format!(
        "class stress.Chain extends java.lang.Object {{\n  static method main() -> void {{\n{body}  }}\n}}\n"
    );
    let case = MicroCase {
        name: format!("stress/{k}"),
        group: Group::Basic,
        expected_leaks: 1,
        planned_fps: 0,
        planned_miss: false,
        code,
        entry_class: "stress.Chain".to_string(),
    };
    CorpusJob { name: format!("stress/{k}"), kind: JobKind::Micro(Box::new(case)) }
}

/// The process-wide platform snapshot lazy runs start from: built once,
/// then cheaply cloned per job. The daemon builds (or loads) its own
/// snapshot and passes it to [`run_single_lazy`] directly; this
/// accessor backs standalone [`run_single`] calls with
/// `config.lazy_frontend` set.
pub fn shared_platform_snapshot() -> &'static Arc<PlatformSnapshot> {
    static SNAP: OnceLock<Arc<PlatformSnapshot>> = OnceLock::new();
    SNAP.get_or_init(|| Arc::new(build_snapshot()))
}

/// The built-in Android source/sink list, parsed once per process.
/// Apps with password fields get a private clone (see
/// [`Infoflow::analyze_app`]); everything else borrows this one.
fn android_sources() -> &'static SourceSinkManager {
    static SOURCES: OnceLock<SourceSinkManager> = OnceLock::new();
    SOURCES.get_or_init(SourceSinkManager::default_android)
}

/// The SecuriBench Micro source/sink list, parsed once per process.
fn micro_sources() -> &'static SourceSinkManager {
    static SOURCES: OnceLock<SourceSinkManager> = OnceLock::new();
    SOURCES.get_or_init(|| SourceSinkManager::parse(MICRO_DEFS).expect("micro defs parse"))
}

/// The built-in wrapper rules, parsed once per process.
fn default_wrapper() -> &'static TaintWrapper {
    static WRAPPER: OnceLock<TaintWrapper> = OnceLock::new();
    WRAPPER.get_or_init(TaintWrapper::default_rules)
}

/// A corpus job pre-lowered for the demand-driven frontend: the app's
/// code encoded as an SDEX image (so method bodies have a byte index to
/// defer to) plus the non-code artifacts, parsed once and cloned per
/// run. Corpus apps are authored in `jasm` text, which has no body
/// index — this registry is what makes `bodies_skipped` possible on
/// them.
enum Prepared {
    /// An Android app: everything [`App::from_archive_lazy`] would
    /// produce, split so the job program only pays for lazy SDEX decode.
    Droid {
        manifest: Manifest,
        layouts: FxHashMap<String, Layout>,
        resources: ResourceTable,
        sdex: Arc<[u8]>,
    },
    /// A SecuriBench Micro case: env + case classes, one entry class.
    Micro { sdex: Arc<[u8]>, entry_class: String },
}

/// A [`Prepared`] job plus its fingerprint: FNV-1a 64 over the platform
/// snapshot checksum and the SDEX bytes. The same transitive-hash
/// discipline as the summary store — repeat jobs replay a cached
/// callgraph only when both the app bytes and the platform they were
/// computed against are unchanged.
struct PreparedJob {
    fingerprint: u64,
    form: Prepared,
}

/// FNV-1a 64 over the platform fingerprint and the app's SDEX image.
fn app_fingerprint(platform_fingerprint: u64, sdex: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in platform_fingerprint.to_le_bytes().into_iter().chain(sdex.iter().copied()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Returns the cached [`PreparedJob`] form of `job`, encoding it on
/// first use. Keyed by the job's unique name; preparation is
/// deterministic, so a racing duplicate insert is harmless (first one
/// wins).
fn prepared_for(job: &CorpusJob, snapshot: &PlatformSnapshot) -> Arc<PreparedJob> {
    static REG: OnceLock<Mutex<FxHashMap<String, Arc<PreparedJob>>>> = OnceLock::new();
    let reg = REG.get_or_init(|| Mutex::new(FxHashMap::default()));
    if let Some(p) = reg.lock().unwrap().get(&job.name) {
        return p.clone();
    }
    let prepared = Arc::new(prepare(job, snapshot));
    reg.lock().unwrap().entry(job.name.clone()).or_insert(prepared).clone()
}

/// Parses a job's `jasm` text against a scratch platform program and
/// encodes the app classes into an SDEX image.
fn prepare(job: &CorpusJob, snapshot: &PlatformSnapshot) -> PreparedJob {
    let mut scratch = snapshot.overlay_program();
    match &job.kind {
        JobKind::Droid(app) => {
            let loaded = app.load(&mut scratch).expect("suite app parses");
            let sdex: Arc<[u8]> = sdex::encode(&scratch, &loaded.classes).into();
            PreparedJob {
                fingerprint: app_fingerprint(snapshot.fingerprint, &sdex),
                form: Prepared::Droid {
                    manifest: loaded.manifest,
                    layouts: loaded.layouts,
                    resources: loaded.resources,
                    sdex,
                },
            }
        }
        JobKind::Micro(case) => {
            let rt = ResourceTable::new();
            let mut classes = parse_jasm(&mut scratch, &rt, MICRO_ENV).expect("micro env parses");
            classes
                .extend(parse_jasm(&mut scratch, &rt, &case.code).expect("micro case parses"));
            let sdex: Arc<[u8]> = sdex::encode(&scratch, &classes).into();
            PreparedJob {
                fingerprint: app_fingerprint(snapshot.fingerprint, &sdex),
                form: Prepared::Micro { sdex, entry_class: case.entry_class.clone() },
            }
        }
        JobKind::External { manifest, layouts, code } => {
            let refs: Vec<(&str, &str)> =
                layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
            let loaded = App::from_parts(&mut scratch, manifest, &refs, code)
                .expect("external app parses");
            let sdex: Arc<[u8]> = sdex::encode(&scratch, &loaded.classes).into();
            PreparedJob {
                fingerprint: app_fingerprint(snapshot.fingerprint, &sdex),
                form: Prepared::Droid {
                    manifest: loaded.manifest,
                    layouts: loaded.layouts,
                    resources: loaded.resources,
                    sdex,
                },
            }
        }
    }
}

/// The outcome of analyzing one corpus entry.
pub struct AppRun {
    /// The job's name.
    pub name: String,
    /// Leaks reported.
    pub leaks: usize,
    /// Deterministic per-app leak report (header + sorted leak lines).
    pub report: String,
    /// Forward path-edge propagations.
    pub forward_propagations: u64,
    /// Backward (alias) path-edge propagations.
    pub backward_propagations: u64,
    /// Distinct facts interned.
    pub distinct_facts: usize,
    /// Distinct access paths interned.
    pub distinct_aps: usize,
    /// Whole-pipeline duration for this app (parse + model + call
    /// graph + data flow).
    pub total: Duration,
    /// Data-flow (solver) phase duration only.
    pub dataflow: Duration,
    /// Work-stealing scheduler counters (parallel taint engine only).
    pub scheduler: Option<SchedulerStats>,
    /// Tabulation-table density/widening counters (absent when the
    /// tables recorded no row and the interner widened nothing).
    pub fact_tables: Option<TableStats>,
    /// Summary-cache counters (persistent summary store only).
    pub summary_cache: Option<SummaryCacheStats>,
    /// Whether the run aborted before the fixpoint (budget, deadline or
    /// cancellation); the report is then a lower bound.
    pub aborted: bool,
    /// Why the run aborted, when [`AppRun::aborted`] is set.
    pub abort_reason: Option<AbortReason>,
    /// Method bodies the demand-driven frontend decoded for this job
    /// (0 on eager runs, where everything is decoded at parse time).
    pub bodies_materialized: u64,
    /// Method bodies left pending — indexed but never decoded because
    /// the callgraph closure never reached them (0 on eager runs).
    pub bodies_skipped: u64,
    /// Microseconds spent producing the job's private program from the
    /// shared platform snapshot (copy-on-write overlay on lazy runs; 0
    /// on eager runs, which build the platform from scratch).
    pub platform_clone_us: u64,
    /// Whether the job's analysis setup came from a callgraph cache:
    /// `None` when no cache was offered, else hit (`true`) / miss.
    pub cg_cache_hit: Option<bool>,
}

impl AppRun {
    /// Everything before the data-flow phase: parse/decode, entry-point
    /// model, dummy main and call-graph construction.
    pub fn setup(&self) -> Duration {
        self.total.saturating_sub(self.dataflow)
    }
}

/// Renders the deterministic per-app leak report: one header line plus
/// one sorted line per leak (`source line -> sink line  taint`).
fn leak_report(name: &str, results: &InfoflowResults, p: &Program) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "== {name}: {} leak(s)", results.leak_count()).unwrap();
    let mut lines: Vec<String> = results
        .leaks
        .iter()
        .map(|l| format!("  {} -> {}  {}", l.source_line(p), l.sink_line(p), l.taint))
        .collect();
    lines.sort();
    for line in lines {
        writeln!(out, "{line}").unwrap();
    }
    out
}

/// Analyzes one corpus job with `config` (including any configured
/// abort handle / summary cache) and returns its outcome. This is the
/// unit the analysis daemon schedules on its worker pool.
///
/// With `config.lazy_frontend` set the job runs through
/// [`run_single_lazy`] against the process-wide platform snapshot;
/// leak reports are byte-identical either way.
pub fn run_single(job: &CorpusJob, config: &InfoflowConfig) -> AppRun {
    if config.lazy_frontend {
        return run_single_lazy(job, config, shared_platform_snapshot(), None);
    }
    let start = Instant::now();
    let (results, report) = match &job.kind {
        JobKind::Droid(app) => {
            let mut p = Program::new();
            let platform = install_platform(&mut p);
            let loaded = app.load(&mut p).expect("suite app parses");
            let analysis = Infoflow::new(android_sources(), default_wrapper(), config)
                .analyze_app(&mut p, &platform, &loaded, "corpus");
            let report = leak_report(&job.name, &analysis.results, &p);
            (analysis.results, report)
        }
        JobKind::Micro(case) => {
            let mut p = Program::new();
            install_platform(&mut p);
            let rt = ResourceTable::new();
            parse_jasm(&mut p, &rt, MICRO_ENV).expect("micro env parses");
            parse_jasm(&mut p, &rt, &case.code).expect("micro case parses");
            let entry = p.find_method(&case.entry_class, "main").expect("micro entry");
            let infoflow = Infoflow::new(micro_sources(), default_wrapper(), config);
            let results = infoflow.run(&p, &[entry]);
            let report = leak_report(&job.name, &results, &p);
            (results, report)
        }
        JobKind::External { manifest, layouts, code } => {
            let mut p = Program::new();
            let platform = install_platform(&mut p);
            let refs: Vec<(&str, &str)> =
                layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
            let loaded =
                App::from_parts(&mut p, manifest, &refs, code).expect("external app parses");
            let analysis = Infoflow::new(android_sources(), default_wrapper(), config)
                .analyze_app(&mut p, &platform, &loaded, "corpus");
            let report = leak_report(&job.name, &analysis.results, &p);
            (analysis.results, report)
        }
    };
    finish_run(job, start, results, report, 0, 0, 0, None)
}

/// Analyzes one corpus job through the demand-driven frontend: the job
/// program starts as a copy-on-write overlay over `snapshot`'s shared
/// platform base (no platform rebuild, no deep clone), app code is
/// installed via lazy SDEX decode, and only callgraph-reachable method
/// bodies are materialized. This is the warm path the analysis daemon
/// runs per job.
///
/// When `cg_cache` is given, the per-app entry-point model, reachable
/// closure and callgraph are served from (and recorded into) it, keyed
/// by job name and validated against the app+platform fingerprint; leak
/// reports are byte-identical with or without the cache.
pub fn run_single_lazy(
    job: &CorpusJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
    cg_cache: Option<&CgCache>,
) -> AppRun {
    run_single_lazy_impl(job, config, snapshot, cg_cache, false)
}

/// Like [`run_single_lazy`], but deep-clones the platform program
/// instead of overlaying it — the comparison path determinism tests use
/// to prove the overlay representation cannot influence results.
pub fn run_single_lazy_deep_clone(
    job: &CorpusJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
) -> AppRun {
    run_single_lazy_impl(job, config, snapshot, None, true)
}

fn run_single_lazy_impl(
    job: &CorpusJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
    cg_cache: Option<&CgCache>,
    deep_clone: bool,
) -> AppRun {
    let start = Instant::now();
    let prepared = prepared_for(job, snapshot);
    let clone_start = Instant::now();
    let mut p = if deep_clone { snapshot.deep_program() } else { snapshot.overlay_program() };
    let platform_clone_us = u64::try_from(clone_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut cache_hit = None;
    let (results, report) = match &prepared.form {
        Prepared::Droid { manifest, layouts, resources, sdex } => {
            let classes =
                sdex::decode_lazy(&mut p, sdex.clone()).expect("prepared sdex image loads");
            let loaded = App {
                manifest: manifest.clone(),
                layouts: layouts.clone(),
                resources: resources.clone(),
                classes,
            };
            let infoflow = Infoflow::new(android_sources(), default_wrapper(), config);
            let analysis = match cg_cache {
                Some(cache) => {
                    let (analysis, hit) = infoflow.analyze_app_cached(
                        &mut p,
                        &snapshot.info,
                        &loaded,
                        "corpus",
                        cache,
                        &job.name,
                        prepared.fingerprint,
                    );
                    cache_hit = Some(hit);
                    analysis
                }
                None => infoflow.analyze_app(&mut p, &snapshot.info, &loaded, "corpus"),
            };
            let report = leak_report(&job.name, &analysis.results, &p);
            (analysis.results, report)
        }
        Prepared::Micro { sdex, entry_class } => {
            sdex::decode_lazy(&mut p, sdex.clone()).expect("prepared sdex image loads");
            let entry = p.find_method(entry_class, "main").expect("micro entry");
            let infoflow = Infoflow::new(micro_sources(), default_wrapper(), config);
            let results = match cg_cache {
                Some(cache) => {
                    let (results, hit) = infoflow.run_demand_cached(
                        &mut p,
                        &[entry],
                        cache,
                        &job.name,
                        prepared.fingerprint,
                    );
                    cache_hit = Some(hit);
                    results
                }
                None => infoflow.run_demand(&mut p, &[entry]),
            };
            let report = leak_report(&job.name, &results, &p);
            (results, report)
        }
    };
    let materialized = p.bodies_materialized();
    let skipped = p.pending_body_count() as u64;
    finish_run(job, start, results, report, materialized, skipped, platform_clone_us, cache_hit)
}

#[allow(clippy::too_many_arguments)]
fn finish_run(
    job: &CorpusJob,
    start: Instant,
    results: InfoflowResults,
    report: String,
    bodies_materialized: u64,
    bodies_skipped: u64,
    platform_clone_us: u64,
    cg_cache_hit: Option<bool>,
) -> AppRun {
    AppRun {
        name: job.name.clone(),
        leaks: results.leak_count(),
        report,
        forward_propagations: results.forward_propagations,
        backward_propagations: results.backward_propagations,
        distinct_facts: results.distinct_facts,
        distinct_aps: results.distinct_aps,
        total: start.elapsed(),
        dataflow: results.duration,
        scheduler: results.scheduler.clone(),
        fact_tables: results.fact_tables,
        summary_cache: results.summary_cache.clone(),
        aborted: results.aborted,
        abort_reason: results.abort_reason,
        bodies_materialized,
        bodies_skipped,
        platform_clone_us,
        cg_cache_hit,
    }
}

/// The outcome of one corpus run.
pub struct CorpusRun {
    /// Per-app outcomes, sorted by app name.
    pub apps: Vec<AppRun>,
    /// Wall-clock time of the whole fan-out.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl CorpusRun {
    /// Total leaks across the corpus.
    pub fn total_leaks(&self) -> usize {
        self.apps.iter().map(|a| a.leaks).sum()
    }

    /// Total (forward, backward) propagations across the corpus.
    pub fn total_propagations(&self) -> (u64, u64) {
        let fw = self.apps.iter().map(|a| a.forward_propagations).sum();
        let bw = self.apps.iter().map(|a| a.backward_propagations).sum();
        (fw, bw)
    }

    /// Sum of per-app whole-pipeline durations (CPU-ish time; with one
    /// thread this approximates [`CorpusRun::wall`]).
    pub fn total_app_time(&self) -> Duration {
        self.apps.iter().map(|a| a.total).sum()
    }

    /// Sum of per-app data-flow phase durations.
    pub fn total_dataflow_time(&self) -> Duration {
        self.apps.iter().map(|a| a.dataflow).sum()
    }

    /// Total distinct facts interned across the corpus.
    pub fn total_distinct_facts(&self) -> usize {
        self.apps.iter().map(|a| a.distinct_facts).sum()
    }

    /// Total distinct access paths interned across the corpus.
    pub fn total_distinct_aps(&self) -> usize {
        self.apps.iter().map(|a| a.distinct_aps).sum()
    }

    /// Total method bodies (materialized, skipped) across the corpus —
    /// both zero unless the demand-driven frontend ran.
    pub fn total_bodies(&self) -> (u64, u64) {
        let m = self.apps.iter().map(|a| a.bodies_materialized).sum();
        let s = self.apps.iter().map(|a| a.bodies_skipped).sum();
        (m, s)
    }

    /// Tabulation-table density/widening counters summed across the
    /// corpus (`None` when no app ran on bitset tables).
    pub fn fact_table_totals(&self) -> Option<TableStats> {
        let mut total: Option<TableStats> = None;
        for s in self.apps.iter().filter_map(|a| a.fact_tables.as_ref()) {
            total.get_or_insert_with(TableStats::default).merge(s);
        }
        total
    }

    /// Summary-cache counters summed across the corpus (`None` when no
    /// app ran with a persistent summary store). `store_methods` takes
    /// the maximum rather than the sum — every app sees the same
    /// store — and the first load error encountered is kept.
    pub fn summary_cache_totals(&self) -> Option<SummaryCacheStats> {
        let mut total: Option<SummaryCacheStats> = None;
        for s in self.apps.iter().filter_map(|a| a.summary_cache.as_ref()) {
            let t = total.get_or_insert_with(SummaryCacheStats::default);
            t.hits += s.hits;
            t.misses += s.misses;
            t.stale += s.stale;
            t.recorded += s.recorded;
            t.store_methods = t.store_methods.max(s.store_methods);
            if t.load_error.is_none() {
                t.load_error = s.load_error.clone();
            }
        }
        total
    }

    /// Work-stealing scheduler counters summed across the corpus
    /// (`None` when no app ran the parallel taint engine). Per-shard
    /// pushes are added element-wise, so shard occupancy aggregates
    /// too.
    pub fn scheduler_totals(&self) -> Option<SchedulerStats> {
        let mut total: Option<SchedulerStats> = None;
        for s in self.apps.iter().filter_map(|a| a.scheduler.as_ref()) {
            let t = total.get_or_insert_with(|| SchedulerStats {
                shards: s.shards,
                ..SchedulerStats::default()
            });
            t.pushed += s.pushed;
            t.steals += s.steals;
            t.claims += s.claims;
            if t.pushed_per_shard.len() < s.pushed_per_shard.len() {
                t.pushed_per_shard.resize(s.pushed_per_shard.len(), 0);
            }
            for (i, c) in s.pushed_per_shard.iter().enumerate() {
                t.pushed_per_shard[i] += c;
            }
        }
        total
    }
}

/// Analyzes every job of `jobs` with `config`, fanning apps across
/// `threads` workers (work is claimed from a shared counter, so large
/// apps don't serialize behind one worker). Results come back sorted
/// by app name regardless of completion order.
pub fn run_corpus(jobs: &[CorpusJob], config: &InfoflowConfig, threads: usize) -> CorpusRun {
    let threads = threads.max(1);
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<AppRun>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    local.push(run_single(&jobs[i], config));
                }
                results.lock().unwrap().extend(local);
            });
        }
    });
    let mut apps = results.into_inner().unwrap();
    apps.sort_by(|a, b| a.name.cmp(&b.name));
    CorpusRun { apps, wall: start.elapsed(), threads }
}

/// Concatenates the per-app leak reports (already name-sorted):
/// byte-for-byte identical across thread counts and repeat runs.
pub fn corpus_report(run: &CorpusRun) -> String {
    run.apps.iter().map(|a| a.report.as_str()).collect()
}

/// Runs the corpus twice against the persistent summary store in
/// `cache_dir`: a *cold* pass that computes (and then flushes) every
/// end summary, followed by a *warm* pass that replays them. The cold
/// pass consumes nothing from the store it is populating (the store's
/// visible/fresh split guarantees this), so its leak report is
/// bit-identical to an uncached run; the warm pass must reproduce the
/// same report while skipping the tabulation work the cache covers.
pub fn run_corpus_cold_warm(
    jobs: &[CorpusJob],
    config: &InfoflowConfig,
    threads: usize,
    cache_dir: &Path,
) -> (CorpusRun, CorpusRun) {
    let mut config = config.clone();
    config.summary_cache = Some(cache_dir.to_path_buf());
    let cold = run_corpus(jobs, &config, threads);
    flowdroid_core::flush_summary_cache(cache_dir).expect("flush summary cache");
    let warm = run_corpus(jobs, &config, threads);
    (cold, warm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_unique_sorted_names_after_run() {
        let jobs = full_corpus();
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "corpus job names must be unique");
        assert!(before > 100, "corpus should cover both suites, got {before}");
    }

    #[test]
    fn lazy_run_matches_eager_on_slice() {
        let jobs: Vec<CorpusJob> = full_corpus()
            .into_iter()
            .filter(|j| j.name.contains("Basic1") || j.name == "insecurebank")
            .collect();
        assert!(jobs.len() >= 2);
        let eager_cfg = InfoflowConfig::default();
        let lazy_cfg = InfoflowConfig::default().with_lazy_frontend(true);
        for job in &jobs {
            let eager = run_single(job, &eager_cfg);
            let lazy = run_single(job, &lazy_cfg);
            assert_eq!(eager.report, lazy.report, "{} diverged", job.name);
            assert_eq!(eager.bodies_materialized, 0);
            assert!(lazy.bodies_materialized > 0, "{} decoded nothing", job.name);
        }
    }

    #[test]
    fn single_thread_run_reports_leaks() {
        // A tiny slice keeps this unit test fast; the full-corpus
        // determinism sweep lives in tests/determinism.rs.
        let jobs: Vec<CorpusJob> =
            full_corpus().into_iter().filter(|j| j.name.contains("Basic1")).collect();
        assert!(!jobs.is_empty());
        let run = run_corpus(&jobs, &InfoflowConfig::default(), 1);
        assert_eq!(run.apps.len(), jobs.len());
        let report = corpus_report(&run);
        assert!(report.contains("leak(s)"));
    }
}
