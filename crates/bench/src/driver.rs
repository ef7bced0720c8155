//! Corpus driver: runs the DroidBench and SecuriBench suites one whole
//! app at a time.
//!
//! Each per-app analysis is deterministic (intern ids are assigned in
//! first-encounter order), and the driver sorts results by app name
//! before reporting, so the corpus leak report ([`corpus_report`]) is
//! byte-for-byte identical across runs.

use flowdroid_android::{build_snapshot, install_platform, PlatformSnapshot};
use flowdroid_core::TableStats;
use flowdroid_core::{
    AbortReason, AppSetup, EntrySetup, Infoflow, InfoflowConfig, InfoflowResults,
    SourceSinkManager, TaintWrapper,
};
use flowdroid_droidbench::{all_apps, insecurebank, BenchApp};
use flowdroid_frontend::layout::{Layout, ResourceTable};
use flowdroid_frontend::manifest::Manifest;
use flowdroid_frontend::{parse_jasm, sdex, App};
use flowdroid_ir::{FxHashMap, MethodId, Program};
use flowdroid_securibench::{cases_in, Group, MicroCase, MICRO_DEFS, MICRO_ENV};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What kind of benchmark a corpus entry is.
#[derive(Clone, Debug)]
enum JobKind {
    /// A SecuriBench Micro case: plain-Java analysis from an explicit
    /// `main` entry point.
    Micro(Box<MicroCase>),
    /// An Android app, run through the full pipeline with lifecycle
    /// model and dummy main: a DroidBench or InsecureBank app, a
    /// generated ground-truth app, or an on-disk directory / `.rpk`
    /// archive the daemon was allowed to serve. Carries the raw
    /// artifacts (`App::from_parts` inputs) so the job owns its sources.
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
#[derive(Clone, Debug)]
pub struct CorpusJob {
    /// Unique name (`droidbench/...`, `securibench/<group>/...`,
    /// `insecurebank`); the corpus report is sorted by it.
    pub name: String,
    kind: JobKind,
}

/// Wraps a SecuriBench-style [`MicroCase`] as a corpus job named after
/// the case.
pub fn micro_job(case: MicroCase) -> CorpusJob {
    CorpusJob { name: case.name.clone(), kind: JobKind::Micro(Box::new(case)) }
}

/// Wraps raw app artifacts (manifest, layouts, `jasm` code) as a corpus
/// job. The daemon's prepared-job cache is keyed by job name and a
/// [`PreparedJob`] carries its app's callgraph setup, so a daemon
/// loading arbitrary on-disk apps must give different content
/// different names (its external-app loader folds a content hash into
/// the name).
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
    let bench_job = |name: String, app: BenchApp| {
        let layouts = app.layouts.iter().map(|&(n, x)| (n.to_string(), x.to_string())).collect();
        external_job(name, app.manifest, layouts, app.code)
    };
    let mut jobs = Vec::new();
    for app in all_apps() {
        jobs.push(bench_job(format!("droidbench/{:?}/{}", app.category, app.name), app));
    }
    jobs.push(bench_job("insecurebank".to_string(), insecurebank::insecure_bank()));
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
/// names. Corpus names are looked up in an index of [`full_corpus`]
/// built on first use, so a lookup clones one job instead of
/// generating the whole corpus.
pub fn find_job(name: &str) -> Option<CorpusJob> {
    static INDEX: OnceLock<FxHashMap<String, CorpusJob>> = OnceLock::new();
    if let Some(k) = name.strip_prefix("stress/") {
        return k.parse().ok().map(stress_job);
    }
    INDEX
        .get_or_init(|| full_corpus().into_iter().map(|j| (j.name.clone(), j)).collect())
        .get(name)
        .cloned()
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
/// snapshot and passes it to [`prepare`] and [`run_prepared`]; this
/// accessor backs [`run_single_lazy`].
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
/// index — this form is what makes `bodies_skipped` possible on them.
/// Each form carries the write-once slot its first run fills with the
/// app's callgraph setup.
enum Prepared {
    /// An Android app: everything [`App::from_archive_lazy`] would
    /// produce, split so the job program only pays for lazy SDEX decode.
    Droid {
        manifest: Manifest,
        layouts: FxHashMap<String, Layout>,
        resources: Box<ResourceTable>,
        sdex: Arc<[u8]>,
        setup: OnceLock<AppSetup>,
    },
    /// A SecuriBench Micro case: env + case classes, one entry class.
    Micro { sdex: Arc<[u8]>, entry_class: String, setup: OnceLock<EntrySetup> },
}

/// A job ready to run: its name and its `Prepared` form. Built by
/// [`prepare`], run (any number of times) by [`run_prepared`]: the
/// first run computes the app's entry-point model, reachable closure
/// and callgraph and stores them on the job, and every later run
/// replays them. The setup is computed from this job's own code over
/// the snapshot it was prepared against, so it can never be replayed
/// against other code.
pub struct PreparedJob {
    name: String,
    form: Prepared,
}

/// Parses a job's `jasm` text against a scratch overlay of `snapshot`
/// and encodes the app classes into an SDEX image, ready for
/// [`run_prepared`]. The image, not the parsed overlay, is what the
/// job keeps: it is the compact form of the app, many times smaller
/// than the overlay (ROADMAP, *Parse each app once*). The encoder
/// borrows the overlay's strings, so the parse makes most of this
/// step's allocations; each run decodes the image lazily, resolving
/// every pool string once.
///
/// # Errors
///
/// The parser's message when the job's sources do not parse. Built-in
/// corpus jobs always parse; external apps may not.
pub fn prepare(job: &CorpusJob, snapshot: &PlatformSnapshot) -> Result<PreparedJob, String> {
    let mut scratch = snapshot.overlay_program();
    let form = match &job.kind {
        JobKind::Micro(case) => {
            let rt = ResourceTable::new();
            let mut classes =
                parse_jasm(&mut scratch, &rt, MICRO_ENV).map_err(|e| e.to_string())?;
            classes.extend(parse_jasm(&mut scratch, &rt, &case.code).map_err(|e| e.to_string())?);
            let sdex = sdex::encode(&scratch, &classes).into();
            Prepared::Micro { sdex, entry_class: case.entry_class.clone(), setup: OnceLock::new() }
        }
        JobKind::External { manifest, layouts, code } => {
            let refs: Vec<(&str, &str)> =
                layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
            let loaded =
                App::from_parts(&mut scratch, manifest, &refs, code).map_err(|e| e.to_string())?;
            Prepared::Droid {
                sdex: sdex::encode(&scratch, &loaded.classes).into(),
                manifest: loaded.manifest,
                layouts: loaded.layouts,
                resources: Box::new(loaded.resources),
                setup: OnceLock::new(),
            }
        }
    };
    Ok(PreparedJob { name: job.name.clone(), form })
}

/// The outcome of analyzing one corpus entry.
pub struct AppRun {
    /// The job's name.
    pub name: String,
    /// Leaks reported.
    pub leaks: usize,
    /// Leaks whose source path tracking could not attribute.
    pub unattributed_leaks: usize,
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
    /// Provenance nodes recorded for path reconstruction
    /// ([`InfoflowResults::provenance_nodes`]).
    pub provenance_nodes: usize,
    /// Whole-pipeline duration for this app (parse + model + call
    /// graph + data flow).
    pub total: Duration,
    /// Data-flow (solver) phase duration only.
    pub dataflow: Duration,
    /// Tabulation-table density/widening counters (absent when the
    /// tables recorded no row and the interner widened nothing).
    pub fact_tables: Option<TableStats>,
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
    /// Whether the job replayed the callgraph setup its prepared job
    /// already held (`false` on a prepared job's first run and on eager
    /// runs).
    pub setup_replayed: bool,
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

/// Analyzes one corpus job on the eager path with `config` (including
/// any configured abort handle) and returns its outcome: the platform
/// is built and every method body decoded up front. Leak reports are
/// byte-identical to [`run_single_lazy`].
pub fn run_single(job: &CorpusJob, config: &InfoflowConfig) -> AppRun {
    let start = Instant::now();
    let (p, results) = analyze_eager(job, config);
    let report = leak_report(&job.name, &results, &p);
    finish_run(&job.name, start, results, report, 0, 0, 0, false)
}

/// The full [`InfoflowResults::report`] of `job` on the eager path:
/// counters, source attribution and every leak's path, not just the
/// leak lines of [`AppRun::report`].
pub fn full_report(job: &CorpusJob, config: &InfoflowConfig) -> String {
    let (p, results) = analyze_eager(job, config);
    results.report(&p)
}

/// The eager program of a SecuriBench-style job (a Micro case or a
/// [`stress_job`]) and its entry method, ready for [`analyze_micro`];
/// `None` for Android jobs. Lets a caller measure the taint analysis
/// apart from loading.
pub fn micro_program(job: &CorpusJob) -> Option<(Program, MethodId)> {
    let JobKind::Micro(case) = &job.kind else { return None };
    let mut p = Program::new();
    install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, MICRO_ENV).expect("micro env parses");
    parse_jasm(&mut p, &rt, &case.code).expect("micro case parses");
    let entry = p.find_method(&case.entry_class, "main").expect("micro entry");
    Some((p, entry))
}

/// Runs the taint analysis (callgraph, ICFG and solve) on a program
/// from [`micro_program`] with the SecuriBench source/sink list.
pub fn analyze_micro(p: &Program, entry: MethodId, config: &InfoflowConfig) -> InfoflowResults {
    Infoflow::new(micro_sources(), default_wrapper(), config).run(p, &[entry])
}

/// Builds `job`'s program from scratch (platform included) and
/// analyzes it.
fn analyze_eager(job: &CorpusJob, config: &InfoflowConfig) -> (Program, InfoflowResults) {
    if let Some((p, entry)) = micro_program(job) {
        let results = analyze_micro(&p, entry, config);
        return (p, results);
    }
    let JobKind::External { manifest, layouts, code } = &job.kind else {
        unreachable!("micro jobs are handled by micro_program")
    };
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let refs: Vec<(&str, &str)> = layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
    let loaded = App::from_parts(&mut p, manifest, &refs, code).expect("app parses");
    let results = Infoflow::new(android_sources(), default_wrapper(), config)
        .analyze_app(&mut p, &platform, &loaded, "corpus")
        .results;
    (p, results)
}

/// Analyzes one corpus job through the demand-driven frontend: the
/// bench and truth drivers' form of [`run_prepared`]. It prepares `job`
/// afresh against the process-wide platform snapshot, so the run is
/// cold and [`AppRun::total`] includes the preparation. Leak reports
/// are byte-identical to [`run_single`].
pub fn run_single_lazy(job: &CorpusJob, config: &InfoflowConfig) -> AppRun {
    let start = Instant::now();
    let snapshot = shared_platform_snapshot();
    let prepared = prepare(job, snapshot).expect("corpus job parses");
    let mut run = run_prepared_impl(&prepared, config, snapshot, false);
    run.total = start.elapsed();
    run
}

/// Like [`run_single_lazy`], but deep-clones the platform program
/// instead of overlaying it — the comparison path determinism tests use
/// to prove the overlay representation cannot influence results.
pub fn run_single_lazy_deep_clone(job: &CorpusJob, config: &InfoflowConfig) -> AppRun {
    let snapshot = shared_platform_snapshot();
    let prepared = prepare(job, snapshot).expect("corpus job parses");
    run_prepared_impl(&prepared, config, snapshot, true)
}

/// Analyzes a [`prepare`]d job: the job program starts as a
/// copy-on-write overlay over `snapshot`'s shared platform base (no
/// platform rebuild, no deep clone), the prepared SDEX image is
/// installed via lazy decode, and only callgraph-reachable method
/// bodies are materialized. This is the path the analysis daemon runs
/// per job; `snapshot` must be the one `prepared` was prepared against.
/// The job's first run stores its callgraph setup on `prepared`, and
/// later runs replay it ([`AppRun::setup_replayed`]); leak reports are
/// byte-identical either way.
pub fn run_prepared(
    prepared: &PreparedJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
) -> AppRun {
    run_prepared_impl(prepared, config, snapshot, false)
}

fn run_prepared_impl(
    prepared: &PreparedJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
    deep_clone: bool,
) -> AppRun {
    let start = Instant::now();
    let name = &prepared.name;
    let clone_start = Instant::now();
    let mut p = if deep_clone { snapshot.deep_program() } else { snapshot.overlay_program() };
    let platform_clone_us = u64::try_from(clone_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let (results, report, replayed) = match &prepared.form {
        Prepared::Droid { manifest, layouts, resources, sdex, setup } => {
            let classes =
                sdex::decode_lazy(&mut p, sdex.clone()).expect("prepared sdex image loads");
            let loaded = App {
                manifest: manifest.clone(),
                layouts: layouts.clone(),
                resources: ResourceTable::clone(resources),
                classes,
            };
            let (analysis, replayed) = Infoflow::new(android_sources(), default_wrapper(), config)
                .analyze_app_cached(&mut p, &snapshot.info, &loaded, "corpus", setup);
            let report = leak_report(name, &analysis.results, &p);
            (analysis.results, report, replayed)
        }
        Prepared::Micro { sdex, entry_class, setup } => {
            sdex::decode_lazy(&mut p, sdex.clone()).expect("prepared sdex image loads");
            let entry = p.find_method(entry_class, "main").expect("micro entry");
            let (results, replayed) = Infoflow::new(micro_sources(), default_wrapper(), config)
                .run_demand_cached(&mut p, &[entry], setup);
            let report = leak_report(name, &results, &p);
            (results, report, replayed)
        }
    };
    let materialized = p.bodies_materialized();
    let skipped = p.pending_body_count() as u64;
    finish_run(name, start, results, report, materialized, skipped, platform_clone_us, replayed)
}

#[allow(clippy::too_many_arguments)]
fn finish_run(
    name: &str,
    start: Instant,
    results: InfoflowResults,
    report: String,
    bodies_materialized: u64,
    bodies_skipped: u64,
    platform_clone_us: u64,
    setup_replayed: bool,
) -> AppRun {
    AppRun {
        name: name.to_string(),
        leaks: results.leak_count(),
        unattributed_leaks: results.leaks.iter().filter(|l| l.source.is_none()).count(),
        report,
        forward_propagations: results.forward_propagations,
        backward_propagations: results.backward_propagations,
        distinct_facts: results.distinct_facts,
        distinct_aps: results.distinct_aps,
        provenance_nodes: results.provenance_nodes,
        total: start.elapsed(),
        dataflow: results.duration,
        fact_tables: results.fact_tables,
        aborted: results.aborted,
        abort_reason: results.abort_reason,
        bodies_materialized,
        bodies_skipped,
        platform_clone_us,
        setup_replayed,
    }
}

/// The outcome of one corpus run.
pub struct CorpusRun {
    /// Per-app outcomes, sorted by app name.
    pub apps: Vec<AppRun>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
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

    /// Sum of per-app whole-pipeline durations (close to
    /// [`CorpusRun::wall`], less the time spent between apps).
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

    /// Total provenance nodes recorded across the corpus.
    pub fn total_provenance_nodes(&self) -> usize {
        self.apps.iter().map(|a| a.provenance_nodes).sum()
    }

    /// Total method bodies (materialized, skipped) across the corpus —
    /// both zero unless the demand-driven frontend ran.
    pub fn total_bodies(&self) -> (u64, u64) {
        let m = self.apps.iter().map(|a| a.bodies_materialized).sum();
        let s = self.apps.iter().map(|a| a.bodies_skipped).sum();
        (m, s)
    }

    /// Tabulation-table density/widening counters summed across the
    /// corpus (`None` when no app recorded a table row or widened a
    /// fact).
    pub fn fact_table_totals(&self) -> Option<TableStats> {
        let mut total: Option<TableStats> = None;
        for s in self.apps.iter().filter_map(|a| a.fact_tables.as_ref()) {
            total.get_or_insert_with(TableStats::default).merge(s);
        }
        total
    }
}

/// Analyzes every job of `jobs` with `config` through `run` (the eager
/// [`run_single`] or the demand-driven [`run_single_lazy`]), one app
/// after another. Results come back sorted by app name.
pub fn run_corpus(
    jobs: &[CorpusJob],
    config: &InfoflowConfig,
    run: fn(&CorpusJob, &InfoflowConfig) -> AppRun,
) -> CorpusRun {
    let start = Instant::now();
    let mut apps: Vec<AppRun> = jobs.iter().map(|job| run(job, config)).collect();
    apps.sort_by(|a, b| a.name.cmp(&b.name));
    CorpusRun { apps, wall: start.elapsed() }
}

/// Concatenates the per-app leak reports (already name-sorted):
/// byte-for-byte identical across repeat runs.
pub fn corpus_report(run: &CorpusRun) -> String {
    run.apps.iter().map(|a| a.report.as_str()).collect()
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
    fn find_job_resolves_every_corpus_name_to_the_same_job() {
        for job in full_corpus() {
            let found = find_job(&job.name).unwrap_or_else(|| panic!("{} not found", job.name));
            assert_eq!(format!("{found:?}"), format!("{job:?}"), "{} differs", job.name);
        }
        for unknown in ["", "droidbench", "insecurebank/x", "securibench/Basic", "stress/x"] {
            assert!(find_job(unknown).is_none(), "`{unknown}` must not resolve");
        }
        assert_eq!(find_job("stress/7").map(|j| j.name), Some("stress/7".to_string()));
    }

    #[test]
    fn lazy_run_matches_eager_on_slice() {
        let jobs: Vec<CorpusJob> = full_corpus()
            .into_iter()
            .filter(|j| j.name.contains("Basic1") || j.name == "insecurebank")
            .collect();
        assert!(jobs.len() >= 2);
        let config = InfoflowConfig::default();
        for job in &jobs {
            let eager = run_single(job, &config);
            let lazy = run_single_lazy(job, &config);
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
        let run = run_corpus(&jobs, &InfoflowConfig::default(), run_single);
        assert_eq!(run.apps.len(), jobs.len());
        let report = corpus_report(&run);
        assert!(report.contains("leak(s)"));
    }
}
