//! Corpus driver: runs the DroidBench and SecuriBench suites one whole
//! app at a time.
//!
//! Each per-app analysis is deterministic (intern ids are assigned in
//! first-encounter order), and the driver sorts results by app name
//! before reporting, so the corpus leak report ([`corpus_report`]) is
//! byte-for-byte identical across runs.

use flowdroid_android::{build_snapshot, PlatformSnapshot};
use flowdroid_core::job::{analyze_parsed, parse_job, prepare, run_parsed, run_prepared};
use flowdroid_core::{
    InfoflowConfig, Job, JobRun, Rules, SourceSinkManager, TableStats, TaintWrapper,
};
use flowdroid_droidbench::{all_apps, insecurebank, BenchApp};
use flowdroid_frontend::App;
use flowdroid_ir::FxHashMap;
use flowdroid_securibench::{cases_in, Group, MicroCase, MICRO_DEFS, MICRO_ENV};
use std::ops::RangeInclusive;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Wraps a SecuriBench-style [`MicroCase`] as a corpus job named after
/// the case: the shared env and the case's code, run from the entry
/// class's `main` under the SecuriBench rules.
pub fn micro_job(case: MicroCase) -> Job {
    let units = vec![MICRO_ENV.to_string(), case.code];
    Job::entry(case.name, units, case.entry_class, Arc::clone(micro_rules()))
}

/// Wraps a DroidBench-style [`BenchApp`] (a suite app or InsecureBank)
/// as an Android app job named `name`, under the built-in Android
/// rules.
pub fn bench_job(name: String, app: &BenchApp) -> Job {
    Job::app(name, App::bundle(&app.manifest, &app.layouts, &app.code), Rules::android())
}

/// The full benchmark corpus: every DroidBench app (table and
/// supplementary), InsecureBank, and every SecuriBench Micro case.
pub fn full_corpus() -> Vec<Job> {
    let mut jobs = Vec::new();
    for app in all_apps() {
        jobs.push(bench_job(format!("droidbench/{:?}/{}", app.category, app.name), &app));
    }
    jobs.push(bench_job("insecurebank".to_string(), &insecurebank::insecure_bank()));
    for group in Group::all() {
        for case in cases_in(group) {
            let mut job = micro_job(case);
            job.name = format!("securibench/{group}/{}", job.name);
            jobs.push(job);
        }
    }
    jobs
}

/// Only the DroidBench apps (plus InsecureBank) — the Android subset.
pub fn droidbench_corpus() -> Vec<Job> {
    full_corpus().into_iter().filter(|j| !j.name.starts_with("securibench/")).collect()
}

/// Resolves a job by its corpus name (`droidbench/<Category>/<App>`,
/// `securibench/<group>/<Case>`, `insecurebank`) or the synthetic
/// `stress/<K>` chain (see [`stress_job`]), with `K` in [`STRESS_K`]
/// and written in canonical decimal, so a job is only ever found under
/// the name it carries. Returns `None` for other names. Corpus names
/// are looked up in an index of [`full_corpus`] built on first use, so
/// a lookup clones one job instead of generating the whole corpus.
pub fn find_job(name: &str) -> Option<Job> {
    static INDEX: OnceLock<FxHashMap<String, Job>> = OnceLock::new();
    if let Some(k) = name.strip_prefix("stress/") {
        let canonical = |n: &usize| STRESS_K.contains(n) && n.to_string() == k;
        return k.parse().ok().filter(canonical).map(stress_job);
    }
    INDEX
        .get_or_init(|| full_corpus().into_iter().map(|j| (j.name.clone(), j)).collect())
        .get(name)
        .cloned()
}

/// The chain lengths a [`stress_job`] is built with.
pub const STRESS_K: RangeInclusive<usize> = 2..=100_000;

/// A synthetic straight-line stress app, `stress/<k>`: `k` string
/// locals, each concatenated from its predecessor, between one source
/// and one sink. Every local's taint keeps propagating to the end of
/// the chain, so forward propagations grow roughly as `k²/2` — large
/// `k` yields an arbitrarily long-running but trivially checkable job
/// (exactly one leak), which is what the daemon's deadline and cancel
/// paths are exercised with. `k` is clamped to [`STRESS_K`].
pub fn stress_job(k: usize) -> Job {
    use std::fmt::Write;
    let k = k.clamp(*STRESS_K.start(), *STRESS_K.end());
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
    let units = vec![MICRO_ENV.to_string(), code];
    Job::entry(format!("stress/{k}"), units, "stress.Chain".to_string(), Arc::clone(micro_rules()))
}

/// The process-wide platform snapshot the bench and truth drivers
/// start every job from: built once, then overlaid per job. The daemon
/// builds (or loads) its own snapshot.
pub fn shared_platform_snapshot() -> &'static Arc<PlatformSnapshot> {
    static SNAP: OnceLock<Arc<PlatformSnapshot>> = OnceLock::new();
    SNAP.get_or_init(|| Arc::new(build_snapshot()))
}

/// The SecuriBench Micro source/sink list and the built-in wrapper
/// rules, parsed once per process.
fn micro_rules() -> &'static Arc<Rules> {
    static RULES: OnceLock<Arc<Rules>> = OnceLock::new();
    RULES.get_or_init(|| {
        let sources = SourceSinkManager::parse(MICRO_DEFS).expect("micro defs parse");
        Arc::new(Rules { sources, wrapper: TaintWrapper::default_rules() })
    })
}

/// Analyzes one corpus job from its parse: [`parse_job`] over an
/// overlay of the process-wide platform snapshot, then [`run_parsed`].
/// [`JobRun::total`] includes the parse. Leak reports are
/// byte-identical to [`run_single_lazy`].
pub fn run_single(job: &Job, config: &InfoflowConfig) -> JobRun {
    let start = Instant::now();
    let snapshot = shared_platform_snapshot();
    let parsed = parse_job(job, snapshot.overlay_program()).expect("corpus job parses");
    let mut run = run_parsed(parsed, config, snapshot);
    run.total = start.elapsed();
    run
}

/// The full [`flowdroid_core::InfoflowResults::report`] of `job` run
/// from its parse: counters, source attribution and every leak's path,
/// not just the leak lines of [`JobRun::report`].
pub fn full_report(job: &Job, config: &InfoflowConfig) -> String {
    let snapshot = shared_platform_snapshot();
    let parsed = parse_job(job, snapshot.overlay_program()).expect("corpus job parses");
    let (p, results) = analyze_parsed(parsed, config, snapshot);
    results.report(&p)
}

/// Analyzes one corpus job through the demand-driven frontend: the
/// bench and truth drivers' form of [`run_prepared`]. It prepares `job`
/// afresh against the process-wide platform snapshot, so the run is
/// cold and [`JobRun::total`] includes the preparation. Leak reports
/// are byte-identical to [`run_single`].
pub fn run_single_lazy(job: &Job, config: &InfoflowConfig) -> JobRun {
    let start = Instant::now();
    let snapshot = shared_platform_snapshot();
    let prepared = prepare(job, snapshot).expect("corpus job parses");
    let mut run = run_prepared(&prepared, config, snapshot);
    run.total = start.elapsed();
    run
}

/// The outcome of one corpus run.
pub struct CorpusRun {
    /// Per-app outcomes, sorted by app name.
    pub apps: Vec<JobRun>,
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

    /// Total slots reserved in path-edge row windows across the corpus.
    pub fn total_row_slots(&self) -> u64 {
        self.apps.iter().map(|a| a.row_slots).sum()
    }

    /// Total flows attribution re-ran across the corpus.
    pub fn total_flow_reevaluations(&self) -> u64 {
        self.apps.iter().map(|a| a.flow_reevaluations).sum()
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
    jobs: &[Job],
    config: &InfoflowConfig,
    run: fn(&Job, &InfoflowConfig) -> JobRun,
) -> CorpusRun {
    let start = Instant::now();
    let mut apps: Vec<JobRun> = jobs.iter().map(|job| run(job, config)).collect();
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
        let unknown = ["", "droidbench", "insecurebank/x", "securibench/Basic", "stress/x"];
        let noncanonical = ["stress/1", "stress/100001", "stress/+7", "stress/007", "stress/ 7"];
        for unknown in unknown.into_iter().chain(noncanonical) {
            assert!(find_job(unknown).is_none(), "`{unknown}` must not resolve");
        }
        assert_eq!(find_job("stress/7").map(|j| j.name), Some("stress/7".to_string()));
    }

    #[test]
    fn lazy_run_matches_eager_on_slice() {
        let jobs: Vec<Job> = full_corpus()
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

    /// A run's phases add up to its wall time: leak attribution and the
    /// solver's drop count as `results`, not as setup.
    #[test]
    fn setup_dataflow_and_results_add_up_to_the_total() {
        let config = InfoflowConfig::default();
        let job = find_job("stress/300").unwrap();
        for run in [run_single(&job, &config), run_single_lazy(&job, &config)] {
            assert_eq!(run.setup() + run.dataflow + run.results, run.total);
            assert!(run.results > Duration::ZERO, "attributing the chain's leak takes time");
        }
    }

    #[test]
    fn single_thread_run_reports_leaks() {
        // A tiny slice keeps this unit test fast; the full-corpus
        // determinism sweep lives in tests/determinism.rs.
        let jobs: Vec<Job> =
            full_corpus().into_iter().filter(|j| j.name.contains("Basic1")).collect();
        assert!(!jobs.is_empty());
        let run = run_corpus(&jobs, &InfoflowConfig::default(), run_single);
        assert_eq!(run.apps.len(), jobs.len());
        let report = corpus_report(&run);
        assert!(report.contains("leak(s)"));
    }
}
