//! The job path: how one named app is loaded and analyzed, whether the
//! daemon serves it or a benchmark driver sweeps it.
//!
//! A [`Job`] is an app's sources plus the [`Rules`] it runs with: an
//! Android app is its archive (manifest, layouts and code as
//! `classes.jasm`, `classes.sdex` or both), read by one loader,
//! [`App::from_archive`]. It runs in one of two forms:
//!
//! * from its parse ([`parse_job`], then [`run_parsed`]): the app is
//!   parsed straight into a platform program with every body decoded,
//!   and no setup is kept. This is a first run;
//! * prepared ([`prepare`], then [`run_prepared`] any number of times):
//!   the app's code is kept as an SDEX image, each run decodes it
//!   lazily, and the first run stores the app's callgraph setup on the
//!   prepared job for every later one to replay.
//!
//! Both forms run through [`Infoflow::analyze_app_cached`], and both
//! report a [`JobRun`]; leak reports are byte-identical across them.

use crate::analysis::{AppSetup, Infoflow};
use crate::config::InfoflowConfig;
use crate::results::InfoflowResults;
use crate::sourcesink::SourceSinkManager;
use crate::wrappers::TaintWrapper;
use flowdroid_android::PlatformSnapshot;
use flowdroid_frontend::{parse_jasm, sdex, App, Archive};
use flowdroid_ifds::{AbortReason, TableStats};
use flowdroid_ir::{MethodId, Program};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The dummy-main tag of every job, so generated ids and reports do not
/// depend on which path ran the job.
const TAG: &str = "corpus";

/// The rules a job runs with: its source/sink list and wrapper rules.
/// Built once per process by whoever builds jobs and shared by [`Arc`]:
/// a job never parses or copies them.
#[derive(Debug)]
pub struct Rules {
    /// The source/sink list. Apps with password fields get a private
    /// clone with those fields added; every other job borrows this one.
    pub sources: SourceSinkManager,
    /// The library wrapper rules.
    pub wrapper: TaintWrapper,
}

impl Rules {
    /// The built-in Android source/sink list and wrapper rules, parsed
    /// on first use and shared by every caller in the process.
    pub fn android() -> Arc<Rules> {
        static ANDROID: OnceLock<Arc<Rules>> = OnceLock::new();
        let rules = ANDROID.get_or_init(|| {
            Arc::new(Rules {
                sources: SourceSinkManager::default_android(),
                wrapper: TaintWrapper::default_rules(),
            })
        });
        Arc::clone(rules)
    }
}

/// One app (or entry-method program) to analyze, with a unique stable
/// name and the rules it runs with.
#[derive(Clone, Debug)]
pub struct Job {
    /// Unique name: the key of the daemon's per-app cache and of sorted
    /// corpus reports.
    pub name: String,
    code: Code,
    rules: Arc<Rules>,
}

/// A job's sources.
#[derive(Clone, Debug)]
enum Code {
    /// An Android app's archive ([`App::from_archive`]'s input), run
    /// from the dummy main of its entry-point model.
    App(Archive),
    /// Plain `jasm` units, parsed in order with no resources and run
    /// from the static `main` of `entry_class`.
    Entry { units: Vec<String>, entry_class: String },
}

impl Job {
    /// An Android app job from its archive: `AndroidManifest.xml`,
    /// `res/layout/*.xml` and code in `classes.jasm` and/or
    /// `classes.sdex` (other entries are ignored). [`App::bundle`]
    /// builds one from text artifacts, [`Archive::read`] from an app
    /// path. The daemon's per-app cache is keyed by job name and a
    /// [`PreparedJob`] carries its app's callgraph setup, so different
    /// content must get different names.
    pub fn app(name: String, archive: Archive, rules: Arc<Rules>) -> Job {
        Job { name, code: Code::App(archive), rules }
    }

    /// An entry-method job: `units` of `jasm` parsed in order, analyzed
    /// from the static `main` of `entry_class` with no lifecycle model.
    pub fn entry(name: String, units: Vec<String>, entry_class: String, rules: Arc<Rules>) -> Job {
        Job { name, code: Code::Entry { units, entry_class }, rules }
    }
}

/// A job parsed into a program of its own, ready for one cold run
/// ([`run_parsed`]): the analysis runs on the program the parse built,
/// with every body decoded up front and no setup kept for later runs.
pub struct ParsedJob {
    name: String,
    program: Program,
    app: App,
    /// The entry method of an entry-method job; `None` for an app.
    main: Option<MethodId>,
    rules: Arc<Rules>,
}

/// Parses `job` into `program`, a platform program from
/// [`PlatformSnapshot::overlay_program`] (or, to compare the two
/// representations, [`PlatformSnapshot::deep_program`]). Every caller
/// loads a job through here: [`run_parsed`] runs the result and
/// [`prepare`] encodes it. An app job is loaded by
/// [`App::from_archive`], which parses `classes.jasm` and decodes
/// `classes.sdex` eagerly; an entry-method job is loaded as an app with
/// no manifest, layouts or resources.
///
/// # Errors
///
/// The loader's message when the job's archive lacks the manifest or
/// code, or its sources do not parse, or when an entry-method job has
/// no `main`.
pub fn parse_job(job: &Job, mut program: Program) -> Result<ParsedJob, String> {
    let (app, main) = match &job.code {
        Code::App(archive) => {
            (App::from_archive(&mut program, archive).map_err(|e| e.to_string())?, None)
        }
        Code::Entry { units, entry_class } => {
            let mut app = App::default();
            for unit in units {
                let classes = parse_jasm(&mut program, &app.resources, unit);
                app.classes.extend(classes.map_err(|e| e.to_string())?);
            }
            let main = program
                .find_method(entry_class, "main")
                .ok_or_else(|| format!("no `{entry_class}.main` entry method"))?;
            (app, Some(main))
        }
    };
    Ok(ParsedJob { name: job.name.clone(), program, app, main, rules: Arc::clone(&job.rules) })
}

impl ParsedJob {
    /// The loaded app: manifest, layouts, resources and the classes the
    /// parse declared.
    pub fn app(&self) -> &App {
        &self.app
    }
}

/// A job kept for reuse. Built by [`prepare`], run (any number of
/// times) by [`run_prepared`]: the first run computes the app's
/// entry-point model, reachable closure and callgraph and stores them
/// on the job, and every later run replays them. The setup is computed
/// from this job's own code over the snapshot it was prepared against,
/// so it can never be replayed against other code.
///
/// The app's code is kept as an SDEX image (so method bodies have a
/// byte index to defer to) next to the non-code artifacts, parsed once
/// and cloned per run. Apps authored in `jasm` text have no body index:
/// this form is what lets a run skip bodies it never reaches.
pub struct PreparedJob {
    name: String,
    /// The parsed app without its classes, which live in `sdex`.
    app: App,
    sdex: Arc<[u8]>,
    /// The class whose `main` an entry-method job starts from; `None`
    /// for an app.
    main_class: Option<String>,
    rules: Arc<Rules>,
    setup: OnceLock<AppSetup>,
}

/// Parses a job into a scratch overlay of `snapshot` ([`parse_job`])
/// and encodes the app classes into an SDEX image, ready for
/// [`run_prepared`]. The image, not the parsed overlay, is what the
/// job keeps: it is the compact form of an app that is run again, many
/// times smaller than the overlay. The encoder borrows the overlay's
/// strings, so the parse makes most of this step's allocations; each
/// run decodes the image lazily, resolving every pool string once.
///
/// # Errors
///
/// [`parse_job`]'s, when the job's sources do not parse.
pub fn prepare(job: &Job, snapshot: &PlatformSnapshot) -> Result<PreparedJob, String> {
    let ParsedJob { name, program, mut app, main, rules } =
        parse_job(job, snapshot.overlay_program())?;
    let sdex = sdex::encode(&program, &std::mem::take(&mut app.classes)).into();
    let main_class = main.map(|m| program.class_name(program.method(m).class()).to_string());
    Ok(PreparedJob { name, app, sdex, main_class, rules, setup: OnceLock::new() })
}

/// Runs the cold analysis on a parsed job, on the program [`parse_job`]
/// built: no SDEX image, lazy decode or kept setup is involved. This is
/// how the daemon runs a name's first submission. `snapshot` must be
/// the one whose program `job` was parsed into.
pub fn run_parsed(job: ParsedJob, config: &InfoflowConfig, snapshot: &PlatformSnapshot) -> JobRun {
    let start = Instant::now();
    let name = job.name.clone();
    let (p, results) = analyze_parsed(job, config, snapshot);
    outcome(&name, start, results, &p, 0, false)
}

/// Analyzes a parsed job as [`run_parsed`] does and hands back its
/// program with the full results.
pub fn analyze_parsed(
    job: ParsedJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
) -> (Program, InfoflowResults) {
    let ParsedJob { mut program, app, main, rules, .. } = job;
    let (results, _) = Infoflow::new(&rules.sources, &rules.wrapper, config).analyze_app_cached(
        &mut program,
        &snapshot.info,
        &app,
        TAG,
        main,
        &OnceLock::new(),
    );
    (program, results)
}

/// Analyzes a [`prepare`]d job: the job program starts as a
/// copy-on-write overlay over `snapshot`'s shared platform base (no
/// platform rebuild, no deep clone), the prepared SDEX image is
/// installed via lazy decode, and only callgraph-reachable method
/// bodies are materialized. The daemon runs an app this way from its
/// second submission on; `snapshot` must be the one `prepared` was
/// prepared against. The job's first run stores its callgraph setup
/// on `prepared`, and later runs replay it
/// ([`JobRun::setup_replayed`]); leak reports are byte-identical
/// either way, and to [`run_parsed`]'s.
pub fn run_prepared(
    prepared: &PreparedJob,
    config: &InfoflowConfig,
    snapshot: &PlatformSnapshot,
) -> JobRun {
    let start = Instant::now();
    let mut p = snapshot.overlay_program();
    let platform_clone_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let classes =
        sdex::decode_lazy(&mut p, prepared.sdex.clone()).expect("prepared sdex image loads");
    let app = App { classes, ..prepared.app.clone() };
    let main = prepared
        .main_class
        .as_ref()
        .map(|class| p.find_method(class, "main").expect("a prepared entry class keeps its main"));
    let rules = &prepared.rules;
    let (results, replayed) = Infoflow::new(&rules.sources, &rules.wrapper, config)
        .analyze_app_cached(&mut p, &snapshot.info, &app, TAG, main, &prepared.setup);
    outcome(&prepared.name, start, results, &p, platform_clone_us, replayed)
}

/// The outcome of analyzing one job.
pub struct JobRun {
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
    /// Wall time of the run: lazy decode (prepared runs), entry-point
    /// model, call graph and data flow. Drivers that also time the
    /// parse or the preparation overwrite it with their own span.
    pub total: Duration,
    /// Data-flow (solver) phase duration only: the fixpoint.
    pub dataflow: Duration,
    /// Result collection after the fixpoint: leak attribution and
    /// dropping the solver's tables ([`InfoflowResults::results`]).
    pub results: Duration,
    /// Slots reserved in the path-edge rows' windows
    /// ([`InfoflowResults::row_slots`]).
    pub row_slots: u64,
    /// Flows attribution re-ran ([`InfoflowResults::flow_reevaluations`]).
    pub flow_reevaluations: u64,
    /// Tabulation-table density/widening counters (absent when the
    /// tables recorded no row and the interner widened nothing).
    pub fact_tables: Option<TableStats>,
    /// Whether the run aborted before the fixpoint (budget, deadline or
    /// cancellation); the report is then a lower bound.
    pub aborted: bool,
    /// Why the run aborted, when [`JobRun::aborted`] is set.
    pub abort_reason: Option<AbortReason>,
    /// Method bodies the demand-driven frontend decoded for this job
    /// (0 on runs from the parse, where everything is decoded at parse
    /// time).
    pub bodies_materialized: u64,
    /// Method bodies left pending — indexed but never decoded because
    /// the callgraph closure never reached them (0 on runs from the
    /// parse).
    pub bodies_skipped: u64,
    /// Microseconds spent opening the job's copy-on-write overlay of the
    /// shared platform snapshot (0 on runs from the parse, whose overlay
    /// is opened before the parse).
    pub platform_clone_us: u64,
    /// Whether the job replayed the callgraph setup its prepared job
    /// already held (`false` on a prepared job's first run and on runs
    /// from the parse).
    pub setup_replayed: bool,
}

impl JobRun {
    /// Everything but the data-flow phase and result collection:
    /// decode, entry-point model, dummy main and call-graph
    /// construction, so `setup + dataflow + results == total`.
    pub fn setup(&self) -> Duration {
        self.total.saturating_sub(self.dataflow + self.results)
    }
}

/// The outcome of a run that started at `start` and produced `results`
/// on program `p`.
fn outcome(
    name: &str,
    start: Instant,
    results: InfoflowResults,
    p: &Program,
    platform_clone_us: u64,
    setup_replayed: bool,
) -> JobRun {
    JobRun {
        name: name.to_string(),
        leaks: results.leak_count(),
        unattributed_leaks: results.leaks.iter().filter(|l| l.source.is_none()).count(),
        report: leak_report(name, &results, p),
        forward_propagations: results.forward_propagations,
        backward_propagations: results.backward_propagations,
        distinct_facts: results.distinct_facts,
        distinct_aps: results.distinct_aps,
        provenance_nodes: results.provenance_nodes,
        total: start.elapsed(),
        dataflow: results.duration,
        results: results.results,
        row_slots: results.row_slots,
        flow_reevaluations: results.flow_reevaluations,
        fact_tables: results.fact_tables,
        aborted: results.aborted,
        abort_reason: results.abort_reason,
        bodies_materialized: p.bodies_materialized(),
        bodies_skipped: p.pending_body_count() as u64,
        platform_clone_us,
        setup_replayed,
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
