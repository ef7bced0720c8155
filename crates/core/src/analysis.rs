//! Top-level analysis entry points.
//!
//! [`Infoflow`] runs the taint analysis on arbitrary programs with
//! explicit entry points (the SecuriBench use case, paper §6.4);
//! [`Infoflow::analyze_app`] runs the full Android pipeline of Figure 4:
//! parse app artifacts → build the entry-point model (lifecycle +
//! callbacks) → generate the dummy main → build the call graph → run the
//! bidirectional taint analysis.

use crate::cg_cache::{CachedSetup, CgCache};
use crate::config::InfoflowConfig;
use crate::results::InfoflowResults;
use crate::solver::BiSolver;
use crate::sourcesink::SourceSinkManager;
use crate::wrappers::TaintWrapper;
use flowdroid_android::{generate_dummy_main, EntryPointModel, PlatformInfo};
use flowdroid_callgraph::{materialize_reachable, CallGraph, Hierarchy, Icfg};
use flowdroid_frontend::App;
use flowdroid_ir::{MethodId, Program};
use std::sync::Arc;

/// The analysis driver.
///
/// # Example
///
/// ```
/// use flowdroid_core::{Infoflow, InfoflowConfig, SourceSinkManager, TaintWrapper};
/// use flowdroid_ir::{MethodBuilder, Program, Type};
///
/// let mut p = Program::new();
/// let env = p.declare_class("Env", None, &[]);
/// let s = p.ref_type("java.lang.String");
/// let src = p.declare_method(env, "source", vec![], s.clone(), true);
/// p.set_native(src, true);
/// let snk = p.declare_method(env, "sink", vec![s.clone()], Type::Void, true);
/// p.set_native(snk, true);
///
/// let c = p.declare_class("Main", None, &[]);
/// let mut b = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
/// let x = b.local("x", s.clone());
/// b.call_static(Some(x), "Env", "source", vec![], s.clone(), vec![]);
/// b.call_static(None, "Env", "sink", vec![s.clone()], Type::Void, vec![x.into()]);
/// let main = b.finish();
///
/// let sources = SourceSinkManager::parse(
///     "<Env: java.lang.String source()> -> _SOURCE_\n<Env: void sink(java.lang.String)> -> _SINK_",
/// ).unwrap();
/// let wrapper = TaintWrapper::default_rules();
/// let config = InfoflowConfig::default();
/// let infoflow = Infoflow::new(&sources, &wrapper, &config);
/// let results = infoflow.run(&p, &[main]);
/// assert_eq!(results.leak_count(), 1);
/// ```
#[derive(Debug)]
pub struct Infoflow<'a> {
    sources: &'a SourceSinkManager,
    wrapper: &'a TaintWrapper,
    config: &'a InfoflowConfig,
}

impl<'a> Infoflow<'a> {
    /// Creates a driver with the given sources/sinks, wrapper rules and
    /// configuration.
    pub fn new(
        sources: &'a SourceSinkManager,
        wrapper: &'a TaintWrapper,
        config: &'a InfoflowConfig,
    ) -> Self {
        Infoflow { sources, wrapper, config }
    }

    /// Runs the analysis on `program` from the given entry methods.
    pub fn run(&self, program: &Program, entry_points: &[MethodId]) -> InfoflowResults {
        let cg = CallGraph::build(program, entry_points, self.config.cg_algorithm);
        let icfg = Icfg::new(program, &cg);
        self.solve(icfg, self.sources, entry_points)
    }

    /// Like [`Infoflow::run`], but materializes deferred method bodies
    /// reachable from the entry points first (the demand-driven frontend
    /// path for programs loaded via
    /// [`flowdroid_frontend::App::from_archive_lazy`] or
    /// [`flowdroid_frontend::sdex::decode_lazy`]). On a fully decoded
    /// program this is exactly [`Infoflow::run`].
    pub fn run_demand(&self, program: &mut Program, entry_points: &[MethodId]) -> InfoflowResults {
        if program.has_pending_bodies() {
            let hierarchy = Hierarchy::build(program);
            materialize_reachable(program, &hierarchy, entry_points);
        }
        self.run(program, entry_points)
    }

    /// Runs the bidirectional taint solver over `icfg`.
    fn solve(
        &self,
        icfg: Icfg<'_>,
        sources: &SourceSinkManager,
        entry_points: &[MethodId],
    ) -> InfoflowResults {
        BiSolver::new(icfg, sources, self.wrapper, self.config).solve(entry_points)
    }

    /// Runs the full Android pipeline on an already-loaded [`App`]
    /// (paper Figure 4, after parsing): entry-point model → dummy main
    /// → call graph → taint analysis. UI password fields from the app's
    /// layouts are registered as sources automatically.
    ///
    /// `tag` uniquifies the generated dummy-main class.
    pub fn analyze_app(
        &self,
        program: &mut Program,
        platform: &PlatformInfo,
        app: &App,
        tag: &str,
    ) -> AppAnalysis {
        let sources_owned = self.app_sources(app);
        let sources: &SourceSinkManager = sources_owned.as_ref().unwrap_or(self.sources);
        let model =
            EntryPointModel::build(program, platform, app, self.config.callback_association);
        let dummy_main = generate_dummy_main(program, platform, &model, tag);
        // Lazily loaded apps: decode any remaining bodies the dummy main
        // can reach (the model-building pass above already materialized
        // per-component slices; this picks up static initializers and
        // the dummy-main glue). No-op on eager programs.
        if program.has_pending_bodies() {
            let hierarchy = Hierarchy::build(program);
            materialize_reachable(program, &hierarchy, &[dummy_main]);
        }
        let cg = CallGraph::build(program, &[dummy_main], self.config.cg_algorithm);
        let icfg = Icfg::new(program, &cg);
        let results = self.solve(icfg, sources, &[dummy_main]);
        AppAnalysis { dummy_main, model, results }
    }

    /// Like [`Infoflow::analyze_app`], but consults (and fills) a
    /// [`CgCache`]: on a hit the component-discovery fixpoint, reachable
    /// closure and callgraph construction are all skipped — the cached
    /// materialization log is replayed through
    /// [`Program::ensure_body`], which reproduces the cold path's arena
    /// state exactly (decoding is deterministic and ids are minted in
    /// replay order), and the cached callgraph is reused as-is. Returns
    /// the analysis plus whether the cache hit.
    ///
    /// `key` names the app (the daemon uses the job name) and
    /// `fingerprint` must cover the app bytes *and* the platform
    /// snapshot (see [`CgCache`]); a mismatch invalidates the entry and
    /// runs the cold path.
    #[allow(clippy::too_many_arguments)]
    pub fn analyze_app_cached(
        &self,
        program: &mut Program,
        platform: &PlatformInfo,
        app: &App,
        tag: &str,
        cache: &CgCache,
        key: &str,
        fingerprint: u64,
    ) -> (AppAnalysis, bool) {
        let sources_owned = self.app_sources(app);
        let sources: &SourceSinkManager = sources_owned.as_ref().unwrap_or(self.sources);

        if let Some(setup) = cache.lookup(key, fingerprint) {
            let CachedSetup::App { model, pre_main, dummy_main: expected, post_main, cg } =
                &*setup
            else {
                panic!("cg-cache entry for `{key}` has the wrong shape");
            };
            for &m in pre_main {
                program.ensure_body(m);
            }
            let dummy_main = generate_dummy_main(program, platform, model, tag);
            assert_eq!(
                dummy_main, *expected,
                "cg-cache replay for `{key}` diverged from the cold path"
            );
            for &m in post_main {
                program.ensure_body(m);
            }
            let icfg = Icfg::new(program, cg);
            let results = self.solve(icfg, sources, &[dummy_main]);
            return (AppAnalysis { dummy_main, model: model.clone(), results }, true);
        }

        let log_start = program.materialization_log().len();
        let model =
            EntryPointModel::build(program, platform, app, self.config.callback_association);
        let pre_main = program.materialization_log()[log_start..].to_vec();
        let dummy_main = generate_dummy_main(program, platform, &model, tag);
        let log_mid = program.materialization_log().len();
        if program.has_pending_bodies() {
            let hierarchy = Hierarchy::build(program);
            materialize_reachable(program, &hierarchy, &[dummy_main]);
        }
        let post_main = program.materialization_log()[log_mid..].to_vec();
        let cg = CallGraph::build(program, &[dummy_main], self.config.cg_algorithm);
        let setup = Arc::new(CachedSetup::App {
            model: model.clone(),
            pre_main,
            dummy_main,
            post_main,
            cg,
        });
        // Store before solving: the setup is valid even if the solver
        // aborts on a deadline, so the retry still gets a warm start.
        cache.insert(key, fingerprint, Arc::clone(&setup));
        let CachedSetup::App { cg, .. } = &*setup else { unreachable!() };
        let icfg = Icfg::new(program, cg);
        let results = self.solve(icfg, sources, &[dummy_main]);
        (AppAnalysis { dummy_main, model, results }, false)
    }

    /// Like [`Infoflow::run_demand`], but consults (and fills) a
    /// [`CgCache`] keyed like [`Infoflow::analyze_app_cached`]. Used for
    /// non-Android jobs with explicit entry points (micro benchmarks).
    pub fn run_demand_cached(
        &self,
        program: &mut Program,
        entry_points: &[MethodId],
        cache: &CgCache,
        key: &str,
        fingerprint: u64,
    ) -> (InfoflowResults, bool) {
        if let Some(setup) = cache.lookup(key, fingerprint) {
            let CachedSetup::Entry { materialized, cg } = &*setup else {
                panic!("cg-cache entry for `{key}` has the wrong shape");
            };
            for &m in materialized {
                program.ensure_body(m);
            }
            let icfg = Icfg::new(program, cg);
            return (self.solve(icfg, self.sources, entry_points), true);
        }

        let log_start = program.materialization_log().len();
        if program.has_pending_bodies() {
            let hierarchy = Hierarchy::build(program);
            materialize_reachable(program, &hierarchy, entry_points);
        }
        let materialized = program.materialization_log()[log_start..].to_vec();
        let cg = CallGraph::build(program, entry_points, self.config.cg_algorithm);
        let setup = Arc::new(CachedSetup::Entry { materialized, cg });
        cache.insert(key, fingerprint, Arc::clone(&setup));
        let CachedSetup::Entry { cg, .. } = &*setup else { unreachable!() };
        let icfg = Icfg::new(program, cg);
        (self.solve(icfg, self.sources, entry_points), false)
    }

    /// UI password-field sources for `app` (paper §3: layout-declared
    /// password widgets are sources), or `None` when the configured
    /// source set already suffices.
    fn app_sources(&self, app: &App) -> Option<SourceSinkManager> {
        let mut password_ids = Vec::new();
        for layout in app.layouts.values() {
            for w in &layout.widgets {
                if w.is_password {
                    if let Some(name) = &w.id_name {
                        if let Some(id) = app.resources.widget_id(name) {
                            password_ids.push(id);
                        }
                    }
                }
            }
        }
        if password_ids.is_empty() {
            return None;
        }
        let mut s = self.sources.clone();
        for id in password_ids {
            s.add_password_id(id);
        }
        Some(s)
    }
}

/// The outcome of an app analysis: the entry-point model, the generated
/// dummy main and the taint-analysis results.
#[derive(Debug)]
pub struct AppAnalysis {
    /// The generated dummy-main method.
    pub dummy_main: MethodId,
    /// The entry-point model the dummy main was generated from.
    pub model: EntryPointModel,
    /// The taint-analysis results.
    pub results: InfoflowResults,
}
