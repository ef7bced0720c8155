//! Top-level analysis entry points.
//!
//! [`Infoflow`] runs the taint analysis on arbitrary programs with
//! explicit entry points (the SecuriBench use case, paper §6.4);
//! [`Infoflow::analyze_app`] runs the full Android pipeline of Figure 4:
//! parse app artifacts → build the entry-point model (lifecycle +
//! callbacks) → generate the dummy main → build the call graph → run the
//! bidirectional taint analysis.

use crate::config::InfoflowConfig;
use crate::results::InfoflowResults;
use crate::solver::BiSolver;
use crate::sourcesink::SourceSinkManager;
use crate::wrappers::TaintWrapper;
use flowdroid_android::{generate_dummy_main, EntryPointModel, PlatformInfo};
use flowdroid_callgraph::{materialize_reachable, CallGraph, Hierarchy, Icfg};
use flowdroid_frontend::App;
use flowdroid_ir::{MethodId, Program};
use std::sync::OnceLock;

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
        let setup = self.app_setup(program, platform, app, tag);
        let results = self.solve_app(program, app, &setup);
        AppAnalysis { dummy_main: setup.dummy_main, model: setup.model, results }
    }

    /// Like [`Infoflow::analyze_app`], but keeps the app's setup in
    /// `slot`. The first run fills the slot through the same cold path
    /// as [`Infoflow::analyze_app`]; every later run skips the
    /// component-discovery fixpoint, reachable closure and callgraph
    /// construction: it replays the recorded materialization log
    /// through [`Program::ensure_body`], which reproduces the cold
    /// path's arena state exactly (decoding is deterministic and ids
    /// are minted in replay order), and reuses the recorded callgraph.
    /// Returns the analysis plus whether the setup was replayed.
    ///
    /// The slot belongs to one loaded app: every run must load the same
    /// code over the same platform, under the same `cg_algorithm` and
    /// `callback_association`.
    pub fn analyze_app_cached(
        &self,
        program: &mut Program,
        platform: &PlatformInfo,
        app: &App,
        tag: &str,
        slot: &OnceLock<AppSetup>,
    ) -> (AppAnalysis, bool) {
        let mut replayed = true;
        // The setup is stored before solving: it stays valid when the
        // solver aborts on a deadline, so a retry still starts warm.
        let setup = slot.get_or_init(|| {
            replayed = false;
            self.app_setup(program, platform, app, tag)
        });
        if replayed {
            for &m in &setup.pre_main {
                program.ensure_body(m);
            }
            let dummy_main = generate_dummy_main(program, platform, &setup.model, tag);
            assert_eq!(dummy_main, setup.dummy_main, "setup replay diverged from the cold path");
            for &m in &setup.post_main {
                program.ensure_body(m);
            }
        }
        let results = self.solve_app(program, app, setup);
        let analysis =
            AppAnalysis { dummy_main: setup.dummy_main, model: setup.model.clone(), results };
        (analysis, replayed)
    }

    /// The cold setup of an app: entry-point model, dummy main, the
    /// bodies a lazily loaded program still needs, and the callgraph.
    fn app_setup(
        &self,
        program: &mut Program,
        platform: &PlatformInfo,
        app: &App,
        tag: &str,
    ) -> AppSetup {
        let log_start = program.materialization_log().len();
        let model =
            EntryPointModel::build(program, platform, app, self.config.callback_association);
        let pre_main = program.materialization_log()[log_start..].to_vec();
        let dummy_main = generate_dummy_main(program, platform, &model, tag);
        // Lazily loaded apps: decode any remaining bodies the dummy main
        // can reach (the model-building pass above already materialized
        // per-component slices; this picks up static initializers and
        // the dummy-main glue). No-op on eager programs.
        let log_mid = program.materialization_log().len();
        materialize_pending(program, &[dummy_main]);
        let post_main = program.materialization_log()[log_mid..].to_vec();
        let cg = CallGraph::build(program, &[dummy_main], self.config.cg_algorithm);
        AppSetup { model, pre_main, dummy_main, post_main, cg }
    }

    /// Solves an app from its dummy main over `setup`'s callgraph.
    fn solve_app(&self, program: &Program, app: &App, setup: &AppSetup) -> InfoflowResults {
        let sources_owned = self.app_sources(app);
        let sources: &SourceSinkManager = sources_owned.as_ref().unwrap_or(self.sources);
        let icfg = Icfg::new(program, &setup.cg);
        self.solve(icfg, sources, &[setup.dummy_main])
    }

    /// Like [`Infoflow::run`] on a program loaded through the
    /// demand-driven frontend ([`flowdroid_frontend::sdex::decode_lazy`]),
    /// keeping the setup in `slot` as [`Infoflow::analyze_app_cached`]
    /// does: the first run materializes the bodies reachable from
    /// `entry_points` and builds the callgraph, later runs replay both.
    /// Returns the results plus whether the setup was replayed.
    pub fn run_demand_cached(
        &self,
        program: &mut Program,
        entry_points: &[MethodId],
        slot: &OnceLock<EntrySetup>,
    ) -> (InfoflowResults, bool) {
        let mut replayed = true;
        let setup = slot.get_or_init(|| {
            replayed = false;
            let log_start = program.materialization_log().len();
            materialize_pending(program, entry_points);
            let materialized = program.materialization_log()[log_start..].to_vec();
            let cg = CallGraph::build(program, entry_points, self.config.cg_algorithm);
            EntrySetup { materialized, cg }
        });
        if replayed {
            for &m in &setup.materialized {
                program.ensure_body(m);
            }
        }
        let icfg = Icfg::new(program, &setup.cg);
        (self.solve(icfg, self.sources, entry_points), replayed)
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

/// Materializes the pending bodies reachable from `entry_points`; a
/// no-op on eagerly loaded programs.
fn materialize_pending(program: &mut Program, entry_points: &[MethodId]) {
    if program.has_pending_bodies() {
        let hierarchy = Hierarchy::build(program);
        materialize_reachable(program, &hierarchy, entry_points);
    }
}

/// An app's analysis setup, everything between "program loaded" and
/// "solver starts": the entry-point model, the materialization-log slices a fresh load of
/// the same app replays to reproduce the cold path's bodies, the dummy
/// main that replay must regenerate, and the callgraph. Filled and
/// replayed by [`Infoflow::analyze_app_cached`].
#[derive(Debug)]
pub struct AppSetup {
    model: EntryPointModel,
    /// Bodies materialized during component discovery, in order.
    pre_main: Vec<MethodId>,
    dummy_main: MethodId,
    /// Bodies materialized by the post-dummy-main closure, in order.
    post_main: Vec<MethodId>,
    cg: CallGraph,
}

/// The setup of a program analyzed from explicit entry points: the
/// bodies its reachable closure materialized, in order, and the
/// callgraph. Filled and replayed by [`Infoflow::run_demand_cached`].
#[derive(Debug)]
pub struct EntrySetup {
    materialized: Vec<MethodId>,
    cg: CallGraph,
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
