//! Inter-component communication (ICC) linking — the paper's declared
//! future work ("we are working on integrating FLOWDROID with EPICC …
//! to resolve inter-app communication more precisely", §5).
//!
//! The paper's shipped model over-approximates: *every* intent send is
//! a sink and *every* intent reception is a source, so a component that
//! merely reads its incoming intent produces a warning even when no
//! tainted intent can ever reach it. This module implements the linked
//! mode:
//!
//! 1. **Phase 1** analyzes the app with intent *reception disabled* as
//!    a source. Intent sends remain sinks; the phase records whether
//!    any *tainted* intent is actually sent.
//! 2. **Phase 2** runs only if phase 1 found tainted sends: intent
//!    reception is re-enabled as a source (the tainted payload may
//!    arrive at any in-app component — we link conservatively, without
//!    EPICC's string analysis), and the additional leaks are reported
//!    as *ICC-linked*.
//!
//! Compared to the paper's model this removes the IntentSink-style
//! false positives in apps that never send tainted intents, while
//! preserving every real cross-component flow.

use crate::analysis::Infoflow;
use crate::config::InfoflowConfig;
use crate::results::{InfoflowResults, Leak};
use crate::sourcesink::SourceSinkManager;
use crate::wrappers::TaintWrapper;
use flowdroid_android::PlatformInfo;
use flowdroid_frontend::App;
use flowdroid_ir::{Program, Stmt};

/// Source/sink entries that model intent *reception* (stripped in
/// phase 1, restored in phase 2).
const RECEPTION_DEFS: &str = "\
<android.content.BroadcastReceiver: void onReceive(android.content.Context,android.content.Intent)> -> _SOURCE_PARAM_1_\n\
<android.app.Activity: android.content.Intent getIntent()> -> _SOURCE_\n";

/// Signatures of intent-send sinks (used to classify phase-1 leaks).
const SEND_METHODS: &[&str] = &["startActivity", "sendBroadcast", "startService"];

/// The result of an ICC-linked analysis.
#[derive(Debug)]
pub struct IccResults {
    /// Leaks found without assuming tainted intent reception
    /// (intra-component flows plus tainted sends).
    pub direct: InfoflowResults,
    /// Additional leaks only reachable through a received intent,
    /// present when phase 1 proved a tainted intent is actually sent.
    pub icc_linked: Vec<Leak>,
    /// Whether phase 2 ran (a tainted intent send exists).
    pub tainted_send_exists: bool,
}

impl IccResults {
    /// Total number of reported leaks across both phases.
    pub fn leak_count(&self) -> usize {
        self.direct.leak_count() + self.icc_linked.len()
    }
}

/// Returns `true` if the leak's sink is an intent-send API.
pub fn is_intent_send(program: &Program, leak: &Leak) -> bool {
    let Some(body) = program.method(leak.sink.method).body() else { return false };
    let Stmt::Invoke { call, .. } = body.stmt(leak.sink.idx) else { return false };
    let name = program.str(call.callee.subsig.name);
    SEND_METHODS.contains(&name)
}

/// Runs the two-phase linked ICC analysis.
///
/// `sources` should be a full source/sink configuration *including* the
/// reception entries (e.g. [`SourceSinkManager::default_android`]);
/// phase 1 strips them internally.
pub fn analyze_app_linked(
    program: &mut Program,
    platform: &PlatformInfo,
    app: &App,
    sources: &SourceSinkManager,
    wrapper: &TaintWrapper,
    config: &InfoflowConfig,
    tag: &str,
) -> IccResults {
    // Phase 1: reception is not a source.
    let phase1_sources = sources.clone_without(RECEPTION_DEFS);
    let infoflow = Infoflow::new(&phase1_sources, wrapper, config);
    let phase1 = infoflow.analyze_app(program, platform, app, &format!("{tag}_icc1"));
    let tainted_send_exists = phase1.results.leaks.iter().any(|l| is_intent_send(program, l));

    if !tainted_send_exists {
        return IccResults {
            direct: phase1.results,
            icc_linked: Vec::new(),
            tainted_send_exists: false,
        };
    }

    // Phase 2: a tainted intent is really sent — link it (conservatively,
    // to every in-app receiver) by re-enabling reception sources.
    let infoflow = Infoflow::new(sources, wrapper, config);
    let phase2 = infoflow.analyze_app(program, platform, app, &format!("{tag}_icc2"));
    // Compare by (sink, source): the propagation paths go through
    // differently-tagged dummy mains and are not comparable.
    let icc_linked: Vec<Leak> = phase2
        .results
        .leaks
        .into_iter()
        .filter(|l| !phase1.results.leaks.iter().any(|p| p.sink == l.sink && p.source == l.source))
        .collect();
    IccResults { direct: phase1.results, icc_linked, tainted_send_exists: true }
}

impl SourceSinkManager {
    /// A copy of this manager with the given definition lines removed.
    pub fn clone_without(&self, defs: &str) -> SourceSinkManager {
        let mut m = self.clone();
        m.remove_definitions(defs);
        m
    }
}
