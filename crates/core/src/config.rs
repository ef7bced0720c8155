//! Analysis configuration.

use flowdroid_android::CallbackAssociation;
use flowdroid_callgraph::CgAlgorithm;
use flowdroid_ifds::AbortHandle;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A snapshot of solver progress, emitted through
/// [`InfoflowConfig::progress`] at the solver's abort-poll points
/// (every ~128 worklist steps) and whenever a leak is recorded.
/// Consumers (the daemon's `--stream` mode) turn these into partial
/// progress / leak frames while a job runs. Purely observational: the
/// sink never influences the analysis, so streamed and non-streamed
/// runs produce byte-identical reports.
#[derive(Clone, Debug, Default)]
pub struct ProgressEvent {
    /// Forward path-edge propagations so far.
    pub forward_propagations: u64,
    /// Backward (alias) path-edge propagations so far.
    pub backward_propagations: u64,
    /// Method bodies the demand-driven frontend has decoded so far.
    pub bodies_materialized: u64,
    /// Leaks recorded so far (pre-dedup lower bound; the final report
    /// dedups by sink/source).
    pub leaks: u64,
    /// Set when this event announces a newly recorded leak:
    /// `(sink line, taint description)`.
    pub new_leak: Option<(u32, String)>,
}

/// A shared callback receiving [`ProgressEvent`]s during a solve.
#[derive(Clone)]
pub struct ProgressSink(pub Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        ProgressSink(Arc::new(f))
    }

    /// Delivers one event.
    pub fn emit(&self, event: &ProgressEvent) {
        (self.0)(event);
    }
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// Configuration of the taint analysis.
///
/// The defaults match the paper's configuration (access-path length 5,
/// on-demand alias analysis with context injection and activation
/// statements, per-component callbacks). The switches exist for the
/// ablation experiments.
#[derive(Clone, Debug)]
pub struct InfoflowConfig {
    /// Maximal number of fields in an access path (paper default: 5).
    pub max_access_path_length: usize,
    /// Run the on-demand backward alias analysis (§4.2). Disabling it
    /// misses aliased flows.
    pub enable_alias_analysis: bool,
    /// Inject the forward path-edge context into spawned alias
    /// searches (§4.2, Figure 3). Disabling reproduces the "naive
    /// handover" false positives of Listing 2.
    pub enable_context_injection: bool,
    /// Track activation statements for alias taints (§4.2, Listing 3).
    /// Disabling makes alias results flow-insensitive (Andromeda-style
    /// false positives).
    pub enable_activation_statements: bool,
    /// Fallback for body-less calls without a wrapper rule: taint the
    /// return value if the receiver or any argument is tainted (the
    /// paper's native-call default).
    pub stub_default_taints_return: bool,
    /// Record predecessor links for leak-path reconstruction (§5:
    /// "reports include full path information").
    pub track_paths: bool,
    /// Call-graph construction algorithm.
    pub cg_algorithm: CgAlgorithm,
    /// How callbacks are associated with components (§3).
    pub callback_association: CallbackAssociation,
    /// Budget of recorded forward path edges (0 = unlimited); protects
    /// harness runs against pathological inputs. Backward (alias) edges
    /// do not count. The count is checked before each worklist pop and
    /// as each edge of a walk down straight-line code is recorded: a
    /// walk that goes over the budget queues the edge in hand and stops,
    /// and the run stops at its next pop. So a run overshoots the budget
    /// by at most the other edges the pop in hand records (a statement's
    /// generated facts, callee entries and returns), one edge when it
    /// only walks. The deadline and cancel poll of [`Self::abort`] stays
    /// at every 128 pops, and one pop may now walk a whole straight-line
    /// run.
    pub max_propagations: u64,
    /// Progress sink for streaming partial results; see
    /// [`ProgressSink`]. `None` (default) emits nothing.
    pub progress: Option<ProgressSink>,
    /// Cooperative abort token (wall-clock deadline and/or external
    /// cancel). The taint solver polls it at a bounded interval; when
    /// it trips, the run winds down and returns a partial result marked
    /// `aborted` with the tripping [`flowdroid_ifds::AbortReason`].
    /// `None` (default) means the run can only abort via
    /// `max_propagations`.
    pub abort: Option<AbortHandle>,
}

impl Default for InfoflowConfig {
    fn default() -> Self {
        InfoflowConfig {
            max_access_path_length: 5,
            enable_alias_analysis: true,
            enable_context_injection: true,
            enable_activation_statements: true,
            stub_default_taints_return: true,
            track_paths: true,
            cg_algorithm: CgAlgorithm::Cha,
            callback_association: CallbackAssociation::PerComponent,
            max_propagations: 0,
            progress: None,
            abort: None,
        }
    }
}

impl InfoflowConfig {
    /// The paper's default configuration.
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Builder-style setter for the access-path bound.
    pub fn with_access_path_length(mut self, k: usize) -> Self {
        self.max_access_path_length = k;
        self
    }

    /// Builder-style setter for the alias analysis switch.
    pub fn with_alias_analysis(mut self, on: bool) -> Self {
        self.enable_alias_analysis = on;
        self
    }

    /// Builder-style setter for context injection (naive-handover
    /// ablation when `false`).
    pub fn with_context_injection(mut self, on: bool) -> Self {
        self.enable_context_injection = on;
        self
    }

    /// Builder-style setter for activation statements (flow-insensitive
    /// aliasing ablation when `false`).
    pub fn with_activation_statements(mut self, on: bool) -> Self {
        self.enable_activation_statements = on;
        self
    }

    /// Builder-style setter for callback association.
    pub fn with_callback_association(mut self, a: CallbackAssociation) -> Self {
        self.callback_association = a;
        self
    }

    /// Builder-style setter for the streaming progress sink.
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Builder-style setter for the cooperative abort token.
    pub fn with_abort(mut self, handle: AbortHandle) -> Self {
        self.abort = Some(handle);
        self
    }

    /// Builder-style convenience: install a fresh abort handle tripping
    /// after `budget` of wall-clock time (measured from this call).
    pub fn with_deadline(self, budget: Duration) -> Self {
        self.with_abort(AbortHandle::with_deadline(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = InfoflowConfig::default();
        assert_eq!(c.max_access_path_length, 5);
        assert!(c.enable_alias_analysis);
        assert!(c.enable_context_injection);
        assert!(c.enable_activation_statements);
    }

    #[test]
    fn builders_chain() {
        let c = InfoflowConfig::default()
            .with_access_path_length(3)
            .with_alias_analysis(false)
            .with_context_injection(false)
            .with_activation_statements(false);
        assert_eq!(c.max_access_path_length, 3);
        assert!(!c.enable_alias_analysis);
        assert!(!c.enable_context_injection);
        assert!(!c.enable_activation_statements);
    }
}
