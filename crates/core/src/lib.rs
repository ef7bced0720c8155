#![warn(missing_docs)]

//! The FlowDroid taint analysis: context-, flow-, field- and
//! object-sensitive, lifecycle-aware (PLDI 2014, reproduced in Rust).
//!
//! The analysis is phrased as two cooperating IFDS solvers over a taint
//! domain of bounded *access paths* (paper §4):
//!
//! * the **forward taint solver** propagates taints from sources along
//!   the interprocedural CFG;
//! * whenever a tainted value is written to the heap, the **on-demand
//!   backward alias solver** searches upward for aliases of the target,
//!   spawning forward propagation for each alias it finds.
//!
//! Two mechanisms keep the pair precise (paper §4.2):
//!
//! * **context injection** — the full path edge (including the
//!   method-entry fact `d1`) is handed from one solver to the other, so
//!   taints remain conditional on the calling context that produced
//!   them, ruling out unrealizable-path false positives (Listing 2);
//! * **activation statements** — aliases are born *inactive*, tagged
//!   with the heap write that triggered the search, and only start to
//!   count as leaks once forward propagation crosses that statement (or
//!   a call that transitively contains it), preserving flow sensitivity
//!   (Listing 3).
//!
//! The high-level entry points are [`Infoflow`] for arbitrary programs
//! (SecuriBench-style, explicit entry points) and
//! [`Infoflow::analyze_app`] for Android apps (lifecycle-aware dummy
//! main, layout-driven UI sources, manifest-driven components).

pub mod access_path;
pub mod analysis;
pub mod config;
mod flows;
pub mod icc;
pub mod intern;
pub mod job;
pub mod results;
pub mod solver;
pub mod sourcesink;
pub mod taint;
mod walk;
pub mod wrappers;

pub use access_path::{AccessPath, ApBase};
pub use analysis::{AppAnalysis, AppSetup, Infoflow};
pub use config::{InfoflowConfig, ProgressEvent, ProgressSink};
pub use flowdroid_ifds::{AbortHandle, AbortReason, TableStats};
pub use flows::{CallSite, CallSites};
pub use icc::{analyze_app_linked, IccResults};
pub use intern::{ApId, FactId, Interner};
pub use job::{Job, JobRun, ParsedJob, PreparedJob, Rules};
pub use results::{InfoflowResults, Leak};
pub use sourcesink::{CallRoles, SourceSinkManager, SourceSinkParseError};
pub use taint::{Fact, Taint};
pub use wrappers::TaintWrapper;
