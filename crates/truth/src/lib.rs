#![warn(missing_docs)]

//! The ground-truth harness: a seeded, deterministic generator of
//! synthetic Android-like apps whose taint flows are known by
//! construction, plus a differential runner that sweeps every engine
//! configuration over the generated corpus and fails on any pairwise
//! report divergence or ground-truth drift (ReproDroid-style — "Do
//! Android Taint Analysis Tools Keep Their Promises?").
//!
//! * [`generate`] — the scenario grammar and generator: each
//!   [`TruthApp`] carries its `AndroidManifest.xml`, layouts and `jasm`
//!   code together with a manifest of expected flows, expected-absent
//!   flows and the count a correct engine must report (which documents
//!   the paper's known limitations, e.g. reflection misses);
//! * [`differential`] — the engine matrix (eager, lazy cold, and
//!   lazy with the prepared job's callgraph setup replayed), byte-for-byte report
//!   agreement, per-category precision/recall scoring against the
//!   manifests via the shared
//!   [`flowdroid_droidbench::ScoreBoard`], and the linked-ICC check
//!   over generated sender/receiver pairs.
//!
//! See DESIGN.md §15 for the grammar, the manifest format and the
//! differential matrix.

pub mod differential;
pub mod generate;

pub use differential::{
    check_icc_linked, run_differential, Differential, EngineOutcome, IccCheck, KLimitProbe,
};
pub use generate::{generate_corpus, CATEGORIES, CONSTRUCTIVE_CATEGORIES, TruthApp};
