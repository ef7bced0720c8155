#![warn(missing_docs)]

//! The evaluation harness: regenerates every table of the paper and
//! hosts the Criterion benches.
//!
//! * [`corpus`] — the seeded synthetic app generator standing in for
//!   the paper's Google Play and VirusShare corpora (RQ3), which are
//!   not redistributable (see DESIGN.md §3);
//! * [`driver`] — the corpus (and the name resolver `flowdroid serve`
//!   installs) and the drivers sweeping it one app at a time through
//!   [`flowdroid_core::job`], with deterministic, name-sorted leak
//!   reports (backs the `solver_stats` binary);
//! * [`eval`] — runners and table printers for Table 1, Table 2, RQ2,
//!   RQ3 and the ablations. Every FlowDroid run goes through the same
//!   job path as the drivers and the daemon (parsed into an overlay of
//!   the shared platform snapshot, analyzed from its parse); only the
//!   baseline tools load apps their own way.

pub mod corpus;
pub mod driver;
pub mod eval;

pub use corpus::{generate_app, AppProfile, GeneratedApp};
pub use driver::{
    corpus_report, droidbench_corpus, find_job, full_corpus, full_report, micro_job, run_corpus,
    run_single, run_single_lazy, shared_platform_snapshot, stress_job, CorpusRun,
};
pub use eval::{
    run_ablation_access_path, run_ablation_alias, run_ablation_callbacks, run_rq2, run_rq3,
    run_table1, run_table2, Rq3Stats, Table1Row,
};
