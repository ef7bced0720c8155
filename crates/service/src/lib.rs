#![warn(missing_docs)]

//! The FlowDroid analysis service: a long-running daemon that accepts
//! analysis jobs over a line-delimited JSON protocol (TCP or Unix
//! socket), runs them on a bounded worker pool, and keeps each app's
//! prepared job, with the callgraph setup its first run stored on it,
//! in one bounded per-app cache, so repeated analyses of an app skip
//! the parse and the callgraph build.
//!
//! Layers:
//!
//! * [`json`] — a minimal std-only JSON value (no external deps);
//! * [`proto`] — the request/response wire types: [`AnalyzeRequest`]
//!   with [`Priority`] lanes and opt-in streaming;
//! * [`daemon`] — the server: accept loop, three-lane priority queue
//!   with admission control (bounded depth, `rejected` backpressure
//!   replies), worker pool, job registry with per-job
//!   [`flowdroid_core::AbortHandle`]s (deadline, cancel, budget), and
//!   a per-connection frame relay for streamed jobs. Jobs run on
//!   [`flowdroid_core::job`]; bare names resolve through the resolver
//!   the embedder installs ([`DaemonOptions::resolve`]);
//! * [`external`] — serving external apps: the `--allow-apps`
//!   path-policy sandbox ([`AppPolicy`]) and the on-disk app-dir /
//!   `.rpk` loader, with typed `denied` replies for paths outside the
//!   sandbox;
//! * [`client`] — a blocking client used by the `flowdroid client`
//!   subcommand, the benchmark driver and the smoke tests.
//!
//! See DESIGN.md §10/§14 and docs/PROTOCOL.md for the architecture and
//! the full wire contract.

pub mod client;
pub mod daemon;
pub mod external;
pub mod json;
mod lru;
pub mod net;
pub mod proto;

pub use client::{AnalyzeOptions, AnalyzeOutcome, Client, Submitted};
pub use daemon::{Daemon, DaemonOptions, DEFAULT_QUEUE_CAP};
pub use external::{content_hash, load_external_job, AppPolicy, PolicyError};
pub use json::Json;
pub use net::Listen;
pub use proto::{AnalyzeRequest, JobResult, Priority, Request};
