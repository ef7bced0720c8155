#![warn(missing_docs)]

//! The IFDS tabulation tables the FlowDroid taint solver drives.
//!
//! Implements the state of the Reps–Horwitz–Sagiv tabulation algorithm
//! with the practical extensions of Naeem, Lhoták and Rodriguez that the
//! paper's Heros solver uses: the exploded supergraph is constructed *on
//! the fly* (only reachable ⟨statement, fact⟩ pairs are ever touched),
//! `incoming` sets map callee entries back to their call sites for
//! correct context-sensitive returns, and end summaries are kept per
//! (callee, entry fact).
//!
//! [`Tabulator`] is the worklist/path-edge/summary state machine. It
//! applies no flow functions itself: the FlowDroid core drives two of
//! them *manually* to interleave its forward taint and backward alias
//! solvers (Algorithms 1 and 2 of the paper). Facts are dense indices
//! (interned fact ids), stored in the tables of [`factset`]. Path edges
//! are kept fact-major: one [`Row`] per (method, fact), a slot per
//! statement of the row's window, so a walk of one fact down a method
//! looks its row up once and then writes by statement index. Windows
//! are carved from blocks each thread keeps warm between solves, up to
//! [`WARM_ROW_BYTES`].

mod abort;
pub mod factset;
mod tabulator;

pub use abort::{AbortHandle, AbortReason};
pub use factset::{warm_row_bytes, TableStats, WARM_ROW_BYTES};
pub use tabulator::{PathEdge, Row, Tabulator};
