#![warn(missing_docs)]

//! A generic IFDS tabulation solver.
//!
//! Implements the Reps–Horwitz–Sagiv tabulation algorithm for
//! inter-procedural finite distributive subset problems, with the
//! practical extensions of Naeem, Lhoták and Rodriguez that the paper's
//! Heros solver uses: the exploded supergraph is constructed *on the
//! fly* (only reachable ⟨statement, fact⟩ pairs are ever touched),
//! `incoming` sets map callee entries back to their call sites for
//! correct context-sensitive returns, and end summaries are cached per
//! (callee, entry fact).
//!
//! Two layers are exposed:
//!
//! * [`Solver`] — a ready-to-use driver for any [`IfdsProblem`];
//! * [`Tabulator`] — the underlying worklist/path-edge/summary state
//!   machine, which the FlowDroid core drives *manually* to interleave
//!   its forward taint and backward alias solvers (Algorithms 1 and 2 of
//!   the paper).
//!
//! Flow functions receive a single fact and return its successor facts.
//! The *zero* fact must be mapped to itself (plus anything generated
//! from it) by every flow function; the solver gives it no special
//! treatment beyond seeding.

mod abort;
pub mod factset;
pub mod ide;
mod problem;
mod solver;
mod tabulator;

pub use abort::{AbortHandle, AbortReason};
pub use factset::{BitsetSets, FactSetDomain, HashSets, TableStats};
pub use ide::{EdgeTransfer, IdeProblem, IdeResults, IdeSolver};
pub use problem::IfdsProblem;
pub use solver::{IfdsResults, Solver};
pub use tabulator::{PathEdge, Tabulator};
