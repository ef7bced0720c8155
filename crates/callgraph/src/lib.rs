#![warn(missing_docs)]

//! Call-graph construction and the interprocedural control-flow graph.
//!
//! This crate is the substrate equivalent of Soot's Spark/CHA call-graph
//! machinery that the original FlowDroid builds on. It provides:
//!
//! * [`Hierarchy`] — subclass/implementer indexes over a
//!   [`flowdroid_ir::Program`] with virtual-dispatch resolution,
//! * [`CallGraph`] — built by reachability from a set of entry points
//!   using either class-hierarchy analysis (CHA) or rapid-type analysis
//!   (RTA, see [`CgAlgorithm`]),
//! * [`Icfg`] — the interprocedural CFG view consumed by the IFDS solver
//!   (successors/predecessors, callees of a call site, callers and start
//!   points of a method, return sites).
//!
//! # Example
//!
//! ```
//! use flowdroid_ir::{Program, MethodBuilder, Type};
//! use flowdroid_callgraph::{CallGraph, CgAlgorithm, Icfg};
//!
//! let mut p = Program::new();
//! let c = p.declare_class("Main", None, &[]);
//! let mut b = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
//! b.call_static(None, "Main", "work", vec![], Type::Void, vec![]);
//! let main = b.finish();
//! MethodBuilder::new_static_on(&mut p, c, "work", vec![], Type::Void).finish();
//!
//! let cg = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
//! assert_eq!(cg.reachable_methods().len(), 2);
//! let icfg = Icfg::new(&p, &cg);
//! assert!(icfg.is_call(flowdroid_ir::StmtRef::new(main, 0)));
//! ```

mod graph;
mod hierarchy;
mod icfg;
mod materialize;

pub use graph::{CallGraph, CgAlgorithm};
pub use hierarchy::Hierarchy;
pub use icfg::{Icfg, StmtRefs};
pub use materialize::{materialize_reachable, MaterializeStats};
