#![warn(missing_docs)]

//! A Jimple-like three-address intermediate representation.
//!
//! This crate is the substrate equivalent of Soot's Jimple IR that the
//! original FlowDroid analyzes. Programs consist of [`Class`]es holding
//! [`Field`]s and [`Method`]s; method bodies are flat vectors of typed
//! three-address [`Stmt`]s with statement-level control flow (conditional
//! and unconditional gotos referencing statement indices).
//!
//! Everything is arena-allocated inside a [`Program`]: classes, methods
//! and fields are referred to by copyable integer ids ([`ClassId`],
//! [`MethodId`], [`FieldId`]) and all names are interned [`Symbol`]s.
//! Unknown referenced classes become *phantom* classes (as in Soot), so
//! programs can be constructed incrementally and still link.
//!
//! # Example
//!
//! ```
//! use flowdroid_ir::{Program, MethodBuilder, Type, Rvalue, Constant};
//!
//! let mut p = Program::new();
//! let object = p.declare_class("java.lang.Object", None, &[]);
//! let main_cls = p.declare_class("Main", Some("java.lang.Object"), &[]);
//! let string_ty = p.ref_type("java.lang.String");
//! let mut b = MethodBuilder::new_static_on(&mut p, main_cls, "main", vec![], Type::Void);
//! let x = b.local("x", string_ty.clone());
//! b.assign_local(x, Rvalue::Const(Constant::null()));
//! b.ret(None);
//! let main = b.finish();
//! assert_eq!(p.method(main).body().unwrap().stmts().len(), 2);
//! assert!(p.class(object).is_declared());
//! ```

mod body;
mod builder;
mod class;
pub mod fxhash;
mod pretty;
mod program;
mod stmt;
mod symbols;
mod types;

pub use body::{Body, Cfg, LocalDecl, StmtIdx, StmtRef};
pub use builder::{Label, MethodBuilder};
pub use class::{Class, ClassId, Field, FieldId, Method, MethodId, MethodRef, SubSig};
pub use fxhash::{
    fnv1a64, fxhash64, word_hash64, Fnv1a64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher,
    WordHasher,
};
pub use pretty::ProgramPrinter;
pub use program::{BodySource, Program, ProgramBase};
pub use stmt::{
    BinOp, CmpOp, Cond, Constant, InvokeExpr, InvokeKind, Local, Operand, Place, Rvalue, Stmt, UnOp,
};
pub use symbols::{Interner, Symbol};
pub use types::Type;
