//! Stable structural fingerprints of method bodies.
//!
//! The persistent summary store (`crates/summaries`) invalidates cached
//! end summaries when a method's code changes. Arena ids ([`MethodId`],
//! [`FieldId`](crate::FieldId), [`ClassId`](crate::ClassId),
//! [`Symbol`](crate::Symbol), …) are assigned in load order and
//! therefore differ between processes analyzing different apps, so
//! the fingerprint must resolve every id to its *name* before hashing:
//! two processes that load the same platform stub — possibly at
//! different arena indices — must compute the same fingerprint.
//!
//! The hash covers the full signature, the method flags, the local
//! declarations (name + type) and every statement with all referenced
//! entities resolved to strings (field class + name, callee full
//! signature, class and type names, string-constant contents). Locals
//! appear by raw slot index, which is safe because two bodies with
//! equal fingerprints declare identical local tables. Source line
//! numbers are included: over-invalidation is always sound, and the
//! platform stubs the cache targets are byte-identical across apps.

use crate::class::{MethodId, MethodRef};
use crate::fxhash::FxHasher;
use crate::program::Program;
use crate::stmt::{Cond, Constant, InvokeExpr, Operand, Place, Rvalue, Stmt};
use std::hash::Hasher;

/// Accumulates unambiguous, self-delimiting input into an [`FxHasher`].
struct Sink {
    h: FxHasher,
}

impl Sink {
    fn new() -> Self {
        Sink { h: FxHasher::default() }
    }

    fn u8(&mut self, v: u8) {
        self.h.write_u8(v);
    }

    fn u32(&mut self, v: u32) {
        self.h.write_u32(v);
    }

    fn u64(&mut self, v: u64) {
        self.h.write_u64(v);
    }

    /// Length-prefixed so that consecutive strings cannot alias.
    fn str(&mut self, s: &str) {
        self.h.write_u32(u32::try_from(s.len()).unwrap_or(u32::MAX));
        self.h.write(s.as_bytes());
    }

    fn finish(self) -> u64 {
        self.h.finish()
    }
}

/// Computes the structural fingerprint of `method`.
///
/// Deterministic across processes and independent of arena id
/// assignment: every id is resolved to its name before hashing. Two
/// methods with the same fingerprint have (up to hash collision) the
/// same signature, flags, locals and statements.
pub fn body_fingerprint(program: &Program, method: MethodId) -> u64 {
    let m = program.method(method);
    let mut s = Sink::new();
    s.str(&program.signature(method));
    s.u8(m.is_static() as u8);
    s.u8(m.is_native() as u8);
    s.u8(m.is_abstract() as u8);
    match m.body() {
        None => s.u8(0),
        Some(body) => {
            s.u8(1);
            s.u32(body.locals().len() as u32);
            for decl in body.locals() {
                s.str(&decl.name);
                s.str(&program.type_name(&decl.ty));
            }
            s.u32(body.stmts().len() as u32);
            for (idx, stmt) in body.stmts().iter().enumerate() {
                hash_stmt(program, &mut s, stmt);
                s.u32(body.line(idx));
            }
        }
    }
    s.finish()
}

fn hash_stmt(p: &Program, s: &mut Sink, stmt: &Stmt) {
    match stmt {
        Stmt::Assign { lhs, rhs } => {
            s.u8(0);
            hash_place(p, s, lhs);
            hash_rvalue(p, s, rhs);
        }
        Stmt::Invoke { result, call } => {
            s.u8(1);
            match result {
                Some(l) => {
                    s.u8(1);
                    s.u32(l.0);
                }
                None => s.u8(0),
            }
            hash_invoke(p, s, call);
        }
        Stmt::If { cond, target } => {
            s.u8(2);
            match cond {
                Cond::Cmp(op, a, b) => {
                    s.u8(1);
                    s.u8(*op as u8);
                    hash_operand(p, s, a);
                    hash_operand(p, s, b);
                }
                Cond::Opaque => s.u8(0),
            }
            s.u32(*target as u32);
        }
        Stmt::Goto { target } => {
            s.u8(3);
            s.u32(*target as u32);
        }
        Stmt::Return { value } => {
            s.u8(4);
            match value {
                Some(v) => {
                    s.u8(1);
                    hash_operand(p, s, v);
                }
                None => s.u8(0),
            }
        }
        Stmt::Throw { value } => {
            s.u8(5);
            hash_operand(p, s, value);
        }
        Stmt::Nop => s.u8(6),
    }
}

fn hash_invoke(p: &Program, s: &mut Sink, call: &InvokeExpr) {
    s.u8(call.kind as u8);
    match call.base {
        Some(b) => {
            s.u8(1);
            s.u32(b.0);
        }
        None => s.u8(0),
    }
    hash_method_ref(p, s, &call.callee);
    s.u32(call.args.len() as u32);
    for a in &call.args {
        hash_operand(p, s, a);
    }
}

fn hash_method_ref(p: &Program, s: &mut Sink, mref: &MethodRef) {
    s.str(p.class_name(mref.class));
    s.str(p.str(mref.subsig.name));
    s.u32(mref.subsig.params.len() as u32);
    for t in &mref.subsig.params {
        s.str(&p.type_name(t));
    }
    s.str(&p.type_name(&mref.subsig.ret));
}

fn hash_place(p: &Program, s: &mut Sink, place: &Place) {
    match place {
        Place::Local(l) => {
            s.u8(0);
            s.u32(l.0);
        }
        Place::InstanceField(b, f) => {
            s.u8(1);
            s.u32(b.0);
            hash_field(p, s, *f);
        }
        Place::StaticField(f) => {
            s.u8(2);
            hash_field(p, s, *f);
        }
        Place::ArrayElem(b, i) => {
            s.u8(3);
            s.u32(b.0);
            hash_operand(p, s, i);
        }
    }
}

fn hash_field(p: &Program, s: &mut Sink, f: crate::class::FieldId) {
    let fd = p.field(f);
    s.str(p.class_name(fd.class()));
    s.str(p.str(fd.name()));
}

fn hash_operand(p: &Program, s: &mut Sink, o: &Operand) {
    match o {
        Operand::Local(l) => {
            s.u8(0);
            s.u32(l.0);
        }
        Operand::Const(c) => {
            s.u8(1);
            hash_const(p, s, c);
        }
    }
}

fn hash_const(p: &Program, s: &mut Sink, c: &Constant) {
    match c {
        Constant::Int(i) => {
            s.u8(0);
            s.u64(*i as u64);
        }
        Constant::Str(sym) => {
            s.u8(1);
            s.str(p.str(*sym));
        }
        Constant::Null => s.u8(2),
        Constant::Class(sym) => {
            s.u8(3);
            s.str(p.str(*sym));
        }
    }
}

fn hash_rvalue(p: &Program, s: &mut Sink, r: &Rvalue) {
    match r {
        Rvalue::Read(place) => {
            s.u8(0);
            hash_place(p, s, place);
        }
        Rvalue::Const(c) => {
            s.u8(1);
            hash_const(p, s, c);
        }
        Rvalue::New(c) => {
            s.u8(2);
            s.str(p.class_name(*c));
        }
        Rvalue::NewArray(t, n) => {
            s.u8(3);
            s.str(&p.type_name(t));
            hash_operand(p, s, n);
        }
        Rvalue::BinOp(op, a, b) => {
            s.u8(4);
            s.u8(*op as u8);
            hash_operand(p, s, a);
            hash_operand(p, s, b);
        }
        Rvalue::UnOp(op, a) => {
            s.u8(5);
            s.u8(*op as u8);
            hash_operand(p, s, a);
        }
        Rvalue::Cast(t, a) => {
            s.u8(6);
            s.str(&p.type_name(t));
            hash_operand(p, s, a);
        }
        Rvalue::InstanceOf(a, t) => {
            s.u8(7);
            hash_operand(p, s, a);
            s.str(&p.type_name(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MethodBuilder;
    use crate::types::Type;

    fn build(order_flip: bool) -> (Program, MethodId) {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        // Interleave an unrelated class to shift arena ids.
        if order_flip {
            let noise = p.declare_class("Noise", Some("java.lang.Object"), &[]);
            p.declare_field(noise, "pad", Type::Int, false);
            MethodBuilder::new_static_on(&mut p, noise, "pad", vec![], Type::Void).finish();
        }
        let c = p.declare_class("A", Some("java.lang.Object"), &[]);
        let f = p.declare_field(c, "data", Type::Int, false);
        let mut b = MethodBuilder::new_instance(&mut p, c, "run", vec![Type::Int], Type::Int);
        let this = b.this();
        let x = b.param(0);
        b.assign(Place::InstanceField(this, f), Rvalue::Read(Place::Local(x)));
        b.ret(Some(Operand::Local(x)));
        let m = b.finish();
        (p, m)
    }

    #[test]
    fn fingerprint_is_id_independent() {
        let (p1, m1) = build(false);
        let (p2, m2) = build(true);
        assert_ne!(m1, m2, "arena ids must differ for the test to mean anything");
        assert_eq!(body_fingerprint(&p1, m1), body_fingerprint(&p2, m2));
    }

    #[test]
    fn fingerprint_sees_statement_changes() {
        let (p1, m1) = build(false);
        let mut p2 = Program::new();
        p2.declare_class("java.lang.Object", None, &[]);
        let c = p2.declare_class("A", Some("java.lang.Object"), &[]);
        p2.declare_field(c, "data", Type::Int, false);
        let mut b = MethodBuilder::new_instance(&mut p2, c, "run", vec![Type::Int], Type::Int);
        let x = b.param(0);
        // Same signature, different body (no field write).
        b.ret(Some(Operand::Local(x)));
        let m2 = b.finish();
        assert_ne!(body_fingerprint(&p1, m1), body_fingerprint(&p2, m2));
    }

    #[test]
    fn fingerprint_distinguishes_overloaded_callees() {
        let mk = |param: Type| {
            let mut p = Program::new();
            p.declare_class("java.lang.Object", None, &[]);
            let c = p.declare_class("B", Some("java.lang.Object"), &[]);
            let mut b = MethodBuilder::new_static_on(&mut p, c, "go", vec![], Type::Void);
            b.call_static(None, "Lib", "f", vec![param], Type::Void, vec![
                Operand::Const(Constant::Null),
            ]);
            b.ret(None);
            let m = b.finish();
            body_fingerprint(&p, m)
        };
        assert_ne!(mk(Type::Int), mk(Type::Boolean));
    }
}
