//! Ergonomic programmatic construction of method bodies.

use crate::body::{Body, LocalDecl, StmtIdx};
use crate::class::{ClassId, MethodId, MethodRef, SubSig};
use crate::program::Program;
use crate::stmt::{CmpOp, Cond, InvokeExpr, InvokeKind, Local, Operand, Place, Rvalue, Stmt};
use crate::types::Type;

/// A forward-referencable jump target used while building a body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

/// Builds a method body statement by statement.
///
/// The builder declares the method (or attaches to a pre-declared one),
/// allocates parameter locals, and resolves [`Label`]s to statement
/// indices when [`MethodBuilder::finish`] is called.
///
/// # Example
///
/// ```
/// use flowdroid_ir::{Program, MethodBuilder, Type, Rvalue, Constant};
///
/// let mut p = Program::new();
/// let c = p.declare_class("Loop", None, &[]);
/// let mut b = MethodBuilder::new_static(&mut p, "count", vec![], Type::Void);
/// # let _ = &b;
/// # drop(b);
/// let mut b = MethodBuilder::new_static_on(&mut p, c, "count2", vec![], Type::Void);
/// let i = b.local("i", Type::Int);
/// b.assign_local(i, Rvalue::Const(Constant::Int(0)));
/// let top = b.mark();
/// b.if_opaque_back(top);
/// b.ret(None);
/// b.finish();
/// ```
pub struct MethodBuilder<'p> {
    program: &'p mut Program,
    method: MethodId,
    locals: Vec<LocalDecl>,
    stmts: Vec<Stmt>,
    lines: Vec<u32>,
    labels: Vec<Option<StmtIdx>>,
    cur_line: u32,
}

impl<'p> MethodBuilder<'p> {
    /// Declares a new static method on a placeholder class named
    /// `"$synthetic"` and starts building its body. Mostly useful in
    /// doctests; prefer [`MethodBuilder::new_static_on`].
    pub fn new_static(program: &'p mut Program, name: &str, params: Vec<Type>, ret: Type) -> Self {
        let class = program.class_id("$synthetic");
        Self::new_static_on(program, class, name, params, ret)
    }

    /// Declares a new static method on `class` and starts building it.
    pub fn new_static_on(
        program: &'p mut Program,
        class: ClassId,
        name: &str,
        params: Vec<Type>,
        ret: Type,
    ) -> Self {
        let method = program.declare_method(class, name, params, ret, true);
        Self::for_method(program, method)
    }

    /// Declares a new instance method on `class` and starts building it.
    /// Local 0 is `this`.
    pub fn new_instance(
        program: &'p mut Program,
        class: ClassId,
        name: &str,
        params: Vec<Type>,
        ret: Type,
    ) -> Self {
        let method = program.declare_method(class, name, params, ret, false);
        Self::for_method(program, method)
    }

    /// Starts building the body of an already-declared, body-less method.
    ///
    /// # Panics
    ///
    /// Panics if the method already has a body.
    pub fn for_method(program: &'p mut Program, method: MethodId) -> Self {
        let m = program.method(method);
        assert!(m.body().is_none(), "method already has a body");
        let mut locals = Vec::new();
        if !m.is_static() {
            locals.push(LocalDecl { name: "this".to_owned(), ty: Type::Ref(m.class()) });
        }
        for (i, ty) in m.subsig().params.iter().enumerate() {
            locals.push(LocalDecl { name: format!("p{i}"), ty: ty.clone() });
        }
        Self {
            program,
            method,
            locals,
            stmts: Vec::new(),
            lines: Vec::new(),
            labels: Vec::new(),
            cur_line: 0,
        }
    }

    /// Reserves room for `locals` more locals and `stmts` more
    /// statements, for a caller that knows about how many the body holds.
    pub fn reserve(&mut self, locals: usize, stmts: usize) {
        self.locals.reserve_exact(locals);
        self.stmts.reserve_exact(stmts);
        self.lines.reserve_exact(stmts);
    }

    /// Access to the underlying program (for interning, class ids, …).
    pub fn program(&mut self) -> &mut Program {
        self.program
    }

    /// Sets the source line attributed to subsequently emitted statements.
    pub fn line(&mut self, line: u32) -> &mut Self {
        self.cur_line = line;
        self
    }

    /// The `this` local (instance methods only).
    ///
    /// # Panics
    ///
    /// Panics when building a static method.
    pub fn this(&self) -> Local {
        assert!(!self.program.method(self.method).is_static(), "static method has no this");
        Local(0)
    }

    /// The local holding declared parameter `i`.
    pub fn param(&self, i: usize) -> Local {
        self.program.method(self.method).param_local(i)
    }

    /// Renames an existing local (e.g. to give parameters their source
    /// names).
    ///
    /// # Panics
    ///
    /// Panics if the local is out of range.
    pub fn rename_local(&mut self, l: Local, name: &str) {
        self.locals[l.index()].name = name.to_owned();
    }

    /// Declares a fresh local variable.
    pub fn local(&mut self, name: &str, ty: Type) -> Local {
        let l = Local(u32::try_from(self.locals.len()).expect("too many locals"));
        self.locals.push(LocalDecl { name: name.to_owned(), ty });
        l
    }

    // ----- statement emission -------------------------------------------

    fn push(&mut self, s: Stmt) -> StmtIdx {
        self.stmts.push(s);
        self.lines.push(self.cur_line);
        self.stmts.len() - 1
    }

    /// Emits `lhs = rhs` for an arbitrary place.
    pub fn assign(&mut self, lhs: Place, rhs: Rvalue) -> StmtIdx {
        self.push(Stmt::Assign { lhs, rhs })
    }

    /// Emits `local = rhs`.
    pub fn assign_local(&mut self, lhs: Local, rhs: Rvalue) -> StmtIdx {
        self.assign(Place::Local(lhs), rhs)
    }

    /// Emits `lhs = new C()` *and* the constructor call `lhs.<init>()`.
    /// Returns the index of the allocation statement.
    pub fn new_object(&mut self, lhs: Local, class: &str) -> StmtIdx {
        let cid = self.program.class_id(class);
        let idx = self.assign_local(lhs, Rvalue::New(cid));
        self.call_special(None, lhs, class, "<init>", vec![], Type::Void, vec![]);
        idx
    }

    /// Emits a raw allocation without a constructor call.
    pub fn new_object_uninit(&mut self, lhs: Local, class: &str) -> StmtIdx {
        let cid = self.program.class_id(class);
        self.assign_local(lhs, Rvalue::New(cid))
    }

    /// Emits `nop`.
    pub fn nop(&mut self) -> StmtIdx {
        self.push(Stmt::Nop)
    }

    /// Emits `return` / `return value`.
    pub fn ret(&mut self, value: Option<Operand>) -> StmtIdx {
        self.push(Stmt::Return { value })
    }

    /// Emits `throw value`.
    pub fn throw(&mut self, value: Operand) -> StmtIdx {
        self.push(Stmt::Throw { value })
    }

    /// Builds an invoke expression targeting `class.name(params) -> ret`.
    #[allow(clippy::too_many_arguments)]
    pub fn invoke_expr(
        &mut self,
        kind: InvokeKind,
        base: Option<Local>,
        class: &str,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        args: Vec<Operand>,
    ) -> InvokeExpr {
        assert_eq!(params.len(), args.len(), "argument count mismatch for {class}.{name}");
        let cid = self.program.class_id(class);
        let name = self.program.intern(name);
        InvokeExpr {
            kind,
            base,
            callee: MethodRef { class: cid, subsig: SubSig { name, params, ret } },
            args,
        }
    }

    /// Emits a pre-built invoke expression.
    pub fn push_invoke(&mut self, result: Option<Local>, call: InvokeExpr) -> StmtIdx {
        self.push(Stmt::Invoke { result, call })
    }

    /// Emits a virtual call.
    #[allow(clippy::too_many_arguments)]
    pub fn call_virtual(
        &mut self,
        result: Option<Local>,
        base: Local,
        class: &str,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        args: Vec<Operand>,
    ) -> StmtIdx {
        let call =
            self.invoke_expr(InvokeKind::Virtual, Some(base), class, name, params, ret, args);
        self.push(Stmt::Invoke { result, call })
    }

    /// Emits an interface call.
    #[allow(clippy::too_many_arguments)]
    pub fn call_interface(
        &mut self,
        result: Option<Local>,
        base: Local,
        class: &str,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        args: Vec<Operand>,
    ) -> StmtIdx {
        let call =
            self.invoke_expr(InvokeKind::Interface, Some(base), class, name, params, ret, args);
        self.push(Stmt::Invoke { result, call })
    }

    /// Emits a special (non-virtual instance) call.
    #[allow(clippy::too_many_arguments)]
    pub fn call_special(
        &mut self,
        result: Option<Local>,
        base: Local,
        class: &str,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        args: Vec<Operand>,
    ) -> StmtIdx {
        let call =
            self.invoke_expr(InvokeKind::Special, Some(base), class, name, params, ret, args);
        self.push(Stmt::Invoke { result, call })
    }

    /// Emits a static call.
    pub fn call_static(
        &mut self,
        result: Option<Local>,
        class: &str,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        args: Vec<Operand>,
    ) -> StmtIdx {
        let call = self.invoke_expr(InvokeKind::Static, None, class, name, params, ret, args);
        self.push(Stmt::Invoke { result, call })
    }

    // ----- control flow ---------------------------------------------------

    /// Allocates an unbound label for forward jumps.
    pub fn fresh_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the position of the next emitted statement.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.stmts.len());
    }

    /// Allocates a label bound at the current position (for back edges).
    pub fn mark(&mut self) -> Label {
        let l = self.fresh_label();
        self.bind(l);
        l
    }

    /// Emits `if <opaque> goto label`.
    pub fn if_opaque(&mut self, label: Label) -> StmtIdx {
        self.push(Stmt::If { cond: Cond::Opaque, target: label.0 })
    }

    /// Emits `if <opaque> goto label` for a label already bound behind us
    /// (alias of [`MethodBuilder::if_opaque`], kept for call-site clarity).
    pub fn if_opaque_back(&mut self, label: Label) -> StmtIdx {
        self.if_opaque(label)
    }

    /// Emits `if a <op> b goto label`.
    pub fn if_cmp(&mut self, op: CmpOp, a: Operand, b: Operand, label: Label) -> StmtIdx {
        self.push(Stmt::If { cond: Cond::Cmp(op, a, b), target: label.0 })
    }

    /// Emits `goto label`.
    pub fn goto(&mut self, label: Label) -> StmtIdx {
        self.push(Stmt::Goto { target: label.0 })
    }

    // ----- finishing ------------------------------------------------------

    /// Resolves labels, terminates the body if needed, validates it and
    /// attaches it to the method. Returns the method id.
    ///
    /// Void methods whose last statement falls through get an implicit
    /// `return`.
    ///
    /// # Panics
    ///
    /// Panics on unbound labels, on non-void bodies that fall off the
    /// end, and on out-of-range locals.
    pub fn finish(mut self) -> MethodId {
        // Implicit return for void methods (also covers empty bodies).
        let falls_through = match self.stmts.last() {
            None => true,
            Some(Stmt::Return { .. } | Stmt::Throw { .. } | Stmt::Goto { .. }) => false,
            Some(_) => true,
        };
        if falls_through {
            let is_void = self.program.method(self.method).subsig().ret == Type::Void;
            assert!(is_void, "non-void method body falls off the end");
            self.push(Stmt::Return { value: None });
        }
        // Labels bound past the end point at the implicit return; if even
        // that is missing the label is dangling.
        let len = self.stmts.len();
        let mut resolved = Vec::with_capacity(self.labels.len());
        for (i, slot) in self.labels.iter().enumerate() {
            let idx = slot.unwrap_or_else(|| panic!("label {i} never bound"));
            assert!(idx < len, "label {i} bound past the end of the body");
            resolved.push(idx);
        }
        // Patch statements: targets currently store label ids.
        for s in &mut self.stmts {
            match s {
                Stmt::If { target, .. } | Stmt::Goto { target } => {
                    *target = resolved[*target];
                }
                _ => {}
            }
        }
        // Validate local slots.
        let nlocals = self.locals.len();
        let check = |l: Local| assert!(l.index() < nlocals, "local {l:?} out of range");
        for s in &self.stmts {
            visit_locals(s, &mut |l| check(l));
        }
        let body = Body::new(self.locals, self.stmts, self.lines);
        self.program.set_body(self.method, body);
        self.method
    }
}

fn visit_operand(o: &Operand, f: &mut dyn FnMut(Local)) {
    if let Operand::Local(l) = o {
        f(*l);
    }
}

fn visit_place(p: &Place, f: &mut dyn FnMut(Local)) {
    if let Some(b) = p.base() {
        f(b);
    }
    if let Place::ArrayElem(_, idx) = p {
        visit_operand(idx, f);
    }
}

/// Calls `f` for every local mentioned by `s`.
pub(crate) fn visit_locals(s: &Stmt, f: &mut dyn FnMut(Local)) {
    match s {
        Stmt::Assign { lhs, rhs } => {
            visit_place(lhs, f);
            for o in rhs.operands() {
                visit_operand(&o, f);
            }
        }
        Stmt::Invoke { result, call } => {
            if let Some(r) = result {
                f(*r);
            }
            if let Some(b) = call.base {
                f(b);
            }
            for a in &call.args {
                visit_operand(a, f);
            }
        }
        Stmt::If { cond: Cond::Cmp(_, a, b), .. } => {
            visit_operand(a, f);
            visit_operand(b, f);
        }
        Stmt::Return { value: Some(v) } => visit_operand(v, f),
        Stmt::Throw { value } => visit_operand(value, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Constant;

    #[test]
    fn builds_branching_body() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "f", vec![Type::Int], Type::Int);
        let x = b.param(0);
        let end = b.fresh_label();
        b.if_cmp(CmpOp::Eq, Operand::Local(x), Operand::Const(Constant::Int(0)), end);
        b.assign_local(x, Rvalue::Const(Constant::Int(1)));
        b.bind(end);
        b.ret(Some(Operand::Local(x)));
        let m = b.finish();
        let body = p.method(m).body().unwrap();
        assert_eq!(body.len(), 3);
        assert_eq!(body.cfg().succs(0), &[1, 2]);
    }

    #[test]
    fn implicit_return_for_void() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "f", vec![], Type::Void);
        b.nop();
        let m = b.finish();
        let body = p.method(m).body().unwrap();
        assert!(matches!(body.stmt(1), Stmt::Return { value: None }));
    }

    #[test]
    #[should_panic(expected = "falls off the end")]
    fn nonvoid_fallthrough_panics() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let b = MethodBuilder::new_static_on(&mut p, c, "f", vec![], Type::Int);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "f", vec![], Type::Void);
        let l = b.fresh_label();
        b.goto(l);
        b.finish();
    }

    #[test]
    fn label_at_end_points_to_implicit_return() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "f", vec![], Type::Void);
        let l = b.fresh_label();
        b.if_opaque(l);
        b.nop();
        b.bind(l);
        let m = b.finish();
        let body = p.method(m).body().unwrap();
        // if(0) -> nop(1) -> ret(2); label bound to 2 (implicit return)
        assert_eq!(body.cfg().succs(0), &[1, 2]);
    }

    #[test]
    fn instance_method_has_this() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let b = MethodBuilder::new_instance(&mut p, c, "g", vec![Type::Int], Type::Void);
        assert_eq!(b.this(), Local(0));
        assert_eq!(b.param(0), Local(1));
        b.finish();
    }

    #[test]
    fn new_object_emits_ctor_call() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "f", vec![], Type::Void);
        let dty = b.program().ref_type("D");
        let d = b.local("d", dty);
        b.new_object(d, "D");
        let m = b.finish();
        let body = p.method(m).body().unwrap();
        assert!(matches!(body.stmt(0), Stmt::Assign { rhs: Rvalue::New(_), .. }));
        assert!(body.stmt(1).is_call());
    }
}
