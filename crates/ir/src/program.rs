//! The program arena: owns all classes, methods, fields and symbols.

use crate::body::Body;
use crate::class::{Class, ClassId, Field, FieldId, Method, MethodId, MethodRef, SubSig};
use crate::fxhash::FxHashMap;
use crate::symbols::{Interner, Symbol};
use crate::types::Type;
use std::fmt;
use std::sync::Arc;

/// Produces a method body on demand.
///
/// Frontends that can locate a method's body cheaply (e.g. a byte offset
/// into an SDEX image) register one of these via [`Program::defer_body`]
/// instead of decoding every body up front. The callgraph closure then
/// materializes only the bodies it actually reaches.
///
/// `materialize` receives the owning program because decoding may intern
/// strings or create phantom classes for referenced types. It must not
/// touch `method`'s own body slot; the caller installs the returned body.
pub trait BodySource: Send + Sync {
    /// Decodes the body identified by `token` (frontend-defined, e.g. a
    /// byte offset recorded while indexing).
    fn materialize(
        &self,
        program: &mut Program,
        method: MethodId,
        token: u64,
    ) -> Result<Body, String>;
}

/// A deferred body: the source that can decode it plus its token.
#[derive(Clone)]
pub(crate) struct PendingBody {
    pub(crate) source: Arc<dyn BodySource>,
    pub(crate) token: u64,
}

impl fmt::Debug for PendingBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingBody").field("token", &self.token).finish()
    }
}

/// The frozen, immutable half of a copy-on-write [`Program`].
///
/// A base holds fully built arenas (typically the Android platform model
/// decoded from `platform.fdps`) behind an `Arc` so any number of
/// concurrent jobs can layer cheap [`Program::overlay`]s on top of it
/// instead of deep-cloning the whole arena per job. Bases are created by
/// [`Program::freeze`] and are never mutated afterwards.
#[derive(Debug)]
pub struct ProgramBase {
    interner: Arc<Interner>,
    classes: Vec<Class>,
    class_by_name: FxHashMap<Symbol, ClassId>,
    methods: Vec<Method>,
    fields: Vec<Field>,
}

impl ProgramBase {
    /// Number of classes in the frozen arena.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods in the frozen arena.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of fields in the frozen arena.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }
}

/// A whole program: the unit of analysis.
///
/// All other IR entities live inside a `Program` and are addressed by
/// copyable ids. Classes referenced before (or without) being declared
/// exist as *phantom* classes so that incremental construction and
/// linking against framework stubs always succeeds.
///
/// A program is either *flat* (every arena owned directly — the default)
/// or an *overlay* over a shared frozen [`ProgramBase`]
/// ([`Program::overlay`]): base entities are read through the `Arc`,
/// job-local additions append to overlay arenas whose ids continue the
/// base numbering, and the rare mutation of a base entity (declaring a
/// phantom platform class, attaching a decoded body) copies just that
/// entity into a private override slot. Ids and symbols are numerically
/// identical to what a flat deep clone of the base would have produced,
/// so analysis results cannot depend on the representation.
#[derive(Default, Debug, Clone)]
pub struct Program {
    base: Option<Arc<ProgramBase>>,
    interner: Interner,
    classes: Vec<Class>,
    class_by_name: FxHashMap<Symbol, ClassId>,
    methods: Vec<Method>,
    fields: Vec<Field>,
    class_overrides: FxHashMap<u32, Class>,
    method_overrides: FxHashMap<u32, Method>,
    pending: FxHashMap<MethodId, PendingBody>,
    bodies_materialized: u64,
    materialization_log: Vec<MethodId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- copy-on-write layering ---------------------------------------

    /// Freezes a flat program into an immutable shared base.
    ///
    /// # Panics
    ///
    /// Panics if the program is itself an overlay or still has deferred
    /// bodies (a base must be self-contained: every job layered on top
    /// shares it byte-for-byte and must never need to mutate it).
    pub fn freeze(self) -> Arc<ProgramBase> {
        assert!(self.base.is_none(), "cannot freeze an overlay program");
        assert!(self.pending.is_empty(), "cannot freeze a program with pending bodies");
        Arc::new(ProgramBase {
            interner: Arc::new(self.interner),
            classes: self.classes,
            class_by_name: self.class_by_name,
            methods: self.methods,
            fields: self.fields,
        })
    }

    /// Creates a cheap job-local overlay over a frozen base: no arena is
    /// copied; new classes/methods/fields/symbols append after the base's
    /// ids and mutations of base entities copy only the touched entity.
    pub fn overlay(base: Arc<ProgramBase>) -> Program {
        Program {
            interner: Interner::with_base(Arc::clone(&base.interner)),
            base: Some(base),
            classes: Vec::new(),
            class_by_name: FxHashMap::default(),
            methods: Vec::new(),
            fields: Vec::new(),
            class_overrides: FxHashMap::default(),
            method_overrides: FxHashMap::default(),
            pending: FxHashMap::default(),
            bodies_materialized: 0,
            materialization_log: Vec::new(),
        }
    }

    /// Deep-copies a frozen base back into a flat program (the
    /// deep-clone comparison path; overlays are the fast path).
    pub fn thaw(base: &ProgramBase) -> Program {
        Program {
            base: None,
            interner: (*base.interner).clone(),
            classes: base.classes.clone(),
            class_by_name: base.class_by_name.clone(),
            methods: base.methods.clone(),
            fields: base.fields.clone(),
            class_overrides: FxHashMap::default(),
            method_overrides: FxHashMap::default(),
            pending: FxHashMap::default(),
            bodies_materialized: 0,
            materialization_log: Vec::new(),
        }
    }

    /// Returns `true` if this program is an overlay over a shared base.
    pub fn is_overlay(&self) -> bool {
        self.base.is_some()
    }

    fn base_class_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.classes.len())
    }

    fn base_method_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.methods.len())
    }

    fn base_field_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.fields.len())
    }

    /// Mutable access to a class, copying a base class into a private
    /// override slot on first touch.
    fn class_mut(&mut self, id: ClassId) -> &mut Class {
        let i = id.index();
        if let Some(base) = &self.base {
            if i < base.classes.len() {
                return self
                    .class_overrides
                    .entry(i as u32)
                    .or_insert_with(|| base.classes[i].clone());
            }
            let off = base.classes.len();
            return &mut self.classes[i - off];
        }
        &mut self.classes[i]
    }

    /// Mutable access to a method, copying a base method into a private
    /// override slot on first touch.
    fn method_mut(&mut self, id: MethodId) -> &mut Method {
        let i = id.index();
        if let Some(base) = &self.base {
            if i < base.methods.len() {
                return self
                    .method_overrides
                    .entry(i as u32)
                    .or_insert_with(|| base.methods[i].clone());
            }
            let off = base.methods.len();
            return &mut self.methods[i - off];
        }
        &mut self.methods[i]
    }

    fn lookup_class_sym(&self, sym: Symbol) -> Option<ClassId> {
        if let Some(base) = &self.base {
            if let Some(&id) = base.class_by_name.get(&sym) {
                return Some(id);
            }
        }
        self.class_by_name.get(&sym).copied()
    }

    // ----- symbols ------------------------------------------------------

    /// Interns a string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves a symbol to its string.
    pub fn str(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Looks up a symbol without interning.
    pub fn lookup_symbol(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    // ----- classes ------------------------------------------------------

    /// Returns the id for `name`, creating a phantom class if it does not
    /// exist yet.
    pub fn class_id(&mut self, name: &str) -> ClassId {
        let sym = self.interner.intern(name);
        if let Some(id) = self.lookup_class_sym(sym) {
            return id;
        }
        let id = ClassId::from_index(self.base_class_len() + self.classes.len());
        self.classes.push(Class {
            id,
            name: sym,
            superclass: None,
            interfaces: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            method_by_subsig: FxHashMap::default(),
            field_by_name: FxHashMap::default(),
            is_interface: false,
            is_abstract: false,
            is_declared: false,
        });
        self.class_by_name.insert(sym, id);
        id
    }

    /// Declares (or completes a phantom) class with the given superclass
    /// and interfaces.
    ///
    /// # Panics
    ///
    /// Panics if the class was already declared.
    pub fn declare_class(
        &mut self,
        name: &str,
        superclass: Option<&str>,
        interfaces: &[&str],
    ) -> ClassId {
        let id = self.class_id(name);
        let superclass = superclass.map(|s| self.class_id(s));
        let interfaces: Vec<ClassId> = interfaces.iter().map(|s| self.class_id(s)).collect();
        let c = self.class_mut(id);
        assert!(!c.is_declared, "class {name} declared twice");
        c.superclass = superclass;
        c.interfaces = interfaces;
        c.is_declared = true;
        id
    }

    /// Declares an interface.
    ///
    /// # Panics
    ///
    /// Panics if the interface was already declared.
    pub fn declare_interface(&mut self, name: &str, extends: &[&str]) -> ClassId {
        let id = self.declare_class(name, None, extends);
        self.class_mut(id).is_interface = true;
        id
    }

    /// Marks a class as abstract.
    pub fn set_abstract(&mut self, class: ClassId, is_abstract: bool) {
        self.class_mut(class).is_abstract = is_abstract;
    }

    /// A class by id.
    pub fn class(&self, id: ClassId) -> &Class {
        let i = id.index();
        if let Some(base) = &self.base {
            if i < base.classes.len() {
                if !self.class_overrides.is_empty() {
                    if let Some(c) = self.class_overrides.get(&(i as u32)) {
                        return c;
                    }
                }
                return &base.classes[i];
            }
            return &self.classes[i - base.classes.len()];
        }
        &self.classes[i]
    }

    /// Looks up a class by name without creating a phantom.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        let sym = self.interner.get(name)?;
        self.lookup_class_sym(sym)
    }

    /// The fully qualified name of a class.
    pub fn class_name(&self, id: ClassId) -> &str {
        self.str(self.class(id).name)
    }

    /// Iterates all classes (declared and phantom).
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        (0..self.class_count()).map(move |i| self.class(ClassId::from_index(i)))
    }

    /// Number of classes (including phantoms).
    pub fn class_count(&self) -> usize {
        self.base_class_len() + self.classes.len()
    }

    /// A `Type::Ref` for the named class (interning it as needed).
    pub fn ref_type(&mut self, name: &str) -> Type {
        Type::Ref(self.class_id(name))
    }

    /// Walks the superclass chain starting at (and including) `class`.
    /// The chain must end: loaders reject a class for which
    /// [`Program::superclass_cycle`] holds.
    pub fn supers(&self, class: ClassId) -> Supers<'_> {
        Supers { program: self, cur: Some(class) }
    }

    /// Whether the superclass chain from `class` never ends. A chain of
    /// distinct classes has at most [`Program::class_count`] members,
    /// so one that goes on past them must repeat a class.
    pub fn superclass_cycle(&self, class: ClassId) -> bool {
        self.supers(class).nth(self.class_count()).is_some()
    }

    /// Returns `true` if `sub` equals `sup` or transitively extends /
    /// implements it.
    pub fn is_subtype_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut stack = vec![sub];
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = stack.pop() {
            if c == sup {
                return true;
            }
            if !seen.insert(c) {
                continue;
            }
            let cd = self.class(c);
            if let Some(s) = cd.superclass {
                stack.push(s);
            }
            stack.extend(cd.interfaces.iter().copied());
        }
        false
    }

    // ----- fields -------------------------------------------------------

    /// Declares a field on `class`.
    ///
    /// # Panics
    ///
    /// Panics if a field of that name already exists on the class.
    pub fn declare_field(
        &mut self,
        class: ClassId,
        name: &str,
        ty: Type,
        is_static: bool,
    ) -> FieldId {
        let sym = self.interner.intern(name);
        let id = FieldId::from_index(self.base_field_len() + self.fields.len());
        let c = self.class_mut(class);
        assert!(!c.field_by_name.contains_key(&sym), "field declared twice on class");
        c.fields.push(id);
        c.field_by_name.insert(sym, id);
        self.fields.push(Field { id, class, name: sym, ty, is_static });
        id
    }

    /// A field by id.
    pub fn field(&self, id: FieldId) -> &Field {
        let i = id.index();
        if let Some(base) = &self.base {
            if i < base.fields.len() {
                return &base.fields[i];
            }
            return &self.fields[i - base.fields.len()];
        }
        &self.fields[i]
    }

    /// Resolves a field by name on `class`, walking up the superclass
    /// chain. Creates nothing.
    pub fn resolve_field(&self, class: ClassId, name: Symbol) -> Option<FieldId> {
        for c in self.supers(class) {
            if let Some(f) = self.class(c).field_by_name(name) {
                return Some(f);
            }
        }
        None
    }

    /// Iterates all fields in declaration (arena) order.
    pub fn fields(&self) -> impl Iterator<Item = &Field> {
        (0..self.field_count()).map(move |i| self.field(FieldId::from_index(i)))
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.base_field_len() + self.fields.len()
    }

    // ----- methods ------------------------------------------------------

    /// Declares a method on `class`. Bodies are attached separately via
    /// [`Program::set_body`] (the [`crate::MethodBuilder`] does both).
    ///
    /// # Panics
    ///
    /// Panics if a method with the same subsignature already exists on
    /// the class.
    pub fn declare_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        is_static: bool,
    ) -> MethodId {
        let name = self.interner.intern(name);
        let subsig = SubSig { name, params, ret };
        let id = MethodId::from_index(self.base_method_len() + self.methods.len());
        let c = self.class_mut(class);
        assert!(!c.method_by_subsig.contains_key(&subsig), "method declared twice on class");
        c.methods.push(id);
        c.method_by_subsig.insert(subsig.clone(), id);
        self.methods.push(Method {
            id,
            class,
            subsig,
            is_static,
            is_native: false,
            is_abstract: false,
            body: None,
            body_pending: false,
        });
        id
    }

    /// Marks a method native (modeled by explicit rules, never analyzed).
    pub fn set_native(&mut self, method: MethodId, is_native: bool) {
        self.method_mut(method).is_native = is_native;
    }

    /// Marks a method abstract.
    pub fn set_method_abstract(&mut self, method: MethodId, is_abstract: bool) {
        self.method_mut(method).is_abstract = is_abstract;
    }

    /// Attaches a body to a method.
    ///
    /// # Panics
    ///
    /// Panics if the method already has a body (decoded or deferred).
    pub fn set_body(&mut self, method: MethodId, body: Body) {
        let m = self.method_mut(method);
        assert!(m.body.is_none(), "method body set twice");
        assert!(!m.body_pending, "method body already deferred");
        m.body = Some(body);
    }

    // ----- deferred bodies ----------------------------------------------

    /// Registers a deferred body for `method`. The method reports
    /// [`Method::has_body`] from here on, but [`Method::body`] stays
    /// `None` until [`Program::ensure_body`] materializes it.
    ///
    /// # Panics
    ///
    /// Panics if the method already has a decoded or deferred body.
    pub fn defer_body(&mut self, method: MethodId, source: Arc<dyn BodySource>, token: u64) {
        let m = self.method_mut(method);
        assert!(m.body.is_none(), "method body set twice");
        assert!(!m.body_pending, "method body already deferred");
        m.body_pending = true;
        self.pending.insert(method, PendingBody { source, token });
    }

    /// Materializes `method`'s deferred body if it has one. Returns
    /// `true` if a body was decoded by this call.
    ///
    /// Installation is atomic: the pending registration is cleared only
    /// after the source returns a complete body, so a panicking decode
    /// (or an aborted job unwinding mid-call) never leaves a
    /// partially-materialized body behind — the method simply stays
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics if the registered [`BodySource`] reports a decode error;
    /// frontends validate body bytes when they defer, so an error here is
    /// a frontend bug, not bad input.
    pub fn ensure_body(&mut self, method: MethodId) -> bool {
        let Some(pending) = self.pending.get(&method).cloned() else {
            return false;
        };
        let body = match pending.source.materialize(self, method, pending.token) {
            Ok(body) => body,
            Err(e) => panic!("deferred body for {}: {e}", self.signature(method)),
        };
        self.pending.remove(&method);
        let m = self.method_mut(method);
        m.body_pending = false;
        m.body = Some(body);
        self.bodies_materialized += 1;
        self.materialization_log.push(method);
        true
    }

    /// The methods materialized by [`Program::ensure_body`], in call
    /// order. Replaying this log through `ensure_body` on a fresh program
    /// loaded from the same inputs reproduces the arena and interner
    /// state exactly (decoding is deterministic), which is what lets a
    /// daemon cache callgraphs across jobs without perturbing ids.
    pub fn materialization_log(&self) -> &[MethodId] {
        &self.materialization_log
    }

    /// Number of deferred bodies not yet materialized.
    pub fn pending_body_count(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if any deferred bodies remain unmaterialized.
    pub fn has_pending_bodies(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of deferred bodies materialized so far (monotonic counter;
    /// cloning a program clones the counter).
    pub fn bodies_materialized(&self) -> u64 {
        self.bodies_materialized
    }

    /// A method by id.
    pub fn method(&self, id: MethodId) -> &Method {
        let i = id.index();
        if let Some(base) = &self.base {
            if i < base.methods.len() {
                if !self.method_overrides.is_empty() {
                    if let Some(m) = self.method_overrides.get(&(i as u32)) {
                        return m;
                    }
                }
                return &base.methods[i];
            }
            return &self.methods[i - base.methods.len()];
        }
        &self.methods[i]
    }

    /// Iterates all methods.
    pub fn methods(&self) -> impl Iterator<Item = &Method> {
        (0..self.method_count()).map(move |i| self.method(MethodId::from_index(i)))
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.base_method_len() + self.methods.len()
    }

    /// Looks up a declared method by class name / method name when the
    /// subsignature is unique by name on that class. Convenience for
    /// tests and harnesses.
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        let cid = self.find_class(class)?;
        let name = self.interner.get(name)?;
        let c = self.class(cid);
        let mut found = None;
        for &m in &c.methods {
            if self.method(m).subsig.name == name {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(m);
            }
        }
        found
    }

    /// Resolves a method reference to a concrete method by walking up
    /// the superclass chain from `MethodRef::class` (the "declared
    /// target" as used for `invokespecial`/`invokestatic` and as the CHA
    /// starting point for virtual dispatch).
    pub fn resolve_method_ref(&self, mref: &MethodRef) -> Option<MethodId> {
        for c in self.supers(mref.class) {
            if let Some(m) = self.class(c).method_by_subsig(&mref.subsig) {
                return Some(m);
            }
            // Also check interfaces for default-style declarations.
            for &i in self.class(c).interfaces() {
                if let Some(m) = self.class(i).method_by_subsig(&mref.subsig) {
                    return Some(m);
                }
            }
        }
        None
    }

    /// A human-readable full signature like
    /// `<com.example.Foo: java.lang.String bar(int)>`.
    pub fn signature(&self, method: MethodId) -> String {
        let m = self.method(method);
        let mut out = String::from("<");
        out.push_str(self.class_name(m.class));
        out.push_str(": ");
        self.push_type_name(&mut out, &m.subsig.ret);
        out.push(' ');
        out.push_str(self.str(m.subsig.name));
        out.push('(');
        for (i, t) in m.subsig.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.push_type_name(&mut out, t);
        }
        out.push_str(")>");
        out
    }

    /// Resolves a type to its display name (`int`, `java.lang.String[]`, …).
    pub fn type_name(&self, ty: &Type) -> String {
        let mut out = String::new();
        self.push_type_name(&mut out, ty);
        out
    }

    /// Whether [`Program::type_name`] of `ty` is `name`, compared in
    /// place.
    pub fn type_name_is(&self, ty: &Type, name: &str) -> bool {
        match ty {
            Type::Ref(c) => self.class_name(*c) == name,
            Type::Array(e) => name.strip_suffix("[]").is_some_and(|n| self.type_name_is(e, n)),
            prim => prim.keyword() == Some(name),
        }
    }

    /// Appends [`Program::type_name`] of `ty` to `out`.
    fn push_type_name(&self, out: &mut String, ty: &Type) {
        match ty {
            Type::Ref(c) => out.push_str(self.class_name(*c)),
            Type::Array(e) => {
                self.push_type_name(out, e);
                out.push_str("[]");
            }
            prim => out.push_str(prim.keyword().expect("not a reference type")),
        }
    }
}

/// Iterator over a class and its transitive superclasses.
pub struct Supers<'p> {
    program: &'p Program,
    cur: Option<ClassId>,
}

impl Iterator for Supers<'_> {
    type Item = ClassId;

    fn next(&mut self) -> Option<ClassId> {
        let cur = self.cur?;
        self.cur = self.program.class(cur).superclass();
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phantom_then_declare() {
        let mut p = Program::new();
        let id1 = p.class_id("a.B");
        assert!(!p.class(id1).is_declared());
        let id2 = p.declare_class("a.B", Some("java.lang.Object"), &[]);
        assert_eq!(id1, id2);
        assert!(p.class(id1).is_declared());
        assert!(p.class(p.find_class("java.lang.Object").unwrap()).superclass().is_none());
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn double_declare_panics() {
        let mut p = Program::new();
        p.declare_class("X", None, &[]);
        p.declare_class("X", None, &[]);
    }

    #[test]
    fn subtype_via_interface() {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let i = p.declare_interface("I", &[]);
        let c = p.declare_class("C", Some("java.lang.Object"), &["I"]);
        let d = p.declare_class("D", Some("C"), &[]);
        let obj = p.find_class("java.lang.Object").unwrap();
        assert!(p.is_subtype_of(d, i));
        assert!(p.is_subtype_of(d, obj));
        assert!(p.is_subtype_of(c, c));
        assert!(!p.is_subtype_of(c, d));
    }

    #[test]
    fn field_resolution_walks_supers() {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &[]);
        let b = p.declare_class("B", Some("A"), &[]);
        let f = p.declare_field(a, "data", Type::Int, false);
        let name = p.lookup_symbol("data").unwrap();
        assert_eq!(p.resolve_field(b, name), Some(f));
        assert_eq!(p.field(f).class(), a);
    }

    #[test]
    fn method_ref_resolution_walks_supers() {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &[]);
        let b = p.declare_class("B", Some("A"), &[]);
        let m = p.declare_method(a, "run", vec![], Type::Void, false);
        let subsig = p.method(m).subsig().clone();
        let mref = MethodRef { class: b, subsig };
        assert_eq!(p.resolve_method_ref(&mref), Some(m));
    }

    #[test]
    fn signature_formatting() {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let c = p.declare_class("com.example.Foo", Some("java.lang.Object"), &[]);
        let s = p.ref_type("java.lang.String");
        let m = p.declare_method(c, "bar", vec![Type::Int, s.clone()], s, false);
        assert_eq!(p.signature(m), "<com.example.Foo: java.lang.String bar(int,java.lang.String)>");
    }

    struct TestSource {
        stmts: Vec<crate::Stmt>,
        fail: bool,
    }

    impl BodySource for TestSource {
        fn materialize(
            &self,
            _program: &mut Program,
            _method: MethodId,
            _token: u64,
        ) -> Result<Body, String> {
            if self.fail {
                return Err("synthetic decode failure".into());
            }
            Ok(Body::new(Vec::new(), self.stmts.clone(), vec![0; self.stmts.len()]))
        }
    }

    #[test]
    fn deferred_body_counts_as_has_body_until_materialized() {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        let m = p.declare_method(c, "f", vec![], Type::Void, true);
        let src =
            Arc::new(TestSource { stmts: vec![crate::Stmt::Return { value: None }], fail: false });
        p.defer_body(m, src, 0);
        assert!(p.method(m).has_body());
        assert!(p.method(m).body_is_pending());
        assert!(p.method(m).body().is_none());
        assert_eq!(p.pending_body_count(), 1);

        assert!(p.ensure_body(m));
        assert!(p.method(m).has_body());
        assert!(!p.method(m).body_is_pending());
        assert_eq!(p.method(m).body().unwrap().stmts().len(), 1);
        assert_eq!(p.pending_body_count(), 0);
        assert_eq!(p.bodies_materialized(), 1);
        assert_eq!(p.materialization_log(), &[m]);

        // Second call is a no-op.
        assert!(!p.ensure_body(m));
        assert_eq!(p.bodies_materialized(), 1);
        assert_eq!(p.materialization_log().len(), 1);
    }

    #[test]
    fn failed_materialization_leaves_method_pending() {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        let m = p.declare_method(c, "f", vec![], Type::Void, true);
        p.defer_body(m, Arc::new(TestSource { stmts: vec![], fail: true }), 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.ensure_body(m);
        }));
        assert!(err.is_err());
        // No partially-materialized body: the method is still pending and
        // body-less, exactly as before the attempt.
        assert!(p.method(m).body().is_none());
        assert!(p.method(m).body_is_pending());
        assert_eq!(p.pending_body_count(), 1);
        assert_eq!(p.bodies_materialized(), 0);
        assert!(p.materialization_log().is_empty());
    }

    #[test]
    fn cloned_program_materializes_independently() {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        let m = p.declare_method(c, "f", vec![], Type::Void, true);
        let src =
            Arc::new(TestSource { stmts: vec![crate::Stmt::Return { value: None }], fail: false });
        p.defer_body(m, src, 0);

        let mut clone = p.clone();
        assert!(clone.ensure_body(m));
        // The original is untouched by the clone's materialization.
        assert!(p.method(m).body().is_none());
        assert!(p.method(m).body_is_pending());
        assert_eq!(p.bodies_materialized(), 0);
        assert_eq!(clone.bodies_materialized(), 1);
    }

    #[test]
    fn find_method_is_none_when_ambiguous() {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        p.declare_method(c, "f", vec![], Type::Void, false);
        p.declare_method(c, "f", vec![Type::Int], Type::Void, false);
        assert_eq!(p.find_method("C", "f"), None);
    }

    fn frozen_base() -> Arc<ProgramBase> {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let act = p.declare_class("android.app.Activity", Some("java.lang.Object"), &[]);
        let on_create = p.declare_method(act, "onCreate", vec![], Type::Void, false);
        p.set_native(on_create, true);
        p.class_id("android.phantom.Later"); // phantom in the base
        p.freeze()
    }

    #[test]
    fn overlay_ids_continue_base_numbering() {
        let base = frozen_base();
        let n_classes = base.class_count();
        let n_methods = base.method_count();

        // A flat thaw and a cheap overlay must mint identical ids for
        // the same declaration sequence.
        let mut flat = Program::thaw(&base);
        let mut over = Program::overlay(Arc::clone(&base));
        assert!(over.is_overlay());
        for p in [&mut flat, &mut over] {
            let c = p.declare_class("com.app.Main", Some("android.app.Activity"), &[]);
            assert_eq!(c.index(), n_classes);
            let m = p.declare_method(c, "run", vec![], Type::Void, false);
            assert_eq!(m.index(), n_methods);
            assert_eq!(p.class_count(), n_classes + 1);
            assert_eq!(p.method_count(), n_methods + 1);
        }
        assert_eq!(flat.find_class("com.app.Main"), over.find_class("com.app.Main"));
        // Base entities read through the overlay untouched.
        let act = over.find_class("android.app.Activity").unwrap();
        assert_eq!(over.class_name(act), "android.app.Activity");
        assert!(over.class(act).is_declared());
    }

    #[test]
    fn overlay_mutation_of_base_class_is_private() {
        let base = frozen_base();
        let mut over = Program::overlay(Arc::clone(&base));
        // Declaring a base phantom copies it into the overlay's override
        // slot; the shared base stays untouched for sibling overlays.
        let late = over.declare_class("android.phantom.Later", Some("java.lang.Object"), &[]);
        assert!(over.class(late).is_declared());
        assert!((late.index()) < base.class_count(), "declared in place, not re-minted");

        let sibling = Program::overlay(Arc::clone(&base));
        let same = sibling.find_class("android.phantom.Later").unwrap();
        assert_eq!(same, late);
        assert!(!sibling.class(same).is_declared(), "sibling sees the pristine base");
    }

    #[test]
    fn overlay_iterators_cover_base_and_overlay() {
        let base = frozen_base();
        let mut over = Program::overlay(Arc::clone(&base));
        let c = over.declare_class("com.app.Main", Some("java.lang.Object"), &[]);
        over.declare_field(c, "data", Type::Int, false);
        assert_eq!(over.classes().count(), over.class_count());
        assert_eq!(over.methods().count(), over.method_count());
        assert_eq!(over.fields().count(), over.field_count());
        assert!(over.classes().any(|k| over.str(k.name()) == "com.app.Main"));
        assert!(over.classes().any(|k| over.str(k.name()) == "android.app.Activity"));
    }

    #[test]
    #[should_panic(expected = "pending bodies")]
    fn freeze_rejects_pending_bodies() {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        let m = p.declare_method(c, "f", vec![], Type::Void, true);
        p.defer_body(m, Arc::new(TestSource { stmts: vec![], fail: false }), 0);
        let _ = p.freeze();
    }

    #[test]
    fn overlay_deferred_body_stays_job_local() {
        let base = frozen_base();
        let mut over = Program::overlay(Arc::clone(&base));
        let c = over.declare_class("com.app.Main", Some("java.lang.Object"), &[]);
        let m = over.declare_method(c, "f", vec![], Type::Void, true);
        over.defer_body(
            m,
            Arc::new(TestSource { stmts: vec![crate::Stmt::Return { value: None }], fail: false }),
            0,
        );
        let mut clone = over.clone(); // cheap: shares the base Arc
        assert!(clone.ensure_body(m));
        assert!(over.method(m).body().is_none());
        assert_eq!(clone.materialization_log(), &[m]);
        assert!(over.materialization_log().is_empty());
    }
}
