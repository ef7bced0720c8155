//! Class-hierarchy indexes and virtual-dispatch resolution.

use flowdroid_ir::{ClassId, FxHashMap, FxHashSet, MethodId, MethodRef, Program, SubSig};

/// Precomputed subtype indexes over a program's class hierarchy.
///
/// Built once per program snapshot; rebuilding is cheap relative to the
/// analyses that consume it.
#[derive(Debug)]
pub struct Hierarchy {
    /// Direct subclasses (and direct subinterfaces) per class.
    direct_subs: FxHashMap<ClassId, Vec<ClassId>>,
    /// Direct implementers per interface.
    direct_impls: FxHashMap<ClassId, Vec<ClassId>>,
}

impl Hierarchy {
    /// Builds the hierarchy indexes for `program`.
    pub fn build(program: &Program) -> Self {
        let mut direct_subs: FxHashMap<ClassId, Vec<ClassId>> = FxHashMap::default();
        let mut direct_impls: FxHashMap<ClassId, Vec<ClassId>> = FxHashMap::default();
        for c in program.classes() {
            if let Some(s) = c.superclass() {
                direct_subs.entry(s).or_default().push(c.id());
            }
            for &i in c.interfaces() {
                direct_impls.entry(i).or_default().push(c.id());
            }
        }
        Self { direct_subs, direct_impls }
    }

    /// All transitive subtypes of `class`, including `class` itself.
    /// Covers both `extends` and `implements` edges.
    pub fn subtypes_of(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            out.push(c);
            if let Some(subs) = self.direct_subs.get(&c) {
                stack.extend(subs.iter().copied());
            }
            if let Some(impls) = self.direct_impls.get(&c) {
                stack.extend(impls.iter().copied());
            }
        }
        out
    }

    /// Resolves the concrete method a receiver of *runtime* type
    /// `receiver` executes for `subsig`, by walking up the superclass
    /// chain (standard virtual dispatch).
    pub fn dispatch(
        &self,
        program: &Program,
        receiver: ClassId,
        subsig: &SubSig,
    ) -> Option<MethodId> {
        for c in program.supers(receiver) {
            if let Some(m) = program.class(c).method_by_subsig(subsig) {
                let method = program.method(m);
                if !method.is_abstract() {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Class-hierarchy-analysis targets of a virtual/interface call
    /// through `mref`: for every concrete subtype of the declared class,
    /// the method dispatch would select.
    pub fn virtual_targets(&self, program: &Program, mref: &MethodRef) -> Vec<MethodId> {
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        for sub in self.subtypes_of(mref.class) {
            let cd = program.class(sub);
            if cd.is_interface() || cd.is_abstract() {
                continue;
            }
            if let Some(m) = self.dispatch(program, sub, &mref.subsig) {
                if seen.insert(m) {
                    out.push(m);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{MethodBuilder, Type};

    fn diamond() -> (Program, ClassId, MethodId, MethodId) {
        // interface I { void run(); }
        // class A implements I { void run() {} }
        // class B extends A { void run() {} }
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let i = p.declare_interface("I", &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &["I"]);
        let b = p.declare_class("B", Some("A"), &[]);
        let run_a = MethodBuilder::new_instance(&mut p, a, "run", vec![], Type::Void).finish();
        let run_b = MethodBuilder::new_instance(&mut p, b, "run", vec![], Type::Void).finish();
        let _ = (i, b);
        (p, i, run_a, run_b)
    }

    #[test]
    fn subtypes_cross_interface_edges() {
        let (p, i, _, _) = diamond();
        let h = Hierarchy::build(&p);
        let subs = h.subtypes_of(i);
        let names: Vec<_> = subs.iter().map(|&c| p.class_name(c)).collect();
        assert!(names.contains(&"I"));
        assert!(names.contains(&"A"));
        assert!(names.contains(&"B"));
    }

    #[test]
    fn cha_interface_call_finds_both_overrides() {
        let (p, i, run_a, run_b) = diamond();
        let h = Hierarchy::build(&p);
        let subsig = p.method(run_a).subsig().clone();
        let mref = MethodRef { class: i, subsig };
        let targets = h.virtual_targets(&p, &mref);
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&run_a));
        assert!(targets.contains(&run_b));
    }

    #[test]
    fn dispatch_walks_supers() {
        let (p, _, run_a, _) = diamond();
        let h = Hierarchy::build(&p);
        // class C extends A (no override): dispatch(C) = A.run — emulate
        // by dispatching on A itself.
        let a = p.find_class("A").unwrap();
        let subsig = p.method(run_a).subsig().clone();
        assert_eq!(h.dispatch(&p, a, &subsig), Some(run_a));
    }

    #[test]
    fn abstract_methods_are_not_dispatch_targets() {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &[]);
        p.set_abstract(a, true);
        let m = p.declare_method(a, "run", vec![], Type::Void, false);
        p.set_method_abstract(m, true);
        let h = Hierarchy::build(&p);
        assert_eq!(h.dispatch(&p, a, p.method(m).subsig()), None);
    }
}
