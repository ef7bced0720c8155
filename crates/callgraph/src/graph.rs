//! Call-graph construction by reachability from entry points.

use crate::hierarchy::Hierarchy;
use flowdroid_ir::{
    ClassId, FxHashMap, FxHashSet, InvokeKind, MethodId, Program, Rvalue, Stmt, StmtRef,
};
use std::collections::VecDeque;

/// The program a call-graph build walks. Through a `&mut Program` the
/// walk decodes each deferred body it reaches (see
/// [`Program::ensure_body`]) before scanning it, so bodies it never
/// reaches stay pending; through a `&Program` every body it reaches must
/// be decoded already.
pub trait ProgramRef {
    /// The program.
    fn program(&self) -> &Program;
    /// Makes the body of the reached method `m` available to the scan.
    fn load_body(&mut self, m: MethodId);
}

impl ProgramRef for &Program {
    fn program(&self) -> &Program {
        self
    }

    /// # Panics
    ///
    /// Panics, naming `m`, if its body is still pending.
    fn load_body(&mut self, m: MethodId) {
        assert!(
            !self.method(m).body_is_pending(),
            "call graph reached {}, whose body is pending: build over a &mut Program to decode it",
            self.signature(m)
        );
    }
}

impl ProgramRef for &mut Program {
    fn program(&self) -> &Program {
        self
    }

    fn load_body(&mut self, m: MethodId) {
        if self.method(m).body_is_pending() {
            self.ensure_body(m);
        }
    }
}

/// A class-hierarchy-analysis (CHA) call graph: callees per call site and
/// callers per method, restricted to methods reachable from the entry
/// points.
///
/// Calls to body-less methods (natives, phantom framework stubs) get no
/// edge; analyses handle those with explicit rules rather than by
/// descending into them.
#[derive(Debug, Default)]
pub struct CallGraph {
    callees_at: FxHashMap<StmtRef, Vec<MethodId>>,
    callers_of: FxHashMap<MethodId, Vec<StmtRef>>,
    reachable: Vec<MethodId>,
    reachable_set: FxHashSet<MethodId>,
    instantiated: FxHashSet<ClassId>,
}

impl CallGraph {
    /// Builds the call graph reachable from `entry_points` over a
    /// `&Program` or a `&mut Program` (see [`ProgramRef`]).
    ///
    /// # Panics
    ///
    /// Over a `&Program`, panics if the walk reaches a method whose body
    /// is still pending.
    pub fn build(program: impl ProgramRef, entry_points: &[MethodId]) -> Self {
        let hierarchy = Hierarchy::build(program.program());
        Self::build_with_hierarchy(program, &hierarchy, entry_points)
    }

    /// Builds the call graph using a pre-built [`Hierarchy`].
    ///
    /// Decoding a body may declare phantom classes (types named only
    /// inside bodies). They have no methods and no subtype edges, so a
    /// hierarchy built before the walk stays valid through it.
    ///
    /// # Panics
    ///
    /// As [`CallGraph::build`].
    pub fn build_with_hierarchy(
        mut program: impl ProgramRef,
        hierarchy: &Hierarchy,
        entry_points: &[MethodId],
    ) -> Self {
        let mut cg = CallGraph::default();
        let mut queue: VecDeque<MethodId> = VecDeque::new();
        for &m in entry_points {
            if cg.reachable_set.insert(m) {
                cg.reachable.push(m);
                queue.push_back(m);
            }
        }
        while let Some(m) = queue.pop_front() {
            program.load_body(m);
            let program = program.program();
            let Some(body) = program.method(m).body() else { continue };
            for (idx, stmt) in body.stmts().iter().enumerate() {
                if let Stmt::Assign { rhs: Rvalue::New(c), .. } = stmt {
                    cg.instantiated.insert(*c);
                }
                let Some(call) = stmt.invoke_expr() else { continue };
                let site = StmtRef::new(m, idx);
                let targets: Vec<MethodId> = match call.kind {
                    InvokeKind::Static | InvokeKind::Special => {
                        program.resolve_method_ref(&call.callee).into_iter().collect()
                    }
                    InvokeKind::Virtual | InvokeKind::Interface => {
                        let mut t = hierarchy.virtual_targets(program, &call.callee);
                        // If dispatch found nothing (e.g. phantom-class
                        // receiver), fall back to the static resolution so
                        // stub handling still sees a target.
                        if t.is_empty() {
                            t = program.resolve_method_ref(&call.callee).into_iter().collect();
                        }
                        t
                    }
                };
                for t in targets.into_iter().filter(|&t| program.method(t).has_body()) {
                    cg.callees_at.entry(site).or_default().push(t);
                    cg.callers_of.entry(t).or_default().push(site);
                    if cg.reachable_set.insert(t) {
                        cg.reachable.push(t);
                        queue.push_back(t);
                    }
                }
            }
        }
        cg
    }

    /// Methods reachable from the entry points, in discovery order.
    pub fn reachable_methods(&self) -> &[MethodId] {
        &self.reachable
    }

    /// Returns `true` if `m` is reachable.
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable_set.contains(&m)
    }

    /// Callees with bodies at a call site.
    pub fn callees_at(&self, site: StmtRef) -> &[MethodId] {
        self.callees_at.get(&site).map_or(&[], Vec::as_slice)
    }

    /// Call sites invoking `m`.
    pub fn callers_of(&self, m: MethodId) -> &[StmtRef] {
        self.callers_of.get(&m).map_or(&[], Vec::as_slice)
    }

    /// Classes instantiated in reachable code.
    pub fn instantiated_classes(&self) -> &FxHashSet<ClassId> {
        &self.instantiated
    }

    /// Total number of call edges (to methods with bodies).
    pub fn edge_count(&self) -> usize {
        self.callees_at.values().map(Vec::len).sum()
    }

    /// Returns `true` if a (transitive) call path exists from `from` to
    /// `to`, following only body-having edges.
    pub fn can_reach(&self, from: MethodId, to: MethodId) -> bool {
        let mut seen = FxHashSet::default();
        let mut stack = vec![from];
        while let Some(m) = stack.pop() {
            if m == to {
                return true;
            }
            if !seen.insert(m) {
                continue;
            }
            for (site, tgts) in &self.callees_at {
                if site.method == m {
                    stack.extend(tgts.iter().copied());
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{MethodBuilder, Type};

    /// main() calls I.run() on an interface; A and B implement it; B is
    /// never instantiated, and CHA dispatches to it all the same.
    fn build_program() -> (Program, MethodId, MethodId, MethodId) {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        p.declare_interface("I", &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &["I"]);
        let b = p.declare_class("B", Some("java.lang.Object"), &["I"]);
        let run_a = MethodBuilder::new_instance(&mut p, a, "run", vec![], Type::Void).finish();
        let run_b = MethodBuilder::new_instance(&mut p, b, "run", vec![], Type::Void).finish();
        let main_cls = p.declare_class("Main", Some("java.lang.Object"), &[]);
        let ity = p.ref_type("I");
        let mut mb = MethodBuilder::new_static_on(&mut p, main_cls, "main", vec![], Type::Void);
        let x = mb.local("x", ity.clone());
        mb.new_object_uninit(x, "A");
        mb.call_interface(None, x, "I", "run", vec![], Type::Void, vec![]);
        let main = mb.finish();
        (p, main, run_a, run_b)
    }

    #[test]
    fn cha_reaches_all_implementers() {
        let (p, main, run_a, run_b) = build_program();
        let cg = CallGraph::build(&p, &[main]);
        assert!(cg.is_reachable(run_a));
        assert!(cg.is_reachable(run_b));
        let site = StmtRef::new(main, 1);
        assert_eq!(cg.callees_at(site).len(), 2);
        assert_eq!(cg.callers_of(run_a), &[site]);
    }

    #[test]
    fn bodyless_targets_get_no_call_edges() {
        let mut p = Program::new();
        let c = p.declare_class("Main", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
        b.call_static(None, "android.util.Log", "i", vec![], Type::Void, vec![]);
        let main = b.finish();
        // Declare the stub method body-less so it resolves.
        let log = p.find_class("android.util.Log").unwrap();
        let m = p.declare_method(log, "i", vec![], Type::Void, true);
        p.set_native(m, true);
        let cg = CallGraph::build(&p, &[main]);
        let site = StmtRef::new(main, 0);
        assert!(cg.callees_at(site).is_empty());
    }

    #[test]
    fn can_reach_is_transitive() {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        let mut b3 = MethodBuilder::new_static_on(&mut p, c, "h", vec![], Type::Void);
        b3.nop();
        let h = b3.finish();
        let mut b2 = MethodBuilder::new_static_on(&mut p, c, "g", vec![], Type::Void);
        b2.call_static(None, "C", "h", vec![], Type::Void, vec![]);
        b2.finish();
        let mut b1 = MethodBuilder::new_static_on(&mut p, c, "f", vec![], Type::Void);
        b1.call_static(None, "C", "g", vec![], Type::Void, vec![]);
        let f = b1.finish();
        let cg = CallGraph::build(&p, &[f]);
        assert!(cg.can_reach(f, h));
        assert!(!cg.can_reach(h, f));
    }
}
