//! Demand-driven body materialization gated by callgraph reachability.
//!
//! Lazily loaded frontends (see `flowdroid_frontend::sdex::decode_lazy`)
//! register method bodies as *pending* on the [`Program`]; before a call
//! graph can be built over such a program, the bodies of every method
//! the closure might reach must be decoded. [`materialize_reachable`]
//! performs that discovery: a breadth-first walk from the entry points
//! that materializes each discovered method's body and then scans it for
//! call sites, dispatching virtual calls through the [`Hierarchy`].
//!
//! The walk deliberately over-approximates both callgraph algorithms
//! (it is plain CHA *without* the abstract-receiver or instantiated-set
//! pruning), so the immutable [`crate::CallGraph::build`] that follows
//! never encounters a reachable method whose body is still pending.
//! Unreached bodies stay pending — that is the point: they are counted
//! as `bodies_skipped` and never lowered.

use crate::hierarchy::Hierarchy;
use flowdroid_ir::{FxHashSet, InvokeKind, MethodId, Program};
use std::collections::VecDeque;

/// Statistics of one materialization pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeStats {
    /// Bodies decoded by this pass.
    pub materialized: u64,
    /// Methods visited by the reachability walk.
    pub visited: u64,
}

/// Materializes the bodies of every method reachable from
/// `entry_points`, using `hierarchy` for virtual dispatch. Returns the
/// pass statistics. A program with no pending bodies returns
/// immediately.
///
/// Body decoding may create new *phantom* classes (for types referenced
/// only inside bodies); those are hierarchy leaves without methods or
/// subtype edges, so a hierarchy built before this pass remains valid
/// for the callgraph construction that follows.
pub fn materialize_reachable(
    program: &mut Program,
    hierarchy: &Hierarchy,
    entry_points: &[MethodId],
) -> MaterializeStats {
    let mut stats = MaterializeStats::default();
    if !program.has_pending_bodies() {
        return stats;
    }
    let mut seen: FxHashSet<MethodId> = FxHashSet::default();
    let mut queue: VecDeque<MethodId> = VecDeque::new();
    for &m in entry_points {
        if seen.insert(m) {
            queue.push_back(m);
        }
    }
    while let Some(m) = queue.pop_front() {
        stats.visited += 1;
        if program.ensure_body(m) {
            stats.materialized += 1;
        }
        let mut targets: Vec<MethodId> = Vec::new();
        {
            let Some(body) = program.method(m).body() else { continue };
            for stmt in body.stmts() {
                let Some(call) = stmt.invoke_expr() else { continue };
                match call.kind {
                    InvokeKind::Static | InvokeKind::Special => {
                        targets.extend(program.resolve_method_ref(&call.callee));
                    }
                    InvokeKind::Virtual | InvokeKind::Interface => {
                        // Superset of CHA: dispatch on every subtype,
                        // including abstract receivers (RTA may keep
                        // instantiated abstract classes CHA would skip).
                        let before = targets.len();
                        for sub in hierarchy.subtypes_of(call.callee.class) {
                            if program.class(sub).is_interface() {
                                continue;
                            }
                            if let Some(t) = hierarchy.dispatch(program, sub, &call.callee.subsig) {
                                targets.push(t);
                            }
                        }
                        if targets.len() == before {
                            // Same fallback as the callgraph builder:
                            // phantom receivers resolve statically.
                            targets.extend(program.resolve_method_ref(&call.callee));
                        }
                    }
                }
            }
        }
        for t in targets {
            if program.method(t).has_body() && seen.insert(t) {
                queue.push_back(t);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CallGraph, CgAlgorithm};
    use flowdroid_ir::{MethodBuilder, Type};

    /// Builds main -> A.run (virtual via I) with an unreachable method
    /// `dead`, encodes it through the frontend idiom used in production
    /// (a BodySource registered per method), and checks the walk
    /// materializes exactly the reachable bodies.
    #[test]
    fn only_reachable_bodies_are_materialized() {
        use flowdroid_ir::{Body, BodySource, Program as Prog};
        use std::sync::Arc;

        // Author the eager program first.
        let mut p = Prog::new();
        p.declare_class("java.lang.Object", None, &[]);
        p.declare_interface("I", &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &["I"]);
        let run_a = MethodBuilder::new_instance(&mut p, a, "run", vec![], Type::Void).finish();
        let mut dead_b = MethodBuilder::new_instance(&mut p, a, "dead", vec![], Type::Void);
        dead_b.nop();
        let dead = dead_b.finish();
        let main_cls = p.declare_class("Main", Some("java.lang.Object"), &[]);
        let ity = p.ref_type("I");
        let mut mb = MethodBuilder::new_static_on(&mut p, main_cls, "main", vec![], Type::Void);
        let x = mb.local("x", ity);
        mb.new_object_uninit(x, "A");
        mb.call_interface(None, x, "I", "run", vec![], Type::Void, vec![]);
        let main = mb.finish();

        // Re-create it with deferred bodies cloned from the eager one.
        struct FromEager {
            bodies: Vec<Option<Body>>,
        }
        impl BodySource for FromEager {
            fn materialize(
                &self,
                _program: &mut Prog,
                method: MethodId,
                _token: u64,
            ) -> Result<Body, String> {
                self.bodies[method.index()].clone().ok_or_else(|| "no body".to_owned())
            }
        }
        let source =
            Arc::new(FromEager { bodies: p.methods().map(|m| m.body().cloned()).collect() });
        // The lazy program repeats the declarations body-less, deferring
        // each body to the eager program's copy.
        let mut q = Prog::new();
        q.declare_class("java.lang.Object", None, &[]);
        q.declare_interface("I", &[]);
        let qa = q.declare_class("A", Some("java.lang.Object"), &["I"]);
        let q_run = q.declare_method(qa, "run", vec![], Type::Void, false);
        let q_dead = q.declare_method(qa, "dead", vec![], Type::Void, false);
        let qm = q.declare_class("Main", Some("java.lang.Object"), &[]);
        let q_main = q.declare_method(qm, "main", vec![], Type::Void, true);
        // Map q's ids onto p's bodies (same declaration order).
        assert_eq!(q_run.index(), run_a.index());
        assert_eq!(q_dead.index(), dead.index());
        assert_eq!(q_main.index(), main.index());
        q.defer_body(q_run, source.clone(), 0);
        q.defer_body(q_dead, source.clone(), 0);
        q.defer_body(q_main, source.clone(), 0);

        let hierarchy = Hierarchy::build(&q);
        let stats = materialize_reachable(&mut q, &hierarchy, &[q_main]);
        assert_eq!(stats.materialized, 2, "main and A.run only");
        assert_eq!(q.pending_body_count(), 1, "A.dead stays pending");
        assert!(q.method(q_dead).body_is_pending());

        // The callgraph over the materialized program matches the eager
        // one.
        let cg_lazy = CallGraph::build(&q, &[q_main], CgAlgorithm::Cha);
        let cg_eager = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
        assert_eq!(cg_lazy.reachable_methods().len(), cg_eager.reachable_methods().len());
        assert_eq!(cg_lazy.edge_count(), cg_eager.edge_count());
    }
}
