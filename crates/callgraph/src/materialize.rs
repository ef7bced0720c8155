//! Demand-driven body materialization gated by callgraph reachability.
//!
//! Lazily loaded frontends (see `flowdroid_frontend::sdex::decode_lazy`)
//! register method bodies as *pending* on the [`Program`]. A
//! [`CallGraph`] built over a `&mut Program` decodes each body its walk
//! reaches; unreached bodies stay pending — that is the point: they are
//! counted as `bodies_skipped` and never lowered.

use crate::graph::CallGraph;
use crate::hierarchy::Hierarchy;
use flowdroid_ir::{MethodId, Program};

/// Decodes the body of every method the call graph from `entry_points`
/// reaches, using `hierarchy` for virtual dispatch, and returns that
/// call graph. A program with no pending bodies decodes nothing.
pub fn materialize_reachable(
    program: &mut Program,
    hierarchy: &Hierarchy,
    entry_points: &[MethodId],
) -> CallGraph {
    CallGraph::build_with_hierarchy(program, hierarchy, entry_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{Body, BodySource, MethodBuilder, Type};
    use std::sync::Arc;

    /// The bodies of an eager program, served as deferred bodies to a
    /// lazy copy of its declarations.
    struct FromEager {
        bodies: Vec<Option<Body>>,
    }

    impl BodySource for FromEager {
        fn materialize(
            &self,
            _program: &mut Program,
            method: MethodId,
            _token: u64,
        ) -> Result<Body, String> {
            self.bodies[method.index()].clone().ok_or_else(|| "no body".to_owned())
        }
    }

    /// `main` calls `I.run()` on a new `A`. `A.dead` is never called.
    /// The abstract class `Abs` implements `I` with a concrete `run` but
    /// has no concrete subclass, so CHA never dispatches to it.
    ///
    /// Returns the eager program, its lazy copy (every body pending) and
    /// the ids `[main, A.run, A.dead, Abs.run]`, equal in both.
    fn eager_and_lazy() -> (Program, Program, [MethodId; 4]) {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        p.declare_interface("I", &[]);
        let a = p.declare_class("A", Some("java.lang.Object"), &["I"]);
        let run_a = MethodBuilder::new_instance(&mut p, a, "run", vec![], Type::Void).finish();
        let mut dead_b = MethodBuilder::new_instance(&mut p, a, "dead", vec![], Type::Void);
        dead_b.nop();
        let dead = dead_b.finish();
        let abs = p.declare_class("Abs", Some("java.lang.Object"), &["I"]);
        p.set_abstract(abs, true);
        let run_abs = MethodBuilder::new_instance(&mut p, abs, "run", vec![], Type::Void).finish();
        let main_cls = p.declare_class("Main", Some("java.lang.Object"), &[]);
        let ity = p.ref_type("I");
        let mut mb = MethodBuilder::new_static_on(&mut p, main_cls, "main", vec![], Type::Void);
        let x = mb.local("x", ity);
        mb.new_object_uninit(x, "A");
        mb.call_interface(None, x, "I", "run", vec![], Type::Void, vec![]);
        let main = mb.finish();

        let source =
            Arc::new(FromEager { bodies: p.methods().map(|m| m.body().cloned()).collect() });
        // The lazy program repeats the declarations in the same order, so
        // every id matches, and defers each body to the eager copy.
        let mut q = Program::new();
        q.declare_class("java.lang.Object", None, &[]);
        q.declare_interface("I", &[]);
        let qa = q.declare_class("A", Some("java.lang.Object"), &["I"]);
        let q_ids = [
            q.declare_method(qa, "run", vec![], Type::Void, false),
            q.declare_method(qa, "dead", vec![], Type::Void, false),
        ];
        let q_abs = q.declare_class("Abs", Some("java.lang.Object"), &["I"]);
        q.set_abstract(q_abs, true);
        let q_run_abs = q.declare_method(q_abs, "run", vec![], Type::Void, false);
        let qm = q.declare_class("Main", Some("java.lang.Object"), &[]);
        let q_main = q.declare_method(qm, "main", vec![], Type::Void, true);
        let ids = [main, run_a, dead, run_abs];
        assert_eq!([q_main, q_ids[0], q_ids[1], q_run_abs], ids);
        for m in ids {
            q.defer_body(m, source.clone(), 0);
        }
        (p, q, ids)
    }

    #[test]
    fn the_loading_build_decodes_only_what_cha_reaches() {
        let (p, mut q, [main, run_a, dead, run_abs]) = eager_and_lazy();
        let hierarchy = Hierarchy::build(&q);
        let cg_lazy = materialize_reachable(&mut q, &hierarchy, &[main]);
        assert_eq!(q.bodies_materialized(), 2, "main and A.run only");
        assert!(!q.method(run_a).body_is_pending());
        assert!(q.method(dead).body_is_pending(), "A.dead is unreachable");
        assert!(q.method(run_abs).body_is_pending(), "CHA skips the abstract Abs");
        assert_eq!(q.pending_body_count(), 2);

        let cg_eager = CallGraph::build(&p, &[main]);
        assert_eq!(cg_lazy.reachable_methods(), cg_eager.reachable_methods());
        assert_eq!(cg_lazy.reachable_methods(), [main, run_a]);
        assert_eq!(cg_lazy.edge_count(), cg_eager.edge_count());
    }

    #[test]
    #[should_panic(expected = "call graph reached <Main: void main()>, whose body is pending")]
    fn a_shared_build_panics_on_a_pending_body() {
        let (_, q, [main, ..]) = eager_and_lazy();
        CallGraph::build(&q, &[main]);
    }
}
