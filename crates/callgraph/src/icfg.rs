//! The interprocedural control-flow graph consumed by IFDS solvers.

use crate::graph::CallGraph;
use flowdroid_ir::{MethodId, Program, Stmt, StmtIdx, StmtRef};

/// An interprocedural CFG view over a [`Program`] and a [`CallGraph`].
///
/// Mirrors the API of Soot/Heros' `BiDiInterproceduralCFG`: statement
/// successors and predecessors, callees of a call site, callers and
/// start/exit points of methods, and return sites of calls.
#[derive(Debug, Clone, Copy)]
pub struct Icfg<'a> {
    program: &'a Program,
    callgraph: &'a CallGraph,
}

impl<'a> Icfg<'a> {
    /// Creates the view.
    pub fn new(program: &'a Program, callgraph: &'a CallGraph) -> Self {
        Self { program, callgraph }
    }

    /// The underlying program.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The underlying call graph.
    pub fn callgraph(&self) -> &'a CallGraph {
        self.callgraph
    }

    /// The statement behind a reference.
    ///
    /// # Panics
    ///
    /// Panics if the method has no body or the index is out of range.
    pub fn stmt(&self, r: StmtRef) -> &'a Stmt {
        self.program.method(r.method).body().expect("method has no body").stmt(r.idx)
    }

    /// Intraprocedural successors.
    pub fn succs_of(&self, r: StmtRef) -> StmtRefs<'a> {
        let body = self.program.method(r.method).body().expect("method has no body");
        StmtRefs { method: r.method, idxs: body.cfg().succs(r.idx).iter() }
    }

    /// Intraprocedural predecessors.
    pub fn preds_of(&self, r: StmtRef) -> StmtRefs<'a> {
        let body = self.program.method(r.method).body().expect("method has no body");
        StmtRefs { method: r.method, idxs: body.cfg().preds(r.idx).iter() }
    }

    /// Returns `true` if the statement is a call.
    pub fn is_call(&self, r: StmtRef) -> bool {
        self.stmt(r).is_call()
    }

    /// Returns `true` if the statement exits its method.
    pub fn is_exit(&self, r: StmtRef) -> bool {
        self.stmt(r).is_exit()
    }

    /// Body-having callees of a call site.
    pub fn callees_of_call(&self, r: StmtRef) -> &'a [MethodId] {
        self.callgraph.callees_at(r)
    }

    /// Call sites that invoke `m`.
    pub fn callers_of(&self, m: MethodId) -> &'a [StmtRef] {
        self.callgraph.callers_of(m)
    }

    /// The entry statement(s) of a method: the single entry at index 0,
    /// none when the method has no body.
    pub fn start_points_of(&self, m: MethodId) -> std::option::IntoIter<StmtRef> {
        match self.program.method(m).body() {
            Some(b) if !b.is_empty() => Some(StmtRef::new(m, b.entry())),
            _ => None,
        }
        .into_iter()
    }

    /// All exit statements (returns/throws) of a method.
    pub fn exit_stmts_of(&self, m: MethodId) -> impl Iterator<Item = StmtRef> + 'a {
        let body = self.program.method(m).body();
        body.into_iter().flat_map(move |b| b.exits().map(move |i| StmtRef::new(m, i)))
    }

    /// Return sites of a call (its intraprocedural successors).
    pub fn return_sites_of_call(&self, r: StmtRef) -> StmtRefs<'a> {
        self.succs_of(r)
    }

    /// The method containing a statement.
    pub fn method_of(&self, r: StmtRef) -> MethodId {
        r.method
    }

    /// Returns `true` if the statement is the first of its method.
    pub fn is_start_point(&self, r: StmtRef) -> bool {
        r.idx == 0
    }

    /// Number of statements in a method's body (0 when body-less).
    pub fn body_len(&self, m: MethodId) -> StmtIdx {
        self.program.method(m).body().map_or(0, |b| b.len())
    }
}

/// Statements of one method, borrowed from its CFG's index lists
/// (successors, predecessors, return sites): iterating allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct StmtRefs<'a> {
    method: MethodId,
    idxs: std::slice::Iter<'a, StmtIdx>,
}

impl Iterator for StmtRefs<'_> {
    type Item = StmtRef;

    fn next(&mut self) -> Option<StmtRef> {
        self.idxs.next().map(|&i| StmtRef::new(self.method, i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.idxs.size_hint()
    }
}

impl ExactSizeIterator for StmtRefs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{MethodBuilder, Type};

    fn simple() -> (Program, MethodId, MethodId) {
        let mut p = Program::new();
        let c = p.declare_class("C", None, &[]);
        let mut cb = MethodBuilder::new_static_on(&mut p, c, "callee", vec![Type::Int], Type::Int);
        let x = cb.param(0);
        cb.ret(Some(x.into()));
        let callee = cb.finish();
        let mut mb = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
        let r = mb.local("r", Type::Int);
        mb.call_static(
            Some(r),
            "C",
            "callee",
            vec![Type::Int],
            Type::Int,
            vec![flowdroid_ir::Constant::Int(1).into()],
        );
        mb.ret(None);
        let main = mb.finish();
        (p, main, callee)
    }

    #[test]
    fn call_and_return_sites() {
        let (p, main, callee) = simple();
        let cg = CallGraph::build(&p, &[main]);
        let icfg = Icfg::new(&p, &cg);
        let call = StmtRef::new(main, 0);
        assert!(icfg.is_call(call));
        assert_eq!(icfg.callees_of_call(call), &[callee]);
        assert_eq!(icfg.return_sites_of_call(call).collect::<Vec<_>>(), [StmtRef::new(main, 1)]);
        assert_eq!(icfg.preds_of(StmtRef::new(main, 1)).len(), 1);
        assert_eq!(icfg.start_points_of(callee).collect::<Vec<_>>(), [StmtRef::new(callee, 0)]);
        assert_eq!(icfg.exit_stmts_of(callee).collect::<Vec<_>>(), [StmtRef::new(callee, 0)]);
        assert_eq!(icfg.callers_of(callee), &[call]);
        assert!(icfg.is_exit(StmtRef::new(main, 1)));
        assert!(icfg.is_start_point(call));
    }
}
