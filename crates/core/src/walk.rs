//! Where a solver walk may pass a statement, and where it must next
//! look.
//!
//! A walk ([`crate::solver`]) records one fact's path edges down a
//! method without queueing them, through the statements that certainly
//! send the fact on unchanged and do nothing else. The predicates
//! [`fw_walks_through`] and [`bw_walks_through`] judge one statement at
//! a time. Between two statements that might touch the fact there is
//! nothing to judge, so a walk that passed a statement asks the
//! [`WalkIndex`] where the next one is and records the edges between in
//! one fill of its path-edge row.
//!
//! The index is built once per method, on the first walk that jumps in
//! it, into one arena the solver owns. Per statement it holds where the
//! straight-line run through the statement ends (forward) or starts
//! (backward), the next call and the previous assignment or call; per
//! local, the statements that mention it (a def-use table). The stops it
//! computes are never later (backward: never earlier) than the first
//! statement the predicates or the fall-through test would stop at, so
//! the predicates stay the only judge of every statement a walk does
//! not fill.

use crate::taint::{Fact, Taint};
use flowdroid_ir::{Body, Local, MethodId, Operand, Place, Rvalue, Stmt, StmtIdx, StmtRef};

/// Whether statement `s` (`stmt`) certainly outputs exactly the forward
/// fact `f` and does nothing else — no exit handling, no callee entered,
/// no alias query, leak or activation — so a walk may pass it without
/// processing it. It may answer `false` for a statement that passes
/// `f`, never `true` for one that does not: `stmt` is not an exit, and
/// `f` is either the zero fact at a statement other than a call, or a
/// taint rooted at a local that `stmt` does not mention (not its
/// receiver, an argument or its result, at a call) which `s` leaves
/// inactive if it is: `s` is not its activation statement, and at a
/// call `keeps_inactive(t)` holds — the call does not reach that
/// statement's method. Facts rooted at a static field never walk.
pub(crate) fn fw_walks_through(
    stmt: &Stmt,
    s: StmtRef,
    f: &Fact,
    keeps_inactive: impl FnOnce(&Taint) -> bool,
) -> bool {
    if stmt.is_exit() {
        return false;
    }
    let Fact::T(t) = f else { return !stmt.is_call() };
    let Some(l) = t.ap.base_local() else { return false };
    if mentions(stmt, l) {
        return false;
    }
    t.active || if stmt.is_call() { keeps_inactive(t) } else { t.activation != Some(s) }
}

/// Whether the statement at `idx` of `body` certainly sends the
/// backward fact `f` exactly on to its predecessors and does nothing
/// else — no callee descent, no forward handoff at a method start, no
/// alias found — so a walk may pass it without processing it. Like
/// [`fw_walks_through`] it may answer `false` too often, never `true`
/// wrongly: the statement has predecessors, and `f` is either the zero
/// fact at a statement that is neither an assignment nor a call, or a
/// taint rooted at a local the statement does not mention (so at a call
/// it is not the result, and no callee's backward call entries take
/// it). Facts rooted at a static field never walk.
pub(crate) fn bw_walks_through(body: &Body, idx: StmtIdx, f: &Fact) -> bool {
    if body.cfg().preds(idx).is_empty() {
        return false;
    }
    let stmt = body.stmt(idx);
    match f {
        Fact::Zero => !is_def(stmt),
        Fact::T(t) => t.ap.base_local().is_some_and(|l| !mentions(stmt, l)),
    }
}

/// Whether `stmt` writes or reads local `l`: an assignment through
/// either side, a call as its receiver, an argument or its result.
pub(crate) fn mentions(stmt: &Stmt, l: Local) -> bool {
    let is_l = |o: &Operand| o.as_local() == Some(l);
    let place = |p: &Place| p.base() == Some(l) || matches!(p, Place::ArrayElem(_, i) if is_l(i));
    match stmt {
        Stmt::Assign { lhs, rhs } => {
            place(lhs)
                || match rhs {
                    Rvalue::Read(p) => place(p),
                    Rvalue::Const(_) | Rvalue::New(_) => false,
                    Rvalue::NewArray(_, o)
                    | Rvalue::UnOp(_, o)
                    | Rvalue::Cast(_, o)
                    | Rvalue::InstanceOf(o, _) => is_l(o),
                    Rvalue::BinOp(_, a, b) => is_l(a) || is_l(b),
                }
        }
        Stmt::Invoke { result, call } => {
            *result == Some(l) || call.base == Some(l) || call.args.iter().any(is_l)
        }
        _ => false,
    }
}

/// Calls `f` on every local `stmt` mentions (see [`mentions`]), once
/// per occurrence: the def-use table's entries.
fn each_local(stmt: &Stmt, f: &mut impl FnMut(Local)) {
    fn operand(o: &Operand, f: &mut impl FnMut(Local)) {
        if let Some(l) = o.as_local() {
            f(l);
        }
    }
    fn place(p: &Place, f: &mut impl FnMut(Local)) {
        if let Some(l) = p.base() {
            f(l);
        }
        if let Place::ArrayElem(_, i) = p {
            operand(i, f);
        }
    }
    match stmt {
        Stmt::Assign { lhs, rhs } => {
            place(lhs, f);
            match rhs {
                Rvalue::Read(p) => place(p, f),
                Rvalue::Const(_) | Rvalue::New(_) => {}
                Rvalue::NewArray(_, o)
                | Rvalue::UnOp(_, o)
                | Rvalue::Cast(_, o)
                | Rvalue::InstanceOf(o, _) => operand(o, f),
                Rvalue::BinOp(_, a, b) => {
                    operand(a, f);
                    operand(b, f);
                }
            }
        }
        Stmt::Invoke { result, call } => {
            if let Some(l) = *result {
                f(l);
            }
            if let Some(l) = call.base {
                f(l);
            }
            call.args.iter().for_each(|a| operand(a, f));
        }
        _ => {}
    }
}

/// Whether `stmt` is an assignment or a call: a statement the backward
/// zero fact stops at.
fn is_def(stmt: &Stmt) -> bool {
    matches!(stmt, Stmt::Assign { .. } | Stmt::Invoke { .. })
}

/// Marks a method whose index is not built yet.
const UNBUILT: u32 = u32::MAX;

/// A `u32` arena entry.
fn entry(i: usize) -> u32 {
    u32::try_from(i).ok().filter(|&i| i != UNBUILT).expect("walk index overflow")
}

/// The walk index of every method a solver walked in, one block per
/// method in one arena.
///
/// A method's block is its statement count `n` and tracked-local count
/// `k`, then four per-statement tables of `n` entries each —
/// `run_start`, `prev_def`, `run_end` and `next_call` (see [`Block`]) —
/// then the def-use table: `k + 1` offsets and the statements that
/// mention each local, ascending.
pub(crate) struct WalkIndex {
    /// Method index → offset of its block in `data`, or `UNBUILT`;
    /// allocated on the first build.
    blocks: Vec<u32>,
    /// One past the highest method index.
    methods: usize,
    data: Vec<u32>,
    /// Per-local counters, reused by every build.
    counts: Vec<u32>,
}

/// A view of one method's block.
struct Block<'d> {
    /// The last statement at or before `j` whose predecessors are not
    /// exactly the statement before it.
    run_start: &'d [u32],
    /// The last assignment or call at or before `j`, or 0.
    prev_def: &'d [u32],
    /// The first statement at or after `j` that does not fall through
    /// to the next one alone: an exit, a branch, a jump elsewhere or the
    /// last statement.
    run_end: &'d [u32],
    /// The first call at or after `j`, or `n`.
    next_call: &'d [u32],
    /// Local `l`'s mentions are `uses[use_start[l]..use_start[l + 1]]`.
    use_start: &'d [u32],
    uses: &'d [u32],
}

impl Block<'_> {
    /// The statements that mention `l`, ascending.
    fn uses_of(&self, l: Local) -> &[u32] {
        match self.use_start.get(l.index()..l.index() + 2) {
            Some(&[from, to]) => &self.uses[from as usize..to as usize],
            _ => &[],
        }
    }
}

impl WalkIndex {
    /// An empty index over methods with indices below `methods`.
    pub(crate) fn new(methods: usize) -> Self {
        WalkIndex { blocks: Vec::new(), methods, data: Vec::new(), counts: Vec::new() }
    }

    /// The first statement at or after `j` in `m` (body `body`) that a
    /// forward walk of `f` must judge itself: every statement from `j`
    /// up to it falls through to the next one alone and passes `f` by
    /// [`fw_walks_through`]. That is the end of `j`'s straight-line
    /// run, the next statement mentioning the fact's base local, and for
    /// the zero fact or an inactive taint the next call, whichever comes
    /// first — or the inactive taint's activation statement if that
    /// comes earlier still. A fact rooted at a static field stops at
    /// `j`.
    pub(crate) fn fw_stop(&mut self, m: MethodId, body: &Body, j: StmtIdx, f: &Fact) -> StmtIdx {
        let b = self.block(m, body);
        let mut stop = b.run_end[j] as usize;
        let t = match f {
            Fact::Zero => return stop.min(b.next_call[j] as usize),
            Fact::T(t) => t,
        };
        let Some(l) = t.ap.base_local() else { return j };
        let uses = b.uses_of(l);
        if let Some(&next_use) = uses.get(uses.partition_point(|&s| (s as usize) < j)) {
            stop = stop.min(next_use as usize);
        }
        if !t.active {
            stop = stop.min(b.next_call[j] as usize);
            if let Some(a) = t.activation.filter(|a| a.method == m && a.idx >= j) {
                stop = stop.min(a.idx);
            }
        }
        stop
    }

    /// The last statement at or before `j` in `m` that a backward walk
    /// of `f` must judge itself: every statement from `j` down past it
    /// has exactly the statement before it as its predecessor and passes
    /// `f` by [`bw_walks_through`]. That is the start of `j`'s
    /// straight-line run, the previous statement mentioning the fact's
    /// base local and for the zero fact the previous assignment or call,
    /// whichever comes last. A fact rooted at a static field stops at
    /// `j`.
    pub(crate) fn bw_stop(&mut self, m: MethodId, body: &Body, j: StmtIdx, f: &Fact) -> StmtIdx {
        let b = self.block(m, body);
        let stop = b.run_start[j] as usize;
        let t = match f {
            Fact::Zero => return stop.max(b.prev_def[j] as usize),
            Fact::T(t) => t,
        };
        let Some(l) = t.ap.base_local() else { return j };
        let uses = b.uses_of(l);
        let prev_use = uses[..uses.partition_point(|&s| (s as usize) <= j)].last();
        stop.max(prev_use.map_or(stop, |&s| s as usize))
    }

    /// `m`'s block, built from `body` first if need be.
    fn block(&mut self, m: MethodId, body: &Body) -> Block<'_> {
        if self.blocks.is_empty() {
            self.blocks = vec![UNBUILT; self.methods];
        }
        let mut at = self.blocks[m.index()];
        if at == UNBUILT {
            at = self.build(body);
            self.blocks[m.index()] = at;
        }
        let d = &self.data[at as usize..];
        let (n, k) = (d[0] as usize, d[1] as usize);
        let (tables, d) = d[2..].split_at(4 * n);
        let (use_start, uses) = d.split_at(k + 1);
        Block {
            run_start: &tables[..n],
            prev_def: &tables[n..2 * n],
            run_end: &tables[2 * n..3 * n],
            next_call: &tables[3 * n..],
            use_start,
            uses: &uses[..use_start[k] as usize],
        }
    }

    /// Appends `body`'s block to the arena and returns its offset, in
    /// two passes over the statements: forward for the run starts, the
    /// previous definitions and each local's mention count, backward for
    /// the run ends, the next calls and the mentions themselves.
    fn build(&mut self, body: &Body) -> u32 {
        let WalkIndex { data, counts, .. } = self;
        let (stmts, cfg, n) = (body.stmts(), body.cfg(), body.len());
        let at = data.len();
        data.resize(at + 2 + 4 * n, 0);
        counts.clear();
        counts.resize(body.locals().len(), 0);
        let (run_start, prev_def) = data[at + 2..at + 2 + 2 * n].split_at_mut(n);
        for (j, s) in stmts.iter().enumerate() {
            let falls_in = j > 0 && cfg.preds(j) == [j - 1];
            run_start[j] = if falls_in { run_start[j - 1] } else { entry(j) };
            prev_def[j] = match is_def(s) {
                true => entry(j),
                false if j > 0 => prev_def[j - 1],
                false => 0,
            };
            each_local(s, &mut |l| {
                if l.index() >= counts.len() {
                    counts.resize(l.index() + 1, 0);
                }
                counts[l.index()] += 1;
            });
        }
        let k = counts.len();
        let mentions: usize = counts.iter().map(|&c| c as usize).sum();
        data.resize(at + 2 + 4 * n + k + 1 + mentions, 0);
        let block = &mut data[at..];
        block[0] = entry(n);
        block[1] = entry(k);
        let (run_end, rest) = block[2 + 2 * n..].split_at_mut(n);
        let (next_call, rest) = rest.split_at_mut(n);
        let (use_start, uses) = rest.split_at_mut(k + 1);
        // Each local's run of `uses` ends where the next one's starts;
        // the backward pass fills it from its end, with `counts` as the
        // write cursors, so it ends up ascending.
        let mut end = 0;
        for (l, c) in counts.iter_mut().enumerate() {
            end += *c as usize;
            *c = entry(end);
            use_start[l + 1] = *c;
        }
        for j in (0..n).rev() {
            run_end[j] = if cfg.succs(j) == [j + 1] { run_end[j + 1] } else { entry(j) };
            next_call[j] = match stmts[j].is_call() {
                true => entry(j),
                false if j + 1 < n => next_call[j + 1],
                false => entry(n),
            };
            each_local(&stmts[j], &mut |l| {
                let c = &mut counts[l.index()];
                *c -= 1;
                uses[*c as usize] = entry(j);
            });
        }
        entry(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_path::AccessPath;
    use flowdroid_ir::{
        BinOp, ClassId, Cond, Constant, FieldId, InvokeExpr, InvokeKind, LocalDecl, MethodRef,
        Program, SubSig, Type,
    };
    use proptest::prelude::*;

    /// Locals the generated bodies mention.
    const LOCALS: u32 = 5;

    /// One generated statement: (kind, local, local, target), the
    /// target reduced modulo the body's length.
    type Gen = (u32, u32, u32, usize);

    /// A body from generated statements: straight runs of copies,
    /// binary operations, casts, array and field accesses, constants and
    /// calls (static and instance, with and without locals), branches
    /// and jumps anywhere (back edges and self loops included), and
    /// exits.
    fn body(gen: &[Gen]) -> Body {
        let n = gen.len();
        let callee = MethodRef {
            class: ClassId::from_index(0),
            subsig: SubSig { name: Program::new().intern("tick"), params: vec![], ret: Type::Void },
        };
        let call = |kind, base, args| InvokeExpr { kind, base, callee: callee.clone(), args };
        let op = |l: u32| Operand::Local(Local(l));
        let assign = |lhs, rhs| Stmt::Assign { lhs, rhs };
        let stmts = gen
            .iter()
            .map(|&(kind, a, b, t)| {
                let (la, lb) = (Place::Local(Local(a)), Place::Local(Local(b)));
                match kind {
                    0..=2 => Stmt::Nop,
                    3..=5 => assign(la, Rvalue::Read(lb)),
                    6 => assign(la, Rvalue::BinOp(BinOp::Add, op(a), op(b))),
                    7 => assign(
                        Place::InstanceField(Local(a), FieldId::from_index(0)),
                        Rvalue::Read(lb),
                    ),
                    8 => assign(la, Rvalue::Read(Place::ArrayElem(Local(b), op(a)))),
                    9 => assign(Place::ArrayElem(Local(a), op(b)), Rvalue::Const(Constant::Null)),
                    10 => assign(la, Rvalue::Cast(Type::Int, op(b))),
                    11 => assign(la, Rvalue::Const(Constant::Null)),
                    12 => Stmt::Invoke {
                        result: Some(Local(a)),
                        call: call(InvokeKind::Static, None, vec![op(b)]),
                    },
                    13 => {
                        Stmt::Invoke { result: None, call: call(InvokeKind::Static, None, vec![]) }
                    }
                    14 => Stmt::Invoke {
                        result: None,
                        call: call(InvokeKind::Virtual, Some(Local(b)), vec![op(a)]),
                    },
                    15 => Stmt::If { cond: Cond::Opaque, target: t % n },
                    16 => Stmt::Goto { target: t % n },
                    17 => Stmt::Return { value: None },
                    _ => Stmt::Throw { value: op(a) },
                }
            })
            .collect();
        let locals =
            (0..LOCALS).map(|l| LocalDecl { name: format!("l{l}"), ty: Type::Int }).collect();
        Body::new(locals, stmts, vec![0; n])
    }

    /// Every fact kind a walk carries: the zero fact, an active local
    /// taint, an inactive one activated at `act` in `m` or in another
    /// method, and a taint rooted at a static field.
    fn facts(m: MethodId, act: StmtIdx) -> Vec<Fact> {
        let mut facts = vec![Fact::Zero];
        for l in 0..LOCALS {
            let ap = AccessPath::local(Local(l));
            facts.push(Fact::T(Taint::active(ap)));
            facts.push(Fact::T(Taint::inactive(ap, StmtRef::new(m, act))));
            let elsewhere = StmtRef::new(MethodId::from_index(m.index() + 1), act);
            facts.push(Fact::T(Taint::inactive(ap, elsewhere)));
        }
        facts.push(Fact::T(Taint::active(AccessPath::static_field(FieldId::from_index(0)))));
        facts
    }

    /// Whether a forward walk of `f` may pass statement `s` and go on
    /// to `s + 1` alone, with every call taken to activate an inactive
    /// taint: never `true` where the solver's predicate says `false`.
    fn fw_passes(body: &Body, m: MethodId, s: StmtIdx, f: &Fact) -> bool {
        fw_walks_through(body.stmt(s), StmtRef::new(m, s), f, |_| false)
            && body.cfg().succs(s) == [s + 1]
    }

    /// Whether a backward walk of `f` may pass statement `s` and go on
    /// to `s - 1` alone.
    fn bw_passes(body: &Body, s: StmtIdx, f: &Fact) -> bool {
        bw_walks_through(body, s, f) && s > 0 && body.cfg().preds(s) == [s - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// From every statement, for every fact kind, the index stops a
        /// forward walk no later, and a backward walk no earlier, than
        /// the first statement the predicates or the fall-through test
        /// stop at — and, against predicates that take every call to
        /// activate, exactly there. The def-use table lists exactly the
        /// locals [`mentions`] sees.
        #[test]
        fn index_stops_where_the_predicates_stop(
            gen in proptest::collection::vec((0u32..19, 0u32..LOCALS, 0u32..LOCALS, 0usize..64), 1..40),
            act in 0usize..64,
        ) {
            let body = body(&gen);
            let n = body.len();
            for s in body.stmts() {
                for l in (0..LOCALS).map(Local) {
                    let mut listed = false;
                    each_local(s, &mut |x| listed |= x == l);
                    prop_assert_eq!(mentions(s, l), listed, "{:?} {:?}", s, l);
                }
            }
            let m = MethodId::from_index(2);
            let mut index = WalkIndex::new(4);
            for f in facts(m, act % n) {
                for j in 0..n {
                    let fw = (j..n).find(|&s| !fw_passes(&body, m, s, &f)).unwrap_or(n);
                    let stop = index.fw_stop(m, &body, j, &f);
                    prop_assert!(stop <= fw, "forward from {} for {:?} passes {}", j, f, fw);
                    prop_assert_eq!(stop, fw, "forward from {} for {:?}", j, f);
                    let bw = (0..=j).rev().find(|&s| !bw_passes(&body, s, &f)).unwrap_or(0);
                    let stop = index.bw_stop(m, &body, j, &f);
                    prop_assert!(stop >= bw, "backward from {} for {:?} passes {}", j, f, bw);
                    prop_assert_eq!(stop, bw, "backward from {} for {:?}", j, f);
                }
            }
        }
    }
}
