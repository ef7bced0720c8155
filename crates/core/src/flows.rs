//! Direction-agnostic taint transfer functions (paper §4.1–§4.2).
//!
//! Every method here is a pure function of (statement, fact) plus the
//! immutable analysis inputs — no solver tables, no worklists — which
//! keeps them apart from the tabulation state of
//! [`BiSolver`](crate::solver::BiSolver). The only mutable state is the
//! caller-supplied [`ReachCache`], a memo table over the immutable call
//! graph that the solver owns. Functions with several outputs refill a
//! caller-owned output value instead of returning fresh vectors, so the
//! solver reuses one buffer per function across all pops.
//! Signature matching (roles and wrapper rules, paper §5) happens when
//! the solve starts, in [`CallSites`]: once per distinct callee, by
//! method name and then by the names of the callee's supertypes,
//! compared in place.

use crate::access_path::{AccessPath, ApBase};
use crate::config::InfoflowConfig;
use crate::sourcesink::{CallRoles, SourceSinkManager, SuperWalk};
use crate::taint::{Fact, Taint};
use crate::wrappers::{Pos, Rule, TaintWrapper};
use flowdroid_callgraph::Icfg;
use flowdroid_ir::{
    ClassId, FieldId, FxHashMap, InvokeExpr, Local, MethodId, Operand, Place, Program, Rvalue,
    Stmt, StmtRef, SubSig,
};

/// Memo table for "call site transitively reaches method" queries
/// (activation-statement call-tree lookups, paper §4.2). The underlying
/// call-graph reachability is immutable, so the cache never needs
/// invalidating during a solve.
pub(crate) type ReachCache = FxHashMap<(StmtRef, MethodId), bool>;

/// The resolved roles and wrapper rules of one call site.
#[derive(Debug, Clone)]
pub struct CallSite<'w> {
    /// Source / sanitizer / sink roles.
    pub roles: CallRoles,
    /// Wrapper rules covering the call (empty = native-call fallback).
    pub rules: Vec<&'w Rule>,
}

/// What [`CallSites::site`] answers for a statement outside the table.
static NO_ROLES: CallSite<'static> = CallSite {
    roles: CallRoles { source: false, sanitizer: false, sink_args: Vec::new() },
    rules: Vec::new(),
};

/// Every reachable call site's [`CallSite`] and every reachable
/// method's `_SOURCE_PARAM_i_` indices, resolved once per solve. The
/// zero fact reaches every reachable call site anyway, so resolving
/// eagerly does no work a lazy memo would skip, and the table is
/// immutable afterwards: solver workers share it without a lock.
///
/// Call sites share the resolution of their callee: roles and rules
/// depend only on the callee's class and subsignature, except for the
/// password-field lookup, which is checked per site.
#[derive(Debug)]
pub struct CallSites<'w> {
    /// Each reachable call site's index into `resolved`.
    sites: FxHashMap<StmtRef, u32>,
    /// One entry per distinct callee, plus one per password-field
    /// lookup site.
    resolved: Vec<CallSite<'w>>,
    /// Methods with parameter sources (every other method has none).
    param_sources: FxHashMap<MethodId, Vec<usize>>,
}

impl<'w> CallSites<'w> {
    /// Resolves every `Invoke` in the methods `icfg`'s call graph
    /// reaches, and every such method's parameter sources.
    pub fn build(icfg: &Icfg<'_>, sources: &SourceSinkManager, wrapper: &'w TaintWrapper) -> Self {
        let program = icfg.program();
        let mut sites = FxHashMap::default();
        let mut resolved: Vec<CallSite<'w>> = Vec::new();
        let mut by_callee: FxHashMap<(ClassId, &SubSig), u32> = FxHashMap::default();
        let mut param_sources = FxHashMap::default();
        let mut walk = SuperWalk::default();
        for &m in icfg.callgraph().reachable_methods() {
            let params = sources.entry_param_sources_in(&mut walk, program, m);
            if !params.is_empty() {
                param_sources.insert(m, params);
            }
            let Some(body) = program.method(m).body() else { continue };
            for (idx, stmt) in body.stmts().iter().enumerate() {
                let Some(call) = stmt.invoke_expr() else { continue };
                let (class, subsig) = (call.callee.class, &call.callee.subsig);
                let mut at = *by_callee.entry((class, subsig)).or_insert_with(|| {
                    resolved.push(CallSite {
                        roles: sources.callee_roles(&mut walk, program, class, subsig),
                        rules: wrapper.callee_rules(&mut walk, program, class, subsig),
                    });
                    (resolved.len() - 1) as u32
                });
                if sources.password_lookup(program, call) {
                    let mut site = resolved[at as usize].clone();
                    site.roles.source = true;
                    resolved.push(site);
                    at = (resolved.len() - 1) as u32;
                }
                sites.insert(StmtRef::new(m, idx), at);
            }
        }
        CallSites { sites, resolved, param_sources }
    }

    /// The call site at `n` (no roles, no rules when `n` is not a call
    /// in a reachable method).
    pub fn site(&self, n: StmtRef) -> &CallSite<'w> {
        self.sites.get(&n).map_or(&NO_ROLES, |&at| &self.resolved[at as usize])
    }

    /// Parameter indices of `m` tainted at entry (sorted).
    pub fn param_sources(&self, m: MethodId) -> &[usize] {
        self.param_sources.get(&m).map_or(&[], Vec::as_slice)
    }
}

/// The immutable analysis inputs plus the pure flow functions over
/// them, built once per solve.
pub(crate) struct Flows<'a> {
    pub icfg: Icfg<'a>,
    pub sites: CallSites<'a>,
    pub config: &'a InfoflowConfig,
}

/// Output of the forward transfer function at an assignment. The
/// solvers keep one and let [`Flows::forward_assign`] refill it for
/// every popped edge.
#[derive(Default)]
pub(crate) struct ForwardAssignOut {
    /// Facts holding after the assignment (before activation).
    pub facts: Vec<Fact>,
    /// Taints that require an alias query at the assignment.
    pub alias_gens: Vec<Taint>,
}

/// Output of the forward call-to-return function at a call site,
/// refilled by [`Flows::call_to_return`].
#[derive(Default)]
pub(crate) struct CallToReturnOut {
    /// Facts holding at the return sites (before activation).
    pub out: Vec<Fact>,
    /// Taints that require an alias query at the call.
    pub alias_gens: Vec<Taint>,
    /// Active taints that reached a sink argument here.
    pub leaks: Vec<Taint>,
    /// The call is a source and `d2` was the zero fact: mark generated
    /// facts with this statement for attribution.
    pub src_mark: bool,
}

/// Output of the backward transfer function at an assignment, refilled
/// by [`Flows::backward_assign`].
#[derive(Default)]
pub(crate) struct BackwardAssignOut {
    /// Taints continuing upward in the backward solver.
    pub back: Vec<Taint>,
    /// Alias taints handed to the forward solver *at* the statement.
    pub fwd_at_n: Vec<Taint>,
    /// Alias taints handed to the forward solver *after* the statement.
    pub fwd_after: Vec<Taint>,
}

impl<'a> Flows<'a> {
    /// Bundles the inputs, resolving the call-site table.
    pub fn new(
        icfg: Icfg<'a>,
        sources: &SourceSinkManager,
        wrapper: &'a TaintWrapper,
        config: &'a InfoflowConfig,
    ) -> Self {
        Flows { sites: CallSites::build(&icfg, sources, wrapper), icfg, config }
    }

    pub fn program(&self) -> &'a Program {
        self.icfg.program()
    }

    pub fn k(&self) -> usize {
        self.config.max_access_path_length
    }

    pub fn stmt(&self, n: StmtRef) -> &'a Stmt {
        self.icfg.stmt(n)
    }

    /// Does the call at `call` transitively reach `target` (used for
    /// activation-statement call-tree lookup, paper §4.2)?
    pub fn call_reaches(&self, cache: &mut ReachCache, call: StmtRef, target: MethodId) -> bool {
        if let Some(&r) = cache.get(&(call, target)) {
            return r;
        }
        let cg = self.icfg.callgraph();
        let r =
            self.icfg.callees_of_call(call).iter().any(|&c| c == target || cg.can_reach(c, target));
        cache.insert((call, target), r);
        r
    }

    /// Activates an inactive taint whose activation statement is `n`
    /// itself or transitively inside a call at `n`.
    pub fn maybe_activate(&self, cache: &mut ReachCache, n: StmtRef, t: &Taint) -> Taint {
        if t.active {
            return *t;
        }
        let Some(act) = t.activation else { return *t };
        if act == n {
            return t.activated();
        }
        if self.stmt(n).is_call() && self.call_reaches(cache, n, act.method) {
            return t.activated();
        }
        *t
    }

    /// The access path written by / read from a rvalue, when it is a
    /// plain place read or reference cast.
    pub fn readable_rvalue(rhs: &Rvalue) -> Option<AccessPath> {
        match rhs {
            Rvalue::Read(p) => Some(AccessPath::of_place(p)),
            Rvalue::Cast(_, Operand::Local(l)) => Some(AccessPath::local(*l)),
            _ => None,
        }
    }

    /// Extends the lhs place's access path with `rest` (array writes
    /// collapse to the whole array, dropping `rest`).
    pub fn lhs_ap_with(&self, lhs: &Place, rest: &[FieldId]) -> AccessPath {
        let base = AccessPath::of_place(lhs);
        if matches!(lhs, Place::ArrayElem(..)) {
            return base;
        }
        base.with_suffix(rest, self.k())
    }

    /// The alias-query taint for `g` (which holds after the heap write
    /// or wrapper call at `n`), or `None` when the alias analysis is
    /// disabled (Algorithm 1, line 16).
    pub fn alias_query_taint(&self, n: StmtRef, g: &Taint) -> Option<Taint> {
        if !self.config.enable_alias_analysis {
            return None;
        }
        Some(if self.config.enable_activation_statements {
            if g.active {
                Taint::inactive(g.ap, n)
            } else {
                // Alias chains keep their original activation point.
                *g
            }
        } else {
            g.activated()
        })
    }

    /// The forward transfer function for assignments (paper §4.1):
    /// refills `res` with the output facts and the taints requiring an
    /// alias query.
    pub fn forward_assign(&self, lhs: &Place, rhs: &Rvalue, t: &Taint, res: &mut ForwardAssignOut) {
        let ForwardAssignOut { facts: out, alias_gens } = res;
        out.clear();
        alias_gens.clear();
        let lhs_is_local = matches!(lhs, Place::Local(_));
        // Strong update on locals only; `x = new` kills taints rooted at
        // `x`; heap locations are never strongly updated (paper §6.1:
        // the Button2 false positive comes exactly from this).
        let killed = match lhs {
            Place::Local(l) => t.ap.base_local() == Some(*l),
            _ => false,
        };
        if !killed {
            out.push(Fact::T(*t));
        }
        // Generation. The remainder borrows the taint's interned field
        // slice — no allocation on this hot path.
        let gen_rest: Option<&[FieldId]> = match rhs {
            Rvalue::Read(p) => {
                let rp = AccessPath::of_place(p);
                t.ap.read_remainder(&rp)
            }
            Rvalue::Cast(_, Operand::Local(l)) => {
                let rp = AccessPath::local(*l);
                t.ap.read_remainder(&rp)
            }
            Rvalue::BinOp(_, a, b) => {
                let matches_op = |o: &Operand| matches!(o, Operand::Local(l) if t.ap.base_local() == Some(*l) && t.ap.is_empty());
                if matches_op(a) || matches_op(b) {
                    Some(&[])
                } else {
                    None
                }
            }
            Rvalue::UnOp(_, a) => match a {
                Operand::Local(l) if t.ap.base_local() == Some(*l) && t.ap.is_empty() => Some(&[]),
                _ => None,
            },
            Rvalue::Const(_) | Rvalue::New(_) | Rvalue::NewArray(..) | Rvalue::InstanceOf(..) => {
                None
            }
            Rvalue::Cast(_, _) => None,
        };
        if let Some(rest) = gen_rest {
            let ap = self.lhs_ap_with(lhs, rest);
            let g = t.with_ap(ap);
            // Heap writes spawn the backward alias search; statics have
            // no aliases; array writes alias through the array object.
            if !lhs_is_local && !matches!(lhs, Place::StaticField(_)) {
                alias_gens.push(g);
            }
            out.push(Fact::T(g));
        }
    }

    /// Refills `out` with the facts entering a callee, each with an
    /// optional source-statement mark (for parameter sources).
    pub fn call_flow(
        &self,
        call: &InvokeExpr,
        callee: MethodId,
        d2: &Fact,
        out: &mut Vec<(Fact, Option<StmtRef>)>,
    ) {
        out.clear();
        let program = self.program();
        let m = program.method(callee);
        match d2 {
            Fact::Zero => {
                out.push((Fact::Zero, None));
                // Parameter sources: methods overriding framework
                // callback signatures receive tainted data (locations,
                // intents) from the framework.
                for &i in self.sites.param_sources(callee) {
                    if i < m.param_count() {
                        let ap = AccessPath::local(m.param_local(i));
                        let f = Fact::T(Taint::active(ap));
                        out.push((f, self.icfg.start_points_of(callee).next()));
                    }
                }
            }
            Fact::T(t) => {
                if let Some(base) = t.ap.base_local() {
                    for (i, arg) in call.args.iter().enumerate() {
                        if arg.as_local() == Some(base) && i < m.param_count() {
                            let ap = t.ap.rebase(ApBase::Local(m.param_local(i)), &[], self.k());
                            out.push((Fact::T(t.with_ap(ap)), None));
                        }
                    }
                    if call.base == Some(base) {
                        if let Some(this) = m.this_local() {
                            let ap = t.ap.rebase(ApBase::Local(this), &[], self.k());
                            out.push((Fact::T(t.with_ap(ap)), None));
                        }
                    }
                } else {
                    // Static-field-rooted taints flow into callees
                    // unchanged (globals).
                    out.push((Fact::T(*t), None));
                }
            }
        }
    }

    /// Maps a taint at a callee exit back into the caller.
    pub fn return_flow(
        &self,
        call_site: StmtRef,
        callee: MethodId,
        exit: StmtRef,
        exit_fact: &Fact,
    ) -> Vec<Taint> {
        let Fact::T(t) = exit_fact else { return Vec::new() };
        let Stmt::Invoke { result, call } = self.stmt(call_site) else { return Vec::new() };
        let program = self.program();
        let m = program.method(callee);
        let mut out = Vec::new();
        match t.ap.base_local() {
            None => out.push(*t), // statics flow back unchanged
            Some(base) => {
                // Parameters: heap side effects flow back through
                // reference-typed parameters; a reassigned primitive
                // parameter does not affect the caller.
                for i in 0..m.param_count() {
                    if m.param_local(i) == base {
                        let is_ref = m.subsig().params[i].is_reference();
                        if !t.ap.is_empty() || is_ref {
                            if let Some(Operand::Local(arg)) = call.args.get(i) {
                                let ap = t.ap.rebase(ApBase::Local(*arg), &[], self.k());
                                out.push(t.with_ap(ap));
                            }
                        }
                    }
                }
                if m.this_local() == Some(base) {
                    if let Some(b) = call.base {
                        let ap = t.ap.rebase(ApBase::Local(b), &[], self.k());
                        out.push(t.with_ap(ap));
                    }
                }
                // Returned value.
                if let Stmt::Return { value: Some(Operand::Local(v)) } = self.stmt(exit) {
                    if *v == base {
                        if let Some(res) = result {
                            let ap = t.ap.rebase(ApBase::Local(*res), &[], self.k());
                            out.push(t.with_ap(ap));
                        }
                    }
                }
            }
        }
        out
    }

    /// The forward call-to-return function: sources, sinks, wrapper
    /// ("shortcut") rules, sanitizers and the native-call fallback
    /// (paper §5). Refills `res`.
    pub fn call_to_return(&self, n: StmtRef, d2f: &Fact, res: &mut CallToReturnOut) {
        let CallToReturnOut { out, alias_gens, leaks, src_mark } = res;
        out.clear();
        alias_gens.clear();
        leaks.clear();
        *src_mark = false;
        let Stmt::Invoke { result, call } = self.stmt(n) else { return };
        let result = *result;
        let site = self.sites.site(n);
        match d2f {
            Fact::Zero => {
                out.push(Fact::Zero);
                // Source calls generate fresh active taints.
                if site.roles.source {
                    if let Some(res) = result {
                        out.push(Fact::T(Taint::active(AccessPath::local(res))));
                    }
                }
            }
            Fact::T(t) => {
                // Sink check happens on the incoming (pre-call) taint.
                if t.active {
                    for &i in &site.roles.sink_args {
                        if let Some(Operand::Local(a)) = call.args.get(i) {
                            if t.ap.base_local() == Some(*a) {
                                leaks.push(*t);
                            }
                        }
                    }
                }
                // Kill the result local (overwritten by the call).
                let killed = result.is_some() && t.ap.base_local() == result;
                if !killed {
                    out.push(Fact::T(*t));
                }
                // Sanitizers return clean data: suppress every rule that
                // would taint the result (extension; the paper lacks
                // sanitizer support).
                let sanitized = site.roles.sanitizer;
                // Wrapper rules ("shortcut rules", paper §5).
                let covers = |pos: Pos| -> bool {
                    TaintWrapper::pos_local(call, result, pos)
                        .is_some_and(|l| t.ap.base_local() == Some(l))
                };
                for pos in Rule::fire(&site.rules, covers) {
                    if sanitized && matches!(pos, Pos::Ret) {
                        continue;
                    }
                    if let Some(l) = TaintWrapper::pos_local(call, result, pos) {
                        let g = t.with_ap(AccessPath::local(l));
                        if !matches!(pos, Pos::Ret) {
                            alias_gens.push(g);
                        }
                        out.push(Fact::T(g));
                    }
                }
                // Native-call fallback: no explicit rule, body-less
                // target → the return value inherits taint from the
                // receiver or any argument (paper §5).
                if site.rules.is_empty() && !sanitized && self.icfg.callees_of_call(n).is_empty() {
                    let base_tainted = call.base.is_some_and(|b| t.ap.base_local() == Some(b));
                    let arg_tainted = call
                        .args
                        .iter()
                        .any(|a| matches!(a, Operand::Local(l) if t.ap.base_local() == Some(*l)));
                    if base_tainted || arg_tainted {
                        if let Some(res) = result {
                            out.push(Fact::T(t.with_ap(AccessPath::local(res))));
                        }
                    }
                }
            }
        }
        *src_mark = d2f.is_zero() && site.roles.source;
    }

    /// The backward (alias-search) transfer function at an assignment
    /// (Algorithm 2, lines 15–18). Refills `res`.
    pub fn backward_assign(
        &self,
        t: &Taint,
        lhs: &Place,
        rhs: &Rvalue,
        res: &mut BackwardAssignOut,
    ) {
        let BackwardAssignOut { back, fwd_at_n, fwd_after } = res;
        back.clear();
        fwd_at_n.clear();
        fwd_after.clear();
        let lhs_ap = AccessPath::of_place(lhs);
        let rhs_ap = Self::readable_rvalue(rhs);

        // Case A (Algorithm 2, line 16: replace lhs by rhs): the traced
        // value was written here.
        let rooted_at_lhs = t.ap.has_prefix(&lhs_ap);
        if rooted_at_lhs {
            if let Some(r) = &rhs_ap {
                let rest = &t.ap.fields()[lhs_ap.len()..];
                let ap = r.with_suffix(rest, self.k());
                let g = t.with_ap(ap);
                if g != *t {
                    fwd_at_n.push(g);
                }
                back.push(g);
            }
            // rhs not readable (new/const/arith): the value was born
            // here; nothing to trace further.
        }
        // Keep the original taint flowing upward unless the assignment
        // strongly defines it (local lhs).
        let strongly_defined = matches!(lhs, Place::Local(l) if t.ap.base_local() == Some(*l));
        if !strongly_defined {
            back.push(*t);
        }
        // Case B: the rhs is (part of) the tainted object — the lhs is
        // an alias *below* this statement. The alias also continues
        // upward (aliases of aliases, e.g. `a.b.c.s` from `b.c.s` at
        // `a.b = b`) unless this statement strongly defines its root;
        // activation statements keep this flow-sensitive.
        if let Some(r) = &rhs_ap {
            if let Some(rest) = t.ap.read_remainder(r) {
                let ap = self.lhs_ap_with(lhs, rest);
                let g = t.with_ap(ap);
                if g != *t {
                    fwd_after.push(g);
                    let strongly_defines_alias =
                        matches!(lhs, Place::Local(l) if g.ap.base_local() == Some(*l));
                    if !strongly_defines_alias {
                        back.push(g);
                    }
                }
            }
        }
    }

    /// Entry facts for the backward descent into `callee` at call `n`,
    /// as (entry fact, exit statements to seed) pairs. Tracing the
    /// call's *result* seeds only the exit returning the traced local;
    /// parameter / receiver / static facts seed every exit.
    pub fn backward_call_entries(
        &self,
        t: &Taint,
        result: Option<Local>,
        call: &InvokeExpr,
        callee: MethodId,
    ) -> Vec<(Taint, Vec<StmtRef>)> {
        let program = self.program();
        let m = program.method(callee);
        let mut out: Vec<(Taint, Vec<StmtRef>)> = Vec::new();
        let all_exits = || self.icfg.exit_stmts_of(callee).collect();
        match t.ap.base_local() {
            None => out.push((*t, all_exits())), // statics
            Some(base) => {
                if result == Some(base) {
                    // Trace the returned value.
                    for exit in self.icfg.exit_stmts_of(callee) {
                        if let Stmt::Return { value: Some(Operand::Local(v)) } = self.stmt(exit) {
                            let ap = t.ap.rebase(ApBase::Local(*v), &[], self.k());
                            out.push((t.with_ap(ap), vec![exit]));
                        }
                    }
                    return out;
                }
                for (i, arg) in call.args.iter().enumerate() {
                    if arg.as_local() == Some(base) && i < m.param_count() {
                        let ap = t.ap.rebase(ApBase::Local(m.param_local(i)), &[], self.k());
                        out.push((t.with_ap(ap), all_exits()));
                    }
                }
                if call.base == Some(base) {
                    if let Some(this) = m.this_local() {
                        let ap = t.ap.rebase(ApBase::Local(this), &[], self.k());
                        out.push((t.with_ap(ap), all_exits()));
                    }
                }
            }
        }
        out
    }
}
