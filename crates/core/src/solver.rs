//! The bidirectional taint solver (paper §4, Algorithms 1 and 2).
//!
//! Two [`Tabulator`]s — one forward (taint propagation), one backward
//! (on-demand alias search) — are driven in lockstep over the same fact
//! domain. The forward solver injects edges into the backward solver at
//! heap writes (carrying its `d1` context: **context injection**); the
//! backward solver spawns forward propagation for every alias it finds
//! and, on reaching a method's start, hands the search back to the
//! forward solver, never returning to callers itself.
//!
//! Fact conventions: a forward edge `(d1, n, d2)` means `d2` holds
//! *before* `n`; a backward edge `(d1, n, d)` means `d` holds *after*
//! `n` and the solver is searching upward for its aliases.
//!
//! The transfer functions live in [`Flows`] and are shared with the
//! parallel engine ([`crate::par_solver`]); this driver owns only the
//! tabulation state. Every cross-solver handshake (summaries ×
//! incoming contexts, forward × backward caller facts) is written so
//! each side first records its own half and then reads the other's —
//! the "covered pair" discipline that makes the computed fixpoint
//! independent of processing order, which in turn is what lets the
//! parallel engine produce bit-identical results.
//!
//! Provenance (for leak-path reconstruction) is also canonical: every
//! propagation offers its origin and *all* distinct origins are kept,
//! so the provenance graph — over which attribution runs a
//! deterministic breadth-first search — does not depend on discovery
//! order.
//!
//! Every table keys on `u32` [`FactId`]s hash-consed by the solver's
//! [`Interner`] and stores fact sets as bitset rows: popped edges are
//! resolved to real [`Fact`]s once per statement visit, and each
//! produced fact is interned once before fan-out to successors / return
//! sites — or not at all when it is the popped fact itself.
//!
//! Propagating an edge allocates nothing in the steady state: CFG
//! edges are borrowed from the method bodies, flow functions refill
//! buffers the solver owns, and provenance lives in one arena
//! ([`Provenance`]). What remains is table growth, amortized.

use crate::config::InfoflowConfig;
use crate::flows::{BackwardAssignOut, CallToReturnOut, Flows, ForwardAssignOut, ReachCache};
use crate::intern::{FactId, Interner};
use crate::results::{InfoflowResults, Leak};
use crate::sourcesink::SourceSinkManager;
use crate::summary_cache::SummaryCacheSession;
use crate::taint::{Fact, Taint};
use crate::wrappers::TaintWrapper;
use flowdroid_callgraph::Icfg;
use flowdroid_ifds::{AbortReason, BitsetSets, Tabulator};
use flowdroid_ir::{FxHashMap, FxHashSet, MethodId, Program, Stmt, StmtRef};
use std::collections::hash_map::Entry;

/// Edges popped between [`AbortHandle`] polls in the sequential loop.
const ABORT_CHECK_EVERY: usize = 128;

/// A provenance node: a fact at a statement.
type Node = (StmtRef, FactId);

/// End of an origin chain in [`Provenance`].
const NIL: u32 = u32::MAX;

/// Every distinct origin offered for each provenance node, in one
/// arena.
///
/// A node's first origin sits inline in its map value; further origins
/// are chained by index through one shared vector. A node with one
/// origin — most of them — costs no allocation of its own, and dropping
/// the graph frees two blocks however many nodes it holds.
#[derive(Default)]
struct Provenance {
    /// node → (first origin, index of the next one in `more`, or NIL).
    heads: FxHashMap<Node, (Node, u32)>,
    /// (origin, index of the node's next origin, or NIL).
    more: Vec<(Node, u32)>,
}

impl Provenance {
    /// Records `origin` for `node` unless it is recorded already.
    fn offer(&mut self, node: Node, origin: Node) {
        let head = match self.heads.entry(node) {
            Entry::Vacant(v) => {
                v.insert((origin, NIL));
                return;
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        if head.0 == origin {
            return;
        }
        let new = u32::try_from(self.more.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("provenance arena overflow");
        if head.1 == NIL {
            head.1 = new;
        } else {
            let mut at = head.1 as usize;
            loop {
                let (o, next) = self.more[at];
                if o == origin {
                    return;
                }
                if next == NIL {
                    break;
                }
                at = next as usize;
            }
            self.more[at].1 = new;
        }
        self.more.push((origin, NIL));
    }

    /// The origins recorded for `node`, in the order first offered.
    fn origins(&self, node: Node) -> impl Iterator<Item = Node> + '_ {
        let head = self.heads.get(&node).copied();
        let mut first = head.map(|(o, _)| o);
        let mut link = head.map_or(NIL, |(_, l)| l);
        std::iter::from_fn(move || {
            if let Some(o) = first.take() {
                return Some(o);
            }
            if link == NIL {
                return None;
            }
            let (o, next) = self.more[link as usize];
            link = next;
            Some(o)
        })
    }
}

/// Flow-function outputs and per-pop key lists, refilled on every pop
/// so their capacity is reused. A handler takes a buffer out with
/// `std::mem::take` and puts it back when done.
#[derive(Default)]
struct Buffers {
    assign: ForwardAssignOut,
    ctr: CallToReturnOut,
    back: BackwardAssignOut,
    entries: Vec<(Fact, Option<StmtRef>)>,
    /// Output fact keys, with "is a non-zero fact".
    keys: Vec<(FactId, bool)>,
    /// Activated return taints and their keys.
    acts: Vec<(Taint, FactId)>,
    /// Caller contexts at a call site.
    d3s: Vec<FactId>,
}

/// The bidirectional solver.
pub struct BiSolver<'a> {
    flows: Flows<'a>,
    interner: Interner,
    fw: Tabulator<FactId, BitsetSets>,
    bw: Tabulator<FactId, BitsetSets>,
    leaks: Vec<(StmtRef, Taint)>,
    /// (stmt, fact) → all offered predecessor (stmt, fact) origins, for
    /// path reconstruction. The *set* of offers at the fixpoint is
    /// order-independent.
    preds: Provenance,
    /// (stmt, fact) → source statement that generated the fact.
    gen_source: FxHashMap<(StmtRef, FactId), StmtRef>,
    /// Memoized "call site can transitively reach method" queries.
    reach_cache: ReachCache,
    /// Persistent end-summary store session, when configured.
    cache: Option<SummaryCacheSession>,
    /// Why the run aborted; `None` means the fixpoint was reached.
    abort_reason: Option<AbortReason>,
    buf: Buffers,
}

impl<'a> BiSolver<'a> {
    /// Creates a solver.
    pub fn new(
        icfg: Icfg<'a>,
        sources: &'a SourceSinkManager,
        wrapper: &'a TaintWrapper,
        config: &'a InfoflowConfig,
    ) -> Self {
        let flows = Flows::new(icfg, sources, wrapper, config);
        let cache = SummaryCacheSession::open(&flows, sources, wrapper);
        BiSolver {
            flows,
            interner: Interner::with_bound(config.max_access_path_length),
            fw: Tabulator::new(),
            bw: Tabulator::new(),
            leaks: Vec::new(),
            preds: Provenance::default(),
            gen_source: FxHashMap::default(),
            reach_cache: ReachCache::default(),
            cache,
            abort_reason: None,
            buf: Buffers::default(),
        }
    }

    fn program(&self) -> &'a Program {
        self.flows.program()
    }

    fn config(&self) -> &'a InfoflowConfig {
        self.flows.config
    }

    /// Runs the analysis from the given entry methods and collects
    /// results.
    pub fn solve(mut self, entry_points: &[MethodId]) -> InfoflowResults {
        let start = std::time::Instant::now();
        for &ep in entry_points {
            for sp in self.flows.icfg.start_points_of(ep) {
                self.fw.propagate(FactId::ZERO, sp, FactId::ZERO);
            }
        }
        // The abort token: the caller's (deadline / external cancel)
        // when configured, else a private one that only the budget can
        // trip. Either way the tripping reason is latched on the handle
        // so supervisors polling a shared handle see it too.
        let abort = self.config().abort.clone().unwrap_or_default();
        let mut since_abort_check = 0usize;
        loop {
            if self.config().max_propagations > 0
                && self.fw.propagation_count() > self.config().max_propagations
            {
                abort.trip(AbortReason::Budget);
                self.abort_reason = Some(AbortReason::Budget);
                break;
            }
            since_abort_check += 1;
            if since_abort_check >= ABORT_CHECK_EVERY {
                since_abort_check = 0;
                // Streaming piggybacks on the abort poll interval: the
                // sink only observes, so emitting cannot perturb the
                // fixpoint (streamed and plain runs stay identical).
                self.emit_progress(None);
                if let Some(reason) = abort.poll() {
                    self.abort_reason = Some(reason);
                    break;
                }
            }
            if let Some(edge) = self.fw.pop() {
                self.process_forward(edge.d1, edge.n, edge.d2);
                continue;
            }
            if let Some(edge) = self.bw.pop() {
                self.process_backward(edge.d1, edge.n, edge.d2);
                continue;
            }
            break;
        }
        self.collect_results(start.elapsed())
    }

    // ================= shared helpers =================

    fn stmt(&self, n: StmtRef) -> &'a Stmt {
        self.flows.stmt(n)
    }

    /// Delivers a progress snapshot to the configured sink, if any.
    fn emit_progress(&self, new_leak: Option<(u32, String)>) {
        let Some(sink) = &self.config().progress else { return };
        sink.emit(&crate::config::ProgressEvent {
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            bodies_materialized: self.program().bodies_materialized(),
            summary_hits: self.cache.as_ref().map_or(0, |c| c.hits_so_far()),
            leaks: self.leaks.len() as u64,
            new_leak,
        });
    }

    /// Records a forward path edge with provenance for path
    /// reconstruction.
    fn fw_propagate(
        &mut self,
        d1: FactId,
        n: StmtRef,
        d2: FactId,
        from: Option<(StmtRef, FactId)>,
    ) {
        self.fw.propagate(d1, n, d2);
        self.record_pred(n, d2, from);
    }

    /// Records a backward path edge with provenance (provenance links
    /// from both solvers share one map so alias detours stay walkable).
    fn bw_propagate(
        &mut self,
        d1: FactId,
        n: StmtRef,
        d2: FactId,
        from: Option<(StmtRef, FactId)>,
    ) {
        self.bw.propagate(d1, n, d2);
        self.record_pred(n, d2, from);
    }

    /// Offers a provenance link for `(n, d2)`. Every propagation offers
    /// its origin (not just the edge-inserting one), and *all* distinct
    /// origins are kept: the set of propagation calls at the fixpoint is
    /// the same whatever the processing order, so the resulting
    /// provenance graph — and hence the deterministic walk in
    /// [`BiSolver::attribute`] — is independent of it.
    fn record_pred(&mut self, n: StmtRef, d2: FactId, from: Option<(StmtRef, FactId)>) {
        if !self.config().track_paths {
            return;
        }
        let Some(origin) = from else { return };
        if origin == (n, d2) {
            return;
        }
        self.preds.offer((n, d2), origin);
    }

    /// Marks `fact` at `n` as generated by the source statement `src`
    /// (least source statement wins, for order independence).
    fn mark_source(&mut self, n: StmtRef, fact: &FactId, src: StmtRef) {
        if self.config().track_paths {
            let e = self.gen_source.entry((n, *fact)).or_insert(src);
            if src < *e {
                *e = src;
            }
        }
    }

    fn maybe_activate(&mut self, n: StmtRef, t: &Taint) -> Taint {
        self.flows.maybe_activate(&mut self.reach_cache, n, t)
    }

    /// The id of fact `f`, where `d2` is the id of the popped fact
    /// `d2f`: the identity flow — `f` is `d2f` itself — reuses `d2`
    /// instead of interning.
    fn key_of(&mut self, f: &Fact, d2: FactId, d2f: &Fact) -> FactId {
        if f == d2f {
            d2
        } else {
            self.interner.intern_fact(f)
        }
    }

    /// The id of flow output `f` at `n` after activation, and whether it
    /// is a non-zero fact.
    fn output_key(&mut self, n: StmtRef, f: &Fact, d2: FactId, d2f: &Fact) -> (FactId, bool) {
        let f = match f {
            Fact::T(t) => Fact::T(self.maybe_activate(n, t)),
            Fact::Zero => Fact::Zero,
        };
        (self.key_of(&f, d2, d2f), !f.is_zero())
    }

    /// Injects an alias query for taint `g` (which holds after the heap
    /// write / wrapper call `n`) into the backward solver, with context
    /// injection of `d1` (Algorithm 1, line 16).
    fn inject_alias_query(&mut self, d1: &FactId, n: StmtRef, g: &Taint) {
        let Some(q) = self.flows.alias_query_taint(n, g) else { return };
        let ctx =
            if self.config().enable_context_injection { *d1 } else { FactId::ZERO };
        let origin = self.interner.intern_fact(&Fact::T(*g));
        let qk = self.interner.intern_fact(&Fact::T(q));
        self.bw_propagate(ctx, n, qk, Some((n, origin)));
    }

    // ================= forward solver =================

    fn process_forward(&mut self, d1: FactId, n: StmtRef, d2: FactId) {
        let d2f = self.interner.resolve_fact(d2);
        let stmt = self.stmt(n);
        if stmt.is_call() {
            if !self.flows.icfg.callees_of_call(n).is_empty() {
                self.forward_call(n, &d2, &d2f);
            }
            self.forward_call_to_return(&d1, n, &d2, &d2f);
        } else if stmt.is_exit() {
            self.forward_exit(&d1, n, &d2);
        } else {
            self.forward_normal(&d1, n, &d2, &d2f);
        }
    }

    fn forward_normal(&mut self, d1: &FactId, n: StmtRef, d2: &FactId, d2f: &Fact) {
        let mut keys = std::mem::take(&mut self.buf.keys);
        keys.clear();
        match (self.stmt(n), d2f) {
            (Stmt::Assign { lhs, rhs }, Fact::T(t)) => {
                let mut res = std::mem::take(&mut self.buf.assign);
                self.flows.forward_assign(lhs, rhs, t, &mut res);
                for g in &res.alias_gens {
                    self.inject_alias_query(d1, n, g);
                }
                // Activation and interning depend only on `n`, so key
                // each output fact once and fan the keys out to all
                // successors.
                for f in &res.facts {
                    keys.push(self.output_key(n, f, *d2, d2f));
                }
                self.buf.assign = res;
            }
            _ => keys.push(self.output_key(n, d2f, *d2, d2f)),
        }
        let origin = Some((n, *d2));
        for succ in self.flows.icfg.succs_of(n) {
            for &(k, _) in &keys {
                self.fw_propagate(*d1, succ, k, origin);
            }
        }
        self.buf.keys = keys;
    }

    fn forward_call(&mut self, n: StmtRef, d2: &FactId, d2f: &Fact) {
        let Stmt::Invoke { call, .. } = self.stmt(n) else { return };
        let mut entries = std::mem::take(&mut self.buf.entries);
        for &callee in self.flows.icfg.callees_of_call(n) {
            self.flows.call_flow(call, callee, d2f, &mut entries);
            for (d3f, src_mark) in &entries {
                let d3 = self.key_of(d3f, *d2, d2f);
                self.fw.add_incoming(callee, d3, n, *d2);
                let cached = self
                    .cache
                    .as_ref()
                    .and_then(|c| c.lookup(callee, d3f))
                    .map(<[(StmtRef, Fact)]>::to_vec);
                if let Some(cached) = cached {
                    // Persisted summaries replace tabulating the callee
                    // body: install the exits and link them to this call
                    // site for provenance (the interior chain is never
                    // built on a warm hit).
                    for (exit, exit_f) in cached {
                        let ek = self.interner.intern_fact(&exit_f);
                        self.fw.install_summary(callee, d3, exit, ek);
                        self.record_pred(exit, ek, Some((n, *d2)));
                    }
                } else {
                    for sp in self.flows.icfg.start_points_of(callee) {
                        self.fw_propagate(d3, sp, d3, Some((n, *d2)));
                        if let Some(src) = src_mark {
                            self.mark_source(sp, &d3, *src);
                        }
                    }
                }
                // Apply existing summaries (recorded *after* the
                // incoming context above: a concurrent exit either sees
                // the context or its summary is visible here).
                for (exit, d4) in self.fw.summaries_for(callee, &d3) {
                    self.apply_return_for_context(n, callee, exit, &d4, d2);
                }
            }
        }
        self.buf.entries = entries;
    }

    fn forward_exit(&mut self, d1: &FactId, n: StmtRef, d2: &FactId) {
        let callee = self.flows.icfg.method_of(n);
        self.fw.install_summary(callee, *d1, n, *d2);
        for (call_site, d4) in self.fw.incoming_for(callee, d1) {
            self.apply_return_for_context(call_site, callee, n, d2, &d4);
        }
    }

    fn apply_return_for_context(
        &mut self,
        call_site: StmtRef,
        callee: MethodId,
        exit: StmtRef,
        exit_key: &FactId,
        d4: &FactId,
    ) {
        let exit_fact = self.interner.resolve_fact(*exit_key);
        let mapped = self.flows.return_flow(call_site, callee, exit, &exit_fact);
        if mapped.is_empty() {
            return;
        }
        // Caller contexts: the union of both solvers' path edges at the
        // call site — for contexts injected by the backward solver the
        // caller fact may only be known to the backward tabulator, and
        // the same fact may surface in both; taking the union (rather
        // than a time-sensitive fallback) keeps the result independent
        // of processing order.
        let mut d3s = std::mem::take(&mut self.buf.d3s);
        d3s.clear();
        d3s.extend(self.fw.d1s_at(call_site, d4));
        for d in self.bw.d1s_at(call_site, d4) {
            if !d3s.contains(&d) {
                d3s.push(d);
            }
        }
        // Activation depends only on the call site; intern once per
        // mapped taint, not per (return site × context).
        let mut acts = std::mem::take(&mut self.buf.acts);
        acts.clear();
        for t in &mapped {
            let t = self.maybe_activate(call_site, t);
            let k = self.interner.intern_fact(&Fact::T(t));
            acts.push((t, k));
        }
        for ret_site in self.flows.icfg.return_sites_of_call(call_site) {
            for (t, fk) in &acts {
                for d3 in &d3s {
                    self.fw_propagate(
                        *d3,
                        ret_site,
                        *fk,
                        Some((exit, *exit_key)),
                    );
                    // Heap taints returning to the caller spawn a new
                    // alias search there (paper §4.2).
                    if !t.ap.is_empty() && t.ap.base_local().is_some() {
                        self.inject_alias_query(d3, call_site, t);
                    }
                }
            }
        }
        self.buf.acts = acts;
        self.buf.d3s = d3s;
    }

    fn forward_call_to_return(&mut self, d1: &FactId, n: StmtRef, d2: &FactId, d2f: &Fact) {
        let mut ctr = std::mem::take(&mut self.buf.ctr);
        self.flows.call_to_return(n, d2f, &mut ctr);
        for t in &ctr.leaks {
            self.leaks.push((n, *t));
            if self.config().progress.is_some() {
                let line = crate::results::line_of(self.program(), n);
                let desc = t.ap.display(self.program(), n.method);
                self.emit_progress(Some((line, desc)));
            }
        }
        for g in &ctr.alias_gens {
            self.inject_alias_query(d1, n, g);
        }
        // Key each output fact once; fan keys out to return sites.
        let mut keys = std::mem::take(&mut self.buf.keys);
        keys.clear();
        for f in &ctr.out {
            keys.push(self.output_key(n, f, *d2, d2f));
        }
        let origin = Some((n, *d2));
        for ret_site in self.flows.icfg.return_sites_of_call(n) {
            for &(k, non_zero) in &keys {
                if ctr.src_mark && non_zero {
                    self.mark_source(ret_site, &k, n);
                }
                self.fw_propagate(*d1, ret_site, k, origin);
            }
        }
        self.buf.keys = keys;
        self.buf.ctr = ctr;
    }

    // ================= backward (alias) solver =================

    fn process_backward(&mut self, d1: FactId, n: StmtRef, d2: FactId) {
        let d2f = self.interner.resolve_fact(d2);
        match self.stmt(n) {
            Stmt::Invoke { .. } => {
                self.backward_call(&d1, n, &d2, &d2f);
            }
            Stmt::Assign { lhs, rhs } => {
                self.backward_assign(&d1, n, &d2, &d2f, lhs, rhs);
            }
            _ => {
                // Control flow and exits are transparent to aliasing.
                self.bw_to_preds(&d1, n, &d2);
            }
        }
    }

    /// Routes a backward fact above `n`: to `n`'s predecessors, or —
    /// when `n` has none (it is the method's first statement) — through
    /// the method-start case of Algorithm 2 (lines 11–14): install a
    /// summary, hand the fact to the forward solver (with the backward
    /// solver's calling contexts, so returns stay realizable), and
    /// stop; the backward analysis never returns into callers itself.
    fn bw_to_preds(&mut self, d1: &FactId, n: StmtRef, d: &FactId) {
        self.bw_to_preds_from(d1, n, d, Some((n, *d)));
    }

    fn bw_to_preds_from(
        &mut self,
        d1: &FactId,
        n: StmtRef,
        d: &FactId,
        origin: Option<(StmtRef, FactId)>,
    ) {
        let preds = self.flows.icfg.preds_of(n);
        if preds.len() == 0 {
            let m = self.flows.icfg.method_of(n);
            let sp = StmtRef::new(m, 0);
            self.bw.install_summary(m, *d1, sp, *d);
            self.fw_propagate(*d1, sp, *d, origin);
            let contexts = self.bw.incoming_for(m, d1);
            if !contexts.is_empty() {
                self.fw.inject_incoming(m, *d1, &contexts);
                // The forward solver may already hold summaries for
                // (m, d1) from an earlier handoff or a real forward
                // call; apply them to every context known now. Contexts
                // recorded later are covered by the call side
                // ([`Self::backward_call`] re-injects after its
                // `add_incoming`).
                for (exit, d2x) in self.fw.summaries_for(m, d1) {
                    for (site, d4) in &contexts {
                        self.apply_return_for_context(*site, m, exit, &d2x, d4);
                    }
                }
            }
            return;
        }
        for pred in preds {
            self.bw_propagate(*d1, pred, *d, origin);
        }
    }

    fn backward_assign(
        &mut self,
        d1: &FactId,
        n: StmtRef,
        d2: &FactId,
        d2f: &Fact,
        lhs: &flowdroid_ir::Place,
        rhs: &flowdroid_ir::Rvalue,
    ) {
        let Fact::T(t) = d2f else { return };
        let mut res = std::mem::take(&mut self.buf.back);
        self.flows.backward_assign(t, lhs, rhs, &mut res);
        let origin = Some((n, *d2));
        for g in &res.back {
            let k = self.key_of(&Fact::T(*g), *d2, d2f);
            self.bw_to_preds_from(d1, n, &k, origin);
        }
        for g in &res.fwd_at_n {
            let k = self.interner.intern_fact(&Fact::T(*g));
            self.fw_propagate(*d1, n, k, origin);
        }
        for g in &res.fwd_after {
            let k = self.interner.intern_fact(&Fact::T(*g));
            for succ in self.flows.icfg.succs_of(n) {
                self.fw_propagate(*d1, succ, k, origin);
            }
        }
        self.buf.back = res;
    }

    fn backward_call(&mut self, d1: &FactId, n: StmtRef, d2: &FactId, d2f: &Fact) {
        let Stmt::Invoke { result, call } = self.stmt(n) else { return };
        let result = *result;
        let Fact::T(t) = d2f else { return };
        // Pass over the call unless the traced value is its result.
        let rooted_at_result = result.is_some() && t.ap.base_local() == result;
        if !rooted_at_result {
            self.bw_to_preds(d1, n, d2);
        }
        // Descend into body-having callees (aliases may be created
        // inside).
        for &callee in self.flows.icfg.callees_of_call(n) {
            for (g, exits) in self.flows.backward_call_entries(t, result, call, callee) {
                let gk = self.interner.intern_fact(&Fact::T(g));
                self.bw.add_incoming(callee, gk, n, *d2);
                for exit in exits {
                    self.bw_propagate(gk, exit, gk, Some((n, *d2)));
                }
                // If the backward search already reached this callee's
                // start with entry fact `g` (a backward start-summary
                // exists), the forward handoff for `g` has run and did
                // not see this context: inject it now and apply any
                // forward summaries so returns reach this caller too.
                // Together with the handoff side (which injects all
                // contexts known at handoff time) every (context,
                // summary) pair is applied regardless of order.
                if !self.bw.summaries_for(callee, &gk).is_empty() {
                    self.fw.inject_incoming(callee, gk, &[(n, *d2)]);
                    for (exit, d2x) in self.fw.summaries_for(callee, &gk) {
                        self.apply_return_for_context(n, callee, exit, &d2x, d2);
                    }
                }
            }
        }
    }

    // ================= results =================

    fn collect_results(mut self, duration: std::time::Duration) -> InfoflowResults {
        let program = self.program();
        let summary_cache = self.cache.as_ref().map(|c| {
            // Only a completed fixpoint is persisted — partial
            // summaries from an aborted run would be unsound to replay.
            if self.abort_reason.is_none() {
                let resolved = self
                    .fw
                    .all_summaries()
                    .into_iter()
                    .map(|(m, d1, exits)| {
                        (
                            m,
                            self.interner.resolve_fact(d1),
                            exits
                                .iter()
                                .map(|(e, k)| (*e, self.interner.resolve_fact(*k)))
                                .collect(),
                        )
                    })
                    .collect();
                c.record_all(program, resolved);
            }
            c.stats()
        });
        // Canonical order before (sink, source) dedup: recorded leaks
        // are sorted by (sink, taint value) so which representative
        // survives never depends on discovery order.
        let mut recorded = std::mem::take(&mut self.leaks);
        recorded.sort();
        recorded.dedup();
        let mut seen = FxHashSet::default();
        let mut leaks = Vec::new();
        for (sink, taint) in &recorded {
            let (source, path) = self.attribute(*sink, taint);
            let key = (*sink, source);
            if !seen.insert(key) {
                continue;
            }
            leaks.push(Leak {
                sink: *sink,
                source,
                taint: taint.ap.display(program, sink.method),
                path,
            });
        }
        leaks.sort_by_key(|l| (l.sink, l.source));
        let fact_tables = {
            let mut t = self.fw.table_stats();
            t.merge(&self.bw.table_stats());
            t.widened_facts = self.interner.widened_count();
            (t.any() || t.widened_facts > 0).then_some(t)
        };
        InfoflowResults {
            leaks,
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            reachable_methods: self.flows.icfg.callgraph().reachable_methods().len(),
            distinct_facts: self.interner.fact_count(),
            distinct_aps: self.interner.ap_count(),
            duration,
            aborted: self.abort_reason.is_some(),
            abort_reason: self.abort_reason,
            scheduler: None,
            fact_tables,
            summary_cache,
        }
    }

    /// Walks the provenance graph back from a leak to the source that
    /// generated the taint.
    ///
    /// Breadth-first search with the origin sets expanded in (statement,
    /// fact *value*) order: the provenance graph is order-independent
    /// (see [`BiSolver::record_pred`]), so the first generating source
    /// this walk reaches — and the parent chain behind it — is the same
    /// whatever order the solver discovered the edges in. Cycles in the
    /// graph are harmless: the visited set skips them and the search
    /// continues through the remaining origins.
    fn attribute(&mut self, sink: StmtRef, taint: &Taint) -> (Option<StmtRef>, Vec<StmtRef>) {
        if !self.config().track_paths {
            return (None, Vec::new());
        }
        let sink_key = self.interner.intern_fact(&Fact::T(*taint));
        let start = (sink, sink_key);
        let mut visited = FxHashSet::default();
        visited.insert(start);
        let mut parent: FxHashMap<Node, Node> = FxHashMap::default();
        let mut queue = std::collections::VecDeque::from([start]);
        let mut origins = Vec::new();
        while let Some(cur) = queue.pop_front() {
            if let Some(&src) = self.gen_source.get(&cur) {
                // Parents lead from the generation point back to the
                // sink, so the collected path is already source-first.
                let mut path = vec![cur.0];
                let mut walk = cur;
                while let Some(p) = parent.get(&walk) {
                    path.push(p.0);
                    walk = *p;
                }
                return (Some(src), path);
            }
            origins.clear();
            origins.extend(self.preds.origins(cur));
            origins.sort_by_key(|(s, k)| (*s, self.interner.resolve_fact(*k)));
            for &o in &origins {
                if visited.insert(o) {
                    parent.insert(o, cur);
                    queue.push_back(o);
                }
            }
        }
        (None, vec![sink])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_bitset::Idx;

    fn node(stmt: usize, fact: usize) -> Node {
        (StmtRef::new(MethodId::from_index(0), stmt), FactId::from_index(fact))
    }

    #[test]
    fn provenance_keeps_each_distinct_origin_once() {
        let mut p = Provenance::default();
        let n = node(5, 1);
        assert_eq!(p.origins(n).count(), 0);
        p.offer(n, node(4, 1));
        p.offer(n, node(4, 1));
        assert_eq!(p.origins(n).collect::<Vec<_>>(), [node(4, 1)]);
        assert!(p.more.is_empty(), "a single origin stays inline");

        p.offer(n, node(3, 2));
        p.offer(n, node(2, 7));
        p.offer(n, node(3, 2));
        p.offer(n, node(2, 7));
        p.offer(n, node(4, 1));
        assert_eq!(p.origins(n).collect::<Vec<_>>(), [node(4, 1), node(3, 2), node(2, 7)]);
        assert_eq!(p.more.len(), 2, "the second and third origins are chained");

        // Another node's chain interleaves in the arena without mixing.
        let m = node(6, 1);
        p.offer(m, node(5, 1));
        p.offer(m, node(1, 1));
        p.offer(n, node(0, 0));
        assert_eq!(p.origins(m).collect::<Vec<_>>(), [node(5, 1), node(1, 1)]);
        assert_eq!(p.origins(n).count(), 4);
    }
}
