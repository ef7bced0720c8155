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
//! The transfer functions live in `Flows`; this driver owns only the
//! tabulation state. Every cross-solver handshake (summaries ×
//! incoming contexts, forward × backward caller facts) is written so
//! each side first records its own half and then reads the other's —
//! the "covered pair" discipline that makes the computed fixpoint
//! independent of processing order.
//!
//! Provenance (for leak-path reconstruction) is also canonical: the
//! origin set of a `(statement, fact)` node does not depend on
//! discovery order, so neither does the deterministic breadth-first
//! search attribution runs over it. Every propagation except one kind
//! offers its origin and *all* distinct origins are kept. The exception
//! is an *identity* flow — the popped fact passing a statement that
//! does not touch it, the bulk of all propagations: a forward local
//! flow's output equal to its input, or a backward fact sent on
//! unchanged to the statement's predecessors. It records nothing;
//! attribution rebuilds those origins for the few nodes it visits, from
//! the forward and backward path-edge tables, by re-running the same
//! flow.
//!
//! The output of a statement's local flow — forward to its successors,
//! backward to its predecessors — is not queued edge by edge either: it
//! *walks*. Its edge is recorded (a generated fact offering its origin,
//! an identity flow nothing), and while the statement reached certainly
//! passes the fact on unchanged and does nothing else
//! (`fw_walks_through`, `bw_walks_through`: cheap syntactic checks that
//! may say "no" too often, never "yes" wrongly), the walk records the
//! edge at that statement's successors — predecessors, backward — as an
//! identity flow, from a reused stack, without queueing it (emulated
//! tail recursion). The first statement that might touch the fact gets
//! its edge queued and is processed as usual. A walked statement counts
//! as processed, so a run reaches the same tables, counts and
//! provenance as one that queued every edge; only the worklist pops
//! shrink.
//!
//! A walk does not judge every statement it passes. Once a statement
//! passes and falls through to the next one alone, the walk jumps: the
//! method's walk index (`walk::WalkIndex`) names the next statement
//! that might touch the fact — the end of the straight-line run, the
//! next statement that mentions the fact's local, the next call for
//! the zero fact or an inactive taint, the taint's activation
//! statement — and the walk records the edges up to it in one fill of
//! its row
//! ([`Tabulator::fill_in`]), each counted as one propagation exactly as
//! a step would count it. The fill stops early at a statement that
//! already has an edge for the fact, and forward at the propagation
//! budget, so tables, counts, pops, provenance and budget aborts are
//! those of a walk that judged every statement; only `walk_checks`, the
//! statements judged, shrinks.
//!
//! A walk passes calls too. A taint rooted at a local that a call does
//! not mention — not its receiver, an argument or its result — enters
//! no callee, and its call-to-return flow passes it on unchanged (paper
//! §4, Algorithm 1); backward, the alias search neither descends with
//! it nor stops at the call. Forward, the call must also leave an
//! inactive taint inactive: it is not the taint's activation statement
//! and reaches no method holding one. The zero fact, facts rooted at
//! static fields and exits still stop a walk. A walk never leaves its
//! method, so it looks the method's body up once and steps by statement
//! index.
//!
//! Every table keys on `u32` [`FactId`]s hash-consed by the solver's
//! [`Interner`] and stores fact sets as bitset rows: popped edges are
//! resolved to real [`Fact`]s once per statement visit, and each
//! produced fact is interned once before fan-out to successors / return
//! sites — or not at all when it is the popped fact itself. Path edges
//! are kept fact-major, one row per (method, fact) with a slot per
//! statement of the row's window, so a walk — one fact in one method —
//! looks its row up once.
//!
//! Propagating an edge allocates nothing in the steady state: CFG
//! edges are borrowed from the method bodies, flow functions refill
//! buffers the solver owns, a walk reuses one stack, and the provenance
//! that is recorded lives in one arena (`Provenance`), as does the walk
//! index of every method walked in. An edge a walk fills is an 8-byte
//! slot write into the walk's row; a statement check is paid only where
//! a jump stops. What remains is table growth: a row's window covers
//! the statements its edges target, carved from a few large blocks
//! that the thread keeps warm for its next solve, up to
//! [`flowdroid_ifds::WARM_ROW_BYTES`], so a worker's later solves
//! allocate no row memory below that size.

use crate::config::InfoflowConfig;
use crate::flows::{BackwardAssignOut, CallToReturnOut, Flows, ForwardAssignOut, ReachCache};
use crate::intern::{FactId, Interner};
use crate::results::{InfoflowResults, Leak};
use crate::sourcesink::SourceSinkManager;
use crate::taint::{Fact, Taint};
use crate::walk::{bw_walks_through, WalkIndex};
use crate::wrappers::TaintWrapper;
use flowdroid_callgraph::Icfg;
use flowdroid_ifds::{AbortReason, Tabulator};
use flowdroid_ir::{Body, FxHashMap, FxHashSet, Local, MethodId, Program, Stmt, StmtIdx, StmtRef};
use std::collections::hash_map::Entry;

/// Edges popped between [`AbortHandle`] polls in the sequential loop.
const ABORT_CHECK_EVERY: usize = 128;

/// A provenance node: a fact at a statement.
type Node = (StmtRef, FactId);

/// The statement a walk step comes from when the step's provenance is
/// already offered: the first step of a fact a flow generated.
const OFFERED: StmtIdx = StmtIdx::MAX;

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
    /// A local forward flow's output facts, activation applied.
    outs: Vec<Fact>,
    assign: ForwardAssignOut,
    ctr: CallToReturnOut,
    back: BackwardAssignOut,
    entries: Vec<(Fact, Option<StmtRef>)>,
    /// Output fact keys.
    keys: Vec<FactId>,
    /// Activated return taints and their keys.
    acts: Vec<(Taint, FactId)>,
    /// Caller contexts at a call site.
    d3s: Vec<FactId>,
    /// A walk's pending steps: (statement reached, statement walked
    /// from), as indices into the walked method's body.
    walk: Vec<(StmtIdx, StmtIdx)>,
}

/// The bidirectional solver.
pub struct BiSolver<'a> {
    flows: Flows<'a>,
    interner: Interner,
    fw: Tabulator<FactId>,
    bw: Tabulator<FactId>,
    leaks: Vec<(StmtRef, Taint)>,
    /// (stmt, fact) → all offered predecessor (stmt, fact) origins, for
    /// path reconstruction. The *set* of offers at the fixpoint is
    /// order-independent. Identity flows are not offered (see
    /// [`BiSolver::identity_origins`]).
    preds: Provenance,
    /// Forward nodes whose every path edge was still queued when the run
    /// aborted: no flow ran from them. Empty at a fixpoint.
    fw_unprocessed: FxHashSet<Node>,
    /// The same for backward nodes.
    bw_unprocessed: FxHashSet<Node>,
    /// Every offer, identity ones included, for the origin-equality
    /// test.
    #[cfg(test)]
    offers: FxHashMap<Node, FxHashSet<Node>>,
    /// (stmt, fact) → source statement that generated the fact.
    gen_source: FxHashMap<(StmtRef, FactId), StmtRef>,
    /// Memoized "call site can transitively reach method" queries.
    reach_cache: ReachCache,
    /// Why the run aborted; `None` means the fixpoint was reached.
    abort_reason: Option<AbortReason>,
    /// Where walks jump to, per method walked in.
    walks: WalkIndex,
    /// Statements a walk judged with its predicate.
    walk_checks: u64,
    /// Flows attribution re-ran to rebuild identity origins.
    flow_reevaluations: u64,
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
        let reachable = icfg.callgraph().reachable_methods();
        let methods = || reachable.iter().map(|&m| (m, icfg.body_len(m)));
        BiSolver {
            flows,
            interner: Interner::with_bound(config.max_access_path_length),
            fw: Tabulator::new(methods()),
            bw: Tabulator::new(methods()),
            leaks: Vec::new(),
            preds: Provenance::default(),
            fw_unprocessed: FxHashSet::default(),
            bw_unprocessed: FxHashSet::default(),
            #[cfg(test)]
            offers: FxHashMap::default(),
            gen_source: FxHashMap::default(),
            reach_cache: ReachCache::default(),
            abort_reason: None,
            walks: WalkIndex::new(reachable.iter().map(|m| m.index() + 1).max().unwrap_or(0)),
            walk_checks: 0,
            flow_reevaluations: 0,
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
    /// results. [`InfoflowResults::duration`] times the fixpoint and
    /// [`InfoflowResults::results`] the rest: leak attribution and
    /// dropping the solver's tables.
    pub fn solve(mut self, entry_points: &[MethodId]) -> InfoflowResults {
        let start = std::time::Instant::now();
        self.run(entry_points);
        let duration = start.elapsed();
        let mut results = self.collect_results(duration);
        results.results = start.elapsed().saturating_sub(duration);
        results
    }

    /// Tabulates until the fixpoint or an abort; an aborted run that
    /// tracks paths then notes the nodes no flow ran from.
    fn run(&mut self, entry_points: &[MethodId]) {
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
        if self.abort_reason.is_some() && self.config().track_paths {
            self.fw_unprocessed = unprocessed_nodes(&self.fw);
            self.bw_unprocessed = unprocessed_nodes(&self.bw);
        }
    }

    // ================= shared helpers =================

    fn stmt(&self, n: StmtRef) -> &'a Stmt {
        self.flows.stmt(n)
    }

    /// The body of `m`, which the call graph reached.
    fn body(&self, m: MethodId) -> &'a Body {
        self.program().method(m).body().expect("method has no body")
    }

    /// Delivers a progress snapshot to the configured sink, if any.
    fn emit_progress(&self, new_leak: Option<(u32, String)>) {
        let Some(sink) = &self.config().progress else { return };
        sink.emit(&crate::config::ProgressEvent {
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            bodies_materialized: self.program().bodies_materialized(),
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

    /// Offers a provenance link for `(n, d2)`. Every propagation but an
    /// identity flow — forward or backward — offers its origin (not
    /// just the edge-inserting one), and *all* distinct origins are
    /// kept: the set of propagation calls at the fixpoint is the same
    /// whatever the processing order, so the resulting provenance graph
    /// — and hence the deterministic walk in [`BiSolver::attribute`] —
    /// is independent of it. The identity origins left out are a
    /// function of the forward and backward path-edge tables, which are
    /// order-independent too.
    fn record_pred(&mut self, n: StmtRef, d2: FactId, from: Option<(StmtRef, FactId)>) {
        self.note_offer((n, d2), from);
        if !self.config().track_paths {
            return;
        }
        let Some(origin) = from else { return };
        if origin == (n, d2) {
            return;
        }
        self.preds.offer((n, d2), origin);
    }

    /// Notes an offer, recorded or not, under the same filters as
    /// [`Self::record_pred`].
    #[cfg(test)]
    fn note_offer(&mut self, node: Node, from: Option<Node>) {
        if let Some(origin) = from.filter(|&o| o != node && self.config().track_paths) {
            self.offers.entry(node).or_default().insert(origin);
        }
    }

    #[cfg(not(test))]
    #[inline(always)]
    fn note_offer(&mut self, _: Node, _: Option<Node>) {}

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

    /// `n`'s local forward flow on the popped fact `d2f`: the
    /// call-to-return flow at a call, the normal flow at any other
    /// statement (never called at an exit). Refills `outs` with the
    /// output facts, activation applied; the alias gens, leaks and source
    /// mark stay in `self.buf.assign` / `self.buf.ctr`. Interns nothing.
    ///
    /// Propagation and [`Self::identity_origins`] both call this, so the
    /// identity outputs one leaves unrecorded are exactly those the other
    /// rebuilds.
    fn local_flow(&mut self, n: StmtRef, d2f: &Fact, outs: &mut Vec<Fact>) {
        outs.clear();
        let stmt = self.stmt(n);
        if stmt.is_call() {
            let mut ctr = std::mem::take(&mut self.buf.ctr);
            self.flows.call_to_return(n, d2f, &mut ctr);
            for f in &ctr.out {
                outs.push(self.activated(n, f));
            }
            self.buf.ctr = ctr;
            return;
        }
        let mut res = std::mem::take(&mut self.buf.assign);
        match (stmt, d2f) {
            (Stmt::Assign { lhs, rhs }, Fact::T(t)) => {
                self.flows.forward_assign(lhs, rhs, t, &mut res);
            }
            _ => {
                res.facts.clear();
                res.alias_gens.clear();
                res.facts.push(*d2f);
            }
        }
        for f in &res.facts {
            outs.push(self.activated(n, f));
        }
        self.buf.assign = res;
    }

    /// `f` with its taint activated at `n`, if `n` activates it.
    fn activated(&mut self, n: StmtRef, f: &Fact) -> Fact {
        match f {
            Fact::T(t) => Fact::T(self.maybe_activate(n, t)),
            Fact::Zero => Fact::Zero,
        }
    }

    /// Refills `keys` with the ids of a local flow's outputs.
    fn output_keys(&mut self, outs: &[Fact], d2: FactId, d2f: &Fact, keys: &mut Vec<FactId>) {
        keys.clear();
        for f in outs {
            keys.push(self.key_of(f, d2, d2f));
        }
    }

    /// Records the edge `(d1, succ, d)` — fact `d` (value `df`), an
    /// output of the popped node `(n, d2)`'s local flow — and walks on:
    /// while the statement reached certainly passes `df` on unchanged
    /// and does nothing else ([`Self::fw_walks_through`]), its
    /// successors get the edge too, recorded without being queued, so
    /// the walked statements count as processed. The first statement
    /// that might touch the fact gets its edge queued and is processed
    /// as usual. The budget is checked as each edge is recorded: once
    /// over it, the edge in hand is queued and the walk stops.
    ///
    /// A statement that passes and falls through to the next one alone
    /// starts a jump: the edges up to the next statement that might
    /// touch `df` ([`WalkIndex::fw_stop`]), and no further than the
    /// budget allows, are recorded in one fill, and the walk goes on
    /// from the statement the fill stopped at.
    ///
    /// Only a generated fact (`d` ≠ `d2`) offers its first step's
    /// origin; every step of an identity flow is left for
    /// [`Self::identity_origins`] to rebuild. A walk never leaves `n`'s
    /// method and keeps its fact, so it looks the body and the path-edge
    /// row up once and steps by statement index.
    fn fw_walk(&mut self, d1: FactId, (n, d2): Node, (succ, d): Node, df: &Fact) {
        let budget = self.config().max_propagations;
        let m = n.method;
        let body = self.body(m);
        let row = self.fw.row(m, d);
        let at = |idx| StmtRef::new(m, idx);
        let mut stack = std::mem::take(&mut self.buf.walk);
        if d2 == d {
            stack.push((succ.idx, n.idx));
        } else {
            self.record_pred(succ, d, Some((n, d2)));
            stack.push((succ.idx, OFFERED));
        }
        while let Some((idx, from)) = stack.pop() {
            let s = at(idx);
            if from != OFFERED {
                self.note_offer((s, d), Some((at(from), d)));
            }
            if !self.fw.insert_in(row, idx, d1) {
                continue;
            }
            let count = self.fw.propagation_count();
            if budget > 0 && count > budget {
                self.fw.enqueue(d1, s, d);
                // Each dropped step leaves a walked statement whose edge
                // is never recorded. Its offer is still noted:
                // `identity_origins` rebuilds it should the target node
                // be recorded from elsewhere.
                for (idx, from) in stack.drain(..) {
                    self.note_offer((at(idx), d), Some((at(from), d)));
                }
                break;
            }
            self.walk_checks += 1;
            if !self.fw_walks_through(body, s, df) {
                self.fw.enqueue(d1, s, d);
                continue;
            }
            let succs = body.cfg().succs(idx);
            if succs != [idx + 1] {
                stack.extend(succs.iter().map(|&next| (next, idx)));
                continue;
            }
            let mut stop = self.walks.fw_stop(m, body, idx + 1, df);
            if budget > 0 {
                // Up to the budget: the edge that crosses it is the next
                // step's.
                let left = usize::try_from(budget - count).unwrap_or(usize::MAX);
                stop = stop.min((idx + 1).saturating_add(left));
            }
            let next = self.fw.fill_in(row, idx + 1, stop, d1);
            for j in idx + 1..next {
                self.note_offer((at(j), d), Some((at(j - 1), d)));
            }
            stack.push((next, next - 1));
        }
        self.buf.walk = stack;
    }

    /// Whether `s`'s forward flow certainly outputs exactly `f` and does
    /// nothing else, so a walk may pass `s` without processing it
    /// ([`crate::walk::fw_walks_through`]); a call leaves an inactive
    /// taint inactive unless it reaches the method of the taint's
    /// activation statement ([`Flows::maybe_activate`]). `body` is the
    /// body of `s`'s method.
    fn fw_walks_through(&mut self, body: &Body, s: StmtRef, f: &Fact) -> bool {
        crate::walk::fw_walks_through(body.stmt(s.idx), s, f, |t| self.maybe_activate(s, t) == *t)
    }

    /// Injects an alias query for taint `g` (which holds after the heap
    /// write / wrapper call `n`) into the backward solver, with context
    /// injection of `d1` (Algorithm 1, line 16).
    fn inject_alias_query(&mut self, d1: &FactId, n: StmtRef, g: &Taint) {
        let Some(q) = self.flows.alias_query_taint(n, g) else { return };
        let ctx = if self.config().enable_context_injection { *d1 } else { FactId::ZERO };
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
        let mut outs = std::mem::take(&mut self.buf.outs);
        self.local_flow(n, d2f, &mut outs);
        let res = std::mem::take(&mut self.buf.assign);
        for g in &res.alias_gens {
            self.inject_alias_query(d1, n, g);
        }
        self.buf.assign = res;
        // Activation and interning depend only on `n`, so key each
        // output fact once and fan the keys out to all successors.
        let mut keys = std::mem::take(&mut self.buf.keys);
        self.output_keys(&outs, *d2, d2f, &mut keys);
        for succ in self.flows.icfg.succs_of(n) {
            for (&k, kf) in keys.iter().zip(&outs) {
                self.fw_walk(*d1, (n, *d2), (succ, k), kf);
            }
        }
        self.buf.keys = keys;
        self.buf.outs = outs;
    }

    fn forward_call(&mut self, n: StmtRef, d2: &FactId, d2f: &Fact) {
        let Stmt::Invoke { call, .. } = self.stmt(n) else { return };
        let mut entries = std::mem::take(&mut self.buf.entries);
        for &callee in self.flows.icfg.callees_of_call(n) {
            self.flows.call_flow(call, callee, d2f, &mut entries);
            for (d3f, src_mark) in &entries {
                let d3 = self.key_of(d3f, *d2, d2f);
                self.fw.add_incoming(callee, d3, n, *d2);
                for sp in self.flows.icfg.start_points_of(callee) {
                    self.fw_propagate(d3, sp, d3, Some((n, *d2)));
                    if let Some(src) = src_mark {
                        self.mark_source(sp, &d3, *src);
                    }
                }
                // Apply existing summaries (recorded *after* the
                // incoming context above: an exit reached later sees
                // the context, an earlier one left its summary here).
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
                    self.fw_propagate(*d3, ret_site, *fk, Some((exit, *exit_key)));
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
        let mut outs = std::mem::take(&mut self.buf.outs);
        self.local_flow(n, d2f, &mut outs);
        let ctr = std::mem::take(&mut self.buf.ctr);
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
        self.output_keys(&outs, *d2, d2f, &mut keys);
        for ret_site in self.flows.icfg.return_sites_of_call(n) {
            for (&k, kf) in keys.iter().zip(&outs) {
                if ctr.src_mark && k != FactId::ZERO {
                    self.mark_source(ret_site, &k, n);
                }
                self.fw_walk(*d1, (n, *d2), (ret_site, k), kf);
            }
        }
        self.buf.keys = keys;
        self.buf.outs = outs;
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
                self.bw_to_preds(&d1, n, &d2, &d2f);
            }
        }
    }

    /// Routes a backward fact above `n`: to `n`'s predecessors, or —
    /// when `n` has none (it is the method's first statement) — through
    /// the method-start case of Algorithm 2 (lines 11–14): install a
    /// summary, hand the fact to the forward solver (with the backward
    /// solver's calling contexts, so returns stay realizable), and
    /// stop; the backward analysis never returns into callers itself.
    /// `df` is `d`'s value.
    fn bw_to_preds(&mut self, d1: &FactId, n: StmtRef, d: &FactId, df: &Fact) {
        self.bw_to_preds_from(d1, n, d, df, (n, *d));
    }

    /// [`Self::bw_to_preds`] for a fact `d` that `n`'s backward flow
    /// produced from the popped node `origin`.
    fn bw_to_preds_from(&mut self, d1: &FactId, n: StmtRef, d: &FactId, df: &Fact, origin: Node) {
        let preds = self.flows.icfg.preds_of(n);
        if preds.len() == 0 {
            let m = self.flows.icfg.method_of(n);
            let sp = StmtRef::new(m, 0);
            self.bw.install_summary(m, *d1, sp, *d);
            self.fw_propagate(*d1, sp, *d, Some(origin));
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
        self.bw_walk(*d1, origin, (n, *d), df);
    }

    /// Records the backward edges `(d1, p, d)` for each predecessor `p`
    /// of `n` — fact `d` (value `df`) flowing above `n` out of the node
    /// `origin` — and walks on upward like [`Self::fw_walk`], through
    /// the statements [`bw_walks_through`] admits, jumping up to
    /// [`WalkIndex::bw_stop`] from a statement whose one predecessor is
    /// the statement before it. Backward edges do not count against the
    /// budget.
    fn bw_walk(&mut self, d1: FactId, origin: Node, (n, d): Node, df: &Fact) {
        let m = n.method;
        let body = self.body(m);
        let row = self.bw.row(m, d);
        let at = |idx| StmtRef::new(m, idx);
        let identity = origin == (n, d);
        let mut stack = std::mem::take(&mut self.buf.walk);
        for &p in body.cfg().preds(n.idx) {
            if identity {
                stack.push((p, n.idx));
            } else {
                self.record_pred(at(p), d, Some(origin));
                stack.push((p, OFFERED));
            }
        }
        while let Some((idx, from)) = stack.pop() {
            let s = at(idx);
            if from != OFFERED {
                self.note_offer((s, d), Some((at(from), d)));
            }
            if !self.bw.insert_in(row, idx, d1) {
                continue;
            }
            self.walk_checks += 1;
            if !bw_walks_through(body, idx, df) {
                self.bw.enqueue(d1, s, d);
                continue;
            }
            let preds = body.cfg().preds(idx);
            if idx == 0 || preds != [idx - 1] {
                stack.extend(preds.iter().map(|&p| (p, idx)));
                continue;
            }
            let stop = self.walks.bw_stop(m, body, idx - 1, df);
            let next = self.bw.fill_in(row, idx - 1, stop, d1);
            for j in next + 1..idx {
                self.note_offer((at(j), d), Some((at(j + 1), d)));
            }
            stack.push((next, next + 1));
        }
        self.buf.walk = stack;
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
        let origin = (n, *d2);
        for g in &res.back {
            let gf = Fact::T(*g);
            let k = self.key_of(&gf, *d2, d2f);
            self.bw_to_preds_from(d1, n, &k, &gf, origin);
        }
        for g in &res.fwd_at_n {
            let k = self.interner.intern_fact(&Fact::T(*g));
            self.fw_propagate(*d1, n, k, Some(origin));
        }
        for g in &res.fwd_after {
            let k = self.interner.intern_fact(&Fact::T(*g));
            for succ in self.flows.icfg.succs_of(n) {
                self.fw_propagate(*d1, succ, k, Some(origin));
            }
        }
        self.buf.back = res;
    }

    fn backward_call(&mut self, d1: &FactId, n: StmtRef, d2: &FactId, d2f: &Fact) {
        let Stmt::Invoke { result, call } = self.stmt(n) else { return };
        let result = *result;
        let Fact::T(t) = d2f else { return };
        // Pass over the call unless the traced value is its result.
        if !rooted_at_result(result, t) {
            self.bw_to_preds(d1, n, d2, d2f);
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
            forward_pops: self.fw.pop_count(),
            backward_pops: self.bw.pop_count(),
            walk_checks: self.walk_checks,
            row_slots: self.fw.row_slots() + self.bw.row_slots(),
            flow_reevaluations: self.flow_reevaluations,
            reachable_methods: self.flows.icfg.callgraph().reachable_methods().len(),
            distinct_facts: self.interner.fact_count(),
            distinct_aps: self.interner.ap_count(),
            duration,
            results: std::time::Duration::ZERO,
            aborted: self.abort_reason.is_some(),
            abort_reason: self.abort_reason,
            fact_tables,
            provenance_nodes: self.preds.heads.len(),
        }
    }

    /// Appends the origins of `(m, f)` that propagation left unrecorded.
    /// Forward, every `(p, f)` where `p` is an intraprocedural
    /// predecessor of `m` other than `m` itself, the forward solver
    /// processed `(p, f)`, `p` is not an exit, and `p`'s local flow
    /// ([`Self::local_flow`]) outputs `f` itself. Backward, every
    /// `(s, f)` where `s` is an intraprocedural successor of `m` other
    /// than `m` itself, the backward solver processed `(s, f)`, and `s`'s
    /// backward flow ([`Self::bw_passes`]) sends `f` on unchanged. These
    /// are exactly the links processing `(p, f)` or `(s, f)` would have
    /// offered had identity flows recorded, so the origin set is the
    /// same either way.
    ///
    /// A statement a walk may pass with the fact
    /// ([`Self::fw_walks_through`], [`bw_walks_through`]) passes it on
    /// unchanged, so the flow is re-run only where the walk predicate
    /// says no; each re-run counts in `flow_reevaluations`.
    fn identity_origins(&mut self, (m, f): Node, origins: &mut Vec<Node>) {
        let ff = self.interner.resolve_fact(f);
        let body = self.body(m.method);
        let mut outs = std::mem::take(&mut self.buf.outs);
        for p in self.flows.icfg.preds_of(m) {
            if p == m
                || !self.fw.has_node(p, &f)
                || self.fw_unprocessed.contains(&(p, f))
                || self.stmt(p).is_exit()
            {
                continue;
            }
            if !self.fw_walks_through(body, p, &ff) {
                self.flow_reevaluations += 1;
                self.local_flow(p, &ff, &mut outs);
                if !outs.contains(&ff) {
                    continue;
                }
            }
            origins.push((p, f));
        }
        self.buf.outs = outs;
        for s in self.flows.icfg.succs_of(m) {
            if s == m || !self.bw.has_node(s, &f) || self.bw_unprocessed.contains(&(s, f)) {
                continue;
            }
            if !bw_walks_through(body, s.idx, &ff) {
                self.flow_reevaluations += 1;
                if !self.bw_passes(s, &ff) {
                    continue;
                }
            }
            origins.push((s, f));
        }
    }

    /// Whether `s`'s backward flow ([`Self::process_backward`]) sends
    /// the fact `sf` on to `s`'s predecessors unchanged: a call passes a
    /// taint not rooted at its result, an assignment one its
    /// [`Flows::backward_assign`] keeps, and every other statement
    /// anything.
    fn bw_passes(&mut self, s: StmtRef, sf: &Fact) -> bool {
        match (self.stmt(s), sf) {
            (Stmt::Invoke { result, .. }, Fact::T(t)) => !rooted_at_result(*result, t),
            (Stmt::Assign { lhs, rhs }, Fact::T(t)) => {
                let mut res = std::mem::take(&mut self.buf.back);
                self.flows.backward_assign(t, lhs, rhs, &mut res);
                let passes = res.back.contains(t);
                self.buf.back = res;
                passes
            }
            (Stmt::Invoke { .. } | Stmt::Assign { .. }, Fact::Zero) => false,
            _ => true,
        }
    }

    /// Walks the provenance graph back from a leak to the source that
    /// generated the taint.
    ///
    /// Breadth-first search with the origin sets — recorded ones plus
    /// the rebuilt identity origins — expanded in (statement, fact
    /// *value*) order: the provenance graph is order-independent (see
    /// [`BiSolver::record_pred`]), so the first generating source
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
            self.identity_origins(cur, &mut origins);
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

/// Whether the backward taint `t` at a call with result local `result`
/// traces that result: the search then only descends into the callees.
fn rooted_at_result(result: Option<Local>, t: &Taint) -> bool {
    result.is_some() && t.ap.base_local() == result
}

/// The nodes of `tab` every path edge of which is still queued. Only
/// an aborted run has any.
fn unprocessed_nodes(tab: &Tabulator<FactId>) -> FxHashSet<Node> {
    let mut queued: FxHashMap<Node, usize> = FxHashMap::default();
    for e in tab.queued() {
        *queued.entry((e.n, e.d2)).or_default() += 1;
    }
    queued
        .into_iter()
        .filter(|&((n, d2), count)| tab.d1s_at(n, &d2).len() == count)
        .map(|(node, _)| node)
        .collect()
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

    const ENV: &str = r#"
class Env {
  static native method source() -> java.lang.String
  static native method sink(s: java.lang.String) -> void
}
"#;

    const DEFS: &str = "\
<Env: java.lang.String source()> -> _SOURCE_\n\
<Env: void sink(java.lang.String)> -> _SINK_\n";

    /// `tests/report_format.rs`'s branchy alias program: a heap field
    /// written through either of two aliases on two branches.
    const BRANCHY_ALIAS: &str = r#"
class Box { field f: java.lang.String }
class A {
  static method main() -> void {
    let x: Box
    let a: Box
    let t: java.lang.String
    let u: java.lang.String
    let i: int
    x = new Box
    a = x
    t = staticinvoke <Env: java.lang.String source()>()
    i = 0
    if i >= 1 goto other
    x.f = t
    goto join
  label other:
    a.f = t
  label join:
    u = a.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;

    /// Two stores, each right after a branch that redefines the stored
    /// object's local on one side — by a call's result, then by a copy.
    /// The alias search from each store passes the other side up to the
    /// branch, a node the leak's path visits, and stops at the
    /// redefinition.
    const REDEFINED_ON_A_BRANCH: &str = r#"
class Box { field f: java.lang.String }
class Mk { static native method make() -> Box }
class R {
  static method main() -> void {
    let x: Box
    let a: Box
    let v: Box
    let b: Box
    let y: Box
    let t: java.lang.String
    let u: java.lang.String
    let i: int
    x = new Box
    a = x
    v = new Box
    b = v
    y = new Box
    t = staticinvoke <Env: java.lang.String source()>()
    i = 0
    if i >= 1 goto one
    x = staticinvoke <Mk: Box make()>()
  label one:
    x.f = t
    u = a.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    if i >= 2 goto two
    v = y
  label two:
    v.f = t
    u = b.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;

    /// A heap write in a method that a call in its own body reaches
    /// again (`fill` → `spin` → `fill`). The alias `a.f` found from the
    /// write `x.f = t` is inactive until that write, and the call to
    /// `spin` above the write activates it: the write sits in one of the
    /// call's callees, though the call mentions neither `a` nor `x`.
    const ACTIVATING_CALL: &str = r#"
class Box { field f: java.lang.String }
class P {
  static method main() -> void {
    let b: Box
    b = new Box
    staticinvoke <P: void fill(Box)>(b)
    return
  }
  static method spin() -> void {
    let y: Box
    y = new Box
    staticinvoke <P: void fill(Box)>(y)
    return
  }
  static method fill(x: Box) -> void {
    let a: Box
    let t: java.lang.String
    let u: java.lang.String
    let i: int
    a = x
    i = 0
    if i >= 1 goto skip
    staticinvoke <P: void spin()>()
  label skip:
    t = staticinvoke <Env: java.lang.String source()>()
    x.f = t
    u = a.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;

    /// A heap chain of `k` links: every box `x_i` is allocated and
    /// aliased (`a_i = x_i`) up front, then `x_i.f = t_i; t_{i+1} =
    /// a_i.f` runs down the chain, so every store starts a backward
    /// alias search past all the allocations. With `ticks`, a call to
    /// the empty `H.tick()` follows each link: a call-dense program
    /// whose calls touch no taint.
    fn heap_chain(k: usize, ticks: bool) -> String {
        use std::fmt::Write;
        let mut code = String::from(
            "class Box {\n  field f: java.lang.String\n\
             \x20 method <init>() -> void {\n    return\n  }\n}\n\
             class H {\n  static method tick() -> void {\n    return\n  }\n\
             \x20 static method main() -> void {\n",
        );
        for i in 0..=k {
            writeln!(code, "    let t{i}: java.lang.String").unwrap();
        }
        for i in 0..k {
            writeln!(code, "    let x{i}: Box\n    let a{i}: Box").unwrap();
        }
        code.push_str("    t0 = staticinvoke <Env: java.lang.String source()>()\n");
        for i in 0..k {
            writeln!(code, "    x{i} = new Box").unwrap();
            writeln!(code, "    specialinvoke x{i}.<Box: void <init>()>()\n    a{i} = x{i}")
                .unwrap();
        }
        for i in 0..k {
            writeln!(code, "    x{i}.f = t{i}\n    t{} = a{i}.f", i + 1).unwrap();
            if ticks {
                code.push_str("    staticinvoke <H: void tick()>()\n");
            }
        }
        writeln!(code, "    staticinvoke <Env: void sink(java.lang.String)>(t{k})").unwrap();
        code.push_str("    return\n  }\n}\n");
        code
    }

    /// A program with its entry method and source/sink definitions.
    struct Case {
        name: String,
        program: Program,
        entry: MethodId,
        sources: SourceSinkManager,
    }

    /// A plain program entered at `class.main`, with `Env`'s source and
    /// sink.
    fn plain(name: &str, code: &str, class: &str) -> Case {
        let mut program = Program::new();
        flowdroid_android::install_platform(&mut program);
        let rt = flowdroid_frontend::layout::ResourceTable::new();
        flowdroid_frontend::parse_jasm(&mut program, &rt, ENV).unwrap();
        flowdroid_frontend::parse_jasm(&mut program, &rt, code).unwrap();
        let entry = program.find_method(class, "main").unwrap();
        let sources = SourceSinkManager::parse(DEFS).unwrap();
        Case { name: name.to_string(), program, entry, sources }
    }

    /// A generated ground-truth app, entered at its dummy main.
    fn truth_app(app: &flowdroid_truth::TruthApp) -> Case {
        let mut program = Program::new();
        let platform = flowdroid_android::install_platform(&mut program);
        let layouts: Vec<(&str, &str)> =
            app.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        let loaded =
            flowdroid_frontend::App::from_parts(&mut program, &app.manifest, &layouts, &app.code)
                .unwrap();
        let model = flowdroid_android::EntryPointModel::build(
            &mut program,
            &platform,
            &loaded,
            InfoflowConfig::default().callback_association,
        );
        let entry = flowdroid_android::generate_dummy_main(&mut program, &platform, &model, "o");
        let sources = SourceSinkManager::default_android();
        Case { name: app.name.clone(), program, entry, sources }
    }

    /// Solves `case` under a propagation budget (0: none), checks the
    /// walk predicates at every processed node ([`walk_violations`]),
    /// then walks every node reachable from a leak over the noted offers
    /// and checks that the recorded origins plus the rebuilt identity
    /// ones are exactly the noted ones. Returns (forward propagations, nodes
    /// checked, whether the run aborted).
    fn check_origins(case: &Case, max_propagations: u64) -> (u64, usize, bool) {
        let config = InfoflowConfig { max_propagations, ..InfoflowConfig::default() };
        let wrapper = TaintWrapper::default_rules();
        let cg = flowdroid_callgraph::CallGraph::build(&case.program, &[case.entry]);
        let mut s = BiSolver::new(Icfg::new(&case.program, &cg), &case.sources, &wrapper, &config);
        s.run(&[case.entry]);
        let (walkable, bad) = walk_violations(&mut s, BiSolver::fw_walks_through);
        assert!(bad.is_empty(), "{} (budget {max_propagations}): {bad:?}", case.name);
        assert!(
            walkable > 0 || max_propagations > 0,
            "{}: no processed node admits a walk",
            case.name
        );
        let mut leaks = std::mem::take(&mut s.leaks);
        leaks.sort();
        leaks.dedup();
        let mut visited = FxHashSet::default();
        let mut queue = std::collections::VecDeque::new();
        for (sink, taint) in &leaks {
            let start = (*sink, s.interner.intern_fact(&Fact::T(*taint)));
            if visited.insert(start) {
                queue.push_back(start);
            }
        }
        let mut got = Vec::new();
        while let Some(cur) = queue.pop_front() {
            got.clear();
            got.extend(s.preds.origins(cur));
            s.identity_origins(cur, &mut got);
            let got: FxHashSet<Node> = got.iter().copied().collect();
            let want = s.offers.get(&cur).cloned().unwrap_or_default();
            assert_eq!(got, want, "{} (budget {max_propagations}): origins of {cur:?}", case.name);
            for o in want {
                if visited.insert(o) {
                    queue.push_back(o);
                }
            }
        }
        (s.fw.propagation_count(), visited.len(), s.abort_reason.is_some())
    }

    /// A forward walk predicate: [`BiSolver::fw_walks_through`] or a
    /// mutant of it.
    type FwWalks<'a> = fn(&mut BiSolver<'a>, &Body, StmtRef, &Fact) -> bool;

    /// Checks the walk predicates against the flows they stand for, at
    /// every node of `s`'s forward and backward tables whose flow ran
    /// (the run's own `fw_walks_through` is replaced by `fw_walks`).
    /// Where a predicate admits a walk, the forward flow must output
    /// exactly the fact, with no alias query, leak, activation or callee
    /// entered, and the backward flow must send exactly the fact to the
    /// predecessors, with no callee descent or forward handoff. Returns
    /// how many nodes admit a walk and a description of each violation.
    fn walk_violations<'a>(s: &mut BiSolver<'a>, fw_walks: FwWalks<'a>) -> (usize, Vec<String>) {
        let (mut walkable, mut bad) = (0, Vec::new());
        let methods = s.flows.icfg.callgraph().reachable_methods();
        let facts = s.interner.fact_count();
        let mut outs = Vec::new();
        for &m in methods {
            let body = s.body(m);
            for idx in 0..body.len() {
                let n = StmtRef::new(m, idx);
                for f in (0..facts).map(FactId::from_index) {
                    let ff = s.interner.resolve_fact(f);
                    if s.fw.has_node(n, &f)
                        && !s.fw_unprocessed.contains(&(n, f))
                        && fw_walks(s, body, n, &ff)
                    {
                        walkable += 1;
                        let stmt = s.stmt(n);
                        s.local_flow(n, &ff, &mut outs);
                        let quiet = if stmt.is_call() {
                            let ctr = &s.buf.ctr;
                            ctr.leaks.is_empty()
                                && ctr.alias_gens.is_empty()
                                && !ctr.src_mark
                                && enters_no_callee(s, n, &ff)
                        } else {
                            s.buf.assign.alias_gens.is_empty()
                        };
                        if stmt.is_exit() || outs != [ff] || !quiet {
                            bad.push(format!("forward {n:?} {ff:?}: {outs:?}"));
                        }
                    }
                    if s.bw.has_node(n, &f)
                        && !s.bw_unprocessed.contains(&(n, f))
                        && bw_walks_through(body, idx, &ff)
                    {
                        walkable += 1;
                        if !bw_sends_only(s, n, &ff) {
                            bad.push(format!("backward {n:?} {ff:?}"));
                        }
                    }
                }
            }
        }
        (walkable, bad)
    }

    /// Whether forward fact `f` at the call `n` enters none of its
    /// callees ([`Flows::call_flow`] is empty for each).
    fn enters_no_callee(s: &BiSolver<'_>, n: StmtRef, f: &Fact) -> bool {
        let Stmt::Invoke { call, .. } = s.stmt(n) else { return false };
        let mut entries = Vec::new();
        s.flows.icfg.callees_of_call(n).iter().all(|&callee| {
            s.flows.call_flow(call, callee, f, &mut entries);
            entries.is_empty()
        })
    }

    /// Whether processing backward fact `f` at `n`
    /// ([`BiSolver::process_backward`]) does nothing but send `f` itself
    /// to `n`'s predecessors.
    fn bw_sends_only(s: &mut BiSolver<'_>, n: StmtRef, f: &Fact) -> bool {
        if s.flows.icfg.preds_of(n).len() == 0 {
            return false; // the method-start handoff
        }
        match (s.stmt(n), f) {
            (Stmt::Invoke { result, call }, Fact::T(t)) => {
                !rooted_at_result(*result, t)
                    && s.flows.icfg.callees_of_call(n).iter().all(|&callee| {
                        s.flows.backward_call_entries(t, *result, call, callee).is_empty()
                    })
            }
            (Stmt::Invoke { .. }, Fact::Zero) => false, // dropped at calls
            (Stmt::Assign { lhs, rhs }, Fact::T(t)) => {
                let mut res = BackwardAssignOut::default();
                s.flows.backward_assign(t, lhs, rhs, &mut res);
                res.back == [*t] && res.fwd_at_n.is_empty() && res.fwd_after.is_empty()
            }
            (Stmt::Assign { .. }, Fact::Zero) => false,
            _ => true,
        }
    }

    /// A walk through an activation statement would skip the
    /// activation: the check catches a forward predicate that allows it.
    #[test]
    fn walk_check_catches_a_walk_through_an_activation_statement() {
        fn ignores_activation(s: &mut BiSolver<'_>, body: &Body, n: StmtRef, f: &Fact) -> bool {
            match f {
                Fact::T(t) => s.fw_walks_through(body, n, &Fact::T(t.activated())),
                Fact::Zero => s.fw_walks_through(body, n, f),
            }
        }
        let case = plain("heap chain", &heap_chain(6, false), "H");
        let config = InfoflowConfig::default();
        let wrapper = TaintWrapper::default_rules();
        let cg = flowdroid_callgraph::CallGraph::build(&case.program, &[case.entry]);
        let mut s = BiSolver::new(Icfg::new(&case.program, &cg), &case.sources, &wrapper, &config);
        s.run(&[case.entry]);
        let (_, bad) = walk_violations(&mut s, BiSolver::fw_walks_through);
        assert!(bad.is_empty(), "{bad:?}");
        let (_, bad) = walk_violations(&mut s, ignores_activation);
        assert!(!bad.is_empty(), "the mutant predicate went unnoticed");
    }

    /// A walk through a call that reaches an inactive taint's activation
    /// statement would skip the activation: the check catches a forward
    /// predicate that judges calls by the activation statement alone.
    #[test]
    fn walk_check_catches_a_walk_through_an_activating_call() {
        fn ignores_call_reach(s: &mut BiSolver<'_>, body: &Body, n: StmtRef, f: &Fact) -> bool {
            match f {
                Fact::T(t) if !t.active && t.activation != Some(n) => {
                    s.fw_walks_through(body, n, &Fact::T(t.activated()))
                }
                _ => s.fw_walks_through(body, n, f),
            }
        }
        let case = plain("activating call", ACTIVATING_CALL, "P");
        let config = InfoflowConfig::default();
        let wrapper = TaintWrapper::default_rules();
        let cg = flowdroid_callgraph::CallGraph::build(&case.program, &[case.entry]);
        let mut s = BiSolver::new(Icfg::new(&case.program, &cg), &case.sources, &wrapper, &config);
        s.run(&[case.entry]);
        assert!(!s.leaks.is_empty(), "the alias reaches the sink");
        let (_, bad) = walk_violations(&mut s, BiSolver::fw_walks_through);
        assert!(bad.is_empty(), "{bad:?}");
        let (_, bad) = walk_violations(&mut s, ignores_call_reach);
        assert!(!bad.is_empty(), "the mutant predicate went unnoticed");
    }

    /// Identity flows record no provenance; attribution rebuilds them.
    /// Recorded plus rebuilt origins must equal every offer made, identity
    /// ones included, at each node attribution can reach — on complete
    /// runs and on runs aborted at every stage of the search, where
    /// nodes still queued must not count as processed. The same runs
    /// check the walk predicates.
    #[test]
    fn rebuilt_origins_equal_every_offer() {
        let mut cases = vec![
            plain("heap chain", &heap_chain(6, false), "H"),
            plain("ticking heap chain", &heap_chain(6, true), "H"),
            plain("branchy alias", BRANCHY_ALIAS, "A"),
            plain("redefined on a branch", REDEFINED_ON_A_BRANCH, "R"),
            plain("activating call", ACTIVATING_CALL, "P"),
        ];
        for app in flowdroid_truth::generate_corpus(41, 3) {
            if matches!(app.category, "alias" | "widening") {
                cases.push(truth_app(&app));
            }
        }
        let (mut runs, mut nodes, mut aborted) = (0, 0, 0);
        for case in &cases {
            let (props, n, _) = check_origins(case, 0);
            nodes += n;
            runs += 1;
            for budget in (1..props).step_by((props / 40).max(1) as usize) {
                let (_, n, a) = check_origins(case, budget);
                nodes += n;
                runs += 1;
                aborted += usize::from(a);
            }
        }
        eprintln!("{runs} runs ({aborted} aborted), {nodes} nodes checked");
        assert!(aborted * 2 >= runs, "{aborted} of {runs} runs aborted");
        assert!(nodes > 1_000, "only {nodes} nodes checked");
    }
}
