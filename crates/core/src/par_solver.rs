//! The parallel bidirectional taint engine.
//!
//! Runs the forward taint propagation and the on-demand backward alias
//! search of [`BiSolver`](crate::solver::BiSolver) as *interleaved jobs*
//! over a [`WorkStealScheduler`]: every pending path edge — forward or
//! backward — is one job, sharded by the method of its target statement
//! so a method's edges cluster on one queue (and its CFG / fact data
//! stays cache-warm on one worker) while idle workers steal batches
//! from other shards. Each direction keeps its tables in a
//! [`ConcurrentTabulator`].
//!
//! Results are **bit-identical** to the sequential solver at any worker
//! count, by construction rather than by locking the whole fixpoint:
//!
//! * the transfer functions ([`Flows`]) are pure and shared with the
//!   sequential engine, so a given edge produces the same successor
//!   edges wherever it is processed;
//! * every cross-table handshake (summaries × incoming contexts,
//!   forward × backward caller facts) first records its own half and
//!   then reads the other's — with each table shard a mutex, the
//!   release/acquire ordering guarantees at most one side of a racing
//!   pair misses the other, and that side is covered by its partner;
//!   hence the computed fixpoint is the unique one, independent of
//!   interleaving;
//! * provenance keeps the *set* of all offered predecessor links (the
//!   same set in any order, since every edge is processed exactly once)
//!   and leak attribution runs the same deterministic breadth-first
//!   search as the sequential engine over it;
//! * recorded leaks are canonically sorted before deduplication.
//!
//! Worker-private state is limited to what never influences results: a
//! memoized reachability cache over the immutable call graph, a leak
//! buffer merged (and canonicalized) at the end, and a local job buffer
//! — discoveries are processed worker-locally (LIFO, cache-warm) and
//! only the surplus beyond [`SPILL`] is published to the scheduler for
//! stealing, so the shared queues see batch traffic instead of every
//! single edge. Claimed batches stay counted as in-flight until the
//! local buffer drains, which keeps the scheduler's termination
//! detection exact.

use crate::config::InfoflowConfig;
use crate::flows::{BackwardAssignOut, CallToReturnOut, Flows, ForwardAssignOut, ReachCache};
use crate::intern::SharedInternedKeys;
use crate::results::{InfoflowResults, Leak};
use crate::sourcesink::SourceSinkManager;
use crate::summary_cache::SummaryCacheSession;
use crate::taint::{Fact, Taint};
use crate::wrappers::TaintWrapper;
use flowdroid_callgraph::Icfg;
use flowdroid_ifds::{
    drive, AbortHandle, AbortReason, ConcurrentTabulator, WorkStealScheduler, WorkerState,
    DEFAULT_BATCH, DEFAULT_SHARDS,
};
use flowdroid_ir::{fxhash64, FxHashMap, MethodId, Stmt, StmtRef};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Propagation direction of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Fw,
    Bw,
}

/// One pending path edge: direction, context fact `d1`, statement `n`,
/// fact `d2`.
type Job = (Dir, Fact, StmtRef, Fact);

/// Number of provenance shards (power of two).
const PROV_SHARDS: usize = 16;

/// Local-buffer high-water mark: a worker holding more pending jobs
/// than this publishes the oldest ones to the scheduler so idle workers
/// can steal them.
const SPILL: usize = 64;

/// How many jobs a worker processes between abort-budget checks.
const BUDGET_CHECK_EVERY: usize = 128;

/// One shard of the provenance tables, keyed by `(statement, fact)`
/// (each key lives in exactly one shard).
#[derive(Default)]
struct ProvShard {
    preds: FxHashMap<(StmtRef, Fact), Vec<(StmtRef, Fact)>>,
    gen_source: FxHashMap<(StmtRef, Fact), StmtRef>,
}

/// Worker-private state: never observable in the results.
#[derive(Default)]
struct WorkerCtx {
    reach_cache: ReachCache,
    leaks: Vec<(StmtRef, Taint)>,
    /// Discovered-but-unprocessed jobs, drained LIFO before the claimed
    /// batch is retired (which results in the same fixpoint — edge
    /// processing is order-independent, see the module docs).
    pending: Vec<Job>,
    /// Jobs processed since the last abort-budget check.
    since_check: usize,
}

impl WorkerState<Job> for WorkerCtx {
    fn pending(&mut self) -> &mut Vec<Job> {
        &mut self.pending
    }
}

/// The parallel engine. Public API mirrors
/// [`BiSolver`](crate::solver::BiSolver).
///
/// The engine itself speaks [`Fact`]s (jobs, transfer functions,
/// provenance); its tabulators key their bitset tables on [`FactId`]s
/// from one shared interner ([`SharedInternedKeys`]).
///
/// [`FactId`]: crate::intern::FactId
pub(crate) struct ParBiSolver<'a> {
    flows: Flows<'a>,
    threads: usize,
    fw: ConcurrentTabulator<Fact, SharedInternedKeys>,
    bw: ConcurrentTabulator<Fact, SharedInternedKeys>,
    sched: WorkStealScheduler<Job>,
    prov: Vec<Mutex<ProvShard>>,
    /// Persistent end-summary store session, when configured.
    cache: Option<SummaryCacheSession>,
    /// Leaks recorded so far across all workers. The leak buffers
    /// themselves stay worker-private until the final merge; this
    /// counter exists only so streamed progress events can report a
    /// running total. Never read by the fixpoint.
    leak_count: AtomicU64,
    /// Cooperative abort token: the caller's
    /// ([`InfoflowConfig::abort`]) when configured, else a private one
    /// that only the propagation budget can trip.
    abort: AbortHandle,
}

impl<'a> ParBiSolver<'a> {
    /// Creates an engine with `config.taint_threads` workers (at least
    /// 1). Both directions share one interner, so forward and backward
    /// tables agree on keys.
    pub fn new(
        icfg: Icfg<'a>,
        sources: &'a SourceSinkManager,
        wrapper: &'a TaintWrapper,
        config: &'a InfoflowConfig,
    ) -> Self {
        let flows = Flows::new(icfg, sources, wrapper, config);
        let cache = SummaryCacheSession::open(&flows, sources, wrapper);
        let keys = SharedInternedKeys::new(config.max_access_path_length);
        ParBiSolver {
            flows,
            threads: config.taint_threads.max(1),
            fw: ConcurrentTabulator::with_domain(keys.clone()),
            bw: ConcurrentTabulator::with_domain(keys),
            sched: WorkStealScheduler::new(DEFAULT_SHARDS, DEFAULT_BATCH),
            prov: (0..PROV_SHARDS).map(|_| Mutex::new(ProvShard::default())).collect(),
            cache,
            leak_count: AtomicU64::new(0),
            abort: config.abort.clone().unwrap_or_default(),
        }
    }

    fn config(&self) -> &'a InfoflowConfig {
        self.flows.config
    }

    fn stmt(&self, n: StmtRef) -> &'a Stmt {
        self.flows.stmt(n)
    }

    /// Delivers a progress snapshot to the configured sink, if any.
    /// Counter reads are relaxed: events are advisory snapshots, not
    /// synchronization points.
    fn emit_progress(&self, new_leak: Option<(u32, String)>) {
        let Some(sink) = &self.config().progress else { return };
        sink.emit(&crate::config::ProgressEvent {
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            bodies_materialized: self.flows.program().bodies_materialized(),
            summary_hits: self.cache.as_ref().map_or(0, |c| c.hits_so_far()),
            leaks: self.leak_count.load(Ordering::Relaxed),
            new_leak,
        });
    }

    /// Runs the analysis from the given entry methods and collects
    /// results.
    pub fn solve(self, entry_points: &[MethodId]) -> InfoflowResults {
        let start = std::time::Instant::now();
        let mut seeds = WorkerCtx::default();
        for &ep in entry_points {
            for sp in self.flows.icfg.start_points_of(ep) {
                self.fw_propagate(&mut seeds, Fact::Zero, sp, Fact::Zero, None);
            }
        }
        self.publish(&mut seeds.pending, 0);
        // The shared drive harness owns the claim/drain/spill loop,
        // including the adaptive spill threshold that publishes more
        // aggressively when workers sit idle.
        let max = self.config().max_propagations;
        let workers = drive(
            &self.sched,
            self.threads,
            SPILL,
            Some(&self.abort),
            |_| WorkerCtx::default(),
            |job: &Job| self.sched.shard_for(&job.2.method),
            |ctx, (dir, d1, n, d2)| {
                ctx.since_check += 1;
                if ctx.since_check >= BUDGET_CHECK_EVERY {
                    ctx.since_check = 0;
                    // Streaming piggybacks on the budget-poll interval:
                    // the sink only observes, so streamed runs compute
                    // the same fixpoint.
                    self.emit_progress(None);
                    if max > 0 && self.fw.propagation_count() > max {
                        // Budget exhausted: stop every worker; reported
                        // leaks are a lower bound. (Deadline and cancel
                        // checks live in the drive loop itself.)
                        self.abort.trip(AbortReason::Budget);
                        return false;
                    }
                }
                match dir {
                    Dir::Fw => self.process_forward(ctx, d1, n, d2),
                    Dir::Bw => self.process_backward(ctx, d1, n, d2),
                }
                true
            },
        );
        // Merge worker leak buffers in worker-index order (canonical
        // sorting below removes any remaining order dependence).
        let mut leaks = Vec::new();
        for mut w in workers {
            leaks.append(&mut w.leaks);
        }
        self.collect_results(leaks, start.elapsed())
    }

    /// Moves all but the newest `keep` jobs of `pending` onto the
    /// shared scheduler, sharded by the target statement's method.
    fn publish(&self, pending: &mut Vec<Job>, keep: usize) {
        for job in pending.drain(..pending.len() - keep) {
            self.sched.push(self.sched.shard_for(&job.2.method), job);
        }
    }

    // ================= shared helpers =================

    fn prov_shard(&self, n: StmtRef) -> &Mutex<ProvShard> {
        let h = fxhash64(&n) as usize;
        &self.prov[(h >> (64 - PROV_SHARDS.trailing_zeros())) & (PROV_SHARDS - 1)]
    }

    fn fw_propagate(
        &self,
        ctx: &mut WorkerCtx,
        d1: Fact,
        n: StmtRef,
        d2: Fact,
        from: Option<(StmtRef, Fact)>,
    ) {
        self.record_pred(n, d2, from);
        if self.fw.record_edge(&d1, n, &d2) {
            ctx.pending.push((Dir::Fw, d1, n, d2));
        }
    }

    fn bw_propagate(
        &self,
        ctx: &mut WorkerCtx,
        d1: Fact,
        n: StmtRef,
        d2: Fact,
        from: Option<(StmtRef, Fact)>,
    ) {
        self.record_pred(n, d2, from);
        if self.bw.record_edge(&d1, n, &d2) {
            ctx.pending.push((Dir::Bw, d1, n, d2));
        }
    }

    /// Offers a provenance link for `(n, d2)`; all distinct origins are
    /// kept (see the sequential engine for the order-independence
    /// argument).
    fn record_pred(&self, n: StmtRef, d2: Fact, from: Option<(StmtRef, Fact)>) {
        if !self.config().track_paths {
            return;
        }
        let Some(origin) = from else { return };
        if origin == (n, d2) {
            return;
        }
        let mut shard = self.prov_shard(n).lock().unwrap();
        let v = shard.preds.entry((n, d2)).or_default();
        if !v.contains(&origin) {
            v.push(origin);
        }
    }

    /// Marks `fact` at `n` as generated by `src` (least source wins).
    fn mark_source(&self, n: StmtRef, fact: Fact, src: StmtRef) {
        if self.config().track_paths {
            let mut shard = self.prov_shard(n).lock().unwrap();
            let e = shard.gen_source.entry((n, fact)).or_insert(src);
            if src < *e {
                *e = src;
            }
        }
    }

    fn maybe_activate(&self, ctx: &mut WorkerCtx, n: StmtRef, t: &Taint) -> Taint {
        self.flows.maybe_activate(&mut ctx.reach_cache, n, t)
    }

    /// Injects an alias query for taint `g` into the backward solver,
    /// with context injection of `d1` (Algorithm 1, line 16).
    fn inject_alias_query(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, g: &Taint) {
        let Some(q) = self.flows.alias_query_taint(n, g) else { return };
        let d1 = if self.config().enable_context_injection { d1 } else { Fact::Zero };
        self.bw_propagate(ctx, d1, n, Fact::T(q), Some((n, Fact::T(*g))));
    }

    // ================= forward solver =================

    fn process_forward(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d2: Fact) {
        let stmt = self.stmt(n);
        let has_body_callees = !self.flows.icfg.callees_of_call(n).is_empty();
        if stmt.is_call() && has_body_callees {
            self.forward_call(ctx, n, d2);
            self.forward_call_to_return(ctx, d1, n, d2);
        } else if stmt.is_call() {
            self.forward_call_to_return(ctx, d1, n, d2);
        } else if stmt.is_exit() {
            self.forward_exit(ctx, d1, n, d2);
        } else {
            self.forward_normal(ctx, d1, n, d2);
        }
    }

    fn forward_normal(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d2: Fact) {
        let out = match (self.stmt(n), &d2) {
            (Stmt::Assign { lhs, rhs }, Fact::T(t)) => {
                let mut res = ForwardAssignOut::default();
                self.flows.forward_assign(lhs, rhs, t, &mut res);
                for g in res.alias_gens {
                    self.inject_alias_query(ctx, d1, n, &g);
                }
                res.facts
            }
            _ => vec![d2],
        };
        // Activation depends only on `n`; compute each output fact once
        // and fan out to all successors.
        let mut keys = Vec::with_capacity(out.len());
        for f in &out {
            keys.push(match f {
                Fact::T(t) => Fact::T(self.maybe_activate(ctx, n, t)),
                z => *z,
            });
        }
        let origin = Some((n, d2));
        for succ in self.flows.icfg.succs_of(n) {
            for k in &keys {
                self.fw_propagate(ctx, d1, succ, *k, origin);
            }
        }
    }

    fn forward_call(&self, ctx: &mut WorkerCtx, n: StmtRef, d2: Fact) {
        let Stmt::Invoke { call, .. } = self.stmt(n) else { return };
        for &callee in self.flows.icfg.callees_of_call(n) {
            let starts = self.flows.icfg.start_points_of(callee);
            let mut entry_facts = Vec::new();
            self.flows.call_flow(call, callee, &d2, &mut entry_facts);
            for (d3, src_mark) in entry_facts {
                self.fw.add_incoming(callee, &d3, n, &d2);
                if let Some(cached) = self.cache.as_ref().and_then(|c| c.lookup(callee, &d3)) {
                    // Persisted summaries replace tabulating the callee
                    // body. Every racing call site installs the same
                    // cached exits itself before reading them back
                    // below, so no hit depends on another site's
                    // install.
                    for &(exit, ef) in cached {
                        self.fw.install_summary(callee, &d3, exit, &ef);
                        self.record_pred(exit, ef, Some((n, d2)));
                    }
                } else {
                    for sp in starts.clone() {
                        self.fw_propagate(ctx, d3, sp, d3, Some((n, d2)));
                        if let Some(src) = src_mark {
                            self.mark_source(sp, d3, src);
                        }
                    }
                }
                // Apply existing summaries (read *after* the incoming
                // context above: a concurrent exit either sees the
                // context or its summary is visible here).
                for (exit, d4) in self.fw.summaries_for(callee, &d3) {
                    self.apply_return_for_context(ctx, n, callee, exit, d4, d2);
                }
            }
        }
    }

    fn forward_exit(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d2: Fact) {
        let callee = self.flows.icfg.method_of(n);
        self.fw.install_summary(callee, &d1, n, &d2);
        for (call_site, d4) in self.fw.incoming_for(callee, &d1) {
            self.apply_return_for_context(ctx, call_site, callee, n, d2, d4);
        }
    }

    fn apply_return_for_context(
        &self,
        ctx: &mut WorkerCtx,
        call_site: StmtRef,
        callee: MethodId,
        exit: StmtRef,
        exit_fact: Fact,
        d4: Fact,
    ) {
        let mapped = self.flows.return_flow(call_site, callee, exit, &exit_fact);
        if mapped.is_empty() {
            return;
        }
        // Caller contexts: union of both solvers' path edges at the
        // call site (see the sequential engine).
        let mut d3s = self.fw.d1s_at(call_site, &d4);
        for d in self.bw.d1s_at(call_site, &d4) {
            if !d3s.contains(&d) {
                d3s.push(d);
            }
        }
        // Activation depends only on the call site; compute once per
        // mapped taint, not per (return site × context).
        let mut acts = Vec::with_capacity(mapped.len());
        for t in &mapped {
            acts.push(self.maybe_activate(ctx, call_site, t));
        }
        for ret_site in self.flows.icfg.return_sites_of_call(call_site) {
            for t in &acts {
                for &d3 in &d3s {
                    self.fw_propagate(ctx, d3, ret_site, Fact::T(*t), Some((exit, exit_fact)));
                    // Heap taints returning to the caller spawn a new
                    // alias search there (paper §4.2).
                    if !t.ap.is_empty() && t.ap.base_local().is_some() {
                        self.inject_alias_query(ctx, d3, call_site, t);
                    }
                }
            }
        }
    }

    fn forward_call_to_return(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d2: Fact) {
        let mut ctr = CallToReturnOut::default();
        self.flows.call_to_return(n, &d2, &mut ctr);
        for t in &ctr.leaks {
            ctx.leaks.push((n, *t));
            if self.config().progress.is_some() {
                self.leak_count.fetch_add(1, Ordering::Relaxed);
                let line = crate::results::line_of(self.flows.program(), n);
                let desc = t.ap.display(self.flows.program(), n.method);
                self.emit_progress(Some((line, desc)));
            }
        }
        for g in ctr.alias_gens {
            self.inject_alias_query(ctx, d1, n, &g);
        }
        let mut keys = Vec::with_capacity(ctr.out.len());
        for f in &ctr.out {
            let f = match f {
                Fact::T(t) => Fact::T(self.maybe_activate(ctx, n, t)),
                z => *z,
            };
            keys.push((f, !f.is_zero()));
        }
        let origin = Some((n, d2));
        for ret_site in self.flows.icfg.return_sites_of_call(n) {
            for (k, non_zero) in &keys {
                if ctr.src_mark && *non_zero {
                    self.mark_source(ret_site, *k, n);
                }
                self.fw_propagate(ctx, d1, ret_site, *k, origin);
            }
        }
    }

    // ================= backward (alias) solver =================

    fn process_backward(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d2: Fact) {
        match self.stmt(n) {
            Stmt::Invoke { .. } => {
                self.backward_call(ctx, d1, n, d2);
            }
            Stmt::Assign { lhs, rhs } => {
                self.backward_assign(ctx, d1, n, d2, lhs, rhs);
            }
            _ => {
                // Control flow and exits are transparent to aliasing.
                self.bw_to_preds(ctx, d1, n, d2);
            }
        }
    }

    /// Routes a backward fact above `n`; at the method start, hands the
    /// search to the forward solver with the backward calling contexts
    /// (Algorithm 2, lines 11–14).
    fn bw_to_preds(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d: Fact) {
        self.bw_to_preds_from(ctx, d1, n, d, Some((n, d)));
    }

    fn bw_to_preds_from(
        &self,
        ctx: &mut WorkerCtx,
        d1: Fact,
        n: StmtRef,
        d: Fact,
        origin: Option<(StmtRef, Fact)>,
    ) {
        let preds = self.flows.icfg.preds_of(n);
        if preds.len() == 0 {
            let m = self.flows.icfg.method_of(n);
            let sp = StmtRef::new(m, 0);
            self.bw.install_summary(m, &d1, sp, &d);
            self.fw_propagate(ctx, d1, sp, d, origin);
            let contexts = self.bw.incoming_for(m, &d1);
            if !contexts.is_empty() {
                // Register the contexts with the forward solver, then
                // apply any forward summaries already known for (m, d1).
                // Contexts recorded later are covered by the call side
                // ([`Self::backward_call`] re-injects after its
                // `add_incoming`).
                for &(site, d4) in &contexts {
                    self.fw.add_incoming(m, &d1, site, &d4);
                }
                for (exit, d2x) in self.fw.summaries_for(m, &d1) {
                    for &(site, d4) in &contexts {
                        self.apply_return_for_context(ctx, site, m, exit, d2x, d4);
                    }
                }
            }
            return;
        }
        for pred in preds {
            self.bw_propagate(ctx, d1, pred, d, origin);
        }
    }

    fn backward_assign(
        &self,
        ctx: &mut WorkerCtx,
        d1: Fact,
        n: StmtRef,
        d2: Fact,
        lhs: &flowdroid_ir::Place,
        rhs: &flowdroid_ir::Rvalue,
    ) {
        let Fact::T(t) = d2 else { return };
        let mut flows = BackwardAssignOut::default();
        self.flows.backward_assign(&t, lhs, rhs, &mut flows);
        let origin = Some((n, d2));
        for g in flows.back {
            self.bw_to_preds_from(ctx, d1, n, Fact::T(g), origin);
        }
        for g in flows.fwd_at_n {
            self.fw_propagate(ctx, d1, n, Fact::T(g), origin);
        }
        for g in flows.fwd_after {
            for succ in self.flows.icfg.succs_of(n) {
                self.fw_propagate(ctx, d1, succ, Fact::T(g), origin);
            }
        }
    }

    fn backward_call(&self, ctx: &mut WorkerCtx, d1: Fact, n: StmtRef, d2: Fact) {
        let Stmt::Invoke { result, call } = self.stmt(n) else { return };
        let result = *result;
        let Fact::T(t) = d2 else { return };
        // Pass over the call unless the traced value is its result.
        let rooted_at_result = result.is_some() && t.ap.base_local() == result;
        if !rooted_at_result {
            self.bw_to_preds(ctx, d1, n, d2);
        }
        // Descend into body-having callees (aliases may be created
        // inside).
        for &callee in self.flows.icfg.callees_of_call(n) {
            for (g, exits) in self.flows.backward_call_entries(&t, result, call, callee) {
                let gk = Fact::T(g);
                self.bw.add_incoming(callee, &gk, n, &d2);
                for exit in exits {
                    self.bw_propagate(ctx, gk, exit, gk, Some((n, d2)));
                }
                // If the backward search already reached this callee's
                // start with entry fact `g`, the forward handoff has run
                // and did not see this context: register it now and
                // apply any forward summaries (see the sequential
                // engine for the pairing argument).
                if self.bw.has_summaries(callee, &gk) {
                    self.fw.add_incoming(callee, &gk, n, &d2);
                    for (exit, d2x) in self.fw.summaries_for(callee, &gk) {
                        self.apply_return_for_context(ctx, n, callee, exit, d2x, d2);
                    }
                }
            }
        }
    }

    // ================= results =================

    fn collect_results(
        self,
        mut recorded: Vec<(StmtRef, Taint)>,
        duration: std::time::Duration,
    ) -> InfoflowResults {
        let program = self.flows.program();
        let stats = self.sched.stats();
        let abort_reason = self.abort.reason();
        let summary_cache = self.cache.as_ref().map(|c| {
            // Only a completed fixpoint is persisted — partial
            // summaries from an aborted run would be unsound to replay.
            if abort_reason.is_none() {
                c.record_all(program, self.fw.all_summaries());
            }
            c.stats()
        });
        // Merge the provenance shards (each key lives in exactly one
        // shard, so this is a disjoint union).
        let mut preds: FxHashMap<(StmtRef, Fact), Vec<(StmtRef, Fact)>> = FxHashMap::default();
        let mut gen_source: FxHashMap<(StmtRef, Fact), StmtRef> = FxHashMap::default();
        for shard in &self.prov {
            let mut shard = shard.lock().unwrap();
            preds.extend(std::mem::take(&mut shard.preds));
            gen_source.extend(std::mem::take(&mut shard.gen_source));
        }
        // Canonical order before (sink, source) dedup, as in the
        // sequential engine.
        recorded.sort();
        recorded.dedup();
        let mut seen = std::collections::HashSet::new();
        let mut leaks = Vec::new();
        for (sink, taint) in &recorded {
            let (source, path) = attribute(&preds, &gen_source, *sink, taint, self.config());
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
        // The set of interned facts is the deterministic closure of
        // flow-function outputs (id *values* may race, counts do not).
        let (distinct_facts, distinct_aps) = self.fw.domain().counts();
        let fact_tables = {
            let mut t = self.fw.table_stats();
            t.merge(&self.bw.table_stats());
            t.widened_facts = self.fw.domain().widened_count();
            (t.any() || t.widened_facts > 0).then_some(t)
        };
        InfoflowResults {
            leaks,
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            reachable_methods: self.flows.icfg.callgraph().reachable_methods().len(),
            distinct_facts,
            distinct_aps,
            duration,
            aborted: abort_reason.is_some(),
            abort_reason,
            scheduler: Some(stats),
            fact_tables,
            summary_cache,
        }
    }
}

/// The same deterministic breadth-first provenance walk as the
/// sequential engine's `attribute` (facts are their own keys here, so
/// no domain resolution is needed).
fn attribute(
    preds: &FxHashMap<(StmtRef, Fact), Vec<(StmtRef, Fact)>>,
    gen_source: &FxHashMap<(StmtRef, Fact), StmtRef>,
    sink: StmtRef,
    taint: &Taint,
    config: &InfoflowConfig,
) -> (Option<StmtRef>, Vec<StmtRef>) {
    if !config.track_paths {
        return (None, Vec::new());
    }
    let start = (sink, Fact::T(*taint));
    let mut visited = std::collections::HashSet::new();
    visited.insert(start);
    let mut parent: FxHashMap<(StmtRef, Fact), (StmtRef, Fact)> = FxHashMap::default();
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(cur) = queue.pop_front() {
        if let Some(&src) = gen_source.get(&cur) {
            let mut path = vec![cur.0];
            let mut walk = cur;
            while let Some(p) = parent.get(&walk) {
                path.push(p.0);
                walk = *p;
            }
            return (Some(src), path);
        }
        let mut origins = preds.get(&cur).cloned().unwrap_or_default();
        origins.sort_unstable();
        for o in origins {
            if visited.insert(o) {
                parent.insert(o, cur);
                queue.push_back(o);
            }
        }
    }
    (None, vec![sink])
}
