//! The persistent summary cache: incremental re-analysis across apps.
//!
//! Bridges the taint engines to the on-disk end-summary store of
//! `flowdroid-summaries`. Before tabulating a callee, the engines ask
//! [`SummaryCacheSession::lookup`] whether end summaries for
//! `(callee, entry fact)` were persisted by an earlier run *under the
//! same code and configuration*; on a hit the callee's body is not
//! re-seeded — the cached exits are installed directly and the normal
//! return handling applies them. At the fixpoint,
//! [`SummaryCacheSession::record_all`] stages every computed summary of
//! a cacheable method for persistence (written to disk by
//! [`flush_summary_cache`]).
//!
//! Two guards make replaying a summary sound:
//!
//! * **Transitive code fingerprint** — a method's stored summaries are
//!   keyed on a hash covering its own body
//!   ([`flowdroid_ir::body_fingerprint`]), the resolved signatures of
//!   every call it makes, and — recursively — the same for everything
//!   it transitively calls. Any change in that closure makes the stored
//!   entry *stale*.
//! * **Cacheable predicate** — a method is cacheable only if nothing in
//!   its transitive closure generates or consumes taints by itself:
//!   no source calls (including password-field lookups), no sinks, no
//!   parameter-source overrides. An end summary then captures the
//!   method's complete externally visible taint behavior: the backward
//!   alias solver never ascends into callers on its own (all upward
//!   effects are mediated by forward end summaries, which is exactly
//!   what is cached), and caller-side alias searches for returned heap
//!   taints are spawned at the call site during return handling, which
//!   runs identically on cached and computed summaries.
//!
//! Everything stored is *symbolic* (signature strings, class + field
//!   names, raw local slots) and re-interned into this process's arenas
//! when the session opens; per-process arena ids never reach the disk.
//! The configuration context (bound, switches, source/sink and wrapper
//! fingerprints) is hashed into the store identity, so incompatible
//! configurations never share summaries. Thread count, propagation
//! budget and the engine are deliberately *excluded* — they
//! change engine mechanics, not the fixpoint — so sequential and
//! parallel runs share one cache.

use crate::access_path::{AccessPath, ApBase};
use crate::config::InfoflowConfig;
use crate::flows::{CallSites, Flows};
use crate::sourcesink::SourceSinkManager;
use crate::taint::{Fact, Taint};
use crate::wrappers::TaintWrapper;
use flowdroid_callgraph::Icfg;
use flowdroid_ir::{
    body_fingerprint, fxhash64, FieldId, FxHashMap, FxHashSet, Local, MethodId, Program, StmtRef,
};
use flowdroid_summaries::{
    open_shared_ns, SharedStore, SymAp, SymBase, SymFact, SymField, SymStmt, SymSummary,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Flushes all summaries staged for `dir` during analyses in this
/// process to the on-disk store (merging with what was already there).
/// Until this is called, fresh summaries are invisible — a run never
/// consumes its own discoveries.
///
/// # Errors
///
/// Returns any I/O error from writing the store file.
pub fn flush_summary_cache(dir: &Path) -> std::io::Result<()> {
    flowdroid_summaries::flush_dir(dir)
}

/// Hit/miss statistics of one analysis run's summary-cache session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryCacheStats {
    /// Lookups answered from the store (callee body not re-seeded).
    pub hits: u64,
    /// Lookups for cacheable callees with nothing stored.
    pub misses: u64,
    /// Lookups rejected because the stored entry was computed under a
    /// different transitive code fingerprint.
    pub stale: u64,
    /// Methods visible in the store when the session opened.
    pub store_methods: usize,
    /// Summary entries staged for persistence at the fixpoint.
    pub recorded: u64,
    /// Set when an existing store file could not be loaded (the cache
    /// then started cold).
    pub load_error: Option<String>,
}

/// Per-method fingerprint info computed when the session opens.
struct MethodInfo {
    /// Hash over the method's transitive callee closure.
    trans_hash: u64,
    /// Whether summaries of this method may be cached / replayed.
    cacheable: bool,
}

/// Per-method facts from the first scan, before closures are formed.
struct LocalInfo {
    /// Hash of the method's own body plus its resolved callee
    /// signatures.
    local_hash: u64,
    /// The method itself generates or consumes taints (source, sink or
    /// parameter-source override).
    impure: bool,
    /// Resolved callees of every call site in the body.
    callees: Vec<MethodId>,
}

/// One analysis run's connection to the shared store: resolved lookup
/// tables plus hit/miss counters. Built once per solver, consulted from
/// any number of worker threads.
pub(crate) struct SummaryCacheSession {
    store: Arc<SharedStore>,
    info: FxHashMap<MethodId, MethodInfo>,
    /// `(callee, entry fact)` → canonically sorted exits, pre-resolved
    /// from the store's symbolic form into this process's arenas.
    resolved: FxHashMap<(MethodId, Fact), Vec<(StmtRef, Fact)>>,
    /// Methods present in the store under a different fingerprint.
    stale_methods: FxHashSet<MethodId>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    recorded: AtomicU64,
}

impl SummaryCacheSession {
    /// Opens the store under the configured `summary_cache` directory
    /// (`None` when none is configured) and resolves every stored
    /// summary that matches this program's fingerprints into
    /// lookup-ready form.
    pub(crate) fn open(
        flows: &Flows<'_>,
        sources: &SourceSinkManager,
        wrapper: &TaintWrapper,
    ) -> Option<Self> {
        let (icfg, config) = (&flows.icfg, flows.config);
        let dir = config.summary_cache.as_deref()?;
        let program = icfg.program();
        // The namespace keys a disjoint store; it is *not* part of the
        // context hash — isolation comes from separate stores.
        let store = open_shared_ns(
            dir,
            &config.cache_namespace,
            context_hash(config, sources, wrapper),
        );
        let reachable = icfg.callgraph().reachable_methods();

        // Pass 1: per-method body hash, purity, and resolved callees.
        let mut local: FxHashMap<MethodId, LocalInfo> = FxHashMap::default();
        for &m in reachable {
            local.insert(m, scan_method(program, icfg, &flows.sites, m));
        }

        // Pass 2: transitive closure hash + cacheability per method.
        let mut info: FxHashMap<MethodId, MethodInfo> = FxHashMap::default();
        for &m in reachable {
            info.insert(m, close_over(program, &local, m));
        }

        // Pass 3: resolve stored symbolic summaries against this
        // program. Entries that no longer resolve (vanished classes,
        // fields or statements) are skipped — they read as misses.
        let mut sig_to_id: FxHashMap<String, MethodId> = FxHashMap::default();
        for m in program.methods() {
            sig_to_id.insert(program.signature(m.id()), m.id());
        }
        let mut resolved: FxHashMap<(MethodId, Fact), Vec<(StmtRef, Fact)>> =
            FxHashMap::default();
        let mut stale_methods: FxHashSet<MethodId> = FxHashSet::default();
        store.with_visible(|s| {
            for (sig, ms) in s.iter() {
                let Some(&m) = sig_to_id.get(sig) else { continue };
                let Some(mi) = info.get(&m) else { continue };
                if !mi.cacheable {
                    continue;
                }
                if ms.body_hash != mi.trans_hash {
                    stale_methods.insert(m);
                    continue;
                }
                'entries: for (entry, exits) in &ms.entries {
                    let Some(entry) = sym_to_fact(program, &sig_to_id, entry) else {
                        continue;
                    };
                    let mut out = Vec::with_capacity(exits.len());
                    for s in exits {
                        let idx = s.exit_idx as usize;
                        if !valid_stmt(program, m, idx) {
                            continue 'entries;
                        }
                        let Some(f) = sym_to_fact(program, &sig_to_id, &s.fact) else {
                            continue 'entries;
                        };
                        out.push((StmtRef::new(m, idx), f));
                    }
                    out.sort();
                    resolved.insert((m, entry), out);
                }
            }
        });

        Some(SummaryCacheSession {
            store,
            info,
            resolved,
            stale_methods,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        })
    }

    /// Stored end summaries for `(callee, entry)`, if the callee is
    /// cacheable and the store has a fingerprint-matching entry.
    /// Uncacheable callees are not counted — they can never hit.
    pub(crate) fn lookup(&self, callee: MethodId, entry: &Fact) -> Option<&[(StmtRef, Fact)]> {
        if !self.info.get(&callee).is_some_and(|i| i.cacheable) {
            return None;
        }
        if let Some(exits) = self.resolved.get(&(callee, *entry)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(exits);
        }
        if self.stale_methods.contains(&callee) {
            self.stale.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Hits so far, mid-solve (progress streaming).
    pub(crate) fn hits_so_far(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Stages the fixpoint's end summaries of every cacheable method
    /// for persistence. Entries already visible in the store are
    /// skipped by the store itself (they came *from* it).
    pub(crate) fn record_all(
        &self,
        program: &Program,
        summaries: Vec<(MethodId, Fact, Vec<(StmtRef, Fact)>)>,
    ) {
        for (m, entry, exits) in summaries {
            let Some(mi) = self.info.get(&m) else { continue };
            if !mi.cacheable {
                continue;
            }
            let sym_entry = fact_to_sym(program, &entry);
            let sym_exits = exits
                .iter()
                .map(|(exit, f)| SymSummary {
                    exit_idx: exit.idx as u32,
                    fact: fact_to_sym(program, f),
                })
                .collect();
            self.store.record(&program.signature(m), mi.trans_hash, sym_entry, sym_exits);
            self.recorded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The session's counters, for results reporting.
    pub(crate) fn stats(&self) -> SummaryCacheStats {
        SummaryCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            store_methods: self.store.visible_methods(),
            recorded: self.recorded.load(Ordering::Relaxed),
            load_error: self.store.load_error().map(str::to_owned),
        }
    }
}

/// Hash of everything in the configuration that shapes the computed
/// fixpoint. Thread count, propagation budget, path tracking and
/// fact-interning mode are excluded — they do not change which
/// summaries hold.
fn context_hash(
    config: &InfoflowConfig,
    sources: &SourceSinkManager,
    wrapper: &TaintWrapper,
) -> u64 {
    fxhash64(&(
        config.max_access_path_length,
        config.enable_alias_analysis,
        config.enable_context_injection,
        config.enable_activation_statements,
        config.stub_default_taints_return,
        format!("{:?}/{:?}", config.cg_algorithm, config.callback_association),
        sources.fingerprint(),
        wrapper.fingerprint(),
    ))
}

/// First-scan facts of one method: body hash extended with resolved
/// callee signatures, source/sink purity, and the callee list.
fn scan_method(
    program: &Program,
    icfg: &Icfg<'_>,
    sites: &CallSites<'_>,
    m: MethodId,
) -> LocalInfo {
    let mut impure = !sites.param_sources(m).is_empty();
    let mut callees: Vec<MethodId> = Vec::new();
    let mut cg: Vec<(u32, String)> = Vec::new();
    if let Some(body) = program.method(m).body() {
        for (idx, stmt) in body.stmts().iter().enumerate() {
            if stmt.is_call() {
                let site = StmtRef::new(m, idx);
                let roles = &sites.site(site).roles;
                if roles.source || !roles.sink_args.is_empty() {
                    impure = true;
                }
                for &callee in icfg.callees_of_call(site) {
                    cg.push((idx as u32, program.signature(callee)));
                    if !callees.contains(&callee) {
                        callees.push(callee);
                    }
                }
            }
        }
    }
    let local_hash = fxhash64(&(body_fingerprint(program, m), cg));
    LocalInfo { local_hash, impure, callees }
}

/// Transitive-closure hash and cacheability of one method. The closure
/// is walked over the resolved callee lists; the hash is over the
/// *sorted* `(signature, local hash)` pairs so it does not depend on
/// discovery order. A callee outside the scanned set (should not
/// happen — callees of reachable methods are reachable) disables
/// caching defensively.
fn close_over(
    program: &Program,
    local: &FxHashMap<MethodId, LocalInfo>,
    m: MethodId,
) -> MethodInfo {
    let mut seen: FxHashSet<MethodId> = FxHashSet::default();
    let mut stack = vec![m];
    let mut items: Vec<(String, u64)> = Vec::new();
    let mut cacheable = true;
    while let Some(cur) = stack.pop() {
        if !seen.insert(cur) {
            continue;
        }
        let Some(li) = local.get(&cur) else {
            cacheable = false;
            continue;
        };
        if li.impure {
            cacheable = false;
        }
        items.push((program.signature(cur), li.local_hash));
        stack.extend(li.callees.iter().copied());
    }
    items.sort();
    MethodInfo { trans_hash: fxhash64(&items), cacheable }
}

fn valid_stmt(program: &Program, m: MethodId, idx: usize) -> bool {
    program.method(m).body().is_some_and(|b| idx < b.stmts().len())
}

fn field_to_sym(program: &Program, f: FieldId) -> SymField {
    let fd = program.field(f);
    SymField {
        class: program.class_name(fd.class()).to_owned(),
        name: program.str(fd.name()).to_owned(),
    }
}

fn sym_to_field(program: &Program, f: &SymField) -> Option<FieldId> {
    let class = program.find_class(&f.class)?;
    let name = program.lookup_symbol(&f.name)?;
    program.resolve_field(class, name)
}

fn fact_to_sym(program: &Program, f: &Fact) -> SymFact {
    match f {
        Fact::Zero => SymFact::Zero,
        Fact::T(t) => SymFact::Taint {
            ap: SymAp {
                base: match t.ap.base() {
                    ApBase::Local(l) => SymBase::Local(l.0),
                    ApBase::Static(f) => SymBase::Static(field_to_sym(program, f)),
                },
                fields: t.ap.fields().iter().map(|&f| field_to_sym(program, f)).collect(),
                truncated: t.ap.is_truncated(),
            },
            active: t.active,
            activation: t.activation.map(|s| SymStmt {
                method: program.signature(s.method),
                idx: s.idx as u32,
            }),
        },
    }
}

fn sym_to_fact(
    program: &Program,
    sig_to_id: &FxHashMap<String, MethodId>,
    f: &SymFact,
) -> Option<Fact> {
    match f {
        SymFact::Zero => Some(Fact::Zero),
        SymFact::Taint { ap, active, activation } => {
            let base = match &ap.base {
                SymBase::Local(slot) => ApBase::Local(Local(*slot)),
                SymBase::Static(f) => ApBase::Static(sym_to_field(program, f)?),
            };
            let mut fields = Vec::with_capacity(ap.fields.len());
            for f in &ap.fields {
                fields.push(sym_to_field(program, f)?);
            }
            let activation = match activation {
                None => None,
                Some(s) => {
                    let m = *sig_to_id.get(&s.method)?;
                    let idx = s.idx as usize;
                    if !valid_stmt(program, m, idx) {
                        return None;
                    }
                    Some(StmtRef::new(m, idx))
                }
            };
            Some(Fact::T(Taint {
                ap: AccessPath::from_raw_parts(base, &fields, ap.truncated),
                active: *active,
                activation,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{MethodBuilder, Type};

    #[test]
    fn context_hash_tracks_configuration() {
        let sources = SourceSinkManager::default_android();
        let wrapper = TaintWrapper::default_rules();
        let base = InfoflowConfig::default();
        let h = context_hash(&base, &sources, &wrapper);
        // Same inputs, same hash.
        assert_eq!(h, context_hash(&base.clone(), &sources, &wrapper));
        // Fixpoint-shaping options change the context.
        let other = base.clone().with_access_path_length(3);
        assert_ne!(h, context_hash(&other, &sources, &wrapper));
        let other = base.clone().with_alias_analysis(false);
        assert_ne!(h, context_hash(&other, &sources, &wrapper));
        // Different source lists change the context.
        let fewer = SourceSinkManager::new();
        assert_ne!(h, context_hash(&base, &fewer, &wrapper));
        // Engine mechanics do not.
        let mut threads = base.clone();
        threads.taint_threads = 4;
        threads.track_paths = false;
        assert_eq!(h, context_hash(&threads, &sources, &wrapper));
    }

    #[test]
    fn facts_round_trip_symbolically() {
        let mut p = Program::new();
        let c = p.declare_class("com.example.Holder", None, &[]);
        let fid = p.declare_field(c, "data", Type::Int, false);
        let sid = p.declare_field(c, "shared", Type::Int, true);
        let owner = p.declare_class("com.example.T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, owner, "t", vec![], Type::Void);
        let hty = b.program().ref_type("com.example.Holder");
        let l = b.local("h", hty);
        b.ret(None);
        let m = b.finish();

        let mut sig_to_id: FxHashMap<String, MethodId> = FxHashMap::default();
        sig_to_id.insert(p.signature(m), m);

        let act = StmtRef::new(m, 0);
        let cases = [
            Fact::Zero,
            Fact::T(Taint::active(AccessPath::local(l))),
            Fact::T(Taint::active(AccessPath::new(ApBase::Local(l), vec![fid], 5))),
            Fact::T(Taint::inactive(AccessPath::static_field(sid), act)),
            Fact::T(Taint::active(AccessPath::from_raw_parts(
                ApBase::Local(l),
                &[fid],
                true,
            ))),
        ];
        for f in cases {
            let sym = fact_to_sym(&p, &f);
            let back = sym_to_fact(&p, &sig_to_id, &sym).expect("resolvable");
            assert_eq!(back, f);
        }
        // Unresolvable symbols are rejected, not mangled.
        let missing = SymFact::Taint {
            ap: SymAp {
                base: SymBase::Static(SymField { class: "gone.Cls".into(), name: "f".into() }),
                fields: vec![],
                truncated: false,
            },
            active: true,
            activation: None,
        };
        assert!(sym_to_fact(&p, &sig_to_id, &missing).is_none());
        let bad_activation = SymFact::Taint {
            ap: SymAp { base: SymBase::Local(0), fields: vec![], truncated: false },
            active: false,
            activation: Some(SymStmt { method: "<gone: void g()>".into(), idx: 0 }),
        };
        assert!(sym_to_fact(&p, &sig_to_id, &bad_activation).is_none());
    }

    /// Builds the arena a property-test fact lives in. With `skew`, a
    /// padding class and field are declared first so every arena id
    /// (class, field, method) differs from the unskewed build —
    /// resolution after the wire trip must go by name, never by id.
    fn build_arena(skew: bool) -> (Program, Vec<FieldId>, FieldId, MethodId) {
        let mut p = Program::new();
        if skew {
            let pad = p.declare_class("pad.Cls", None, &[]);
            p.declare_field(pad, "pad", flowdroid_ir::Type::Int, false);
        }
        let c = p.declare_class("com.example.Holder", None, &[]);
        let fields = vec![
            p.declare_field(c, "f0", flowdroid_ir::Type::Int, false),
            p.declare_field(c, "f1", flowdroid_ir::Type::Int, false),
            p.declare_field(c, "f2", flowdroid_ir::Type::Int, false),
        ];
        let st = p.declare_field(c, "shared", flowdroid_ir::Type::Int, true);
        let owner = p.declare_class("com.example.T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, owner, "t", vec![], Type::Void);
        b.ret(None);
        let m = b.finish();
        (p, fields, st, m)
    }

    fn make_fact(
        kind: u32,
        slot: u32,
        picks: &[usize],
        truncated: bool,
        fields: &[FieldId],
        st: FieldId,
        m: MethodId,
    ) -> Fact {
        if kind == 0 {
            return Fact::Zero;
        }
        let chain: Vec<FieldId> = picks.iter().map(|i| fields[*i]).collect();
        let base = if kind == 3 { ApBase::Static(st) } else { ApBase::Local(Local(slot)) };
        let ap = AccessPath::from_raw_parts(base, &chain, truncated);
        match kind {
            2 => Fact::T(Taint::inactive(ap, StmtRef::new(m, 0))),
            _ => Fact::T(Taint::active(ap)),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A random fact converted to symbolic form, pushed through the
        /// wire encoding, and resolved into a *fresh* program whose
        /// arena ids are all shifted comes back as exactly the
        /// corresponding fact of the new arena.
        #[test]
        fn facts_survive_wire_and_fresh_arena(
            kind in 0u32..4,
            slot in 0u32..3,
            picks in proptest::collection::vec(0usize..3, 0..4),
            trunc in 0u32..2,
        ) {
            let (pa, fa, sta, ma) = build_arena(false);
            let (pb, fb, stb, mb) = build_arena(true);
            let fact_a = make_fact(kind, slot, &picks, trunc == 1, &fa, sta, ma);
            let expected_b = make_fact(kind, slot, &picks, trunc == 1, &fb, stb, mb);

            let sym = fact_to_sym(&pa, &fact_a);
            let mut store = flowdroid_summaries::SummaryStore::new(7);
            store.insert(
                &pa.signature(ma),
                11,
                sym,
                vec![SymSummary { exit_idx: 0, fact: fact_to_sym(&pa, &fact_a) }],
            );
            let decoded =
                flowdroid_summaries::SummaryStore::from_bytes(&store.to_bytes()).unwrap();

            let mut sig_to_id: FxHashMap<String, MethodId> = FxHashMap::default();
            sig_to_id.insert(pb.signature(mb), mb);
            let (_, summaries) = decoded.iter().next().unwrap();
            for (entry, exits) in &summaries.entries {
                let back = sym_to_fact(&pb, &sig_to_id, entry).expect("entry resolves");
                prop_assert_eq!(&back, &expected_b);
                for s in exits {
                    let back = sym_to_fact(&pb, &sig_to_id, &s.fact).expect("exit resolves");
                    prop_assert_eq!(&back, &expected_b);
                }
            }
        }
    }
}
