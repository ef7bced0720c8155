//! A flow-insensitive, context-insensitive taint fixpoint over *slots*.
//!
//! This is deliberately the kind of analysis the paper's commercial
//! baselines implement: it has no statement ordering (a taint written
//! anywhere in an entry's reachable code is visible everywhere in it),
//! one global slot per field (object-insensitive), whole-object arrays,
//! and no lifecycle model (the caller analyzes each entry separately).

use flowdroid_callgraph::{CallGraph, CgAlgorithm, Icfg};
use flowdroid_core::wrappers::{Pos, Rule};
use flowdroid_core::{CallSites, SourceSinkManager, TaintWrapper};
use flowdroid_ir::{
    FieldId, Local, MethodId, Operand, Place, Program, Rvalue, Stmt, StmtRef,
};
use std::collections::HashSet;

/// A taintable location in the slot domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Slot {
    /// A local variable of a specific method (context-insensitive).
    Local(MethodId, Local),
    /// Any instance's `field` (object-insensitive).
    Field(FieldId),
    /// A static field.
    Static(FieldId),
}

/// Results of a baseline run.
#[derive(Clone, Debug, Default)]
pub struct BaselineResults {
    /// Distinct sink statements reached by tainted data.
    pub leaky_sinks: Vec<StmtRef>,
}

impl BaselineResults {
    /// Number of reported leaks.
    pub fn leak_count(&self) -> usize {
        self.leaky_sinks.len()
    }
}

/// The slot-based fixpoint engine.
#[derive(Debug)]
pub struct SlotEngine<'a> {
    program: &'a Program,
    sources: &'a SourceSinkManager,
    wrapper: &'a TaintWrapper,
    /// Fortify quirk: static-field slots persist across entry points.
    share_statics: bool,
}

impl<'a> SlotEngine<'a> {
    /// Creates an engine.
    pub fn new(
        program: &'a Program,
        sources: &'a SourceSinkManager,
        wrapper: &'a TaintWrapper,
        share_statics: bool,
    ) -> Self {
        SlotEngine { program, sources, wrapper, share_statics }
    }

    /// Analyzes each entry point in isolation (sharing static slots
    /// across entries when modeling Fortify, iterated to a fixpoint).
    pub fn run(&self, entries: &[MethodId]) -> BaselineResults {
        let mut leaks: HashSet<StmtRef> = HashSet::new();
        let mut shared_statics: HashSet<FieldId> = HashSet::new();
        loop {
            let statics_before = shared_statics.len();
            for &entry in entries {
                let (entry_leaks, statics) = self.run_one(entry, &shared_statics);
                leaks.extend(entry_leaks);
                if self.share_statics {
                    shared_statics.extend(statics);
                }
            }
            if !self.share_statics || shared_statics.len() == statics_before {
                break;
            }
        }
        let mut leaky_sinks: Vec<StmtRef> = leaks.into_iter().collect();
        leaky_sinks.sort();
        BaselineResults { leaky_sinks }
    }

    /// One entry point: fixpoint over slots; returns (leaky sinks,
    /// tainted static fields).
    fn run_one(
        &self,
        entry: MethodId,
        seed_statics: &HashSet<FieldId>,
    ) -> (HashSet<StmtRef>, HashSet<FieldId>) {
        let program = self.program;
        let cg = CallGraph::build(program, &[entry], CgAlgorithm::Cha);
        let icfg = Icfg::new(program, &cg);
        let sites = CallSites::build(&icfg, self.sources, self.wrapper);
        let mut tainted: HashSet<Slot> = HashSet::new();
        for &f in seed_statics {
            tainted.insert(Slot::Static(f));
        }
        let mut leaks = HashSet::new();
        loop {
            let before = tainted.len();
            for &m in cg.reachable_methods() {
                let Some(body) = program.method(m).body() else { continue };
                for (idx, stmt) in body.stmts().iter().enumerate() {
                    let at = StmtRef::new(m, idx);
                    self.transfer(&icfg, &sites, at, stmt, &mut tainted, &mut leaks);
                }
            }
            if tainted.len() == before {
                break;
            }
        }
        let statics = tainted
            .iter()
            .filter_map(|s| match s {
                Slot::Static(f) => Some(*f),
                _ => None,
            })
            .collect();
        (leaks, statics)
    }

    fn slot_of_place(m: MethodId, p: &Place) -> Slot {
        match p {
            Place::Local(l) => Slot::Local(m, *l),
            Place::InstanceField(_, f) => Slot::Field(*f),
            Place::StaticField(f) => Slot::Static(*f),
            // Whole-array handling: the array local is the slot.
            Place::ArrayElem(b, _) => Slot::Local(m, *b),
        }
    }

    fn operand_tainted(m: MethodId, o: &Operand, tainted: &HashSet<Slot>) -> bool {
        matches!(o, Operand::Local(l) if tainted.contains(&Slot::Local(m, *l)))
    }

    fn transfer(
        &self,
        icfg: &Icfg<'_>,
        sites: &CallSites<'_>,
        at: StmtRef,
        stmt: &Stmt,
        tainted: &mut HashSet<Slot>,
        leaks: &mut HashSet<StmtRef>,
    ) {
        let program = self.program;
        let m = at.method;
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                let rhs_tainted = match rhs {
                    Rvalue::Read(p) => tainted.contains(&Self::slot_of_place(m, p)),
                    Rvalue::Cast(_, o) | Rvalue::UnOp(_, o) => {
                        Self::operand_tainted(m, o, tainted)
                    }
                    Rvalue::BinOp(_, a, b) => {
                        Self::operand_tainted(m, a, tainted)
                            || Self::operand_tainted(m, b, tainted)
                    }
                    _ => false,
                };
                if rhs_tainted {
                    tainted.insert(Self::slot_of_place(m, lhs));
                }
            }
            Stmt::Invoke { result, call } => {
                let site = sites.site(at);
                // Sinks.
                for &i in &site.roles.sink_args {
                    if let Some(Operand::Local(a)) = call.args.get(i) {
                        if tainted.contains(&Slot::Local(m, *a)) {
                            leaks.insert(at);
                        }
                    }
                }
                // Sources (return value).
                if site.roles.source {
                    if let Some(r) = result {
                        tainted.insert(Slot::Local(m, *r));
                    }
                }
                // Wrapper rules.
                let covers = |pos: Pos| -> bool {
                    TaintWrapper::pos_local(call, *result, pos)
                        .is_some_and(|l| tainted.contains(&Slot::Local(m, l)))
                };
                for pos in Rule::fire(&site.rules, covers) {
                    if let Some(l) = TaintWrapper::pos_local(call, *result, pos) {
                        tainted.insert(Slot::Local(m, l));
                    }
                }
                // Calls into analyzed code: context-insensitive
                // arg→param and return→result mapping.
                for &callee in icfg.callees_of_call(at) {
                    let cm = program.method(callee);
                    for (i, arg) in call.args.iter().enumerate() {
                        if i < cm.param_count() && Self::operand_tainted(m, arg, tainted) {
                            tainted.insert(Slot::Local(callee, cm.param_local(i)));
                        }
                    }
                    if let (Some(base), Some(this)) = (call.base, cm.this_local()) {
                        if tainted.contains(&Slot::Local(m, base)) {
                            tainted.insert(Slot::Local(callee, this));
                        }
                    }
                    if let Some(r) = result {
                        // Any tainted returned local taints the result.
                        if let Some(body) = cm.body() {
                            for s in body.stmts() {
                                if let Stmt::Return { value: Some(Operand::Local(v)) } = s {
                                    if tainted.contains(&Slot::Local(callee, *v)) {
                                        tainted.insert(Slot::Local(m, *r));
                                    }
                                }
                            }
                        }
                    }
                }
                // Stub fallback: tainted receiver/arg taints the result.
                if icfg.callees_of_call(at).is_empty()
                    && site.rules.is_empty()
                    && !site.roles.source
                {
                    let any = call.base.is_some_and(|b| tainted.contains(&Slot::Local(m, b)))
                        || call.args.iter().any(|a| Self::operand_tainted(m, a, tainted));
                    if any {
                        if let Some(r) = result {
                            tainted.insert(Slot::Local(m, *r));
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_frontend::layout::ResourceTable;
    use flowdroid_frontend::parse_jasm;

    fn engine_run(code: &str, entry: (&str, &str), share_statics: bool) -> usize {
        let mut p = Program::new();
        flowdroid_android::install_platform(&mut p);
        let rt = ResourceTable::new();
        parse_jasm(&mut p, &rt, code).unwrap();
        let sources = SourceSinkManager::default_android();
        let wrapper = TaintWrapper::default_rules();
        let entry = p.find_method(entry.0, entry.1).unwrap();
        let engine = SlotEngine::new(&p, &sources, &wrapper, share_statics);
        engine.run(&[entry]).leak_count()
    }

    #[test]
    fn flow_insensitivity_ignores_ordering() {
        // Sink *before* the source still reports: no statement order.
        let code = r#"
class B extends android.app.Activity {
  method go() -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    id = "clean"
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    return
  }
}
"#;
        assert_eq!(engine_run(code, ("B", "go"), false), 1);
    }

    #[test]
    fn object_insensitivity_shares_field_slots() {
        let code = r#"
class D extends java.lang.Object {
  field f: java.lang.String
  method <init>() -> void { return }
}
class B extends android.app.Activity {
  method go() -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    let d1: D
    let d2: D
    let t: java.lang.String
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    d1 = new D
    specialinvoke d1.<D: void <init>()>()
    d2 = new D
    specialinvoke d2.<D: void <init>()>()
    d1.f = id
    t = d2.f
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", t)
    return
  }
}
"#;
        assert_eq!(engine_run(code, ("B", "go"), false), 1, "one global slot per field");
    }
}
