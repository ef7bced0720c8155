//! The per-solve call-site table ([`CallSites`]) must answer exactly
//! what direct signature matching answers. For every call site and
//! every method the call graph reaches — on the DroidBench corpus,
//! InsecureBank, the SecuriBench Micro cases and a seeded ground-truth
//! corpus — the table's roles, wrapper rules and parameter sources are
//! compared with a reference that walks [`matching_sigs`] itself and
//! looks the signatures up in its own parse of the definition text.

use flowdroid_android::{
    generate_dummy_main, install_platform, CallbackAssociation, EntryPointModel,
};
use flowdroid_callgraph::{CallGraph, Icfg};
use flowdroid_core::sourcesink::{matching_sigs, DEFAULT_ANDROID_DEFS};
use flowdroid_core::wrappers::{Pos, DEFAULT_WRAPPER_RULES};
use flowdroid_core::{CallRoles, CallSites, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, App};
use flowdroid_ir::{Constant, InvokeExpr, MethodId, Operand, Program, StmtRef};
use flowdroid_securibench::{cases_in, Group, MICRO_DEFS, MICRO_ENV};
use std::collections::{HashMap, HashSet};

/// Roles beyond the built-in lists, so sanitizers and extra sinks are
/// exercised on real call sites (through the hierarchy: `toString`
/// calls on any class match the `java.lang.Object` entry).
const EXTRA_DEFS: &str = "\
<java.lang.Object: java.lang.String toString()> -> _SANITIZER_\n\
<java.lang.String: java.lang.String substring(int)> -> _SANITIZER_\n\
<java.util.Map: java.lang.Object put(java.lang.Object,java.lang.Object)> -> _SINK_PARAM_1_\n";

type RefRule = (Vec<Pos>, Vec<Pos>);

/// The reference: its own parse of the definition texts, queried by a
/// direct hierarchy walk per call.
struct Reference {
    roles: HashMap<String, Vec<String>>,
    rules: HashMap<String, Vec<RefRule>>,
    password_ids: HashSet<i64>,
}

fn parse_pos(p: &str) -> Pos {
    match p {
        "base" => Pos::Base,
        "ret" => Pos::Ret,
        arg => Pos::Arg(arg.strip_prefix("arg").unwrap().parse().unwrap()),
    }
}

fn parse_positions(s: &str) -> Vec<Pos> {
    s.split(',').map(str::trim).filter(|p| !p.is_empty()).map(parse_pos).collect()
}

impl Reference {
    fn new(defs: &str, password_ids: &HashSet<i64>) -> Self {
        let mut roles: HashMap<String, Vec<String>> = HashMap::new();
        for line in defs.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (sig, role) = line.rsplit_once("->").unwrap();
            roles.entry(sig.trim().to_owned()).or_default().push(role.trim().to_owned());
        }
        let mut rules: HashMap<String, Vec<RefRule>> = HashMap::new();
        for line in DEFAULT_WRAPPER_RULES.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let close = line.find('>').unwrap();
            let (if_any, taint) = line[close + 1..].split_once("->").unwrap();
            rules
                .entry(line[..=close].to_owned())
                .or_default()
                .push((parse_positions(if_any), parse_positions(taint)));
        }
        Reference { roles, rules, password_ids: password_ids.clone() }
    }

    fn roles_of<'r>(&'r self, sigs: &'r [String]) -> impl Iterator<Item = &'r str> {
        sigs.iter().filter_map(|s| self.roles.get(s)).flatten().map(String::as_str)
    }

    fn call_roles(&self, p: &Program, call: &InvokeExpr) -> CallRoles {
        let sigs = matching_sigs(p, call.callee.class, &call.callee.subsig);
        let password = p.str(call.callee.subsig.name) == "findViewById"
            && matches!(call.args.first(),
                Some(Operand::Const(Constant::Int(id))) if self.password_ids.contains(id));
        let mut sink_args: Vec<usize> = Vec::new();
        for role in self.roles_of(&sigs) {
            if role == "_SINK_" {
                sink_args.extend(0..call.args.len());
            } else if let Some(i) = role.strip_prefix("_SINK_PARAM_") {
                sink_args.push(i.trim_end_matches('_').parse().unwrap());
            }
        }
        sink_args.sort_unstable();
        sink_args.dedup();
        let source = password || self.roles_of(&sigs).any(|r| r == "_SOURCE_");
        let sanitizer = self.roles_of(&sigs).any(|r| r == "_SANITIZER_");
        CallRoles { source, sanitizer, sink_args }
    }

    fn rules(&self, p: &Program, call: &InvokeExpr) -> Vec<RefRule> {
        matching_sigs(p, call.callee.class, &call.callee.subsig)
            .iter()
            .filter_map(|s| self.rules.get(s))
            .flatten()
            .cloned()
            .collect()
    }

    fn param_sources(&self, p: &Program, m: MethodId) -> Vec<usize> {
        let method = p.method(m);
        let sigs = matching_sigs(p, method.class(), method.subsig());
        let mut out: Vec<usize> = self
            .roles_of(&sigs)
            .filter_map(|r| r.strip_prefix("_SOURCE_PARAM_"))
            .map(|i| i.trim_end_matches('_').parse().unwrap())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// How often each role showed up, so the sweep provably is not vacuous.
#[derive(Default)]
struct Coverage {
    sites: usize,
    sources: usize,
    password_sources: usize,
    sanitizers: usize,
    sinks: usize,
    with_rules: usize,
    param_source_methods: usize,
}

/// Compares the table against the reference on every reachable method
/// and call site of one call graph.
fn check(
    name: &str,
    p: &Program,
    cg: &CallGraph,
    defs: &str,
    password_ids: &HashSet<i64>,
    cov: &mut Coverage,
) {
    let mut sources = SourceSinkManager::parse(defs).unwrap();
    for &id in password_ids {
        sources.add_password_id(id);
    }
    let wrapper = TaintWrapper::default_rules();
    let icfg = Icfg::new(p, cg);
    let table = CallSites::build(&icfg, &sources, &wrapper);
    let reference = Reference::new(defs, password_ids);
    for &m in cg.reachable_methods() {
        let expected = reference.param_sources(p, m);
        assert_eq!(table.param_sources(m), expected, "{name}: param sources of {}", p.signature(m));
        cov.param_source_methods += usize::from(!expected.is_empty());
        let Some(body) = p.method(m).body() else {
            continue;
        };
        for (idx, stmt) in body.stmts().iter().enumerate() {
            let Some(call) = stmt.invoke_expr() else {
                continue;
            };
            let n = StmtRef::new(m, idx);
            let site = table.site(n);
            let roles = reference.call_roles(p, call);
            assert_eq!(site.roles, roles, "{name}: roles at {n:?} in {}", p.signature(m));
            let rules: Vec<RefRule> =
                site.rules.iter().map(|r| (r.if_any.clone(), r.taint.clone())).collect();
            assert_eq!(rules, reference.rules(p, call), "{name}: rules at {n:?}");
            cov.sites += 1;
            cov.sources += usize::from(roles.source);
            cov.password_sources +=
                usize::from(roles.source && p.str(call.callee.subsig.name) == "findViewById");
            cov.sanitizers += usize::from(roles.sanitizer);
            cov.sinks += usize::from(!roles.sink_args.is_empty());
            cov.with_rules += usize::from(!rules.is_empty());
        }
    }
}

/// Loads an Android app the way the pipeline does (lifecycle model,
/// dummy main, CHA call graph) and checks it, with the app's password
/// widgets registered like `Infoflow::analyze_app` registers them.
fn check_app(name: &str, manifest: &str, layouts: &[(&str, &str)], code: &str, cov: &mut Coverage) {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app = App::from_parts(&mut p, manifest, layouts, code).expect("app parses");
    let password_ids: HashSet<i64> = app
        .layouts
        .values()
        .flat_map(|l| &l.widgets)
        .filter(|w| w.is_password)
        .filter_map(|w| app.resources.widget_id(w.id_name.as_deref()?))
        .collect();
    let model = EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
    let dummy = generate_dummy_main(&mut p, &platform, &model, "sites");
    let cg = CallGraph::build(&p, &[dummy]);
    let defs = format!("{DEFAULT_ANDROID_DEFS}{EXTRA_DEFS}");
    check(name, &p, &cg, &defs, &password_ids, cov);
}

#[test]
fn droidbench_and_insecurebank_call_sites_agree() {
    let mut cov = Coverage::default();
    let mut apps = flowdroid_droidbench::all_apps();
    apps.push(flowdroid_droidbench::insecurebank::insecure_bank());
    for app in &apps {
        check_app(app.name, &app.manifest, &app.layouts, &app.code, &mut cov);
    }
    assert!(cov.sites > 250, "only {} call sites checked", cov.sites);
    assert!(cov.sources > 0 && cov.sinks > 0 && cov.with_rules > 0);
    assert!(cov.sanitizers > 0, "no sanitizer call site exercised");
    assert!(cov.param_source_methods > 0, "no `_SOURCE_PARAM_` method exercised");
    assert!(cov.password_sources > 0, "no password-field lookup exercised");
}

#[test]
fn securibench_micro_call_sites_agree() {
    let mut cov = Coverage::default();
    let defs = format!("{MICRO_DEFS}{EXTRA_DEFS}");
    for group in Group::all() {
        for case in cases_in(group) {
            let mut p = Program::new();
            install_platform(&mut p);
            let rt = ResourceTable::new();
            parse_jasm(&mut p, &rt, MICRO_ENV).expect("micro env parses");
            parse_jasm(&mut p, &rt, &case.code).expect("micro case parses");
            let entry = p.find_method(&case.entry_class, "main").expect("micro entry");
            let cg = CallGraph::build(&p, &[entry]);
            check(&case.name, &p, &cg, &defs, &HashSet::new(), &mut cov);
        }
    }
    assert!(cov.sites > 100, "only {} call sites checked", cov.sites);
    assert!(cov.sources > 0 && cov.sinks > 0 && cov.with_rules > 0);
}

#[test]
fn ground_truth_corpus_call_sites_agree() {
    let mut cov = Coverage::default();
    for app in flowdroid_truth::generate_corpus(42, 12) {
        let layouts: Vec<(&str, &str)> =
            app.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        check_app(&app.name, &app.manifest, &layouts, &app.code, &mut cov);
    }
    assert!(cov.sites > 500, "only {} call sites checked", cov.sites);
    assert!(cov.sources > 0 && cov.sinks > 0 && cov.with_rules > 0);
}
