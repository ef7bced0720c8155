//! Reporting surface: the rendered leak report contains what a triage
//! engineer needs — sink signature and line, source attribution, the
//! tainted access path, and the propagation path (paper §5: "The
//! reports include full path information").

use flowdroid_core::{Infoflow, InfoflowConfig, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::parse_jasm;
use flowdroid_ir::Program;

const CODE: &str = r#"
class Env {
  static native method source() -> java.lang.String
  static native method sink(s: java.lang.String) -> void
}
class R {
  static method relay(x: java.lang.String) -> java.lang.String {
    return x
  }
  static method main() -> void {
    let s: java.lang.String
    let t: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    t = staticinvoke <R: java.lang.String relay(java.lang.String)>(s)
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#;

const DEFS: &str = "\
<Env: java.lang.String source()> -> _SOURCE_\n\
<Env: void sink(java.lang.String)> -> _SINK_\n";

fn run(config: &InfoflowConfig) -> (Program, flowdroid_core::InfoflowResults) {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, CODE).unwrap();
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let main = p.find_method("R", "main").unwrap();
    let r = Infoflow::new(&sources, &wrapper, config).run(&p, &[main]);
    (p, r)
}

#[test]
fn report_contains_everything_a_triage_needs() {
    let (p, r) = run(&InfoflowConfig::default());
    assert_eq!(r.leak_count(), 1);
    let text = r.report(&p);
    assert!(text.contains("1 leak(s) found"), "{text}");
    assert!(text.contains("sink <R: void main()>"), "{text}");
    assert!(text.contains("tainted: t"), "{text}");
    assert!(text.contains("source <R: void main()> (line 13)"), "{text}");
    assert!(text.contains("path ("), "{text}");
    // The leak's path passes through the relay call at line 14.
    let leak = &r.leaks[0];
    assert!(leak.path.len() >= 2, "multi-step path: {:?}", leak.path);
    assert_eq!(leak.source_line(&p), 13);
    assert_eq!(leak.sink_line(&p), 15);
}

#[test]
fn paths_can_be_disabled() {
    let mut config = InfoflowConfig::default();
    config.track_paths = false;
    let (p, r) = run(&config);
    assert_eq!(r.leak_count(), 1, "leak still found");
    let leak = &r.leaks[0];
    assert!(leak.path.is_empty(), "no path tracking requested");
    assert!(leak.source.is_none(), "attribution needs path tracking");
    let text = r.report(&p);
    assert!(text.contains("<unattributed>"), "{text}");
}

#[test]
fn stats_are_populated() {
    let (_, r) = run(&InfoflowConfig::default());
    assert!(r.forward_propagations > 0);
    assert_eq!(r.reachable_methods, 2, "main and relay");
    assert!(!r.aborted);
}

/// A heap field written through either of two aliases on two branches:
/// facts at the join arrive along both branches and through the
/// backward alias search, so attribution walks provenance nodes with
/// several recorded origins. The rendered path is pinned.
const BRANCHY_ALIAS: &str = r#"
class Env {
  static native method source() -> java.lang.String
  static native method sink(s: java.lang.String) -> void
}
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

#[test]
fn multi_origin_alias_path_is_pinned() {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, BRANCHY_ALIAS).unwrap();
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let main = p.find_method("A", "main").unwrap();
    let config = InfoflowConfig::default();
    let r = Infoflow::new(&sources, &wrapper, &config).run(&p, &[main]);
    assert_eq!(r.leak_count(), 1);
    let text = r.report(&p);
    let path = &text[text.find("      source").expect("attributed leak")..];
    assert_eq!(
        path,
        "      source <A: void main()> (line 16)
      path (5 steps):
        <A: void main()> @3 (line 17)
        <A: void main()> @4 (line 18)
        <A: void main()> @7 (line 22)
        <A: void main()> @8 (line 24)
        <A: void main()> @9 (line 25)
"
    );
}
