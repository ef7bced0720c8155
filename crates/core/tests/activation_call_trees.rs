//! Activation statements as representatives of call trees (paper §4.2:
//! "activation statements are used for looking up the call trees in
//! which they occur to translate them back into (transitive) callers"),
//! plus the over-approximation of CHA dispatch.

use flowdroid_core::{Infoflow, InfoflowConfig, InfoflowResults, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::parse_jasm;
use flowdroid_ir::Program;

const ENV: &str = r#"
class Env {
  static native method source() -> java.lang.String
  static native method sink(s: java.lang.String) -> void
}
"#;

const DEFS: &str = "\
<Env: java.lang.String source()> -> _SOURCE_\n\
<Env: void sink(java.lang.String)> -> _SINK_\n";

fn analyze_with(config: &InfoflowConfig, body: &str) -> (Program, InfoflowResults) {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, body).unwrap_or_else(|e| panic!("{e}"));
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let main = p.find_method("Main", "main").unwrap();
    let r = Infoflow::new(&sources, &wrapper, config).run(&p, &[main]);
    (p, r)
}

fn sink_lines(p: &Program, r: &InfoflowResults) -> Vec<u32> {
    let mut v: Vec<u32> = r.leaks.iter().map(|l| l.sink_line(p)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The heap write that activates the alias lives two calls deep; the
/// alias taint in `main` must stay inactive at the first sink and
/// activate when crossing the call whose tree contains the write.
#[test]
fn activation_translates_through_call_trees() {
    let code = r#"
class Data { field f: java.lang.String }
class Main {
  static method store(x: Data, v: java.lang.String) -> void {
    x.f = v
    return
  }
  static method indirect(q: Data) -> void {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    staticinvoke <Main: void store(Data,java.lang.String)>(q, s)
    return
  }
  static method main() -> void {
    let p: Data
    let p2: Data
    let t: java.lang.String
    let u: java.lang.String
    p = new Data
    p2 = p
    t = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    staticinvoke <Main: void indirect(Data)>(p)
    u = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;
    let (p, r) = analyze_with(&InfoflowConfig::default(), code);
    let lines = sink_lines(&p, &r);
    assert!(
        !lines.contains(&22),
        "sink before the (transitive) write stays clean: {lines:?}\n{r:#?}"
    );
    assert!(lines.contains(&25), "sink after the call tree leaks: {lines:?}");
}

/// Same program without activation statements: the early sink
/// false-alarms (Andromeda-style flow-insensitivity).
#[test]
fn call_tree_case_needs_activation_statements() {
    let code = r#"
class Data { field f: java.lang.String }
class Main {
  static method store(x: Data, v: java.lang.String) -> void {
    x.f = v
    return
  }
  static method indirect(q: Data) -> void {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    staticinvoke <Main: void store(Data,java.lang.String)>(q, s)
    return
  }
  static method main() -> void {
    let p: Data
    let p2: Data
    let t: java.lang.String
    let u: java.lang.String
    p = new Data
    p2 = p
    t = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    staticinvoke <Main: void indirect(Data)>(p)
    u = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;
    let config = InfoflowConfig::default().with_activation_statements(false);
    let (p, r) = analyze_with(&config, code);
    let lines = sink_lines(&p, &r);
    assert!(lines.contains(&22), "without activation the early sink reports: {lines:?}");
}

/// CHA dispatches a virtual call to every override, also to one whose
/// class is never instantiated: only `Clean` is allocated, yet the
/// tainted `Dirty::get` is a target, so the sink reports a leak.
#[test]
fn cha_dispatches_to_an_uninstantiated_tainted_override() {
    let code = r#"
class Base {
  method <init>() -> void { return }
  method get() -> java.lang.String {
    return "base"
  }
}
class Dirty extends Base {
  method <init>() -> void { return }
  method get() -> java.lang.String {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    return s
  }
}
class Clean extends Base {
  method <init>() -> void { return }
  method get() -> java.lang.String {
    return "clean"
  }
}
class Main {
  static method main() -> void {
    let b: Base
    let v: java.lang.String
    b = new Clean
    specialinvoke b.<Clean: void <init>()>()
    v = virtualinvoke b.<Base: java.lang.String get()>()
    staticinvoke <Env: void sink(java.lang.String)>(v)
    return
  }
}
"#;
    let (_, r) = analyze_with(&InfoflowConfig::default(), code);
    assert_eq!(r.leak_count(), 1, "CHA over-approximates dispatch");
}

/// Two apps loaded into one program analyze independently (unique
/// dummy-main tags).
#[test]
fn two_apps_share_one_program() {
    use flowdroid_frontend::App;
    let mut p = Program::new();
    let platform = flowdroid_android::install_platform(&mut p);
    let leaky = App::from_parts(
        &mut p,
        r#"<manifest package="a1"><application><activity android:name=".M"/></application></manifest>"#,
        &[],
        r#"
class a1.M extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return
  }
}
"#,
    )
    .unwrap();
    let clean = App::from_parts(
        &mut p,
        r#"<manifest package="a2"><application><activity android:name=".M"/></application></manifest>"#,
        &[],
        r#"
class a2.M extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", "const")
    return
  }
}
"#,
    )
    .unwrap();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let infoflow = Infoflow::new(&sources, &wrapper, &config);
    let r1 = infoflow.analyze_app(&mut p, &platform, &leaky, "app1");
    let r2 = infoflow.analyze_app(&mut p, &platform, &clean, "app2");
    assert_eq!(r1.results.leak_count(), 1);
    assert!(r2.results.is_clean());
}
