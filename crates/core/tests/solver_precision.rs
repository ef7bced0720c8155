//! Integration tests for the bidirectional solver, reproducing the
//! paper's running examples: Figure 2 (on-demand aliasing), Listing 2
//! (context injection), Listing 3 (activation statements), and the
//! field-/object-sensitivity claims of §2.

use flowdroid_core::{Infoflow, InfoflowConfig, InfoflowResults, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::parse_jasm;
use flowdroid_ir::Program;

const ENV: &str = r#"
class Env {
  native static method source() -> java.lang.String
  native static method sink(s: java.lang.String) -> void
  native static method sinkObj(o: java.lang.Object) -> void
}
"#;

const DEFS: &str = "\
<Env: java.lang.String source()> -> _SOURCE_\n\
<Env: void sink(java.lang.String)> -> _SINK_\n\
<Env: void sinkObj(java.lang.Object)> -> _SINK_\n";

fn analyze_with(
    config: &InfoflowConfig,
    body: &str,
    entry: (&str, &str),
) -> (Program, InfoflowResults) {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, body).unwrap_or_else(|e| panic!("{e}"));
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let main = p.find_method(entry.0, entry.1).expect("entry method");
    let infoflow = Infoflow::new(&sources, &wrapper, config);
    let results = infoflow.run(&p, &[main]);
    (p, results)
}

fn analyze(body: &str, entry: (&str, &str)) -> (Program, InfoflowResults) {
    analyze_with(&InfoflowConfig::default(), body, entry)
}

/// Sink lines (deduplicated) of all reported leaks.
fn sink_lines(p: &Program, r: &InfoflowResults) -> Vec<u32> {
    let mut v: Vec<u32> = r.leaks.iter().map(|l| l.sink_line(p)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

// ====================== basic flows ======================

#[test]
fn direct_flow_is_found() {
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    staticinvoke <Env: void sink(java.lang.String)>(s)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1);
    assert!(r.leaks[0].source.is_some(), "source should be attributed");
}

#[test]
fn clean_program_reports_nothing() {
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let s: java.lang.String
    s = "hello"
    staticinvoke <Env: void sink(java.lang.String)>(s)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert!(r.is_clean());
}

#[test]
fn overwrite_kills_taint() {
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    s = "clean"
    staticinvoke <Env: void sink(java.lang.String)>(s)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert!(r.is_clean(), "strong update on locals must kill the taint");
}

#[test]
fn flow_through_identity_call_is_context_sensitive() {
    let (p, r) = analyze(
        r#"
class Main {
  static method id(x: java.lang.String) -> java.lang.String {
    return x
  }
  static method main() -> void {
    let s: java.lang.String
    let a: java.lang.String
    let b: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    a = staticinvoke <Main: java.lang.String id(java.lang.String)>(s)
    b = staticinvoke <Main: java.lang.String id(java.lang.String)>("pub")
    staticinvoke <Env: void sink(java.lang.String)>(a)
    staticinvoke <Env: void sink(java.lang.String)>(b)
    return
  }
}
"#,
        ("Main", "main"),
    );
    let lines = sink_lines(&p, &r);
    assert_eq!(lines.len(), 1, "only the tainted call leaks: {r:#?}");
    assert_eq!(r.leak_count(), 1);
}

#[test]
fn taint_generated_inside_callee_returns_to_caller() {
    let (_, r) = analyze(
        r#"
class Main {
  static method get() -> java.lang.String {
    let t: java.lang.String
    t = staticinvoke <Env: java.lang.String source()>()
    return t
  }
  static method main() -> void {
    let x: java.lang.String
    x = staticinvoke <Main: java.lang.String get()>()
    staticinvoke <Env: void sink(java.lang.String)>(x)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "a taint the callee generates returns to its caller: {r:#?}");
}

// ====================== field sensitivity (§2) ======================

#[test]
fn field_sensitivity_distinguishes_fields() {
    let (p, r) = analyze(
        r#"
class User {
  field name: java.lang.String
  field pwd: java.lang.String
}
class Main {
  static method main() -> void {
    let u: User
    let n: java.lang.String
    let w: java.lang.String
    u = new User
    u.name = "alice"
    w = staticinvoke <Env: java.lang.String source()>()
    u.pwd = w
    n = u.name
    staticinvoke <Env: void sink(java.lang.String)>(n)
    w = u.pwd
    staticinvoke <Env: void sink(java.lang.String)>(w)
    return
  }
}
"#,
        ("Main", "main"),
    );
    let lines = sink_lines(&p, &r);
    assert_eq!(lines.len(), 1, "only u.pwd leaks, not u.name: {r:#?}");
}

#[test]
fn deep_field_chains_are_tracked() {
    let (_, r) = analyze(
        r#"
class A { field b: B }
class B { field c: C }
class C { field s: java.lang.String }
class Main {
  static method main() -> void {
    let a: A
    let b: B
    let c: C
    let t: java.lang.String
    a = new A
    b = new B
    c = new C
    a.b = b
    b.c = c
    t = staticinvoke <Env: java.lang.String source()>()
    c.s = t
    let x: B
    let y: C
    let z: java.lang.String
    x = a.b
    y = x.c
    z = y.s
    staticinvoke <Env: void sink(java.lang.String)>(z)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "{r:#?}");
}

// ====================== Figure 2: on-demand aliasing ======================

#[test]
fn figure2_alias_through_callee_heap_write() {
    // void foo(z) { x = z.g; w = source(); x.f = w; }
    // void main() { a = new A(); b = a.g; foo(a); sink(b.f); }
    let (_, r) = analyze(
        r#"
class A { field g: B }
class B { field f: java.lang.String }
class Main {
  static method foo(z: A) -> void {
    let x: B
    let w: java.lang.String
    x = z.g
    w = staticinvoke <Env: java.lang.String source()>()
    x.f = w
    return
  }
  static method main() -> void {
    let a: A
    let b: B
    let t: java.lang.String
    a = new A
    b = a.g
    staticinvoke <Main: void foo(A)>(a)
    t = b.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "the b.f alias must be found: {r:#?}");
}

#[test]
fn figure2_no_alias_analysis_misses_the_leak() {
    let config = InfoflowConfig::default().with_alias_analysis(false);
    let (_, r) = analyze_with(
        &config,
        r#"
class A { field g: B }
class B { field f: java.lang.String }
class Main {
  static method foo(z: A) -> void {
    let x: B
    let w: java.lang.String
    x = z.g
    w = staticinvoke <Env: java.lang.String source()>()
    x.f = w
    return
  }
  static method main() -> void {
    let a: A
    let b: B
    let t: java.lang.String
    a = new A
    b = a.g
    staticinvoke <Main: void foo(A)>(a)
    t = b.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert!(r.is_clean(), "without the alias analysis the flow is missed");
}

// ====================== Listing 2: context injection ======================

const LISTING2: &str = r#"
class Data { field f: java.lang.String }
class Main {
  static method taintIt(in: java.lang.String, out: Data) -> void {
    let x: Data
    x = out
    x.f = in
    let t: java.lang.String
    t = out.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
  static method main() -> void {
    let p: Data
    let p2: Data
    let s: java.lang.String
    let t: java.lang.String
    p = new Data
    p2 = new Data
    s = staticinvoke <Env: java.lang.String source()>()
    staticinvoke <Main: void taintIt(java.lang.String,Data)>(s, p)
    t = p.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    staticinvoke <Main: void taintIt(java.lang.String,Data)>("public", p2)
    let u: java.lang.String
    u = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;

#[test]
fn listing2_context_injection_blocks_unrealizable_paths() {
    let (p, r) = analyze(LISTING2, ("Main", "main"));
    let lines = sink_lines(&p, &r);
    // Leaks: inside taintIt (line 9, only for the tainted call) and at
    // p.f in main (line 21). NOT at p2.f (line 25).
    assert!(lines.contains(&10), "leak inside taintIt: {lines:?}\n{r:#?}");
    assert!(lines.contains(&23), "leak at p.f: {lines:?}");
    assert!(!lines.contains(&27), "p2.f must NOT leak (context injection): {lines:?}");
}

#[test]
fn listing2_naive_handover_produces_false_positive() {
    let config = InfoflowConfig::default().with_context_injection(false);
    let (p, r) = analyze_with(&config, LISTING2, ("Main", "main"));
    let lines = sink_lines(&p, &r);
    assert!(
        lines.contains(&27),
        "the naive handover ablation must report the unrealizable p2.f leak: {lines:?}"
    );
}

// ====================== Listing 3: activation statements ======================

const LISTING3: &str = r#"
class Data { field f: java.lang.String }
class Main {
  static method main() -> void {
    let p: Data
    let p2: Data
    let t: java.lang.String
    let u: java.lang.String
    let s: java.lang.String
    p = new Data
    p2 = p
    t = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    s = staticinvoke <Env: java.lang.String source()>()
    p.f = s
    u = p2.f
    staticinvoke <Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;

#[test]
fn listing3_activation_statements_keep_flow_sensitivity() {
    let (p, r) = analyze(LISTING3, ("Main", "main"));
    let lines = sink_lines(&p, &r);
    assert!(!lines.contains(&13), "sink before the write must not leak: {lines:?}\n{r:#?}");
    assert!(lines.contains(&17), "sink after the write must leak: {lines:?}");
}

#[test]
fn listing3_without_activation_is_flow_insensitive() {
    let config = InfoflowConfig::default().with_activation_statements(false);
    let (p, r) = analyze_with(&config, LISTING3, ("Main", "main"));
    let lines = sink_lines(&p, &r);
    assert!(
        lines.contains(&13),
        "the Andromeda-style ablation reports the early sink too: {lines:?}"
    );
    assert!(lines.contains(&17));
}

// ====================== misc semantics ======================

#[test]
fn arrays_are_index_insensitive() {
    // Storing tainted data at index 1 and leaking index 0 is a known
    // false positive (paper §6.1, ArrayAccess tests).
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let a: java.lang.String[]
    let s: java.lang.String
    let t: java.lang.String
    a = newarray java.lang.String[2]
    s = staticinvoke <Env: java.lang.String source()>()
    a[1] = s
    t = a[0]
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "conservative array handling reports this");
}

#[test]
fn no_strong_updates_on_heap() {
    // Overwriting a tainted field with a constant does not kill the
    // taint (paper §6.1: Button2 false positive).
    let (_, r) = analyze(
        r#"
class D { field f: java.lang.String }
class Main {
  static method main() -> void {
    let d: D
    let s: java.lang.String
    let t: java.lang.String
    d = new D
    s = staticinvoke <Env: java.lang.String source()>()
    d.f = s
    d.f = "clean"
    t = d.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "no strong updates on the heap");
}

#[test]
fn string_concat_propagates_taint() {
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let s: java.lang.String
    let t: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    t = s + "_suffix"
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1);
}

#[test]
fn static_fields_flow_across_methods() {
    let (_, r) = analyze(
        r#"
class G { static field data: java.lang.String }
class Main {
  static method store() -> void {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    static G.data = s
    return
  }
  static method main() -> void {
    staticinvoke <Main: void store()>()
    let t: java.lang.String
    t = static G.data
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "{r:#?}");
}

#[test]
fn new_allocation_kills_taints() {
    let (_, r) = analyze(
        r#"
class D { field f: java.lang.String }
class Main {
  static method main() -> void {
    let d: D
    let s: java.lang.String
    let t: java.lang.String
    d = new D
    s = staticinvoke <Env: java.lang.String source()>()
    d.f = s
    d = new D
    t = d.f
    staticinvoke <Env: void sink(java.lang.String)>(t)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert!(r.is_clean(), "reallocation kills taints rooted at the local: {r:#?}");
}

#[test]
fn taint_through_collections_wrapper() {
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let l: java.util.ArrayList
    let s: java.lang.String
    let o: java.lang.Object
    l = new java.util.ArrayList
    specialinvoke l.<java.util.ArrayList: void <init>()>()
    s = staticinvoke <Env: java.lang.String source()>()
    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>(s)
    o = virtualinvoke l.<java.util.ArrayList: java.lang.Object get(int)>(0)
    staticinvoke <Env: void sinkObj(java.lang.Object)>(o)
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert_eq!(r.leak_count(), 1, "collection wrapper rules: {r:#?}");
}

#[test]
fn unreachable_code_is_not_analyzed() {
    let (_, r) = analyze(
        r#"
class Main {
  static method main() -> void {
    let s: java.lang.String
    s = staticinvoke <Env: java.lang.String source()>()
    goto end
  label dead:
    staticinvoke <Env: void sink(java.lang.String)>(s)
    goto end
  label end:
    return
  }
}
"#,
        ("Main", "main"),
    );
    assert!(r.is_clean(), "the sink is unreachable: {r:#?}");
}
