//! Case generators for the SecuriBench-Micro-style suite.
//!
//! Cases are generated structurally (not copy-pasted): the Basic group
//! enumerates carrier × sink-position × obfuscation combinations, the
//! other groups enumerate hand-designed structural variants of their
//! theme. Every case is a self-contained `jasm` compilation unit with a
//! `main` entry point.

use crate::Group;

/// One generated micro case.
#[derive(Clone, Debug)]
pub struct MicroCase {
    /// Unique case name (e.g. `Basic17`).
    pub name: String,
    /// The group the case belongs to.
    pub group: Group,
    /// Real leaks in the case.
    pub expected_leaks: usize,
    /// False positives the conservative analysis is *expected* to
    /// report on this case (documented imprecision).
    pub planned_fps: usize,
    /// Whether the documented-limitation mechanism makes the analysis
    /// miss this case's leaks (reflection, threads).
    pub planned_miss: bool,
    /// The `jasm` code.
    pub code: String,
    /// The class containing `main`.
    pub entry_class: String,
}

impl MicroCase {
    fn new(
        name: String,
        group: Group,
        expected_leaks: usize,
        planned_fps: usize,
        planned_miss: bool,
        entry_class: String,
        code: String,
    ) -> MicroCase {
        MicroCase { name, group, expected_leaks, planned_fps, planned_miss, code, entry_class }
    }

    /// The number of leaks the reproduced FlowDroid is expected to
    /// report on this case.
    pub fn expected_reported(&self) -> usize {
        if self.planned_miss {
            0
        } else {
            self.expected_leaks + self.planned_fps
        }
    }
}

/// All cases of all groups.
pub fn all_cases() -> Vec<MicroCase> {
    Group::all().iter().flat_map(|&g| cases_in(g)).collect()
}

/// The cases of one group.
pub fn cases_in(group: Group) -> Vec<MicroCase> {
    match group {
        Group::Aliasing => aliasing(),
        Group::Arrays => arrays(),
        Group::Basic => basic(),
        Group::Collections => collections(),
        Group::Datastructure => datastructure(),
        Group::Factory => factory(),
        Group::Inter => inter(),
        Group::Session => session(),
        Group::StrongUpdates => strong_updates(),
    }
}

const SRC: &str = r#"staticinvoke <securibench.Env: java.lang.String source()>()"#;

fn sink(v: &str) -> String {
    format!("staticinvoke <securibench.Env: void sink(java.lang.String)>({v})")
}

// ===================== Basic =====================

/// 60 cases: 10 carriers × 3 sink positions × 2 obfuscations, with the
/// last two replaced by reflective-dispatch variants the analysis
/// cannot resolve (the paper's 58/60).
fn basic() -> Vec<MicroCase> {
    let mut out = Vec::new();
    let mut i = 0;
    for carrier in 0..10 {
        for sink_pos in 0..3 {
            for obf in 0..2 {
                let name = format!("Basic{i}");
                let cls = format!("securibench.basic.Case{i}");
                if i >= 58 {
                    out.push(reflective_basic(i, &name, &cls));
                } else {
                    out.push(basic_case(&name, &cls, carrier, sink_pos, obf == 1));
                }
                i += 1;
            }
        }
    }
    out
}

fn basic_case(name: &str, cls: &str, carrier: usize, sink_pos: usize, obf: bool) -> MicroCase {
    // The carrier computes tainted `v` from source `s`.
    let (aux_classes, carrier_code, aux_methods) = match carrier {
        0 => (String::new(), "    v = s\n".to_owned(), String::new()),
        1 => (String::new(), "    v = s + \"x\"\n".to_owned(), String::new()),
        2 => (
            String::new(),
            "    let sb: java.lang.StringBuilder\n    sb = new java.lang.StringBuilder\n    specialinvoke sb.<java.lang.StringBuilder: void <init>()>()\n    sb = virtualinvoke sb.<java.lang.StringBuilder: java.lang.StringBuilder append(java.lang.String)>(s)\n    v = virtualinvoke sb.<java.lang.StringBuilder: java.lang.String toString()>()\n".to_string(),
            String::new(),
        ),
        3 => (
            format!("class {cls}$Data extends java.lang.Object {{\n  field f: java.lang.String\n  method <init>() -> void {{ return }}\n}}\n"),
            format!(
                "    let d: {cls}$Data\n    d = new {cls}$Data\n    specialinvoke d.<{cls}$Data: void <init>()>()\n    d.f = s\n    v = d.f\n"
            ),
            String::new(),
        ),
        4 => (
            String::new(),
            format!("    static {cls}.g = s\n    v = static {cls}.g\n"),
            String::new(),
        ),
        5 => (
            String::new(),
            "    let a: java.lang.String[]\n    a = newarray java.lang.String[2]\n    a[0] = s\n    v = a[0]\n".to_owned(),
            String::new(),
        ),
        6 => (
            String::new(),
            format!("    v = staticinvoke <{cls}: java.lang.String id(java.lang.String)>(s)\n"),
            "  static method id(x: java.lang.String) -> java.lang.String {\n    return x\n  }\n".to_string(),
        ),
        7 => (
            format!("class {cls}$Box extends java.lang.Object {{\n  field val: java.lang.String\n  method <init>() -> void {{ return }}\n}}\n"),
            format!(
                "    let b: {cls}$Box\n    b = new {cls}$Box\n    specialinvoke b.<{cls}$Box: void <init>()>()\n    staticinvoke <{cls}: void fill({cls}$Box,java.lang.String)>(b, s)\n    v = b.val\n"
            ),
            format!("  static method fill(b: {cls}$Box, x: java.lang.String) -> void {{\n    b.val = x\n    return\n  }}\n"),
        ),
        8 => (
            String::new(),
            "    if opaque goto alt\n    v = s\n    goto merged\n  label alt:\n    v = s + \"y\"\n  label merged:\n".to_owned(),
            String::new(),
        ),
        _ => (
            String::new(),
            "    let i: int\n    v = \"\"\n    i = 0\n  label top:\n    if i >= 3 goto done\n    v = v + s\n    i = i + 1\n    goto top\n  label done:\n".to_owned(),
            String::new(),
        ),
    };
    let obf_code = if obf { "    v = v + \"_\"\n" } else { "" };
    let (sink_code, sink_methods) = match sink_pos {
        0 => (format!("    {}\n", sink("v")), String::new()),
        1 => (
            format!("    staticinvoke <{cls}: void leak(java.lang.String)>(v)\n"),
            format!("  static method leak(x: java.lang.String) -> void {{\n    {}\n    return\n  }}\n", sink("x")),
        ),
        _ => (
            format!("    staticinvoke <{cls}: void hop(java.lang.String)>(v)\n"),
            format!(
                "  static method hop(x: java.lang.String) -> void {{\n    staticinvoke <{cls}: void leak(java.lang.String)>(x)\n    return\n  }}\n  static method leak(x: java.lang.String) -> void {{\n    {}\n    return\n  }}\n",
                sink("x")
            ),
        ),
    };
    let static_field = if carrier == 4 { "  static field g: java.lang.String\n" } else { "" };
    let code = format!(
        "class {cls} extends java.lang.Object {{\n{static_field}  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    s = {SRC}\n{carrier_code}{obf_code}{sink_code}    return\n  }}\n{aux_methods}{sink_methods}}}\n{aux_classes}"
    );
    MicroCase::new(name.to_owned(), Group::Basic, 1, 0, false, cls.to_owned(), code)
}

/// A leak dispatched through an unresolvable reflective call: expected
/// 1 real leak, reported 0 (documented limitation, §5).
fn reflective_basic(i: usize, name: &str, cls: &str) -> MicroCase {
    let variant = if i.is_multiple_of(2) { "run" } else { "call" };
    let code = format!(
        r#"class {cls} extends java.lang.Object {{
  static method main() -> void {{
    let s: java.lang.String
    let m: java.lang.reflect.Method
    s = {SRC}
    m = staticinvoke <{cls}: java.lang.reflect.Method lookup(java.lang.String)>("{variant}")
    virtualinvoke m.<java.lang.reflect.Method: java.lang.Object invoke(java.lang.Object,java.lang.String)>(null, s)
    return
  }}
  static native method lookup(n: java.lang.String) -> java.lang.reflect.Method
  static method {variant}(x: java.lang.String) -> void {{
    {snk}
    return
  }}
}}
"#,
        snk = sink("x"),
    );
    MicroCase::new(name.to_owned(), Group::Basic, 1, 0, true, cls.to_owned(), code)
}

// ===================== Aliasing =====================

fn aliasing() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..11 {
        let name = format!("Aliasing{i}");
        let cls = format!("securibench.alias.Case{i}");
        let holder = format!("{cls}$H");
        let header = format!(
            "class {holder} extends java.lang.Object {{\n  field f: java.lang.String\n  field inner: {holder}\n  method <init>() -> void {{ return }}\n}}\n"
        );
        let body = match i {
            // Local alias, write through one name, read the other.
            0 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    a.f = s\n    v = b.f\n"),
            // Reverse: write through the alias, read the original.
            1 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    b.f = s\n    v = a.f\n"),
            // Alias established *before* the taint (activation order).
            2 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    v = b.f\n    {early}\n    a.f = s\n    v = b.f\n", early = sink("v")),
            // Alias created in a callee (Figure 2 shape).
            3 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = staticinvoke <{cls}: {holder} same({holder})>(a)\n    a.f = s\n    v = b.f\n"),
            // Taint written in a callee, read through the alias.
            4 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    staticinvoke <{cls}: void poison({holder},java.lang.String)>(a, s)\n    v = b.f\n"),
            // Two-level: alias of an inner object.
            5 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    c = new {holder}\n    specialinvoke c.<{holder}: void <init>()>()\n    a.inner = c\n    b = a.inner\n    c.f = s\n    v = b.f\n"),
            // Alias through an array cell.
            6 => format!("    let arr: {holder}[]\n    arr = newarray {holder}[1]\n    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    arr[0] = a\n    b = arr[0]\n    a.f = s\n    v = b.f\n"),
            // Chained locals.
            7 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    c = b\n    c.f = s\n    v = a.f\n"),
            // Alias through a cast.
            8 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    o = (java.lang.Object) a\n    b = ({holder}) o\n    b.f = s\n    v = a.f\n"),
            // Aliased box passed to a callee that leaks it.
            9 => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    a.f = s\n    staticinvoke <{cls}: void leakField({holder})>(b)\n    v = \"done\"\n"),
            // Alias of an alias.
            _ => format!("    a = new {holder}\n    specialinvoke a.<{holder}: void <init>()>()\n    b = a\n    c = b\n    a.f = s\n    v = c.f\n"),
        };
        // Case 9 leaks inside the callee; others leak v in main.
        let main_sink = if i == 9 { String::new() } else { format!("    {}\n", sink("v")) };
        let helpers = format!(
            "  static method same(x: {holder}) -> {holder} {{\n    return x\n  }}\n  static method poison(x: {holder}, t: java.lang.String) -> void {{\n    x.f = t\n    return\n  }}\n  static method leakField(x: {holder}) -> void {{\n    let w: java.lang.String\n    w = x.f\n    {snk}\n    return\n  }}\n",
            snk = sink("w"),
        );
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let a: {holder}\n    let b: {holder}\n    let c: {holder}\n    let o: java.lang.Object\n    s = {SRC}\n{body}{main_sink}    return\n  }}\n{helpers}}}\n{header}"
        );
        out.push(MicroCase::new(name, Group::Aliasing, 1, 0, false, cls, code));
    }
    out
}

// ===================== Arrays =====================

fn arrays() -> Vec<MicroCase> {
    let mut out = Vec::new();
    // 9 real leaks.
    for i in 0..9 {
        let name = format!("Arrays{i}");
        let cls = format!("securibench.arrays.Case{i}");
        let body = match i {
            0 => "    a[0] = s\n    v = a[0]\n".to_owned(),
            1 => "    a[1] = s\n    v = a[1]\n".to_owned(),
            2 => "    let i: int\n    i = 0\n  label top:\n    if i >= 2 goto done\n    a[i] = s\n    i = i + 1\n    goto top\n  label done:\n    v = a[0]\n".to_owned(),
            3 => format!("    a[0] = s\n    v = staticinvoke <{cls}: java.lang.String first(java.lang.String[])>(a)\n"),
            4 => format!("    a = staticinvoke <{cls}: java.lang.String[] make(java.lang.String)>(s)\n    v = a[0]\n"),
            5 => "    let b: java.lang.String[]\n    a[0] = s\n    b = newarray java.lang.String[2]\n    staticinvoke <java.lang.System: void arraycopy(java.lang.Object,int,java.lang.Object,int,int)>(a, 0, b, 0, 2)\n    v = b[0]\n".to_owned(),
            6 => "    let b: java.lang.String[]\n    a[0] = s\n    b = a\n    v = b[1]\n".to_owned(),
            7 => "    let c: char[]\n    let ch: char\n    c = virtualinvoke s.<java.lang.String: char[] toCharArray()>()\n    ch = c[0]\n    v = \"\" + ch\n".to_owned(),
            _ => "    a[0] = s\n    a[1] = \"x\"\n    v = a[0]\n".to_owned(),
        };
        let helpers = "  static method first(x: java.lang.String[]) -> java.lang.String {\n    let r: java.lang.String\n    r = x[0]\n    return r\n  }\n  static method make(t: java.lang.String) -> java.lang.String[] {\n    let x: java.lang.String[]\n    x = newarray java.lang.String[1]\n    x[0] = t\n    return x\n  }\n".to_string();
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let a: java.lang.String[]\n    a = newarray java.lang.String[2]\n    s = {SRC}\n{body}    {snk}\n    return\n  }}\n{helpers}}}\n",
            snk = sink("v"),
        );
        out.push(MicroCase::new(name, Group::Arrays, 1, 0, false, cls, code));
    }
    // 6 planned false positives: a clean element is leaked while a
    // sibling element is tainted (index-insensitive handling).
    for i in 0..6 {
        let name = format!("ArraysFP{i}");
        let cls = format!("securibench.arrays.Fp{i}");
        let body = match i {
            0 => "    a[1] = s\n    a[0] = \"clean\"\n    v = a[0]\n".to_owned(),
            1 => "    a[0] = \"clean\"\n    a[1] = s\n    v = a[0]\n".to_owned(),
            2 => "    let i: int\n    i = 1\n    a[i] = s\n    v = a[0]\n".to_owned(),
            3 => "    let b: java.lang.String[]\n    b = newarray java.lang.String[2]\n    a[1] = s\n    b[0] = \"clean\"\n    staticinvoke <java.lang.System: void arraycopy(java.lang.Object,int,java.lang.Object,int,int)>(a, 0, b, 0, 1)\n    v = b[0]\n".to_owned(),
            4 => "    let i: int\n    i = 3 - 2\n    a[i] = s\n    v = a[0]\n".to_owned(),
            _ => "    a[1] = s\n    v = a[0]\n    v = v + \"!\"\n".to_owned(),
        };
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let a: java.lang.String[]\n    a = newarray java.lang.String[2]\n    s = {SRC}\n{body}    {snk}\n    return\n  }}\n}}\n",
            snk = sink("v"),
        );
        out.push(MicroCase::new(name, Group::Arrays, 0, 1, false, cls, code));
    }
    out
}

// ===================== Collections =====================

fn collections() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..14 {
        let name = format!("Collections{i}");
        let cls = format!("securibench.coll.Case{i}");
        let body = match i {
            0 => list_body("    e = virtualinvoke l.<java.util.ArrayList: java.lang.Object get(int)>(0)\n"),
            1 => list_body("    let it: java.util.Iterator\n    it = virtualinvoke l.<java.util.ArrayList: java.util.Iterator iterator()>()\n    e = virtualinvoke it.<java.util.Iterator: java.lang.Object next()>()\n"),
            2 => set_body(),
            3 => map_body("k"),
            4 => map_body("v"),
            5 => "    l = new java.util.LinkedList\n    specialinvoke l2.<java.util.LinkedList: void noop()>()\n".to_string(), // replaced below
            _ => String::new(),
        };
        let _ = body;
        // Hand-rolled variants for clarity:
        let code = collections_case(i, &cls);
        out.push(MicroCase::new(name, Group::Collections, 1, 0, false, cls, code));
    }
    for i in 0..3 {
        let name = format!("CollectionsFP{i}");
        let cls = format!("securibench.coll.Fp{i}");
        let container = match i {
            0 => ("java.util.ArrayList", "add"),
            1 => ("java.util.LinkedList", "add"),
            _ => ("java.util.HashSet", "add"),
        };
        let code = format!(
            r#"class {cls} extends java.lang.Object {{
  static method main() -> void {{
    let s: java.lang.String
    let v: java.lang.String
    let e: java.lang.Object
    let l: {c}
    s = {SRC}
    l = new {c}
    specialinvoke l.<{c}: void <init>()>()
    virtualinvoke l.<{c}: boolean {m}(java.lang.Object)>("clean")
    virtualinvoke l.<{c}: boolean {m}(java.lang.Object)>(s)
    e = virtualinvoke l.<{c}: java.lang.Object get(int)>(0)
    v = virtualinvoke e.<java.lang.Object: java.lang.String toString()>()
    {snk}
    return
  }}
}}
"#,
            c = container.0,
            m = container.1,
            snk = sink("v"),
        );
        out.push(MicroCase::new(name, Group::Collections, 0, 1, false, cls, code));
    }
    out
}

fn list_body(get: &str) -> String {
    format!(
        "    l = new java.util.ArrayList\n    specialinvoke l.<java.util.ArrayList: void <init>()>()\n    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>(s)\n{get}"
    )
}

fn set_body() -> String {
    "    h = new java.util.HashSet\n    specialinvoke h.<java.util.HashSet: void <init>()>()\n"
        .to_owned()
}

fn map_body(_which: &str) -> String {
    String::new()
}

fn collections_case(i: usize, cls: &str) -> String {
    let decls = "    let s: java.lang.String\n    let v: java.lang.String\n    let e: java.lang.Object\n    let l: java.util.ArrayList\n    let l2: java.util.ArrayList\n    let h: java.util.HashSet\n    let m: java.util.HashMap\n    let it: java.util.Iterator\n";
    let new_list = "    l = new java.util.ArrayList\n    specialinvoke l.<java.util.ArrayList: void <init>()>()\n";
    let add_s = "    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>(s)\n";
    let get0 = "    e = virtualinvoke l.<java.util.ArrayList: java.lang.Object get(int)>(0)\n";
    let iter_next = "    it = virtualinvoke l.<java.util.ArrayList: java.util.Iterator iterator()>()\n    e = virtualinvoke it.<java.util.Iterator: java.lang.Object next()>()\n";
    let to_v = "    v = virtualinvoke e.<java.lang.Object: java.lang.String toString()>()\n";
    let new_map =
        "    m = new java.util.HashMap\n    specialinvoke m.<java.util.HashMap: void <init>()>()\n";
    let body = match i {
        0 => format!("{new_list}{add_s}{get0}{to_v}"),
        1 => format!("{new_list}{add_s}{iter_next}{to_v}"),
        2 => format!("    h = new java.util.HashSet\n    specialinvoke h.<java.util.HashSet: void <init>()>()\n    virtualinvoke h.<java.util.HashSet: boolean add(java.lang.Object)>(s)\n    it = virtualinvoke h.<java.util.HashSet: java.util.Iterator iterator()>()\n    e = virtualinvoke it.<java.util.Iterator: java.lang.Object next()>()\n{to_v}"),
        3 => format!("{new_map}    virtualinvoke m.<java.util.HashMap: java.lang.Object put(java.lang.Object,java.lang.Object)>(\"k\", s)\n    e = virtualinvoke m.<java.util.HashMap: java.lang.Object get(java.lang.Object)>(\"k\")\n{to_v}"),
        4 => format!("{new_map}    virtualinvoke m.<java.util.HashMap: java.lang.Object put(java.lang.Object,java.lang.Object)>(s, \"val\")\n    e = virtualinvoke m.<java.util.HashMap: java.lang.Object get(java.lang.Object)>(s)\n{to_v}"),
        5 => format!("{new_list}{add_s}    l2 = l\n    e = virtualinvoke l2.<java.util.ArrayList: java.lang.Object get(int)>(0)\n{to_v}"),
        6 => format!("{new_list}{add_s}    e = staticinvoke <{cls}: java.lang.Object fetch(java.util.ArrayList)>(l)\n{to_v}"),
        7 => format!("{new_list}    staticinvoke <{cls}: void put(java.util.ArrayList,java.lang.String)>(l, s)\n{get0}{to_v}"),
        8 => format!("{new_list}{add_s}    l2 = new java.util.ArrayList\n    specialinvoke l2.<java.util.ArrayList: void <init>()>()\n    virtualinvoke l2.<java.util.ArrayList: boolean add(java.lang.Object)>(l)\n    e = virtualinvoke l2.<java.util.ArrayList: java.lang.Object get(int)>(0)\n{to_v}"),
        9 => format!("{new_list}    v = s + \"\"\n    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>(v)\n{get0}{to_v}"),
        10 => format!("{new_list}{add_s}{get0}    v = (java.lang.String) e\n"),
        11 => format!("{new_map}    virtualinvoke m.<java.util.HashMap: java.lang.Object put(java.lang.Object,java.lang.Object)>(\"k\", s)\n    e = staticinvoke <{cls}: java.lang.Object lookup(java.util.HashMap)>(m)\n{to_v}"),
        12 => format!("{new_list}{add_s}    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>(\"after\")\n{get0}{to_v}"),
        _ => format!("{new_list}{add_s}{iter_next}    v = (java.lang.String) e\n"),
    };
    format!(
        "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n{decls}    s = {SRC}\n{body}    {snk}\n    return\n  }}\n  static method fetch(x: java.util.ArrayList) -> java.lang.Object {{\n    let r: java.lang.Object\n    r = virtualinvoke x.<java.util.ArrayList: java.lang.Object get(int)>(0)\n    return r\n  }}\n  static method put(x: java.util.ArrayList, t: java.lang.String) -> void {{\n    virtualinvoke x.<java.util.ArrayList: boolean add(java.lang.Object)>(t)\n    return\n  }}\n  static method lookup(x: java.util.HashMap) -> java.lang.Object {{\n    let r: java.lang.Object\n    r = virtualinvoke x.<java.util.HashMap: java.lang.Object get(java.lang.Object)>(\"k\")\n    return r\n  }}\n}}\n",
        snk = sink("v"),
    )
}

// ===================== Datastructure =====================

fn datastructure() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..5 {
        let name = format!("Datastructure{i}");
        let cls = format!("securibench.ds.Case{i}");
        let node = format!("{cls}$Node");
        let body = match i {
            // Linked node chain.
            0 => format!("    n = new {node}\n    specialinvoke n.<{node}: void <init>()>()\n    n2 = new {node}\n    specialinvoke n2.<{node}: void <init>()>()\n    n.next = n2\n    n2.val = s\n    n3 = n.next\n    v = n3.val\n"),
            // Value stored through a setter, read through a getter.
            1 => format!("    n = new {node}\n    specialinvoke n.<{node}: void <init>()>()\n    virtualinvoke n.<{node}: void setVal(java.lang.String)>(s)\n    v = virtualinvoke n.<{node}: java.lang.String getVal()>()\n"),
            // Two-level wrapper.
            2 => format!("    n = new {node}\n    specialinvoke n.<{node}: void <init>()>()\n    n2 = new {node}\n    specialinvoke n2.<{node}: void <init>()>()\n    n.next = n2\n    virtualinvoke n2.<{node}: void setVal(java.lang.String)>(s)\n    n3 = n.next\n    v = virtualinvoke n3.<{node}: java.lang.String getVal()>()\n"),
            // Cyclic structure (self-loop) — access-path bounding.
            3 => format!("    n = new {node}\n    specialinvoke n.<{node}: void <init>()>()\n    n.next = n\n    n.val = s\n    n2 = n.next\n    n3 = n2.next\n    v = n3.val\n"),
            // Node built by a helper.
            _ => format!("    n = staticinvoke <{cls}: {node} build(java.lang.String)>(s)\n    v = n.val\n"),
        };
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let n: {node}\n    let n2: {node}\n    let n3: {node}\n    s = {SRC}\n{body}    {snk}\n    return\n  }}\n  static method build(t: java.lang.String) -> {node} {{\n    let x: {node}\n    x = new {node}\n    specialinvoke x.<{node}: void <init>()>()\n    x.val = t\n    return x\n  }}\n}}\nclass {node} extends java.lang.Object {{\n  field val: java.lang.String\n  field next: {node}\n  method <init>() -> void {{ return }}\n  method setVal(t: java.lang.String) -> void {{\n    this.val = t\n    return\n  }}\n  method getVal() -> java.lang.String {{\n    let r: java.lang.String\n    r = this.val\n    return r\n  }}\n}}\n",
            snk = sink("v"),
        );
        out.push(MicroCase::new(name, Group::Datastructure, 1, 0, false, cls, code));
    }
    out
}

// ===================== Factory =====================

fn factory() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..3 {
        let name = format!("Factory{i}");
        let cls = format!("securibench.fact.Case{i}");
        let prod = format!("{cls}$P");
        let body = match i {
            // Factory wraps the tainted value in a product object.
            0 => format!("    p = staticinvoke <{cls}: {prod} create(java.lang.String)>(s)\n    v = p.val\n"),
            // Factory returns the tainted string itself.
            1 => format!("    v = staticinvoke <{cls}: java.lang.String produce(java.lang.String)>(s)\n"),
            // Factory selects between two products; one is tainted.
            _ => format!("    if opaque goto clean\n    p = staticinvoke <{cls}: {prod} create(java.lang.String)>(s)\n    goto merge\n  label clean:\n    p = staticinvoke <{cls}: {prod} create(java.lang.String)>(\"c\")\n  label merge:\n    v = p.val\n"),
        };
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let p: {prod}\n    s = {SRC}\n{body}    {snk}\n    return\n  }}\n  static method create(t: java.lang.String) -> {prod} {{\n    let x: {prod}\n    x = new {prod}\n    specialinvoke x.<{prod}: void <init>()>()\n    x.val = t\n    return x\n  }}\n  static method produce(t: java.lang.String) -> java.lang.String {{\n    let r: java.lang.String\n    r = t + \"\"\n    return r\n  }}\n}}\nclass {prod} extends java.lang.Object {{\n  field val: java.lang.String\n  method <init>() -> void {{ return }}\n}}\n",
            snk = sink("v"),
        );
        out.push(MicroCase::new(name, Group::Factory, 1, 0, false, cls, code));
    }
    out
}

// ===================== Inter =====================

fn inter() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..16 {
        let name = format!("Inter{i}");
        let cls = format!("securibench.inter.Case{i}");
        if i >= 14 {
            // Thread hand-off: the Runnable's run() is never modeled
            // (the paper's multi-threading limitation).
            let runnable = format!("{cls}$R");
            let code = format!(
                "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let r: {runnable}\n    let t: java.lang.Thread\n    s = {SRC}\n    r = new {runnable}\n    specialinvoke r.<{runnable}: void <init>()>()\n    r.payload = s\n    t = new java.lang.Thread\n    specialinvoke t.<java.lang.Thread: void <init>(java.lang.Runnable)>(r)\n    virtualinvoke t.<java.lang.Thread: void start()>()\n    return\n  }}\n}}\nclass {runnable} extends java.lang.Object implements java.lang.Runnable {{\n  field payload: java.lang.String\n  method <init>() -> void {{ return }}\n  method run() -> void {{\n    let w: java.lang.String\n    w = this.payload\n    {snk}\n    return\n  }}\n}}\n",
                snk = sink("w"),
            );
            out.push(MicroCase::new(name, Group::Inter, 1, 0, true, cls, code));
            continue;
        }
        // Call chains of depth (i % 5) + 1, alternating static /
        // instance helpers and pass-by-parameter / pass-by-return.
        let depth = (i % 5) + 1;
        let by_return = i % 2 == 0;
        let instance = i >= 7;
        let mut methods = String::new();
        let this_kw = if instance { "method" } else { "static method" };
        for d in 0..depth {
            let next = d + 1;
            if by_return {
                let inner = if next == depth {
                    "    return x\n".to_owned()
                } else if instance {
                    format!("    let r: java.lang.String\n    r = virtualinvoke this.<{cls}: java.lang.String f{next}(java.lang.String)>(x)\n    return r\n")
                } else {
                    format!("    let r: java.lang.String\n    r = staticinvoke <{cls}: java.lang.String f{next}(java.lang.String)>(x)\n    return r\n")
                };
                methods.push_str(&format!(
                    "  {this_kw} f{d}(x: java.lang.String) -> java.lang.String {{\n{inner}  }}\n"
                ));
            } else {
                let inner = if next == depth {
                    format!("    {}\n    return\n", sink("x"))
                } else if instance {
                    format!("    virtualinvoke this.<{cls}: void f{next}(java.lang.String)>(x)\n    return\n")
                } else {
                    format!(
                        "    staticinvoke <{cls}: void f{next}(java.lang.String)>(x)\n    return\n"
                    )
                };
                methods.push_str(&format!(
                    "  {this_kw} f{d}(x: java.lang.String) -> void {{\n{inner}  }}\n"
                ));
            }
        }
        let invoke = if by_return {
            if instance {
                format!("    v = virtualinvoke me.<{cls}: java.lang.String f0(java.lang.String)>(s)\n    {}\n", sink("v"))
            } else {
                format!("    v = staticinvoke <{cls}: java.lang.String f0(java.lang.String)>(s)\n    {}\n", sink("v"))
            }
        } else if instance {
            format!("    virtualinvoke me.<{cls}: void f0(java.lang.String)>(s)\n")
        } else {
            format!("    staticinvoke <{cls}: void f0(java.lang.String)>(s)\n")
        };
        let alloc_me = if instance {
            format!("    me = new {cls}\n    specialinvoke me.<{cls}: void <init>()>()\n")
        } else {
            String::new()
        };
        let ctor = if instance {
            "  method <init>() -> void { return }\n".to_owned()
        } else {
            String::new()
        };
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let me: {cls}\n    s = {SRC}\n{alloc_me}{invoke}    return\n  }}\n{ctor}{methods}}}\n"
        );
        out.push(MicroCase::new(name, Group::Inter, 1, 0, false, cls, code));
    }
    out
}

// ===================== Session =====================

fn session() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..3 {
        let name = format!("Session{i}");
        let cls = format!("securibench.sess.Case{i}");
        let sess = format!("{cls}$Session");
        let body = match i {
            // Attribute set and read through the session API.
            0 => format!("    virtualinvoke ses.<{sess}: void setAttribute(java.lang.String,java.lang.String)>(\"key\", s)\n    v = virtualinvoke ses.<{sess}: java.lang.String getAttribute(java.lang.String)>(\"key\")\n"),
            // Session handed to a helper that stores; main reads.
            1 => format!("    staticinvoke <{cls}: void store({sess},java.lang.String)>(ses, s)\n    v = virtualinvoke ses.<{sess}: java.lang.String getAttribute(java.lang.String)>(\"key\")\n"),
            // Stored in main, leaked by a helper.
            _ => format!("    virtualinvoke ses.<{sess}: void setAttribute(java.lang.String,java.lang.String)>(\"key\", s)\n    staticinvoke <{cls}: void emit({sess})>(ses)\n    v = \"done\"\n"),
        };
        let main_sink = if i == 2 { String::new() } else { format!("    {}\n", sink("v")) };
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    let ses: {sess}\n    s = {SRC}\n    ses = new {sess}\n    specialinvoke ses.<{sess}: void <init>()>()\n{body}{main_sink}    return\n  }}\n  static method store(x: {sess}, t: java.lang.String) -> void {{\n    virtualinvoke x.<{sess}: void setAttribute(java.lang.String,java.lang.String)>(\"key\", t)\n    return\n  }}\n  static method emit(x: {sess}) -> void {{\n    let w: java.lang.String\n    w = virtualinvoke x.<{sess}: java.lang.String getAttribute(java.lang.String)>(\"key\")\n    {snk}\n    return\n  }}\n}}\nclass {sess} extends java.lang.Object {{\n  field attr: java.lang.String\n  method <init>() -> void {{ return }}\n  method setAttribute(k: java.lang.String, val: java.lang.String) -> void {{\n    this.attr = val\n    return\n  }}\n  method getAttribute(k: java.lang.String) -> java.lang.String {{\n    let r: java.lang.String\n    r = this.attr\n    return r\n  }}\n}}\n",
            snk = sink("w"),
        );
        out.push(MicroCase::new(name, Group::Session, 1, 0, false, cls, code));
    }
    out
}

// ===================== StrongUpdates =====================

/// All cases overwrite the tainted *local* before the sink: no real
/// leak, and the analysis's strong updates on locals keep them clean
/// (0 TP / 0 FP in Table 2).
fn strong_updates() -> Vec<MicroCase> {
    let mut out = Vec::new();
    for i in 0..4 {
        let name = format!("StrongUpdates{i}");
        let cls = format!("securibench.su.Case{i}");
        let body = match i {
            0 => "    v = s\n    v = \"clean\"\n".to_owned(),
            1 => "    v = s + \"x\"\n    v = \"clean\" + \"er\"\n".to_owned(),
            2 => format!(
                "    v = staticinvoke <{cls}: java.lang.String scrub(java.lang.String)>(s)\n"
            ),
            _ => "    v = s\n    v = null\n    v = \"fresh\"\n".to_owned(),
        };
        let code = format!(
            "class {cls} extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let v: java.lang.String\n    s = {SRC}\n{body}    {snk}\n    return\n  }}\n  static method scrub(x: java.lang.String) -> java.lang.String {{\n    x = \"scrubbed\"\n    return x\n  }}\n}}\n",
            snk = sink("v"),
        );
        out.push(MicroCase::new(name, Group::StrongUpdates, 0, 0, false, cls, code));
    }
    out
}
