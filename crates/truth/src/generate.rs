//! The scenario grammar and the seeded app generator.
//!
//! Every generated app is a complete package (manifest, layouts, `jasm`
//! code) plus a ground-truth manifest of three counts:
//!
//! * `expected_flows` — real source→sink flows present by construction;
//! * `expected_absent` — flow *shapes* that are present syntactically
//!   but must NOT be reported (killed by a strong update, or reading a
//!   clean sibling of tainted state);
//! * `expected_reported` — what a correct engine reports. Equal to
//!   `expected_flows` on constructive scenarios; documents the paper's
//!   known limitations elsewhere (reflection is missed, unlinked intent
//!   reception false-positives, k-limit widening over-approximation).
//!
//! Generation is deterministic: the same `(seed, per_category)` always
//! produces byte-identical apps, so app names double as content keys.

use flowdroid_ir::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Scenario categories, in the order the generator emits them.
pub const CATEGORIES: &[&str] = &[
    "alias",
    "callback",
    "dispatch",
    "field",
    "icc",
    "lifecycle",
    "reflection",
    "sanitizer",
    "widening",
];

/// The categories on which a correct engine scores precision = recall
/// = 1.0 — everything except the documented-limitation stressors:
/// reflection is missed by design, the negative ICC pair shows the
/// unlinked reception false positive that only linked mode removes,
/// and the widening chains are deeper than the default access-path
/// bound, so the truncated covering prefix reports a clean sibling
/// field as leaked (the paper's k-limiting trade-off).
pub const CONSTRUCTIVE_CATEGORIES: &[&str] =
    &["alias", "callback", "dispatch", "field", "lifecycle", "sanitizer"];

/// One generated app with its ground-truth manifest.
#[derive(Clone, Debug)]
pub struct TruthApp {
    /// Unique corpus name: `truth/<category>/s<seed>-<index>[…]`.
    /// Doubles as the content key in the daemon's prepared-job cache, so
    /// the generator must stay deterministic per name.
    pub name: String,
    /// Scenario category (one of [`CATEGORIES`]).
    pub category: &'static str,
    /// Whether a correct engine scores 1.0/1.0 on this app.
    pub constructive: bool,
    /// Real flows present by construction.
    pub expected_flows: usize,
    /// Syntactic near-flows that must NOT be reported.
    pub expected_absent: usize,
    /// What a correct engine reports (documents known limitations).
    pub expected_reported: usize,
    /// For ICC pairs: the leak count the *linked* two-phase ICC
    /// analysis must report (`core::icc::analyze_app_linked`).
    pub expected_linked: Option<usize>,
    /// `AndroidManifest.xml` text.
    pub manifest: String,
    /// `(layout name, layout XML)` pairs.
    pub layouts: Vec<(String, String)>,
    /// `classes.jasm` source.
    pub code: String,
}

impl TruthApp {
    /// Wraps the app as a corpus job for the bench driver.
    pub fn job(&self) -> flowdroid_bench::CorpusJob {
        flowdroid_bench::external_job(
            self.name.clone(),
            self.manifest.clone(),
            self.layouts.clone(),
            self.code.clone(),
        )
    }

    /// The ground-truth manifest as JSON (embedded in `.rpk` exports as
    /// `truth.json`; the app loader ignores unknown archive entries).
    pub fn truth_json(&self) -> String {
        let linked = match self.expected_linked {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\n",
                "  \"name\": \"{}\",\n",
                "  \"category\": \"{}\",\n",
                "  \"constructive\": {},\n",
                "  \"expected_flows\": {},\n",
                "  \"expected_absent\": {},\n",
                "  \"expected_reported\": {},\n",
                "  \"expected_linked\": {}\n",
                "}}\n"
            ),
            self.name,
            self.category,
            self.constructive,
            self.expected_flows,
            self.expected_absent,
            self.expected_reported,
            linked
        )
    }

    /// Serializes the app as a `.rpk` archive with the ground-truth
    /// manifest riding along as `truth.json`.
    pub fn rpk_bytes(&self) -> Vec<u8> {
        let layouts: Vec<(&str, &str)> =
            self.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        let mut archive = flowdroid_frontend::App::bundle(&self.manifest, &layouts, &self.code);
        archive.add("truth.json", self.truth_json().as_bytes());
        archive.to_bytes()
    }
}

/// Generates the whole corpus: `per_category` apps per category (the
/// `icc` category yields a positive *and* a negative pair app per
/// index). Deterministic in `(seed, per_category)`.
pub fn generate_corpus(seed: u64, per_category: usize) -> Vec<TruthApp> {
    let mut out = Vec::new();
    for &category in CATEGORIES {
        for index in 0..per_category {
            let mut rng = rng_for(seed, category, index);
            match category {
                "alias" => out.push(gen_alias(seed, index, &mut rng)),
                "callback" => out.push(gen_callback(seed, index, &mut rng)),
                "dispatch" => out.push(gen_dispatch(seed, index, &mut rng)),
                "field" => out.push(gen_field(seed, index, &mut rng)),
                "icc" => {
                    out.push(gen_icc(seed, index, true));
                    out.push(gen_icc(seed, index, false));
                }
                "lifecycle" => out.push(gen_lifecycle(seed, index, &mut rng)),
                "reflection" => out.push(gen_reflection(seed, index)),
                "sanitizer" => out.push(gen_sanitizer(seed, index, &mut rng)),
                "widening" => out.push(gen_widening(seed, index, &mut rng)),
                other => unreachable!("unknown category {other}"),
            }
        }
    }
    out
}

/// Per-(category, index) RNG: a seed split keyed by the category name
/// so adding a category never reshuffles the others.
fn rng_for(seed: u64, category: &str, index: usize) -> StdRng {
    let h = fnv1a64(category.as_bytes());
    StdRng::seed_from_u64(seed ^ h ^ (index as u64).wrapping_mul(0x9e37_79b9))
}

fn app_name(category: &str, seed: u64, index: usize) -> String {
    format!("truth/{category}/s{seed}-{index}")
}

fn single_activity_manifest(pkg: &str) -> String {
    format!(
        r#"<manifest package="{pkg}">
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#
    )
}

/// Locals + statements acquiring the IMEI into `id` (assumes `this` is
/// a `Context` subclass).
const IMEI_LOCALS: &str = "    let o: java.lang.Object\n    let tm: android.telephony.TelephonyManager\n    let id: java.lang.String\n";
const GET_IMEI: &str = "    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>(\"phone\")\n    tm = (android.telephony.TelephonyManager) o\n    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()\n";

/// One of the `Log` sinks (`_SINK_PARAM_1_` in the default rules).
fn log_sink(rng: &mut StdRng, tag: &str, var: &str) -> String {
    let m = ["i", "d", "e"][rng.gen_range(0..3usize)];
    format!(
        "    staticinvoke <android.util.Log: int {m}(java.lang.String,java.lang.String)>(\"{tag}\", {var})\n"
    )
}

/// A chain of `depth` taint-preserving static helper methods. Returns
/// `(helper class code, locals, call statements, final variable)`;
/// `depth` 0 yields no helper and passes `input` through unchanged.
fn helper_chain(pkg: &str, depth: usize, input: &str) -> (String, String, String, String) {
    if depth == 0 {
        return (String::new(), String::new(), String::new(), input.to_string());
    }
    let mut class = format!("class {pkg}.Help extends java.lang.Object {{\n");
    for i in 0..depth {
        write!(
            class,
            "  static method w{i}(x: java.lang.String) -> java.lang.String {{\n    let r: java.lang.String\n    r = x + \"#\"\n    return r\n  }}\n"
        )
        .unwrap();
    }
    class.push_str("}\n");
    let mut locals = String::new();
    let mut calls = String::new();
    let mut prev = input.to_string();
    for i in 0..depth {
        writeln!(locals, "    let h{i}: java.lang.String").unwrap();
        writeln!(
            calls,
            "    h{i} = staticinvoke <{pkg}.Help: java.lang.String w{i}(java.lang.String)>({prev})"
        )
        .unwrap();
        prev = format!("h{i}");
    }
    (class, locals, calls, prev)
}

/// `field`: tainted data in one field of a data object, clean decoy
/// siblings leaked alongside — the tainted read is the only flow.
fn gen_field(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.fd{index}");
    let decoys = rng.gen_range(1..=3usize);
    let chain = rng.gen_range(0..=2usize);
    let (help, hlocals, hcalls, tainted) = helper_chain(&pkg, chain, "id");

    let mut code = format!(
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    );
    code.push_str(IMEI_LOCALS);
    code.push_str(&hlocals);
    code.push_str("    let d: ");
    code.push_str(&pkg);
    code.push_str(".Data\n    let t: java.lang.String\n    let u: java.lang.String\n");
    code.push_str(GET_IMEI);
    code.push_str(&hcalls);
    writeln!(code, "    d = new {pkg}.Data").unwrap();
    writeln!(code, "    specialinvoke d.<{pkg}.Data: void <init>()>()").unwrap();
    writeln!(code, "    d.secret = {tainted}").unwrap();
    for i in 0..decoys {
        writeln!(code, "    d.pub{i} = \"plain{i}\"").unwrap();
    }
    // The expected-absent flow: a clean sibling field of the same
    // object reaches a sink; field-insensitive tools false-alarm here.
    let decoy = rng.gen_range(0..decoys);
    writeln!(code, "    u = d.pub{decoy}").unwrap();
    code.push_str(&log_sink(rng, "OK", "u"));
    code.push_str("    t = d.secret\n");
    code.push_str(&log_sink(rng, "T", "t"));
    code.push_str("    return\n  }\n}\n");
    write!(code, "class {pkg}.Data extends java.lang.Object {{\n  field secret: java.lang.String\n").unwrap();
    for i in 0..decoys {
        writeln!(code, "  field pub{i}: java.lang.String").unwrap();
    }
    code.push_str("  method <init>() -> void {\n    return\n  }\n}\n");
    code.push_str(&help);

    TruthApp {
        name: app_name("field", seed, index),
        category: "field",
        constructive: true,
        expected_flows: 1,
        expected_absent: 1,
        expected_reported: 1,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `alias`: the taint is written through one heap alias and read
/// through another (`outer.inner` vs. the local the object was built
/// in), with a clean sibling read through the same alias as the
/// expected-absent flow — the backward alias analysis must connect the
/// two without over-tainting the sibling.
fn gen_alias(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.al{index}");
    let chain = rng.gen_range(0..=2usize);
    let (help, hlocals, hcalls, tainted) = helper_chain(&pkg, chain, "id");

    let mut code = format!(
        "class {pkg}.Outer extends java.lang.Object {{\n  field inner: {pkg}.Inner\n  method <init>() -> void {{\n    return\n  }}\n}}\nclass {pkg}.Inner extends java.lang.Object {{\n  field secret: java.lang.String\n  field pub: java.lang.String\n  method <init>() -> void {{\n    return\n  }}\n}}\n"
    );
    write!(
        code,
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    )
    .unwrap();
    code.push_str(IMEI_LOCALS);
    code.push_str(&hlocals);
    writeln!(code, "    let w: {pkg}.Outer").unwrap();
    writeln!(code, "    let i: {pkg}.Inner").unwrap();
    writeln!(code, "    let j: {pkg}.Inner").unwrap();
    code.push_str("    let t: java.lang.String\n    let u: java.lang.String\n");
    code.push_str(GET_IMEI);
    code.push_str(&hcalls);
    writeln!(code, "    w = new {pkg}.Outer").unwrap();
    writeln!(code, "    specialinvoke w.<{pkg}.Outer: void <init>()>()").unwrap();
    writeln!(code, "    i = new {pkg}.Inner").unwrap();
    writeln!(code, "    specialinvoke i.<{pkg}.Inner: void <init>()>()").unwrap();
    // Alias first, taint after: `w.inner` and `i` must be recognized
    // as the same object for the flow to be found.
    code.push_str("    w.inner = i\n");
    writeln!(code, "    i.secret = {tainted}").unwrap();
    code.push_str("    i.pub = \"plain\"\n");
    code.push_str("    j = w.inner\n");
    code.push_str("    u = j.pub\n");
    code.push_str(&log_sink(rng, "OK", "u"));
    code.push_str("    t = j.secret\n");
    code.push_str(&log_sink(rng, "T", "t"));
    code.push_str("    return\n  }\n}\n");
    code.push_str(&help);

    TruthApp {
        name: app_name("alias", seed, index),
        category: "alias",
        constructive: true,
        expected_flows: 1,
        expected_absent: 1,
        expected_reported: 1,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `callback`: an XML-declared `onClick` handler leaks the IMEI; the
/// other generated handlers log constants. Exercises layout callback
/// discovery and per-component association.
fn gen_callback(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.cb{index}");
    let buttons = rng.gen_range(1..=3usize);
    let leak_at = rng.gen_range(0..buttons);

    let mut layout = "<LinearLayout xmlns:android=\"http://schemas.android.com/apk/res/android\">\n".to_string();
    for b in 0..buttons {
        writeln!(layout, "  <Button android:id=\"@+id/b{b}\" android:onClick=\"h{b}\"/>").unwrap();
    }
    layout.push_str("</LinearLayout>");

    let mut code = format!(
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)\n    return\n  }}\n"
    );
    for b in 0..buttons {
        writeln!(code, "  method h{b}(v: android.view.View) -> void {{").unwrap();
        if b == leak_at {
            code.push_str(IMEI_LOCALS);
            code.push_str(GET_IMEI);
            code.push_str(&log_sink(rng, "T", "id"));
        } else {
            code.push_str(&log_sink(rng, "OK", "\"idle\""));
        }
        code.push_str("    return\n  }\n");
    }
    code.push_str("}\n");

    TruthApp {
        name: app_name("callback", seed, index),
        category: "callback",
        constructive: true,
        expected_flows: 1,
        expected_absent: 0,
        expected_reported: 1,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![("main".to_string(), layout)],
        code,
    }
}

/// `lifecycle`: taint parked in a static field by `onCreate` leaks in a
/// later lifecycle callback — only findable with the create→…→stop
/// transition model.
fn gen_lifecycle(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.lc{index}");
    let chain = rng.gen_range(0..=1usize);
    let (help, hlocals, hcalls, tainted) = helper_chain(&pkg, chain, "id");
    let reader = ["onStop", "onPause", "onDestroy"][rng.gen_range(0..3usize)];

    let mut code = format!(
        "class {pkg}.Main extends android.app.Activity {{\n  static field im: java.lang.String\n  static field note: java.lang.String\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    );
    code.push_str(IMEI_LOCALS);
    code.push_str(&hlocals);
    code.push_str(GET_IMEI);
    code.push_str(&hcalls);
    writeln!(code, "    static {pkg}.Main.im = {tainted}").unwrap();
    writeln!(code, "    static {pkg}.Main.note = \"boot\"").unwrap();
    code.push_str("    return\n  }\n");
    writeln!(code, "  method {reader}() -> void {{").unwrap();
    code.push_str("    let t: java.lang.String\n    let u: java.lang.String\n");
    writeln!(code, "    u = static {pkg}.Main.note").unwrap();
    code.push_str(&log_sink(rng, "OK", "u"));
    writeln!(code, "    t = static {pkg}.Main.im").unwrap();
    code.push_str(&log_sink(rng, "T", "t"));
    code.push_str("    return\n  }\n}\n");
    code.push_str(&help);

    TruthApp {
        name: app_name("lifecycle", seed, index),
        category: "lifecycle",
        constructive: true,
        expected_flows: 1,
        expected_absent: 0,
        expected_reported: 1,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `widening`: the taint sits at the end of a linked chain of `depth`
/// nodes, `depth` chosen above the default access-path bound (k = 5),
/// so the path `n0.next^depth.secret` the alias pass derives is cut to
/// its k-prefix, which *covers every suffix*. The real flow (the chain
/// read of `secret`) survives truncation; the clean sibling `note`,
/// read through the same chain, is covered by the truncated prefix too
/// and is reported as a false positive — the paper's documented
/// k-limiting over-approximation, which is exactly what makes this a
/// non-constructive category. The differential runner's k-limit probe
/// re-runs these apps with the bound raised above `depth` and checks
/// the false positive disappears.
fn gen_widening(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.wd{index}");
    let depth = rng.gen_range(6..=9usize);

    let mut code = format!(
        "class {pkg}.Node extends java.lang.Object {{\n  field next: {pkg}.Node\n  field secret: java.lang.String\n  field note: java.lang.String\n  method <init>() -> void {{\n    return\n  }}\n}}\n"
    );
    write!(
        code,
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    )
    .unwrap();
    code.push_str(IMEI_LOCALS);
    for i in 0..=depth {
        writeln!(code, "    let n{i}: {pkg}.Node").unwrap();
    }
    for i in 1..=depth {
        writeln!(code, "    let t{i}: {pkg}.Node").unwrap();
    }
    code.push_str("    let s: java.lang.String\n    let c: java.lang.String\n");
    code.push_str(GET_IMEI);
    for i in 0..=depth {
        writeln!(code, "    n{i} = new {pkg}.Node").unwrap();
        writeln!(code, "    specialinvoke n{i}.<{pkg}.Node: void <init>()>()").unwrap();
    }
    for i in 0..depth {
        writeln!(code, "    n{i}.next = n{}", i + 1).unwrap();
    }
    writeln!(code, "    n{depth}.secret = id").unwrap();
    writeln!(code, "    n{depth}.note = \"benign\"").unwrap();
    // Read the secret back through the full chain from the root.
    writeln!(code, "    t1 = n0.next").unwrap();
    for i in 2..=depth {
        writeln!(code, "    t{i} = t{}.next", i - 1).unwrap();
    }
    writeln!(code, "    s = t{depth}.secret").unwrap();
    code.push_str(&log_sink(rng, "T", "s"));
    // The clean sibling, read through the same deeper-than-k chain:
    // covered by the truncated prefix, reported at the default bound.
    writeln!(code, "    c = t{depth}.note").unwrap();
    code.push_str(&log_sink(rng, "C", "c"));
    code.push_str("    return\n  }\n}\n");

    TruthApp {
        name: app_name("widening", seed, index),
        category: "widening",
        constructive: false,
        expected_flows: 1,
        expected_absent: 1,
        expected_reported: 2,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `sanitizer`: one real leak, plus a path where the tainted local is
/// overwritten with a constant before the sink — the strong update must
/// kill the taint (the expected-absent flow).
fn gen_sanitizer(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.sn{index}");
    let chain = rng.gen_range(0..=2usize);
    let (help, hlocals, hcalls, tainted) = helper_chain(&pkg, chain, "id");

    let mut code = format!(
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    );
    code.push_str(IMEI_LOCALS);
    code.push_str(&hlocals);
    code.push_str("    let v: java.lang.String\n    let w: java.lang.String\n");
    code.push_str(GET_IMEI);
    code.push_str(&hcalls);
    writeln!(code, "    w = {tainted}").unwrap();
    code.push_str(&log_sink(rng, "T", "w"));
    // The kill-path: taint, sanitize by reassignment, then sink.
    code.push_str("    v = id\n");
    code.push_str("    v = \"clean\"\n");
    code.push_str(&log_sink(rng, "S", "v"));
    code.push_str("    return\n  }\n}\n");
    code.push_str(&help);

    TruthApp {
        name: app_name("sanitizer", seed, index),
        category: "sanitizer",
        constructive: true,
        expected_flows: 1,
        expected_absent: 1,
        expected_reported: 1,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `dispatch`: virtual dispatch over an opaque condition selects a
/// tainted or a clean provider subclass — the tainted variant is
/// reachable, one real flow.
fn gen_dispatch(seed: u64, index: usize, rng: &mut StdRng) -> TruthApp {
    let pkg = format!("gt.dp{index}");
    let chain = rng.gen_range(0..=1usize);
    let (help, hlocals, hcalls, tainted) = helper_chain(&pkg, chain, "s");

    let mut code = format!(
        "class {pkg}.General extends java.lang.Object {{\n  method <init>() -> void {{\n    return\n  }}\n  method obtain(t: android.telephony.TelephonyManager) -> java.lang.String {{\n    return \"none\"\n  }}\n}}\nclass {pkg}.VarA extends {pkg}.General {{\n  method <init>() -> void {{\n    return\n  }}\n  method obtain(t: android.telephony.TelephonyManager) -> java.lang.String {{\n    let s: java.lang.String\n    s = virtualinvoke t.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()\n    return s\n  }}\n}}\nclass {pkg}.VarB extends {pkg}.General {{\n  method <init>() -> void {{\n    return\n  }}\n  method obtain(t: android.telephony.TelephonyManager) -> java.lang.String {{\n    return \"constant\"\n  }}\n}}\n"
    );
    write!(
        code,
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    )
    .unwrap();
    code.push_str("    let o: java.lang.Object\n    let tm: android.telephony.TelephonyManager\n");
    writeln!(code, "    let g: {pkg}.General").unwrap();
    code.push_str("    let s: java.lang.String\n");
    code.push_str(&hlocals);
    code.push_str("    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>(\"phone\")\n    tm = (android.telephony.TelephonyManager) o\n");
    code.push_str("    if opaque goto useB\n");
    writeln!(code, "    g = new {pkg}.VarA").unwrap();
    writeln!(code, "    specialinvoke g.<{pkg}.VarA: void <init>()>()").unwrap();
    code.push_str("    goto done\n  label useB:\n");
    writeln!(code, "    g = new {pkg}.VarB").unwrap();
    writeln!(code, "    specialinvoke g.<{pkg}.VarB: void <init>()>()").unwrap();
    code.push_str("  label done:\n");
    writeln!(
        code,
        "    s = virtualinvoke g.<{pkg}.General: java.lang.String obtain(android.telephony.TelephonyManager)>(tm)"
    )
    .unwrap();
    code.push_str(&hcalls);
    code.push_str(&log_sink(rng, "T", &tainted));
    code.push_str("    return\n  }\n}\n");
    code.push_str(&help);

    TruthApp {
        name: app_name("dispatch", seed, index),
        category: "dispatch",
        constructive: true,
        expected_flows: 1,
        expected_absent: 0,
        expected_reported: 1,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `reflection`: the leaking method is reached only through an
/// unresolvable reflective dispatch — a real flow the paper documents
/// as missed (`expected_reported` = 0).
fn gen_reflection(seed: u64, index: usize) -> TruthApp {
    let pkg = format!("gt.rf{index}");
    let mut code = format!(
        "class {pkg}.Main extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    );
    code.push_str(IMEI_LOCALS);
    code.push_str("    let m: java.lang.reflect.Method\n");
    code.push_str(GET_IMEI);
    writeln!(
        code,
        "    m = staticinvoke <{pkg}.Main: java.lang.reflect.Method lookup(java.lang.String)>(\"leak\")"
    )
    .unwrap();
    code.push_str("    virtualinvoke m.<java.lang.reflect.Method: java.lang.Object invoke(java.lang.Object,java.lang.String)>(this, id)\n");
    code.push_str("    return\n  }\n");
    code.push_str("  native static method lookup(name: java.lang.String) -> java.lang.reflect.Method\n");
    code.push_str("  method leak(s: java.lang.String) -> void {\n    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>(\"T\", s)\n    return\n  }\n}\n");

    TruthApp {
        name: app_name("reflection", seed, index),
        category: "reflection",
        constructive: false,
        expected_flows: 1,
        expected_absent: 0,
        expected_reported: 0,
        expected_linked: None,
        manifest: single_activity_manifest(&pkg),
        layouts: vec![],
        code,
    }
}

/// `icc`: a Sender activity and a Receiver activity. The positive pair
/// sends the IMEI in an intent extra the Receiver logs — two real flows
/// (the tainted send, and the cross-component reception→log). The
/// negative pair sends only a constant: zero real flows, but the
/// paper's unlinked model (reception unconditionally a source) still
/// reports the reception→log pair — the documented false positive the
/// linked two-phase mode (`expected_linked`) removes.
fn gen_icc(seed: u64, index: usize, positive: bool) -> TruthApp {
    let role = if positive { "pos" } else { "neg" };
    let pkg = format!("gt.ic{index}{role}");
    let manifest = format!(
        r#"<manifest package="{pkg}">
  <application>
    <activity android:name=".Sender">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
    <activity android:name=".Receiver"/>
  </application>
</manifest>"#
    );

    let mut code = format!(
        "class {pkg}.Sender extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    );
    if positive {
        code.push_str(IMEI_LOCALS);
    }
    code.push_str("    let i: android.content.Intent\n");
    if positive {
        code.push_str(GET_IMEI);
    }
    code.push_str("    i = new android.content.Intent\n    specialinvoke i.<android.content.Intent: void <init>()>()\n");
    if positive {
        code.push_str("    virtualinvoke i.<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)>(\"secret\", id)\n");
    } else {
        code.push_str("    virtualinvoke i.<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)>(\"greeting\", \"hello\")\n");
    }
    code.push_str("    virtualinvoke this.<android.content.Context: void startActivity(android.content.Intent)>(i)\n");
    code.push_str("    return\n  }\n}\n");
    write!(
        code,
        "class {pkg}.Receiver extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n    let i: android.content.Intent\n    let s: java.lang.String\n    i = virtualinvoke this.<android.app.Activity: android.content.Intent getIntent()>()\n    s = virtualinvoke i.<android.content.Intent: java.lang.String getStringExtra(java.lang.String)>(\"secret\")\n    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>(\"T\", s)\n    return\n  }}\n}}\n"
    )
    .unwrap();

    let (expected_flows, expected_reported, expected_linked) =
        if positive { (2, 2, Some(2)) } else { (0, 1, Some(0)) };
    TruthApp {
        name: format!("{}-{role}", app_name("icc", seed, index)),
        category: "icc",
        constructive: positive,
        expected_flows,
        expected_absent: if positive { 0 } else { 1 },
        expected_reported,
        expected_linked,
        manifest,
        layouts: vec![],
        code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_android::install_platform;
    use flowdroid_frontend::App;
    use flowdroid_ir::Program;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_corpus(7, 2);
        let b = generate_corpus(7, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.code, y.code);
            assert_eq!(x.manifest, y.manifest);
        }
        let c = generate_corpus(8, 2);
        assert!(a.iter().zip(&c).any(|(x, y)| x.name != y.name || x.code != y.code));
    }

    #[test]
    fn names_are_unique() {
        let apps = generate_corpus(3, 3);
        let mut names: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        // 8 single-app categories + the icc pair.
        assert_eq!(before, 3 * (CATEGORIES.len() + 1));
    }

    #[test]
    fn every_app_parses() {
        for app in generate_corpus(11, 2) {
            let mut p = Program::new();
            install_platform(&mut p);
            let layouts: Vec<(&str, &str)> =
                app.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
            App::from_parts(&mut p, &app.manifest, &layouts, &app.code)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", app.name));
        }
    }

    #[test]
    fn rpk_round_trips_with_truth_manifest() {
        let app = &generate_corpus(5, 1)[0];
        let bytes = app.rpk_bytes();
        let archive = flowdroid_frontend::Archive::from_bytes(&bytes).unwrap();
        assert_eq!(archive.get_str("truth.json").unwrap(), app.truth_json());
        let mut p = Program::new();
        install_platform(&mut p);
        let loaded = App::from_archive(&mut p, &archive).unwrap();
        assert!(!loaded.classes.is_empty());
    }
}
