//! Property-based metamorphic tests for the whole analysis: soundness
//! on constructed flows, invariance under semantics-preserving program
//! edits, and determinism.

use flowdroid::frontend::layout::ResourceTable;
use flowdroid::prelude::*;
use proptest::prelude::*;

const ENV: &str = r#"
class Env {
  static native method source() -> java.lang.String
  static native method sink(s: java.lang.String) -> void
}
"#;

const DEFS: &str = "\
<Env: java.lang.String source()> -> _SOURCE_\n\
<Env: void sink(java.lang.String)> -> _SINK_\n";

fn analyze(code: &str) -> usize {
    let mut p = Program::new();
    flowdroid::android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, code).unwrap_or_else(|e| panic!("{e}\n{code}"));
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let main = p.find_method("P", "main").unwrap();
    Infoflow::new(&sources, &wrapper, &config).run(&p, &[main]).leak_count()
}

/// Parameters of a generated program: the taint travels through a call
/// chain of `depth` helpers, optionally obfuscated, optionally through
/// a heap field, with `nops` no-ops sprinkled in; `leaky` controls
/// whether the sink sees the tainted or a clean value.
#[derive(Debug, Clone)]
struct Shape {
    depth: usize,
    obfuscate: bool,
    via_field: bool,
    nops: usize,
    leaky: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0usize..4, any::<bool>(), any::<bool>(), 0usize..4, any::<bool>()).prop_map(
        |(depth, obfuscate, via_field, nops, leaky)| Shape {
            depth,
            obfuscate,
            via_field,
            nops,
            leaky,
        },
    )
}

fn render(shape: &Shape) -> String {
    let mut helpers = String::new();
    for d in 0..shape.depth {
        let next = d + 1;
        let inner = if next == shape.depth {
            "    return x\n".to_owned()
        } else {
            format!(
                "    let r: java.lang.String\n    r = staticinvoke <P: java.lang.String f{next}(java.lang.String)>(x)\n    return r\n"
            )
        };
        helpers.push_str(&format!(
            "  static method f{d}(x: java.lang.String) -> java.lang.String {{\n{inner}  }}\n"
        ));
    }
    let nops = "    nop\n".repeat(shape.nops);
    let mut body = String::new();
    body.push_str("    s = staticinvoke <Env: java.lang.String source()>()\n");
    if shape.depth > 0 {
        body.push_str("    s = staticinvoke <P: java.lang.String f0(java.lang.String)>(s)\n");
    }
    if shape.obfuscate {
        body.push_str("    s = s + \"#\"\n");
    }
    if shape.via_field {
        body.push_str(
            "    h = new P$H\n    specialinvoke h.<P$H: void <init>()>()\n    h.f = s\n    s = h.f\n",
        );
    }
    let sunk = if shape.leaky { "s" } else { "c" };
    format!(
        "class P extends java.lang.Object {{\n  static method main() -> void {{\n    let s: java.lang.String\n    let c: java.lang.String\n    let h: P$H\n    c = \"clean\"\n{nops}{body}    staticinvoke <Env: void sink(java.lang.String)>({sunk})\n    return\n  }}\n{helpers}}}\nclass P$H extends java.lang.Object {{\n  field f: java.lang.String\n  method <init>() -> void {{ return }}\n}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness & precision on constructed flows: a program built to
    /// leak reports exactly one leak; a program built clean reports
    /// none.
    #[test]
    fn constructed_flows_are_classified_exactly(shape in shape_strategy()) {
        let code = render(&shape);
        let found = analyze(&code);
        let want = usize::from(shape.leaky);
        prop_assert_eq!(found, want, "shape {:?}\n{}", shape, code);
    }

    /// Determinism: two runs agree.
    #[test]
    fn analysis_is_deterministic(shape in shape_strategy()) {
        let code = render(&shape);
        prop_assert_eq!(analyze(&code), analyze(&code));
    }

    /// Inserting no-ops never changes the verdict.
    #[test]
    fn nop_insertion_is_invariant(shape in shape_strategy()) {
        let mut with_nops = shape.clone();
        with_nops.nops = shape.nops + 3;
        prop_assert_eq!(analyze(&render(&shape)), analyze(&render(&with_nops)));
    }

    /// Appending unreachable leaking code never changes the verdict.
    #[test]
    fn unreachable_suffix_is_invariant(shape in shape_strategy()) {
        let base = analyze(&render(&shape));
        let code = render(&shape).replace(
            "    staticinvoke <Env: void sink(java.lang.String)>",
            "    goto over\n  label dead:\n    staticinvoke <Env: void sink(java.lang.String)>(s)\n  label over:\n    staticinvoke <Env: void sink(java.lang.String)>",
        );
        prop_assert_eq!(analyze(&code), base, "{}", code);
    }

    /// Lengthening the helper chain preserves the verdict (summaries
    /// compose).
    #[test]
    fn deeper_call_chains_are_invariant(shape in shape_strategy()) {
        let mut deeper = shape.clone();
        deeper.depth = shape.depth + 2;
        prop_assert_eq!(analyze(&render(&shape)), analyze(&render(&deeper)));
    }
}
