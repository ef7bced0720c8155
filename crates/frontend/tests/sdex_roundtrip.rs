//! Property tests: SDEX encode → decode (and jasm emit → parse)
//! preserve programs exactly.

use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, sdex};
use flowdroid_ir::{
    BinOp, Constant, MethodBuilder, Operand, Place, Program, ProgramPrinter, Rvalue, Type,
};
use proptest::prelude::*;

/// A statement recipe the generator can emit.
#[derive(Debug, Clone)]
enum Recipe {
    Nop,
    ConstInt(i64),
    ConstStr(String),
    Move,
    FieldStore,
    FieldLoad,
    StaticStore,
    ArrayStore(u8),
    BinAdd,
    CallStatic,
    CallVirtual,
    OpaqueBranch,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    prop_oneof![
        Just(Recipe::Nop),
        any::<i64>().prop_map(Recipe::ConstInt),
        "[a-z]{0,8}".prop_map(Recipe::ConstStr),
        Just(Recipe::Move),
        Just(Recipe::FieldStore),
        Just(Recipe::FieldLoad),
        Just(Recipe::StaticStore),
        any::<u8>().prop_map(Recipe::ArrayStore),
        Just(Recipe::BinAdd),
        Just(Recipe::CallStatic),
        Just(Recipe::CallVirtual),
        Just(Recipe::OpaqueBranch),
    ]
}

/// Builds a program with one class and one method whose body follows the
/// recipes.
fn build_program(recipes: &[Recipe]) -> (Program, flowdroid_ir::ClassId) {
    let mut p = Program::new();
    p.declare_class("java.lang.Object", None, &[]);
    let c = p.declare_class("gen.C", Some("java.lang.Object"), &[]);
    let holder_ty = p.ref_type("gen.C");
    let f = p.declare_field(c, "data", Type::Int, false);
    let sf = p.declare_field(c, "global", Type::Int, true);
    let mut b = MethodBuilder::new_instance(&mut p, c, "m", vec![Type::Int], Type::Void);
    let this = b.this();
    let x = b.local("x", Type::Int);
    let y = b.local("y", Type::Int);
    let o = b.local("o", holder_ty);
    let arr = b.local("arr", Type::Int.array_of());
    b.assign_local(x, Rvalue::Const(Constant::Int(0)));
    b.assign_local(y, Rvalue::Const(Constant::Int(0)));
    b.assign_local(o, Rvalue::Read(Place::Local(this)));
    b.assign_local(arr, Rvalue::NewArray(Type::Int, Operand::Const(Constant::Int(4))));
    let end = b.fresh_label();
    for r in recipes {
        match r {
            Recipe::Nop => {
                b.nop();
            }
            Recipe::ConstInt(v) => {
                b.assign_local(x, Rvalue::Const(Constant::Int(*v)));
            }
            Recipe::ConstStr(s) => {
                let sym = b.program().intern(s);
                let sl = x; // ints and strings share a slot; types are not checked
                b.assign_local(sl, Rvalue::Const(Constant::Str(sym)));
            }
            Recipe::Move => {
                b.assign_local(y, Rvalue::Read(Place::Local(x)));
            }
            Recipe::FieldStore => {
                b.assign(Place::InstanceField(o, f), Rvalue::Read(Place::Local(x)));
            }
            Recipe::FieldLoad => {
                b.assign_local(y, Rvalue::Read(Place::InstanceField(o, f)));
            }
            Recipe::StaticStore => {
                b.assign(Place::StaticField(sf), Rvalue::Read(Place::Local(y)));
            }
            Recipe::ArrayStore(i) => {
                b.assign(
                    Place::ArrayElem(arr, Operand::Const(Constant::Int(i64::from(*i)))),
                    Rvalue::Read(Place::Local(x)),
                );
            }
            Recipe::BinAdd => {
                b.assign_local(x, Rvalue::BinOp(BinOp::Add, x.into(), y.into()));
            }
            Recipe::CallStatic => {
                b.call_static(
                    Some(x),
                    "gen.Helper",
                    "get",
                    vec![Type::Int],
                    Type::Int,
                    vec![y.into()],
                );
            }
            Recipe::CallVirtual => {
                b.call_virtual(None, o, "gen.C", "m", vec![Type::Int], Type::Void, vec![x.into()]);
            }
            Recipe::OpaqueBranch => {
                b.if_opaque(end);
            }
        }
    }
    b.bind(end);
    b.ret(None);
    b.finish();
    (p, c)
}

fn write_uleb(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `bytes` with the LEB128 field that starts at `at` replaced by `value`.
fn with_uleb_at(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let end = bytes[at..].iter().position(|b| b & 0x80 == 0).map_or(bytes.len(), |i| at + i + 1);
    let mut out = bytes[..at].to_vec();
    write_uleb(&mut out, value);
    out.extend_from_slice(&bytes[end..]);
    out
}

/// An image header (magic, version) followed by `rest`.
fn image(rest: &[u8]) -> Vec<u8> {
    let mut out = b"SDEX".to_vec();
    out.extend_from_slice(&sdex::VERSION.to_le_bytes());
    out.extend_from_slice(rest);
    out
}

/// Both decoders reject `bytes` with an error.
fn assert_rejected(bytes: &[u8]) {
    assert!(sdex::decode(&mut Program::new(), bytes).is_err());
    assert!(sdex::decode_lazy(&mut Program::new(), bytes.into()).is_err());
}

#[test]
fn huge_class_count_is_rejected() {
    // No strings, then 2^40 classes: preallocating the class table for
    // that count aborted the process.
    let mut rest = vec![0];
    write_uleb(&mut rest, 1 << 40);
    assert_rejected(&image(&rest));
}

#[test]
fn huge_string_length_is_rejected() {
    // One string of length 2^64 - 3: adding it to the offset overflowed.
    let mut rest = vec![1];
    write_uleb(&mut rest, u64::MAX - 2);
    rest.extend_from_slice(b"abc");
    assert_rejected(&image(&rest));
}

#[test]
fn huge_string_count_is_rejected() {
    let mut rest = Vec::new();
    write_uleb(&mut rest, u64::MAX);
    assert_rejected(&image(&rest));
}

#[test]
fn duplicate_members_are_rejected() {
    // Pool ["C", "f", "I"], then class C (no super, no interfaces) with
    // field `f: int` declared twice.
    let pool = [3, 1, b'C', 1, b'f', 1, b'I'];
    let field = [1, 2, 0];
    let mut rest = pool.to_vec();
    rest.extend_from_slice(&[1, 0, 0, 0, 0, 2]);
    rest.extend_from_slice(&field);
    rest.extend_from_slice(&field);
    rest.push(0);
    assert_rejected(&image(&rest));
    let err = sdex::decode(&mut Program::new(), &image(&rest)).unwrap_err();
    assert!(err.message.contains("field f declared twice"), "{err}");
    // The same class with `static int f()` declared twice, body-less.
    let method = [1, 2, 0, 1, 0];
    let mut rest = pool.to_vec();
    rest.extend_from_slice(&[1, 0, 0, 0, 0, 0, 2]);
    rest.extend_from_slice(&method);
    rest.extend_from_slice(&method);
    assert_rejected(&image(&rest));
    let err = sdex::decode(&mut Program::new(), &image(&rest)).unwrap_err();
    assert!(err.message.contains("method f declared twice"), "{err}");
}

#[test]
fn superclass_cycles_are_rejected() {
    let mut p = Program::new();
    let a = p.declare_class("cyc.A", Some("cyc.B"), &[]);
    let b = p.declare_class("cyc.B", Some("cyc.A"), &[]);
    let bytes = sdex::encode(&p, &[a, b]);
    assert_rejected(&bytes);
    let err = sdex::decode_lazy(&mut Program::new(), bytes.into()).unwrap_err();
    assert!(err.message.contains("class cyc.A is its own superclass"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_preserves_pretty_printed_class(
        recipes in proptest::collection::vec(recipe_strategy(), 0..24)
    ) {
        let (p, c) = build_program(&recipes);
        let bytes = sdex::encode(&p, &[c]);
        let mut q = Program::new();
        let ids = sdex::decode(&mut q, &bytes).expect("decode");
        prop_assert_eq!(ids.len(), 1);
        let before = ProgramPrinter::new(&p).class_to_string(c);
        let after = ProgramPrinter::new(&q).class_to_string(ids[0]);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn emit_parse_round_trip_preserves_pretty_printed_class(
        recipes in proptest::collection::vec(recipe_strategy(), 0..24)
    ) {
        let (p, c) = build_program(&recipes);
        let text = flowdroid_frontend::emit_jasm(&p, &[c]);
        let mut q = Program::new();
        q.declare_class("java.lang.Object", None, &[]);
        let rt = ResourceTable::new();
        let ids = parse_jasm(&mut q, &rt, &text)
            .unwrap_or_else(|e| panic!("emitted text re-parses: {e}\n{text}"));
        prop_assert_eq!(ids.len(), 1);
        let before = ProgramPrinter::new(&p).class_to_string(c);
        let after = ProgramPrinter::new(&q).class_to_string(ids[0]);
        prop_assert_eq!(before, after, "emitted:\n{}", text);
    }

    #[test]
    fn decode_of_corrupted_bytes_never_panics(
        recipes in proptest::collection::vec(recipe_strategy(), 0..8),
        flip in 6usize..256,
        val in any::<u8>(),
    ) {
        let (p, c) = build_program(&recipes);
        let mut bytes = sdex::encode(&p, &[c]);
        if flip < bytes.len() {
            bytes[flip] = val;
        }
        let mut q = Program::new();
        let _ = sdex::decode(&mut q, &bytes); // must not panic
    }

    /// Rewriting the LEB128 field at any offset (a count, a length, an
    /// index) to a huge value makes decoding fail, never panic or abort:
    /// no count is trusted for a preallocation and no length for an
    /// unchecked addition. Single bit flips never produce such fields.
    #[test]
    fn decode_of_huge_fields_never_panics(
        recipes in proptest::collection::vec(recipe_strategy(), 0..8),
        at in 6usize..4096,
        huge in prop_oneof![
            Just(1u64 << 40),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX - 2),
            Just(u64::MAX),
        ],
    ) {
        let (p, c) = build_program(&recipes);
        let bytes = sdex::encode(&p, &[c]);
        let bytes = with_uleb_at(&bytes, 6 + at % (bytes.len() - 6), huge);
        let _ = sdex::decode(&mut Program::new(), &bytes);
        let mut q = Program::new();
        if sdex::decode_lazy(&mut q, bytes.into()).is_ok() {
            let pending: Vec<_> =
                q.methods().filter(|m| m.body_is_pending()).map(|m| m.id()).collect();
            for m in pending {
                q.ensure_body(m);
            }
        }
    }

    /// Lazy decode + materializing every pending body yields exactly the
    /// same program as the eager decoder.
    #[test]
    fn lazy_decode_materializes_to_same_class(
        recipes in proptest::collection::vec(recipe_strategy(), 0..24)
    ) {
        let (p, c) = build_program(&recipes);
        let bytes = sdex::encode(&p, &[c]);

        let mut eager = Program::new();
        let eager_ids = sdex::decode(&mut eager, &bytes).expect("eager decode");

        let mut lazy = Program::new();
        let lazy_ids = sdex::decode_lazy(&mut lazy, bytes.into()).expect("lazy decode");
        prop_assert_eq!(eager_ids.len(), lazy_ids.len());
        // Nothing decoded yet beyond the declarations.
        let pending: Vec<_> = lazy.methods().filter(|m| m.body_is_pending()).map(|m| m.id()).collect();
        prop_assert!(pending.iter().all(|&m| lazy.method(m).body().is_none()));
        for m in pending {
            lazy.ensure_body(m);
        }
        prop_assert_eq!(lazy.pending_body_count(), 0);
        let before = ProgramPrinter::new(&eager).class_to_string(eager_ids[0]);
        let after = ProgramPrinter::new(&lazy).class_to_string(lazy_ids[0]);
        prop_assert_eq!(before, after);
    }

    /// The lazy declaration pass validates bodies up front: corrupted
    /// bytes are rejected at load time (or load identically to eager),
    /// never at materialization.
    #[test]
    fn lazy_decode_of_corrupted_bytes_rejects_at_load(
        recipes in proptest::collection::vec(recipe_strategy(), 0..8),
        flip in 6usize..256,
        val in any::<u8>(),
    ) {
        let (p, c) = build_program(&recipes);
        let mut bytes = sdex::encode(&p, &[c]);
        if flip < bytes.len() {
            bytes[flip] = val;
        }
        let mut q = Program::new();
        if sdex::decode_lazy(&mut q, bytes.into()).is_ok() {
            // Whatever loaded must materialize without panicking.
            let pending: Vec<_> =
                q.methods().filter(|m| m.body_is_pending()).map(|m| m.id()).collect();
            for m in pending {
                q.ensure_body(m);
            }
        }
    }
}

#[test]
fn jasm_to_sdex_to_program_matches_direct_parse() {
    let src = r#"
class demo.App extends java.lang.Object {
  field items: java.lang.String[]
  static field seen: int
  method run(input: java.lang.String) -> java.lang.String {
    let buf: java.lang.String
    buf = input
    this.items = null
    static demo.App.seen = 1
    if input == null goto out
    buf = buf + "x"
  label out:
    return buf
  }
  native method nat(x: int) -> int
}
"#;
    let mut direct = Program::new();
    let rt = ResourceTable::new();
    let direct_ids = parse_jasm(&mut direct, &rt, src).unwrap();
    let bytes = sdex::encode(&direct, &direct_ids);
    let mut via = Program::new();
    let via_ids = sdex::decode(&mut via, &bytes).unwrap();
    assert_eq!(
        ProgramPrinter::new(&direct).class_to_string(direct_ids[0]),
        ProgramPrinter::new(&via).class_to_string(via_ids[0]),
    );
}
