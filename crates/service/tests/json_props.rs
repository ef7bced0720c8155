//! Fuzz tests for the std-only JSON layer: arbitrary and garbled input
//! must never panic the parser, and every value the writer can emit
//! must parse back to an identical value. The surrogate-escape cases
//! pin a real bug: `"\ud800A"` (a high surrogate followed by a
//! non-surrogate escape) used to underflow in the pair-combination
//! arithmetic and panic debug builds.

use flowdroid_service::json::{self, Json};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Arbitrary Unicode strings, biased across the interesting ranges
/// (controls, ASCII, BMP, astral plane) so the writer's escaping and
/// the parser's UTF-8/escape handling both get exercised.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        any::<u32>().prop_map(|n| {
            let n = n % 0x11_0000;
            char::from_u32(n).unwrap_or('\u{FFFD}')
        }),
        0..24,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Arbitrary JSON values up to `depth` container levels. Numbers stay
/// in the exact-integer range, matching what the protocol emits.
fn arb_json(depth: u32) -> BoxedStrategy<Json> {
    if depth == 0 {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<u32>().prop_map(|n| Json::Num(f64::from(n))),
            arb_string().prop_map(Json::Str),
        ]
        .boxed()
    } else {
        prop_oneof![
            arb_json(0),
            proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
            proptest::collection::vec((arb_string(), arb_json(depth - 1)), 0..4)
                .prop_map(Json::Obj),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable input never panics the parser.
    #[test]
    fn arbitrary_input_never_panics(input in ".{0,256}") {
        let _ = json::parse(&input);
    }

    /// JSON-ish token soup — heavy on quotes, braces and `\u` escape
    /// fragments — never panics either. This is the distribution that
    /// reaches the surrogate arithmetic.
    #[test]
    fn escape_soup_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("\"".to_owned()),
                Just("\\".to_owned()),
                Just("\\u".to_owned()),
                Just("\\ud800".to_owned()),
                Just("\\udc00".to_owned()),
                Just("\\udfff".to_owned()),
                Just("{".to_owned()),
                Just("}".to_owned()),
                Just("[".to_owned()),
                Just("]".to_owned()),
                Just(":".to_owned()),
                Just(",".to_owned()),
                Just("null".to_owned()),
                Just("-".to_owned()),
                "[0-9a-fA-F]{1,4}",
                ".{0,8}",
            ],
            0..32,
        )
    ) {
        let _ = json::parse(&tokens.concat());
    }

    /// Truncating a valid document at any byte boundary never panics
    /// (it errors or — for a prefix that is itself complete — parses).
    #[test]
    fn truncated_documents_never_panic(v in arb_json(2), cut in any::<usize>()) {
        let line = v.to_line();
        let mut cut = cut % (line.len() + 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = json::parse(&line[..cut]);
    }

    /// Writer → parser round-trips are identity for every value the
    /// writer can produce.
    #[test]
    fn write_then_parse_is_identity(v in arb_json(3)) {
        let line = v.to_line();
        let back = json::parse(&line).expect("writer output must parse");
        prop_assert_eq!(back, v);
    }
}

/// The exact input that used to underflow (`lo - 0xDC00` with
/// `lo == 0x0041`): the unpaired high surrogate becomes U+FFFD and the
/// following escape decodes on its own.
#[test]
fn high_surrogate_followed_by_non_surrogate_escape() {
    // `A` after the high surrogate enters the pair-combination
    // path with lo = 0x41 < 0xDC00 — the underflow input.
    let v = json::parse("\"\\ud800\\u0041\"").expect("lenient surrogate handling");
    assert_eq!(v, Json::Str("\u{FFFD}A".to_string()));
    // Plain text (no escape) after the high surrogate takes the
    // lone-surrogate path instead.
    let v = json::parse(r#""\ud800A""#).expect("lenient surrogate handling");
    assert_eq!(v, Json::Str("\u{FFFD}A".to_string()));
}

#[test]
fn surrogate_escape_cases() {
    // A proper escaped pair combines.
    assert_eq!(json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("\u{1F600}".to_string()));
    assert_eq!(json::parse("\"\\ud800\\udc00\"").unwrap(), Json::Str("\u{10000}".to_string()));
    // Lone high surrogate (end of string, or followed by plain text).
    assert_eq!(json::parse(r#""\ud800""#).unwrap(), Json::Str("\u{FFFD}".to_string()));
    assert_eq!(json::parse(r#""\ud800x""#).unwrap(), Json::Str("\u{FFFD}x".to_string()));
    // Two high surrogates in a row: both are unpaired.
    assert_eq!(
        json::parse(r#""\ud800\ud800""#).unwrap(),
        Json::Str("\u{FFFD}\u{FFFD}".to_string())
    );
    // Lone low surrogate.
    assert_eq!(json::parse(r#""\udc00""#).unwrap(), Json::Str("\u{FFFD}".to_string()));
    // Truncated escapes are errors, not panics.
    assert!(json::parse(r#""\u12""#).is_err());
    assert!(json::parse(r#""\ud800\u12""#).is_err());
}
