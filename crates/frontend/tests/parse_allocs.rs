//! Allocation gates on the `jasm` frontend.
//!
//! Each pin counts the heap allocations `parse_jasm` makes into an empty
//! program, with a counting global allocator, and the bytes they
//! request. The parser lexes into tokens that borrow the source and
//! builds each statement straight into the method's body, so what
//! remains is the IR itself (local names, statements, the CFG, interned
//! strings) plus the token vector and the name tables' growth. The
//! counts are deterministic: one thread, one fixed input.
//!
//! * `stress/100` (`v_i = v_{i-1} + v_{i-1}`, 100 locals, about 5 kB of
//!   text): the CFG is four flat arrays whatever the body's length; a
//!   list per statement for its successors and one for its
//!   predecessors made 463 allocations.
//! * the code of perfbench's largest taint apps, forward k = 300 and
//!   heap k = 60 ([`flowdroid_truth::chain_app`]);
//! * the code of the 120 seed-42 truth apps, perfbench's apps pool,
//!   each with the resource table of its layouts, summed.

mod common;

use common::{chain, counted, counted_bytes};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, Layout};
use flowdroid_ir::Program;
use flowdroid_truth::{chain_app, generate_corpus};

/// Allocations `parse_jasm` makes on the 100-step chain.
const PINNED_ALLOCS: u64 = 241;

/// `(allocations, bytes)` of `parse_jasm` on forward k = 300.
const FORWARD_300: (u64, u64) = (669, 219_322);
/// `(allocations, bytes)` of `parse_jasm` on heap k = 60.
const HEAP_60: (u64, u64) = (454, 188_971);
/// `(allocations, bytes)` of `parse_jasm` summed over the seed-42 truth
/// apps.
const TRUTH_42: (u64, u64) = (15_253, 3_179_284);

#[test]
fn parse_allocations_are_pinned() {
    let src = chain(100);
    let rt = ResourceTable::new();
    let mut p = Program::new();
    let (classes, allocs) = counted(|| parse_jasm(&mut p, &rt, &src));
    let classes = classes.expect("chain parses");
    assert_eq!(classes.len(), 1);
    let main = p.find_method("stress.Chain", "main").expect("main declared");
    assert_eq!(p.method(main).body().expect("main has a body").len(), 103);
    assert_eq!(
        allocs,
        PINNED_ALLOCS,
        "parse_jasm on the {}-byte chain made {allocs} allocations, pinned at {PINNED_ALLOCS}",
        src.len()
    );
}

/// Allocations and bytes of `parse_jasm` on the code of the chain app.
fn chain_parse(k: usize, alias: bool) -> (u64, u64) {
    let archive = chain_app(&format!("pf.c{k}.s0"), k, alias);
    let src = archive.get_str("classes.jasm").expect("chain code");
    let rt = ResourceTable::new();
    let mut p = Program::new();
    let (classes, counts) = counted_bytes(|| parse_jasm(&mut p, &rt, src));
    assert_eq!(classes.expect("chain parses").len(), if alias { 2 } else { 1 });
    counts
}

#[test]
fn forward_chain_parse_allocations_are_pinned() {
    assert_eq!(chain_parse(300, false), FORWARD_300, "(allocations, bytes) on forward k = 300");
}

#[test]
fn heap_chain_parse_allocations_are_pinned() {
    assert_eq!(chain_parse(60, true), HEAP_60, "(allocations, bytes) on heap k = 60");
}

#[test]
fn truth_corpus_parse_allocations_are_pinned() {
    let mut total = (0, 0);
    for app in generate_corpus(42, 12) {
        let layouts: Vec<Layout> =
            app.layouts.iter().map(|(n, x)| Layout::parse(n, x).expect("layout parses")).collect();
        let rt = ResourceTable::from_layouts(&layouts);
        let mut p = Program::new();
        let (classes, (allocs, bytes)) = counted_bytes(|| parse_jasm(&mut p, &rt, &app.code));
        classes.unwrap_or_else(|e| panic!("{}: {e}", app.name));
        total = (total.0 + allocs, total.1 + bytes);
    }
    assert_eq!(total, TRUTH_42, "(allocations, bytes) over the seed-42 truth apps");
}
