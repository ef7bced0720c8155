//! Allocation gate on the `jasm` frontend.
//!
//! Parses the `stress/100` chain (`v_i = v_{i-1} + v_{i-1}`, 100 locals,
//! about 5 kB of text) into an empty program and counts the heap
//! allocations `parse_jasm` makes, with a counting global allocator.
//! The parser lexes into tokens that borrow the source and builds each
//! statement straight into the method's body, so what remains is the
//! IR itself (local names, statements, the CFG, interned strings) plus
//! the token vector and the name tables' growth. The CFG is four flat
//! arrays whatever the body's length; a list per statement for its
//! successors and one for its predecessors made 463. The count is
//! deterministic: one thread, one fixed input.

mod common;

use common::{chain, counted};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::parse_jasm;
use flowdroid_ir::Program;

/// Allocations `parse_jasm` makes on the 100-step chain.
const PINNED_ALLOCS: u64 = 261;

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
