//! Allocation gates on the SDEX codec.
//!
//! The job path encodes each parsed app into an SDEX image once and
//! decodes it lazily on every run, materializing only reachable bodies.
//! On the `stress/100` chain (one class, one 103-statement method) this
//! test counts the heap allocations of the three steps with a counting
//! global allocator:
//!
//! - `sdex::encode`: the string pool borrows the program's strings and
//!   each type's descriptor index is memoized, so what remains is the
//!   output buffers and the pool's tables;
//! - `sdex::decode_lazy`: the declaration pass keeps the pool as byte
//!   ranges into the image, so it allocates the declared entities, the
//!   per-image memo and the pending-body table;
//! - materializing every body: each pool index resolves to its `Type`
//!   or `Symbol` once per image, so a body allocates only what the IR
//!   owns (local names, statement and argument vectors, the CFG's four
//!   flat arrays).
//!
//! When the pool was a `Vec<String>` and every use resolved its string
//! afresh, the three steps made 564, 137 and 432 allocations; with a
//! CFG list per statement for successors and one for predecessors,
//! materializing made 324. The counts are deterministic: one thread,
//! one fixed input.

mod common;

use common::{chain, counted};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, sdex};
use flowdroid_ir::Program;
use std::sync::Arc;

/// Allocations `sdex::encode` makes on the chain.
const ENCODE_ALLOCS: u64 = 29;
/// Allocations `sdex::decode_lazy` makes on the chain's image.
const DECODE_LAZY_ALLOCS: u64 = 22;
/// Allocations materializing every body of the lazily decoded image makes.
const MATERIALIZE_ALLOCS: u64 = 122;

#[test]
fn sdex_codec_allocations_are_pinned() {
    let mut p = Program::new();
    let classes = parse_jasm(&mut p, &ResourceTable::new(), &chain(100)).expect("chain parses");

    let (image, encode) = counted(|| sdex::encode(&p, &classes));
    let image: Arc<[u8]> = image.into();

    let mut q = Program::new();
    let (ids, decode_lazy) = counted(|| sdex::decode_lazy(&mut q, image));
    let ids = ids.expect("image decodes");
    let methods: Vec<_> = ids.iter().flat_map(|&c| q.class(c).methods().to_vec()).collect();
    assert_eq!(q.pending_body_count(), 1);

    let (decoded, materialize) = counted(|| methods.iter().filter(|&&m| q.ensure_body(m)).count());
    assert_eq!(decoded, 1);
    let main = q.find_method("stress.Chain", "main").expect("main declared");
    assert_eq!(q.method(main).body().expect("main has a body").len(), 103);

    assert_eq!(
        (encode, decode_lazy, materialize),
        (ENCODE_ALLOCS, DECODE_LAZY_ALLOCS, MATERIALIZE_ALLOCS),
        "allocations (encode, decode_lazy, materialize all) on the stress/100 chain"
    );
}
