//! Allocation gate on the `jasm` frontend.
//!
//! Parses the `stress/100` chain (`v_i = v_{i-1} + v_{i-1}`, 100 locals,
//! about 5 kB of text) into an empty program and counts the heap
//! allocations `parse_jasm` makes, with a counting global allocator.
//! The parser lexes into tokens that borrow the source and builds each
//! statement straight into the method's body, so what remains is the
//! IR itself (local names, statements, the CFG, interned strings) plus
//! the token vector and the name tables' growth. The count is
//! deterministic: one thread, one fixed input.

use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::parse_jasm;
use flowdroid_ir::Program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Counting is on for this thread only, so the test harness's own
    /// threads never add to the count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `stress/k` chain exactly as `flowdroid_bench::stress_job` writes
/// it: `k` string locals, each concatenated from its predecessor,
/// between one source and one sink.
fn chain(k: usize) -> String {
    let mut body = String::from("    let s: java.lang.String\n");
    for i in 0..k {
        writeln!(body, "    let v{i}: java.lang.String").unwrap();
    }
    body.push_str("    s = staticinvoke <securibench.Env: java.lang.String source()>()\n");
    body.push_str("    v0 = s\n");
    for i in 1..k {
        writeln!(body, "    v{i} = v{} + v{}", i - 1, i - 1).unwrap();
    }
    writeln!(body, "    staticinvoke <securibench.Env: void sink(java.lang.String)>(v{})", k - 1)
        .unwrap();
    body.push_str("    return\n");
    format!(
        "class stress.Chain extends java.lang.Object {{\n  static method main() -> void {{\n{body}  }}\n}}\n"
    )
}

/// Allocations `parse_jasm` makes on the 100-step chain.
const PINNED_ALLOCS: u64 = 463;

#[test]
fn parse_allocations_are_pinned() {
    let src = chain(100);
    let rt = ResourceTable::new();
    let mut p = Program::new();
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let classes = parse_jasm(&mut p, &rt, &src);
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);
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
