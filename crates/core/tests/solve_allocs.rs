//! Allocation gate on the sequential solver's edge propagation.
//!
//! Solves a `stress/k`-shaped concat chain (`v_i = v_{i-1} + v_{i-1}`,
//! k = 200: about k²/2 forward propagations, one leak) and counts the
//! heap allocations made inside `BiSolver::solve` with a counting
//! global allocator. Propagating an edge must allocate nothing in the
//! steady state — CFG edges are borrowed, flow outputs land in reused
//! buffers and provenance lives in one arena — so what remains is
//! amortized table growth plus result collection, far below one
//! allocation per ten propagations. The count is deterministic: one
//! thread, one fixed program.

use flowdroid_callgraph::{CallGraph, Icfg};
use flowdroid_core::solver::BiSolver;
use flowdroid_core::{InfoflowConfig, SourceSinkManager, TaintWrapper};
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

const ENV: &str = r#"
class Env {
  static native method source() -> java.lang.String
  static native method sink(s: java.lang.String) -> void
}
"#;

const DEFS: &str = "\
<Env: java.lang.String source()> -> _SOURCE_\n\
<Env: void sink(java.lang.String)> -> _SINK_\n";

/// The `stress/k` chain: `k` string locals, each concatenated from its
/// predecessor, between one source and one sink.
fn chain(k: usize) -> String {
    let mut body = String::from("    let s: java.lang.String\n");
    for i in 0..k {
        writeln!(body, "    let v{i}: java.lang.String").unwrap();
    }
    body.push_str("    s = staticinvoke <Env: java.lang.String source()>()\n    v0 = s\n");
    for i in 1..k {
        writeln!(body, "    v{i} = v{} + v{}", i - 1, i - 1).unwrap();
    }
    writeln!(body, "    staticinvoke <Env: void sink(java.lang.String)>(v{})", k - 1).unwrap();
    body.push_str("    return\n");
    format!("class S {{\n  static method main() -> void {{\n{body}  }}\n}}\n")
}

#[test]
fn solve_allocates_under_one_per_ten_propagations() {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, &chain(200)).unwrap();
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let main = p.find_method("S", "main").unwrap();
    let cg = CallGraph::build(&p, &[main], config.cg_algorithm);
    let solver = BiSolver::new(Icfg::new(&p, &cg), &sources, &wrapper, &config);

    COUNTING.with(|c| c.set(true));
    let results = solver.solve(&[main]);
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(results.leak_count(), 1);
    let props = results.forward_propagations;
    eprintln!("{allocs} allocations, {props} forward propagations");
    assert!(props > 15_000, "the chain should propagate about k²/2 edges, got {props}");
    assert!(
        allocs * 10 <= props,
        "{allocs} allocations for {props} forward propagations ({:.3} per propagation)",
        allocs as f64 / props as f64
    );
}
