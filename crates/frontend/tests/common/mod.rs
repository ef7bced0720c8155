//! Shared by the frontend's allocation gates: a counting global
//! allocator and the `stress/k` chain they measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread while counting is on, and the
    /// bytes they requested, or `None` while it is off. Each test counts
    /// on its own thread, so tests running side by side never add to
    /// each other's counts, nor do the test harness's own threads.
    static ALLOCS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

/// Runs `f`, returning its result with the allocations it made on this
/// thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, (allocs, _)) = counted_bytes(f);
    (out, allocs)
}

/// Runs `f`, returning its result with the allocations it made on this
/// thread and the bytes they requested (`alloc` size plus `realloc` new
/// size, as `solver_stats` counts them).
pub fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    ALLOCS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let counts = ALLOCS.with(Cell::take).unwrap();
    (out, counts)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `stress/k` chain exactly as `flowdroid_bench::stress_job` writes
/// it: `k` string locals, each concatenated from its predecessor,
/// between one source and one sink.
pub fn chain(k: usize) -> String {
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
