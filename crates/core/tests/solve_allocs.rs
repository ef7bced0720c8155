//! Allocation gates on the sequential solver's edge propagation.
//!
//! Solves a `stress/k`-shaped concat chain (`v_i = v_{i-1} + v_{i-1}`,
//! k = 200: about k²/2 forward propagations, one leak) and counts the
//! heap allocations made inside `BiSolver::solve`, and the bytes they
//! request, with a counting global allocator. Propagating an edge must
//! allocate nothing in the steady state — CFG edges are borrowed, flow
//! outputs land in reused buffers and provenance lives in one arena —
//! so what remains is table growth plus result collection, at most one
//! allocation per forty propagations. The bytes measure the tables'
//! layout: a path-edge node costs one 8-byte slot (a lone `d1` inline)
//! in the window of its (method, fact) row, carved from a few blocks,
//! so the chain requests at most 28 bytes per propagation (22.0 today;
//! 25.0 when every row spanned its method). The statement-major table
//! this layout replaced grew a row slot by slot: 1,251 allocations and
//! 31.5 bytes per propagation. Both counts are deterministic: each test
//! runs on its own thread, whose warm row pool starts empty, over one
//! fixed program.
//!
//! A heap chain (`x_i.f = t_i; t_{i+1} = a_i.f`, k = 60) gates the
//! alias side: its backward identity flows record no provenance either,
//! so the provenance graph stays linear in k, and it requests at most
//! 48 bytes per forward or backward propagation (26.2 today, 40.1 when
//! every row spanned its method, 96.6 with the statement-major table).
//!
//! Both tests also gate worklist pops. A fact that statements pass on
//! unchanged is recorded down straight-line code in one walk, forward
//! and backward, without being queued; only the statements that might
//! touch it are popped. So pops stay far below propagations: about 2k
//! on the k = 200 chain, whose every propagation was once popped.
//!
//! Walks pass calls that cannot touch the fact. The same chain with a
//! call to an empty method after every link gates that: a walk that
//! stopped at every call popped every live local at every call, about
//! k²/2 pops.
//!
//! A walk judges only the statements it stops at. From a statement it
//! passes, it jumps to the next one that might touch its fact and
//! records the edges between in one fill, so on the k = 200 chain the
//! walks judge about 3k statements (`walk_checks`), where judging every
//! walked statement made about k²/2.
//!
//! Path-edge rows are windows carved from large blocks, and a solve's
//! blocks stay warm on its thread for the next solve, up to
//! `WARM_ROW_BYTES`. A repeat of the k = 200 chain on one thread must
//! allocate no row memory, and a chain whose rows pass that cap must
//! leave the thread holding no more than it.
//!
//! The call-site table the solve starts from, `CallSites::build`, is
//! gated too, over every DroidBench app and InsecureBank. It resolves
//! each distinct callee once, by method name and then by comparing the
//! names of the callee's supertypes in place, so what it allocates is
//! its tables, one set of walk buffers and the rule lists of the
//! callees that have any: at most 2 allocations per reachable call site
//! (1.54 today, most of it the tables of apps with a few call sites
//! each). Formatting a signature string per supertype of every call
//! site's callee made 30.1.

use flowdroid_android::{
    generate_dummy_main, install_platform, CallbackAssociation, EntryPointModel,
};
use flowdroid_callgraph::{CallGraph, Icfg};
use flowdroid_core::solver::BiSolver;
use flowdroid_core::{CallSites, InfoflowConfig, InfoflowResults, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, App};
use flowdroid_ifds::{warm_row_bytes, WARM_ROW_BYTES};
use flowdroid_ir::Program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

struct CountingAlloc;

thread_local! {
    /// Allocations and bytes requested on this thread while counting is
    /// on, or `None` while it is off. Each test counts on its own
    /// thread, so tests running side by side never add to each other's
    /// counts, nor do the test harness's own threads.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Counts one allocation (or reallocation) requesting `bytes`.
fn note_alloc(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        if let Some((allocs, total)) = c.get() {
            c.set(Some((allocs + 1, total + bytes as u64)));
        }
    });
}

/// Runs `f`, returning its result with the allocations it made on this
/// thread and the bytes they requested.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (allocs, bytes) = COUNTS.with(|c| c.take()).unwrap();
    (out, allocs, bytes)
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
/// predecessor, between one source and one sink. With `ticks`, a call
/// to the empty `S.tick()` follows each link.
fn chain(k: usize, ticks: bool) -> String {
    let mut body = String::from("    let s: java.lang.String\n");
    for i in 0..k {
        writeln!(body, "    let v{i}: java.lang.String").unwrap();
    }
    body.push_str("    s = staticinvoke <Env: java.lang.String source()>()\n    v0 = s\n");
    for i in 1..k {
        writeln!(body, "    v{i} = v{} + v{}", i - 1, i - 1).unwrap();
        if ticks {
            body.push_str("    staticinvoke <S: void tick()>()\n");
        }
    }
    writeln!(body, "    staticinvoke <Env: void sink(java.lang.String)>(v{})", k - 1).unwrap();
    body.push_str("    return\n");
    format!(
        "class S {{\n  static method tick() -> void {{\n    return\n  }}\n\
         \x20 static method main() -> void {{\n{body}  }}\n}}\n"
    )
}

/// Chain length.
const K: usize = 200;

/// Bytes `solve` may request per forward propagation on the chain.
const MAX_BYTES_PER_PROPAGATION: u64 = 28;

/// Bytes `solve` may request per propagation on the heap chain.
const HEAP_MAX_BYTES_PER_PROPAGATION: u64 = 48;

/// Solves the `stress/k` chain, counting the solve's allocations and
/// bytes.
fn solve_chain(k: usize) -> (InfoflowResults, u64, u64) {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, &chain(k, false)).unwrap();
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let main = p.find_method("S", "main").unwrap();
    let cg = CallGraph::build(&p, &[main]);
    let solver = BiSolver::new(Icfg::new(&p, &cg), &sources, &wrapper, &config);
    counted(|| solver.solve(&[main]))
}

#[test]
fn solve_allocates_under_one_per_forty_propagations() {
    let (results, allocs, bytes) = solve_chain(K);

    assert_eq!(results.leak_count(), 1);
    let props = results.forward_propagations;
    let nodes = results.provenance_nodes;
    let pops = results.forward_pops;
    let checks = results.walk_checks;
    eprintln!(
        "{allocs} allocations requesting {bytes} bytes, {props} forward propagations, \
         {pops} forward pops, {checks} walk checks, {nodes} provenance nodes"
    );
    assert!(props > 15_000, "the chain should propagate about k²/2 edges, got {props}");
    assert!(
        allocs * 40 <= props,
        "{allocs} allocations for {props} forward propagations ({:.3} per propagation)",
        allocs as f64 / props as f64
    );
    assert!(
        bytes <= MAX_BYTES_PER_PROPAGATION * props,
        "{bytes} bytes requested for {props} forward propagations ({:.1} per propagation)",
        bytes as f64 / props as f64
    );
    // Each local is generated once and then passes the rest of the
    // chain unchanged; those identity flows record no provenance.
    assert!(nodes <= 2 * K, "{nodes} provenance nodes for a k = {K} chain");
    // Only the statements that read or write a tainted local are
    // popped: about 2 per local.
    assert!(pops <= 3 * K as u64, "{pops} forward pops for a k = {K} chain");
    // Each local's walks stop where it is read and at the exit: about 3
    // statements judged per local.
    assert!(checks <= 4 * K as u64, "{checks} walk checks for a k = {K} chain");
}

/// A repeat solve on one thread carves its rows from the blocks the
/// first one left warm, so it requests at least those blocks' bytes
/// fewer: a block it allocated (32 KiB or more) would take the saving
/// below them.
#[test]
fn a_repeat_solve_allocates_no_row_memory() {
    assert_eq!(warm_row_bytes(), 0, "a fresh thread holds no warm block");
    let (first, _, first_bytes) = solve_chain(K);
    let warm = warm_row_bytes();
    assert!(
        warm as u64 >= 8 * first.row_slots,
        "{warm} warm bytes for {} row slots",
        first.row_slots
    );
    assert!(warm <= WARM_ROW_BYTES);
    let (again, _, again_bytes) = solve_chain(K);
    assert_eq!(again.forward_propagations, first.forward_propagations);
    assert!(
        again_bytes + warm as u64 <= first_bytes,
        "the repeat requested {again_bytes} bytes, the first solve {first_bytes} with {warm} \
         bytes of row blocks"
    );
    assert_eq!(warm_row_bytes(), warm, "the repeat gives back what it took");
}

/// A solve whose rows pass [`WARM_ROW_BYTES`] frees what the warm pool
/// cannot hold: the thread keeps at most the cap.
#[test]
fn the_warm_pool_keeps_at_most_its_cap() {
    // About k²/2 slots of 8 bytes: 9 MB of rows.
    let (results, _, bytes) = solve_chain(1_500);
    assert!(8 * results.row_slots > WARM_ROW_BYTES as u64, "{} row slots", results.row_slots);
    assert!(bytes > WARM_ROW_BYTES as u64);
    let warm = warm_row_bytes();
    assert!(warm > 0 && warm <= WARM_ROW_BYTES, "{warm} warm bytes");
}

/// The heap chain: every box `x_i` is allocated and aliased
/// (`a_i = x_i`) up front, then `x_i.f = t_i; t_{i+1} = a_i.f` runs down
/// the chain, so every store starts a backward alias search that walks
/// back past all the allocations.
fn heap_chain(k: usize) -> String {
    let mut body = String::new();
    for i in 0..=k {
        writeln!(body, "    let t{i}: java.lang.String").unwrap();
    }
    for i in 0..k {
        writeln!(body, "    let x{i}: Box\n    let a{i}: Box").unwrap();
    }
    body.push_str("    t0 = staticinvoke <Env: java.lang.String source()>()\n");
    for i in 0..k {
        writeln!(body, "    x{i} = new Box").unwrap();
        writeln!(body, "    specialinvoke x{i}.<Box: void <init>()>()\n    a{i} = x{i}").unwrap();
    }
    for i in 0..k {
        writeln!(body, "    x{i}.f = t{i}\n    t{} = a{i}.f", i + 1).unwrap();
    }
    writeln!(body, "    staticinvoke <Env: void sink(java.lang.String)>(t{k})").unwrap();
    body.push_str("    return\n");
    format!(
        "class Box {{\n  field f: java.lang.String\n\
         \x20 method <init>() -> void {{\n    return\n  }}\n}}\n\
         class H {{\n  static method main() -> void {{\n{body}  }}\n}}\n"
    )
}

/// Heap chain length.
const HEAP_K: usize = 60;

#[test]
fn heap_chain_provenance_stays_linear() {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, &heap_chain(HEAP_K)).unwrap();
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let main = p.find_method("H", "main").unwrap();
    let cg = CallGraph::build(&p, &[main]);
    let solver = BiSolver::new(Icfg::new(&p, &cg), &sources, &wrapper, &config);
    let (results, allocs, bytes) = counted(|| solver.solve(&[main]));

    assert_eq!(results.leak_count(), 1);
    let nodes = results.provenance_nodes;
    let props = results.forward_propagations + results.backward_propagations;
    eprintln!(
        "{allocs} allocations requesting {bytes} bytes, {} forward and {} backward \
         propagations, {} forward and {} backward pops, {nodes} provenance nodes",
        results.forward_propagations,
        results.backward_propagations,
        results.forward_pops,
        results.backward_pops
    );
    assert!(
        bytes <= HEAP_MAX_BYTES_PER_PROPAGATION * props,
        "{bytes} bytes requested for {props} propagations ({:.1} per propagation)",
        bytes as f64 / props as f64
    );
    // Provenance is bookkeeping: recording less of it changes no
    // propagation.
    assert_eq!(results.forward_propagations, 47_583);
    assert_eq!(results.backward_propagations, 18_358);
    // Identity flows, forward and backward, record no provenance: about
    // 17 nodes per link, where recording backward identity flows made
    // about 316.
    assert!(nodes <= 20 * HEAP_K, "{nodes} provenance nodes for a k = {HEAP_K} heap chain");
    // Walks record most edges without queueing them, past the `<init>`
    // calls too: every propagation was once popped (47,583 forward,
    // 18,358 backward), and walks that stopped at calls popped 8,461
    // forward and 4,197 backward.
    assert!(results.forward_pops <= 1_100, "{} forward pops", results.forward_pops);
    assert!(results.backward_pops <= 600, "{} backward pops", results.backward_pops);
}

/// The `stress/k` chain with a call to the empty `S.tick()` after every
/// link.
#[test]
fn call_dense_chain_walks_past_calls() {
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, ENV).unwrap();
    parse_jasm(&mut p, &rt, &chain(K, true)).unwrap();
    let sources = SourceSinkManager::parse(DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let main = p.find_method("S", "main").unwrap();
    let cg = CallGraph::build(&p, &[main]);
    let results = BiSolver::new(Icfg::new(&p, &cg), &sources, &wrapper, &config).solve(&[main]);

    assert_eq!(results.leak_count(), 1);
    let pops = results.forward_pops;
    eprintln!("{} forward propagations, {pops} forward pops", results.forward_propagations);
    // Walking past a call records the same edges processing it would.
    assert_eq!(results.forward_propagations, 41_203);
    // Each `tick()` call mentions no taint, so every live local walks
    // past it; only the zero fact, which enters `tick`, stops there.
    // Walks that stopped at every call popped 21,103.
    assert!(pops <= 4 * K as u64, "{pops} forward pops for a k = {K} call-dense chain");
}

/// Allocations `CallSites::build` may make per reachable call site.
const MAX_ALLOCS_PER_SITE: u64 = 2;

#[test]
fn call_site_table_allocates_at_most_two_per_site() {
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let mut apps = flowdroid_droidbench::all_apps();
    apps.push(flowdroid_droidbench::insecurebank::insecure_bank());
    let (mut allocs, mut sites) = (0, 0);
    for app in &apps {
        // The pipeline's setup: lifecycle model, dummy main, CHA.
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let loaded = App::from_parts(&mut p, &app.manifest, &app.layouts, &app.code).unwrap();
        let model =
            EntryPointModel::build(&mut p, &platform, &loaded, CallbackAssociation::PerComponent);
        let dummy = generate_dummy_main(&mut p, &platform, &model, "sites");
        let cg = CallGraph::build(&p, &[dummy]);
        let icfg = Icfg::new(&p, &cg);
        let (_table, n, _) = counted(|| CallSites::build(&icfg, &sources, &wrapper));
        allocs += n;
        for &m in cg.reachable_methods() {
            if let Some(body) = p.method(m).body() {
                sites += body.stmts().iter().filter(|s| s.invoke_expr().is_some()).count() as u64;
            }
        }
    }
    assert!(sites > 250, "only {sites} call sites");
    assert!(
        allocs <= MAX_ALLOCS_PER_SITE * sites,
        "CallSites::build made {allocs} allocations for {sites} reachable call sites \
         ({:.2} per site), over {MAX_ALLOCS_PER_SITE}",
        allocs as f64 / sites as f64
    );
}
