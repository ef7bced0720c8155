//! `perfbench` — see `README.md`.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--runs N]
//! ```
//!
//! Run from the repository root. The daemon binary is built first with
//! `cargo build --release --bin flowdroid` (into `$CARGO_TARGET_DIR`,
//! default `target`). Each run prints a human-readable table on stderr
//! and one JSON result line on stdout; the exit code is 0 only when
//! every job succeeded and every verdict matched.

use flowdroid_perfbench::{run, summarize, Launcher, Outcome, RunOptions, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The system allocator, counting allocations while a traced replay
/// asks for it (see `flowdroid_perfbench::trace::count_alloc`).
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting only touches
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        flowdroid_perfbench::trace::count_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        flowdroid_perfbench::trace::count_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        flowdroid_perfbench::trace::count_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--runs" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                args.runs = Some(n.max(1));
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = it.peek().is_none_or(|v| v != "0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Builds the daemon binary from the checkout in the working directory
/// and returns its path.
fn build_daemon() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "--bin",
            "flowdroid",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemon failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("flowdroid");
    bin.canonicalize()
        .map_err(|e| format!("{}: {e}", bin.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--runs N]"
            );
            return ExitCode::from(2);
        }
    };
    let launcher = match build_daemon() {
        Ok(bin) => Launcher::Binary(bin),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runs = args.runs.unwrap_or(1);
    let mut outcomes: Vec<Outcome> = Vec::new();
    for r in 0..runs {
        // Alternate the workload order so no workload always runs first.
        let mut order = args.workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let opts = RunOptions {
                workload,
                seed: args.seed + r as u64,
                seconds: args.seconds,
                trace: args.trace,
                work_root: PathBuf::from(".perfbench"),
            };
            match run(&opts, &launcher) {
                Ok(outcome) => {
                    eprint!("{}", outcome.table());
                    if args.runs.is_none() {
                        println!("{}", outcome.to_json());
                    }
                    outcomes.push(outcome);
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if args.runs.is_some() {
        print!("{}", summarize(&outcomes));
    }
    if outcomes.iter().all(|o| o.correct() && o.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
