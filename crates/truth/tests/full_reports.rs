//! Golden full leak reports: every leak's source attribution and path,
//! with the propagation and table counters, pinned byte for byte.
//!
//! The corpus reports elsewhere (`corpus_report`, `reports_identical`)
//! compare leak lines only, so a change to how paths are recorded or
//! rebuilt could alter every path and still pass them. This test
//! renders [`InfoflowResults::report`] for one seed of the truth
//! corpus, three `stress/k` chains, the DroidBench apps, the reporting
//! programs of `core/tests/report_format.rs`, a CFG loop, a self-loop
//! and one run aborted by its propagation budget that still reports a
//! leak. It strips only the wall-clock duration and compares the lot
//! with `tests/golden/full_reports.txt`.
//!
//! On a mismatch the rendered text is written to Cargo's temporary
//! directory for integration tests (the path is in the failure message);
//! re-capturing the golden means copying that file over it, which is
//! only right when a change is meant to alter reports.
//!
//! [`InfoflowResults::report`]: flowdroid_core::InfoflowResults::report

use flowdroid_bench::{droidbench_corpus, full_report, micro_job, stress_job};
use flowdroid_core::{InfoflowConfig, Job};
use flowdroid_securibench::{Group, MicroCase};
use flowdroid_truth::generate_corpus;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/full_reports.txt");

/// A SecuriBench-style job over `code`, whose entry is `<class>.main`.
fn program(class: &str, code: &str) -> Job {
    micro_job(MicroCase {
        name: format!("golden/{class}"),
        group: Group::Basic,
        expected_leaks: 1,
        planned_fps: 0,
        planned_miss: false,
        code: code.to_string(),
        entry_class: class.to_string(),
    })
}

/// `core/tests/report_format.rs`'s relay program: the taint returns
/// through a callee.
const RELAY: &str = r#"
class golden.Relay extends java.lang.Object {
  static method relay(x: java.lang.String) -> java.lang.String {
    return x
  }
  static method main() -> void {
    let s: java.lang.String
    let t: java.lang.String
    s = staticinvoke <securibench.Env: java.lang.String source()>()
    t = staticinvoke <golden.Relay: java.lang.String relay(java.lang.String)>(s)
    staticinvoke <securibench.Env: void sink(java.lang.String)>(t)
    return
  }
}
"#;

/// `core/tests/report_format.rs`'s branchy alias program: a heap field
/// written through either of two aliases on two branches.
const BRANCHY_ALIAS: &str = r#"
class golden.Box extends java.lang.Object { field f: java.lang.String }
class golden.Alias extends java.lang.Object {
  static method main() -> void {
    let x: golden.Box
    let a: golden.Box
    let t: java.lang.String
    let u: java.lang.String
    let i: int
    x = new golden.Box
    a = x
    t = staticinvoke <securibench.Env: java.lang.String source()>()
    i = 0
    if i >= 1 goto other
    x.f = t
    goto join
  label other:
    a.f = t
  label join:
    u = a.f
    staticinvoke <securibench.Env: void sink(java.lang.String)>(u)
    return
  }
}
"#;

/// A CFG loop: the taint is generated inside the loop body and reaches
/// the sink at the loop head over the back edge, and the one after it.
const LOOP: &str = r#"
class golden.Loop extends java.lang.Object {
  static method main() -> void {
    let s: java.lang.String
    let v: java.lang.String
    let i: int
    v = ""
    i = 0
  label top:
    staticinvoke <securibench.Env: void sink(java.lang.String)>(v)
    if i >= 3 goto done
    s = staticinvoke <securibench.Env: java.lang.String source()>()
    v = v + s
    i = i + 1
    goto top
  label done:
    staticinvoke <securibench.Env: void sink(java.lang.String)>(v)
    return
  }
}
"#;

/// A statement that branches to itself between the source and the
/// sink: its own successor, and its own predecessor.
const SELF_LOOP: &str = r#"
class golden.Spin extends java.lang.Object {
  static method main() -> void {
    let s: java.lang.String
    let t: java.lang.String
    let i: int
    s = staticinvoke <securibench.Env: java.lang.String source()>()
    i = 0
  label spin:
    if i >= 1 goto spin
    t = s
    staticinvoke <securibench.Env: void sink(java.lang.String)>(t)
    return
  }
}
"#;

/// Two sources on two branches that join before the sink. The first
/// source's taint reaches the sink down the `real` branch in one walk.
/// The second branch calls a helper before its source, so the second
/// source runs, and its fact reaches `goto join`, one worklist round
/// later.
const TWO_SOURCES: &str = r#"
class golden.Abort extends java.lang.Object {
  static method main() -> void {
    let s: java.lang.String
    let x: int
    let i: int
    i = 0
    s = staticinvoke <securibench.Env: java.lang.String source()>()
    if i >= 1 goto real
    staticinvoke <golden.Abort: void tick()>()
    s = staticinvoke <securibench.Env: java.lang.String source()>()
    goto join
  label real:
    x = 10
    x = 11
    x = 12
  label join:
    staticinvoke <securibench.Env: void sink(java.lang.String)>(s)
    return
  }
  static method tick() -> void {
    return
  }
}
"#;

/// The budget at which [`TWO_SOURCES`] stops right after the sink
/// consumed the first source's taint, while the `goto join` edge
/// holding the second source's fact is still queued. Attribution must
/// not treat that unprocessed node as an origin: it would credit the
/// leak to the second source with a two-step path.
const TWO_SOURCES_BUDGET: u64 = 20;

/// The first line's `, <duration>)` becomes `)`: the only part of a
/// report that is not a function of the program.
fn strip_duration(report: &str) -> String {
    let (head, rest) = report.split_once('\n').unwrap_or((report, ""));
    let cut = head.rfind(", ").expect("report header ends with the duration");
    format!("{})\n{rest}", &head[..cut])
}

fn render_all() -> String {
    let config = InfoflowConfig::default();
    let mut jobs: Vec<(Job, InfoflowConfig)> = Vec::new();
    for app in generate_corpus(41, 12) {
        jobs.push((app.job(), config.clone()));
    }
    for k in [2, 10, 50] {
        jobs.push((stress_job(k), config.clone()));
    }
    for job in droidbench_corpus() {
        jobs.push((job, config.clone()));
    }
    for (class, code) in [
        ("golden.Relay", RELAY),
        ("golden.Alias", BRANCHY_ALIAS),
        ("golden.Loop", LOOP),
        ("golden.Spin", SELF_LOOP),
    ] {
        jobs.push((program(class, code), config.clone()));
    }
    let mut budget = config.clone();
    budget.max_propagations = TWO_SOURCES_BUDGET;
    jobs.push((program("golden.Abort", TWO_SOURCES), budget));
    let mut out = String::new();
    for (job, config) in &jobs {
        writeln!(out, "=== {}", job.name).unwrap();
        out.push_str(&strip_duration(&full_report(job, config)));
    }
    out
}

#[test]
fn full_reports_match_the_golden_file() {
    let actual = render_all();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("full_reports.actual.txt");
    std::fs::write(&path, &actual).expect("write the rendered reports");
    let first_diff = actual
        .split("=== ")
        .zip(GOLDEN.split("=== "))
        .find(|(a, g)| a != g)
        .map_or("<section count>", |(a, _)| a.lines().next().unwrap_or(""));
    panic!(
        "full reports differ from tests/golden/full_reports.txt, first in `{first_diff}`; \
         rendered text written to {}",
        path.display()
    );
}
