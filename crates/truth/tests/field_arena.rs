//! The process-wide field-sequence arena (`intern_fields`) leaks every
//! distinct field chain so that access paths can hold `'static`
//! slices. Its keys are field-id sequences, and an app's field ids are
//! assigned afresh in each overlay of the platform, so a repeat of the
//! same apps must find every chain already interned.
//!
//! The test runs the seed-42 truth corpus twice, each job parsed into a
//! fresh platform overlay and analyzed as the daemon's first run does
//! (`parse_job` + `analyze_parsed`), and pins that the second pass adds
//! no arena entry. It is the only test in its binary, so no other test
//! adds entries while it counts.

use flowdroid_bench::shared_platform_snapshot;
use flowdroid_core::intern::interned_field_sequences;
use flowdroid_core::job::{analyze_parsed, parse_job};
use flowdroid_core::InfoflowConfig;
use flowdroid_truth::generate_corpus;

/// Analyzes every app of the seed's corpus from its parse; returns the
/// leaks found.
fn run_corpus(seed: u64) -> usize {
    let snapshot = shared_platform_snapshot();
    let config = InfoflowConfig::default();
    let mut leaks = 0;
    for app in generate_corpus(seed, 2) {
        let parsed = parse_job(&app.job(), snapshot.overlay_program()).expect("truth apps parse");
        leaks += analyze_parsed(parsed, &config, snapshot).1.leak_count();
    }
    leaks
}

#[test]
fn a_repeated_corpus_adds_no_field_sequence() {
    let before = interned_field_sequences();
    let leaks = run_corpus(42);
    let first = interned_field_sequences();
    assert!(leaks > 0);
    assert!(first > before, "the truth corpus interns field chains");
    assert_eq!(run_corpus(42), leaks);
    let second = interned_field_sequences();
    eprintln!("field-sequence arena: {before} → {first} → {second} entries");
    assert_eq!(second, first, "a repeat of the same apps added {} entries", second - first);
}
