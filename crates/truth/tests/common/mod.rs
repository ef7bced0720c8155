//! The IR fingerprint shared by the parsed-IR goldens.

use flowdroid_ir::{fnv1a64, Program, ProgramPrinter};
use std::fmt::Write;

/// The program's fingerprint: the `Debug` form of every class, method
/// and field in id order, phantoms included, then the printed program.
pub fn fingerprint(p: &Program) -> u64 {
    let mut text = String::new();
    for c in p.classes() {
        writeln!(text, "{c:?}").unwrap();
    }
    for m in p.methods() {
        writeln!(text, "{m:?}").unwrap();
    }
    for f in p.fields() {
        writeln!(text, "{f:?}").unwrap();
    }
    text.push_str(&ProgramPrinter::new(p).program_to_string());
    fnv1a64(text.as_bytes())
}

/// Compares `rendered` with `golden`. On a mismatch it writes the
/// rendered lines to Cargo's temporary directory for integration tests
/// as `file` and panics with the first differing line and that path.
pub fn check_golden(rendered: &str, golden: &str, file: &str) {
    if rendered == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, rendered).expect("write rendered fingerprints");
    let first = rendered
        .lines()
        .zip(golden.lines())
        .find(|(a, b)| a != b)
        .map_or_else(|| "line count differs".to_string(), |(a, b)| format!("{b} -> {a}"));
    panic!("parsed IR differs from the golden (first: {first}); rendered to {}", path.display());
}
