//! Golden fingerprints of the IR every suite app loads into.
//!
//! The frontend mints `ClassId`s, `MethodId`s, `FieldId`s and `Symbol`s
//! in the order it meets declarations and names, and the analysis
//! depends on that order (interned facts, sorted reports, tie-breaks).
//! This test loads every DroidBench app, InsecureBank, every SecuriBench
//! Micro case and one seed of the generated truth corpus the way the
//! eager pipeline does (platform stubs, then the app), and hashes the
//! program: the `Debug` form of every class, method and field in id
//! order, phantoms included, then the [`ProgramPrinter`] dump. One line
//! per app is compared with `tests/golden/parsed_ir.txt`.
//!
//! On a mismatch the rendered lines are written to Cargo's temporary
//! directory for integration tests (the path is in the failure message).
//! A frontend change that keeps the IR must keep every line.

use flowdroid_android::install_platform;
use flowdroid_droidbench::{all_apps, insecurebank, BenchApp};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, App};
use flowdroid_ir::{fnv1a64, Program, ProgramPrinter};
use flowdroid_securibench::{cases_in, Group, MICRO_ENV};
use flowdroid_truth::generate_corpus;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/parsed_ir.txt");

/// The program's fingerprint: every class, method and field in id
/// order, then the printed program.
fn fingerprint(p: &Program) -> u64 {
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

/// A fresh program holding the platform stubs and `app`.
fn load_droid(app: &BenchApp) -> Program {
    let mut p = Program::new();
    install_platform(&mut p);
    app.load(&mut p).expect("suite app parses");
    p
}

fn render_all() -> String {
    let mut out = String::new();
    let mut line =
        |name: &str, p: &Program| writeln!(out, "{name} {:016x}", fingerprint(p)).unwrap();
    for app in all_apps() {
        line(&format!("droidbench/{:?}/{}", app.category, app.name), &load_droid(&app));
    }
    line("insecurebank", &load_droid(&insecurebank::insecure_bank()));
    for group in Group::all() {
        for case in cases_in(group) {
            let name = format!("securibench/{group}/{}", case.name);
            let mut p = Program::new();
            install_platform(&mut p);
            let rt = ResourceTable::new();
            parse_jasm(&mut p, &rt, MICRO_ENV).expect("micro env parses");
            parse_jasm(&mut p, &rt, &case.code).expect("micro case parses");
            line(&name, &p);
        }
    }
    for app in generate_corpus(41, 12) {
        let mut p = Program::new();
        install_platform(&mut p);
        let layouts: Vec<(&str, &str)> =
            app.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        App::from_parts(&mut p, &app.manifest, &layouts, &app.code).expect("truth app parses");
        line(&app.name, &p);
    }
    out
}

#[test]
fn parsed_ir_matches_golden() {
    let rendered = render_all();
    if rendered != GOLDEN {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("parsed_ir.txt");
        std::fs::write(&path, &rendered).expect("write rendered fingerprints");
        let first = rendered
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, b)| a != b)
            .map_or_else(|| "line count differs".to_string(), |(a, b)| format!("{b} -> {a}"));
        panic!(
            "parsed IR differs from the golden (first: {first}); rendered to {}",
            path.display()
        );
    }
}
