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

mod common;

use common::{check_golden, fingerprint};
use flowdroid_android::install_platform;
use flowdroid_droidbench::{all_apps, insecurebank, BenchApp};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, App};
use flowdroid_ir::Program;
use flowdroid_securibench::{cases_in, Group, MICRO_ENV};
use flowdroid_truth::generate_corpus;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/parsed_ir.txt");

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
    check_golden(&render_all(), GOLDEN, "parsed_ir.txt");
}
