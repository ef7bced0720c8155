//! Golden fingerprints of the IR of the perfbench-shaped apps.
//!
//! perfbench's taint workloads send one-activity chain apps
//! ([`chain_app`]: forward k = 100/200/300, heap k = 20/40/60) and its apps workloads send the
//! generated truth corpus (seeds 42–46, twelve apps per category, as
//! perfbench draws its pools). This test loads each such app the way the
//! daemon's first run does (platform stubs, then the app's archive
//! through [`App::from_archive`]) and hashes the program with the
//! fingerprint of `parsed_ir.rs`: one line per app is compared with
//! `tests/golden/parsed_ir_chains.txt`. A frontend change that keeps the
//! IR must keep every line.

mod common;

use common::{check_golden, fingerprint};
use flowdroid_android::install_platform;
use flowdroid_frontend::{App, Archive};
use flowdroid_ir::Program;
use flowdroid_truth::{chain_app, generate_corpus};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/parsed_ir_chains.txt");

/// A fresh program holding the platform stubs and the app in `archive`.
fn load(archive: &Archive) -> Program {
    let mut p = Program::new();
    install_platform(&mut p);
    App::from_archive(&mut p, archive).expect("app parses");
    p
}

fn render_all() -> String {
    let mut out = String::new();
    let mut line =
        |name: &str, p: &Program| writeln!(out, "{name} {:016x}", fingerprint(p)).unwrap();
    for (alias, sizes) in [(false, [100, 200, 300]), (true, [20, 40, 60])] {
        for k in sizes {
            let name = format!("{}/{k}", if alias { "heap" } else { "forward" });
            line(&name, &load(&chain_app(&format!("pf.c{k}.s0"), k, alias)));
        }
    }
    for seed in 42..=46 {
        for app in generate_corpus(seed, 12) {
            let archive = Archive::from_bytes(&app.rpk_bytes()).expect("packed app reads");
            line(&app.name, &load(&archive));
        }
    }
    out
}

#[test]
fn parsed_ir_of_the_benchmark_shapes_matches_golden() {
    check_golden(&render_all(), GOLDEN, "parsed_ir_chains.txt");
}

/// `code` written another way the lexer must read alike: CRLF line
/// ends, tabs for blanks, spaced dots (`a . b`) and a `//` or `#`
/// comment closing every line, all outside string literals.
fn respelled(code: &str) -> String {
    let mut out = String::new();
    for (n, line) in code.lines().enumerate() {
        let mut in_string = false;
        let mut chars = line.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => in_string = !in_string,
                '\\' if in_string => {
                    out.push(c);
                    out.extend(chars.next());
                    continue;
                }
                ' ' if !in_string => {
                    out.push('\t');
                    continue;
                }
                '.' if !in_string => {
                    out.push_str(" .\t");
                    continue;
                }
                _ => {}
            }
            out.push(c);
        }
        out.push_str(if n % 2 == 0 {
            " // a . \"comment\"\r\n"
        } else {
            "\t# and { another }\r\n"
        });
    }
    out
}

#[test]
fn respelled_truth_apps_parse_to_the_same_ir() {
    for app in generate_corpus(42, 12) {
        let packed = Archive::from_bytes(&app.rpk_bytes()).expect("packed app reads");
        let mut archive = Archive::new();
        for (path, data) in packed.iter() {
            match path {
                "classes.jasm" => {
                    let code = std::str::from_utf8(data).expect("code is text");
                    let text = respelled(code);
                    assert_ne!(text, code);
                    archive.add(path, text.into_bytes())
                }
                _ => archive.add(path, data),
            };
        }
        let plain = fingerprint(&load(&packed));
        assert_eq!(fingerprint(&load(&archive)), plain, "{}", app.name);
    }
}
