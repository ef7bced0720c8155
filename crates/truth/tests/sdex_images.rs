//! Golden hashes of the SDEX image every suite app encodes to.
//!
//! The job path parses an app once and keeps it as the SDEX image
//! `sdex::encode` writes; every run decodes that image. The image's
//! bytes are a contract: string-pool order, descriptor spelling and
//! statement encoding must not drift when the encoder changes shape.
//! This test loads the same apps as `parsed_ir.rs` (every DroidBench
//! app, InsecureBank, every SecuriBench Micro case and one seed of the
//! generated truth corpus) over the platform stubs, encodes the app's
//! classes the way `flowdroid_core::job::prepare` does, and compares one
//! `fnv1a64` of the image per app with `tests/golden/sdex_images.txt`.
//!
//! On a mismatch the rendered lines are written to Cargo's temporary
//! directory for integration tests (the path is in the failure message).

use flowdroid_android::install_platform;
use flowdroid_droidbench::{all_apps, insecurebank, BenchApp};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::{parse_jasm, sdex, App};
use flowdroid_ir::{fnv1a64, ClassId, Program};
use flowdroid_securibench::{cases_in, Group, MICRO_ENV};
use flowdroid_truth::generate_corpus;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/sdex_images.txt");

/// A fresh program holding the platform stubs and `app`, with the
/// app's class ids.
fn load_droid(app: &BenchApp) -> (Program, Vec<ClassId>) {
    let mut p = Program::new();
    install_platform(&mut p);
    let classes = app.load(&mut p).expect("suite app parses").classes;
    (p, classes)
}

fn render_all() -> String {
    let mut out = String::new();
    let mut line = |name: &str, (p, classes): (Program, Vec<ClassId>)| {
        let image = sdex::encode(&p, &classes);
        writeln!(out, "{name} {:016x}", fnv1a64(&image)).unwrap();
    };
    for app in all_apps() {
        line(&format!("droidbench/{:?}/{}", app.category, app.name), load_droid(&app));
    }
    line("insecurebank", load_droid(&insecurebank::insecure_bank()));
    for group in Group::all() {
        for case in cases_in(group) {
            let name = format!("securibench/{group}/{}", case.name);
            let mut p = Program::new();
            install_platform(&mut p);
            let rt = ResourceTable::new();
            let mut classes = parse_jasm(&mut p, &rt, MICRO_ENV).expect("micro env parses");
            classes.extend(parse_jasm(&mut p, &rt, &case.code).expect("micro case parses"));
            line(&name, (p, classes));
        }
    }
    for app in generate_corpus(41, 12) {
        let mut p = Program::new();
        install_platform(&mut p);
        let layouts: Vec<(&str, &str)> =
            app.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        let classes = App::from_parts(&mut p, &app.manifest, &layouts, &app.code)
            .expect("truth app parses")
            .classes;
        line(&app.name, (p, classes));
    }
    out
}

#[test]
fn sdex_images_match_golden() {
    let rendered = render_all();
    if rendered != GOLDEN {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("sdex_images.txt");
        std::fs::write(&path, &rendered).expect("write rendered image hashes");
        let first = rendered
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, b)| a != b)
            .map_or_else(|| "line count differs".to_string(), |(a, b)| format!("{b} -> {a}"));
        panic!(
            "SDEX images differ from the golden (first: {first}); rendered to {}",
            path.display()
        );
    }
}
