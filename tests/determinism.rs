//! Reproducibility: repeated analyses yield byte-identical reports
//! (the core driver is deterministic by design; paper results must be
//! reproducible run to run).

use flowdroid::android::install_platform;
use flowdroid::droidbench::all_apps;
use flowdroid::prelude::*;

fn full_report(app: &flowdroid::droidbench::BenchApp) -> String {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let loaded = app.load(&mut p).unwrap();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let analysis =
        Infoflow::new(&sources, &wrapper, &config).analyze_app(&mut p, &platform, &loaded, "det");
    let mut report = analysis.results.report(&p);
    // The only nondeterministic field is the wall-clock duration.
    if let Some(pos) = report.find(" propagations, ") {
        report.truncate(pos);
    }
    report
}

#[test]
fn repeated_runs_render_identical_reports() {
    for app in all_apps().iter().filter(|a| a.expected_leaks > 0).take(8) {
        let a = full_report(app);
        let b = full_report(app);
        assert_eq!(a, b, "{} must be deterministic", app.name);
    }
}

#[test]
fn leaks_are_sorted_and_stable() {
    let bank = flowdroid::droidbench::insecurebank::insecure_bank();
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let loaded = bank.load(&mut p).unwrap();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let analysis =
        Infoflow::new(&sources, &wrapper, &config).analyze_app(&mut p, &platform, &loaded, "det2");
    let leaks = &analysis.results.leaks;
    assert_eq!(leaks.len(), 7);
    let mut sorted = leaks.clone();
    sorted.sort_by_key(|l| (l.sink, l.source));
    assert_eq!(*leaks, sorted, "reported leaks are in stable order");
}
