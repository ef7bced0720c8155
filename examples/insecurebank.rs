//! RQ2: analyzes the InsecureBank app and verifies that all seven
//! ground-truth leaks are found, with full path reports and timing.
//!
//! ```sh
//! cargo run --example insecurebank
//! ```

use flowdroid::android::install_platform;
use flowdroid::droidbench::insecurebank::insecure_bank;
use flowdroid::prelude::*;

fn main() {
    let bank = insecure_bank();
    let mut program = Program::new();
    let platform = install_platform(&mut program);
    let app = bank.load(&mut program).expect("InsecureBank loads");

    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let start = std::time::Instant::now();
    let analysis = Infoflow::new(&sources, &wrapper, &config).analyze_app(
        &mut program,
        &platform,
        &app,
        "bank",
    );
    let elapsed = start.elapsed();

    println!("{}", analysis.results.report(&program));
    println!(
        "RQ2: {}/{} leaks in {elapsed:?} (paper: 7/7, ~31 s on a 2010-era laptop)",
        analysis.results.leak_count(),
        bank.expected_leaks
    );
    assert_eq!(analysis.results.leak_count(), 7);
    println!("insecurebank: no false positives nor false negatives ✓");
}
