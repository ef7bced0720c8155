//! Runs the reproduced FlowDroid over the whole DroidBench suite and
//! prints the per-app outcomes, the per-category precision/recall
//! table (the same [`ScoreBoard`] schema the ground-truth harness
//! emits) and the Table 1 summary numbers.
//!
//! ```sh
//! cargo run --example droidbench_eval
//! ```

use flowdroid::android::install_platform;
use flowdroid::droidbench::{all_apps, AppScore, ScoreBoard};
use flowdroid::prelude::*;

fn main() {
    let mut board = ScoreBoard::new();
    println!("{:<28} {:>8} {:>8} outcome", "app", "expected", "reported");
    for app in all_apps().iter().filter(|a| a.in_table) {
        let mut program = Program::new();
        let platform = install_platform(&mut program);
        let loaded = app.load(&mut program).expect("suite app loads");
        let sources = SourceSinkManager::default_android();
        let wrapper = TaintWrapper::default_rules();
        let config = InfoflowConfig::default();
        let analysis = Infoflow::new(&sources, &wrapper, &config).analyze_app(
            &mut program,
            &platform,
            &loaded,
            "eval",
        );
        let found = analysis.results.leak_count();
        let score = AppScore::from_counts(app.expected_leaks, found);
        let outcome = match (score.fp, score.fn_) {
            (0, 0) => "ok",
            (_, 0) => "false alarm(s)",
            (0, _) => "missed",
            _ => "mixed",
        };
        println!("{:<28} {:>8} {:>8} {outcome}", app.name, app.expected_leaks, found);
        board.record(&format!("{:?}", app.category), score);
    }
    println!();
    print!("{}", board.render());
    let total = board.total();
    println!();
    println!("sum: {} correct, {} false alarms, {} missed", total.tp, total.fp, total.fn_);
    println!(
        "precision {:.0}%  recall {:.0}%  F-measure {:.2}",
        total.precision() * 100.0,
        total.recall() * 100.0,
        total.f_measure()
    );
    assert_eq!((total.tp, total.fp, total.fn_), (26, 4, 2), "paper Table 1");
    println!("droidbench_eval: matches the paper's FlowDroid column ✓");
}
