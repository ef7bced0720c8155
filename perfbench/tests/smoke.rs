//! Every workload, end to end and traced, for a few seconds against an
//! in-process daemon: every metric is reported and every verdict holds.

use flowdroid_perfbench::{run, Launcher, RunOptions, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

#[test]
fn every_workload_reports_every_metric_with_correct_verdicts() {
    let work_root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&work_root).unwrap();
    for workload in Workload::ALL {
        for (trace, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let opts = RunOptions {
                workload,
                seed: 7,
                seconds: 2.0,
                trace,
                work_root: work_root.clone(),
            };
            let outcome = run(&opts, &Launcher::InProcess)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
            let what = format!("{} (trace {trace})", workload.name());
            assert_eq!(outcome.verdict_errors, 0, "{what}: wrong verdicts");
            assert_eq!(outcome.failed, 0, "{what}: failed jobs");
            assert!(outcome.attempted > 0, "{what}: nothing ran");
            let json = outcome.to_json();
            for (name, unit) in names {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": "))
                        && outcome.metric(name).is_some(),
                    "{what}: metric {name} missing from {json}"
                );
                assert!(
                    json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{what}: unit {unit} missing"
                );
            }
            assert!(json.starts_with("{\"correct\": true,"), "{what}: {json}");
        }
    }
}
