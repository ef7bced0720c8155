//! Determinism sweep for the copy-on-write platform overlay and the
//! callgraph setup a prepared job stores: the leak report of every
//! corpus shape (full Android pipeline, callback-heavy app, SecuriBench
//! micro case) must be byte-identical whether the job deep-clones the
//! platform arena or overlays it, and whether its analysis setup was
//! computed cold or replayed from its prepared job.

use flowdroid_bench::{
    find_job, prepare, run_prepared, run_single_lazy_deep_clone, shared_platform_snapshot,
};
use flowdroid_core::InfoflowConfig;

const APPS: &[&str] =
    &["insecurebank", "droidbench/Callbacks/Button1", "securibench/Collections/Collections5"];

#[test]
fn overlay_and_cached_runs_match_deep_clone() {
    let snapshot = shared_platform_snapshot();
    let config = InfoflowConfig::default();
    for name in APPS {
        let job = find_job(name).expect("corpus job");

        // The reference: a full deep clone of the platform arena,
        // exactly what the daemon shipped before overlays.
        let deep = run_single_lazy_deep_clone(&job, &config);
        assert!(!deep.aborted, "{name}: deep-clone run aborted");
        assert!(!deep.setup_replayed, "{name}: a freshly prepared job runs cold");

        // One prepared job, run twice over overlays: the first run
        // stores the setup (miss), the second replays it (hit).
        let prepared = prepare(&job, snapshot).expect("corpus job parses");
        for replay in [false, true] {
            let run = run_prepared(&prepared, &config, snapshot);
            assert_eq!(run.setup_replayed, replay, "{name}: unexpected setup disposition");
            assert_eq!(run.report, deep.report, "{name}: overlay run diverged from deep clone");
        }
    }
}
