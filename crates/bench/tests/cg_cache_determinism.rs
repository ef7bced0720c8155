//! Determinism sweep for the copy-on-write platform overlay and the
//! callgraph setup a prepared job stores: the leak report of every
//! corpus shape (full Android pipeline, callback-heavy app, SecuriBench
//! micro case) must be byte-identical whether the job is parsed into a
//! deep clone of the platform arena or into an overlay of it, and
//! whether it runs from its parse or from a prepared job whose setup
//! was computed cold or replayed.

use flowdroid_bench::{find_job, run_single, shared_platform_snapshot};
use flowdroid_core::job::{parse_job, prepare, run_parsed, run_prepared};
use flowdroid_core::InfoflowConfig;

const APPS: &[&str] =
    &["insecurebank", "droidbench/Callbacks/Button1", "securibench/Collections/Collections5"];

#[test]
fn overlay_and_cached_runs_match_deep_clone() {
    let snapshot = shared_platform_snapshot();
    let config = InfoflowConfig::default();
    for name in APPS {
        let job = find_job(name).expect("corpus job");

        // The reference: the job parsed into a full deep clone of the
        // platform arena instead of an overlay.
        let parsed = parse_job(&job, snapshot.deep_program()).expect("corpus job parses");
        let deep = run_parsed(parsed, &config, snapshot);
        assert!(!deep.aborted, "{name}: deep-clone run aborted");
        assert!(!deep.setup_replayed, "{name}: a run from the parse keeps no setup");

        // The same first run over an overlay.
        let overlay = run_single(&job, &config);
        assert_eq!(overlay.report, deep.report, "{name}: overlay parse diverged from deep clone");

        // One prepared job, run twice over overlays: the first run
        // stores the setup (miss), the second replays it (hit).
        let prepared = prepare(&job, snapshot).expect("corpus job parses");
        for replay in [false, true] {
            let run = run_prepared(&prepared, &config, snapshot);
            assert_eq!(run.setup_replayed, replay, "{name}: unexpected setup disposition");
            assert_eq!(run.report, deep.report, "{name}: prepared run diverged from deep clone");
        }
    }
}
