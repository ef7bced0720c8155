//! Aborted runs must never poison the persistent summary cache: an
//! aborted run stages zero cache entries, and a subsequent non-aborted run over the same cache
//! directory produces a report byte-identical to an uncached run.

use flowdroid_bench::driver::{find_job, run_single};
use flowdroid_core::{flush_summary_cache, AbortHandle, AbortReason, InfoflowConfig};
use std::path::PathBuf;
use std::time::Duration;

fn temp_cache(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("flowdroid-abort-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn aborted_run_stages_nothing_and_later_runs_match_uncached() {
    let job = find_job("insecurebank").expect("insecurebank is in the corpus");
    let baseline = run_single(&job, &InfoflowConfig::default());
    assert!(!baseline.aborted);
    assert!(baseline.leaks > 0, "insecurebank has known leaks");

    let dir = temp_cache("aborted");

    // A pre-expired deadline aborts the solver on its first poll,
    // mid-analysis from the cache's point of view.
    let aborted = run_single(
        &job,
        &InfoflowConfig::default()
            .with_summary_cache(&dir)
            .with_abort(AbortHandle::with_deadline(Duration::ZERO)),
    );
    assert!(aborted.aborted, "zero deadline must abort");
    assert_eq!(aborted.abort_reason, Some(AbortReason::Deadline));
    let cache = aborted.summary_cache.expect("cache stats present");
    assert_eq!(cache.recorded, 0, "aborted run staged {} summaries", cache.recorded);

    // Even after a flush, the store holds nothing from the aborted
    // run, so a clean run over the same directory behaves exactly
    // like an uncached one.
    flush_summary_cache(&dir).expect("flush");
    let clean = run_single(&job, &InfoflowConfig::default().with_summary_cache(&dir));
    assert!(!clean.aborted);
    assert_eq!(clean.report, baseline.report, "report diverged from the uncached baseline");
    let cache = clean.summary_cache.expect("cache stats present");
    assert_eq!(cache.hits, 0, "nothing was staged, so nothing can hit");
    assert_eq!(cache.store_methods, 0, "visible store must be empty");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stress_chain_has_exactly_one_leak() {
    let job = find_job("stress/50").expect("stress jobs resolve by name");
    let run = run_single(&job, &InfoflowConfig::default());
    assert!(!run.aborted);
    assert_eq!(run.leaks, 1, "the synthetic chain leaks its source once");
}
