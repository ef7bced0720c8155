//! Aborted demand-driven jobs must never leave a partially
//! materialized method body behind in shared state: each lazy job
//! works on a private clone of the platform snapshot, so an abort —
//! however it lands relative to body materialization — must leave the
//! shared snapshot byte-identical, and a follow-up clean run over the
//! same snapshot must match a run from the parse exactly. A clean run of a
//! synthetic stress chain pins its single leak.

use flowdroid_android::encode_snapshot;
use flowdroid_bench::{find_job, run_single, run_single_lazy, shared_platform_snapshot};
use flowdroid_core::{AbortHandle, AbortReason, InfoflowConfig};
use std::time::Duration;

#[test]
fn aborted_lazy_job_leaves_shared_snapshot_untouched() {
    let job = find_job("insecurebank").expect("insecurebank is in the corpus");
    let snapshot = shared_platform_snapshot();
    let before = encode_snapshot(snapshot);

    // A pre-expired deadline aborts the solver at its first poll,
    // after the frontend has already materialized bodies into the
    // job's private clone of the snapshot.
    let aborted = run_single_lazy(
        &job,
        &InfoflowConfig::default().with_abort(AbortHandle::with_deadline(Duration::ZERO)),
    );
    assert!(aborted.aborted, "zero deadline must abort");
    assert_eq!(aborted.abort_reason, Some(AbortReason::Deadline));
    assert!(
        aborted.bodies_materialized > 0,
        "the aborted job should have decoded bodies privately"
    );
    assert_eq!(
        encode_snapshot(snapshot),
        before,
        "aborted job mutated the shared platform snapshot"
    );

    // The snapshot is still pristine, so a clean lazy run over it
    // matches a run from the parse byte for byte (and that run, parsed
    // into an overlay of the same snapshot, leaves it untouched too).
    let eager = run_single(&job, &InfoflowConfig::default());
    assert!(!eager.aborted);
    let clean = run_single_lazy(&job, &InfoflowConfig::default());
    assert!(!clean.aborted);
    assert_eq!(clean.report, eager.report, "post-abort lazy run diverged from eager");
    assert_eq!(encode_snapshot(snapshot), before, "clean lazy job mutated the snapshot");
}

#[test]
fn stress_chain_has_exactly_one_leak() {
    let job = find_job("stress/50").expect("stress jobs resolve by name");
    let run = run_single(&job, &InfoflowConfig::default());
    assert!(!run.aborted);
    assert_eq!(run.leaks, 1, "the synthetic chain leaks its source once");
}
