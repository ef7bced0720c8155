//! Determinism sweep for the copy-on-write platform overlay and the
//! callgraph cache: the leak report of every corpus shape (full
//! Android pipeline, callback-heavy app, SecuriBench micro case) must
//! be byte-identical whether the job deep-clones the platform arena or
//! overlays it, and whether its analysis setup was computed cold or
//! replayed from a [`CgCache`] entry.

use flowdroid_bench::{
    find_job, run_single_lazy, run_single_lazy_deep_clone, shared_platform_snapshot,
};
use flowdroid_core::{CgCache, InfoflowConfig};

const APPS: &[&str] =
    &["insecurebank", "droidbench/Callbacks/Button1", "securibench/Collections/Collections5"];

#[test]
fn overlay_and_cached_runs_match_deep_clone() {
    let snapshot = shared_platform_snapshot();
    let cache = CgCache::new(8);
    let config = InfoflowConfig::default();
    for name in APPS {
        let job = find_job(name).expect("corpus job");

        // The reference: a full deep clone of the platform arena,
        // exactly what the daemon shipped before overlays.
        let deep = run_single_lazy_deep_clone(&job, &config, snapshot);
        assert!(!deep.aborted, "{name}: deep-clone run aborted");
        assert_eq!(deep.cg_cache_hit, None, "no cache was offered");

        let overlay = run_single_lazy(&job, &config, snapshot, None);
        assert_eq!(overlay.report, deep.report, "{name}: overlay program diverged from deep clone");

        // The first cached run populates the cache (miss), the second
        // replays it (hit).
        for warm in [false, true] {
            let cached = run_single_lazy(&job, &config, snapshot, Some(&cache));
            assert_eq!(cached.cg_cache_hit, Some(warm), "{name}: unexpected cache disposition");
            assert_eq!(
                cached.report, deep.report,
                "{name}: cached-callgraph run diverged from deep clone"
            );
        }
    }
    let s = cache.stats();
    assert_eq!(s.misses as usize, APPS.len(), "one cold miss per app");
    assert_eq!(s.hits as usize, APPS.len(), "one warm hit per app");
    assert_eq!(s.evictions, 0);
    assert_eq!(s.invalidations, 0);
}
