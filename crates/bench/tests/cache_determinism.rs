//! Cold-vs-warm determinism for the persistent summary cache: replaying
//! stored end summaries must change *how fast* the fixpoint is reached,
//! never *what* it is. A cold pass (which populates the store but is
//! forbidden from consuming its own discoveries) and a warm pass (which
//! replays the flushed store) must both produce the exact bytes of an
//! uncached run. A damaged store file must change neither: the cache
//! starts cold.

use flowdroid_bench::driver::{
    corpus_report, droidbench_corpus, find_job, run_corpus, run_corpus_cold_warm, run_single,
};
use flowdroid_core::{flush_summary_cache, InfoflowConfig};
use std::path::PathBuf;

/// Cold-then-warm runs over the DroidBench corpus produce leak reports
/// byte-identical to an uncached run, and the warm pass actually
/// replays summaries (nonzero hits).
#[test]
fn summary_cache_cold_and_warm_reports_identical() {
    let jobs = droidbench_corpus();
    let uncached = corpus_report(&run_corpus(&jobs, &InfoflowConfig::default(), 1));
    assert!(uncached.contains("leak(s)"));
    let dir = std::env::temp_dir().join(format!("flowdroid-cache-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm) = run_corpus_cold_warm(&jobs, &InfoflowConfig::default(), 1, &dir);
    assert_eq!(corpus_report(&cold), uncached, "cold cached report diverged");
    assert_eq!(corpus_report(&warm), uncached, "warm cached report diverged");
    let cold_stats = cold.summary_cache_totals().expect("cold pass ran with a cache");
    assert_eq!(cold_stats.hits, 0, "cold pass must not consume its own store");
    assert!(cold_stats.recorded > 0, "cold pass should stage summaries");
    let warm_stats = warm.summary_cache_totals().expect("warm pass ran with a cache");
    assert!(warm_stats.hits > 0, "warm pass should replay stored summaries");
    assert!(warm_stats.store_methods > 0, "store should hold flushed methods");
    let (cold_fw, cold_bw) = cold.total_propagations();
    let (warm_fw, warm_bw) = warm.total_propagations();
    assert!(
        warm_fw + warm_bw < cold_fw + cold_bw,
        "warm pass should save path edges (cold {}, warm {})",
        cold_fw + cold_bw,
        warm_fw + warm_bw
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("flowdroid-cache-damage-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `app` cold against a fresh cache directory, flushes, and
/// returns the one store file the run wrote (file name, bytes).
fn store_file_of(app: &str) -> (std::ffi::OsString, Vec<u8>) {
    let dir = temp_cache(&app.replace('/', "_"));
    let job = find_job(app).expect("app is in the corpus");
    run_single(&job, &InfoflowConfig::default().with_summary_cache(&dir));
    flush_summary_cache(&dir).expect("flush");
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.path()).collect();
    assert_eq!(files.len(), 1, "one context, one store file: {files:?}");
    let file = (files[0].file_name().unwrap().to_owned(), std::fs::read(&files[0]).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    file
}

/// A truncated, corrupt or wrong-context store file starts the cache
/// cold with `load_error` set, and the analysis still completes with
/// the uncached report.
#[test]
fn damaged_store_files_start_cold_and_the_analysis_completes() {
    let job = find_job("insecurebank").expect("insecurebank is in the corpus");
    let uncached = run_single(&job, &InfoflowConfig::default());
    let (name, bytes) = store_file_of("insecurebank");
    // SecuriBench runs under other sources and sinks: another context.
    let (other_name, other_bytes) = store_file_of("securibench/Aliasing/Aliasing0");
    assert_ne!(name, other_name, "the two apps must differ in context");

    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x40;
    let damaged = [
        ("truncated", bytes[..bytes.len() - 9].to_vec()),
        ("corrupt", flipped),
        ("wrong-context", other_bytes),
    ];
    for (tag, contents) in damaged {
        let dir = temp_cache(tag);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&name), contents).unwrap();
        let run = run_single(&job, &InfoflowConfig::default().with_summary_cache(&dir));
        assert!(!run.aborted, "{tag}: the analysis must complete");
        assert_eq!(run.report, uncached.report, "{tag}: report diverged from the uncached run");
        let cache = run.summary_cache.expect("cache stats present");
        assert!(cache.load_error.is_some(), "{tag}: the damage must be reported");
        assert_eq!((cache.hits, cache.store_methods), (0, 0), "{tag}: the cache starts cold");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
