//! Determinism sweeps: the parallel taint engine and the parallel
//! corpus driver must produce results identical to their sequential
//! counterparts across all DroidBench apps and every thread count —
//! parallelism must never change *what* is computed.

use flowdroid_bench::driver::{corpus_report, droidbench_corpus, run_corpus, CorpusRun};
use flowdroid_bench::{external_job, run_single};
use flowdroid_core::InfoflowConfig;

/// The parallel corpus driver's leak report is byte-for-byte identical
/// to the single-threaded run at every thread count, and stable across
/// repeat runs.
#[test]
fn corpus_driver_report_identical_across_thread_counts() {
    let jobs = droidbench_corpus();
    let config = InfoflowConfig::default();
    let baseline = corpus_report(&run_corpus(&jobs, &config, 1));
    assert!(baseline.contains("leak(s)"));
    for threads in [2usize, 4, 8] {
        let report = corpus_report(&run_corpus(&jobs, &config, threads));
        assert_eq!(report, baseline, "corpus report diverged at {threads} threads");
    }
    // Repeat run: same bytes again.
    let again = corpus_report(&run_corpus(&jobs, &config, 4));
    assert_eq!(again, baseline, "corpus report not stable across repeat runs");
}

/// Both engines tabulate into bitset rows: a corpus run that recorded
/// none never exercised the fact tables.
fn assert_table_rows(run: &CorpusRun, taint_threads: usize) {
    assert!(
        run.fact_table_totals().is_some_and(|t| t.rows > 0),
        "corpus run recorded no table rows at {taint_threads} taint thread(s)"
    );
}

/// The parallel bidirectional taint engine (forward + backward
/// propagation as interleaved jobs over the work-stealing scheduler)
/// produces byte-for-byte identical leak reports to the sequential
/// solver on every DroidBench app, at every worker count.
#[test]
fn parallel_taint_engine_matches_sequential_on_droidbench() {
    let jobs = droidbench_corpus();
    let sequential_run = run_corpus(&jobs, &InfoflowConfig::default(), 1);
    assert_table_rows(&sequential_run, 0);
    let sequential = corpus_report(&sequential_run);
    assert!(sequential.contains("leak(s)"));
    for threads in [1usize, 2, 4, 8] {
        let config = InfoflowConfig::default().with_taint_threads(threads);
        let run = run_corpus(&jobs, &config, 1);
        assert_table_rows(&run, threads);
        assert_eq!(
            corpus_report(&run),
            sequential,
            "parallel taint report diverged at {threads} threads"
        );
    }
}

/// The demand-driven frontend (platform snapshot clone + lazy method
/// bodies, see `InfoflowConfig::lazy_frontend`) produces byte-for-byte
/// the same leak report as eager loading on the whole corpus, with the
/// sequential solver and with the parallel taint engine — laziness must
/// only move *when* bodies are decoded, never what is analyzed. The
/// lazy sweep must also leave at least one body undecoded overall, or
/// it is not exercising the demand path at all.
#[test]
fn lazy_frontend_report_identical_to_eager() {
    use flowdroid_bench::full_corpus;
    let jobs = full_corpus();
    for taint_threads in [1usize, 4] {
        let eager = InfoflowConfig::default().with_taint_threads(taint_threads);
        let lazy = eager.clone().with_lazy_frontend(true);
        let eager_run = run_corpus(&jobs, &eager, 1);
        let lazy_run = run_corpus(&jobs, &lazy, 1);
        assert_eq!(
            corpus_report(&lazy_run),
            corpus_report(&eager_run),
            "lazy report diverged from eager at {taint_threads} taint thread(s)"
        );
        assert_table_rows(&lazy_run, taint_threads);
        let (materialized_eager, _) = eager_run.total_bodies();
        assert_eq!(materialized_eager, 0, "eager runs must not touch the demand path");
        let (materialized, skipped) = lazy_run.total_bodies();
        assert!(materialized > 0, "lazy sweep decoded no bodies on demand");
        assert!(skipped > 0, "lazy sweep left no body undecoded — nothing was lazy");
    }
}

/// A single-activity app whose `onCreate` carries the IMEI down a heap
/// chain of `k` boxes to one log sink: every box `x_i` is allocated and
/// aliased (`a_i = x_i`) up front, then `x_i.f = t_i; t_{i+1} = a_i.f`
/// runs down the chain, so every store starts a backward alias search
/// past all the allocations and activation statements decide each read
/// through the alias.
fn alias_chain_code(k: usize) -> String {
    let mut code = String::from(
        "class chain.Box extends java.lang.Object {\n  field f: java.lang.String\n  \
         method <init>() -> void {\n    return\n  }\n}\n\
         class chain.Main extends android.app.Activity {\n  \
         method onCreate(b: android.os.Bundle) -> void {\n    \
         let o: java.lang.Object\n    let tm: android.telephony.TelephonyManager\n",
    );
    for i in 0..=k {
        code += &format!("    let t{i}: java.lang.String\n");
    }
    for i in 0..k {
        code += &format!("    let x{i}: chain.Box\n    let a{i}: chain.Box\n");
    }
    code += "    o = virtualinvoke this.<android.content.Context: java.lang.Object \
             getSystemService(java.lang.String)>(\"phone\")\n    \
             tm = (android.telephony.TelephonyManager) o\n    \
             t0 = virtualinvoke tm.<android.telephony.TelephonyManager: \
             java.lang.String getDeviceId()>()\n";
    for i in 0..k {
        code += &format!(
            "    x{i} = new chain.Box\n    specialinvoke x{i}.<chain.Box: void <init>()>()\n    \
             a{i} = x{i}\n"
        );
    }
    for i in 0..k {
        code += &format!("    x{i}.f = t{i}\n    t{} = a{i}.f\n", i + 1);
    }
    code += "    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>";
    code += &format!("(\"T\", t{k})\n    return\n  }}\n}}\n");
    code
}

/// The alias-heavy chain shape (`k = 20`): the parallel taint engine at
/// 4 workers reports byte-for-byte what the sequential solver reports,
/// with the same forward and backward propagation counts.
#[test]
fn parallel_taint_engine_matches_sequential_on_alias_chain() {
    let manifest = "<manifest package=\"chain\">\n  <application>\n    \
        <activity android:name=\".Main\">\n      <intent-filter><action \
        android:name=\"android.intent.action.MAIN\"/></intent-filter>\n    \
        </activity>\n  </application>\n</manifest>";
    let job = external_job("chain/alias-20".into(), manifest.into(), vec![], alias_chain_code(20));
    let sequential = run_single(&job, &InfoflowConfig::default());
    assert_eq!(sequential.leaks, 1, "{}", sequential.report);
    assert!(sequential.backward_propagations > 0, "the chain must exercise the alias search");
    let parallel = run_single(&job, &InfoflowConfig::default().with_taint_threads(4));
    assert_eq!(parallel.report, sequential.report);
    assert_eq!(parallel.forward_propagations, sequential.forward_propagations);
    assert_eq!(parallel.backward_propagations, sequential.backward_propagations);
}
