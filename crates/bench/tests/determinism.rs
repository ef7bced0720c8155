//! Determinism sweeps: the corpus driver and the demand-driven frontend
//! must produce results identical to the eager run across the corpus,
//! and repeat runs must produce the same bytes — laziness must never
//! change *what* is computed.

use flowdroid_bench::driver::{corpus_report, droidbench_corpus, run_corpus, CorpusRun};
use flowdroid_bench::{run_single, run_single_lazy};
use flowdroid_core::{InfoflowConfig, Job, Rules};
use flowdroid_frontend::App;

/// The corpus driver's leak report is byte-for-byte stable across
/// repeat runs.
#[test]
fn corpus_driver_report_stable_across_repeat_runs() {
    let jobs = droidbench_corpus();
    let config = InfoflowConfig::default();
    let baseline_run = run_corpus(&jobs, &config, run_single);
    assert_table_rows(&baseline_run);
    let baseline = corpus_report(&baseline_run);
    assert!(baseline.contains("leak(s)"));
    let again = corpus_report(&run_corpus(&jobs, &config, run_single));
    assert_eq!(again, baseline, "corpus report not stable across repeat runs");
}

/// The solver tabulates into bitset rows: a corpus run that recorded
/// none never exercised the fact tables.
fn assert_table_rows(run: &CorpusRun) {
    let rows = run.fact_table_totals().map_or(0, |t| t.rows);
    assert!(rows > 0, "corpus run recorded no table rows");
}

/// The demand-driven frontend (platform snapshot clone + lazy method
/// bodies, see `flowdroid_bench::run_single_lazy`) produces byte-for-byte
/// the same leak report as eager loading on the whole corpus — laziness
/// must only move *when* bodies are decoded, never what is analyzed.
/// The lazy sweep must also leave at least one body undecoded overall,
/// or it is not exercising the demand path at all.
#[test]
fn lazy_frontend_report_identical_to_eager() {
    use flowdroid_bench::full_corpus;
    let jobs = full_corpus();
    let config = InfoflowConfig::default();
    let eager_run = run_corpus(&jobs, &config, run_single);
    let lazy_run = run_corpus(&jobs, &config, run_single_lazy);
    assert_eq!(
        corpus_report(&lazy_run),
        corpus_report(&eager_run),
        "lazy report diverged from eager"
    );
    assert_table_rows(&lazy_run);
    let (materialized_eager, _) = eager_run.total_bodies();
    assert_eq!(materialized_eager, 0, "eager runs must not touch the demand path");
    let (materialized, skipped) = lazy_run.total_bodies();
    assert!(materialized > 0, "lazy sweep decoded no bodies on demand");
    assert!(skipped > 0, "lazy sweep left no body undecoded — nothing was lazy");
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

/// The alias-heavy chain shape (`k = 20`) pinned: one leak, a
/// backward alias search that actually runs, and exactly the forward
/// and backward propagation counts the solver has always reported for
/// it.
#[test]
fn alias_chain_propagation_counts_are_pinned() {
    let manifest = "<manifest package=\"chain\">\n  <application>\n    \
        <activity android:name=\".Main\">\n      <intent-filter><action \
        android:name=\"android.intent.action.MAIN\"/></intent-filter>\n    \
        </activity>\n  </application>\n</manifest>";
    let code = alias_chain_code(20);
    let job =
        Job::app("chain/alias-20".into(), App::bundle(manifest, &[], &code), Rules::android());
    let run = run_single(&job, &InfoflowConfig::default());
    assert_eq!(run.leaks, 1, "{}", run.report);
    assert!(run.backward_propagations > 0, "the chain must exercise the alias search");
    assert_eq!((run.forward_propagations, run.backward_propagations), (5475, 2118));
}
