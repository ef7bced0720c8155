//! Determinism sweeps: the sharded parallel IFDS solver and the
//! parallel corpus driver must produce results identical to their
//! sequential counterparts across all DroidBench apps and every
//! thread count — parallelism must never change *what* is computed.

use flowdroid_android::{generate_dummy_main, install_platform, CallbackAssociation, EntryPointModel};
use flowdroid_bench::driver::{corpus_report, droidbench_corpus, run_corpus};
use flowdroid_bench::{external_job, run_single};
use flowdroid_callgraph::{CallGraph, CgAlgorithm, Icfg};
use flowdroid_core::InfoflowConfig;
use flowdroid_droidbench::all_apps;
use flowdroid_ifds::{IfdsProblem, ParallelSolver, Solver};
use flowdroid_ir::{Local, MethodId, Place, Program, Stmt, StmtRef};

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

/// The parallel bidirectional taint engine (forward + backward
/// propagation as interleaved jobs over the work-stealing scheduler)
/// produces byte-for-byte identical leak reports to the sequential
/// solver on every DroidBench app, at every worker count.
#[test]
fn parallel_taint_engine_matches_sequential_on_droidbench() {
    let jobs = droidbench_corpus();
    let sequential = corpus_report(&run_corpus(&jobs, &InfoflowConfig::default(), 1));
    assert!(sequential.contains("leak(s)"));
    for threads in [1usize, 2, 4, 8] {
        let config = InfoflowConfig::default().with_taint_threads(threads);
        let report = corpus_report(&run_corpus(&jobs, &config, 1));
        assert_eq!(report, sequential, "parallel taint report diverged at {threads} threads");
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
        let (materialized_eager, _) = eager_run.total_bodies();
        assert_eq!(materialized_eager, 0, "eager runs must not touch the demand path");
        let (materialized, skipped) = lazy_run.total_bodies();
        assert!(materialized > 0, "lazy sweep decoded no bodies on demand");
        assert!(skipped > 0, "lazy sweep left no body undecoded — nothing was lazy");
    }
}

/// Interned and whole-fact keys find the same leaks on the whole
/// Android corpus (interning is a pure representation change).
#[test]
fn interned_and_direct_keys_agree() {
    let jobs = droidbench_corpus();
    let interned = corpus_report(&run_corpus(&jobs, &InfoflowConfig::default(), 1));
    let direct = corpus_report(&run_corpus(
        &jobs,
        &InfoflowConfig::default().with_fact_interning(false),
        1,
    ));
    assert_eq!(interned, direct);
}

/// Bitset-backed tabulation tables (the default) produce byte-identical
/// corpus reports to the hash-map tables they replaced — sequentially
/// and through the parallel taint engine at 1 and 4 workers. The table
/// layout is pure representation; the fixpoint and its canonicalized
/// reports must not see it.
#[test]
fn bitset_tables_report_identical_to_hash_tables() {
    use flowdroid_bench::full_corpus;
    let jobs = full_corpus();
    for taint_threads in [0usize, 1, 4] {
        let bitset = InfoflowConfig::default().with_taint_threads(taint_threads);
        let hash = bitset.clone().with_bitset_tables(false);
        let bitset_run = run_corpus(&jobs, &bitset, 1);
        let hash_run = run_corpus(&jobs, &hash, 1);
        assert_eq!(
            corpus_report(&bitset_run),
            corpus_report(&hash_run),
            "bitset-table report diverged from hash tables at {taint_threads} taint thread(s)"
        );
        // The sweep must actually exercise both representations.
        assert!(
            bitset_run.fact_table_totals().is_some_and(|t| t.rows > 0),
            "bitset run recorded no table rows at {taint_threads} taint thread(s)"
        );
        assert!(
            hash_run.fact_table_totals().is_none(),
            "hash-table run unexpectedly reported density counters"
        );
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

/// Fact for [`DefinedLocals`]: `None` is zero, `Some(l)` means local
/// `l` may have been written on some path.
type Fact = Option<Local>;

/// A simple but genuinely interprocedural IFDS problem that runs on
/// any ICFG: which locals may have been assigned. Definitions flow
/// into callees through arguments and back out through return values,
/// so the solver's summary/incoming machinery is exercised on the real
/// DroidBench supergraphs (dummy main, lifecycle methods, callbacks).
struct DefinedLocals<'a> {
    icfg: Icfg<'a>,
    entry: MethodId,
}

impl DefinedLocals<'_> {
    fn stmt(&self, n: StmtRef) -> &Stmt {
        self.icfg.stmt(n)
    }
}

impl IfdsProblem for DefinedLocals<'_> {
    type Fact = Fact;

    fn zero(&self) -> Fact {
        None
    }

    fn initial_seeds(&self) -> Vec<(StmtRef, Fact)> {
        vec![(StmtRef::new(self.entry, 0), None)]
    }

    fn normal_flow(&self, n: StmtRef, _succ: StmtRef, d: &Fact) -> Vec<Fact> {
        let mut out = vec![*d];
        if d.is_none() {
            if let Stmt::Assign { lhs: Place::Local(lhs), .. } = self.stmt(n) {
                out.push(Some(*lhs));
            }
        }
        out
    }

    fn call_flow(&self, call: StmtRef, callee: MethodId, d: &Fact) -> Vec<Fact> {
        let Some(t) = d else { return vec![None] };
        let Some(expr) = self.stmt(call).invoke_expr() else { return vec![] };
        let m = self.icfg.program().method(callee);
        let mut out = Vec::new();
        for (i, arg) in expr.args.iter().enumerate() {
            if arg.as_local() == Some(*t) {
                out.push(Some(m.param_local(i)));
            }
        }
        out
    }

    fn return_flow(
        &self,
        call: StmtRef,
        _callee: MethodId,
        exit: StmtRef,
        _return_site: StmtRef,
        d: &Fact,
    ) -> Vec<Fact> {
        let Some(t) = d else { return vec![None] };
        if let Stmt::Return { value: Some(v) } = self.stmt(exit) {
            if v.as_local() == Some(*t) {
                if let Stmt::Invoke { result: Some(res), .. } = self.stmt(call) {
                    return vec![Some(*res)];
                }
            }
        }
        vec![]
    }

    fn call_to_return_flow(&self, call: StmtRef, _return_site: StmtRef, d: &Fact) -> Vec<Fact> {
        let mut out = vec![*d];
        if d.is_none() {
            if let Stmt::Invoke { result: Some(res), .. } = self.stmt(call) {
                out.push(Some(*res));
            }
        }
        out
    }
}

/// The sharded parallel solver reaches the exact sequential fixed
/// point — same statements, same fact sets, same propagation count —
/// on every DroidBench app at 1, 2, 4 and 8 threads.
#[test]
fn parallel_ifds_solver_matches_sequential_on_droidbench() {
    for app in all_apps() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let loaded = app.load(&mut p).expect("suite app parses");
        let model =
            EntryPointModel::build(&mut p, &platform, &loaded, CallbackAssociation::PerComponent);
        let dummy = generate_dummy_main(&mut p, &platform, &model, "det");
        let cg = CallGraph::build(&p, &[dummy], CgAlgorithm::Cha);
        let icfg = Icfg::new(&p, &cg);
        let problem = DefinedLocals { icfg, entry: dummy };
        let sequential = Solver::new(&icfg, &problem).solve();

        let mut seq_stmts: Vec<StmtRef> = sequential.reached_stmts().copied().collect();
        seq_stmts.sort();
        for threads in [1usize, 2, 4, 8] {
            let parallel = ParallelSolver::new(&icfg, &problem, threads).solve();
            let mut par_stmts: Vec<StmtRef> = parallel.reached_stmts().copied().collect();
            par_stmts.sort();
            assert_eq!(
                seq_stmts, par_stmts,
                "{}: reached statements diverged at {threads} threads",
                app.name
            );
            for n in &seq_stmts {
                let mut a: Vec<Fact> = sequential.facts_at(*n).to_vec();
                let mut b: Vec<Fact> = parallel.facts_at(*n).to_vec();
                a.sort();
                b.sort();
                assert_eq!(a, b, "{}: facts at {n:?} diverged at {threads} threads", app.name);
            }
            assert_eq!(
                sequential.propagation_count(),
                parallel.propagation_count(),
                "{}: propagation count diverged at {threads} threads",
                app.name
            );
        }
    }
}
