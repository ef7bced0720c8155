//! The four workloads and their seeded inputs.
//!
//! A workload is a small pool of generated `.rpk` apps, each one *kind*
//! of job, that the load generator sends round after round, in a seeded
//! order that changes every round, for the whole run, so every kind's
//! latency is a median over samples spread through the run (see
//! `README.md`). Each app carries the leak count a correct
//! analysis must report, known by construction: the truth generator's
//! `expected_reported` for truth apps, exactly one leak for every chain
//! app.

use flowdroid_frontend::App;
use flowdroid_truth::generate_corpus;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Truth-generator apps, each submission under a name the daemon has
    /// not seen: frontend, entry-point model, dummy main and reachable
    /// closure weigh most, and every cache misses.
    AppsFresh,
    /// The same kind of pool, each app always under its own name: the
    /// prepared-job registry and the callgraph cache hit on every job.
    AppsWarm,
    /// onCreate concat chains: the forward fixpoint dominates and no
    /// backward propagation happens.
    TaintForward,
    /// Heap chains whose every store triggers a backward alias search.
    TaintAlias,
}

impl Workload {
    /// Every workload, in the order a full run uses.
    pub const ALL: [Workload; 4] = [
        Workload::AppsFresh,
        Workload::AppsWarm,
        Workload::TaintForward,
        Workload::TaintAlias,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsFresh => "apps-fresh",
            Workload::AppsWarm => "apps-warm",
            Workload::TaintForward => "taint-forward",
            Workload::TaintAlias => "taint-alias",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Truth apps per category in an apps-* pool: nine categories, the ICC
/// one yielding a pair per index, so 120 apps. The callgraph cache holds
/// 256 entries, so on apps-warm the whole pool stays cached.
const TRUTH_PER_CATEGORY: usize = 12;
/// Chain lengths of taint-forward's three kinds of job.
const FORWARD_SIZES: [usize; 3] = [100, 200, 300];
/// Chain lengths of taint-alias's three kinds of job.
const ALIAS_SIZES: [usize; 3] = [20, 40, 60];

/// One generated app: one kind of job.
pub struct AppInput {
    /// The `.rpk` archive.
    pub bytes: Vec<u8>,
    /// Leaks a correct analysis reports.
    pub expected: u64,
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The pool: every distinct app.
    pub apps: Vec<AppInput>,
    /// Whether every submission goes under a name the daemon has not
    /// seen, so that no cache keyed by job name can hit.
    pub fresh: bool,
    /// The daemon's peak resident set is read after this many timed
    /// jobs, fewer than a run completes on a slow host (see `lib.rs`).
    pub rss_after: usize,
    seed: u64,
}

impl Inputs {
    /// The submission order: round after round of the whole pool, each
    /// round in a fresh seeded order. Never ends.
    pub fn order(&self) -> impl Iterator<Item = usize> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x006f_7264_6572);
        let n = self.apps.len();
        std::iter::repeat(()).flat_map(move |()| {
            let mut round: Vec<usize> = (0..n).collect();
            shuffle(&mut round, &mut rng);
            round
        })
    }
}

/// Generates the pool of `workload` from `seed`. The same seed gives
/// byte-identical archives in the same order.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let truth = || {
        generate_corpus(seed, TRUTH_PER_CATEGORY)
            .into_iter()
            .map(|t| AppInput {
                bytes: t.rpk_bytes(),
                expected: t.expected_reported as u64,
            })
            .collect()
    };
    let chains = |sizes: [usize; 3], alias: bool| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0063_6861_696e);
        sizes
            .iter()
            .map(|&k| {
                let pkg = format!("pf.c{k}.s{:x}", rng.next_u64() as u32);
                AppInput {
                    bytes: chain_rpk(&pkg, k, alias),
                    expected: 1,
                }
            })
            .collect()
    };
    let (apps, fresh, rss_after) = match workload {
        Workload::AppsFresh => (truth(), true, 5000),
        Workload::AppsWarm => (truth(), false, 5000),
        Workload::TaintForward => (chains(FORWARD_SIZES, false), true, 600),
        Workload::TaintAlias => (chains(ALIAS_SIZES, true), true, 300),
    };
    Inputs {
        apps,
        fresh,
        rss_after,
        seed,
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A single-activity app whose `onCreate` carries the IMEI through a
/// chain of `k` steps to one log sink, packed as an `.rpk`.
///
/// * forward (`alias == false`): `v_i = v_{i-1} + v_{i-1}` — the shape
///   of the daemon's `stress/k` job; every link stays tainted to the
///   sink, so forward propagations grow as about `k²/2` and nothing
///   touches the heap;
/// * alias: every box `x_i` is allocated and aliased (`a_i = x_i`)
///   up front, then `x_i.f = t_i; t_{i+1} = a_i.f` runs down the chain,
///   so every heap store starts a backward alias search that walks back
///   past all the allocations, and activation statements decide each
///   read through the alias.
///
/// `pkg` is the app's package name.
pub fn chain_rpk(pkg: &str, k: usize, alias: bool) -> Vec<u8> {
    let manifest = format!(
        "<manifest package=\"{pkg}\">\n  <application>\n    <activity android:name=\".Main\">\n      <intent-filter><action android:name=\"android.intent.action.MAIN\"/></intent-filter>\n    </activity>\n  </application>\n</manifest>"
    );
    let mut code = String::new();
    let mut w = |line: String| {
        code.push_str(&line);
        code.push('\n');
    };
    if alias {
        w(format!("class {pkg}.Box extends java.lang.Object {{"));
        w("  field f: java.lang.String".into());
        w("  method <init>() -> void {\n    return\n  }\n}".into());
    }
    w(format!("class {pkg}.Main extends android.app.Activity {{"));
    w("  method onCreate(b: android.os.Bundle) -> void {".into());
    w("    let o: java.lang.Object\n    let tm: android.telephony.TelephonyManager".into());
    let last = if alias {
        for i in 0..=k {
            w(format!("    let t{i}: java.lang.String"));
        }
        for i in 0..k {
            w(format!("    let x{i}: {pkg}.Box\n    let a{i}: {pkg}.Box"));
        }
        format!("t{k}")
    } else {
        for i in 0..k {
            w(format!("    let t{i}: java.lang.String"));
        }
        format!("t{}", k - 1)
    };
    w("    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>(\"phone\")".into());
    w("    tm = (android.telephony.TelephonyManager) o".into());
    w("    t0 = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()".into());
    if alias {
        for i in 0..k {
            w(format!("    x{i} = new {pkg}.Box"));
            w(format!(
                "    specialinvoke x{i}.<{pkg}.Box: void <init>()>()"
            ));
            w(format!("    a{i} = x{i}"));
        }
        for i in 0..k {
            w(format!("    x{i}.f = t{i}\n    t{} = a{i}.f", i + 1));
        }
    } else {
        for i in 1..k {
            w(format!("    t{i} = t{} + t{}", i - 1, i - 1));
        }
    }
    w(format!(
        "    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>(\"T\", {last})"
    ));
    w("    return\n  }\n}".into());
    App::bundle(&manifest, &[], &code).to_bytes()
}
