//! The differential engine matrix: every engine configuration runs the
//! generated corpus, reports are compared byte-for-byte pairwise, and
//! the reference engine's per-app leak counts are scored against the
//! ground-truth manifests.
//!
//! The matrix covers the axes grown over the repo's history:
//!
//! | engine            | configuration                                  |
//! |-------------------|------------------------------------------------|
//! | `seq-bitset`      | sequential solver (reference)                  |
//! | `par-taint-1`     | work-stealing parallel solver, 1 worker        |
//! | `par-taint-4`     | work-stealing parallel solver, 4 workers       |
//! | `lazy`            | demand-driven frontend (snapshot + lazy SDEX)  |
//! | `lazy-cg-warm`    | lazy + warm daemon-style callgraph cache       |
//! | `cache-cold`      | persistent summary store, populating pass      |
//! | `cache-warm`      | persistent summary store, replaying pass       |
//!
//! (The through-the-daemon leg lives in `solver_stats --mode
//! ground-truth`, which boots an in-process daemon and round-trips the
//! generated `.rpk` archives under the serve path policy.)

use crate::generate::TruthApp;
use flowdroid_android::install_platform;
use flowdroid_bench::{
    corpus_report, run_corpus, run_corpus_cold_warm, run_single_lazy, shared_platform_snapshot,
    CorpusJob, CorpusRun,
};
use flowdroid_core::{icc, CgCache, InfoflowConfig, SourceSinkManager, TaintWrapper};
use flowdroid_droidbench::{AppScore, ScoreBoard};
use flowdroid_frontend::App;
use flowdroid_ir::Program;
use std::path::Path;

/// One engine's sweep over the corpus.
pub struct EngineOutcome {
    /// Engine name (matrix row).
    pub name: &'static str,
    /// Concatenated name-sorted leak report — the byte-comparison unit.
    pub report: String,
    /// Per-app `(name, leaks)` in name order.
    pub leaks: Vec<(String, usize)>,
}

/// The outcome of the full differential sweep.
pub struct Differential {
    /// Every engine's corpus outcome, reference engine first.
    pub engines: Vec<EngineOutcome>,
    /// `agreement[i][j]` — whether engines `i` and `j` produced
    /// byte-identical corpus reports.
    pub agreement: Vec<Vec<bool>>,
    /// Number of disagreeing engine pairs (`i < j`).
    pub divergent_pairs: usize,
    /// Apps whose reference-engine leak count differs from the
    /// manifest's `expected_reported` (`"name: reported N, expected M"`).
    pub drift: Vec<String>,
    /// Per-category scores of the reference engine against
    /// `expected_flows` (real flows), all apps.
    pub board: ScoreBoard,
    /// Total over the constructive apps only — must be exact.
    pub constructive: AppScore,
    /// The k-limit probe over the `widening` category.
    pub k_limit: KLimitProbe,
}

impl Differential {
    /// True when every engine agreed, no app drifted from its manifest,
    /// and the widening chains demonstrably tripped the k-limit.
    pub fn ok(&self) -> bool {
        self.divergent_pairs == 0
            && self.drift.is_empty()
            && self.constructive.fp == 0
            && self.constructive.fn_ == 0
            && self.k_limit.ok()
    }
}

/// Evidence that the widening apps genuinely stress the access-path
/// bound. Each widening app reads a clean sibling field through the
/// same deeper-than-k chain as the secret: at the default bound the
/// truncated prefix *covers* the sibling and the engine reports it (the
/// paper's k-limiting over-approximation); with the bound raised above
/// the chain depth the false positive disappears and only the real flow
/// remains. A plain run can never observe interner-level widening —
/// propagation truncates before interning — so the probe measures the
/// limit behaviorally instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct KLimitProbe {
    /// Widening apps probed.
    pub apps: usize,
    /// Apps whose default-bound leak count strictly exceeds their
    /// loose-bound count — the k-limit visibly engaged.
    pub tripped: usize,
    /// Apps whose loose-bound leak count equals `expected_flows` —
    /// precision is restored once the bound clears the chain depth.
    pub precise: usize,
}

impl KLimitProbe {
    /// True when every widening app both tripped the default bound and
    /// was exact under the loose one.
    pub fn ok(&self) -> bool {
        self.apps > 0 && self.tripped == self.apps && self.precise == self.apps
    }
}

/// Access-path bound for the probe's loose leg: above the deepest chain
/// the generator emits (9), so nothing truncates.
const LOOSE_AP_BOUND: usize = 16;

fn outcome(name: &'static str, run: &CorpusRun) -> EngineOutcome {
    EngineOutcome {
        name,
        report: corpus_report(run),
        leaks: run.apps.iter().map(|a| (a.name.clone(), a.leaks)).collect(),
    }
}

/// Sweeps every engine configuration over `apps`. `cache_dir` hosts the
/// cold/warm summary store legs (created and torn down by the caller).
pub fn run_differential(apps: &[TruthApp], cache_dir: &Path) -> Differential {
    let jobs: Vec<CorpusJob> = apps.iter().map(|a| a.job()).collect();
    let mut engines = Vec::new();

    let reference = run_corpus(&jobs, &InfoflowConfig::default(), 1);
    engines.push(outcome("seq-bitset", &reference));
    engines.push(outcome(
        "par-taint-1",
        &run_corpus(&jobs, &InfoflowConfig::default().with_taint_threads(1), 1),
    ));
    engines.push(outcome(
        "par-taint-4",
        &run_corpus(&jobs, &InfoflowConfig::default().with_taint_threads(4), 1),
    ));
    engines.push(outcome(
        "lazy",
        &run_corpus(&jobs, &InfoflowConfig::default().with_lazy_frontend(true), 1),
    ));

    // Lazy + warm callgraph cache: the daemon's repeat-job path. Run
    // each job twice against one cache; keep the warm (replayed) run.
    {
        let cache = CgCache::new(jobs.len().max(1));
        let snapshot = shared_platform_snapshot();
        let config = InfoflowConfig::default().with_lazy_frontend(true);
        let mut warm = Vec::new();
        for job in &jobs {
            let _cold = run_single_lazy(job, &config, snapshot, Some(&cache));
            warm.push(run_single_lazy(job, &config, snapshot, Some(&cache)));
        }
        warm.sort_by(|a, b| a.name.cmp(&b.name));
        let report: String = warm.iter().map(|a| a.report.as_str()).collect();
        engines.push(EngineOutcome {
            name: "lazy-cg-warm",
            report,
            leaks: warm.iter().map(|a| (a.name.clone(), a.leaks)).collect(),
        });
    }

    // Cold/warm persistent summary store.
    let (cold, warm) =
        run_corpus_cold_warm(&jobs, &InfoflowConfig::default(), 1, cache_dir);
    engines.push(outcome("cache-cold", &cold));
    engines.push(outcome("cache-warm", &warm));

    let n = engines.len();
    let mut agreement = vec![vec![true; n]; n];
    let mut divergent_pairs = 0;
    for i in 0..n {
        for j in 0..n {
            let same = engines[i].report == engines[j].report;
            agreement[i][j] = same;
            if i < j && !same {
                divergent_pairs += 1;
            }
        }
    }

    // Score the reference engine against the manifests.
    let mut board = ScoreBoard::new();
    let mut constructive = AppScore::default();
    let mut drift = Vec::new();
    for app in apps {
        let found = engines[0]
            .leaks
            .iter()
            .find(|(n, _)| n == &app.name)
            .map(|(_, l)| *l)
            .unwrap_or(0);
        let score = AppScore::from_counts(app.expected_flows, found);
        board.record(app.category, score);
        if app.constructive {
            constructive.add(score);
        }
        if found != app.expected_reported {
            drift.push(format!(
                "{}: reported {found}, expected {}",
                app.name, app.expected_reported
            ));
        }
    }

    // The k-limit probe: re-run the widening apps with the bound raised
    // above every generated chain depth and compare leak counts.
    let mut k_limit = KLimitProbe::default();
    let widening: Vec<&TruthApp> =
        apps.iter().filter(|a| a.category == "widening").collect();
    if !widening.is_empty() {
        let jobs: Vec<CorpusJob> = widening.iter().map(|a| a.job()).collect();
        let loose = run_corpus(
            &jobs,
            &InfoflowConfig::default().with_access_path_length(LOOSE_AP_BOUND),
            1,
        );
        for app in &widening {
            let at = |run: &CorpusRun| {
                run.apps
                    .iter()
                    .find(|a| a.name == app.name)
                    .map(|a| a.leaks)
                    .unwrap_or(0)
            };
            let (tight, wide) = (at(&reference), at(&loose));
            k_limit.apps += 1;
            if tight > wide {
                k_limit.tripped += 1;
            }
            if wide == app.expected_flows {
                k_limit.precise += 1;
            }
        }
    }

    Differential {
        engines,
        agreement,
        divergent_pairs,
        drift,
        board,
        constructive,
        k_limit,
    }
}

/// The outcome of the linked-ICC check.
pub struct IccCheck {
    /// ICC pair apps checked.
    pub apps: usize,
    /// Per-app mismatches (`"name: linked N, expected M"`).
    pub mismatches: Vec<String>,
}

impl IccCheck {
    /// True when every pair's linked leak count matched its manifest.
    pub fn ok(&self) -> bool {
        self.apps > 0 && self.mismatches.is_empty()
    }
}

/// Runs the two-phase linked ICC analysis (`core::icc`) over every
/// generated sender/receiver pair and compares the linked leak count to
/// the manifest — the positive pair keeps both flows, the negative pair
/// loses the unlinked model's reception false positive.
pub fn check_icc_linked(apps: &[TruthApp]) -> IccCheck {
    let mut checked = 0;
    let mut mismatches = Vec::new();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    for app in apps.iter().filter(|a| a.expected_linked.is_some()) {
        let expected = app.expected_linked.unwrap();
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let layouts: Vec<(&str, &str)> =
            app.layouts.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        let loaded = App::from_parts(&mut p, &app.manifest, &layouts, &app.code)
            .expect("generated icc app parses");
        let results = icc::analyze_app_linked(
            &mut p, &platform, &loaded, &sources, &wrapper, &config, "truth",
        );
        checked += 1;
        if results.leak_count() != expected {
            mismatches.push(format!(
                "{}: linked {}, expected {expected}",
                app.name,
                results.leak_count()
            ));
        }
    }
    IccCheck { apps: checked, mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_corpus, CONSTRUCTIVE_CATEGORIES};

    fn temp_cache(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("flowdroid-truth-{tag}-{}", std::process::id()))
    }

    #[test]
    fn reference_engine_matches_ground_truth() {
        let apps = generate_corpus(1, 1);
        let cache = temp_cache("ref");
        let _ = std::fs::remove_dir_all(&cache);
        let d = run_differential(&apps, &cache);
        let _ = std::fs::remove_dir_all(&cache);
        assert!(d.drift.is_empty(), "ground-truth drift: {:?}", d.drift);
        assert_eq!(d.divergent_pairs, 0, "engines diverged");
        assert_eq!(d.constructive.fp, 0, "constructive false positive");
        assert_eq!(d.constructive.fn_, 0, "constructive miss");
        assert!(d.k_limit.ok(), "widening apps never tripped the k-limit: {:?}", d.k_limit);
        assert!(d.ok());
        // Every constructive category scored exactly 1.0/1.0.
        for (cat, score) in d.board.rows() {
            if CONSTRUCTIVE_CATEGORIES.contains(&cat) {
                assert_eq!((score.fp, score.fn_), (0, 0), "category {cat} drifted");
            }
        }
    }

    #[test]
    fn linked_icc_matches_ground_truth() {
        let apps = generate_corpus(2, 1);
        let check = check_icc_linked(&apps);
        assert!(check.ok(), "icc mismatches: {:?}", check.mismatches);
        assert_eq!(check.apps, 2);
    }
}
