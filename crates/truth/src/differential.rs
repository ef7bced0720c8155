//! The differential engine matrix: every engine configuration runs the
//! generated corpus, reports are compared byte-for-byte pairwise, and
//! the reference engine's per-app leak counts are scored against the
//! ground-truth manifests.
//!
//! The matrix covers the solver's two interchangeable layers — how app
//! code is loaded and whether the callgraph setup is replayed:
//!
//! | engine            | configuration                                   |
//! |-------------------|-------------------------------------------------|
//! | `eager`           | program parsed into a platform overlay and run  |
//! |                   | from the parse (reference; a daemon first run)  |
//! | `lazy`            | demand-driven frontend (snapshot + lazy SDEX):  |
//! |                   | a prepared job's cold run, as on a second       |
//! |                   | submission                                      |
//! | `lazy-cg-warm`    | second run of the same prepared job: its stored |
//! |                   | callgraph setup replayed, as on every later one |
//!
//! (The through-the-daemon legs live in the service crate's
//! `tests/roundtrip.rs`, which submits names to an in-process daemon.)

use crate::generate::TruthApp;
use flowdroid_android::install_platform;
use flowdroid_bench::{corpus_report, run_corpus, run_single, shared_platform_snapshot, CorpusRun};
use flowdroid_core::job::{prepare, run_prepared};
use flowdroid_core::{icc, InfoflowConfig, Job, JobRun, SourceSinkManager, TaintWrapper};
use flowdroid_droidbench::{AppScore, ScoreBoard};
use flowdroid_frontend::App;
use flowdroid_ir::Program;

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

/// Sweeps every engine configuration over `apps`.
pub fn run_differential(apps: &[TruthApp]) -> Differential {
    let jobs: Vec<Job> = apps.iter().map(|a| a.job()).collect();
    let mut engines = Vec::new();

    let config = InfoflowConfig::default();
    let reference = run_corpus(&jobs, &config, run_single);
    engines.push(outcome("eager", &reference));

    // The reference above is the daemon's first run of a name, from
    // its parse. From the second submission on, the daemon runs a
    // prepared job: the first (cold) run stores the callgraph setup on
    // it, the next replays it.
    let snapshot = shared_platform_snapshot();
    let (mut cold, mut warm): (Vec<JobRun>, Vec<JobRun>) = jobs
        .iter()
        .map(|job| {
            let prepared = prepare(job, snapshot).expect("truth app parses");
            let cold = run_prepared(&prepared, &config, snapshot);
            let warm = run_prepared(&prepared, &config, snapshot);
            assert!(!cold.setup_replayed && warm.setup_replayed, "{}: no replay", job.name);
            (cold, warm)
        })
        .unzip();
    for (name, runs) in [("lazy", &mut cold), ("lazy-cg-warm", &mut warm)] {
        runs.sort_by(|a, b| a.name.cmp(&b.name));
        engines.push(EngineOutcome {
            name,
            report: runs.iter().map(|a| a.report.as_str()).collect(),
            leaks: runs.iter().map(|a| (a.name.clone(), a.leaks)).collect(),
        });
    }

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
        let found =
            engines[0].leaks.iter().find(|(n, _)| n == &app.name).map(|(_, l)| *l).unwrap_or(0);
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
    let widening: Vec<&TruthApp> = apps.iter().filter(|a| a.category == "widening").collect();
    if !widening.is_empty() {
        let jobs: Vec<Job> = widening.iter().map(|a| a.job()).collect();
        let loose = run_corpus(
            &jobs,
            &InfoflowConfig::default().with_access_path_length(LOOSE_AP_BOUND),
            run_single,
        );
        for app in &widening {
            let at = |run: &CorpusRun| {
                run.apps.iter().find(|a| a.name == app.name).map(|a| a.leaks).unwrap_or(0)
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

    Differential { engines, agreement, divergent_pairs, drift, board, constructive, k_limit }
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

    #[test]
    fn reference_engine_matches_ground_truth() {
        let apps = generate_corpus(1, 1);
        let d = run_differential(&apps);
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
