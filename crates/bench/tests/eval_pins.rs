//! Pins the evaluation harness's own outputs beyond Table 1 (see
//! `table1_golden.rs`) and RQ2: the rendered Table 2, the three
//! ablations' scores, the SecuriBench Aliasing group under each alias
//! variant, and RQ3 leak totals on small seeded samples. Every runner
//! is deterministic, so a change in how the harness loads or runs an
//! app shows up here as a diff.

use flowdroid_bench::corpus::AppProfile;
use flowdroid_bench::eval::{
    aliasing_group_score, run_ablation_access_path, run_ablation_alias, run_ablation_callbacks,
    run_rq3, run_table2,
};
use flowdroid_core::InfoflowConfig;

#[test]
fn table2_text_is_pinned() {
    let expected = "\
Table 2: SecuriBench Micro results
Test-case group        TP     FP
Aliasing            11/11      0
Arrays               9/9       6
Basic               58/60      0
Collections         14/14      3
Datastructure        5/5       0
Factory              3/3       0
Inter               14/16      0
Session              3/3       0
StrongUpdates        0/0       0
Sum                117/121     9
";
    assert_eq!(run_table2(), expected);
}

#[test]
fn ablation_scores_are_pinned() {
    let a1: Vec<(usize, usize, usize)> = run_ablation_access_path(&[1, 2, 3, 5, 7])
        .into_iter()
        .map(|(k, tp, fp, _)| (k, tp, fp))
        .collect();
    assert_eq!(a1, [(1, 26, 5), (2, 26, 4), (3, 26, 4), (5, 26, 4), (7, 26, 4)]);
    assert_eq!(
        run_ablation_alias(),
        [
            ("full (paper)", 26, 4),
            ("no alias analysis", 25, 4),
            ("naive handover", 26, 5),
            ("no activation stmts", 26, 4),
        ]
    );
    let a3: Vec<(&str, usize, usize)> =
        run_ablation_callbacks().into_iter().map(|(name, tp, fp, _)| (name, tp, fp)).collect();
    assert_eq!(a3, [("per-component (paper)", 26, 4), ("global callbacks", 26, 4)]);
}

#[test]
fn aliasing_group_scores_are_pinned() {
    let default = InfoflowConfig::default;
    let pinned = [
        (default(), (11, 0)),
        (default().with_alias_analysis(false), (0, 0)),
        (default().with_context_injection(false), (11, 0)),
        (default().with_activation_statements(false), (11, 1)),
    ];
    for (config, score) in pinned {
        assert_eq!(aliasing_group_score(&config), score, "{config:?}");
    }
}

#[test]
fn rq3_leak_totals_are_pinned() {
    let pinned = [
        (AppProfile::BenignLike, 12, 11, 13),
        (AppProfile::MalwareLike, 12, 11, 25),
        (AppProfile::BenignLike, 8, 2014, 7),
        (AppProfile::MalwareLike, 8, 2014, 15),
    ];
    for (profile, n, seed, leaks) in pinned {
        let stats = run_rq3(profile, n, seed);
        assert_eq!((stats.apps, stats.leaks), (n, leaks), "{profile:?} n={n} seed={seed}");
    }
}
