//! Runners and printers for every table and figure of the paper's
//! evaluation (see DESIGN.md §2 for the experiment index).
//!
//! Every FlowDroid run goes through the job path the daemon serves
//! ([`flowdroid_core::job`]): the app is wrapped as a [`Job`], parsed
//! into an overlay of the shared platform snapshot and analyzed from
//! its parse. Reported durations time the analysis only, not the
//! parse. The AppScan-like and Fortify-like baselines are a different
//! analysis and load their apps themselves.

use crate::corpus::{generate_app, AppProfile};
use crate::driver::{bench_job, micro_job, shared_platform_snapshot};
use flowdroid_android::{install_platform, CallbackAssociation};
use flowdroid_baselines::BaselineTool;
use flowdroid_core::job::{analyze_parsed, parse_job};
use flowdroid_core::{InfoflowConfig, Job, Rules};
use flowdroid_droidbench::{all_apps, AppScore, BenchApp};
use flowdroid_ir::Program;
use flowdroid_securibench::{cases_in, Group};
use std::time::{Duration, Instant};

/// Runs `job` from its parse; returns the number of reported leaks and
/// the duration of the analysis (the parse is not timed).
fn run_job(job: &Job, config: &InfoflowConfig) -> (usize, Duration) {
    let snapshot = shared_platform_snapshot();
    let parsed = parse_job(job, snapshot.overlay_program()).expect("harness app parses");
    let start = Instant::now();
    let (_program, results) = analyze_parsed(parsed, config, snapshot);
    (results.leak_count(), start.elapsed())
}

/// Runs the reproduced FlowDroid on a DroidBench app; returns the
/// number of reported leaks and the analysis duration.
pub fn flowdroid_on(app: &BenchApp, config: &InfoflowConfig) -> (usize, Duration) {
    run_job(&bench_job(app.name.to_string(), app), config)
}

fn baseline_on(tool: BaselineTool, app: &BenchApp) -> usize {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let loaded = app.load(&mut p).unwrap();
    let rules = Rules::android();
    let Rules { sources, wrapper } = &*rules;
    flowdroid_baselines::analyze_app(tool, &mut p, &platform, &loaded, sources, wrapper)
        .leak_count()
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// App name.
    pub app: &'static str,
    /// Category title.
    pub category: &'static str,
    /// Real leaks in the app.
    pub expected: usize,
    /// Leaks reported by each tool: (AppScan-like, Fortify-like,
    /// FlowDroid).
    pub reported: (usize, usize, usize),
}

/// Runs all three tools over the Table-1 apps.
pub fn run_table1() -> Vec<Table1Row> {
    all_apps()
        .iter()
        .filter(|a| a.in_table)
        .map(|a| Table1Row {
            app: a.name,
            category: a.category.title(),
            expected: a.expected_leaks,
            reported: (
                baseline_on(BaselineTool::AppScanLike, a),
                baseline_on(BaselineTool::FortifyLike, a),
                flowdroid_on(a, &InfoflowConfig::default()).0,
            ),
        })
        .collect()
}

/// Formats the reproduced Table 1 (same layout as the paper:
/// ★ correct warning, ☆ false warning, ○ missed leak).
pub fn format_table1(rows: &[Table1Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mark = |expected: usize, found: usize| -> String {
        let tp = expected.min(found);
        let fp = found - tp;
        let miss = expected - tp;
        let mut s = String::new();
        s.push_str(&"★".repeat(tp));
        s.push_str(&"☆".repeat(fp));
        s.push_str(&"○".repeat(miss));
        if s.is_empty() {
            s.push('—');
        }
        s
    };
    writeln!(out, "Table 1: DroidBench results (★ correct, ☆ false alarm, ○ missed)").unwrap();
    writeln!(out, "{:<28} {:>10} {:>10} {:>10}", "App", "AppScan~", "Fortify~", "FlowDroid")
        .unwrap();
    let mut cur_cat = "";
    let mut scores = [AppScore::default(), AppScore::default(), AppScore::default()];
    for r in rows {
        if r.category != cur_cat {
            cur_cat = r.category;
            writeln!(out, "-- {cur_cat} --").unwrap();
        }
        writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>10}",
            r.app,
            mark(r.expected, r.reported.0),
            mark(r.expected, r.reported.1),
            mark(r.expected, r.reported.2),
        )
        .unwrap();
        scores[0].add(AppScore::from_counts(r.expected, r.reported.0));
        scores[1].add(AppScore::from_counts(r.expected, r.reported.1));
        scores[2].add(AppScore::from_counts(r.expected, r.reported.2));
    }
    writeln!(out, "-- Sum, Precision and Recall --").unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>10}",
        "★ (higher is better)", scores[0].tp, scores[1].tp, scores[2].tp
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>10}",
        "☆ (lower is better)", scores[0].fp, scores[1].fp, scores[2].fp
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>10}",
        "○ (lower is better)", scores[0].fn_, scores[1].fn_, scores[2].fn_
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>9.0}% {:>9.0}% {:>9.0}%",
        "Precision",
        scores[0].precision() * 100.0,
        scores[1].precision() * 100.0,
        scores[2].precision() * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>9.0}% {:>9.0}% {:>9.0}%",
        "Recall",
        scores[0].recall() * 100.0,
        scores[1].recall() * 100.0,
        scores[2].recall() * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10.2} {:>10.2} {:>10.2}",
        "F-measure",
        scores[0].f_measure(),
        scores[1].f_measure(),
        scores[2].f_measure()
    )
    .unwrap();
    out
}

/// Scores one SecuriBench Micro group under `config`: (true
/// positives, real leaks, false positives), each case counting at most
/// its real leaks as true positives.
pub fn securibench_group_score(group: Group, config: &InfoflowConfig) -> (usize, usize, usize) {
    let (mut tp, mut real, mut fp) = (0usize, 0usize, 0usize);
    for case in cases_in(group) {
        let expected = case.expected_leaks;
        let (found, _) = run_job(&micro_job(case), config);
        let case_tp = expected.min(found);
        tp += case_tp;
        real += expected;
        fp += found - case_tp;
    }
    (tp, real, fp)
}

/// Runs and formats the reproduced Table 2.
pub fn run_table2() -> String {
    use std::fmt::Write;

    let mut out = String::new();
    writeln!(out, "Table 2: SecuriBench Micro results").unwrap();
    writeln!(out, "{:<16} {:>8} {:>6}", "Test-case group", "TP", "FP").unwrap();
    let (mut ttp, mut treal, mut tfp) = (0usize, 0usize, 0usize);
    for group in Group::all() {
        let (tp, real, fp) = securibench_group_score(group, &InfoflowConfig::default());
        writeln!(out, "{:<16} {:>5}/{:<3} {:>5}", group.to_string(), tp, real, fp).unwrap();
        ttp += tp;
        treal += real;
        tfp += fp;
    }
    writeln!(out, "{:<16} {:>5}/{:<3} {:>5}", "Sum", ttp, treal, tfp).unwrap();
    out
}

/// RQ2: analyzes InsecureBank; returns (leaks found, expected, duration).
pub fn run_rq2() -> (usize, usize, Duration) {
    let app = flowdroid_droidbench::insecurebank::insecure_bank();
    let (found, dur) = flowdroid_on(&app, &InfoflowConfig::default());
    (found, app.expected_leaks, dur)
}

/// Aggregate statistics over one synthetic corpus (RQ3).
#[derive(Debug, Clone)]
pub struct Rq3Stats {
    /// Apps analyzed.
    pub apps: usize,
    /// Total leaks reported.
    pub leaks: usize,
    /// Leaks per app.
    pub leaks_per_app: f64,
    /// Mean analysis duration.
    pub mean: Duration,
    /// Minimum analysis duration.
    pub min: Duration,
    /// Maximum analysis duration.
    pub max: Duration,
}

/// RQ3: analyzes `n` apps of the given profile, one after another.
pub fn run_rq3(profile: AppProfile, n: usize, seed: u64) -> Rq3Stats {
    let mut durations = Vec::with_capacity(n);
    let mut leaks = 0usize;
    for i in 0..n {
        let (found, duration) =
            run_job(&generate_app(profile, i, seed).job(), &InfoflowConfig::default());
        durations.push(duration);
        leaks += found;
    }
    let total: Duration = durations.iter().sum();
    Rq3Stats {
        apps: n,
        leaks,
        leaks_per_app: leaks as f64 / n.max(1) as f64,
        mean: total / n.max(1) as u32,
        min: durations.iter().min().copied().unwrap_or_default(),
        max: durations.iter().max().copied().unwrap_or_default(),
    }
}

/// Ablation A1: access-path length sweep over the Table-1 apps.
/// Returns (k, TP, FP, total duration) per configuration.
pub fn run_ablation_access_path(lengths: &[usize]) -> Vec<(usize, usize, usize, Duration)> {
    let apps = all_apps();
    lengths
        .iter()
        .map(|&k| {
            let config = InfoflowConfig::default().with_access_path_length(k);
            let mut score = AppScore::default();
            let mut total = Duration::default();
            for app in apps.iter().filter(|a| a.in_table) {
                let (found, dur) = flowdroid_on(app, &config);
                score.add(AppScore::from_counts(app.expected_leaks, found));
                total += dur;
            }
            (k, score.tp, score.fp, total)
        })
        .collect()
}

/// Runs one config over the SecuriBench Aliasing group; returns
/// (TP, FP) — the group where the on-demand alias analysis matters
/// most.
pub fn aliasing_group_score(config: &InfoflowConfig) -> (usize, usize) {
    let (tp, _, fp) = securibench_group_score(Group::Aliasing, config);
    (tp, fp)
}

/// Ablation A2: alias-analysis variants over the Table-1 apps.
/// Returns (variant name, TP, FP).
pub fn run_ablation_alias() -> Vec<(&'static str, usize, usize)> {
    let variants: Vec<(&'static str, InfoflowConfig)> = vec![
        ("full (paper)", InfoflowConfig::default()),
        ("no alias analysis", InfoflowConfig::default().with_alias_analysis(false)),
        ("naive handover", InfoflowConfig::default().with_context_injection(false)),
        ("no activation stmts", InfoflowConfig::default().with_activation_statements(false)),
    ];
    let apps = all_apps();
    variants
        .into_iter()
        .map(|(name, config)| {
            let mut score = AppScore::default();
            for app in apps.iter().filter(|a| a.in_table) {
                let (found, _) = flowdroid_on(app, &config);
                score.add(AppScore::from_counts(app.expected_leaks, found));
            }
            (name, score.tp, score.fp)
        })
        .collect()
}

/// Ablation A3: per-component vs global callback association.
/// Returns (variant, TP, FP, total duration).
pub fn run_ablation_callbacks() -> Vec<(&'static str, usize, usize, Duration)> {
    let variants = [
        ("per-component (paper)", CallbackAssociation::PerComponent),
        ("global callbacks", CallbackAssociation::Global),
    ];
    let apps = all_apps();
    variants
        .into_iter()
        .map(|(name, assoc)| {
            let config = InfoflowConfig::default().with_callback_association(assoc);
            let mut score = AppScore::default();
            let mut total = Duration::default();
            for app in apps.iter().filter(|a| a.in_table) {
                let (found, dur) = flowdroid_on(app, &config);
                score.add(AppScore::from_counts(app.expected_leaks, found));
                total += dur;
            }
            (name, score.tp, score.fp, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_cover_all_table_apps() {
        let rows = run_table1();
        assert_eq!(rows.len(), 35);
        let fd: usize = rows.iter().map(|r| r.reported.2).sum();
        assert_eq!(fd, 30, "26 TP + 4 FP");
        let text = format_table1(&rows);
        assert!(text.contains("Precision"));
        assert!(text.contains("FlowDroid"));
    }

    #[test]
    fn rq2_runs() {
        let (found, expected, _) = run_rq2();
        assert_eq!(found, 7);
        assert_eq!(expected, 7);
    }

    #[test]
    fn rq3_small_sample() {
        let benign = run_rq3(AppProfile::BenignLike, 5, 11);
        let mal = run_rq3(AppProfile::MalwareLike, 5, 11);
        assert_eq!(benign.apps, 5);
        assert!(mal.leaks_per_app >= 1.0);
        // Malware-like apps are smaller → analyze faster on average.
        assert!(mal.mean <= benign.mean * 4);
    }
}
