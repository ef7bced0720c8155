//! Runners and printers for every table and figure of the paper's
//! evaluation (see DESIGN.md §2 for the experiment index).

use crate::corpus::{generate_app, AppProfile};
use flowdroid_android::{install_platform, CallbackAssociation};
use flowdroid_baselines::BaselineTool;
use flowdroid_core::{Infoflow, InfoflowConfig, SourceSinkManager, TaintWrapper};
use flowdroid_droidbench::{all_apps, AppScore, BenchApp};
use flowdroid_ir::Program;
use std::time::{Duration, Instant};

/// Runs the reproduced FlowDroid on a DroidBench app; returns the
/// number of reported leaks and the data-flow duration.
pub fn flowdroid_on(app: &BenchApp, config: &InfoflowConfig) -> (usize, Duration) {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let loaded = app.load(&mut p).unwrap();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let infoflow = Infoflow::new(&sources, &wrapper, config);
    let start = Instant::now();
    let analysis = infoflow.analyze_app(&mut p, &platform, &loaded, "bench");
    (analysis.results.leak_count(), start.elapsed())
}

fn baseline_on(tool: BaselineTool, app: &BenchApp) -> usize {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let loaded = app.load(&mut p).unwrap();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    flowdroid_baselines::analyze_app(tool, &mut p, &platform, &loaded, &sources, &wrapper)
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

/// Runs and formats the reproduced Table 2.
pub fn run_table2() -> String {
    use flowdroid_frontend::layout::ResourceTable;
    use flowdroid_frontend::parse_jasm;
    use flowdroid_securibench::{cases_in, Group, MICRO_DEFS, MICRO_ENV};
    use std::fmt::Write;

    let mut out = String::new();
    writeln!(out, "Table 2: SecuriBench Micro results").unwrap();
    writeln!(out, "{:<16} {:>8} {:>6}", "Test-case group", "TP", "FP").unwrap();
    let (mut ttp, mut treal, mut tfp) = (0usize, 0usize, 0usize);
    for group in Group::all() {
        let (mut tp, mut fp, mut real) = (0usize, 0usize, 0usize);
        for case in cases_in(group) {
            let mut p = Program::new();
            install_platform(&mut p);
            let rt = ResourceTable::new();
            parse_jasm(&mut p, &rt, MICRO_ENV).unwrap();
            parse_jasm(&mut p, &rt, &case.code).unwrap();
            let sources = SourceSinkManager::parse(MICRO_DEFS).unwrap();
            let wrapper = TaintWrapper::default_rules();
            let config = InfoflowConfig::default();
            let entry = p.find_method(&case.entry_class, "main").unwrap();
            let found = Infoflow::new(&sources, &wrapper, &config).run(&p, &[entry]).leak_count();
            real += case.expected_leaks;
            let ctp = case.expected_leaks.min(found);
            tp += ctp;
            fp += found - ctp;
        }
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

/// RQ3: analyzes `n` apps of the given profile.
pub fn run_rq3(profile: AppProfile, n: usize, seed: u64) -> Rq3Stats {
    let mut durations = Vec::with_capacity(n);
    let mut leaks = 0usize;
    for i in 0..n {
        let g = generate_app(profile, i, seed);
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = g.load(&mut p);
        let sources = SourceSinkManager::default_android();
        let wrapper = TaintWrapper::default_rules();
        let config = InfoflowConfig::default();
        let start = Instant::now();
        let analysis =
            Infoflow::new(&sources, &wrapper, &config).analyze_app(&mut p, &platform, &app, "rq3");
        durations.push(start.elapsed());
        leaks += analysis.results.leak_count();
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

/// RQ3 with the per-app analyses spread over worker threads (the
/// paper's Heros solver is multi-threaded *within* one app; analyzing a
/// corpus parallelizes more naturally *across* apps).
pub fn run_rq3_parallel(profile: AppProfile, n: usize, seed: u64, workers: usize) -> Rq3Stats {
    let workers = workers.max(1);
    let results = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let results = &results;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = w;
                while i < n {
                    let g = generate_app(profile, i, seed);
                    let mut p = Program::new();
                    let platform = install_platform(&mut p);
                    let app = g.load(&mut p);
                    let sources = SourceSinkManager::default_android();
                    let wrapper = TaintWrapper::default_rules();
                    let config = InfoflowConfig::default();
                    let start = Instant::now();
                    let analysis = Infoflow::new(&sources, &wrapper, &config)
                        .analyze_app(&mut p, &platform, &app, "rq3p");
                    local.push((start.elapsed(), analysis.results.leak_count()));
                    i += workers;
                }
                results.lock().unwrap().extend(local);
            });
        }
    });
    let results = results.into_inner().unwrap();
    let leaks: usize = results.iter().map(|(_, l)| l).sum();
    let durations: Vec<Duration> = results.iter().map(|(d, _)| *d).collect();
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
    use flowdroid_frontend::layout::ResourceTable;
    use flowdroid_frontend::parse_jasm;
    use flowdroid_securibench::{cases_in, Group, MICRO_DEFS, MICRO_ENV};
    let (mut tp, mut fp) = (0usize, 0usize);
    for case in cases_in(Group::Aliasing) {
        let mut p = Program::new();
        install_platform(&mut p);
        let rt = ResourceTable::new();
        parse_jasm(&mut p, &rt, MICRO_ENV).unwrap();
        parse_jasm(&mut p, &rt, &case.code).unwrap();
        let sources = SourceSinkManager::parse(MICRO_DEFS).unwrap();
        let wrapper = TaintWrapper::default_rules();
        let entry = p.find_method(&case.entry_class, "main").unwrap();
        let found = Infoflow::new(&sources, &wrapper, config).run(&p, &[entry]).leak_count();
        let ctp = case.expected_leaks.min(found);
        tp += ctp;
        fp += found - ctp;
    }
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
    fn rq3_parallel_matches_sequential() {
        let seq = run_rq3(AppProfile::MalwareLike, 8, 5);
        let par = run_rq3_parallel(AppProfile::MalwareLike, 8, 5, 4);
        assert_eq!(seq.leaks, par.leaks);
        assert_eq!(seq.apps, par.apps);
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
