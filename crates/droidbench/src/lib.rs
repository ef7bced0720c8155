#![warn(missing_docs)]

//! DroidBench 1.0, re-authored: the micro-benchmark suite the paper
//! proposes and evaluates on (Table 1), plus the InsecureBank app used
//! for RQ2.
//!
//! Every app is a complete Android-like package — manifest, layout XML
//! where relevant, and `jasm` code — together with its ground truth
//! (the number of *real* leaks). The 35 apps of the paper's Table 1 are
//! tagged [`BenchApp::in_table`]; four supplementary apps (documented
//! limitations: implicit flows, reflection) complete the suite to the
//! advertised 39, and six extended apps exercise chained callback
//! registration, bound services, content providers and multi-hop
//! exfiltration.
//!
//! The expected outcome of the reproduced FlowDroid on this suite
//! matches the paper exactly: 26 true positives, 4 false positives
//! (ArrayAccess1/2, ListAccess1, Button2 — conservative array indices
//! and missing strong updates), 2 misses (IntentSink1,
//! StaticInitialization1) → 86% precision / 93% recall.

mod apps;
pub mod insecurebank;

pub use apps::all_apps;

use flowdroid_frontend::{App, AppError};
use flowdroid_ir::Program;

/// The Table-1 categories.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Arrays and Lists.
    ArraysAndLists,
    /// Callbacks.
    Callbacks,
    /// Field and Object Sensitivity.
    FieldObjectSensitivity,
    /// Inter-App Communication.
    InterAppCommunication,
    /// Lifecycle.
    Lifecycle,
    /// General Java.
    GeneralJava,
    /// Miscellaneous Android-Specific.
    AndroidSpecific,
    /// Supplementary apps beyond Table 1.
    Supplementary,
}

impl Category {
    /// Display name matching the paper's table sections.
    pub fn title(self) -> &'static str {
        match self {
            Category::ArraysAndLists => "Arrays and Lists",
            Category::Callbacks => "Callbacks",
            Category::FieldObjectSensitivity => "Field and Object Sensitivity",
            Category::InterAppCommunication => "Inter-App Communication",
            Category::Lifecycle => "Lifecycle",
            Category::GeneralJava => "General Java",
            Category::AndroidSpecific => "Miscellaneous Android-Specific",
            Category::Supplementary => "Supplementary",
        }
    }
}

/// One benchmark app with its ground truth.
#[derive(Clone, Debug)]
pub struct BenchApp {
    /// App name as in Table 1.
    pub name: &'static str,
    /// Table category.
    pub category: Category,
    /// Whether the app appears in the paper's Table 1.
    pub in_table: bool,
    /// Number of *real* leaks in the app.
    pub expected_leaks: usize,
    /// What the app exercises.
    pub description: &'static str,
    /// `AndroidManifest.xml`.
    pub manifest: String,
    /// Layout resources (name, xml).
    pub layouts: Vec<(&'static str, &'static str)>,
    /// `jasm` code.
    pub code: String,
}

impl BenchApp {
    /// Loads this app into `program` (which should already hold the
    /// platform stubs).
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if any artifact fails to parse — which
    /// would be a bug in the suite itself.
    pub fn load(&self, program: &mut Program) -> Result<App, AppError> {
        let layouts: Vec<(&str, &str)> = self.layouts.clone();
        App::from_parts(program, &self.manifest, &layouts, &self.code)
    }

    /// Writes the app as an on-disk app directory
    /// (`AndroidManifest.xml`, `res/layout/*.xml`, `classes.jasm`) that
    /// the `flowdroid` CLI can analyze directly.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error encountered.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("AndroidManifest.xml"), &self.manifest)?;
        if !self.layouts.is_empty() {
            let ldir = dir.join("res/layout");
            std::fs::create_dir_all(&ldir)?;
            for (name, xml) in &self.layouts {
                std::fs::write(ldir.join(format!("{name}.xml")), xml)?;
            }
        }
        std::fs::write(dir.join("classes.jasm"), &self.code)?;
        Ok(())
    }
}

/// Score of one tool on one app, measured in leaks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppScore {
    /// Correct warnings (★).
    pub tp: usize,
    /// False warnings (☆).
    pub fp: usize,
    /// Missed leaks.
    pub fn_: usize,
}

impl AppScore {
    /// Scores `found` reported leaks against `expected` real leaks
    /// (count-based: the suite's apps are constructed so that counts
    /// identify flows unambiguously).
    pub fn from_counts(expected: usize, found: usize) -> AppScore {
        let tp = expected.min(found);
        AppScore { tp, fp: found - tp, fn_: expected - tp }
    }

    /// Accumulates another score.
    pub fn add(&mut self, other: AppScore) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// Precision ★/(★+☆); 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall ★/(★+missed); 1.0 when nothing was expected.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F-measure 2pr/(p+r).
    pub fn f_measure(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Per-category precision/recall aggregation: one [`AppScore`] per
/// category name, plus the overall total. The single scoring schema
/// shared by the DroidBench evaluation (`examples/droidbench_eval.rs`,
/// `flowdroid droidbench`) and the ground-truth harness
/// (`flowdroid-truth`), so precision/recall math lives in exactly one
/// place.
#[derive(Clone, Debug, Default)]
pub struct ScoreBoard {
    by_category: std::collections::BTreeMap<String, AppScore>,
}

impl ScoreBoard {
    /// An empty board.
    pub fn new() -> ScoreBoard {
        ScoreBoard::default()
    }

    /// Adds one app's score under `category` (created on first use).
    pub fn record(&mut self, category: &str, score: AppScore) {
        self.by_category.entry(category.to_string()).or_default().add(score);
    }

    /// `(category, score)` rows in sorted category order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &AppScore)> {
        self.by_category.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The sum over all categories.
    pub fn total(&self) -> AppScore {
        let mut t = AppScore::default();
        for s in self.by_category.values() {
            t.add(*s);
        }
        t
    }

    /// Renders the per-category table plus a total row, one line per
    /// category: `name  tp/fp/fn  precision recall`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let width = self.by_category.keys().map(|k| k.len()).max().unwrap_or(5).max(5);
        let mut out = String::new();
        let mut line = |name: &str, s: &AppScore| {
            writeln!(
                out,
                "{name:width$}  tp {:3}  fp {:3}  fn {:3}  precision {:.3}  recall {:.3}",
                s.tp,
                s.fp,
                s.fn_,
                s.precision(),
                s.recall()
            )
            .unwrap();
        };
        for (name, s) in &self.by_category {
            line(name, s);
        }
        line("TOTAL", &self.total());
        out
    }
}

/// Standard single-activity manifest used by most apps.
pub(crate) fn single_activity_manifest(pkg: &str, activity: &str) -> String {
    format!(
        r#"<manifest package="{pkg}">
  <application>
    <activity android:name=".{activity}">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_counts() {
        let apps = all_apps();
        // 35 Table-1 apps + 4 suite-completing supplementary apps (the
        // advertised 39) + 6 extended apps.
        assert_eq!(apps.len(), 45);
        assert_eq!(apps.iter().filter(|a| a.in_table).count(), 35);
    }

    #[test]
    fn expected_leak_total_matches_table1() {
        // Table 1 sums: 26 found + 2 missed = 28 real leaks.
        let total: usize = all_apps().iter().filter(|a| a.in_table).map(|a| a.expected_leaks).sum();
        assert_eq!(total, 28);
    }

    #[test]
    fn all_apps_parse() {
        for app in all_apps() {
            let mut p = Program::new();
            flowdroid_android::install_platform(&mut p);
            app.load(&mut p).unwrap_or_else(|e| panic!("app {} fails to load: {e}", app.name));
        }
    }

    #[test]
    fn names_are_unique() {
        let apps = all_apps();
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), apps.len());
    }

    #[test]
    fn write_to_dir_round_trips() {
        let apps = all_apps();
        let app = apps.iter().find(|a| a.name == "Button1").unwrap();
        let dir =
            std::env::temp_dir().join(format!("droidbench-export-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        app.write_to_dir(&dir).unwrap();
        let mut p = Program::new();
        flowdroid_android::install_platform(&mut p);
        let archive = flowdroid_frontend::Archive::from_dir(&dir).unwrap();
        let loaded = App::from_archive(&mut p, &archive).unwrap();
        assert_eq!(loaded.manifest.package, "dbench.btn1");
        assert_eq!(loaded.layouts.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn score_arithmetic() {
        let s = AppScore::from_counts(2, 3);
        assert_eq!(s, AppScore { tp: 2, fp: 1, fn_: 0 });
        let s = AppScore::from_counts(1, 0);
        assert_eq!(s, AppScore { tp: 0, fp: 0, fn_: 1 });
        let mut total = AppScore::default();
        total.add(AppScore { tp: 26, fp: 4, fn_: 2 });
        assert!((total.precision() - 0.8667).abs() < 0.001);
        assert!((total.recall() - 0.9286).abs() < 0.001);
        assert!(total.f_measure() > 0.89 && total.f_measure() < 0.90);
    }
}
