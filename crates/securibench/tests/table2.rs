//! Table 2 reproduction: the analysis must score exactly the paper's
//! per-group TP/FP numbers on the generated SecuriBench-Micro-style
//! suite (117/121 TP, 9 FP overall).

use flowdroid_core::{Infoflow, InfoflowConfig, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::layout::ResourceTable;
use flowdroid_frontend::parse_jasm;
use flowdroid_ir::Program;
use flowdroid_securibench::{all_cases, cases_in, Group, MicroCase, MICRO_DEFS, MICRO_ENV};

fn run_case(case: &MicroCase) -> usize {
    // The platform stubs supply the library surface the wrapper rules
    // model (strings, collections, threads).
    let mut p = Program::new();
    flowdroid_android::install_platform(&mut p);
    let rt = ResourceTable::new();
    parse_jasm(&mut p, &rt, MICRO_ENV).unwrap();
    parse_jasm(&mut p, &rt, &case.code).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let sources = SourceSinkManager::parse(MICRO_DEFS).unwrap();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let entry = p
        .find_method(&case.entry_class, "main")
        .unwrap_or_else(|| panic!("{}: no main", case.name));
    let infoflow = Infoflow::new(&sources, &wrapper, &config);
    infoflow.run(&p, &[entry]).leak_count()
}

#[test]
fn per_case_outcomes_match_plan() {
    let mut failures = Vec::new();
    for case in all_cases() {
        let found = run_case(&case);
        let want = case.expected_reported();
        if found != want {
            failures.push(format!(
                "{} ({}): reported {found}, planned {want} (real {}, fps {}, miss {})",
                case.name, case.group, case.expected_leaks, case.planned_fps, case.planned_miss
            ));
        }
    }
    assert!(failures.is_empty(), "case mismatches:\n{}", failures.join("\n"));
}

#[test]
fn group_totals_match_table2() {
    for group in Group::all() {
        let (paper_tp, paper_real, paper_fp) = group.paper_row();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut real = 0usize;
        for case in cases_in(group) {
            let found = run_case(&case);
            real += case.expected_leaks;
            let case_tp = case.expected_leaks.min(found);
            tp += case_tp;
            fp += found - case_tp;
        }
        assert_eq!(real, paper_real, "{group}: real leak count");
        assert_eq!(tp, paper_tp, "{group}: true positives");
        assert_eq!(fp, paper_fp, "{group}: false positives");
    }
}

#[test]
fn overall_totals_match_paper() {
    // "An evaluation of FlowDroid on SecuriBench Micro shows a 96%
    // recall with only 9 false positives." (117/121)
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut real = 0usize;
    for case in all_cases() {
        let found = run_case(&case);
        real += case.expected_leaks;
        let case_tp = case.expected_leaks.min(found);
        tp += case_tp;
        fp += found - case_tp;
    }
    assert_eq!(real, 121);
    assert_eq!(tp, 117);
    assert_eq!(fp, 9);
}
