//! Golden regression net: the rendered Table-1 summary block is fully
//! deterministic (all three tools are), so any drift in any analysis
//! shows up here as a diff.

use flowdroid_bench::eval::{format_table1, run_table1};

#[test]
fn table1_summary_block_is_stable() {
    let rows = run_table1();
    let text = format_table1(&rows);
    let tail: Vec<&str> = text.lines().skip_while(|l| !l.starts_with("-- Sum")).collect();
    let rendered = tail.join("\n");
    let expected = "\
-- Sum, Precision and Recall --
★ (higher is better)                  9         14         26
☆ (lower is better)                   7          7          4
○ (lower is better)                  19         14          2
Precision                           56%        67%        87%
Recall                              32%        50%        93%
F-measure                          0.41       0.57       0.90";
    assert_eq!(rendered, expected, "full table:\n{text}");
}

#[test]
fn table1_flowdroid_marks_match_the_paper_rows() {
    let rows = run_table1();
    let by_name = |n: &str| rows.iter().find(|r| r.app == n).unwrap();
    // The four FlowDroid false positives…
    for fp in ["ArrayAccess1", "ArrayAccess2", "ListAccess1"] {
        let r = by_name(fp);
        assert_eq!((r.expected, r.reported.2), (0, 1), "{fp}");
    }
    let b2 = by_name("Button2");
    assert_eq!((b2.expected, b2.reported.2), (1, 2));
    // …and the two misses.
    for miss in ["IntentSink1", "StaticInitialization1"] {
        let r = by_name(miss);
        assert_eq!((r.expected, r.reported.2), (1, 0), "{miss}");
    }
}
