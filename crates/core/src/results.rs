//! Analysis results: discovered source-to-sink flows with paths.

use flowdroid_ifds::AbortReason;
use flowdroid_ir::{Program, StmtRef};
use std::collections::BTreeSet;

/// One discovered leak: tainted data reaching a sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leak {
    /// The sink call statement.
    pub sink: StmtRef,
    /// The source statement that produced the taint, when path tracking
    /// could attribute it.
    pub source: Option<StmtRef>,
    /// Human-readable description of the tainted access path at the
    /// sink.
    pub taint: String,
    /// The propagation path from source to sink (statement references,
    /// source first), when path tracking is enabled.
    pub path: Vec<StmtRef>,
}

impl Leak {
    /// The source line of the sink statement (0 when unknown).
    pub fn sink_line(&self, program: &Program) -> u32 {
        line_of(program, self.sink)
    }

    /// The source line of the source statement (0 when unknown).
    pub fn source_line(&self, program: &Program) -> u32 {
        self.source.map_or(0, |s| line_of(program, s))
    }
}

pub(crate) fn line_of(program: &Program, s: StmtRef) -> u32 {
    program.method(s.method).body().map_or(0, |b| b.line(s.idx))
}

/// All results of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct InfoflowResults {
    /// Discovered leaks, deduplicated by (source, sink).
    pub leaks: Vec<Leak>,
    /// Forward path-edge propagations performed.
    pub forward_propagations: u64,
    /// Backward (alias) path-edge propagations performed.
    pub backward_propagations: u64,
    /// Forward path edges popped off the worklist. A fact that
    /// statements pass on unchanged is recorded down straight-line code
    /// without being queued, so this is below
    /// [`InfoflowResults::forward_propagations`]. Not rendered in
    /// [`InfoflowResults::report`].
    pub forward_pops: u64,
    /// Backward path edges popped off the worklist, likewise. Not
    /// rendered in [`InfoflowResults::report`].
    pub backward_pops: u64,
    /// Statements a walk judged with its per-statement predicate,
    /// forward and backward. A walk records the edges between two
    /// statements that might touch its fact in one fill, judging only
    /// where it stops, so this is far below the propagations. Not
    /// rendered in [`InfoflowResults::report`].
    pub walk_checks: u64,
    /// Slots reserved in the windows of the forward and backward
    /// path-edge rows: at least [`TableStats::rows`]' path-edge share,
    /// more where a window spans unwritten statements. Not rendered in
    /// [`InfoflowResults::report`].
    ///
    /// [`TableStats::rows`]: flowdroid_ifds::TableStats::rows
    pub row_slots: u64,
    /// Flow functions leak attribution re-ran to rebuild identity
    /// origins: where no walk predicate vouches that a statement passes
    /// the fact on unchanged. Not rendered in
    /// [`InfoflowResults::report`].
    pub flow_reevaluations: u64,
    /// Methods reachable from the entry points.
    pub reachable_methods: usize,
    /// Distinct facts hash-consed by the solver's interner (including
    /// the zero fact).
    pub distinct_facts: usize,
    /// Distinct access paths hash-consed by the solver's interner.
    pub distinct_aps: usize,
    /// Wall-clock duration of the data-flow phase: the fixpoint.
    pub duration: std::time::Duration,
    /// Wall-clock duration of result collection after the fixpoint:
    /// leak attribution and dropping the solver's tables.
    pub results: std::time::Duration,
    /// Set when the run was aborted before reaching the fixpoint — the
    /// propagation budget ([`crate::InfoflowConfig::max_propagations`])
    /// ran out, the wall-clock deadline passed, or the job was
    /// cancelled ([`crate::InfoflowConfig::abort`]). The reported leaks
    /// are then a lower bound.
    pub aborted: bool,
    /// Why the run aborted, when [`InfoflowResults::aborted`] is set.
    pub abort_reason: Option<AbortReason>,
    /// Tabulation-table density and widening counters, present when the
    /// tables recorded at least one row or the interner widened a fact.
    pub fact_tables: Option<flowdroid_ifds::TableStats>,
    /// `(statement, fact)` nodes with at least one recorded provenance
    /// origin (0 without path tracking). Identity flows record none, so
    /// this tracks the facts a run generates, not its propagations. Not
    /// rendered in [`InfoflowResults::report`].
    pub provenance_nodes: usize,
}

impl InfoflowResults {
    /// Number of leaks.
    pub fn leak_count(&self) -> usize {
        self.leaks.len()
    }

    /// Returns `true` if no leaks were found.
    pub fn is_clean(&self) -> bool {
        self.leaks.is_empty()
    }

    /// Distinct (source line, sink line) pairs, the unit the benchmark
    /// ground truth is expressed in.
    pub fn leak_lines(&self, program: &Program) -> BTreeSet<(u32, u32)> {
        self.leaks.iter().map(|l| (l.source_line(program), l.sink_line(program))).collect()
    }

    /// Renders a human-readable report.
    pub fn report(&self, program: &Program) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{} leak(s) found ({} reachable methods, {} fw + {} bw propagations, {:?})",
            self.leaks.len(),
            self.reachable_methods,
            self.forward_propagations,
            self.backward_propagations,
            self.duration
        )
        .unwrap();
        if self.aborted {
            let why = self.abort_reason.map_or("budget", AbortReason::as_str);
            writeln!(out, "  (analysis aborted ({why}); reported leaks are a lower bound)")
                .unwrap();
        }
        writeln!(
            out,
            "  ({} distinct facts, {} distinct access paths interned)",
            self.distinct_facts, self.distinct_aps
        )
        .unwrap();
        if let Some(ft) = &self.fact_tables {
            writeln!(
                out,
                "  (fact tables: {} rows, {} sparse / {} dense ({} words), {} widened facts)",
                ft.rows, ft.sparse_rows, ft.dense_rows, ft.dense_words, ft.widened_facts
            )
            .unwrap();
        }
        for (i, leak) in self.leaks.iter().enumerate() {
            let sink_m = program.signature(leak.sink.method);
            writeln!(out, "  [{}] sink {} (line {}):", i + 1, sink_m, leak.sink_line(program))
                .unwrap();
            writeln!(out, "      tainted: {}", leak.taint).unwrap();
            match leak.source {
                Some(src) => writeln!(
                    out,
                    "      source {} (line {})",
                    program.signature(src.method),
                    line_of(program, src)
                )
                .unwrap(),
                None => writeln!(out, "      source: <unattributed>").unwrap(),
            }
            if !leak.path.is_empty() {
                writeln!(out, "      path ({} steps):", leak.path.len()).unwrap();
                for step in &leak.path {
                    let line = line_of(program, *step);
                    writeln!(
                        out,
                        "        {} @{} (line {})",
                        program.signature(step.method),
                        step.idx,
                        line
                    )
                    .unwrap();
                }
            }
        }
        out
    }
}
